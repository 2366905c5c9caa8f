"""In-memory span recording for the traced benchmark run.

The wrappers are installed from here on module globals of ``moticomp``; the
package itself is not edited. Every wrapped call site is looked up through
its module's globals (or, for ``Tape.backward``, its class) at call time, so
replacing the attribute is enough to see every call.

A span is (name, start, end, parent, op, info). ``parent`` is the index of
the span that was open when this one began, ``op`` the request or step id.
Spans stay in memory until the run ends; ``dump`` writes them out.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    info: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans, GC pauses, and the tape most recently passed to ``bind``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.gc_pauses: list[tuple[float, float, int]] = []
        self.op = -1
        self.tape = None
        self._open: list[int] = []
        self._gc_start = 0.0
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, op=self.op))
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def end(self, idx: int, info: dict | None = None) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.info = info
        self._open.pop()
        return span

    def _on_gc(self, phase: str, info: dict) -> None:
        # kept apart from self.spans: a collection can start inside begin()
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pauses.append((self._gc_start, time.perf_counter(),
                                   info["generation"]))

    # ------------------------------------------------------------------
    # wrappers

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace owner.attr by a traced call; note(args, kwargs) gives span info."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                self.end(idx, note(args, kwargs) if note is not None else None)

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def install(self) -> None:
        from moticomp import autodiff, predictor, training, vae

        def on_bind(args, kwargs):
            self.tape = args[0]
            trainable = kwargs["trainable"] if "trainable" in kwargs else args[2]
            return {"trainable": bool(trainable)}

        def on_backward(args, kwargs):
            tape = args[0]
            return {"nodes": len(tape.nodes), "macs": tape.mac_count}

        for module in (training, predictor, vae):
            self.wrap(module, "bind", "layers.bind", on_bind)
        self.wrap(training, "adam_step", "training.adam_step")
        self.wrap(training, "routed_prediction", "training.routed_prediction")
        self.wrap(predictor, "dct_encode", "dct.encode")
        self.wrap(vae, "dct_encode", "dct.encode")
        self.wrap(vae, "idct_decode", "dct.decode")
        self.wrap(autodiff.Tape, "backward", "autodiff.backward", on_backward)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        self.tape = None

    # ------------------------------------------------------------------
    # analysis

    def bench_roots(self) -> list[int]:
        """For each span, its nearest enclosing benchmark span ("bench.*"), or -1."""
        roots = []
        for i, span in enumerate(self.spans):
            if span.name.startswith("bench."):
                roots.append(i)
            else:
                roots.append(roots[span.parent] if span.parent >= 0 else -1)
        return roots

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name: duration less the time of child spans."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.seconds
        totals: dict[str, float] = {}
        for i, span in enumerate(self.spans):
            totals[span.name] = totals.get(span.name, 0.0) + span.seconds - child[i]
        return totals

    def training_steps(self) -> list[dict[str, Span]]:
        """Group spans into optimizer steps: a trainable bind, backward, adam_step.

        Also stamps each span of a step with the step's id.
        """
        steps: list[dict[str, Span]] = []
        current: dict[str, Span] | None = None
        first = 0
        for i, span in enumerate(self.spans):
            if span.name == "layers.bind" and span.info and span.info["trainable"]:
                current, first = {"bind": span}, i
            elif current is not None and span.name == "autodiff.backward":
                current["backward"] = span
            elif current is not None and span.name == "training.adam_step":
                if "backward" in current:
                    current["adam"] = span
                    for inner in self.spans[first:i + 1]:
                        inner.op = len(steps)
                    steps.append(current)
                current = None
        return steps

    def gc_seconds(self) -> float:
        return sum(end - start for start, end, _ in self.gc_pauses)

    def dump(self, path: Path, summary: dict) -> None:
        doc = {
            "summary": summary,
            "span_fields": ["name", "start", "end", "parent", "op", "info"],
            "spans": [[s.name, s.start, s.end, s.parent, s.op, s.info]
                      for s in self.spans],
            "gc_fields": ["start", "end", "generation"],
            "gc": self.gc_pauses,
            "self_seconds": self.self_seconds(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))
