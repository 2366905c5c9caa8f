"""The benchmark's three workloads: train, serve and compose.

Each workload is a closed loop with one caller that waits for every reply.
Its inputs come from the default manifest's splits and from the workload
seed; the program under test receives only those inputs. Every call into
the program is an operation. One that raises or fails a check is counted
as failed, and the run goes on.

A run sets up once, then repeats the workload's unit for the given seconds:
a training round (train, compose) or one request (serve). Further set-ups
are timed at even intervals through the run; their median is ``setup_s``.
A traced run measures half of its time untraced and half with the span
wrappers installed; the per-layer metrics come from the traced half, and
the ratio of the two halves is the tracing overhead.

End-to-end timings are scaled to a reference host speed. On a shared host
identical work can take twice as long for stretches of seconds to minutes,
so between the program's operations the benchmark times a fixed reference
kernel (HostSpeed) and multiplies each raw time by REF_KERNEL_S over the
kernel time measured around it. The raw figures are printed alongside.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import math
import resource
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from moticomp import datagen, exits, predictor, training, vae
from moticomp.motion import MotionSequence, PartLayout

from spans import Tracer

WORKLOADS = ("train", "serve", "compose")
HORIZONS = (1, 3, 5, 8, 10)
BATCH = 32
PREDICTOR_EPOCHS = 1  # train_predictor epochs per train round
CAG_COEFFS = 25  # 25 coefficients x 24 coordinates: the 600-wide VAE input
CAG_HIDDEN = (256, 256)
# The served checkpoint is one fixed artifact; the workload seed drives the
# request stream that is sent to it.
SERVE_MODEL_SEED = 0
EXIT_TRIPLES = tuple(itertools.product((1, 2, 3), repeat=3))
WARM_UP_EXITS = ((1, 1, 1), (3, 3, 3))
KERNEL_EVERY = 10  # serve requests between two measurements of the host speed
KERNEL_REPEATS = 3  # kernel samples per measurement; their median counts
KERNEL_ITERS = 150
REF_KERNEL_S = 1.0e-3  # the reference kernel's time at reference host speed


@dataclass(frozen=True)
class Scale:
    """Input sizes and epoch counts. FULL is the benchmark; TOY is for the self-test.

    references maps a quality guard to (value recorded at the commit that
    defined the benchmark, allowed relative deviation). The values vary with
    the workload seed, so the tolerance covers the spread over seeds.
    """

    n_train: int | None = None  # None keeps the whole split
    n_val: int | None = None
    n_test: int | None = None
    cag_epochs: int = 4
    setups: int = 8
    references: dict[str, tuple[float, float]] | None = None


# Over workload seeds 1-15 the guards ranged 573.68-573.84 mm2, 51.34-51.45 mm
# and 28.65-28.82 mm. The served error covers every distinct request of a
# fixed checkpoint, so it does not depend on the seed.
FULL = Scale(references={
    "train_loss_final": (573.75, 0.01),
    "test_mpjpe_f10_mm": (51.41, 0.01),
    "cag_recon_mm": (28.70, 0.02),
    "served_f10_mm": (51.1305, 0.001),
})
TOY = Scale(n_train=8, n_val=3, n_test=6, cag_epochs=1, setups=2)


@dataclass
class Ops:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.errors) < 10:
            self.errors.append(why)


Metrics = dict[str, tuple[float, str]]


@dataclass
class Result:
    workload: str
    ops: Ops
    metrics: Metrics  # the BENCHMARK.json metrics of this mode
    details: Metrics  # further named figures of this workload, printed only
    tracer: Tracer | None = None

    @property
    def unmeasured(self) -> list[str]:
        return [name for name, (value, _) in self.metrics.items()
                if not math.isfinite(value)]

    @property
    def correct(self) -> bool:
        return self.ops.failed == 0 and not self.unmeasured


@dataclass
class Inputs:
    manifest: datagen.DatasetManifest
    layout: PartLayout
    train: list[MotionSequence]
    val: list[MotionSequence]
    test: list[MotionSequence]


class HostSpeed:
    """Times a fixed reference kernel: a Python loop of small matmuls, tanh
    and finiteness checks, the numpy calls the tape engine spends its time
    on, so that it slows down with the host as the program does.

    The kernel's time must not depend on what the program did before it:
    it writes into arrays it allocated once, leaving the allocator and the
    program's heap alone, and the cyclic collector is paused while it runs,
    so that no collection of the program's garbage lands in a sample.
    hostcheck.py checks that its time after serve requests, after training
    steps and after requests with a much larger heap agrees."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((8, 32))
        self._b = rng.random((32, 32))
        self._y = np.empty((8, 32))
        self._finite = np.empty((8, 32), dtype=bool)
        self.samples: list[float] = []

    def _sample(self) -> float:
        t0 = time.perf_counter()
        for _ in range(KERNEL_ITERS):
            np.matmul(self._a, self._b, out=self._y)
            np.tanh(self._y, out=self._y)
            np.isfinite(self._y, out=self._finite)
            if not self._finite.all():
                raise FloatingPointError("reference kernel produced non-finite values")
        return time.perf_counter() - t0

    def measure(self) -> float:
        """The median of KERNEL_REPEATS kernel times, after one untimed run
        that brings the kernel back into the caches the program used."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._sample()
            times = [self._sample() for _ in range(KERNEL_REPEATS)]
        finally:
            if enabled:
                gc.enable()
        self.samples.extend(times)
        return statistics.median(times)


def _scaled(raw_s: float, kernels: list[float]) -> float:
    """A raw time scaled to reference host speed by the kernel times around it."""
    return raw_s * REF_KERNEL_S / statistics.fmean(kernels)


def _spread(seqs: list[MotionSequence], n: int | None) -> list[MotionSequence]:
    """n sequences spaced evenly through a split, so every kind stays present."""
    if n is None or n >= len(seqs):
        return seqs
    return [seqs[int(i)] for i in np.linspace(0, len(seqs) - 1, n).round()]


def _history(seq: MotionSequence, n_input: int) -> MotionSequence:
    return MotionSequence(data=seq.data[:n_input], fps=seq.fps, label=seq.label)


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else math.nan


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else math.nan


def _rate(items: float, seconds: float) -> float:
    return items / seconds if seconds > 0 else math.nan


def _timings(rate: float, latencies: list[float]) -> Metrics:
    return {
        "items_per_s": (rate, "1/s"),
        "op_p50_ms": (1e3 * _percentile(latencies, 50), "ms"),
        "op_p90_ms": (1e3 * _percentile(latencies, 90), "ms"),
    }


@contextmanager
def _section(tracer: Tracer | None, name: str):
    if tracer is None:
        yield
        return
    idx = tracer.begin(name)
    try:
        yield
    finally:
        tracer.end(idx)


@contextmanager
def _step_clock(module, speed: HostSpeed, sink: list[tuple[float, float, float, float]]):
    """Time every optimizer step, from the start of a trainable module.bind to
    the end of the adam_step that follows it, and measure the host speed
    after each step. Appends (step seconds, measurement start, measurement
    end, kernel seconds) to sink."""
    bind, adam_step = module.bind, training.adam_step
    start = 0.0

    def timed_bind(tape, named, trainable):
        nonlocal start
        if trainable:
            start = time.perf_counter()
        return bind(tape, named, trainable)

    def timed_adam_step(*args, **kwargs):
        out = adam_step(*args, **kwargs)
        t = time.perf_counter()
        kernel = speed.measure()
        sink.append((t - start, t, time.perf_counter(), kernel))
        return out

    module.bind, training.adam_step = timed_bind, timed_adam_step
    try:
        yield
    finally:
        module.bind, training.adam_step = bind, adam_step


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


class Workload:
    def __init__(self, seed: int, scale: Scale, workdir: Path):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.speed = HostSpeed()
        self.setup_stats: dict[str, list[float]] = {}
        self.stats: dict[str, list] = {}

    def load_inputs(self) -> Inputs:
        t0 = time.perf_counter()
        manifest = datagen.default_manifest()
        splits = datagen.build_dataset(manifest)
        self.setup_stats.setdefault("build_s", []).append(time.perf_counter() - t0)
        s = self.scale
        return Inputs(manifest=manifest,
                      layout=PartLayout.from_skeleton(manifest.skeleton),
                      train=_spread(splits.train, s.n_train),
                      val=_spread(splits.val, s.n_val),
                      test=_spread(splits.test, s.n_test))

    def new_stats(self) -> None:
        self.stats = {}

    def record(self, key: str, value) -> None:
        self.stats.setdefault(key, []).append(value)

    def guard(self, name: str, value: float) -> list[str]:
        """Quality guard: value within the recorded reference's tolerance."""
        refs = self.scale.references
        if refs is None or name not in refs:
            return []
        ref, tol = refs[name]
        if abs(value / ref - 1.0) <= tol:
            return []
        return [f"{name} = {value!r} outside {ref} +/- {tol:.0%}"]

    def check_repeat(self, value) -> list[str]:
        """Outputs of a round that used the same seed as the first must repeat."""
        first = self.stats.setdefault("first_outputs", [value])[0]
        if first is value or _same(first, value):
            return []
        return ["outputs differ from the first round under the same seed"]

    def timed_steps(self, ops: Ops, steps: int, tracer: Tracer | None, span: str,
                    bind_module, call):
        """One training call with its optimizer steps timed.

        Returns the call's result, or None when it raised (all its steps then
        fail), and its timing for keep_steps.
        """
        ops.attempted += steps
        clock: list[tuple[float, float, float, float]] = []
        k_before = self.speed.measure()
        with _section(tracer, span), _step_clock(bind_module, self.speed, clock):
            t0 = time.perf_counter()
            try:
                result = call()
            except Exception as exc:
                ops.fail(steps, f"{span.split('.')[-1]} raised {exc!r}")
                result = None
            t_end = time.perf_counter()
        # The call's time less the host-speed measurements inside it, cut into
        # the stretches between them; each is scaled by the kernel at its ends.
        kernels = [k_before, *(k for *_, k in clock), self.speed.measure()]
        starts = [t0, *(m_end for _, _, m_end, _ in clock)]
        ends = [*(m_start for _, m_start, _, _ in clock), t_end]
        stretches = [e - s for s, e in zip(starts, ends)]
        timing = {"busy": sum(stretches),
                  "busy_scaled": sum(_scaled(d, kernels[i:i + 2])
                                     for i, d in enumerate(stretches)),
                  "steps": [step for step, *_ in clock],
                  "steps_scaled": [_scaled(step, kernels[i:i + 2])
                                   for i, (step, *_) in enumerate(clock)]}
        return result, timing

    def keep_steps(self, timing: dict, samples: int) -> None:
        """Record the samples, call time and step times of one timed_steps call."""
        self.record("trained", samples)
        self.record("busy", timing["busy"])
        self.record("busy_scaled", timing["busy_scaled"])
        self.stats.setdefault("ops", []).extend(timing["steps_scaled"])
        self.stats.setdefault("ops_raw", []).extend(timing["steps"])

    def step_timings(self) -> tuple[Metrics, Metrics]:
        st = self.stats
        trained = sum(st.get("trained", []))
        universal = _timings(_rate(trained, sum(st.get("busy_scaled", []))),
                             st.get("ops", []))
        raw = _timings(_rate(trained, sum(st.get("busy", []))), st.get("ops_raw", []))
        details = {f"{k}.raw": v for k, v in raw.items()}
        details["optimizer_steps"] = (len(st.get("ops", [])), "count")
        details["rounds"] = (len(st.get("trained", [])), "count")
        return universal, details

    # interface of the three workloads
    def set_up(self) -> None:
        """Build inputs and model; repeating it between units changes no output."""
        raise NotImplementedError

    def start(self) -> None:
        """Called once after the first set-up, before the first unit."""

    def unit(self, ops: Ops, tracer: Tracer | None) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Called after the last unit of a measured stretch."""

    def complete(self, ops: Ops) -> None:
        """Called once after the timed units of an untraced run."""

    def end_to_end(self) -> tuple[Metrics, Metrics]:
        raise NotImplementedError

    def layers(self, tracer: Tracer) -> tuple[Metrics, Metrics]:
        raise NotImplementedError


def _step_layers(tracer: Tracer, samples: int) -> tuple[Metrics, Metrics]:
    """Per-layer figures of optimizer steps (train and compose)."""
    steps = tracer.training_steps()
    fwd = [s["backward"].start - s["bind"].end for s in steps]
    nodes = sum(s["backward"].info["nodes"] for s in steps)
    macs = sum(s["backward"].info["macs"] for s in steps)
    universal = {
        "layers.bind_ms": (1e3 * _median([s["bind"].seconds for s in steps]), "ms"),
        "autodiff.forward_ms": (1e3 * _median(fwd), "ms"),
        "autodiff.nodes_per_sample": (nodes / max(samples, 1), "count"),
        "autodiff.macs_per_sample": (macs / max(samples, 1), "count"),
        "autodiff.mac_per_s": (macs / sum(fwd) if fwd else math.nan, "1/s"),
    }
    details = {
        "autodiff.backward_ms": (1e3 * _median([s["backward"].seconds for s in steps]), "ms"),
        "training.step_ms": (1e3 * _median([s["adam"].end - s["bind"].start for s in steps]), "ms"),
        "training.adam_step_ms": (1e3 * _median([s["adam"].seconds for s in steps]), "ms"),
        "training.steps": (len(steps), "count"),
    }
    return universal, details


def _dct_encode_ms(tracer: Tracer) -> float:
    return 1e3 * _median([s.seconds for s in tracer.spans if s.name == "dct.encode"])


# ----------------------------------------------------------------------
# train

class Train(Workload):
    """init_predictor_model + train_predictor for a fixed number of epochs,
    then evaluate with policy-routed exits on the test split."""

    def set_up(self) -> None:
        self.inputs = self.load_inputs()
        model = self.fresh_model(self.seed)
        training.routed_prediction(model, _history(self.inputs.test[0],
                                                   model.params.config.input_frames))

    def fresh_model(self, seed: int) -> training.PredictorModel:
        return training.init_predictor_model(np.random.default_rng(seed),
                                             self.inputs.layout,
                                             predictor.PredictorConfig())

    def start(self) -> None:
        self.rounds = 0

    def unit(self, ops: Ops, tracer: Tracer | None) -> None:
        n = len(self.inputs.train)
        steps = math.ceil(n / BATCH)
        # Each round draws its own seed from the workload seed: which exits
        # the Gumbel draws pick sets each step's work, and a run should
        # average over many draws rather than repeat one.
        seed = int(np.random.SeedSequence([self.seed, self.rounds]).generate_state(1)[0])
        self.rounds += 1
        # batch 32, the exit-balance constraint on, validation after the epoch
        config = training.TrainConfig(epochs=PREDICTOR_EPOCHS,
                                      constrain_epochs=PREDICTOR_EPOCHS,
                                      batch_size=BATCH, seed=seed)
        model = self.fresh_model(seed)
        result, timing = self.timed_steps(
            ops, steps, tracer, "bench.train_predictor", training,
            lambda: training.train_predictor(model, self.inputs.train,
                                             self.inputs.val, config))
        if result is not None:
            model = result.model
            history = result.history
            if (len(history) != PREDICTOR_EPOCHS or sum(history[0].exit_counts) != 3 * n
                    or not math.isfinite(history[0].loss)):
                ops.fail(steps, "epoch records (exit counts, loss) "
                         f"{[(rec.exit_counts, rec.loss) for rec in history]}, "
                         f"want one with counts summing to {3 * n} and a finite loss")
            else:
                self.keep_steps(timing, n)
                self.record("loss_final", history[0].loss)

        ops.attempted += 1
        with _section(tracer, "bench.evaluate"):
            t0 = time.perf_counter()
            try:
                report = training.evaluate(model, self.inputs.test, HORIZONS)
            except Exception as exc:
                ops.fail(1, f"evaluate raised {exc!r}")
                return
            eval_s = time.perf_counter() - t0
        flops = report.flops
        if not all(math.isfinite(e) for e in report.overall):
            ops.fail(1, f"non-finite test error {report.overall}")
            return
        if flops.weighted_average_total() > flops.full_depth_total():
            ops.fail(1, "routed MACs exceed full-depth MACs")
            return
        problems = self.guard("test_mpjpe_f10_mm", report.overall[-1])
        if result is not None and result.history:
            problems += self.guard("train_loss_final", result.history[-1].loss)
        if problems:
            ops.fail(1, "; ".join(problems))
            return
        self.record("eval_per_s", len(self.inputs.test) / eval_s)
        self.record("f10", report.overall[-1])
        self.record("report", report)

    def end_to_end(self) -> tuple[Metrics, Metrics]:
        st = self.stats
        universal, details = self.step_timings()
        universal["quality_mm"] = (_median(st.get("f10", [])), "mm")
        details.update({
            "train_samples_per_s": (universal["items_per_s"][0], "samples/s"),
            "train_loss_final": (_median(st.get("loss_final", [])), "mm2"),
            "eval_seqs_per_s.raw": (_median(st.get("eval_per_s", [])), "seq/s"),
            "test_mpjpe_f10_mm": (universal["quality_mm"][0], "mm"),
        })
        return universal, details

    def layers(self, tracer: Tracer) -> tuple[Metrics, Metrics]:
        universal, details = _step_layers(tracer, sum(self.stats.get("trained", [])))
        universal["dct.encode_ms"] = (_dct_encode_ms(tracer), "ms")
        roots = tracer.bench_roots()
        validate = 0.0
        routed_ms = []
        for i, span in enumerate(tracer.spans):
            if span.name != "training.routed_prediction" or roots[i] < 0:
                continue
            if tracer.spans[roots[i]].name == "bench.train_predictor":
                validate += span.seconds
            else:
                routed_ms.append(1e3 * span.seconds)
        # one epoch, so one validation pass, per round
        rounds = len(self.stats.get("trained", []))
        details["training.validate_s"] = (validate / max(rounds, 1), "s")
        details["predictor.routed_ms"] = (_median(routed_ms), "ms")
        reports = self.stats.get("report")
        if reports:
            flops = reports[-1].flops
            details["exits.routed_macs_saved_pct"] = (flops.percent_saved(), "%")
            for kind in flops.branch_names:
                for d, share in enumerate(flops.exit_distribution[kind], start=1):
                    details[f"exits.share.{kind}.d{d}"] = (share, "fraction")
        return universal, details


# ----------------------------------------------------------------------
# serve

def request_stream(seed: int, n_histories: int):
    """Endless seeded stream of (history index, exit triple) requests.

    Each cycle is a fresh shuffle of every history paired with every exit
    triple in {1,2,3}^3, so exits are uniform and a run that serves one
    full cycle has seen every request once.
    """
    keys = [(h, ex) for h in range(n_histories) for ex in EXIT_TRIPLES]
    rng = np.random.default_rng(seed)
    while True:
        for i in rng.permutation(len(keys)):
            yield keys[i]


class Serve(Workload):
    """predict(params, history, exits) requests against a reloaded checkpoint."""

    def set_up(self) -> None:
        self.inputs = self.load_inputs()
        config = predictor.PredictorConfig(zero_output_decoders=False)
        model = training.init_predictor_model(np.random.default_rng(SERVE_MODEL_SEED),
                                              self.inputs.layout, config)
        with tempfile.TemporaryDirectory(dir=self.workdir) as tmp:
            path = Path(tmp) / "predictor.json"
            t0 = time.perf_counter()
            datagen.save_checkpoint(path, model)
            t1 = time.perf_counter()
            loaded = datagen.load_checkpoint(path)
            t2 = time.perf_counter()
            self.checkpoint_bytes = path.stat().st_size
        self.setup_stats.setdefault("save_s", []).append(t1 - t0)
        self.setup_stats.setdefault("load_s", []).append(t2 - t1)
        before, after = model.named_parameters(), loaded.named_parameters()
        if before.keys() != after.keys() or not all(
                np.array_equal(before[k], after[k]) for k in before):
            raise RuntimeError("predictor checkpoint does not round-trip")
        self.params = loaded.params
        self.n_input = config.input_frames
        self.histories = [_history(s, self.n_input) for s in self.inputs.test]
        self.targets = [s.data[self.n_input:] for s in self.inputs.test]
        self.shape = self.inputs.test[0].data.shape
        for hist in self.histories[:5]:
            for ex in WARM_UP_EXITS:
                predictor.predict(self.params, hist, ex)

    def start(self) -> None:
        self.stream = request_stream(self.seed, len(self.histories))
        self.digests: dict = {}  # digest of the first reply to each distinct request
        self.f10: dict = {}  # error at frame 10 of each distinct request
        self.pending: list[tuple[float, int]] = []
        self.kernel = self.speed.measure()

    def unit(self, ops: Ops, tracer: Tracer | None) -> None:
        idx, ex = next(self.stream)
        if ops.attempted % KERNEL_EVERY == 0:
            self.finish()
        dt = self.request(ops, idx, ex, tracer)
        if dt is not None:
            self.pending.append((dt, sum(ex)))

    def request(self, ops: Ops, idx: int, ex: tuple[int, int, int],
                tracer: Tracer | None = None) -> float | None:
        """One checked predict call: its latency, or None when it failed."""
        ops.attempted += 1
        if tracer is not None:
            tracer.op = ops.attempted
            span = tracer.begin("bench.request")
        t0 = time.perf_counter()
        try:
            out = predictor.predict(self.params, self.histories[idx], ex)
        except Exception as exc:
            if tracer is not None:
                tracer.end(span)
            ops.fail(1, f"predict{ex} on history {idx} raised {exc!r}")
            return None
        dt = time.perf_counter() - t0
        if tracer is not None:
            tape = tracer.tape
            tracer.end(span, {"exits": ex, "nodes": len(tape.nodes),
                              "macs": tape.mac_count})
        data = out.data
        if data.shape != self.shape or not np.all(np.isfinite(data)):
            ops.fail(1, f"predict{ex} on history {idx}: shape {data.shape} "
                     "or non-finite values")
            return None
        digest = hashlib.blake2b(data.tobytes()).digest()
        first = self.digests.setdefault((idx, ex), digest)
        if first != digest:
            ops.fail(1, f"predict{ex} on history {idx} differs from its first reply")
            return None
        if (idx, ex) not in self.f10:
            self.f10[(idx, ex)] = training.mpjpe_metric(
                data[self.n_input:], self.targets[idx], HORIZONS[-1] - 1)
        return dt

    def finish(self) -> None:
        """Scale the latencies since the last host-speed measurement by a new one."""
        before, self.kernel = self.kernel, self.speed.measure()
        for dt, depth in self.pending:
            self.record("ops", _scaled(dt, [before, self.kernel]))
            self.record("ops_raw", dt)
            self.record("depth", depth)
        self.pending = []

    def complete(self, ops: Ops) -> None:
        """Serve, untimed, the distinct requests the timed loop did not reach,
        so that the served error covers them all, and guard that error."""
        for key in itertools.product(range(len(self.histories)), EXIT_TRIPLES):
            if key not in self.f10:
                self.request(ops, *key)
        if len(self.f10) == len(self.histories) * len(EXIT_TRIPLES):
            problems = self.guard("served_f10_mm", statistics.fmean(self.f10.values()))
            if problems:
                ops.fail(1, "; ".join(problems))

    def end_to_end(self) -> tuple[Metrics, Metrics]:
        st = self.stats
        lat, raw = st.get("ops", []), st.get("ops_raw", [])
        universal = _timings(_rate(len(lat), sum(lat)), lat)
        details = {f"{k}.raw": v for k, v in _timings(_rate(len(raw), sum(raw)), raw).items()}
        universal["quality_mm"] = (statistics.fmean(self.f10.values()) if self.f10
                                   else math.nan, "mm")
        details.update({
            "predict_p50_ms": (universal["op_p50_ms"][0], "ms"),
            "predict_p90_ms": (universal["op_p90_ms"][0], "ms"),
            "requests": (len(lat), "count"),
            "distinct_requests": (len(self.f10), "count"),
            "served_f10_mm": (universal["quality_mm"][0], "mm"),
        })
        return universal, details

    def layers(self, tracer: Tracer) -> tuple[Metrics, Metrics]:
        bind_in = {s.parent: s for s in tracer.spans if s.name == "layers.bind"}
        requests, fwd, bind_ms = [], [], []
        for i, req in enumerate(tracer.spans):
            if req.name == "bench.request" and req.info and i in bind_in:
                requests.append(req)
                bind_ms.append(1e3 * bind_in[i].seconds)
                fwd.append(req.end - bind_in[i].end)
        nodes = [r.info["nodes"] for r in requests]
        macs = [r.info["macs"] for r in requests]
        universal = {
            "layers.bind_ms": (_median(bind_ms), "ms"),
            "autodiff.forward_ms": (1e3 * _median(fwd), "ms"),
            "autodiff.nodes_per_sample": (float(np.mean(nodes)) if nodes else math.nan,
                                          "count"),
            "autodiff.macs_per_sample": (float(np.mean(macs)) if macs else math.nan,
                                         "count"),
            "autodiff.mac_per_s": (sum(macs) / sum(fwd) if fwd else math.nan, "1/s"),
            "dct.encode_ms": (_dct_encode_ms(tracer), "ms"),
        }
        # Request latencies by exit depth use the scaled end-to-end timings.
        lat = self.stats.get("ops", [])
        depth = self.stats.get("depth", [])
        details = {
            "datagen.save_checkpoint_s": (_median(self.setup_stats["save_s"]), "s"),
            "datagen.load_checkpoint_s": (_median(self.setup_stats["load_s"]), "s"),
            "datagen.checkpoint_bytes": (self.checkpoint_bytes, "B"),
            "autodiff.nodes_per_request": (universal["autodiff.nodes_per_sample"][0], "count"),
            "autodiff.macs_per_request": (universal["autodiff.macs_per_sample"][0], "count"),
            "predictor.requests": (len(lat), "count"),
            "predictor.predict_p99_ms": (1e3 * _percentile(lat, 99), "ms"),
        }
        by_depth: dict[int, list[float]] = {}
        for d, t in zip(depth, lat):
            by_depth.setdefault(d, []).append(t)
        for d in range(3, 10):
            details[f"predictor.predict_ms.depth{d}"] = (
                1e3 * _median(by_depth.get(d, [])), "ms")
        if len(set(depth)) > 1:
            block, fixed = np.polyfit(np.asarray(depth, float), np.asarray(lat), 1)
            details["predictor.fixed_ms"] = (1e3 * float(fixed), "ms")
            details["predictor.block_ms"] = (1e3 * float(block), "ms")
        return universal, details

    def mac_offsets(self, tracer: Tracer) -> set[float]:
        """Tape MACs less the analytic routed MACs, for every traced request."""
        table: dict[tuple[int, int, int], float] = {}
        offsets = set()
        for s in tracer.spans:
            if s.name == "bench.request" and s.info:
                ex = s.info["exits"]
                if ex not in table:
                    table[ex] = exits.count_flops(self.params, ex).weighted_average_total()
                offsets.add(s.info["macs"] - table[ex])
        return offsets


# ----------------------------------------------------------------------
# compose

class Compose(Workload):
    """train_cag, then synthesize_composite for every (upper, lower) pair,
    then reconstruction_mpjpe on the test split."""

    def set_up(self) -> None:
        self.inputs = self.load_inputs()
        self.config = vae.CagTrainConfig(epochs=self.scale.cag_epochs, batch_size=BATCH,
                                         hidden_dims=CAG_HIDDEN, n_coeffs=CAG_COEFFS,
                                         seed=self.seed)
        self.mask = vae.BodyMask.from_layout(self.inputs.layout)
        first = {}
        for seq in self.inputs.train:
            first.setdefault(seq.label, seq)
        self.pairs = [(first[u.name], first[l.name])
                      for u, l in self.inputs.manifest.composite_pairs
                      if u.name in first and l.name in first]
        s_m, s_n = self.pairs[0]
        vae.masked_fuse(s_m, s_n, self.mask, CAG_COEFFS)

    def unit(self, ops: Ops, tracer: Tracer | None) -> None:
        n = len(self.inputs.train)
        epochs = self.config.epochs
        steps = epochs * math.ceil(n / BATCH)
        result, timing = self.timed_steps(ops, steps, tracer, "bench.train_cag", vae,
                                  lambda: vae.train_cag(self.inputs.train, self.config))
        if result is None:
            return
        losses = result.loss_history
        if len(losses) != epochs or not all(math.isfinite(x) for x in losses):
            ops.fail(steps, f"train_cag loss history {losses}")
        else:
            self.keep_steps(timing, epochs * n)
        params = result.params

        noise_rng = np.random.default_rng(self.seed)
        composites = []
        synth_s = 0.0
        for s_m, s_n in self.pairs:
            ops.attempted += 1
            noise = noise_rng.standard_normal(params.latent_dim)
            with _section(tracer, "bench.synthesize"):
                t0 = time.perf_counter()
                try:
                    comp = vae.synthesize_composite(params, s_m, s_n, self.mask,
                                                    CAG_COEFFS, noise)
                except Exception as exc:
                    ops.fail(1, f"synthesize_composite raised {exc!r}")
                    continue
                dt = time.perf_counter() - t0
            label = f"{s_m.label}+{s_n.label}"
            if (comp.data.shape != s_m.data.shape or not np.all(np.isfinite(comp.data))
                    or comp.label != label):
                ops.fail(1, f"composite {comp.label!r}: want label {label!r}, "
                         "finite values and the atomic shape")
                continue
            synth_s += dt
            composites.append(comp.data)
        if composites:
            self.record("synth_per_s", len(composites) / synth_s)
            self.record("composites", len(composites))

        ops.attempted += 1
        try:
            recon = vae.reconstruction_mpjpe(params, self.inputs.test)
        except Exception as exc:
            ops.fail(1, f"reconstruction_mpjpe raised {exc!r}")
            return
        if not math.isfinite(recon):
            ops.fail(1, f"reconstruction error {recon!r}")
            return
        problems = self.check_repeat((losses, composites, recon))
        problems += self.guard("cag_recon_mm", recon)
        if problems:
            ops.fail(1, "; ".join(problems))
            return
        self.record("recon", recon)

    def end_to_end(self) -> tuple[Metrics, Metrics]:
        st = self.stats
        universal, details = self.step_timings()
        universal["quality_mm"] = (_median(st.get("recon", [])), "mm")
        details.update({
            "cag_samples_per_s": (universal["items_per_s"][0], "samples/s"),
            "synth_per_s.raw": (_median(st.get("synth_per_s", [])), "composites/s"),
            "cag_recon_mm": (universal["quality_mm"][0], "mm"),
            "composites": (sum(st.get("composites", [])), "count"),
        })
        return universal, details

    def layers(self, tracer: Tracer) -> tuple[Metrics, Metrics]:
        universal, details = _step_layers(tracer, sum(self.stats.get("trained", [])))
        universal["dct.encode_ms"] = (_dct_encode_ms(tracer), "ms")
        roots = tracer.bench_roots()
        synth_ms, dct_in = [], {}
        for i, span in enumerate(tracer.spans):
            if span.name == "bench.synthesize":
                synth_ms.append(1e3 * span.seconds)
                dct_in.setdefault(i, 0.0)
            elif span.name.startswith("dct.") and roots[i] >= 0 \
                    and tracer.spans[roots[i]].name == "bench.synthesize":
                dct_in[roots[i]] = dct_in.get(roots[i], 0.0) + span.seconds
        details["vae.synthesize_ms"] = (_median(synth_ms), "ms")
        details["vae.dct_ms"] = (1e3 * _median(list(dct_in.values())), "ms")
        return universal, details


CLASSES = {"train": Train, "serve": Serve, "compose": Compose}


# ----------------------------------------------------------------------
# the run

def _time_set_up(workload: Workload, sink: list[float], raw: list[float]) -> None:
    k0 = workload.speed.measure()
    t0 = time.perf_counter()
    workload.set_up()
    dt = time.perf_counter() - t0
    raw.append(dt)
    sink.append(_scaled(dt, [k0, workload.speed.measure()]))


def _repeat(workload: Workload, ops: Ops, seconds: float, tracer: Tracer | None,
            setups: tuple[list[float], list[float]] | None = None) -> None:
    """Run units until the next one would end past the deadline (at least one).

    With setups, a set-up is also timed every seconds / scale.setups, so that
    set-up time is sampled across the run and not in one stretch.
    """
    start = time.perf_counter()
    deadline = start + seconds
    every = seconds / workload.scale.setups
    next_setup = start + every
    while True:
        t0 = time.perf_counter()
        workload.unit(ops, tracer)
        t1 = time.perf_counter()
        if setups is not None and t1 >= next_setup:
            _time_set_up(workload, *setups)
            next_setup += every
        if time.perf_counter() + (t1 - t0) > deadline:
            workload.finish()
            return


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        scale: Scale = FULL) -> Result:
    workload = CLASSES[name](seed, scale, workdir)
    setup_s: list[float] = []
    setup_raw: list[float] = []
    _time_set_up(workload, setup_s, setup_raw)
    workload.start()
    ops = Ops()
    if not trace:
        workload.new_stats()
        _repeat(workload, ops, seconds, None, (setup_s, setup_raw))
        workload.complete(ops)
        universal, details = workload.end_to_end()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": (_median(setup_s), "s"),
                   "peak_rss_mb": (rss_mb, "MB"), **universal}
        kernel = workload.speed.samples
        q = statistics.quantiles(kernel, n=4) if len(kernel) > 1 else [math.nan] * 3
        details.update({
            "setup_s.raw": (_median(setup_raw), "s"),
            "setups": (len(setup_s), "count"),
            "host.kernel_ms": (1e3 * _median(kernel), "ms"),
            "host.kernel_iqr_ms": (1e3 * (q[2] - q[0]), "ms"),
            "host.kernel_samples": (len(kernel), "count"),
        })
        return Result(name, ops, metrics, details)

    for _ in range(scale.setups - 1):
        _time_set_up(workload, setup_s, setup_raw)
    workload.new_stats()
    _repeat(workload, ops, seconds / 2, None)
    plain = workload.stats.get("ops", [])
    workload.new_stats()
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        _repeat(workload, ops, seconds / 2, tracer)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    universal, details = workload.layers(tracer)
    gc_s = tracer.gc_seconds()
    metrics = {
        "datagen.build_dataset_s": (_median(workload.setup_stats["build_s"]), "s"),
        **universal,
        "python.gc_s": (gc_s, "s"),
        "python.gc_collections": (len(tracer.gc_pauses), "count"),
        "python.gc_share": (100.0 * gc_s / wall, "%"),
        # operation latencies (scaled to host speed) of the two halves
        "trace.overhead_pct": (100.0 * (_median(workload.stats.get("ops", []))
                                        / _median(plain) - 1.0), "%"),
    }
    if isinstance(workload, Serve):
        offsets = workload.mac_offsets(tracer)
        if len(offsets) != 1:
            ops.fail(1, f"tape MACs less count_flops differ between requests: "
                     f"{sorted(offsets)[:5]}")
        else:
            details["autodiff.mac_offset"] = (offsets.pop(), "count")
    for span_name, secs in sorted(tracer.self_seconds().items()):
        details[f"self.{span_name}_s"] = (secs, "s")
    return Result(name, ops, metrics, details, tracer)
