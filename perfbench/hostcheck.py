"""Check that the host-speed divisor does not depend on what the program did.

The end-to-end timings are divided by the reference kernel's time
(workloads.HostSpeed), measured between the program's operations. That is only
sound if the kernel's time follows the host and not the program. This
script cycles, in one process, blocks of program work in four modes and
measures the kernel after each block:

- ``serve``: 20 ``predict`` requests;
- ``busy``: the same, each followed by a fixed amount of extra Python work;
- ``footprint``: the same, with 400 000 extra live objects on the heap and
  an 8 MB array written after each request, which evicts the caches;
- ``train``: ``train_predictor`` on 64 sequences, with the kernel measured
  after each ``adam_step``, inside the training loop, as the train and
  compose workloads measure it.

Host drift hits every mode alike, so the kernel's median after each mode,
as a share of its median after ``serve`` in the same cycle, should be close
to 1. The extra work of ``busy`` should then read the same raw and scaled. Run from the root of a
checkout:

    python3 perfbench/hostcheck.py --seconds 90
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from moticomp import datagen, predictor, training  # noqa: E402
from moticomp.motion import PartLayout  # noqa: E402

MODES = ("serve", "busy", "footprint", "train")
EXTRA_WORK = 30_000  # loop iterations after each busy request, about 1.5 ms


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=float, default=90.0)
    seconds = p.parse_args().seconds

    manifest = datagen.default_manifest()
    splits = datagen.build_dataset(manifest)
    layout = PartLayout.from_skeleton(manifest.skeleton)
    params = training.init_predictor_model(
        np.random.default_rng(0), layout,
        predictor.PredictorConfig(zero_output_decoders=False)).params
    histories = [workloads._history(s, params.config.input_frames) for s in splits.test]
    speed = workloads.HostSpeed()
    evict = np.zeros(1 << 20)

    def serve_block(mode: str, first: int) -> float:
        ballast = [(i, str(i)) for i in range(400_000)] if mode == "footprint" else None
        times = []
        for i in range(20):
            t0 = time.perf_counter()
            predictor.predict(params, histories[(first + i) % len(histories)],
                              (1 + i % 3, 2, 3 - i % 3))
            if mode == "busy":
                x = 0
                for _ in range(EXTRA_WORK):
                    x += 1
            elif mode == "footprint":
                np.add(evict, 1.0, out=evict)
            times.append(time.perf_counter() - t0)
        del ballast
        return statistics.median(times)

    def train_block(seed: int) -> float:
        """The median kernel time after the block's optimizer steps."""
        model = training.init_predictor_model(np.random.default_rng(seed), layout,
                                              predictor.PredictorConfig())
        config = training.TrainConfig(epochs=1, constrain_epochs=1, batch_size=32, seed=seed)
        adam_step, after_step = training.adam_step, []

        def measured_adam_step(*args, **kwargs):
            out = adam_step(*args, **kwargs)
            after_step.append(speed.measure())
            return out

        training.adam_step = measured_adam_step
        try:
            training.train_predictor(model, splits.train[:64], splits.val[:2], config)
        finally:
            training.adam_step = adam_step
        return statistics.median(after_step)

    kernel: dict[str, list[float]] = {m: [] for m in MODES}
    request: dict[str, list[float]] = {m: [] for m in MODES[:2]}
    deadline = time.perf_counter() + seconds
    cycle = 0
    while time.perf_counter() < deadline:
        for mode in MODES:
            if mode == "train":
                kernel[mode].append(train_block(cycle))
                continue
            t = serve_block(mode, cycle)
            if mode in request:
                request[mode].append(t)
            kernel[mode].append(speed.measure())
        cycle += 1

    base = statistics.median(kernel["serve"])
    for mode, ks in kernel.items():
        paired = statistics.median(k / s for k, s in zip(ks, kernel["serve"]))
        print(f"kernel after {mode:9s} = {1e3 * statistics.median(ks):.4f} ms, "
              f"{statistics.median(ks) / base:.3f} x serve (per cycle {paired:.3f} x), "
              f"{len(ks)} cycles")
    raw = statistics.median(request["busy"]) / statistics.median(request["serve"])
    scaled = statistics.median(b / k for b, k in zip(request["busy"], kernel["busy"])) \
        / statistics.median(s / k for s, k in zip(request["serve"], kernel["serve"]))
    print(f"busy request / serve request = {raw:.3f} raw, {scaled:.3f} scaled")
    return 0


if __name__ == "__main__":
    sys.exit(main())
