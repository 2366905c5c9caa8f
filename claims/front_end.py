"""Does a learned attention over history windows beat the fixed front end?

Trains the small predictor (2 graph-conv layers per block) with sampled
exits on the 1050-step schedule (lr 3e-3, decay 0.99, batch 32, 150 epochs
over the 200 training atomics) and scores
the final model's routed error at future frame 10 on a 60-frame split with
10 test sequences per atomic and per composite action. Three arms per seed:

- learned: a 50-frame history whose front end adds to the DCT of the padded
  history a softmax-weighted sum of the DCTs of all 31 windows of
  sub_len + output_frames frames; the weights compare a learned projection
  of the newest sub_len frames with one of each window's first sub_len
  (after Mao et al., "History Repeats Itself", arXiv:2007.11755);
- newest: the same model with the package's front end, which adds the DCT
  of the newest window alone;
- default20: the package's default 20-frame history, on the last 30 frames
  of the same sequences, so it forecasts the same future frames.

The learned arm's projections take exactly the draws that init_predictor
skips for them, so at a seed all three arms start from the same other
arrays. Prints one row per run, then each paired difference (mean and
standard error over seeds) and the verdict: the learned path is kept only
if it lowers f10 by more than its standard error. Needs numpy only:

    PYTHONPATH=src python claims/front_end.py [--seeds 0 1 2 3 4]
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import time

import numpy as np

from moticomp import training
from moticomp.datagen import build_dataset, default_manifest
from moticomp.dct import dct_encode
from moticomp.motion import PartLayout
from moticomp.predictor import PredictorConfig, _part_indices, pad_last_frame

PROJECTION_WIDTH = 16  # columns of each learned projection
SCHEDULE = dict(lr=3e-3, lr_decay_per_epoch=0.99, batch_size=32, epochs=150)
SMALL = dict(layers_per_block=2)
ARMS = ("learned", "newest", "default20")


def learned_branch_inputs(bound: list):
    """A stand-in for training._prepare_branch_inputs that runs the learned
    window attention, reading mattn.wq and mattn.wk from the tensors that
    training last bound (bound[-1])."""

    def prepare(tape, params, history):
        cfg, tensors = params.config, bound[-1]
        h = history / cfg.coeff_scale
        batch, n, width = h.shape
        sub_len, n_coeffs = cfg.sub_len, cfg.resolved_n_coeffs
        span = sub_len + cfg.output_frames
        n_windows = n - span + 1
        windows = np.stack([h[:, i:i + span] for i in range(n_windows)], axis=1)
        values = dct_encode(windows, n_coeffs).reshape(batch, n_windows, -1)
        base = dct_encode(pad_last_frame(h, cfg.output_frames), n_coeffs)
        query = tape.matmul(tape.constant(h[:, n - sub_len:].reshape(batch, 1, -1)),
                            tensors["mattn.wq"])
        keys = tape.matmul(tape.constant(windows[:, :, :sub_len].reshape(batch, n_windows, -1)),
                           tensors["mattn.wk"])
        weights = tape.softmax_lastdim(tape.matmul(query, tape.transpose(keys)))
        context = tape.reshape(tape.matmul(weights, tape.constant(values)),
                               (batch, n_coeffs, width))
        whole = tape.transpose(tape.add(tape.constant(base), context))
        upper, lower, _ = _part_indices(params.layout)
        return {"upper": tape.gather([whole], upper, axis=-2),
                "lower": tape.gather([whole], lower, axis=-2), "whole": whole}

    return prepare


def with_projections(rng: np.random.Generator, layout: PartLayout,
                     config: PredictorConfig) -> training.PredictorModel:
    """init_predictor_model, with the two projections drawn from the values
    it skips and put first, as the learned front end named them."""
    in_dim = config.sub_len * layout.size
    bound = 1.0 / np.sqrt(in_dim)
    probe = copy.deepcopy(rng)
    wq, wk = (probe.uniform(-bound, bound, size=(in_dim, PROJECTION_WIDTH)) for _ in range(2))
    model = training.init_predictor_model(rng, layout, config)
    model.params.arrays = {"mattn.wq": wq, "mattn.wk": wk, **model.params.arrays}
    return model


def run(arm: str, seed: int, splits, layout: PartLayout) -> tuple[float, float, float]:
    """Train one arm at one seed: (f10, f10 on composites, train seconds)."""
    train, test = splits.train, splits.test
    if arm == "default20":
        train, test = ([s.with_data(s.data[-30:]) for s in split] for split in (train, test))
        config = PredictorConfig(**SMALL)
    else:
        config = PredictorConfig(input_frames=50, **SMALL)
    rng = np.random.default_rng(seed)
    schedule = training.TrainConfig(seed=seed, **SCHEDULE)
    prepare, bind = training._prepare_branch_inputs, training.bind
    try:
        if arm == "learned":
            bound: list = []
            training.bind = lambda *args, **kw: bound.append(bind(*args, **kw)) or bound[-1]
            training._prepare_branch_inputs = learned_branch_inputs(bound)
            model = with_projections(rng, layout, config)
        else:
            model = training.init_predictor_model(rng, layout, config)
        start = time.perf_counter()
        training.train_predictor(model, train, [], schedule)
        seconds = time.perf_counter() - start
        report = training.evaluate(model, test, (config.output_frames,))
    finally:
        training._prepare_branch_inputs, training.bind = prepare, bind
    counts = {}
    for seq in test:
        counts[seq.label] = counts.get(seq.label, 0) + 1
    composites = [a for a in counts if "+" in a]
    composite = (sum(report.per_action[a][0] * counts[a] for a in composites)
                 / sum(counts[a] for a in composites))
    return report.overall[0], composite, seconds


def paired(a: np.ndarray, b: np.ndarray) -> tuple[float, float, int]:
    """Mean and standard error of a - b over seeds, and how often a < b."""
    d = a - b
    se = float(d.std(ddof=1) / np.sqrt(d.size)) if d.size > 1 else float("nan")
    return float(d.mean()), se, int((d < 0).sum())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    args = parser.parse_args()
    manifest = dataclasses.replace(default_manifest(), sequence_length=60,
                                   test_per_atomic=10, test_per_composite=10)
    splits = build_dataset(manifest)
    layout = PartLayout.from_skeleton(manifest.skeleton)
    results = {arm: [] for arm in ARMS}
    print("| seed | arm | f10 (mm) | f10, composites (mm) | train s |")
    print("| --- | --- | --- | --- | --- |")
    for seed in args.seeds:
        for arm in ARMS:
            f10, composite, seconds = run(arm, seed, splits, layout)
            results[arm].append((f10, composite, seconds))
            print(f"| {seed} | {arm} | {f10:.3f} | {composite:.3f} | {seconds:.1f} |", flush=True)
    table = {arm: np.array(rows) for arm, rows in results.items()}
    print()
    print("| arm | mean f10 | mean f10, composites | mean train s |")
    print("| --- | --- | --- | --- |")
    for arm, rows in table.items():
        print(f"| {arm} | {rows[:, 0].mean():.3f} | {rows[:, 1].mean():.3f} "
              f"| {rows[:, 2].mean():.1f} |")
    print()
    n = len(args.seeds)
    print("| pair (a - b) | f10 diff (SE) | a lower in | composites diff (SE) | a lower in |")
    print("| --- | --- | --- | --- | --- |")
    for a, b in (("learned", "newest"), ("newest", "default20"), ("learned", "default20")):
        cells = []
        for col in (0, 1):
            mean, se, wins = paired(table[a][:, col], table[b][:, col])
            cells += [f"{mean:+.3f} ({se:.3f})", f"{wins} of {n}"]
        print(f"| {a} - {b} | " + " | ".join(cells) + " |")
    mean, se, _ = paired(table["learned"][:, 0], table["newest"][:, 0])
    verdict = ("keep the learned path" if mean < -se else
               "the learned path does not lower f10 beyond its SE: the newest window suffices")
    print(f"\nverdict: {verdict}")


if __name__ == "__main__":
    main()
