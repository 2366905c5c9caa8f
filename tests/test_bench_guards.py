"""The benchmark's predictor quality guards, computed from the package alone.

perfbench marks a run incorrect when a quality figure leaves its recorded
reference (perfbench/workloads.py, FULL.references). These tests compute the
same figures as its serve and train workloads build them, so that a change of
a default that moves them fails here first, not only in the benchmark.
"""

import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from moticomp import training  # noqa: E402
from moticomp.datagen import build_dataset, default_manifest  # noqa: E402
from moticomp.motion import MotionSequence, PartLayout  # noqa: E402
from moticomp.predictor import PredictorConfig, predict  # noqa: E402

WORKLOAD_SEED = 0  # the seed of a train run, as `perfbench/run.py --seed 0` gives it


@pytest.fixture(scope="module")
def splits():
    manifest = default_manifest()
    return PartLayout.from_skeleton(manifest.skeleton), build_dataset(manifest)


def assert_within_reference(name, value):
    ref, tol = workloads.FULL.references[name]
    assert abs(value / ref - 1.0) <= tol, f"{name} = {value!r} outside {ref} +/- {tol:.1%}"


def test_served_f10(splits):
    # every (history, exit triple) request the serve workload sends, on its
    # one fixed model
    layout, data = splits
    config = PredictorConfig(zero_output_decoders=False)
    model = training.init_predictor_model(np.random.default_rng(workloads.SERVE_MODEL_SEED),
                                          layout, config)
    n, frame = config.input_frames, workloads.HORIZONS[-1] - 1
    errors = []
    for seq in data.test:
        history = MotionSequence(data=seq.data[:n], fps=seq.fps, label=seq.label)
        for exits in workloads.EXIT_TRIPLES:
            out = predict(model.params, history, exits).data
            errors.append(training.mpjpe_metric(out[n:], seq.data[n:], frame))
    assert len(errors) == 56 * 27
    assert_within_reference("served_f10_mm", statistics.fmean(errors))


def test_one_train_round(splits):
    # the first round of a train run: its seed, model, schedule and evaluation
    layout, data = splits
    seed = int(np.random.SeedSequence([WORKLOAD_SEED, 0]).generate_state(1)[0])
    model = training.init_predictor_model(np.random.default_rng(seed), layout,
                                          PredictorConfig())
    config = training.TrainConfig(epochs=workloads.PREDICTOR_EPOCHS,
                                  constrain_epochs=workloads.PREDICTOR_EPOCHS,
                                  batch_size=workloads.BATCH, seed=seed)
    result = training.train_predictor(model, data.train, data.val, config)
    report = training.evaluate(result.model, data.test, workloads.HORIZONS)
    assert_within_reference("train_loss_final", result.history[-1].loss)
    assert_within_reference("test_mpjpe_f10_mm", report.overall[-1])
