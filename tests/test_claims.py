"""Smoke tests of the claim scripts under claims/: each imports, and runs one
seed for one epoch at a small size through its own functions, so that a
rename in the package it patches or imports fails here."""

import dataclasses
import importlib.util
import math
from pathlib import Path

import pytest

from moticomp import training
from moticomp.datagen import build_dataset, default_manifest
from moticomp.motion import PartLayout

CLAIMS = Path(__file__).resolve().parents[1] / "claims"


def load_claim(name: str):
    spec = importlib.util.spec_from_file_location(f"claims_{name}", CLAIMS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def front_end(monkeypatch):
    """claims/front_end.py with its schedule cut to its first epoch, in which
    the exit-usage constraint is on."""
    module = load_claim("front_end")
    monkeypatch.setattr(module, "SCHEDULE",
                        dict(module.SCHEDULE, epochs=1, constrain_epochs=1))
    return module


@pytest.fixture(scope="module")
def small_splits():
    """The script's 60-frame split, at 2 training sequences per action and one
    test sequence per atomic and per composite action."""
    manifest = dataclasses.replace(default_manifest(), sequence_length=60,
                                   train_per_action=2, test_per_atomic=1,
                                   test_per_composite=1)
    return build_dataset(manifest), PartLayout.from_skeleton(manifest.skeleton)


def test_front_end_runs_every_arm_for_one_epoch(front_end, small_splits):
    splits, layout = small_splits
    prepare, bind = training._prepare_branch_inputs, training.bind
    for arm in front_end.ARMS:
        f10, composite, seconds = front_end.run(arm, 0, splits, layout)
        assert math.isfinite(f10) and math.isfinite(composite) and seconds > 0, arm
        # the learned arm patches the package and must restore it
        assert training._prepare_branch_inputs is prepare and training.bind is bind, arm


def test_front_end_learned_arm_reads_its_projections(front_end, small_splits, monkeypatch):
    # the stand-in really runs: a learned arm without its projections fails
    splits, layout = small_splits
    prepare = training._prepare_branch_inputs
    monkeypatch.setattr(front_end, "with_projections",
                        lambda rng, layout, config: training.init_predictor_model(
                            rng, layout, config))
    with pytest.raises(KeyError, match="mattn.wq"):
        front_end.run("learned", 0, splits, layout)
    assert training._prepare_branch_inputs is prepare
