"""Self-test of the benchmark at toy size.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import workloads  # noqa: E402
from moticomp import predictor, training  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _toy(name, tmp_path, trace=False, seed=0):
    return workloads.run(name, seed, 0.3, trace, workdir=tmp_path, scale=workloads.TOY)


def test_workloads_match_the_spec():
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.WORKLOADS
    assert run.WORKLOADS == workloads.WORKLOADS


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_listed_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    line = json.loads(run.result_json(_toy(name, tmp_path, trace)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1


def test_a_raising_request_counts_as_failed_and_the_run_goes_on(monkeypatch, tmp_path):
    real = predictor.predict
    raised = False

    def flaky(params, history, exits):
        nonlocal raised
        if not raised and tuple(exits) not in workloads.WARM_UP_EXITS:
            raised = True
            raise FloatingPointError("injected fault")
        return real(params, history, exits)

    monkeypatch.setattr(predictor, "predict", flaky)
    result = _toy("serve", tmp_path)
    assert result.ops.failed == 1
    assert result.ops.attempted > 1
    assert not result.correct
    assert "injected fault" in result.ops.errors[0]


def test_a_raising_optimizer_step_fails_its_round_not_the_run(monkeypatch, tmp_path):
    real = training.adam_step
    calls = 0

    def flaky(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == 1:
            raise FloatingPointError("injected fault")
        return real(*args, **kwargs)

    monkeypatch.setattr(training, "adam_step", flaky)
    result = _toy("train", tmp_path)
    assert result.ops.failed == 1  # the first toy round has one step
    assert result.ops.attempted >= 2  # evaluate still ran
    assert "injected fault" in result.ops.errors[0]
    assert not result.correct


def test_two_seeds_give_different_request_streams_under_the_same_metrics(
        monkeypatch, tmp_path):
    def head(seed):
        return list(itertools.islice(workloads.request_stream(seed, 56), 64))

    assert head(1) == head(1)
    assert head(1) != head(2)

    real = predictor.predict
    received = []

    def recording(params, history, exits):
        received.append((history.data.tobytes(), tuple(exits)))
        return real(params, history, exits)

    monkeypatch.setattr(predictor, "predict", recording)
    runs = {}
    for seed in (1, 2):
        received.clear()
        result = _toy("serve", tmp_path, seed=seed)
        assert result.correct
        runs[seed] = (result, list(received))
    (a, sent_a), (b, sent_b) = runs[1], runs[2]
    assert {k: u for k, (_, u) in a.metrics.items()} == \
        {k: u for k, (_, u) in b.metrics.items()}
    n = min(len(sent_a), len(sent_b))
    assert n > 20 and sent_a[:n] != sent_b[:n]
    # every distinct request is served once per run, so the served error agrees
    assert a.metrics["quality_mm"] == b.metrics["quality_mm"]


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "serve", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
