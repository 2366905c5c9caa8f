import dataclasses
import json
import re
import shutil
import warnings

import numpy as np
import pytest

from test_datagen import with_front_end_projections
from moticomp.cli import dispatch
from moticomp.datagen import default_manifest, load_split, manifest_to_json, save_checkpoint
from moticomp.motion import PartLayout
from moticomp.predictor import PredictorConfig
from moticomp.training import TrainConfig, init_predictor_model
from moticomp.vae import init_vae


@pytest.fixture()
def tiny_manifest(tmp_path):
    man = default_manifest()
    # trim to 2 upper + 1 lower + still and tiny per-split counts
    keep = {"wave", "nod", "squat", "still"}
    actions = tuple(a for a in man.actions if a.name in keep)
    man = dataclasses.replace(
        man, actions=actions, train_per_action=4, val_per_atomic=1,
        test_per_atomic=1, val_per_composite=1, test_per_composite=1)
    path = tmp_path / "manifest.json"
    path.write_text(manifest_to_json(man))
    return path


def test_gen_data_writes_splits_and_run_info(tiny_manifest, tmp_path):
    out = tmp_path / "data"
    code = dispatch(["gen-data", "--manifest", str(tiny_manifest), "--out", str(out)])
    assert code == 0
    info = json.loads((out / "run-info.json").read_text())
    assert set(info["versions"]) == {"python", "numpy", "moticomp"}
    assert info["versions"]["numpy"] == np.__version__
    assert 0 < info["wall_s"] < 60
    train = load_split(out / "train")
    assert len(train) == 16  # 4 actions x 4
    assert all("+" not in s.label for s in train)
    test = load_split(out / "test")
    assert any("+" in s.label for s in test)


def test_unknown_flag_exits_one_without_writing(tiny_manifest, tmp_path):
    out = tmp_path / "data"
    code = dispatch(["gen-data", "--manifest", str(tiny_manifest),
                     "--out", str(out), "--frobnicate"])
    assert code == 1
    assert not out.exists()


def test_unknown_subcommand_exits_one(capsys):
    assert dispatch(["transmogrify"]) == 1


def test_missing_input_exits_two(tmp_path):
    code = dispatch(["eval", "--model", str(tmp_path / "nope.json"),
                     "--data", str(tmp_path)])
    assert code == 2


def test_eval_malformed_checkpoint_exits_two_with_named_error(tiny_manifest, tmp_path,
                                                              capsys):
    data = tmp_path / "data"
    assert dispatch(["gen-data", "--manifest", str(tiny_manifest), "--out", str(data)]) == 0
    layout = PartLayout.from_skeleton(default_manifest().skeleton)
    model = init_predictor_model(np.random.default_rng(0), layout,
                                 PredictorConfig(feature_width=8, policy_hidden=4))
    path = tmp_path / "pred.json"
    save_checkpoint(path, model)
    doc = json.loads(path.read_text())
    del doc["config"]["n_blocks"]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert dispatch(["eval", "--model", str(path), "--data", str(data),
                     "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert "malformed checkpoint: config: missing key 'n_blocks'" in err
    assert "Traceback" not in err


def test_eval_refuses_front_end_projections(tiny_manifest, tmp_path, capsys):
    data = tmp_path / "data"
    assert dispatch(["gen-data", "--manifest", str(tiny_manifest), "--out", str(data)]) == 0
    layout = PartLayout.from_skeleton(default_manifest().skeleton)
    model = init_predictor_model(np.random.default_rng(0), layout,
                                 PredictorConfig(feature_width=8, policy_hidden=4))
    path = tmp_path / "pred.json"
    save_checkpoint(path, model)
    path.write_text(json.dumps(with_front_end_projections(json.loads(path.read_text()))))
    capsys.readouterr()
    assert dispatch(["eval", "--model", str(path), "--data", str(data),
                     "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert ("tensor names do not match the model "
            "(missing [], unexpected ['mattn.wk', 'mattn.wq'])") in err
    assert "Traceback" not in err


def test_eval_refuses_a_checkpoint_holding_query_dim(tiny_manifest, tmp_path, capsys):
    # as saved while the front end had projections of that width
    data = tmp_path / "data"
    assert dispatch(["gen-data", "--manifest", str(tiny_manifest), "--out", str(data)]) == 0
    layout = PartLayout.from_skeleton(default_manifest().skeleton)
    path = tmp_path / "pred.json"
    save_checkpoint(path, init_predictor_model(np.random.default_rng(0), layout,
                                               PredictorConfig(feature_width=8, policy_hidden=4)))
    doc = json.loads(path.read_text())
    doc["config"]["query_dim"] = 16
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert dispatch(["eval", "--model", str(path), "--data", str(data),
                     "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert f"{path}: malformed checkpoint: config: unknown key 'query_dim'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fault", ["fps=nan", "nan value"])
def test_eval_invalid_motion_file_exits_two_naming_it(tiny_manifest, tmp_path, capsys,
                                                      fault):
    data = tmp_path / "data"
    assert dispatch(["gen-data", "--manifest", str(tiny_manifest), "--out", str(data)]) == 0
    layout = PartLayout.from_skeleton(default_manifest().skeleton)
    model = init_predictor_model(np.random.default_rng(0), layout,
                                 PredictorConfig(feature_width=8, policy_hidden=4))
    save_checkpoint(tmp_path / "pred.json", model)
    bad = sorted((data / "test").glob("*.txt"))[1]
    lines = bad.read_text().splitlines()
    if fault == "fps=nan":
        lines[0] = lines[0].replace("fps=10.0", "fps=nan")
    else:
        lines[3] = "nan " + lines[3].split(" ", 1)[1]
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert dispatch(["eval", "--model", str(tmp_path / "pred.json"), "--data", str(data),
                     "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err
    assert "Traceback" not in err
    assert not (tmp_path / "eval" / "report.csv").exists()


@pytest.mark.parametrize("fault", ["25 frames", "fps=20.0"])
def test_eval_inconsistent_test_set_exits_two_naming_the_sequence(tiny_manifest, tmp_path,
                                                                  capsys, fault):
    data = tmp_path / "data"
    assert dispatch(["gen-data", "--manifest", str(tiny_manifest), "--out", str(data)]) == 0
    layout = PartLayout.from_skeleton(default_manifest().skeleton)
    model = init_predictor_model(np.random.default_rng(0), layout,
                                 PredictorConfig(feature_width=8, policy_hidden=4))
    save_checkpoint(tmp_path / "pred.json", model)
    bad = sorted((data / "test").glob("*.txt"))[1]
    lines = bad.read_text().splitlines()
    label = lines[0].split("label=")[1]
    if fault == "fps=20.0":
        lines[0] = lines[0].replace("fps=10.0", "fps=20.0")
    else:
        lines = [lines[0].replace("frames=30", "frames=25")] + lines[1:26]
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert dispatch(["eval", "--model", str(tmp_path / "pred.json"), "--data", str(data),
                     "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert f"test sequence 1 ({label!r})" in err
    assert "Traceback" not in err
    assert not (tmp_path / "eval" / "report.csv").exists()


@pytest.mark.parametrize("fps", [0, -25.0])
def test_gen_data_non_positive_fps_exits_two_naming_fps(tmp_path, capsys, fps):
    doc = json.loads(manifest_to_json(default_manifest()))
    doc["fps"] = fps
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = dispatch(["gen-data", "--manifest", str(manifest), "--out", str(tmp_path / "d")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"manifest fps must be positive and finite, got {fps}" in err
    assert not caught and "Warning" not in err and "Traceback" not in err
    assert not (tmp_path / "d").exists()


def test_gen_data_idempotent_except_timestamp(tiny_manifest, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert dispatch(["gen-data", "--manifest", str(tiny_manifest), "--out", str(out_a)]) == 0
    assert dispatch(["gen-data", "--manifest", str(tiny_manifest), "--out", str(out_b)]) == 0
    for split in ("train", "val", "test"):
        files_a = sorted((out_a / split).glob("*.txt"))
        files_b = sorted((out_b / split).glob("*.txt"))
        assert [f.name for f in files_a] == [f.name for f in files_b]
        for fa, fb in zip(files_a, files_b):
            assert fa.read_text() == fb.read_text()
    info_a = json.loads((out_a / "run-info.json").read_text())
    info_b = json.loads((out_b / "run-info.json").read_text())
    for info in (info_a, info_b):
        info.pop("timestamp")
        info.pop("wall_s")
    assert info_a == info_b


def test_full_pipeline(tiny_manifest, tmp_path):
    data = tmp_path / "data"
    assert dispatch(["gen-data", "--manifest", str(tiny_manifest),
                     "--out", str(data)]) == 0

    cag_cfg = tmp_path / "cag.json"
    cag_cfg.write_text(json.dumps({
        "epochs": 2, "latent_dim": 4, "hidden_dims": [16], "seed": 0}))
    cag_out = tmp_path / "cag"
    assert dispatch(["train-cag", "--config", str(cag_cfg), "--data", str(data),
                     "--out", str(cag_out)]) == 0
    assert (cag_out / "cag.json").exists()
    assert (cag_out / "cag_loss.csv").read_text().startswith("epoch,loss")

    synth_out = tmp_path / "synths"
    assert dispatch(["synth", "--model", str(cag_out / "cag.json"),
                     "--manifest", str(tiny_manifest), "--deterministic",
                     "--out", str(synth_out)]) == 0
    synths = load_split(synth_out / "synth")
    assert len(synths) == 2  # 2 upper x 1 lower
    assert all("+" in s.label for s in synths)

    pred_cfg = tmp_path / "pred.json"
    pred_cfg.write_text(json.dumps({
        "epochs": 1, "constrain_epochs": 1, "batch_size": 8, "seed": 0,
        "feature_width": 8, "policy_hidden": 4,
        "coeff_scale": 50.0}))
    pred_out = tmp_path / "pred"
    assert dispatch(["train-predictor", "--config", str(pred_cfg),
                     "--data", str(data), "--synth", str(synth_out / "synth"),
                     "--out", str(pred_out)]) == 0
    assert (pred_out / "predictor.json").exists()
    assert (pred_out / "predictor_best.json").exists()

    eval_out = tmp_path / "eval"
    assert dispatch(["eval", "--model", str(pred_out / "predictor.json"),
                     "--data", str(data), "--horizons", "1,3,5",
                     "--out", str(eval_out)]) == 0
    header = (eval_out / "report.csv").read_text().splitlines()[0]
    assert header.count("frame_") == 3
    assert "frame_1(" in header and "frame_5(" in header

    flops_out = tmp_path / "flops"
    assert dispatch(["flops", "--model", str(pred_out / "predictor.json"),
                     "--exits", "1,2,3", "--out", str(flops_out)]) == 0
    lines = (flops_out / "flops.csv").read_text().splitlines()
    assert lines[0] == "branch,exit_1,exit_2,exit_3"


def test_bad_config_key_exits_two(tiny_manifest, tmp_path):
    data = tmp_path / "data"
    assert dispatch(["gen-data", "--manifest", str(tiny_manifest),
                     "--out", str(data)]) == 0
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"epochs": 1, "not_a_knob": 5}))
    assert dispatch(["train-cag", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("command,key,value", [
    ("train-cag", "epochs", "5"), ("train-cag", "epochs", 2.5),
    ("train-cag", "hidden_dims", 5), ("train-cag", "batch_size", True),
    ("train-predictor", "epochs", "5"), ("train-predictor", "lr", None),
    ("train-predictor", "n_blocks", 2.0), ("train-predictor", "zero_output_decoders", 1),
    pytest.param("train-cag", "lr", 10 ** 400, id="train-cag-lr-huge_int"),
    pytest.param("train-predictor", "lr", 10 ** 400, id="train-predictor-lr-huge_int")])
def test_ill_typed_config_value_exits_two_naming_file_and_key(tmp_path, capsys, command,
                                                              key, value):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({key: value}))
    capsys.readouterr()
    # the data directory does not exist: the config fails before any data loads
    assert dispatch([command, "--config", str(cfg), "--data", str(tmp_path / "none"),
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}: config key '{key}' holds {value!r}, expected " in err
    assert "Traceback" not in err


def test_train_predictor_run_info_echoes_resolved_configs(tiny_manifest, tmp_path):
    data = tmp_path / "data"
    assert dispatch(["gen-data", "--manifest", str(tiny_manifest), "--out", str(data)]) == 0
    cfg = tmp_path / "pred.json"
    knobs = {"epochs": 1, "constrain_epochs": 1, "batch_size": 8, "seed": 3,
             "feature_width": 8, "policy_hidden": 4}
    cfg.write_text(json.dumps(knobs))
    out = tmp_path / "pred"
    assert dispatch(["train-predictor", "--config", str(cfg), "--data", str(data),
                     "--seed", "5", "--out", str(out)]) == 0
    info = json.loads((out / "run-info.json").read_text())
    train = TrainConfig(epochs=1, constrain_epochs=1, batch_size=8, seed=5)
    model = PredictorConfig(feature_width=8, policy_hidden=4)
    assert info["seed"] == 5
    assert info["config"] == {**dataclasses.asdict(train), **dataclasses.asdict(model)}


def test_train_predictor_on_an_all_lower_skeleton_names_the_empty_part(tiny_manifest,
                                                                      tmp_path, capsys):
    doc = json.loads(tiny_manifest.read_text())
    doc["joint_parts"] = ["lower"] * len(doc["joint_parts"])
    tiny_manifest.write_text(json.dumps(doc))
    data = tmp_path / "data"
    assert dispatch(["gen-data", "--manifest", str(tiny_manifest), "--out", str(data)]) == 0
    cfg = tmp_path / "pred.json"
    cfg.write_text(json.dumps({"epochs": 1, "constrain_epochs": 1, "feature_width": 8,
                               "policy_hidden": 4}))
    capsys.readouterr()
    assert dispatch(["train-predictor", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "pred")]) == 2
    err = capsys.readouterr().err
    assert "the layout's upper body part is empty" in err
    assert "Traceback" not in err
    assert not (tmp_path / "pred").exists()


@pytest.mark.parametrize("key,value,message", [
    ("policy_hidden", 0, "policy_hidden must be >= 1, got 0"),
    ("adjacency_noise", -0.1, "adjacency_noise must be finite and >= 0, got -0.1")])
def test_bad_model_size_exits_two_naming_key(tmp_path, capsys, key, value, message):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({key: value, "input_frames": 22, "output_frames": 8}))
    capsys.readouterr()
    assert dispatch(["train-predictor", "--config", str(cfg), "--data",
                     str(tmp_path / "none"), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_query_dim_config_exits_two_naming_it(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"query_dim": 16}))
    capsys.readouterr()
    assert dispatch(["train-predictor", "--config", str(cfg), "--data",
                     str(tmp_path / "none"), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}: config: unknown key 'query_dim'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key,value", [("heads", 2), ("attention_every", 4)])
def test_attention_config_exits_two_naming_it(tmp_path, capsys, key, value):
    # the knobs of the block self-attention the predictor no longer has
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({key: value}))
    capsys.readouterr()
    assert dispatch(["train-predictor", "--config", str(cfg), "--data",
                     str(tmp_path / "none"), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}: config: unknown key '{key}'" in err
    assert "Traceback" not in err


def test_constrain_epochs_above_epochs_exits_two_naming_both(tmp_path, capsys):
    # a short run that leaves constrain_epochs at its default of 20
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"epochs": 10}))
    capsys.readouterr()
    assert dispatch(["train-predictor", "--config", str(cfg), "--data",
                     str(tmp_path / "none"), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "constrain_epochs 20 (default 20) exceeds epochs 10" in err
    assert "Traceback" not in err


def one_error_line(capsys, command: str) -> str:
    """The one stderr line of a failed command, checked free of warnings."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"moticomp {command}: error: "), lines
    return lines[0]


@pytest.mark.parametrize("key", ["drift", "frequency"])
def test_gen_data_overflowing_action_exits_two_naming_it(tiny_manifest, tmp_path, capsys,
                                                        key):
    doc = json.loads(tiny_manifest.read_text())
    spec = next(a for a in doc["actions"] if a["name"] == "nod")
    spec[key] = [1e308] * len(spec[key])
    tiny_manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = dispatch(["gen-data", "--manifest", str(tiny_manifest),
                         "--out", str(tmp_path / "d")])
    assert code == 2 and not caught
    assert "action 'nod' makes non-finite motion at fps " in one_error_line(capsys, "gen-data")
    assert not (tmp_path / "d").exists()


def test_train_cag_gradient_that_would_overflow_adam_exits_two(tiny_manifest, tmp_path,
                                                                capsys):
    # every amplitude 1e100 times the default: the data is finite, its loss
    # about 4e202, and the first gradient beyond what Adam's v can square
    doc = json.loads(tiny_manifest.read_text())
    for spec in doc["actions"]:
        spec["amplitude"] = [a * 1e100 for a in spec["amplitude"]]
    tiny_manifest.write_text(json.dumps(doc))
    data = tmp_path / "data"
    assert dispatch(["gen-data", "--manifest", str(tiny_manifest), "--out", str(data)]) == 0
    cfg = tmp_path / "cag.json"
    cfg.write_text(json.dumps({"epochs": 3, "hidden_dims": [16]}))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = dispatch(["train-cag", "--config", str(cfg), "--data", str(data),
                         "--out", str(tmp_path / "cag")])
    assert code == 2 and not caught
    assert re.search(r"error: gradient for \S+ exceeds 4\.24e\+152, so Adam's v would",
                     one_error_line(capsys, "train-cag"))


def test_seed_override_changes_gen_data(tiny_manifest, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert dispatch(["gen-data", "--manifest", str(tiny_manifest),
                     "--out", str(out_a), "--seed", "7"]) == 0
    assert dispatch(["gen-data", "--manifest", str(tiny_manifest),
                     "--out", str(out_b), "--seed", "8"]) == 0
    a0 = (out_a / "train").glob("*.txt")
    b0 = (out_b / "train").glob("*.txt")
    assert next(iter(sorted(a0))).read_text() != next(iter(sorted(b0))).read_text()


@pytest.mark.parametrize("command", ["gen-data", "train-cag", "synth", "train-predictor"])
@pytest.mark.parametrize("seed", ["-1", "x"])
def test_bad_seed_is_a_usage_error_naming_seed(tmp_path, capsys, command, seed):
    # every other argument is present, so the seed alone makes the usage error
    inputs = {"gen-data": ["--manifest", "m.json"], "synth": ["--model", "cag.json",
                                                              "--manifest", "m.json"]}
    args = inputs.get(command, ["--config", "c.json", "--data", "data"])
    capsys.readouterr()
    assert dispatch([command, *args, "--out", str(tmp_path / "out"), "--seed", seed]) == 1
    err = capsys.readouterr().err
    assert f"argument --seed: must be an integer >= 0, got '{seed}'" in err
    assert not (tmp_path / "out").exists()


def wrong_kind_checkpoints(tmp_path):
    """A small VAE checkpoint and a small predictor checkpoint."""
    layout = PartLayout.from_skeleton(default_manifest().skeleton)
    vae_path, pred_path = tmp_path / "cag.json", tmp_path / "pred.json"
    save_checkpoint(vae_path, init_vae(np.random.default_rng(0), coeff_rows=30,
                                       coeff_cols=layout.size, original_length=30,
                                       latent_dim=3, hidden_dims=(8,)))
    save_checkpoint(pred_path, init_predictor_model(
        np.random.default_rng(0), layout, PredictorConfig(feature_width=8, policy_hidden=4)))
    return vae_path, pred_path


@pytest.mark.parametrize("command", ["eval", "flops", "synth"])
def test_wrong_checkpoint_kind_exits_two(tiny_manifest, tmp_path, capsys, command):
    vae_path, pred_path = wrong_kind_checkpoints(tmp_path)
    args = {"eval": ["eval", "--model", str(vae_path), "--data", str(tmp_path)],
            "flops": ["flops", "--model", str(vae_path)],
            "synth": ["synth", "--model", str(pred_path),
                      "--manifest", str(tiny_manifest)]}[command]
    capsys.readouterr()
    assert dispatch(args + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    expected, found = ("cag_vae", "predictor") if command == "synth" else ("predictor",
                                                                            "cag_vae")
    assert f"expected a {expected} checkpoint, found {found}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("count", ["-1", "0", "two"])
def test_synth_count_below_one_is_a_usage_error(tiny_manifest, tmp_path, capsys, count):
    vae_path, _ = wrong_kind_checkpoints(tmp_path)
    capsys.readouterr()
    assert dispatch(["synth", "--model", str(vae_path), "--manifest", str(tiny_manifest),
                     "--count", count, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"argument --count: must be an integer >= 1, got '{count}'" in err
    assert not (tmp_path / "out").exists()


def test_synth_rejects_atomics_of_another_length_than_the_model(tiny_manifest, tmp_path,
                                                               capsys):
    vae_path, _ = wrong_kind_checkpoints(tmp_path)  # fitted on 30-frame sequences
    doc = json.loads(tiny_manifest.read_text())
    doc["sequence_length"] = 40
    tiny_manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    assert dispatch(["synth", "--model", str(vae_path), "--manifest", str(tiny_manifest),
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "synthesis sequence 0 (" in err
    assert "has shape (40, 24), expected (30, 24)" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["wave\nx", "wave\rx", "wave\u2028x", "wa/ve", "wa\x00ve"])
def test_gen_data_rejects_an_action_name_a_file_cannot_hold(tiny_manifest, tmp_path, capsys,
                                                            name):
    doc = json.loads(tiny_manifest.read_text())
    doc["actions"][0]["name"] = name
    tiny_manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "data"
    assert dispatch(["gen-data", "--manifest", str(tiny_manifest), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"action name {name!r} holds '/' or a line break" in err
    assert not out.exists()


@pytest.mark.parametrize("exits,message", [("1,2", "need one exit per branch"),
                                           ("1,4,1", "exit index 4 outside 1..3")])
def test_flops_bad_exits_exit_two_naming_them(tmp_path, capsys, exits, message):
    _, pred_path = wrong_kind_checkpoints(tmp_path)
    capsys.readouterr()
    assert dispatch(["flops", "--model", str(pred_path), "--exits", exits,
                     "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_gen_data_refuses_an_out_holding_splits(tiny_manifest, tmp_path, capsys):
    out = tmp_path / "data"
    assert dispatch(["gen-data", "--manifest", str(tiny_manifest), "--out", str(out)]) == 0
    doc = json.loads(tiny_manifest.read_text())
    doc["train_per_action"] = 2  # a smaller re-run would have left stale files
    tiny_manifest.write_text(json.dumps(doc))
    before = tree_bytes(out)
    capsys.readouterr()
    assert dispatch(["gen-data", "--manifest", str(tiny_manifest), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"split directory {out / 'train'} already holds 16 motion files" in err
    assert "Traceback" not in err
    assert tree_bytes(out) == before
    # every split is checked before any is written
    shutil.rmtree(out / "train")
    shutil.rmtree(out / "val")
    before = tree_bytes(out)
    assert dispatch(["gen-data", "--manifest", str(tiny_manifest), "--out", str(out)]) == 2
    assert f"split directory {out / 'test'} already holds" in capsys.readouterr().err
    assert tree_bytes(out) == before
    assert not (out / "train").exists()


def test_synth_refuses_an_out_holding_composites(tiny_manifest, tmp_path, capsys):
    vae_path, _ = wrong_kind_checkpoints(tmp_path)
    out = tmp_path / "out"
    synth = ["synth", "--model", str(vae_path), "--manifest", str(tiny_manifest),
             "--out", str(out)]
    assert dispatch(synth + ["--count", "2"]) == 0  # 2 per upper x lower pair
    before = tree_bytes(out)
    capsys.readouterr()
    assert dispatch(synth + ["--count", "1"]) == 2
    err = capsys.readouterr().err
    assert f"split directory {out / 'synth'} already holds 4 motion files" in err
    assert "Traceback" not in err
    assert tree_bytes(out) == before
