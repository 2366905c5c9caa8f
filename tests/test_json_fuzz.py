"""Fuzzed JSON objects: manifests and CLI configs.

Each key of a manifest, of one of its actions, and of each CLI config is
deleted or set to a value of each JSON kind, and the texts are truncated.
Reading one either succeeds or raises a ManifestError or ConfigError that
names the key; `gen-data`, `train-cag` and `train-predictor` then exit 2
printing that error, and never a traceback. A checkpoint config refuses a
key it does not know.
"""

import copy
import dataclasses
import json
import re

import numpy as np
import pytest

from test_datagen import saved_predictor
from moticomp.cli import _read_config, dispatch
from moticomp.datagen import (DatasetManifest, default_manifest, load_checkpoint,
                              manifest_from_json, manifest_to_json, save_checkpoint)
from moticomp.errors import CheckpointError, ConfigError, ManifestError
from moticomp.predictor import PredictorConfig
from moticomp.training import TrainConfig
from moticomp.vae import CagTrainConfig, init_vae

DELETE = object()
# 10 ** 400 is a JSON integer too large for a float; json.dumps writes nan as NaN
VALUES = [DELETE, "x", True, None, [0.5], [], {}, 10 ** 400, float("nan")]
VALUE_IDS = ["deleted", "string", "true", "null", "list", "empty_list", "object",
             "huge_int", "nan"]

MANIFEST = json.loads(manifest_to_json(default_manifest()))
ACTION = 1  # the fuzzed action, "nod"

# each command's config classes, and a config holding every one of their keys
CONFIGS = {"train-cag": (CagTrainConfig,), "train-predictor": (TrainConfig, PredictorConfig)}
CONFIG_DOCS = {command: {k: v for cls in classes for k, v in dataclasses.asdict(cls()).items()}
               for command, classes in CONFIGS.items()}
CONFIG_KEYS = [(command, key) for command, doc in CONFIG_DOCS.items() for key in doc]

TRUNCATIONS = [0.0, 0.001, 0.25, 0.5, 0.75, 0.999]


def with_value(doc: dict, key: str, value) -> dict:
    """A copy of doc with key deleted (DELETE) or set to value."""
    doc = copy.deepcopy(doc)
    if value is DELETE:
        del doc[key]
    else:
        doc[key] = value
    return doc


def outcome(read, *args):
    """What read(*args) returns, or the ManifestError or ConfigError it raises;
    any other exception fails the test."""
    try:
        return read(*args)
    except (ManifestError, ConfigError) as exc:
        return exc


def names(message: str, key: str) -> bool:
    return re.search(rf"\b{key}\b", message) is not None


def assert_cli_refuses(tmp_path, capsys, argv, error):
    """The command exits 2 printing error, and no traceback."""
    capsys.readouterr()
    assert dispatch(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"moticomp {argv[0]}: error: {error}" in err
    assert "Traceback" not in err


def check_manifest(tmp_path, capsys, text: str, key: str | None):
    """Reading text gives a manifest, or an error naming key that gen-data prints."""
    read = outcome(manifest_from_json, text)
    if isinstance(read, DatasetManifest):
        return
    assert key is None or names(str(read), key), str(read)
    path = tmp_path / "manifest.json"
    path.write_text(text)
    assert_cli_refuses(tmp_path, capsys, ["gen-data", "--manifest", str(path)], read)


def check_config(tmp_path, capsys, command: str, text: str, key: str | None):
    """Reading text gives the command's configs, or an error naming key that
    the command prints before it reads any data."""
    path = tmp_path / "config.json"
    path.write_text(text)
    read = outcome(_read_config, str(path), None, *CONFIGS[command])
    if isinstance(read, list):
        assert [type(c) for c in read] == list(CONFIGS[command])
        return
    assert key is None or names(str(read), key), str(read)
    assert_cli_refuses(tmp_path, capsys, [command, "--config", str(path),
                                          "--data", str(tmp_path / "none")], read)


def test_sound_texts_read(tmp_path):
    assert manifest_from_json(json.dumps(MANIFEST)) == default_manifest()
    for command, classes in CONFIGS.items():
        path = tmp_path / "config.json"
        path.write_text(json.dumps(CONFIG_DOCS[command]))
        assert _read_config(str(path), None, *classes) == [cls() for cls in classes]


@pytest.mark.parametrize("value", VALUES, ids=VALUE_IDS)
@pytest.mark.parametrize("key", list(MANIFEST))
def test_manifest_key(tmp_path, capsys, key, value):
    check_manifest(tmp_path, capsys, json.dumps(with_value(MANIFEST, key, value)), key)


@pytest.mark.parametrize("value", VALUES, ids=VALUE_IDS)
@pytest.mark.parametrize("key", list(MANIFEST["actions"][ACTION]))
def test_action_key(tmp_path, capsys, key, value):
    doc = copy.deepcopy(MANIFEST)
    doc["actions"][ACTION] = with_value(doc["actions"][ACTION], key, value)
    check_manifest(tmp_path, capsys, json.dumps(doc), key)


@pytest.mark.parametrize("value", VALUES, ids=VALUE_IDS)
@pytest.mark.parametrize("command,key", CONFIG_KEYS)
def test_config_key(tmp_path, capsys, command, key, value):
    check_config(tmp_path, capsys, command,
                 json.dumps(with_value(CONFIG_DOCS[command], key, value)), key)


@pytest.mark.parametrize("fraction", TRUNCATIONS)
def test_truncated_manifest(tmp_path, capsys, fraction):
    text = json.dumps(MANIFEST)
    cut = text[:int(fraction * (len(text) - 1))]  # even the last is short of its "}"
    with pytest.raises(ManifestError, match="manifest is not valid JSON"):
        manifest_from_json(cut)
    check_manifest(tmp_path, capsys, cut, None)


@pytest.mark.parametrize("fraction", TRUNCATIONS)
@pytest.mark.parametrize("command", list(CONFIGS))
def test_truncated_config(tmp_path, capsys, command, fraction):
    text = json.dumps(CONFIG_DOCS[command])
    cut = text[:int(fraction * (len(text) - 1))]
    check_config(tmp_path, capsys, command, cut, None)
    (tmp_path / "config.json").write_text(cut)
    with pytest.raises(ConfigError, match="invalid JSON"):
        _read_config(str(tmp_path / "config.json"), None, *CONFIGS[command])


@pytest.mark.parametrize("text", ["[]", "5", '"x"', "null"])
def test_non_object_texts_named(tmp_path, capsys, text):
    with pytest.raises(ManifestError, match="manifest must be a JSON object"):
        manifest_from_json(text)
    check_manifest(tmp_path, capsys, text, None)
    for command in CONFIGS:
        check_config(tmp_path, capsys, command, text, None)


def test_unknown_checkpoint_config_key_refused(tmp_path):
    vae = tmp_path / "v.json"
    save_checkpoint(vae, init_vae(np.random.default_rng(0), coeff_rows=4, coeff_cols=6,
                                  original_length=8, latent_dim=3, hidden_dims=(10,)))
    predictor = tmp_path / "p.json"
    saved_predictor(predictor)
    for path in (vae, predictor):
        doc = json.loads(path.read_text())
        doc["config"]["surprise"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError,
                           match=f"{re.escape(str(path))}: malformed checkpoint: "
                                 f"config: unknown key 'surprise'"):
            load_checkpoint(path)
