"""Fuzzed checkpoints: load_checkpoint raises a CheckpointError that names the
file and, where the fault lies in one tensor, that tensor. For a predictor,
`moticomp eval` exits 2 printing that error, and never a traceback."""

import base64
import dataclasses
import json

import numpy as np
import pytest

from test_datagen import edit_values, payload, per_layer_order, saved_predictor
from moticomp.cli import dispatch
from moticomp.datagen import default_manifest, load_checkpoint, manifest_to_json, save_checkpoint
from moticomp.errors import CheckpointError
from moticomp.predictor import PredictorConfig
from moticomp.vae import init_vae

# the fuzzed tensor: one in the middle of the file, a block's (L, F, F) stack of
# graph-conv weights, so a shape has three entries
TENSOR = "whole.blk0.wgt"


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """A test split for eval to score, had the checkpoint loaded."""
    root = tmp_path_factory.mktemp("fuzz")
    manifest = root / "manifest.json"
    manifest.write_text(manifest_to_json(default_manifest()))
    assert dispatch(["gen-data", "--manifest", str(manifest), "--out", str(root / "data")]) == 0
    return root / "data"


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The text of a sound small predictor checkpoint."""
    path = tmp_path_factory.mktemp("sound") / "p.json"
    saved_predictor(path)
    return path.read_text()


def tensor(doc, name=TENSOR):
    return next(e for e in doc["tensors"] if e["name"] == name)


def edited(saved, edit):
    """The checkpoint text after edit(doc) changes its JSON document in place."""
    doc = json.loads(saved)
    edit(doc)
    return json.dumps(doc)


def assert_eval_refuses(tmp_path, capsys, data, text, *named):
    """eval exits 2 printing load_checkpoint's CheckpointError, which holds
    the file name and every string of named, and no traceback."""
    path = tmp_path / "fuzzed.json"
    path.write_text(text)
    with pytest.raises(CheckpointError) as caught:
        load_checkpoint(path)
    capsys.readouterr()
    assert dispatch(["eval", "--model", str(path), "--data", str(data),
                     "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert f"moticomp eval: error: {caught.value}" in err
    for part in (str(path), *named):
        assert part in str(caught.value)
    assert "Traceback" not in err


def test_sound_checkpoint_evaluates(tmp_path, capsys, data, saved):
    path = tmp_path / "p.json"
    path.write_text(saved)
    assert tensor(json.loads(saved))["shape"] == [2, 8, 8]
    assert dispatch(["eval", "--model", str(path), "--data", str(data),
                     "--out", str(tmp_path / "eval")]) == 0


@pytest.mark.parametrize("fraction", [0.0, 0.001, 0.25, 0.5, 0.75, 0.999])
def test_truncated(tmp_path, capsys, data, saved, fraction):
    cut = saved[:int(fraction * (len(saved) - 2))]  # even the last is short of its "}"
    assert_eval_refuses(tmp_path, capsys, data, cut, "unreadable or truncated checkpoint")


@pytest.mark.parametrize("char", ["!", "-", " ", "\n", "é"])
def test_non_base64_character(tmp_path, capsys, data, saved, char):
    def corrupt(doc):
        values = tensor(doc)["values"]
        tensor(doc)["values"] = values[:5] + char + values[6:]

    assert_eval_refuses(tmp_path, capsys, data, edited(saved, corrupt),
                        f"tensor {TENSOR} values are not base64")


@pytest.mark.parametrize("change,count", [(lambda flat: flat[:-1], 127),
                                          (lambda flat: np.r_[flat, 0.0], 129)],
                         ids=["one_short", "one_long"])
def test_payload_one_float_off(tmp_path, capsys, data, saved, change, count):
    assert_eval_refuses(tmp_path, capsys, data,
                        edited(saved, lambda doc: edit_values(tensor(doc), change)),
                        f"tensor {TENSOR} holds {8 * count} bytes, expected 1024 for shape "
                        f"(2, 8, 8)")


@pytest.mark.parametrize("name,shape", [
    (TENSOR, [1, 8, 8]), (TENSOR, [3, 8, 8]),  # a block of another depth
    (TENSOR, [16, 8]), (TENSOR, [2, 1, 8, 8]),  # the same values, another rank
    ("whole.blk0.adj", [3, 24, 24]),
], ids=lambda v: v if isinstance(v, str) else "x".join(map(str, v)))
def test_stack_of_another_shape(tmp_path, capsys, data, saved, name, shape):
    """A stack's payload and shape agree, but the shape is not the model's."""
    def reshape(doc):
        entry = tensor(doc, name)
        expected = tuple(entry["shape"])
        edit_values(entry, lambda flat: np.resize(flat, int(np.prod(shape))))
        entry["shape"] = shape
        return expected

    doc = json.loads(saved)
    expected = reshape(doc)
    assert_eval_refuses(tmp_path, capsys, data, json.dumps(doc),
                        f"tensor {name} has shape {tuple(shape)}, expected {expected}")


@pytest.mark.parametrize("shape", [[-8, -8], [8, -1], [8.0, 8], [4.5, 16], ["8", 8],
                                   [True, 64], "8,8", None])
def test_bad_shape(tmp_path, capsys, data, saved, shape):
    assert_eval_refuses(tmp_path, capsys, data,
                        edited(saved, lambda doc: tensor(doc).update(shape=shape)),
                        f"tensor {TENSOR} has shape {shape!r}, expected a list of "
                        f"non-negative integers")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 31, 63])
def test_non_finite_bytes(tmp_path, capsys, data, saved, bad, where):
    def poison(flat):
        flat = flat.copy()
        flat[where] = bad
        return flat

    assert_eval_refuses(tmp_path, capsys, data,
                        edited(saved, lambda doc: edit_values(tensor(doc), poison)),
                        f"non-finite values in tensor {TENSOR}")


@pytest.mark.parametrize("bit", [0, 51])  # the lowest and the highest mantissa bit
@pytest.mark.parametrize("where", [0, 63])
def test_flipped_bit(tmp_path, capsys, data, saved, where, bit):
    """A payload one bit off, which still decodes to as many finite values,
    under the checksum the writer stored."""
    def flip(doc):
        raw = bytearray(base64.b64decode(tensor(doc)["values"]))
        raw[8 * where + bit // 8] ^= 1 << bit % 8
        assert np.isfinite(np.frombuffer(bytes(raw), "<f8")).all()
        tensor(doc)["values"] = base64.b64encode(bytes(raw)).decode("ascii")

    assert_eval_refuses(tmp_path, capsys, data, edited(saved, flip),
                        f"tensor {TENSOR} values do not match their sha256")


def as_decimal_list(entry):
    """Store a tensor entry's values as version 1 did: a JSON list of floats."""
    entry["values"] = np.frombuffer(base64.b64decode(entry["values"]), "<f8").tolist()


def test_values_as_a_decimal_list(tmp_path, capsys, data, saved):
    assert_eval_refuses(tmp_path, capsys, data,
                        edited(saved, lambda doc: as_decimal_list(tensor(doc))),
                        f"tensor {TENSOR} values are not base64")


def test_v1_file(tmp_path, capsys, data, saved):
    """The file a version-1 writer made of the same model."""
    def as_v1(doc):
        doc["version"] = 1
        for entry in doc["tensors"]:
            as_decimal_list(entry)
            del entry["sha256"]

    assert_eval_refuses(tmp_path, capsys, data, edited(saved, as_v1),
                        "checkpoint version 1 is not supported (expected 4)")


def test_v2_file(tmp_path, capsys, data, saved):
    """The file a version-2 writer made of the same model: one tensor per
    layer's adjacency and weight, and no checksums."""
    def as_v2(doc):
        doc["version"] = 2
        stacks = {e["name"]: np.frombuffer(base64.b64decode(e["values"]), "<f8")
                  .reshape(e["shape"]) for e in doc["tensors"]}
        doc["tensors"] = [{"name": name, "shape": list(arr.shape),
                           "values": payload(arr)["values"]}
                          for name, arr in per_layer_order(stacks)]

    text = edited(saved, as_v2)
    assert '"whole.blk0.gc1.wgt"' in text
    assert_eval_refuses(tmp_path, capsys, data, text,
                        "checkpoint version 2 is not supported (expected 4)")


def test_v3_file(tmp_path, capsys, data, saved):
    """The file a version-3 writer made of the same model with block
    self-attention: its heads and attention_every config keys, one (A, 4, F, F)
    stack of attention projections after each block's weights, and no
    checksums."""
    def as_v3(doc):
        doc["version"] = 3
        config = doc["config"]
        doc["config"] = {**config, "heads": 2, "attention_every": config["layers_per_block"]}
        tensors = []
        for entry in doc["tensors"]:
            del entry["sha256"]
            tensors.append(entry)
            if entry["name"].endswith(".wgt"):
                width = entry["shape"][-1]
                tensors.append({"name": entry["name"][:-len("wgt")] + "attn",
                                "shape": [1, 4, width, width],
                                "values": payload(np.zeros(4 * width * width))["values"]})
        doc["tensors"] = tensors

    text = edited(saved, as_v3)
    assert '"whole.blk0.attn"' in text and '"heads": 2' in text
    assert_eval_refuses(tmp_path, capsys, data, text,
                        "checkpoint version 3 is not supported (expected 4)")


def test_pre_blend_fusion_tensor(tmp_path, capsys, data, saved):
    """A checkpoint saved while the branches were blended by a learned weight."""
    def add_fusion(doc):
        doc["tensors"].append({"name": "fusion.raw", "shape": [1, 1], **payload([0.0])})

    assert_eval_refuses(tmp_path, capsys, data, edited(saved, add_fusion),
                        "unexpected ['fusion.raw']")


PREDICTOR_INT_KEYS = [f.name for f in dataclasses.fields(PredictorConfig)
                      if f.type.startswith("int")]


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("key", PREDICTOR_INT_KEYS)
def test_non_positive_predictor_config_value(tmp_path, capsys, data, saved, key, value):
    assert_eval_refuses(tmp_path, capsys, data,
                        edited(saved, lambda doc: doc["config"].update({key: value})),
                        "malformed checkpoint")


@pytest.fixture(scope="module")
def saved_vae(tmp_path_factory):
    """The text of a sound small VAE checkpoint."""
    path = tmp_path_factory.mktemp("sound_vae") / "v.json"
    save_checkpoint(path, init_vae(np.random.default_rng(0), coeff_rows=4, coeff_cols=6,
                                   original_length=8, latent_dim=3, hidden_dims=(10,)))
    return path.read_text()


VAE_SIZES = [("latent_dim", 0), ("latent_dim", -1), ("coeff_rows", 0), ("coeff_rows", -1),
             ("coeff_cols", 0), ("coeff_cols", -1), ("original_length", 0),
             ("original_length", -1), ("hidden_dims", [0]), ("hidden_dims", [-1])]


@pytest.mark.parametrize("value", [0, -1])
def test_non_positive_original_length_named(tmp_path, saved_vae, value):
    """Named before the range check of coeff_rows, which reads it."""
    path = tmp_path / "fuzzed.json"
    path.write_text(edited(saved_vae, lambda doc: doc["config"].update(original_length=value)))
    with pytest.raises(CheckpointError, match=f"original_length must be >= 1, got {value}"):
        load_checkpoint(path)


@pytest.mark.parametrize("key,value", VAE_SIZES)
def test_non_positive_vae_config_value(tmp_path, capsys, saved_vae, key, value):
    """Loads, or fails with a CheckpointError naming the file; no other
    exception, warning (an error under this suite) or output."""
    path = tmp_path / "fuzzed.json"
    path.write_text(edited(saved_vae, lambda doc: doc["config"].update({key: value})))
    try:
        load_checkpoint(path)
    except CheckpointError as exc:
        assert str(path) in str(exc)
    assert capsys.readouterr() == ("", "")
