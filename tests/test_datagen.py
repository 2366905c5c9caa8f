import base64
import dataclasses
import hashlib
import inspect
import json
import re

import numpy as np
import pytest

from moticomp.datagen import (ActionSpec, CHECKPOINT_VERSION, build_dataset, compose_oracle, default_manifest,
                              composite_sources, default_skeleton, generate_atomic,
                              load_checkpoint, load_motion, load_split, manifest_from_json,
                              manifest_to_json, rest_pose, save_checkpoint,
                              save_motion, save_split)
from moticomp.dct import dct_encode
from moticomp.errors import (CheckpointError, ConfigError, ManifestError,
                             ParseError)
from moticomp.motion import LOWER, UPPER, MotionSequence, PartLayout, Skeleton
from moticomp.predictor import PredictorConfig
from moticomp.training import init_predictor_model
from moticomp.vae import BodyMask, CagTrainConfig, init_vae, masked_fuse, train_cag, \
    synthesize_composite


class TestGenerateAtomic:
    def test_still_spec_is_constant(self):
        man = default_manifest()
        still = next(a for a in man.actions if a.part == "still")
        seq = generate_atomic(still, man.skeleton, 12, 10.0, seed=5)
        assert np.all(seq.data == seq.data[0])
        assert np.array_equal(seq.data[0], rest_pose(man.skeleton))

    def test_same_seed_bit_identical(self):
        man = default_manifest()
        spec = man.actions[0]
        a = generate_atomic(spec, man.skeleton, 30, 10.0, seed=42)
        b = generate_atomic(spec, man.skeleton, 30, 10.0, seed=42)
        assert np.array_equal(a.data, b.data)
        c = generate_atomic(spec, man.skeleton, 30, 10.0, seed=43)
        assert not np.array_equal(a.data, c.data)

    def test_matches_closed_form_sinusoid(self):
        sk = default_skeleton()
        j = sk.joint_count
        amplitude = [0.0] * j
        frequency = [0.0] * j
        phase = [0.0] * j
        drift = [0.0] * j
        joint = 5  # an upper joint
        amplitude[joint], frequency[joint], phase[joint], drift[joint] = 10.0, 0.5, 0.3, 0.25
        spec = ActionSpec(name="osc", part=UPPER, amplitude=tuple(amplitude),
                          frequency=tuple(frequency), phase=tuple(phase),
                          drift=tuple(drift), noise_std=0.0)
        fps, length = 10.0, 20
        seq = generate_atomic(spec, sk, length, fps, seed=0)
        rest = rest_pose(sk)
        frames = np.arange(length)
        expected = (rest[3 * joint]
                    + 10.0 * np.sin(2 * np.pi * 0.5 * frames / fps + 0.3)
                    + 0.25 * frames)
        assert np.abs(seq.data[:, 3 * joint] - expected).max() < 1e-12
        # joints outside the moving part hold their rest position exactly
        assert np.all(seq.data[:, 0:3] == 0.0)
        for other in (j for j, part in enumerate(sk.part_of) if part == LOWER):
            cols = slice(3 * other, 3 * other + 3)
            assert np.all(seq.data[:, cols] == rest[cols])

    def test_root_is_centered_even_for_lower_actions(self):
        man = default_manifest()
        lower = next(a for a in man.actions if a.part == LOWER)
        seq = generate_atomic(lower, man.skeleton, 15, 10.0, seed=9)
        assert np.all(seq.data[:, 0:3] == 0.0)

    def test_joint_count_mismatch(self):
        man = default_manifest()
        short = ActionSpec(name="x", part=UPPER, amplitude=(0.0,), frequency=(0.0,),
                           phase=(0.0,), drift=(0.0,))
        with pytest.raises(ConfigError):
            generate_atomic(short, man.skeleton, 10, 10.0, 0)

    @pytest.mark.parametrize("fps", [0.0, -1.0, np.nan, np.inf])
    def test_bad_fps_named_before_any_arithmetic(self, fps):
        man = default_manifest()
        with pytest.raises(ConfigError, match=f"fps must be finite and > 0, got {fps}"):
            generate_atomic(man.actions[0], man.skeleton, 10, fps, 0)


def reference_atomic(spec, skeleton, length, fps, seed) -> np.ndarray:
    """The per-joint generator loop that generate_atomic replaces: one track and
    one (length, 3) noise draw per moving joint, in joint order."""
    rng = np.random.default_rng(seed)
    data = np.tile(rest_pose(skeleton), (length, 1))
    frames = np.arange(length, dtype=np.float64)
    t = frames / fps
    for j in range(skeleton.joint_count):
        if j == 0 or skeleton.part_of[j] != spec.part:
            continue
        track = (spec.amplitude[j] * np.sin(2.0 * np.pi * spec.frequency[j] * t
                                            + spec.phase[j])
                 + spec.drift[j] * frames)
        cols = slice(3 * j, 3 * j + 3)
        data[:, cols] += track[:, None]
        if spec.noise_std > 0:
            data[:, cols] += rng.normal(0.0, spec.noise_std, size=(length, 3))
    return data


# joints 1, 3 and 5 are upper: an upper action moves three separated column triples
INTERLEAVED = Skeleton(parent=(0, 0, 1, 0, 3, 4),
                       part_of=(LOWER, UPPER, LOWER, UPPER, LOWER, UPPER))


def upper_spec(skeleton, **overrides) -> ActionSpec:
    """An upper action of skeleton, its per-joint fields given as lists."""
    j = skeleton.joint_count
    values = dict(name="osc", part=UPPER, amplitude=[10.0 + i for i in range(j)],
                  frequency=[0.3 + 0.1 * i for i in range(j)],
                  phase=[0.5 * i for i in range(j)], drift=[0.0] * j, noise_std=0.75)
    return ActionSpec(**{**values, **overrides})


def reference_cases():
    """(id, spec, skeleton, length, fps, seed) for the byte-for-byte comparison."""
    man = default_manifest()
    sk = man.skeleton
    still = next(a for a in man.actions if a.part == "still")
    wave = man.actions[0]
    for spec in man.actions:
        for seed in (0, 1, 7, 1000, 2 ** 40):
            yield f"{spec.name}-seed{seed}", spec, sk, 30, 10.0, seed
    yield "still-with-noise", dataclasses.replace(still, noise_std=0.75), sk, 30, 10.0, 3
    yield "no-noise", dataclasses.replace(wave, noise_std=0.0), sk, 30, 10.0, 3
    drift = [0.0, 0.5, -1.0, 2.0, 1.5, 0.0, 3.0, -0.25]
    yield "drift", upper_spec(sk, drift=drift), sk, 30, 10.0, 4
    yield "length-2", wave, sk, 2, 10.0, 5
    yield "fps-7.3", wave, sk, 30, 7.3, 6
    yield "interleaved-joints", upper_spec(INTERLEAVED), INTERLEAVED, 17, 12.5, 8
    yield "lists", upper_spec(sk), sk, 30, 10.0, 9


REFERENCE_CASES = list(reference_cases())


class TestGenerateAtomicReference:
    """generate_atomic against the per-joint loop it replaced, byte for byte."""

    @pytest.mark.parametrize("spec,skeleton,length,fps,seed",
                             [case[1:] for case in REFERENCE_CASES],
                             ids=[case[0] for case in REFERENCE_CASES])
    def test_bytes_equal_the_per_joint_loop(self, spec, skeleton, length, fps, seed):
        seq = generate_atomic(spec, skeleton, length, fps, seed)
        reference = reference_atomic(spec, skeleton, length, fps, seed)
        assert seq.data.tobytes() == reference.tobytes()
        assert (seq.label, seq.fps) == (spec.name, fps)

    @pytest.mark.parametrize("skeleton", [default_skeleton(), INTERLEAVED],
                             ids=["default", "interleaved"])
    def test_noise_is_one_draw_over_the_moving_joints_in_joint_order(self, skeleton):
        spec = upper_spec(skeleton)
        length, seed = 11, 21
        curve = generate_atomic(dataclasses.replace(spec, noise_std=0.0), skeleton,
                                length, 10.0, seed).data.reshape(length, -1, 3)
        data = generate_atomic(spec, skeleton, length, 10.0, seed).data.reshape(length, -1, 3)
        moving = [j for j in range(1, skeleton.joint_count) if skeleton.part_of[j] == UPPER]
        noise = np.random.default_rng(seed).normal(0.0, spec.noise_std,
                                                   (len(moving), length, 3))
        assert np.array_equal(data[:, moving], curve[:, moving] + noise.swapaxes(0, 1))
        np.testing.assert_allclose(data[:, moving] - curve[:, moving], noise.swapaxes(0, 1),
                                   rtol=0, atol=1e-12)
        still = [j for j in range(skeleton.joint_count) if j not in moving]
        assert np.array_equal(data[:, still], curve[:, still])

    def test_spec_built_with_lists_equals_one_built_with_tuples(self):
        sk = default_skeleton()
        listed = upper_spec(sk)
        tupled = upper_spec(sk, **{key: tuple(getattr(listed, key))
                                   for key in ("amplitude", "frequency", "phase", "drift")})
        assert listed == tupled and hash(listed) == hash(tupled)
        assert isinstance(listed.amplitude, tuple)
        assert np.array_equal(generate_atomic(listed, sk, 10, 10.0, 1).data,
                              generate_atomic(tupled, sk, 10, 10.0, 1).data)

    def test_skeleton_built_with_lists_generates(self):
        listed = Skeleton(parent=list(INTERLEAVED.parent), part_of=list(INTERLEAVED.part_of))
        assert listed == INTERLEAVED and hash(listed) == hash(INTERLEAVED)
        spec = upper_spec(INTERLEAVED)
        assert np.array_equal(generate_atomic(spec, listed, 10, 10.0, 1).data,
                              reference_atomic(spec, INTERLEAVED, 10, 10.0, 1))

    def test_sequences_own_their_data(self):
        """The noiseless curve is shared between calls; no sequence holds it."""
        man = default_manifest()
        still = next(a for a in man.actions if a.part == "still")
        for spec in (still, man.actions[0]):
            a = generate_atomic(spec, man.skeleton, 12, 10.0, 1)
            b = generate_atomic(spec, man.skeleton, 12, 10.0, 1)
            assert not np.shares_memory(a.data, b.data)
            assert not a.data.flags.writeable


class TestComposeOracle:
    def setup_method(self):
        self.man = default_manifest()
        self.layout = PartLayout.from_skeleton(self.man.skeleton)
        self.mask = BodyMask.from_layout(self.layout)
        upper = next(a for a in self.man.actions if a.part == UPPER)
        lower = next(a for a in self.man.actions if a.part == LOWER)
        self.seq_u = generate_atomic(upper, self.man.skeleton, 30, 10.0, 1)
        self.seq_l = generate_atomic(lower, self.man.skeleton, 30, 10.0, 2)

    def test_equal_inputs_identity(self):
        out = compose_oracle(self.seq_u, self.seq_u, self.mask)
        assert np.array_equal(out.data, self.seq_u.data)

    def test_all_ones_mask_returns_first(self):
        ones = BodyMask(m=np.ones(self.layout.size))
        out = compose_oracle(self.seq_u, self.seq_l, ones)
        assert np.array_equal(out.data, self.seq_u.data)

    def test_commutes_with_masked_fuse(self):
        composed = compose_oracle(self.seq_u, self.seq_l, self.mask)
        lhs = dct_encode(composed.data, 30)
        rhs = masked_fuse(self.seq_u, self.seq_l, self.mask, 30)
        assert np.array_equal(lhs, rhs)  # binary mask makes this exact

    def test_label_join(self):
        out = compose_oracle(self.seq_u, self.seq_l, self.mask)
        assert out.label == f"{self.seq_u.label}+{self.seq_l.label}"


class TestMotionFiles:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        data = rng.normal(scale=123.456, size=(7, 6))
        for fps in (12.5, np.float64(12.5)):  # a numpy fps is written as a plain number
            seq = MotionSequence(data=data, fps=fps, label="wave+squat")
            path = tmp_path / "m.txt"
            save_motion(path, seq)
            back = load_motion(path)
            assert np.array_equal(back.data, seq.data)
            assert back.fps == seq.fps
            assert back.label == seq.label

    def test_rows_written_as_per_value_formatting_writes_them(self, tmp_path):
        # every value with 17 significant digits, as " ".join(f"{x:.17g}" ...)
        specials = [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                    0.1, 3.0, -42.0, 1e16]  # signed zero, subnormal, extremes, integral
        values = specials + np.random.default_rng(4).normal(size=1000).tolist()
        seq = MotionSequence(data=np.array(values).reshape(14, 72), fps=10.0, label="x")
        path = tmp_path / "m.txt"
        save_motion(path, seq)
        rows = [" ".join(f"{x:.17g}" for x in row) for row in seq.data]
        assert path.read_bytes().decode().split("\n")[1:] == rows + [""]
        assert load_motion(path).data.tobytes() == seq.data.tobytes()

    def test_wrong_column_count_cites_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        lines = ["champlite v1 J=2 fps=10.0 frames=4 label=x"]
        lines += ["0 0 0 0 0 0"] * 4
        lines[4] = "0 0 0 0 0"  # line 5 of the file
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 5"):
            load_motion(path)

    def test_hand_written_fixture(self, tmp_path):
        path = tmp_path / "hand.txt"
        path.write_text(
            "champlite v1 J=1 fps=10.0 frames=2 label=tiny\n"
            "1 2 3\n"
            "4.5 -6 7e2\n"
        )
        seq = load_motion(path)
        assert np.array_equal(seq.data, [[1.0, 2.0, 3.0], [4.5, -6.0, 700.0]])
        assert seq.label == "tiny"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("champlite v2 J=1 fps=10 frames=2 label=x\n1 2 3\n1 2 3\n")
        with pytest.raises(ParseError, match="line 1"):
            load_motion(path)

    @pytest.mark.parametrize("header,rows,reason", [
        ("fps=10.0 frames=2", ["0 0 0", "0 nan 0"], "non-finite values"),
        ("fps=nan frames=2", ["0 0 0", "0 0 0"], "fps"),
        ("fps=inf frames=2", ["0 0 0", "0 0 0"], "fps"),
        ("fps=0 frames=2", ["0 0 0", "0 0 0"], "fps"),
        ("fps=10.0 frames=1", ["0 0 0"], "2 frames"),
    ], ids=["nan-value", "fps-nan", "fps-inf", "fps-zero", "one-frame"])
    def test_invalid_motion_is_a_parse_error_naming_the_file(self, tmp_path, header,
                                                             rows, reason):
        path = tmp_path / "bad.txt"
        path.write_text("\n".join([f"champlite v1 J=1 {header} label=x", *rows]) + "\n")
        with pytest.raises(ParseError, match=reason) as info:
            load_motion(path)
        assert str(path) in str(info.value)

    def test_split_round_trip(self, tmp_path):
        man = default_manifest()
        seqs = [generate_atomic(man.actions[0], man.skeleton, 30, 10.0, s)
                for s in range(3)]
        save_split(tmp_path / "train", seqs)
        back = load_split(tmp_path / "train")
        assert len(back) == 3
        for a, b in zip(seqs, back):
            assert np.array_equal(a.data, b.data)
            assert a.label == b.label

    def test_split_refuses_a_directory_holding_motion_files(self, tmp_path):
        man = default_manifest()
        seqs = [generate_atomic(man.actions[i], man.skeleton, 30, 10.0, i)
                for i in range(3)]
        save_split(tmp_path / "train", seqs)
        before = {p.name: p.read_bytes() for p in (tmp_path / "train").iterdir()}
        with pytest.raises(FileExistsError, match="already holds 3 motion files"):
            save_split(tmp_path / "train", seqs[:2])
        assert {p.name: p.read_bytes() for p in (tmp_path / "train").iterdir()} == before
        assert [s.label for s in load_split(tmp_path / "train")] == [
            s.label for s in seqs]
        (tmp_path / "other").mkdir()
        (tmp_path / "other" / "notes.md").write_text("not a motion file\n")
        assert len(save_split(tmp_path / "other", seqs[:2])) == 2


class TestCheckpoints:
    def trained_vae(self):
        man = default_manifest()
        seqs = [generate_atomic(man.actions[i % len(man.actions)], man.skeleton,
                                30, 10.0, 50 + i) for i in range(8)]
        config = CagTrainConfig(epochs=2, latent_dim=4, hidden_dims=(16,), seed=0)
        return train_cag(seqs, config).params, man

    def test_vae_round_trip_preserves_synthesis(self, tmp_path):
        params, man = self.trained_vae()
        path = tmp_path / "cag.json"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        layout = PartLayout.from_skeleton(man.skeleton)
        mask = BodyMask.from_layout(layout)
        upper = next(a for a in man.actions if a.part == UPPER)
        lower = next(a for a in man.actions if a.part == LOWER)
        seq_u = generate_atomic(upper, man.skeleton, 30, 10.0, 7)
        seq_l = generate_atomic(lower, man.skeleton, 30, 10.0, 8)
        a = synthesize_composite(params, seq_u, seq_l, mask, 30, noise=None)
        b = synthesize_composite(loaded, seq_u, seq_l, mask, 30, noise=None)
        assert np.array_equal(a.data, b.data)

    def test_truncated_file_is_integrity_error(self, tmp_path):
        params, _ = self.trained_vae()
        path = tmp_path / "cag.json"
        save_checkpoint(path, params)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        params, _ = self.trained_vae()
        path = tmp_path / "cag.json"
        save_checkpoint(path, params)
        doc = json.loads(path.read_text())
        doc["version"] = CHECKPOINT_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"format": "other"}))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("model", [
        init_predictor_model(np.random.default_rng(3), PartLayout.from_skeleton(default_skeleton()),
                             PredictorConfig(zero_output_decoders=False)),
        init_vae(np.random.default_rng(0), coeff_rows=25, coeff_cols=24, original_length=30)],
        ids=["default_predictor", "vae_600_wide"])
    def test_round_trip_keeps_every_byte(self, tmp_path, model):
        save_checkpoint(tmp_path / "m.json", model)
        before, after = model.named_parameters(), load_checkpoint(tmp_path / "m.json").named_parameters()
        assert list(after) == list(before)
        for name, arr in before.items():
            assert after[name].shape == arr.shape and after[name].tobytes() == arr.tobytes(), name

    @pytest.mark.parametrize("model", [
        init_predictor_model(np.random.default_rng(3), PartLayout.from_skeleton(default_skeleton()),
                             PredictorConfig()),
        init_vae(np.random.default_rng(0), coeff_rows=4, coeff_cols=6, original_length=8)],
        ids=["default_predictor", "vae"])
    def test_load_draws_nothing(self, tmp_path, monkeypatch, model):
        # every array is read from the file, so the model is allocated by name
        # and shape, not drawn and then overwritten
        save_checkpoint(tmp_path / "m.json", model)

        def no_rng(*args, **kwargs):
            raise AssertionError("load_checkpoint made a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        loaded = load_checkpoint(tmp_path / "m.json").named_parameters()
        assert all(loaded[n].tobytes() == a.tobytes() for n, a in model.named_parameters().items())

    def test_default_predictor_size(self, tmp_path):
        """base64 costs 4/3 of the 8 bytes per value; names, shapes and config
        fit in 64 KiB."""
        model = init_predictor_model(np.random.default_rng(0),
                                     PartLayout.from_skeleton(default_skeleton()), PredictorConfig())
        n_params = sum(arr.size for arr in model.named_parameters().values())
        save_checkpoint(tmp_path / "p.json", model)
        assert (tmp_path / "p.json").stat().st_size <= 4 / 3 * 8 * n_params + 64 * 1024

    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path):
        """A save that the file system cuts off part way (here by a file-size
        limit on this process, as a full disk would) leaves the old file's
        bytes and no temporary file."""
        resource = pytest.importorskip("resource")
        signal = pytest.importorskip("signal")
        path = tmp_path / "v.json"
        saved_vae(path)
        before = path.read_bytes()
        other = init_vae(np.random.default_rng(1), coeff_rows=4, coeff_cols=6,
                         original_length=8, latent_dim=3, hidden_dims=(10,))
        limits = resource.getrlimit(resource.RLIMIT_FSIZE)
        handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # EFBIG instead of death
        resource.setrlimit(resource.RLIMIT_FSIZE, (len(before) // 2, limits[1]))
        try:
            with pytest.raises(OSError):
                save_checkpoint(path, other)
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, limits)
            signal.signal(signal.SIGXFSZ, handler)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["v.json"]


def b64_values(values) -> str:
    """A checkpoint tensor's values as stored: base64 of little-endian float64 bytes."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def edit_values(entry, edit):
    """Decode a checkpoint tensor entry's values to a flat float64 array and
    store in their place the array that edit returns for it."""
    entry["values"] = b64_values(edit(np.frombuffer(base64.b64decode(entry["values"]), "<f8")))


def saved_predictor(path):
    """Write a small predictor checkpoint and return its JSON document."""
    layout = PartLayout.from_skeleton(default_manifest().skeleton)
    config = PredictorConfig(feature_width=8, heads=2, n_blocks=2, layers_per_block=2,
                             attention_every=2, policy_hidden=4)
    save_checkpoint(path, init_predictor_model(np.random.default_rng(0), layout, config))
    return json.loads(path.read_text())


def with_front_end_projections(doc):
    """A predictor checkpoint document holding, first, the (sub_len * E, 16)
    motion-attention projections mattn.wq and mattn.wk of a front end that
    once had parameters."""
    config = doc["config"]
    rows = min(config["input_frames"] // 2, 10) * (len(config["upper_dims"])
                                                    + len(config["lower_dims"]))
    stale = [{"name": f"mattn.{m}", "shape": [rows, 16], "values": b64_values([0.0] * rows * 16)}
             for m in ("wq", "wk")]
    return {**doc, "tensors": stale + doc["tensors"]}


class TestPredictorCheckpointErrors:
    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(PredictorConfig)])
    def test_missing_config_key(self, tmp_path, key):
        path = tmp_path / "p.json"
        doc = saved_predictor(path)
        del doc["config"][key]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=f"missing key '{key}'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value", [("heads", "2"), ("heads", 2.0),
                                           ("n_coeffs", True), ("coeff_scale", None),
                                           ("zero_output_decoders", 1),
                                           pytest.param("coeff_scale", 10 ** 400,
                                                        id="coeff_scale-huge_int")])
    def test_ill_typed_config_key(self, tmp_path, key, value):
        path = tmp_path / "p.json"
        doc = saved_predictor(path)
        doc["config"][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=f"'{key}'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value", [("upper_dims", "0123"), ("lower_dims", [0.5]),
                                           ("upper_dims", None), ("lower_dims", [True])])
    def test_ill_typed_part_dims(self, tmp_path, key, value):
        path = tmp_path / "p.json"
        doc = saved_predictor(path)
        doc["config"][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=f"config key '{key}' holds"):
            load_checkpoint(path)

    def test_front_end_projections_refused(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(with_front_end_projections(saved_predictor(path))))
        with pytest.raises(CheckpointError, match=re.escape(
                "tensor names do not match the model "
                "(missing [], unexpected ['mattn.wk', 'mattn.wq'])")):
            load_checkpoint(path)

    def test_zero_heads_named(self, tmp_path):
        path = tmp_path / "p.json"
        doc = saved_predictor(path)
        doc["config"]["heads"] = 0
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="heads must be >= 1, got 0"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_tensor(self, tmp_path, bad):
        path = tmp_path / "p.json"
        doc = saved_predictor(path)
        edit_values(doc["tensors"][3], lambda flat: np.r_[bad, flat[1:]])
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint(path)

    def test_round_trip_keeps_config(self, tmp_path):
        path = tmp_path / "p.json"
        doc = saved_predictor(path)
        loaded = load_checkpoint(path)
        assert list(doc["config"])[:-2] == [f.name for f in dataclasses.fields(PredictorConfig)]
        assert dataclasses.asdict(loaded.params.config) == {
            k: v for k, v in doc["config"].items() if not k.endswith("_dims")}


class TestCheckpointTensors:
    """load_checkpoint fills the model's arrays only from tensors of matching name and shape."""

    def test_mis_shaped_predictor_tensor_named(self, tmp_path):
        path = tmp_path / "p.json"
        doc = saved_predictor(path)
        entry = next(e for e in doc["tensors"] if e["name"] == "upper.blk0.gc0.adj")
        entry["shape"] = [1, 225]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=r"tensor upper\.blk0\.gc0\.adj has shape "
                                                  r"\(1, 225\), expected \(15, 15\)"):
            load_checkpoint(path)

    def test_renamed_predictor_tensor_named(self, tmp_path):
        path = tmp_path / "p.json"
        doc = saved_predictor(path)
        entry = next(e for e in doc["tensors"] if e["name"] == "lower.dec.w")
        entry["name"] = "lower.decoder.w"
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=r"missing \['lower\.dec\.w'\], "
                                                  r"unexpected \['lower\.decoder\.w'\]"):
            load_checkpoint(path)

    def test_duplicated_predictor_tensor_named(self, tmp_path):
        path = tmp_path / "p.json"
        doc = saved_predictor(path)
        entry = dict(next(e for e in doc["tensors"] if e["name"] == "whole.dec.b"))
        edit_values(entry, lambda v: np.full_like(v, 7.0))
        doc["tensors"].append(entry)
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=r"tensor whole\.dec\.b appears more than once"):
            load_checkpoint(path)

    def test_mis_shaped_vae_tensor_named(self, tmp_path):
        path = tmp_path / "v.json"
        save_checkpoint(path, init_vae(np.random.default_rng(0), coeff_rows=4, coeff_cols=6,
                                       original_length=8, latent_dim=3, hidden_dims=(10,)))
        doc = json.loads(path.read_text())
        entry = next(e for e in doc["tensors"] if e["name"] == "dec0.w")
        entry["shape"] = [10, 3]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError,
                           match=r"tensor dec0\.w has shape \(10, 3\), expected \(3, 10\)"):
            load_checkpoint(path)


def saved_vae(path):
    """Write a small VAE checkpoint (4 x 6 coefficients) and return its JSON document."""
    save_checkpoint(path, init_vae(np.random.default_rng(0), coeff_rows=4, coeff_cols=6,
                                   original_length=8, latent_dim=3, hidden_dims=(10,)))
    return json.loads(path.read_text())


class TestVaeCheckpointErrors:
    """A malformed VAE checkpoint fails at load with an error naming the key or
    tensor, not later when the model is used."""

    def load_edited(self, tmp_path, edit):
        path = tmp_path / "v.json"
        doc = saved_vae(path)
        edit(doc)
        path.write_text(json.dumps(doc))
        return load_checkpoint(path)

    def test_config_holds_every_init_vae_argument(self, tmp_path):
        # one written less would load as init_vae's default
        doc = saved_vae(tmp_path / "v.json")
        assert set(doc["config"]) == set(inspect.signature(init_vae).parameters) - {"rng"}

    def test_fractional_original_length(self, tmp_path):
        with pytest.raises(CheckpointError,
                           match=r"config key 'original_length' holds 2\.5, expected int"):
            self.load_edited(tmp_path, lambda doc: doc["config"].update(original_length=2.5))

    def test_original_length_below_coeff_rows(self, tmp_path):
        with pytest.raises(CheckpointError, match=r"config key 'coeff_rows' holds 4, "
                                                  r"expected 1\.\.original_length \(2\)"):
            self.load_edited(tmp_path, lambda doc: doc["config"].update(original_length=2))

    def test_string_coeff_rows(self, tmp_path):
        with pytest.raises(CheckpointError,
                           match=r"config key 'coeff_rows' holds '4', expected int"):
            self.load_edited(tmp_path, lambda doc: doc["config"].update(coeff_rows="4"))

    def test_non_positive_norm_scale(self, tmp_path):
        def negate(doc):
            entry = next(e for e in doc["tensors"] if e["name"] == "norm.scale")
            edit_values(entry, lambda flat: np.full_like(flat, -1.0))

        with pytest.raises(CheckpointError, match="input_scale entries must be positive"):
            self.load_edited(tmp_path, negate)

    def test_mis_shaped_norm_offset(self, tmp_path):
        def shrink(doc):
            entry = next(e for e in doc["tensors"] if e["name"] == "norm.offset")
            entry["shape"] = [1, 6]
            edit_values(entry, lambda flat: flat[:6])

        with pytest.raises(CheckpointError,
                           match=r"tensor norm\.offset has shape \(1, 6\), expected \(1, 24\)"):
            self.load_edited(tmp_path, shrink)

    def test_missing_norm_tensor(self, tmp_path):
        def drop(doc):
            doc["tensors"] = [e for e in doc["tensors"] if e["name"] != "norm.scale"]

        with pytest.raises(CheckpointError, match="missing key 'norm.scale'"):
            self.load_edited(tmp_path, drop)


class TestFrozenCheckpoints:
    """A loaded model's arrays are checked finite once, at load, and are then
    read-only, so inference can share them unchecked."""

    @staticmethod
    def assert_frozen(named):
        for name, arr in named.items():
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                arr.flat[0] = 0.0

    def test_loaded_predictor_arrays_are_read_only(self, tmp_path):
        saved_predictor(tmp_path / "p.json")
        loaded = load_checkpoint(tmp_path / "p.json")
        self.assert_frozen(loaded.named_parameters())  # the policies' too

    def test_loaded_vae_arrays_are_read_only(self, tmp_path):
        saved_vae(tmp_path / "v.json")
        loaded = load_checkpoint(tmp_path / "v.json")
        self.assert_frozen({**loaded.named_parameters(), "norm.offset": loaded.input_offset,
                            "norm.scale": loaded.input_scale})

    @pytest.mark.parametrize("name", ["enc0.w", "dec0.b", "norm.offset", "norm.scale"])
    def test_non_finite_vae_tensor_named(self, tmp_path, name):
        path = tmp_path / "v.json"
        doc = saved_vae(path)
        edit_values(next(e for e in doc["tensors"] if e["name"] == name),
                    lambda flat: np.r_[np.nan, flat[1:]])
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError,
                           match=rf"malformed checkpoint: non-finite values in tensor {name}"):
            load_checkpoint(path)


def checkpoint_digest(path, model):
    save_checkpoint(path, model)
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestSeededInitGolden:
    """Checkpoint bytes of freshly initialised models, pinned across refactors.

    They change if the order of RNG draws, the parameter names or their
    insertion order change.
    """

    def test_default_predictor(self, tmp_path):
        layout = PartLayout.from_skeleton(default_skeleton())
        model = init_predictor_model(np.random.default_rng(0), layout, PredictorConfig())
        assert checkpoint_digest(tmp_path / "p.json", model) == (
            "6eaa651f30b1c221fa8f85e2b158cb6a49d1d47e55d97f12eba0c9cf33b81ee2")

    def test_small_vae(self, tmp_path):
        params = init_vae(np.random.default_rng(0), coeff_rows=4, coeff_cols=6,
                          original_length=8, latent_dim=3, hidden_dims=(10,))
        assert checkpoint_digest(tmp_path / "v.json", params) == (
            "23ee1369b6b867fe1ec1e7d2bc83ab8b127df01be05746060273bb7cc357f4c0")


def dataset_digest(manifest) -> str:
    """SHA-256 over each sequence's data bytes, label and fps, in split order."""
    splits = build_dataset(manifest)
    digest = hashlib.sha256()
    for seq in splits.train + splits.val + splits.test:
        digest.update(seq.data.tobytes())
        digest.update(f"{seq.label}\n{float(seq.fps)!r}\n".encode())
    return digest.hexdigest()


class TestBuildDatasetGolden:
    """Bytes of every generated split, pinned across refactors of the generator.

    They change if a curve's arithmetic, the order of its float operations or
    the order of the noise draws changes.
    """

    def test_default_manifest(self):
        assert dataset_digest(default_manifest()) == (
            "37e02d164c2c09d38ba5c74dce594574fdd9141e1517d3a8894318df0c470f0b")

    def test_longer_faster_larger_test_split(self):
        man = dataclasses.replace(default_manifest(), sequence_length=45, fps=25.0,
                                  test_per_atomic=10, test_per_composite=10)
        assert dataset_digest(man) == (
            "e77babe188ed845261760c1e7a7e5dd5fe783649d1275d08acb944c3a38a216f")


class TestBuildDataset:
    def test_default_split_composition(self):
        man = default_manifest()
        splits = build_dataset(man)
        # 10 atomic classes x 20
        assert len(splits.train) == 200
        assert all("+" not in s.label for s in splits.train)
        test_composites = {s.label for s in splits.test if "+" in s.label}
        assert len(test_composites) == 18  # 6 upper x 3 lower
        assert len(splits.test) == 10 * 2 + 18 * 2

    def test_regeneration_bit_identical(self):
        man = default_manifest()
        a = build_dataset(man)
        b = build_dataset(man)
        for seq_a, seq_b in zip(a.train + a.val + a.test, b.train + b.val + b.test):
            assert np.array_equal(seq_a.data, seq_b.data)
            assert seq_a.label == seq_b.label

    def test_manifest_json_round_trip(self):
        man = default_manifest()
        back = manifest_from_json(manifest_to_json(man))
        assert back == man

    def test_unknown_keys_rejected(self):
        doc = json.loads(manifest_to_json(default_manifest()))
        doc["surprise"] = 1
        with pytest.raises(ManifestError, match="unknown"):
            manifest_from_json(json.dumps(doc))

    def test_missing_keys_rejected(self):
        doc = json.loads(manifest_to_json(default_manifest()))
        del doc["fps"]
        with pytest.raises(ManifestError, match="missing"):
            manifest_from_json(json.dumps(doc))

    def test_action_missing_keys_named(self):
        doc = json.loads(manifest_to_json(default_manifest()))
        del doc["actions"][1]["phase"]
        del doc["actions"][1]["drift"]
        with pytest.raises(ManifestError, match="action 'nod': missing keys 'drift', 'phase'"):
            manifest_from_json(json.dumps(doc))

    @pytest.mark.parametrize("key,value", [("actions", [1]), ("joint_parents", 5),
                                           ("fps", "10"), ("train_per_action", 2.5),
                                           ("train_seed", True),
                                           pytest.param("fps", 10 ** 400, id="fps-huge_int")])
    def test_ill_typed_manifest_value_named(self, key, value):
        doc = json.loads(manifest_to_json(default_manifest()))
        doc[key] = value
        with pytest.raises(ManifestError, match=f"manifest key '{key}' holds"):
            manifest_from_json(json.dumps(doc))

    def test_non_numeric_amplitude_named(self):
        doc = json.loads(manifest_to_json(default_manifest()))
        doc["actions"][1]["amplitude"][2] = "big"
        with pytest.raises(ManifestError, match="action 'nod' key 'amplitude' holds"):
            manifest_from_json(json.dumps(doc))

    def test_integer_amplitude_too_large_for_a_float_named(self):
        doc = json.loads(manifest_to_json(default_manifest()))
        doc["actions"][1]["amplitude"][2] = 10 ** 400
        with pytest.raises(ManifestError, match="action 'nod' key 'amplitude' holds"):
            manifest_from_json(json.dumps(doc))

    def test_integer_fps_loads(self):
        doc = json.loads(manifest_to_json(default_manifest()))
        doc["fps"] = 10
        man = manifest_from_json(json.dumps(doc))
        assert man.fps == 10.0
        assert len(build_dataset(man).train) == 200

    @pytest.mark.parametrize("fps", [0, -25.0])
    def test_non_positive_fps_named(self, fps):
        doc = json.loads(manifest_to_json(default_manifest()))
        doc["fps"] = fps
        message = "manifest fps must be positive and finite, got"
        with pytest.raises(ManifestError, match=f"{message} {fps}"):
            manifest_from_json(json.dumps(doc))
        with pytest.raises(ManifestError, match=f"{message} inf"):
            dataclasses.replace(default_manifest(), fps=float("inf"))  # JSON holds no inf

    def test_action_noise_std_defaults_to_zero(self):
        doc = json.loads(manifest_to_json(default_manifest()))
        del doc["actions"][0]["noise_std"]
        assert manifest_from_json(json.dumps(doc)).actions[0].noise_std == 0.0

    @pytest.mark.parametrize("key", ["train_seed", "val_seed", "test_seed"])
    def test_negative_split_seed_named(self, key):
        doc = json.loads(manifest_to_json(default_manifest()))
        doc[key] = -5
        with pytest.raises(ManifestError, match=f"{key} must be >= 0, got -5"):
            manifest_from_json(json.dumps(doc))

    def test_overlapping_seed_ranges_rejected(self):
        man = default_manifest()
        with pytest.raises(ManifestError, match="overlap"):
            dataclasses.replace(man, val_seed=man.train_seed + 1)

    def test_composite_sources_take_consecutive_seeds(self):
        man = default_manifest()
        sources = composite_sources(man, 2, 50)
        assert len(sources) == 2 * len(man.composite_pairs)
        for i, (seq_u, seq_l) in enumerate(sources):
            upper, lower = man.composite_pairs[i // 2]
            for spec, seq, seed in ((upper, seq_u, 50 + 2 * i), (lower, seq_l, 51 + 2 * i)):
                ref = generate_atomic(spec, man.skeleton, man.sequence_length, man.fps, seed)
                assert seq.label == spec.name
                assert np.array_equal(seq.data, ref.data)

    def test_still_class_present_in_test(self):
        splits = build_dataset(default_manifest())
        assert any(s.label == "still" for s in splits.test)


class TestActionSpecValidation:
    def test_still_with_amplitude_rejected(self):
        with pytest.raises(ConfigError):
            ActionSpec(name="s", part="still", amplitude=(1.0,), frequency=(0.0,),
                       phase=(0.0,), drift=(0.0,))

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ConfigError):
            ActionSpec(name="a", part=UPPER, amplitude=(-1.0,), frequency=(0.0,),
                       phase=(0.0,), drift=(0.0,))

    def test_unknown_part_rejected(self):
        with pytest.raises(ConfigError):
            ActionSpec(name="a", part="head", amplitude=(0.0,), frequency=(0.0,),
                       phase=(0.0,), drift=(0.0,))
