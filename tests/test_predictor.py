import gc
import hashlib
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from test_datagen import per_layer_order
from test_exits import BAD_EXITS
from moticomp.autodiff import SHARED, Tape, freeze
from moticomp import predictor as predictor_module, training as training_module
from moticomp.datagen import (build_dataset, default_manifest, default_skeleton,
                              load_checkpoint, save_checkpoint)
from moticomp.dct import dct_encode, idct_basis
from moticomp.errors import ConfigError, NumericError, ShapeError
from moticomp.exits import count_flops, policy_macs
from moticomp.layers import bind
from moticomp.motion import LOWER, UPPER, MotionSequence, PartLayout, Skeleton
from moticomp.predictor import (BRANCH_KINDS, PredictorConfig,
                                _branch_encode, _branch_tail,
                                _forward_core, _prepare_branch_inputs,
                                branch_node_counts, init_predictor, pad_last_frame, predict)
from moticomp.training import _routed_batch, init_predictor_model


def toy_skeleton():
    return Skeleton(parent=(0, 0, 0, 2), part_of=(LOWER, LOWER, UPPER, UPPER))


def toy_config(**overrides):
    defaults = dict(input_frames=8, output_frames=4, feature_width=8,
                    policy_hidden=6, coeff_scale=10.0)
    defaults.update(overrides)
    return PredictorConfig(**defaults)


def toy_params(seed=0, **overrides):
    layout = PartLayout.from_skeleton(toy_skeleton())
    return init_predictor(np.random.default_rng(seed), layout, toy_config(**overrides))


def gc_layer_forward(h, adjacency, weight):
    tape = Tape()
    return tape.gc_block(tape.constant(h), tape.constant(adjacency[None]),
                         tape.constant(weight[None])).values


class TestGcLayer:
    def test_zero_input_gives_zero(self):
        adjacency = np.random.default_rng(0).normal(size=(4, 4))
        weight = np.random.default_rng(1).normal(size=(5, 5))
        assert np.array_equal(gc_layer_forward(np.zeros((4, 5)), adjacency, weight),
                              np.zeros((4, 5)))

    def test_identity_matrices_reduce_to_tanh(self):
        h = np.random.default_rng(2).normal(scale=0.1, size=(3, 3))
        assert np.allclose(gc_layer_forward(h, np.eye(3), np.eye(3)), np.tanh(h),
                           atol=1e-12)

    def test_matches_hand_expanded_triple_product(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4))
        h = rng.normal(size=(4, 5))
        w = rng.normal(size=(5, 5))
        expected = np.zeros((4, 5))
        for i in range(4):
            for j in range(5):
                acc = 0.0
                for k in range(4):
                    for l in range(5):
                        acc += a[i, k] * h[k, l] * w[l, j]
                expected[i, j] = np.tanh(acc)
        out = gc_layer_forward(h, a, w)
        assert np.abs(out - expected).max() < 1e-12


class TestPredictorConfig:
    @pytest.mark.parametrize("key", ["feature_width", "policy_hidden", "output_frames", "n_blocks",
                                     "layers_per_block"])
    @pytest.mark.parametrize("size", [0, -1])
    def test_non_positive_sizes_rejected(self, key, size):
        with pytest.raises(ConfigError, match=f"{key} must be >= 1, got {size}"):
            PredictorConfig(**{key: size})

    def test_one_input_frame_rejected(self):
        with pytest.raises(ConfigError, match="input_frames must be >= 2, got 1"):
            PredictorConfig(input_frames=1)

    @pytest.mark.parametrize("key", ["input_frames", "n_coeffs", "n_blocks"])
    def test_non_integral_size_rejected(self, key):
        with pytest.raises(ConfigError, match=f"{key} must be an integer, got 2.0"):
            PredictorConfig(**{key: 2.0})

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("key", ["input_frames", "output_frames", "n_coeffs",
                                     "feature_width", "n_blocks", "layers_per_block",
                                     "policy_hidden"])
    def test_bool_size_rejected(self, key, value):
        # before, n_blocks=True constructed and init failed with a bare TypeError
        with pytest.raises(ConfigError, match=f"{key} must be an integer, got {value}"):
            PredictorConfig(**{key: value})

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf, 0.0, -1.0, pytest.param(10 ** 400, id="huge_int")])
    def test_non_positive_or_non_finite_coeff_scale_rejected(self, scale):
        with pytest.raises(ConfigError, match=f"coeff_scale must be finite and > 0, got {scale}"):
            PredictorConfig(coeff_scale=scale)

    @pytest.mark.parametrize("noise", [-0.1, np.nan, np.inf, pytest.param(10 ** 400, id="huge_int")])
    def test_negative_or_non_finite_adjacency_noise_rejected(self, noise):
        with pytest.raises(ConfigError, match="adjacency_noise must be finite and >= 0"):
            PredictorConfig(adjacency_noise=noise)


class TestFrontEnd:
    @pytest.mark.parametrize("input_frames", [8, 12], ids=["one_window", "three_windows"])
    def test_padded_dct_plus_newest_window(self, input_frames):
        # sub_len 4 and 6: the newest sub_len + 4 frames are the whole 8-frame
        # history, or the last 10 of 12, where 3 such windows fit
        params = toy_params(seed=8, input_frames=input_frames)
        cfg, layout = params.config, params.layout
        history = np.random.default_rng(9).normal(scale=20.0,
                                                  size=(2, input_frames, layout.size))
        tape = Tape()
        inputs = _prepare_branch_inputs(tape, params, history)
        h = history / cfg.coeff_scale
        span, n_coeffs = cfg.sub_len + cfg.output_frames, cfg.resolved_n_coeffs
        expected = np.swapaxes(dct_encode(pad_last_frame(h, cfg.output_frames), n_coeffs)
                               + dct_encode(h[:, -span:], n_coeffs), -1, -2)
        assert np.array_equal(inputs["whole"].values, expected)
        assert np.array_equal(inputs["upper"].values, expected[:, list(layout.upper_dims)])
        assert np.array_equal(inputs["lower"].values, expected[:, list(layout.lower_dims)])
        assert tape.nodes == []
        assert len(tape.tensors) == 3

    def test_history_too_short_rejected(self):
        # 8 frames: sub_len 4, so 5 output frames overrun the history
        with pytest.raises(ConfigError, match="input span 8 too short for "
                                              "sub-sequences of 4 frames extended by 5"):
            toy_config(input_frames=8, output_frames=5)

    @pytest.mark.parametrize("input_frames", [8, 12])
    def test_no_front_end_parameters(self, input_frames):
        params = toy_params(input_frames=input_frames)
        assert {name.split(".")[0] for name in params.arrays} == set(BRANCH_KINDS)


def branch_forward_to_exit(params, kind, x, exit_index):
    """Encode x, run the first exit_index blocks and decode, as training does."""
    tape = Tape()
    tensors = bind(tape, params.named_parameters(), trainable=False)
    encoded = _branch_encode(tape, tensors, kind, tape.constant(x))
    return _branch_tail(tape, kind, tensors, encoded, exit_index).values


def branch_input_shape(params, kind):
    return (branch_node_counts(params.layout)[kind], params.config.resolved_n_coeffs)


class TestBranchForward:
    def test_full_depth_equals_exit_three(self):
        params = toy_params(seed=12, zero_output_decoders=False)
        rng = np.random.default_rng(13)
        x = rng.normal(size=branch_input_shape(params, "whole"))
        full = branch_forward_to_exit(params, "whole", x, 3)
        # run the blocks manually through exit 3: must be the same computation
        again = branch_forward_to_exit(params, "whole", x, 3)
        assert np.array_equal(full, again)

    def test_exit_skips_later_blocks(self):
        params = toy_params(seed=14, zero_output_decoders=False)
        rng = np.random.default_rng(15)
        x = rng.normal(size=branch_input_shape(params, "upper"))
        before = branch_forward_to_exit(params, "upper", x, 2)
        # wreck block 3; exits 1 and 2 must not notice
        params.arrays["upper.blk2.adj"][:] = 1e9
        params.arrays["upper.blk2.wgt"][:] = -1e9
        after = branch_forward_to_exit(params, "upper", x, 2)
        assert np.array_equal(before, after)

    def test_zero_input_zero_decoder_gives_zero_everywhere(self):
        params = toy_params(seed=16)  # zero decoders by default
        x = np.zeros(branch_input_shape(params, "lower"))
        for d in (1, 2, 3):
            assert np.array_equal(branch_forward_to_exit(params, "lower", x, d),
                                  np.zeros_like(x))

    @pytest.mark.parametrize("overrides", [{}, dict(layers_per_block=5),
                                           dict(layers_per_block=1)])
    def test_block_records_one_node(self, overrides):
        # its operands: h, then the block's stacks of adjacencies and weights
        params = toy_params(seed=30, **overrides)
        tape = Tape()
        tensors = bind(tape, params.named_parameters(), trainable=True)
        h = tape.constant(np.random.default_rng(31).normal(
            size=(3, branch_node_counts(params.layout)["whole"], params.config.feature_width)))
        first = len(tape.nodes)
        _branch_tail(tape, "whole", tensors, h, 1)
        expected = [h, tensors["whole.blk0.adj"], tensors["whole.blk0.wgt"]]
        assert [node.kind for node in tape.nodes[first:]] == ["gc_block", "linear"]
        assert tape.nodes[first].input_ids == tuple(t.tid for t in expected)

    @pytest.mark.parametrize("exits", [2, np.array([2, 2, 2]), np.array([3, 3, 3])],
                             ids=["one-index", "exits-2", "exits-3"])
    def test_uniform_exit_batch_records_no_gather(self, exits):
        # every sample leaves after the same block: the tail records the blocks
        # up to it and the decoder, as for one sample, and gives each sample's
        # own output
        params = toy_params(seed=40, zero_output_decoders=False)
        x = np.random.default_rng(41).normal(size=(3, *branch_input_shape(params, "upper")))
        tape = Tape()
        tensors = bind(tape, params.named_parameters(), trainable=False)
        encoded = _branch_encode(tape, tensors, "upper", tape.constant(x))
        first = len(tape.nodes)
        out = _branch_tail(tape, "upper", tensors, encoded, exits)
        depth = int(np.max(exits))
        assert [node.kind for node in tape.nodes[first:]] == (
            ["gc_block"] * depth + ["linear"])
        for b in range(3):
            assert np.array_equal(out.values[b],
                                  branch_forward_to_exit(params, "upper", x[b], depth))

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_one_index_equals_a_uniform_exit_array(self, depth):
        # one index skips the per-sample bookkeeping; it records the same
        # values and MACs as the per-sample path given every sample that exit
        params = toy_params(seed=42, zero_output_decoders=False)
        x = np.random.default_rng(43).normal(size=(3, *branch_input_shape(params, "whole")))

        def tail(exits):
            tape = Tape()
            tensors = bind(tape, params.named_parameters(), trainable=False)
            encoded = _branch_encode(tape, tensors, "whole", tape.constant(x))
            start = tape.mac_count
            out = _branch_tail(tape, "whole", tensors, encoded, exits)
            return out.values.tobytes(), tape.mac_count - start

        want = tail(np.full(3, depth))
        assert tail(depth) == tail(np.int64(depth)) == want

    def test_strictly_fewer_macs_at_shallow_exit(self):
        from moticomp.exits import branch_exit_macs
        params = toy_params(seed=18)
        counts = branch_exit_macs(params.layout.upper_size, params.config)
        assert counts[0] < counts[1] < counts[2]


def make_history(rng, config, layout, fps=10.0):
    data = rng.normal(scale=30.0, size=(config.input_frames, layout.size))
    data[:, 0:3] = 0.0  # root-centered
    return MotionSequence(data=data, fps=fps, label="h")


class TestPredict:
    def test_untrained_model_is_zero_velocity(self):
        params = toy_params(seed=19)
        rng = np.random.default_rng(20)
        hist = make_history(rng, params.config, params.layout)
        pred = predict(params, hist, (3, 3, 3))
        base = pad_last_frame(hist.data, params.config.output_frames)
        assert np.array_equal(pred.data, base)

    def test_correction_is_the_mean_of_whole_and_parts(self):
        params = toy_params(seed=21, zero_output_decoders=False)
        cfg, layout = params.config, params.layout
        hist = make_history(np.random.default_rng(22), cfg, layout)
        tape = Tape()
        tensors = bind(tape, params.named_parameters(), trainable=False)
        inputs = _prepare_branch_inputs(tape, params, hist.data[None])
        out = {kind: _branch_tail(tape, kind, tensors,
                                  _branch_encode(tape, tensors, kind, inputs[kind]), 2).values
               for kind in BRANCH_KINDS}  # each (1, nodes, coefficients)
        parts = np.empty_like(out["whole"])
        parts[:, list(layout.upper_dims)] = out["upper"]
        parts[:, list(layout.lower_dims)] = out["lower"]
        blend = 0.5 * (out["whole"] + parts)
        basis = idct_basis(cfg.input_frames + cfg.output_frames, cfg.resolved_n_coeffs)
        correction = (basis @ blend.transpose(0, 2, 1))[0]
        expected = pad_last_frame(hist.data, cfg.output_frames) + correction * cfg.coeff_scale
        assert np.array_equal(predict(params, hist, (2, 2, 2)).data, expected)

    def test_output_shape_and_prefix(self):
        params = toy_params(seed=23, zero_output_decoders=False)
        rng = np.random.default_rng(24)
        hist = make_history(rng, params.config, params.layout)
        pred = predict(params, hist, (1, 2, 3))
        cfg = params.config
        assert pred.data.shape == (cfg.input_frames + cfg.output_frames,
                                   params.layout.size)

    @staticmethod
    def default_model_tape(exits):
        """A default-config model and the tape predict records on it at exits."""
        layout = PartLayout.from_skeleton(default_skeleton())
        params = init_predictor(np.random.default_rng(32), layout, PredictorConfig())
        hist = make_history(np.random.default_rng(33), params.config, layout)
        tape = Tape()
        tensors = bind(tape, params.named_parameters(), trainable=False)
        _forward_core(tape, params, tensors, hist.data[None], exits)
        return params, tape

    @pytest.mark.parametrize("exits,budget", [((1, 1, 1), 15), ((3, 3, 3), 21)])
    def test_default_model_node_budget(self, exits, budget):
        # one node per block and per linear layer and one gather for the merge;
        # none for the front end and its part splits, which are constants, and
        # none to halve the blend, which the output scale folds in
        _, tape = self.default_model_tape(exits)
        assert len(tape.nodes) == budget

    @pytest.mark.parametrize("part_of,empty", [((LOWER, LOWER), "upper"),
                                               ((UPPER, UPPER), "lower")])
    def test_empty_body_part_named(self, part_of, empty):
        # before, evaluate and train_predictor divided by zero in the exit
        # policy and predict reduced an empty array
        layout = PartLayout.from_skeleton(Skeleton(parent=(0, 0), part_of=part_of))
        with pytest.raises(ConfigError, match=f"the layout's {empty} body part is empty"):
            init_predictor_model(np.random.default_rng(0), layout, PredictorConfig())

    def test_default_model_holds_one_array_per_block_role(self):
        # per branch the encoder's two, three per block and the decoder's two;
        # the exit policies add four each
        layout = PartLayout.from_skeleton(default_skeleton())
        model = init_predictor_model(np.random.default_rng(0), layout, PredictorConfig())
        named = model.params.named_parameters()
        assert len(named) == 3 * (2 + 3 * 2 + 2) == 30
        assert len(model.named_parameters()) == 30 + 3 * 4 == 42
        assert [(name, arr.shape) for name, arr in named.items() if ".blk1." in name
                and name.startswith("whole")] == [
            ("whole.blk1.adj", (8, 24, 24)), ("whole.blk1.wgt", (8, 32, 32))]

    def test_default_model_tape_copies_only_what_the_history_gives(self):
        # the front end (the DCT of the padded history plus that of its newest
        # window), its two part splits and the padded history;
        # the IDCT basis is a shared constant, built once
        params, tape = self.default_model_tape((1, 1, 1))
        leaves = len(tape.tensors) - len(tape.nodes) - len(params.named_parameters())
        assert leaves == 4

    def test_default_model_mac_offset(self):
        # the same at every exit triple: the IDCT of the blended correction, which
        # count_flops leaves out, less the exit policies, which it counts and
        # predict does not run; the part split is constants and the merge a
        # gather, with no MACs, and the front end is computed outside the tape
        offsets = set()
        for exits in itertools.product((1, 2, 3), repeat=3):
            params, tape = self.default_model_tape(exits)
            offsets.add(tape.mac_count - count_flops(params, exits).weighted_average_total())
        cfg = params.config
        idct = (cfg.input_frames + cfg.output_frames) * cfg.resolved_n_coeffs * params.layout.size
        policies = sum(policy_macs(n, cfg.feature_width, cfg.policy_hidden, cfg.n_blocks)
                       for n in branch_node_counts(params.layout).values())
        assert offsets == {idct - policies} == {11184}

    @pytest.mark.parametrize("exits,match", BAD_EXITS + [
        ([[1, 1, 1], [2, 2, 2]], "predict takes one exit triple, got 2")],
        ids=[f"exits{i}" for i in range(len(BAD_EXITS) + 1)])
    def test_bad_exits_rejected(self, exits, match):
        params = toy_params(seed=17)
        hist = make_history(np.random.default_rng(26), params.config, params.layout)
        with pytest.raises(ValueError, match=match):
            predict(params, hist, exits)

    def test_history_length_must_match(self):
        params = toy_params(seed=25)
        rng = np.random.default_rng(26)
        hist = MotionSequence(data=rng.normal(size=(9, params.layout.size)),
                              fps=10.0, label="bad")
        with pytest.raises(ShapeError):
            predict(params, hist, (1, 1, 1))

    def test_shape_contract_across_layouts(self):
        for upper_from in (1, 2, 3):
            parents = (0, 0, 1, 2)
            parts = tuple(UPPER if i >= upper_from else LOWER for i in range(4))
            layout = PartLayout.from_skeleton(Skeleton(parent=parents, part_of=parts))
            params = init_predictor(np.random.default_rng(27), layout, toy_config())
            up, lo, wh = (params.arrays[f"{kind}.blk0.adj"].shape[1]
                          for kind in BRANCH_KINDS)
            assert up + lo == wh == layout.size


class TestGradientFlow:
    def test_every_parameter_receives_gradient(self):
        layout = PartLayout.from_skeleton(toy_skeleton())
        config = PredictorConfig(input_frames=12, output_frames=4, feature_width=8,
                                 policy_hidden=6, coeff_scale=10.0, zero_output_decoders=False)
        params = init_predictor(np.random.default_rng(28), layout, config)
        rng = np.random.default_rng(29)
        hist = rng.normal(scale=20.0, size=(config.input_frames, layout.size))
        gt = rng.normal(scale=20.0, size=(config.input_frames + config.output_frames,
                                          layout.size))
        tape = Tape()
        named = params.named_parameters()
        tensors = bind(tape, named, trainable=True)
        pred = _forward_core(tape, params, tensors, hist[None], (3, 3, 3))
        diff = tape.add(pred, tape.constant(-gt[None]))
        tape.backward(tape.sum_sq(diff))
        # each matrix of a stack on its own: one layer's adjacency, say
        dead = [(name, i) for name in named for i, grad in enumerate(
                    tensors[name].grad.reshape(-1, *named[name].shape[-2:]))
                if float(np.abs(grad).max()) == 0.0]
        assert dead == []



def fresh_and_loaded(tmp_path, seed=40):
    """A live toy model and its save/load copy, whose arrays are frozen."""
    layout = PartLayout.from_skeleton(toy_skeleton())
    model = init_predictor_model(np.random.default_rng(seed), layout,
                                 toy_config(zero_output_decoders=False))
    save_checkpoint(tmp_path / "p.json", model)
    return model, load_checkpoint(tmp_path / "p.json")


class TestFrozenParameters:
    """Inference shares a loaded model's read-only arrays instead of re-checking
    them per request; outputs do not change by a bit."""

    def test_bind_shares_frozen_arrays(self, tmp_path):
        _, loaded = fresh_and_loaded(tmp_path)
        named = loaded.named_parameters()
        tensors = bind(Tape(), named, trainable=False)
        assert all(tensors[k].values is arr for k, arr in named.items())
        arr = named["whole.dec.b"]  # nor re-checked: a NaN forced in binds unseen
        arr.flags.writeable = True
        arr[0, 0] = np.nan
        arr.flags.writeable = False
        assert bind(Tape(), named, trainable=False)["whole.dec.b"].values is arr

    def test_writeable_nan_still_raises(self, tmp_path):
        model, _ = fresh_and_loaded(tmp_path)
        named = model.named_parameters()
        named["whole.dec.b"][0, 0] = np.nan
        with pytest.raises(NumericError, match="leaf tensor contains non-finite values"):
            bind(Tape(), named, trainable=False)

    def test_nan_forced_behind_the_freeze_still_raises(self, tmp_path):
        # into each array in turn; at (3, 3, 3) predict reads every one of them
        _, loaded = fresh_and_loaded(tmp_path)
        hist = make_history(np.random.default_rng(41), loaded.params.config,
                            loaded.params.layout)
        returned = []
        for name, arr in loaded.params.arrays.items():
            kept = arr.flat[0]
            arr.flags.writeable = True
            arr.flat[0] = np.nan
            arr.flags.writeable = False
            try:
                predict(loaded.params, hist, (3, 3, 3))
                returned.append(name)
            except NumericError:
                pass
            arr.flags.writeable = True
            arr.flat[0] = kept
            arr.flags.writeable = False
        assert returned == []

    def test_training_a_frozen_array_is_named(self, tmp_path):
        model, loaded = fresh_and_loaded(tmp_path)
        named = model.named_parameters()
        frozen = list(named)[5]
        named[frozen] = loaded.named_parameters()[frozen]
        with pytest.raises(ValueError, match=rf"parameter {frozen} is read-only"):
            bind(Tape(), named, trainable=True)

    def test_predict_is_bit_identical_at_every_exit_triple(self, tmp_path):
        model, loaded = fresh_and_loaded(tmp_path)
        hist = make_history(np.random.default_rng(42), model.params.config,
                            model.params.layout)
        outputs = set()
        for exits in itertools.product((1, 2, 3), repeat=3):
            fresh = predict(model.params, hist, exits).data
            assert fresh.tobytes() == predict(loaded.params, hist, exits).data.tobytes()
            outputs.add(fresh.tobytes())
        assert len(outputs) == 27  # every triple takes its own path

    def test_routed_batch_is_bit_identical(self, tmp_path):
        model, loaded = fresh_and_loaded(tmp_path)
        cfg = model.params.config
        histories = np.stack([make_history(np.random.default_rng(43 + i), cfg,
                                           model.params.layout).data for i in range(6)])
        pred, exits = _routed_batch(model, histories)
        pred_loaded, exits_loaded = _routed_batch(loaded, histories)
        assert pred.tobytes() == pred_loaded.tobytes()
        assert exits.tobytes() == exits_loaded.tobytes()


class TestBindOnce:
    """Inference binds a dict of frozen arrays as constants that belong to no
    tape, built once and reused while the dict holds the same arrays."""

    def test_same_frozen_dict_bound_twice_gives_the_same_constants(self, tmp_path):
        _, loaded = fresh_and_loaded(tmp_path)
        named = loaded.named_parameters()
        first, second = (bind(Tape(), named, trainable=False) for _ in range(2))
        assert first is not second  # each caller may extend its own dict
        assert first.keys() == second.keys() == named.keys()
        assert all(second[k] is t and t.tid == SHARED for k, t in first.items())

    def test_replacing_one_array_gives_a_fresh_constant_for_it(self, tmp_path):
        _, loaded = fresh_and_loaded(tmp_path)
        named = loaded.params.named_parameters()
        first = bind(Tape(), named, trainable=False)
        named["whole.dec.b"] = freeze(np.ones_like(named["whole.dec.b"]), "whole.dec.b")
        second = bind(Tape(), named, trainable=False)
        assert second["whole.dec.b"] is not first["whole.dec.b"]
        assert second["whole.dec.b"].values is named["whole.dec.b"]
        assert all(second[k] is first[k] for k in named if k != "whole.dec.b")

    def test_a_writeable_array_binds_the_dict_to_the_tape(self, tmp_path):
        _, loaded = fresh_and_loaded(tmp_path)
        named = loaded.params.named_parameters()
        named = {**named, "whole.dec.b": named["whole.dec.b"].copy()}
        tape = Tape()
        tensors = bind(tape, named, trainable=False)
        assert all(tape.tensors[t.tid] is t for t in tensors.values())

    def test_only_the_last_frozen_dict_is_kept(self, tmp_path):
        # binding model after model keeps no earlier model's arrays alive
        _, first = fresh_and_loaded(tmp_path, seed=50)
        kept = weakref.ref(first.params.arrays["whole.dec.b"])
        bind(Tape(), first.params.named_parameters(), trainable=False)
        _, second = fresh_and_loaded(tmp_path, seed=51)
        bind(Tape(), second.params.named_parameters(), trainable=False)
        del first
        gc.collect()
        assert kept() is None


@pytest.fixture(scope="module")
def default_model_and_test_histories():
    """A default-config model with live decoders and the 56 (N, E) histories
    of the default manifest's test split."""
    splits = build_dataset(default_manifest())
    layout = PartLayout.from_skeleton(default_skeleton())
    config = PredictorConfig(zero_output_decoders=False)
    model = init_predictor_model(np.random.default_rng(36), layout, config)
    histories = np.stack([seq.data[:config.input_frames] for seq in splits.test])
    assert histories.shape[0] == 56
    return model, histories


def recorded_tapes(monkeypatch, module):
    """The tapes that module's bind calls register parameters on, in order."""
    tapes = []
    original = module.bind

    def recording(tape, named, trainable):
        tapes.append(tape)
        return original(tape, named, trainable)

    monkeypatch.setattr(module, "bind", recording)
    return tapes


class TestInferenceTapes:
    """A node keeps backward state only when a gradient can flow into it, so
    an inference tape holds forward values and nothing else."""

    def test_predict_keeps_no_backward(self, monkeypatch, default_model_and_test_histories):
        model, histories = default_model_and_test_histories
        tapes = recorded_tapes(monkeypatch, predictor_module)
        for exits in ((1, 1, 1), (3, 3, 3), (1, 2, 3)):
            predict(model.params, MotionSequence(data=histories[0], fps=10.0, label="h"),
                    exits)
        assert len(tapes) == 3
        for tape in tapes:
            assert "gc_block" in {node.kind for node in tape.nodes}
            assert all(node.backward_fn is None for node in tape.nodes)

    def test_routed_batch_keeps_no_backward(self, monkeypatch,
                                            default_model_and_test_histories):
        model, histories = default_model_and_test_histories
        tapes = recorded_tapes(monkeypatch, training_module)
        _routed_batch(model, histories)
        assert len(tapes) == 1
        kinds = {node.kind for node in tapes[0].nodes}
        assert {"gc_block", "straight_through", "scalar_mul"} <= kinds
        assert all(node.backward_fn is None for node in tapes[0].nodes)

    def test_trainable_weights_on_a_constant_input_keep_their_gradients(self):
        # the constant front end records no node, so every node keeps its
        # backward; the digest pins the bytes of every parameter's gradient
        layout = PartLayout.from_skeleton(default_skeleton())
        config = PredictorConfig(zero_output_decoders=False)
        params = init_predictor(np.random.default_rng(34), layout, config)
        rng = np.random.default_rng(35)
        hist = rng.normal(scale=30.0, size=(3, config.input_frames, layout.size))
        gt = rng.normal(scale=30.0, size=(3, config.input_frames + config.output_frames,
                                          layout.size))
        tape = Tape()
        named = params.named_parameters()
        tensors = bind(tape, named, trainable=True)
        pred = _forward_core(tape, params, tensors, hist, (3, 2, 1))
        tape.backward(tape.sum_sq(tape.add(pred, tape.constant(-gt))))
        for node in tape.nodes:
            assert (node.backward_fn is not None) == tape.tensors[node.output_id].requires_grad
        assert [node.kind for node in tape.nodes if node.backward_fn is None] == []
        digest = hashlib.blake2b(digest_size=16)
        for _, grad in per_layer_order({name: tensors[name].grad for name in named}):
            digest.update(grad.tobytes())
        assert digest.hexdigest() == "7c5ee8c4ec6665314c61725b3e5bc560"

    def test_full_depth_batch_memory(self, default_model_and_test_histories):
        # about 8 MB; a tape that kept every backward closure and the arrays
        # it reads peaked at 64 MB
        model, histories = default_model_and_test_histories
        tracemalloc.start()
        try:
            tape = Tape()
            tensors = bind(tape, model.params.named_parameters(), trainable=False)
            _forward_core(tape, model.params, tensors, histories, (3, 3, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024 * 1024


class TestPredictGolden:
    """Bytes of predict on a seeded default-config model with live decoders, at
    every exit triple, for atomic and composite test histories. They change if
    the forward arithmetic or its order changes."""

    def test_outputs_at_every_exit_triple(self, default_model_and_test_histories):
        model, histories = default_model_and_test_histories
        digest = hashlib.sha256()
        for i in (0, 19, 20, 55):  # the first and last atomic, then composite
            hist = MotionSequence(data=histories[i], fps=10.0, label="h")
            for exits in itertools.product((1, 2, 3), repeat=3):
                digest.update(predict(model.params, hist, exits).data.tobytes())
        assert digest.hexdigest() == (
            "5a2752c3f81ae2633d8a08c68c99748453fa85ddd098167265aaa507315c3e7d")
