import copy
import hashlib
import re
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from moticomp import training
from moticomp.autodiff import Tape
from moticomp.datagen import build_dataset, default_manifest, load_checkpoint, save_checkpoint
from moticomp.errors import ConfigError, NumericError, ShapeError
from moticomp.exits import _policy_forward, _tendency_loss_soft
from moticomp.layers import bind
from moticomp.motion import LOWER, UPPER, MotionSequence, PartLayout, Skeleton
from moticomp.predictor import (BRANCH_KINDS, PredictorConfig, _branch_encode,
                                _prepare_branch_inputs, pad_last_frame)
from moticomp.training import (AdamState, TrainConfig, _mean_future_error,
                               _mpjpe_loss_t, _routed_batch, _routed_forward, adam_step,
                               evaluate, init_predictor_model, mpjpe_metric,
                               routed_prediction, train_predictor)
from moticomp.vae import CagTrainConfig, init_vae, reconstruction_mpjpe, train_cag


def tape_loss(pred: np.ndarray, gt: np.ndarray) -> float:
    """The training loss of one (frames, 3J) prediction, as a number."""
    tape = Tape()
    return _mpjpe_loss_t(tape, tape.constant(pred[None]), gt[None]).item()


class TestMpjpeLoss:
    def test_perfect_prediction(self):
        x = np.random.default_rng(0).normal(size=(5, 6))
        assert tape_loss(x, x) == 0.0

    def test_single_error_closed_form(self):
        # J=2, frames=5, one joint off by (3,0,0): 9 / (2*5) = 0.9
        gt = np.zeros((5, 6))
        pred = gt.copy()
        pred[2, 0] += 3.0
        assert tape_loss(pred, gt) == pytest.approx(0.9, abs=1e-15)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        pred = rng.normal(size=(4, 9))
        gt = rng.normal(size=(4, 9))
        frames, joints = 4, 3
        acc = 0.0
        for t in range(frames):
            for j in range(joints):
                err = pred[t, 3 * j:3 * j + 3] - gt[t, 3 * j:3 * j + 3]
                acc += float(err @ err)
        assert tape_loss(pred, gt) == pytest.approx(acc / (joints * frames), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tape_loss(np.zeros((3, 6)), np.zeros((4, 6)))


class TestMpjpeMetric:
    def test_perfect(self):
        x = np.random.default_rng(2).normal(size=(3, 6))
        assert mpjpe_metric(x, x, 1) == 0.0

    def test_three_four_five(self):
        gt = np.zeros((2, 6))
        pred = gt.copy()
        pred[1, 0::3] += 3.0
        pred[1, 1::3] += 4.0
        assert mpjpe_metric(pred, gt, 1) == pytest.approx(5.0, abs=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        pred = rng.normal(size=(5, 12))
        gt = rng.normal(size=(5, 12))
        f = 3
        per_joint = [np.linalg.norm(pred[f, 3 * j:3 * j + 3] - gt[f, 3 * j:3 * j + 3])
                     for j in range(4)]
        assert mpjpe_metric(pred, gt, f) == pytest.approx(np.mean(per_joint), rel=1e-12)

    def test_horizon_out_of_range(self):
        with pytest.raises(ValueError):
            mpjpe_metric(np.zeros((3, 6)), np.zeros((3, 6)), 3)

    def test_unit_error_calibration(self):
        # every per-joint error of magnitude 1: loss == 1 and metric == 1
        gt = np.zeros((4, 6))
        pred = gt.copy()
        pred[:, 0::3] = 1.0  # x-offset of 1 on both joints, all frames
        assert tape_loss(pred, gt) == pytest.approx(1.0, abs=1e-15)
        for f in range(4):
            assert mpjpe_metric(pred, gt, f) == pytest.approx(1.0, abs=1e-15)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = {"w": np.array([1.0, -2.0])}
        state = AdamState.for_params(params)
        adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
        assert np.array_equal(params["w"], [1.0, -2.0])
        assert state.step == 1

    def test_first_step_is_signed_lr(self):
        rng = np.random.default_rng(5)
        g = rng.normal(size=4)
        params = {"w": np.zeros(4)}
        state = AdamState.for_params(params)
        adam_step(params, {"w": g}, state, lr=0.01)
        # bias-corrected first step: -lr * g / (|g| + eps') ~= -lr * sign(g)
        assert np.allclose(params["w"], -0.01 * np.sign(g), atol=1e-6)

    def test_converges_on_quadratic(self):
        rng = np.random.default_rng(3)
        params = {"x": rng.normal(size=5)}
        start = float(np.linalg.norm(params["x"]))
        state = AdamState.for_params(params)
        norms = []
        for _ in range(100):
            adam_step(params, {"x": 2.0 * params["x"]}, state, lr=0.05)
            norms.append(float(np.linalg.norm(params["x"])))
        assert all(b < a for a, b in zip(norms[3:], norms[4:]))
        assert norms[-1] < 1e-2 * start

    def test_nan_gradient_aborts(self):
        params = {"w": np.zeros(2)}
        state = AdamState.for_params(params)
        with pytest.raises(NumericError):
            adam_step(params, {"w": np.array([np.nan, 0.0])}, state, lr=0.1)

    SHAPES = {"fusion": (1, 1), **{f"small{i}": (8, 16) for i in range(30)},
              "exact": (128, training._ADAM_CHUNK // 128), "wide": (600, 256), "bias": (1, 256)}

    def _race(self, reference, steps, seed):
        """adam_step and a reference step side by side over steps random
        gradients, each array's drawn at a scale from 1e-6 to 1e2: the two
        param dicts, adam_step's state and the reference's moments."""
        rng = np.random.default_rng(seed)
        params = {name: rng.normal(size=shape) for name, shape in self.SHAPES.items()}
        ref_params = {name: p.copy() for name, p in params.items()}
        state = AdamState.for_params(params)
        ref_m = {name: np.zeros(shape) for name, shape in self.SHAPES.items()}
        ref_v = {name: np.zeros(shape) for name, shape in self.SHAPES.items()}
        for step in range(1, steps + 1):
            grads = {name: rng.normal(scale=10.0 ** rng.integers(-6, 3), size=shape)
                     for name, shape in self.SHAPES.items()}
            adam_step(params, grads, state, lr=0.003)
            reference(ref_params, grads, ref_m, ref_v, step, lr=0.003)
        assert state.step == steps
        return params, ref_params, state, ref_m, ref_v

    def test_chunked_step_bit_identical_to_the_per_array_formula(self):
        chunk = training._ADAM_CHUNK
        assert 600 * 256 % chunk  # the wide array's last piece is short
        plan = [[name for name, _, _ in pieces]
                for _, _, pieces in AdamState(self.SHAPES)._chunks]
        assert plan == [["fusion", *[f"small{i}" for i in range(30)]], ["exact"],
                        *[["wide"]] * (600 * 256 // chunk), ["wide", "bias"]]
        params, ref_params, state, ref_m, ref_v = self._race(per_array_adam_step, 6, 81)
        for name in self.SHAPES:
            for got, want in ((params, ref_params), (state.m, ref_m), (state.v, ref_v)):
                assert got[name].tobytes() == want[name].tobytes(), name

    def test_within_rounding_of_the_textbook_formula(self, monkeypatch):
        params, ref_params, state, ref_m, ref_v = self._race(reference_adam_step, 200, 85)
        for name in self.SHAPES:
            for got, want in ((params[name], ref_params[name]),
                              (state.m[name] * (1.0 - 0.9), ref_m[name]),
                              (state.v[name] * (1.0 - 0.999), ref_v[name])):
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), name

        # the compose benchmark's VAE: 4 epochs over the default training split
        splits = build_dataset(default_manifest())
        config = CagTrainConfig(epochs=4, n_coeffs=25, hidden_dims=(256, 256), seed=0)
        runs = [train_cag(splits.train, config)]
        monkeypatch.setattr(training, "adam_step", textbook_adam_step)
        runs.append(train_cag(splits.train, config))
        (losses, errors), (ref_losses, ref_errors) = [
            (run.loss_history, reconstruction_mpjpe(run.params, splits.test)) for run in runs]
        assert len(losses) == 4
        assert np.allclose(losses, ref_losses, rtol=1e-13, atol=0.0)
        assert abs(errors - ref_errors) <= 1e-12

    def test_failed_check_changes_nothing(self):
        rng = np.random.default_rng(82)
        params = {"a": rng.normal(size=(3, 4)), "wide": rng.normal(size=(300, 100)),
                  "last": rng.normal(size=(2, 2))}
        grads = {name: rng.normal(size=p.shape) for name, p in params.items()}
        state = AdamState.for_params(params)
        for _ in range(2):
            adam_step(params, grads, state, lr=0.01)
        snapshot = [params[n].tobytes() + state.m[n].tobytes() + state.v[n].tobytes()
                    for n in params]
        nan_last = {**grads, "last": np.array([[1.0, 0.0], [np.nan, 0.0]])}
        with pytest.raises(NumericError, match="non-finite gradient for last"):
            adam_step(params, nan_last, state, lr=0.01)
        inf_wide = {**grads, "wide": grads["wide"].copy()}
        inf_wide["wide"][-1, -1] = np.inf
        with pytest.raises(NumericError, match="non-finite gradient for wide"):
            adam_step(params, inf_wide, state, lr=0.01)
        missing = {n: g for n, g in grads.items() if n != "last"}
        with pytest.raises(ShapeError, match="gradient of last missing"):
            adam_step(params, missing, state, lr=0.01)
        with pytest.raises(ShapeError, match=r"\['extra'\]"):
            adam_step({**params, "extra": np.zeros(2)}, grads, state, lr=0.01)
        with pytest.raises(ShapeError, match=r"\['last'\]"):
            adam_step({n: p for n, p in params.items() if n != "last"}, grads, state, lr=0.01)
        with pytest.raises(ShapeError, match="parameter a has shape"):
            adam_step({**params, "a": np.zeros((4, 3))}, grads, state, lr=0.01)
        assert state.step == 2
        assert snapshot == [params[n].tobytes() + state.m[n].tobytes() + state.v[n].tobytes()
                            for n in params]

    @pytest.mark.parametrize("key,value", [
        ("lr", np.nan), ("lr", np.inf), ("lr", 0.0), ("lr", -0.01),
        ("eps", 0.0), ("eps", np.inf), ("eps", np.nan),
        ("beta1", 1.0), ("beta1", -0.1), ("beta1", np.nan), ("beta2", 1.0), ("beta2", np.nan),
    ])
    def test_hyperparameter_that_would_corrupt_params_refused(self, key, value):
        # each of these wrote NaN or inf into the parameters when unchecked;
        # eps = 0 did so through the zero gradient
        params = {"w": np.array([1.0, -2.0]), "b": np.array([0.5])}
        state = AdamState.for_params(params)
        adam_step(params, {"w": np.array([0.3, -0.2]), "b": np.array([0.1])}, state, lr=0.01)
        snapshot = [params[n].tobytes() + state.m[n].tobytes() + state.v[n].tobytes()
                    for n in params]
        zeros = {name: np.zeros_like(p) for name, p in params.items()}
        hyper = {"lr": 0.01, key: value}
        with pytest.raises(ValueError, match=rf"^{key} must .*, got {value}$"):
            adam_step(params, zeros, state, **hyper)
        assert state.step == 1
        assert snapshot == [params[n].tobytes() + state.m[n].tobytes() + state.v[n].tobytes()
                            for n in params]

    def test_zero_betas_accepted(self):
        params = {"w": np.array([1.0, -2.0])}
        state = AdamState.for_params(params)
        adam_step(params, {"w": np.array([0.5, -4.0])}, state, lr=0.1, beta1=0.0, beta2=0.0)
        # with no averaging the step is lr * g / (|g| + eps)
        assert np.allclose(params["w"], [0.9, -1.9], rtol=0.0, atol=1e-8)

    def test_parameter_an_update_would_miss_refused(self):
        w = np.zeros((4, 3))
        with pytest.raises(ValueError, match="parameter wt is not a C-contiguous"):
            AdamState.for_params({"b": np.zeros(3), "wt": w.T})
        state = AdamState.for_params({"w": w})
        with pytest.raises(ValueError, match="parameter w is not a C-contiguous"):
            adam_step({"w": np.zeros((3, 4)).T}, {"w": np.ones((4, 3))}, state, lr=0.1)
        assert state.step == 0

    def test_non_contiguous_gradient_accepted(self):
        rng = np.random.default_rng(83)
        params = {"w": rng.normal(size=(200, 90)), "b": rng.normal(size=(1, 90))}
        twin = {name: p.copy() for name, p in params.items()}
        state, twin_state = AdamState.for_params(params), AdamState.for_params(twin)
        for _ in range(3):
            g = rng.normal(size=(90, 200))
            adam_step(params, {"w": g.T, "b": g[:1, :90]}, state, lr=0.01)
            adam_step(twin, {"w": g.T.copy(), "b": g[:1, :90].copy()}, twin_state, lr=0.01)
        for name in params:
            assert params[name].tobytes() == twin[name].tobytes()
            assert state.m[name].tobytes() == twin_state.m[name].tobytes()

    def test_vae_sized_step_allocates_no_parameter_sized_temporary(self):
        # 452 216 parameters, the largest 600 x 256; the per-array formula
        # peaked at 3.6 MB of temporaries
        rng = np.random.default_rng(84)
        params = init_vae(rng, coeff_rows=25, coeff_cols=24, original_length=30).named_parameters()
        grads = {name: rng.normal(size=p.shape) for name, p in params.items()}
        state = AdamState.for_params(params)
        adam_step(params, grads, state, lr=1e-3)
        tracemalloc.start()
        try:
            adam_step(params, grads, state, lr=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


def reference_adam_step(params, grads, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The textbook Adam step (Kingma & Ba, Algorithm 1), array by array."""
    bc1 = 1.0 - beta1 ** step
    bc2 = 1.0 - beta2 ** step
    for name, p in params.items():
        g = grads[name]
        m[name] += (1.0 - beta1) * (g - m[name])
        v[name] += (1.0 - beta2) * (g * g - v[name])
        p -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)


def textbook_adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """adam_step's signature over reference_adam_step: state.m and state.v
    hold the textbook moments."""
    state.step += 1
    reference_adam_step(params, grads, state.m, state.v, state.step, lr, beta1, beta2, eps)
    return params, state


def per_array_adam_step(params, grads, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """adam_step's formula array by array, with fresh temporaries: m and v
    hold the moments over (1 - beta1) and (1 - beta2)."""
    r = np.sqrt((1.0 - beta2) / (1.0 - beta2 ** step))
    size = lr * (1.0 - beta1) / ((1.0 - beta1 ** step) * r)
    for name, p in params.items():
        g = grads[name]
        m[name] = beta1 * m[name] + g
        v[name] = beta2 * v[name] + g * g
        p -= m[name] / (np.sqrt(v[name]) + eps / r) * size


def toy_fit(monkeypatch, epochs, n_items=5, batch_size=2, lr=0.1, lr_decay=0.5,
            total_scale=1.0):
    """_fit over one parameter with loss (1 + sum of the batch's items) * |w|^2
    and total_scale times it differentiated. The objective draws one normal
    number per batch and records (epoch, batch, loss, draw). Returns the
    parameter, the yields, the records and the number of Adam steps."""
    named = {"w": np.array([1.0, -2.0])}
    rng = np.random.default_rng(5)
    records = []

    def objective(tape, epoch, batch):
        tensors = bind(tape, named, trainable=True)
        loss = tape.scale(tape.sum_sq(tensors["w"]), 1.0 + float(batch.sum()))
        records.append((epoch, batch.tolist(), loss.item(), rng.standard_normal()))
        return tensors, loss, tape.scale(loss, total_scale), records[-1]

    steps = count_adam_steps(monkeypatch)
    yields = list(training._fit(named, n_items, epochs, batch_size, lr, lr_decay, rng,
                                objective))
    return named["w"], yields, records, steps


def count_adam_steps(monkeypatch):
    steps = []
    original = training.adam_step

    def counted(*args, **kwargs):
        steps.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(training, "adam_step", counted)
    return steps


class TestFit:
    """The minibatch driver both training loops share."""

    def test_zero_epochs_yield_nothing_and_take_no_step(self, monkeypatch):
        w, yields, records, steps = toy_fit(monkeypatch, epochs=0)
        assert yields == [] and records == [] and steps == []
        assert w.tolist() == [1.0, -2.0]

    def test_one_yield_per_epoch_with_the_decayed_lr(self, monkeypatch):
        _, yields, _, steps = toy_fit(monkeypatch, epochs=3)
        # a decay of 0.5 is exact, so the running product equals the power
        assert [lr for _, lr, _ in yields] == [0.1 * 0.5 ** (k + 1) for k in range(3)]
        assert len(steps) == 3 * 3  # 5 items at batch size 2

    def test_records_losses_and_draws_follow_the_permutation(self, monkeypatch):
        _, yields, records, _ = toy_fit(monkeypatch, epochs=2)
        # the permutation of each epoch comes first, then one draw per batch
        rng = np.random.default_rng(5)
        for epoch, (loss, _, epoch_records) in enumerate(yields):
            order = rng.permutation(5)
            batches = [order[i:i + 2].tolist() for i in range(0, 5, 2)]
            assert [r[:2] for r in epoch_records] == [(epoch, b) for b in batches]
            assert [r[3] for r in epoch_records] == [rng.standard_normal() for _ in batches]
            weighted = 0.0
            for _, batch, batch_loss, _ in epoch_records:
                weighted += batch_loss * len(batch)
            assert loss == weighted / 5
        assert [r for _, _, epoch_records in yields for r in epoch_records] == records

    def test_the_total_is_differentiated_and_the_loss_reported(self, monkeypatch):
        w, yields, _, steps = toy_fit(monkeypatch, epochs=1, total_scale=0.0)
        assert len(steps) == 3 and w.tolist() == [1.0, -2.0]  # zero gradients: no move
        assert yields[0][0] > 0
        w, _, _, _ = toy_fit(monkeypatch, epochs=1)
        assert np.all(np.abs(w) < [1.0, 2.0])


def tiny_setup(seed=0, n_train=12, n_val=4):
    sk = Skeleton(parent=(0, 0, 0, 2), part_of=(LOWER, LOWER, UPPER, UPPER))
    layout = PartLayout.from_skeleton(sk)
    config = PredictorConfig(input_frames=8, output_frames=4, feature_width=8,
                             policy_hidden=6, coeff_scale=10.0)
    model = init_predictor_model(np.random.default_rng(seed), layout, config)
    rng = np.random.default_rng(seed + 100)

    def make_seq(i):
        t = np.arange(12)[:, None]
        base = 10.0 * np.sin(0.3 * t + 0.2 * i) * np.ones((1, layout.size))
        base[:, 0:3] = 0.0
        return MotionSequence(data=base + rng.normal(scale=0.1, size=(12, layout.size)),
                              fps=10.0, label=f"act{i % 3}")

    train = [make_seq(i) for i in range(n_train)]
    val = [make_seq(100 + i) for i in range(n_val)]
    return model, layout, config, train, val


def tiny_train_config(**overrides):
    defaults = dict(epochs=2, constrain_epochs=1, batch_size=4, seed=9)
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestTrainPredictor:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -1.0, pytest.param(10 ** 400, id="huge_int")])
    @pytest.mark.parametrize("key", ["lr", "temperature"])
    def test_non_positive_or_non_finite_rates_named(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be finite and > 0, got {value}"):
            TrainConfig(**{key: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0, pytest.param(10 ** 400, id="huge_int")])
    def test_negative_or_non_finite_tendency_weight_named(self, value):
        with pytest.raises(ConfigError, match=f"w_tendency must be finite and >= 0, got {value}"):
            TrainConfig(w_tendency=value)

    def test_zero_tendency_weight_turns_the_term_off(self):
        assert TrainConfig(w_tendency=0.0).w_tendency == 0.0

    @pytest.mark.parametrize("value", [-1, -(2 ** 40)])
    @pytest.mark.parametrize("key,low", [("batch_size", 1), ("epochs", 0),
                                         ("constrain_epochs", 0), ("seed", 0)])
    def test_integer_key_below_its_bound_named(self, key, low, value):
        with pytest.raises(ConfigError, match=f"{key} must be >= {low}, got {value}"):
            TrainConfig(**{key: value})

    @pytest.mark.parametrize("value", [2.5, 1.0, np.nan, True, False])
    @pytest.mark.parametrize("key", ["batch_size", "epochs", "constrain_epochs", "seed"])
    def test_non_integral_key_named(self, key, value):
        with pytest.raises(ConfigError, match=re.escape(f"{key} must be an integer, "
                                                        f"got {value!r}")):
            TrainConfig(**{key: value})

    def test_numpy_integer_sizes_accepted(self):
        model, _, _, train, _ = tiny_setup()
        config = TrainConfig(epochs=np.int64(2), constrain_epochs=np.uint8(1),
                             batch_size=np.int32(5), seed=np.int64(9))
        result = train_predictor(model, train, [], config)
        assert result.history_csv() == train_predictor(
            tiny_setup()[0], train, [], tiny_train_config(batch_size=5)).history_csv()

    def test_zero_epochs_leaves_model_unchanged(self):
        model, _, _, train, val = tiny_setup()
        snapshot = {k: v.copy() for k, v in model.named_parameters().items()}
        result = train_predictor(model, train, val,
                                 tiny_train_config(epochs=0, constrain_epochs=0))
        for name, arr in result.model.named_parameters().items():
            assert np.array_equal(arr, snapshot[name])
        assert result.history == []

    def test_seeded_determinism(self):
        histories, params = [], []
        for _ in range(2):
            model, _, _, train, val = tiny_setup(seed=1)
            result = train_predictor(model, train, val, tiny_train_config())
            histories.append(result.history_csv())
            params.append(result.model.named_parameters())
        assert histories[0] == histories[1]
        for name, arr in params[0].items():
            assert np.array_equal(arr, params[1][name]), name

    def test_exit_histogram_conservation(self):
        model, _, _, train, val = tiny_setup(seed=2)
        result = train_predictor(model, train, val, tiny_train_config())
        for rec in result.history:
            assert sum(rec.exit_counts) == len(train) * 3

    def test_lr_schedule(self):
        model, _, _, train, val = tiny_setup(seed=3)
        config = tiny_train_config(epochs=3, constrain_epochs=0)
        result = train_predictor(model, train, val, config)
        for k, rec in enumerate(result.history, start=1):
            assert rec.lr == pytest.approx(config.lr * config.lr_decay_per_epoch ** k,
                                           rel=1e-15)

    def test_paper_defaults_echo(self):
        config = TrainConfig()
        assert config.batch_size == 32
        assert config.lr == 0.0005
        assert config.lr_decay_per_epoch == 0.96
        assert config.epochs == 50
        assert config.constrain_epochs == 20

    def test_loaded_model_is_not_trained_in_place(self, tmp_path):
        model, _, _, train, val = tiny_setup(seed=4)
        save_checkpoint(tmp_path / "p.json", model)
        loaded = load_checkpoint(tmp_path / "p.json")
        named = loaded.named_parameters()
        before = {name: arr.copy() for name, arr in named.items()}
        first = next(iter(named))
        with pytest.raises(ValueError, match=rf"parameter {first} is read-only, as a "
                                             "loaded model's are"):
            train_predictor(loaded, train, val, tiny_train_config())
        for name, arr in named.items():
            assert np.array_equal(arr, before[name]), name
        # a deep copy is writeable and trains as the model it was saved from
        config = tiny_train_config(epochs=1)
        result = train_predictor(copy.deepcopy(loaded), train, val, config)
        assert result.history_csv() == train_predictor(model, train, val, config).history_csv()

    def test_empty_train_set_rejected(self):
        model, _, _, _, val = tiny_setup()
        with pytest.raises(ValueError):
            train_predictor(model, [], val, tiny_train_config())


class TestTotalLoss:
    """The balance term joins the objective only in the constraint epochs."""

    def test_constraint_on_adds_cv(self):
        model, _, _, train, val = tiny_setup(seed=10)
        result = train_predictor(model, train, val, tiny_train_config())
        assert result.history[0].tendency > 0.0

    def test_constraint_off_equals_mpjpe(self):
        model, _, _, train, val = tiny_setup(seed=10)
        result = train_predictor(model, train, val, tiny_train_config())
        assert result.history[1].tendency == 0.0

    def test_zero_weight_disables_tendency(self):
        model, _, _, train, val = tiny_setup(seed=11)
        config = tiny_train_config(epochs=3, constrain_epochs=3, w_tendency=0.0)
        result = train_predictor(model, train, val, config)
        assert [rec.tendency for rec in result.history] == [0.0, 0.0, 0.0]


class TestBaselineAndEvaluate:
    def test_baseline_on_static_history(self):
        hist = MotionSequence(data=np.tile([1.0, 2, 3, 4, 5, 6], (5, 1)), fps=10,
                              label="s")
        base = pad_last_frame(hist.data, 3)
        assert base.shape == (8, 6)
        assert np.array_equal(base[5:], np.tile(hist.data[-1], (3, 1)))
        gt_tail = np.tile(hist.data[-1], (3, 1))
        assert mpjpe_metric(base[5:], gt_tail, 2) == 0.0

    def test_baseline_error_grows_linearly_with_speed(self):
        v = np.array([0.6, 0.8, 0.0])  # |v| = 1 per frame, every joint
        frames = np.arange(10)[:, None]
        data = np.hstack([frames * v[None, :]] * 2)
        seq = MotionSequence(data=data, fps=10, label="lin")
        hist = MotionSequence(data=seq.data[:6], fps=10, label="lin")
        base = pad_last_frame(hist.data, 4)
        for h in range(4):
            err = mpjpe_metric(base[6:], seq.data[6:], h)
            assert err == pytest.approx((h + 1) * 1.0, rel=1e-12)

    def test_untrained_model_report_equals_baseline(self):
        model, layout, config, train, val = tiny_setup(seed=4)
        report = evaluate(model, val, (1, 2, 4))
        assert report.overall == report.baseline_overall
        assert report.per_action == report.baseline_per_action
        assert all(d == 0.0 for d in report.deltas())

    def test_report_csv_lists_all_horizons(self):
        model, _, _, train, val = tiny_setup(seed=5)
        report = evaluate(model, val, (1, 3))
        header = report.to_csv().splitlines()[0]
        assert header.count("frame_") == 2
        assert "frame_1(100ms)" in header and "frame_3(300ms)" in header

    def test_horizon_out_of_span_rejected(self):
        model, _, _, _, val = tiny_setup(seed=6)
        with pytest.raises(ValueError, match=r"horizon_frames\[1\] must be <= 4, got 5"):
            evaluate(model, val, (1, 5))

    @pytest.mark.parametrize("horizons,bad", [((2.5,), "2.5"), ((True, 3), "True"),
                                              ((1, np.float64(2.0)), "2.0")])
    def test_non_integer_horizon_named(self, horizons, bad):
        model, _, _, _, val = tiny_setup(seed=6)
        with pytest.raises(ValueError, match=rf"horizon_frames\[\d\] must be an integer, "
                                             rf"got .*{bad}"):
            evaluate(model, val, horizons)

    def test_numpy_integer_horizons_accepted(self):
        model, _, _, _, val = tiny_setup(seed=6)
        report = evaluate(model, val, (np.int64(1), np.uint8(3)))
        assert report.horizon_frames == (1, 3)
        assert report.overall == evaluate(model, val, (1, 3)).overall

    def test_wrong_length_sequence_named(self):
        model, _, _, _, val = tiny_setup(seed=9)
        val[2] = MotionSequence(data=val[2].data[:10], fps=10.0, label="short")
        with pytest.raises(ShapeError,
                           match=r"test sequence 2 \('short'\) has shape \(10, 12\), "
                                 r"expected \(12, 12\)"):
            evaluate(model, val, (1,))

    def test_mixed_fps_named(self):
        model, _, _, _, val = tiny_setup(seed=10)
        val[3] = MotionSequence(data=val[3].data, fps=20.0, label="fast")
        with pytest.raises(ValueError,
                           match=r"test sequence 3 \('fast'\) has fps 20.0, "
                                 r"sequence 0 has 10.0"):
            evaluate(model, val, (1,))

    def test_routed_prediction_returns_valid_exits(self):
        model, _, config, _, val = tiny_setup(seed=7)
        hist = MotionSequence(data=val[0].data[:8], fps=10.0, label="x")
        pred, exits = routed_prediction(model, hist)
        assert pred.data.shape == (12, model.params.layout.size)
        assert all(1 <= d <= config.n_blocks for d in exits)

    def test_routed_exits_are_policy_argmax(self):
        model, _, config, _, val = tiny_setup(seed=8)
        rng = np.random.default_rng(30)
        for kind in BRANCH_KINDS:
            w2, b2 = model.policies[f"policy.{kind}.w2"], model.policies[f"policy.{kind}.b2"]
            w2[:] = rng.normal(size=w2.shape)
            b2[:] = rng.normal(scale=0.1, size=b2.shape)
        for seq in val:
            hist = MotionSequence(data=seq.data[:8], fps=10.0, label="x")
            tape = Tape()
            tensors = bind(tape, model.named_parameters(), trainable=False)
            inputs = _prepare_branch_inputs(tape, model.params, hist.data[None])
            expected = []
            for kind in BRANCH_KINDS:
                encoded = _branch_encode(tape, tensors, kind, inputs[kind])
                logits = _policy_forward(tape, tensors, f"policy.{kind}", encoded)
                expected.append(int(np.argmax(logits.values)) + 1)
            _, exits = routed_prediction(model, hist)
            assert exits == tuple(expected)


# ----------------------------------------------------------------------
# one batched tape per minibatch against the per-sample computation

REL_TOL = 1e-10  # the batch sums in another order, so bits may differ


def assert_close(actual, expected, what):
    scale = max(float(np.abs(expected).max()), 1e-300)
    assert float(np.abs(actual - expected).max()) <= REL_TOL * scale, what


def routed_model(seed, n_seqs=12):
    """A model with live decoders, a 12-frame history whose front end reads
    its newest 10 frames, and policies whose logits vary, so every parameter
    trains and a batch takes different exits; plus n_seqs random (16, E)
    sequences."""
    layout = PartLayout.from_skeleton(Skeleton(parent=(0, 0, 0, 2),
                                               part_of=(LOWER, LOWER, UPPER, UPPER)))
    config = PredictorConfig(input_frames=12, output_frames=4, feature_width=8,
                             policy_hidden=6, coeff_scale=10.0,
                             zero_output_decoders=False)
    model = init_predictor_model(np.random.default_rng(seed), layout, config)
    rng = np.random.default_rng(seed + 50)
    for kind in BRANCH_KINDS:
        model.policies[f"policy.{kind}.w2"][:] = rng.normal(size=(6, config.n_blocks))
    return model, config, rng.normal(scale=10.0, size=(n_seqs, 16, layout.size))


def training_objective(model, data, noise, n_input=12, w_tendency=1000.0):
    """The training objective of sequences data (B, N+T, E) on one tape, as
    train_predictor builds it: (tape, loss, tendency, gradients, exits)."""
    tape = Tape()
    named = model.named_parameters()
    tensors = bind(tape, named, trainable=True)
    pred, exits, softs = _routed_forward(tape, model, tensors, data[:, :n_input], noise, 1.0)
    loss = _mpjpe_loss_t(tape, pred, data)
    soft_sum = tape.sum_rows(reduce(tape.add, softs))
    tendency = _tendency_loss_soft(tape, soft_sum, w_tendency)
    tape.backward(tape.add(loss, tendency))
    return tape, loss.item(), tendency.item(), {n: tensors[n].grad for n in named}, exits


def per_sample_objective(model, data, noise, n_input=12, w_tendency=1000.0):
    """The same objective from one B = 1 forward per sample, summed on one tape."""
    tape = Tape()
    named = model.named_parameters()
    tensors = bind(tape, named, trainable=True)
    total = soft_sum = None
    exits = []
    for row, row_noise in zip(data, noise):
        pred, ex, softs = _routed_forward(tape, model, tensors, row[None, :n_input],
                                          row_noise[None], 1.0)
        loss = _mpjpe_loss_t(tape, pred, row[None])
        total = loss if total is None else tape.add(total, loss)
        for soft in softs:
            soft_sum = soft if soft_sum is None else tape.add(soft_sum, soft)
        exits.append(ex[0])
    loss = tape.scale(total, 1.0 / len(data))
    tendency = _tendency_loss_soft(tape, soft_sum, w_tendency)
    tape.backward(tape.add(loss, tendency))
    return loss.item(), tendency.item(), {n: tensors[n].grad for n in named}, np.array(exits)


class TestBatchedTraining:
    def test_batched_step_matches_per_sample_loop(self):
        model, config, data = routed_model(seed=40)
        noise = np.random.default_rng(41).gumbel(size=(len(data), 3, config.n_blocks))
        _, loss, tendency, grads, exits = training_objective(model, data, noise)
        ref_loss, ref_tendency, ref_grads, ref_exits = per_sample_objective(model, data,
                                                                            noise)
        # every branch routes rows to every exit, so the batch gathers and regroups
        assert all(set(exits[:, i]) == {1, 2, 3} for i in range(3))
        assert np.array_equal(exits, ref_exits)
        assert_close(loss, ref_loss, "loss")
        assert_close(tendency, ref_tendency, "tendency")
        for name, g in ref_grads.items():
            assert float(np.abs(g).max()) > 0.0, name
            assert_close(grads[name], g, name)

    def test_routing_skips_compute(self):
        # MACs add up over the samples exactly. Against one sample at full depth,
        # a batch that uses all D exits adds per branch, for each of the D - 1
        # shallower exit groups, a gather of its features, a decoder (3 nodes), a
        # gather of its gates, a slice, a gate product and a gather of the samples
        # that go on; then a gather of the deepest group's gates and one to
        # regroup: 8 (D - 1) + 2 nodes, whatever the batch size.
        model, config, data = routed_model(seed=42, n_seqs=32)
        noise = np.random.default_rng(43).gumbel(size=(32, 3, config.n_blocks))
        batched, *_, exits = training_objective(model, data, noise)
        assert all(set(exits[:, i]) == {1, 2, 3} for i in range(3))
        singles = [training_objective(model, data[b:b + 1], noise[b:b + 1])[0]
                   for b in range(32)]
        assert batched.mac_count == sum(t.mac_count for t in singles)
        full_depth = np.zeros((1, 3, config.n_blocks))
        full_depth[..., -1] = 1e3  # every branch draws its last exit
        deepest, *_, deepest_exits = training_objective(model, data[:1], full_depth)
        assert deepest_exits.tolist() == [[config.n_blocks] * 3]
        per_branch = 8 * (config.n_blocks - 1) + 2
        assert len(batched.nodes) <= len(deepest.nodes) + 3 * per_branch

    def test_train_predictor_matches_per_sample_reference(self):
        model, _, data = routed_model(seed=44)
        train = [MotionSequence(data=d, fps=10.0, label="r") for d in data]
        reference = copy.deepcopy(model)
        tc = tiny_train_config(epochs=1, constrain_epochs=1, batch_size=5)
        result = train_predictor(model, train, [], tc)
        loss, tendency, counts = reference_epoch(reference, train, tc)
        assert result.history[0].exit_counts == counts
        assert_close(result.history[0].loss, loss, "epoch loss")
        assert_close(result.history[0].tendency, tendency, "epoch tendency")
        for name, arr in reference.named_parameters().items():
            assert_close(model.named_parameters()[name], arr, name)

    def test_batch_draw_is_the_per_sample_draw_stream(self):
        batch = np.random.default_rng(45).gumbel(size=(7, 3, 4))
        rng = np.random.default_rng(45)
        assert np.array_equal(batch, np.stack([rng.gumbel(size=(3, 4)) for _ in range(7)]))


def reference_epoch(model, train, config):
    """One epoch of per-sample training: per minibatch, one (branches, D) Gumbel
    draw and one B = 1 forward per sample, summed on one tape, then Adam."""
    rng = np.random.default_rng(config.seed)
    named = model.named_parameters()
    state = AdamState.for_params(named)
    n_exits = model.params.config.n_blocks
    counts = np.zeros(n_exits, dtype=np.int64)
    epoch_loss = epoch_tendency = 0.0
    order = rng.permutation(len(train))
    starts = range(0, len(order), config.batch_size)
    for start in starts:
        batch = np.stack([train[i].data for i in order[start:start + config.batch_size]])
        noise = np.stack([rng.gumbel(size=(3, n_exits)) for _ in batch])
        loss, tendency, grads, exits = per_sample_objective(model, batch, noise,
                                                            model.params.config.input_frames,
                                                            config.w_tendency)
        adam_step(named, grads, state, config.lr)
        counts += np.bincount(exits.reshape(-1) - 1, minlength=n_exits)
        epoch_loss += loss * len(batch)
        epoch_tendency += tendency
    return (epoch_loss / len(train), epoch_tendency / len(starts),
            tuple(int(c) for c in counts))


# ----------------------------------------------------------------------
# batched inference against one tape per history

def labelled(data):
    return [MotionSequence(data=d, fps=10.0, label=f"act{i % 3}") for i, d in enumerate(data)]


def reference_evaluation(model, seqs, horizons, n_input=12):
    """evaluate's figures and the validation error, from one routed_prediction
    per history: (report fields, exit distribution, mean future error)."""
    fields = {"per_action": {}, "baseline_per_action": {}}
    rows, base_rows = [], []
    tallies = np.zeros((len(BRANCH_KINDS), model.params.config.n_blocks))
    total, count = 0.0, 0
    for seq in seqs:
        hist = MotionSequence(data=seq.data[:n_input], fps=seq.fps, label=seq.label)
        gt = seq.data[n_input:]
        pred, exits = routed_prediction(model, hist)
        tail = pred.data[n_input:]
        base = pad_last_frame(hist.data, len(gt))[n_input:]
        row = np.array([mpjpe_metric(tail, gt, h - 1) for h in horizons])
        base_row = np.array([mpjpe_metric(base, gt, h - 1) for h in horizons])
        fields["per_action"].setdefault(seq.label, []).append(row)
        fields["baseline_per_action"].setdefault(seq.label, []).append(base_row)
        rows.append(row)
        base_rows.append(base_row)
        for f in range(len(gt)):
            total += mpjpe_metric(tail, gt, f)
            count += 1
        for i, d in enumerate(exits):
            tallies[i, d - 1] += 1

    def mean(r):
        return tuple(float(x) for x in np.mean(r, axis=0))

    for key in ("per_action", "baseline_per_action"):
        fields[key] = {a: mean(r) for a, r in fields[key].items()}
    fields["overall"] = mean(rows)
    fields["baseline_overall"] = mean(base_rows)
    distribution = {kind: tuple(float(x) for x in t / t.sum())
                    for kind, t in zip(BRANCH_KINDS, tallies)}
    return fields, distribution, total / count


class TestBatchedInference:
    """40 histories on one inference tape, with exits that differ between
    histories; the batch must equal one tape per history bit for bit."""

    def test_routed_batch_matches_per_history_loop(self, monkeypatch):
        n = 40
        model, _, data = routed_model(seed=46, n_seqs=n)
        reference = [routed_prediction(model, MotionSequence(data=d[:12], fps=10.0,
                                                             label="r"))
                     for d in data]
        binds = []
        original = training.bind

        def counted(tape, named, trainable):
            binds.append(trainable)
            return original(tape, named, trainable)

        monkeypatch.setattr(training, "bind", counted)
        pred, exits = _routed_batch(model, data[:, :12])
        assert binds == [False]
        assert all(set(exits[:, i]) == {1, 2, 3} for i in range(3))
        assert np.array_equal(exits, np.array([ex for _, ex in reference]))
        assert np.array_equal(pred, np.stack([p.data for p, _ in reference]))

    def test_evaluate_and_validation_match_per_history_loop(self):
        model, _, data = routed_model(seed=47, n_seqs=40)
        seqs = labelled(data)
        fields, distribution, val_error = reference_evaluation(model, seqs, (1, 2, 4))
        assert all(sum(share > 0 for share in d) > 1 for d in distribution.values())
        report = evaluate(model, seqs, (1, 2, 4))
        for name, expected in fields.items():
            assert getattr(report, name) == expected, name
        assert report.flops.exit_distribution == distribution
        assert _mean_future_error(model, seqs, 12) == val_error


class TestTrainAndEvaluateGolden:
    """Bytes of a seeded train_predictor + evaluate whose policies take mixed
    exits, pinned when the front end became the DCT of the padded history plus
    that of its newest window, with no parameters. They change if training,
    routing, the error metric, or the order of its sums change."""

    def test_history_report_and_flops(self):
        model, _, data = routed_model(seed=46, n_seqs=82)
        seqs = labelled(data)
        result = train_predictor(model, seqs[:12], seqs[12:46],
                                 tiny_train_config(epochs=2, batch_size=5))
        report = evaluate(model, seqs[46:], (1, 2, 4))
        assert all(sum(share > 0 for share in d) > 1
                   for d in report.flops.exit_distribution.values())
        digests = [hashlib.sha256(text.encode()).hexdigest()
                   for text in (result.history_csv(), report.to_csv(),
                                report.flops.to_csv())]
        assert digests == [
            "86f29f6ed78f2ad0a84a77087e0375eb4fa26d55dddbf18afd42d61d9cf5af2e",
            "44e0604938216f7e15da4509f25b454aa63ac0d9c8583da6e372885c8c02f698",
            "f65ff09a3edf37274c761f788b820442d5738c33dc7c0623028c4d6c8e3c73f3",
        ]
