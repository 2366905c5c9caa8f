import dataclasses
import hashlib
import re

import numpy as np
import pytest

from gradcheck import grad_check
from moticomp import vae
from moticomp.autodiff import Tape
from moticomp.datagen import build_dataset, default_manifest
from moticomp.dct import dct_encode
from moticomp.errors import ConfigError, ShapeError
from moticomp.layers import bind
from moticomp.motion import MotionSequence, PartLayout, Skeleton
from moticomp.training import AdamState, adam_step
from moticomp.vae import (BodyMask, CagTrainConfig, _decode, _elbo, _encode,
                          _reparameterize, init_vae, masked_fuse,
                          reconstruction_mpjpe, synthesize_composite, train_cag)

F, COLS, LENGTH, LATENT = 4, 6, 8, 3


def small_params(rng, zero_encoder_head=False, zero_decoder=False):
    params = init_vae(rng, coeff_rows=F, coeff_cols=COLS, original_length=LENGTH,
                      latent_dim=LATENT, hidden_dims=(10,))
    if zero_encoder_head:
        params.arrays["enc1.w"][:] = 0.0
        params.arrays["enc1.b"][:] = 0.0
    if zero_decoder:
        params.arrays["dec1.w"][:] = 0.0
    return params


def random_coeffs(rng):
    return rng.normal(size=(F, COLS))


def vae_encode(params, a):
    tape = Tape()
    tensors = bind(tape, params.named_parameters(), trainable=False)
    mu, log_var = _encode(tape, params, tensors, tape.constant(a.reshape(1, -1)))
    return mu.values.reshape(-1), log_var.values.reshape(-1)


def vae_decode(params, z):
    tape = Tape()
    tensors = bind(tape, params.named_parameters(), trainable=False)
    out = _decode(tape, params, tensors, tape.constant(z.reshape(1, -1)))
    return out.values.reshape(F, COLS)


class TestEncodeDecode:
    def test_zero_head_gives_zero_stats(self):
        rng = np.random.default_rng(0)
        params = small_params(rng, zero_encoder_head=True)
        mu, log_var = vae_encode(params, random_coeffs(rng))
        assert np.array_equal(mu, np.zeros(LATENT))
        assert np.array_equal(log_var, np.zeros(LATENT))

    def test_encode_deterministic(self):
        rng = np.random.default_rng(1)
        params = small_params(rng)
        a = random_coeffs(rng)
        first = vae_encode(params, a)
        second = vae_encode(params, a)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_encode_matches_hand_rolled_trace(self):
        rng = np.random.default_rng(2)
        params = small_params(rng)
        a = random_coeffs(rng)
        # oracle: explicit numpy forward through the same weights
        h = a.reshape(1, -1)
        h = (h - params.input_offset) / params.input_scale
        w = params.arrays
        h = np.tanh(h @ w["enc0.w"] + w["enc0.b"])
        h = h @ w["enc1.w"] + w["enc1.b"]
        mu, log_var = vae_encode(params, a)
        assert np.allclose(mu, h[0, :LATENT], atol=1e-12)
        assert np.allclose(log_var, h[0, LATENT:], atol=1e-12)

    def test_decode_zero_weights_returns_bias(self):
        rng = np.random.default_rng(3)
        params = small_params(rng, zero_decoder=True)
        bias = params.arrays["dec1.b"].reshape(F, COLS)
        out = vae_decode(params, rng.normal(size=LATENT))
        assert np.array_equal(out, bias)  # identity normalization by default

    def test_decode_matches_hand_rolled_trace(self):
        rng = np.random.default_rng(4)
        params = small_params(rng)
        z = rng.normal(size=LATENT)
        h = z.reshape(1, -1)
        w = params.arrays
        h = np.tanh(h @ w["dec0.w"] + w["dec0.b"])
        h = h @ w["dec1.w"] + w["dec1.b"]
        h = h * params.input_scale + params.input_offset
        out = vae_decode(params, z)
        assert np.allclose(out, h.reshape(F, COLS), atol=1e-12)

    def test_encode_rejects_wrong_shape(self):
        rng = np.random.default_rng(5)
        params = small_params(rng)
        s_m, s_n = make_sequences(rng, 2)
        with pytest.raises(ShapeError):
            synthesize_composite(params, s_m, s_n, BodyMask(m=np.ones(COLS)), F + 1)

    @pytest.mark.parametrize("key,value,match", [
        ("coeff_rows", 0, "coeff_rows must be >= 1, got 0"),
        ("coeff_cols", -1, "coeff_cols must be >= 1, got -1"),
        ("latent_dim", 0, "latent_dim must be >= 1, got 0"),
        ("hidden_dims", (10, 0), r"hidden_dims entries must be >= 1, got \[10, 0\]"),
        ("original_length", 0, "original_length must be >= 1, got 0"),
        ("original_length", -1, "original_length must be >= 1, got -1")])
    def test_non_positive_sizes_named(self, key, value, match):
        sizes = dict(coeff_rows=F, coeff_cols=COLS, original_length=LENGTH,
                     latent_dim=LATENT, hidden_dims=(10,))
        with pytest.raises(ConfigError, match=match):
            init_vae(np.random.default_rng(0), **{**sizes, key: value})

    def test_more_coeff_rows_than_frames_named(self):
        with pytest.raises(ConfigError, match=rf"'coeff_rows' holds {LENGTH + 1}, "
                                              rf"expected 1\.\.original_length \({LENGTH}\)"):
            init_vae(np.random.default_rng(0), coeff_rows=LENGTH + 1, coeff_cols=COLS,
                     original_length=LENGTH)

    def test_no_hidden_layers_allowed(self):
        params = init_vae(np.random.default_rng(0), coeff_rows=F, coeff_cols=COLS,
                          original_length=LENGTH, latent_dim=LATENT, hidden_dims=())
        assert params.hidden_dims == [] and list(params.arrays) == [
            "enc0.w", "enc0.b", "dec0.w", "dec0.b"]


def reparameterize(mu, log_var, noise):
    tape = Tape()
    return _reparameterize(tape, tape.constant(mu.reshape(1, -1)),
                           tape.constant(log_var.reshape(1, -1)), noise).values.reshape(-1)


class TestReparameterize:
    def test_zero_noise_returns_mean(self):
        mu = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(reparameterize(mu, np.zeros(3), np.zeros(3)), mu)

    def test_unit_sigma_adds_noise(self):
        mu = np.array([1.0, 2.0])
        noise = np.array([0.5, -0.25])
        assert np.array_equal(reparameterize(mu, np.zeros(2), noise), mu + noise)

    def test_gradient_wrt_log_var(self):
        # d sum(z) / d log_var = 0.5 * exp(log_var / 2) * noise
        rng = np.random.default_rng(6)
        mu = rng.normal(size=(1, 4))
        noise = rng.normal(size=(1, 4))

        def f(tape, log_var):
            z = _reparameterize(tape, tape.constant(mu), log_var, noise)
            return tape.scale(tape.mean(z), z.size)

        point = rng.normal(size=(1, 4))
        assert grad_check(f, point, 1e-4) < 1e-6
        tape = Tape()
        lv = tape.leaf(point, requires_grad=True)
        z = _reparameterize(tape, tape.constant(mu), lv, noise)
        tape.backward(tape.scale(tape.mean(z), z.size))
        assert np.allclose(lv.grad, 0.5 * np.exp(point / 2.0) * noise, atol=1e-12)

    def test_draw_matches_identity(self):
        # z = mu + exp(log_var / 2) * noise, bit for bit
        rng = np.random.default_rng(20)
        mu, log_var, noise = rng.normal(size=(3, 5))
        expected = mu + np.exp(log_var / 2.0) * noise
        assert np.array_equal(reparameterize(mu, log_var, noise), expected)


def elbo_loss(a, a_prime, mu, log_var, kl_weight=1.0):
    tape = Tape()
    return _elbo(tape, tape.constant(a.reshape(1, -1)),
                 tape.constant(a_prime.reshape(1, -1)),
                 tape.constant(mu.reshape(1, -1)), tape.constant(log_var.reshape(1, -1)),
                 kl_weight).item()


class TestElbo:
    def test_perfect_reconstruction_prior_match(self):
        rng = np.random.default_rng(7)
        a = random_coeffs(rng)
        assert elbo_loss(a, a, np.zeros(LATENT), np.zeros(LATENT), 1.0) == 0.0

    def test_unit_mean_closed_form(self):
        rng = np.random.default_rng(8)
        a = random_coeffs(rng)
        mu = np.zeros(LATENT)
        mu[0] = 1.0
        for klw in (1.0, 0.25):
            assert elbo_loss(a, a, mu, np.zeros(LATENT), klw) == pytest.approx(
                0.5 * klw, abs=1e-12)

    def test_kl_matches_monte_carlo(self):
        rng = np.random.default_rng(9)
        mu = rng.normal(size=2)
        log_var = rng.normal(scale=0.5, size=2)
        sigma = np.exp(log_var / 2.0)
        draws = mu + sigma * rng.standard_normal((1_000_000, 2))
        # KL(q || p) = E_q[log q(z) - log p(z)]
        log_q = -0.5 * (((draws - mu) / sigma) ** 2 + np.log(2 * np.pi) + log_var)
        log_p = -0.5 * (draws ** 2 + np.log(2 * np.pi))
        mc = float(np.sum(np.mean(log_q - log_p, axis=0)))
        a = random_coeffs(rng)
        analytic = elbo_loss(a, a, mu, log_var, 1.0)
        assert analytic == pytest.approx(mc, rel=0.01)

    def test_kl_non_negative_zero_iff_standard(self):
        rng = np.random.default_rng(10)
        a = random_coeffs(rng)
        for _ in range(50):
            mu = rng.normal(size=LATENT)
            log_var = rng.normal(size=LATENT)
            assert elbo_loss(a, a, mu, log_var, 1.0) >= 0.0
        assert elbo_loss(a, a, np.zeros(LATENT), np.zeros(LATENT), 1.0) == 0.0
        assert elbo_loss(a, a, np.full(LATENT, 1e-3), np.zeros(LATENT), 1.0) > 0.0

    def test_elbo_gradient(self):
        rng = np.random.default_rng(11)
        params = small_params(rng)
        target = rng.normal(size=(1, F * COLS))
        noise = rng.normal(size=(1, LATENT))
        named = params.named_parameters()
        flat_w = params.arrays["enc0.w"].copy()

        def f(tape, w0):
            tensors = bind(tape, named, trainable=False)
            tensors["enc0.w"] = w0
            x = tape.constant(target)
            mu, log_var = _encode(tape, params, tensors, x)
            z = _reparameterize(tape, mu, log_var, noise)
            recon = _decode(tape, params, tensors, z)
            return _elbo(tape, x, recon, mu, log_var, 1.0)

        assert grad_check(f, flat_w, 1e-4) < 1e-4


def batch_elbo(params, rows, noise, kl_weight=0.5):
    """The ELBO of rows through the whole VAE on one tape, and its gradients."""
    tape = Tape()
    tensors = bind(tape, params.named_parameters(), trainable=True)
    x = tape.constant(rows)
    mu, log_var = _encode(tape, params, tensors, x)
    recon = _decode(tape, params, tensors, _reparameterize(tape, mu, log_var, noise))
    loss = _elbo(tape, x, recon, mu, log_var, kl_weight)
    tape.backward(loss)
    return loss.item(), {name: t.grad for name, t in tensors.items()}


def assert_close(actual, expected, rel=1e-10):
    """Equal to rel, relative to the largest magnitude of expected."""
    np.testing.assert_allclose(actual, expected, rtol=rel,
                               atol=rel * float(np.max(np.abs(expected))))


class TestBatchedRows:
    """A minibatch is one block of rows on one tape; it must equal the mean of
    one-row passes up to the order of floating-point sums."""

    def test_elbo_of_rows_is_mean_of_row_elbos(self):
        rng = np.random.default_rng(21)
        params = dataclasses.replace(small_params(rng),
                                     input_offset=rng.normal(size=(1, F * COLS)),
                                     input_scale=rng.uniform(0.5, 2.0, size=(1, F * COLS)))
        rows = rng.normal(size=(5, F * COLS))
        noise = rng.normal(size=(5, LATENT))
        loss, grads = batch_elbo(params, rows, noise)
        singles = [batch_elbo(params, rows[i:i + 1], noise[i:i + 1]) for i in range(5)]
        assert_close(loss, np.mean([value for value, _ in singles]))
        assert set(grads) == set(params.named_parameters())
        for name, grad in grads.items():
            assert_close(grad, np.mean([g[name] for _, g in singles], axis=0))

    def test_train_cag_matches_per_sample_reference(self):
        rng = np.random.default_rng(22)
        data = make_sequences(rng, 7)
        config = CagTrainConfig(epochs=2, batch_size=3, latent_dim=LATENT, hidden_dims=(10,),
                                n_coeffs=F, kl_weight=0.5, seed=3)
        ref_params, ref_history = per_sample_train_cag(data, config)
        result = train_cag(data, config)
        assert_close(result.loss_history, ref_history)
        for name, arr in ref_params.named_parameters().items():
            assert_close(result.params.named_parameters()[name], arr)
        assert np.array_equal(result.params.input_offset, ref_params.input_offset)
        assert np.array_equal(result.params.input_scale, ref_params.input_scale)

    def test_reconstruction_mpjpe_is_mean_over_sequences(self):
        rng = np.random.default_rng(23)
        data = make_sequences(rng, 5)
        params = train_cag(data, CagTrainConfig(epochs=2, batch_size=2, latent_dim=LATENT,
                                                hidden_dims=(10,), n_coeffs=F)).params
        one_by_one = np.mean([reconstruction_mpjpe(params, [seq]) for seq in data])
        assert_close(reconstruction_mpjpe(params, data), one_by_one)

    def test_reconstruction_mpjpe_rejects_another_length(self):
        rng = np.random.default_rng(24)
        params = small_params(rng)
        data = make_sequences(rng, 2) + make_sequences(rng, 1, length=LENGTH - 1)
        with pytest.raises(ShapeError, match="sequence of 7 frames does not match "
                                             "the model's 8"):
            reconstruction_mpjpe(params, data)


    def test_reconstruction_mpjpe_rejects_another_pose_width(self):
        rng = np.random.default_rng(26)
        params = small_params(rng)
        data = make_sequences(rng, 2) + make_sequences(rng, 1, cols=COLS + 3)
        with pytest.raises(ShapeError, match=f"pose width {COLS + 3} does not match "
                                             f"the model's {COLS}"):
            reconstruction_mpjpe(params, data)


def per_sample_train_cag(dataset, config):
    """train_cag with one encode/decode chain per sample, summed per mini-batch."""
    rng = np.random.default_rng(config.seed)
    n_frames, n_cols = dataset[0].data.shape
    params = init_vae(rng, coeff_rows=config.n_coeffs, coeff_cols=n_cols,
                      original_length=n_frames, latent_dim=config.latent_dim,
                      hidden_dims=config.hidden_dims)
    flats = np.stack([dct_encode(seq.data, config.n_coeffs).reshape(-1) for seq in dataset])
    scale = max(float(flats.std()), 1e-6) * config.normalization_margin
    params = dataclasses.replace(params, input_offset=flats.mean(axis=0, keepdims=True),
                                 input_scale=scale)
    named = params.named_parameters()
    state = AdamState.for_params(named)
    history = []
    for _ in range(config.epochs):
        order = rng.permutation(len(dataset))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            tape = Tape()
            tensors = bind(tape, named, trainable=True)
            total = None
            for idx in batch:
                x = tape.constant(flats[idx].reshape(1, -1))
                mu, log_var = _encode(tape, params, tensors, x)
                noise = rng.standard_normal(config.latent_dim)
                recon = _decode(tape, params, tensors, _reparameterize(tape, mu, log_var, noise))
                loss = _elbo(tape, x, recon, mu, log_var, config.kl_weight)
                total = loss if total is None else tape.add(total, loss)
            batch_loss = tape.scale(total, 1.0 / len(batch))
            tape.backward(batch_loss)
            adam_step(named, {name: tensors[name].grad for name in named}, state, config.lr)
            epoch_loss += batch_loss.item() * len(batch)
        history.append(epoch_loss / len(dataset))
    return params, history


def make_sequences(rng, n, length=LENGTH, cols=COLS):
    return [MotionSequence(data=rng.normal(scale=40.0, size=(length, cols)),
                           fps=10.0, label=f"a{i}") for i in range(n)]


class TestMaskedFuse:
    def layout(self):
        sk = Skeleton(parent=(0, 0), part_of=("upper", "lower"))
        return PartLayout.from_skeleton(sk)

    def test_all_ones_mask_returns_first(self):
        rng = np.random.default_rng(12)
        s_m, s_n = make_sequences(rng, 2)
        mask = BodyMask(m=np.ones(COLS))
        fused = masked_fuse(s_m, s_n, mask, F)
        assert np.array_equal(fused, dct_encode(s_m.data, F))

    def test_equal_inputs_any_mask(self):
        rng = np.random.default_rng(13)
        (s_m,) = make_sequences(rng, 1)
        mask = BodyMask.from_layout(self.layout())
        fused = masked_fuse(s_m, s_m, mask, F)
        assert np.array_equal(fused, dct_encode(s_m.data, F))

    def test_commutes_with_time_domain_masking(self):
        rng = np.random.default_rng(14)
        s_m, s_n = make_sequences(rng, 2)
        mask = BodyMask.from_layout(self.layout())
        fused = masked_fuse(s_m, s_n, mask, F)
        direct = dct_encode(mask.m * s_m.data + (1.0 - mask.m) * s_n.data, F)
        assert np.abs(fused - direct).max() < 1e-10

    def test_mask_requires_shared_joint_values(self):
        with pytest.raises(ValueError):
            BodyMask(m=np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0]))

    def test_mask_entries_binary(self):
        with pytest.raises(ValueError):
            BodyMask(m=np.full(6, 0.5))

    def test_callers_array_stays_writeable(self):
        m = np.zeros(6)
        mask = BodyMask(m=m)
        assert m.flags.writeable
        m[:] = 1.0
        assert not mask.m.any()
        assert not mask.m.flags.writeable


class TestSynthesis:
    def test_deterministic_at_zero_noise(self):
        rng = np.random.default_rng(15)
        params = small_params(rng)
        s_m, s_n = make_sequences(rng, 2)
        mask = BodyMask(m=np.array([1.0, 1, 1, 0, 0, 0]))
        first = synthesize_composite(params, s_m, s_n, mask, F, noise=np.zeros(LATENT))
        second = synthesize_composite(params, s_m, s_n, mask, F, noise=None)
        assert np.array_equal(first.data, second.data)
        assert first.label == "a0+a1"

    def test_output_shape_and_fps(self):
        rng = np.random.default_rng(16)
        params = small_params(rng)
        s_m, s_n = make_sequences(rng, 2)
        mask = BodyMask(m=np.array([0.0, 0, 0, 1, 1, 1]))
        out = synthesize_composite(params, s_m, s_n, mask, F)
        assert out.data.shape == (LENGTH, COLS)
        assert out.fps == s_m.fps

    def test_atomics_of_another_length_than_the_model_rejected(self):
        rng = np.random.default_rng(18)
        params = small_params(rng)
        s_m, s_n = make_sequences(rng, 2, length=LENGTH + 2)
        with pytest.raises(ShapeError, match="sequence of 10 frames does not match "
                                             "the model's 8"):
            synthesize_composite(params, s_m, s_n, BodyMask(m=np.ones(COLS)), F)

    def test_fps_mismatch_raises_before_the_model_runs(self, monkeypatch):
        rng = np.random.default_rng(17)
        params = small_params(rng)
        s_m, s_n = make_sequences(rng, 2)
        s_n = MotionSequence(data=s_n.data, fps=25.0, label=s_n.label)
        binds = []
        monkeypatch.setattr(vae, "bind", lambda *args, **kwargs: binds.append(args))
        with pytest.raises(ValueError, match="fps differ"):
            synthesize_composite(params, s_m, s_n, BodyMask(m=np.ones(COLS)), F)
        assert binds == []


class TestTrainCag:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("key", ["lr", "normalization_margin"])
    def test_non_positive_or_non_finite_rates_named(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be finite and > 0, got {value}"):
            CagTrainConfig(**{key: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0])
    def test_negative_or_non_finite_kl_weight_named(self, value):
        with pytest.raises(ConfigError, match=f"kl_weight must be finite and >= 0, got {value}"):
            CagTrainConfig(kl_weight=value)

    def test_zero_kl_weight_turns_the_term_off(self):
        assert CagTrainConfig(kl_weight=0.0).kl_weight == 0.0

    @pytest.mark.parametrize("value", [-1, -(2 ** 40)])
    @pytest.mark.parametrize("key,low", [("epochs", 0), ("batch_size", 1), ("latent_dim", 1),
                                         ("n_coeffs", 1), ("seed", 0)])
    def test_integer_key_below_its_bound_named(self, key, low, value):
        with pytest.raises(ConfigError, match=f"{key} must be >= {low}, got {value}"):
            CagTrainConfig(**{key: value})

    @pytest.mark.parametrize("value", [2.5, 1.0, np.nan])
    @pytest.mark.parametrize("key", ["epochs", "batch_size", "latent_dim", "n_coeffs", "seed"])
    def test_non_integral_key_named(self, key, value):
        with pytest.raises(ConfigError, match=re.escape(f"{key} must be an integer, "
                                                        f"got {value!r}")):
            CagTrainConfig(**{key: value})

    @pytest.mark.parametrize("n_coeffs", [0, -3])
    def test_coefficient_count_below_one_named(self, n_coeffs):
        with pytest.raises(ConfigError, match=f"n_coeffs must be >= 1, got {n_coeffs}"):
            CagTrainConfig(n_coeffs=n_coeffs)

    def test_more_coefficients_than_frames_names_n_coeffs(self):
        rng = np.random.default_rng(25)
        config = CagTrainConfig(epochs=1, latent_dim=LATENT, hidden_dims=(10,),
                                n_coeffs=LENGTH + 1)
        with pytest.raises(ConfigError, match=f"n_coeffs {LENGTH + 1} exceeds the "
                                              f"{LENGTH} frames of each sequence"):
            train_cag(make_sequences(rng, 3), config)

    def test_zero_epochs_returns_initial_params(self):
        rng = np.random.default_rng(17)
        data = make_sequences(rng, 6)
        config = CagTrainConfig(epochs=0, latent_dim=LATENT, hidden_dims=(10,),
                                n_coeffs=F, seed=0)
        result = train_cag(data, config)
        fresh = init_vae(np.random.default_rng(0), coeff_rows=F, coeff_cols=COLS,
                         original_length=LENGTH, latent_dim=LATENT, hidden_dims=(10,))
        for name, arr in result.params.named_parameters().items():
            assert np.array_equal(arr, fresh.named_parameters()[name])
        assert result.loss_history == []

    def test_loss_decreases_on_tiny_problem(self):
        rng = np.random.default_rng(18)
        data = make_sequences(rng, 8)
        config = CagTrainConfig(epochs=25, latent_dim=LATENT, hidden_dims=(32,),
                                n_coeffs=F, seed=1)
        result = train_cag(data, config)
        assert result.loss_history[-1] < result.loss_history[0]

    def test_paper_defaults_echo(self):
        config = CagTrainConfig()
        assert config.lr == 0.0005
        assert config.batch_size == 32
        assert config.epochs == 400

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_cag([], CagTrainConfig(epochs=1))

    def test_non_uniform_dataset_rejected(self):
        rng = np.random.default_rng(19)
        seqs = make_sequences(rng, 2) + make_sequences(rng, 1, length=LENGTH + 2)
        with pytest.raises(ShapeError):
            train_cag(seqs, CagTrainConfig(epochs=1))

    def test_mixed_frame_rates_rejected(self):
        rng = np.random.default_rng(27)
        seqs = make_sequences(rng, 3)
        seqs[2] = MotionSequence(data=seqs[2].data, fps=25.0, label="fast")
        with pytest.raises(ValueError, match=r"train sequence 2 \('fast'\) has fps 25.0, "
                                             "sequence 0 has 10.0"):
            train_cag(seqs, CagTrainConfig(epochs=1))


class TestTrainCagGolden:
    """Bytes of a seeded train_cag on default training sequences, pinned before
    the VAE and the predictor came to share one minibatch driver. They change
    if the rng draw order, the batching, the ELBO or the Adam step change."""

    def test_parameters_and_loss_history(self):
        train = build_dataset(default_manifest()).train[:40]
        config = CagTrainConfig(epochs=3, n_coeffs=25, hidden_dims=(32,), batch_size=7,
                                seed=4)
        result = train_cag(train, config)
        digest = hashlib.sha256(
            b"".join(arr.tobytes() for arr in result.params.named_parameters().values())
            + repr(result.loss_history).encode()).hexdigest()
        assert digest == "2930ea89ae56c1283d571a106c96643ecc6cc8d69bcc1b0c014b86081e8bba4d"
