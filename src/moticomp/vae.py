"""Composite-action synthesis: a VAE over DCT-coded motions plus masked fusion.

Training reconstructs atomic actions from their frequency-domain coefficients.
Synthesis fuses two atomic actions with a per-coordinate body mask in the
coefficient domain, pushes the fused coefficients through the trained
encoder/decoder, and restores a time-domain sequence with the inverse DCT.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .autodiff import Tape, Tensor, freeze
from .dct import dct_encode, idct_decode
from .errors import (ConfigError, ShapeError, require_at_least, require_positive_finite,
                     require_sizes)
from .layers import bind, init_linear, mlp
from .motion import MotionSequence, PartLayout
from .training import _check_dataset, _fit


@dataclass
class VaeParams:
    """Encoder/decoder MLP weights plus the fixed input normalization.

    The encoder maps a flattened F x (3J) coefficient matrix to mean and
    log-variance heads of width latent_dim each; the decoder maps a latent
    vector back to the flattened coefficient matrix. arrays holds their
    affine layers in order, enc{i}.w, enc{i}.b, then dec{i}.w, dec{i}.b.
    Inputs are shifted by input_offset and divided element-wise by
    input_scale before the first layer, and the decoder output is mapped
    back through the same affine transform. Both normalization arrays are
    fitted constants, not trained.
    """

    arrays: dict[str, np.ndarray]
    latent_dim: int
    coeff_rows: int
    coeff_cols: int
    original_length: int
    input_offset: np.ndarray | float = 0.0
    input_scale: np.ndarray | float = 1.0

    def __post_init__(self):
        row = (1, self.input_dim)  # a scalar normalization fills the whole row
        self.input_offset = freeze(np.broadcast_to(self.input_offset, row).copy(), "input_offset")
        self.input_scale = freeze(np.broadcast_to(self.input_scale, row).copy(), "input_scale")
        if not np.all(self.input_scale > 0):
            raise ConfigError("input_scale entries must be positive")

    @property
    def input_dim(self) -> int:
        return self.coeff_rows * self.coeff_cols

    def n_layers(self, prefix: str) -> int:
        """Number of affine layers named {prefix}{i}.w, {prefix}{i}.b."""
        return sum(name.startswith(prefix) and name.endswith(".w") for name in self.arrays)

    @property
    def hidden_dims(self) -> list[int]:
        return [self.arrays[f"enc{i}.w"].shape[1] for i in range(self.n_layers("enc") - 1)]

    def named_parameters(self) -> dict[str, np.ndarray]:
        return self.arrays


def init_vae(rng: np.random.Generator, coeff_rows: int, coeff_cols: int,
             original_length: int, latent_dim: int = 16,
             hidden_dims: tuple[int, ...] = (256, 256)) -> VaeParams:
    sizes = SimpleNamespace(original_length=original_length, coeff_rows=coeff_rows,
                            coeff_cols=coeff_cols, latent_dim=latent_dim)
    require_at_least(sizes, 1, *vars(sizes))
    if coeff_rows > original_length:
        raise ConfigError(f"config key 'coeff_rows' holds {coeff_rows}, expected "
                          f"1..original_length ({original_length})")
    require_sizes("hidden_dims", hidden_dims)
    d_in = coeff_rows * coeff_cols
    enc_dims = (d_in, *hidden_dims, 2 * latent_dim)
    dec_dims = (latent_dim, *hidden_dims, d_in)
    arrays = {}
    for prefix, dims in (("enc", enc_dims), ("dec", dec_dims)):
        for i, (a, b) in enumerate(zip(dims, dims[1:])):
            arrays[f"{prefix}{i}.w"], arrays[f"{prefix}{i}.b"] = init_linear(rng, a, b)
    return VaeParams(arrays=arrays, latent_dim=latent_dim,
                     coeff_rows=coeff_rows, coeff_cols=coeff_cols,
                     original_length=original_length)


@dataclass(frozen=True)
class BodyMask:
    """Per-coordinate 0/1 selector; 1 takes from the first action of a fusion."""

    m: np.ndarray

    def __post_init__(self):
        m = np.array(self.m, dtype=np.float64).reshape(-1)  # ours to freeze
        if m.size % 3 != 0 or m.size == 0:
            raise ShapeError(f"mask length {m.size} is not a positive multiple of 3")
        if not np.all((m == 0.0) | (m == 1.0)):
            raise ValueError("mask entries must be 0 or 1")
        triples = m.reshape(-1, 3)
        if not np.all(triples == triples[:, :1]):
            raise ValueError("the three coordinates of a joint must share one mask value")
        object.__setattr__(self, "m", freeze(m, "mask"))

    @classmethod
    def from_layout(cls, layout: PartLayout) -> "BodyMask":
        m = np.zeros(layout.size)
        m[list(layout.upper_dims)] = 1.0
        return cls(m=m)

    @property
    def complement(self) -> np.ndarray:
        return 1.0 - self.m


# ----------------------------------------------------------------------
# tape-level forward passes, shared by synthesis and training: one row per sample

def _normalize(tape: Tape, params: VaeParams, x: Tensor) -> Tensor:
    shifted = tape.add(x, tape.constant(-params.input_offset))
    return tape.hadamard(shifted, tape.constant(1.0 / params.input_scale))


def _denormalize(tape: Tape, params: VaeParams, x: Tensor) -> Tensor:
    return tape.add(tape.hadamard(x, tape.constant(params.input_scale)),
                    tape.constant(params.input_offset))


def _encode(tape: Tape, params: VaeParams, tensors: dict[str, Tensor],
            x: Tensor) -> tuple[Tensor, Tensor]:
    h = mlp(tape, _normalize(tape, params, x), tensors, "enc", params.n_layers("enc"))
    mean = np.arange(params.latent_dim)
    return tape.gather([h], mean, axis=-1), tape.gather([h], mean + params.latent_dim, axis=-1)


def _decode(tape: Tape, params: VaeParams, tensors: dict[str, Tensor],
            z: Tensor) -> Tensor:
    return _denormalize(tape, params, mlp(tape, z, tensors, "dec", params.n_layers("dec")))


def _reparameterize(tape: Tape, mu: Tensor, log_var: Tensor, noise: np.ndarray) -> Tensor:
    sigma = tape.exp(tape.scale(log_var, 0.5))
    return tape.add(mu, tape.hadamard(sigma, tape.constant(noise.reshape(mu.shape))))


def _elbo(tape: Tape, target_flat: Tensor, recon_flat: Tensor, mu: Tensor,
          log_var: Tensor, kl_weight: float) -> Tensor:
    """Mean over rows of each row's reconstruction MSE plus kl_weight x its KL."""
    diff = tape.add(recon_flat, tape.scale(target_flat, -1.0))
    recon = tape.scale(tape.sum_sq(diff), 1.0 / diff.size)
    ones = tape.constant(np.ones((1, mu.shape[1])))
    inside = tape.add(tape.add(ones, log_var),
                      tape.scale(tape.add(tape.hadamard(mu, mu), tape.exp(log_var)), -1.0))
    kl = tape.scale(tape.mean(inside), -0.5 * inside.shape[1])
    return tape.add(recon, tape.scale(kl, kl_weight))


# ----------------------------------------------------------------------
# public operations

def _check_sequence(params: VaeParams, shape: tuple[int, int]) -> None:
    """Raise ShapeError unless a (frames, 3J) sequence shape is the model's."""
    if shape[0] != params.original_length:
        raise ShapeError(f"sequence of {shape[0]} frames does not match "
                         f"the model's {params.original_length}")
    if shape[1] != params.coeff_cols:
        raise ShapeError(f"pose width {shape[1]} does not match the model's {params.coeff_cols}")


def _reconstruct(params: VaeParams, coeffs: np.ndarray, n_frames: int,
                 noise: np.ndarray) -> np.ndarray:
    """Encode each (F, 3J) matrix of coeffs (B, F, 3J) as one row, draw z = mu +
    exp(log_var / 2) * noise, decode, and invert the DCT to (B, n_frames, 3J)."""
    if coeffs.shape[1] != params.coeff_rows:
        raise ShapeError(f"{coeffs.shape[1]} DCT rows do not match the model's "
                         f"{params.coeff_rows}")
    tape = Tape()
    tensors = bind(tape, params.named_parameters(), trainable=False)
    x = tape.constant(coeffs.reshape(len(coeffs), -1))
    mu, log_var = _encode(tape, params, tensors, x)
    recon = _decode(tape, params, tensors, _reparameterize(tape, mu, log_var, noise))
    return idct_decode(recon.values.reshape(coeffs.shape), n_frames)


def masked_fuse(s_m: MotionSequence, s_n: MotionSequence, mask: BodyMask,
                n_coeffs: int) -> np.ndarray:
    """Combine two actions' (n_coeffs, 3J) DCTs: mask picks columns from the first."""
    if s_m.data.shape != s_n.data.shape:
        raise ShapeError(f"sequence shapes differ: {s_m.data.shape} vs {s_n.data.shape}")
    if mask.m.size != s_m.data.shape[1]:
        raise ShapeError(f"mask width {mask.m.size} != pose width {s_m.data.shape[1]}")
    a_m, a_n = dct_encode(np.stack([s_m.data, s_n.data]), n_coeffs)
    return mask.m * a_m + mask.complement * a_n


def synthesize_composite(params: VaeParams, s_m: MotionSequence, s_n: MotionSequence,
                         mask: BodyMask, n_coeffs: int,
                         noise: np.ndarray | None = None) -> MotionSequence:
    """Mint a composite action from two atomics through the trained model.

    noise=None uses the latent mean (deterministic); otherwise the provided
    standard-normal vector drives the reparameterized draw.
    """
    if s_m.fps != s_n.fps:
        raise ValueError(f"fps differ: {s_m.fps} vs {s_n.fps}")
    fused = masked_fuse(s_m, s_n, mask, n_coeffs)
    _check_sequence(params, s_m.data.shape)
    noise = np.zeros(params.latent_dim) if noise is None else np.asarray(noise, dtype=np.float64)
    if noise.size != params.latent_dim:
        raise ShapeError(f"noise size {noise.size} != latent_dim {params.latent_dim}")
    (data,) = _reconstruct(params, fused[None], s_m.frames, noise.reshape(1, -1))
    return MotionSequence(data=data, fps=s_m.fps, label=f"{s_m.label}+{s_n.label}")


# ----------------------------------------------------------------------
# training

@dataclass(frozen=True)
class CagTrainConfig:
    epochs: int = 400
    lr: float = 0.0005
    batch_size: int = 32
    kl_weight: float = 1.0
    latent_dim: int = 16
    hidden_dims: tuple[int, ...] = (256, 256)
    n_coeffs: int | None = None  # None keeps all N+T coefficients
    # input std multiplier; larger values keep the tanh stack near its linear
    # regime, which is what lets masked fusions of unseen action pairs decode
    # as well as the atomic actions the model was fitted on
    normalization_margin: float = 3.0
    seed: int = 0

    def __post_init__(self):
        require_at_least(self, 1, "batch_size", "latent_dim", "n_coeffs")
        require_sizes("hidden_dims", self.hidden_dims)
        require_at_least(self, 0, "epochs")
        require_at_least(self, 0, "seed", high=None)
        require_positive_finite(self, "lr", "normalization_margin")
        require_positive_finite(self, "kl_weight", zero_ok=True)


@dataclass
class CagTrainResult:
    params: VaeParams
    loss_history: list[float]


def train_cag(dataset: list[MotionSequence], config: CagTrainConfig) -> CagTrainResult:
    """Fit the VAE to reconstruct the given atomic actions.

    Runs config.epochs of Adam over mini-batches of the per-sample loss, one
    tape per mini-batch; returns the fitted parameters and per-epoch mean loss.
    """
    if not dataset:
        raise ValueError("training dataset is empty")
    n_frames, n_cols = dataset[0].data.shape
    _check_dataset(dataset, (n_frames, n_cols), "train")
    n_coeffs = config.n_coeffs if config.n_coeffs is not None else n_frames
    if n_coeffs > n_frames:
        raise ConfigError(f"n_coeffs {n_coeffs} exceeds the {n_frames} frames of each sequence")

    rng = np.random.default_rng(config.seed)
    params = init_vae(rng, coeff_rows=n_coeffs, coeff_cols=n_cols,
                      original_length=n_frames, latent_dim=config.latent_dim,
                      hidden_dims=config.hidden_dims)

    flats = dct_encode(np.stack([s.data for s in dataset]), n_coeffs).reshape(len(dataset), -1)
    scale = max(float(flats.std()), 1e-6) * config.normalization_margin
    params = replace(params, input_offset=flats.mean(axis=0, keepdims=True),
                     input_scale=np.full((1, flats.shape[1]), scale))
    named = params.named_parameters()

    def objective(tape: Tape, epoch: int, batch: np.ndarray):
        tensors = bind(tape, named, trainable=True)
        x = tape.constant(flats[batch])
        mu, log_var = _encode(tape, params, tensors, x)
        noise = rng.standard_normal((len(batch), config.latent_dim))
        recon = _decode(tape, params, tensors, _reparameterize(tape, mu, log_var, noise))
        loss = _elbo(tape, x, recon, mu, log_var, config.kl_weight)
        return tensors, loss, loss, None

    history = [loss for loss, _, _ in _fit(named, len(dataset), config.epochs,
                                           config.batch_size, config.lr, 1.0, rng, objective)]
    return CagTrainResult(params=params, loss_history=history)


def reconstruction_mpjpe(params: VaeParams, dataset: list[MotionSequence]) -> float:
    """Mean per-joint Euclidean error of deterministic reconstructions, in mm."""
    if not dataset:
        raise ValueError("dataset is empty")
    for seq in dataset:  # before they are stacked
        _check_sequence(params, seq.data.shape)
    data = np.stack([seq.data for seq in dataset])
    recons = _reconstruct(params, dct_encode(data, params.coeff_rows), params.original_length,
                          np.zeros((len(dataset), params.latent_dim)))
    errors = [np.linalg.norm((recon - seq.data).reshape(seq.frames, -1, 3), axis=2).mean()
              for recon, seq in zip(recons, dataset)]
    return float(np.mean(errors))
