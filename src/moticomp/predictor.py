"""Three-branch graph-convolutional motion predictor with early exits.

Each branch models a set of coordinate trajectories (upper part, lower part,
or the whole skeleton) as graph nodes carrying DCT-coefficient features.
A branch is a linear input encoder, a stack of blocks of graph-conv layers
tanh(A @ H @ W) with trainable adjacency A, multi-head self-attention after
every few layers, and a linear output decoder shared by all exits. Its
input is a fixed front end computed in numpy: the DCT of the last-frame-padded
history plus the DCT of its newest sub_len + output_frames frames. The
network's correction is the mean of the whole branch's output and the upper
and lower branches' outputs merged into one skeleton; the final prediction
adds its inverse DCT to the last-frame-padded observation, so an untrained
model with zeroed decoders predicts zero velocity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

import numpy as np

from .autodiff import Tape, Tensor, shared_constant
from .dct import dct_encode, idct_basis
from .errors import ConfigError, ShapeError, require_at_least, require_positive_finite
from .layers import bind, init_linear, linear
from .motion import MotionSequence, PartLayout

BRANCH_KINDS = ("upper", "lower", "whole")
ATTENTION_WEIGHTS = ("wq", "wk", "wv", "wo")  # in the order a gc_block attention step takes them


@dataclass(frozen=True)
class PredictorConfig:
    input_frames: int = 20
    output_frames: int = 10
    n_coeffs: int | None = None  # None: sub_len + T
    feature_width: int = 32
    heads: int = 2
    n_blocks: int = 3
    layers_per_block: int = 8
    attention_every: int = 4
    policy_hidden: int = 16
    coeff_scale: float = 100.0
    adjacency_noise: float = 0.05
    zero_output_decoders: bool = True

    def __post_init__(self):
        require_at_least(self, 2, "input_frames")
        require_at_least(self, 1, "output_frames", "n_coeffs", "heads", "feature_width",
                         "n_blocks", "layers_per_block", "attention_every", "policy_hidden")
        require_positive_finite(self, "adjacency_noise", zero_ok=True)
        if self.feature_width % self.heads != 0:
            raise ConfigError(
                f"feature width {self.feature_width} not divisible by {self.heads} heads"
            )
        require_positive_finite(self, "coeff_scale")
        n, t = self.input_frames, self.output_frames
        if n < self.sub_len + t:
            raise ConfigError(
                f"input span {n} too short for sub-sequences of {self.sub_len} "
                f"frames extended by {t} (raise input_frames or lower output_frames)"
            )
        if not 1 <= self.resolved_n_coeffs <= self.sub_len + t:
            raise ConfigError(f"n_coeffs {self.resolved_n_coeffs} out of range")

    @property
    def sub_len(self) -> int:
        return min(self.input_frames // 2, 10)

    @property
    def resolved_n_coeffs(self) -> int:
        return self.sub_len + self.output_frames if self.n_coeffs is None else self.n_coeffs

    @property
    def attention_positions(self) -> tuple[int, ...]:
        return tuple(p for p in range(self.attention_every, self.layers_per_block + 1,
                                      self.attention_every))


def branch_node_counts(layout: PartLayout) -> dict[str, int]:
    """Graph nodes of each branch, one per coordinate of its body part."""
    return dict(zip(BRANCH_KINDS, (layout.upper_size, layout.lower_size, layout.size)))


@dataclass
class PredictorParams:
    """All trainable arrays of the three-branch predictor, by name.

    In insertion order, which checkpoints keep, for each kind in BRANCH_KINDS,
    block k, graph-conv layer i and attention module a (which runs after
    layer config.attention_positions[a] of its block); the front end has none:

        {kind}.enc.w, {kind}.enc.b            input encoder
        {kind}.blk{k}.gc{i}.adj, .wgt         adjacency (nodes, nodes), weight (F, F)
        {kind}.blk{k}.attn{a}.wq/.wk/.wv/.wo  self-attention projections (F, F)
        {kind}.dec.w, {kind}.dec.b            output decoder shared by all exits
    """

    arrays: dict[str, np.ndarray]
    layout: PartLayout
    config: PredictorConfig

    def named_parameters(self) -> dict[str, np.ndarray]:
        return self.arrays


def _init_branch(rng: np.random.Generator, kind: str, node_count: int,
                 config: PredictorConfig) -> dict[str, np.ndarray]:
    f = config.feature_width
    wb = 1.0 / np.sqrt(f)
    blocks = {}
    for k in range(config.n_blocks):
        p = f"{kind}.blk{k}"
        for i in range(config.layers_per_block):
            blocks[f"{p}.gc{i}.adj"] = np.eye(node_count) + rng.uniform(
                -config.adjacency_noise, config.adjacency_noise,
                size=(node_count, node_count))
            blocks[f"{p}.gc{i}.wgt"] = rng.uniform(-wb, wb, size=(f, f))
        for a in range(len(config.attention_positions)):
            for m in ATTENTION_WEIGHTS:
                blocks[f"{p}.attn{a}.{m}"] = rng.uniform(-wb, wb, size=(f, f))
    # the encoder and decoder are drawn after the blocks but named around them
    enc_w, enc_b = init_linear(rng, config.resolved_n_coeffs, f)
    dec_w, dec_b = init_linear(rng, f, config.resolved_n_coeffs,
                               zero=config.zero_output_decoders)
    return {f"{kind}.enc.w": enc_w, f"{kind}.enc.b": enc_b, **blocks,
            f"{kind}.dec.w": dec_w, f"{kind}.dec.b": dec_b}


def init_predictor(rng: np.random.Generator, layout: PartLayout,
                   config: PredictorConfig) -> PredictorParams:
    # the draws of the two (sub_len * E, 16) projections that a learned front
    # end once made first: skipping them would change every seeded model, and
    # so every digest and benchmark figure pinned on one
    rng.random(2 * config.sub_len * layout.size * 16)
    arrays = {}
    for kind, node_count in branch_node_counts(layout).items():
        arrays.update(_init_branch(rng, kind, node_count, config))
    return PredictorParams(arrays=arrays, layout=layout, config=config)


# ----------------------------------------------------------------------
# tape-level forward passes

@lru_cache(maxsize=64)
def _block_step_getters(config: PredictorConfig, prefix: str) -> tuple[itemgetter, ...]:
    """For each step of the block named prefix, a getter of its parameters'
    tuple from a dict by name: its graph-conv layers, each followed by an
    attention when its position is in config.attention_positions."""
    positions = config.attention_positions
    steps = []
    for i in range(config.layers_per_block):
        steps.append(itemgetter(f"{prefix}.gc{i}.adj", f"{prefix}.gc{i}.wgt"))
        if i + 1 in positions:
            attn = f"{prefix}.attn{positions.index(i + 1)}"
            steps.append(itemgetter(*(f"{attn}.{m}" for m in ATTENTION_WEIGHTS)))
    return tuple(steps)


def _block_forward(tape: Tape, config: PredictorConfig, tensors: dict[str, Tensor],
                   prefix: str, h: Tensor) -> Tensor:
    """The block named prefix as one node."""
    steps = [step(tensors) for step in _block_step_getters(config, prefix)]
    return tape.gc_block(h, steps, config.heads)


def _branch_encode(tape: Tape, tensors: dict[str, Tensor], prefix: str,
                   x: Tensor) -> Tensor:
    return linear(tape, x, tensors[f"{prefix}.enc.w"], tensors[f"{prefix}.enc.b"])


def _exit_array(exits, n_blocks: int) -> np.ndarray | list[tuple[int, int, int]]:
    """Exits taken as a (B, 3) integer array, from one (upper, lower, whole)
    triple or a (B, 3) array of them, each an integer in 1..n_blocks, not a
    bool. A tuple or list of three such ints is checked in Python and comes
    back as a one-triple list."""
    if (type(exits) in (tuple, list) and len(exits) == len(BRANCH_KINDS)
            and all(type(d) is int and 1 <= d <= n_blocks for d in exits)):
        return [tuple(exits)]
    arr = np.atleast_2d(np.asarray(exits))
    if arr.ndim != 2 or arr.shape[1] != len(BRANCH_KINDS) or not arr.size:
        raise ValueError(f"need one exit per branch, or a (B, {len(BRANCH_KINDS)}) "
                         f"array of them; got shape {arr.shape}")
    if arr.dtype.kind not in "iu":  # a signed or unsigned integer type
        raise ValueError(f"exit indices must be integers, got {arr.dtype} {arr.tolist()}")
    if not isinstance(exits, np.ndarray) and any(  # asarray reads a bool among ints as an int
            isinstance(d, (bool, np.bool_)) for d in np.ravel(np.asarray(exits, object))):
        raise ValueError(f"exit indices must be integers, got a bool in {exits}")
    if arr.min() < 1 or arr.max() > n_blocks:
        bad = arr[(arr < 1) | (arr > n_blocks)]
        raise ValueError(f"exit index {bad[0]} outside 1..{n_blocks}")
    return arr


def _branch_tail(tape: Tape, kind: str, config: PredictorConfig,
                 tensors: dict[str, Tensor], h: Tensor, exits) -> Tensor:
    """Decode each sample of encoded features h (B, nodes, F) after its first
    exits[b] blocks; exits may also be one index for the whole batch.

    Block k runs only on the samples whose exit lies deeper than k. The exits
    are counted once: after a block that no sample leaves nothing more is
    recorded, and a block that every remaining sample leaves is decoded whole.
    Only a block that some but not all of them leave gathers both groups. So a
    batch whose samples share one exit, one sample, or one (nodes, F) matrix
    records only the blocks up to its exit and the decoder; one index, as
    predict gives, runs them with no index arithmetic.
    """
    decoder = tensors[f"{kind}.dec.w"], tensors[f"{kind}.dec.b"]
    if isinstance(exits, (int, np.integer)):
        for k in range(exits):
            h = _block_forward(tape, config, tensors, f"{kind}.blk{k}", h)
        return linear(tape, h, *decoder)
    exits = np.full(h.shape[:-2], exits).reshape(-1)
    leaving = np.bincount(exits).tolist()  # how many samples leave after each block
    rows = np.arange(exits.size)  # the samples h holds, in batch order
    outputs, output_rows = [], []
    for k in range(1, len(leaving)):
        h = _block_forward(tape, config, tensors, f"{kind}.blk{k - 1}", h)
        if not leaving[k]:
            continue
        y, out_rows = h, rows
        if leaving[k] < rows.size:
            left = exits[rows] == k
            y, out_rows = tape.gather([h], np.flatnonzero(left)), rows[left]
            h, rows = tape.gather([h], np.flatnonzero(~left)), rows[~left]
        outputs.append(linear(tape, y, *decoder))
        output_rows.append(out_rows)
    if len(outputs) == 1:
        return outputs[0]
    return tape.gather(outputs, np.argsort(np.concatenate(output_rows)))


def pad_last_frame(history: np.ndarray, out_frames: int) -> np.ndarray:
    """Extend a (N, E) history, or each of a batch (B, N, E), by repeating its
    last frame out_frames times."""
    return np.concatenate([history, np.repeat(history[..., -1:, :], out_frames, axis=-2)],
                          axis=-2)


def _prepare_branch_inputs(tape: Tape, params: PredictorParams,
                           history: np.ndarray) -> dict[str, Tensor]:
    """The front end of a batch of histories (B, N, E), node-major, and its
    upper and lower rows, each one constant (B, nodes, F) that records no
    node: the DCT coefficients of each padded history plus those of its
    newest sub_len + output_frames frames."""
    cfg = params.config
    if history.ndim != 3 or history.shape[1:] != (cfg.input_frames, params.layout.size):
        raise ShapeError(
            f"history batch shape {history.shape} != "
            f"(B, {cfg.input_frames}, {params.layout.size})"
        )
    h, n_coeffs = history / cfg.coeff_scale, cfg.resolved_n_coeffs
    whole = np.swapaxes(dct_encode(pad_last_frame(h, cfg.output_frames), n_coeffs)
                        + dct_encode(h[:, -(cfg.sub_len + cfg.output_frames):], n_coeffs),
                        -1, -2)
    upper, lower, _ = _part_indices(params.layout)
    return {"upper": tape.constant(whole[:, upper]), "lower": tape.constant(whole[:, lower]),
            "whole": tape.constant(whole)}


@lru_cache(maxsize=16)
def _part_indices(layout: PartLayout) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The upper and lower dims of layout as index arrays, and the order that
    puts the upper rows followed by the lower ones back in skeleton order."""
    upper, lower = (np.array(dims, dtype=np.intp) for dims in
                    (layout.upper_dims, layout.lower_dims))
    merge = np.argsort(np.concatenate([upper, lower]))
    for index in (upper, lower, merge):
        index.flags.writeable = False
    return upper, lower, merge


def _assemble_prediction(tape: Tape, params: PredictorParams,
                         outputs: dict[str, Tensor], history: np.ndarray) -> Tensor:
    """Merge part corrections, take their mean with the whole branch's, decode,
    add residual; one (N+T, E) sequence per history of the batch."""
    cfg = params.config
    parts = tape.gather([outputs["upper"], outputs["lower"]],
                        _part_indices(params.layout)[2], axis=-2)
    blend = tape.scale(tape.add(outputs["whole"], parts), 0.5)
    total = cfg.input_frames + cfg.output_frames
    correction = tape.matmul(shared_constant(idct_basis(total, cfg.resolved_n_coeffs)),
                             tape.transpose(blend))
    padded = tape.constant(pad_last_frame(history, cfg.output_frames))
    return tape.add(padded, tape.scale(correction, cfg.coeff_scale))


def _forward_core(tape: Tape, params: PredictorParams, tensors: dict[str, Tensor],
                  history: np.ndarray, exits: tuple[int, int, int]) -> Tensor:
    """Fixed-exit prediction of a batch of histories (B, N, E) on an existing
    tape, at one checked exit per branch; returns the (B, N+T, E) sequences."""
    inputs = _prepare_branch_inputs(tape, params, history)
    outputs = {}
    for kind, d in zip(BRANCH_KINDS, exits):
        encoded = _branch_encode(tape, tensors, kind, inputs[kind])
        outputs[kind] = _branch_tail(tape, kind, params.config, tensors, encoded, d)
    return _assemble_prediction(tape, params, outputs, history)


def predict(params: PredictorParams, history: MotionSequence,
            exits: tuple[int, int, int]) -> MotionSequence:
    """Forecast: returns the full reconstructed N+T sequence.

    The last output_frames rows are the forecast; the prefix reconstructs the
    observation. History must be root-centered and exactly input_frames long.
    """
    exits = _exit_array(exits, params.config.n_blocks)
    if len(exits) != 1:
        raise ValueError(f"predict takes one exit triple, got {len(exits)}")
    tape = Tape()
    tensors = bind(tape, params.named_parameters(), trainable=False)
    out = _forward_core(tape, params, tensors, history.data[None], exits[0])
    return MotionSequence(data=out.values[0], fps=history.fps, label=history.label)
