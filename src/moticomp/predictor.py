"""Three-branch graph-convolutional motion predictor with early exits.

Each branch models a set of coordinate trajectories (upper part, lower part,
or the whole skeleton) as graph nodes carrying DCT-coefficient features.
A branch is a linear input encoder, a stack of blocks of graph-conv layers
tanh(A @ H @ W) with trainable adjacency A, multi-head self-attention after
every few layers, and a linear output decoder shared by all exits. An
attention front end over historical sub-sequences enriches the input, and
the final prediction adds the network's decoded correction to the
last-frame-padded observation, so an untrained model with zeroed decoders
predicts zero velocity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Tensor
from .dct import dct_encode, idct_basis
from .errors import ConfigError, ShapeError
from .layers import LinearParams, bind, init_linear, linear, sigmoid
from .motion import MotionSequence, PartLayout

BRANCH_KINDS = ("upper", "lower", "whole")


@dataclass
class AttentionParams:
    """Projection matrices of one multi-head self-attention module."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    heads: int

    def __post_init__(self):
        f = self.wq.shape[0]
        for name in ("wq", "wk", "wv", "wo"):
            if getattr(self, name).shape != (f, f):
                raise ShapeError("attention projections must be square and equal-sized")
        if self.heads < 1 or f % self.heads != 0:
            raise ConfigError(f"feature width {f} not divisible by {self.heads} heads")


@dataclass
class GcLayer:
    """One graph-conv layer: trainable adjacency (n, n) and weight (F, F_out)."""

    adjacency: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        if self.adjacency.ndim != 2 or self.adjacency.shape[0] != self.adjacency.shape[1]:
            raise ShapeError(f"adjacency must be square, got {self.adjacency.shape}")


@dataclass
class GcBlock:
    """A fixed stack of graph-conv layers with attention inserted between them.

    attention_after lists 1-based layer positions; attention[i] runs after
    layer attention_after[i].
    """

    layers: list[GcLayer]
    attention: list[AttentionParams]
    attention_after: tuple[int, ...]

    def __post_init__(self):
        if len(self.attention) != len(self.attention_after):
            raise ConfigError("one attention module required per insertion point")
        for pos in self.attention_after:
            if not 1 <= pos <= len(self.layers):
                raise ConfigError(f"attention position {pos} outside 1..{len(self.layers)}")


@dataclass
class Branch:
    kind: str
    node_count: int
    input_encoder: LinearParams
    blocks: list[GcBlock]
    output_decoder: LinearParams

    def __post_init__(self):
        if self.kind not in BRANCH_KINDS:
            raise ConfigError(f"unknown branch kind {self.kind!r}")
        for block in self.blocks:
            for layer in block.layers:
                if layer.adjacency.shape[0] != self.node_count:
                    raise ShapeError("adjacency size does not match branch node count")


@dataclass
class MotionAttentionParams:
    """Query/key projections over flattened history sub-sequences."""

    wq: np.ndarray
    wk: np.ndarray

    def __post_init__(self):
        if self.wq.shape != self.wk.shape:
            raise ShapeError("query and key projections must share a shape")


def default_sub_len(input_frames: int) -> int:
    return min(input_frames // 2, 10)


@dataclass(frozen=True)
class PredictorConfig:
    input_frames: int = 20
    output_frames: int = 10
    n_coeffs: int | None = None  # None: min(sub_len + T, N + T)
    feature_width: int = 32
    heads: int = 2
    n_blocks: int = 3
    layers_per_block: int = 8
    attention_every: int = 4
    policy_hidden: int = 16
    query_dim: int = 16
    coeff_scale: float = 100.0
    adjacency_noise: float = 0.05
    zero_output_decoders: bool = True

    def __post_init__(self):
        if self.input_frames < 2 or self.output_frames < 1:
            raise ConfigError("need >= 2 input frames and >= 1 output frame")
        if self.feature_width % self.heads != 0:
            raise ConfigError(
                f"feature width {self.feature_width} not divisible by {self.heads} heads"
            )
        if self.n_blocks < 1 or self.layers_per_block < 1 or self.attention_every < 1:
            raise ConfigError("block structure sizes must be positive")
        if self.coeff_scale <= 0:
            raise ConfigError("coeff_scale must be positive")
        n, t = self.input_frames, self.output_frames
        if n < 2 * self.sub_len or n < self.sub_len + t:
            raise ConfigError(
                f"input span {n} too short for sub-sequences of {self.sub_len} "
                f"frames extended by {t}"
            )
        if not 1 <= self.resolved_n_coeffs <= min(self.sub_len + t, n + t):
            raise ConfigError(f"n_coeffs {self.resolved_n_coeffs} out of range")

    @property
    def sub_len(self) -> int:
        return default_sub_len(self.input_frames)

    @property
    def resolved_n_coeffs(self) -> int:
        if self.n_coeffs is not None:
            return self.n_coeffs
        return min(self.sub_len + self.output_frames,
                   self.input_frames + self.output_frames)

    @property
    def attention_positions(self) -> tuple[int, ...]:
        return tuple(p for p in range(self.attention_every, self.layers_per_block + 1,
                                      self.attention_every))


def paper_scale_config(**overrides) -> PredictorConfig:
    """The full-scale preset: 128-wide features, otherwise the defaults."""
    return PredictorConfig(feature_width=128, **overrides)


@dataclass
class PredictorParams:
    """All trainable tensors of the three-branch predictor.

    branches are ordered (upper, lower, whole); fusion_raw is the scalar
    behind the sigmoid-constrained blend of part-assembled and whole-branch
    outputs.
    """

    branches: list[Branch]
    motion_attention: MotionAttentionParams
    fusion_raw: np.ndarray
    layout: PartLayout
    config: PredictorConfig

    def __post_init__(self):
        kinds = tuple(b.kind for b in self.branches)
        if kinds != BRANCH_KINDS:
            raise ConfigError(f"branches must be ordered {BRANCH_KINDS}, got {kinds}")
        up, lo, wh = (b.node_count for b in self.branches)
        if up + lo != wh:
            raise ShapeError(f"part node counts {up}+{lo} != whole {wh}")
        if (up, lo) != (self.layout.upper_size, self.layout.lower_size):
            raise ShapeError("branch node counts do not match the part layout")

    @property
    def fusion_weight(self) -> float:
        return float(1.0 / (1.0 + np.exp(-self.fusion_raw.reshape(()))))

    def named_parameters(self) -> dict[str, np.ndarray]:
        out = {"mattn.wq": self.motion_attention.wq,
               "mattn.wk": self.motion_attention.wk}
        for branch in self.branches:
            p = branch.kind
            out[f"{p}.enc.w"] = branch.input_encoder.w
            out[f"{p}.enc.b"] = branch.input_encoder.b
            for k, block in enumerate(branch.blocks):
                for i, layer in enumerate(block.layers):
                    out[f"{p}.blk{k}.gc{i}.adj"] = layer.adjacency
                    out[f"{p}.blk{k}.gc{i}.wgt"] = layer.weight
                for a, attn in enumerate(block.attention):
                    out[f"{p}.blk{k}.attn{a}.wq"] = attn.wq
                    out[f"{p}.blk{k}.attn{a}.wk"] = attn.wk
                    out[f"{p}.blk{k}.attn{a}.wv"] = attn.wv
                    out[f"{p}.blk{k}.attn{a}.wo"] = attn.wo
            out[f"{p}.dec.w"] = branch.output_decoder.w
            out[f"{p}.dec.b"] = branch.output_decoder.b
        out["fusion.raw"] = self.fusion_raw
        return out


def _init_attention(rng: np.random.Generator, width: int, heads: int) -> AttentionParams:
    bound = 1.0 / np.sqrt(width)
    def mat():
        return rng.uniform(-bound, bound, size=(width, width))
    return AttentionParams(wq=mat(), wk=mat(), wv=mat(), wo=mat(), heads=heads)


def _init_branch(rng: np.random.Generator, kind: str, node_count: int,
                 config: PredictorConfig) -> Branch:
    f = config.feature_width
    wb = 1.0 / np.sqrt(f)
    blocks = []
    for _ in range(config.n_blocks):
        layers = []
        for _ in range(config.layers_per_block):
            adj = np.eye(node_count) + rng.uniform(
                -config.adjacency_noise, config.adjacency_noise,
                size=(node_count, node_count))
            layers.append(GcLayer(adjacency=adj,
                                  weight=rng.uniform(-wb, wb, size=(f, f))))
        attention = [_init_attention(rng, f, config.heads)
                     for _ in config.attention_positions]
        blocks.append(GcBlock(layers=layers, attention=attention,
                              attention_after=config.attention_positions))
    return Branch(
        kind=kind,
        node_count=node_count,
        input_encoder=init_linear(rng, config.resolved_n_coeffs, f),
        blocks=blocks,
        output_decoder=init_linear(rng, f, config.resolved_n_coeffs,
                                   zero=config.zero_output_decoders),
    )


def init_predictor(rng: np.random.Generator, layout: PartLayout,
                   config: PredictorConfig) -> PredictorParams:
    qdim = config.query_dim
    in_dim = config.sub_len * layout.size
    qb = 1.0 / np.sqrt(in_dim)
    mattn = MotionAttentionParams(
        wq=rng.uniform(-qb, qb, size=(in_dim, qdim)),
        wk=rng.uniform(-qb, qb, size=(in_dim, qdim)),
    )
    branches = [
        _init_branch(rng, "upper", layout.upper_size, config),
        _init_branch(rng, "lower", layout.lower_size, config),
        _init_branch(rng, "whole", layout.size, config),
    ]
    return PredictorParams(branches=branches, motion_attention=mattn,
                           fusion_raw=np.zeros((1, 1)), layout=layout, config=config)


# ----------------------------------------------------------------------
# tape-level forward passes

def _gc_layer(tape: Tape, h: Tensor, adj: Tensor, wgt: Tensor) -> Tensor:
    return tape.tanh(tape.matmul(tape.matmul(adj, h), wgt))


def _self_attention(tape: Tape, h: Tensor, tensors: dict[str, Tensor],
                    prefix: str, heads: int) -> Tensor:
    n, f = h.shape
    if f % heads != 0:
        raise ConfigError(f"feature width {f} not divisible by {heads} heads")
    dh = f // heads
    q = tape.matmul(h, tensors[f"{prefix}.wq"])
    k = tape.matmul(h, tensors[f"{prefix}.wk"])
    v = tape.matmul(h, tensors[f"{prefix}.wv"])
    contexts = []
    for i in range(heads):
        qs = tape.slice_lastdim(q, i * dh, (i + 1) * dh)
        ks = tape.slice_lastdim(k, i * dh, (i + 1) * dh)
        vs = tape.slice_lastdim(v, i * dh, (i + 1) * dh)
        scores = tape.scale(tape.matmul(qs, tape.transpose(ks)), 1.0 / np.sqrt(dh))
        contexts.append(tape.matmul(tape.softmax_lastdim(scores), vs))
    ctx = contexts[0] if heads == 1 else tape.concat_lastdim(contexts)
    return tape.add(h, tape.matmul(ctx, tensors[f"{prefix}.wo"]))


def _block_forward(tape: Tape, block: GcBlock, tensors: dict[str, Tensor],
                   prefix: str, h: Tensor) -> Tensor:
    nxt = 0
    for i in range(len(block.layers)):
        h = _gc_layer(tape, h, tensors[f"{prefix}.gc{i}.adj"],
                      tensors[f"{prefix}.gc{i}.wgt"])
        if nxt < len(block.attention_after) and i + 1 == block.attention_after[nxt]:
            h = _self_attention(tape, h, tensors, f"{prefix}.attn{nxt}",
                                block.attention[nxt].heads)
            nxt += 1
    return h


def _branch_encode(tape: Tape, tensors: dict[str, Tensor], prefix: str,
                   x: Tensor) -> Tensor:
    return linear(tape, x, tensors[f"{prefix}.enc.w"], tensors[f"{prefix}.enc.b"])


def _branch_tail(tape: Tape, branch: Branch, tensors: dict[str, Tensor],
                 h: Tensor, exit_index: int) -> Tensor:
    """Run the first exit_index blocks from encoded features, then decode."""
    if not 1 <= exit_index <= len(branch.blocks):
        raise ValueError(f"exit index {exit_index} outside 1..{len(branch.blocks)}")
    p = branch.kind
    for k in range(exit_index):
        h = _block_forward(tape, branch.blocks[k], tensors, f"{p}.blk{k}", h)
    return linear(tape, h, tensors[f"{p}.dec.w"], tensors[f"{p}.dec.b"])


def _motion_attention(tape: Tape, wq: Tensor, wk: Tensor, history: np.ndarray,
                      sub_len: int, out_frames: int, n_coeffs: int) -> Tensor:
    """Attention-enriched coefficients of the padded observation, shape (F, E).

    Query: projection of the newest sub_len frames. Keys: projections of each
    complete historical sub_len window whose out_frames extension also fits.
    Values: DCT coefficients of those extended windows. The result adds the
    softmax-weighted value sum to the DCT of the last-frame-padded history.
    """
    n, width = history.shape
    if n < 2 * sub_len:
        raise ValueError(f"history of {n} frames < 2 * sub_len ({sub_len})")
    n_windows = n - sub_len - out_frames + 1
    if n_windows < 1:
        raise ValueError(
            f"history of {n} frames has no {sub_len}+{out_frames}-frame value window"
        )
    query = tape.matmul(tape.constant(history[n - sub_len:].reshape(1, -1)), wq)
    keys_raw = np.stack([history[i:i + sub_len].reshape(-1) for i in range(n_windows)])
    keys = tape.matmul(tape.constant(keys_raw), wk)
    weights = tape.softmax_lastdim(tape.matmul(query, tape.transpose(keys)))
    values = np.stack([
        dct_encode(history[i:i + sub_len + out_frames], n_coeffs).flat()
        for i in range(n_windows)
    ])
    context = tape.reshape(tape.matmul(weights, tape.constant(values)),
                           (n_coeffs, width))
    padded = pad_last_frame(history, out_frames)
    base = tape.constant(dct_encode(padded, n_coeffs).coeffs)
    return tape.add(base, context)


def pad_last_frame(history: np.ndarray, out_frames: int) -> np.ndarray:
    """Extend a (N, E) history by repeating its last frame out_frames times."""
    return np.vstack([history, np.repeat(history[-1:], out_frames, axis=0)])


def _selection_matrix(dims: tuple[int, ...], total: int) -> np.ndarray:
    sel = np.zeros((total, len(dims)))
    sel[list(dims), np.arange(len(dims))] = 1.0
    return sel


def _prepare_branch_inputs(tape: Tape, params: PredictorParams,
                           tensors: dict[str, Tensor],
                           history: np.ndarray) -> dict[str, Tensor]:
    """Attention front end plus per-branch (nodes, F) input extraction."""
    cfg = params.config
    if history.shape != (cfg.input_frames, params.layout.size):
        raise ShapeError(
            f"history shape {history.shape} != "
            f"({cfg.input_frames}, {params.layout.size})"
        )
    n_coeffs = cfg.resolved_n_coeffs
    ctx = _motion_attention(tape, tensors["mattn.wq"], tensors["mattn.wk"],
                            history / cfg.coeff_scale, cfg.sub_len,
                            cfg.output_frames, n_coeffs)
    inputs = {"whole": tape.transpose(ctx)}
    for kind, dims in (("upper", params.layout.upper_dims),
                       ("lower", params.layout.lower_dims)):
        sel = tape.constant(_selection_matrix(dims, params.layout.size))
        inputs[kind] = tape.transpose(tape.matmul(ctx, sel))
    return inputs


def _assemble_prediction(tape: Tape, params: PredictorParams,
                         tensors: dict[str, Tensor], outputs: dict[str, Tensor],
                         history: np.ndarray) -> Tensor:
    """Merge part corrections, blend with the whole branch, decode, add residual."""
    cfg = params.config
    layout = params.layout
    parts = tape.add(
        tape.matmul(tape.constant(_selection_matrix(layout.upper_dims, layout.size)),
                    outputs["upper"]),
        tape.matmul(tape.constant(_selection_matrix(layout.lower_dims, layout.size)),
                    outputs["lower"]),
    )
    fw = sigmoid(tape, tensors["fusion.raw"])
    fw_c = tape.add(tape.constant(np.ones((1, 1))), tape.scale(fw, -1.0))
    blend = tape.add(tape.scalar_mul(outputs["whole"], fw),
                     tape.scalar_mul(parts, fw_c))
    total = cfg.input_frames + cfg.output_frames
    correction = tape.matmul(tape.constant(idct_basis(total, cfg.resolved_n_coeffs)),
                             tape.transpose(blend))
    padded = tape.constant(pad_last_frame(history, cfg.output_frames))
    return tape.add(padded, tape.scale(correction, cfg.coeff_scale))


def _forward_core(tape: Tape, params: PredictorParams, tensors: dict[str, Tensor],
                  history: np.ndarray, exits: tuple[int, int, int]) -> Tensor:
    """Fixed-exit prediction on an existing tape; returns the (N+T, E) sequence."""
    if len(exits) != len(params.branches):
        raise ValueError("one exit index required per branch")
    inputs = _prepare_branch_inputs(tape, params, tensors, history)
    outputs = {}
    for branch, d in zip(params.branches, exits):
        encoded = _branch_encode(tape, tensors, branch.kind, inputs[branch.kind])
        outputs[branch.kind] = _branch_tail(tape, branch, tensors, encoded, d)
    return _assemble_prediction(tape, params, tensors, outputs, history)


def predict(params: PredictorParams, history: MotionSequence,
            exits: tuple[int, int, int]) -> MotionSequence:
    """Forecast: returns the full reconstructed N+T sequence.

    The last output_frames rows are the forecast; the prefix reconstructs the
    observation. History must be root-centered and exactly input_frames long.
    """
    tape = Tape()
    tensors = bind(tape, params.named_parameters(), trainable=False)
    out = _forward_core(tape, params, tensors, history.data, tuple(exits))
    return MotionSequence(data=out.values, fps=history.fps, label=history.label)
