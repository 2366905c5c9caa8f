"""Reverse-mode automatic differentiation over dense float64 tensors.

A Tape records every forward operation in construction order (which is a
topological order by construction) and replays it backwards to accumulate
gradients. Every forward output is finite: each kind checks the values it
could make non-finite, and leaves and scale factors are checked on entry.
One kind of leaf is not re-checked: `frozen_leaf` shares an array that
`freeze` made (read-only, C-contiguous float64) as a constant, as `bind`
does with a loaded model's parameters. `freeze` checked it finite, and being
read-only it cannot have changed since. Should a NaN be forced into one
anyway, every kind that reads a leaf checks its output or feeds one that
does, so the NaN still raises before anything is returned.

A minibatch is one tensor with a leading batch axis: B samples of shape
(rows, cols) form a (B, rows, cols) tensor, and one sample may go without
the axis. Shapes must match exactly, with one broadcasting rule, shared by
`add` and `hadamard`: an operand that lacks the other's leading batch axis
(a shared parameter or constant) is used by every batch row, and a 2-D
(1, F) row is used by every row of a (rows, F) or (B, rows, F) operand. A
broadcast operand's gradient is summed over the batch axis first, then over
the rows. `matmul` broadcasts a 2-D operand over the batch the same way.
`scalar_mul` scales by one element, or by one element per batch row (shape
(B, 1, 1)), and `scale` by a Python float.
`transpose` swaps the last two axes; `softmax_lastdim`, `slice_lastdim` and
`straight_through` act on the last axis. Two kinds work along the batch axis
itself: `gather_rows` picks rows of one or more tensors stacked along axis 0,
with a scatter-add gradient, and `sum_rows` sums over axis 0.

Two kinds record a predictor layer as one node: `gc_layer`, tanh((adj @ h)
@ wgt), and `self_attention`, the residual multi-head attention, which runs
all heads as one stacked axis of each product. Values, gradients and MACs
match the primitive composition each replaces bit for bit, as the tests pin
at the default model's sizes; the ops need not run in the composition's order.

Kinds that only move or select values (`slice_lastdim`, `transpose`,
`reshape`, `gather_rows`, `straight_through`) skip the re-check. The layer
kinds check only where tanh or softmax's exp could hide an overflow: the
pre-tanh product, each head's scaled scores, and the attention output; a
non-finite value anywhere else reaches one of these checks.

Nodes carry the multiply-accumulate count of their matrix products, so a
tape doubles as an instrumented operation counter for cost accounting.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, ShapeError

Array = np.ndarray


def _broadcasts(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Equal shapes, or one of them is the other less its leading batch axis,
    or one is a 2-D (1, F) row and the other has F columns."""
    return (a == b or a == b[1:] or b == a[1:]
            or (len(a) == 2 and a[0] == 1 and len(b) in (2, 3) and a[1] == b[-1])
            or (len(b) == 2 and b[0] == 1 and len(a) in (2, 3) and b[1] == a[-1]))


def _sum_to(g: Array, shape: tuple[int, ...]) -> Array:
    """Gradient g for a broadcast operand of this shape: summed over the leading
    batch axis when the operand lacked it, then over the rows when it is a row."""
    if g.ndim > len(shape):
        g = g.sum(axis=0)
    return g if g.shape == shape else g.sum(axis=0, keepdims=True)


def _check_matmul(kind: str, a: tuple[int, ...], b: tuple[int, ...]) -> None:
    """The matmul rule: (m, k) or (B, m, k) operands that agree on k, and on B
    when both have it."""
    if (len(a) not in (2, 3) or len(b) not in (2, 3) or a[-1] != b[-2]
            or (len(a) == len(b) == 3 and a[0] != b[0])):
        raise ShapeError(f"{kind} shapes {a} x {b} do not conform")


def _matmul_grads(g: Array, av: Array, bv: Array, na: bool, nb: bool):
    """Gradients of av @ bv for the operands that need one, else None."""
    return (_sum_to(g @ np.swapaxes(bv, -1, -2), av.shape) if na else None,
            _sum_to(np.swapaxes(av, -1, -2) @ g, bv.shape) if nb else None)


def _softmax(x: Array) -> Array:
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def _softmax_grad(g: Array, y: Array) -> Array:
    dot = np.sum(g * y, axis=-1, keepdims=True)
    return y * (g - dot)


def _require_finite(values: Array, what: str) -> None:
    if not np.isfinite(values).all():
        raise NumericError(f"{what} produced non-finite values")


def freeze(values, what: str) -> Array:
    """values as a C-contiguous float64 array, checked finite, then made
    read-only: the array itself when it already has that form, else a copy.
    So it freezes in place an array its caller owns, such as a model's
    parameter or a computed basis; a constructor keeping a caller's array
    freezes a copy of it. Raises ValueError naming what on a non-finite value."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    if not np.isfinite(v).all():
        raise ValueError(f"non-finite values in {what}")
    v.flags.writeable = False
    return v


class Tensor:
    """A dense float64 array at index tid of the tape that produced it. It holds
    no reference to the tape, so reference counting alone frees a tape."""

    __slots__ = ("values", "requires_grad", "grad", "tid")

    def __init__(self, values: Array, requires_grad: bool, tid: int):
        self.values = values
        self.requires_grad = requires_grad
        self.grad: Array | None = None
        self.tid = tid

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.values.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Node:
    """One recorded operation: ids of its operands and its backward closure."""

    __slots__ = ("kind", "input_ids", "output_id", "backward_fn", "macs")

    def __init__(self, kind, input_ids, output_id, backward_fn, macs=0):
        self.kind = kind
        self.input_ids = input_ids
        self.output_id = output_id
        self.backward_fn = backward_fn
        self.macs = macs


class Tape:
    """Single-use recording of a forward computation. Not thread-safe."""

    def __init__(self):
        self.tensors: list[Tensor] = []
        self.nodes: list[Node] = []
        self.mac_count: int = 0

    # ------------------------------------------------------------------
    # tensor construction

    def leaf(self, values, requires_grad: bool = False) -> Tensor:
        v = np.asarray(values, dtype=np.float64)
        if v.ndim > 0:  # ascontiguousarray would promote 0-d scalars to 1-d
            v = np.ascontiguousarray(v)
        if not np.isfinite(v).all():
            raise NumericError("leaf tensor contains non-finite values")
        return self._push(v, requires_grad)

    def frozen_leaf(self, values: Array) -> Tensor:
        """A constant leaf sharing an array `freeze` made, neither copied nor
        re-checked; any other array goes through `leaf`."""
        flags = values.flags
        if flags.writeable or not flags.c_contiguous or values.dtype != np.float64:
            return self.leaf(values)
        return self._push(values, False)

    def constant(self, values) -> Tensor:
        return self.leaf(values, requires_grad=False)

    def _push(self, values: Array, requires_grad: bool) -> Tensor:
        """Append a tensor at the next tid."""
        t = Tensor(values, requires_grad, len(self.tensors))
        self.tensors.append(t)
        return t

    def _emit(self, kind: str, inputs: Sequence[Tensor], values: Array,
              backward_fn: Callable, macs: int = 0, check: bool = True) -> Tensor:
        """Record one node; check=False where finite inputs give finite values."""
        for t in inputs:
            if not (t.tid < len(self.tensors) and self.tensors[t.tid] is t):
                raise ValueError(f"{kind}: input tensor belongs to a different tape")
        if check:
            _require_finite(values, kind)
        out = self._push(values, any(t.requires_grad for t in inputs))
        self.nodes.append(Node(kind, tuple(t.tid for t in inputs), out.tid,
                               backward_fn, macs))
        self.mac_count += macs
        return out

    # ------------------------------------------------------------------
    # operations

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        """Matrix product over the last two axes of (m, k) or (B, m, k) operands."""
        av, bv = a.values, b.values
        _check_matmul("matmul", av.shape, bv.shape)
        na, nb = a.requires_grad, b.requires_grad
        out = av @ bv
        return self._emit("matmul", (a, b), out,
                          lambda g: _matmul_grads(g, av, bv, na, nb),
                          macs=out.size * av.shape[-1])

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if not _broadcasts(a.shape, b.shape):
            raise ShapeError(f"add shapes {a.shape} vs {b.shape}")
        sa, sb = a.shape, b.shape
        return self._emit("add", (a, b), a.values + b.values,
                          lambda g: (_sum_to(g, sa), _sum_to(g, sb)))

    def hadamard(self, a: Tensor, b: Tensor) -> Tensor:
        if not _broadcasts(a.shape, b.shape):
            raise ShapeError(f"hadamard shapes {a.shape} vs {b.shape}")
        av, bv = a.values, b.values
        return self._emit("hadamard", (a, b), av * bv,
                          lambda g: (_sum_to(g * bv, av.shape),
                                     _sum_to(g * av, bv.shape)))

    def tanh(self, a: Tensor) -> Tensor:
        y = np.tanh(a.values)
        return self._emit("tanh", (a,), y, lambda g: (g * (1.0 - y * y),))

    def exp(self, a: Tensor) -> Tensor:
        with np.errstate(over="ignore"):
            y = np.exp(a.values)
        return self._emit("exp", (a,), y, lambda g: (g * y,))

    def sqrt(self, a: Tensor) -> Tensor:
        with np.errstate(invalid="ignore"):  # negatives surface as NumericError
            y = np.sqrt(a.values)
        return self._emit("sqrt", (a,), y, lambda g: (g * 0.5 / y,))

    def div(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise ShapeError(f"div shapes {a.shape} vs {b.shape}")
        av, bv = a.values, b.values
        with np.errstate(divide="ignore", invalid="ignore"):
            y = av / bv
        return self._emit("div", (a, b), y, lambda g: (g / bv, -g * av / (bv * bv)))

    def scale(self, a: Tensor, c: float) -> Tensor:
        c = float(c)
        if not np.isfinite(c):
            raise NumericError("scale factor is not finite")
        return self._emit("scale", (a,), a.values * c, lambda g: (g * c,))

    def scalar_mul(self, a: Tensor, s: Tensor) -> Tensor:
        """Multiply a tensor by a one-element tensor, or each batch row of a
        by its own element of s of shape (B, 1, ..., 1)."""
        av = a.values
        s_shape = s.shape
        if s.values.size == 1:
            sv, axes = float(s.values.reshape(())), None
        elif s_shape == av.shape[:1] + (1,) * (av.ndim - 1):
            sv, axes = s.values, tuple(range(1, av.ndim))
        else:
            raise ShapeError(f"scalar_mul scalar has shape {s_shape} for {a.shape}")

        def bwd(g):
            return (g * sv, np.sum(g * av, axis=axes).reshape(s_shape))

        return self._emit("scalar_mul", (a, s), av * sv, bwd)

    def softmax_lastdim(self, a: Tensor) -> Tensor:
        y = _softmax(a.values)
        return self._emit("softmax_lastdim", (a,), y, lambda g: (_softmax_grad(g, y),))

    def mean(self, a: Tensor) -> Tensor:
        n = a.values.size
        shape = a.shape

        def bwd(g):
            return (np.full(shape, float(g) / n),)

        return self._emit("mean", (a,), np.asarray(a.values.mean()), bwd)

    def sum_sq(self, a: Tensor) -> Tensor:
        av = a.values
        return self._emit("sum_sq", (a,), np.asarray(np.sum(av * av)),
                          lambda g: (2.0 * float(g) * av,))

    def slice_lastdim(self, a: Tensor, start: int, stop: int) -> Tensor:
        width = a.shape[-1]
        if not 0 <= start < stop <= width:
            raise ShapeError(f"slice [{start}:{stop}] outside width {width}")
        shape = a.shape

        def bwd(g):
            full = np.zeros(shape)
            full[..., start:stop] = g
            return (full,)

        values = np.ascontiguousarray(a.values[..., start:stop])
        return self._emit("slice_lastdim", (a,), values, bwd, check=False)

    def transpose(self, a: Tensor) -> Tensor:
        """Swap the last two axes of a (m, n) or (B, m, n) tensor."""
        if a.values.ndim not in (2, 3):
            raise ShapeError(f"transpose expects a 2-D or 3-D tensor, got {a.shape}")
        return self._emit("transpose", (a,),
                          np.ascontiguousarray(np.swapaxes(a.values, -1, -2)),
                          lambda g: (np.ascontiguousarray(np.swapaxes(g, -1, -2)),),
                          check=False)

    def reshape(self, a: Tensor, shape: tuple[int, ...]) -> Tensor:
        if int(np.prod(shape, dtype=np.int64)) != a.values.size:
            raise ShapeError(f"cannot reshape {a.shape} to {shape}")
        old = a.shape
        return self._emit("reshape", (a,), a.values.reshape(shape),
                          lambda g: (g.reshape(old),), check=False)

    def straight_through(self, soft: Tensor) -> Tensor:
        """One-hot of the argmax over the last axis; backward passes gradients through.

        Ties break toward the lowest index. The output is the hard vector in
        the forward pass while the backward pass treats it as the soft input.
        """
        x = soft.values
        if x.ndim < 2:
            raise ShapeError(f"straight_through expects rows, got {x.shape}")
        hard = np.zeros_like(x)
        np.put_along_axis(hard, np.argmax(x, axis=-1)[..., None], 1.0, axis=-1)
        return self._emit("straight_through", (soft,), hard, lambda g: (g,), check=False)

    def gather_rows(self, parts: Sequence[Tensor], index) -> Tensor:
        """Rows index of the parts stacked along axis 0; the gradient adds each
        output row back into the row it came from."""
        if not parts or any(p.values.ndim < 2 or p.shape[1:] != parts[0].shape[1:]
                            for p in parts):
            raise ShapeError("gather_rows needs parts whose rows have one shape")
        sizes = [p.shape[0] for p in parts]
        total, row_shape = sum(sizes), parts[0].shape[1:]
        index = np.asarray(index, dtype=np.intp)
        if index.ndim != 1 or index.size == 0 or not (
                0 <= index.min() and index.max() < total):
            raise ShapeError(f"gather_rows index outside 0..{total - 1} or empty")

        def bwd(g):
            full = np.zeros((total,) + row_shape)
            np.add.at(full, index, g)
            return tuple(np.split(full, np.cumsum(sizes)[:-1]))

        stacked = (parts[0].values if len(parts) == 1
                   else np.concatenate([p.values for p in parts]))
        return self._emit("gather_rows", tuple(parts), stacked[index], bwd, check=False)

    def sum_rows(self, a: Tensor) -> Tensor:
        """Sum over the leading (batch) axis."""
        if a.values.ndim < 2:
            raise ShapeError(f"sum_rows expects a batch of rows, got {a.shape}")
        shape = a.shape
        return self._emit("sum_rows", (a,), a.values.sum(axis=0),
                          lambda g: (np.broadcast_to(g, shape),))

    # ------------------------------------------------------------------
    # predictor layers, one node each

    def gc_layer(self, h: Tensor, adj: Tensor, wgt: Tensor) -> Tensor:
        """Graph convolution tanh((adj @ h) @ wgt), operands as in matmul."""
        hv, av, wv = h.values, adj.values, wgt.values
        _check_matmul("gc_layer", av.shape, hv.shape)
        ah = av @ hv
        _check_matmul("gc_layer", ah.shape, wv.shape)
        pre = ah @ wv
        _require_finite(pre, "gc_layer pre-tanh product")
        y = np.tanh(pre)
        nh, na, nw = h.requires_grad, adj.requires_grad, wgt.requires_grad

        def bwd(g):
            g_ah, g_w = _matmul_grads(g * (1.0 - y * y), ah, wv, na or nh, nw)
            if g_ah is None:
                return None, None, g_w
            g_adj, g_h = _matmul_grads(g_ah, av, hv, na, nh)
            return g_h, g_adj, g_w

        macs = ah.size * av.shape[-1] + pre.size * wv.shape[-2]
        return self._emit("gc_layer", (h, adj, wgt), y, bwd, macs, check=False)

    def self_attention(self, h: Tensor, wq: Tensor, wk: Tensor, wv: Tensor,
                       wo: Tensor, heads: int) -> Tensor:
        """Residual multi-head self-attention over the rows of h (n, F) or
        (B, n, F) with (F, F) projections: q, k, v = h @ wq, h @ wk, h @ wv
        split into heads of width dh = F / heads along the last axis, then
        h + concat_i(softmax(q_i k_i^T / sqrt(dh)) v_i) @ wo."""
        hv = h.values
        f = hv.shape[-1]
        if hv.ndim not in (2, 3) or heads < 1 or f % heads:
            raise ShapeError(f"self_attention of {h.shape} in {heads} heads")
        weights = (wq, wk, wv, wo)
        if any(w.shape != (f, f) for w in weights):
            raise ShapeError(f"self_attention projections must be ({f}, {f})")
        dh = f // heads
        c = float(1.0 / np.sqrt(dh))

        def split(m):  # (..., n, F) -> (..., heads, n, dh)
            return np.ascontiguousarray(m.reshape(*m.shape[:-1], heads, dh).swapaxes(-2, -3))

        def join(m):  # the inverse; every matmul operand here is C-contiguous
            return np.ascontiguousarray(np.swapaxes(m, -2, -3)).reshape(hv.shape)

        q, k, v = (split(hv @ w.values) for w in weights[:3])
        k_t = np.ascontiguousarray(np.swapaxes(k, -1, -2))
        scores = (q @ k_t) * c
        if not np.isfinite(scores).all():  # name the first head that overflowed
            for i in range(heads):
                _require_finite(scores[..., i, :, :], f"self_attention head {i} scores")
        attn = _softmax(scores)
        ctx = join(attn @ v)
        wov = wo.values
        proj = ctx @ wov
        macs = 3 * hv.size * f + scores.size * dh + ctx.size * attn.shape[-1] + proj.size * f
        need_h, *need_w = (t.requires_grad for t in (h, *weights))

        def bwd(g):
            g_ctx, g_wo = _matmul_grads(g, ctx, wov, need_h or any(need_w[:3]), need_w[3])
            if g_ctx is None:
                return None, None, None, None, g_wo
            g_attn, g_v = _matmul_grads(split(g_ctx), attn, v, True, True)
            g_q, g_k_t = _matmul_grads(_softmax_grad(g_attn, attn) * c, q, k_t, True, True)
            g_qkv = (join(g_q), join(np.swapaxes(g_k_t, -1, -2)), join(g_v))
            g_h, g_w = g, [None] * 3  # into h: the residual first, then v, k and q
            for j in (2, 1, 0):
                g_hj, g_w[j] = _matmul_grads(g_qkv[j], hv, weights[j].values, need_h,
                                             need_w[j])
                if need_h:
                    g_h = g_h + g_hj
            return g_h, *g_w, g_wo

        return self._emit("self_attention", (h, *weights), hv + proj, bwd, macs)

    # ------------------------------------------------------------------

    def backward(self, loss: Tensor) -> None:
        """Reverse accumulation from a scalar loss produced on this tape.

        Populates .grad on every requires_grad tensor; tensors with no path
        to the loss get zeros.
        """
        if not (loss.tid < len(self.tensors) and self.tensors[loss.tid] is loss):
            raise ValueError("loss tensor was not produced on this tape")
        if loss.values.size != 1:
            raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
        grads: list[Array | None] = [None] * len(self.tensors)
        grads[loss.tid] = np.ones_like(loss.values)
        for node in reversed(self.nodes):
            g = grads[node.output_id]
            if g is None:
                continue
            for tid, ig in zip(node.input_ids, node.backward_fn(g)):
                if ig is None or not self.tensors[tid].requires_grad:
                    continue
                # accumulation never mutates in place, so views are safe
                grads[tid] = ig if grads[tid] is None else grads[tid] + ig
        for t in self.tensors:
            if t.requires_grad:
                g = grads[t.tid]
                t.grad = np.zeros_like(t.values) if g is None else np.asarray(g)
