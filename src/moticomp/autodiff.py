"""Reverse-mode automatic differentiation over dense float64 tensors.

A Tape records every forward operation in construction order (which is a
topological order by construction) and replays it backwards to accumulate
gradients. Every forward output is finite: each kind checks the values it
could make non-finite, and leaves and scale factors are checked on entry.
Every array is tested by `all_finite`, which counts its finite values with
numpy's C count, less the Python wrapper and dispatcher of np.count_nonzero.

A node keeps backward state only when a gradient can flow into it, that is
when one of its inputs requires a gradient. Otherwise its `backward_fn` is
None, and `gc_block`'s layers build no backward and keep no intermediate for
one. So a tape whose inputs are all constants, as at inference, holds only
forward values, and `backward` skips such nodes, which could pass no
gradient on.

One kind of constant is not re-checked, and belongs to no tape:
`shared_constant` wraps an array that `freeze` made (read-only, C-contiguous
float64) once, and any tape may read it, as `bind` does with a loaded
model's parameters. `freeze` checked it finite, and being read-only it cannot
have changed since. Should a NaN be forced into one anyway, every kind that
reads a constant checks its output or feeds one that does, so the NaN still
raises before anything is returned. A tensor of another tape still raises,
and `backward` gives a shared constant no gradient.

A minibatch is one tensor with a leading batch axis: B samples of shape
(rows, cols) form a (B, rows, cols) tensor, and one sample may go without
the axis. Shapes must match exactly, with one broadcasting rule, shared by
`add` and `hadamard`: an operand that lacks the other's leading batch axis
(a shared parameter or constant) is used by every batch row, and a 2-D
(1, F) row is used by every row of a (rows, F) or (B, rows, F) operand. A
broadcast operand's gradient is summed over the batch axis first, then over
the rows. `matmul` broadcasts a 2-D operand over the batch the same way, and
`linear`, one node for a whole layer x @ w + b, follows both rules.
`scalar_mul` scales each batch row by its own element (shape (B, 1, 1)), and
`scale` scales by a Python float.
`transpose` swaps the last two axes; `softmax_lastdim` and `straight_through`
act on the last axis, and `sum_rows` sums over the batch axis. `gather` is the
one kind that selects: it picks entries along any one axis of one or more
tensors joined along that axis, with a scatter-add gradient. It regroups a
batch (axis 0), splits and merges body parts (the node axis) and splits the
VAE encoder's output into mean and log-variance (the last axis).

A batched operand times a shared 2-D weight, as in every `linear` node and gc
layer weight, takes both gradients as one GEMM over the batch's rows
flattened: (B*n, m) @ W^T for the operand, and the flattened operand's
transpose times the flattened gradient for the weight, which sums over the
batch inside the product. Forward values do not depend on it. The
gradients equal the per-sample sums, sum_b a_b^T g_b and g_b @ W^T, up to the
rounding of the reordered sums. A 2-D times 2-D product, as in the VAE, keeps
the per-operand transposed formula and its bytes.

One kind records a whole predictor block as one node: `gc_block`, graph-conv
layers tanh((adj[i] @ h) @ wgt[i]). Its operands are h and one stack per
role, the adjacencies (L, n, n) and the weights (L, F, F), and each stack's
gradient is one array of its shape. Their shapes are checked once, up front,
so each layer multiplies 2-D slices, for which numpy's matmul rule is the
tape's. The block's backward runs each layer's backward in reverse. Values,
gradients and MACs match the primitive composition it replaces bit for bit,
as the tests pin at the default model's sizes.

Kinds that only move or select values (`gather`, `transpose`, `reshape`,
`straight_through`) skip the re-check, and `linear` checks x @ w + b alone: a
finite bias keeps any overflow of x @ w. `gc_block` checks only each layer's
pre-tanh product, where tanh could hide an overflow, naming the layer (gc0,
gc1, ...); a non-finite value anywhere else reaches one of these checks.

Nodes carry the multiply-accumulate count of their matrix products, so a
tape doubles as an instrumented operation counter for cost accounting.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

try:  # the C count, less np.count_nonzero's Python wrapper and dispatcher
    from numpy._core.multiarray import count_nonzero as _count_nonzero
except ImportError:  # numpy 1.x
    from numpy.core.multiarray import count_nonzero as _count_nonzero

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
    """Gradients of av @ bv for the operands that need one, else None. A
    batched av times a shared 2-D bv takes each as one GEMM over the batch's
    rows flattened, which sums the weight's gradient over the batch as it goes."""
    if av.ndim > 2 == bv.ndim:
        k, m = bv.shape
        g2 = g.reshape(-1, m)
        return ((g2 @ np.ascontiguousarray(bv.T)).reshape(av.shape) if na else None,
                av.reshape(-1, k).T @ g2 if nb else None)
    return (_sum_to(g @ np.swapaxes(bv, -1, -2), av.shape) if na else None,
            _sum_to(np.swapaxes(av, -1, -2) @ g, bv.shape) if nb else None)


def _softmax(x: Array) -> Array:
    # e.sum() as the ufunc reduction it calls, less its wrapper; the row max by
    # fmax, which reduces faster than maximum and differs from it only by
    # skipping a NaN, whose row's exp is NaN either way
    e = x - np.fmax.reduce(x, axis=-1, keepdims=True)  # a new array, so exp and
    np.exp(e, out=e)                                    # divide in place
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _softmax_grad(g: Array, y: Array) -> Array:
    """y * (g - sum(g * y)) over the last axis, in one buffer."""
    d = g * y
    dot = np.add.reduce(d, axis=-1, keepdims=True)
    np.subtract(g, dot, out=d)
    d *= y
    return d


def _tanh_grad(g: Array, y: Array) -> Array:
    """g * (1 - y * y) for y = tanh(x), in one buffer."""
    d = y * y
    np.subtract(1.0, d, out=d)
    d *= g
    return d


def all_finite(values: Array) -> bool:
    """Whether every value is finite: np.isfinite(values).all(), counted by
    numpy's C count, which costs less than the reduction at the tape's sizes."""
    return _count_nonzero(np.isfinite(values)) == values.size


def _require_finite(values: Array, what: str) -> None:
    if not all_finite(values):
        raise NumericError(f"{what} produced non-finite values")


def _gc_layer(i: int, hv: Array, av: Array, wv: Array, ah: Array, y: Array, need_h: bool):
    """The backward of graph convolution gc{i} y = tanh(ah @ wv), ah = av @ hv:
    it maps the output gradient to that of h (None when not needed) and writes
    those of adj and wgt into layer i of the stacks g_adj and g_wgt, each
    where one is given."""

    def bwd(g, g_adj, g_wgt):
        g_ah, g_w = _matmul_grads(_tanh_grad(g, y), ah, wv, need_h or g_adj is not None,
                                  g_wgt is not None)
        if g_wgt is not None:
            g_wgt[i] = g_w
        if g_ah is None:
            return None
        g_a, g_h = _matmul_grads(g_ah, av, hv, g_adj is not None, need_h)
        if g_adj is not None:
            g_adj[i] = g_a
        return g_h

    return bwd


def freeze(values, what: str) -> Array:
    """values as a C-contiguous float64 array, checked finite, then made
    read-only: the array itself when it already has that form, else a copy.
    So it freezes in place an array its caller owns, such as a model's
    parameter or a computed basis; a constructor keeping a caller's array
    freezes a copy of it. Raises ValueError naming what on a non-finite value."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    if not all_finite(v):
        raise ValueError(f"non-finite values in {what}")
    v.flags.writeable = False
    return v


def is_frozen(values: Array) -> bool:
    """Whether values has the form `freeze` gives: read-only, C-contiguous float64."""
    flags = values.flags
    return not flags.writeable and flags.c_contiguous and values.dtype == np.float64


SHARED = -1  # the tid of a constant that belongs to no tape


def shared_constant(values: Array) -> Tensor:
    """A constant that belongs to no tape, so that any tape may read it: an
    array `freeze` made, shared as it is, neither copied nor re-checked.
    Raises ValueError for any other array."""
    if not is_frozen(values):
        raise ValueError("a shared constant needs an array that freeze made")
    return Tensor(values, False, SHARED)


class Tensor:
    """A dense float64 array at index tid of the tape that produced it, or a
    constant shared by every tape (tid SHARED). It holds no reference to a
    tape, so reference counting alone frees a tape."""

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
    """One recorded operation: ids of its operands and its backward closure,
    which is None when the output needs no gradient."""

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
        if not all_finite(v):
            raise NumericError("leaf tensor contains non-finite values")
        return self._push(v, requires_grad)

    def constant(self, values) -> Tensor:
        return self.leaf(values, requires_grad=False)

    def _push(self, values: Array, requires_grad: bool) -> Tensor:
        """Append a tensor at the next tid."""
        t = Tensor(values, requires_grad, len(self.tensors))
        self.tensors.append(t)
        return t

    def _emit(self, kind: str, inputs: Sequence[Tensor], values: Array,
              backward_fn: Callable, macs: int = 0, check: bool = True) -> Tensor:
        """Record one node; check=False where finite inputs give finite values.
        Each input is this tape's or a shared constant. The node keeps
        backward_fn only when its output requires a gradient."""
        tensors = self.tensors
        ids, grad = [], False
        for t in inputs:  # one walk: the tape check, requires_grad and the ids
            tid = t.tid
            if tid != SHARED and (tid >= len(tensors) or tensors[tid] is not t):
                raise ValueError(f"{kind}: input tensor belongs to a different tape")
            grad = grad or t.requires_grad
            ids.append(tid)
        if check:
            _require_finite(values, kind)
        out = self._push(values, grad)
        self.nodes.append(Node(kind, tuple(ids), out.tid, backward_fn if grad else None,
                               macs))
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

    def linear(self, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
        """x @ w + b, operands as in matmul, with b broadcast as in add: one node,
        checked once, as b is finite and so keeps any overflow of x @ w."""
        xv, wv, bv = x.values, w.values, b.values
        _check_matmul("linear", xv.shape, wv.shape)
        xw = xv @ wv
        if not _broadcasts(xw.shape, bv.shape):
            raise ShapeError(f"linear shapes {xw.shape} vs bias {bv.shape}")
        nx, nw, nb = x.requires_grad, w.requires_grad, b.requires_grad
        return self._emit("linear", (x, w, b), xw + bv,
                          lambda g: (*_matmul_grads(g, xv, wv, nx, nw),
                                     _sum_to(g, bv.shape) if nb else None),
                          macs=xw.size * xv.shape[-1])

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if not _broadcasts(a.shape, b.shape):
            raise ShapeError(f"add shapes {a.shape} vs {b.shape}")
        sa, sb, na, nb = a.shape, b.shape, a.requires_grad, b.requires_grad
        return self._emit("add", (a, b), a.values + b.values,
                          lambda g: (_sum_to(g, sa) if na else None,
                                     _sum_to(g, sb) if nb else None))

    def hadamard(self, a: Tensor, b: Tensor) -> Tensor:
        if not _broadcasts(a.shape, b.shape):
            raise ShapeError(f"hadamard shapes {a.shape} vs {b.shape}")
        av, bv, na, nb = a.values, b.values, a.requires_grad, b.requires_grad
        return self._emit("hadamard", (a, b), av * bv,
                          lambda g: (_sum_to(g * bv, av.shape) if na else None,
                                     _sum_to(g * av, bv.shape) if nb else None))

    def tanh(self, a: Tensor) -> Tensor:
        y = np.tanh(a.values)
        return self._emit("tanh", (a,), y, lambda g: (_tanh_grad(g, y),))

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
        av, bv, na, nb = a.values, b.values, a.requires_grad, b.requires_grad
        with np.errstate(divide="ignore", invalid="ignore"):
            y = av / bv
        return self._emit("div", (a, b), y, lambda g: (g / bv if na else None,
                                                       -g * av / (bv * bv) if nb else None))

    def scale(self, a: Tensor, c: float) -> Tensor:
        c = float(c)
        if not np.isfinite(c):
            raise NumericError("scale factor is not finite")
        return self._emit("scale", (a,), a.values * c, lambda g: (g * c,))

    def scalar_mul(self, a: Tensor, s: Tensor) -> Tensor:
        """Multiply each batch row of a by its own element of s, of shape
        (B, 1, ..., 1)."""
        av, sv, na, ns = a.values, s.values, a.requires_grad, s.requires_grad
        if s.shape != av.shape[:1] + (1,) * (av.ndim - 1):
            raise ShapeError(f"scalar_mul scalar has shape {s.shape} for {a.shape}")
        axes = tuple(range(1, av.ndim))
        return self._emit("scalar_mul", (a, s), av * sv,
                          lambda g: (g * sv if na else None,
                                     np.sum(g * av, axis=axes, keepdims=True) if ns else None))

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

    def gather(self, parts: Sequence[Tensor], index, axis: int = 0) -> Tensor:
        """Entries index along axis of the parts joined along that axis, as
        np.take of their concatenation; the gradient adds each output entry
        back into the entry it came from."""
        shapes = [p.shape for p in parts]
        ndim = len(shapes[0]) if shapes else 0
        if not -ndim <= axis < ndim:
            raise ShapeError(f"gather along axis {axis} of parts {shapes}")
        axis %= ndim
        if any(len(s) != ndim for s in shapes) or len({s[:axis] + s[axis + 1:]
                                                       for s in shapes}) > 1:
            raise ShapeError(f"gather needs parts that differ only along axis {axis}, "
                             f"got {shapes}")
        sizes = [s[axis] for s in shapes]
        index = np.asarray(index, dtype=np.intp)
        if index.ndim != 1 or index.size == 0 or not (
                0 <= index.min() and index.max() < sum(sizes)):
            raise ShapeError(f"gather index outside 0..{sum(sizes) - 1} or empty")
        joined = (parts[0].values if len(parts) == 1
                  else np.concatenate([p.values for p in parts], axis=axis))
        shape = joined.shape

        def bwd(g):
            full = np.zeros(shape)
            at = (slice(None),) * axis + (index,)
            if np.bincount(index).max() == 1:  # no repeats: += adds 0.0 + g once each
                full[at] += g
            else:
                np.add.at(full, at, g)
            return tuple(np.split(full, np.cumsum(sizes)[:-1], axis=axis))

        return self._emit("gather", tuple(parts), np.take(joined, index, axis=axis), bwd,
                          check=False)

    def sum_rows(self, a: Tensor) -> Tensor:
        """Sum over the leading (batch) axis."""
        if a.values.ndim < 2:
            raise ShapeError(f"sum_rows expects a batch of rows, got {a.shape}")
        shape = a.shape
        return self._emit("sum_rows", (a,), a.values.sum(axis=0),
                          lambda g: (np.broadcast_to(g, shape),))

    # ------------------------------------------------------------------
    # a predictor block, one node

    def gc_block(self, h: Tensor, adj: Tensor, wgt: Tensor) -> Tensor:
        """One block of predictor layers over the rows of h (n, F) or (B, n, F):
        L graph convolutions, layer i tanh((adj[i] @ h) @ wgt[i]) for the stacks
        adj (L, n, n) and wgt (L, F, F). Each gradient comes as one array of its
        stack's shape. Shapes are checked once, up front; a numeric error names
        the layer (gc{i})."""
        hv, av, wv = h.values, adj.values, wgt.values
        n_layers = av.shape[0] if av.ndim == 3 else 0
        n, f = hv.shape[-2:] if hv.ndim in (2, 3) else (0, 0)
        if not (n_layers and hv.ndim in (2, 3) and av.shape == (n_layers, n, n)
                and wv.shape == (n_layers, f, f)):
            raise ShapeError(f"gc_block operands do not conform: h {hv.shape}, "
                             f"adj {av.shape}, wgt {wv.shape}")
        na, nw = adj.requires_grad, wgt.requires_grad
        need, macs, steps = h.requires_grad, 0, []
        for i in range(n_layers):  # inline: a call adds a quarter to a layer's time
            ai, wi = av[i], wv[i]
            ah = ai @ hv
            pre = ah @ wi
            if not all_finite(pre):  # tanh would hide an overflow
                raise NumericError(
                    f"gc_block gc{i} pre-tanh product produced non-finite values")
            macs += ah.size * (n + f)
            y = np.tanh(pre, out=pre)  # pre is needed no more
            steps.append(_gc_layer(i, hv, ai, wi, ah, y, need) if need or na or nw else None)
            hv, need = y, steps[-1] is not None  # a backward where a gradient reaches it

        def bwd(g):  # each layer's backward, last layer first, into one array per stack
            grads = [np.empty(x.values.shape) if x.requires_grad else None for x in (adj, wgt)]
            for back in reversed(steps):
                # g is None once nothing before this layer needs a gradient
                # (a layer returns None for h then), so a layer that kept no
                # backward is never called
                if g is None:
                    break
                g = back(g, *grads)
            return g, *grads

        return self._emit("gc_block", (h, adj, wgt), hv, bwd, macs, check=False)

    # ------------------------------------------------------------------

    def backward(self, loss: Tensor) -> None:
        """Reverse accumulation from a scalar loss produced on this tape.

        Populates .grad on every requires_grad tensor; tensors with no path
        to the loss get zeros. Shared constants get none.
        """
        if not (0 <= loss.tid < len(self.tensors) and self.tensors[loss.tid] is loss):
            raise ValueError("loss tensor was not produced on this tape")
        if loss.values.size != 1:
            raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
        grads: list[Array | None] = [None] * len(self.tensors)
        grads[loss.tid] = np.ones_like(loss.values)
        for node in reversed(self.nodes):
            g = grads[node.output_id]
            if g is None or node.backward_fn is None:
                continue
            for tid, ig in zip(node.input_ids, node.backward_fn(g)):
                if ig is None or tid == SHARED or not self.tensors[tid].requires_grad:
                    continue
                # accumulation never mutates in place, so views are safe
                grads[tid] = ig if grads[tid] is None else grads[tid] + ig
        for t in self.tensors:
            if t.requires_grad:
                g = grads[t.tid]
                t.grad = np.zeros_like(t.values) if g is None else np.asarray(g)
