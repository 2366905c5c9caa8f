import gc
import hashlib
import itertools
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from gradcheck import TestGradCheck, grad_check  # noqa: F401 (TestGradCheck runs here)
from moticomp import autodiff, predictor, training, vae
from moticomp.autodiff import (SHARED, Tape, _matmul_grads, _softmax, _softmax_grad, _tanh_grad,
                               freeze, shared_constant)
from moticomp.errors import NumericError, ShapeError
from moticomp.motion import LOWER, UPPER, MotionSequence, PartLayout, Skeleton

# every operation kind a Tape records; each has its finite-difference check below
OP_KINDS = (
    "matmul", "linear", "add", "hadamard", "tanh", "softmax_lastdim", "mean", "sum_sq", "scale",
    "exp", "sqrt", "div", "transpose", "reshape",
    "scalar_mul", "straight_through", "gather", "sum_rows", "gc_block",
)
# the public Tape methods that are not operations: they make leaves or run the tape
NOT_OPS = ("leaf", "constant", "backward")


class TestForward:
    def test_tanh_of_zero(self):
        tape = Tape()
        out = tape.tanh(tape.constant(np.zeros((2, 3))))
        assert np.array_equal(out.values, np.zeros((2, 3)))

    def test_matmul_identity(self):
        tape = Tape()
        x = np.random.default_rng(0).normal(size=(3, 5))
        out = tape.matmul(tape.constant(np.eye(3)), tape.constant(x))
        assert np.allclose(out.values, x, atol=1e-15)

    def test_softmax_uniform(self):
        tape = Tape()
        out = tape.softmax_lastdim(tape.constant(np.zeros((1, 3))))
        assert np.allclose(out.values, 1.0 / 3.0, atol=1e-15)

    def test_matmul_shape_mismatch(self):
        tape = Tape()
        with pytest.raises(ShapeError):
            tape.matmul(tape.constant(np.zeros((2, 3))), tape.constant(np.zeros((2, 3))))

    def test_add_broadcasts_a_row_over_every_row(self):
        x = np.arange(24.0).reshape(4, 2, 3)
        row = np.array([[10.0, -20.0, 30.0]])
        for big in (x[0], x):
            tape = Tape()
            bt, rt = tape.leaf(big, requires_grad=True), tape.leaf(row, requires_grad=True)
            out = tape.add(rt, bt)
            assert np.array_equal(out.values, big + row)
            tape.backward(tape.sum_sq(out))
            g = 2.0 * (big + row)
            # summed over the batch axis first, then over the rows
            expected = (g.sum(axis=0) if g.ndim == 3 else g).sum(axis=0, keepdims=True)
            assert np.array_equal(rt.grad, expected)
            assert np.array_equal(bt.grad, g)

    def test_non_finite_output_raises(self):
        tape = Tape()
        with pytest.raises(NumericError):
            tape.sqrt(tape.constant(np.array([-1.0])))
        with pytest.raises(NumericError, match="exp"):  # overflow
            tape.exp(tape.constant(np.array([[1.0, 710.0]])))

    def test_non_finite_leaf_raises(self):
        tape = Tape()
        with pytest.raises(NumericError):
            tape.leaf(np.array([np.inf]))


class TestBackward:
    def test_mean_gradient(self):
        tape = Tape()
        x = tape.leaf(np.arange(5.0), requires_grad=True)
        tape.backward(tape.mean(x))
        assert np.allclose(x.grad, np.full(5, 0.2), atol=1e-15)

    def test_sum_sq_of_tanh_at_zero(self):
        tape = Tape()
        x = tape.leaf(np.zeros(4), requires_grad=True)
        tape.backward(tape.sum_sq(tape.tanh(x)))
        assert np.array_equal(x.grad, np.zeros(4))

    def test_quadratic_form_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 4))

        def f(tape, x):
            return tape.sum_sq(tape.matmul(tape.constant(a), x))

        assert grad_check(f, rng.normal(size=(4, 1)), 1e-4) < 1e-5

    def test_accumulation_for_reused_tensor(self):
        tape = Tape()
        x = tape.leaf(np.array([1.5, -2.0]), requires_grad=True)
        y = tape.add(x, x)
        tape.backward(tape.mean(y))
        assert np.allclose(x.grad, np.full(2, 1.0), atol=1e-15)

    def test_non_participating_tensor_gets_zeros(self):
        tape = Tape()
        x = tape.leaf(np.ones(3), requires_grad=True)
        unused = tape.leaf(np.ones(2), requires_grad=True)
        tape.backward(tape.mean(x))
        assert np.array_equal(unused.grad, np.zeros(2))

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        x = tape.leaf(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            tape.backward(tape.tanh(x))

    def test_loss_from_other_tape_rejected(self):
        tape1, tape2 = Tape(), Tape()
        x = tape1.leaf(np.ones(1), requires_grad=True)
        loss = tape1.mean(x)
        with pytest.raises(ValueError):
            tape2.backward(loss)

    def test_input_from_other_tape_rejected(self):
        tape1, tape2 = Tape(), Tape()
        x = tape1.leaf(np.ones(2))
        with pytest.raises(ValueError, match="tanh: input tensor belongs to a different tape"):
            tape2.tanh(x)  # tid 0 lies outside tape2
        own = tape2.leaf(np.ones(2))  # tid 0 on tape2, like x on tape1
        with pytest.raises(ValueError, match="add: input tensor belongs to a different tape"):
            tape2.add(own, x)
        assert len(tape2.nodes) == 0


def test_tape_freed_by_reference_counting():
    # Tensors hold no reference to their tape, so no cycle keeps a used tape
    # alive for the cyclic garbage collector to find.
    enabled = gc.isenabled()
    gc.disable()
    try:
        tape = Tape()
        x = tape.leaf(np.ones((2, 2)), requires_grad=True)
        tape.backward(tape.sum_sq(tape.tanh(tape.matmul(x, x))))
        ref = weakref.ref(tape)
        del tape
        assert ref() is None
        assert x.grad.shape == (2, 2)
    finally:
        if enabled:
            gc.enable()


# ----------------------------------------------------------------------
# finite-difference coverage of every op kind

# A block of L layers is L graph convolutions, whose (n, n) adj and (F, F) wgt
# are one layer each of the block's stacks. A graph convolution on its own is
# also checked, as a one-layer block.


def _kind_checks(kind: str):
    """Scalar-valued functions exercising one kind, plus a point factory."""
    rng_point = lambda rng, shape: rng.normal(size=shape)
    if kind == "matmul":
        def f(t, x):
            c = t.constant(np.linspace(-1, 1, 12).reshape(4, 3))
            return t.sum_sq(t.matmul(x, c))
        return f, lambda rng: rng_point(rng, (3, 4))
    if kind == "linear":  # x (2, 3), w (3, 4) and the bias row b (1, 4), cut from one x
        def f(t, x):
            return t.sum_sq(t.tanh(t.linear(*_cut(t, x, ((2, 3), (3, 4), (1, 4))))))
        return f, lambda rng: rng_point(rng, (1, 22))
    if kind == "add":
        def f(t, x):
            return t.sum_sq(t.add(x, t.constant(np.ones((2, 3)))))
        return f, lambda rng: rng_point(rng, (2, 3))
    if kind == "hadamard":
        def f(t, x):
            c = t.constant(np.linspace(0.5, 2.0, 6).reshape(2, 3))
            return t.sum_sq(t.hadamard(x, c))
        return f, lambda rng: rng_point(rng, (2, 3))
    if kind == "tanh":
        return (lambda t, x: t.sum_sq(t.tanh(x))), lambda rng: rng_point(rng, (2, 4))
    if kind == "softmax_lastdim":
        def f(t, x):
            c = t.constant(np.linspace(-1, 1, 8).reshape(2, 4))
            return t.sum_sq(t.hadamard(t.softmax_lastdim(x), c))
        return f, lambda rng: rng_point(rng, (2, 4))
    if kind == "mean":
        return (lambda t, x: t.mean(t.hadamard(x, x))), lambda rng: rng_point(rng, (3, 2))
    if kind == "sum_sq":
        return (lambda t, x: t.sum_sq(x)), lambda rng: rng_point(rng, (2, 3))
    if kind == "scale":
        return (lambda t, x: t.sum_sq(t.scale(x, -1.7))), lambda rng: rng_point(rng, (3,))
    if kind == "exp":
        return (lambda t, x: t.mean(t.exp(x))), lambda rng: 0.5 * rng_point(rng, (2, 3))
    if kind == "sqrt":
        return (lambda t, x: t.mean(t.sqrt(x))), \
            lambda rng: np.abs(rng_point(rng, (2, 3))) + 0.5
    if kind == "div":
        def f(t, x):
            num = t.gather([x], [0, 1], axis=-1)
            den = t.gather([x], [2, 3], axis=-1)
            return t.sum_sq(t.div(num, den))
        return f, lambda rng: np.hstack([rng.normal(size=(2, 2)),
                                         rng.uniform(0.5, 2.0, size=(2, 2))])
    if kind == "transpose":
        def f(t, x):
            c = t.constant(np.linspace(-1, 1, 6).reshape(2, 3))
            return t.sum_sq(t.matmul(t.transpose(x), c))
        return f, lambda rng: rng_point(rng, (2, 4))
    if kind == "reshape":
        return (lambda t, x: t.sum_sq(t.tanh(t.reshape(x, (2, 6))))), \
            lambda rng: rng_point(rng, (3, 4))
    if kind == "scalar_mul":
        def f(t, x):
            mat = t.reshape(t.gather([x], range(4), axis=-1), (2, 1, 2))
            s = t.reshape(t.gather([x], [4, 5], axis=-1), (2, 1, 1))
            return t.sum_sq(t.scalar_mul(mat, s))
        return f, lambda rng: rng_point(rng, (1, 6))
    if kind == "straight_through":
        return None  # piecewise-constant forward; covered by the ST property test
    if kind == "gather":  # along the other axes: TestGather
        return _gather_check(0), lambda rng: rng_point(rng, (3, 2))
    if kind == "sum_rows":
        return (lambda t, x: t.sum_sq(t.sum_rows(t.tanh(x)))), \
            lambda rng: rng_point(rng, (4, 2, 3))
    if kind in ("gc_block", "gc_layer"):  # two layers, and one on its own
        f, shapes = _block_check(2 if kind == "gc_block" else 1, (3, 4))
        return f, lambda rng: rng_point(rng, (1, _width(shapes)))
    raise AssertionError(f"no finite-difference coverage for kind {kind}")


def _gather_check(axis: int):
    """A scalar function of x gathering along axis from two parts, x and tanh(x),
    with one entry picked twice: its gradient adds up."""
    def f(t, x):
        n = x.shape[axis]
        return t.sum_sq(t.gather([x, t.tanh(x)], [n + 1, 0, 0, n - 1, 2 * n - 1], axis))
    return f


@pytest.mark.parametrize("kind", [k for k in OP_KINDS if k != "straight_through"]
                         + ["gc_layer"])
def test_every_kind_passes_finite_differences(kind):
    f, make_point = _kind_checks(kind)
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        assert grad_check(f, make_point(rng), 1e-4) < 1e-5, f"{kind} seed {seed}"


def _width(shapes) -> int:
    return sum(int(np.prod(shape)) for shape in shapes)


def _cut(t, x, shapes):
    """Tensors of these shapes cut, in order, from the last axis of a (1, W) x."""
    out, start = [], 0
    for shape in shapes:
        stop = start + int(np.prod(shape))
        out.append(t.reshape(t.gather([x], range(start, stop), axis=-1), shape))
        start = stop
    return out


def _block_shapes(n_layers: int, h_shape: tuple[int, ...]):
    """Operand shapes of a gc_block of n_layers layers on h (n, F) or (B, n, F):
    h, the (L, n, n) adjacencies and the (L, F, F) weights."""
    n, f = h_shape[-2:]
    return h_shape, (n_layers, n, n), (n_layers, f, f)


def _block_check(n_layers: int, h_shape: tuple[int, ...]):
    """A scalar function of a flat x holding every operand of a gc_block of
    n_layers layers, and the operand shapes."""
    shapes = _block_shapes(n_layers, h_shape)
    return (lambda t, x: t.sum_sq(t.gc_block(*_cut(t, x, shapes)))), shapes


def _batched_checks(case: str):
    """Scalar-valued functions over batched operands (leading axis of 3), plus
    the shape of the differentiated point."""
    c3 = np.linspace(-1, 1, 24).reshape(3, 2, 4)
    if case == "matmul_batch_by_shared":
        return (lambda t, x: t.sum_sq(t.matmul(x, t.constant(np.linspace(-1, 1, 12)
                                                             .reshape(4, 3))))), (3, 2, 4)
    if case == "matmul_shared_weight":  # x is used by every row: gradient summed
        return (lambda t, x: t.sum_sq(t.matmul(t.constant(c3), x))), (4, 3)
    if case == "matmul_shared_left":  # as an adjacency times node features
        return (lambda t, x: t.sum_sq(t.tanh(t.matmul(x, t.constant(c3))))), (2, 2)
    if case == "matmul_two_batched":
        return (lambda t, x: t.sum_sq(t.matmul(x, t.transpose(x)))), (3, 2, 4)
    if case == "linear_batch":  # x (3, 2, 3) and the bias row b (1, 4) used by every row
        return (lambda t, x: t.sum_sq(t.tanh(t.linear(
            *_cut(t, x, ((3, 2, 3), (3, 4), (1, 4))))))), (1, 34)
    if case == "add_shared":
        return (lambda t, x: t.sum_sq(t.tanh(t.add(t.constant(c3), x)))), (2, 4)
    if case == "add_batch":
        return (lambda t, x: t.sum_sq(t.tanh(t.add(x, t.constant(c3[0]))))), (3, 2, 4)
    if case == "add_row_to_rows":  # x (1, F) is added to every row
        return (lambda t, x: t.sum_sq(t.tanh(t.add(t.constant(c3[0]), x)))), (1, 4)
    if case == "add_row_to_batch":
        return (lambda t, x: t.sum_sq(t.tanh(t.add(x, t.constant(c3))))), (1, 4)
    if case == "hadamard_row":  # x is both the broadcast row and part of the other side
        return (lambda t, x: t.sum_sq(t.hadamard(t.tanh(t.add(t.constant(c3), x)), x))), \
            (1, 4)
    if case == "scalar_mul_per_row":
        def f(t, x):
            mat = t.reshape(t.gather([x], range(6), axis=-1), (3, 2, 3))
            s = t.reshape(t.gather([x], [6], axis=-1), (3, 1, 1))
            return t.sum_sq(t.scalar_mul(mat, s))
        return f, (3, 7)
    if case == "gc_layer_shared_weights":  # adj and wgt are used by every row
        f, shapes = _block_check(1, (3, 2, 4))
        return f, (1, _width(shapes))
    if case.startswith("gc_block_"):  # gc_block_{L}_layers
        f, shapes = _block_check(int(case.split("_")[2]), (3, 2, 4))
        return f, (1, _width(shapes))
    raise AssertionError(case)


BATCHED_CASES = ("matmul_batch_by_shared", "matmul_shared_weight", "matmul_shared_left",
                 "matmul_two_batched", "linear_batch", "add_shared", "add_batch",
                 "add_row_to_rows", "add_row_to_batch", "hadamard_row", "scalar_mul_per_row",
                 "gc_layer_shared_weights", "gc_block_2_layers", "gc_block_3_layers")


@pytest.mark.parametrize("case", BATCHED_CASES)
def test_batched_operands_pass_finite_differences(case):
    f, shape = _batched_checks(case)
    for seed in range(5):
        point = np.random.default_rng(2000 + seed).normal(size=shape)
        assert grad_check(f, point, 1e-4) < 1e-5, f"{case} seed {seed}"


# ----------------------------------------------------------------------
# the one-node block against the primitive composition it replaces

def gc_layer_reference(t, h, adj, wgt):
    return t.tanh(t.matmul(t.matmul(adj, h), wgt))


def gc_block_reference(t, h, layers):
    """gc_block composed of primitive kinds, for each layer's (adj, wgt) as
    tensors of their own."""
    for adj, wgt in layers:
        h = gc_layer_reference(t, h, adj, wgt)
    return h


# the default layout's branch sizes (24 whole-body, 15 and 9 part nodes) in a
# training batch of 32 and in a single request
DEFAULT_SIZES = [(1, 24, 32), (1, 15, 32), (1, 9, 32), (32, 15, 32), (32, 9, 32)]
DEFAULT_LAYERS = predictor.PredictorConfig().layers_per_block
# one layer on its own, a few, and the default block at the default model's
# sizes: a batch of 32 whole-body branches of 24 nodes at feature width 32
BLOCK_CASES = [(1, (5, 4)), (1, (3, 5, 4)), (2, (5, 4)), (2, (3, 5, 4)), (3, (3, 5, 8)),
               (DEFAULT_LAYERS, (32, 24, 32)), (DEFAULT_LAYERS, (24, 32))]
BLOCK_CASES += [(DEFAULT_LAYERS, shape) for shape in DEFAULT_SIZES]


def _run_block(operands, fused, trainable=None):
    """Values, operand gradients and the tape of a gc_block, or of its
    primitive composition, under a loss that weights every output element.
    The composition takes each matrix of a stack as a leaf of its own, and
    its gradients come back stacked. trainable flags which operands are
    gradient leaves (all by default); the others are constants and get no
    gradient."""
    t = Tape()
    trainable = trainable or [True] * len(operands)
    h = t.leaf(operands[0], requires_grad=trainable[0])
    if fused:
        stacks = [t.leaf(v, requires_grad=r) for v, r in zip(operands[1:], trainable[1:])]
        out = t.gc_block(h, *stacks)
    else:
        stacks = [[t.leaf(m, requires_grad=r) for m in v]
                  for v, r in zip(operands[1:], trainable[1:])]
        out = gc_block_reference(t, h, zip(*stacks))
    weight = np.random.default_rng(5).normal(size=out.shape)
    t.backward(t.sum_sq(t.hadamard(out, t.constant(weight))))
    grads = [x.grad if fused else None if x[0].grad is None
             else np.stack([m.grad for m in x]) for x in stacks]
    return out.values, [h.grad, *grads], t


def _assert_block_equals_composition(n_layers, h_shape, trainable=None):
    rng = np.random.default_rng(17)
    operands = [rng.normal(scale=0.7, size=shape) for shape in _block_shapes(n_layers, h_shape)]
    out, grads, tape = _run_block(operands, True, trainable)
    ref_out, ref_grads, ref_tape = _run_block(operands, False, trainable)
    assert np.array_equal(out, ref_out)
    for g, ref in zip(grads, ref_grads):
        assert (g is None and ref is None) or np.array_equal(g, ref)
    block = tape.nodes[-3]  # under hadamard and sum_sq
    assert block.kind == "gc_block"
    assert block.macs == tape.mac_count == ref_tape.mac_count > 0
    return grads


@pytest.mark.parametrize("n_layers,h_shape", BLOCK_CASES)
def test_gc_block_equals_its_composition_bit_for_bit(n_layers, h_shape):
    _assert_block_equals_composition(n_layers, h_shape)


# operand shapes of the two-operand elementwise kinds, broadcasts included
BINARY_SHAPES = {"add": ((3, 4, 5), (1, 5)), "hadamard": ((4, 5), (3, 4, 5)),
                 "scalar_mul": ((3, 4, 5), (3, 1, 1)), "div": ((4, 5), (4, 5))}


@pytest.mark.parametrize("trainable", [(True, False), (False, True)])
@pytest.mark.parametrize("kind", sorted(BINARY_SHAPES))
def test_binary_kind_computes_no_gradient_for_a_constant_operand(kind, trainable):
    rng = np.random.default_rng(24)
    values = [rng.uniform(1.0, 2.0, size=shape) for shape in BINARY_SHAPES[kind]]

    def slots(flags):
        t = Tape()
        out = getattr(t, kind)(*(t.leaf(v, requires_grad=f) for v, f in zip(values, flags)))
        return t.nodes[-1].backward_fn(np.random.default_rng(25).normal(size=out.shape))

    for got, want, needed in zip(slots(trainable), slots((True, True)), trainable):
        assert (got.tobytes() == want.tobytes()) if needed else got is None


def test_gc_block_computes_only_the_gradients_needed():
    # only the operands flagged trainable (h, adj, wgt) get a gradient, and
    # each equals the composition's
    for trainable in itertools.product((False, True), repeat=3):
        grads = _assert_block_equals_composition(2, (3, 5, 8), list(trainable))
        assert [g is not None for g in grads] == list(trainable)


def _with(values, index, value):
    out = np.array(values, dtype=float)
    out[index] = value
    return out


GRID = np.arange(12.0).reshape(3, 4)
FINITENESS_CASES = {
    "finite": GRID, "nan": _with(GRID, (1, 2), np.nan), "inf": _with(GRID, (0, 0), np.inf),
    "minus-inf": _with(GRID, (2, 3), -np.inf), "empty": np.empty((0, 3)),
    "0-d": np.array(2.5), "0-d-nan": np.array(np.nan),
    # a strided view that skips the infinity, and one that holds it
    "view-skipping-inf": _with(GRID, (0, 1), np.inf)[:, ::2],
    "view-holding-inf": _with(GRID, (0, 2), np.inf)[:, ::2],
    "transposed-nan": _with(GRID, (2, 1), np.nan).T,
    "subnormal": np.array([5e-324, -2.2e-308]), "max": np.array([np.finfo(float).max]),
}


@pytest.mark.parametrize("case", sorted(FINITENESS_CASES))
def test_all_finite_agrees_with_isfinite_all(case):
    values = FINITENESS_CASES[case]
    assert autodiff.all_finite(values) == np.isfinite(values).all()


@pytest.mark.parametrize("shape", [(3, 5), (1, 2, 24, 24), (1, 2, 9, 9), (32, 2, 15, 15)])
def test_softmax_equals_the_textbook_formula_bit_for_bit(shape):
    # ties and signed zeros in each row leave the row max's bytes to the reduction
    x = np.round(np.random.default_rng(11).normal(scale=4.0, size=shape))
    x[..., :2] = x[..., 2:4]
    x[..., 0] = -0.0
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    assert np.array_equal(_softmax(x), e / e.sum(axis=-1, keepdims=True))


def test_import_raises_no_warning():
    # numpy 2 warns on importing numpy.core, numpy 1.x lacks numpy._core
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-W", "error", "-c", "import moticomp.autodiff"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stderr == ""


def test_gc_layer_raises_on_an_overflow_tanh_would_hide():
    h, adj = np.full((2, 3), 1e307), np.eye(2)
    wgt = np.full((3, 3), 10.0)
    with np.errstate(over="ignore"):
        assert np.isfinite(np.tanh(adj @ h @ wgt)).all()  # tanh(inf) is 1
    tape = Tape()
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="gc_block gc0 pre-tanh"):
        tape.gc_block(tape.constant(h), tape.constant(adj[None]), tape.constant(wgt[None]))
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="gc_block gc1 pre-tanh"):
        # the second layer's adj @ h overflows before its weight is applied
        tape.gc_block(tape.constant(np.ones((2, 3))),
                      tape.constant(np.stack([np.eye(2), np.full((2, 2), 1.5e308)])),
                      tape.constant(np.stack([np.eye(3)] * 2)))
    assert tape.nodes == []


def _refused(h_shape, adj_shape, wgt_shape):
    """gc_block on zero operands of these shapes raises one ShapeError naming
    every shape, and records nothing."""
    tape = Tape()
    with pytest.raises(ShapeError, match="gc_block operands do not conform") as caught:
        tape.gc_block(*(tape.constant(np.zeros(s)) for s in (h_shape, adj_shape, wgt_shape)))
    assert str(caught.value) == (
        f"gc_block operands do not conform: h {h_shape}, adj {adj_shape}, wgt {wgt_shape}")
    assert tape.nodes == []


def test_gc_block_steps_checked():
    # no layer, and a layer's matrices without their stack axis
    _refused((3, 4), (0, 3, 3), (0, 4, 4))
    _refused((3, 4), (3, 3), (4, 4))


BLOCK_SHAPE_FAULTS = {
    "adj-of-another-depth": ((3, 4), (2, 3, 3), (3, 4, 4)),
    "wgt-of-another-depth": ((3, 4), (3, 3, 3), (2, 4, 4)),
    "adj-of-another-node-count": ((3, 4), (2, 4, 4), (2, 4, 4)),
}


@pytest.mark.parametrize("case", sorted(BLOCK_SHAPE_FAULTS))
def test_gc_block_operands_checked_up_front(case):
    _refused(*BLOCK_SHAPE_FAULTS[case])


@pytest.mark.parametrize("h_shape,adj_shape,wgt_shape", [
    ((3, 4), (1, 3, 3), (1, 5, 4)),  # the weight, after a sound adj @ h
    ((4, 3, 4), (1, 1, 3, 3), (1, 4, 4)),  # a batch numpy would broadcast
    ((1, 2, 3, 4), (1, 3, 3), (1, 4, 4)),  # a rank the tape has no rule for
])
def test_gc_step_shapes_follow_the_matmul_rule(h_shape, adj_shape, wgt_shape):
    _refused(h_shape, adj_shape, wgt_shape)


def _gc_step_gradients(shape, trainable):
    """h, adj and wgt gradients of a one-layer graph-conv gc_block on h of this
    shape, for the operands flagged trainable, under a random output gradient:
    the operands of test_block_step_gradients_equal_the_per_sample_sums."""
    rng = np.random.default_rng(92)
    h, g = rng.normal(size=shape), rng.normal(size=shape)
    rng = np.random.default_rng(93)
    operands = [rng.normal(scale=0.3, size=s) for s in _block_shapes(1, shape)[1:]]
    t = Tape()
    t.gc_block(*(t.leaf(v, requires_grad=r) for v, r in zip((h, *operands), trainable)))
    return t.nodes[-1].backward_fn(g)


GC_STEP_FLAGS = [(True, True, True), (True, False, False), (False, True, False),
                 (False, False, True)]


def test_gc_step_gradients_keep_their_bytes():
    # at the default model's widths, for each operand that needs a gradient
    # alone and for all three
    digest = hashlib.sha256()
    for shape in SHARED_WEIGHT_SHAPES:
        for flags in GC_STEP_FLAGS:
            for grad, needed in zip(_gc_step_gradients(shape, flags), flags):
                assert (grad is not None) == needed
                digest.update(grad.tobytes() if needed else b"none")
    assert digest.hexdigest() == (
        "eeff1033b25857f9320e792b8939278bfd08b81b2d5c9ee470f3093a05422bc4")


def test_gc_step_without_gradient_keeps_no_backward_and_no_product(monkeypatch):
    # a default block on a constant batch: no step builds a backward, and the
    # tape keeps the output alone, not the adj @ h product of any layer
    rng = np.random.default_rng(98)
    operands = [rng.normal(scale=0.3, size=shape)
                for shape in _block_shapes(DEFAULT_LAYERS, (32, 24, 32))]
    calls = []
    monkeypatch.setattr(autodiff, "_gc_layer", lambda *args: calls.append(args))
    t = Tape()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = t.gc_block(*(t.constant(v) for v in operands))
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert calls == [] and t.nodes[-1].backward_fn is None
    assert kept < 2 * out.values.nbytes
    # trainable weights on a constant input: every layer keeps a backward,
    # and the second one holds its adj @ h product
    t = Tape()
    monkeypatch.undo()
    t.gc_block(t.constant(operands[0]), t.constant(operands[1]),
               t.leaf(operands[2], requires_grad=True))
    cells = dict(zip(t.nodes[-1].backward_fn.__code__.co_freevars,
                     (c.cell_contents for c in t.nodes[-1].backward_fn.__closure__)))
    backs = cells["steps"]
    assert all(back is not None for back in backs)
    h, adj, wgt = operands
    t = Tape()  # the first layer
    first = t.gc_block(*(t.constant(v) for v in (h, adj[:1], wgt[:1])))
    ah = adj[1] @ first.values
    held = [c.cell_contents for c in backs[1].__closure__]
    assert any(isinstance(v, np.ndarray) and np.array_equal(v, ah) for v in held)


class TestLinear:
    """x @ w + b as one node: the values, gradients and MACs of the matmul
    and add pair it replaces, checked once."""

    @staticmethod
    def run(x_shape, pair):
        rng = np.random.default_rng(99)
        t = Tape()
        x = t.leaf(rng.normal(size=x_shape), requires_grad=True)
        w = t.leaf(rng.normal(size=(x_shape[-1], 4)), requires_grad=True)
        b = t.leaf(rng.normal(size=(1, 4)), requires_grad=True)
        out = t.add(t.matmul(x, w), b) if pair else t.linear(x, w, b)
        t.backward(t.sum_sq(t.tanh(out)))
        return out.values, [v.grad for v in (x, w, b)], t

    @pytest.mark.parametrize("x_shape", [(5, 3), (2, 5, 3), (32, 24, 32)])
    def test_equals_the_matmul_add_pair_bit_for_bit(self, x_shape):
        out, grads, tape = self.run(x_shape, False)
        ref_out, ref_grads, ref_tape = self.run(x_shape, True)
        assert out.tobytes() == ref_out.tobytes()
        for g, ref in zip(grads, ref_grads):
            assert g.tobytes() == ref.tobytes()
        assert [n.kind for n in tape.nodes] == ["linear", "tanh", "sum_sq"]
        assert tape.nodes[0].macs == ref_tape.nodes[0].macs == tape.mac_count > 0
        assert ref_tape.nodes[0].kind == "matmul"

    @pytest.mark.parametrize("x,w,b", [
        ([[1e200, 1e200]], [[1e200], [1e200]], [[0.0]]),  # x @ w overflows
        ([[1.5e308]], [[1.0]], [[1.5e308]]),                # the bias sum overflows
    ], ids=["product", "bias-sum"])
    def test_overflow_raises_naming_the_kind(self, x, w, b):
        tape = Tape()
        with np.errstate(all="ignore"), pytest.raises(
                NumericError, match="linear produced non-finite values"):
            tape.linear(*(tape.constant(np.array(v)) for v in (x, w, b)))
        assert tape.nodes == []

    @pytest.mark.parametrize("x_shape,w_shape,b_shape,match", [
        ((5, 3), (4, 4), (1, 4), r"linear shapes \(5, 3\) x \(4, 4\) do not conform"),
        ((5, 3), (3, 4), (1, 5), r"linear shapes \(5, 4\) vs bias \(1, 5\)"),
        ((5, 3), (3, 4), (5, 1), r"linear shapes \(5, 4\) vs bias \(5, 1\)"),
        ((2, 5, 3), (3, 4), (2, 1, 4), r"linear shapes \(2, 5, 4\) vs bias \(2, 1, 4\)"),
    ])
    def test_shapes_checked_naming_the_kind(self, x_shape, w_shape, b_shape, match):
        tape = Tape()
        with pytest.raises(ShapeError, match=match):
            tape.linear(*(tape.constant(np.zeros(s)) for s in (x_shape, w_shape, b_shape)))
        assert tape.nodes == []


GATHER_AXES = (0, -2, -1)  # the batch, node and last axes the pipeline gathers along
GATHER_BAD_INDICES = ([], [3], [-1], [[0]])  # empty, past the end, negative, not 1-D


class TestGather:
    @pytest.mark.parametrize("n_parts", [1, 3])
    @pytest.mark.parametrize("axis", GATHER_AXES)
    def test_values_equal_take_of_the_concatenation(self, axis, n_parts):
        rng = np.random.default_rng(3)
        arrays = []
        for i in range(n_parts):
            shape = [2, 3, 4]
            shape[axis] = i + 2
            arrays.append(rng.normal(size=shape))
        joined = np.concatenate(arrays, axis=axis)
        index = rng.integers(0, joined.shape[axis], size=7)  # with repeats
        tape = Tape()
        out = tape.gather([tape.constant(a) for a in arrays], index, axis)
        assert np.array_equal(out.values, np.take(joined, index, axis=axis))
        assert out.values.flags.c_contiguous

    @pytest.mark.parametrize("axis", GATHER_AXES[1:])  # axis 0: the kind's check above
    def test_passes_finite_differences(self, axis):
        for seed in range(5):
            point = np.random.default_rng(3000 + seed).normal(size=(2, 3, 4))
            assert grad_check(_gather_check(axis), point, 1e-4) < 1e-5, (axis, seed)

    @pytest.mark.parametrize("index", GATHER_BAD_INDICES)
    @pytest.mark.parametrize("axis", GATHER_AXES[1:])  # axis 0: TestBatchAxis
    def test_index_checked(self, axis, index):
        tape = Tape()
        with pytest.raises(ShapeError, match="gather index"):
            tape.gather([tape.constant(np.zeros((2, 3, 3)))], index, axis)

    @pytest.mark.parametrize("axis", GATHER_AXES)
    def test_parts_must_differ_only_along_the_axis(self, axis):
        tape = Tape()
        a = tape.constant(np.zeros((2, 3, 4)))
        shape = [2, 3, 4]
        shape[(axis + 1) % 3] += 1
        for parts in ([a, tape.constant(np.zeros(shape))],  # another size off the axis
                      [a, tape.constant(np.zeros((3, 4)))]):  # another number of axes
            with pytest.raises(ShapeError, match="gather needs parts"):
                tape.gather(parts, [0], axis)
        assert tape.nodes == []

    def test_no_parts_or_an_axis_they_lack_rejected(self):
        tape = Tape()
        a = tape.constant(np.zeros((2, 3, 4)))
        for parts, axis in (([], 0), ([a], 3), ([a], -4)):
            with pytest.raises(ShapeError, match="gather along axis"):
                tape.gather(parts, [0], axis)

    @pytest.mark.parametrize("repeats", [False, True])
    @pytest.mark.parametrize("axis", GATHER_AXES)
    def test_gradient_bytes_equal_add_at(self, axis, repeats):
        # unique indices scatter by assignment, repeated ones by np.add.at;
        # both give np.add.at's bytes, where a -0.0 gradient entry lands as +0.0
        rng = np.random.default_rng(5)
        parts = [rng.normal(size=(4, 5, 6)) for _ in range(2)]
        n = 2 * parts[0].shape[axis]
        index = rng.permutation(n)[:n - 2]
        if repeats:
            index[-1] = index[0]
        tape = Tape()
        out = tape.gather([tape.leaf(p, requires_grad=True) for p in parts], index, axis)
        g = rng.normal(size=out.shape)
        g.flat[::3] = -0.0
        grads = tape.nodes[-1].backward_fn(g)
        full = np.zeros(np.concatenate(parts, axis=axis).shape)
        np.add.at(full, (slice(None),) * (axis % 3) + (index,), g)
        expected = np.split(full, 2, axis=axis)
        for got, want in zip(grads, expected, strict=True):
            assert got.tobytes() == want.tobytes()
            assert not np.signbit(got[got == 0.0]).any()


class TestSharedConstants:
    """A constant that belongs to no tape: every tape reads it, none owns it."""

    def test_every_tape_reads_it_and_none_gives_it_a_grad(self):
        c = shared_constant(freeze(np.arange(6.0).reshape(2, 3), "c"))
        assert c.tid == SHARED and not c.requires_grad
        for _ in range(2):
            tape = Tape()
            x = tape.leaf(np.ones((2, 3)), requires_grad=True)
            loss = tape.sum_sq(tape.hadamard(x, c))
            tape.backward(loss)
            assert np.array_equal(x.grad, 2.0 * c.values * c.values)
            assert c.grad is None
            assert loss.grad.shape == () and loss.grad == 1.0  # its tid indexes nothing
            assert all(t is not c for t in tape.tensors)

    def test_a_tensor_of_another_tape_still_raises(self):
        c = shared_constant(freeze(np.ones(2), "c"))
        tape1, tape2 = Tape(), Tape()
        x = tape1.leaf(np.ones(2))
        with pytest.raises(ValueError, match="add: input tensor belongs to a different tape"):
            tape2.add(c, x)
        with pytest.raises(ValueError, match="loss tensor was not produced on this tape"):
            tape2.backward(c)  # on an empty tape
        tape2.leaf(np.ones(1))
        with pytest.raises(ValueError, match="loss tensor was not produced on this tape"):
            tape2.backward(c)  # its tid is not an index into the tape's tensors

    def test_only_a_frozen_array_is_shared(self):
        # read-only, but strided or not float64
        for values in (freeze(np.zeros((3, 2)), "m").T, np.zeros(3, dtype=np.float32)):
            values.flags.writeable = False
            with pytest.raises(ValueError, match="needs an array that freeze made"):
                shared_constant(values)
        with pytest.raises(ValueError, match="needs an array that freeze made"):
            shared_constant(np.zeros(3))  # writeable


class TestBatchAxis:
    """A batched op computes, row by row, what the op computes on one sample."""

    def test_rows_equal_single_sample_ops(self):
        rng = np.random.default_rng(11)
        x, w, adj = rng.normal(size=(4, 3, 5)), rng.normal(size=(5, 2)), rng.normal(size=(3, 3))
        s = rng.normal(size=(4, 1, 1))
        tape = Tape()
        xt, wt, at = tape.constant(x), tape.constant(w), tape.constant(adj)
        outs = {"xw": tape.matmul(xt, wt), "ax": tape.matmul(at, xt),
                "xxt": tape.matmul(xt, tape.transpose(xt)), "xt": tape.transpose(xt),
                "st": tape.straight_through(xt),
                "sx": tape.scalar_mul(xt, tape.constant(s))}
        for b in range(4):
            one = Tape()
            xb = one.constant(x[b])
            expected = {"xw": one.matmul(xb, one.constant(w)),
                        "ax": one.matmul(one.constant(adj), xb),
                        "xxt": one.matmul(xb, one.transpose(xb)), "xt": one.transpose(xb),
                        "st": one.straight_through(xb),
                        "sx": one.reshape(one.scalar_mul(one.constant(x[b:b + 1]),
                                                         one.constant(s[b:b + 1])), (3, 5))}
            for name, out in outs.items():
                assert np.array_equal(out.values[b], expected[name].values), (name, b)

    def test_batched_matmul_counts_every_row(self):
        tape = Tape()
        tape.matmul(tape.constant(np.zeros((6, 3, 4))), tape.constant(np.zeros((4, 5))))
        assert tape.mac_count == 6 * 3 * 4 * 5
        tape.matmul(tape.constant(np.zeros((6, 3, 4))), tape.constant(np.zeros((6, 4, 2))))
        assert tape.mac_count == 6 * 3 * 4 * 5 + 6 * 3 * 4 * 2

    def test_gather_rows_picks_rows_of_stacked_parts(self):
        tape = Tape()
        a = tape.constant(np.arange(6.0).reshape(3, 2))
        b = tape.constant(-np.arange(4.0).reshape(2, 2))
        out = tape.gather([a, b], [3, 0, 4])  # along axis 0
        assert np.array_equal(out.values, [[-0.0, -1.0], [0.0, 1.0], [-2.0, -3.0]])
        assert np.array_equal(tape.sum_rows(out).values, [-2.0, -3.0])

    @pytest.mark.parametrize("shapes", [((2, 3, 4), (3, 4, 2)), ((2, 3), (4, 2, 3))])
    def test_matmul_batch_or_inner_mismatch_rejected(self, shapes):
        tape = Tape()
        with pytest.raises(ShapeError):
            tape.matmul(tape.constant(np.zeros(shapes[0])), tape.constant(np.zeros(shapes[1])))

    def test_add_and_hadamard_refuse_shapes_outside_the_rule(self):
        # a (rows, 1) column, a row of the wrong width, and a 3-D (B, 1, F) row
        tape = Tape()
        for op in (tape.add, tape.hadamard):
            for a, b in (((2, 3), (2, 1)), ((2, 3), (1, 4)), ((4, 2, 3), (4, 1, 3))):
                for x, y in ((a, b), (b, a)):
                    with pytest.raises(ShapeError):
                        op(tape.constant(np.zeros(x)), tape.constant(np.zeros(y)))

    def test_scalar_mul_needs_one_element_per_row(self):
        tape = Tape()
        with pytest.raises(ShapeError):
            tape.scalar_mul(tape.constant(np.zeros((4, 2, 3))), tape.constant(np.ones((4, 1, 3))))
        with pytest.raises(ShapeError):
            tape.scalar_mul(tape.constant(np.zeros((4, 2, 3))), tape.constant(np.ones((2, 1, 1))))
        with pytest.raises(ShapeError):  # one element for the whole batch
            tape.scalar_mul(tape.constant(np.zeros((4, 2, 3))), tape.constant(np.ones((1, 1))))

    @pytest.mark.parametrize("index", GATHER_BAD_INDICES)
    def test_gather_rows_index_checked(self, index):
        tape = Tape()
        with pytest.raises(ShapeError, match="gather index"):
            tape.gather([tape.constant(np.zeros((3, 2)))], index)



def _assert_within_rounding(got, want):
    """Equal up to the rounding of a reordered sum: within 1e-13 of want's
    largest magnitude."""
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _per_sample_step(h, g, seed):
    """The input and operand gradients of a one-layer gc_block on h (B, n, F)
    under output gradient g, batched, and the same summed sample by sample:
    each sample runs as an (n, F) matrix, whose products with the shared
    weights are 2-D and take a_b^T g_b and g_b @ W^T."""
    rng = np.random.default_rng(seed)
    operands = [rng.normal(scale=0.3, size=shape) for shape in _block_shapes(1, h.shape)[1:]]

    def grads(hv, gv):
        t = Tape()
        t.gc_block(*(t.leaf(v, requires_grad=True) for v in (hv, *operands)))
        return t.nodes[-1].backward_fn(gv)

    batched = grads(h, g)
    samples = [grads(h[b], g[b]) for b in range(len(h))]
    reference = [np.stack([s[0] for s in samples])]
    reference += [sum(s[i] for s in samples) for i in range(1, len(batched))]
    return batched, reference


# the batched products of a training minibatch: B samples of n nodes at width F
SHARED_WEIGHT_SHAPES = [(b, n, 32) for b in (1, 3, 32) for n in (9, 15, 24)]


class TestSharedWeightGradients:
    """A batched operand times a shared 2-D weight takes both gradients as one
    product over the batch's rows flattened; they equal the per-sample
    gradients up to the order of the sums."""

    @pytest.mark.parametrize("shape", SHARED_WEIGHT_SHAPES)
    def test_matmul_grads_equal_the_per_sample_sums(self, shape):
        rng = np.random.default_rng(90)
        a, w = rng.normal(size=shape), rng.normal(size=(shape[-1], 32))
        g = rng.normal(size=shape[:-1] + (32,))
        g_a, g_w = _matmul_grads(g, a, w, True, True)
        _assert_within_rounding(g_a, np.stack([g_b @ w.T for g_b in g]))
        _assert_within_rounding(g_w, sum(a_b.T @ g_b for a_b, g_b in zip(a, g)))

    @pytest.mark.parametrize("shape", SHARED_WEIGHT_SHAPES)
    def test_linear_gradients_equal_the_per_sample_sums(self, shape):
        rng = np.random.default_rng(91)
        t = Tape()
        x = t.leaf(rng.normal(size=shape), requires_grad=True)
        w = t.leaf(rng.normal(size=(shape[-1], 32)), requires_grad=True)
        b = t.leaf(rng.normal(size=(1, 32)), requires_grad=True)
        out = t.linear(x, w, b)
        t.backward(t.sum_sq(out))
        g = 2.0 * out.values
        _assert_within_rounding(x.grad, np.stack([g_b @ w.values.T for g_b in g]))
        _assert_within_rounding(w.grad, sum(x_b.T @ g_b for x_b, g_b in zip(x.values, g)))

    @pytest.mark.parametrize("shape", SHARED_WEIGHT_SHAPES)
    def test_block_step_gradients_equal_the_per_sample_sums(self, shape):
        rng = np.random.default_rng(92)
        h, g = rng.normal(size=shape), rng.normal(size=shape)
        batched, reference = _per_sample_step(h, g, 93)
        assert len(batched) == 3
        for got, want in zip(batched, reference):
            _assert_within_rounding(got, want)

    def test_two_backward_passes_are_bit_equal(self):
        rng = np.random.default_rng(94)
        operands = [rng.normal(scale=0.3, size=shape)
                    for shape in _block_shapes(DEFAULT_LAYERS, (32, 24, 32))]
        _, first, _ = _run_block(operands, True)
        _, second, _ = _run_block(operands, True)
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()

    def test_two_dimensional_products_keep_the_transposed_formula(self):
        # as in the VAE: a (batch, in) matrix times an (in, out) weight
        rng = np.random.default_rng(95)
        a, w, g = rng.normal(size=(32, 600)), rng.normal(size=(600, 256)), rng.normal(size=(32, 256))
        g_a, g_w = _matmul_grads(g, a, w, True, True)
        assert g_a.tobytes() == (g @ np.swapaxes(w, -1, -2)).tobytes()
        assert g_w.tobytes() == (np.swapaxes(a, -1, -2) @ g).tobytes()

    def test_elementwise_backward_keeps_its_bytes(self):
        rng = np.random.default_rng(96)
        g, y = rng.normal(size=(32, 2, 24, 24)), np.tanh(rng.normal(size=(32, 2, 24, 24)))
        assert _tanh_grad(g, y).tobytes() == (g * (1.0 - y * y)).tobytes()
        p = np.exp(y) / np.exp(y).sum(axis=-1, keepdims=True)
        want = p * (g - np.sum(g * p, axis=-1, keepdims=True))
        assert _softmax_grad(g, p).tobytes() == want.tobytes()

    def test_weight_gradient_builds_no_per_sample_stack(self):
        # a (B, F, F) stack of per-sample products would take B * F * F * 8 bytes
        rng = np.random.default_rng(97)
        t = Tape()
        t.matmul(t.constant(rng.normal(size=(32, 24, 32))),
                 t.leaf(rng.normal(size=(32, 32)), requires_grad=True))
        backward, g = t.nodes[-1].backward_fn, rng.normal(size=(32, 24, 32))
        tracemalloc.start()
        try:
            g_a, g_w = backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g_a is None and g_w.shape == (32, 32)
        assert peak < 32 * 32 * 32 * 8


def test_straight_through_gradient_equals_soft_gradient():
    # d/dlogits sum(c * st(softmax(logits))) must equal d/dlogits sum(c * softmax(logits))
    rng = np.random.default_rng(42)
    c = rng.normal(size=(1, 4))
    logits = rng.normal(size=(1, 4))

    def grad_of(use_hard: bool) -> np.ndarray:
        tape = Tape()
        x = tape.leaf(logits, requires_grad=True)
        soft = tape.softmax_lastdim(x)
        chosen = tape.straight_through(soft) if use_hard else soft
        weighted = tape.hadamard(chosen, tape.constant(c))
        tape.backward(tape.scale(tape.mean(weighted), weighted.size))
        return x.grad.copy()

    assert np.array_equal(grad_of(True), grad_of(False))

    def soft_path(tape, x):
        weighted = tape.hadamard(tape.softmax_lastdim(x), tape.constant(c))
        return tape.scale(tape.mean(weighted), weighted.size)

    assert grad_check(soft_path, logits, 1e-4) < 1e-5


def test_determinism_of_forward_and_gradients():
    def run():
        rng = np.random.default_rng(7)
        tape = Tape()
        x = tape.leaf(rng.normal(size=(4, 4)), requires_grad=True)
        w = tape.leaf(rng.normal(size=(4, 2)), requires_grad=True)
        loss = tape.sum_sq(tape.tanh(tape.matmul(x, w)))
        tape.backward(loss)
        return loss.item(), x.grad.copy(), w.grad.copy()

    l1, gx1, gw1 = run()
    l2, gx2, gw2 = run()
    assert l1 == l2
    assert np.array_equal(gx1, gx2)
    assert np.array_equal(gw1, gw2)


def test_matmul_mac_counting():
    tape = Tape()
    a = tape.constant(np.zeros((3, 4)))
    b = tape.constant(np.zeros((4, 5)))
    tape.matmul(a, b)
    assert tape.mac_count == 3 * 4 * 5
    tape.tanh(a)  # activations contribute nothing
    assert tape.mac_count == 3 * 4 * 5


def test_op_kinds_cover_every_kind_the_pipeline_records(monkeypatch):
    """OP_KINDS is the set of kinds recorded by a predict tape, a batched
    training tape that takes every exit and a VAE training step: each recorded
    kind has a finite-difference check above, and each listed kind has a caller
    in the pipeline. It is also the set of public Tape methods less NOT_OPS, so
    an operation that nothing records fails here."""
    tapes = []
    init = Tape.__init__

    def recording_init(self):
        init(self)
        tapes.append(self)

    layout = PartLayout.from_skeleton(Skeleton(parent=(0, 0, 0, 2),
                                               part_of=(LOWER, LOWER, UPPER, UPPER)))
    config = predictor.PredictorConfig(input_frames=8, output_frames=4, feature_width=8,
                                       policy_hidden=4,
                                       coeff_scale=10.0, zero_output_decoders=False)
    model = training.init_predictor_model(np.random.default_rng(0), layout, config)
    rng = np.random.default_rng(1)
    seqs = [MotionSequence(data=rng.normal(scale=10.0, size=(12, layout.size)),
                           fps=10.0, label="a") for _ in range(8)]
    monkeypatch.setattr(Tape, "__init__", recording_init)
    kinds = {}
    predictor.predict(model.params, MotionSequence(data=seqs[0].data[:8], fps=10.0),
                      (3, 3, 3))
    kinds["predict"] = {node.kind for tape in tapes for node in tape.nodes}
    tapes.clear()
    result = training.train_predictor(model, seqs, [], training.TrainConfig(
        epochs=1, constrain_epochs=1, batch_size=8))
    assert min(result.history[0].exit_counts) > 0
    kinds["train"] = {node.kind for tape in tapes for node in tape.nodes}
    tapes.clear()
    vae.train_cag([MotionSequence(data=s.data[:, :6], fps=10.0) for s in seqs[:2]],
                  vae.CagTrainConfig(epochs=1, batch_size=2, latent_dim=2, hidden_dims=(4,)))
    kinds["train_cag"] = {node.kind for tape in tapes for node in tape.nodes}
    for source, recorded in kinds.items():
        assert recorded and recorded <= set(OP_KINDS), (source, recorded - set(OP_KINDS))
    unused = set(OP_KINDS) - set().union(*kinds.values())
    assert not unused, unused
    public = {name for name, attr in vars(Tape).items()
              if callable(attr) and not name.startswith("_")}
    assert public - set(NOT_OPS) == set(OP_KINDS)
