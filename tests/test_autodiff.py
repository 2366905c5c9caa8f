import gc
import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest

from gradcheck import TestGradCheck, grad_check  # noqa: F401 (TestGradCheck runs here)
from moticomp import autodiff, predictor, training, vae
from moticomp.autodiff import (SHARED, Tape, _matmul_grads, _softmax_grad, _tanh_grad, freeze,
                               shared_constant)
from moticomp.errors import NumericError, ShapeError
from moticomp.layers import linear
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

# A block layout is a string of steps: "g" a graph convolution with operands
# (n, n) adj and (F, F) wgt, "a" an attention with four (F, F) projections.
# Each step kind is also checked on its own, as a one-step gc_block.
LAYERS = {"gc_layer": "g", "self_attention": "a"}


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
    if kind == "gc_block":  # more layouts: test_batched_operands_pass_finite_differences
        f, shapes = _block_check("gag", (3, 4), heads=2)
        return f, lambda rng: rng_point(rng, (1, _width(shapes)))
    if kind in LAYERS:  # one step of a gc_block on its own
        f, shapes = _block_check(LAYERS[kind], (3, 4), heads=2)
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
                         + list(LAYERS))
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


def _block_shapes(layout: str, h_shape: tuple[int, ...]):
    """Operand shapes of a gc_block of this layout on h (n, F) or (B, n, F):
    h, then each step's operands in order."""
    n, f = h_shape[-2:]
    step = {"g": ((n, n), (f, f)), "a": ((f, f),) * 4}
    return (h_shape,) + tuple(shape for s in layout for shape in step[s])


def _steps(layout: str, operands):
    """The operands after h grouped into the steps of layout."""
    steps, start = [], 0
    for s in layout:
        stop = start + (2 if s == "g" else 4)
        steps.append(tuple(operands[start:stop]))
        start = stop
    return steps


def _block_check(layout: str, h_shape: tuple[int, ...], heads: int = 1):
    """A scalar function of a flat x holding every operand of a gc_block of this
    layout, the projections scaled down to keep the softmax away from
    saturation. Returns it with the operand shapes."""
    shapes = _block_shapes(layout, h_shape)

    def block(t, x):
        h, *operands = _cut(t, x, shapes)
        steps = [step if len(step) == 2 else tuple(t.scale(w, 0.5) for w in step)
                 for step in _steps(layout, operands)]
        return t.sum_sq(t.gc_block(h, steps, heads))

    return block, shapes


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
        f, shapes = _block_check("g", (3, 2, 4))
        return f, (1, _width(shapes))
    if case.startswith("self_attention_heads"):
        f, shapes = _block_check("a", (3, 2, 4), heads=int(case[-1]))
        return f, (1, _width(shapes))
    if case.startswith("gc_block_"):  # gc_block_{layout}_heads{n}
        _, _, layout, heads = case.split("_")
        f, shapes = _block_check(layout, (3, 2, 4), heads=int(heads[-1]))
        return f, (1, _width(shapes))
    raise AssertionError(case)


BATCHED_CASES = ("matmul_batch_by_shared", "matmul_shared_weight", "matmul_shared_left",
                 "matmul_two_batched", "linear_batch", "add_shared", "add_batch",
                 "add_row_to_rows", "add_row_to_batch", "hadamard_row", "scalar_mul_per_row",
                 "gc_layer_shared_weights", "self_attention_heads1", "self_attention_heads2",
                 "gc_block_gg_heads1", "gc_block_gaga_heads2", "gc_block_agg_heads4")


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


def self_attention_reference(t, h, wq, wk, wv, wo, heads):
    f = h.shape[-1]
    dh = f // heads
    q, k, v = t.matmul(h, wq), t.matmul(h, wk), t.matmul(h, wv)
    contexts = []
    for i in range(heads):
        qs, ks, vs = (t.gather([m], range(i * dh, (i + 1) * dh), axis=-1) for m in (q, k, v))
        scores = t.scale(t.matmul(qs, t.transpose(ks)), 1.0 / np.sqrt(dh))
        contexts.append(t.matmul(t.softmax_lastdim(scores), vs))
    ctx = t.gather(contexts, range(f), axis=-1)  # the heads joined along the last axis
    return t.add(h, t.matmul(ctx, wo))


def gc_block_reference(t, h, steps, heads):
    for step in steps:
        h = (gc_layer_reference(t, h, *step) if len(step) == 2
             else self_attention_reference(t, h, *step, heads))
    return h


# a one-layer block of each layer kind
LAYER_CASES = [("gc_layer", (5, 4), 1), ("gc_layer", (3, 5, 4), 1),
               ("self_attention", (5, 4), 1), ("self_attention", (5, 4), 2),
               ("self_attention", (3, 5, 4), 1), ("self_attention", (3, 5, 8), 2),
               ("self_attention", (3, 5, 8), 4),
               # the default model's sizes: a batch of 32 whole-body branches of
               # 24 nodes at feature width 32, where a strided operand in the
               # backward changes the last bits
               ("self_attention", (32, 24, 32), 1), ("self_attention", (32, 24, 32), 2),
               ("self_attention", (32, 24, 32), 4), ("self_attention", (24, 32), 2)]
DEFAULT_BLOCK = "ggggagggga"  # PredictorConfig(): attention after layers 4 and 8
BLOCK_CASES = [("gg", (5, 4), 1), ("gg", (3, 5, 4), 1), ("ga", (5, 4), 2),
               ("ag", (3, 5, 8), 4), ("gaga", (3, 5, 8), 2), ("gaga", (5, 8), 4),
               ("gag", (3, 5, 8), 1),
               (DEFAULT_BLOCK, (32, 24, 32), 2), (DEFAULT_BLOCK, (24, 32), 2),
               (DEFAULT_BLOCK, (32, 24, 32), 1), (DEFAULT_BLOCK, (32, 24, 32), 4)]


def _run_block(layout, operands, heads, fused, trainable=None):
    """Values, input gradients and the tape of a gc_block, or of its primitive
    composition, under a loss that weights every output element. trainable
    flags which operands are gradient leaves (all by default); the others are
    constants and get no gradient."""
    t = Tape()
    trainable = trainable or [True] * len(operands)
    xs = [t.leaf(v, requires_grad=r) for v, r in zip(operands, trainable)]
    steps = _steps(layout, xs[1:])
    out = (t.gc_block(xs[0], steps, heads) if fused
           else gc_block_reference(t, xs[0], steps, heads))
    weight = np.random.default_rng(5).normal(size=out.shape)
    t.backward(t.sum_sq(t.hadamard(out, t.constant(weight))))
    return out.values, [x.grad for x in xs], t


def _assert_block_equals_composition(layout, h_shape, heads, trainable=None):
    rng = np.random.default_rng(17)
    operands = [rng.normal(scale=0.7, size=shape) for shape in _block_shapes(layout, h_shape)]
    out, grads, tape = _run_block(layout, operands, heads, True, trainable)
    ref_out, ref_grads, ref_tape = _run_block(layout, operands, heads, False, trainable)
    assert np.array_equal(out, ref_out)
    for g, ref in zip(grads, ref_grads):
        assert (g is None and ref is None) or np.array_equal(g, ref)
    block = tape.nodes[-3]  # under hadamard and sum_sq
    assert block.kind == "gc_block"
    assert block.macs == tape.mac_count == ref_tape.mac_count > 0
    return grads


@pytest.mark.parametrize("kind,h_shape,heads", LAYER_CASES)
def test_layer_kind_equals_its_composition_bit_for_bit(kind, h_shape, heads):
    _assert_block_equals_composition(LAYERS[kind], h_shape, heads)


@pytest.mark.parametrize("layout,h_shape,heads", BLOCK_CASES)
def test_gc_block_equals_its_composition_bit_for_bit(layout, h_shape, heads):
    _assert_block_equals_composition(layout, h_shape, heads)


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


def _assert_only_trailing_gradients(layout, n_constant):
    """h and the first n_constant - 1 operands are constants: no gradient
    reaches them, and the later steps' gradients equal the composition's."""
    trainable = [False] * n_constant
    trainable += [True] * (len(_block_shapes(layout, (3, 5, 8))) - n_constant)
    grads = _assert_block_equals_composition(layout, (3, 5, 8), 2, trainable)
    assert grads[:n_constant] == [None] * n_constant
    assert all(g is not None for g in grads[n_constant:])


def test_gc_block_computes_only_the_gradients_needed():
    _assert_only_trailing_gradients("gaga", 7)


@pytest.mark.parametrize("layout,n_constant", [("ga", 3), ("aa", 5), ("ag", 5)])
def test_gc_block_skips_a_constant_step_before_a_trainable_one(layout, n_constant):
    # the first trainable step right behind a constant one, on a constant h;
    # an attention there passes no gradient back into its input
    _assert_only_trailing_gradients(layout, n_constant)


def test_gc_layer_raises_on_an_overflow_tanh_would_hide():
    h, adj = np.full((2, 3), 1e307), np.eye(2)
    wgt = np.full((3, 3), 10.0)
    with np.errstate(over="ignore"):
        assert np.isfinite(np.tanh(adj @ h @ wgt)).all()  # tanh(inf) is 1
    tape = Tape()
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="gc_block gc0 pre-tanh"):
        tape.gc_block(tape.constant(h), [(tape.constant(adj), tape.constant(wgt))], 1)
    identity = (tape.constant(np.eye(2)), tape.constant(np.eye(3)))
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="gc_block gc1 pre-tanh"):
        # the second layer's adj @ h overflows before its weight is applied
        tape.gc_block(tape.constant(np.ones((2, 3))),
                      [identity, (tape.constant(np.full((2, 2), 1.5e308)), identity[1])], 1)
    assert tape.nodes == []


def test_self_attention_raises_on_an_infinite_score_exp_would_hide():
    # node 0's query meets its own key at -inf and node 1's key at 0: the
    # softmax of [-inf, 0] is [0, 1], so every output element stays finite
    h = np.array([[1e155, 0.0], [0.0, 1.0]])
    wq, wk, wv, wo = np.eye(2), np.diag([-1.0, 1.0]), np.eye(2), np.eye(2)
    with np.errstate(all="ignore"):
        scores = (h @ wq) @ (h @ wk).T
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        assert np.isneginf(scores[0, 0])
        assert np.isfinite(h + (e / e.sum(axis=-1, keepdims=True)) @ (h @ wv) @ wo).all()
    tape = Tape()
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="attn0 head 0 scores"):
        tape.gc_block(tape.constant(h), [tuple(tape.constant(m) for m in (wq, wk, wv, wo))], 1)
    # behind an attention that adds nothing, the error names the second one
    zero = tape.constant(np.zeros((2, 2)))
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="attn1 head 0 scores"):
        tape.gc_block(tape.constant(h), [(zero,) * 4] + [
            tuple(tape.constant(m) for m in (wq, wk, wv, wo))], 1)


def test_self_attention_checks_its_output():
    tape = Tape()
    # q, k and v are finite; the output projection overflows
    h, wo = tape.constant(np.full((2, 2), 1e200)), tape.constant(np.eye(2) * 1e200)
    zero, one = tape.constant(np.zeros((2, 2))), tape.constant(np.eye(2))
    with np.errstate(all="ignore"), pytest.raises(
            NumericError, match="gc_block attn0 output produced non-finite values"):
        tape.gc_block(h, [(zero, zero, one, wo)], 1)


@pytest.mark.parametrize("h_shape,w_shape", [((3, 4), (4, 2)), ((4,), (4, 4))])
def test_self_attention_shapes_checked(h_shape, w_shape):
    # a width the heads do not divide: tests/test_predictor.py
    tape = Tape()
    with pytest.raises(ShapeError):
        tape.gc_block(tape.constant(np.zeros(h_shape)),
                      [(tape.constant(np.zeros(w_shape)),) * 4], 1)


def test_gc_block_steps_checked():
    tape = Tape()
    h, m = tape.constant(np.zeros((3, 4))), tape.constant(np.zeros((4, 4)))
    with pytest.raises(ShapeError, match="gc_block needs at least one step"):
        tape.gc_block(h, [], 1)
    with pytest.raises(ShapeError, match="gc_block step of 3 operands"):
        tape.gc_block(h, [(m, m, m)], 1)
    with pytest.raises(ShapeError, match=r"gc_block gc1 shapes \(4, 4\) x \(3, 4\)"):
        tape.gc_block(h, [(tape.constant(np.eye(3)), m), (m, m)], 1)
    assert tape.nodes == []


def _gc_step_gradients(shape, trainable):
    """h, adj and wgt gradients of a one-step graph-conv gc_block on h of this
    shape, for the operands flagged trainable, under a random output gradient:
    the operands of test_block_step_gradients_equal_the_per_sample_sums."""
    rng = np.random.default_rng(92)
    h, g = rng.normal(size=shape), rng.normal(size=shape)
    rng = np.random.default_rng(93)
    operands = [rng.normal(scale=0.3, size=s) for s in _block_shapes("g", shape)[1:]]
    t = Tape()
    h, adj, wgt = (t.leaf(v, requires_grad=r) for v, r in zip((h, *operands), trainable))
    t.gc_block(h, [(adj, wgt)], 2)
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
                for shape in _block_shapes(DEFAULT_BLOCK, (32, 24, 32))]
    calls = []
    monkeypatch.setattr(autodiff, "_gc_layer", lambda *args: calls.append(args))
    t = Tape()
    xs = [t.constant(v) for v in operands]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = t.gc_block(xs[0], _steps(DEFAULT_BLOCK, xs[1:]), 2)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert calls == [] and t.nodes[-1].backward_fn is None
    assert kept < 2 * out.values.nbytes
    # a trainable weight in the second layer: only that layer keeps a
    # backward, which holds its adj @ h product
    t = Tape()
    xs = [t.constant(v) for v in operands]
    xs[4] = t.leaf(operands[4], requires_grad=True)  # gc1's weight
    monkeypatch.undo()
    t.gc_block(xs[0], _steps(DEFAULT_BLOCK, xs[1:]), 2)
    steps = dict(zip(t.nodes[-1].backward_fn.__code__.co_freevars,
                     (c.cell_contents for c in t.nodes[-1].backward_fn.__closure__)))
    backs = [back for back, _ in steps["backs"]]
    assert backs[0] is None and all(back is not None for back in backs[1:])
    ah = operands[3] @ np.tanh((operands[1] @ operands[0]) @ operands[2])
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


def _per_sample_step(step, h, g, seed):
    """The input and operand gradients of a one-step gc_block on h (B, n, F)
    under output gradient g, batched, and the same summed sample by sample:
    each sample runs as an (n, F) matrix, whose products with the shared
    weights are 2-D and take a_b^T g_b and g_b @ W^T."""
    rng = np.random.default_rng(seed)
    shapes = _block_shapes(step, h.shape)[1:]
    operands = [rng.normal(scale=0.3, size=shape) for shape in shapes]

    def grads(hv, gv):
        t = Tape()
        xs = [t.leaf(v, requires_grad=True) for v in (hv, *operands)]
        t.gc_block(xs[0], _steps(step, xs[1:]), 2)
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
        out = linear(t, x, w, b)
        t.backward(t.sum_sq(out))
        g = 2.0 * out.values
        _assert_within_rounding(x.grad, np.stack([g_b @ w.values.T for g_b in g]))
        _assert_within_rounding(w.grad, sum(x_b.T @ g_b for x_b, g_b in zip(x.values, g)))

    @pytest.mark.parametrize("step", ["g", "a"])
    @pytest.mark.parametrize("shape", SHARED_WEIGHT_SHAPES)
    def test_block_step_gradients_equal_the_per_sample_sums(self, step, shape):
        rng = np.random.default_rng(92)
        h, g = rng.normal(size=shape), rng.normal(size=shape)
        batched, reference = _per_sample_step(step, h, g, 93)
        assert len(batched) == (3 if step == "g" else 5)
        for got, want in zip(batched, reference):
            _assert_within_rounding(got, want)

    def test_two_backward_passes_are_bit_equal(self):
        rng = np.random.default_rng(94)
        operands = [rng.normal(scale=0.3, size=shape)
                    for shape in _block_shapes(DEFAULT_BLOCK, (32, 24, 32))]
        _, first, _ = _run_block(DEFAULT_BLOCK, operands, 2, True)
        _, second, _ = _run_block(DEFAULT_BLOCK, operands, 2, True)
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
                                       heads=2, policy_hidden=4,
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
