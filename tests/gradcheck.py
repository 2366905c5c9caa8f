"""Central-difference gradient checking for the tape, and its own tests.

Test modules import grad_check from here; test_autodiff.py also imports
TestGradCheck, which pytest collects there.
"""

from typing import Callable

import numpy as np
import pytest

from moticomp.autodiff import Tape, Tensor
from moticomp.errors import ShapeError


def grad_check(f: Callable[[Tape, Tensor], Tensor], point, epsilon: float = 1e-4) -> float:
    """Max relative error between backward gradients and central differences.

    f maps (tape, tensor) to a scalar tensor. The relative error denominator
    is max(1, |analytic|, |numeric|) per coordinate.
    """
    if not 1e-6 <= epsilon <= 1e-3:
        raise ValueError(f"epsilon {epsilon} outside [1e-6, 1e-3]")
    point = np.asarray(point, dtype=np.float64)
    tape = Tape()
    x = tape.leaf(point, requires_grad=True)
    out = f(tape, x)
    if out.values.size != 1:
        raise ShapeError("grad_check target must be scalar-valued")
    tape.backward(out)
    analytic = x.grad.reshape(-1)

    def evaluate(vals: np.ndarray) -> float:
        t = Tape()
        return f(t, t.leaf(vals)).item()

    flat = point.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + epsilon
        hi = evaluate(bumped.reshape(point.shape))
        bumped[i] = flat[i] - epsilon
        lo = evaluate(bumped.reshape(point.shape))
        numeric = (hi - lo) / (2.0 * epsilon)
        denom = max(1.0, abs(analytic[i]), abs(numeric))
        worst = max(worst, abs(analytic[i] - numeric) / denom)
    return worst


class TestGradCheck:
    def test_linear_is_exact(self):
        rng = np.random.default_rng(2)
        assert grad_check(lambda t, x: t.mean(x), rng.normal(size=(3, 3))) < 1e-10

    def test_epsilon_range_enforced(self):
        with pytest.raises(ValueError):
            grad_check(lambda t, x: t.mean(x), np.ones(2), epsilon=1e-2)

    def test_tanh_chain(self):
        rng = np.random.default_rng(3)
        err = grad_check(lambda t, x: t.sum_sq(t.tanh(x)), rng.normal(size=(2, 3)), 1e-4)
        assert err < 1e-5
