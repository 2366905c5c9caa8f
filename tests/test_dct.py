import re

import numpy as np
import pytest

from moticomp.dct import dct_encode, dct_matrix, idct_decode
from moticomp.errors import ShapeError


def brute_force_dct(x: np.ndarray) -> np.ndarray:
    """Direct O(n^2) orthonormal type-II transform of each column."""
    n = x.shape[0]
    out = np.zeros_like(x)
    for k in range(n):
        scale = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
        for t in range(n):
            out[k] += scale * np.cos(np.pi * (2 * t + 1) * k / (2 * n)) * x[t]
    return out


class TestEncode:
    def test_constant_column_is_pure_dc(self):
        c = 3.25
        coeffs = dct_encode(np.full((8, 1), c), 8)
        assert coeffs[0, 0] == pytest.approx(c * np.sqrt(8), abs=1e-12)
        assert np.all(np.abs(coeffs[1:]) < 1e-12)

    def test_zero_matrix(self):
        coeffs = dct_encode(np.zeros((5, 4)), 5)
        assert np.array_equal(coeffs, np.zeros((5, 4)))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 3))
        coeffs = dct_encode(x, 8)
        assert np.abs(coeffs - brute_force_dct(x)).max() < 1e-10

    def test_too_many_coeffs_rejected(self):
        with pytest.raises(ValueError):
            dct_encode(np.zeros((5, 2)), 6)


class TestDecode:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for frames, cols in ((2, 1), (9, 5), (33, 12), (64, 96)):
            x = rng.normal(scale=100.0, size=(frames, cols))
            back = idct_decode(dct_encode(x, frames), frames)
            assert np.abs(back - x).max() < 1e-9

    def test_single_dc_gives_constant(self):
        c = -1.75
        n = 12
        coeffs = np.zeros((n, 1))
        coeffs[0, 0] = c * np.sqrt(n)
        out = idct_decode(coeffs, n)
        assert np.allclose(out, c, atol=1e-12)

    def test_truncation_error_matches_parseval(self):
        # reconstruction error energy equals the energy of dropped coefficients
        t = np.arange(16)
        x = np.sin(2 * np.pi * t / 16.0).reshape(-1, 1) * 10.0
        full = brute_force_dct(x)
        kept = 4
        recon = idct_decode(dct_encode(x, kept), 16)
        err_energy = float(np.sum((recon - x) ** 2))
        dropped_energy = float(np.sum(full[kept:] ** 2))
        assert err_energy == pytest.approx(dropped_energy, rel=1e-8)


class TestProperties:
    def test_linearity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.normal(size=(12, 4))
            y = rng.normal(size=(12, 4))
            a, b = rng.normal(size=2)
            lhs = dct_encode(a * x + b * y, 12)
            rhs = a * dct_encode(x, 12) + b * dct_encode(y, 12)
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_energy_preservation(self):
        rng = np.random.default_rng(4)
        x = rng.normal(scale=30.0, size=(20, 6))
        coeffs = dct_encode(x, 20)
        for col in range(6):
            assert np.sum(coeffs[:, col] ** 2) == pytest.approx(
                np.sum(x[:, col] ** 2), rel=1e-8)

    def test_column_independence(self):
        # columns transform independently; accumulation order may differ by an ulp
        rng = np.random.default_rng(5)
        x = rng.normal(size=(9, 5))
        whole = dct_encode(x, 9)
        for col in range(5):
            alone = dct_encode(x[:, col:col + 1], 9)
            assert np.abs(whole[:, col:col + 1] - alone).max() < 1e-12

    def test_basis_is_orthonormal(self):
        for n in (1, 2, 7, 32):
            d = dct_matrix(n)
            assert np.allclose(d @ d.T, np.eye(n), atol=1e-12)



class TestStacks:
    def test_stack_equals_per_matrix_calls_byte_for_byte(self):
        rng = np.random.default_rng(6)
        x = rng.normal(scale=50.0, size=(3, 4, 14, 9))  # (B, W, L, E)
        coeffs = dct_encode(x, 8)
        back = idct_decode(coeffs, 14)
        assert coeffs.shape == (3, 4, 8, 9) and back.shape == x.shape
        for b in range(3):
            for w in range(4):
                alone = dct_encode(x[b, w], 8)
                assert coeffs[b, w].tobytes() == alone.tobytes()
                assert back[b, w].tobytes() == idct_decode(alone, 14).tobytes()

    @pytest.mark.parametrize("shape,out_length", [((2, 0, 3), 5), ((2, 6, 3), 5), ((5,), 5)])
    def test_decode_refuses_a_coefficient_count_or_rank_it_cannot_invert(self, shape, out_length):
        with pytest.raises(ShapeError, match=rf"coefficients of shape {re.escape(str(shape))}"):
            idct_decode(np.zeros(shape), out_length)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_encode_refuses_non_finite_input(self, bad):
        x = np.zeros((2, 6, 3))
        x[1, 4, 2] = bad
        with pytest.raises(ValueError, match="non-finite values in coefficients"):
            dct_encode(x, 6)

    def test_callers_array_stays_writeable_and_unaliased(self):
        x = np.ones((2, 5, 3))
        coeffs = dct_encode(x, 5)
        assert x.flags.writeable and coeffs.flags.writeable
        assert not np.shares_memory(coeffs, x)
        x[:] = 7.0
        assert np.array_equal(coeffs, dct_encode(np.ones((2, 5, 3)), 5))
