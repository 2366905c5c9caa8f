import numpy as np
import pytest

from moticomp.dct import DctCoeffs, dct_encode, dct_matrix, idct_decode


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
        assert coeffs.coeffs[0, 0] == pytest.approx(c * np.sqrt(8), abs=1e-12)
        assert np.all(np.abs(coeffs.coeffs[1:]) < 1e-12)

    def test_zero_matrix(self):
        coeffs = dct_encode(np.zeros((5, 4)), 5)
        assert np.array_equal(coeffs.coeffs, np.zeros((5, 4)))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 3))
        coeffs = dct_encode(x, 8)
        assert np.abs(coeffs.coeffs - brute_force_dct(x)).max() < 1e-10

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
        out = idct_decode(DctCoeffs(coeffs=coeffs, original_length=n), n)
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

    def test_wrong_length_rejected(self):
        coeffs = dct_encode(np.zeros((6, 2)), 6)
        with pytest.raises(ValueError):
            idct_decode(coeffs, 7)


class TestProperties:
    def test_linearity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.normal(size=(12, 4))
            y = rng.normal(size=(12, 4))
            a, b = rng.normal(size=2)
            lhs = dct_encode(a * x + b * y, 12).coeffs
            rhs = a * dct_encode(x, 12).coeffs + b * dct_encode(y, 12).coeffs
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_energy_preservation(self):
        rng = np.random.default_rng(4)
        x = rng.normal(scale=30.0, size=(20, 6))
        coeffs = dct_encode(x, 20).coeffs
        for col in range(6):
            assert np.sum(coeffs[:, col] ** 2) == pytest.approx(
                np.sum(x[:, col] ** 2), rel=1e-8)

    def test_column_independence(self):
        # columns transform independently; accumulation order may differ by an ulp
        rng = np.random.default_rng(5)
        x = rng.normal(size=(9, 5))
        whole = dct_encode(x, 9).coeffs
        for col in range(5):
            alone = dct_encode(x[:, col:col + 1], 9).coeffs
            assert np.abs(whole[:, col:col + 1] - alone).max() < 1e-12

    def test_basis_is_orthonormal(self):
        for n in (1, 2, 7, 32):
            d = dct_matrix(n)
            assert np.allclose(d @ d.T, np.eye(n), atol=1e-12)


class TestDctCoeffs:
    def test_callers_array_stays_writeable(self):
        c = np.zeros((2, 6))
        coeffs = DctCoeffs(coeffs=c, original_length=4)
        assert c.flags.writeable
        c[0, 0] = 1.0
        assert coeffs.coeffs[0, 0] == 0.0
        assert not coeffs.coeffs.flags.writeable
