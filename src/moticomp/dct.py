"""Orthonormal DCT along the time axis of each coordinate trajectory.

Type-II transform with orthonormal scaling, applied column-wise, with
optional truncation to the first F coefficients; the inverse zero-pads
truncated coefficients before applying the type-III transform. Direct
matrix form, no FFT: trajectories here are a few dozen frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .autodiff import freeze
from .errors import ShapeError


@lru_cache(maxsize=64)
def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal type-II DCT basis, shape (n, n); row k is frequency k."""
    if n < 1:
        raise ValueError(f"transform length must be >= 1, got {n}")
    t = np.arange(n, dtype=np.float64)
    k = t[:, None]
    basis = np.cos(np.pi * (2.0 * t[None, :] + 1.0) * k / (2.0 * n))
    basis *= np.sqrt(2.0 / n)
    basis[0] *= np.sqrt(0.5)
    return freeze(basis, "DCT basis")


@dataclass(frozen=True)
class DctCoeffs:
    """F x (3J) frequency-domain trajectory representation."""

    coeffs: np.ndarray
    original_length: int

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] < 1:
            raise ShapeError(f"coefficients must be a 2-D matrix, got shape {c.shape}")
        if not 1 <= c.shape[0] <= self.original_length:
            raise ValueError(
                f"coefficient count {c.shape[0]} outside 1..{self.original_length}"
            )
        object.__setattr__(self, "coeffs", freeze(c, "coefficients"))

    def flat(self) -> np.ndarray:
        return self.coeffs.reshape(-1)


def dct_encode(seq_data: np.ndarray, n_coeffs: int) -> DctCoeffs:
    """Encode each column and keep the first n_coeffs coefficients."""
    x = np.asarray(seq_data, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {x.shape}")
    n = x.shape[0]
    if not 1 <= n_coeffs <= n:
        raise ValueError(f"n_coeffs {n_coeffs} outside 1..{n}")
    coeffs = dct_matrix(n)[:n_coeffs] @ x
    return DctCoeffs(coeffs=coeffs, original_length=n)


def idct_decode(coeffs: DctCoeffs, out_length: int) -> np.ndarray:
    """Invert dct_encode; truncated coefficients are zero-padded first."""
    if out_length != coeffs.original_length:
        raise ValueError(
            f"out_length {out_length} != original length {coeffs.original_length}"
        )
    return idct_basis(coeffs.original_length, coeffs.coeffs.shape[0]) @ coeffs.coeffs


@lru_cache(maxsize=64)
def idct_basis(n: int, n_coeffs: int) -> np.ndarray:
    """Matrix mapping the first n_coeffs coefficients back to n samples."""
    return freeze(dct_matrix(n)[:n_coeffs].T, "inverse DCT basis")
