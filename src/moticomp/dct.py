"""Orthonormal type-II DCT along the time axis of each column of each matrix
of a stack (..., frames, columns), optionally truncated to the first F
coefficients; the inverse zero-pads them and applies the type-III transform.
Each direction is one matrix product, no FFT: trajectories are a few dozen frames.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .autodiff import all_finite, freeze
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


def dct_encode(x: np.ndarray, n_coeffs: int) -> np.ndarray:
    """The first n_coeffs coefficients of each column of each matrix of a
    stack (..., frames, columns), as a new (..., n_coeffs, columns) array.
    Raises ValueError on a non-finite coefficient."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:
        raise ShapeError(f"expected a stack of (frames, columns) matrices, got shape {x.shape}")
    n = x.shape[-2]
    if not 1 <= n_coeffs <= n:
        raise ValueError(f"n_coeffs {n_coeffs} outside 1..{n}")
    coeffs = dct_matrix(n)[:n_coeffs] @ x
    if not all_finite(coeffs):
        raise ValueError("non-finite values in coefficients")
    return coeffs


def idct_decode(coeffs: np.ndarray, out_length: int) -> np.ndarray:
    """Invert dct_encode for a stack (..., F, columns) of the first F of
    out_length coefficients; the missing ones count as zero."""
    c = np.asarray(coeffs, dtype=np.float64)
    if c.ndim < 2 or not 1 <= c.shape[-2] <= out_length:
        raise ShapeError(f"coefficients of shape {c.shape} are not a stack of "
                         f"(F, columns) matrices with F in 1..{out_length}")
    return idct_basis(out_length, c.shape[-2]) @ c


@lru_cache(maxsize=64)
def idct_basis(n: int, n_coeffs: int) -> np.ndarray:
    """Matrix mapping the first n_coeffs coefficients back to n samples."""
    return freeze(dct_matrix(n)[:n_coeffs].T, "inverse DCT basis")
