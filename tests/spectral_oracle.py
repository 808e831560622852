"""Matrix functions through numpy's Hermitian eigensolver.

Reference for the package's spectral formulas: M0^2 by its definition,
and sum_i f(lambda_i) P_i taken straight from an eigendecomposition, with
no package spectral code.
"""

from __future__ import annotations

import numpy as np

from ramanls.model import RamanParams, h_new


def m0sq_by_definition(params: RamanParams) -> np.ndarray:
    """M0^2 as the block-diagonal part of h_new(params)^2: its upper 2x2
    (Raman) block and its excited diagonal entry."""
    h = h_new(params)
    h_sq = h @ h
    m0sq = np.zeros((3, 3), dtype=complex)
    m0sq[:2, :2] = h_sq[:2, :2]
    m0sq[2, 2] = h_sq[2, 2]
    return m0sq


def mat_func_h3(spec: tuple[np.ndarray, np.ndarray], f) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    ``spec`` is the (eigenvalues, eigenvectors) pair of ``eig_h3``.
    Returns sum_i f(lambda_i) P_i, evaluated as V diag(f(lambda)) V^dagger.
    """
    lams, v = spec
    vals = np.array([f(lam) for lam in lams])
    return (v * vals) @ v.conj().T
