"""Matrix functions through numpy's Hermitian eigensolver.

Reference for the package's spectral formulas: M0^2 by its definition,
sum_i f(lambda_i) P_i taken straight from an eigendecomposition, and the
exact resummation of the Born series for a scaled remainder, with no
package spectral code.
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

    ``spec`` is the (eigenvalues, eigenvectors) pair of ``np.linalg.eigh``.
    Returns sum_i f(lambda_i) P_i, evaluated as V diag(f(lambda)) V^dagger.
    """
    lams, v = spec
    vals = np.array([f(lam) for lam in lams])
    return (v * vals) @ v.conj().T


def resummed(params: RamanParams, eta: float, side: str, t: float) -> np.ndarray:
    """The Born series of the R or L equation with eps scaled by eta, summed.

    With G^2 = M0^2 + eta eps and eps = h_new^2 - M0^2, U'' = -G^2 U (R)
    or U'' = -U G^2 (L), from U(0) = I and U'(0) = -i H, is solved by
    cos(G t) - i [sin(G t)/G] H (R) or cos(G t) - i H [sin(G t)/G] (L).
    """
    h = h_new(params)
    m0sq = m0sq_by_definition(params)
    spec = np.linalg.eigh(m0sq + eta * (h @ h - m0sq))
    cos = mat_func_h3(spec, lambda lam: np.cos(np.sqrt(max(lam, 0.0)) * t))
    sinc = mat_func_h3(spec, lambda lam: t * np.sinc(np.sqrt(max(lam, 0.0)) * t / np.pi))
    return cos - 1j * (sinc @ h if side == "R" else h @ sinc)
