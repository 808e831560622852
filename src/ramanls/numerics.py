"""Small dense complex linear algebra.

Everything in here operates on plain numpy arrays: 2x2 and 3x3 complex
matrices are the only sizes that ever occur.  All functions are pure; no
shared state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_RTOL = 1e-12


def hermiticity_defect(a: np.ndarray) -> float:
    """Largest entry magnitude of A - A^dagger."""
    a = np.asarray(a, dtype=complex)
    return float(np.abs(a - a.conj().T).max())


def require_hermitian(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate Hermiticity and return the symmetrized copy (A + A^dagger)/2.

    Raises ValueError naming the max asymmetry if the defect exceeds
    ``HERMITICITY_RTOL`` relative to the largest entry magnitude.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    defect = hermiticity_defect(a)
    scale = float(np.abs(a).max())
    if defect > HERMITICITY_RTOL * max(scale, 1.0):
        raise ValueError(
            f"{name} is not Hermitian: max asymmetry {defect:.3e} "
            f"exceeds {HERMITICITY_RTOL:g} of scale {scale:.3e}"
        )
    return 0.5 * (a + a.conj().T)


@dataclass(frozen=True, eq=False)
class EigenH3:
    """Eigendecomposition of a Hermitian 3x3 or 2x2 matrix.

    ``eigenvalues`` ascend; the columns of ``eigenvectors`` are the
    corresponding orthonormal eigenvectors.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_h3(a: np.ndarray) -> EigenH3:
    """Hermitian 3x3 or 2x2 eigendecomposition (validated input, ascending order)."""
    h = require_hermitian(a, name="eig_h3 input")
    lam, vec = np.linalg.eigh(h)
    return EigenH3(eigenvalues=lam, eigenvectors=vec)


def sinc_sqrt(lam, t):
    """sin(sqrt(lam) t)/sqrt(lam), even in sqrt(lam), with series near zero.

    The series branch kicks in for |lam| t^2 < 1e-8, where the direct
    quotient would lose accuracy; it keeps the t -> 0 and lam -> 0 limits
    exact without ever choosing a square-root sign.  Outside it, lam < 0
    raises ValueError.
    """
    lam = np.asarray(lam, dtype=float)
    t = np.asarray(t, dtype=float)
    x = lam * t * t
    small = np.abs(x) < 1e-8
    if np.any((lam < 0) & ~small):  # then the most negative lam is outside too
        raise ValueError(f"sinc_sqrt needs lam >= 0 where |lam| t^2 >= 1e-8; "
                         f"got lam = {lam.min():g}")
    root = np.sqrt(np.maximum(lam, 0.0))
    direct = np.sin(root * t) / np.where(small, 1.0, root)
    series = t * (1.0 - x / 6.0 + x * x / 120.0)
    out = np.where(small, series, direct)
    return float(out) if out.ndim == 0 else out
