"""The two numerical primitives under the propagators and the Born iteration.

``eig_h3`` diagonalises the 3x3 Hamiltonians (and a 2x2 such as
``ae_model``, for a library caller) and checks nothing: ``h_ae``,
``h_new`` and ``ae_model`` are exactly Hermitian by construction, which
a property test pins.  ``sinc_sqrt`` evaluates the Born kernel's
sin(M t)/M, even in M.  Both are pure functions of plain numpy arrays.
"""

from __future__ import annotations

import numpy as np


def eig_h3(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a
    Hermitian 3x3 or 2x2 matrix; only its lower triangle is read."""
    return np.linalg.eigh(a)


def sinc_sqrt(lam, t):
    """sin(sqrt(lam) t)/sqrt(lam), even in sqrt(lam), with series near zero.

    The series branch kicks in for |lam| t^2 < 1e-8, where the direct
    quotient would lose accuracy; it keeps the t -> 0 and lam -> 0 limits
    exact without ever choosing a square-root sign.  Outside it, lam < 0
    raises ValueError.
    """
    lam, t = np.asarray(lam, dtype=float), np.asarray(t, dtype=float)
    root = np.sqrt(np.abs(lam))
    # root |t| < 1e-4, without the product, which may overflow
    small = np.abs(t) < np.divide(1e-4, root, out=np.full(root.shape, np.inf), where=root > 0)
    if np.any((lam < 0) & ~small):  # then the most negative lam is outside too
        raise ValueError(f"sinc_sqrt needs lam >= 0 where |lam| t^2 >= 1e-8; "
                         f"got lam = {lam.min():g}")
    out = np.sin(root * t, out=np.empty(small.shape))
    np.divide(out, root, out=out, where=~small)
    ts = np.broadcast_to(t, small.shape)[small]
    x = np.broadcast_to(lam, small.shape)[small] * ts * ts
    out[small] = ts * (1.0 - x / 6.0 + x * x / 120.0)
    return float(out) if out.ndim == 0 else out
