"""Matrix functions through numpy's Hermitian eigensolver.

Reference for the package's spectral formulas: sum_i f(lambda_i) P_i
taken straight from an eigendecomposition, with no package spectral code.
"""

from __future__ import annotations

import numpy as np


def mat_func_h3(spec: tuple[np.ndarray, np.ndarray], f) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    ``spec`` is the (eigenvalues, eigenvectors) pair of ``eig_h3``.
    Returns sum_i f(lambda_i) P_i, evaluated as V diag(f(lambda)) V^dagger.
    """
    lams, v = spec
    vals = np.array([f(lam) for lam in lams])
    return (v * vals) @ v.conj().T
