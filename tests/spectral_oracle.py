"""Matrix functions through numpy's Hermitian eigensolver.

Reference for the package's spectral formulas: sum_i f(lambda_i) P_i
taken straight from an eigendecomposition, with no package spectral code.
"""

from __future__ import annotations

import numpy as np

from ramanls.numerics import EigenH3


def mat_func_h3(spec: EigenH3, f) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    Returns sum_i f(lambda_i) P_i, evaluated as V diag(f(lambda)) V^dagger.
    """
    vals = np.array([f(lam) for lam in spec.eigenvalues])
    v = spec.eigenvectors
    return (v * vals) @ v.conj().T
