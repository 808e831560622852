"""Exact Born orders of the Lippmann-Schwinger hierarchy, with no quadrature.

The kernel K(t) = sin(M0 t)/M0 is the Green's function of d^2/dt^2 + M0^2
with zero initial data (K(0) = 0, K'(0) = I).  So the R-form Born terms
X_j, with U_k = sum_{j <= k} X_j, solve a chain of constant-coefficient
linear ODEs:

    X_0'' = -M0^2 X_0,                 X_0(0) = I, X_0'(0) = -i H,
    X_j'' = -M0^2 X_j - eps X_{j-1},   X_j(0) = X_j'(0) = 0.

The L form multiplies from the right (X_j'' = -X_j M0^2 - X_{j-1} eps).
S carries an R block and an L block on every level: level 0 holds U0_R
and U0_L, level j the R and the L correction of X_{j-1}, and X_j is the
mean of its level.  M is the mean of the R and L results.

Stacking the row-major vec of every block, value and derivative, gives
one system x' = A x with A block lower-bidiagonal (C. F. Van Loan,
"Computing integrals involving the matrix exponential", IEEE Trans.
Autom. Control 23, 395 (1978)).  Every node is x(t_i) = exp(A dt)^i x0,
read out level by level.  The exponential is a degree-18 Taylor
polynomial with scaling and squaring, in numpy only.  M0^2 and eps come
from their definitions as parts of h_new^2; no package spectral code,
grid rule or quadrature enters.
"""

from __future__ import annotations

import numpy as np

from ramanls.model import RamanParams, h_new

from spectral_oracle import m0sq_by_definition

_EYE3 = np.eye(3)
_SIDES = {"R": ("R",), "L": ("L",), "S": ("R", "L")}


def expm_taylor(a: np.ndarray) -> np.ndarray:
    """exp(a) by a degree-18 Taylor polynomial of a / 2^s, squared s times,
    with s the least scaling that brings the 1-norm of a / 2^s to 1 or less."""
    norm = np.abs(a).sum(axis=0).max()
    s = max(0, int(np.ceil(np.log2(norm)))) if norm > 0 else 0
    a = a / 2.0**s
    term = out = np.eye(len(a), dtype=complex)
    for j in range(1, 19):
        term = term @ a / j
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def _times(op: np.ndarray, side: str) -> np.ndarray:
    """The 9x9 matrix of X -> op X (R) or X -> X op (L) on row-major vec(X)."""
    return np.kron(op, _EYE3) if side == "R" else np.kron(_EYE3, op.T)


def born_system(variant: str, params: RamanParams, order: int):
    """Generator A, initial vector x0 and the (order+1, 9, dim) readouts of
    U_0..U_order for the R, L or S hierarchy.

    The derivative half of each block is stored divided by c = sqrt(|M0^2|),
    so that both off-diagonal blocks of A have norm of order c.
    """
    h = h_new(params)
    m0sq = m0sq_by_definition(params)
    eps = h @ h - m0sq
    c = np.sqrt(np.abs(m0sq).max())
    sides = _SIDES[variant]
    width = len(sides)
    dim = 18 * width * (order + 1)
    a = np.zeros((dim, dim), dtype=complex)
    x0 = np.zeros(dim, dtype=complex)
    readout = np.zeros((order + 1, 9, dim))
    for j in range(order + 1):
        for s, side in enumerate(sides):
            val = 18 * (j * width + s)
            der = val + 9
            a[val:der, der:der + 9] = c * np.eye(9)
            a[der:der + 9, val:der] = -_times(m0sq, side) / c
            if j == 0:
                x0[val:der] = _EYE3.ravel()
                x0[der:der + 9] = -1j * h.ravel() / c
            else:  # driven by X_{j-1}, the mean of the blocks of level j-1
                for prev in range(width):
                    src = 18 * ((j - 1) * width + prev)
                    a[der:der + 9, src:src + 9] = -_times(eps, side) / (c * width)
            readout[j:, :, val:der] = np.eye(9) / width
    return a, x0, readout


def born_orders(variant: str, params: RamanParams, times: np.ndarray,
                order: int) -> np.ndarray:
    """U_0..U_order on uniform ``times`` (times[0] = 0) as an
    (order+1, n+1, 3, 3) array, stepping exp(A dt) from node to node."""
    if variant == "M":
        return 0.5 * (born_orders("R", params, times, order)
                      + born_orders("L", params, times, order))
    a, x0, readout = born_system(variant, params, order)
    step = expm_taylor(a * (times[1] - times[0]))
    states = np.empty((len(times), len(x0)), dtype=complex)
    states[0] = x0
    for i in range(1, len(times)):
        states[i] = step @ states[i - 1]
    return np.einsum("kvd,td->ktv", readout, states).reshape(order + 1, len(times), 3, 3)
