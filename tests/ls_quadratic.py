"""Quadratic-cost reference for the Lippmann-Schwinger Born iteration.

Every node's convolution is a direct weighted sum over all earlier nodes,
with the kernel table K(t) = sum_m S_m(t) P_m built in full.  It costs
O(k n^2) time and is kept only as the oracle the separable
``lippmann_schwinger.iterate`` is checked against.  M0^2 is the
block-diagonal part of h_new^2 and eps = h_new^2 - M0^2 the rest; the
kernel and the zeroth order are (n+1, 3, 3) sums over numpy's
eigendecomposition of M0^2, with the Hamiltonian multiplied on the stated
side.  No package spectral code enters.
"""

from __future__ import annotations

import numpy as np

from ramanls.lippmann_schwinger import TimeGrid, Variant, validate_grid
from ramanls.model import RamanParams, h_new

from spectral_oracle import m0sq_by_definition


def prefix_weights(i: int, dt: float) -> np.ndarray:
    """Quadrature weights for the integral over [0, i*dt] on grid nodes 0..i."""
    if i == 0:
        return np.zeros(1)
    if i == 1:
        # Lone interval; the integrand vanishes at tau = 0 so the
        # trapezoid here is O(dt^4) in practice.
        return np.array([0.5, 0.5]) * dt
    w = np.zeros(i + 1)
    if i % 2 == 0:
        w[0] = w[i] = 1.0
        w[1:i:2] = 4.0
        w[2:i:2] = 2.0
        return w * (dt / 3.0)
    m = i - 3
    if m > 0:
        w[0] = 1.0
        w[1:m:2] = 4.0
        w[2:m:2] = 2.0
        w[m] = 1.0
        w[: m + 1] *= dt / 3.0
    w[m : i + 1] += np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * dt / 8.0)
    return w


def _projector_sums(params: RamanParams, times: np.ndarray):
    """cos(M0 t) and K(t) = sin(M0 t)/M0 as (n+1, 3, 3) tables."""
    lam, v = np.linalg.eigh(m0sq_by_definition(params))
    phase = np.outer(times, np.sqrt(np.maximum(lam, 0.0)))
    sinc = times[:, None] * np.sinc(phase / np.pi)  # sin(mu t)/mu, also at mu = 0
    return (np.einsum("tm,am,bm->tab", np.cos(phase), v, v.conj()),
            np.einsum("tm,am,bm->tab", sinc, v, v.conj()))


def kernel_table(params: RamanParams, times: np.ndarray) -> np.ndarray:
    """K(t) = sin(M0 t)/M0 as an (n+1, 3, 3) table."""
    return _projector_sums(params, times)[1]


def u0_table(variant: Variant, params: RamanParams, times: np.ndarray) -> np.ndarray:
    """Zeroth order as an (n+1, 3, 3) table: cos(M0 t) - i K H for R,
    cos(M0 t) - i H K for L, and their mean for S and M."""
    cos_t, kernel = _projector_sums(params, times)
    h = h_new(params)
    if variant is Variant.R:
        return cos_t - 1j * (kernel @ h)
    if variant is Variant.L:
        return cos_t - 1j * np.matmul(h, kernel)
    return cos_t - 0.5j * (kernel @ h + np.matmul(h, kernel))


def born_step(variant: Variant, u0_t: np.ndarray, prev: np.ndarray,
              kernel: np.ndarray, eps: np.ndarray, dt: float) -> np.ndarray:
    """One Born order: the right-hand side of the integral equation
    evaluated on ``prev``, node by node."""
    table = u0_t.copy()
    eps_u = np.matmul(eps, prev)
    u_eps = prev @ eps
    for i in range(1, len(u0_t)):
        w = prefix_weights(i, dt)
        right = np.einsum("j,jab,jbc->ac", w, kernel[i::-1], eps_u[: i + 1])
        left = np.einsum("j,jab,jbc->ac", w, u_eps[i::-1], kernel[: i + 1])
        if variant is Variant.R:
            table[i] -= right
        elif variant is Variant.L:
            table[i] -= left
        else:
            table[i] -= 0.5 * right + 0.5 * left
    return table


def iterate(variant: Variant | str, params: RamanParams, grid: TimeGrid,
            order: int) -> np.ndarray:
    """Quadratic-cost counterpart of ``lippmann_schwinger.iterate``."""
    variant = Variant(variant)
    validate_grid(grid, params)
    if variant is Variant.M:
        return 0.5 * (iterate("R", params, grid, order)
                      + iterate("L", params, grid, order))
    u0_t = u0_table(variant, params, grid.times)
    kernel = kernel_table(params, grid.times)
    h = h_new(params)
    eps = h @ h - m0sq_by_definition(params)
    table = u0_t
    for _ in range(order):
        table = born_step(variant, u0_t, table, kernel, eps, grid.dt)
    return table

