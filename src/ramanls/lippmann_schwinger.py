"""Volterra integral hierarchy for the propagator at nonzero detuning.

The exact propagator satisfies integral equations of Lippmann-Schwinger
type built from the split H^2 = M0^2 + eps: with the kernel
K(tau) = sin(M0 tau)/M0,

    R:  U(t) = U0_R(t) - int_0^t K(t-t') eps U(t') dt'
    L:  U(t) = U0_L(t) - int_0^t U(t-t') eps K(t') dt'
    S:  half the sum of both, around U0_S = (U0_R + U0_L)/2.

Born-style iteration (substituting the previous order into the right-hand
side, starting from U0 = sum_m C_m P_m - i S_m B_m with one constant 3x3
B_m per mode and variant) gives approximations accurate to order
(eps/M0^2)^(k+1).  The M variant is the arithmetic mean of the R and L
tables of the same order, which is a valid alternative to S for k >= 1.

All integrals are composite-Simpson sums over grid prefixes: plain
Simpson for even prefix lengths, Simpson plus a 3/8 tail segment for odd
ones (a single trapezoid interval at the very first node, where the
kernel vanishes linearly).

The kernel is separable.  Every spectral projector of M0^2 has rank one,
so M0^2 = V diag(mu_m^2) V^H with a unitary V.  With S_m(t) =
sin(mu_m t)/mu_m (evaluated by ``sinc_sqrt``, so mu_m -> 0 never divides)
and C_m(t) = cos(mu_m t), angle addition gives

    K(t_i - t_j) = V diag(S_m(t_i) C_m(t_j) - C_m(t_i) S_m(t_j)) V^H,

so in the eigenbasis every convolution on node i is a prefix quadrature
over j of C_m(t_j) h_j and S_m(t_j) h_j, with h = V^H eps U.  The
Simpson prefix on nodes 0..2k is the running sum of its two-interval
panels, (dt/3) sum_{l<k} (b_2l + 4 b_2l+1 + b_2l+2); odd nodes add the
3/8 segment on nodes i-3..i.  One Born order on n nodes
thus costs O(n) time and memory, order k O(k n) time, and no weight
matrix is ever stored.

The L form is the R form transposed: with t' -> t - t' and K^T = conj(K)
= conj(V) diag(S_m) V^T (K is Hermitian),

    (int_0^t U(t') eps K(t-t') dt')^T = int_0^t K^T(t-t') eps^T U^T(t') dt',

the R integral of U^T with eps^T and the basis conj(V), taken with node
weights mirrored by the substitution: 3/8 on nodes 0..3, Simpson on 3..i.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import RamanParams, SpectralData, h_new, spectral_m0sq, split_square
from .numerics import sinc_sqrt

#: Largest allowed phase advance of the fastest mode per grid step.
GRID_PHASE_LIMIT = math.pi / 20.0


class Variant(str, Enum):
    """Which side the Hamiltonian factor sits on in the zeroth order."""

    R = "R"
    L = "L"
    S = "S"
    M = "M"


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, t_end] with an even number n of intervals."""

    t_end: float
    n: int

    def __post_init__(self):
        if not 0 < self.t_end < math.inf:
            raise ValueError("t_end must be positive and finite")
        if not isinstance(self.n, numbers.Integral) or self.n < 2 or self.n % 2:
            raise ValueError("n must be an even integer >= 2")

    @property
    def dt(self) -> float:
        return self.t_end / self.n

    def node_times(self, rows: slice) -> np.ndarray:
        """The times of the nodes ``rows`` alone, bit for bit ``np.linspace``'s:
        i * dt, or (i / n) * t_end if dt underflows to 0, and t_end at node n."""
        i = np.arange(*rows.indices(self.n + 1))
        t = i * self.dt if self.dt else i / self.n * self.t_end
        t[i == self.n] = self.t_end
        return t

    @functools.cached_property
    def times(self) -> np.ndarray:
        """All n + 1 node times, built once per grid and read-only, so
        that every full-grid trace on the grid shares one array."""
        times = self.node_times(slice(None))
        times.flags.writeable = False
        return times


def required_intervals(params: RamanParams, t_end: float) -> int:
    """Smallest even interval count with dt * mu_max <= pi/20; ValueError on overflow."""
    count = t_end * spectral_m0sq(params).mu_max / GRID_PHASE_LIMIT
    if not math.isfinite(count):
        raise ValueError(f"t_end = {t_end:g} needs more grid intervals than a double holds")
    n = int(math.ceil(count))
    return max(2, n + (n % 2))


def auto_grid(params: RamanParams, t_end: float) -> TimeGrid:
    """Grid at the mandated density."""
    return TimeGrid(t_end=t_end, n=required_intervals(params, t_end))


def validate_grid(grid: TimeGrid, params: RamanParams) -> SpectralData:
    """Reject grids too coarse for the oscillatory convolution integrals;
    returns the spectral decomposition of M0^2 the check solved."""
    sd = spectral_m0sq(params)
    if grid.dt * sd.mu_max > GRID_PHASE_LIMIT * (1.0 + 1e-9):
        raise ValueError(
            f"grid too coarse: dt*mu_max = {grid.dt * sd.mu_max:.4f} exceeds "
            f"pi/20; need n >= {required_intervals(params, grid.t_end)}"
        )
    return sd


def _u0_table(variant: Variant, proj: np.ndarray, h: np.ndarray,
              cos_rows: np.ndarray, sinc_rows: np.ndarray) -> np.ndarray:
    """Zeroth-order table U0(t) = sum_m C_m(t) P_m - i S_m(t) B_m.

    B_m = P_m H (R), H P_m (L) or (P_m H + H P_m)/2 (S), one contraction
    of the mode rows C_m(t) and S_m(t), given as (3, n+1) arrays, with the
    (3, 3, 3) projectors P_m.  Returns the (3, 3, n+1) table.
    """
    ph, hp = proj @ h, h @ proj
    b = {Variant.R: ph, Variant.L: hp}.get(variant, 0.5 * (ph + hp))
    return np.einsum("mab,mt->abt", np.concatenate([proj, -1j * b]),
                     np.concatenate([cos_rows, sinc_rows]))


# Every table, U0 included, is a (3, 3, n+1) array, time on the last
# axis, so that every operation runs over long contiguous rows; iterate
# returns the (n+1, 3, 3) node-major view of it, one 3x3 matrix per node.
# np.matmul on an (n+1, 3, 3) stack multiplies the 3x3 blocks one at a
# time, and a BLAS product over the flattened table may start threads;
# _u0_table and _born_integral contract with np.einsum, which without
# ``optimize`` runs its own loop over the rows and calls no BLAS.


def _prefix_integrals(b: np.ndarray, dt: float, mirrored: bool) -> np.ndarray:
    """Prefix quadratures Q_i = sum_j w(i)_j b_j along the time axis.

    w(i) is the node's prefix rule: Simpson for even i, the trapezoid at
    i = 1, and for odd i >= 3 Simpson plus a 3/8 segment on nodes i-3..i,
    or on nodes 0..3 when ``mirrored``.
    """
    def panel_sums(x):
        """Simpson prefixes of x on its nodes 2, 4, ...: (dt/3) times the
        running sum of the two-interval panels x_2k + 4 x_2k+1 + x_2k+2."""
        panels = 4.0 * x[..., 1:-1:2]
        panels += x[..., :-2:2]
        panels += x[..., 2::2]
        np.cumsum(panels, axis=-1, out=panels)
        panels *= dt / 3.0
        return panels

    q = np.empty_like(b)
    q[..., 0] = 0.0
    q[..., 2::2] = panel_sums(b)
    q[..., 1] = 0.5 * dt * (b[..., 0] + b[..., 1])
    if b.shape[-1] < 5:  # no odd node i >= 3
        return q
    three_eighths = 3.0 * dt / 8.0
    tail = q[..., 3::2]
    if mirrored:
        head = b[..., 0] + 3.0 * (b[..., 1] + b[..., 2]) + b[..., 3]
        tail[...] = three_eighths * head[..., None]
        tail[..., 1:] += panel_sums(b[..., 3:])
    else:
        np.add(b[..., :-3:2], b[..., 3::2], out=tail)
        tail += 3.0 * (b[..., 1:-2:2] + b[..., 2:-1:2])
        tail *= three_eighths
        tail += q[..., 0:-3:2]
    return q


def _mode_basis(proj: np.ndarray) -> np.ndarray:
    """Unitary V with P_m = v_m v_m^H for its columns v_m.

    Every spectral projector of M0^2 has rank one, so v_m is any nonzero
    column of P_m, normalized.
    """
    cols = [p[:, np.argmax(np.linalg.norm(p, axis=0))] for p in proj]
    return np.stack([c / np.linalg.norm(c) for c in cols], axis=1)


def _born_integral(table: np.ndarray, eps: np.ndarray, dt: float,
                   cos_t: np.ndarray, sinc_t: np.ndarray,
                   basis: np.ndarray, mirrored: bool = False) -> np.ndarray:
    """R-form convolution int_0^t K(t-t') eps U(t') dt' on every node.

    In the eigenbasis V of M0^2 the kernel is diagonal, K = V diag(S_m) V^H,
    so with h = V^H eps U row m of V^H times the result is
    S_m(t) Q[C_m h] - C_m(t) Q[S_m h].  ``cos_t`` and ``sinc_t`` hold C_m
    and S_m as (3, n+1) rows; ``mirrored`` takes the L form's node weights.
    """
    h = np.einsum("ab,bct->act", basis.conj().T @ eps, table)
    c, s = cos_t[:, None], sinc_t[:, None]
    x = s * _prefix_integrals(c * h, dt, mirrored)
    x -= c * _prefix_integrals(s * h, dt, mirrored)
    return np.einsum("ab,bct->act", basis, x)


def _l_form(table, eps, dt, cos_t, sinc_t, basis) -> np.ndarray:
    """L-form convolution, as the transposed R form of U^T (module docstring)."""
    return _born_integral(table.transpose(1, 0, 2), eps.T, dt, cos_t, sinc_t,
                          basis.conj(), mirrored=True).transpose(1, 0, 2)


#: The Born corrections each variant averages.
_SIDES = {Variant.R: (_born_integral,), Variant.L: (_l_form,),
          Variant.S: (_born_integral, _l_form)}


def born_order(order) -> int:
    """``order`` if ``iterate`` takes it: an integer from 0 to 64, twice
    the highest order studied, so that a mistyped one cannot run for hours."""
    if not isinstance(order, numbers.Integral) or not 0 <= order <= 64:
        raise ValueError(f"order must be an integer >= 0 and <= 64, got {order!r}")
    return order


def iterate(variant: Variant | str, params: RamanParams, grid: TimeGrid,
            order: int) -> np.ndarray:
    """Born iteration of the chosen integral equation up to the given order.

    Returns the propagator on every grid node as an (n+1, 3, 3) array, a
    view of the time-last table.
    """
    variant = Variant(variant)
    born_order(order)
    sd = validate_grid(grid, params)
    mu_sq = sd.mu_sq[:, None]  # C_m and S_m as (3, n+1) rows, even in mu_m
    modes = np.cos(np.sqrt(mu_sq) * grid.times), sinc_sqrt(mu_sq, grid.times)
    h = h_new(params)
    if order:
        step = (split_square(params), grid.dt, *modes, _mode_basis(sd.projectors))

    # M is the mean of the R and L tables, both built on the one solve sd.
    tables = []
    for side in (Variant.R, Variant.L) if variant is Variant.M else (variant,):
        u0 = _u0_table(side, sd.projectors, h, *modes)
        table = u0
        for _ in range(order):
            corrs = [born(table, *step) for born in _SIDES[side]]
            table = u0 - sum(corrs[1:], corrs[0]) / len(corrs)
        tables.append(table)
    table = tables[0] if len(tables) == 1 else 0.5 * (tables[0] + tables[1])
    return table.transpose(2, 0, 1)


def _initial_state(psi0) -> np.ndarray:
    """psi0 as a complex (3,) array; rejects other shapes, and norms not
    within 1e-9 of one (NaN included)."""
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (3,):
        raise ValueError("initial state must have three components")
    if not abs(np.linalg.norm(psi0) - 1.0) <= 1e-9:  # false for NaN too
        raise ValueError("initial state must have unit norm")
    return psi0


def apply_normalized(table: np.ndarray, psi0: np.ndarray) -> np.ndarray:
    """Apply an (n+1, 3, 3) table to an initial state and renormalize node
    by node.

    Returns the (n+1, 3) array of unit-norm states.  Rejects states whose
    raw norm collapses below 1e-6 or is not finite, which signals that the
    approximation has left its domain of validity, and shapes other than
    an (m, 3, 3) table and a (3,) state.
    """
    if np.ndim(table) != 3 or np.shape(table)[1:] != (3, 3):
        raise ValueError(f"propagator table must have shape (m, 3, 3), "
                         f"got {np.shape(table)}")
    psi0 = _initial_state(psi0)
    with np.errstate(invalid="ignore", over="ignore"):  # rejected just below
        raw = table @ psi0
        norms = np.linalg.norm(raw, axis=1)
    finite = np.isfinite(norms)
    node = int(norms.argmin()) if finite.all() else int(finite.argmin())
    if not finite[node] or norms[node] < 1e-6:
        raise ValueError(
            f"propagator table lost normalization (norm {norms[node]:.2e} at "
            f"node {node}); approximation broke down"
        )
    return raw / norms[:, None]
