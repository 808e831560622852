"""Physical parameters and the Hamiltonians of the driven three-level system.

Level order is |0>, |1>, |e>.  Units: hbar = 1, every frequency is an
angular frequency in rad/us (displayed as "MHz" by the CLI), time in us.
Two interaction pictures are used: the usual one behind adiabatic
elimination (``h_ae``) and the shifted one whose Hamiltonian squares into
a block-diagonal part plus a small off-diagonal remainder (``h_new``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class RamanParams:
    """Laser-atom parameters of a Raman transition.

    delta_avg : average one-photon detuning (nonzero)
    delta_2ph : overall two-photon detuning
    omega0, omega1 : complex Rabi frequencies of the two drives
    """

    delta_avg: float
    delta_2ph: float
    omega0: complex
    omega1: complex

    def __post_init__(self):
        vals = (self.delta_avg, self.delta_2ph, self.omega0, self.omega1)
        if not all(math.isfinite(abs(complex(v))) for v in vals):
            raise ValueError("RamanParams entries must be finite")
        if self.delta_avg == 0.0:
            raise ValueError("average detuning must be nonzero")

    @property
    def omega(self) -> np.ndarray:
        """Two-component column of Rabi frequencies."""
        return np.array([self.omega0, self.omega1], dtype=complex)

    @property
    def omega_sq(self) -> float:
        """|omega0|^2 + |omega1|^2."""
        return abs(self.omega0) ** 2 + abs(self.omega1) ** 2

    @property
    def omega_imbalance(self) -> float:
        """|omega0|^2 - |omega1|^2 (the sigma_3 quadratic form)."""
        return abs(self.omega0) ** 2 - abs(self.omega1) ** 2


@dataclass(frozen=True, eq=False)
class SplitSquare:
    """Decomposition of the squared shifted-picture Hamiltonian.

    ``m0sq`` is the block-diagonal dominant part, ``eps`` the small
    off-diagonal remainder; m0sq + eps equals h_new(params)^2 entrywise.
    eps vanishes identically at zero two-photon detuning.
    """

    m0sq: np.ndarray
    eps: np.ndarray


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Eigenvalues and orthogonal projectors of the block-diagonal square.

    The three projectors (upper-block plus/minus, excited slot) are 3x3,
    Hermitian, idempotent, mutually orthogonal and sum to the identity;
    sum_i mu_i^2 P_i reconstructs m0sq.  ``axis_fallback`` flags the
    degenerate drive case (one Rabi frequency zero) where the upper block
    is diagonal and the split is taken along the coordinate axes.
    """

    mu_plus_sq: float
    mu_minus_sq: float
    mu_e_sq: float
    projectors: tuple[np.ndarray, np.ndarray, np.ndarray]
    axis_fallback: bool = field(default=False)

    @property
    def mu_plus(self) -> float:
        return math.sqrt(self.mu_plus_sq)

    @property
    def mu_minus(self) -> float:
        return math.sqrt(self.mu_minus_sq)

    @property
    def mu_e(self) -> float:
        return math.sqrt(self.mu_e_sq)

    @property
    def mu_max(self) -> float:
        """Fastest frequency scale, max(mu_plus, mu_e)."""
        return max(self.mu_plus, self.mu_e)


def h_ae(params: RamanParams) -> np.ndarray:
    """Interaction-picture Hamiltonian used for adiabatic elimination."""
    d, dd = params.delta_avg, params.delta_2ph
    o0, o1 = params.omega0, params.omega1
    return 0.5 * np.array(
        [
            [-dd, 0.0, o0],
            [0.0, dd, o1],
            [np.conj(o0), np.conj(o1), 2.0 * d],
        ],
        dtype=complex,
    )


def h_new(params: RamanParams) -> np.ndarray:
    """Shifted-picture Hamiltonian; equals h_ae minus (delta_avg/2) I."""
    d, dd = params.delta_avg, params.delta_2ph
    o0, o1 = params.omega0, params.omega1
    return 0.5 * np.array(
        [
            [-d - dd, 0.0, o0],
            [0.0, -d + dd, o1],
            [np.conj(o0), np.conj(o1), d],
        ],
        dtype=complex,
    )


def split_square(params: RamanParams, *, eps_scale: float = 1.0) -> SplitSquare:
    """Split h_new(params)^2 into block-diagonal m0sq plus off-diagonal eps.

    ``eps_scale`` multiplies the remainder only (m0sq untouched); it exists
    for convergence-order tests and is not reachable from the CLI.
    """
    d, dd = params.delta_avg, params.delta_2ph
    om = params.omega
    diag2 = np.array([d + dd, d - dd])
    m0sq = np.zeros((3, 3), dtype=complex)
    m0sq[:2, :2] = 0.25 * (np.diag(diag2**2) + np.outer(om, om.conj()))
    m0sq[2, 2] = 0.25 * (d * d + params.omega_sq)
    # Squaring h_new puts -(delta_2ph/4) sigma3*omega in the corner block.
    sigma3_om = np.array([params.omega0, -params.omega1], dtype=complex)
    eps = np.zeros((3, 3), dtype=complex)
    eps[:2, 2] = -(dd / 4.0) * eps_scale * sigma3_om
    eps[2, :2] = eps[:2, 2].conj()
    return SplitSquare(m0sq=m0sq, eps=eps)


def spectral_m0sq(params: RamanParams) -> SpectralData:
    """Spectral decomposition of m0sq: eigenvalues and 3x3 projectors.

    The upper 2x2 block is diagonalized in closed form; the excited slot
    contributes the detuning-independent eigenvalue (delta_avg^2 +
    omega_sq)/4.  With one drive off the block is already diagonal and the
    coordinate split is used (axis_fallback).
    """
    d, dd = params.delta_avg, params.delta_2ph
    s = params.omega_sq
    w = params.omega_imbalance
    four_dd_d = 4.0 * dd * d
    gap_sq = s * s + 2.0 * four_dd_d * w + four_dd_d * four_dd_d
    gap = 0.25 * math.sqrt(max(gap_sq, 0.0))  # mu_plus_sq - mu_minus_sq
    center = 0.25 * (d * d + dd * dd) + 0.125 * s
    mu_plus_sq = center + 0.5 * gap
    mu_minus_sq = center - 0.5 * gap
    mu_e_sq = 0.25 * (d * d + s)

    block = split_square(params).m0sq[:2, :2]
    p_plus = np.zeros((3, 3), dtype=complex)
    p_minus = np.zeros((3, 3), dtype=complex)
    p_e = np.zeros((3, 3), dtype=complex)
    p_e[2, 2] = 1.0

    axis_fallback = params.omega0 == 0 or params.omega1 == 0
    if axis_fallback:
        # Block is diagonal; order the axes by eigenvalue.
        b00, b11 = block[0, 0].real, block[1, 1].real
        hi, lo = (0, 1) if b00 >= b11 else (1, 0)
        mu_plus_sq, mu_minus_sq = max(b00, b11), min(b00, b11)
        p_plus[hi, hi] = 1.0
        p_minus[lo, lo] = 1.0
    elif gap <= 1e-14 * max(abs(mu_plus_sq), 1.0):
        # Fully degenerate block: keep the coordinate split.
        p_plus[0, 0] = 1.0
        p_minus[1, 1] = 1.0
    else:
        p2 = (block - mu_minus_sq * np.eye(2)) / gap
        p_plus[:2, :2] = p2
        p_minus[:2, :2] = np.eye(2) - p2

    return SpectralData(
        mu_plus_sq=mu_plus_sq,
        mu_minus_sq=mu_minus_sq,
        mu_e_sq=mu_e_sq,
        projectors=(p_plus, p_minus, p_e),
        axis_fallback=axis_fallback,
    )
