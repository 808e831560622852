"""Physical parameters and the Hamiltonians of the driven three-level system.

Level order is |0>, |1>, |e>.  Units: hbar = 1, every frequency is an
angular frequency in rad/us (displayed as "MHz" by the CLI), time in us.
Two interaction pictures are used: the usual one behind adiabatic
elimination (``h_ae``) and the shifted one whose Hamiltonian squares into
a block-diagonal part plus a small off-diagonal remainder (``h_new``).
The upper 2x2 (Raman) block of that part is solved once, in closed form,
by ``_raman_block``: every eigenvalue, projector, Rabi frequency and
amplitude of the package reads it, and none cancels at weak drive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    sum_i mu_i^2 P_i reconstructs m0sq.
    """

    mu_plus_sq: float
    mu_minus_sq: float
    mu_e_sq: float
    projectors: tuple[np.ndarray, np.ndarray, np.ndarray]

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
    # np.diag, not a scaled np.eye: a negative delta_avg would put -0.0 off
    # the diagonal and flip the sign of zero entries.
    return h_ae(params) - np.diag(np.full(3, 0.5 * params.delta_avg))


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


def _raman_block(params: RamanParams):
    """The upper 2x2 block of m0sq as c I + [[a, b], [b*, -a]], in closed form.

    Returns ``(a, b, r, mu_plus_sq, mu_minus_sq)`` with r = hypot(a, |b|),
    half the eigenvalue gap.  mu_plus_sq = c + r sums positive terms, and
    mu_minus_sq = det/mu_plus_sq with det a sum of squares, so neither
    cancels at weak drive and mu_minus_sq is never negative.
    """
    d, dd = params.delta_avg, params.delta_2ph
    a = 0.5 * dd * d + 0.125 * params.omega_imbalance
    b = 0.25 * params.omega0 * np.conj(params.omega1)
    r = math.hypot(a, abs(b))
    mu_plus_sq = 0.25 * (d * d + dd * dd) + 0.125 * params.omega_sq + r
    det = (((d - dd) * (d + dd)) ** 2 + (d + dd) ** 2 * abs(params.omega1) ** 2
           + (d - dd) ** 2 * abs(params.omega0) ** 2)
    return a, b, r, mu_plus_sq, det / (16.0 * mu_plus_sq)


def spectral_m0sq(params: RamanParams) -> SpectralData:
    """Spectral decomposition of m0sq: eigenvalues and 3x3 projectors.

    The upper block is c I + T with T traceless and T^2 = r^2 I, so its
    projectors are (I +- T/r)/2; a degenerate block (r == 0) is split along
    the axes.  The excited slot has the detuning-independent eigenvalue
    (delta_avg^2 + omega_sq)/4.
    """
    a, b, r, mu_plus_sq, mu_minus_sq = _raman_block(params)
    d = params.delta_avg
    t = np.diag([1.0, -1.0]) if r == 0 else np.array([[a, b], [np.conj(b), -a]]) / r
    proj = np.zeros((3, 3, 3), dtype=complex)
    proj[0, :2, :2] = 0.5 * (np.eye(2) + t)
    proj[1, :2, :2] = 0.5 * (np.eye(2) - t)
    proj[2, 2, 2] = 1.0
    return SpectralData(mu_plus_sq=mu_plus_sq, mu_minus_sq=mu_minus_sq,
                        mu_e_sq=0.25 * (d * d + params.omega_sq),
                        projectors=tuple(proj))
