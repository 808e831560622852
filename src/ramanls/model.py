"""Physical parameters and the Hamiltonians of the driven three-level system.

Level order is |0>, |1>, |e>.  Units: hbar = 1, every frequency is an
angular frequency in rad/us (displayed as "MHz" by the CLI), time in us.
Two interaction pictures are used: the usual one behind adiabatic
elimination (``h_ae``) and the shifted one whose Hamiltonian squares into
a block-diagonal part plus a small off-diagonal remainder (``h_new``).
The upper 2x2 (Raman) block of that part is solved in closed form, once
per ``RamanParams`` instance, by ``RamanParams.raman_block``: every
eigenvalue, projector, Rabi frequency and amplitude of the package, and
the AE effective Hamiltonian, read it, and none cancels at weak drive.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RamanParams:
    """Laser-atom parameters of a Raman transition.

    delta_avg : average one-photon detuning (nonzero)
    delta_2ph : overall two-photon detuning
    omega0, omega1 : complex Rabi frequencies of the two drives

    Any field may be a numpy array that broadcasts with the others, one
    parameter point per entry; ``raman_block`` and the Rabi frequencies,
    resonance detunings and amplitude of ``analysis`` then return arrays
    of that shape.  The Raman block is computed once per instance, on
    first use, and every reader shares it, so fields (arrays included)
    are not mutated after construction; ``dataclasses.replace`` makes a
    new instance with a block of its own.
    """

    delta_avg: float
    delta_2ph: float
    omega0: complex
    omega1: complex

    def __post_init__(self):
        vals = (self.delta_avg, self.delta_2ph, self.omega0, self.omega1)
        if not all(np.isfinite(v).all() for v in vals):
            raise ValueError("RamanParams entries must be finite")
        if np.equal(self.delta_avg, 0.0).any():
            raise ValueError("average detuning must be nonzero")

    @functools.cached_property
    def raman_block(self):
        """The upper 2x2 block of m0sq as c I + [[a, b], [b*, -a]], in
        closed form, solved on first use and kept on the instance.

        ``(a, b, r, mu_plus_sq, mu_minus_sq)`` with r = hypot(a, |b|),
        half the eigenvalue gap, elementwise over broadcasting array
        fields.  mu_plus_sq = c + r sums positive terms, and mu_minus_sq =
        det/mu_plus_sq with det a sum of squares, so neither cancels at
        weak drive and mu_minus_sq is never negative.  det grows as
        delta_avg^4: parameters whose squares or det leave double range
        raise ValueError, and so do parameters whose squares all
        underflow to zero, where mu_plus_sq = 0 leaves mu_minus_sq
        undefined.  The message names the first such point, and nothing
        is kept, so every access raises it again.  Scalars and arrays
        take the same numpy ufuncs, so an array entry equals the scalar
        result at that point bit for bit.
        """
        d, dd = self.delta_avg, self.delta_2ph
        with np.errstate(over="ignore", invalid="ignore"):
            o0_abs, o1_abs = _modulus(self.omega0), _modulus(self.omega1)
            o0_sq, o1_sq = np.square(o0_abs), np.square(o1_abs)
            a = 0.5 * dd * d + 0.125 * (o0_sq - o1_sq)
            # The ufunc, not the operator: on numpy scalars ``*`` rounds a
            # complex product differently from the array loop.
            b = np.multiply(0.25 * self.omega0, np.conj(self.omega1))
            r = np.hypot(a, _modulus(b))
            mu_plus_sq = (0.25 * (np.square(d) + np.square(dd))
                          + 0.125 * (o0_sq + o1_sq) + r)
            det = (np.square((d - dd) * (d + dd)) + np.square(d + dd) * o1_sq
                   + np.square(d - dd) * o0_sq)
            overflow = ~np.isfinite(mu_plus_sq + det)  # |a|, |b| <= r <= mu_plus_sq
        bad = overflow | (mu_plus_sq == 0.0)
        if bad.any():
            i = np.argmax(bad)
            at = [np.broadcast_to(v, bad.shape).flat[i]
                  for v in (d, dd, o0_abs, o1_abs)]
            kind = "overflow" if overflow.flat[i] else "underflow"
            raise ValueError(
                f"parameters {kind} double precision: delta_avg = {at[0]:g}, "
                f"delta = {at[1]:g}, |omega0| = {at[2]:g}, |omega1| = {at[3]:g}")
        return a, b, r, mu_plus_sq, det / (16.0 * mu_plus_sq)

    @property
    def omega_sq(self) -> float:
        """|omega0|^2 + |omega1|^2."""
        return np.square(_modulus(self.omega0)) + np.square(_modulus(self.omega1))

    @property
    def omega_imbalance(self) -> float:
        """|omega0|^2 - |omega1|^2 (the sigma_3 quadratic form)."""
        return np.square(_modulus(self.omega0)) - np.square(_modulus(self.omega1))


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Eigenvalues and orthogonal projectors of the block-diagonal square.

    ``mu_sq`` holds mu_+^2, mu_-^2, mu_e^2 (upper-block plus/minus,
    excited slot), aligned with the (3, 3, 3) ``projectors``: Hermitian,
    idempotent, mutually orthogonal and summing to the identity;
    sum_m mu_sq[m] projectors[m] reconstructs m0sq.
    """

    mu_sq: np.ndarray
    projectors: np.ndarray

    @property
    def mu_max(self) -> float:
        """Fastest frequency scale, max(mu_plus, mu_e)."""
        return math.sqrt(max(self.mu_sq[0], self.mu_sq[2]))


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


def split_square(params: RamanParams) -> np.ndarray:
    """The off-diagonal remainder eps = h_new(params)^2 - M0^2.

    M0^2 is the block-diagonal part of the square, solved in closed form
    by ``RamanParams.raman_block``.  eps vanishes identically at zero
    two-photon detuning.  Parameters whose squares leave double range
    raise ValueError.
    """
    params.raman_block  # the overflow check
    # Squaring h_new puts -(delta_2ph/4) sigma3*omega in the corner block.
    sigma3_om = np.array([params.omega0, -params.omega1], dtype=complex)
    eps = np.zeros((3, 3), dtype=complex)
    eps[:2, 2] = -(params.delta_2ph / 4.0) * sigma3_om
    eps[2, :2] = eps[:2, 2].conj()
    return eps


def _modulus(z):
    """|z| as the hypot of its parts, elementwise.  np.abs of a complex is
    not correctly rounded in about a third of random draws; hypot is."""
    return np.hypot(np.real(z), np.imag(z))


def spectral_m0sq(params: RamanParams) -> SpectralData:
    """Spectral decomposition of m0sq: eigenvalues and 3x3 projectors.

    The upper block is c I + T with T traceless and T^2 = r^2 I, so its
    projectors are (I +- T/r)/2; a degenerate block (r == 0) is split along
    the axes.  The excited slot has the detuning-independent eigenvalue
    (delta_avg^2 + omega_sq)/4.
    """
    a, b, r, mu_plus_sq, mu_minus_sq = params.raman_block
    d = params.delta_avg
    if 0 < r < np.finfo(float).tiny:  # numpy divides by r through 1/r: scale first
        a, b, r = (x * 2.0 ** 64 for x in (a, b, r))
    t = np.diag([1.0, -1.0]) if r == 0 else np.array([[a, b], [np.conj(b), -a]]) / r
    proj = np.zeros((3, 3, 3), dtype=complex)
    proj[0, :2, :2] = 0.5 * (np.eye(2) + t)
    proj[1, :2, :2] = 0.5 * (np.eye(2) - t)
    proj[2, 2, 2] = 1.0
    mu_sq = np.array([mu_plus_sq, mu_minus_sq, 0.25 * (d * d + params.omega_sq)])
    return SpectralData(mu_sq=mu_sq, projectors=proj)
