"""Propagators for the driven three-level system.

Exact state evolution by eigendecomposition, the fixed-step RK4 kernel
behind the ``ode`` method, the adiabatic-elimination effective
Hamiltonian (``ae_model`` returns the 2x2 h_eff itself; its Rabi
frequency is ``analysis.rabi_ae``), the cos/sinc mode factors of the
squared Hamiltonian's block-diagonal part (shared by the zero-detuning
solution and the integral hierarchy), and the effective two-level
propagator built from that block.

The RK4 kernel takes a state or a matrix: ``h @ x`` is the same product
for both.  Every sin(M t)/M factor is evaluated as the even scalar
function sin(sqrt(lam) t)/sqrt(lam) of the squared operator, so no
square-root sign ever has to be chosen.
"""

from __future__ import annotations

import math

import numpy as np

from .model import RamanParams, SpectralData, spectral_m0sq
from .numerics import eig_h3, sinc_sqrt


def state_table(h: np.ndarray, times: np.ndarray, psi0: np.ndarray) -> np.ndarray:
    """States exp(-i h t) psi0 at every requested time, one eigensolve."""
    spec = eig_h3(h)
    v = spec.eigenvectors
    coeff = v.conj().T @ np.asarray(psi0, dtype=complex)
    phases = np.exp(-1j * np.outer(np.asarray(times, dtype=float), spec.eigenvalues))
    return (phases * coeff) @ v.T


def rk4_steps(h: np.ndarray, span: float, dt_max: float) -> int:
    """Number of equal RK4 steps across ``span`` for the generator h.

    The step obeys dt <= dt_max and dt * rho(h) <= 0.05 with rho the
    max-row-sum bound on the spectral radius.
    """
    if not dt_max > 0:
        raise ValueError("dt_max must be positive")
    rho = float(np.abs(h).sum(axis=1).max())
    cap = dt_max if rho == 0 else min(dt_max, 0.05 / rho)
    return max(1, int(math.ceil(abs(span) / cap)))


def rk4(h: np.ndarray, x: np.ndarray, dt: float, steps: int) -> np.ndarray:
    """``steps`` classical RK4 steps of dx/dt = -i h x; x a state or a matrix."""
    for _ in range(steps):
        k1 = -1j * (h @ x)
        k2 = -1j * (h @ (x + 0.5 * dt * k1))
        k3 = -1j * (h @ (x + 0.5 * dt * k2))
        k4 = -1j * (h @ (x + dt * k3))
        x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def ae_model(params: RamanParams) -> np.ndarray:
    """Effective 2x2 Hamiltonian after adiabatic elimination of the excited level."""
    d = params.delta_avg
    dd = params.delta_2ph
    o0, o1 = params.omega0, params.omega1
    cross = o0 * np.conj(o1) / (2.0 * d)
    return -0.5 * np.array(
        [
            [dd + abs(o0) ** 2 / (2.0 * d), cross],
            [np.conj(cross), -dd + abs(o1) ** 2 / (2.0 * d)],
        ],
        dtype=complex,
    )


def mode_factors(sd: SpectralData, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos(mu_m t) and sin(mu_m t)/mu_m of the three modes of M0^2.

    Both are (3, len(times)) arrays, time last, one row per projector of
    ``sd``, evaluated from mu_m^2 >= 0 so that mu_m -> 0 never divides.
    """
    mus_sq = np.array([sd.mu_plus_sq, sd.mu_minus_sq, sd.mu_e_sq])[:, None]
    return np.cos(np.sqrt(mus_sq) * times), sinc_sqrt(mus_sq, times)


def m0_effective_unitary(params: RamanParams, t: float | np.ndarray) -> np.ndarray:
    """Two-level propagator generated by the upper block of the split square.

    The effective Hamiltonian is minus the positive square root of the
    upper 2x2 block of m0sq, so the propagator is exp(+i mu t) summed over
    the two block projectors.  ``t`` may be an array of times; the result
    then holds one 2x2 matrix per time on its leading axes.
    """
    sd = spectral_m0sq(params)
    p_plus = sd.projectors[0][:2, :2]
    p_minus = sd.projectors[1][:2, :2]
    t = np.asarray(t, dtype=float)[..., None, None]
    return (np.exp(1j * sd.mu_plus * t) * p_plus
            + np.exp(1j * sd.mu_minus * t) * p_minus)
