"""Propagators for the driven three-level system.

Exact state evolution by eigendecomposition, the RK4 step count behind
the ``ode`` method (which ``analysis`` evaluates on the eigensystem of
H, one scalar growth factor per eigenvalue), the adiabatic-elimination
effective Hamiltonian (``ae_model`` returns the 2x2 h_eff, read off the
Raman block, for library callers; the ``ae`` trace beats on the same
block's projectors at ``analysis.rabi_ae``), the cos/sinc mode factors
of the squared Hamiltonian's block-diagonal part (shared by the
zero-detuning solution and the integral hierarchy).

Every sin(M t)/M factor is evaluated as the even scalar function
sin(sqrt(lam) t)/sqrt(lam) of the squared operator, so no square-root
sign ever has to be chosen.
"""

from __future__ import annotations

import math

import numpy as np

from .model import RamanParams, SpectralData
from .numerics import eig_h3, sinc_sqrt


def state_table(h: np.ndarray, times: np.ndarray, psi0: np.ndarray) -> np.ndarray:
    """States exp(-i h t) psi0 at every requested time, one eigensolve."""
    lam, v = eig_h3(h)
    coeff = v.conj().T @ np.asarray(psi0, dtype=complex)
    phases = np.exp(-1j * np.outer(np.asarray(times, dtype=float), lam))
    return (phases * coeff) @ v.T


def rk4_steps(h: np.ndarray, span: float) -> int:
    """Fewest equal RK4 steps across ``span`` for the generator h with
    dt * rho(h) <= 0.05, rho the max-row-sum bound on the spectral radius;
    at least one."""
    rho = float(np.abs(h).sum(axis=1).max())
    if rho == 0:
        return 1
    return max(1, int(math.ceil(abs(span) / (0.05 / rho))))


def ae_model(params: RamanParams) -> np.ndarray:
    """Effective 2x2 Hamiltonian after adiabatic elimination of the excited
    level: h_eff = -T/Delta - (|Omega0|^2 + |Omega1|^2)/(8 Delta) I, with
    T = [[a, b], [b*, -a]] the traceless Raman block."""
    a, b, *_ = params.raman_block
    d = params.delta_avg
    t = np.array([[a, b], [np.conj(b), -a]], dtype=complex)
    return -t / d - np.diag(np.full(2, params.omega_sq / (8.0 * d)))


def mode_factors(sd: SpectralData, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos(mu_m t) and sin(mu_m t)/mu_m of the three modes of M0^2.

    Both are (3, len(times)) arrays, time last, one row per projector of
    ``sd``, evaluated from mu_m^2 >= 0 so that mu_m -> 0 never divides.
    """
    mu_sq = sd.mu_sq[:, None]
    return np.cos(np.sqrt(mu_sq) * times), sinc_sqrt(mu_sq, times)
