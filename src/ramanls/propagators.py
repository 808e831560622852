"""Propagators for the driven three-level system.

``modal_states`` evaluates sum_m exp(r_m t) c_m v_m, the form of the
exact states (``state_table``), of RK4 in ``rk4_steps`` substeps and of
the two-level beats.  ``ae_model`` returns the adiabatic-elimination
h_eff for library callers.  ``mode_factors`` gives the cos/sinc factors
of the modes of the squared Hamiltonian's block-diagonal part, each an
even function of mu, so no square-root sign ever has to be chosen.
"""

from __future__ import annotations

import math

import numpy as np

from .model import RamanParams, SpectralData
from .numerics import eig_h3, sinc_sqrt


def modal_states(rates, vectors, coeffs, times) -> np.ndarray:
    """The states sum_m exp(r_m t) c_m v_m, v_m the columns of ``vectors``,
    one row per time.  A row reads its own time alone, so a slice of
    ``times`` gives the rows of the whole bit for bit."""
    t = np.asarray(times, dtype=float)[:, None]
    weighted = np.asarray(vectors) * coeffs
    return sum(np.exp(r * t) * w for r, w in zip(rates, weighted.T))


def state_table(h: np.ndarray, times: np.ndarray, psi0: np.ndarray) -> np.ndarray:
    """States exp(-i h t) psi0 at every requested time, one eigensolve."""
    lam, v = eig_h3(h)
    return modal_states(-1j * lam, v, v.conj().T @ np.asarray(psi0, complex), times)


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
