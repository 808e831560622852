"""Propagators for the driven three-level system.

``modal_states`` evaluates sum_m exp(r_m t) v_m, the form of the exact
states (``state_table``), of RK4 in ``rk4_steps`` substeps, of the
zero-detuning modes and of the two-level beats.  ``ae_model`` returns
the adiabatic-elimination h_eff for library callers.
"""

from __future__ import annotations

import math

import numpy as np

from .model import RamanParams
from .numerics import eig_h3


def modal_states(rates, vectors, times) -> np.ndarray:
    """The states sum_m exp(r_m t) v_m, v_m the columns of ``vectors``,
    one row per time.  A row reads its own time alone, so a slice of
    ``times`` gives the rows of the whole bit for bit.  A phase |r t| past
    2**52 (or NaN) raises ValueError: one ulp of it is a radian, so a row is noise."""
    t = np.asarray(times, dtype=float)[:, None]
    t_max = float(np.abs(t).max(initial=0.0))
    if not float(np.abs(rates).max()) * t_max <= 2.0 ** 52:
        raise ValueError(f"the phases overflow double precision at t = {t_max:g}: "
                         "past 2**52 rad one ulp of a phase is a radian")
    return sum(np.exp(r * t) * v for r, v in zip(rates, np.asarray(vectors).T))


def state_table(h: np.ndarray, times: np.ndarray, psi0: np.ndarray) -> np.ndarray:
    """States exp(-i h t) psi0 at every requested time, one eigensolve."""
    lam, v = eig_h3(h)
    return modal_states(-1j * lam, v * (v.conj().T @ np.asarray(psi0, complex)), times)


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
