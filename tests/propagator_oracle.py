"""Reference propagators and closed-form populations for the tests.

The exact 3x3 propagator by eigendecomposition, an RK4 integration of the
propagator from the identity, the adiabatic-elimination closed-form
population, and the zero-detuning propagator and excited population in
closed form.  No package path calls them; they are kept only as the
references the package's methods are checked against.
"""

from __future__ import annotations

import math

import numpy as np

from ramanls.analysis import rabi_ae
from ramanls.model import RamanParams, h_new, spectral_m0sq
from ramanls.numerics import eig_h3
from ramanls.propagators import mode_factors, rk4, rk4_steps


def exact_unitary(h: np.ndarray, t: float) -> np.ndarray:
    """Evolution operator exp(-i h t) of a Hermitian 3x3 Hamiltonian."""
    spec = eig_h3(h)
    phases = np.exp(-1j * spec.eigenvalues * t)
    v = spec.eigenvectors
    return (v * phases) @ v.conj().T


def ode_oracle(h: np.ndarray, t: float, dt_max: float) -> np.ndarray:
    """Fixed-step RK4 integration of dU/dt = -i h U from the identity.

    The step follows ``rk4_steps``.  Deterministic by design; this is the
    independent cross-check for the spectral propagators.
    """
    h = np.asarray(h, dtype=complex)
    steps = rk4_steps(h, t, dt_max)
    return rk4(h, np.eye(3, dtype=complex), t / steps, steps)


def ae_population_1(params: RamanParams, t: float) -> float:
    """Population of |1> at time t for initial state |0>, AE closed form.

    Returns the omega_r -> 0 limit (no oscillation, zero transfer) in the
    degenerate case.
    """
    omega_r = rabi_ae(params)
    if omega_r == 0.0:
        return 0.0
    amp = (abs(params.omega0) * abs(params.omega1))**2 / (
        8.0 * params.delta_avg**2 * omega_r**2)
    return amp * (1.0 - math.cos(omega_r * t))


def exact_delta0(params: RamanParams, t: float) -> np.ndarray:
    """Exact propagator at zero two-photon detuning, from 2x2 spectral data.

    Built as cos(M0 t) - i [sin(M0 t)/M0] H with both trigonometric factors
    evaluated as functions of M0^2; equals exact_unitary(h_new, t) because
    H commutes with M0^2 when the two-photon detuning vanishes.
    """
    if params.delta_2ph != 0.0:
        raise ValueError("exact_delta0 requires zero two-photon detuning")
    sd = spectral_m0sq(params)
    cos_rows, sinc_rows = mode_factors(sd, np.array([t], dtype=float))
    proj = np.stack(sd.projectors)
    cos_m = np.tensordot(cos_rows[:, 0], proj, 1)
    sinc_m = np.tensordot(sinc_rows[:, 0], proj, 1)
    return cos_m - 1j * sinc_m @ h_new(params)


def excited_pop_delta0(params: RamanParams, t: float) -> float:
    """Excited-level population at time t from |0>, zero two-photon detuning."""
    if params.delta_2ph != 0.0:
        raise ValueError("excited_pop_delta0 requires zero two-photon detuning")
    big = params.delta_avg**2 + params.omega_sq
    return abs(params.omega0) ** 2 / big * math.sin(0.5 * math.sqrt(big) * t) ** 2
