"""Propagators for the driven three-level system.

Exact evolution by eigendecomposition, an independent fixed-step RK4
oracle, the adiabatic-elimination two-level model with its closed-form
population, the exact spectral solution at zero two-photon detuning, and
the effective two-level propagator built from the block-diagonal part of
the squared Hamiltonian.

One RK4 kernel serves the matrix form (the propagator, from the identity)
and the state form (a population trace, node by node): ``h @ x`` is the
same product for both.  Every sin(M t)/M factor is evaluated as the even
scalar function sin(sqrt(lam) t)/sqrt(lam) of the squared operator, so no
square-root sign ever has to be chosen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import RamanParams, SpectralData, h_new, spectral_m0sq
from .numerics import eig_h3, sinc_sqrt


@dataclass(frozen=True, eq=False)
class AEModel:
    """Adiabatic-elimination reduction to the two relevant levels.

    ``h_eff`` is the effective 2x2 Hamiltonian, ``e_plus``/``e_minus`` its
    eigenvalues, ``omega_r`` = e_plus - e_minus >= 0 the effective Rabi
    frequency, and ``sigma_o`` the traceless Pauli-type matrix whose
    (1 +- sigma_o)/2 are the eigenprojectors.
    """

    h_eff: np.ndarray
    e_plus: float
    e_minus: float
    omega_r: float
    sigma_o: np.ndarray


def exact_unitary(h: np.ndarray, t: float) -> np.ndarray:
    """Evolution operator exp(-i h t) of a Hermitian 3x3 Hamiltonian."""
    spec = eig_h3(h)
    phases = np.exp(-1j * spec.eigenvalues * t)
    v = spec.eigenvectors
    return (v * phases) @ v.conj().T


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


def ode_oracle(h: np.ndarray, t: float, dt_max: float) -> np.ndarray:
    """Fixed-step RK4 integration of dU/dt = -i h U from the identity.

    The step follows ``rk4_steps``.  Deterministic by design; this is the
    independent cross-check for the spectral propagators.
    """
    h = np.asarray(h, dtype=complex)
    steps = rk4_steps(h, t, dt_max)
    return rk4(h, np.eye(3, dtype=complex), t / steps, steps)


def ae_model(params: RamanParams) -> AEModel:
    """Effective 2x2 model after adiabatic elimination of the excited level."""
    d = params.delta_avg
    if d == 0:
        raise ValueError("adiabatic elimination is undefined at zero average detuning")
    dd = params.delta_2ph
    o0, o1 = params.omega0, params.omega1
    cross = o0 * np.conj(o1) / (2.0 * d)
    h_eff = -0.5 * np.array(
        [
            [dd + abs(o0) ** 2 / (2.0 * d), cross],
            [np.conj(cross), -dd + abs(o1) ** 2 / (2.0 * d)],
        ],
        dtype=complex,
    )
    # Stable sum-of-squares form of the effective Rabi frequency.
    omega_r = math.hypot(dd + params.omega_imbalance / (4.0 * d),
                         abs(o0) * abs(o1) / (2.0 * d))
    mean = -params.omega_sq / (8.0 * d)
    e_plus = mean + 0.5 * omega_r
    e_minus = mean - 0.5 * omega_r
    if omega_r > 0:
        sigma_o = (2.0 * h_eff - (e_plus + e_minus) * np.eye(2)) / omega_r
    else:
        sigma_o = np.diag([1.0, -1.0]).astype(complex)
    return AEModel(h_eff=h_eff, e_plus=e_plus, e_minus=e_minus,
                   omega_r=omega_r, sigma_o=sigma_o)


def ae_population_1(params: RamanParams, t: float) -> float:
    """Population of |1> at time t for initial state |0>, AE closed form.

    Returns the omega_r -> 0 limit (no oscillation, zero transfer) in the
    degenerate case.
    """
    model = ae_model(params)
    if model.omega_r == 0.0:
        return 0.0
    amp = (abs(params.omega0) * abs(params.omega1))**2 / (
        8.0 * params.delta_avg**2 * model.omega_r**2)
    return amp * (1.0 - math.cos(model.omega_r * t))


def mode_factors(sd: SpectralData, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos(mu_m t) and sin(mu_m t)/mu_m of the three modes of M0^2.

    Both are (len(times), 3) arrays, one column per projector of ``sd``,
    evaluated from mu_m^2 so that mu_m -> 0 never divides.
    """
    mus_sq = np.array([sd.mu_plus_sq, sd.mu_minus_sq, sd.mu_e_sq])
    t = np.asarray(times, dtype=float)[:, None]
    return np.cos(np.sqrt(np.maximum(mus_sq, 0.0)) * t), sinc_sqrt(mus_sq, t)


def exact_delta0(params: RamanParams, t: float) -> np.ndarray:
    """Exact propagator at zero two-photon detuning, from 2x2 spectral data.

    Built as cos(M0 t) - i [sin(M0 t)/M0] H with both trigonometric factors
    evaluated as functions of M0^2; equals exact_unitary(h_new, t) because
    H commutes with M0^2 when the two-photon detuning vanishes.
    """
    if params.delta_2ph != 0.0:
        raise ValueError("exact_delta0 requires zero two-photon detuning")
    sd = spectral_m0sq(params)
    cos_vals, sinc_vals = mode_factors(sd, np.array([t], dtype=float))
    proj = np.stack(sd.projectors)
    cos_m = np.tensordot(cos_vals[0], proj, 1)
    sinc_m = np.tensordot(sinc_vals[0], proj, 1)
    return cos_m - 1j * sinc_m @ h_new(params)


def excited_pop_delta0(params: RamanParams, t: float) -> float:
    """Excited-level population at time t from |0>, zero two-photon detuning."""
    if params.delta_2ph != 0.0:
        raise ValueError("excited_pop_delta0 requires zero two-photon detuning")
    big = params.delta_avg**2 + params.omega_sq
    return abs(params.omega0) ** 2 / big * math.sin(0.5 * math.sqrt(big) * t) ** 2


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
