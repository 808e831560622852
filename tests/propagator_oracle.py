"""Reference propagators and closed-form populations for the tests.

The exact 3x3 propagator by numpy's Hermitian eigensolver, a four-stage
RK4 loop kept here (an integration of the propagator from the identity,
and the ``ode`` states stepped node by node on the state), the
adiabatic-elimination effective Hamiltonian entry by entry and its
closed-form population, the zero-detuning excited population in closed
form, the Newton solution of the self-consistent light-shift balance,
and the fidelity of the AE and the light-shift resonance prescriptions.
They are written from the definitions alone: none reads the package's
spectral data, Rabi frequencies or RK4 map.  No package path calls
them; they are kept only as the references the package's methods are
checked against.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from ramanls.model import RamanParams, h_new


def exact_unitary(h: np.ndarray, t) -> np.ndarray:
    """Evolution operator exp(-i h t) of a Hermitian 3x3 Hamiltonian; for
    an array of times, one operator per time along the leading axes."""
    lam, v = np.linalg.eigh(h)
    phases = np.exp(-1j * np.multiply.outer(t, lam))
    return (v * phases[..., None, :]) @ v.conj().T


def _rk4(h: np.ndarray, x: np.ndarray, dt: float, steps: int) -> np.ndarray:
    """``steps`` classical four-stage RK4 steps of dx/dt = -i h x; x a
    state or a matrix."""
    for _ in range(steps):
        k1 = -1j * (h @ x)
        k2 = -1j * (h @ (x + 0.5 * dt * k1))
        k3 = -1j * (h @ (x + 0.5 * dt * k2))
        k4 = -1j * (h @ (x + dt * k3))
        x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def ode_oracle(h: np.ndarray, t: float, dt_max: float) -> np.ndarray:
    """Fixed-step RK4 integration of dU/dt = -i h U from the identity, in
    the fewest equal steps no longer than ``dt_max`` (at least one).

    Deterministic by design; this is the independent cross-check for the
    spectral propagators.
    """
    if not dt_max > 0:
        raise ValueError("dt_max must be positive")
    steps = max(1, math.ceil(abs(t) / dt_max))
    return _rk4(np.asarray(h, dtype=complex), np.eye(3, dtype=complex), t / steps, steps)


def ode_states_by_node(params: RamanParams, psi0: np.ndarray, grid,
                       substeps: int) -> np.ndarray:
    """The (n+1, 3) ``ode`` states, RK4 applied to the state across one
    grid interval at a time, in ``substeps`` equal steps per interval."""
    h = h_new(params)
    dt = grid.dt / substeps
    states = np.empty((grid.n + 1, 3), dtype=complex)
    states[0] = psi0
    for i in range(grid.n):
        states[i + 1] = _rk4(h, states[i], dt, substeps)
    return states


def ae_h_eff(params: RamanParams) -> np.ndarray:
    """AE effective 2x2 Hamiltonian, each entry written from the parameters:
    -(1/2) [[delta + |Omega0|^2/(2 Delta), Omega0 Omega1*/(2 Delta)],
            [c.c., -delta + |Omega1|^2/(2 Delta)]]."""
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


def ae_population_1(params: RamanParams, t: float) -> float:
    """Population of |1> at time t for initial state |0>, AE closed form.

    Returns the omega_r -> 0 limit (no oscillation, zero transfer) in the
    degenerate case.
    """
    lam = np.linalg.eigvalsh(ae_h_eff(params))
    omega_r = lam[1] - lam[0]
    if omega_r == 0.0:
        return 0.0
    amp = (abs(params.omega0) * abs(params.omega1))**2 / (
        8.0 * params.delta_avg**2 * omega_r**2)
    return amp * (1.0 - math.cos(omega_r * t))


def excited_pop_delta0(params: RamanParams, t: float) -> float:
    """Excited-level population at time t from |0>, zero two-photon detuning."""
    if params.delta_2ph != 0.0:
        raise ValueError("excited_pop_delta0 requires zero two-photon detuning")
    big = params.delta_avg**2 + params.omega_sq
    return abs(params.omega0) ** 2 / big * math.sin(0.5 * math.sqrt(big) * t) ** 2


def lightshift_balance(params: RamanParams) -> float:
    """Newton solution of the self-consistent light-shift balance
    delta = |omega1|^2/(4 Delta + 2 delta) - |omega0|^2/(4 Delta - 2 delta),
    started at delta = 0."""
    d = params.delta_avg
    o0_sq = abs(params.omega0) ** 2
    o1_sq = abs(params.omega1) ** 2
    x = 0.0
    for _ in range(50):
        den_p = 4.0 * d + 2.0 * x
        den_m = 4.0 * d - 2.0 * x
        f = x - o1_sq / den_p + o0_sq / den_m
        df = 1.0 + 2.0 * o1_sq / den_p**2 + 2.0 * o0_sq / den_m**2
        step = f / df
        x -= step
        if abs(step) <= 1e-12 * max(abs(x), 1e-300):
            return x
    raise ValueError(f"light-shift Newton did not converge; last residual {f:.3e}")


def fidelity_by_definition(params: RamanParams, phase: np.ndarray) -> np.ndarray:
    """|<psi_ae(t)|psi_ls(t)>| from |0> at t = phase / Omega_AE, with the
    two resonant detunings and the AE Rabi frequency written from their
    definitions and the states from the exact unitary of h_new."""
    d = params.delta_avg
    o0_sq, o1_sq = abs(params.omega0) ** 2, abs(params.omega1) ** 2
    # AE resonance: the diagonal entries of h_eff (``ae_h_eff``) are equal.
    d_ae = (o1_sq - o0_sq) / (4.0 * d)
    # delta = |o1|^2/(4 Delta + 2 delta) - |o0|^2/(4 Delta - 2 delta) to
    # first order in delta/Delta.
    d_ls = d_ae / (1.0 + (o0_sq + o1_sq) / (8.0 * d * d))
    # At the AE resonance the two-level gap is the coupling alone.
    omega_ae = abs(params.omega0) * abs(params.omega1) / (2.0 * abs(d))
    psi_ae, psi_ls = (exact_unitary(h_new(replace(params, delta_2ph=dd)),
                                    phase / omega_ae)[..., 0] for dd in (d_ae, d_ls))
    return np.abs(np.einsum("ta,ta->t", psi_ae.conj(), psi_ls))
