"""Elementwise observables and population traces.

Effective Rabi frequencies from the three treatments, the resonance
detunings of adiabatic elimination and of the linearised light-shift
balance, the transfer amplitude, and a uniform population-trace record
for every propagation method the package offers.  The Rabi frequencies
and the amplitude read the closed-form Raman block, so they stay
accurate to a few ulps at weak drive, where adiabatic elimination is
reliable.  ``rabi_ae``, ``rabi_general``, ``amplitude_p`` and both
resonance detunings are elementwise: given a RamanParams with array
fields they return one value per parameter point, equal bit for bit to
the scalar call there.

The non-LS traces read one spectrum each: ``exact-*`` and ``ode`` the
eigensystem of H (``ode`` with RK4's growth factor per interval in place
of each exact phase), ``ae`` and ``m0eff`` the Raman-block projectors,
beating at 2r/Delta and at mu+ - mu-.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lippmann_schwinger import (TimeGrid, Variant, _u0_table, apply_normalized,
                                 _initial_state, iterate)
from .model import RamanParams, _modulus, h_ae, h_new, spectral_m0sq
from .numerics import eig_h3
from .propagators import mode_factors, rk4_steps, state_table


@dataclass(frozen=True, eq=False)
class Trace:
    """Time series of the three level populations plus state norm."""

    times: np.ndarray
    p0: np.ndarray
    p1: np.ndarray
    pe: np.ndarray
    norm: np.ndarray
    label: str


def rabi_ae(params: RamanParams) -> float:
    """Effective Rabi frequency of the adiabatic-elimination model: the gap
    2r/|Delta| of h_eff = -T/Delta + c I, T the traceless Raman block."""
    return 2.0 * params.raman_block[2] / np.abs(params.delta_avg)


def rabi_exact_delta0(params: RamanParams) -> float:
    """Exact effective Rabi frequency at zero two-photon detuning."""
    if params.delta_2ph != 0.0:
        raise ValueError("rabi_exact_delta0 requires zero two-photon detuning")
    return rabi_general(params)


def rabi_general(params: RamanParams) -> float:
    """Effective Rabi frequency mu_plus - mu_minus of the split square,
    taken as 2r/(mu_plus + mu_minus) so that weak drives do not cancel."""
    _, _, r, mu_plus_sq, mu_minus_sq = params.raman_block
    return 2.0 * r / (np.sqrt(mu_plus_sq) + np.sqrt(mu_minus_sq))


def delta_resonant_ae(params: RamanParams) -> float:
    """Two-photon detuning cancelling the AE effective detuning."""
    params.raman_block  # the overflow check
    return -params.omega_imbalance / (4.0 * params.delta_avg)


def delta_resonant_lightshift(params: RamanParams) -> float:
    """Resonant detuning in closed form: the light-shift balance
    delta = |omega1|^2/(4 Delta + 2 delta) - |omega0|^2/(4 Delta - 2 delta)
    linearised in delta/Delta."""
    params.raman_block  # the overflow check: d^4 and every |omega|^2 fit
    d = params.delta_avg
    return -2.0 * d * params.omega_imbalance / (8.0 * d * d + params.omega_sq)


def amplitude_p(params: RamanParams) -> float:
    """Transfer oscillation amplitude |b|^2/r^2 of the effective two-level
    model, from the closed form of the Raman block."""
    _, b, r, _, _ = params.raman_block
    if (r == 0.0).any():
        raise ValueError("amplitude undefined: degenerate Raman block")
    return np.square(_modulus(b) / r)


# Every method maps (params, psi0, grid, order) to the (n+1, 3)
# states on the grid nodes.  The helpers are looked up in this module's
# globals at call time, never bound early, so that wrapping a module
# binding (as a profiler does) sees every call.

def _ode(params, psi0, grid, order):
    """RK4 across each grid interval in s = ``rk4_steps`` equal substeps.
    For constant H one four-stage step is the stability polynomial
    p(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 at z = -i H dt/s, so on each
    eigenvector v_m of H one interval multiplies by the scalar growth
    factor g_m = p(-i lam_m dt/s)^s, and node i is
    sum_m g_m^i v_m (v_m^H psi0): the exact propagator with
    exp(-i lam_m dt) replaced by g_m."""
    h = h_new(params)
    substeps = rk4_steps(h, grid.dt)
    lam, v = eig_h3(h)
    z = (-1j * grid.dt / substeps) * lam
    p = np.ones(3, dtype=complex)
    for j in (4, 3, 2, 1):  # Horner: 1 + z (1 + z/2 (1 + z/3 (1 + z/4)))
        p = 1.0 + z * p / j
    # Filled, accumulated and scaled in place, so that one (n+1, 3) table
    # is alive beside the states (71 MB each at n = 1.47e6).
    growth = np.empty((grid.n + 1, 3), dtype=complex)
    growth[0], growth[1:] = 1.0, p ** substeps
    np.cumprod(growth, axis=0, out=growth)
    growth *= v.conj().T @ psi0
    return growth @ v.T


def _beat(params, psi0, grid, omega, method):
    """The two-level states P- psi0 + exp(i omega t) P+ psi0, excited
    amplitude zero, P+- the Raman-block projectors of ``spectral_m0sq``.
    They are the eigenprojectors of the AE h_eff as well, so one beat
    serves both two-level methods; it drops a global phase, which no
    population reads."""
    if abs(psi0[2]) > 1e-12:
        raise ValueError(f"method {method} requires zero initial excited amplitude")
    p_plus, p_minus = spectral_m0sq(params).projectors[:2]
    return np.outer(np.exp(1j * omega * grid.times), p_plus @ psi0) + p_minus @ psi0


def _ae(params, psi0, grid, order):
    """exp(-i h_eff t) psi0 with h_eff = -T/Delta + c I and T = r (P+ - P-),
    so the beat runs at 2r/Delta = sign(Delta) ``rabi_ae``."""
    omega = np.sign(params.delta_avg) * rabi_ae(params)
    return _beat(params, psi0, grid, omega, "ae")


def _m0eff(params, psi0, grid, order):
    """exp(+i sqrt(B) t) psi0, B the Raman block of M0^2, as the beat at
    Omega_R = mu+ - mu- from ``rabi_general``, which stays exact at weak
    drive."""
    return _beat(params, psi0, grid, rabi_general(params), "m0eff")


def _delta0(params, psi0, grid, order):
    if params.delta_2ph != 0.0:
        raise ValueError("method delta0 requires zero two-photon detuning")
    # H commutes with M0^2 at zero two-photon detuning, so U0 is exact.
    sd = spectral_m0sq(params)
    u0 = _u0_table(Variant.R, sd.projectors, h_new(params),
                   *mode_factors(sd, grid.times))
    return np.einsum("abt,b->ta", u0, psi0)


def _ls(variant):
    def states(params, psi0, grid, order):
        return apply_normalized(iterate(variant, params, grid, order), psi0)
    return states


#: Every method trace_populations accepts, mapped to its state table.
METHODS = {
    "exact-ae": lambda params, psi0, grid, order:
        state_table(h_ae(params), grid.times, psi0),
    "exact-new": lambda params, psi0, grid, order:
        state_table(h_new(params), grid.times, psi0),
    "ode": _ode,
    "ae": _ae,
    "delta0": _delta0,
    "m0eff": _m0eff,
    **{f"ls-{v.value}": _ls(v) for v in Variant},
}


def trace_populations(method: str, params: RamanParams, psi0: np.ndarray,
                      grid: TimeGrid, *, order: int = 0) -> Trace:
    """Populations of the three levels along a grid, by any named method.

    Two-level methods ("ae", "m0eff") require a vanishing initial excited
    amplitude and report pe identically zero.  The "ls-*" methods take the
    iteration order through ``order``.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; valid: {', '.join(METHODS)}")
    psi0 = _initial_state(psi0)
    states = METHODS[method](params, psi0, grid, order)
    label = f"{method}-k{order}" if method.startswith("ls-") else method
    pops = np.square(states.real) + np.square(states.imag)
    norm = np.sqrt(pops.sum(axis=1))
    return Trace(times=grid.times, p0=pops[:, 0], p1=pops[:, 1], pe=pops[:, 2],
                 norm=norm, label=label)
