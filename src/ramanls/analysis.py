"""Scalar observables and population traces.

Effective Rabi frequencies from the three treatments, the two resonance
detunings plus the self-consistent light-shift solution, the transfer
amplitude, state fidelity, and a uniform population-trace record for
every propagation method the package offers.  The Rabi frequencies and
the amplitude read the closed-form Raman block, so they stay accurate to
a few ulps at weak drive, where adiabatic elimination is reliable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lippmann_schwinger import TimeGrid, Variant, apply_normalized, iterate
from .model import RamanParams, _raman_block, h_ae, h_new, spectral_m0sq
from .propagators import (ae_model, m0_effective_unitary, mode_factors, rk4,
                          rk4_steps, state_table)


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
    return 2.0 * _raman_block(params)[2] / abs(params.delta_avg)


def rabi_exact_delta0(params: RamanParams) -> float:
    """Exact effective Rabi frequency at zero two-photon detuning."""
    if params.delta_2ph != 0.0:
        raise ValueError("rabi_exact_delta0 requires zero two-photon detuning")
    return rabi_general(params)


def rabi_general(params: RamanParams) -> float:
    """Effective Rabi frequency mu_plus - mu_minus of the split square,
    taken as 2r/(mu_plus + mu_minus) so that weak drives do not cancel."""
    _, _, r, mu_plus_sq, mu_minus_sq = _raman_block(params)
    return 2.0 * r / (math.sqrt(mu_plus_sq) + math.sqrt(mu_minus_sq))


def delta_resonant_ae(params: RamanParams) -> float:
    """Two-photon detuning cancelling the AE effective detuning."""
    return -params.omega_imbalance / (4.0 * params.delta_avg)


def delta_resonant_lightshift(params: RamanParams) -> tuple[float, float]:
    """Resonant detuning from the light-shift balance.

    Returns ``(approx, exact)``: the leading closed form and the Newton
    solution of the self-consistent balance
    delta = |omega1|^2/(4 Delta + 2 delta) - |omega0|^2/(4 Delta - 2 delta),
    seeded at the closed form.
    """
    d = params.delta_avg
    o0_sq = abs(params.omega0) ** 2
    o1_sq = abs(params.omega1) ** 2
    approx = 2.0 * d * (o1_sq - o0_sq) / (8.0 * d * d + o0_sq + o1_sq)

    x = approx
    for _ in range(50):
        den_p = 4.0 * d + 2.0 * x
        den_m = 4.0 * d - 2.0 * x
        if den_p == 0 or den_m == 0:
            raise ValueError("light-shift balance hit a vanishing denominator")
        f = x - o1_sq / den_p + o0_sq / den_m
        df = 1.0 + 2.0 * o1_sq / den_p**2 + 2.0 * o0_sq / den_m**2
        step = f / df
        x -= step
        if abs(step) <= 1e-12 * max(abs(x), 1e-300):
            return approx, x
    raise ValueError(
        f"light-shift Newton did not converge; last residual {f:.3e}"
    )


def amplitude_p(params: RamanParams) -> float:
    """Transfer oscillation amplitude |b|^2/r^2 of the effective two-level
    model, from the closed form of the Raman block."""
    _, b, r, _, _ = _raman_block(params)
    if r == 0:
        raise ValueError("amplitude undefined: degenerate Raman block")
    return (abs(b) / r) ** 2


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Overlap magnitude |a^dagger b| of two unit-norm states."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    for name, v in (("a", a), ("b", b)):
        if not abs(np.linalg.norm(v) - 1.0) <= 1e-8:  # false for NaN too
            raise ValueError(f"fidelity argument {name} is not unit norm")
    return float(abs(np.vdot(a, b)))


def _require_no_excited(psi0: np.ndarray, method: str) -> np.ndarray:
    if abs(psi0[2]) > 1e-12:
        raise ValueError(f"method {method} requires zero initial excited amplitude")
    return psi0[:2]


def _with_empty_excited(two: np.ndarray) -> np.ndarray:
    return np.concatenate([two, np.zeros((len(two), 1))], axis=1)


# Every method maps (params, psi0, grid, order, dt_max) to the (n+1, 3)
# states on the grid nodes.  The helpers are looked up in this module's
# globals at call time, never bound early, so that wrapping a module
# binding (as a profiler does) sees every call.

def _ode(params, psi0, grid, order, dt_max):
    h = h_new(params)
    substeps = rk4_steps(h, grid.dt, grid.dt if dt_max is None else dt_max)
    dt = grid.dt / substeps
    states = np.empty((grid.n + 1, 3), dtype=complex)
    states[0] = psi0
    for i in range(grid.n):
        states[i + 1] = rk4(h, states[i], dt, substeps)
    return states


def _ae(params, psi0, grid, order, dt_max):
    psi01 = _require_no_excited(psi0, "ae")
    return _with_empty_excited(state_table(ae_model(params), grid.times, psi01))


def _m0eff(params, psi0, grid, order, dt_max):
    psi01 = _require_no_excited(psi0, "m0eff")
    return _with_empty_excited(m0_effective_unitary(params, grid.times) @ psi01)


def _delta0(params, psi0, grid, order, dt_max):
    if params.delta_2ph != 0.0:
        raise ValueError("method delta0 requires zero two-photon detuning")
    sd = spectral_m0sq(params)
    proj = np.stack(sd.projectors)
    cos_rows, sinc_rows = mode_factors(sd, grid.times)
    hpsi = h_new(params) @ psi0
    # Contracted straight into states: an (n+1, 3, 3) operator table
    # would double the peak memory of long traces.
    return (np.einsum("it,iab,b->ta", cos_rows, proj, psi0)
            - 1j * np.einsum("it,iab,b->ta", sinc_rows, proj, hpsi))


def _ls(variant):
    def states(params, psi0, grid, order, dt_max):
        return apply_normalized(iterate(variant, params, grid, order), psi0)
    return states


#: Every method trace_populations accepts, mapped to its state table.
METHODS = {
    "exact-ae": lambda params, psi0, grid, order, dt_max:
        state_table(h_ae(params), grid.times, psi0),
    "exact-new": lambda params, psi0, grid, order, dt_max:
        state_table(h_new(params), grid.times, psi0),
    "ode": _ode,
    "ae": _ae,
    "delta0": _delta0,
    "m0eff": _m0eff,
    **{f"ls-{v.value}": _ls(v) for v in Variant},
}


def trace_populations(method: str, params: RamanParams, psi0: np.ndarray,
                      grid: TimeGrid, *, order: int = 0,
                      dt_max: float | None = None) -> Trace:
    """Populations of the three levels along a grid, by any named method.

    Two-level methods ("ae", "m0eff") require a vanishing initial excited
    amplitude and report pe identically zero.  The "ls-*" methods take the
    iteration order through ``order``; "ode" takes its step bound through
    ``dt_max``.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; valid: {', '.join(METHODS)}")
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (3,):
        raise ValueError("initial state must have three components")
    if not abs(np.linalg.norm(psi0) - 1.0) <= 1e-9:  # false for NaN too
        raise ValueError("initial state must have unit norm")
    states = METHODS[method](params, psi0, grid, order, dt_max)
    label = f"{method}-k{order}" if method.startswith("ls-") else method
    pops = np.abs(states) ** 2
    norm = np.sqrt(pops.sum(axis=1))
    return Trace(times=grid.times, p0=pops[:, 0], p1=pops[:, 1], pe=pops[:, 2],
                 norm=norm, label=label)
