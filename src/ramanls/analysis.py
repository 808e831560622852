"""Elementwise observables and population traces.

The effective Rabi frequencies of the three treatments, the resonance
detunings of adiabatic elimination and of the linearised light-shift
balance, and the transfer amplitude read the closed-form Raman block,
so they stay accurate to a few ulps at weak drive.  They are
elementwise: given a RamanParams with array fields they return one
value per parameter point, equal bit for bit to the scalar call there.

``trace_populations`` records a population trace by any method, and
``trace_rows`` gives one on any slice of the grid nodes.  The non-LS
methods are pointwise: each solves one spectrum per trace and is then a
function of t alone, ``propagators.modal_states`` on it for all but
``delta0``, so a CLI trace is held one chunk at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lippmann_schwinger import (TimeGrid, Variant, _u0_table, apply_normalized,
                                 _initial_state, iterate)
from .model import RamanParams, _modulus, h_ae, h_new, spectral_m0sq
from .numerics import eig_h3
from .propagators import modal_states, mode_factors, rk4_steps


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


# Every method maps (params, psi0, grid, order) to the function that
# gives its (m, 3) states on a slice of the grid nodes.  Helpers are
# looked up in this module's globals at call time, never bound early, so
# that wrapping a module binding (as a profiler does) sees every call.

def _eigen(h, psi0, grid, rk4=False):
    """exp(-i h t) psi0 by the rates -i lam_m on the eigenvectors v_m of h,
    or with ``rk4`` those of RK4 in s = ``rk4_steps`` equal steps per
    interval.  A step multiplies the v_m component by p(z_m) = 1 + z +
    z^2/2 + z^3/6 + z^4/24 at z = -i lam_m dt/s, so RK4 is the exact state
    with each rate -i lam_m replaced by log(p(z_m)^s)/dt = -i lam_m +
    (s/dt) d(z_m), d(z) = log p(z) - z = -z^5/120 + z^6/144 - z^7/336 +
    z^8/1152 - z^9/5184 + O(z^11): rounding at the |z| <= 0.05 that s keeps."""
    lam, v = eig_h3(h)
    rates, coeffs = -1j * lam, v.conj().T @ psi0
    if rk4:
        s = rk4_steps(h, grid.dt)
        z = rates * (grid.dt / s)
        d = z ** 5 * (-1 / 120 + z * (1 / 144 + z * (-1 / 336 + z * (1 / 1152 - z / 5184))))
        rates = rates + (s / grid.dt) * d
    return lambda rows: modal_states(rates, v, coeffs, grid.times[rows])


def _beat(method, omega):
    """The two-level states P- psi0 + exp(i omega t) P+ psi0, excited
    amplitude zero, P+- the Raman-block projectors of ``spectral_m0sq``
    and omega(params) the beat.  They are the eigenprojectors of the AE
    h_eff as well, so one beat serves both two-level methods; it drops a
    global phase, which no population reads."""
    def states(params, psi0, grid, order):
        if abs(psi0[2]) > 1e-12:
            raise ValueError(f"method {method} requires zero initial excited amplitude")
        p_plus, p_minus = spectral_m0sq(params).projectors[:2]
        vectors = np.stack([p_minus @ psi0, p_plus @ psi0], axis=1)
        rates = (0.0, 1j * omega(params))
        return lambda rows: modal_states(rates, vectors, (1.0, 1.0), grid.times[rows])
    return states


def _delta0(params, psi0, grid, order):
    if params.delta_2ph != 0.0:
        raise ValueError("method delta0 requires zero two-photon detuning")
    # H commutes with M0^2 at zero two-photon detuning, so U0 is exact.
    sd, h = spectral_m0sq(params), h_new(params)
    return lambda rows: np.einsum("abt,b->ta", _u0_table(
        Variant.R, sd.projectors, h, *mode_factors(sd, grid.times[rows])), psi0)


def _ls(variant):
    def states(params, psi0, grid, order):
        return apply_normalized(iterate(variant, params, grid, order), psi0).__getitem__
    return states


#: Every method trace_populations accepts, mapped to its states.
METHODS = {
    "exact-ae": lambda params, psi0, grid, order: _eigen(h_ae(params), psi0, grid),
    "exact-new": lambda params, psi0, grid, order: _eigen(h_new(params), psi0, grid),
    "ode": lambda params, psi0, grid, order: _eigen(h_new(params), psi0, grid, rk4=True),
    # exp(-i h_eff t) psi0 with h_eff = -T/Delta + c I and T = r (P+ - P-):
    # the beat at 2r/Delta = sign(Delta) rabi_ae.
    "ae": _beat("ae", lambda params: np.sign(params.delta_avg) * rabi_ae(params)),
    "delta0": _delta0,
    # exp(+i sqrt(B) t) psi0, B the Raman block of M0^2: the beat at
    # mu+ - mu- = rabi_general, which stays exact at weak drive.
    "m0eff": _beat("m0eff", lambda params: rabi_general(params)),
    **{f"ls-{v.value}": _ls(v) for v in Variant},
}


def trace_rows(method: str, params: RamanParams, psi0: np.ndarray,
               grid: TimeGrid, *, order: int = 0):
    """``method`` solved once on ``grid``: its trace label, and the
    function that gives p0, p1, pe and the norm on a slice of the grid
    nodes.  A pointwise method evaluates only the nodes of the slice."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; valid: {', '.join(METHODS)}")
    states = METHODS[method](params, _initial_state(psi0), grid, order)

    def populations(rows):
        s = states(rows)
        pops = np.square(s.real) + np.square(s.imag)
        return pops[:, 0], pops[:, 1], pops[:, 2], np.sqrt(pops.sum(axis=1))
    return f"{method}-k{order}" if method.startswith("ls-") else method, populations


def trace_populations(method: str, params: RamanParams, psi0: np.ndarray,
                      grid: TimeGrid, *, order: int = 0) -> Trace:
    """Populations of the three levels along a grid, by any named method.
    Two-level methods ("ae", "m0eff") require a vanishing initial excited
    amplitude and report pe identically zero; "ls-*" reads ``order``."""
    label, populations = trace_rows(method, params, psi0, grid, order=order)
    return Trace(grid.times, *populations(slice(None)), label)
