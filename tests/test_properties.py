"""Property-based invariants across methods, drawn with hypothesis.

Every draw takes the average detuning Delta with either sign, a
two-photon detuning delta, complex Rabi frequencies Omega_0 and Omega_1
and a small grid (at most 40 intervals), so that the quadratic oracle
stays cheap.  Complex Omega matters: with real drives every matrix of the
problem is real symmetric, and a wrong transpose or conjugate in the
L form of the Born step goes unseen.  Examples are derandomized, so a run
is reproducible and its cost bounded.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from ramanls.analysis import trace_populations
from ramanls.lippmann_schwinger import GRID_PHASE_LIMIT, TimeGrid, iterate
from ramanls.model import RamanParams, spectral_m0sq

import ls_quadratic

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def rabi(draw):
    magnitude = draw(st.floats(5.0, 300.0))
    phase = draw(st.floats(0.0, 2.0 * np.pi))
    return complex(magnitude * np.exp(1j * phase))


@st.composite
def raman_params(draw, delta_2ph=None):
    delta_avg = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(100.0, 900.0))
    if delta_2ph is None:
        delta_2ph = draw(st.floats(-0.3, 0.3)) * abs(delta_avg)
    return RamanParams(delta_avg, delta_2ph, draw(rabi()), draw(rabi()))


@st.composite
def grid_for(draw, params):
    """A grid of at most 40 intervals that passes the density rule."""
    n = 2 * draw(st.integers(1, 20))
    fill = draw(st.floats(0.1, 1.0))
    mu_max = spectral_m0sq(params).mu_max
    return TimeGrid(t_end=fill * n * GRID_PHASE_LIMIT / mu_max, n=n)


@st.composite
def unit_state(draw):
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
    psi = np.array(parts[:3]) + 1j * np.array(parts[3:])
    norm = np.linalg.norm(psi)
    return psi / norm if norm > 0.1 else np.array([1.0, 0.0, 0.0], dtype=complex)


@SETTINGS
@given(st.data())
def test_separable_iterate_matches_quadratic_oracle(data):
    params = data.draw(raman_params())
    grid = data.draw(grid_for(params))
    for variant in ("R", "L", "S", "M"):
        for order in range(3):
            fast = iterate(variant, params, grid, order).matrices
            slow = ls_quadratic.iterate(variant, params, grid, order).matrices
            assert np.abs(fast - slow).max() <= 1e-12, (variant, order)


@SETTINGS
@given(st.data())
def test_exact_propagators_agree_in_both_pictures(data):
    # h_ae and h_new differ by a multiple of I: a global phase only.
    params = data.draw(raman_params())
    grid = data.draw(grid_for(params))
    psi0 = data.draw(unit_state())
    ae = trace_populations("exact-ae", params, psi0, grid)
    new = trace_populations("exact-new", params, psi0, grid)
    for level in ("p0", "p1", "pe"):
        gap = np.abs(getattr(ae, level) - getattr(new, level)).max()
        assert gap <= 1e-12, level


@SETTINGS
@given(st.data())
def test_delta0_matches_exact_at_zero_two_photon_detuning(data):
    params = data.draw(raman_params(delta_2ph=0.0))
    grid = data.draw(grid_for(params))
    psi0 = data.draw(unit_state())
    spectral = trace_populations("delta0", params, psi0, grid)
    exact = trace_populations("exact-new", params, psi0, grid)
    for level in ("p0", "p1", "pe"):
        gap = np.abs(getattr(spectral, level) - getattr(exact, level)).max()
        assert gap <= 1e-12, level
