"""Edge regimes: one drive off, one-photon resonance of the |1> leg with
both drives on, very long times on a coarse grid, and minimal grids.
Each must give the correct limit or raise a clear ValueError."""

import numpy as np
import pytest

from ramanls.analysis import METHODS, trace_populations
from ramanls.lippmann_schwinger import (GRID_PHASE_LIMIT, TimeGrid, auto_grid,
                                        iterate)
from ramanls.model import RamanParams, spectral_m0sq

import ls_quadratic

#: Populations spread over both ground levels, so that a drive on
#: either leg moves them.
PSI0 = np.array([1.0, 1.0j, 0.0]) / np.sqrt(2.0)


def populations(trace):
    return np.stack([trace.p0, trace.p1, trace.pe], axis=1)


@pytest.mark.parametrize("delta_2ph", [0.0, -16.0])
@pytest.mark.parametrize("off", ["omega0", "omega1"])
def test_one_drive_off(off, delta_2ph):
    drives = {"omega0": 200.0 + 0j, "omega1": 120.0 + 0j, off: 0j}
    params = RamanParams(400.0, delta_2ph, **drives)
    grid = auto_grid(params, 45.0 / 400.0)
    exact = trace_populations("exact-new", params, PSI0, grid)
    for method in METHODS:
        if method == "delta0" and delta_2ph != 0.0:
            continue
        for order in ((0, 1, 2) if method.startswith("ls-") else (0,)):
            trace = trace_populations(method, params, PSI0, grid, order=order)
            assert np.all(np.isfinite(populations(trace))), (method, order)
            assert np.all(np.isfinite(trace.norm)), (method, order)
    same = trace_populations("exact-ae", params, PSI0, grid)
    assert np.abs(populations(same) - populations(exact)).max() <= 1e-12


@pytest.mark.parametrize("params", [
    RamanParams(400.0, 400.0, 40.0, 40.0),
    RamanParams(-400.0, -400.0, 40.0 + 10j, 40.0),
])
def test_one_photon_resonance_of_the_second_leg(params):
    # d - delta = 0 puts a zero on the |1> diagonal of m0sq; with both
    # drives on, mu_-^2 stays near |omega1|^2/4 and |eps|/mu_-^2 is about
    # 10.  Every LS variant stays finite.  From |0> the low orders are
    # within 0.02 of exact (measured: 0.013 at most); from a state with
    # |1> amplitude they are not (0.5 off), but the Born series still
    # converges: order 24 is within 1e-5 (measured: 4e-6 at most).
    assert params.delta_avg - params.delta_2ph == 0.0
    grid = auto_grid(params, 100.0 / 400.0)
    for psi0, orders, bound in ((np.array([1.0, 0.0, 0.0]), (0, 1, 2), 0.02),
                                (PSI0, (24,), 1e-5)):
        exact = populations(trace_populations("exact-new", params, psi0, grid))
        for variant in "RLSM":
            for order in orders:
                trace = trace_populations(f"ls-{variant}", params, psi0, grid,
                                          order=order)
                pops = populations(trace)
                assert np.all(np.isfinite(pops)), (variant, order)
                assert np.abs(pops - exact).max() <= bound, (variant, order)


@pytest.mark.parametrize("params", [
    RamanParams(400.0, 0.0, 200.0, 120.0),
    RamanParams(-400.0, 0.0, 200.0 + 50j, 120.0),
])
def test_very_long_time_on_a_coarse_grid(params):
    # mu_max t = 1e6 on 2000 intervals: the spectral methods evaluate each
    # node on its own and need no density rule (measured: exact-ae 1.4e-10
    # and delta0 2.5e-10 from exact-new); the integral hierarchy refuses.
    grid = TimeGrid(t_end=1e6 / spectral_m0sq(params).mu_max, n=2000)
    traces = {m: trace_populations(m, params, PSI0, grid)
              for m in ("exact-new", "exact-ae", "delta0")}
    exact = populations(traces["exact-new"])
    for method, trace in traces.items():
        assert np.abs(populations(trace) - exact).max() <= 1e-9, method
        assert np.abs(trace.norm - 1.0).max() <= 1e-12, method
    with pytest.raises(ValueError, match="grid too coarse"):
        iterate("R", params, grid, 0)


@pytest.mark.parametrize("params", [
    RamanParams(400.0, -16.0, 200.0, 120.0),
    RamanParams(-300.0, 7.0, 90.0 + 40j, -30.0 + 70j),
])
def test_two_interval_grid(params):
    grid = TimeGrid(t_end=2.0 * GRID_PHASE_LIMIT / spectral_m0sq(params).mu_max, n=2)
    for variant in "RLSM":
        for order in range(4):
            fast = iterate(variant, params, grid, order)
            slow = ls_quadratic.iterate(variant, params, grid, order)
            assert np.abs(fast - slow).max() <= 1e-12, (variant, order)
