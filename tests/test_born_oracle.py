"""The package's Born orders against their exact values.

``born_oracle`` evaluates U_0..U_4 of the R, L, S and M hierarchies from
one matrix exponential of an augmented linear ODE, with no quadrature and
no grid rule.  Order 0 has no quadrature in ``iterate`` either, so the two
agree to rounding.  For k >= 1 ``iterate`` carries the error of its
composite-Simpson sums, led by the lone trapezoid interval at node 1,
which is third order in dt: halving dt must cut the difference by about
8 (measured 7.99 at every order, variant and point below).  A constant
fault in either side would hold that ratio near 1.
"""

import mpmath
import numpy as np
import pytest

from ramanls.lippmann_schwinger import TimeGrid, iterate, required_intervals
from ramanls.model import RamanParams

from born_oracle import born_orders, born_system, expm_taylor

T_END = 100.0 / 400.0
POINTS = {
    # Delta t = 100 at the figure-4 point: mandated n = 370, 740, 1480;
    # iterate is off by 8.2e-6 (R, L) and 4.1e-6 (S, M) at n = 370.
    "fig4": RamanParams(400.0, -16.0, 200.0, 120.0),
    # One-photon resonance, mu_minus = 0: 4.7e-5 (R, L), 1.2e-5 (S, M).
    "mu_minus_zero": RamanParams(400.0, -400.0, 0.0, 120.0),
    # Negative Delta with complex drives, where a lost conjugate shows.
    "complex": RamanParams(-400.0, 16.0, 200.0 * np.exp(0.4j), 120.0 * np.exp(-1.1j)),
}


@pytest.mark.parametrize("variant", ["R", "L", "S", "M"])
@pytest.mark.parametrize("point", list(POINTS))
def test_iterate_converges_to_exact_born_orders(point, variant):
    params = POINTS[point]
    n = required_intervals(params, T_END)
    diffs = []
    for g in (TimeGrid(T_END, n), TimeGrid(T_END, 2 * n), TimeGrid(T_END, 4 * n)):
        exact = born_orders(variant, params, g.times, 4)
        diffs.append([np.abs(iterate(variant, params, g, k) - exact[k]).max()
                      for k in range(5)])
    diffs = np.array(diffs)
    # Order 0: worst 2.2e-13, on the finest mu_minus = 0 grid.
    assert diffs[:, 0].max() <= 1e-12
    ratios = diffs[:-1, 1:] / diffs[1:, 1:]
    assert ratios.min() > 7.0, ratios


def test_step_exponential_against_mpmath():
    # The one exponential the oracle takes, checked at 30 digits on the
    # R generator of order 1 (measured 1.1e-16 off, entries of order 1).
    params = POINTS["complex"]
    a, _, _ = born_system("R", params, 1)
    a_dt = a * (T_END / required_intervals(params, T_END))
    with mpmath.workdps(30):
        ref = mpmath.expm(mpmath.matrix(a_dt.tolist()))
    ref = np.array(ref.tolist(), dtype=complex)
    assert np.abs(expm_taylor(a_dt) - ref).max() <= 1e-14
