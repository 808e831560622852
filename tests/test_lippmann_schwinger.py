import numpy as np
import pytest

from ramanls.lippmann_schwinger import (GRID_PHASE_LIMIT, TimeGrid, Variant,
                                        apply_normalized, auto_grid, iterate,
                                        required_intervals, validate_grid)
from ramanls.model import RamanParams, h_new, spectral_m0sq, split_square

import ls_quadratic
from propagator_oracle import exact_unitary
from spectral_oracle import m0sq_by_definition

FIG4 = RamanParams(400.0, -16.0, 200.0 + 0j, 120.0 + 0j)
PSI0 = np.array([1.0, 0.0, 0.0], dtype=complex)
MU_PLUS, MU_MINUS = np.sqrt(spectral_m0sq(FIG4).mu_sq[:2])
OMEGA_R = MU_PLUS - MU_MINUS
CYCLE = 2.0 * np.pi / OMEGA_R


def pop_error(table, exact, psi0=PSI0):
    approx = np.abs(apply_normalized(table, psi0)) ** 2
    ref = np.abs(np.einsum("tab,b->ta", exact, psi0)) ** 2
    return float(np.abs(approx - ref).max())


# ---------------------------------------------------------------- grid


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(t_end=-1.0, n=10)
    with pytest.raises(ValueError):
        TimeGrid(t_end=1.0, n=7)
    with pytest.raises(ValueError):
        TimeGrid(t_end=np.inf, n=4)
    with pytest.raises(ValueError):
        TimeGrid(t_end=np.nan, n=4)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 4.0)
    assert TimeGrid(t_end=1.0, n=np.int64(4)).times.shape == (5,)
    g = TimeGrid(t_end=1.0, n=10)
    assert g.dt == 0.1
    assert np.allclose(g.times, np.linspace(0, 1, 11))


def test_auto_grid_meets_density_rule():
    g = auto_grid(FIG4, 0.25)
    mu_max = spectral_m0sq(FIG4).mu_max
    assert g.dt * mu_max <= GRID_PHASE_LIMIT * (1 + 1e-12)
    assert g.n % 2 == 0
    validate_grid(g, FIG4)


def test_iterate_rejects_coarse_grid_naming_required_n():
    g = TimeGrid(t_end=0.25, n=50)
    needed = required_intervals(FIG4, 0.25)
    with pytest.raises(ValueError, match=f"need n >= {needed}"):
        iterate("R", FIG4, g, 1)


# ---------------------------------------------------------------- u0


def test_u0_identity_at_zero():
    g = auto_grid(FIG4, 0.05)
    for variant in ("R", "L", "S", "M"):
        assert np.abs(iterate(variant, FIG4, g, 0)[0] - np.eye(3)).max() < 1e-15


def test_u0_variants_coincide_at_zero_detuning():
    p = RamanParams(400.0, 0.0, 100.0, 100.0)
    g = auto_grid(p, 0.2)
    for variant in ("R", "L", "S"):
        for t, u in zip(g.times, iterate(variant, p, g, 0)):
            assert np.abs(u - exact_unitary(h_new(p), t)).max() < 1e-12


def test_u0_symmetric_is_mean_of_sides():
    g = auto_grid(FIG4, 45.0 / 400.0)
    mean = 0.5 * (iterate("R", FIG4, g, 0) + iterate("L", FIG4, g, 0))
    assert np.abs(iterate("S", FIG4, g, 0) - mean).max() <= 1e-15


def test_symmetric_zeroth_order_matches_closed_form():
    # Independent of spectral_m0sq, _u0_table and sinc_sqrt: M0^2 is the
    # block-diagonal part of h_new^2, diagonalised by eigh, and with
    # K = sin(M0 t)/M0 the zeroth orders are cos(M0 t) - i K H (R),
    # cos(M0 t) - i H K (L) and cos(M0 t) - (i/2)(K H + H K) (S).
    g = TimeGrid(t_end=CYCLE, n=2 * required_intervals(FIG4, CYCLE))
    h = h_new(FIG4)
    lam, v = np.linalg.eigh(m0sq_by_definition(FIG4))
    assert lam.min() > 0.0
    mu = np.sqrt(lam)
    phase = np.outer(g.times, mu)
    cos_t = np.einsum("tm,am,bm->tab", np.cos(phase), v, v.conj())
    kernel = np.einsum("tm,am,bm->tab", np.sin(phase) / mu, v, v.conj())
    refs = {"R": cos_t - 1j * (kernel @ h), "L": cos_t - 1j * (h @ kernel),
            "S": cos_t - 0.5j * (kernel @ h + h @ kernel)}
    for variant, ref in refs.items():
        tab = iterate(variant, FIG4, g, 0)
        assert np.abs(tab - ref).max() <= 1e-12, variant


# ---------------------------------------------------------------- iterate


def test_tables_start_at_identity():
    g = auto_grid(FIG4, 45.0 / 400.0)
    for variant in ("R", "L", "S", "M"):
        for order in (0, 1):
            tab = iterate(variant, FIG4, g, order)
            assert np.abs(tab[0] - np.eye(3)).max() == 0.0


def test_iterate_rejects_negative_order():
    # A negative or non-integral order is a usage error, not a TypeError
    # from deep inside the iteration.
    g = auto_grid(FIG4, 0.05)
    for order in (-1, 1.5, 2.0, float("nan"), "2"):
        with pytest.raises(ValueError, match="order must be an integer >= 0"):
            iterate("R", FIG4, g, order)
    assert np.array_equal(iterate("R", FIG4, g, np.int64(1)), iterate("R", FIG4, g, 1))


def test_iterate_rejects_orders_above_the_cap():
    # Rejected before any work: 1e20 orders would never return.
    g = auto_grid(FIG4, 0.05)
    for order in (65, 10 ** 20):
        with pytest.raises(ValueError, match="<= 64"):
            iterate("S", FIG4, g, order)


def test_iterate_order_zero_is_u0_table():
    g = auto_grid(FIG4, 45.0 / 400.0)
    tab = iterate("R", FIG4, g, 0)
    ref = ls_quadratic.u0_table(Variant.R, FIG4, g.times)
    for i in (0, g.n // 2, g.n):
        assert np.abs(tab[i] - ref[i]).max() < 1e-14


def test_iterate_zero_detuning_corrections_vanish():
    p = RamanParams(400.0, 0.0, 120.0, 80.0)
    g = auto_grid(p, 0.1)
    t0 = iterate("S", p, g, 0)
    t2 = iterate("S", p, g, 2)
    assert np.abs(t0 - t2).max() == 0.0


def test_hierarchy_improves_with_order():
    g = TimeGrid(t_end=CYCLE, n=2 * required_intervals(FIG4, CYCLE))
    exact = exact_unitary(h_new(FIG4), g.times)
    for variant in ("R", "L"):
        errs = [pop_error(iterate(variant, FIG4, g, k), exact) for k in (0, 1, 2)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < errs[0] / 10.0


def test_symmetric_zeroth_order_quality():
    # Measured method error of the normalized symmetric zeroth order over
    # one full slow cycle is 0.0226 in the relevant-level populations
    # (largest near the middle of the cycle), best of the three variants.
    g = TimeGrid(t_end=CYCLE, n=2 * required_intervals(FIG4, CYCLE))
    exact = exact_unitary(h_new(FIG4), g.times)
    ref = np.abs(np.einsum("tab,b->ta", exact, PSI0)) ** 2

    def err01(variant):
        states = apply_normalized(iterate(variant, FIG4, g, 0), PSI0)
        pops = np.abs(states) ** 2
        return float(np.abs(pops[:, :2] - ref[:, :2]).max())

    e_s, e_r, e_l = err01("S"), err01("R"), err01("L")
    assert e_s <= 0.023
    assert e_s < e_r and e_s < e_l


def test_symmetric_hierarchy_also_improves():
    g = TimeGrid(t_end=CYCLE, n=2 * required_intervals(FIG4, CYCLE))
    exact = exact_unitary(h_new(FIG4), g.times)
    errs = [pop_error(iterate("S", FIG4, g, k), exact) for k in (0, 1, 2)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


def test_mean_variant_differs_from_symmetric_beyond_zeroth():
    g = auto_grid(FIG4, 45.0 / 400.0)
    tab_m = iterate("M", FIG4, g, 1)
    tab_s = iterate("S", FIG4, g, 1)
    tab_r = iterate("R", FIG4, g, 1)
    tab_l = iterate("L", FIG4, g, 1)
    assert np.abs(0.5 * (tab_r + tab_l) - tab_m).max() == 0.0
    # distinct from the symmetric iteration at the same order, same accuracy class
    assert np.abs(tab_m - tab_s).max() > 1e-3
    exact = exact_unitary(h_new(FIG4), g.times)
    err_m = np.abs(tab_m - exact).max()
    err_rl = max(np.abs(tab_r - exact).max(),
                 np.abs(tab_l - exact).max())
    assert err_m <= 1.5 * err_rl


def test_volterra_self_consistency():
    # Substituting a converged table back into the right-hand side must
    # reproduce it to the quadrature floor, O(dt^4 t) times the kernel scale.
    g = TimeGrid(t_end=45.0 / 400.0, n=2 * required_intervals(FIG4, 45.0 / 400.0))
    tab = iterate("R", FIG4, g, 5)
    u0_t = ls_quadratic.iterate("R", FIG4, g, 0)
    rhs = ls_quadratic.born_step(Variant.R, u0_t, tab,
                                 ls_quadratic.kernel_table(FIG4, g.times),
                                 split_square(FIG4), g.dt)
    assert np.abs(tab - rhs).max() <= 1e-6


# n = 2..12 cover the i = 1 trapezoid, the pure 3/8 node i = 3, odd-node
# tails and, for L and S, the mirrored weights; the last grid is figure 4's.
ORACLE_GRIDS = [TimeGrid(t_end=n * 1e-4, n=n) for n in (2, 4, 6, 8, 10, 12)] \
    + [auto_grid(FIG4, 45.0 / 400.0)]


@pytest.mark.parametrize("variant", ["R", "L", "S", "M"])
def test_separable_iterate_matches_quadratic_oracle(variant):
    for g in ORACLE_GRIDS:
        for order in range(4):
            fast = iterate(variant, FIG4, g, order)
            slow = ls_quadratic.iterate(variant, FIG4, g, order)
            assert np.abs(fast - slow).max() <= 1e-12, (g.n, order)


@pytest.mark.parametrize("variant", ["R", "L", "S"])
def test_quadrature_order_against_exact(variant):
    # The quadratic oracle uses the same quadrature rule, so it cannot show
    # that the rule is right; exact propagation can.  At k = 16 the Born truncation is gone
    # over figure 4's window, and what remains is quadrature error.
    # Halving dt must cut it 16-fold (measured 16.1-16.4 at even nodes,
    # 19-20 at odd nodes >= 3) for the Simpson and 3/8 rules, and 8-fold
    # at node 1, the lone trapezoid interval (third order: measured 8.0,
    # the largest error in the table).
    t_end = 100.0 / 400.0
    n = required_intervals(FIG4, t_end)
    coarse, fine = (np.abs(iterate(variant, FIG4, g, 16)
                           - exact_unitary(h_new(FIG4), g.times)).max(axis=(1, 2))
                    for g in (TimeGrid(t_end, n), TimeGrid(t_end, 2 * n)))
    assert coarse[0::2].max() / fine[0::2].max() > 14.0
    assert coarse[3::2].max() / fine[3::2].max() > 14.0
    assert coarse[1] / fine[1] > 7.0


@pytest.mark.parametrize("params", [
    RamanParams(400.0, -400.0, 0.0, 120.0),           # mu_minus^2 == 0
    RamanParams(400.0, -399.999999, 1e-3, 120.0),     # mu_minus^2 ~ 2e-7
])
def test_one_photon_resonance_small_mu(params):
    # The kernel split must not divide by mu_minus: every variant stays
    # finite and equal to the direct quadratic sum.
    assert spectral_m0sq(params).mu_sq[1] < 1e-6
    grids = [TimeGrid(t_end=0.001, n=4), auto_grid(params, 45.0 / 400.0)]
    for g in grids:
        for variant in ("R", "L", "S", "M"):
            for order in (1, 2):
                fast = iterate(variant, params, g, order)
                slow = ls_quadratic.iterate(variant, params, g, order)
                assert np.all(np.isfinite(fast))
                assert np.abs(fast - slow).max() <= 1e-12, (g.n, variant, order)


def test_unitarity_deviation_shrinks_with_order():
    g = auto_grid(FIG4, 45.0 / 400.0)
    devs = []
    for k in (0, 1, 2):
        u = iterate("R", FIG4, g, k)[-1]
        devs.append(float(np.abs(u.conj().T @ u - np.eye(3)).max()))
    assert devs[0] > devs[1] > devs[2]


def test_laplace_transform_identity():
    # (s + iH) applied to the transform of the integral equation's right
    # side must give the identity; this pins m0sq + eps = H^2 exactly.
    h = h_new(FIG4)
    m0sq, eps = m0sq_by_definition(FIG4), split_square(FIG4)
    eye = np.eye(3)
    for s in (0.3, 1.0, 3.0):
        res_inv = np.linalg.inv(s * s * eye + m0sq)
        full_inv = np.linalg.inv(s * eye + 1j * h)
        rhs = s * res_inv - 1j * res_inv @ h - res_inv @ eps @ full_inv
        assert np.abs((s * eye + 1j * h) @ rhs - eye).max() <= 1e-10


# ---------------------------------------------------------------- normalize


def test_apply_normalized_basics():
    g = auto_grid(FIG4, 45.0 / 400.0)
    tab = iterate("S", FIG4, g, 1)
    states = apply_normalized(tab, PSI0)
    assert np.abs(states[0] - PSI0).max() < 1e-14
    assert np.abs(np.linalg.norm(states, axis=1) - 1.0).max() <= 1e-14
    with pytest.raises(ValueError, match="unit norm"):
        apply_normalized(tab, 2.0 * PSI0)
    with pytest.raises(ValueError, match="unit norm"):
        apply_normalized(tab, np.array([np.nan, 0.0, 0.0]))


def test_apply_normalized_zero_detuning_matches_exact():
    p = RamanParams(400.0, 0.0, 100.0, 100.0)
    g = auto_grid(p, 0.15)
    states = apply_normalized(iterate("S", p, g, 0), PSI0)
    ref = np.einsum("tab,b->ta", exact_unitary(h_new(p), g.times), PSI0)
    assert np.abs(states - ref).max() < 1e-11


def test_apply_normalized_rejects_collapsed_norm():
    mats = np.stack([np.eye(3, dtype=complex)] * 3)
    mats[2] *= 1e-9
    with pytest.raises(ValueError, match="broke down"):
        apply_normalized(mats, PSI0)
    # A NaN or inf entry, on the column psi0 reads or off it, is rejected
    # the same way instead of coming back as a NaN row, and numpy must not
    # warn on the way.
    for bad in (np.nan, np.inf, -np.inf):
        for entry in ((0, 0), (0, 1), (2, 2)):
            mats = np.stack([np.eye(3, dtype=complex)] * 6)
            mats[(4, *entry)] = bad
            with pytest.raises(ValueError, match=r"norm (nan|inf) at node 4\b"):
                apply_normalized(mats, PSI0)
    # Wrong shapes: a single 3x3 matrix, a table of 2x2 blocks, a 2-state.
    for table in (np.eye(3), np.stack([np.eye(2)] * 3)):
        with pytest.raises(ValueError, match=r"shape \(m, 3, 3\)"):
            apply_normalized(table, PSI0)
    with pytest.raises(ValueError, match="three components"):
        apply_normalized(np.stack([np.eye(3)] * 3), PSI0[:2])
