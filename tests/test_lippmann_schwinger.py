import numpy as np
import pytest

from ramanls.lippmann_schwinger import (GRID_PHASE_LIMIT, PropagatorTable,
                                        TimeGrid, Variant, apply_normalized,
                                        auto_grid, iterate,
                                        required_intervals, u0, validate_grid)
from ramanls.model import RamanParams, h_new, spectral_m0sq, split_square
from ramanls.numerics import eig_h3, sinc_sqrt
from ramanls.propagators import exact_unitary

import ls_quadratic
from spectral_oracle import mat_func_h3

FIG4 = RamanParams(400.0, -16.0, 200.0 + 0j, 120.0 + 0j)
PSI0 = np.array([1.0, 0.0, 0.0], dtype=complex)
OMEGA_R = spectral_m0sq(FIG4).mu_plus - spectral_m0sq(FIG4).mu_minus
CYCLE = 2.0 * np.pi / OMEGA_R


def exact_table(params, times):
    spec = eig_h3(h_new(params))
    v = spec.eigenvectors
    phases = np.exp(-1j * np.outer(times, spec.eigenvalues))
    return np.einsum("tk,ak,bk->tab", phases, v, v.conj())


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
    for variant in ("R", "L", "S", "M"):
        assert np.abs(u0(variant, FIG4, 0.0) - np.eye(3)).max() < 1e-15


def test_u0_variants_coincide_at_zero_detuning():
    p = RamanParams(400.0, 0.0, 100.0, 100.0)
    for t in (0.01, 0.08, 0.2):
        ref = exact_unitary(h_new(p), t)
        for variant in ("R", "L", "S"):
            assert np.abs(u0(variant, p, t) - ref).max() < 1e-12


def test_u0_symmetric_is_mean_of_sides():
    for dt_dimless in (1.0, 10.0, 45.0):
        t = dt_dimless / 400.0
        mean = 0.5 * (u0("R", FIG4, t) + u0("L", FIG4, t))
        assert np.abs(u0("S", FIG4, t) - mean).max() <= 1e-15


def test_symmetric_zeroth_order_matches_closed_form():
    # Independent of spectral_m0sq, _u0_tables and sinc_sqrt: M0^2 is the
    # block-diagonal part of h_new^2, diagonalised by eigh, and the S form
    # is cos(M0 t) - (i/2)(K H + H K) with K = sin(M0 t)/M0.
    g = auto_grid(FIG4, CYCLE, refine=2.0)
    h = h_new(FIG4)
    h_sq = h @ h
    m0sq = np.zeros((3, 3), dtype=complex)
    m0sq[:2, :2] = h_sq[:2, :2]
    m0sq[2, 2] = h_sq[2, 2]
    lam, v = np.linalg.eigh(m0sq)
    assert lam.min() > 0.0
    mu = np.sqrt(lam)
    phase = np.outer(g.times, mu)
    cos_t = np.einsum("tm,am,bm->tab", np.cos(phase), v, v.conj())
    kernel = np.einsum("tm,am,bm->tab", np.sin(phase) / mu, v, v.conj())
    ref = cos_t - 0.5j * (kernel @ h + h @ kernel)
    tab = iterate("S", FIG4, g, 0)
    assert np.abs(tab.matrices - ref).max() <= 1e-12


# ---------------------------------------------------------------- iterate


def test_tables_start_at_identity():
    g = auto_grid(FIG4, 45.0 / 400.0)
    for variant in ("R", "L", "S", "M"):
        for order in (0, 1):
            tab = iterate(variant, FIG4, g, order)
            assert np.abs(tab.matrices[0] - np.eye(3)).max() == 0.0


def test_iterate_rejects_negative_order():
    g = auto_grid(FIG4, 0.05)
    with pytest.raises(ValueError, match="order"):
        iterate("R", FIG4, g, -1)


def test_iterate_order_zero_is_u0_table():
    g = auto_grid(FIG4, 45.0 / 400.0)
    tab = iterate("R", FIG4, g, 0)
    assert tab.order == 0 and tab.variant is Variant.R
    for i in (0, g.n // 2, g.n):
        assert np.abs(tab.matrices[i] - u0("R", FIG4, g.times[i])).max() < 1e-14


def test_iterate_zero_detuning_corrections_vanish():
    p = RamanParams(400.0, 0.0, 120.0, 80.0)
    g = auto_grid(p, 0.1)
    t0 = iterate("S", p, g, 0)
    t2 = iterate("S", p, g, 2)
    assert np.abs(t0.matrices - t2.matrices).max() == 0.0


def test_hierarchy_improves_with_order():
    g = auto_grid(FIG4, CYCLE, refine=2.0)
    exact = exact_table(FIG4, g.times)
    for variant in ("R", "L"):
        errs = [pop_error(iterate(variant, FIG4, g, k), exact) for k in (0, 1, 2)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < errs[0] / 10.0


def test_symmetric_zeroth_order_quality():
    # Measured method error of the normalized symmetric zeroth order over
    # one full slow cycle is 0.0226 in the relevant-level populations
    # (largest near the middle of the cycle), best of the three variants.
    g = auto_grid(FIG4, CYCLE, refine=2.0)
    exact = exact_table(FIG4, g.times)
    ref = np.abs(np.einsum("tab,b->ta", exact, PSI0)) ** 2

    def err01(variant):
        states = apply_normalized(iterate(variant, FIG4, g, 0), PSI0)
        pops = np.abs(states) ** 2
        return float(np.abs(pops[:, :2] - ref[:, :2]).max())

    e_s, e_r, e_l = err01("S"), err01("R"), err01("L")
    assert e_s <= 0.023
    assert e_s < e_r and e_s < e_l


def test_symmetric_hierarchy_also_improves():
    g = auto_grid(FIG4, CYCLE, refine=2.0)
    exact = exact_table(FIG4, g.times)
    errs = [pop_error(iterate("S", FIG4, g, k), exact) for k in (0, 1, 2)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


def test_mean_variant_differs_from_symmetric_beyond_zeroth():
    g = auto_grid(FIG4, 45.0 / 400.0)
    tab_m = iterate("M", FIG4, g, 1)
    tab_s = iterate("S", FIG4, g, 1)
    tab_r = iterate("R", FIG4, g, 1)
    tab_l = iterate("L", FIG4, g, 1)
    assert np.abs(0.5 * (tab_r.matrices + tab_l.matrices) - tab_m.matrices).max() == 0.0
    # distinct from the symmetric iteration at the same order, same accuracy class
    assert np.abs(tab_m.matrices - tab_s.matrices).max() > 1e-3
    exact = exact_table(FIG4, g.times)
    err_m = np.abs(tab_m.matrices - exact).max()
    err_rl = max(np.abs(tab_r.matrices - exact).max(),
                 np.abs(tab_l.matrices - exact).max())
    assert err_m <= 1.5 * err_rl


def test_volterra_self_consistency():
    # Substituting a converged table back into the right-hand side must
    # reproduce it to the quadrature floor, O(dt^4 t) times the kernel scale.
    g = auto_grid(FIG4, 45.0 / 400.0, refine=2.0)
    tab = iterate("R", FIG4, g, 5)
    u0_t = ls_quadratic.iterate("R", FIG4, g, 0).matrices
    rhs = ls_quadratic.born_step(Variant.R, u0_t, tab.matrices,
                                 ls_quadratic.kernel_table(FIG4, g.times),
                                 split_square(FIG4).eps, g.dt)
    assert np.abs(tab.matrices - rhs).max() <= 1e-6


# n = 2..12 cover the i = 1 trapezoid, the pure 3/8 node i = 3, odd-node
# tails and, for L and S, the mirrored weights; the last grid is figure 4's.
ORACLE_GRIDS = [TimeGrid(t_end=n * 1e-4, n=n) for n in (2, 4, 6, 8, 10, 12)] \
    + [auto_grid(FIG4, 45.0 / 400.0)]


@pytest.mark.parametrize("variant", ["R", "L", "S", "M"])
def test_separable_iterate_matches_quadratic_oracle(variant):
    for g in ORACLE_GRIDS:
        for order in range(4):
            fast = iterate(variant, FIG4, g, order).matrices
            slow = ls_quadratic.iterate(variant, FIG4, g, order).matrices
            assert np.abs(fast - slow).max() <= 1e-12, (g.n, order)


@pytest.mark.parametrize("params", [
    RamanParams(400.0, -400.0, 0.0, 120.0),           # mu_minus^2 == 0
    RamanParams(400.0, -399.999999, 1e-3, 120.0),     # mu_minus^2 ~ 2e-7
])
def test_one_photon_resonance_small_mu(params):
    # The kernel split must not divide by mu_minus: every variant stays
    # finite and equal to the direct quadratic sum.
    assert spectral_m0sq(params).mu_minus_sq < 1e-6
    grids = [TimeGrid(t_end=0.001, n=4), auto_grid(params, 45.0 / 400.0)]
    for g in grids:
        for variant in ("R", "L", "S", "M"):
            for order in (1, 2):
                fast = iterate(variant, params, g, order).matrices
                slow = ls_quadratic.iterate(variant, params, g, order).matrices
                assert np.all(np.isfinite(fast))
                assert np.abs(fast - slow).max() <= 1e-12, (g.n, variant, order)


def test_order_scaling_in_eps():
    # Error of U_k against the exact resummation for scaled eps follows
    # eta^(k+1); the resummed reference is cos(G t) - i sinc(G^2) H with
    # G^2 = m0sq + eta * eps.
    t_end = 45.0 / 400.0
    g = auto_grid(FIG4, t_end, refine=2.0)
    h = h_new(FIG4)
    etas = (1.0, 0.5, 0.25)
    for k in (0, 1):
        errs = []
        for eta in etas:
            ss = split_square(FIG4, eps_scale=eta)
            spec = eig_h3(ss.m0sq + ss.eps)
            tab = iterate("R", FIG4, g, k, eps_scale=eta)
            worst = 0.0
            for i in (g.n // 4, g.n // 2, g.n):
                t = g.times[i]
                ref = (mat_func_h3(spec, lambda lam: np.cos(np.sqrt(max(lam, 0.0)) * t))
                       - 1j * mat_func_h3(spec, lambda lam: sinc_sqrt(lam, t)) @ h)
                worst = max(worst, float(np.abs(tab.matrices[i] - ref).max()))
            errs.append(worst)
        slope = np.polyfit(np.log(etas), np.log(errs), 1)[0]
        assert abs(slope - (k + 1)) <= 0.3


def test_unitarity_deviation_shrinks_with_order():
    g = auto_grid(FIG4, 45.0 / 400.0)
    devs = []
    for k in (0, 1, 2):
        u = iterate("R", FIG4, g, k).matrices[-1]
        devs.append(float(np.abs(u.conj().T @ u - np.eye(3)).max()))
    assert devs[0] > devs[1] > devs[2]


def test_laplace_transform_identity():
    # (s + iH) applied to the transform of the integral equation's right
    # side must give the identity; this pins m0sq + eps = H^2 exactly.
    h = h_new(FIG4)
    ss = split_square(FIG4)
    eye = np.eye(3)
    for s in (0.3, 1.0, 3.0):
        res_inv = np.linalg.inv(s * s * eye + ss.m0sq)
        full_inv = np.linalg.inv(s * eye + 1j * h)
        rhs = s * res_inv - 1j * res_inv @ h - res_inv @ ss.eps @ full_inv
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


def test_apply_normalized_zero_detuning_matches_exact():
    p = RamanParams(400.0, 0.0, 100.0, 100.0)
    g = auto_grid(p, 0.15)
    states = apply_normalized(iterate("S", p, g, 0), PSI0)
    ref = np.einsum("tab,b->ta", exact_table(p, g.times), PSI0)
    assert np.abs(states - ref).max() < 1e-11


def test_apply_normalized_rejects_collapsed_norm():
    g = TimeGrid(t_end=0.01, n=2)
    mats = np.stack([np.eye(3, dtype=complex)] * 3)
    mats[2] *= 1e-9
    tab = PropagatorTable(grid=g, variant=Variant.R, order=0, matrices=mats)
    with pytest.raises(ValueError, match="broke down"):
        apply_normalized(tab, PSI0)
