import numpy as np
import pytest

from ramanls.analysis import (METHODS, amplitude_p, delta_resonant_ae,
                              delta_resonant_lightshift, fidelity, rabi_ae,
                              rabi_exact_delta0, rabi_general,
                              trace_populations)
from ramanls.lippmann_schwinger import TimeGrid, auto_grid
from ramanls.model import RamanParams
from ramanls.propagators import ae_population_1

FIG4 = RamanParams(400.0, -16.0, 200.0 + 0j, 120.0 + 0j)
PSI0 = np.array([1.0, 0.0, 0.0], dtype=complex)


def random_params(rng):
    return RamanParams(
        delta_avg=rng.choice([-1.0, 1.0]) * rng.uniform(100.0, 900.0),
        delta_2ph=rng.uniform(-40.0, 40.0),
        omega0=rng.uniform(5.0, 300.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
        omega1=rng.uniform(5.0, 300.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
    )


# ----------------------------------------------------------- frequencies


def test_rabi_ae_values():
    assert rabi_ae(RamanParams(400.0, 0.0, 40.0, 40.0)) == pytest.approx(2.0)
    assert rabi_ae(RamanParams(400.0, 0.0, 0.0, 0.0)) == pytest.approx(0.0)
    assert rabi_ae(RamanParams(400.0, -5.0, 0.0, 0.0)) == pytest.approx(5.0)
    assert rabi_ae(RamanParams(400.0, -16.0, 200.0, 120.0)) == pytest.approx(30.0)


def test_rabi_exact_delta0_values():
    assert rabi_exact_delta0(RamanParams(400.0, 0.0, 0.0, 0.0)) == 0.0
    got = rabi_exact_delta0(RamanParams(400.0, 0.0, 40.0, 40.0))
    assert got == pytest.approx(1.9901, abs=5e-5)
    got = rabi_exact_delta0(RamanParams(400.0, 0.0, 100.0, 100.0))
    assert got == pytest.approx(0.5 * (np.sqrt(180000.0) - 400.0), rel=1e-14)
    assert got == pytest.approx(12.132, abs=5e-4)
    with pytest.raises(ValueError):
        rabi_exact_delta0(FIG4)


def test_rabi_exact_series_expansion():
    # omega/delta = 0.05: two-term series with quartic-order remainder
    p = RamanParams(400.0, 0.0, 20.0, 20.0)
    s, d = p.omega_sq, 400.0
    series = s / (4 * d) - s**2 / (16 * d**3)
    remainder = s**3 / (32 * d**5)
    assert abs(rabi_exact_delta0(p) - series) <= 2 * remainder


def test_rabi_general_values():
    assert rabi_general(FIG4) == pytest.approx(27.77, abs=5e-3)
    # reduces to the exact delta=0 value for matched drives
    p = RamanParams(400.0, 0.0, 40.0, 40.0)
    assert rabi_general(p) == pytest.approx(rabi_exact_delta0(p), rel=1e-12)


def test_delta_resonant_ae_values():
    assert delta_resonant_ae(RamanParams(400.0, 0.0, 70.0, 70.0)) == 0.0
    assert delta_resonant_ae(RamanParams(400.0, 0.0, 200.0, 120.0)) == -16.0
    assert delta_resonant_ae(RamanParams(400.0, 0.0, 40.0, 200.0)) == 24.0


def test_delta_resonant_lightshift():
    p = RamanParams(400.0, 0.0, 200.0, 120.0)
    approx, exact = delta_resonant_lightshift(p)
    assert approx == pytest.approx(-15.348, abs=5e-4)
    # the exact value solves the self-consistent balance
    residual = exact - 14400.0 / (1600.0 + 2 * exact) + 40000.0 / (1600.0 - 2 * exact)
    assert abs(residual) <= 1e-12 * abs(exact)
    # Newton refinement moves far less than the light-shift correction itself
    assert abs(exact - approx) < 0.02 * abs(delta_resonant_ae(p) - approx)
    # the gap between both solutions sits at the omega_sq/(64 delta^2) scale
    scale = p.omega_sq / (64.0 * 400.0**2)
    assert 0.3 * scale < abs(exact - approx) < 3.0 * scale
    # symmetric drives keep both at zero
    approx0, exact0 = delta_resonant_lightshift(RamanParams(400.0, 0.0, 90.0, 90.0))
    assert approx0 == 0.0 and exact0 == 0.0


# ----------------------------------------------------------- amplitude


def test_amplitude_examples():
    assert amplitude_p(RamanParams(400.0, 0.0, 200.0, 120.0)) == pytest.approx(
        1.0 - (25600.0 / 54400.0) ** 2, rel=1e-12)
    assert amplitude_p(RamanParams(400.0, 0.0, 200.0, 120.0)) == pytest.approx(
        0.7785, abs=1e-4)
    assert amplitude_p(RamanParams(400.0, 0.0, 150.0, 150.0)) == 1.0
    with pytest.raises(ValueError):
        amplitude_p(RamanParams(400.0, 0.0, 0.0, 0.0))


def test_amplitude_is_one_at_resonant_detuning():
    rng = np.random.default_rng(41)
    for _ in range(100):
        base = random_params(rng)
        delta = delta_resonant_ae(base)
        tuned = RamanParams(base.delta_avg, delta, base.omega0, base.omega1)
        assert amplitude_p(tuned) == 1.0


# ----------------------------------------------------------- fidelity


def test_fidelity_basics():
    a = np.array([1.0, 0.0, 0.0], dtype=complex)
    b = np.array([0.0, 1.0, 0.0], dtype=complex)
    assert fidelity(a, a) == 1.0
    assert fidelity(a, b) == 0.0
    with pytest.raises(ValueError):
        fidelity(a, 2 * b)


def test_fidelity_symmetry_and_phase_invariance():
    rng = np.random.default_rng(43)
    for _ in range(20):
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        b = rng.normal(size=3) + 1j * rng.normal(size=3)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        f = fidelity(a, b)
        assert 0.0 <= f <= 1.0 + 1e-15
        assert fidelity(b, a) == pytest.approx(f, rel=1e-14)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        assert fidelity(phase * a, b) == pytest.approx(f, rel=1e-13)


# ----------------------------------------------------------- traces


def test_trace_exact_full_transfer():
    p = RamanParams(400.0, 0.0, 40.0, 40.0)
    omega_r = rabi_exact_delta0(p)
    grid = TimeGrid(t_end=2 * np.pi / omega_r, n=8192)
    trace = trace_populations("exact-new", p, PSI0, grid)
    assert trace.p1.max() >= 0.999
    assert np.abs(trace.p0 + trace.p1 + trace.pe - 1.0).max() <= 1e-12
    assert np.abs(trace.norm - 1.0).max() <= 1e-12


def test_trace_ae_blind_to_excited_level():
    p = RamanParams(400.0, 0.0, 40.0, 40.0)
    grid = TimeGrid(t_end=1.0, n=200)
    trace = trace_populations("ae", p, PSI0, grid)
    assert np.all(trace.pe == 0.0)
    assert trace.label == "ae"
    # and the closed-form population matches the trace
    for i in (0, 50, 150):
        assert trace.p1[i] == pytest.approx(ae_population_1(p, trace.times[i]),
                                            abs=1e-12)


def test_trace_delta0_matches_exact():
    p = RamanParams(400.0, 0.0, 100.0, 100.0)
    grid = TimeGrid(t_end=0.25, n=400)
    t_exact = trace_populations("exact-new", p, PSI0, grid)
    t_delta0 = trace_populations("delta0", p, PSI0, grid)
    for a, b in ((t_exact.p0, t_delta0.p0), (t_exact.p1, t_delta0.p1),
                 (t_exact.pe, t_delta0.pe)):
        assert np.abs(a - b).max() <= 1e-10


def test_trace_ode_matches_exact():
    grid = TimeGrid(t_end=0.25, n=40)
    t_exact = trace_populations("exact-new", FIG4, PSI0, grid)
    t_ode = trace_populations("ode", FIG4, PSI0, grid, dt_max=2.5e-5)
    assert np.abs(t_ode.p1 - t_exact.p1).max() <= 1e-8
    assert np.abs(t_ode.norm - 1.0).max() <= 1e-9


def test_trace_ls_labels_and_norms():
    grid = auto_grid(FIG4, 45.0 / 400.0)
    trace = trace_populations("ls-S", FIG4, PSI0, grid, order=1)
    assert trace.label == "ls-S-k1"
    assert np.abs(trace.norm - 1.0).max() <= 1e-13
    mean = trace_populations("ls-M", FIG4, PSI0, grid, order=1)
    assert mean.label == "ls-M-k1"


def test_trace_m0eff_matches_block_propagator():
    from ramanls.propagators import m0_effective_unitary

    grid = TimeGrid(t_end=0.1, n=20)
    trace = trace_populations("m0eff", FIG4, PSI0, grid)
    assert np.all(trace.pe == 0.0)
    for i in (3, 11, 20):
        u = m0_effective_unitary(FIG4, trace.times[i])
        assert trace.p1[i] == pytest.approx(abs(u[1, 0]) ** 2, abs=1e-13)


def test_trace_rejections():
    grid = TimeGrid(t_end=0.1, n=10)
    with pytest.raises(ValueError, match="unknown method"):
        trace_populations("magic", FIG4, PSI0, grid)
    with pytest.raises(ValueError, match="unit norm"):
        trace_populations("exact-new", FIG4, 2 * PSI0, grid)
    excited = np.array([0.8, 0.0, 0.6], dtype=complex)
    for method in ("ae", "m0eff"):
        with pytest.raises(ValueError, match="excited"):
            trace_populations(method, FIG4, excited, grid)
    with pytest.raises(ValueError, match="two-photon"):
        trace_populations("delta0", FIG4, PSI0, grid)
    for dt_max in (-1.0, 0.0, float("nan")):
        with pytest.raises(ValueError, match="dt_max must be positive"):
            trace_populations("ode", FIG4, PSI0, grid, dt_max=dt_max)
    assert "ls-M" in METHODS


def test_trace_fig2_fidelity_floor():
    # exact evolutions under the two resonant-detuning prescriptions stay
    # nearly indistinguishable over seven Rabi phases
    base = RamanParams(400.0, 0.0, 200.0, 40.0)
    d_ae = delta_resonant_ae(base)
    d_ls, _ = delta_resonant_lightshift(base)
    pa = RamanParams(400.0, d_ae, 200.0, 40.0)
    pb = RamanParams(400.0, d_ls, 200.0, 40.0)
    omega_r = rabi_ae(pa)
    times = np.linspace(0.0, 7.0 / omega_r, 401)
    from ramanls.model import h_ae
    from ramanls.propagators import state_table

    sa = state_table(h_ae(pa), times, PSI0)
    sb = state_table(h_ae(pb), times, PSI0)
    overlaps = np.abs(np.einsum("ta,ta->t", sa.conj(), sb))
    assert overlaps.min() >= 0.99
