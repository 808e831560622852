import mpmath
import numpy as np
import pytest

from ramanls.analysis import (METHODS, amplitude_p, delta_resonant_ae,
                              delta_resonant_lightshift, rabi_ae,
                              rabi_exact_delta0, rabi_general,
                              trace_populations)
from ramanls.lippmann_schwinger import TimeGrid, auto_grid
from ramanls.model import RamanParams, h_new
from ramanls.propagators import rk4_steps

from propagator_oracle import (ae_h_eff, ae_population_1, lightshift_balance,
                              ode_states_by_node)
from spectral_oracle import m0sq_by_definition, mat_func_h3

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


def test_observables_are_elementwise_bit_for_bit():
    # Array fields give, entry by entry, the scalar call's exact bits.
    rng = np.random.default_rng(11)
    n = 2000
    omegas = rng.uniform(0.01, 300.0, (2, n)) * np.exp(2j * np.pi * rng.uniform(size=(2, n)))
    fields = (rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 900.0, n),
              rng.uniform(-40.0, 40.0, n), *omegas)
    points = [RamanParams(*v) for v in zip(*(f.tolist() for f in fields))]
    for observable in (rabi_general, rabi_ae, amplitude_p, delta_resonant_ae,
                       delta_resonant_lightshift):
        assert np.array_equal(observable(RamanParams(*fields)),
                              [observable(p) for p in points]), observable.__name__


def test_delta_resonant_ae_values():
    assert delta_resonant_ae(RamanParams(400.0, 0.0, 70.0, 70.0)) == 0.0
    assert delta_resonant_ae(RamanParams(400.0, 0.0, 200.0, 120.0)) == -16.0
    assert delta_resonant_ae(RamanParams(400.0, 0.0, 40.0, 200.0)) == 24.0


def test_delta_resonant_lightshift():
    p = RamanParams(400.0, 0.0, 200.0, 120.0)
    approx = delta_resonant_lightshift(p)
    exact = lightshift_balance(p)
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
    p0 = RamanParams(400.0, 0.0, 90.0, 90.0)
    approx0, exact0 = delta_resonant_lightshift(p0), lightshift_balance(p0)
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


@pytest.mark.parametrize("ratio", [1e-5, 1e-6, 1e-7])
def test_trace_delta0_transfer_peak_accurate_at_weak_drive(ratio):
    # By the peak at rabi_general t = pi the dark and dressed modes turn
    # ~5e10, 5e12 and 5e14 rad at 1e-5, 1e-6 and 1e-7.  p1 reads only their
    # slow difference, which delta0 takes as one rate of the dark state's
    # frame, for either sign of Delta.
    for delta in (400.0, -400.0):
        p = RamanParams(delta, 0.0, 400.0 * ratio, 0.6 * 400.0 * ratio)
        grid = TimeGrid(t_end=np.pi / rabi_general(p), n=2)
        trace = trace_populations("delta0", p, PSI0, grid)
        assert trace.p1[-1] == pytest.approx(amplitude_p(p), abs=1e-9), delta


@pytest.mark.parametrize("delta", [400.0, -400.0])
@pytest.mark.parametrize("ratio", [1e-3, 1e-5, 1e-6, 1e-7])
def test_delta0_matches_mpmath_expm_at_weak_drive(ratio, delta):
    # The reference is a 60-digit exp(-i H t) of H built here from the
    # parameters, at the transfer peak t = pi/rabi_general.
    p = RamanParams(delta, 0.0, 400.0 * ratio, 0.6 * 400.0 * ratio)
    t = np.pi / rabi_general(p)
    trace = trace_populations("delta0", p, PSI0, TimeGrid(t_end=t, n=2))
    with mpmath.workdps(60):
        d, o0, o1 = mpmath.mpf(delta), mpmath.mpc(p.omega0), mpmath.mpc(p.omega1)
        h = mpmath.matrix([[-d / 2, 0, o0 / 2], [0, -d / 2, o1 / 2],
                           [mpmath.conj(o0) / 2, mpmath.conj(o1) / 2, d / 2]])
        u = mpmath.expm(-1j * h * mpmath.mpf(t))
        want = [float(abs(u[k, 0]) ** 2) for k in range(2)]
    assert abs(trace.p0[-1] - want[0]) <= 1e-12
    assert abs(trace.p1[-1] - want[1]) <= 1e-12


def test_trace_ode_matches_exact():
    # RK4 steps of 2.5e-5, one per grid interval.
    grid = TimeGrid(t_end=0.25, n=10000)
    t_exact = trace_populations("exact-new", FIG4, PSI0, grid)
    t_ode = trace_populations("ode", FIG4, PSI0, grid)
    assert np.abs(t_ode.p1 - t_exact.p1).max() <= 1e-8
    assert np.abs(t_ode.norm - 1.0).max() <= 1e-9


#: Negative detuning, complex drives and a complex superposition: the
#: populations then read the relative phases of the eigencomponents.
COMPLEX = RamanParams(-400.0, 3.0, 120.0 + 160.0j, -30.0 + 70.0j)
PSI0_COMPLEX = np.array([0.6, 0.8j, 0.0])


@pytest.mark.parametrize("n, t_end, params, psi0", [
    pytest.param(370, 0.25, FIG4, PSI0, id="370-0.25"),     # figure-4 grid, 5 substeps
    pytest.param(5000, 0.5, FIG4, PSI0, id="5000-0.5"),     # one step per interval
    pytest.param(6, 0.25, FIG4, PSI0, id="6-0.25"),         # 300 substeps per interval
    pytest.param(2000, 2.0, COMPLEX, PSI0_COMPLEX, id="complex"),
    pytest.param(48, 0.25, COMPLEX, PSI0_COMPLEX, id="48-0.25"),  # 49 nodes, 36 substeps
])
def test_trace_ode_matches_node_by_node_rk4(n, t_end, params, psi0):
    grid = TimeGrid(t_end=t_end, n=n)
    trace = trace_populations("ode", params, psi0, grid)
    substeps = rk4_steps(h_new(params), grid.dt)
    ref = np.abs(ode_states_by_node(params, psi0, grid, substeps)) ** 2
    for got, want in zip((trace.p0, trace.p1, trace.pe), ref.T):
        assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("params", [
    pytest.param(COMPLEX, id="delta_avg<0"),
    pytest.param(RamanParams(400.0, 3.0, 120.0 + 160.0j, -30.0 + 70.0j),
                 id="delta_avg>0"),
])
def test_trace_ae_matches_h_eff_over_many_cycles(params):
    # exp(-i h_eff t) psi0 by numpy's eigensolver on h_eff written from the
    # parameters.  A basis state would not see the sign of the beat.
    lam, v = np.linalg.eigh(ae_h_eff(params))
    grid = TimeGrid(t_end=60.0 * 2.0 * np.pi / (lam[1] - lam[0]), n=6000)
    coeff = v.conj().T @ PSI0_COMPLEX[:2]
    ref = (np.exp(-1j * np.outer(grid.times, lam)) * coeff) @ v.T
    trace = trace_populations("ae", params, PSI0_COMPLEX, grid)
    for got, want in zip((trace.p0, trace.p1), np.abs(ref.T) ** 2):
        assert np.abs(got - want).max() <= 1e-11
    assert np.all(trace.pe == 0.0)


def test_grid_times_built_once_and_shared():
    grid = TimeGrid(t_end=0.1, n=20)
    assert grid.times is grid.times
    with pytest.raises(ValueError, match="read-only"):
        grid.times[3] = 0.0
    a = trace_populations("exact-new", FIG4, PSI0, grid)
    b = trace_populations("ode", FIG4, PSI0, grid)
    assert a.times is b.times is grid.times


def test_trace_ls_labels_and_norms():
    grid = auto_grid(FIG4, 45.0 / 400.0)
    trace = trace_populations("ls-S", FIG4, PSI0, grid, order=1)
    assert trace.label == "ls-S-k1"
    assert np.abs(trace.norm - 1.0).max() <= 1e-13
    mean = trace_populations("ls-M", FIG4, PSI0, grid, order=1)
    assert mean.label == "ls-M-k1"


def test_trace_ls_order_defaults_to_zero():
    grid = auto_grid(FIG4, 45.0 / 400.0)
    default = trace_populations("ls-R", FIG4, PSI0, grid)
    zeroth = trace_populations("ls-R", FIG4, PSI0, grid, order=0)
    assert default.label == zeroth.label == "ls-R-k0"
    for a, b in zip((default.p0, default.p1, default.pe, default.norm),
                    (zeroth.p0, zeroth.p1, zeroth.pe, zeroth.norm)):
        assert np.array_equal(a, b)


def test_trace_m0eff_matches_block_propagator():
    # exp(+i sqrt(B) t), B the Raman block of M0^2 built from its definition.
    grid = TimeGrid(t_end=0.1, n=20)
    for params, psi0 in ((FIG4, PSI0), (COMPLEX, PSI0_COMPLEX)):
        spec = np.linalg.eigh(m0sq_by_definition(params)[:2, :2])
        trace = trace_populations("m0eff", params, psi0, grid)
        assert np.all(trace.pe == 0.0)
        for i in (3, 11, 20):
            t = trace.times[i]
            u = mat_func_h3(spec, lambda lam: np.exp(1j * np.sqrt(lam) * t))
            assert trace.p1[i] == pytest.approx(abs(u[1] @ psi0[:2]) ** 2, abs=1e-13)


def test_two_level_beats_ignore_an_accepted_excited_amplitude():
    # An excited amplitude up to 1e-12 is accepted; the projectors of the
    # beat have a zero excited row and column, so it changes no bit.
    grid = TimeGrid(t_end=0.1, n=200)
    tiny = np.array([1.0, 0.0, 1e-13], dtype=complex)
    for method in ("ae", "m0eff"):
        for params in (FIG4, COMPLEX):
            got = trace_populations(method, params, tiny, grid)
            want = trace_populations(method, params, PSI0, grid)
            assert np.all(got.pe == 0.0)
            for a, b in zip((got.p0, got.p1, got.pe, got.norm),
                            (want.p0, want.p1, want.pe, want.norm)):
                assert np.array_equal(a, b), method


def test_trace_rejections():
    grid = TimeGrid(t_end=0.1, n=10)
    with pytest.raises(ValueError, match="unknown method"):
        trace_populations("magic", FIG4, PSI0, grid)
    with pytest.raises(ValueError, match="unit norm"):
        trace_populations("exact-new", FIG4, 2 * PSI0, grid)
    with pytest.raises(ValueError, match="unit norm"):
        trace_populations("exact-new", FIG4, (1 + 1e-6) * PSI0, grid)
    trace_populations("exact-new", FIG4, (1 + 1e-12) * PSI0, grid)  # within 1e-9
    with pytest.raises(ValueError, match="three components"):
        trace_populations("exact-new", FIG4, PSI0[:2], grid)
    nan_state = np.array([np.nan, 0.0, 0.0], dtype=complex)
    for method in ("exact-new", "ls-S"):
        with pytest.raises(ValueError, match="unit norm"):
            trace_populations(method, FIG4, nan_state, grid)
    excited = np.array([0.8, 0.0, 0.6], dtype=complex)
    for method in ("ae", "m0eff"):
        with pytest.raises(ValueError, match="excited"):
            trace_populations(method, FIG4, excited, grid)
    with pytest.raises(ValueError, match="two-photon"):
        trace_populations("delta0", FIG4, PSI0, grid)
    assert "ls-M" in METHODS


def test_trace_fig2_fidelity_floor():
    # exact evolutions under the two resonant-detuning prescriptions stay
    # nearly indistinguishable over seven Rabi phases
    base = RamanParams(400.0, 0.0, 200.0, 40.0)
    d_ae = delta_resonant_ae(base)
    d_ls = delta_resonant_lightshift(base)
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
