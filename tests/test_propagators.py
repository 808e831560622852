import math

import numpy as np
import pytest

from ramanls.lippmann_schwinger import TimeGrid
from ramanls.model import RamanParams, h_ae, h_new
from ramanls.propagators import ae_model, rk4_steps, state_table
from ramanls.analysis import (METHODS, amplitude_p, rabi_ae, rabi_exact_delta0,
                              rabi_general, trace_populations)

from package_probes import delta0_unitaries
from propagator_oracle import (ae_population_1, exact_unitary, excited_pop_delta0,
                               ode_oracle)

FIG4 = RamanParams(400.0, -16.0, 200.0 + 0j, 120.0 + 0j)
FIG3 = {
    "a": RamanParams(400.0, 0.0, 40.0 + 0j, 40.0 + 0j),
    "b": RamanParams(400.0, 0.0, 40.0 + 0j, 25.0 + 0j),
    "c": RamanParams(400.0, 0.0, 100.0 + 0j, 100.0 + 0j),
}
PSI0 = np.array([1.0, 0.0, 0.0], dtype=complex)


def random_params(rng, delta_2ph=None):
    return RamanParams(
        delta_avg=rng.choice([-1.0, 1.0]) * rng.uniform(100.0, 900.0),
        delta_2ph=rng.uniform(-40.0, 40.0) if delta_2ph is None else delta_2ph,
        omega0=rng.uniform(5.0, 300.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
        omega1=rng.uniform(5.0, 300.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
    )


# ---------------------------------------------------------------- exact


def test_exact_unitary_identity_and_diagonal():
    h = np.diag([1.0, -2.0, 3.0]).astype(complex)
    assert np.allclose(exact_unitary(h, 0.0), np.eye(3))
    u = exact_unitary(h, 0.7)
    assert np.allclose(u, np.diag(np.exp(-1j * np.array([1.0, -2.0, 3.0]) * 0.7)))


def test_exact_unitary_is_unitary_and_composes():
    rng = np.random.default_rng(21)
    for _ in range(15):
        p = random_params(rng)
        h = h_new(p)
        t1, t2 = rng.uniform(0.0, 0.3, size=2)
        u1, u2, u12 = exact_unitary(h, t1), exact_unitary(h, t2), exact_unitary(h, t1 + t2)
        assert np.abs(u1.conj().T @ u1 - np.eye(3)).max() <= 1e-12
        assert np.abs(u12 - u1 @ u2).max() <= 1e-11


def test_exact_transfer_peak_balanced_drives():
    # Full transfer at half the slow cycle for matched drives, delta=0.
    p = FIG3["a"]
    omega_r = rabi_exact_delta0(p)
    times = np.linspace(0.0, 2.0 * np.pi / omega_r, 8193)
    states = state_table(h_new(p), times, PSI0)
    p1 = np.abs(states[:, 1]) ** 2
    i = int(p1.argmax())
    assert p1[i] >= 0.999
    assert omega_r * times[i] == pytest.approx(np.pi, rel=0.05)


def test_state_table_matches_exact_unitary():
    p = FIG4
    h = h_ae(p)
    times = np.array([0.0, 0.02, 0.11])
    states = state_table(h, times, PSI0)
    for t, s in zip(times, states):
        assert np.abs(exact_unitary(h, t) @ PSI0 - s).max() < 1e-13


# ---------------------------------------------------------------- oracle


def test_ode_oracle_trivial_cases():
    assert np.allclose(ode_oracle(np.zeros((3, 3)), 1.3, 0.1), np.eye(3))
    assert np.allclose(ode_oracle(h_new(FIG4), 0.0, 0.1), np.eye(3))


def test_ode_oracle_agrees_with_spectral_propagator():
    h = h_new(FIG4)
    for t in (0.05, 45.0 / 400.0, 0.25):
        diff = np.abs(ode_oracle(h, t, 2.5e-5) - exact_unitary(h, t)).max()
        assert diff <= 1e-8


def test_ode_oracle_rejects_bad_step():
    for dt_max in (-1.0, 0.0, float("nan")):
        with pytest.raises(ValueError, match="dt_max must be positive"):
            ode_oracle(h_new(FIG4), 0.1, dt_max)


def test_rk4_steps_count():
    assert rk4_steps(np.zeros((3, 3)), 1.3) == 1
    assert rk4_steps(h_new(FIG4), 0.0) == 1
    rng = np.random.default_rng(41)
    for _ in range(20):
        h = h_new(random_params(rng))
        rho = float(np.abs(h).sum(axis=1).max())
        span = rng.uniform(1e-4, 0.5)
        steps = rk4_steps(h, span)
        assert rk4_steps(h, -span) == steps
        assert steps * 0.05 >= span * rho > (steps - 1) * 0.05


def test_ode_oracle_reverses_time():
    h = h_new(FIG4)
    back = ode_oracle(h, -0.02, 2.5e-5)
    fwd = exact_unitary(h, 0.02)
    assert np.abs(back - fwd.conj().T).max() <= 1e-8


# ---------------------------------------------------------------- AE model


def test_ae_model_balanced_and_resonant_rabi():
    assert rabi_ae(FIG3["a"]) == pytest.approx(2.0, rel=1e-14)
    p = RamanParams(400.0, -16.0, 200.0, 120.0)
    assert rabi_ae(p) == pytest.approx(30.0, rel=1e-13)


def test_ae_model_no_drive_reduces_to_detuning():
    p = RamanParams(400.0, -7.0, 0.0, 0.0)
    assert rabi_ae(p) == pytest.approx(7.0, rel=1e-15)
    assert np.allclose(ae_model(p), -0.5 * np.diag([-7.0, 7.0]))


def test_ae_model_consistency_with_eigensystem():
    rng = np.random.default_rng(23)
    for _ in range(20):
        p = random_params(rng)
        lam = np.linalg.eigvalsh(ae_model(p))
        assert rabi_ae(p) == pytest.approx(lam[1] - lam[0], rel=1e-10, abs=1e-12)
        # literal quadratic form of the squared Rabi frequency
        s, w = p.omega_sq, p.omega_imbalance
        d, dd = p.delta_avg, p.delta_2ph
        literal = (s / (4 * d)) ** 2 + dd * w / (2 * d) + dd * dd
        assert rabi_ae(p)**2 == pytest.approx(literal, rel=1e-10)


def test_ae_model_overflow_is_a_value_error():
    # det of the Raman block grows as Delta^4 and leaves double range near 1e77.
    assert np.all(np.isfinite(ae_model(RamanParams(1e76, 0.0, 1.0, 1.0))))
    for p in (RamanParams(1e78, 0.0, 1.0, 1.0), RamanParams(400.0, 0.0, 1e200, 1.0)):
        with pytest.raises(ValueError, match="overflow double precision"):
            ae_model(p)


def test_ae_population_formula():
    assert ae_population_1(FIG3["a"], 0.0) == 0.0
    # matched drives: full transfer at omega_r * t = pi
    t_half = np.pi / rabi_ae(FIG3["a"])
    assert ae_population_1(FIG3["a"], t_half) == pytest.approx(1.0, abs=1e-12)
    # mismatched drives peak at the closed-form amplitude
    peak = 4.0 * 1600.0 * 625.0 / 2225.0**2
    t_half = np.pi / rabi_ae(FIG3["b"])
    assert ae_population_1(FIG3["b"], t_half) == pytest.approx(peak, rel=1e-12)
    assert peak == pytest.approx(0.808, abs=5e-4)


def test_ae_population_matches_two_level_evolution():
    rng = np.random.default_rng(29)
    for _ in range(20):
        p = random_params(rng)
        t = rng.uniform(0.0, 3.0)
        lam, v = np.linalg.eigh(ae_model(p))
        u = (v * np.exp(-1j * lam * t)) @ v.conj().T
        direct = abs(u[1, 0]) ** 2
        assert ae_population_1(p, t) == pytest.approx(direct, abs=1e-12)


def test_ae_population_degenerate_limit():
    p = RamanParams(400.0, 0.0, 0.0, 0.0)
    assert ae_population_1(p, 1.7) == 0.0


# ---------------------------------------------------------------- delta = 0


def test_exact_delta0_matches_eigendecomposition():
    grid = TimeGrid(t_end=100.0 / 400.0, n=50)
    for p in FIG3.values():
        h = h_new(p)
        for t, u in zip(grid.times, delta0_unitaries(p, grid)):
            assert np.abs(u - exact_unitary(h, t)).max() <= 1e-10


def test_exact_delta0_identity_and_rejection():
    grid = TimeGrid(t_end=0.1, n=2)
    assert np.allclose(delta0_unitaries(FIG3["a"], grid)[0], np.eye(3))
    with pytest.raises(ValueError, match="two-photon"):
        delta0_unitaries(FIG4, grid)


def test_exact_delta0_dark_state():
    p = RamanParams(400.0, 0.0, 100.0 * np.exp(0.4j), 60.0)
    dark = np.array([-np.conj(p.omega1), np.conj(p.omega0), 0.0])
    dark /= np.linalg.norm(dark)
    grid = TimeGrid(t_end=0.37, n=74)
    for i in (2, 20, 74):  # t = 0.01, 0.1, 0.37
        out = delta0_unitaries(p, grid)[i] @ dark
        assert abs(out[2]) <= 1e-16
        assert abs(abs(np.vdot(dark, out)) - 1.0) <= 1e-13


def test_excited_population_closed_form():
    p = FIG3["c"]
    assert excited_pop_delta0(p, 0.0) == 0.0
    amp = 10000.0 / 180000.0
    freq = math.sqrt(180000.0)
    assert amp == pytest.approx(0.05556, abs=5e-6)
    assert freq / 2.0 == pytest.approx(212.13, abs=5e-3)
    t_peak = math.pi / freq
    assert excited_pop_delta0(p, t_peak) == pytest.approx(amp, rel=1e-12)
    # against the exact propagator
    h = h_new(p)
    for t in (0.003, 0.011, 0.07):
        ce = (exact_unitary(h, t) @ PSI0)[2]
        assert excited_pop_delta0(p, t) == pytest.approx(abs(ce) ** 2, abs=1e-12)
    assert excited_pop_delta0(RamanParams(400.0, 0.0, 0.0, 50.0), 0.3) == 0.0
    with pytest.raises(ValueError):
        excited_pop_delta0(FIG4, 0.1)


# ---------------------------------------------------------------- M0 block


def test_m0_effective_unitary_basics():
    # The m0eff states from |0> and |1> start there and stay orthonormal.
    rng = np.random.default_rng(31)
    for p in [FIG4] + [random_params(rng) for _ in range(10)]:
        grid = TimeGrid(t_end=rng.uniform(0.01, 0.5), n=10)
        cols = [METHODS["m0eff"](p, psi, grid, 0)(slice(None)) for psi in np.eye(3)[:2]]
        u = np.stack(cols, axis=2)[:, :2]
        assert np.abs(u[0] - np.eye(2)).max() <= 1e-12
        gram = np.einsum("tai,taj->tij", u.conj(), u)
        assert np.abs(gram - np.eye(2)).max() <= 1e-12


def test_m0_effective_transfer_oscillates_at_general_rabi():
    p = FIG4
    omega_r = rabi_general(p)
    amp = amplitude_p(p)
    trace = trace_populations("m0eff", p, PSI0, TimeGrid(t_end=0.13, n=26))
    assert np.abs(trace.p1 - amp * np.sin(0.5 * omega_r * trace.times) ** 2).max() <= 1e-12


@pytest.mark.parametrize("ratio", [1e-5, 1e-6, 1e-7])
def test_m0_effective_transfer_peak_exact_at_weak_drive(ratio):
    # The peak at Omega_R t = pi must not lose the beat to the two fast
    # phases mu+ t and mu- t, which at weak drive are ~ 1e10 rad apiece.
    p = RamanParams(400.0, 0.0, 400.0 * ratio, 0.6 * 400.0 * ratio)
    grid = TimeGrid(t_end=np.pi / rabi_general(p), n=2)
    trace = trace_populations("m0eff", p, PSI0, grid)
    assert trace.p1[-1] == pytest.approx(amplitude_p(p), abs=1e-12)


def test_m0_effective_envelope_bounds_exact_transfer():
    # The slow envelope from the block propagator should cap the exact
    # fast-oscillating transfer to within a few percent.
    p = FIG4
    omega_r = rabi_general(p)
    times = np.linspace(0.0, 2.0 * np.pi / omega_r, 3001)
    exact_p1 = np.abs(state_table(h_new(p), times, PSI0)[:, 1]) ** 2
    envelope = amplitude_p(p) * np.sin(0.5 * omega_r * times) ** 2
    assert float((exact_p1 - envelope).max()) <= 0.03


# ---------------------------------------------------------------- pictures


def test_picture_equivalence_of_populations():
    p = FIG4
    times = np.linspace(0.0, 0.25, 101)
    pops_ae = np.abs(state_table(h_ae(p), times, PSI0)) ** 2
    pops_new = np.abs(state_table(h_new(p), times, PSI0)) ** 2
    assert np.abs(pops_ae - pops_new).max() <= 1e-12


def test_ae_rabi_is_leading_term_of_exact():
    # relative gap = omega_sq / (4 delta^2) + O((omega/delta)^4)
    for om in (4.0, 40.0):
        p = RamanParams(400.0, 0.0, complex(om), complex(om))
        gap = abs(rabi_exact_delta0(p) - rabi_ae(p)) / rabi_ae(p)
        lead = p.omega_sq / (4.0 * 400.0**2)
        assert abs(gap - lead) <= (p.omega_sq / 400.0**2) ** 2
