from dataclasses import replace

import numpy as np
import pytest

from ramanls.analysis import (amplitude_p, delta_resonant_ae,
                              delta_resonant_lightshift, rabi_ae, rabi_general,
                              trace_populations)
from ramanls.lippmann_schwinger import auto_grid, required_intervals
from ramanls.model import (RamanParams, SpectralData, h_ae, h_new, spectral_m0sq,
                           split_square)
from ramanls.propagators import ae_model

from spectral_oracle import m0sq_by_definition

FIG4 = RamanParams(delta_avg=400.0, delta_2ph=-16.0,
                   omega0=200.0 + 0j, omega1=120.0 + 0j)


def random_params(rng):
    return RamanParams(
        delta_avg=rng.choice([-1.0, 1.0]) * rng.uniform(100.0, 900.0),
        delta_2ph=rng.uniform(-40.0, 40.0),
        omega0=rng.uniform(5.0, 300.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
        omega1=rng.uniform(5.0, 300.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
    )


def probe_params(rng):
    """Weak to strong drives: |omega| log-uniform in [0.01, 316], |Delta|
    log-uniform in [1, 1e3], delta = 0 for a third of the draws."""
    d = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0.0, 3.0)
    omegas = 10.0 ** rng.uniform(-2.0, 2.5, size=2) * np.exp(2j * np.pi * rng.uniform(size=2))
    dd = 0.0 if rng.uniform() < 1.0 / 3.0 else rng.uniform(-1.0, 1.0) * abs(d)
    return RamanParams(d, dd, omegas[0], omegas[1])


def test_params_validation():
    with pytest.raises(ValueError):
        RamanParams(0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        RamanParams(400.0, float("nan"), 1.0, 1.0)
    p = RamanParams(400.0, -16.0, 200.0, 120.0)
    assert p.omega_sq == 54400.0 and p.omega_imbalance == 25600.0


def test_params_validation_of_array_fields():
    # Array fields broadcast with the others; one bad entry rejects all.
    grid = np.linspace(-40.0, 40.0, 9)
    with pytest.raises(ValueError, match="^RamanParams entries must be finite$"):
        RamanParams(400.0, np.where(grid == 10.0, np.nan, grid), 200.0, 120.0)
    with pytest.raises(ValueError, match="^RamanParams entries must be finite$"):
        RamanParams(400.0, 0.0, np.full(3, 200.0 + 0j), np.array([1.0, 2.0, np.inf]))
    with pytest.raises(ValueError, match="^average detuning must be nonzero$"):
        RamanParams(np.linspace(-400.0, 400.0, 9), 0.0, 200.0, 120.0)
    p = RamanParams(np.linspace(100.0, 500.0, 5), grid[:, None], 200.0, 120.0j)
    assert p.omega_sq == 54400.0
    assert rabi_general(p).shape == (9, 5)
    assert rabi_general(p)[2, 3] == rabi_general(RamanParams(400.0, -20.0, 200.0, 120.0j))


def test_h_ae_trivial_and_fig4_entries():
    p = RamanParams(400.0, 0.0, 0.0, 0.0)
    assert np.allclose(h_ae(p), np.diag([0.0, 0.0, 400.0]))
    h = h_ae(FIG4)
    assert h[0, 2] == 100.0
    assert h[2, 2] == 400.0
    assert h[0, 0] == 8.0
    assert np.abs(h - h.conj().T).max() == 0.0


def test_h_new_trivial_and_trace():
    p = RamanParams(400.0, 0.0, 0.0, 0.0)
    assert np.allclose(h_new(p), np.diag([-200.0, -200.0, 200.0]))
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = random_params(rng)
        assert np.trace(h_new(p)).real == pytest.approx(-p.delta_avg / 2, rel=1e-14)
        assert np.trace(h_new(p)).imag == 0.0


def test_picture_shift_is_half_delta():
    rng = np.random.default_rng(6)
    for _ in range(20):
        p = random_params(rng)
        shift = h_ae(p) - h_new(p)
        assert np.abs(shift - 0.5 * p.delta_avg * np.eye(3)).max() < 1e-12 * abs(p.delta_avg)


def test_split_square_zero_detuning_kills_eps():
    p = RamanParams(400.0, 0.0, 200.0, 120.0)
    assert np.abs(split_square(p)).max() == 0.0


def test_split_square_overflow_is_a_value_error():
    # |Omega|^2 leaves double range above 1.3e154, Delta^4 near 1e77.
    # 1.7e308 and -1.7e308 are finite, but their sum of squares is not.
    for p in (RamanParams(400.0, 0.0, 2e154, 1.0), RamanParams(1e78, 0.0, 1.0, 1.0),
              RamanParams(1.7e308, -1.7e308, 1, 1)):
        with pytest.raises(ValueError, match="overflow double precision"):
            split_square(p)


def test_underflow_is_a_value_error():
    # Every square of these parameters underflows to zero, so mu_+^2 = 0
    # and mu_-^2 = det/mu_+^2 is undefined: every reader of the Raman
    # block names the parameters instead of dividing by zero.
    readers = (split_square, spectral_m0sq, ae_model, rabi_ae, rabi_general,
               amplitude_p, delta_resonant_ae, delta_resonant_lightshift,
               lambda p: required_intervals(p, 1.0))
    for p in (RamanParams(1e-200, 0.0, 0.0, 0.0),
              RamanParams(1e-200, 1e-200, 1e-200, 0.0)):
        for reader in readers:
            with pytest.raises(ValueError, match="underflow double precision: "
                                                 "delta_avg = 1e-200, delta = "):
                reader(p)
    # Subnormal but nonzero squares still solve.
    assert spectral_m0sq(RamanParams(1e-160, 0.0, 0.0, 0.0)).mu_sq[0] > 0.0


#: Every reader of the Raman block that takes array fields.
OBSERVABLES = (rabi_general, rabi_ae, amplitude_p, delta_resonant_ae,
               delta_resonant_lightshift)
#: ... and those that take scalar fields only.
SCALAR_READERS = (*OBSERVABLES, spectral_m0sq, split_square, ae_model)


def bits(value):
    """dtype, shape and bytes of a reader's result, each part of a tuple or
    of SpectralData in turn."""
    if isinstance(value, SpectralData):
        value = (value.mu_sq, value.projectors)
    if isinstance(value, tuple):
        return sum((bits(part) for part in value), ())
    value = np.asarray(value)
    return value.dtype.str, value.shape, value.tobytes()


def test_a_cached_block_gives_the_bits_of_a_fresh_solve():
    rng = np.random.default_rng(5)
    cases = [(probe_params(rng), SCALAR_READERS) for _ in range(20)]
    fields = (rng.choice([-1.0, 1.0], 50) * rng.uniform(1.0, 900.0, 50),
              rng.uniform(-40.0, 40.0, 50),
              rng.uniform(0.0, 300.0, 50) * np.exp(2j * np.pi * rng.uniform(size=50)),
              np.linspace(-300.0, 300.0, 50))
    cases.append((RamanParams(*fields), OBSERVABLES))
    for p, readers in cases:
        cached = replace(p)
        block = cached.raman_block
        assert vars(cached)["raman_block"] is block
        for reader in readers:
            fresh = replace(p)
            assert "raman_block" not in vars(fresh)
            assert bits(reader(fresh)) == bits(reader(cached)), reader.__name__
        assert cached.raman_block is block


def test_each_instance_solves_its_block_once(monkeypatch):
    # An ls-S trace (its grid, the grid check and eps) and one sweep chunk
    # of three observables each solve their block once.
    solved = []
    block = RamanParams.raman_block
    monkeypatch.setattr(block, "func", lambda p, solve=block.func: solved.append(p) or solve(p))
    p = replace(FIG4)
    trace_populations("ls-S", p, np.array([1.0, 0.0, 0.0]), auto_grid(p, 0.25), order=1)
    chunk = replace(FIG4, delta_2ph=np.linspace(-40.0, 40.0, 801))
    for observable in (rabi_general, rabi_ae, amplitude_p):
        observable(chunk)
    assert [id(q) for q in solved] == [id(p), id(chunk)]


def test_replace_gets_a_fresh_block():
    p = replace(FIG4)
    block = p.raman_block
    same, moved = replace(p), replace(p, delta_2ph=5.0)
    for q in (same, moved):
        assert "raman_block" not in vars(q)
    assert same.raman_block is not block and bits(same.raman_block) == bits(block)
    assert bits(moved.raman_block) == bits(RamanParams(400.0, 5.0, 200.0 + 0j, 120.0 + 0j).raman_block)
    assert moved.raman_block[0] != block[0]


def test_a_failed_solve_raises_on_every_access_and_keeps_nothing():
    for p, readers in ((RamanParams(400.0, 0.0, 2e154, 1.0), SCALAR_READERS),
                       (RamanParams(1e-200, 0.0, 0.0, 0.0), SCALAR_READERS),
                       (RamanParams(400.0, 0.0, np.array([1.0, 2e154]), 1.0), OBSERVABLES)):
        messages = set()
        for reader in (lambda q: q.raman_block, *readers, lambda q: q.raman_block):
            with pytest.raises(ValueError, match="flow double precision") as exc:
                reader(p)
            messages.add(str(exc.value))
            assert "raman_block" not in vars(p)
        assert len(messages) == 1, messages


def test_split_square_reconstructs_h_squared():
    # The closed-form M0^2 of spectral_m0sq plus eps gives back h_new^2.
    rng = np.random.default_rng(8)
    for _ in range(30):
        p = random_params(rng)
        eps = split_square(p)
        sd = spectral_m0sq(p)
        m0sq = np.tensordot(sd.mu_sq, sd.projectors, 1)
        h2 = h_new(p) @ h_new(p)
        scale = np.abs(h2).max()
        assert np.abs(m0sq + eps - h2).max() < 1e-12 * scale
        # eps is purely off-diagonal-block: zero on the blocks of M0^2
        assert np.abs(eps[:2, :2]).max() == 0.0 and eps[2, 2] == 0.0
        assert np.abs(eps - (h2 - m0sq_by_definition(p))).max() < 1e-12 * scale


def test_split_square_corner_entry_fig4():
    # The corner of eps is fixed by squaring the Hamiltonian itself:
    # (h_new^2)[0, 2] = -(delta_2ph/4) * omega0, i.e. 800 for these values.
    eps = split_square(FIG4)
    h2 = h_new(FIG4) @ h_new(FIG4)
    assert eps[0, 2] == h2[0, 2]
    assert eps[0, 2] == pytest.approx(800.0, abs=1e-9)
    assert eps[1, 2] == pytest.approx(-(-16.0 / 4.0) * (-120.0), abs=1e-9)


def test_m0sq_excited_entry_independent_of_detuning():
    for dd in (-30.0, 0.0, 17.0):
        p = RamanParams(400.0, dd, 200.0, 120.0)
        assert m0sq_by_definition(p)[2, 2] == 0.25 * (400.0**2 + 54400.0)
        assert spectral_m0sq(p).mu_sq[2] == 0.25 * (400.0**2 + 54400.0)


def test_spectral_fig4_eigenvalues():
    sd = spectral_m0sq(FIG4)
    assert sd.mu_sq[0] == pytest.approx(52864.0, abs=1e-8)
    assert sd.mu_sq[1] == pytest.approx(40864.0, abs=1e-8)
    assert sd.mu_sq[2] == pytest.approx(53600.0, abs=1e-8)


def test_spectral_delta0_balanced():
    p = RamanParams(400.0, 0.0, 70.0, 70.0)
    sd = spectral_m0sq(p)
    assert sd.mu_sq[0] == pytest.approx(0.25 * (400.0**2 + p.omega_sq), rel=1e-14)
    assert sd.mu_sq[1] == pytest.approx(0.25 * 400.0**2, rel=1e-14)


def test_spectral_dark_projector_at_delta0():
    p = RamanParams(400.0, 0.0, 200.0 * np.exp(0.3j), 120.0 * np.exp(-1.1j))
    sd = spectral_m0sq(p)
    dark = np.array([-np.conj(p.omega1), np.conj(p.omega0), 0.0])
    dark /= np.linalg.norm(dark)
    p_minus = sd.projectors[1]
    assert np.abs(p_minus @ dark - dark).max() < 1e-13
    assert np.abs(sd.projectors[0] @ dark).max() < 1e-13


def test_spectral_projector_invariants_and_reconstruction():
    rng = np.random.default_rng(9)
    draws = [random_params(rng) for _ in range(30)]
    draws += [probe_params(rng) for _ in range(2000)]
    for p in draws:
        sd = spectral_m0sq(p)
        total = np.zeros((3, 3), dtype=complex)
        for proj in sd.projectors:
            assert np.abs(proj - proj.conj().T).max() < 1e-13
            assert np.abs(proj @ proj - proj).max() < 1e-12
            total += proj
        assert np.abs(total - np.eye(3)).max() < 1e-12
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.abs(sd.projectors[i] @ sd.projectors[j]).max() < 1e-12
        recon = (sd.mu_sq[0] * sd.projectors[0]
                 + sd.mu_sq[1] * sd.projectors[1]
                 + sd.mu_sq[2] * sd.projectors[2])
        m0sq = m0sq_by_definition(p)
        assert np.abs(recon - m0sq).max() < 1e-12 * np.abs(m0sq).max()


def test_spectral_eigencolumns():
    # The unnormalized eigencolumns of the upper block are
    # [4 mu^2 - (Delta - delta sigma3)^2] Omega; each must be preserved by
    # its own projector and annihilated by the other.
    rng = np.random.default_rng(10)
    for _ in range(20):
        p = random_params(rng)
        sd = spectral_m0sq(p)
        d_sq_flip = np.diag([(p.delta_avg - p.delta_2ph) ** 2,
                             (p.delta_avg + p.delta_2ph) ** 2])
        for mu_sq, own, other in (
            (sd.mu_sq[0], sd.projectors[0], sd.projectors[1]),
            (sd.mu_sq[1], sd.projectors[1], sd.projectors[0]),
        ):
            omega = np.array([p.omega0, p.omega1])
            col = (4.0 * mu_sq * np.eye(2) - d_sq_flip) @ omega
            norm = np.linalg.norm(col)
            if norm < 1e-9:
                continue
            col = col / norm
            assert np.abs(own[:2, :2] @ col - col).max() < 1e-9
            assert np.abs(other[:2, :2] @ col).max() < 1e-9


def test_spectral_gap_formula_and_resonant_value():
    rng = np.random.default_rng(12)
    for _ in range(20):
        p = random_params(rng)
        sd = spectral_m0sq(p)
        s, w = p.omega_sq, p.omega_imbalance
        four_dd = 4.0 * p.delta_2ph * p.delta_avg
        gap = 0.25 * np.sqrt(s * s + 2.0 * four_dd * w + four_dd**2)
        assert sd.mu_sq[0] - sd.mu_sq[1] == pytest.approx(gap, rel=1e-12)
    # at the resonant detuning the gap is |omega0||omega1|/2 exactly
    p = RamanParams(400.0, -16.0, 200.0, 120.0)
    sd = spectral_m0sq(p)
    assert sd.mu_sq[0] - sd.mu_sq[1] == pytest.approx(200.0 * 120.0 / 2.0,
                                                           rel=1e-13)


def test_spectral_axis_fallback_single_drive():
    p = RamanParams(400.0, 20.0, 150.0, 0.0)
    sd = spectral_m0sq(p)
    block = m0sq_by_definition(p)[:2, :2]
    recon = (sd.mu_sq[0] * sd.projectors[0][:2, :2]
             + sd.mu_sq[1] * sd.projectors[1][:2, :2])
    assert np.abs(recon - block).max() < 1e-12 * np.abs(block).max()
    assert sd.mu_sq[0] >= sd.mu_sq[1]


def test_spectral_one_drive_off_at_one_photon_resonance():
    # Delta + delta = 0 with omega0 = 0: |0> decouples at zero energy.
    sd = spectral_m0sq(RamanParams(0.3, -0.3, 0.0, 0.37))
    assert sd.mu_sq[1] == 0.0
    assert np.sqrt(sd.mu_sq[1]) == 0.0
    assert np.array_equal(sd.projectors[1], np.diag([1.0, 0.0, 0.0]))
