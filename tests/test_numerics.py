import numpy as np
import pytest

from ramanls.numerics import (eig_h3, hermiticity_defect, require_hermitian,
                              sinc_sqrt)

from spectral_oracle import mat_func_h3


def random_hermitian(rng, scale=1.0):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return scale * 0.5 * (a + a.conj().T)


def test_require_hermitian_rejects_with_diagnostic():
    bad = np.array([[1.0, 2.0], [2.5, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="max asymmetry"):
        require_hermitian(bad)
    assert hermiticity_defect(bad) == 0.5


def test_require_hermitian_rejects_nonfinite():
    bad = np.array([[np.inf, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="non-finite"):
        require_hermitian(bad)


def test_eig_h3_diagonal():
    spec = eig_h3(np.diag([-1.0, 0.0, 2.0]).astype(complex))
    assert np.allclose(spec.eigenvalues, [-1.0, 0.0, 2.0])
    assert np.allclose(np.abs(spec.eigenvectors), np.eye(3))


def test_eig_h3_shifted_picture_hamiltonian():
    # Delta=400, delta=0, Omega0=Omega1=40: one eigenvalue is -Delta/2 and
    # the other two are +-sqrt(Delta^2 + |Omega|^2)/2.
    h = 0.5 * np.array(
        [[-400.0, 0.0, 40.0], [0.0, -400.0, 40.0], [40.0, 40.0, 400.0]],
        dtype=complex,
    )
    spec = eig_h3(h)
    big = 0.5 * np.sqrt(400.0**2 + 3200.0)
    assert np.allclose(spec.eigenvalues, [-big, -200.0, big], atol=1e-9)
    assert big == pytest.approx(201.990, abs=5e-4)
    resid = h @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues
    assert np.abs(resid).max() < 1e-10


def test_eig_h3_reconstruction_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = random_hermitian(rng, scale=rng.uniform(0.5, 50.0))
        spec = eig_h3(a)
        v = spec.eigenvectors
        assert np.abs(v.conj().T @ v - np.eye(3)).max() < 1e-12
        recon = (v * spec.eigenvalues) @ v.conj().T
        assert np.abs(recon - a).max() < 1e-12 * max(np.abs(a).max(), 1.0)


def test_mat_func_identity_and_square():
    spec = eig_h3(np.diag([1.0, 2.0, 3.0]).astype(complex))
    assert np.allclose(mat_func_h3(spec, lambda lam: 1.0), np.eye(3))
    assert np.allclose(mat_func_h3(spec, lambda lam: lam**2),
                       np.diag([1.0, 4.0, 9.0]))


def test_mat_func_cosine_matches_block_closed_form():
    # cos(sqrt(M0^2) t) evaluated through eig_h3 must agree with the
    # two-projector closed form available at zero two-photon detuning.
    delta = 400.0
    om = np.array([100.0, 100.0], dtype=complex)
    s = float(np.vdot(om, om).real)
    m0sq = np.zeros((3, 3), dtype=complex)
    m0sq[:2, :2] = 0.25 * (delta**2 * np.eye(2) + np.outer(om, om.conj()))
    m0sq[2, 2] = 0.25 * (delta**2 + s)
    spec = eig_h3(m0sq)
    bright = np.zeros((3, 3), dtype=complex)
    bright[:2, :2] = np.outer(om, om.conj()) / s
    bright[2, 2] = 1.0
    dark = np.zeros((3, 3), dtype=complex)
    dark[:2, :2] = np.eye(2) - np.outer(om, om.conj()) / s
    for t in (0.0, 0.013, 0.2):
        via_eig = mat_func_h3(spec, lambda lam: np.cos(np.sqrt(lam) * t))
        closed = (np.cos(0.5 * np.sqrt(delta**2 + s) * t) * bright
                  + np.cos(0.5 * delta * t) * dark)
        assert np.abs(via_eig - closed).max() < 1e-12


def test_mat_func_unitary_phases():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = random_hermitian(rng, scale=rng.uniform(1.0, 30.0))
        spec = eig_h3(a)
        t = rng.uniform(0.0, 5.0)
        u = (mat_func_h3(spec, lambda lam: np.cos(lam * t))
             - 1j * mat_func_h3(spec, lambda lam: np.sin(lam * t)))
        assert np.abs(u.conj().T @ u - np.eye(3)).max() <= 1e-12


def test_sinc_sqrt_limits():
    assert sinc_sqrt(0.0, 0.7) == pytest.approx(0.7, rel=1e-15)
    assert sinc_sqrt(4.0, 0.0) == 0.0
    # series and direct branch agree at the crossover
    lam = 1e-8 / 0.01  # x exactly at threshold for t = 0.1
    t = 0.1
    direct = np.sin(np.sqrt(lam) * t) / np.sqrt(lam)
    assert sinc_sqrt(lam * 1.0000001, t) == pytest.approx(direct, rel=1e-10)


def test_sinc_sqrt_rejects_negative_lam_outside_series_range():
    with pytest.raises(ValueError, match="lam = -4"):
        sinc_sqrt(-4.0, 1.0)
    with pytest.raises(ValueError, match="lam = -4"):
        sinc_sqrt(np.array([[1.0], [-4.0]]), np.linspace(0.0, 1.0, 5))
    # inside the series range |lam| t^2 < 1e-8 the series value stands
    assert sinc_sqrt(-1e-10, 1.0) == pytest.approx(1.0 + 1e-10 / 6.0, rel=1e-15)
    assert sinc_sqrt(-4.0, 0.0) == 0.0
