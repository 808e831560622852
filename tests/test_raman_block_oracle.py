"""The closed-form Raman block against a 40-digit mpmath eigensolver.

The upper 2x2 block of M0^2 and the AE effective Hamiltonian are built
in mpmath from the same float parameters and diagonalised with
``mpmath.eighe``; no package formula enters the reference.  The range
runs from strong drive down to |omega|/|Delta| = 1e-7, where the
eigenvalue gap is 14 orders below the block entries.
"""

from __future__ import annotations

import mpmath
import numpy as np
import pytest

from ramanls.analysis import amplitude_p, rabi_ae, rabi_exact_delta0, rabi_general
from ramanls.model import RamanParams, spectral_m0sq

DIGITS = 40
RATIOS = np.geomspace(1e-7, 0.3, 15)


def cases():
    for d in (400.0, -400.0, 2.5, -2.5):
        for ratio in RATIOS:
            o0 = ratio * abs(d) * np.exp(0.4j)
            o1 = 0.6 * abs(o0) * np.exp(-1.3j)
            for dd in (0.0, 0.05 * ratio * d, 0.7 * abs(o0) ** 2 / d,
                       -d * (1.0 - 1e-12)):
                yield RamanParams(d, dd, complex(o0), complex(o1))


def eigh(rows):
    """Ascending eigenvalues and rank-one projectors of a Hermitian 2x2."""
    vals, vecs = mpmath.eighe(mpmath.matrix(rows))
    projs = [vecs[:, k] * vecs[:, k].transpose_conj() for k in range(2)]
    return vals[0], vals[1], projs


def reference(p):
    d, dd = mpmath.mpf(p.delta_avg), mpmath.mpf(p.delta_2ph)
    o0, o1 = mpmath.mpc(p.omega0), mpmath.mpc(p.omega1)
    lo, hi, (p_lo, p_hi) = eigh([
        [((d + dd) ** 2 + abs(o0) ** 2) / 4, o0 * mpmath.conj(o1) / 4],
        [o1 * mpmath.conj(o0) / 4, ((d - dd) ** 2 + abs(o1) ** 2) / 4]])
    cross = o0 * mpmath.conj(o1) / (2 * d)
    ae_lo, ae_hi, _ = eigh([
        [-(dd + abs(o0) ** 2 / (2 * d)) / 2, -cross / 2],
        [-mpmath.conj(cross) / 2, -(-dd + abs(o1) ** 2 / (2 * d)) / 2]])
    return {
        "mu_plus_sq": hi,
        "mu_minus_sq": lo,
        "rabi": mpmath.sqrt(hi) - mpmath.sqrt(lo),
        "amplitude": abs(o0 * o1) ** 2 / 4 / (hi - lo) ** 2,
        "omega_r": ae_hi - ae_lo,
        "projectors": (p_hi, p_lo),
    }


def rel_err(got, want):
    return float(abs((mpmath.mpf(got) - want) / want))


@pytest.mark.parametrize("p", list(cases()), ids=lambda p: (
    f"d{p.delta_avg:g}-o{abs(p.omega0):.3g}-dd{p.delta_2ph:.3g}"))
def test_raman_block_matches_mpmath(p):
    with mpmath.workdps(DIGITS):
        check(p, reference(p))


def check(p, ref):
    sd = spectral_m0sq(p)
    got = {
        "mu_plus_sq": sd.mu_plus_sq,
        "mu_minus_sq": sd.mu_minus_sq,
        "rabi": rabi_general(p),
        "amplitude": amplitude_p(p),
        "omega_r": rabi_ae(p),
    }
    for key, value in got.items():
        assert rel_err(value, ref[key]) <= 1e-13, key
    if p.delta_2ph == 0.0:
        assert rel_err(rabi_exact_delta0(p), ref["rabi"]) <= 1e-13
    for proj, want in zip(sd.projectors[:2], ref["projectors"]):
        assert not proj[2].any() and not proj[:, 2].any()
        for i in range(2):
            for j in range(2):
                assert abs(complex(proj[i, j]) - complex(want[i, j])) <= 1e-13
