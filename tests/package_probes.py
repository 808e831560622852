"""Package results read in the form the oracle checks compare.

These call the package, so none of them is an oracle.
``delta0_unitaries`` reads the full propagator of the ``delta0`` method
off the method table, one basis state per column.  ``scaled_remainder``
scales the remainder eps that ``iterate`` reads, by swapping
``lippmann_schwinger.split_square``, which ``iterate`` looks up at call
time.  ``eps_scaling_slopes`` fits the exponent with which the error of
the scaled Born orders falls in the scale, against the exact
resummation of ``spectral_oracle``.
"""

from __future__ import annotations

import contextlib

import numpy as np

from ramanls import lippmann_schwinger
from ramanls.analysis import METHODS

from spectral_oracle import resummed

#: Remainder scales the slope fits run over.
ETAS = (1.0, 0.5, 0.25)


def delta0_unitaries(params, grid) -> np.ndarray:
    """The ``delta0`` propagator on every grid node, as an (n+1, 3, 3) array."""
    return np.stack([METHODS["delta0"](params, e, grid, 0)(slice(None))
                     for e in np.eye(3, dtype=complex)], axis=2)


@contextlib.contextmanager
def scaled_remainder(eta: float):
    """Within the block, ``iterate`` reads eta * eps in place of eps."""
    original = lippmann_schwinger.split_square
    lippmann_schwinger.split_square = lambda params: eta * original(params)
    try:
        yield
    finally:
        lippmann_schwinger.split_square = original


def eps_scaling_slopes(variant, params, grid, orders, nodes) -> list[float]:
    """For each order k, the slope of log max_i |U_k(t_i) - resummed| over
    ``nodes`` against log eta, eta in ETAS; k + 1 when the Born error falls
    as eta^(k+1)."""
    slopes = []
    for k in orders:
        errs = []
        for eta in ETAS:
            with scaled_remainder(eta):
                tab = lippmann_schwinger.iterate(variant, params, grid, k)
            errs.append(max(float(np.abs(tab[i] - resummed(params, eta, variant,
                                                             grid.times[i])).max())
                            for i in nodes))
        slopes.append(float(np.polyfit(np.log(ETAS), np.log(errs), 1)[0]))
    return slopes
