"""Driven three-level Raman transitions, with and without adiabatic
elimination: exact propagators, the two-level reductions, and the
Lippmann-Schwinger approximation hierarchy."""

from .model import RamanParams, SpectralData, h_ae, h_new, split_square, \
    spectral_m0sq
from .propagators import ae_model, state_table
from .lippmann_schwinger import (TimeGrid, Variant, apply_normalized, auto_grid,
                                 iterate, required_intervals, validate_grid)
from .analysis import (METHODS, Trace, amplitude_p, delta_resonant_ae,
                       delta_resonant_lightshift, rabi_ae, rabi_exact_delta0,
                       rabi_general, trace_populations)

__version__ = "0.1.0"

__all__ = [
    "RamanParams", "SpectralData", "h_ae", "h_new",
    "split_square", "spectral_m0sq",
    "ae_model", "state_table",
    "TimeGrid", "Variant", "apply_normalized", "auto_grid", "iterate",
    "required_intervals", "validate_grid",
    "METHODS", "Trace", "amplitude_p", "delta_resonant_ae",
    "delta_resonant_lightshift", "rabi_ae", "rabi_exact_delta0",
    "rabi_general", "trace_populations",
]
