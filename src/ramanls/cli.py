"""Command-line front end: traces, method comparisons, sweeps, fidelity
studies and figure presets, all emitted as CSV.

``SCENARIO_KEYS`` lists exactly the keys each scenario reads: every key
is its flag ``--key`` and its config-file key alike.  Every scenario
writes through one path: ``_tables`` yields (path, header, columns) for
each CSV and ``_write_csv`` writes the columns row by row.

Frequencies are entered in rad/us (displayed as MHz), times in us; the
``dt_times_Delta`` column carries the dimensionless time axis used by the
figure presets.  Exit codes: 0 success, 2 usage error (an output path
that cannot be written included), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .analysis import (METHODS, delta_resonant_ae, delta_resonant_lightshift,
                       amplitude_p, rabi_ae, rabi_exact_delta0, rabi_general,
                       trace_populations)
from .lippmann_schwinger import TimeGrid, required_intervals
from .model import RamanParams, h_ae
from .propagators import state_table

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

SWEEP_AXES = ("delta", "delta-avg", "omega0", "omega1")
#: The RamanParams field each sweep axis varies.
_AXIS_FIELDS = dict(zip(SWEEP_AXES, ("delta_2ph", "delta_avg", "omega0", "omega1")))
#: Every sweep observable.  The entries look their functions up in this
#: module's globals at call time, so that wrapping a module binding (as a
#: profiler does) sees every call.
OBSERVABLES = {
    "rabi": lambda p: rabi_general(p),
    "rabi-ae": lambda p: rabi_ae(p),
    "amplitude": lambda p: amplitude_p(p),
}
TRACE_HEADER = ("t", "dt_times_Delta", "p0", "p1", "pe", "norm", "method")
FIDELITY_HEADER = ("ratio", "omega_r_t", "fidelity")


class UsageError(Exception):
    pass


def parse_complex_literal(text: str) -> complex:
    """Parse 'a+bi' (or plain real / pure imaginary) Rabi amplitudes.  Only
    a trailing 'i' is the imaginary unit: 'inf' parses, to be rejected later."""
    cleaned = text.strip().replace(" ", "")
    if cleaned[-1:] in ("i", "I"):
        cleaned = cleaned[:-1] + "j"
    try:
        return complex(cleaned)
    except ValueError:
        raise UsageError(f"malformed complex literal: {text!r}") from None


def _parse_float(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"malformed number for {key}: {text!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"{key} must be finite: {text!r}")
    return value


def _parse_count(key: str, text: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"malformed number for {key}: {text!r}") from None
    if value < minimum:
        raise UsageError(f"{key} must be >= {minimum}: {text!r}")
    return value


def _parse_names(key: str, text: str, valid) -> list[str]:
    """A comma-separated list of at least one name, each one of ``valid``."""
    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        raise UsageError(f"--{key} names no {key}: {text!r}")
    for name in names:
        if name not in valid:
            raise UsageError(f"unknown {key} {name!r}; valid: {', '.join(valid)}")
    return names


def _parse_psi0(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"--psi0 needs three comma-separated components: {text!r}")
    vec = np.array([parse_complex_literal(p) for p in parts])
    norm = np.linalg.norm(vec)
    if not 0 < norm < math.inf:
        raise UsageError(f"--psi0 must be nonzero and finite: {text!r}")
    return vec / norm


@dataclass
class RunConfig:
    scenario: str
    params: RamanParams | None = None
    methods: list[tuple[str, int]] = field(default_factory=list)
    psi0: np.ndarray = field(default_factory=lambda: np.array([1.0, 0, 0], complex))
    t_end: float | None = None
    points: int | None = None
    out: str | None = None
    figure_id: str | None = None
    sweep_axis: str | None = None
    sweep_from: float | None = None
    sweep_to: float | None = None
    observables: list[str] = field(default_factory=lambda: ["rabi", "amplitude"])
    omega_r_t_max: float = 7.0


# ----------------------------------------------------------------------
# argument and config-file parsing

_TRACE_KEYS = ("delta-avg", "delta", "omega0", "omega1", "t-end", "dt-end",
               "points", "psi0", "out", "method", "order")

#: Each scenario mapped to exactly the keys it reads.  Each key is at once
#: the flag ``--key``, the config-file key and the argparse dest.
SCENARIO_KEYS = {
    "evolve": _TRACE_KEYS,
    "compare": _TRACE_KEYS,
    "sweep": ("delta-avg", "delta", "omega0", "omega1", "points", "out",
              "axis", "from", "to", "observable"),
    "fidelity": ("delta-avg", "omega0", "omega1", "points", "out", "omega-r-t-max"),
    "figure": ("id", "points", "psi0", "out"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramanls",
        description="Simulate driven three-level Raman transitions and the "
                    "approximation ladder around them.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for scenario, keys in SCENARIO_KEYS.items():
        # No abbreviations: `fidelity --delta` must not mean --delta-avg.
        p = sub.add_parser(scenario, allow_abbrev=False)
        p.add_argument("--config", help="key = value file; flags take precedence")
        for key in keys:
            p.add_argument(f"--{key}", dest=key)
    return parser


def _attach_signed_values(argv) -> list[str]:
    """Write '--key -1e-3' as '--key=-1e-3'.  argparse takes a value that
    starts with '-' for an option unless it is a plain negative number;
    here '-' followed by a digit or '.' always starts a value."""
    flags = {f"--{k}" for keys in SCENARIO_KEYS.values() for k in (*keys, "config")}
    out: list[str] = []
    for arg in sys.argv[1:] if argv is None else argv:
        if out and out[-1] in flags and re.match(r"-[\d.]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def values_from_text(text: str, keys) -> dict[str, str]:
    """Parse 'key = value' lines into a dict; '#' starts a comment and
    every key must be one of ``keys``."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno} is not 'key = value': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise UsageError(f"unknown config key {key!r} on line {lineno}")
        out[key] = value
    return out


def parse_config(argv) -> RunConfig:
    """Parse argv (and the ``--config`` file it names) into a validated RunConfig."""
    flags = vars(_build_parser().parse_args(_attach_signed_values(argv)))
    rc = RunConfig(scenario=flags.pop("scenario"))
    keys = SCENARIO_KEYS[rc.scenario]
    cfg: dict[str, str] = {}
    config_file = flags.pop("config")
    if config_file:
        path = Path(config_file)
        if not path.is_file():
            raise UsageError(f"config file not found: {config_file}")
        cfg = values_from_text(path.read_text(), keys)
    take = {**cfg, **{k: v for k, v in flags.items() if v is not None}}.get

    rc.out = take("out")
    if take("psi0") is not None:
        rc.psi0 = _parse_psi0(take("psi0"))

    if rc.scenario != "figure":
        if take("delta-avg") is None:
            raise UsageError("missing required --delta-avg")
        omega0, omega1 = take("omega0"), take("omega1")
        if omega0 is None or omega1 is None:
            raise UsageError("missing required --omega0/--omega1")
        delta = take("delta")
        try:
            rc.params = RamanParams(
                delta_avg=_parse_float("--delta-avg", take("delta-avg")),
                delta_2ph=_parse_float("--delta", delta) if delta is not None else 0.0,
                omega0=parse_complex_literal(omega0),
                omega1=parse_complex_literal(omega1),
            )
        except ValueError as exc:
            raise UsageError(str(exc)) from None

    t_end, dt_end = take("t-end"), take("dt-end")
    if t_end is not None and dt_end is not None:
        raise UsageError("--t-end and --dt-end are mutually exclusive")
    if t_end is not None:
        rc.t_end = _parse_float("--t-end", t_end)
    elif dt_end is not None:
        rc.t_end = _parse_float("--dt-end", dt_end) / abs(rc.params.delta_avg)
    if rc.t_end is not None and not 0 < rc.t_end < math.inf:
        raise UsageError("--t-end must be positive and finite")

    if take("points") is not None:
        rc.points = _parse_count("--points", take("points"), 1)

    if rc.scenario in ("evolve", "compare"):
        method = take("method")
        if method is None:
            raise UsageError("missing required --method")
        order = 0 if take("order") is None else _parse_count("--order", take("order"), 0)
        names = _parse_names("method", method, METHODS)
        if rc.scenario == "evolve" and len(names) != 1:
            raise UsageError("evolve takes exactly one --method; use compare for lists")
        rc.methods = [(name, order) for name in names]
        if rc.t_end is None:
            raise UsageError("missing required --t-end or --dt-end")
    elif rc.scenario == "sweep":
        axis = take("axis")
        if axis not in SWEEP_AXES:
            raise UsageError(f"--axis must be one of {', '.join(SWEEP_AXES)}")
        rc.sweep_axis = axis
        if take("from") is None or take("to") is None:
            raise UsageError("sweep needs --from and --to")
        rc.sweep_from = _parse_float("--from", take("from"))
        rc.sweep_to = _parse_float("--to", take("to"))
        if rc.points is None or rc.points < 2:
            raise UsageError("sweep needs --points >= 2")
        if take("observable") is not None:
            rc.observables = _parse_names("observable", take("observable"), OBSERVABLES)
    elif rc.scenario == "fidelity":
        if take("omega-r-t-max") is not None:
            rc.omega_r_t_max = _parse_float("--omega-r-t-max", take("omega-r-t-max"))
            if not rc.omega_r_t_max > 0:
                raise UsageError("--omega-r-t-max must be positive")
    else:
        fid = take("id")
        if fid is None:
            raise UsageError("missing required --id")
        if fid not in PRESETS and fid not in PRESET_GROUPS:
            known = ", ".join(sorted(list(PRESETS) + list(PRESET_GROUPS)))
            raise UsageError(f"unknown figure id {fid!r}; valid: {known}")
        if take("psi0") is not None and "fidelity" in PRESETS.get(fid, {}):
            raise UsageError(f"figure {fid} is a fidelity study and reads no --psi0")
        rc.figure_id = fid
    return rc


# ----------------------------------------------------------------------
# figure presets (parameters straight from the reproduced plots)

_FIG4_PARAMS = RamanParams(delta_avg=400.0, delta_2ph=-16.0,
                           omega0=200.0 + 0j, omega1=120.0 + 0j)


def _fig3_preset(omega0: float, omega1: float) -> dict:
    params = RamanParams(delta_avg=400.0, delta_2ph=0.0,
                         omega0=complex(omega0), omega1=complex(omega1))
    t_end = 2.0 * math.pi / rabi_exact_delta0(params)
    return {"params": params, "t_end": t_end,
            "methods": [("exact-new", 0), ("ae", 0)]}


PRESETS: dict[str, dict] = {
    "2": {"fidelity": (400.0, 40.0, [1.0, 3.0, 5.0], 7.0)},
    "3a": _fig3_preset(40.0, 40.0),
    "3b": _fig3_preset(40.0, 25.0),
    "3c": _fig3_preset(100.0, 100.0),
    "4a": {"params": _FIG4_PARAMS, "t_end": 100.0 / 400.0,
           "methods": [("exact-new", 0), ("ls-R", 0), ("ls-R", 1), ("ls-R", 2)]},
    "4b": {"params": _FIG4_PARAMS, "t_end": 100.0 / 400.0,
           "methods": [("exact-new", 0), ("ls-L", 0), ("ls-L", 1), ("ls-L", 2)]},
    "5": {"params": _FIG4_PARAMS, "t_end": 100.0 / 400.0,
          "methods": [("exact-new", 0), ("ls-S", 0), ("ls-S", 1), ("ls-S", 2)]},
    "6": {"params": _FIG4_PARAMS, "t_end": 100.0 / 400.0,
          "methods": [("exact-new", 0), ("ls-S", 0), ("ae", 0), ("m0eff", 0)]},
}

PRESET_GROUPS = {"3": ["3a", "3b", "3c"], "4": ["4a", "4b"]}


# ----------------------------------------------------------------------
# output

def _write_csv(fh, header, columns) -> None:
    """Write equal-length columns to an open file: a list of str as is, a
    float array at 17 significant digits.  Cells are formatted row by row
    as they are written, never held as strings all at once."""
    cells = [col if isinstance(col, list) else map("{:.17g}".format, col.tolist())
             for col in columns]
    fh.write(",".join(header) + "\n")
    fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def _trace_columns(params: RamanParams, t_end: float, methods, psi0,
                   points: int | None):
    """The TRACE_HEADER columns of the methods' traces, one after another,
    on ``points`` intervals rounded up to even (the mandated grid if None).
    Only the integral hierarchy (ls-*) raises a coarser grid to it."""
    required = required_intervals(params, t_end)
    n = required if points is None else points + (points % 2)
    if n < required and any(m.startswith("ls-") for m, _ in methods):
        print(f"notice: --points {points} too coarse for the integral "
              f"hierarchy; raised to {required}", file=sys.stderr)
        n = required
    grid = TimeGrid(t_end=t_end, n=n)
    traces = [trace_populations(name, params, psi0, grid, order=order)
              for name, order in methods]
    times = np.concatenate([tr.times for tr in traces])
    return (times, times * params.delta_avg,
            *(np.concatenate([getattr(tr, f) for tr in traces])
              for f in ("p0", "p1", "pe", "norm")),
            [tr.label for tr in traces for _ in range(len(tr.times))])


def _fidelity_columns(delta_avg: float, omega1: float, ratios, omega_r_t_max: float,
                      points: int | None):
    """Exact-evolution fidelity between the two resonant-detuning choices,
    over omega_r_t_max Rabi phases, for each ratio |omega0|/|omega1|."""
    phase = np.linspace(0.0, omega_r_t_max, 701 if points is None else points)
    psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    overlaps = []
    for ratio in ratios:
        base = RamanParams(delta_avg, 0.0, complex(ratio * omega1), complex(omega1))
        pa = replace(base, delta_2ph=delta_resonant_ae(base))
        pb = replace(base, delta_2ph=delta_resonant_lightshift(base)[0])
        times = phase / rabi_ae(pa)
        sa = state_table(h_ae(pa), times, psi0)
        sb = state_table(h_ae(pb), times, psi0)
        overlaps.append(np.abs(np.einsum("ta,ta->t", sa.conj(), sb)))
    return (np.repeat(np.array(ratios, dtype=float), len(phase)),
            np.tile(phase, len(ratios)), np.concatenate(overlaps))


def _sweep_columns(config: RunConfig):
    values = np.linspace(config.sweep_from, config.sweep_to, config.points)
    field_name = _AXIS_FIELDS[config.sweep_axis]
    params = [replace(config.params, **{field_name: v}) for v in values.tolist()]
    return (values, *(np.array([OBSERVABLES[o](p) for p in params], dtype=float)
                      for o in config.observables))


def _tables(config: RunConfig):
    """Yield (path, header, columns) for every CSV the scenario writes."""
    if config.scenario == "figure":
        ids = PRESET_GROUPS.get(config.figure_id, [config.figure_id])
        base = Path(config.out or ".")
        for fid in ids:
            preset = PRESETS[fid]
            if len(ids) > 1 or base.suffix != ".csv":
                base.mkdir(parents=True, exist_ok=True)
                path = base / f"fig{fid}.csv"
            else:
                path = base
            if "fidelity" in preset:
                yield path, FIDELITY_HEADER, _fidelity_columns(*preset["fidelity"],
                                                               config.points)
            else:
                yield path, TRACE_HEADER, _trace_columns(
                    preset["params"], preset["t_end"], preset["methods"],
                    config.psi0, config.points)
    elif config.scenario == "sweep":
        yield (Path(config.out or "sweep.csv"), (config.sweep_axis, *config.observables),
               _sweep_columns(config))
    elif config.scenario == "fidelity":
        p = config.params
        if p.omega0 == 0 or p.omega1 == 0:
            raise ValueError("the fidelity study needs both drives on; "
                             "omega0 and omega1 must be nonzero")
        yield Path(config.out or "fidelity.csv"), FIDELITY_HEADER, _fidelity_columns(
            p.delta_avg, abs(p.omega1), [abs(p.omega0) / abs(p.omega1)],
            config.omega_r_t_max, config.points)
    else:
        yield Path(config.out or "trace.csv"), TRACE_HEADER, _trace_columns(
            config.params, config.t_end, config.methods, config.psi0, config.points)


def run(config: RunConfig) -> list[Path]:
    """Execute a RunConfig; returns the written paths.

    Any numerical rejection from the library surfaces as ValueError, and a
    path that cannot be written as UsageError, after the files this run
    opened for writing have been removed.
    """
    written: list[Path] = []
    try:
        for path, header, columns in _tables(config):
            with open(path, "w", newline="\n") as fh:
                written.append(path)
                _write_csv(fh, header, columns)
    except Exception as exc:
        for path in written:
            path.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise UsageError(f"cannot write {exc.filename or config.out}: "
                             f"{exc.strerror}") from None
        raise
    return written


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
        try:
            run(config)
        except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
            print(f"numerical failure in scenario {config.scenario}: {exc}",
                  file=sys.stderr)
            return EXIT_NUMERICAL
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        return int(exc.code or 0)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
