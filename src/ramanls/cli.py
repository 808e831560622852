"""Command-line front end: traces, method comparisons, sweeps, fidelity
studies and figure presets, all emitted as CSV.

``SCENARIO_KEYS`` lists exactly the keys each scenario reads: every key
is its flag ``--key`` and its config-file key alike, a flag winning over
a config line.  ``parse_config`` splits argv by that table alone: the
scenario first, then ``--key value`` or ``--key=value``, where the token
after a key flag is its value unless it is itself an option name (so
``--omega1 -i`` sets omega1); the last of a repeated key wins, and any
other token is a usage error.  It converts each key's text once, by its
rule in ``_PARSERS``, and ``_FIELDS`` stores the value in its RunConfig
field; the drive keys, dt-end, method and order are combined instead:

    delta-avg delta        finite float                params; delta 0 if absent
    omega0 omega1          complex literal 'a+bi'      params
    t-end / dt-end         finite float                t_end / dt-end/|delta-avg|
    from to omega-r-t-max  finite float                sweep_from sweep_to omega_r_t_max
    points / order         integer >= 1 / 0 to 64      points / methods
    psi0                   three complex components    psi0, normalised
    method / observable    names: METHODS/OBSERVABLES  methods / observables
    out axis id            text                        out sweep_axis figure_id

Every scenario writes through one path: ``_tables`` yields (path,
header, tables) for each CSV, a table being its row count, the function
of its float columns on any row slice, and a label; ``_write_csv``, the one
loop over rows, writes each ``FORMAT_ROWS`` rows to a binary file as the
ASCII bytes ``_format_rows`` builds in numpy, every cell ``b'%.17g' % cell``,
with no text codec.  A pointwise trace is held one chunk, an ls-* trace
one table; a run of one ls-* method at rising orders reads one Born
iteration, ``born_tables``.

Frequencies are entered in rad/us (displayed as MHz), times in us; the
``dt_times_Delta`` column carries the dimensionless time axis used by the
figure presets.  ``main`` alone prints help and decides every exit
code: 0 success, 2 usage error (an output path that cannot be written
included), 3 numerical failure (an array too large for memory, or
phases past 2**52 rad, included).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .analysis import (METHODS, delta_resonant_ae, delta_resonant_lightshift,
                       amplitude_p, born_rows, rabi_ae, rabi_exact_delta0,
                       rabi_general, trace_rows)
from .lippmann_schwinger import TimeGrid, born_order, born_tables, required_intervals
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
#: Rows per evaluation and ``_format_rows`` call in ``_write_csv``: 48 kB of
#: floats at six columns, and a formatter word array and its ``tobytes`` copy
#: of 256 B per trace row each, 262 kB; 4096-row calls measured slower.
FORMAT_ROWS = 1024
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
        raise UsageError(f"malformed number for --{key}: {text!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"--{key} must be finite: {text!r}")
    return value


def _parse_count(key: str, text: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"malformed number for --{key}: {text!r}") from None
    if value < minimum:
        raise UsageError(f"--{key} must be >= {minimum}: {text!r}")
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
    # Scaled to its largest real or imaginary part first, so that the norm
    # of a tiny or huge vector neither underflows nor overflows.
    scale = np.abs(np.concatenate([vec.real, vec.imag])).max()
    if not 0 < scale < math.inf:
        raise UsageError(f"--psi0 must be nonzero and finite: {text!r}")
    vec = vec / scale
    return vec / np.linalg.norm(vec)


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
#: the flag ``--key`` and the config-file key.
SCENARIO_KEYS = {
    "evolve": _TRACE_KEYS,
    "compare": _TRACE_KEYS,
    "sweep": ("delta-avg", "delta", "omega0", "omega1", "points", "out",
              "axis", "from", "to", "observable"),
    "fidelity": ("delta-avg", "omega0", "omega1", "points", "out", "omega-r-t-max"),
    "figure": ("id", "points", "psi0", "out"),
}


#: Each key's parse rule, called as ``rule(key, text)``.
_PARSERS = {
    **dict.fromkeys(("delta-avg", "delta", "t-end", "dt-end", "from", "to",
                     "omega-r-t-max"), _parse_float),
    "points": functools.partial(_parse_count, minimum=1),
    "order": functools.partial(_parse_count, minimum=0),
    **dict.fromkeys(("omega0", "omega1"), lambda _, text: parse_complex_literal(text)),
    "psi0": lambda _, text: _parse_psi0(text),
    "method": functools.partial(_parse_names, valid=METHODS),
    "observable": functools.partial(_parse_names, valid=OBSERVABLES),
    **dict.fromkeys(("out", "axis", "id"), lambda _, text: text),
}

#: The RunConfig field each key sets directly.
_FIELDS = {"t-end": "t_end", "points": "points", "psi0": "psi0", "out": "out",
           "axis": "sweep_axis", "from": "sweep_from", "to": "sweep_to",
           "observable": "observables", "omega-r-t-max": "omega_r_t_max",
           "id": "figure_id"}


#: Every option name of any scenario.  The token after a key flag is its
#: value unless it is one of these, so '--omega1 -i' sets omega1.
_OPTIONS = {f"--{key}" for keys in SCENARIO_KEYS.values() for key in keys} | {
    "--config", "-h", "--help"}


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
    """Parse argv (and the UTF-8 ``--config`` file it names) into a validated
    RunConfig; any fault in them raises UsageError."""
    args = list(argv)
    scenario = args[0] if args else None
    if scenario not in SCENARIO_KEYS:
        raise UsageError(("missing scenario" if scenario is None else
                          f"unknown scenario {scenario!r}")
                         + f"; valid: {', '.join(SCENARIO_KEYS)}")
    keys = SCENARIO_KEYS[scenario]
    flags = {f"--{key}" for key in (*keys, "config")}
    text: dict[str, str] = {}
    tokens = iter(args[1:])
    for token in tokens:
        flag, attached, value = token.partition("=")
        if flag not in flags:
            raise UsageError(f"unrecognized arguments: {token}")
        if not attached:
            value = next(tokens, None)
            if value is None or value.partition("=")[0] in _OPTIONS:
                raise UsageError(f"argument {flag}: expected one argument")
        text[flag[2:]] = value
    config_file = text.pop("config", None)
    if config_file is not None:
        path = Path(config_file)
        try:  # is_file itself raises on a name too long for the system
            if not path.is_file():
                raise UsageError(f"config file not found: {config_file}")
            text = {**values_from_text(path.read_text(encoding="utf-8"), keys), **text}
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read config file {config_file}: {exc}") from None
    values = {key: _PARSERS[key](key, text[key]) for key in keys if key in text}
    rc = RunConfig(scenario, **{f: values[k] for k, f in _FIELDS.items() if k in values})

    if scenario != "figure":
        if "delta-avg" not in values:
            raise UsageError("missing required --delta-avg")
        if "omega0" not in values or "omega1" not in values:
            raise UsageError("missing required --omega0/--omega1")
        try:
            rc.params = RamanParams(values["delta-avg"], values.get("delta", 0.0),
                                    values["omega0"], values["omega1"])
            born_order(values.get("order", 0))  # the cap of iterate, before any run
        except ValueError as exc:
            raise UsageError(str(exc)) from None

    if "t-end" in values and "dt-end" in values:
        raise UsageError("--t-end and --dt-end are mutually exclusive")
    if "dt-end" in values:
        rc.t_end = values["dt-end"] / abs(rc.params.delta_avg)
    if rc.t_end is not None and not 0 < rc.t_end < math.inf:
        raise UsageError("--t-end must be positive and finite")
    if not rc.omega_r_t_max > 0:
        raise UsageError("--omega-r-t-max must be positive")

    if scenario in ("evolve", "compare"):
        names = values.get("method")
        if names is None:
            raise UsageError("missing required --method")
        if scenario == "evolve" and len(names) != 1:
            raise UsageError("evolve takes exactly one --method; use compare for lists")
        rc.methods = [(name, values.get("order", 0)) for name in names]
        if rc.t_end is None:
            raise UsageError("missing required --t-end or --dt-end")
    elif scenario == "sweep":
        if rc.sweep_axis not in SWEEP_AXES:
            raise UsageError(f"--axis must be one of {', '.join(SWEEP_AXES)}")
        if rc.sweep_from is None or rc.sweep_to is None:
            raise UsageError("sweep needs --from and --to")
        if not math.isfinite(rc.sweep_to - rc.sweep_from):
            raise UsageError("--to - --from overflows double precision")
        if rc.points is None or rc.points < 2:
            raise UsageError("sweep needs --points >= 2")
    elif scenario == "figure":
        fid = rc.figure_id
        if fid is None:
            raise UsageError("missing required --id")
        if fid not in PRESETS and fid not in PRESET_GROUPS:
            known = ", ".join(sorted(list(PRESETS) + list(PRESET_GROUPS)))
            raise UsageError(f"unknown figure id {fid!r}; valid: {known}")
        if "psi0" in values and "fidelity" in PRESETS.get(fid, {}):
            raise UsageError(f"figure {fid} is a fidelity study and reads no --psi0")
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
    "2": {"fidelity": [RamanParams(400.0, 0.0, 40.0 * r + 0j, 40.0 + 0j)
                       for r in (1, 3, 5)]},
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
# output: '%.17g' cells, formatted a chunk at a time
#
# '%.17g' rounds |x| half to even to 17 significant digits D with decimal
# exponent X, and writes fixed notation for X in [-4, 16]: the sign, '0.'
# and -X-1 zeros when X < 0, the digits with the point after digit X, and
# no trailing fraction zeros.  Each such cell is laid out as 40 bytes: the
# sign, the five bytes of a '0.000' prefix, then each of the 17 digits
# followed by one slot that holds the point after digit X, the cell
# separator after the last digit and NUL elsewhere.  Those bytes are the
# AND of the digit words (4-digit groups from a table, 0xFF in every byte
# that is not a digit) and the template of the cell's class (X, sign,
# significant digits): 0xFF over every digit shown, NUL over stripped
# zeros, the literal bytes elsewhere.  Deleting every NUL of a chunk
# leaves its CSV bytes.  Exponent-notation cells, non-finite ones included,
# keep Python's own '%.17g'.  X is read exactly from ``_DECADES``, with no
# logarithm, so one Dekker two-product (Numer. Math. 18, 224 (1971)) on
# 10**k's halves from a table gives |x| * 10**(16 - X) in [1e16, 1e17).


def _split(a):
    """Veltkamp's split of binary64 ``a`` into two 26-bit halves summing to ``a``."""
    t = a * 134217729.0  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


#: 10**k for k = 0..20, each exact in binary64, and their Veltkamp halves.
_POW10 = np.array([float(10 ** k) for k in range(21)])
_POW10_HI, _POW10_LO = _split(_POW10)
#: The doubles nearest 10**j, j = -4..17: those below 1 round up, the rest
#: are exact, so a >= _DECADES[j] exactly when a >= 10**(j - 4) for every
#: double a.  NaN and inf sort past the end, zeros and subnormals before it.
_DECADES = np.array([float(f"1e{j}") for j in range(-4, 18)])


def _round17(x):
    """(D, X, fixed): for every cell '%.17g' writes in fixed notation,
    its 17 digits D in [1e16, 1e17) and their decimal exponent X, with
    D = X = 0 for a zero.  Cells not ``fixed`` read D = X = 0."""
    a = np.abs(x)
    X = np.searchsorted(_DECADES, a, side="right") - 5
    fixed = (X >= -4) & (X <= 16)
    a[~fixed] = X[~fixed] = 0
    k = 16 - X
    ah, al = _split(a)
    bh, bl = _POW10_HI.take(k), _POW10_LO.take(k)
    hi = a * _POW10.take(k)
    lo = al * bl - (((hi - ah * bh) - al * bh) - ah * bl)  # hi + lo = a * 10**k
    # hi >= 1e16 is an even integer, so hi plus lo rounded half to even is
    # hi + lo rounded half to even.  It never reaches 1e17: the largest
    # double below each 10**n, n = -3..17, lies at least 8.3 units of the
    # 17th digit below it.
    D = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    return D, X, fixed | (x == 0)


@functools.cache
def _cell_tables():
    """The tables of ``_format_rows``, built by numpy arithmetic on first
    use:

    * the word of every 4-digit group 0..9999: its digits in the even
      bytes, 0xFF in the slots between them;
    * the word of the leading digit 0..9: the digit in byte 6, 0xFF in
      every other byte;
    * by group position i and value, the significant digits of D when
      group i (digits 4i+1..4i+4) holds its last nonzero digit, 0 for 0;
    * the five template words of every class ((X + 4) * 2 + sign) * 18 +
      significant digits, one row per word.
    """
    digits = np.indices((10,) * 4).reshape(4, -1)  # most significant first
    spread = np.full((10_000, 8), 0xFF, np.uint8)
    spread[:, ::2] = digits.T + ord("0")
    lead = spread[:10].copy()
    lead[:, :6] = 0xFF
    position = np.arange(1, 5)[:, None]
    last = 4 * position - 3 + ((digits != 0) * position).max(0)
    last[:, 0] = 0

    # Class axes (X, sign, significant digits), then the 40 bytes of a cell.
    x = np.arange(-4, 17)[:, None, None, None]
    neg = np.arange(2)[:, None, None]
    sig = np.arange(18)[:, None]
    template = np.zeros((21, 2, 18, 40), np.uint8)
    template[..., :1] = neg * ord("-")
    template[..., 1:6] = np.where((np.arange(5) < 1 - x) & (x < 0),
                                  np.frombuffer(b"0.000", np.uint8), 0)
    template[..., 6::2] = np.where(np.arange(17) < np.maximum(sig, x + 1), 0xFF, 0)
    template[..., 7::2] = np.where((np.arange(17) == x) & (sig > x + 1) & (x >= 0),
                                   ord("."), 0)
    template[..., 39] = ord(",")
    return (spread.view(np.uint64).ravel(), lead.view(np.uint64).ravel(),
            last.astype(np.int8), template.reshape(-1, 40).view(np.uint64).T.copy())


def _format_rows(values: np.ndarray, tail: bytes) -> bytes:
    """The ASCII CSV bytes of the rows of a 2-D float array: every cell as
    ``b'%.17g' % cell``, comma-separated, each row ending in the bytes
    ``tail``, which hold no NUL."""
    group_words, lead_words, group_last, template_words = _cell_tables()
    n, c = values.shape
    x = np.asarray(values, np.float64).ravel()
    D, X, fixed = _round17(x)
    top = D // 10 ** 8
    lead = top // 10 ** 8
    high = top - lead * 10 ** 8
    low = D - top * 10 ** 8
    high_hi, low_hi = high // 10 ** 4, low // 10 ** 4
    groups = (high_hi, high - high_hi * 10 ** 4, low_hi, low - low_hi * 10 ** 4)
    sig = np.maximum.reduce([group_last[i].take(g) for i, g in enumerate(groups)])
    np.maximum(sig, 1, out=sig)
    cls = ((X + 4) * 2 + np.signbit(x)) * 18 + sig

    end_words = np.frombuffer(tail + bytes(-len(tail) % 8), np.uint64)
    words = np.empty((n, 5 * c + len(end_words)), np.uint64)
    words[:, 5 * c:] = end_words
    cells = words[:, :5 * c].reshape(n, c, 5)
    cells[..., 0] = (lead_words.take(lead) & template_words[0].take(cls)).reshape(n, c)
    for i, g in enumerate(groups, 1):
        cells[..., i] = (group_words.take(g) & template_words[i].take(cls)).reshape(n, c)
    text = words.view(np.uint8)[:, :40 * c].reshape(n, c, 40)
    text[:, -1, 39] = 0  # the tail follows the last cell
    rows, cols = np.divmod(np.flatnonzero(~fixed), c)
    if len(rows):
        # At most 24 bytes, as in '-1.2345678901234567e-308'.
        exponent = np.array([b"%.17g" % v for v in x[~fixed].tolist()], "S24")
        text[rows, cols, :39] = 0
        text[rows, cols, :24] = exponent[:, None].view(np.uint8)
    return words.tobytes().translate(None, b"\0")


def _write_csv(fh, header, tables) -> None:
    """Write the header, then every (rows, columns, label) table, to a
    binary file: ``columns(s)`` gives the float columns of the row slice
    ``s``, formatted ``FORMAT_ROWS`` rows at a time, each row ending in
    the label cell unless the label is None, then LF."""
    fh.write((",".join(header) + "\n").encode())
    for rows, columns, label in tables:
        # A table whose rows would not fit in memory as one float column
        # raises MemoryError before any row is evaluated: np.empty touches no page.
        np.empty(rows)
        tail = ("\n" if label is None else f",{label}\n").encode()
        for start in range(0, rows, FORMAT_ROWS):
            chunk = np.column_stack(columns(slice(start, start + FORMAT_ROWS)))
            fh.write(_format_rows(chunk, tail))


def _trace_blocks(config: RunConfig):
    """Yield one TRACE_HEADER table per method of ``config``, on ``points``
    intervals made even (the mandated grid if None, for ls-* at least that)."""
    params, t_end, points = config.params, config.t_end, config.points
    required = required_intervals(params, t_end)
    n = required if points is None else points + (points % 2)
    if n < required and any(m.startswith("ls-") for m, _ in config.methods):
        print(f"notice: --points {points} too coarse for the integral "
              f"hierarchy; raised to {required}", file=sys.stderr)
        n = required
    grid = TimeGrid(t_end=t_end, n=n)
    tables = None  # the Born iteration of the last ls-* method, at order k
    for name, order in config.methods:
        if name.startswith("ls-"):
            # One ls-* method at rising orders reads one iteration.
            if tables is None or name != last or order < k:
                tables, last, k = born_tables(name[3:], params, grid), name, -1
            for k in range(k + 1, order + 1):
                table = next(tables)
            label, populations = born_rows(name, order, table, config.psi0)
        else:
            tables = table = None  # dropped as the run moves on
            label, populations = trace_rows(name, params, config.psi0, grid, order=order)
        def columns(rows):
            t = grid.node_times(rows)
            return (t, t * params.delta_avg, *populations(rows))
        yield n + 1, columns, label
        del populations  # before the next trace is solved


def _fidelity_block(bases, omega_r_t_max: float, points: int | None):
    """Yield per RamanParams of ``bases``, labelled by its ratio
    |omega0|/|omega1|, the exact-evolution fidelity between its two
    resonant-detuning choices over omega_r_t_max Rabi phases."""
    phase = np.linspace(0.0, omega_r_t_max, 701 if points is None else points)
    psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    for base in bases:
        if base.omega0 == 0 or base.omega1 == 0:
            raise ValueError("the fidelity study needs both drives on; "
                             "omega0 and omega1 must be nonzero")
        pa = replace(base, delta_2ph=delta_resonant_ae(base))
        pb = replace(base, delta_2ph=delta_resonant_lightshift(base))
        rabi = float(rabi_ae(pa))
        if not (0 < rabi < math.inf and omega_r_t_max / rabi < math.inf):
            raise ValueError(f"the drives give the AE Rabi frequency {rabi:g}: "
                             f"no time scale for {omega_r_t_max:g} phases")
        ratio = abs(base.omega0) / abs(base.omega1)
        def columns(rows):
            times = phase[rows] / rabi
            sa, sb = (state_table(h_ae(p), times, psi0) for p in (pa, pb))
            overlap = np.abs(np.einsum("ta,ta->t", sa.conj(), sb))
            return np.full(len(times), ratio), phase[rows], overlap
        yield len(phase), columns, None


def _sweep_block(config: RunConfig):
    """Yield the sweep as one table: the axis values and one column per
    observable, each evaluated once per slice on that slice of the axis."""
    values = np.linspace(config.sweep_from, config.sweep_to, config.points)
    field_name = _AXIS_FIELDS[config.sweep_axis]
    def columns(rows):
        params = replace(config.params, **{field_name: values[rows]})
        return (values[rows], *(OBSERVABLES[o](params) for o in config.observables))
    yield len(values), columns, None


def _tables(config: RunConfig):
    """Yield (path, header, tables) for every CSV the scenario writes."""
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
                # figure reads no --omega-r-t-max: the default 7 phases of the plot.
                yield path, FIDELITY_HEADER, _fidelity_block(
                    preset["fidelity"], config.omega_r_t_max, config.points)
            else:
                yield path, TRACE_HEADER, _trace_blocks(replace(config, **preset))
    elif config.scenario == "sweep":
        yield (Path(config.out or "sweep.csv"), (config.sweep_axis, *config.observables),
               _sweep_block(config))
    elif config.scenario == "fidelity":
        yield Path(config.out or "fidelity.csv"), FIDELITY_HEADER, _fidelity_block(
            [config.params], config.omega_r_t_max, config.points)
    else:
        yield Path(config.out or "trace.csv"), TRACE_HEADER, _trace_blocks(config)


def run(config: RunConfig) -> None:
    """Write every CSV of a RunConfig, each to a file opened in binary.  On
    any failure (OSError for an unwritable path, ValueError or MemoryError
    from the library) the files it opened are removed and the error propagates."""
    written: list[Path] = []
    try:
        for path, header, tables in _tables(config):
            with open(path, "wb") as fh:
                written.append(path)
                _write_csv(fh, header, tables)
    except Exception:
        for path in written:
            path.unlink(missing_ok=True)
        raise


def main(argv=None) -> int:
    """Run the CLI on argv (``sys.argv[1:]`` if None) and return its exit
    code, printing help or the one line that says why the run failed.
    Every exit code is decided here and nowhere else."""
    args = sys.argv[1:] if argv is None else list(argv)
    if "-h" in args or "--help" in args:
        if args[0] in SCENARIO_KEYS:
            print(f"usage: ramanls {args[0]} --key value | --key=value ...; keys:",
                  *(f"--{key}" for key in SCENARIO_KEYS[args[0]]), "--config", sep="\n  ")
        else:
            print("usage: ramanls SCENARIO -h | SCENARIO --key value ...; scenarios:",
                  *SCENARIO_KEYS, sep="\n  ")
        return EXIT_OK
    try:
        config = parse_config(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        run(config)
    except OSError as exc:
        print(f"usage error: cannot write {exc.filename or config.out}: {exc.strerror}",
              file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ArithmeticError, MemoryError) as exc:
        print(f"numerical failure in scenario {config.scenario}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
