"""Output checks for the benchmark: every CSV an operation writes is read
back and compared against references within stated tolerances, never
against stored bytes, so a faithful rewrite that moves the last ulp passes.

Two kinds of reference are used:

* stored fingerprints -- (rows, sum, min, max) of every numeric column,
  per output file and per method label, recorded from the reference
  commit by ``make_refs.py``; compared to ``FINGERPRINT_RTOL`` relative;
* method references -- populations of the exact propagator, computed here
  independently of the package (eigendecomposition of the shifted-picture
  Hamiltonian), against which every trace method with a known error bound
  is compared; and the exact effective Rabi frequency, against which the
  adiabatic-elimination column of a sweep is compared.

Every check yields a deviation on its own scale (absolute for
populations, relative otherwise); the run reports the largest as
``max_err``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

FINGERPRINT_RTOL = 1e-9

TRACE_HEADER = "t,dt_times_Delta,p0,p1,pe,norm,method"

#: Largest allowed population deviation from the exact propagator, per
#: trace label.  The exact methods agree to rounding; the RK4 oracle to
#: its truncation error at dt * rho <= 0.05; the Born orders of the
#: integral hierarchy to their method error over the horizons used here
#: (about twice the measured maximum over the reference pools).
#: "ae" and "m0eff" are two-level reductions whose phase error grows
#: without bound over many Rabi cycles, so they are checked against the
#: stored fingerprints only.
METHOD_TOL = {
    "exact-new": 1e-9,
    "exact-ae": 1e-9,
    "delta0": 1e-9,
    "ode": 1e-6,
    "k0": 0.4,
    "k1": 0.08,
    "k2": 0.05,
}

#: Relative deviation allowed between the adiabatic-elimination and the
#: exact effective Rabi frequency over the sweep ranges used here.
AE_RABI_RTOL = 0.25


def method_tolerance(label: str) -> float | None:
    if label.startswith("ls-"):
        return METHOD_TOL[label.rsplit("-", 1)[1]]
    return METHOD_TOL.get(label)


def read_csv(path: Path) -> tuple[str, dict[str, np.ndarray]]:
    """Header line and the numeric columns grouped by method label.

    Trace files carry the label in their last column and list each
    method's rows contiguously; other files form one group labelled "".
    """
    text = path.read_text()
    if "\r" in text or not text.endswith("\n"):
        raise ValueError(f"{path.name}: not LF-terminated CSV")
    lines = text.split("\n")[:-1]
    header, body = lines[0], lines[1:]
    if not body:
        raise ValueError(f"{path.name}: no rows")
    if header != TRACE_HEADER:
        return header, {"": np.loadtxt(body, delimiter=",", ndmin=2)}
    data = np.loadtxt(body, delimiter=",", usecols=range(6), ndmin=2)
    labels = [line[line.rfind(",") + 1:] for line in body]
    groups: dict[str, np.ndarray] = {}
    start = 0
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] != labels[start]:
            if labels[start] in groups:
                raise ValueError(f"{path.name}: label {labels[start]} repeats")
            groups[labels[start]] = data[start:i]
            start = i
    return header, groups


def fingerprint(columns: np.ndarray) -> list[list[float]]:
    """(rows, sum, min, max) of every column."""
    return [[float(len(c)), float(c.sum()), float(c.min()), float(c.max())]
            for c in columns.T]


def fingerprint_deviation(got: list[list[float]], ref: list[list[float]]) -> float:
    """Largest relative deviation; each entry is scaled by the column's
    magnitude (times the row count for sums), so near-zero entries of an
    order-one column do not blow up."""
    if len(got) != len(ref):
        return float("inf")
    worst = 0.0
    for g, r in zip(got, ref):
        if g[0] != r[0]:
            return float("inf")
        scale = max(abs(r[2]), abs(r[3]), 1e-300)
        for j, floor in ((1, r[0] * scale), (2, scale), (3, scale)):
            worst = max(worst, abs(g[j] - r[j]) / max(abs(r[j]), floor))
    return worst


def exact_populations(params: list[float], times: np.ndarray) -> np.ndarray:
    """|<k| exp(-i H t) |0>|^2 for the shifted-picture Hamiltonian.

    ``params`` is [delta_avg, delta_2ph, Re o0, Im o0, Re o1, Im o1].
    """
    d, dd, o0r, o0i, o1r, o1i = params
    o0, o1 = complex(o0r, o0i), complex(o1r, o1i)
    h = 0.5 * np.array([[-d - dd, 0.0, o0],
                        [0.0, -d + dd, o1],
                        [o0.conjugate(), o1.conjugate(), d]], dtype=complex)
    lam, v = np.linalg.eigh(h)
    amps = (np.exp(-1j * np.outer(times, lam)) * v[0].conj()) @ v.T
    return np.abs(amps) ** 2


def exact_rabi(d, dd, o0, o1) -> np.ndarray:
    """mu_plus - mu_minus: square roots of the eigenvalues of the upper
    2x2 block of the split square, in closed form; vectorised."""
    a = 0.25 * ((d + dd) ** 2 + np.abs(o0) ** 2)
    b = 0.25 * ((d - dd) ** 2 + np.abs(o1) ** 2)
    radius = np.hypot(0.5 * (a - b), 0.25 * np.abs(o0) * np.abs(o1))
    return np.sqrt(0.5 * (a + b) + radius) - np.sqrt(np.maximum(0.5 * (a + b) - radius, 0.0))


def check_op(entry: dict, outdir: Path) -> tuple[list[str], float, int, int]:
    """Check every file an operation wrote against its pool entry.

    Returns (problems, largest deviation, data rows, bytes).
    """
    problems: list[str] = []
    worst = 0.0
    rows = nbytes = 0
    names = sorted(p.name for p in outdir.iterdir())
    if names != sorted(entry["files"]):
        return [f"wrote {names}, expected {sorted(entry['files'])}"], float("inf"), 0, 0
    for name, ref in entry["files"].items():
        path = outdir / name
        nbytes += path.stat().st_size
        try:
            header, groups = read_csv(path)
        except ValueError as exc:
            problems.append(str(exc))
            worst = float("inf")
            continue
        rows += sum(len(g) for g in groups.values())
        if header != ref["header"] or sorted(groups) != sorted(ref["groups"]):
            problems.append(f"{name}: header or labels differ")
            worst = float("inf")
            continue
        for label, cols in groups.items():
            dev = fingerprint_deviation(fingerprint(cols), ref["groups"][label])
            worst = max(worst, dev)
            if not dev <= FINGERPRINT_RTOL:
                problems.append(f"{name}[{label}]: fingerprint off by {dev:.3g}")
            tol = method_tolerance(label)
            if tol is not None:
                dev = float(np.abs(cols[:, 2:5]
                                   - exact_populations(ref["params"], cols[:, 0])).max())
                worst = max(worst, dev)
                if not dev <= tol:
                    problems.append(f"{name}[{label}]: {dev:.3g} from exact, bound {tol:g}")
        if ref.get("sweep"):
            exact_dev, ae_dev = sweep_deviation(header, groups[""], ref["sweep"])
            worst = max(worst, exact_dev, ae_dev)
            if not exact_dev <= FINGERPRINT_RTOL:
                problems.append(f"{name}: rabi off exact by {exact_dev:.3g}")
            if not ae_dev <= AE_RABI_RTOL:
                problems.append(f"{name}: rabi-ae off exact by {ae_dev:.3g}")
    return problems, worst, rows, nbytes


def sweep_deviation(header: str, table: np.ndarray, base: list[float]) -> tuple[float, float]:
    """Relative deviation of the rabi column and of the rabi-ae column
    from the exact effective Rabi frequency recomputed here at every
    swept point."""
    cols = header.split(",")
    d, dd, o0r, o0i, o1r, o1i = base
    p = {"delta-avg": d, "delta": dd,
         "omega0": complex(o0r, o0i), "omega1": complex(o1r, o1i)}
    p[cols[0]] = table[:, 0]
    exact = exact_rabi(p["delta-avg"], p["delta"], p["omega0"], p["omega1"])

    def dev(name):
        return float(np.abs(table[:, cols.index(name)] / exact - 1.0).max())
    return dev("rabi"), dev("rabi-ae")
