"""Write the reference pools ``refs/<workload>.json`` from the checkout.

Run once, at the commit whose outputs become the reference:

    python3 perfbench/make_refs.py

Each pool entry holds an operation's argv (without ``--out``), the slot it
fills, and for every file it writes the header, the (rows, sum, min,
max) fingerprint of each numeric column per method label, the parameters
for the independent exact reference, and ``err``, the largest deviation
the checks measure at this commit.  The pools are drawn from fixed seeds,
so rerunning this script on the same commit rewrites the same argv.
"""

from __future__ import annotations

import cmath
import json
import math
import random
import tempfile
from pathlib import Path

import checks
from run import git_sha, import_package, require_checkout
from workloads import REFS, WORKLOADS, out_path

require_checkout()
import_package()
from ramanls import RamanParams, cli, h_new, rabi_exact_delta0, required_intervals, spectral_m0sq  # noqa: E402
from ramanls.lippmann_schwinger import GRID_PHASE_LIMIT  # noqa: E402

LS_POINTS = 560          # every ls_born grid: about 1.5 figure-4 windows
SWEEP_POINTS = 801
FIDELITY_POINTS = 701
TRACE_POINTS = 20000     # exact-new evolve; the compare operations use half
ODE_POINTS = 5000
ODE_STEP = 0.05          # dt * rho bound of the inline RK4 (analysis.trace_populations)


def fmt(x: float) -> str:
    return f"{x:.17g}"


def fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def draw_omega(rng: random.Random, lo: float, hi: float) -> complex:
    return rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def sign(rng: random.Random) -> int:
    return rng.choice((-1, 1))


def opts(**values) -> list[str]:
    """``--key=value`` flags; the joined form keeps a value with a leading
    minus sign (a complex literal) from being read as a flag."""
    return [f"--{k.replace('_', '-')}={v}" for k, v in values.items()]


def param_args(p: RamanParams) -> list[str]:
    return opts(delta_avg=fmt(p.delta_avg), delta=fmt(p.delta_2ph),
                omega0=fmt_complex(p.omega0), omega1=fmt_complex(p.omega1))


def param_list(p: RamanParams) -> list[float]:
    return [p.delta_avg, p.delta_2ph, p.omega0.real, p.omega0.imag,
            p.omega1.real, p.omega1.imag]


def exact(p: RamanParams) -> RamanParams:
    """The parameters as the CLI parses them back from their argv text."""
    return RamanParams(float(fmt(p.delta_avg)), float(fmt(p.delta_2ph)),
                       complex(fmt_complex(p.omega0)), complex(fmt_complex(p.omega1)))


def ls_born_pool(rng: random.Random) -> tuple[list, dict]:
    """Strong drive, far detuning, around the figure-4 point."""
    templates = [(scen, methods, k) for k in (0, 1, 2)
                 for scen, methods in (("evolve", "ls-R"), ("evolve", "ls-L"),
                                       ("compare", "exact-new,ls-S"),
                                       ("compare", "exact-new,ls-M"))]
    pool = []
    for _ in range(20):
        p = exact(RamanParams(sign(rng) * rng.uniform(380, 480),
                              sign(rng) * rng.uniform(8, 18),
                              draw_omega(rng, 170, 220), draw_omega(rng, 100, 140)))
        t_end = float(fmt(0.98 * LS_POINTS * GRID_PHASE_LIMIT / spectral_m0sq(p).mu_max))
        assert required_intervals(p, t_end) <= LS_POINTS
        for scen, methods, k in templates:
            argv = [scen, *param_args(p), *opts(t_end=fmt(t_end), points=LS_POINTS,
                                                method=methods, order=k)]
            pool.append({"slot": f"{scen} {methods} k{k}", "argv": argv,
                         "params": param_list(p)})
    return pool, {f"{s} {m} k{k}": 1 for s, m, k in templates}


def scan_pool(rng: random.Random) -> tuple[list, dict]:
    pool = []
    for i in range(32):
        axis = cli.SWEEP_AXES[i % 4]
        d = sign(rng) * rng.uniform(400, 700)
        p = exact(RamanParams(d, rng.uniform(-30, 30),
                              draw_omega(rng, 100, 200), draw_omega(rng, 60, 160)))
        if axis == "delta":
            lo, hi = -rng.uniform(20, 60), rng.uniform(20, 60)
        elif axis == "delta-avg":
            lo, hi = (math.copysign(rng.uniform(a, b), d) for a, b in ((400, 500), (700, 1000)))
        else:
            lo, hi = rng.uniform(20, 60), rng.uniform(150, 220)
        argv = ["sweep", *param_args(p), *opts(axis=axis, points=SWEEP_POINTS,
                                               observable="rabi,rabi-ae,amplitude"),
                f"--from={fmt(lo)}", f"--to={fmt(hi)}"]
        pool.append({"slot": f"sweep {axis}", "argv": argv, "sweep": param_list(p)})
    for _ in range(16):
        omega1 = rng.uniform(30, 60)
        argv = ["fidelity", *opts(delta_avg=fmt(sign(rng) * rng.uniform(300, 600)),
                                  omega0=fmt(rng.uniform(1, 5) * omega1),
                                  omega1=fmt(omega1),
                                  omega_r_t_max=fmt(rng.uniform(5, 10)),
                                  points=FIDELITY_POINTS)]
        pool.append({"slot": "fidelity", "argv": argv})
    return pool, {f"sweep {a}": 2 for a in cli.SWEEP_AXES} | {"fidelity": 4}


def long_trace_pool(rng: random.Random) -> tuple[list, dict]:
    """Zero two-photon detuning, many Rabi cycles, large explicit grids.

    The RK4 horizon keeps one substep per grid interval, so each ode
    operation costs exactly ODE_POINTS steps.
    """
    pool = []
    for _ in range(16):
        p = exact(RamanParams(sign(rng) * rng.uniform(300, 500), 0.0,
                              draw_omega(rng, 80, 150), draw_omega(rng, 80, 150)))
        t_cycles = rng.uniform(10, 20) * 2 * math.pi / rabi_exact_delta0(p)
        rho = float(abs(h_new(p)).sum(axis=1).max())
        t_ode = 0.95 * ODE_POINTS * ODE_STEP / rho
        for scen, methods, points, t_end in (
                ("evolve", "exact-new", TRACE_POINTS, t_cycles),
                ("compare", "exact-ae,delta0", TRACE_POINTS // 2, t_cycles),
                ("compare", "ae,m0eff", TRACE_POINTS // 2, t_cycles),
                ("evolve", "ode", ODE_POINTS, t_ode)):
            argv = [scen, *param_args(p), *opts(t_end=fmt(t_end), points=points,
                                                method=methods)]
            pool.append({"slot": f"{scen} {methods}", "argv": argv,
                         "params": param_list(p)})
    slots = {e["slot"]: 1 for e in pool}
    return pool, slots


def paper_figures_pool(rng: random.Random) -> tuple[list, dict]:
    pool = []
    for fid in ("2", "3", "4", "5", "6"):
        params = {f"fig{sub}.csv": param_list(cli.PRESETS[sub]["params"])
                  for sub in cli.PRESET_GROUPS.get(fid, [fid])
                  if "params" in cli.PRESETS[sub]}
        pool.append({"slot": f"figure {fid}", "argv": ["figure", f"--id={fid}"],
                     "dir": True, "file_params": params})
    return pool, {}


def record(entry: dict, outdir: Path) -> dict:
    """Run one pool operation and store the references of its outputs."""
    for f in outdir.iterdir():
        f.unlink()
    rc = cli.main(entry["argv"] + [f"--out={out_path(entry, outdir)}"])
    if rc != 0:
        raise SystemExit(f"{entry['argv']} exited {rc}")
    files = {}
    for path in sorted(outdir.iterdir()):
        header, groups = checks.read_csv(path)
        files[path.name] = {
            "header": header,
            "params": entry.get("file_params", {}).get(path.name, entry.get("params")),
            "sweep": entry.get("sweep"),
            "groups": {label: checks.fingerprint(cols) for label, cols in groups.items()},
        }
    out = {k: v for k, v in entry.items() if k not in ("params", "sweep", "file_params")}
    out["files"] = files
    problems, err, _, _ = checks.check_op(out, outdir)
    if problems:
        raise SystemExit(f"{entry['argv']}: {problems}")
    out["err"] = err
    return out


def main() -> None:
    builders = {"ls_born": ls_born_pool, "paper_figures": paper_figures_pool,
                "scan": scan_pool, "long_trace": long_trace_pool}
    REFS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".work-", dir=Path(__file__).parent) as tmp:
        outdir = Path(tmp)
        for seed, name in enumerate(WORKLOADS):
            pool, slots = builders[name](random.Random(seed))
            pool = [record(e, outdir) for e in pool]
            head = json.dumps({"sha": git_sha(), "fixed": not slots, "slots": slots})
            entries = ",\n".join(json.dumps(e) for e in pool)   # one operation per line
            (REFS / f"{name}.json").write_text(f'{head[:-1]}, "pool": [\n{entries}\n]}}\n')
            worst = max(pool, key=lambda e: e["err"])
            print(f"{name}: {len(pool)} operations, anchor err {worst['err']:.3g} "
                  f"({worst['slot']})", flush=True)


if __name__ == "__main__":
    main()
