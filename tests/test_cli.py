import contextlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ramanls import cli, lippmann_schwinger
from ramanls.analysis import (METHODS, amplitude_p, delta_resonant_ae,
                              delta_resonant_lightshift, rabi_ae, rabi_general,
                              trace_populations, trace_rows)
from ramanls.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, UsageError,
                         parse_complex_literal, parse_config)
from ramanls.lippmann_schwinger import TimeGrid, required_intervals
from ramanls.model import RamanParams, h_ae
from ramanls.propagators import state_table

from propagator_oracle import fidelity_by_definition


FIDELITY = ["fidelity", "--delta-avg", "400", "--omega0", "120", "--omega1", "40"]
SWEEP = ["sweep", "--delta-avg", "400", "--omega0", "200", "--omega1", "120",
         "--axis", "delta", "--from", "-1", "--to", "1", "--points", "3"]


def config_file(tmp_path, text):
    """Write ``text`` to a config file under tmp_path; returns its path."""
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def read_lines(path):
    text = path.read_text()
    assert "\r" not in text
    return text.splitlines()


# ----------------------------------------------------------- parsing


def test_parse_complex_literals():
    assert parse_complex_literal("40") == 40.0
    assert parse_complex_literal("40+0i") == 40.0 + 0j
    assert parse_complex_literal("1.5-2i") == 1.5 - 2j
    assert parse_complex_literal("3j") == 3j
    with pytest.raises(UsageError, match="malformed complex"):
        parse_complex_literal("forty")


def test_parse_config_evolve_example():
    rc = parse_config(["evolve", "--delta-avg", "400", "--delta", "0",
                       "--omega0", "40", "--omega1", "40",
                       "--t-end", "1.6", "--method", "exact-new"])
    assert rc.scenario == "evolve"
    assert rc.params == RamanParams(400.0, 0.0, 40.0 + 0j, 40.0 + 0j)
    assert rc.t_end == 1.6
    assert rc.points is None  # grid density chosen automatically
    assert rc.methods == [("exact-new", 0)]


def test_parse_config_dt_end_conversion():
    rc = parse_config(["evolve", "--delta-avg", "400", "--omega0", "40",
                       "--omega1", "40", "--dt-end", "100",
                       "--method", "exact-new"])
    assert rc.t_end == pytest.approx(0.25)


def test_parse_config_psi0():
    evolve = ["evolve", "--delta-avg", "400", "--omega0", "40", "--omega1", "40",
              "--t-end", "1", "--method", "ae", "--psi0"]
    assert np.allclose(parse_config(evolve + ["0,1,0"]).psi0, [0, 1, 0])
    # Finite and nonzero, though the plain norm would underflow or overflow.
    for text in ("1e-200,1e-200,0", "1e200,1e200,0"):
        psi0 = parse_config(evolve + [text]).psi0
        assert np.allclose(np.abs(psi0), [0.5 ** 0.5, 0.5 ** 0.5, 0.0],
                           rtol=0, atol=1e-15)


def test_parsing_twice_gives_independent_configs():
    # The parser is built once per process; its results must not share state.
    first = parse_config(SWEEP)
    second = parse_config(SWEEP[:-1] + ["7", "--observable", "rabi-ae"])
    first.observables.append("rabi-ae")
    assert (second.points, second.observables) == (7, ["rabi-ae"])
    third = parse_config(SWEEP)
    assert (third.points, third.observables) == (3, ["rabi", "amplitude"])
    assert third.params == first.params and third is not first
    assert parse_config(FIDELITY).sweep_axis is None


def test_signed_values_parse_as_their_attached_form(capsys):
    # A value such as -1e-3 or -30+70i starts with '-' as an option does;
    # spaced and attached with '=', it must give the same config.
    evolve = ["evolve", "--delta-avg", "400", "--omega0", "1", "--omega1", "1",
              "--t-end", "1", "--method", "ae"]
    for base, key, value in ((evolve, "--delta", "-1e-3"),
                             (evolve, "--delta-avg", "-4e2"),
                             (evolve, "--omega1", "-30+70i"),
                             (evolve, "--psi0", "-1,0,0"),
                             (SWEEP, "--from", "-1e1")):
        spaced = parse_config(base + [key, value])
        attached = parse_config(base + [f"{key}={value}"])
        assert spaced.params == attached.params
        assert spaced.sweep_from == attached.sweep_from
        assert np.array_equal(spaced.psi0, attached.psi0)
    assert parse_config(evolve + ["--omega1", "-30+70i"]).params.omega1 == -30 + 70j
    assert cli.main(evolve + ["--delta", "--omega0", "1"]) == EXIT_USAGE
    assert "expected one argument" in capsys.readouterr().err


def test_a_value_that_is_no_number_parses_alike_in_every_spelling(tmp_path):
    # '-i' is no plain negative number, yet no option name either: spaced,
    # attached and on a config line it is omega1 = -i.
    base = ["evolve", "--delta-avg", "400", "--omega0", "1", "--t-end", "1",
            "--method", "ae"]
    cfg = config_file(tmp_path, "omega1 = -i\n")
    spellings = {"spaced": ["--omega1", "-i"], "attached": ["--omega1=-i"],
                 "config": ["--config", cfg]}
    for name, args in spellings.items():
        assert cli.main(base + args + ["--out", str(tmp_path / f"{name}.csv")]) == EXIT_OK
    assert parse_config(base + ["--omega1", "-i"]).params.omega1 == -1j
    texts = {(tmp_path / f"{name}.csv").read_bytes() for name in spellings}
    assert len(texts) == 1


def test_parse_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# preset parameters\n"
        "delta-avg = 400\n"
        "omega0 = 10\n"
        "omega1 = 25\n"
        "t-end = 2.0\n"
    )
    rc = parse_config(["evolve", "--config", str(cfg), "--omega0", "40",
                       "--method", "exact-new"])
    assert rc.params.omega0 == 40.0 + 0j  # flag wins
    assert rc.params.omega1 == 25.0 + 0j  # config fills the rest
    assert rc.t_end == 2.0


def test_parse_config_from_text(tmp_path):
    rc = parse_config(
        ["evolve", "--method", "exact-new", "--config", config_file(
            tmp_path, "delta-avg = 400\ndelta = 0  # resonant\n"
                      "omega0 = 40+0i\nomega1 = 40\nt-end = 0.5\n"
                      "out = runs/a=b.csv\n")],
    )
    assert rc.params == RamanParams(400.0, 0.0, 40.0 + 0j, 40.0 + 0j)
    assert rc.t_end == 0.5
    assert rc.out == "runs/a=b.csv"  # split at the first '=' only


def test_config_text_rejections(tmp_path):
    evolve = ["evolve", "--method", "ae", "--config"]
    with pytest.raises(UsageError, match="unknown config key"):
        parse_config(evolve + [config_file(tmp_path, "bogus = 1\n")])
    with pytest.raises(UsageError, match="key = value"):
        parse_config(evolve + [config_file(tmp_path, "just words\n")])
    with pytest.raises(UsageError, match="not found"):
        parse_config(["evolve", "--method", "ae", "--config", "/no/such/file"])
    with pytest.raises(UsageError, match="unknown config key 'id'"):
        parse_config(evolve + [config_file(tmp_path, "id = 4\n")])


TRACE_KEYS = {"delta-avg", "delta", "omega0", "omega1", "t-end", "dt-end",
              "points", "psi0", "out", "method", "order"}
#: Exactly the keys each scenario reads.
SCENARIO_KEYS = {
    "evolve": TRACE_KEYS,
    "compare": TRACE_KEYS,
    "sweep": {"delta-avg", "delta", "omega0", "omega1", "points", "out",
              "axis", "from", "to", "observable"},
    "fidelity": {"delta-avg", "omega0", "omega1", "points", "out", "omega-r-t-max"},
    "figure": {"id", "points", "psi0", "out"},
}


#: Every option name: the token after a key flag is its value unless it
#: is one of these.
OPTIONS = {f"--{key}" for keys in SCENARIO_KEYS.values() for key in keys} | {
    "--config", "-h", "--help"}


def flag_is_recognized(scenario, key):
    """Whether ``parse_config`` takes ``--key`` as a flag of ``scenario``."""
    try:
        parse_config([scenario, f"--{key}", "1"])
    except UsageError as exc:
        return "unrecognized arguments" not in str(exc)
    return True


def test_every_flag_is_a_config_key(tmp_path):
    assert list(cli.SCENARIO_KEYS) == ["evolve", "compare", "sweep", "fidelity", "figure"]
    with pytest.raises(UsageError, match="unknown scenario 'trace'"):
        parse_config(["trace"])
    every = set().union(*SCENARIO_KEYS.values()) | {"config", "no-such-key"}
    for scenario in cli.SCENARIO_KEYS:
        assert len(set(cli.SCENARIO_KEYS[scenario])) == len(cli.SCENARIO_KEYS[scenario])
        keys = {key for key in every if flag_is_recognized(scenario, key)}
        assert keys == SCENARIO_KEYS[scenario] | {"config"}, scenario
        for key in keys:
            try:
                parse_config([scenario, "--config",
                              config_file(tmp_path, f"{key} = 1\n")])
            except UsageError as exc:
                assert ("unknown config key" in str(exc)) == (key == "config"), (scenario, key)
            else:
                assert key != "config"


#: A valid value for every key of each scenario, leading minus signs
#: included.
TRACE_VALUES = {"delta-avg": "400", "delta": "-16", "omega0": "200",
                 "omega1": "-30+70i", "t-end": "0.25", "dt-end": "100",
                 "points": "1000", "psi0": "-0.6,0.8i,0", "out": "trace.csv",
                 "order": "2"}
KEY_VALUES = {
    "evolve": {**TRACE_VALUES, "method": "ls-S"},
    "compare": {**TRACE_VALUES, "method": "ae,ode,ls-M"},
    "sweep": {"delta-avg": "400", "delta": "-16", "omega0": "120+160i",
              "omega1": "-30+70i", "points": "11", "out": "sweep.csv",
              "axis": "omega0", "from": "-300", "to": "300",
              "observable": "rabi-ae,amplitude"},
    "fidelity": {"delta-avg": "-300", "omega0": "120+160i", "omega1": "-30+70i",
                 "points": "51", "out": "fidelity.csv", "omega-r-t-max": "3.5"},
    "figure": {"id": "3a", "points": "200", "psi0": "-0.6,0.8i,0", "out": "figs"},
}


def test_each_key_parses_alike_from_a_flag_and_a_config_line(tmp_path):
    for scenario, values in KEY_VALUES.items():
        assert set(values) == SCENARIO_KEYS[scenario], scenario
        for key, value in values.items():
            # t-end and dt-end exclude each other.
            unused = {key, "t-end" if key == "dt-end" else "dt-end"}
            base = [scenario] + [f"--{k}={v}" for k, v in values.items()
                                 if k not in unused]
            flag = asdict(parse_config(base + [f"--{key}", value]))
            line = asdict(parse_config(
                base + ["--config", config_file(tmp_path, f"{key} = {value}\n")]))
            assert np.array_equal(flag.pop("psi0"), line.pop("psi0")), (scenario, key)
            assert flag == line, (scenario, key)


def outcome(argv):
    """The RunConfig ``parse_config`` makes of argv, as a dict with psi0 as
    bytes, or the text of its usage error."""
    try:
        config = asdict(parse_config(argv))
    except UsageError as exc:
        return str(exc)
    config["psi0"] = config["psi0"].tobytes()
    return config


KNOWN_VALUES = sorted({v for values in KEY_VALUES.values() for v in values.values()})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([(s, k) for s, values in KEY_VALUES.items() for k in values]),
       st.one_of(st.tuples(st.sampled_from(["", "-", "--"]),
                           st.sampled_from(KNOWN_VALUES)).map("".join),
                 st.text(st.characters(codec="utf-8"), max_size=12)))
def test_spaced_attached_and_config_line_give_one_config(tmp_path_factory, case, value):
    # Any value text a config line can hold that is no option name, a
    # leading '-' included, reads alike in all three spellings.
    assume(value == value.strip() and "#" not in value
           and value.splitlines() in ([], [value]) and value.partition("=")[0] not in OPTIONS)
    scenario, key = case
    unused = {key, "t-end" if key == "dt-end" else "dt-end"}
    base = [scenario] + [f"--{k}={v}" for k, v in KEY_VALUES[scenario].items()
                         if k not in unused]
    cfg = tmp_path_factory.getbasetemp() / "run.cfg"
    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    spaced = outcome(base + [f"--{key}", value])
    assert outcome(base + [f"--{key}={value}"]) == spaced
    assert outcome(base + ["--config", str(cfg)]) == spaced


def test_a_repeated_flag_takes_its_last_value():
    rc = parse_config(["evolve", "--delta-avg", "400", "--omega0", "1", "--omega1", "1",
                       "--t-end", "1", "--method", "ae", "--delta", "1", "--delta=2",
                       "--omega0", "3", "--method=ode", "--t-end", "0.5"])
    assert rc.params == RamanParams(400.0, 2.0, 3.0, 1.0)
    assert (rc.methods, rc.t_end) == ([("ode", 0)], 0.5)


EVOLVE = ["evolve", "--delta-avg", "400", "--omega0", "1", "--omega1", "1",
          "--t-end", "1", "--method", "ae"]


@pytest.mark.parametrize("argv, fragment", [
    (EVOLVE + ["--no-such-flag", "1"], "unrecognized arguments: --no-such-flag"),
    (EVOLVE + ["--t", "1"], "unrecognized arguments: --t"),
    (["figure", "--id", "3a", "--omega-r-t-max", "3"],
     "unrecognized arguments: --omega-r-t-max"),
    (EVOLVE + ["stray"], "unrecognized arguments: stray"),
    (EVOLVE + ["--delta"], "argument --delta: expected one argument"),
    (EVOLVE + ["--delta", "--omega0", "1"], "argument --delta: expected one argument"),
    ([], "missing scenario; valid: evolve, compare, sweep, fidelity, figure"),
    (["--delta-avg", "400"], "unknown scenario '--delta-avg'"),
], ids=["unknown", "abbreviated", "other-scenario", "positional", "missing-last",
        "missing-before-flag", "no-scenario", "flag-first"])
def test_usage_faults_exit_2_with_one_line(capsys, argv, fragment):
    assert cli.main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1, err
    assert fragment in err


def listed(text):
    """The indented entries of a help text, one a line."""
    return [line.strip() for line in text.splitlines() if line.startswith("  ")]


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_the_scenarios_and_the_keys_of_each(capsys, flag):
    assert cli.main([flag]) == EXIT_OK
    out, err = capsys.readouterr()
    assert listed(out) == list(SCENARIO_KEYS) and err == ""
    for scenario, keys in SCENARIO_KEYS.items():
        for argv in ([scenario, flag], [scenario, "--points", "3", flag]):
            assert cli.main(argv) == EXIT_OK
            out, err = capsys.readouterr()
            names = listed(out)
            assert len(names) == len(set(names)) and err == ""
            assert set(names) == {f"--{key}" for key in keys | {"config"}}, scenario


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_is_mains_and_parse_config_rejects_its_flag(capsys, flag):
    with pytest.raises(UsageError, match=f"unknown scenario '{flag}'"):
        parse_config([flag])
    with pytest.raises(UsageError, match=f"unrecognized arguments: {flag}"):
        parse_config(["figure", flag])
    assert capsys.readouterr().out == ""


def python_m_ramanls(*args, flags=()):
    """``python *flags -m ramanls`` in a subprocess, the package found on PYTHONPATH."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    return subprocess.run([sys.executable, *flags, "-m", "ramanls", *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_module_entry_exits_with_the_code_main_returns():
    done = python_m_ramanls("--help")
    assert done.returncode == EXIT_OK and done.stderr == ""
    assert listed(done.stdout) == list(SCENARIO_KEYS)
    done = python_m_ramanls()
    assert done.returncode == EXIT_USAGE and done.stdout == ""
    assert done.stderr.startswith("usage error: ") and done.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["evolve", "--delta-avg", "400", "--omega0", "200", "--omega1", "120",
     "--t-end", "0.05", "--points", "40", "--method", "exact-new"],
    ["figure", "--id", "2"],
    ["evolve", "--config", "run.cfg"],
], ids=["evolve", "figure", "config"])
def test_runs_open_no_file_in_the_locale_encoding(tmp_path, argv):
    # PEP 597: with EncodingWarning an error, a file opened as text with no
    # encoding ends the run in a traceback.  The config file is UTF-8.
    config = tmp_path / "run.cfg"
    config.write_text("# drives in rad/\u00b5s\ndelta-avg = 400\nomega0 = 200\n"
                      "omega1 = 120\nt-end = 0.05\nmethod = ode\n", encoding="utf-8")
    argv = [str(config) if a == "run.cfg" else a for a in argv]
    done = python_m_ramanls(*argv, f"--out={tmp_path / 'sub.csv'}",
                            flags=("-X", "warn_default_encoding", "-W", "error"))
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    assert cli.main(argv + [f"--out={tmp_path / 'main.csv'}"]) == EXIT_OK
    assert (tmp_path / "sub.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()


def test_keys_a_scenario_does_not_read_are_rejected(tmp_path):
    base = {"figure": ["figure", "--id", "3a"], "fidelity": FIDELITY, "sweep": SWEEP}
    unread = {
        "figure": ("delta-avg", "delta", "omega0", "omega1", "t-end", "dt-end"),
        "fidelity": ("delta", "t-end", "dt-end", "psi0"),
        "sweep": ("t-end", "dt-end", "psi0"),
    }
    assert sum(map(len, unread.values())) == 13
    for scenario, keys in unread.items():
        for key in keys:
            value = "0,1,0" if key == "psi0" else "1"
            out = tmp_path / f"{scenario}-{key}"
            argv = base[scenario] + [f"--out={out}"]
            assert cli.main(argv + [f"--{key}", value]) == EXIT_USAGE, (scenario, key)
            assert not out.exists()
            with pytest.raises(UsageError, match=f"unknown config key '{key}'"):
                parse_config(argv + ["--config",
                                     config_file(tmp_path, f"{key} = {value}\n")])


def test_parse_config_rejections():
    with pytest.raises(UsageError, match="unknown method"):
        parse_config(["evolve", "--delta-avg", "400", "--omega0", "1",
                      "--omega1", "1", "--t-end", "1", "--method", "magic"])
    with pytest.raises(UsageError, match="malformed number"):
        parse_config(["evolve", "--delta-avg", "4oo", "--omega0", "1",
                      "--omega1", "1", "--t-end", "1", "--method", "ae"])
    with pytest.raises(UsageError, match="--delta-avg"):
        parse_config(["evolve", "--omega0", "1", "--omega1", "1",
                      "--t-end", "1", "--method", "ae"])
    with pytest.raises(UsageError, match="figure id"):
        parse_config(["figure", "--id", "9"])
    with pytest.raises(UsageError, match="mutually exclusive"):
        parse_config(["evolve", "--delta-avg", "400", "--omega0", "1",
                      "--omega1", "1", "--t-end", "1", "--dt-end", "10",
                      "--method", "ae"])
    evolve = ["evolve", "--delta-avg", "400", "--omega0", "1", "--omega1", "1",
              "--method", "ae"]
    for argv, match in (
            (FIDELITY + ["--omega-r-t-max", "nan"], "--omega-r-t-max must be finite"),
            (FIDELITY + ["--omega-r-t-max", "inf"], "--omega-r-t-max must be finite"),
            (FIDELITY + ["--omega-r-t-max=-3"], "--omega-r-t-max must be positive"),
            (FIDELITY + ["--omega-r-t-max", "0"], "--omega-r-t-max must be positive"),
            (evolve + ["--t-end", "inf"], "--t-end must be finite"),
            (["evolve", "--delta-avg", "1e-10", "--omega0", "1", "--omega1", "1",
              "--method", "ae", "--dt-end", "1e308"], "--t-end must be positive and finite"),
            (evolve + ["--t-end", "1", "--delta=-inf"], "--delta must be finite"),
            (evolve + ["--t-end", "1", "--points", "0"], "--points must be >= 1"),
            (evolve + ["--t-end", "1", "--points", "-2"], "--points must be >= 1"),
            (FIDELITY + ["--points", "0"], "--points must be >= 1"),
            (FIDELITY + ["--points", "-3"], "--points must be >= 1"),
            (evolve + ["--t-end", "1", "--order", "-1"], "--order must be >= 0"),
            (evolve + ["--t-end", "1", "--order", "two"], "malformed number for --order"),
            (evolve[:-2] + ["--t-end", "1"], "missing required --method"),
            (evolve + ["--t-end", "1", "--method", "ae,m0eff"], "exactly one --method"),
            (evolve, "missing required --t-end or --dt-end"),
            (SWEEP + ["--axis", "time"], "--axis must be one of"),
            (SWEEP[:9] + ["--points", "3"], "sweep needs --from and --to"),
            (SWEEP + ["--points", "1"], "sweep needs --points >= 2"),
            (evolve + ["--t-end", "1", "--psi0", "nan,0,0"], "--psi0"),
            (evolve + ["--t-end", "1", "--psi0", "1,1e400,0"], "--psi0"),
            (evolve + ["--t-end", "1", "--psi0", "1,inf,0"], "--psi0 must be nonzero and finite"),
            (FIDELITY + ["--omega0", "inf"], "must be finite"),
            (FIDELITY + ["--omega1=-Infinity"], "must be finite"),
            (FIDELITY + ["--omega0", "1e400"], "must be finite"),
            (["compare", "--delta-avg", "400", "--omega0", "1", "--omega1", "1",
              "--t-end", "1", "--method", ","], "--method"),
            (SWEEP + ["--observable", ","], "--observable"),
            (["figure", "--id", "2", "--psi0", "0,1,0"], "reads no --psi0")):
        with pytest.raises(UsageError, match=match):
            parse_config(argv)


def test_main_exit_codes_for_usage(capsys, tmp_path):
    assert cli.main(["evolve", "--no-such-flag"]) == EXIT_USAGE
    assert cli.main(["evolve", "--delta-avg", "400", "--omega0", "1",
                     "--omega1", "1", "--t-end", "1",
                     "--method", "magic"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "magic" in err
    # Output paths that cannot be written; what was there stays untouched.
    directory = tmp_path / "existing-dir"
    directory.mkdir()
    (directory / "keep.txt").write_text("keep\n")
    existing = tmp_path / "existing-file"
    existing.write_text("keep\n")
    evolve = ["evolve", "--delta-avg", "400", "--omega0", "1", "--omega1", "1",
              "--t-end", "0.01", "--method", "exact-new", "--out"]
    for argv in (evolve + [str(tmp_path / "missing" / "x.csv")],
                 evolve + [str(directory)],
                 ["figure", "--id", "4", "--out", str(existing)]):
        assert cli.main(argv) == EXIT_USAGE, argv
        err = capsys.readouterr().err
        assert err.startswith("usage error: cannot write ") and err.count("\n") == 1, err
    assert sorted(p.name for p in directory.iterdir()) == ["keep.txt"]
    assert (directory / "keep.txt").read_text() == "keep\n"
    assert existing.read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing-dir", "existing-file"]


# ----------------------------------------------------------- running


def test_evolve_writes_trace_csv(tmp_path):
    out = tmp_path / "trace.csv"
    code = cli.main(["evolve", "--delta-avg", "400", "--delta", "0",
                     "--omega0", "40+0i", "--omega1", "40", "--t-end", "0.1",
                     "--points", "100", "--method", "exact-new",
                     "--out", str(out)])
    assert code == EXIT_OK
    lines = read_lines(out)
    assert lines[0] == "t,dt_times_Delta,p0,p1,pe,norm,method"
    assert len(lines) == 102
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[2]) == pytest.approx(1.0, abs=1e-12)
    assert first[6] == "exact-new"
    last = lines[-1].split(",")
    assert float(last[1]) == pytest.approx(40.0)  # Delta * t at the end


def test_evolve_deterministic_bytes(tmp_path):
    args = ["evolve", "--delta-avg", "400", "--delta", "-16", "--omega0",
            "200", "--omega1", "120", "--dt-end", "45", "--method", "ls-S",
            "--order", "1"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(out1)]) == EXIT_OK
    assert cli.main(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    assert "ls-S-k1" in out1.read_text()


def test_compare_writes_row_by_row_rendering(tmp_path):
    out = tmp_path / "cmp.csv"
    assert cli.main(["compare", "--delta-avg", "400", "--delta", "-16",
                     "--omega0", "200", "--omega1", "120", "--t-end", "0.05",
                     "--method", "exact-new,ls-S", "--order", "1",
                     "--out", str(out)]) == EXIT_OK
    params = RamanParams(400.0, -16.0, 200.0, 120.0)
    grid = TimeGrid(t_end=0.05, n=required_intervals(params, 0.05))
    psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    lines = ["t,dt_times_Delta,p0,p1,pe,norm,method"]
    for method in ("exact-new", "ls-S"):
        tr = trace_populations(method, params, psi0, grid, order=1)
        for i, t in enumerate(tr.times):
            cells = (t, t * 400.0, tr.p0[i], tr.p1[i], tr.pe[i], tr.norm[i])
            lines.append(",".join([*(f"{x:.17g}" for x in cells), tr.label]))
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_compare_stacks_methods(tmp_path):
    out = tmp_path / "cmp.csv"
    every = ["exact-ae", "exact-new", "ode", "ae", "delta0", "m0eff",
             "ls-R", "ls-L", "ls-S", "ls-M"]
    assert list(METHODS) == every
    for methods in (["exact-new", "ae", "delta0", "ode"], every):
        code = cli.main(["compare", "--delta-avg", "400", "--delta", "0",
                         "--omega0", "100", "--omega1", "100", "--t-end", "0.05",
                         "--points", "60", "--method", ",".join(methods),
                         "--out", str(out)])
        assert code == EXIT_OK
        labels = {line.rsplit(",", 1)[1] for line in read_lines(out)[1:]}
        assert labels == {m + "-k0" if m.startswith("ls-") else m for m in methods}


def test_points_autocorrected_for_ls(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = cli.main(["evolve", "--delta-avg", "400", "--delta", "-16",
                     "--omega0", "200", "--omega1", "120", "--dt-end", "45",
                     "--points", "10", "--method", "ls-R", "--out", str(out)])
    assert code == EXIT_OK
    err = capsys.readouterr().err
    assert "raised to" in err
    params = RamanParams(400.0, -16.0, 200.0, 120.0)
    needed = required_intervals(params, 45.0 / 400.0)
    assert len(read_lines(out)) == needed + 2


def test_figure_points_raised_only_for_ls_presets(tmp_path, capsys):
    # Presets 3a-3c run exact-new and ae only: --points is taken as given.
    assert cli.main(["figure", "--id", "3", "--points", "10",
                     "--out", str(tmp_path)]) == EXIT_OK
    assert "raised to" not in capsys.readouterr().err
    for fid in ("3a", "3b", "3c"):
        assert len(read_lines(tmp_path / f"fig{fid}.csv")) == 1 + 2 * 11
    assert cli.main(["figure", "--id", "4a", "--points", "10",
                     "--out", str(tmp_path)]) == EXIT_OK
    assert "raised to" in capsys.readouterr().err
    needed = required_intervals(cli.PRESETS["4a"]["params"], cli.PRESETS["4a"]["t_end"])
    assert len(read_lines(tmp_path / "fig4a.csv")) == 1 + 4 * (needed + 1)


def test_sweep_rows_match_library(tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--delta-avg", "400", "--omega0", "200",
                     "--omega1", "120", "--axis", "delta", "--from", "-40",
                     "--to", "40", "--points", "81",
                     "--observable", "rabi,amplitude", "--out", str(out)])
    assert code == EXIT_OK
    lines = read_lines(out)
    assert lines[0] == "delta,rabi,amplitude"
    assert len(lines) == 82
    for idx in (0, 40, 80):
        delta, rabi, amp = (float(x) for x in lines[1 + idx].split(","))
        p = RamanParams(400.0, delta, 200.0, 120.0)
        assert rabi == pytest.approx(rabi_general(p), rel=1e-14)
        assert amp == pytest.approx(amplitude_p(p), rel=1e-14)
    row40 = lines[41].split(",")
    assert float(row40[0]) == 0.0


def per_row_csv(header, blocks):
    """The CSV text of (columns, label) ``blocks`` formatted one row at a time."""
    lines = [",".join(header)]
    for columns, label in blocks:
        for values in zip(*columns):
            cells = ["%.17g" % x for x in values]
            lines.append(",".join(cells + ([] if label is None else [label])))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("rows", [cli.FORMAT_ROWS - 1, cli.FORMAT_ROWS, cli.FORMAT_ROWS + 1])
def test_write_csv_chunks_give_per_row_bytes(rows):
    rng = np.random.default_rng(rows)
    cols = (rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, size=rows),
            np.linspace(0.0, 1.0, rows), np.full(rows, -0.0), rng.uniform(size=rows))
    blocks = [(cols, "ls-S-k1"), (cols[:2], None), ((cols[0][:1],), "x")]
    # Each table hands out the slices the writer asks for, and nothing else.
    tables = [(len(columns[0]), lambda s, columns=columns: [c[s] for c in columns], label)
              for columns, label in blocks]
    fh = io.BytesIO()
    cli._write_csv(fh, ("a", "b", "c", "d"), iter(tables))
    assert fh.getvalue().decode() == per_row_csv(("a", "b", "c", "d"), blocks)


def test_sweep_over_several_chunks_matches_observables(tmp_path):
    out = tmp_path / "sweep.csv"
    points = 2 * cli.FORMAT_ROWS + 3
    assert cli.main(["sweep", "--delta-avg", "400", "--omega0", "200",
                     "--omega1", "120", "--axis", "omega1", "--from", "-40",
                     "--to", "130", "--points", str(points),
                     "--observable", "amplitude,rabi-ae", "--out", str(out)]) == EXIT_OK
    values = np.linspace(-40.0, 130.0, points)
    rows = []
    for v in values.tolist():
        p = RamanParams(400.0, 0.0, 200.0, v)
        rows.append((v, cli.OBSERVABLES["amplitude"](p), cli.OBSERVABLES["rabi-ae"](p)))
    assert out.read_text() == per_row_csv(("omega1", "amplitude", "rabi-ae"),
                                          [(list(zip(*rows)), None)])


@pytest.mark.parametrize("axis, lo, hi", [("delta", -40.0, 30.0),
                                           ("delta-avg", -400.0, 500.0),
                                           ("omega0", -250.0, 130.0),
                                           ("omega1", -40.0, 300.0)])
def test_sweep_chunks_match_scalar_calls_on_every_axis(tmp_path, axis, lo, hi):
    # One elementwise call per chunk gives the bytes of one scalar call per
    # point, complex drives and a range through 0 included.
    out = tmp_path / "sweep.csv"
    # With points - 1 = 17 * 2**j, the omega1 step 340/(points - 1) = 20/2**j
    # is exact, so node 2**(j+1) is exactly 0; j is the least for which the
    # sweep spans more than two chunks.
    points = 17 * 2 ** (2 * cli.FORMAT_ROWS // 17).bit_length() + 1
    assert points > 2 * cli.FORMAT_ROWS
    assert cli.main(["sweep", "--delta-avg", "400", "--delta", "-16",
                     "--omega0", "120+160i", "--omega1", "-30+70i", "--axis", axis,
                     "--from", str(lo), "--to", str(hi), "--points", str(points),
                     "--observable", "rabi,rabi-ae,amplitude",
                     "--out", str(out)]) == EXIT_OK
    values = np.linspace(lo, hi, points)
    assert values.min() < 0.0 < values.max()
    # omega1 = 0 exactly (one drive off) is a sweep point; delta_avg = 0 never.
    assert (0.0 in values) == (axis == "omega1")
    base = RamanParams(400.0, -16.0, 120 + 160j, -30 + 70j)
    rows = []
    for v in values.tolist():
        p = replace(base, **{cli._AXIS_FIELDS[axis]: v})
        rows.append((v, *(cli.OBSERVABLES[o](p) for o in ("rabi", "rabi-ae", "amplitude"))))
    assert out.read_text() == per_row_csv((axis, "rabi", "rabi-ae", "amplitude"),
                                          [(list(zip(*rows)), None)])


def test_sweep_overflow_names_the_first_point_as_a_scalar_call_does(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--delta-avg", "400", "--omega0", "200", "--omega1", "120",
            "--axis", "omega0", "--from", "0", "--to", "1e200", "--points", "9",
            "--out", str(out)]
    assert cli.main(argv) == EXIT_NUMERICAL
    assert not out.exists()
    # The first point past 0, 1.25e199, is the first whose squares overflow.
    with pytest.raises(ValueError) as scalar:
        rabi_general(RamanParams(400.0, 0.0, 1.25e199, 120.0))
    assert "overflow double precision" in str(scalar.value)
    assert capsys.readouterr().err == ("numerical failure in scenario sweep: "
                                       f"{scalar.value}\n")


def test_drive_with_finite_parts_and_overflowing_modulus(tmp_path, capsys):
    # Each part is finite, so the parameters are valid; the Raman block
    # then reports the overflow instead of a traceback.
    out = tmp_path / "trace.csv"
    assert cli.main(["evolve", "--delta-avg", "400", "--omega0", "1.5e308+1.5e308i",
                     "--omega1", "120", "--t-end", "1", "--method", "exact-new",
                     "--out", str(out)]) == EXIT_NUMERICAL
    assert not out.exists()
    assert capsys.readouterr().err == (
        "numerical failure in scenario evolve: parameters overflow double precision: "
        "delta_avg = 400, delta = 0, |omega0| = inf, |omega1| = 120\n")


def test_sweep_looks_up_observables_at_call_time(tmp_path, monkeypatch):
    # profilers wrap the module binding; the sweep must call through it
    monkeypatch.setattr(cli, "rabi_general", lambda params: params.delta_2ph + 0.5)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--delta-avg", "400", "--omega0", "200",
                     "--omega1", "120", "--axis", "delta", "--from", "-1",
                     "--to", "1", "--points", "3", "--observable", "rabi",
                     "--out", str(out)]) == EXIT_OK
    assert read_lines(out) == ["delta,rabi", "-1,-0.5", "0,0.5", "1,1.5"]


def test_fidelity_scenario(tmp_path):
    out = tmp_path / "f.csv"
    code = cli.main(["fidelity", "--delta-avg", "400", "--omega0", "120",
                     "--omega1", "40", "--points", "101", "--out", str(out)])
    assert code == EXIT_OK
    lines = read_lines(out)
    assert lines[0] == "ratio,omega_r_t,fidelity"
    assert len(lines) == 102
    vals = np.array([line.split(",") for line in lines[1:]], dtype=float)
    assert vals[0, 0] == 3.0
    assert vals[-1, 1] == pytest.approx(7.0)
    assert vals[:, 2].min() >= 0.99


@pytest.mark.parametrize("argv, bases", [
    (["figure", "--id", "2"],
     [RamanParams(400.0, 0.0, 40.0 * r + 0j, 40.0 + 0j) for r in (1, 3, 5)]),
    (FIDELITY, [RamanParams(400.0, 0.0, 120.0 + 0j, 40.0 + 0j)]),
    (["fidelity", "--delta-avg=-300", "--omega0", "120+160i", "--omega1=-30+70i"],
     [RamanParams(-300.0, 0.0, 120.0 + 160.0j, -30.0 + 70.0j)]),
], ids=["figure-2", "real", "complex"])
def test_fidelity_rows_match_exact_overlaps(tmp_path, argv, bases):
    out = tmp_path / "f.csv"
    assert cli.main([*argv, "--out", str(out)]) == EXIT_OK
    lines = read_lines(out)
    assert lines[0] == "ratio,omega_r_t,fidelity"
    vals = np.array([line.split(",") for line in lines[1:]], dtype=float)
    phase = np.linspace(0.0, 7.0, 701)
    assert len(vals) == len(bases) * len(phase)
    for base, rows in zip(bases, np.split(vals, len(bases))):
        assert rows[:, 0] == pytest.approx(abs(base.omega0) / abs(base.omega1), rel=1e-15)
        assert np.array_equal(rows[:, 1], phase)
        assert np.abs(rows[:, 2] - fidelity_by_definition(base, phase)).max() <= 1e-12


def test_figure_presets(tmp_path):
    code = cli.main(["figure", "--id", "3a", "--out", str(tmp_path)])
    assert code == EXIT_OK
    lines = read_lines(tmp_path / "fig3a.csv")
    assert lines[0] == "t,dt_times_Delta,p0,p1,pe,norm,method"
    methods = {line.rsplit(",", 1)[1] for line in lines[1:]}
    assert methods == {"exact-new", "ae"}

    code = cli.main(["figure", "--id", "4", "--out", str(tmp_path / "four")])
    assert code == EXIT_OK
    for fid, token in (("4a", "ls-R-k2"), ("4b", "ls-L-k2")):
        text = (tmp_path / "four" / f"fig{fid}.csv").read_text()
        assert token in text

    code = cli.main(["figure", "--id", "2", "--out", str(tmp_path / "fig2.csv")])
    assert code == EXIT_OK
    lines = read_lines(tmp_path / "fig2.csv")
    assert lines[0] == "ratio,omega_r_t,fidelity"
    ratios = {line.split(",", 1)[0] for line in lines[1:]}
    assert ratios == {"1", "3", "5"}


def test_figure_preset_parameters_match_captions():
    fig4 = RamanParams(400.0, -16.0, 200.0 + 0j, 120.0 + 0j)
    for fid in ("4a", "4b", "5", "6"):
        assert cli.PRESETS[fid]["params"] == fig4
    assert cli.PRESETS["3a"]["params"] == RamanParams(400.0, 0.0, 40.0 + 0j, 40.0 + 0j)
    assert cli.PRESETS["3b"]["params"] == RamanParams(400.0, 0.0, 40.0 + 0j, 25.0 + 0j)
    assert cli.PRESETS["3c"]["params"] == RamanParams(400.0, 0.0, 100.0 + 0j, 100.0 + 0j)
    assert set(cli.PRESETS) == {"2", "3a", "3b", "3c", "4a", "4b", "5", "6"}
    assert cli.PRESET_GROUPS == {"3": ["3a", "3b", "3c"], "4": ["4a", "4b"]}


def test_figure_hierarchy_and_envelope_presets(tmp_path):
    assert cli.main(["figure", "--id", "5", "--out", str(tmp_path)]) == EXIT_OK
    text5 = (tmp_path / "fig5.csv").read_text()
    for token in ("exact-new", "ls-S-k0", "ls-S-k1", "ls-S-k2"):
        assert token in text5
    assert cli.main(["figure", "--id", "6", "--out", str(tmp_path)]) == EXIT_OK
    text6 = (tmp_path / "fig6.csv").read_text()
    for token in ("exact-new", "ls-S-k0", "ae", "m0eff"):
        assert token in text6


def test_figure_orders_of_one_variant_read_one_born_iteration(tmp_path, monkeypatch):
    u0_tables = []
    u0_table = lippmann_schwinger._u0_table
    monkeypatch.setattr(lippmann_schwinger, "_u0_table",
                        lambda *args: u0_tables.append(args[0]) or u0_table(*args))
    assert cli.main(["figure", "--id", "5", "--out", str(tmp_path)]) == EXIT_OK
    assert u0_tables == ["S"]  # orders 0, 1 and 2 of ls-S on one U0


def test_trace_blocks_restart_the_iteration_where_variant_changes_or_order_drops(
        monkeypatch):
    config = parse_config(["compare", "--delta-avg", "400", "--delta", "-16",
                           "--omega0", "200", "--omega1", "120", "--t-end", "0.05",
                           "--psi0", "0.6,0.8i,0", "--method", "exact-new"])
    config.methods = [("ls-S", 0), ("ls-S", 2), ("ls-S", 1), ("ls-M", 1), ("ls-M", 1),
                      ("exact-new", 0), ("ls-M", 1), ("ls-R", 3)]
    started = []
    born_tables = cli.born_tables
    monkeypatch.setattr(cli, "born_tables",
                        lambda *args: started.append(args[0]) or born_tables(*args))
    grid = TimeGrid(t_end=0.05, n=required_intervals(config.params, 0.05))
    blocks = cli._trace_blocks(config)
    for (rows, columns, label), (name, order) in zip(blocks, config.methods, strict=True):
        want_label, populations = trace_rows(name, config.params, config.psi0, grid,
                                             order=order)
        assert (rows, label) == (grid.n + 1, want_label)
        got, want = columns(slice(None))[2:], populations(slice(None))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want)), label
    assert started == ["S", "S", "M", "M", "R"]


def test_ls_trace_above_the_node_budget_fails_without_output(tmp_path, capsys):
    # Delta t = 72 000 at the figure-4 point needs 265 301 nodes, past the
    # 2**18 of the Born iteration's budget.
    out = tmp_path / "ls.csv"
    assert cli.main(["evolve", "--delta-avg", "400", "--delta", "-16", "--omega0", "200",
                     "--omega1", "120", "--dt-end", "72000", "--method", "ls-S",
                     "--order", "0", "--out", str(out)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--t-end" in err and "--points" in err, err
    assert not out.exists()


def test_numerical_failure_removes_partial_output(tmp_path, capsys):
    out = tmp_path / "bad.csv"
    code = cli.main(["evolve", "--delta-avg", "400", "--delta", "5",
                     "--omega0", "40", "--omega1", "40", "--t-end", "0.1",
                     "--points", "50", "--method", "delta0",
                     "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert not out.exists()
    # A block fails after the first one was written to the file.
    code = cli.main(["compare", "--delta-avg", "400", "--delta", "5",
                     "--omega0", "40", "--omega1", "40", "--t-end", "0.1",
                     "--points", "50", "--method", "exact-new,delta0",
                     "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert not out.exists()
    for omega0, omega1 in (("0", "40"), ("120", "0")):
        code = cli.main(["fidelity", "--delta-avg", "400", "--omega0", omega0,
                         "--omega1", omega1, "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert not out.exists()
        assert "both drives" in capsys.readouterr().err
    # Squares of these parameters leave double range inside the Raman block.
    for flags in (["--delta-avg", "1e150", "--omega0", "200", "--method", "ae"],
                  ["--delta-avg", "400", "--omega0", "1e200", "--method", "exact-new"]):
        code = cli.main(["evolve", *flags, "--omega1", "120", "--dt-end", "1",
                         "--points", "4", "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("numerical failure in scenario evolve: parameters "
                              "overflow double precision: delta_avg = "), err
    # Every square of these parameters underflows: the same error, not
    # "float division by zero".
    code = cli.main(["evolve", "--delta-avg", "1e-200", "--omega0", "0", "--omega1", "0",
                     "--dt-end", "1", "--points", "4", "--method", "exact-new",
                     "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("numerical failure in scenario evolve: parameters "
                          "underflow double precision: delta_avg = 1e-200"), err
    # ... and in the resonant detunings the fidelity study starts from.
    for delta_avg, omega0 in (("1e200", "120"), ("400", "1e200")):
        code = cli.main(["fidelity", "--delta-avg", delta_avg, "--omega0", omega0,
                         "--omega1", "40", "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("numerical failure in scenario fidelity: parameters "
                              "overflow double precision: delta_avg = "), err
    # Arrays larger than any address space: nothing is allocated, and the
    # MemoryError is a numerical failure like any other.
    huge = "1000000000000000"
    for argv in (["evolve", "--delta-avg", "400", "--omega0", "200", "--omega1", "120",
                  "--t-end", "1e12", "--method", "exact-new"],
                 ["sweep", "--delta-avg", "400", "--omega0", "200", "--omega1", "120",
                  "--axis", "delta", "--from", "-1", "--to", "1", "--points", huge],
                 ["fidelity", "--delta-avg", "400", "--omega0", "200", "--omega1", "40",
                  "--points", huge]):
        code = cli.main(argv + ["--out", str(out)])
        assert code == EXIT_NUMERICAL, argv
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure in scenario {argv[0]}: "
                              "Unable to allocate"), err


# ------------------------------------------------- edges and presets


@pytest.mark.parametrize("method", ["exact-ae", "exact-new", "ode", "ae", "delta0", "m0eff"])
@pytest.mark.parametrize("tail", [1, 3, cli.FORMAT_ROWS - 1])
def test_chunked_trace_equals_trace_populations_bit_for_bit(tmp_path, method, tail):
    # Three full write chunks and a partial one of ``tail`` rows (odd, as
    # the grid has an even number of intervals).
    points = 3 * cli.FORMAT_ROWS + tail - 1
    assert points % 2 == 0
    out = tmp_path / "t.csv"
    argv = ["evolve", "--delta-avg=-400", "--omega0", "120+160i", "--omega1=-30+70i",
            "--psi0", "0.6,0.8i,0", "--t-end", "0.3", "--points", str(points),
            "--method", method, "--out", str(out)]
    assert cli.main(argv) == EXIT_OK
    config = parse_config(argv)
    tr = trace_populations(method, config.params, config.psi0,
                           TimeGrid(t_end=0.3, n=points))
    want = per_row_csv(cli.TRACE_HEADER, [((tr.times, tr.times * -400.0, tr.p0, tr.p1,
                                            tr.pe, tr.norm), method)])
    same = out.read_text() == want  # a bool: pytest's diff of 200 kB texts is slow
    assert same


def test_config_file_that_is_not_text_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"delta-avg = 400\nomega0 = 1\xff\n")
    out = tmp_path / "x.csv"
    assert cli.main(["evolve", "--config", str(path), "--omega1", "1", "--t-end", "1",
                     "--method", "ae", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: cannot read config file ") and err.count("\n") == 1
    assert not out.exists()


def test_config_file_name_too_long_to_look_up_is_a_usage_error(tmp_path, capsys):
    # Path.is_file raises OSError (ENAMETOOLONG) on a 300-byte file name.
    name = str(tmp_path / ("x" * 300))
    out = tmp_path / "x.csv"
    assert cli.main(["evolve", "--config", name, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: cannot read config file {name}: ")
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.filterwarnings("error")
def test_fidelity_with_underflowing_drives_fails_without_output(tmp_path, capsys):
    # Both drives nonzero, but rabi_ae underflows to 0: no time scale.
    out = tmp_path / "f.csv"
    assert cli.main(["fidelity", "--delta-avg", "400", "--omega0", "1e-200",
                     "--omega1", "1e-200", "--out", str(out)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure in scenario fidelity: ") and err.count("\n") == 1
    assert "AE Rabi frequency 0" in err
    assert not out.exists()


def test_order_above_the_cap_is_a_usage_error(tmp_path, capsys):
    evolve = ["evolve", "--delta-avg", "400", "--delta", "-16", "--omega0", "200",
              "--omega1", "120", "--t-end", "0.01", "--method", "ls-S"]
    assert parse_config(evolve + ["--order", "64"]).methods == [("ls-S", 64)]
    out = tmp_path / "x.csv"
    for order in ("65", "100000000000000000000"):
        assert cli.main(evolve + ["--order", order, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: order must be an integer >= 0 and <= 64")
        assert err.count("\n") == 1
        assert not out.exists()


def test_figure_presets_pin_their_horizons_and_methods():
    fig3_t_end = {fid: 2.0 * np.pi / rabi_general(cli.PRESETS[fid]["params"])
                  for fid in ("3a", "3b", "3c")}
    for fid, t_end in fig3_t_end.items():
        assert cli.PRESETS[fid]["t_end"] == t_end
        assert cli.PRESETS[fid]["methods"] == [("exact-new", 0), ("ae", 0)]
    for fid, methods in (
            ("4a", [("exact-new", 0), ("ls-R", 0), ("ls-R", 1), ("ls-R", 2)]),
            ("4b", [("exact-new", 0), ("ls-L", 0), ("ls-L", 1), ("ls-L", 2)]),
            ("5", [("exact-new", 0), ("ls-S", 0), ("ls-S", 1), ("ls-S", 2)]),
            ("6", [("exact-new", 0), ("ls-S", 0), ("ae", 0), ("m0eff", 0)])):
        assert cli.PRESETS[fid]["t_end"] == 0.25
        assert cli.PRESETS[fid]["methods"] == methods


def test_smallest_accepted_fidelity_horizon_and_sweep(tmp_path):
    assert parse_config(FIDELITY + ["--omega-r-t-max", "0.5"]).omega_r_t_max == 0.5
    out = tmp_path / "s.csv"
    assert cli.main(SWEEP[:-1] + ["2", "--observable", "rabi", "--out", str(out)]) == EXIT_OK
    assert [line.split(",")[0] for line in read_lines(out)] == ["delta", "-1", "1"]


# --------------------------------------------- overflowing edge inputs


def test_sweep_range_that_overflows_is_one_usage_line(tmp_path, capsys):
    # to - from overflows: np.linspace would warn, then write no finite row.
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--delta-avg", "400", "--omega0", "200", "--omega1", "120",
                     "--axis", "delta", "--from", "-1e308", "--to", "1e308",
                     "--points", "3", "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == "usage error: --to - --from overflows double precision\n"
    assert not out.exists()


def test_delta0_at_a_horizon_where_lam_t_squared_overflows(tmp_path, capsys):
    # Finite rows could be written at t = 1e300, but no phase there is resolved.
    out = tmp_path / "t.csv"
    assert cli.main(["evolve", "--delta-avg", "400", "--omega0", "200", "--omega1", "120",
                     "--t-end", "1e300", "--points", "2", "--method", "delta0",
                     "--out", str(out)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure in scenario evolve: the phases overflow "
                          "double precision at t = 1e+300") and err.count("\n") == 1
    assert not out.exists()


POINTWISE = ["exact-ae", "exact-new", "ode", "ae", "delta0", "m0eff"]


@pytest.mark.parametrize("method", POINTWISE)
def test_phases_past_2_52_rad_fail_without_output(tmp_path, capsys, method):
    # One ulp of t = 1e15 is 0.125, 3.75 rad of the Omega_R = 30 beat: the
    # four methods exact at delta = 0 wrote rows that disagreed at every
    # node after t = 0, and ode wrote zero populations.
    out = tmp_path / "t.csv"
    assert cli.main(["evolve", "--delta-avg", "400", "--delta", "0", "--omega0", "200",
                     "--omega1", "120", "--t-end", "1e15", "--points", "4",
                     "--method", method, "--out", str(out)]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "numerical failure in scenario evolve: the phases overflow double precision at "
        "t = 1e+15: past 2**52 rad one ulp of a phase is a radian\n")
    assert not out.exists()


@pytest.mark.parametrize("method", POINTWISE)
def test_weak_drive_transfer_time_stays_below_the_phase_bound(tmp_path, method):
    # |Omega0|/|Delta| = 1e-7: t = pi/Omega_R = 2.3e12 and the fastest
    # phase about 5e14 rad, a ninth of 2**52.
    params = RamanParams(400.0, 0.0, 4e-5 + 0j, 2.4e-5 + 0j)
    t_end = float(np.pi / rabi_general(params))
    assert 2e12 < t_end < 3e12
    out = tmp_path / "t.csv"
    assert cli.main(["evolve", "--delta-avg", "400", "--omega0", "4e-5", "--omega1",
                     "2.4e-5", "--t-end", repr(t_end), "--points", "2",
                     "--method", method, "--out", str(out)]) == EXIT_OK
    rows = np.array([line.split(",")[:-1] for line in read_lines(out)[1:]], dtype=float)
    assert rows.shape == (3, 6) and np.isfinite(rows).all()


@pytest.mark.parametrize("t_end", ["5e-324", "1e-320"])
def test_ode_on_a_step_that_underflows_gives_exact_new_rows(tmp_path, capsys, t_end):
    # dt = t_end / 2 rounds to zero, or is so small that RK4's error term
    # underflows to zero while s/dt overflows: either way the step is exact.
    rows = {}
    for method in ("ode", "exact-new"):
        out = tmp_path / f"{method}.csv"
        assert cli.main(["evolve", "--delta-avg", "400", "--omega0", "200",
                         "--omega1", "120", "--t-end", t_end, "--points", "2",
                         "--method", method, "--out", str(out)]) == EXIT_OK
        rows[method] = [line.rsplit(",", 1)[0] for line in read_lines(out)]
    assert capsys.readouterr().err == ""
    assert len(rows["ode"]) == 4 and rows["ode"] == rows["exact-new"]


def test_grid_interval_count_that_overflows_names_t_end(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert cli.main(["evolve", "--delta-avg", "400", "--omega0", "200", "--omega1", "120",
                     "--t-end", "1e307", "--points", "2", "--method", "exact-new",
                     "--out", str(out)]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "numerical failure in scenario evolve: t_end = 1e+307 needs more grid intervals "
        "than a double holds\n")
    assert not out.exists()


def test_fidelity_whose_phases_overflow_fails_without_output(tmp_path, capsys):
    out = tmp_path / "f.csv"
    assert cli.main(["fidelity", "--delta-avg", "400", "--omega0", "200", "--omega1", "40",
                     "--omega-r-t-max", "1e308", "--points", "3",
                     "--out", str(out)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure in scenario fidelity: the phases overflow "
                          "double precision") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("base", [RamanParams(400.0, 0.0, 120.0 + 0j, 40.0 + 0j),
                                  RamanParams(-300.0, 0.0, 120 + 160j, -30 + 70j)],
                         ids=["real", "complex"])
def test_fidelity_across_write_chunks_equals_one_shot_overlap(tmp_path, base):
    # Two full write chunks and a partial one of 3 rows, each chunk evolved
    # on its own, against both evolutions over all 2051 phases at once.
    points = 2 * cli.FORMAT_ROWS + 3
    out = tmp_path / "f.csv"
    assert cli.main(["fidelity", f"--delta-avg={base.delta_avg}",
                     f"--omega0={base.omega0.real}{base.omega0.imag:+}i",
                     f"--omega1={base.omega1.real}{base.omega1.imag:+}i",
                     "--points", str(points), "--out", str(out)]) == EXIT_OK
    phase = np.linspace(0.0, 7.0, points)
    pa = replace(base, delta_2ph=delta_resonant_ae(base))
    pb = replace(base, delta_2ph=delta_resonant_lightshift(base))
    times = phase / rabi_ae(pa)
    sa, sb = (state_table(h_ae(p), times, [1.0, 0.0, 0.0]) for p in (pa, pb))
    overlap = np.abs(np.einsum("ta,ta->t", sa.conj(), sb))
    ratio = np.full(points, abs(base.omega0) / abs(base.omega1))
    assert out.read_text() == per_row_csv(cli.FIDELITY_HEADER,
                                          [((ratio, phase, overlap), None)])


# ------------------------------------------------ the CLI as a property

#: Value texts every key may be handed: signed zeros, a subnormal, the
#: double range's ends, non-finite text and a bare imaginary unit.
EDGE_TEXTS = ["0", "-0", "5e-324", "1e-300", "-1e-300", "1e300", "-1e300", "1e308",
              "-1e308", "nan", "inf", "-inf", "-i"]
#: Ordinary texts per key, so that some runs get past parsing.
KEY_TEXTS = {
    "delta-avg": ["400", "-300", "1"], "delta": ["-16", "3", "0"],
    "omega0": ["200", "120+160i", "1e-200"], "omega1": ["120", "-30+70i", "0"],
    "t-end": ["0.3", "1e-6", "1e5"], "dt-end": ["100", "4000"],
    "from": ["-40", "-300"], "to": ["40", "300"], "omega-r-t-max": ["7", "0.5"],
    "points": ["1", "2", "3", "8"], "order": ["0", "2", "65"],
    "psi0": ["1,0,0", "0.6,0.8i,0", "0,0,1", "0,0,0", "1e300,1e-300,0"],
    "method": [",".join(m) for m in (*((m,) for m in METHODS), ("ae", "ode"),
                                     ("exact-new", "ls-S"))],
    "observable": ["rabi", "rabi,rabi-ae,amplitude", "amplitude"],
    "axis": [*cli.SWEEP_AXES, "t"], "id": [*cli.PRESETS, *cli.PRESET_GROUPS, "7"],
}
#: How often a key is given an ordinary text, an edge text or none: keys a
#: run needs are mostly given, and names mostly valid, so that many runs
#: compute; ``points`` is always given, so that every example is quick.
SOURCES = {
    **dict.fromkeys(("delta-avg", "omega0", "omega1", "t-end", "from", "to"),
                    ("usual",) * 9 + ("edge",) * 2 + ("none",)),
    **dict.fromkeys(("delta", "omega-r-t-max"), ("usual", "edge", "none")),
    **dict.fromkeys(("method", "observable", "axis", "id"),
                    ("usual",) * 8 + ("edge", "none")),
    **dict.fromkeys(("psi0", "order"), ("usual",) * 2 + ("edge",) + ("none",) * 3),
    "dt-end": ("usual", "edge") + ("none",) * 5, "points": ("usual",) * 7 + ("edge",),
    "out": ("none",),
}


@st.composite
def cli_runs(draw):
    """A scenario, each key it reads at most once as (key, text, spelling) in
    a drawn order, and whether its config file holds byte 0xff."""
    scenario = draw(st.sampled_from(list(cli.SCENARIO_KEYS)))
    items = []
    for key in cli.SCENARIO_KEYS[scenario]:
        source = draw(st.sampled_from(SOURCES[key]))
        if source != "none":
            text = draw(st.sampled_from(KEY_TEXTS[key] if source == "usual" else EDGE_TEXTS))
            items.append((key, text, draw(st.sampled_from(["spaced", "attached", "config"]))))
    return scenario, draw(st.permutations(items)), draw(st.sampled_from([False] * 15 + [True]))


def cli_argv(scenario, items, bad_byte, cfg):
    """The argv of a drawn run, its config lines written to ``cfg`` (with
    byte 0xff when ``bad_byte``) if it has any."""
    argv, lines = [scenario], []
    for key, text, spelling in items:
        if spelling == "config":
            lines.append(f"{key} = {text}\n".encode())
        else:
            argv += [f"--{key}", text] if spelling == "spaced" else [f"--{key}={text}"]
    if lines or bad_byte:
        cfg.write_bytes(b"".join(lines) + (b"# \xff\n" if bad_byte else b""))
        argv += ["--config", str(cfg)]
    return argv


def spaced(text):
    """A run spelt as ``--key value`` pairs, in the form ``cli_runs`` draws."""
    scenario, *tokens = text.split()
    return scenario, [(k[2:], v, "spaced") for k, v in zip(tokens[::2], tokens[1::2])], False


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cli_runs())
# to - from overflows in np.linspace
@example(spaced("sweep --delta-avg 400 --omega0 200 --omega1 120 --axis delta "
                "--from -1e308 --to 1e308 --points 3"))
# delta0 phases mu_e t ~ 2e302 rad, finite but past 2**52 rad
@example(spaced("evolve --delta-avg 400 --omega0 200 --omega1 120 --t-end 1e300 "
                "--points 2 --method delta0"))
# dt underflows to zero on an RK4 trace
@example(spaced("evolve --delta-avg 400 --omega0 200 --omega1 120 --t-end 5e-324 "
                "--points 2 --method ode"))
# lam t overflows in modal_states
@example(spaced("fidelity --delta-avg 400 --omega0 200 --omega1 40 "
                "--omega-r-t-max 1e308 --points 3"))
# phase / rabi_ae overflows
@example(spaced("fidelity --delta-avg 400 --omega0 1e-200 --omega1 120 "
                "--omega-r-t-max 1e308 --points 3"))
# the AE resonant detuning overflows
@example(spaced("fidelity --delta-avg 5e-324 --omega0 120+160i --omega1 5e-324 --points 3"))
# rabi_ae overflows
@example(spaced("sweep --delta-avg 5e-324 --omega0 1e-300 --omega1 120 --axis delta "
                "--from -300 --to 300 --points 3 --observable rabi-ae"))
# 1/r overflows in spectral_m0sq, r the subnormal half-gap of the Raman block
@example(spaced("compare --delta-avg 400 --delta 1e-322 --omega0 0 --omega1 0 --t-end 1 "
                "--points 2 --method m0eff,ae,ls-R"))
def test_every_cli_run_succeeds_finite_or_fails_in_one_line(tmp_path_factory, run):
    # In-process, warnings being errors: every run exits 0 with finite cells,
    # or exits 2 or 3 with one failure line (after at most the notice that
    # ls-* raised --points) and leaves no file.
    scenario, items, bad_byte = run
    work = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp()))
    try:
        argv = cli_argv(scenario, items, bad_byte, work / "run.cfg")
        try:
            config = parse_config(argv)
            if any(m.startswith("ls-") for m, _ in config.methods):
                # A full-grid ls-* table grows with the mandated grid.
                assume(required_intervals(config.params, config.t_end) <= 10_000)
        except (UsageError, ValueError, ArithmeticError):
            pass
        out = work / "out"
        out.mkdir()
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--out", str(out / "o.csv")])
        lines = stderr.getvalue().splitlines()
        files = [p for p in out.rglob("*") if p.is_file()]
        if code == EXIT_OK:
            assert files and all(line.startswith("notice: ") for line in lines), argv
            for path in files:
                text = path.read_text().splitlines()
                numeric = [i for i, name in enumerate(text[0].split(",")) if name != "method"]
                cells = np.array([[row.split(",")[i] for i in numeric] for row in text[1:]],
                                 dtype=float)
                assert np.isfinite(cells).all(), (argv, path)
        else:
            assert code in (EXIT_USAGE, EXIT_NUMERICAL), (argv, code)
            assert lines and lines[-1].startswith(
                ("usage error: ", "numerical failure in scenario ")), (argv, lines)
            assert all(line.startswith("notice: --points ") and "raised to" in line
                       for line in lines[:-1]), (argv, lines)
            assert files == [], (argv, files)
    finally:
        shutil.rmtree(work)
