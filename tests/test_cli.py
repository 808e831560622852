import argparse

import numpy as np
import pytest

from ramanls import cli
from ramanls.analysis import METHODS, amplitude_p, rabi_general, trace_populations
from ramanls.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, UsageError,
                         parse_complex_literal, parse_config)
from ramanls.lippmann_schwinger import TimeGrid, required_intervals
from ramanls.model import RamanParams


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
    rc = parse_config(["evolve", "--delta-avg", "400", "--omega0", "40",
                       "--omega1", "40", "--t-end", "1", "--method", "ae",
                       "--psi0", "0,1,0"])
    assert np.allclose(rc.psi0, [0, 1, 0])


def test_signed_values_parse_as_their_attached_form(capsys):
    # argparse reads a value such as -1e-3 or -30+70i as an option unless
    # it is attached with '='; both spellings must give the same config.
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
                      "omega0 = 40+0i\nomega1 = 40\nt-end = 0.5\n")],
    )
    assert rc.params == RamanParams(400.0, 0.0, 40.0 + 0j, 40.0 + 0j)
    assert rc.t_end == 0.5


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


def test_every_flag_is_a_config_key(tmp_path):
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert list(subparsers.choices) == ["evolve", "compare", "sweep", "fidelity", "figure"]
    for scenario, sub in subparsers.choices.items():
        keys = [opt[2:] for a in sub._actions if a.dest != "help"
                for opt in a.option_strings]
        assert len(keys) == len(set(keys))
        assert set(keys) == SCENARIO_KEYS[scenario] | {"config"}, scenario
        for key in keys:
            try:
                parse_config([scenario, "--config",
                              config_file(tmp_path, f"{key} = 1\n")])
            except UsageError as exc:
                assert ("unknown config key" in str(exc)) == (key == "config"), (scenario, key)
            else:
                assert key != "config"


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


def test_numerical_failure_removes_partial_output(tmp_path, capsys):
    out = tmp_path / "bad.csv"
    code = cli.main(["evolve", "--delta-avg", "400", "--delta", "5",
                     "--omega0", "40", "--omega1", "40", "--t-end", "0.1",
                     "--points", "50", "--method", "delta0",
                     "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert not out.exists()
    for omega0, omega1 in (("0", "40"), ("120", "0")):
        code = cli.main(["fidelity", "--delta-avg", "400", "--omega0", omega0,
                         "--omega1", omega1, "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert not out.exists()
        assert "both drives" in capsys.readouterr().err
