import numpy as np
import pytest

from ramanls import cli
from ramanls.analysis import METHODS, amplitude_p, rabi_general
from ramanls.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, UsageError,
                         parse_complex_literal, parse_config)
from ramanls.lippmann_schwinger import required_intervals
from ramanls.model import RamanParams


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


def test_parse_config_from_text():
    rc = parse_config(
        ["evolve", "--method", "exact-new"],
        config_text="delta-avg = 400\ndelta = 0  # resonant\n"
                    "omega0 = 40+0i\nomega1 = 40\nt-end = 0.5\n",
    )
    assert rc.params == RamanParams(400.0, 0.0, 40.0 + 0j, 40.0 + 0j)
    assert rc.t_end == 0.5


def test_config_text_rejections():
    with pytest.raises(UsageError, match="unknown config key"):
        parse_config(["evolve", "--method", "ae"], config_text="bogus = 1\n")
    with pytest.raises(UsageError, match="key = value"):
        parse_config(["evolve", "--method", "ae"], config_text="just words\n")
    with pytest.raises(UsageError, match="not found"):
        parse_config(["evolve", "--method", "ae", "--config", "/no/such/file"])


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


def test_main_exit_codes_for_usage(capsys):
    assert cli.main(["evolve", "--no-such-flag"]) == EXIT_USAGE
    assert cli.main(["evolve", "--delta-avg", "400", "--omega0", "1",
                     "--omega1", "1", "--t-end", "1",
                     "--method", "magic"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "magic" in err


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


def test_numerical_failure_removes_partial_output(tmp_path):
    out = tmp_path / "bad.csv"
    code = cli.main(["evolve", "--delta-avg", "400", "--delta", "5",
                     "--omega0", "40", "--omega1", "40", "--t-end", "0.1",
                     "--points", "50", "--method", "delta0",
                     "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert not out.exists()
