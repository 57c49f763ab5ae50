import math

import pytest

from xyzmin.cli import CSV_HEADER, main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def parse_point(out):
    values = {}
    for line in out.strip().splitlines():
        key, _, val = line.partition(": ")
        values[key] = val
    return values


def test_point_xxx(capsys):
    rc, out = run(capsys, "point", "--J", "1", "--Jz", "1")
    assert rc == 0
    vals = parse_point(out)
    assert float(vals["concurrence"]) == pytest.approx(0.4225, abs=1e-4)
    assert vals["jc1"] == "unbounded"


def test_point_all_zero(capsys):
    rc, out = run(capsys, "point", "--J", "0", "--Jz", "0")
    assert rc == 0
    vals = parse_point(out)
    for key in ("concurrence", "min_hs", "min_trace", "min_trace_paper",
                "min_fidelity"):
        assert float(vals[key]) == 0.0
    assert vals["jc1"] == "undefined"


def test_point_field_matches_thermal_closed_form(capsys):
    rc, out = run(capsys, "point", "--J", "1", "--Jz", "0", "--B", "1")
    assert rc == 0
    vals = parse_point(out)
    from xyzmin.measures import min_hs_thermal
    from xyzmin.model import ModelParams, thermal_elements
    expected = min_hs_thermal(thermal_elements(ModelParams(J=1.0, B=1.0)))
    assert float(vals["min_hs"]) == pytest.approx(expected, abs=1e-12)


def test_sweep_endpoints_match_point(tmp_path, capsys):
    out_csv = tmp_path / "s.csv"
    rc, _ = run(capsys, "sweep", "--vary", "Jz", "--from", "-1", "--to", "1",
                "--steps", "2", "--J", "1", "--out", str(out_csv))
    assert rc == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    rc, out = run(capsys, "point", "--J", "1", "--Jz", "-1")
    vals = parse_point(out)
    row = lines[1].split(",")
    assert row[0] == "Jz" and float(row[1]) == -1.0
    assert row[2] == vals["concurrence"]
    assert row[4] == vals["min_hs"]


def test_sweep_usage_errors(tmp_path, capsys):
    out_csv = str(tmp_path / "s.csv")
    rc, _ = run(capsys, "sweep", "--vary", "bogus", "--from", "0", "--to", "1",
                "--out", out_csv)
    assert rc == 2
    rc, _ = run(capsys, "sweep", "--vary", "B", "--from", "1", "--to", "0",
                "--out", out_csv)
    assert rc == 2
    rc, _ = run(capsys, "sweep", "--vary", "B", "--from", "0", "--to", "1",
                "--steps", "1", "--out", out_csv)
    assert rc == 2


def test_sweep_lock_xxx(tmp_path, capsys):
    out_csv = tmp_path / "xxx.csv"
    rc, _ = run(capsys, "sweep", "--vary", "Jz", "--from", "0.2", "--to", "1.0",
                "--steps", "5", "--lock", "J=Jz", "--out", str(out_csv))
    assert rc == 0
    rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
    jc = math.log(3) / 2
    for row in rows:
        jz = float(row[1])
        in_window = row[8] == "true"
        assert in_window == (jz <= jc)


def test_critical_examples(capsys):
    rc, out = run(capsys, "critical", "--J", "1", "--gamma", "0", "--B", "0")
    assert rc == 0
    vals = parse_point(out)
    assert vals["jc1"] == "unbounded"
    assert float(vals["jc2"]) == pytest.approx(-0.161, abs=1e-3)
    rc, out = run(capsys, "critical", "--J", "5")
    vals = parse_point(out)
    assert float(vals["jc2"]) == pytest.approx(-4.306, abs=1e-3)


def test_critical_low_temperature(capsys):
    rc, out = run(capsys, "critical", "--J", "1", "--beta", "800")
    assert rc == 0
    vals = parse_point(out)
    assert vals["jc1"] == "unbounded"
    assert float(vals["jc2"]) == pytest.approx(-1.0 + math.log(2.0) / 800.0, abs=1e-6)


def test_critical_underflowing_anisotropy(capsys):
    # (gamma J / eta)^2 underflows and beta eta is large: 1 - |B|/eta and
    # exp(-2 beta eta) are both 0 in floating point
    rc, out = run(capsys, "critical", "--J", "1", "--gamma", "1e-200", "--B", "1",
                  "--beta", "500")
    assert rc == 0
    vals = parse_point(out)
    assert float(vals["jc1"]) == pytest.approx(-0.921034037198, abs=1e-12)
    assert float(vals["jc2"]) == pytest.approx(-0.921034037198, abs=1e-12)


def test_critical_degenerate(capsys):
    rc = main(["critical", "--J", "0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "J = 0" in err


@pytest.mark.parametrize("argv", [
    ["point", "--beta", "0"],
    ["point", "--J", "nan"],
    ["point", "--J", "1", "--beta", "800"],
    ["point", "--config", "/nonexistent/xyzmin.cfg"],
], ids=["beta_zero", "J_nan", "point_overflow", "missing_config"])
def test_domain_errors_exit_2_with_one_line(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_figure_invalid_id(capsys):
    rc = main(["figure", "9"])
    assert rc == 2


@pytest.mark.parametrize("steps", ["0", "1"])
def test_figure_steps_below_two(steps, tmp_path, capsys):
    stem = tmp_path / "fig1"
    rc = main(["figure", "1", "--steps", steps, "--out", str(stem)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_figure_emits_csvs(tmp_path, capsys):
    rc, out = run(capsys, "figure", "2", "--steps", "11", "--out",
                  str(tmp_path / "fig2"))
    assert rc == 0
    for suffix in ("_J1", "_J5"):
        path = tmp_path / f"fig2{suffix}.csv"
        assert path.exists()
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == 12


def test_figure_gnuplot_script(tmp_path, capsys):
    rc, _ = run(capsys, "figure", "5", "--steps", "5", "--out",
                str(tmp_path / "fig5"), "--gnuplot")
    assert rc == 0
    gp = (tmp_path / "fig5.gp").read_text()
    assert "fig5.csv" in gp


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("J = 1\nJz = 1\n# comment\nB = 2\n")
    rc, out = run(capsys, "point", "--config", str(cfg), "--B", "0")
    assert rc == 0
    vals = parse_point(out)
    assert float(vals["J"]) == 1.0 and float(vals["B"]) == 0.0
    assert float(vals["concurrence"]) == pytest.approx(0.4225, abs=1e-4)


def test_verify_small_run(capsys):
    rc, out = run(capsys, "verify", "--samples", "5", "--seed", "11")
    assert rc == 0
    assert "result: PASS" in out
    rc2, out2 = run(capsys, "verify", "--samples", "5", "--seed", "11")
    assert out2 == out


def test_verify_bad_samples(capsys):
    rc = main(["verify", "--samples", "0"])
    assert rc == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["point", "--J", "not-a-number"])
    assert exc.value.code == 2
