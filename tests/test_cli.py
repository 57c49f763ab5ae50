import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from xyzmin import cli
from xyzmin.cli import CSV_HEADER, main
from xyzmin.decomp import X_ZERO_TOL, fano_decompose
from xyzmin.measures import concurrence, min_fidelity, min_hs, min_trace, thermal_measures
from xyzmin.model import (
    ModelParams,
    build_hamiltonian,
    closed_form_spectrum,
    thermal_state,
)
from xyzmin.oracle import max_over_measurements, thermal_state_exp


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
    expected = min_hs(fano_decompose(thermal_state(ModelParams(J=1.0, B=1.0))))
    assert float(vals["min_hs"]) == pytest.approx(expected, abs=1e-12)


def test_repeated_calls_share_no_state(capsys):
    rc, out = run(capsys, "point", "--J", "1", "--B", "2")
    vals = parse_point(out)
    assert rc == 0 and (vals["J"], vals["B"]) == ("1", "2")
    rc, out = run(capsys, "point")
    vals = parse_point(out)
    assert rc == 0 and (vals["J"], vals["B"], vals["beta"]) == ("0", "0", "1")
    rc, out = run(capsys, "critical", "--J", "5")
    assert rc == 0 and out == "jc1: unbounded\njc2: -4.30680741848\n"
    rc, out = run(capsys, "point", "--beta", "2")
    vals = parse_point(out)
    assert rc == 0 and (vals["J"], vals["B"], vals["beta"]) == ("0", "0", "2")


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


def test_figure_gnuplot_unwritable_exits_1_with_one_line(tmp_path, capsys):
    (tmp_path / "d" / "x.gp").mkdir(parents=True)
    rc = main(["figure", "5", "--steps", "3", "--out", str(tmp_path / "d" / "x"), "--gnuplot"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert (tmp_path / "d" / "x.csv").exists()


def test_csv_rows_print_each_value_as_fmt():
    """Every numeric field of a row is _fmt of its value: -0.0 in each of the
    seven positions prints as 0, and so do the awkward magnitudes."""
    specials = [1e-5, 1e16, 5e-324, 0.1 + 0.2, 123456789012.5, -2.5e-7, math.pi]
    rows = []
    for pos in range(7):
        row = [1.0] * 7
        row[pos] = -0.0
        rows.append(row)
    rows += [[v] * 7 for v in specials]
    rows.append([-0.0] * 7)
    columns = tuple(np.array(rows).T)
    inside = np.arange(len(rows)) % 2 == 0
    got = cli._csv_rows("Jz", columns, inside)
    assert len(got) == len(rows)
    for line, row, flag in zip(got, rows, inside):
        assert line == ",".join(["Jz", *map(cli._fmt, row), "true" if flag else "false"])
        assert "-0" not in line.split(",")


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


NORMATIVE_LINE = re.compile(r"^(\w+): max_dev (\S+) tol (\S+) (PASS|FAIL) at "
                            r"(none|sample (\d+) \(J=(\S+), Jz=(\S+), gamma=(\S+), "
                            r"B=(\S+), lambda=(\S+)\))$")


def normative_lines(out):
    return [m for m in map(NORMATIVE_LINE.match, out.splitlines()) if m]


@pytest.mark.parametrize("samples", [1, cli.VERIFY_BLOCK + 1])
def test_verify_at_block_edges(capsys, samples):
    rc, out = run(capsys, "verify", "--samples", str(samples), "--seed", "3")
    assert rc == 0
    assert out.splitlines()[-1] == "result: PASS"
    assert len(normative_lines(out)) >= len(cli.VERIFY_CHECKS)
    rc2, out2 = run(capsys, "verify", "--samples", str(samples), "--seed", "3")
    assert (rc2, out2) == (rc, out)


def test_verify_locates_each_worst_deviation_at_its_drawn_sample(capsys):
    samples = 30
    draws = np.random.default_rng(5).uniform(-5.0, 5.0, size=(samples, 5))
    rc, out = run(capsys, "verify", "--samples", str(samples), "--seed", "5")
    lines = normative_lines(out)
    assert rc == 0 and len(lines) == len(cli.VERIFY_CHECKS) + 1
    for m in lines:
        if m[5] != "none":
            drawn = [cli._fmt(v) for v in draws[int(m[6])]]
            assert list(m.groups()[6:]) == drawn


def loop_deviations(vals):
    """The deviations of verify at one sample, one state at a time, as the
    per-sample loop computed them: the reference for the batched blocks."""
    p = ModelParams(J=vals[0], Jz=vals[1], gamma=vals[2], B=vals[3], lam=vals[4])
    k = thermal_measures(p.J, p.Jz, p.gamma, p.B, p.lam, p.beta)
    rho = thermal_state(p)
    sd, h = closed_form_spectrum(p), build_hamiltonian(p)
    devs = [np.max(np.abs(rho.matrix - thermal_state_exp(p).matrix)),
            np.max(np.abs(np.sort(np.array(sd.energies)) - np.linalg.eigvalsh(h))),
            max(np.linalg.norm(h @ v - e * v) for e, v in zip(sd.energies, sd.eigenvectors.T)),
            abs(k.concurrence - concurrence(rho))]
    f = fano_decompose(rho)
    assert np.linalg.norm(f.bloch_a) > X_ZERO_TOL
    spectral = min_fidelity(f)
    trace = max_over_measurements(rho, "trace").value
    devs += [abs(k.min_hs - min_hs(f)), abs(k.min_fidelity - spectral),
             abs(max_over_measurements(rho, "one_minus_fidelity").value - spectral),
             abs(min_trace(f) - trace)]
    return devs, trace / k.min_trace_paper


def test_verify_blocks_match_the_per_sample_loop():
    draws = np.random.default_rng(13).uniform(-5.0, 5.0, size=(40, 5))
    devs, ratio, use = cli._block_deviations(draws)
    assert use.all()
    for i, vals in enumerate(draws):
        ref, ref_ratio = loop_deviations(vals)
        assert np.max(np.abs(np.array([d[i] for d in devs]) - ref)) <= 1e-14
        assert abs(ratio[i] - ref_ratio) <= 1e-14


def test_verify_blocks_do_not_change_the_report(capsys, monkeypatch):
    rc, whole = run(capsys, "verify", "--samples", "30", "--seed", "5")
    monkeypatch.setattr(cli, "VERIFY_BLOCK", 7)
    rc2, blocked = run(capsys, "verify", "--samples", "30", "--seed", "5")
    assert rc == rc2 == 0 and blocked == whole


@pytest.mark.parametrize("bad", [math.nan, 1.0])
def test_verify_fails_on_a_bad_deviation_in_a_later_block(capsys, monkeypatch, bad):
    """A nan or a large deviation in one sample of the third block fails its
    check, is located at that sample and makes the run exit 1."""
    pinned_disturbance, calls = cli.pinned_disturbance, []

    def spoiled(rho, kind):
        values = pinned_disturbance(rho, kind)
        if kind == "one_minus_fidelity":
            calls.append(kind)
            if len(calls) == 3:
                values[1] = bad
        return values

    monkeypatch.setattr(cli, "VERIFY_BLOCK", 4)
    monkeypatch.setattr(cli, "pinned_disturbance", spoiled)
    rc, out = run(capsys, "verify", "--samples", "10", "--seed", "11")
    assert rc == 1
    assert out.splitlines()[-1] == "result: FAIL"
    failed = [m for m in normative_lines(out) if m[4] == "FAIL"]
    assert [(m[1], m[6]) for m in failed] == [("fidelity_spectral_vs_measurement_oracle", "9")]
    if math.isnan(bad):
        assert failed[0][2] == "nan"


@pytest.mark.parametrize("factor", [1.001, 0.999])
def test_verify_locates_a_ratio_outlier_on_either_side(capsys, monkeypatch, factor):
    pinned_disturbance = cli.pinned_disturbance

    def spoiled(rho, kind):
        values = pinned_disturbance(rho, kind)
        if kind == "trace":
            values[3] *= factor
        return values

    monkeypatch.setattr(cli, "pinned_disturbance", spoiled)
    rc, out = run(capsys, "verify", "--samples", "10", "--seed", "11")
    assert rc == 1
    failed = {m[1]: m[6] for m in normative_lines(out) if m[4] == "FAIL"}
    assert failed == {"trace_min_closed_form_vs_oracle": "3",
                      "trace_min_printed_ratio_spread": "3"}


def test_verify_bad_samples(capsys):
    rc = main(["verify", "--samples", "0"])
    assert rc == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["point", "--J", "not-a-number"])
    assert exc.value.code == 2


def test_cli_import_loads_no_scipy():
    # scipy is needed only by the tests and the benchmark, not by the package
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = ("import sys, xyzmin.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
