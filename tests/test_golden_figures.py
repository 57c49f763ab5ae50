"""Golden guard: `figure 1..5 --steps 41` against CSVs pinned from the 4x4
Fano production path that the X-state kernel replaced, and the bytes of
`figure 1..5 --steps 401` against a writer that formats value by value."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from xyzmin import cli
from xyzmin.cli import main
from xyzmin.measures import thermal_measures

GOLDEN = Path(__file__).parent / "data" / "figures_steps41"
STEPS = 41
TOL = 1e-12


def printed_close(printed, expected):
    """|printed - expected| <= TOL plus one unit in the 12th significant digit,
    the CLI's print precision."""
    a, b = float(printed), float(expected)
    quantum = 10.0 ** (math.floor(math.log10(abs(b))) - 11) if b != 0.0 else 0.0
    return abs(a - b) <= TOL + quantum


def emit(tmp_path, capsys, k):
    assert main(["figure", str(k), "--steps", str(STEPS),
                 "--out", str(tmp_path / f"figure{k}")]) == 0
    capsys.readouterr()
    return {p.name: p.read_bytes() for p in tmp_path.glob(f"figure{k}*.csv")}


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_figure_matches_golden(tmp_path, capsys, k):
    files = emit(tmp_path, capsys, k)
    golden = {p.name: p.read_text() for p in GOLDEN.glob(f"figure{k}*.csv")}
    assert golden and sorted(files) == sorted(golden)
    for name, ref_text in golden.items():
        got, ref = files[name].decode().splitlines(), ref_text.splitlines()
        assert got[0] == ref[0] and len(got) == len(ref) == STEPS + 1
        for g, r in zip(got[1:], ref[1:]):
            gf, rf = g.split(","), r.split(",")
            assert len(gf) == len(rf)
            assert gf[0] == rf[0] and gf[-1] == rf[-1], (name, g, r)
            for a, b in zip(gf[1:-1], rf[1:-1]):
                assert printed_close(a, b), (name, g, r)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_figure_csvs_byte_identical_across_runs(tmp_path, capsys, k):
    runs = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        runs.append(emit(tmp_path / sub, capsys, k))
    assert runs[0] and runs[0] == runs[1]


def per_value_csvs(k, steps, stem):
    """The CSVs of figure k written value by value: each number of the
    kernel's output through cli._fmt, one row at a time."""
    vary, start, stop, lock, variants = cli.FIGURE_PRESETS[k]
    files = {}
    for suffix, fixed in variants:
        values = np.linspace(start, stop, steps)
        params = dataclasses.asdict(fixed)
        params[cli._ATTR[vary]] = values
        if lock == "J=Jz":
            params["J"] = params["Jz"] = values
        m = thermal_measures(**{n: np.broadcast_to(v, values.shape) for n, v in params.items()})
        text = cli.CSV_HEADER + "\n"
        for i, value in enumerate(values):
            conc = float(m.concurrence[i])
            mins = [float(x[i]) for x in (m.min_hs, m.min_trace, m.min_fidelity)]
            inside = conc == 0.0 and max(mins) > cli.ZERO_TOL
            fields = [value, conc, conc / 2, m.min_hs[i], m.min_trace[i],
                      m.min_trace_paper[i], m.min_fidelity[i]]
            text += ",".join([vary, *map(cli._fmt, fields), "true" if inside else "false"]) + "\n"
        files[f"{stem}{suffix}.csv"] = text.encode()
    return files


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_figure_csv_bytes_equal_per_value_formatting(tmp_path, capsys, k):
    assert main(["figure", str(k), "--steps", "401", "--out", str(tmp_path / f"figure{k}")]) == 0
    capsys.readouterr()
    files = {p.name: p.read_bytes() for p in tmp_path.glob(f"figure{k}*.csv")}
    assert files == per_value_csvs(k, 401, f"figure{k}")
