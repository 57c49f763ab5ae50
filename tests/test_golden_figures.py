"""Golden guard: `figure 1..5 --steps 41` against CSVs pinned from the 4x4
Fano production path that the X-state kernel replaced."""

import math
from pathlib import Path

import pytest

from xyzmin.cli import main

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
