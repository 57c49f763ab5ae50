#!/usr/bin/env python3
"""Write reference/figures.json.gz: the figure 1..5 CSVs at 401 steps.

    python3 bench/pin_reference.py

The file in the repository was written at the commit that introduced the
benchmark; the `figures` workload compares every pass against it by value.
Rewrite it only when a change of the figures' numbers is intended.
"""

import contextlib
import gzip
import json
import shutil

import run


def main():
    xyz = run.import_xyzmin()
    tmp = run.TMP / "pin"
    tmp.mkdir(parents=True)
    try:
        for k in run.FIGURE_IDS:
            code, _ = run.call_cli(xyz, ["figure", str(k), "--steps", str(run.FIGURE_STEPS),
                                         "--out", str(tmp / f"figure{k}")])
            assert code == 0, f"figure {k} exited {code}"
        files = {p.name: p.read_text() for p in sorted(tmp.glob("*.csv"))}
    finally:
        shutil.rmtree(tmp)
        with contextlib.suppress(OSError):
            run.TMP.rmdir()
    run.REFERENCE.parent.mkdir(exist_ok=True)
    data = json.dumps(files, sort_keys=True, indent=0).encode()
    run.REFERENCE.write_bytes(gzip.compress(data, mtime=0))
    print(f"{run.REFERENCE}: {len(files)} CSVs, {len(data)} bytes before compression")


if __name__ == "__main__":
    main()
