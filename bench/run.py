#!/usr/bin/env python3
"""Benchmark of the xyzmin command line and library, one workload per run.

    python3 bench/run.py --workload point --seed 1 --seconds 15 --trace 0

Runs in-process against the checkout's ``src/`` (the package need not be
installed), checks every output, prints a report and, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer calls, self times and counts from
``tracing.py``.  See README.md for the workloads and metrics.

Load comes from this one process, one call at a time (a closed loop).
"""

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference" / "figures.json.gz"
TMP = ROOT / ".bench_tmp"

NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = str(NPROC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402

SETUP_REPEATS = 9
FIGURE_IDS = (1, 2, 3, 4, 5)
FIGURE_STEPS = 401
LOWTEMP_PROBES = 10
VERIFY_SAMPLES = 200
ORACLE_STATES = 256  # zero-Bloch states per seed, more than a run reaches
ORACLE_TRACE_STATES = 2
KINDS = tracing.KINDS
# tolerances pinned by the tier-1 tests (tests/test_acceptance.py)
TOL_STATE = 1e-10
TOL_CONCURRENCE = 1e-12
TOL_MIN = {"hs_sq": 1e-6, "trace": 1e-6, "one_minus_fidelity": 1e-9}
TOL_FIGURES = 1e-12
# On the grid path (zero local Bloch vector) the oracle's Nelder-Mead
# refinement can stop on a saddle when two Pauli correlation magnitudes
# nearly tie, and then misses the maximum by up to the gap.  Gaps in
# [TIE_EXACT, TIE_GAP) are beyond the tier-1 tolerances yet too small for the
# grid to resolve; timed draws skip them and `oracle_grid` runs some as
# untimed probes, reporting the misses.  An exact tie is harmless: every
# maximizer then gives the same value.
TIE_EXACT = 1e-12
TIE_GAP = 1e-3
TIE_PROBES = 4
# Calibration: on a shared virtual machine the CPU speed one process gets can
# drift by 1.8x within seconds (seen on a 2-vCPU 2.1 GHz Xeon VM).  So every
# timed chunk is bracketed by a fixed kernel that does not use xyzmin, and
# the chunk's times are scaled by CAL_REFERENCE_S / (mean kernel time around
# it): times are reported at a reference CPU speed.
CAL_ITERATIONS = 300
CAL_REFERENCE_S = 0.0035  # the kernel's time on an unloaded 2.1 GHz Xeon vCPU
# `import numpy` in a fresh interpreter on the same VM, unloaded
SETUP_REFERENCE_S = 0.08
_CAL_MATRIX = np.array([[2.0, 1.0, 0.0, 0.5], [1.0, -1.0, 0.3, 0.0],
                        [0.0, 0.3, 0.5, 0.2], [0.5, 0.0, 0.2, -2.0]])


def import_xyzmin():
    """Import xyzmin from this checkout's src/ and nowhere else."""
    pkg_dir = SRC / "xyzmin"
    if not (pkg_dir / "__init__.py").is_file():
        sys.exit(f"bench: no xyzmin package at {pkg_dir}")
    sys.path.insert(0, str(SRC))
    import xyzmin
    import xyzmin.cli  # noqa: F401  (loads every layer)
    where = Path(xyzmin.__file__).resolve()
    if where.parent != pkg_dir.resolve():
        sys.exit(f"bench: xyzmin resolved to {where}, not under {pkg_dir}")
    return xyzmin


def environment(seed):
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "cpu": cpu,
        "commit": git_commit(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "seed": seed,
    }


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _fresh_import_s(modules):
    """Seconds from starting a fresh interpreter to `modules` imported, and
    the path of the xyzmin it imported, if any."""
    code = (f"import sys, time; import {modules}; print(time.monotonic()); "
            "print(getattr(sys.modules.get('xyzmin'), '__file__', ''))")
    start = time.monotonic()
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, timeout=120, check=True)
    imported_at, *where = out.stdout.split()
    return float(imported_at) - start, (where or [""])[0]


def measure_setup():
    """Median calibrated and raw seconds from starting a fresh interpreter to
    xyzmin.cli imported.  Each sample is bracketed by fresh imports of numpy
    alone, which track the machine's speed at starting processes and loading
    extension modules; the sample is scaled by SETUP_REFERENCE_S / (their
    mean time)."""
    samples, raw = [], []
    base = _fresh_import_s("numpy")[0]
    for _ in range(SETUP_REPEATS):
        seconds, where = _fresh_import_s("xyzmin.cli")
        if Path(where).resolve().parent != (SRC / "xyzmin").resolve():
            sys.exit(f"bench: set-up interpreter imported xyzmin from {where!r}")
        base_next = _fresh_import_s("numpy")[0]
        raw.append(seconds)
        samples.append(seconds * SETUP_REFERENCE_S * 2 / (base + base_next))
        base = base_next
    return statistics.median(samples), statistics.median(raw), len(samples)


def calibration_s():
    """Seconds for a fixed mix of small LAPACK calls and interpreter work,
    the mix the workloads run."""
    start = time.perf_counter()
    acc = 0.0
    for k in range(CAL_ITERATIONS):
        w = np.linalg.eigvalsh(_CAL_MATRIX + (k * 1e-3) * np.eye(4))
        acc += float(w[0]) ** 2 + math.sqrt(k + 1.0)
        format(acc, ".12g")
    return time.perf_counter() - start


def printed_close(printed, expected, tol):
    """|printed - expected| <= tol, plus one unit in the 12th significant
    digit: the CLI prints '.12g', so two values that differ by 1e-16 can
    print one unit apart."""
    a, b = float(printed), float(expected)
    quantum = 10.0 ** (math.floor(math.log10(abs(b))) - 11) if b != 0.0 else 0.0
    return abs(a - b) <= tol + quantum


def call_cli(xyz, argv):
    """Run the CLI in-process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = xyz.cli.main(argv)  # looked up per call so tracing can wrap it
    return code, buf.getvalue()


class Workload:
    """One set of inputs.  chunk(i) runs timed work and returns (per-call
    latencies, outputs); record(outputs) runs untimed, checks what it can
    at once and returns the ops done; check() checks the rest at the end."""

    name = ""
    call_unit = ""
    warmup_chunks = 1
    chunks_per_call = 1  # a latency sample sums this many consecutive chunks

    def __init__(self, xyz, seed, tmp):
        self.xyz = xyz
        self.rng = np.random.default_rng([seed, zlib.crc32(self.name.encode())])
        self.tmp = tmp
        self.failed = 0
        self.errors = []

    def fail(self, ops, message):
        self.failed += ops
        if len(self.errors) < 10:
            self.errors.append(message)

    def trace_unit(self):
        """Fixed work for the traced run, identical on every repetition."""
        return self.chunk(0)

    def check(self):
        """Checks that need every output; record() checks the rest."""

    def probes(self):
        """Untimed calls on inputs the timed loop avoids because the current
        code fails on them; returns {name, attempted, failed, errors}."""
        return None


class Figures(Workload):
    name = "figures"
    call_unit = "pass of figure 1..5"
    warmup_chunks = chunks_per_call = len(FIGURE_IDS)

    def __init__(self, *args):
        super().__init__(*args)
        # chunk i runs one figure; each run of five chunks is a pass over
        # figure 1..5 in a seeded order
        self.order = [int(k) for _ in range(64) for k in self.rng.permutation(FIGURE_IDS)]
        self.seen = {}  # (figure, digest of its CSVs) -> [their text, calls]
        self.csv_bytes = 0

    def _calls(self, figures):
        lat, outs = [], []
        for k in figures:
            argv = ["figure", str(k), "--steps", str(FIGURE_STEPS),
                    "--out", str(self.tmp / f"figure{k}")]
            start = time.perf_counter()
            try:
                code, _ = call_cli(self.xyz, argv)
            except Exception as exc:  # a failed call, reported and counted
                code = f"{type(exc).__name__}: {exc}"
            lat.append(time.perf_counter() - start)
            outs.append((k, code))
        return lat, outs

    def chunk(self, i):
        return self._calls([self.order[i % len(self.order)]])

    def trace_unit(self):
        return self._calls(FIGURE_IDS)

    def record(self, outs):
        files = {p.name: p.read_text() for p in sorted(self.tmp.glob("*.csv"))}
        for p in self.tmp.glob("*.csv"):
            p.unlink()
        self.csv_bytes = sum(len(text.encode()) for text in files.values())
        ops = 0
        for k, code in outs:
            mine = {n: t for n, t in files.items() if figure_of(n) == k}
            rows = max(1, sum(t.count("\n") - 1 for t in mine.values()))
            ops += rows
            if code != 0:
                self.fail(rows, f"figure {k}: exit {code}")
                continue
            digest = hashlib.sha256(json.dumps(mine, sort_keys=True).encode()).hexdigest()
            self.seen.setdefault((k, digest), [mine, 0])[1] += 1
        return ops

    def check(self):
        with gzip.open(REFERENCE, "rt") as fh:
            reference = json.load(fh)
        for (k, _), (mine, calls) in self.seen.items():
            bad = compare_csvs(mine, {n: t for n, t in reference.items() if figure_of(n) == k})
            if bad:
                self.fail(calls * sum(t.count("\n") - 1 for t in mine.values()), bad)


def figure_of(csv_name):
    """Figure id of a CSV named figure<k>.csv or figure<k>_<variant>.csv."""
    return int(csv_name[len("figure"):].split("_")[0].split(".")[0])


def compare_csvs(files, reference):
    if sorted(files) != sorted(reference):
        return f"CSV files {sorted(files)} differ from {sorted(reference)}"
    for name, ref_text in reference.items():
        got, ref = files[name].splitlines(), ref_text.splitlines()
        if got[0] != ref[0] or len(got) != len(ref):
            return f"{name}: header or row count differs"
        for n, (g, r) in enumerate(zip(got[1:], ref[1:]), start=2):
            gf, rf = g.split(","), r.split(",")
            if gf[0] != rf[0] or gf[-1] != rf[-1] or len(gf) != len(rf):
                return f"{name} line {n}: {g!r} != {r!r}"
            for a, b in zip(gf[1:-1], rf[1:-1]):
                if not printed_close(a, b, TOL_FIGURES):
                    return f"{name} line {n}: {g!r} != {r!r}"
    return None


def _loguniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def model_params(xyz, p):
    """ModelParams from CLI flag names; missing flags take the CLI defaults."""
    return xyz.model.ModelParams(J=p.get("J", 0.0), Jz=p.get("Jz", 0.0),
                                 gamma=p.get("gamma", 0.0), B=p.get("B", 0.0),
                                 lam=p.get("lambda", 0.0), beta=p.get("beta", 1.0))


def near_tie(xyz, rho):
    """rho takes the oracle's grid path and has two Pauli correlation
    magnitudes apart by a gap in [TIE_EXACT, TIE_GAP)."""
    f = xyz.decomp.fano_decompose(rho)
    if np.linalg.norm(f.bloch_a) > xyz.decomp.X_ZERO_TOL:
        return False
    c = np.sort(np.abs(np.diag(f.pauli_corr)))
    return any(TIE_EXACT <= gap < TIE_GAP for gap in np.diff(c))


def draw_point(rng, stratum):
    """Model parameters for one `point` call of the given stratum."""
    u = lambda: float(rng.uniform(-5.0, 5.0))  # noqa: E731
    tiny = lambda: float(rng.uniform(-1e-10, 1e-10))  # noqa: E731
    # beta = 1 as in `verify` and the tier-1 tests: at larger beta, nearly
    # pure states make the general concurrence, the reference for the check,
    # lose accuracy beyond the tier-1 tolerance
    p = {"J": u(), "Jz": u(), "gamma": u(), "B": u(), "lambda": u(), "beta": 1.0}
    if stratum == "zero_bloch":
        p["B"] = p["lambda"] = 0.0
    elif stratum == "j_zero":  # critical window undefined
        p["J"] = 0.0
    elif stratum == "tiny_eta":  # sinhc series for eta = |(B, gamma J)|
        p["B"], p["gamma"] = tiny(), 0.0
    elif stratum == "tiny_delta":  # sinhc series for delta = |(lambda, J)|
        p["J"], p["lambda"] = tiny(), tiny()
    return p


POINT_STRATA = (("generic", 24), ("zero_bloch", 12), ("j_zero", 12),
                ("tiny_eta", 6), ("tiny_delta", 6))
POINT_POOL = sum(n for _, n in POINT_STRATA)  # one chunk calls each point once


def draw_lowtemp(rng, i):
    """Low temperature, where the closed forms fail: beta * energy
    above ~710 overflows, and at J = 0 with beta |B| above ~18 the element
    mu_minus = e(cosh - sinh) cancels and can come out negative."""
    shape = i % 5
    if shape == 0:
        return {"J": float(rng.uniform(0.5, 2.0)), "beta": float(rng.uniform(800, 2000))}
    if shape == 1:
        return {"Jz": float(rng.uniform(1500, 3000))}
    if shape == 2:
        return {"J": 1.0, "Jz": float(rng.uniform(-3000, -1500))}
    if shape == 3:
        return {"B": float(rng.uniform(400, 800)), "beta": 2.0}
    return {"J": 0.0, "B": float(rng.uniform(4.0, 5.0)), "beta": float(rng.uniform(5.0, 10.0))}


def point_argv(p):
    # '--flag=value' keeps argparse from reading '-1e-10' as an option
    return ["point"] + [f"--{k}={v!r}" for k, v in p.items()]


class Point(Workload):
    name = "point"
    call_unit = "point call"

    def __init__(self, *args):
        super().__init__(*args)
        self.points = []
        for stratum, n in POINT_STRATA:
            drawn = 0
            while drawn < n:
                p = draw_point(self.rng, stratum)
                if not near_tie(self.xyz, self.xyz.oracle.thermal_state_exp(
                        model_params(self.xyz, p))):
                    self.points.append(p)
                    drawn += 1
        self.orders = [self.rng.permutation(POINT_POOL) for _ in range(16)]
        self.lowtemp = [draw_lowtemp(self.rng, i) for i in range(LOWTEMP_PROBES)]
        self.outputs = {}  # point index -> {stdout: number of calls}

    def _calls(self, order):
        lat, outs = [], []
        for j in order:
            argv = point_argv(self.points[j])
            start = time.perf_counter()
            try:
                result = call_cli(self.xyz, argv)
            except Exception as exc:  # a failed op, reported and counted
                result = (None, f"{type(exc).__name__}: {exc}")
            lat.append(time.perf_counter() - start)
            outs.append((j, result))
        return lat, outs

    def chunk(self, i):
        return self._calls(self.orders[i % len(self.orders)])

    def trace_unit(self):
        return self._calls(range(POINT_POOL))

    def record(self, outs):
        for j, (code, text) in outs:
            if code != 0:
                self.fail(1, f"point {self.points[j]}: exit {code} {text.strip()[-200:]}")
                continue
            seen = self.outputs.setdefault(j, {})
            seen[text] = seen.get(text, 0) + 1
        return len(outs)

    def check(self):
        for j, seen in self.outputs.items():
            for text, calls in seen.items():
                bad = self._check_output(self.points[j], text)
                if bad:
                    self.fail(calls, f"point {self.points[j]}: {bad}")

    def _check_output(self, raw, text):
        """The printed values against the oracle path, at tier-1 tolerances."""
        xyz = self.xyz
        out = dict(line.split(": ", 1) for line in text.strip().splitlines())
        p = model_params(xyz, raw)
        exp_state = xyz.oracle.thermal_state_exp(p).matrix.real
        z = float(out["Z"])
        elements = {"mu_minus": exp_state[0, 0], "nu_minus": exp_state[1, 1],
                    "nu_plus": exp_state[2, 2], "mu_plus": exp_state[3, 3],
                    "kappa": exp_state[0, 3], "epsilon": exp_state[1, 2]}
        for name, ref in elements.items():
            if abs(float(out[name]) / z - ref) > TOL_STATE:
                return f"{name}/Z {float(out[name]) / z} vs exp oracle {ref}"
        rho = xyz.model.thermal_state(p)
        ref = xyz.measures.concurrence(rho)
        if not printed_close(out["concurrence"], ref, TOL_CONCURRENCE):
            return f"concurrence {out['concurrence']} vs general {ref}"
        for field, kind in (("min_hs", "hs_sq"), ("min_trace", "trace"),
                            ("min_fidelity", "one_minus_fidelity")):
            ref = xyz.oracle.max_over_measurements(rho, kind).value
            if not printed_close(out[field], ref, TOL_MIN[kind]):
                return f"{field} {out[field]} vs oracle {ref}"
        if (p.J == 0.0) != (out["jc2"] == "undefined"):
            return f"jc2 {out['jc2']} at J = {p.J}"
        return None

    def probes(self):
        """Low-temperature calls, outside the timed loop: the closed forms
        overflow or cancel there (see draw_lowtemp)."""
        failed, kinds = 0, set()
        for p in self.lowtemp:
            try:
                code, _ = call_cli(self.xyz, point_argv(p))
            except Exception as exc:  # the failure being counted
                failed += 1
                kinds.add(type(exc).__name__)
                continue
            failed += code != 0
        return {"name": "point.lowtemp_failed", "attempted": len(self.lowtemp),
                "failed": failed, "errors": sorted(kinds)}


class Verify(Workload):
    name = "verify"
    call_unit = f"verify --samples {VERIFY_SAMPLES} call"

    def __init__(self, *args):
        super().__init__(*args)
        self.base_seed = int(self.rng.integers(0, 2**31 - 2**20))

    def chunk(self, i):
        argv = ["verify", "--samples", str(VERIFY_SAMPLES), "--seed", str(self.base_seed + i)]
        start = time.perf_counter()
        result = call_cli(self.xyz, argv)
        return [time.perf_counter() - start], (argv, result)

    def record(self, out):
        argv, (code, text) = out
        if code != 0 or text.rstrip().splitlines()[-1] != "result: PASS":
            self.fail(VERIFY_SAMPLES, f"{' '.join(argv)}: exit {code}\n{text}")
        return VERIFY_SAMPLES


class OracleGrid(Workload):
    name = "oracle_grid"
    call_unit = "max_over_measurements call"

    def __init__(self, *args):
        super().__init__(*args)
        self.states, self.ties = [], []
        while len(self.states) < ORACLE_STATES:
            # zero local Bloch vector (B = lambda = 0), so the grid path runs
            j, jz, g = (float(v) for v in self.rng.uniform(-5.0, 5.0, size=3))
            p = self.xyz.model.ModelParams(J=j, Jz=jz, gamma=g,
                                           beta=_loguniform(self.rng, 0.2, 2.0))
            rho = self.xyz.oracle.thermal_state_exp(p)
            if not near_tie(self.xyz, rho):
                self.states.append(rho)
            elif len(self.ties) < TIE_PROBES:
                self.ties.append(rho)

    def _calls(self, calls):
        lat, outs = [], []
        for i in calls:
            s, kind = (i // len(KINDS)) % ORACLE_STATES, KINDS[i % len(KINDS)]
            start = time.perf_counter()
            res = self.xyz.oracle.max_over_measurements(self.states[s], kind)
            lat.append(time.perf_counter() - start)
            outs.append((s, kind, res))
        return lat, outs

    def chunk(self, i):
        return self._calls([i])

    def trace_unit(self):
        return self._calls(range(ORACLE_TRACE_STATES * len(KINDS)))

    def _miss(self, rho, kind, res):
        """The oracle's deviation from the closed form, if beyond tolerance."""
        m = self.xyz.measures
        f = self.xyz.decomp.fano_decompose(rho)
        ref = {"hs_sq": m.min_hs, "trace": m.min_trace,
               "one_minus_fidelity": m.min_fidelity}[kind](f)
        if not res.refined or abs(res.value - ref) > TOL_MIN[kind]:
            return f"{kind}: oracle {res.value} vs closed form {ref} (grid path: {res.refined})"
        return None

    def record(self, outs):
        for s, kind, res in outs:
            bad = self._miss(self.states[s], kind, res)
            if bad:
                self.fail(1, f"state {s} {bad}")
        return len(outs)

    def probes(self):
        """Near-tie states the timed draws skipped, run untimed: the misses
        count the oracle defect described at TIE_GAP."""
        missed = []
        for rho in self.ties:
            for kind in KINDS:
                res = self.xyz.oracle.max_over_measurements(rho, kind)
                if self._miss(rho, kind, res):
                    missed.append(kind)
        return {"name": "oracle.grid.tie_misses", "attempted": len(self.ties) * len(KINDS),
                "failed": len(missed), "errors": sorted(set(missed))}


WORKLOADS = {w.name: w for w in (Figures, Point, Verify, OracleGrid)}
PROBE_NAMES = ("point.lowtemp_failed", "oracle.grid.tie_misses")


def run_chunk(wl, i):
    """One timed chunk; returns (wall s, cpu s, ops, latencies)."""
    c0, t0 = time.process_time(), time.perf_counter()
    lat, outs = wl.chunk(i)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return wall, cpu, wl.record(outs), lat


def percentile(sorted_values, q):
    """Nearest-rank percentile and how many samples lie above it."""
    k = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[k], len(sorted_values) - k - 1


def run_untraced(wl, seconds):
    # warm-up: lazy imports and caches; checked, not timed
    warm_ops = sum(run_chunk(wl, i)[2] for i in range(wl.warmup_chunks))
    chunks, latencies, raw_rates = [], [], []
    measured, i = 0.0, wl.warmup_chunks
    cal = calibration_s()
    while measured < seconds or (i - wl.warmup_chunks) % wl.chunks_per_call:
        wall, cpu, ops, lat = run_chunk(wl, i)
        cal_next = calibration_s()
        scale = CAL_REFERENCE_S * 2 / (cal + cal_next)
        chunks.append((wall * scale, cpu * scale, ops))
        latencies.extend(x * scale for x in lat)
        raw_rates.append(ops / wall)
        measured += wall
        cal = cal_next
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed_ops = sum(ops for _, _, ops in chunks)
    g = wl.chunks_per_call
    latencies = sorted(sum(latencies[k:k + g]) for k in range(0, len(latencies), g))
    p50, _ = percentile(latencies, 0.50)
    p99, beyond = percentile(latencies, 0.99)
    report = {
        "ops_per_s": (statistics.median(ops / wall for wall, _, ops in chunks), "1/s",
                      f"median of {len(chunks)} chunks, {timed_ops} ops; "
                      f"uncalibrated {statistics.median(raw_rates):.6g}"),
        "latency_p50_ms": (p50 * 1e3, "ms", f"{len(latencies)} samples, one per {wl.call_unit}"),
        "latency_p99_ms": (p99 * 1e3, "ms", f"{len(latencies)} samples, {beyond} beyond p99"
                           + ("" if beyond >= 10 else "; fewer than 10, not a p99")),
        "cpu_ms_per_op": (statistics.median(cpu / ops * 1e3 for _, cpu, ops in chunks), "ms",
                          f"median of {len(chunks)} chunks"),
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss of the workload process"),
    }
    return warm_ops + timed_ops, report


def run_traced(wl, seconds):
    """Alternate untraced and traced runs of the workload's fixed trace unit."""
    attempted = wl.record(wl.trace_unit()[1])  # warm-up
    ratios, self_ms, counts = [], {}, None
    started = time.perf_counter()
    while not ratios or time.perf_counter() - started < seconds:
        t0 = time.perf_counter()
        _, outs = wl.trace_unit()
        plain = time.perf_counter() - t0
        attempted += wl.record(outs)
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            t0 = time.perf_counter()
            _, outs = wl.trace_unit()
            traced = time.perf_counter() - t0
        ops = wl.record(outs)
        attempted += ops
        tracer.counts["cli.csv_bytes"] += getattr(wl, "csv_bytes", 0)
        ratios.append(traced / plain)
        metrics = tracer.metrics()
        exact = {k: v for k, v in metrics.items() if not k.endswith(".self_ms")}
        if counts is None:
            counts = exact
        elif exact != counts:
            wl.fail(ops, "per-layer counts differ between repetitions of the same work")
        for k, v in metrics.items():
            if k.endswith(".self_ms"):
                self_ms.setdefault(k, []).append(v[0])
    report = dict(counts)
    report.update({k: (statistics.median(v), "ms") for k, v in self_ms.items()})
    report["trace_overhead_ratio"] = (statistics.median(ratios), "ratio")
    return attempted, report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    xyz = import_xyzmin()
    print(f"bench: workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print(f"xyzmin: {xyz.__file__}")
    print("env: " + json.dumps(environment(args.seed), sort_keys=True))

    TMP.mkdir(exist_ok=True)
    tmp = TMP / f"run-{os.getpid()}"
    tmp.mkdir()
    try:
        wl = WORKLOADS[args.workload](xyz, args.seed, tmp)
        if args.trace:
            attempted, report = run_traced(wl, args.seconds)
        else:
            setup_s, setup_raw, n = measure_setup()
            attempted, report = run_untraced(wl, args.seconds)
            report["setup_s"] = (setup_s, "s", f"median of {n} fresh interpreters; "
                                               f"uncalibrated {setup_raw:.6g}")
        wl.check()
        probes = wl.probes()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP.rmdir()

    for name, (value, unit, *note) in report.items():
        print(f"{name:<48} {value:>14.6g} {unit:<6} {note[0] if note else ''}")
    ratio = wl.failed / attempted
    print(f"{'fail_ratio':<48} {ratio:>14.6g} {'':<6} {wl.failed} failed / "
          f"{attempted} attempted")
    if probes:
        print(f"{probes['name']} (untimed probes): {probes['failed']} of "
              f"{probes['attempted']} failed {probes['errors']}")
    if args.trace:
        for name in PROBE_NAMES:  # 0 on workloads without these probes
            failed = probes["failed"] if probes and probes["name"] == name else 0
            report[name] = (failed, "count")
    for message in wl.errors:
        print(f"error: {message}")

    metrics = {k: {"value": v[0], "unit": v[1]} for k, v in report.items()
               if args.trace or k != "latency_p99_ms"}
    print(json.dumps({"correct": wl.failed == 0, "attempted": attempted,
                      "failed": wl.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
