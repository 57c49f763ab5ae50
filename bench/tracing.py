"""Per-layer tracing of xyzmin, installed from outside the package.

The tracer swaps each traced function for a wrapper in every ``xyzmin``
module namespace that holds it (so ``from .model import thermal_state``
bindings are caught too), records one span per call and restores the
originals on exit.  Spans are aggregated as they close: per name the call
count and the self time, which is the span's duration minus the time its
child spans cover.  Nothing in ``src/`` is modified.
"""

import sys
import time
from collections import Counter

import scipy.optimize

# (module, attribute, span name): the public functions timed per layer
SPANS = (
    ("model", "thermal_elements", "model.thermal_elements"),
    ("model", "thermal_state", "model.thermal_state"),
    ("model", "closed_form_spectrum", "model.closed_form_spectrum"),
    ("model", "build_hamiltonian", "model.build_hamiltonian"),
    ("decomp", "fano_decompose", "decomp.fano_decompose"),
    ("measures", "measure_report", "measures.measure_report"),
    ("measures", "concurrence_thermal", "measures.concurrence_thermal"),
    ("measures", "concurrence", "measures.concurrence"),
    ("measures", "min_hs", "measures.min_hs"),
    ("measures", "min_trace", "measures.min_trace"),
    ("measures", "min_fidelity", "measures.min_fidelity"),
    ("measures", "critical_window", "measures.critical_window"),
    ("oracle", "thermal_state_exp", "oracle.thermal_state_exp"),
    ("oracle", "fidelity_min_spectral", "oracle.fidelity_min_spectral"),
    ("linalg", "kron", "linalg.kron"),
    ("linalg", "is_hermitian", "linalg.is_hermitian"),
    ("cli", "build_parser", "cli.build_parser"),
)
KINDS = ("hs_sq", "trace", "one_minus_fidelity")
ORACLE_SPANS = tuple(f"oracle.max_over_measurements.{path}.{kind}"
                     for path in ("pinned", "grid") for kind in KINDS)
# spans wrapped by hand below, not through SPANS
SPECIAL_SPANS = ("model.DensityMatrix.validate", "cli.self", "cli.figure4_fit")
SPAN_NAMES = tuple(s[2] for s in SPANS) + ORACLE_SPANS + SPECIAL_SPANS
# exact counts recorded at the layer boundaries
COUNT_NAMES = ("oracle.minimize.nfev", "oracle.grid.axes", "cli.figure4_fit.nfev",
               "cli.csv_bytes")


class Tracer:
    """Span aggregation: calls and self time per name, plus plain counters."""

    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self._child_ns = []  # one accumulator per open span

    def _open(self):
        self._child_ns.append(0)
        return time.perf_counter_ns()

    def _close(self, name, start):
        duration = time.perf_counter_ns() - start
        child = self._child_ns.pop()
        self.calls[name] += 1
        self.self_ns[name] += duration - child
        if self._child_ns:
            self._child_ns[-1] += duration

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            start = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, start)
        return traced

    def wrap_oracle(self, fn):
        """max_over_measurements, split by path (pinned axis or grid) and kind."""
        def traced(*args, **kwargs):
            kind = kwargs["kind"] if "kind" in kwargs else args[1]
            start = self._open()
            path = "error"
            try:
                res = fn(*args, **kwargs)
                path = "grid" if res.refined else "pinned"
                if res.refined:
                    self.counts["oracle.grid.axes"] += (
                        res.grid_resolution[0] * res.grid_resolution[1])
                return res
            finally:
                self._close(f"oracle.max_over_measurements.{path}.{kind}", start)
        return traced

    def wrap_counting_nfev(self, count_name, fn, span_name=None):
        def traced(*args, **kwargs):
            start = self._open() if span_name else None
            try:
                res = fn(*args, **kwargs)
                self.counts[count_name] += int(res.nfev)
                return res
            finally:
                if span_name:
                    self._close(span_name, start)
        return traced

    def metrics(self):
        """Every declared per-layer metric; layers a run never reached read 0."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_ms"] = (self.self_ns[name] / 1e6, "ms")
        for name in COUNT_NAMES:
            out[name] = (self.counts[name], "bytes" if name == "cli.csv_bytes" else "count")
        return out


class installed:
    """Context manager that installs a Tracer's wrappers and removes them."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._undo = []

    def _replace_everywhere(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "xyzmin" and not modname.startswith("xyzmin."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def __enter__(self):
        t = self.tracer
        pkg = sys.modules["xyzmin"]
        for modname, attr, name in SPANS:
            fn = getattr(getattr(pkg, modname), attr, None)
            if fn is not None:  # a layer may drop or move a function later on
                self._replace_everywhere(fn, t.wrap(name, fn))
        oracle = pkg.oracle
        self._replace_everywhere(oracle.max_over_measurements,
                                 t.wrap_oracle(oracle.max_over_measurements))
        if getattr(oracle, "minimize", None) is not None:
            self._replace_everywhere(
                oracle.minimize,
                t.wrap_counting_nfev("oracle.minimize.nfev", oracle.minimize))
        # cli.main is the only entry point; its self time is argparse,
        # formatting and file writes
        self._replace_everywhere(pkg.cli.main, t.wrap("cli.self", pkg.cli.main))
        # the figure-4 fit imports least_squares from scipy.optimize at call time
        lsq = scipy.optimize.least_squares
        scipy.optimize.least_squares = t.wrap_counting_nfev(
            "cli.figure4_fit.nfev", lsq, span_name="cli.figure4_fit")
        self._undo.append((scipy.optimize, "least_squares", lsq))
        dm = pkg.model.DensityMatrix
        post_init = dm.__post_init__
        dm.__post_init__ = t.wrap("model.DensityMatrix.validate", post_init)
        self._undo.append((dm, "__post_init__", post_init))
        return t

    def __exit__(self, *exc):
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()
        return False
