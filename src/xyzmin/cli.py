"""Command-line front end: point reports, CSV sweeps, critical windows,
formula-vs-oracle verification and figure presets."""

import argparse
import dataclasses
import functools
import math
import sys

import numpy as np

from .decomp import fano_decompose, pinned_axis
from .errors import DomainError
from .measures import (
    concurrence as concurrence_general,
    critical_window,
    min_fidelity,
    min_hs,
    min_trace,
    thermal_measures,
)
from .model import ModelParams, build_hamiltonian, closed_form_spectrum, \
    thermal_elements, thermal_state
from .oracle import pinned_disturbance, thermal_state_exp

CSV_HEADER = ("param,value,concurrence,concurrence_half,min_hs,min_trace,"
              "min_trace_paper,min_fidelity,in_window")
PARAM_FLAGS = ("J", "Jz", "gamma", "B", "lambda", "beta")
_ATTR = {"J": "J", "Jz": "Jz", "gamma": "gamma", "B": "B",
         "lambda": "lam", "beta": "beta"}
ZERO_TOL = 1e-12


def _fmt(v):
    v = float(v)
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return format(v, ".12g")


def _load_config(path):
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    values = {}
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in PARAM_FLAGS:
            raise ValueError(f"unknown config key: {key!r}")
        values[key] = float(val)
    return values


def _params_from_args(args):
    values = {k: 0.0 for k in PARAM_FLAGS}
    values["beta"] = 1.0
    if getattr(args, "config", None):
        values.update(_load_config(args.config))
    for flag in PARAM_FLAGS:
        given = getattr(args, _ATTR[flag])
        if given is not None:
            values[flag] = given
    return ModelParams(J=values["J"], Jz=values["Jz"], gamma=values["gamma"],
                       B=values["B"], lam=values["lambda"], beta=values["beta"])


def _add_param_flags(parser):
    for flag in PARAM_FLAGS:
        parser.add_argument(f"--{flag}", dest=_ATTR[flag], type=float, default=None)
    parser.add_argument("--config", default=None,
                        help="plain key=value parameter file; flags override it")


def _in_window(m):
    """Zero concurrence but nonzero MIN, elementwise over a ThermalMeasures."""
    any_min = ((m.min_hs > ZERO_TOL) | (m.min_trace > ZERO_TOL)
               | (m.min_fidelity > ZERO_TOL))
    return (m.concurrence == 0.0) & any_min


def _sweep_lines(vary, start, stop, steps, fixed, lock=None):
    """CSV body rows for a parameter sweep (header not included)."""
    values = np.linspace(start, stop, steps)
    columns = {name: np.full(steps, v) for name, v in dataclasses.asdict(fixed).items()}
    columns[_ATTR[vary]] = values
    if lock == "J=Jz" and vary in ("J", "Jz"):
        columns["Jz" if vary == "J" else "J"] = values
    m = thermal_measures(**columns)
    return _csv_rows(vary, (values, m.concurrence, m.concurrence / 2, m.min_hs, m.min_trace,
                            m.min_trace_paper, m.min_fidelity), _in_window(m))


def _csv_rows(vary, columns, inside):
    """One CSV row per point: vary, every numeric column printed as _fmt
    prints it, then true/false from the mask inside.  The columns are stacked
    into one float array, and + 0.0 turns -0.0 into +0.0 as _fmt does; each
    row is then a single %-format, '%.12g' giving the digits of
    format(v, '.12g')."""
    table = np.stack(columns, axis=-1) + 0.0
    row = vary + ",%.12g" * len(columns) + ",%s"
    return [row % (*r, "true" if i else "false")
            for r, i in zip(table.tolist(), inside.tolist())]


def _write_csv(path, lines):
    """The header and lines, written to path in one call."""
    with open(path, "w", newline="") as fh:
        fh.write("\n".join((CSV_HEADER, *lines, "")))


def cmd_point(args):
    p = _params_from_args(args)
    m = thermal_measures(p.J, p.Jz, p.gamma, p.B, p.lam, p.beta)
    t = m.elements
    out = []
    for flag in PARAM_FLAGS:
        out.append(f"{flag}: {_fmt(getattr(p, _ATTR[flag]))}")
    out.append(f"Z: {_fmt(t.Z)}")
    for name in ("mu_plus", "mu_minus", "nu_plus", "nu_minus", "kappa", "epsilon"):
        out.append(f"{name}: {_fmt(getattr(t, name))}")
    out.append(f"bloch_a: 0 0 {_fmt(m.a_z)}")
    out.append(f"bloch_b: 0 0 {_fmt(m.b_z)}")
    out.append("corr_diag: " + " ".join(_fmt(c) for c in (m.c_xx, m.c_yy, m.c_zz)))
    out.append(f"concurrence: {_fmt(m.concurrence)}")
    out.append(f"concurrence_half: {_fmt(m.concurrence / 2)}")
    out.append(f"min_hs: {_fmt(m.min_hs)}")
    out.append(f"min_trace: {_fmt(m.min_trace)}")
    out.append(f"min_trace_paper: {_fmt(m.min_trace_paper)}")
    out.append(f"min_fidelity: {_fmt(m.min_fidelity)}")
    out.append("in_window: " + ("true" if _in_window(m) else "false"))
    try:
        w = critical_window(p)
        out.append("jc1: " + ("unbounded" if w.jc1_unbounded else _fmt(w.jc1)))
        out.append(f"jc2: {_fmt(w.jc2)}")
    except DomainError:
        out.append("jc1: undefined")
        out.append("jc2: undefined")
    print("\n".join(out))
    return 0


def cmd_sweep(args):
    if args.vary not in PARAM_FLAGS:
        print(f"error: --vary must be one of {PARAM_FLAGS}", file=sys.stderr)
        return 2
    if not (args.from_ < args.to) or args.steps < 2:
        print("error: need --from < --to and --steps >= 2", file=sys.stderr)
        return 2
    if args.lock not in (None, "J=Jz"):
        print("error: only --lock J=Jz is supported", file=sys.stderr)
        return 2
    fixed = _params_from_args(args)
    lines = _sweep_lines(args.vary, args.from_, args.to, args.steps, fixed,
                         lock=args.lock)
    try:
        _write_csv(args.out, lines)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_critical(args):
    w = critical_window(_params_from_args(args))
    print("jc1: " + ("unbounded" if w.jc1_unbounded else _fmt(w.jc1)))
    print(f"jc2: {_fmt(w.jc2)}")
    return 0


FIGURE_PRESETS = {
    # id: (vary, start, stop, lock, list of (suffix, fixed-params))
    1: ("Jz", -2.0, 2.0, "J=Jz", [("", ModelParams())]),
    2: ("Jz", -6.0, 2.0, None, [("_J1", ModelParams(J=1.0)),
                                ("_J5", ModelParams(J=5.0))]),
    3: ("B", 0.0, 6.0, None, [("", ModelParams(J=5.0, Jz=1.0))]),
    4: ("Jz", -4.0, 2.0, None,
        [(f"_gamma{g}_B{b}", ModelParams(J=2.0, gamma=g, B=b))
         for g in (0.5, 1.0) for b in (0.0, 1.0)]),
    5: ("B", 0.0, 6.0, None, [("", ModelParams(J=2.0, Jz=-1.0, gamma=0.5))]),
}


def cmd_figure(args):
    if args.figure_id not in FIGURE_PRESETS:
        print("error: figure id must be 1..5", file=sys.stderr)
        return 2
    if args.steps < 2:
        print("error: need --steps >= 2", file=sys.stderr)
        return 2
    vary, start, stop, lock, variants = FIGURE_PRESETS[args.figure_id]
    stem = args.out or f"figure{args.figure_id}"
    if stem.endswith(".csv"):
        stem = stem[:-4]
    paths = []
    try:
        for suffix, fixed in variants:
            path = f"{stem}{suffix}.csv"
            _write_csv(path, _sweep_lines(vary, start, stop, args.steps, fixed, lock=lock))
            paths.append(path)
            print(path)
        if args.gnuplot:
            gp = f"{stem}.gp"
            with open(gp, "w", newline="") as fh:
                fh.write("set datafile separator ','\nset key autotitle columnhead\n")
                for path in paths:
                    fh.write(
                        f"plot '{path}' using 2:4 with lines, '' using 2:5 with lines, "
                        f"'' using 2:6 with lines, '' using 2:8 with lines\npause -1\n"
                    )
            print(gp)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


# the normative checks of verify, in report order, and their tolerances
VERIFY_CHECKS = (
    ("thermal_state_vs_exp_oracle", 1e-10),
    ("spectrum_vs_numeric", 1e-10),
    ("eigenvector_residual", 1e-9),
    ("thermal_concurrence_vs_general", 1e-12),
    ("hs_min_thermal_vs_closed_form", 1e-12),
    ("fidelity_min_thermal_vs_spectral", 1e-9),
    ("fidelity_spectral_vs_measurement_oracle", 1e-9),
    ("trace_min_closed_form_vs_oracle", 1e-6),
)
RATIO_SPREAD_TOL = 1e-6
# samples per batched block of verify: bounds its memory, whatever --samples
VERIFY_BLOCK = 1024


class _Worst:
    """Running maximum of a deviation over the blocks of verify and the
    sample where it first occurred; a nan deviation wins and stays.  The
    sample is None while no deviation exceeds floor."""

    def __init__(self, floor=0.0):
        self.dev, self.at = floor, None

    def add(self, dev, start):
        """Fold in the deviations of the block whose first sample is start."""
        i = int(np.argmax(dev))  # the first nan, if any
        if not math.isnan(self.dev) and not dev[i] <= self.dev:
            self.dev, self.at = float(dev[i]), start + i


def _block_deviations(draws):
    """Every normative deviation of verify over one block of drawn samples
    (rows J, Jz, gamma, B, lambda; beta = 1), as arrays over the block in
    VERIFY_CHECKS order, and the ratio of the trace oracle to the printed
    trace formula with the mask of the samples where it is taken.  Checks
    of the pinned-axis closed forms read 0 where the local Bloch vector
    vanishes."""
    cols = (*draws.T, np.ones(len(draws)))
    p = ModelParams(*cols)
    kernel = thermal_measures(*cols)
    rho = thermal_state(p)
    dev_state = np.max(np.abs(rho.matrix - thermal_state_exp(p).matrix), axis=(-2, -1))
    sd = closed_form_spectrum(p)
    h = build_hamiltonian(p)
    energies = np.stack(sd.energies, axis=-1)
    dev_spec = np.max(np.abs(np.sort(energies, axis=-1) - np.linalg.eigvalsh(h)), axis=-1)
    v = sd.eigenvectors
    residual = np.linalg.norm(h @ v - v * energies[:, None, :], axis=-2)
    dev_conc = np.abs(kernel.concurrence - concurrence_general(rho))
    f = fano_decompose(rho)
    _, pinned, _ = pinned_axis(f.bloch_a)
    spectral = min_fidelity(f)
    tr_oracle = pinned_disturbance(rho, "trace")

    def at_pinned(x, y):
        return np.where(pinned, np.abs(x - y), 0.0)

    devs = (dev_state, dev_spec, np.max(residual, axis=-1), dev_conc,
            at_pinned(kernel.min_hs, min_hs(f)),
            at_pinned(kernel.min_fidelity, spectral),
            at_pinned(pinned_disturbance(rho, "one_minus_fidelity"), spectral),
            at_pinned(min_trace(f), tr_oracle))
    printed = kernel.min_trace_paper
    use = pinned & (printed > 1e-8)
    return devs, tr_oracle / np.where(use, printed, 1.0), use


def _verify_report(samples, seed):
    """Compare every closed formula against its oracle; returns (lines, ok).

    The samples run in blocks of VERIFY_BLOCK, each check over a whole block
    at once.  A check passes only if its deviation is at most its tolerance,
    so a nan deviation fails."""
    rng = np.random.default_rng(seed)
    draws = rng.uniform(-5.0, 5.0, size=(samples, 5))
    worst = [_Worst() for _ in VERIFY_CHECKS]
    ratio_hi, ratio_lo = _Worst(-math.inf), _Worst(-math.inf)  # max of ratio, of -ratio
    ratio_sum, ratio_count = 0.0, 0
    for start in range(0, samples, VERIFY_BLOCK):
        devs, ratio, use = _block_deviations(draws[start:start + VERIFY_BLOCK])
        for w, dev in zip(worst, devs):
            w.add(dev, start)
        ratio_hi.add(np.where(use, ratio, -np.inf), start)
        ratio_lo.add(np.where(use, -ratio, -np.inf), start)
        ratio_sum += float(np.sum(ratio[use]))
        ratio_count += int(np.count_nonzero(use))

    lines = []
    ok = True

    def check(name, dev, tol, at):
        nonlocal ok
        passed = dev <= tol
        ok = ok and passed
        if at is None:
            where = "none"
        else:
            drawn = ", ".join(f"{flag}={_fmt(v)}" for flag, v in zip(PARAM_FLAGS, draws[at]))
            where = f"sample {at} ({drawn})"
        lines.append(f"{name}: max_dev {dev:.3e} tol {tol:.1e} "
                     f"{'PASS' if passed else 'FAIL'} at {where}")

    for (name, tol), w in zip(VERIFY_CHECKS, worst):
        check(name, w.dev, tol, w.at)
    if ratio_count:
        mean = ratio_sum / ratio_count
        lowest = -ratio_lo.dev
        # the extreme farther from the mean locates the spread
        at = ratio_lo.at if ratio_hi.dev - mean < mean - lowest else ratio_hi.at
        check("trace_min_printed_ratio_spread", ratio_hi.dev - lowest, RATIO_SPREAD_TOL, at)
        lines.append(f"trace_min_oracle_over_printed_ratio: {mean:.12g}")

    # documented (non-normative) divergence of the printed thermal HS formula
    # 2 (kappa^2 + epsilon^2) / Z^2 in the zero-local-Bloch regime
    p0 = ModelParams(J=1.0, Jz=-3.0, gamma=1.0)
    t0 = thermal_elements(p0)
    printed_hs = 2.0 * (t0.kappa ** 2 + t0.epsilon ** 2) / t0.Z ** 2
    f0 = fano_decompose(thermal_state(p0))
    lines.append(f"hs_min_printed_divergence_at_zero_bloch: max_dev "
                 f"{abs(printed_hs - min_hs(f0)):.3e} tol {0.0:.1e} INFO")
    return lines, ok


def cmd_verify(args):
    if args.samples < 1:
        print("error: --samples must be >= 1", file=sys.stderr)
        return 2
    lines, ok = _verify_report(args.samples, args.seed)
    print(f"seed: {args.seed}")
    print(f"samples: {args.samples}")
    print("\n".join(lines))
    print("result: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


@functools.cache
def build_parser():
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="xyzmin",
        description="Entanglement and measurement-induced nonlocality of "
                    "two-qubit Heisenberg XYZ thermal states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser("point", help="report all measures at one parameter point")
    _add_param_flags(p_point)
    p_point.set_defaults(func=cmd_point)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter and write a CSV")
    _add_param_flags(p_sweep)
    p_sweep.add_argument("--vary", required=True)
    p_sweep.add_argument("--from", dest="from_", type=float, required=True)
    p_sweep.add_argument("--to", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, default=401)
    p_sweep.add_argument("--lock", default=None)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_crit = sub.add_parser("critical", help="print the zero-concurrence window")
    _add_param_flags(p_crit)
    p_crit.set_defaults(func=cmd_critical)

    p_verify = sub.add_parser("verify", help="compare closed formulas against oracles")
    p_verify.add_argument("--samples", type=int, default=200)
    p_verify.add_argument("--seed", type=int, default=7)
    p_verify.set_defaults(func=cmd_verify)

    p_fig = sub.add_parser("figure", help="emit the CSV data behind a figure preset")
    p_fig.add_argument("figure_id", type=int)
    p_fig.add_argument("--out", default=None)
    p_fig.add_argument("--steps", type=int, default=401)
    p_fig.add_argument("--gnuplot", action="store_true")
    p_fig.set_defaults(func=cmd_figure)
    return parser


def main(argv=None):
    """Run one command; domain errors (bad parameters, overflow, an unreadable
    --config) print one line to stderr and return 2."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
