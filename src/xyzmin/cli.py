"""Command-line front end: point reports, CSV sweeps, critical windows,
formula-vs-oracle verification and figure presets."""

import argparse
import dataclasses
import sys

import numpy as np

from .decomp import X_ZERO_TOL, fano_decompose
from .errors import DomainError
from .measures import (
    concurrence as concurrence_general,
    critical_window,
    fidelity_min_spectral,
    min_hs,
    min_hs_thermal,
    min_trace,
    thermal_measures,
)
from .model import ModelParams, build_hamiltonian, closed_form_spectrum, \
    thermal_elements, thermal_state
from .oracle import max_over_measurements, thermal_state_exp

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
    table = zip(values.tolist(), m.concurrence.tolist(), m.min_hs.tolist(),
                m.min_trace.tolist(), m.min_trace_paper.tolist(),
                m.min_fidelity.tolist(), _in_window(m).tolist())
    return [",".join((vary, _fmt(value), _fmt(conc), _fmt(conc / 2), _fmt(hs), _fmt(tr),
                      _fmt(paper), _fmt(fid), "true" if inside else "false"))
            for value, conc, hs, tr, paper, fid, inside in table]


def _write_csv(path, lines):
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for line in lines:
            fh.write(line + "\n")


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
    for suffix, fixed in variants:
        path = f"{stem}{suffix}.csv"
        lines = _sweep_lines(vary, start, stop, args.steps, fixed, lock=lock)
        try:
            _write_csv(path, lines)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
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
    return 0


def _verify_report(samples, seed):
    """Compare every closed formula against its oracle; returns (lines, ok)."""
    rng = np.random.default_rng(seed)
    lines = []
    ok = True

    def check(name, dev, tol, normative=True):
        nonlocal ok
        status = "PASS" if dev <= tol else "FAIL"
        if dev > tol and normative:
            ok = False
        if not normative:
            status = "INFO"
        lines.append(f"{name}: max_dev {dev:.3e} tol {tol:.1e} {status}")

    draws = rng.uniform(-5.0, 5.0, size=(samples, 5))
    # the production kernel over every sample at once, beta = 1
    kernel = thermal_measures(*draws.T, np.ones(samples))
    dev_state = dev_spec = dev_vec = dev_conc = 0.0
    dev_eq19 = dev_eq21 = dev_fid_oracle = dev_eq8 = 0.0
    ratios = []
    for i, vals in enumerate(draws):
        p = ModelParams(J=vals[0], Jz=vals[1], gamma=vals[2], B=vals[3], lam=vals[4])
        rho = thermal_state(p)
        dev_state = max(dev_state, float(np.max(np.abs(
            rho.matrix - thermal_state_exp(p).matrix))))
        sd = closed_form_spectrum(p)
        h = build_hamiltonian(p)
        numeric = np.linalg.eigvalsh(h)
        dev_spec = max(dev_spec, float(np.max(np.abs(
            np.sort(np.array(sd.energies)) - numeric))))
        for k in range(4):
            v = sd.eigenvectors[:, k]
            dev_vec = max(dev_vec, float(np.linalg.norm(h @ v - sd.energies[k] * v)))
        dev_conc = max(dev_conc, abs(kernel.concurrence[i] - concurrence_general(rho)))
        f = fano_decompose(rho)
        if float(np.linalg.norm(f.bloch_a)) > X_ZERO_TOL:
            dev_eq19 = max(dev_eq19, abs(kernel.min_hs[i] - min_hs(f)))
            spectral = fidelity_min_spectral(f)
            dev_eq21 = max(dev_eq21, abs(kernel.min_fidelity[i] - spectral))
            dev_fid_oracle = max(dev_fid_oracle, abs(
                max_over_measurements(rho, "one_minus_fidelity").value - spectral))
            tr_oracle = max_over_measurements(rho, "trace").value
            dev_eq8 = max(dev_eq8, abs(min_trace(f) - tr_oracle))
            printed = kernel.min_trace_paper[i]
            if printed > 1e-8:
                ratios.append(tr_oracle / printed)
    check("thermal_state_vs_exp_oracle", dev_state, 1e-10)
    check("spectrum_vs_numeric", dev_spec, 1e-10)
    check("eigenvector_residual", dev_vec, 1e-9)
    check("thermal_concurrence_vs_general", dev_conc, 1e-12)
    check("hs_min_thermal_vs_closed_form", dev_eq19, 1e-12)
    check("fidelity_min_thermal_vs_spectral", dev_eq21, 1e-9)
    check("fidelity_spectral_vs_measurement_oracle", dev_fid_oracle, 1e-9)
    check("trace_min_closed_form_vs_oracle", dev_eq8, 1e-6)
    if ratios:
        spread = max(ratios) - min(ratios)
        check("trace_min_printed_ratio_spread", spread, 1e-6)
        lines.append(f"trace_min_oracle_over_printed_ratio: {np.mean(ratios):.12g}")

    # documented (non-normative) divergence of the printed thermal HS formula
    # in the zero-local-Bloch regime
    p0 = ModelParams(J=1.0, Jz=-3.0, gamma=1.0)
    t0 = thermal_elements(p0)
    f0 = fano_decompose(thermal_state(p0))
    check("hs_min_printed_divergence_at_zero_bloch",
          abs(min_hs_thermal(t0) - min_hs(f0)), 0.0, normative=False)
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


def build_parser():
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
