"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import math

import numpy as np

from conftest import (
    bell_phi_plus,
    kernel,
    printed_hs,
    random_params,
    random_unitary,
    random_x_state,
)
from xyzmin.cli import main
from xyzmin.decomp import fano_decompose
from xyzmin.linalg import kron
from xyzmin.measures import (
    critical_window,
    min_fidelity,
    min_hs,
    min_trace,
)
from xyzmin.model import (
    DensityMatrix,
    ModelParams,
    build_hamiltonian,
    closed_form_spectrum,
    thermal_elements,
    thermal_state,
)
from xyzmin.oracle import max_over_measurements, thermal_state_exp

SMALL_GRID = (61, 121)


def report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {desc}: {status}{suffix}")
    assert ok, f"criterion {num} failed{suffix}"


def test_01_xxx_critical_point():
    from scipy.optimize import brentq

    def gap(jz):
        return critical_window(ModelParams(J=jz, Jz=jz)).jc2 - jz

    root = brentq(gap, 0.1, 2.0, xtol=1e-14)
    dev = abs(root - math.log(3) / 2)
    report(1, "XXX critical point at ln(3)/2", dev <= 1e-9, f"dev {dev:.2e}")


def test_02_xxz_critical_points():
    jc2_1 = critical_window(ModelParams(J=1.0)).jc2
    jc2_5 = critical_window(ModelParams(J=5.0)).jc2
    ok = abs(jc2_1 - (-0.161)) <= 1e-3 and abs(jc2_5 - (-4.306)) <= 1e-3
    report(2, "XXZ critical points -0.161 and -4.306", ok,
           f"jc2(1) {jc2_1:.5f} jc2(5) {jc2_5:.5f}")


def test_03_thermal_state_equivalence():
    rng = np.random.default_rng(3)
    dev = 0.0
    for _ in range(1000):
        p = random_params(rng)
        dev = max(dev, float(np.max(np.abs(
            thermal_state(p).matrix - thermal_state_exp(p).matrix))))
    report(3, "closed-form thermal state vs exp oracle", dev <= 1e-10,
           f"max dev {dev:.2e}")


def test_04_spectrum_equivalence():
    rng = np.random.default_rng(4)
    dev_e = dev_v = 0.0
    for _ in range(1000):
        p = random_params(rng)
        sd = closed_form_spectrum(p)
        h = build_hamiltonian(p)
        dev_e = max(dev_e, float(np.max(np.abs(
            np.sort(np.array(sd.energies)) - np.linalg.eigvalsh(h)))))
        for k in range(4):
            v = sd.eigenvectors[:, k]
            dev_v = max(dev_v, float(np.linalg.norm(h @ v - sd.energies[k] * v)))
    report(4, "closed-form spectrum vs numeric eigensolver",
           dev_e <= 1e-10 and dev_v <= 1e-9,
           f"eigenvalue dev {dev_e:.2e} residual {dev_v:.2e}")


def _random_mixed_state(rng):
    rho = thermal_state(random_params(rng)).matrix
    u = kron(random_unitary(rng), random_unitary(rng))
    rho = u @ rho @ u.conj().T
    if rng.uniform() < 0.5:
        other = thermal_state(random_params(rng)).matrix
        v = kron(random_unitary(rng), random_unitary(rng))
        w = rng.uniform(0.1, 0.9)
        rho = w * rho + (1 - w) * (v @ other @ v.conj().T)
    return DensityMatrix(rho)


def test_05_hs_min_formula_vs_oracle():
    rng = np.random.default_rng(5)
    dev_general = 0.0
    for _ in range(200):
        rho = _random_mixed_state(rng)
        f = fano_decompose(rho)
        oracle = max_over_measurements(rho, "hs_sq", grid=SMALL_GRID).value
        dev_general = max(dev_general, abs(min_hs(f) - oracle))
    dev_thermal = 0.0
    n = 0
    while n < 500:
        p = random_params(rng)
        f = fano_decompose(thermal_state(p))
        if np.linalg.norm(f.bloch_a) <= 1e-9:
            continue
        n += 1
        dev_thermal = max(dev_thermal, abs(kernel(p).min_hs - min_hs(f)))
    p0 = ModelParams(J=1.0, Jz=-3.0, gamma=1.0)
    rho0 = thermal_state(p0)
    gap = abs(printed_hs(thermal_elements(p0))
              - max_over_measurements(rho0, "hs_sq", grid=SMALL_GRID).value)
    ok = dev_general <= 1e-6 and dev_thermal <= 1e-12 and gap > 1e-3
    report(5, "HS-MIN closed form vs measurement oracle", ok,
           f"general {dev_general:.2e} thermal {dev_thermal:.2e} "
           f"zero-bloch counterexample gap {gap:.2e}")


def test_06_fidelity_min_triple_agreement():
    rng = np.random.default_rng(6)
    dev_oracle = dev_closed = 0.0
    for _ in range(500):
        p = random_params(rng)
        rho = thermal_state(p)
        f = fano_decompose(rho)
        spectral = min_fidelity(f)
        dev_oracle = max(dev_oracle, abs(
            max_over_measurements(rho, "one_minus_fidelity", grid=SMALL_GRID).value
            - spectral))
        if np.linalg.norm(f.bloch_a) > 1e-9:
            dev_closed = max(dev_closed, abs(kernel(p).min_fidelity - spectral))
    bell_dev = abs(min_fidelity(fano_decompose(bell_phi_plus())) - 0.5)
    ok = dev_oracle <= 1e-9 and dev_closed <= 1e-9 and bell_dev <= 1e-12
    report(6, "F-MIN spectral vs oracle vs thermal closed form", ok,
           f"oracle {dev_oracle:.2e} closed {dev_closed:.2e} bell {bell_dev:.2e}")


def test_07_trace_min_formula_and_ratio():
    rng = np.random.default_rng(7)
    dev = 0.0
    for i in range(200):
        rho = random_x_state(rng, zero_bloch_a=(i % 40 == 0))
        oracle = max_over_measurements(rho, "trace", grid=SMALL_GRID).value
        dev = max(dev, abs(min_trace(fano_decompose(rho)) - oracle))
    ratios = []
    while len(ratios) < 200:
        p = random_params(rng)
        if abs(p.B) < 0.05:
            continue
        printed = kernel(p).min_trace_paper
        if printed < 1e-8:
            continue
        oracle = max_over_measurements(thermal_state(p), "trace").value
        ratios.append(oracle / printed)
    spread = max(ratios) - min(ratios)
    ok = dev <= 1e-6 and spread <= 1e-6
    report(7, "T-MIN closed form vs trace-norm oracle", ok,
           f"max dev {dev:.2e} ratio {np.mean(ratios):.9f} spread {spread:.2e}")


def test_08_correlation_without_entanglement():
    p = ModelParams(J=0.4, Jz=0.4)
    conc = kernel(p).concurrence
    hs = min_hs(fano_decompose(thermal_state(p)))
    ok = conc == 0.0 and hs >= 0.01
    report(8, "zero concurrence with nonzero HS-MIN at J=Jz=0.4", ok,
           f"concurrence {conc} min_hs {hs:.4f}")


def test_09_field_monotonicity():
    grid = np.arange(0.0, 5.0 + 1e-12, 0.05)
    reports = [kernel(ModelParams(J=2.0, Jz=-1.0, gamma=0.5, B=float(b))) for b in grid]
    ok = True
    for name in ("min_hs", "min_trace", "min_fidelity"):
        diffs = np.diff([getattr(r, name) for r in reports])
        ok = ok and bool(np.all(diffs <= 1e-12))
    conc_diffs = np.diff([r.concurrence for r in reports])
    signs = np.sign(conc_diffs[np.abs(conc_diffs) > 1e-12])
    changes = int(np.sum(signs[1:] != signs[:-1]))
    ok = ok and changes == 1 and signs[0] > 0 and signs[-1] < 0
    report(9, "MINs decay and concurrence is unimodal in the field", ok,
           f"sign changes {changes}")


def test_10_symmetry_suite():
    rng = np.random.default_rng(10)
    dev = 0.0
    for _ in range(100):
        p = random_params(rng)
        base = kernel(p)
        for flipped in (
            ModelParams(J=p.J, Jz=p.Jz, gamma=-p.gamma, B=p.B, lam=p.lam),
            ModelParams(J=p.J, Jz=p.Jz, gamma=p.gamma, B=-p.B, lam=p.lam),
        ):
            other = kernel(flipped)
            for name in ("concurrence", "min_hs", "min_trace", "min_trace_paper",
                         "min_fidelity"):
                dev = max(dev, abs(getattr(base, name) - getattr(other, name)))
    report(10, "all measures even in gamma and B", dev <= 1e-12, f"max dev {dev:.2e}")


def test_11_maximal_correlation_at_maximal_entanglement():
    p = ModelParams(J=3.0, Jz=3.0)
    conc = kernel(p).concurrence
    hs = min_hs(fano_decompose(thermal_state(p)))
    ok = conc >= 0.9 and hs >= 0.45
    report(11, "antiferromagnetic XXX near maximal values", ok,
           f"concurrence {conc:.4f} min_hs {hs:.4f}")


def test_12_csv_determinism(tmp_path):
    a = tmp_path / "runA"
    b = tmp_path / "runB"
    assert main(["figure", "1", "--out", str(a)]) == 0
    assert main(["figure", "1", "--out", str(b)]) == 0
    same = (a.with_suffix(".csv").read_bytes() == b.with_suffix(".csv").read_bytes())
    report(12, "figure 1 CSV is byte-identical across runs", same)
