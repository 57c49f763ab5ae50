import math

import mpmath
import numpy as np
import pytest

from conftest import (
    bell_phi_plus,
    diagonal_corr_states,
    kernel,
    maximally_mixed,
    printed_hs,
    random_params,
    random_unitary,
)
from xyzmin.decomp import fano_decompose
from xyzmin.errors import DomainError, NotDiagonalCorrelation
from xyzmin.measures import (
    concurrence,
    critical_window,
    min_fidelity,
    min_hs,
    min_trace,
)
from xyzmin.model import DensityMatrix, ModelParams, thermal_elements, thermal_state
from xyzmin.oracle import max_over_measurements

# frozen from the exp(-H)/Z oracle plus the general spin-flip spectrum route
CONC_XXX_J1 = 0.4224691884551877


def thermal_fano(p):
    return fano_decompose(thermal_state(p))


def printed_fidelity(f):
    """The printed fidelity-MIN formula, full-Gamma convention, for a != 0:
    (|Gamma|^2 - |A Gamma|^2) / |Gamma|^2 with the two rows of A equal to
    (1, +-a_hat) / sqrt(2)."""
    ahat = f.bloch_a / np.linalg.norm(f.bloch_a)
    a_op = np.array([np.r_[1.0, ahat], np.r_[1.0, -ahat]]) / math.sqrt(2.0)
    norm2 = np.sum(f.gamma_full ** 2)
    return (norm2 - np.sum((a_op @ f.gamma_full) ** 2)) / norm2


class TestConcurrence:
    def test_bell(self):
        assert concurrence(bell_phi_plus()) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert concurrence(maximally_mixed()) == 0.0

    def test_thermal_xxx(self):
        p = ModelParams(J=1.0, Jz=1.0)
        assert concurrence(thermal_state(p)) == pytest.approx(CONC_XXX_J1, abs=1e-12)
        assert kernel(p).concurrence == pytest.approx(CONC_XXX_J1, abs=1e-12)

    def test_diagonal_state_zero(self):
        assert kernel(ModelParams(Jz=1.3)).concurrence == 0.0

    def test_xxx_boundary(self):
        jc = math.log(3) / 2
        assert kernel(ModelParams(J=jc, Jz=jc)).concurrence == pytest.approx(
            0.0, abs=1e-12)

    def test_closed_form_matches_general(self, rng):
        for _ in range(100):
            p = random_params(rng)
            dev = abs(kernel(p).concurrence - concurrence(thermal_state(p)))
            assert dev < 1e-12


def critical_window_mp(p):
    """jc1, jc2 from the direct cosh/sinh form of the window, in 1,200-digit
    arithmetic (no overflow at any beta).  At J = 1, gamma = 1e-200, B = 1,
    beta = 500 the form cancels in more than 400 leading digits."""
    with mpmath.workdps(1200):
        b, j, B, lam = (mpmath.mpf(v) for v in (p.beta, p.J, p.B, p.lam))
        g = abs(mpmath.mpf(p.gamma) * j)
        eta = mpmath.sqrt(B ** 2 + g ** 2)
        delta = mpmath.sqrt(lam ** 2 + j ** 2)
        if eta > 0:
            mu_geo = mpmath.sqrt(mpmath.cosh(b * eta) ** 2
                                 - (B / eta) ** 2 * mpmath.sinh(b * eta) ** 2)
            kappa_mag = (g / eta) * mpmath.sinh(b * eta)
        else:
            mu_geo, kappa_mag = mpmath.mpf(1), mpmath.mpf(0)
        nu_geo = mpmath.sqrt(mpmath.cosh(b * delta) ** 2
                             - (lam / delta) ** 2 * mpmath.sinh(b * delta) ** 2)
        eps_mag = (abs(j) / delta) * mpmath.sinh(b * delta)
        jc1 = mpmath.log(kappa_mag / nu_geo) / b if kappa_mag > 0 else -math.inf
        jc2 = mpmath.log(mu_geo / eps_mag) / b
        return float(jc1), float(jc2)


class TestCriticalWindow:
    def test_xxz_j1(self):
        w = critical_window(ModelParams(J=1.0))
        assert w.jc1_unbounded
        assert w.jc2 == pytest.approx(-math.log(math.sinh(1.0)), abs=1e-14)
        assert w.jc2 == pytest.approx(-0.161, abs=1e-3)

    def test_xxz_j5(self):
        w = critical_window(ModelParams(J=5.0))
        assert w.jc2 == pytest.approx(-4.306, abs=1e-3)

    def test_xxx_self_consistency(self):
        jc = math.log(3) / 2
        assert jc == pytest.approx(-math.log(math.sinh(jc)), abs=1e-12)
        assert math.sinh(jc) == pytest.approx(1 / math.sqrt(3), abs=1e-12)

    def test_degenerate_j_zero(self):
        with pytest.raises(DomainError):
            critical_window(ModelParams(J=0.0))

    @pytest.mark.parametrize("params", [
        dict(J=1.0, beta=800.0),
        dict(J=1.0, gamma=0.5, B=2.0, lam=0.3, beta=1e4),
        dict(J=1.3, Jz=0.2, gamma=-0.4, B=0.7, lam=-0.5),
        dict(J=1.0, gamma=1e-200, B=1.0, beta=500.0),
    ], ids=["low_temperature", "low_temperature_anisotropic", "generic",
            "underflowing_anisotropy"])
    def test_matches_extended_precision(self, params):
        ref_jc1, ref_jc2 = critical_window_mp(ModelParams(**params))
        w = critical_window(ModelParams(**params))
        if ref_jc1 == -math.inf:
            assert w.jc1_unbounded
        else:
            assert abs(w.jc1 - ref_jc1) <= 1e-12 * abs(ref_jc1)
        assert abs(w.jc2 - ref_jc2) <= 1e-12 * abs(ref_jc2)

    def test_low_temperature_reference_values(self):
        assert critical_window_mp(ModelParams(J=1.0, beta=800.0))[1] == \
            pytest.approx(-0.9991335660243, abs=1e-13)
        jc1, jc2 = critical_window_mp(ModelParams(J=1.0, gamma=0.5, B=2.0, lam=0.3,
                                                  beta=1e4))
        assert jc1 == pytest.approx(1.0173848101353844, abs=1e-15)
        assert jc2 == pytest.approx(1.0173848101353844, abs=1e-15)
        jc1, jc2 = critical_window_mp(ModelParams(J=1.0, gamma=1e-200, B=1.0, beta=500.0))
        assert jc1 == pytest.approx(-0.92103403719761827, abs=1e-15)
        assert jc2 == pytest.approx(-0.92103403719761827, abs=1e-15)

    def test_window_matches_concurrence_zero_set(self, rng):
        for _ in range(25):
            j = rng.uniform(0.2, 4.0)
            g = rng.uniform(0.0, 2.0)
            b = rng.uniform(0.0, 2.0)
            w = critical_window(ModelParams(J=j, gamma=g, B=b))
            for jz in np.linspace(w.jc2 - 1.0, w.jc2 + 1.0, 41):
                if abs(jz - w.jc2) < 1e-6:
                    continue
                c = kernel(ModelParams(J=j, Jz=float(jz), gamma=g, B=b)).concurrence
                inside = (w.jc1 <= jz <= w.jc2)
                assert (c == 0.0) == inside
            if not w.jc1_unbounded:
                for jz in np.linspace(w.jc1 - 1.0, w.jc1 + 1.0, 41):
                    if abs(jz - w.jc1) < 1e-6 or jz > w.jc2 - 1e-6:
                        continue
                    c = kernel(ModelParams(J=j, Jz=float(jz), gamma=g, B=b)).concurrence
                    assert (c == 0.0) == (jz >= w.jc1)


class TestMinHS:
    def test_product_state(self):
        rho = DensityMatrix(np.diag([1.0, 0, 0, 0]).astype(complex))
        assert min_hs(fano_decompose(rho)) == pytest.approx(0.0, abs=1e-14)

    def test_bell(self):
        assert min_hs(fano_decompose(bell_phi_plus())) == pytest.approx(0.5, abs=1e-12)

    def test_thermal_with_field_matches_closed_form(self):
        p = ModelParams(J=1.0, B=1.0)
        assert min_hs(thermal_fano(p)) == pytest.approx(kernel(p).min_hs, abs=1e-13)

    def test_closed_form_agreement_with_field(self, rng):
        for _ in range(200):
            p = random_params(rng)
            f = thermal_fano(p)
            if np.linalg.norm(f.bloch_a) <= 1e-9:
                continue
            assert abs(min_hs(f) - kernel(p).min_hs) < 1e-12

    def test_zero_bloch_counterexample(self):
        # without a local Bloch vector the printed thermal formula can differ
        # from the branch formula; the latter agrees with the oracle
        p = ModelParams(J=1.0, Jz=-3.0, gamma=1.0)
        rho = thermal_state(p)
        f = fano_decompose(rho)
        formula = min_hs(f)
        printed = printed_hs(thermal_elements(p))
        oracle = max_over_measurements(rho, "hs_sq").value
        assert abs(formula - oracle) < 1e-8
        assert abs(printed - oracle) > 1e-3


class TestMinTrace:
    def test_bell(self):
        assert min_trace(fano_decompose(bell_phi_plus())) == pytest.approx(
            1.0, abs=1e-12)

    def test_diagonal_only_state(self):
        f = thermal_fano(ModelParams(Jz=1.0, B=0.7))
        assert min_trace(f) == pytest.approx(0.0, abs=1e-14)

    def test_thermal_with_field(self):
        p = ModelParams(J=1.0, B=0.5)
        t = thermal_elements(p)
        expected = 2 * (abs(t.kappa) + abs(t.epsilon)) / t.Z
        assert min_trace(thermal_fano(p)) == pytest.approx(expected, abs=1e-12)
        oracle = max_over_measurements(thermal_state(p), "trace").value
        assert min_trace(thermal_fano(p)) == pytest.approx(oracle, abs=1e-9)

    def test_quartic_branch_matches_pinned_oracle(self, rng):
        for rho in diagonal_corr_states(rng, 300):
            f = fano_decompose(rho)
            res = max_over_measurements(rho, "trace")
            assert not res.refined
            assert abs(min_trace(f) - res.value) <= 1e-12

    def test_rejects_nondiagonal_correlations(self, rng):
        rho = thermal_state(ModelParams(J=1.0, B=0.5))
        u = random_unitary(rng)
        m = np.kron(u, np.eye(2)) @ rho.matrix @ np.kron(u, np.eye(2)).conj().T
        with pytest.raises(NotDiagonalCorrelation):
            min_trace(fano_decompose(DensityMatrix(m)))


class TestMinFidelity:
    def test_maximally_mixed(self):
        assert min_fidelity(fano_decompose(maximally_mixed())) == 0.0

    def test_bell(self):
        assert min_fidelity(fano_decompose(bell_phi_plus())) == pytest.approx(
            0.5, abs=1e-12)

    def test_thermal_matches_closed_form(self, rng):
        for _ in range(200):
            p = random_params(rng)
            f = thermal_fano(p)
            if np.linalg.norm(f.bloch_a) <= 1e-9:
                continue
            assert abs(min_fidelity(f) - kernel(p).min_fidelity) < 1e-9


    def test_printed_formula_on_general_states(self, rng):
        for rho in diagonal_corr_states(rng, 300):
            f = fano_decompose(rho)
            assert abs(printed_fidelity(f) - min_fidelity(f)) <= 1e-12


class TestThermalForms:
    def test_all_zero_without_coupling(self):
        m = kernel(ModelParams(Jz=2.0, B=1.0))
        assert m.min_hs == 0.0
        assert m.min_trace_paper == 0.0
        assert m.min_fidelity == 0.0

    def test_xxx_value(self):
        p = ModelParams(J=1.0, Jz=1.0)
        t = thermal_elements(p)
        expected = 2 * t.epsilon ** 2 / t.Z ** 2
        assert kernel(p).min_hs == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.1891, abs=1e-3)
        oracle = max_over_measurements(thermal_state(ModelParams(J=1.0, Jz=1.0)),
                                       "hs_sq", grid=(61, 121)).value
        assert expected == pytest.approx(oracle, abs=1e-9)

    def test_field_decay(self):
        vals = [kernel(ModelParams(J=1.0, Jz=0.5, B=b)).min_hs
                for b in (0.0, 2.0, 5.0, 10.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3


class TestSymmetryAndRange:
    def test_even_in_gamma_and_field(self, rng):
        for _ in range(100):
            p = random_params(rng)
            base = kernel(p)
            for flipped in (
                ModelParams(J=p.J, Jz=p.Jz, gamma=-p.gamma, B=p.B, lam=p.lam),
                ModelParams(J=p.J, Jz=p.Jz, gamma=p.gamma, B=-p.B, lam=p.lam),
            ):
                other = kernel(flipped)
                assert abs(base.concurrence - other.concurrence) < 1e-12
                assert abs(base.min_hs - other.min_hs) < 1e-12
                assert abs(base.min_trace - other.min_trace) < 1e-12
                assert abs(base.min_fidelity - other.min_fidelity) < 1e-12

    def test_min_ranges_on_thermal_family(self, rng):
        for _ in range(100):
            rep = kernel(random_params(rng))
            assert 0.0 <= rep.min_hs <= 0.5 + 1e-12
            assert 0.0 <= rep.min_fidelity <= 0.5 + 1e-12
            assert 0.0 <= rep.concurrence <= 1.0 + 1e-12

    def test_local_unitary_invariance(self, rng):
        for _ in range(20):
            p = random_params(rng)
            rho = thermal_state(p)
            u, v = random_unitary(rng), random_unitary(rng)
            uv = np.kron(u, v)
            rot = DensityMatrix(uv @ rho.matrix @ uv.conj().T)
            f, fr = fano_decompose(rho), fano_decompose(rot)
            assert abs(min_hs(f) - min_hs(fr)) < 1e-8
            assert abs(min_fidelity(f) - min_fidelity(fr)) < 1e-8
            tr0 = max_over_measurements(rho, "trace").value
            tr1 = max_over_measurements(rot, "trace").value
            assert abs(tr0 - tr1) < 1e-8
