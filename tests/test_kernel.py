"""The vectorized X-state kernel against the general 4x4/Fano path, branch by
branch, plus its batch consistency and its per-point checks."""

import numpy as np
import pytest

from xyzmin.cli import main
from xyzmin.decomp import X_ZERO_TOL, fano_decompose
from xyzmin.errors import StateInvalid
from xyzmin.measures import (
    concurrence,
    min_fidelity,
    min_hs,
    min_trace,
    thermal_measures,
)
from xyzmin.model import (
    DensityMatrix,
    ModelParams,
    check_xstate,
    thermal_elements,
    thermal_state,
)
from xyzmin.oracle import thermal_state_exp

TOL = 1e-13
FIELDS = ("J", "Jz", "gamma", "B", "lam", "beta")
MEASURES = ("a_z", "b_z", "c_xx", "c_yy", "c_zz", "concurrence", "min_hs",
            "min_trace", "min_trace_paper", "min_fidelity")
ELEMENTS = ("mu_plus", "mu_minus", "nu_plus", "nu_minus", "kappa", "epsilon", "Z")


def draw(rng, branch, n=40):
    """Parameters that take the named branch of the kernel."""
    out = []
    for _ in range(n):
        j, jz, g, b, lam = rng.uniform(-5.0, 5.0, size=5)
        beta = float(np.exp(rng.uniform(np.log(0.2), np.log(2.0))))
        # a quarter of the tiny values are exactly 0, where sinh(x)/x is 0/0
        tiny = lambda: float(rng.uniform(-1e-10, 1e-10)) * (rng.random() < 0.75)  # noqa: E731
        if branch == "zero_bloch":
            b = lam = 0.0
        elif branch == "tiny_eta":  # sinhc series for eta = |(B, gamma J)|
            b, g = tiny(), 0.0
        elif branch == "tiny_delta":  # sinhc series for delta = |(lam, J)|
            j, lam = tiny(), tiny()
        elif branch == "j_zero":
            j = 0.0
        out.append(ModelParams(J=j, Jz=jz, gamma=g, B=b, lam=lam, beta=beta))
    return out


def batch(points):
    return thermal_measures(*(np.array([getattr(p, f) for p in points]) for f in FIELDS))


def general_path(p):
    """Every kernel output from the 4x4 state and the general measures; the
    printed trace-MIN value (|kappa| + |epsilon|) / Z from the elements."""
    rho = thermal_state(p)
    f = fano_decompose(rho)
    t = thermal_elements(p)
    return {
        "a_z": f.bloch_a[2], "b_z": f.bloch_b[2], "c_xx": f.pauli_corr[0, 0],
        "c_yy": f.pauli_corr[1, 1], "c_zz": f.pauli_corr[2, 2],
        "concurrence": concurrence(rho), "min_hs": min_hs(f), "min_trace": min_trace(f),
        "min_trace_paper": (abs(t.kappa) + abs(t.epsilon)) / t.Z,
        "min_fidelity": min_fidelity(f),
    }, f


@pytest.mark.parametrize("branch", ["generic", "zero_bloch", "tiny_eta", "tiny_delta",
                                    "j_zero"])
def test_kernel_matches_general_path(rng, branch):
    points = draw(rng, branch)
    m = batch(points)
    for i, p in enumerate(points):
        ref, f = general_path(p)
        # the branch under test is the one taken
        zero = np.linalg.norm(f.bloch_a) <= X_ZERO_TOL
        assert zero == (branch == "zero_bloch")
        assert abs(m.a_z[i]) <= X_ZERO_TOL if zero else abs(m.a_z[i]) > X_ZERO_TOL
        if not zero:  # aligned shortcut: the Bloch vector lies along z
            assert f.bloch_a[0] == 0.0 and f.bloch_a[1] == 0.0
        for name in MEASURES:
            assert abs(getattr(m, name)[i] - ref[name]) <= TOL, (branch, name, p)


@pytest.mark.parametrize("branch", ["tiny_eta", "tiny_delta"])
def test_sinhc_series_matches_exp_oracle(rng, branch):
    points = draw(rng, branch, n=20)
    m = batch(points)
    t = m.elements
    for i, p in enumerate(points):
        assert p.beta * max(abs(p.B), abs(p.gamma * p.J)) < 1e-8 or branch == "tiny_delta"
        assert p.beta * max(abs(p.lam), abs(p.J)) < 1e-8 or branch == "tiny_eta"
        ref = thermal_state_exp(p).matrix.real
        got = np.array([t.mu_minus[i], t.nu_minus[i], t.nu_plus[i], t.mu_plus[i],
                        t.kappa[i], t.epsilon[i]]) / t.Z[i]
        want = [ref[0, 0], ref[1, 1], ref[2, 2], ref[3, 3], ref[0, 3], ref[1, 2]]
        assert np.max(np.abs(got - want)) <= 1e-12


def test_batch_values_equal_batch_of_one_bitwise(rng):
    points = [p for branch in ("generic", "zero_bloch", "tiny_eta", "tiny_delta", "j_zero")
              for p in draw(rng, branch, n=9)]
    m = batch(points)
    for i, p in enumerate(points):
        one = thermal_measures(p.J, p.Jz, p.gamma, p.B, p.lam, p.beta)
        for name in MEASURES:
            assert getattr(m, name)[i].tobytes() == getattr(one, name).tobytes()
        for name in ELEMENTS:
            assert (getattr(m.elements, name)[i].tobytes()
                    == getattr(one.elements, name).tobytes())
        assert thermal_elements(p).Z == m.elements.Z[i]


def test_low_temperature_raises_instead_of_inf():
    p = ModelParams(J=1.0, beta=800.0)
    with pytest.raises(FloatingPointError):
        thermal_measures(p.J, p.Jz, p.gamma, p.B, p.lam, p.beta)
    with pytest.raises(FloatingPointError):
        thermal_elements(p)
    # the CLI turns the FloatingPointError into a one-line error and exit 2
    assert main(["point", "--J", "1", "--beta", "800"]) == 2


def test_batch_runs_the_model_params_checks():
    ones = np.ones(3)
    with pytest.raises(ValueError, match="finite"):
        thermal_measures(np.array([1.0, np.nan, 1.0]), ones, ones, ones, ones, ones)
    with pytest.raises(ValueError, match="beta must be positive"):
        thermal_measures(ones, ones, ones, ones, ones, np.array([1.0, 0.0, 1.0]))


@pytest.mark.parametrize("d, k, e", [
    ((1.5, -0.5, 0.0, 0.0), 0.0, 0.0),      # negative diagonal
    ((0.5, 0.25, 0.2, 0.2), 0.0, 0.0),      # trace 1.15
    ((0.25, 0.25, 0.25, 0.25), 0.5, 0.0),   # outer block eigenvalue -0.25
    ((0.25, 0.25, 0.25, 0.25), 0.0, -0.3),  # inner block eigenvalue -0.05
])
def test_closed_form_state_checks_agree_with_density_matrix(d, k, e):
    m = np.diag(d).astype(complex)
    m[0, 3] = m[3, 0] = k
    m[1, 2] = m[2, 1] = e
    with pytest.raises(StateInvalid):
        DensityMatrix(m)
    with pytest.raises(StateInvalid):
        check_xstate(*(np.array([v]) for v in (*d, k, e)))
    check_xstate(*(np.array([v]) for v in (0.25, 0.25, 0.25, 0.25, 0.25, -0.25)))
