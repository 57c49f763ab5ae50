"""Stacked forms of the general path against single-state calls: every
function that takes a stack of states, shape (n, 4, 4), or a batch of
parameter points gives on each state the value of the single-state call."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import diagonal_corr_states, random_state, random_x_state
from xyzmin.decomp import X_ZERO_TOL, fano_decompose, reconstruct
from xyzmin.errors import NotDiagonalCorrelation, StateInvalid
from xyzmin.linalg import as_matrix, is_hermitian
from xyzmin.measures import concurrence, min_fidelity, min_hs, min_trace
from xyzmin.model import (
    DensityMatrix,
    ModelParams,
    build_hamiltonian,
    closed_form_spectrum,
    thermal_elements,
    thermal_state,
)
from xyzmin.oracle import max_over_measurements, pinned_disturbance, thermal_state_exp

FIELDS = ("J", "Jz", "gamma", "B", "lam", "beta")
KINDS = ("hs_sq", "trace", "one_minus_fidelity")
# a stack's pinned trace objective takes an einsum per state where one state
# takes a vector-matrix product, so they agree to 1e-15, as the objective over
# a batch of axes agrees with single-axis calls
PINNED_TOL = {"hs_sq": 0.0, "trace": 1e-15, "one_minus_fidelity": 0.0}


def stack(states):
    return DensityMatrix(np.stack([rho.matrix for rho in states]))


def batch(points):
    return ModelParams(*(np.array([getattr(p, f) for p in points]) for f in FIELDS))


def assert_rows(stacked, singles, tol=0.0):
    """Row i of stacked against singles[i], nan where both are nan."""
    singles = np.array(singles)
    assert stacked.shape == singles.shape
    assert np.array_equal(np.isnan(stacked), np.isnan(singles))
    assert np.nanmax(np.abs(stacked - singles), initial=0.0) <= tol


def special_points():
    """Points on every branch of _pair_eigvecs and the thermal forms: J = 0,
    coupling gamma J = 0 with either sign of the diagonal gap, r = 0 in one
    or both 2x2 blocks, and zero local Bloch vector (B = lam = 0)."""
    return [
        ModelParams(J=0.0, Jz=1.0, gamma=2.0, B=-1.0, lam=0.5),   # J = 0
        ModelParams(J=1.3, Jz=0.4, gamma=0.0, B=0.7, lam=-0.2),   # coupling 0, gap > 0
        ModelParams(J=1.3, Jz=0.4, gamma=0.0, B=-0.7, lam=0.2),   # coupling 0, gap < 0
        ModelParams(J=0.0, Jz=-0.8, gamma=1.0, B=-2.0, lam=-1.0),  # both couplings 0
        ModelParams(J=1.0, Jz=1.0, gamma=0.0),                    # r = 0 in |00>, |11>
        ModelParams(Jz=0.3),                                      # r = 0 in both
        ModelParams(),                                            # H = 0
        ModelParams(J=1.2, Jz=-0.7, gamma=0.8),                   # zero Bloch
        ModelParams(J=-2.0, Jz=0.5, gamma=0.3, beta=0.7),         # zero Bloch
    ]


@pytest.fixture
def points(rng):
    drawn = [ModelParams(*rng.uniform(-5.0, 5.0, size=5), beta=rng.uniform(0.2, 2.0))
             for _ in range(12)]
    return drawn + special_points()


@pytest.fixture
def states(rng):
    """General complex states, X-states with zero and nonzero local Bloch
    vector (the zero-Bloch and aligned-axis branches) and diagonal-correlation
    states with the Bloch vector off every axis (the quartic branch)."""
    return ([random_state(rng) for _ in range(6)]
            + [random_x_state(rng) for _ in range(6)]
            + [random_x_state(rng, zero_bloch_a=True) for _ in range(6)]
            + diagonal_corr_states(rng, 6))


class TestLinalg:
    def test_as_matrix_takes_stacks(self):
        assert as_matrix(np.zeros((5, 4, 4))).shape == (5, 4, 4)
        for shape in ((5, 3, 3), (5, 4, 2), (2, 5, 4, 4)):
            with pytest.raises(ValueError):
                as_matrix(np.zeros(shape))

    def test_is_hermitian_over_a_stack(self):
        m = np.stack([np.eye(4, dtype=complex)] * 3)
        assert is_hermitian(m)
        m[1, 0, 1] = 1e-11
        assert not is_hermitian(m)


class TestDensityMatrix:
    def test_stack_keeps_each_state(self, states):
        rho = stack(states)
        assert rho.matrix.shape == (len(states), 4, 4)
        for i, single in enumerate(states):
            assert np.array_equal(rho.matrix[i], single.matrix)

    @pytest.mark.parametrize("bad", [np.diag([1.5, -0.5, 0.0, 0.0]),   # negative eigenvalue
                                     np.diag([0.5, 0.25, 0.2, 0.2]),   # trace 1.15
                                     np.eye(4) / 4 + np.triu(np.full((4, 4), 0.1), 1)])
    def test_one_invalid_state_fails_the_stack(self, states, bad):
        m = np.stack([rho.matrix for rho in states])
        m[3] = bad
        with pytest.raises(StateInvalid):
            DensityMatrix(m)


class TestModel:
    def test_hamiltonian_and_spectrum(self, points):
        p = batch(points)
        h, sd = build_hamiltonian(p), closed_form_spectrum(p)
        assert_rows(h, [build_hamiltonian(q) for q in points])
        singles = [closed_form_spectrum(q) for q in points]
        assert_rows(sd.eta, [s.eta for s in singles])
        assert_rows(sd.delta, [s.delta for s in singles])
        assert_rows(np.stack(sd.energies, axis=-1), [s.energies for s in singles])
        assert_rows(sd.eigenvectors, [s.eigenvectors for s in singles])
        # the basis-vector fallbacks are eigenvectors too
        residual = h @ sd.eigenvectors - sd.eigenvectors * np.stack(sd.energies, -1)[:, None]
        assert np.max(np.abs(residual)) < 1e-12
        gram = np.swapaxes(sd.eigenvectors.conj(), -1, -2) @ sd.eigenvectors
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    def test_thermal_states(self, points):
        p = batch(points)
        t = thermal_elements(p)
        for name, value in vars(t).items():
            assert_rows(value, [getattr(thermal_elements(q), name) for q in points])
        assert_rows(thermal_state(p).matrix, [thermal_state(q).matrix for q in points])
        assert_rows(thermal_state_exp(p).matrix, [thermal_state_exp(q).matrix for q in points])

    def test_params_checked_elementwise(self):
        ones = np.ones(3)
        with pytest.raises(ValueError, match="finite"):
            ModelParams(ones, ones, np.array([1.0, np.inf, 1.0]), ones, ones, ones)
        with pytest.raises(ValueError, match="beta must be positive"):
            ModelParams(ones, ones, ones, ones, ones, np.array([1.0, 1.0, -1.0]))

    def test_batches_hash_and_compare_by_identity(self):
        # array fields have no hash and no truth value, so a field-wise
        # __eq__ or __hash__ would raise on a batch
        two = np.array([1.0, 2.0])
        p, q = ModelParams(*[two] * 6), ModelParams(two + 1.0, *[two] * 5)
        for a, b in ((p, q), (thermal_elements(p), thermal_elements(q))):
            assert isinstance(hash(a), int)
            assert a == a and not a == b and a != b


class TestGeneralMeasures:
    def test_fano_form_and_reconstruction(self, states):
        f = fano_decompose(stack(states))
        for name in ("bloch_a", "bloch_b", "pauli_corr", "x", "y", "t", "gamma_full"):
            assert_rows(getattr(f, name), [getattr(fano_decompose(r), name) for r in states])
        assert_rows(reconstruct(f).matrix,
                    [reconstruct(fano_decompose(rho)).matrix for rho in states])

    def test_concurrence_min_hs_min_fidelity(self, states):
        rho = stack(states)
        f = fano_decompose(rho)
        assert_rows(concurrence(rho), [concurrence(r) for r in states])
        assert_rows(min_hs(f), [min_hs(fano_decompose(r)) for r in states])
        assert_rows(min_fidelity(f), [min_fidelity(fano_decompose(r)) for r in states])

    def test_min_trace_every_branch(self, states):
        diagonal = states[6:]  # X-states and diagonal-correlation states
        f = fano_decompose(stack(diagonal))
        norms = np.linalg.norm(f.bloch_a, axis=-1)
        pinned = norms > X_ZERO_TOL
        assert np.sum(~pinned) == 6  # zero Bloch
        aligned = np.abs(f.bloch_a[:, 2]) == norms
        off_axes = np.min(np.abs(f.bloch_a), axis=-1) >= 0.1 * norms  # the quartic
        assert np.sum(pinned & aligned) == 6 and np.sum(pinned & off_axes) == 6
        assert_rows(min_trace(f), [min_trace(fano_decompose(r)) for r in diagonal])

    def test_min_trace_raises_for_one_nondiagonal_state(self, states):
        with pytest.raises(NotDiagonalCorrelation):
            min_trace(fano_decompose(stack(states[5:])))  # one general state

    @pytest.mark.parametrize("kind", KINDS)
    def test_pinned_disturbance(self, states, kind):
        values = pinned_disturbance(stack(states), kind)
        singles = [pinned_disturbance(rho, kind) for rho in states]
        assert_rows(values, singles, PINNED_TOL[kind])
        for rho, value in zip(states, singles):
            res = max_over_measurements(rho, kind)
            # nan exactly where the oracle searches the free axis
            assert np.isnan(value) == res.refined
            if not res.refined:
                assert value == res.value


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(st.lists(st.tuples(st.integers(0, 2**32 - 1), st.booleans()), min_size=1, max_size=8))
def test_x_state_stacks_equal_single_calls(draws):
    states = [random_x_state(np.random.default_rng(seed), zero_bloch_a=zero)
              for seed, zero in draws]
    rho = stack(states)
    f = fano_decompose(rho)
    singles = [fano_decompose(r) for r in states]
    assert_rows(concurrence(rho), [concurrence(r) for r in states])
    for measure in (min_hs, min_trace, min_fidelity):
        assert_rows(measure(f), [measure(s) for s in singles])
    for kind in KINDS:
        assert_rows(pinned_disturbance(rho, kind),
                    [pinned_disturbance(r, kind) for r in states], PINNED_TOL[kind])
