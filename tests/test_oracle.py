import math

import numpy as np
import pytest

from conftest import (
    bell_phi_plus,
    kernel,
    maximally_mixed,
    random_params,
    random_state,
    random_x_state,
)
from xyzmin.decomp import fano_decompose
from xyzmin.measures import min_fidelity, min_hs, min_trace
from xyzmin.model import DensityMatrix, ModelParams, thermal_state
from xyzmin.oracle import (
    DEFAULT_GRID,
    MeasurementAxis,
    _Sandwiches,
    _axis_products,
    _grid,
    _measure,
    _objective,
    fidelity_wang,
    max_over_measurements,
    post_measurement_state,
    thermal_state_exp,
)

Z_AXIS = MeasurementAxis(theta=0.0, phi=0.0)
X_AXIS = MeasurementAxis(theta=math.pi / 2, phi=0.0)
SMALL_GRID = (61, 121)
KINDS = ("hs_sq", "trace", "one_minus_fidelity")

_SIGMA_A = [np.kron(np.array(p, dtype=complex), np.eye(2)) for p in
            ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])]


def projector_measure(m, axes):
    """Reference: the literal projector form kp m kp + km m km with
    kp, km = (I +- n.sigma x I)/2, for axes of shape (..., 3)."""
    ns = sum(axes[..., i, None, None] * _SIGMA_A[i] for i in range(3))
    kp = (np.eye(4) + ns) / 2.0
    km = (np.eye(4) - ns) / 2.0
    return kp @ m @ kp + km @ m @ km


def projector_objective(m, axes, kind):
    """Reference disturbances, from their definitions on m - sigma."""
    sigma = projector_measure(m, axes)
    d = m - sigma
    if kind == "hs_sq":
        return np.sum(np.abs(d) ** 2, axis=(-2, -1))
    if kind == "trace":
        return np.sum(np.abs(np.linalg.eigvalsh(d)), axis=-1)
    tr_ms = np.trace(m @ sigma, axis1=-2, axis2=-1).real
    tr_ss = np.trace(sigma @ sigma, axis1=-2, axis2=-1).real
    return 1.0 - tr_ms ** 2 / (np.trace(m @ m).real * tr_ss)


def measure(m, axes):
    return _measure(_Sandwiches(m), _axis_products(axes))


def objective(m, axes, kind):
    return _objective(_Sandwiches(m), _axis_products(axes), kind)


def default_grid_axes():
    """The hemisphere of axes that max_over_measurements searches at DEFAULT_GRID."""
    tt, pp = np.meshgrid(np.linspace(0.0, math.pi / 2, DEFAULT_GRID[0] // 2 + 1),
                         np.linspace(0.0, 2 * math.pi, DEFAULT_GRID[1], endpoint=False),
                         indexing="ij")
    return np.stack([np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1)


def unit_axes(rng, shape):
    v = rng.normal(size=shape + (3,))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


class TestMeasurementAxis:
    def test_unit_vector(self):
        a = MeasurementAxis(theta=1.1, phi=2.3)
        assert np.linalg.norm(a.n) == pytest.approx(1.0, abs=1e-12)

    def test_from_vector_round_trip(self, rng):
        for _ in range(20):
            v = rng.normal(size=3)
            a = MeasurementAxis.from_vector(v)
            assert np.allclose(a.n, v / np.linalg.norm(v), atol=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            MeasurementAxis.from_vector([0, 0, 0])


class TestPostMeasurement:
    def test_maximally_mixed_invariant(self):
        rho = maximally_mixed()
        out = post_measurement_state(rho, MeasurementAxis(theta=0.7, phi=1.9))
        assert np.allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_z_axis_on_x_state_kills_coherences(self):
        rho = thermal_state(ModelParams(J=1.0, Jz=0.5, B=0.3))
        out = post_measurement_state(rho, Z_AXIS)
        assert np.allclose(out.matrix, np.diag(np.diag(rho.matrix)), atol=1e-14)
        # the reduced state of the measured qubit is untouched
        def reduced_a(m):
            return np.array([[np.trace(m[:2, :2]), m[0, 2] + m[1, 3]],
                             [m[2, 0] + m[3, 1], np.trace(m[2:, 2:])]])

        assert np.allclose(reduced_a(rho.matrix), reduced_a(out.matrix), atol=1e-14)

    def test_x_axis_on_bell(self):
        out = post_measurement_state(bell_phi_plus(), X_AXIS)
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
        expected = (np.outer(np.kron(plus, plus), np.kron(plus, plus).conj())
                    + np.outer(np.kron(minus, minus), np.kron(minus, minus).conj())) / 2
        assert np.allclose(out.matrix, expected, atol=1e-14)

    def test_idempotent(self, rng):
        rho = thermal_state(random_params(rng))
        axis = MeasurementAxis(theta=0.9, phi=0.4)
        once = post_measurement_state(rho, axis)
        twice = post_measurement_state(once, axis)
        assert np.max(np.abs(once.matrix - twice.matrix)) < 1e-12


class TestMeasureMatchesProjectors:
    def test_general_states_all_axis_shapes(self, rng):
        for _ in range(5):
            m = random_state(rng).matrix
            for shape in ((), (7,), (3, 5)):
                axes = unit_axes(rng, shape)
                out = measure(m, axes)
                assert out.shape == shape + (4, 4)
                assert np.max(np.abs(out - projector_measure(m, axes))) <= 1e-15

    def test_objective_over_default_grid(self, rng):
        axes = default_grid_axes().reshape(-1, 3)
        assert len(axes) == 91 * 361
        # a zero-Bloch thermal X-state and two complex non-X states: the
        # quadratic forms assume no X-state structure
        states = [thermal_state(ModelParams(J=1.2, Jz=-0.7, gamma=0.8)).matrix,
                  random_state(rng).matrix, random_state(rng).matrix]
        for m in states:
            for kind in KINDS:
                dev = np.abs(objective(m, axes, kind) - projector_objective(m, axes, kind))
                assert np.max(dev) <= 1e-14


class TestFidelityWang:
    def test_self_fidelity(self, rng):
        rho = thermal_state(random_params(rng))
        assert fidelity_wang(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_supports(self):
        a = DensityMatrix(np.diag([0.5, 0.5, 0, 0]).astype(complex))
        b = DensityMatrix(np.diag([0, 0, 0.5, 0.5]).astype(complex))
        assert fidelity_wang(a, b) == 0.0

    def test_bell_against_measured_bell(self):
        rho = bell_phi_plus()
        sigma = post_measurement_state(rho, Z_AXIS)
        assert fidelity_wang(rho, sigma) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric(self, rng):
        a = thermal_state(random_params(rng))
        b = thermal_state(random_params(rng))
        assert fidelity_wang(a, b) == pytest.approx(fidelity_wang(b, a), abs=1e-14)


class TestMaxOverMeasurements:
    def test_product_state_hs_zero(self):
        rho = DensityMatrix(np.diag([1.0, 0, 0, 0]).astype(complex))
        assert max_over_measurements(rho, "hs_sq", grid=SMALL_GRID).value < 1e-10

    def test_bell_values(self):
        rho = bell_phi_plus()
        assert max_over_measurements(rho, "hs_sq", grid=SMALL_GRID).value == \
            pytest.approx(0.5, abs=1e-9)
        assert max_over_measurements(rho, "trace", grid=SMALL_GRID).value == \
            pytest.approx(1.0, abs=1e-9)
        assert max_over_measurements(rho, "one_minus_fidelity", grid=SMALL_GRID).value \
            == pytest.approx(0.5, abs=1e-9)

    def test_pinned_axis_for_local_bloch(self):
        rho = thermal_state(ModelParams(J=2.0, Jz=-1.0, gamma=0.5, B=1.0))
        res = max_over_measurements(rho, "hs_sq")
        assert not res.refined
        # the axis is pinned to the local Bloch direction, up to antipodes
        assert np.allclose(np.abs(res.argmax_axis.n), [0, 0, 1], atol=1e-12)

    def test_thermal_hs_matches_closed_form(self):
        p = ModelParams(J=2.0, Jz=-1.0, gamma=0.5, B=1.0)
        rho = thermal_state(p)
        assert max_over_measurements(rho, "hs_sq").value == pytest.approx(
            kernel(p).min_hs, abs=1e-10)

    def test_grid_value_dominates_random_axes_when_unconstrained(self, rng):
        rho = thermal_state(ModelParams(J=1.2, Jz=-0.7, gamma=0.8))
        for kind in ("hs_sq", "trace", "one_minus_fidelity"):
            res = max_over_measurements(rho, kind, grid=SMALL_GRID)
            for _ in range(64):
                v = rng.normal(size=3)
                assert res.value >= objective(rho.matrix, v / np.linalg.norm(v),
                                              kind) - 1e-10

    def test_objective_batch_equals_single_axis_calls(self, rng):
        for rho in (random_state(rng), thermal_state(random_params(rng))):
            axes = rng.normal(size=(16, 3))
            axes /= np.linalg.norm(axes, axis=1, keepdims=True)
            for kind in ("hs_sq", "trace", "one_minus_fidelity"):
                batch = objective(rho.matrix, axes, kind)
                single = [float(objective(rho.matrix, n, kind)) for n in axes]
                assert batch.shape == (16,)
                assert np.max(np.abs(batch - single)) <= 1e-15

    def test_grid_cached_read_only_and_calls_repeat_bitwise(self):
        for a in _grid(DEFAULT_GRID):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
        rho = thermal_state(ModelParams(J=1.2, Jz=-0.7, gamma=0.8))
        for kind in KINDS:
            first = max_over_measurements(rho, kind)
            second = max_over_measurements(rho, kind)
            assert (second.value, second.argmax_axis, second.grid_resolution,
                    second.refined) == (first.value, first.argmax_axis,
                                        first.grid_resolution, first.refined)

    # values of the projector-form oracle at DEFAULT_GRID (hs_sq, trace,
    # one_minus_fidelity) on zero-Bloch thermal states
    PINNED = [
        (dict(J=1.2, Jz=-0.7, gamma=0.8),
         (0.16682261013478128, 0.7778114250330088, 0.3947374814281259)),
        (dict(J=2.0, Jz=0.5, gamma=0.3, beta=0.7),
         (0.21830159847003808, 0.756871217114269, 0.4162520455345876)),
        (dict(J=-1.5, Jz=1.1, gamma=-0.6, beta=2.0),
         (0.46476448682190263, 0.9934591971637835, 0.4990065074265738)),
    ]

    @pytest.mark.parametrize("params,values", PINNED)
    def test_default_grid_values_pinned(self, params, values):
        rho = thermal_state(ModelParams(**params))
        for kind, value in zip(KINDS, values):
            res = max_over_measurements(rho, kind)
            assert res.refined
            assert abs(res.value - value) <= 1e-14

    # a known miss of the grid oracle: two Pauli correlation magnitudes nearly
    # tie, and Nelder-Mead from the grid argmax stalls on a saddle short of the
    # maximum (misses of about 3.4e-6 in hs_sq and 6.8e-6 in one_minus_fidelity);
    # an exact maximum for these two kinds turns these into XPASS
    TIE_MISS = dict(J=-3.7552, Jz=-0.2929, gamma=0.9462, beta=1.1489)

    @pytest.mark.xfail(strict=True, reason="grid oracle stalls on a saddle near a tie")
    @pytest.mark.parametrize("kind,closed_form", [("hs_sq", min_hs),
                                                  ("one_minus_fidelity", min_fidelity)])
    def test_tie_miss_state(self, kind, closed_form):
        rho = thermal_state(ModelParams(**self.TIE_MISS))
        res = max_over_measurements(rho, kind)
        assert abs(res.value - closed_form(fano_decompose(rho))) <= 1e-9

    def test_hs_oracle_matches_branch_formula_at_zero_bloch(self, rng):
        for _ in range(5):
            rho = random_x_state(rng, zero_bloch_a=True)
            f = fano_decompose(rho)
            res = max_over_measurements(rho, "hs_sq", grid=SMALL_GRID)
            assert abs(res.value - min_hs(f)) < 1e-8

    def test_trace_oracle_matches_formula_on_x_states(self, rng):
        for _ in range(5):
            rho = random_x_state(rng, zero_bloch_a=True)
            res = max_over_measurements(rho, "trace", grid=SMALL_GRID)
            assert abs(res.value - min_trace(fano_decompose(rho))) < 1e-6


class TestFidelitySpectral:
    def test_bell(self):
        assert min_fidelity(fano_decompose(bell_phi_plus())) == \
            pytest.approx(0.5, abs=1e-12)

    def test_maximally_mixed(self):
        assert min_fidelity(fano_decompose(maximally_mixed())) == 0.0

    def test_matches_measurement_oracle(self, rng):
        for _ in range(100):
            rho = thermal_state(random_params(rng))
            f = fano_decompose(rho)
            res = max_over_measurements(rho, "one_minus_fidelity", grid=SMALL_GRID)
            assert abs(res.value - min_fidelity(f)) < 1e-9

    def test_matches_grid_oracle_at_zero_bloch(self, rng):
        for _ in range(5):
            rho = random_x_state(rng, zero_bloch_a=True)
            f = fano_decompose(rho)
            res = max_over_measurements(rho, "one_minus_fidelity", grid=SMALL_GRID)
            assert abs(res.value - min_fidelity(f)) < 1e-8


class TestThermalExp:
    def test_zero_hamiltonian(self):
        rho = thermal_state_exp(ModelParams())
        assert np.allclose(rho.matrix, np.eye(4) / 4, atol=1e-14)

    def test_matches_closed_form(self, rng):
        for _ in range(300):
            p = random_params(rng)
            dev = np.max(np.abs(thermal_state_exp(p).matrix - thermal_state(p).matrix))
            assert dev < 1e-10

    def test_high_temperature_limit(self):
        rho = thermal_state_exp(ModelParams(J=1.0, Jz=1.0, beta=1e-9))
        assert np.allclose(rho.matrix, np.eye(4) / 4, atol=1e-8)
