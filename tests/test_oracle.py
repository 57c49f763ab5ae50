import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bell_phi_plus,
    kernel,
    maximally_mixed,
    random_params,
    random_state,
    random_x_state,
)
from xyzmin import oracle
from xyzmin.decomp import fano_decompose
from xyzmin.errors import OracleInconsistent
from xyzmin.linalg import PAULI_BASIS
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
    _terms,
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
    return _objective(_Sandwiches(m), _terms(axes, kind), kind)


def default_grid_axes(grid=DEFAULT_GRID):
    """The hemisphere of axes that max_over_measurements searches at grid,
    shape (polar, azimuthal, 3)."""
    tt, pp = np.meshgrid(np.linspace(0.0, math.pi / 2, grid[0] // 2 + 1),
                         np.linspace(0.0, 2 * math.pi, grid[1], endpoint=False),
                         indexing="ij")
    return np.stack([np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1)


def general_states(rng):
    """A zero-Bloch thermal X-state and two complex non-X states: the linear
    and 2x2-block forms assume no X-state structure."""
    return [thermal_state(ModelParams(J=1.2, Jz=-0.7, gamma=0.8)).matrix,
            random_state(rng).matrix, random_state(rng).matrix]


def rank_deficient_states(rng):
    """Bell, a random pure state and |0><0| x rho_b, where m - sigma is rank
    deficient at some axes."""
    g = rng.normal(size=4) + 1j * rng.normal(size=4)
    pure = np.outer(g, g.conj()) / np.vdot(g, g).real
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho_b = h @ h.conj().T
    product = np.kron(np.diag([1.0, 0.0]), rho_b / np.trace(rho_b).real)
    return [bell_phi_plus().matrix, pure, product]


_YY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])


def spin_flip_average(rho):
    """(rho + (sigma_y x sigma_y) rho* (sigma_y x sigma_y)) / 2: both local
    Bloch vectors vanish and the correlation matrix is that of rho, so the
    state is zero-Bloch and in general not an X-state."""
    return DensityMatrix((rho.matrix + _YY @ rho.matrix.conj() @ _YY) / 2.0)


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

    @pytest.mark.parametrize("v", [[math.nan, 0, 1], [math.inf, 0, 0], [0, -math.inf, 1]])
    def test_non_finite_vector_rejected(self, v):
        with pytest.raises(ValueError, match="non-finite"):
            MeasurementAxis.from_vector(v)

    @pytest.mark.parametrize("scale", [1e-320, 1e-170, 1e170, 5e307])
    def test_tiny_and_huge_vectors(self, scale):
        # the norm of v itself underflows to 0 (tiny) or overflows (huge)
        base = np.array([1.0, -1.0, 2.0])
        a = MeasurementAxis.from_vector(base * scale)
        assert np.allclose(a.n, base / np.linalg.norm(base), rtol=0, atol=1e-15)


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
        for m in general_states(rng):
            for kind in KINDS:
                dev = np.abs(objective(m, axes, kind) - projector_objective(m, axes, kind))
                assert np.max(dev) <= 1e-14

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, SMALL_GRID])
    def test_factored_grid_terms(self, rng, grid):
        # the grid's factored terms through the one objective, against the
        # definition at every axis of the grid
        thetas, phis, alpha_q, q_phi, alpha_c, c_phi = _grid(grid)
        axes = default_grid_axes(grid)
        assert axes.shape == (len(thetas), len(phis), 3)
        factored = {"hs_sq": (alpha_q, q_phi), "one_minus_fidelity": (alpha_q, q_phi),
                    "trace": (alpha_c, c_phi)}
        cases = [(m, kind) for m in general_states(rng) for kind in KINDS]
        cases += [(m, "trace") for m in rank_deficient_states(rng)]
        for m, kind in cases:
            vals = _objective(_Sandwiches(m), factored[kind], kind)
            assert vals.shape == axes.shape[:2]
            assert np.max(np.abs(vals - projector_objective(m, axes, kind))) <= 1e-14


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

    @pytest.mark.parametrize("grid", [(3, 0), (-4, 5), (5.5, 7), (181,), (181, 361, 1),
                                      "ab", 181, None])
    def test_bad_grid_rejected(self, grid):
        rho = thermal_state(ModelParams(J=1.2, Jz=-0.7, gamma=0.8))
        for kind in KINDS:
            with pytest.raises(ValueError, match="grid"):
                max_over_measurements(rho, kind, grid=grid)

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

    # a former miss of the grid oracle: two Pauli correlation magnitudes
    # nearly tie, and a Nelder-Mead refinement from the grid argmax stalled
    # on a saddle short of the maximum (misses of about 3.4e-6 in hs_sq and
    # 6.8e-6 in one_minus_fidelity); every kind now takes the exact maximum
    TIE_MISS = dict(J=-3.7552, Jz=-0.2929, gamma=0.9462, beta=1.1489)

    @pytest.mark.parametrize("kind,closed_form", [("hs_sq", min_hs),
                                                  ("trace", min_trace),
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


def zero_a_pauli_states(rng, count):
    """(state, T) for states (I + I x b.sigma + sum T_ij sigma_i x sigma_j)/4
    with a zero local Bloch vector, b != 0 and a full, non-diagonal T; only
    the positive semidefinite draws are kept."""
    out = []
    while len(out) < count:
        coef = np.zeros((4, 4))
        coef[0, 0] = 1.0
        coef[0, 1:] = rng.uniform(-0.3, 0.3, 3)
        coef[1:, 1:] = rng.uniform(-0.5, 0.5, (3, 3))
        m = np.einsum("ij,ijab->ab", coef, PAULI_BASIS) / 4.0
        if np.linalg.eigvalsh(m)[0] >= 0.0:
            out.append((DensityMatrix(m), coef[1:, 1:]))
    return out


class TestExactRefinement:
    """The free-axis maximum: for hs_sq and one_minus_fidelity the smallest
    eigenpair of sym(U), for trace the best of the definition at the three
    eigenvectors of sym(U), against the definition on the grid and at random
    axes, and against the closed forms and the top singular value of T."""

    @staticmethod
    def thermal_states():
        params = [p for p, _ in TestMaxOverMeasurements.PINNED]
        params.append(TestMaxOverMeasurements.TIE_MISS)
        return [thermal_state(ModelParams(**p)) for p in params]

    def states(self, rng):
        return self.thermal_states() + [spin_flip_average(random_state(rng)) for _ in range(3)]

    def test_exact_maximum_against_grid_random_axes_and_closed_form(self, rng):
        grid_axes = default_grid_axes().reshape(-1, 3)
        # a grid cell's diagonal, which bounds the angle from any axis of the
        # hemisphere to the nearest grid axis
        cell = math.hypot(math.pi / 180, 2 * math.pi / 361)
        for rho in self.states(rng):
            f = fano_decompose(rho)
            sw = _Sandwiches(rho.matrix)
            u, r2 = sw.forms
            lam = np.linalg.eigvalsh((u.reshape(3, 3) + u.reshape(3, 3).T) / 2)
            for kind, closed_form, scale in (("hs_sq", min_hs, 1.0),
                                             ("one_minus_fidelity", min_fidelity, r2)):
                res = max_over_measurements(rho, kind)
                assert res.refined
                assert abs(res.value - closed_form(f)) <= 1e-13
                grid_max = np.max(projector_objective(rho.matrix, grid_axes, kind))
                assert res.value >= grid_max - 1e-15
                # along n = cos(d) v + sin(d) w the Rayleigh quotient rises
                # by at most sin(d)^2 (lam_max - lam_min)
                resolution = math.sin(cell) ** 2 * (lam[2] - lam[0]) / 2 / scale
                assert res.value - grid_max <= resolution
                at_random = projector_objective(rho.matrix, unit_axes(rng, (1000,)), kind)
                assert res.value >= np.max(at_random) - 1e-15
                # the axis attains the value and lies on the searched hemisphere
                at_axis = float(projector_objective(rho.matrix, res.argmax_axis.n, kind))
                assert abs(at_axis - res.value) <= 1e-15
                assert res.argmax_axis.theta <= math.pi / 2

    def test_trace_maximum_is_top_singular_value(self, rng):
        # at a zero local Bloch vector ||m - sigma||_1 = sigma_max((I - nn^T) T),
        # largest, sigma_max(T), on the great circle orthogonal to the top left
        # singular vector of T; the top eigenvector of sym(U) gives only sigma_2
        states = zero_a_pauli_states(rng, 6)
        states += [(rho, fano_decompose(rho).pauli_corr) for rho in self.thermal_states()]
        grid_axes = default_grid_axes().reshape(-1, 3)
        for rho, t in states:
            res = max_over_measurements(rho, "trace")
            assert res.refined
            assert abs(res.value - np.linalg.svd(t, compute_uv=False)[0]) <= 1e-15
            grid_max = np.max(projector_objective(rho.matrix, grid_axes, "trace"))
            assert res.value >= grid_max - 1e-15
            at_random = projector_objective(rho.matrix, unit_axes(rng, (1000,)), "trace")
            assert res.value >= np.max(at_random) - 1e-15
            at_axis = float(projector_objective(rho.matrix, res.argmax_axis.n, "trace"))
            assert abs(at_axis - res.value) <= 1e-15
            assert res.argmax_axis.theta <= math.pi / 2

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, SMALL_GRID])
    def test_grid_maximum_over_every_axis(self, rng, monkeypatch, grid):
        # the grid maximum that the exact maximum is checked against is the
        # largest value of the objective over every axis of the grid
        true_exact_max, grid_maxima = oracle._exact_max, []

        def exact_max(sw, kind, grid_max):
            grid_maxima.append(grid_max)
            return true_exact_max(sw, kind, grid_max)

        monkeypatch.setattr("xyzmin.oracle._exact_max", exact_max)
        _, _, alpha_q, q_phi, alpha_c, c_phi = _grid(grid)
        axes = default_grid_axes(grid)
        # spin-flip averages, so that every state takes the grid path
        states = [spin_flip_average(DensityMatrix(m))
                  for m in general_states(rng) + rank_deficient_states(rng)]
        states.append(thermal_state(ModelParams(**TestMaxOverMeasurements.TIE_MISS)))
        for rho in states:
            for kind in KINDS:
                max_over_measurements(rho, kind, grid=grid)
                (grid_max,) = grid_maxima
                grid_maxima.clear()
                terms = (alpha_c, c_phi) if kind == "trace" else (alpha_q, q_phi)
                on_grid = _objective(_Sandwiches(rho.matrix), terms, kind)
                assert grid_max == np.max(on_grid)
                by_definition = np.max(projector_objective(rho.matrix, axes, kind))
                assert abs(grid_max - by_definition) <= (1e-14 if kind == "trace" else 1e-15)

    @pytest.mark.parametrize("kind", KINDS)
    def test_grid_above_exact_maximum_raises(self, monkeypatch, kind):
        # after the grid search, sym(U) gains a positive definite P whose
        # eigenvectors lie far from the coordinate axes, where this X-state's
        # maximizers are: the smallest eigenvalue rises by at least 1, which
        # understates the linear maxima, and the candidate axes leave the
        # great circle of trace maximizers, both far beyond the grid's miss
        frame = np.linalg.qr(np.array([[2.0, 1.0, 1.0], [1.0, 3.0, 1.0], [1.0, 1.0, 4.0]]))[0]
        p = frame @ np.diag([1.0, 2.0, 3.0]) @ frame.T
        true_exact_max = oracle._exact_max

        def exact_max(sw, kind, grid_max):
            u, r2 = sw.forms
            sw.forms = (u + p.ravel(), r2)
            return true_exact_max(sw, kind, grid_max)

        monkeypatch.setattr("xyzmin.oracle._exact_max", exact_max)
        rho = thermal_state(ModelParams(J=1.2, Jz=-0.7, gamma=0.8))
        with pytest.raises(OracleInconsistent):
            max_over_measurements(rho, kind)


class TestTraceBlockForm:
    """The trace objective 2 sqrt(||K||^2 + 2 |det K|) against the eigenvalues
    of the explicit m - sigma where m - sigma is rank deficient, which a form
    built from Tr A^2 and Tr A^4 loses to cancellation."""

    def test_rank_deficient_states_over_default_grid(self, rng):
        axes = default_grid_axes().reshape(-1, 3)
        for m in rank_deficient_states(rng):
            dev = objective(m, axes, "trace") - projector_objective(m, axes, "trace")
            assert np.max(np.abs(dev)) <= 1e-14

    def test_antipodes_agree(self, rng):
        m = random_state(rng).matrix
        axes = unit_axes(rng, (200,))
        dev = objective(m, axes, "trace") - objective(m, -axes, "trace")
        assert np.max(np.abs(dev)) <= 1e-15


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(seed=st.integers(0, 2**32 - 1), thermal=st.booleans(),
       theta=st.floats(0.0, math.pi), phi=st.floats(0.0, 2 * math.pi))
def test_free_axis_maximum_dominates_any_axis(seed, thermal, theta, phi):
    rng = np.random.default_rng(seed)
    if thermal:
        j, jz, g = rng.uniform(-5.0, 5.0, size=3)
        rho = thermal_state(ModelParams(J=j, Jz=jz, gamma=g, beta=rng.uniform(0.2, 2.0)))
    else:
        rho = spin_flip_average(random_state(rng))
    n = np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                  math.cos(theta)])
    for kind in KINDS:
        res = max_over_measurements(rho, kind, grid=SMALL_GRID)
        assert res.refined
        assert res.value >= float(objective(rho.matrix, n, kind)) - 1e-12


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
