"""Definition-faithful computation of the measurement-induced quantities.

Nothing in this module uses the closed formulas of the measures module: every
value is obtained by explicitly applying von Neumann measurements (projector
algebra) and evaluating norms / fidelity from their definitions.  These
routines arbitrate every closed formula in the package.

The measured state follows from the projector algebra alone.  For the projectors
P+- = (I +- N)/2 with N = n.sigma x I, the identity N^2 = I gives
P+ m P+ + P- m P- = (m + N m N)/2, and N m N = sum_k q_k T_k with q = n x n
and the nine sandwiches T_k = S_i m S_j, S_i = sigma_i x I.  So
m - sigma = (m - N m N)/2.  Under the real inner product <A, B> = Re Tr A^+ B,
with r2 = <m, m> and u_k = <T_k, m>, and since N is unitary
(||N m N||^2 = r2), the squared Hilbert-Schmidt norm and the traces of the
Wang fidelity are exact linear forms in q for any Hermitian m:

    ||m - sigma||^2 = (r2 - q.u) / 2
    Tr m sigma      = Tr sigma^2 = (r2 + q.u) / 2

so one minus the Wang fidelity is ||m - sigma||^2 / r2.  The trace norm is
the sum of the absolute eigenvalues of m - sigma, which is no such form, so
that objective builds sigma explicitly from the same table and takes its
eigenvalues.  The table, u and r2 are computed once per state and the search
grid once per resolution.

The maximization runs over measurements that leave the reduced state of the
measured qubit unchanged (the defining constraint of these measures).  When
the local Bloch vector is nonzero this pins the measurement axis to it; when
it vanishes every axis is admissible and a grid search with derivative-free
refinement is used.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.optimize import minimize

from .decomp import X_ZERO_TOL, fano_decompose
from .linalg import PAULI_BASIS
from .model import DensityMatrix, ModelParams, build_hamiltonian

DEFAULT_GRID = (181, 361)


@dataclass(frozen=True)
class MeasurementAxis:
    """Unit Bloch vector (spherical angles) defining a qubit measurement."""

    theta: float
    phi: float

    @property
    def n(self):
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )

    @classmethod
    def from_vector(cls, v):
        v = np.asarray(v, dtype=float)
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            raise ValueError("cannot build a measurement axis from the zero vector")
        v = v / norm
        return cls(theta=math.acos(max(-1.0, min(1.0, v[2]))),
                   phi=math.atan2(v[1], v[0]) % (2 * math.pi))


@dataclass(frozen=True, eq=False)
class OracleResult:
    value: float
    argmax_axis: MeasurementAxis
    grid_resolution: tuple
    refined: bool


# S_1, S_2, S_3 (S_i = sigma_i x I) stacked as rows and side by side as
# columns, so that one 12x12 product holds every S_i m S_j as a 4x4 block
_S_ROWS = PAULI_BASIS[1:, 0].reshape(12, 4)
_S_COLS = np.ascontiguousarray(PAULI_BASIS[1:, 0].transpose(1, 0, 2).reshape(4, 12))


class _Sandwiches:
    """What the oracle needs of a 4x4 state m, computed once per state.

    table holds the nine sandwiches T_k = S_i m S_j (k = 3i + j) as real
    rows, real and imaginary parts interleaved, so that <A, B> = Re Tr A^+ B
    is a dot product of rows."""

    def __init__(self, m):
        self.m = m
        blocks = (_S_ROWS @ m @ _S_COLS).reshape(3, 4, 3, 4).transpose(0, 2, 1, 3)
        self.table = blocks.reshape(9, 16).view(float)

    @cached_property
    def forms(self):
        """(u, r2) of the linear forms: u = table . m and r2 = <m, m>.  Built
        on first use, since the trace objective needs neither."""
        mr = np.ascontiguousarray(self.m, dtype=complex).reshape(16).view(float)
        return self.table @ mr, float(mr @ mr)


def _axis_products(axes):
    """q = n (x) n, shape (..., 9), for unit axes n of shape (..., 3)."""
    return (axes[..., :, None] * axes[..., None, :]).reshape(*axes.shape[:-1], 9)


def _measure(sw, q):
    """sw.m after measuring qubit a along each axis n, given q = n (x) n of
    shape (..., 9), with the outcome discarded: P+ m P+ + P- m P- for the
    projectors P+- = (I +- N)/2, N = n.sigma x I.  Returns shape (..., 4, 4).

    Since N^2 = I this equals (m + N m N)/2, and N m N = sum_k q_k T_k."""
    nmn = np.einsum("...k,kc->...c", q, sw.table).view(complex)
    return (sw.m + nmn.reshape(*q.shape[:-1], 4, 4)) / 2.0


def post_measurement_state(rho: DensityMatrix, axis: MeasurementAxis) -> DensityMatrix:
    """Measure qubit a along the axis and discard the outcome."""
    return DensityMatrix(_measure(_Sandwiches(rho.matrix), _axis_products(axis.n)))


def fidelity_wang(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(Tr rho sigma)^2 / (Tr rho^2 Tr sigma^2); symmetric, 1 iff rho = sigma."""
    r, s = rho.matrix, sigma.matrix
    return float(np.einsum("ab,ba->", r, s).real ** 2
                 / (np.einsum("ab,ba->", r, r).real * np.einsum("ab,ba->", s, s).real))


def _objective(sw, q, kind):
    """Disturbance of sw.m by the measurement along each axis n, given
    q = n (x) n of shape (..., 9); returns an array of shape (...).  hs_sq and
    one_minus_fidelity are the linear forms of the module docstring; trace
    takes the eigenvalues of the explicit m - sigma."""
    if kind == "trace":
        return np.sum(np.abs(np.linalg.eigvalsh(sw.m - _measure(sw, q))), axis=-1)
    u, r2 = sw.forms
    hs_sq = (r2 - np.einsum("...k,k->...", q, u)) / 2.0
    if kind == "hs_sq":
        return hs_sq
    if kind == "one_minus_fidelity":
        return hs_sq / r2
    raise ValueError(f"unknown objective kind {kind!r}")


@lru_cache(maxsize=4)
def _grid(grid):
    """The axes searched at a grid resolution, as read-only arrays of polar
    angles and of q = n (x) n.  Antipodal axes define the same measurement,
    so a hemisphere suffices, with the pole (z-axis) and the equator sampled
    exactly."""
    thetas = np.linspace(0.0, math.pi / 2, grid[0] // 2 + 1)
    phis = np.linspace(0.0, 2 * math.pi, grid[1], endpoint=False)
    tt, pp = (a.ravel() for a in np.meshgrid(thetas, phis, indexing="ij"))
    q = _axis_products(np.stack([np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp),
                                 np.cos(tt)], axis=1))
    for a in (tt, pp, q):
        a.flags.writeable = False
    return tt, pp, q


def max_over_measurements(rho: DensityMatrix, kind: str,
                          grid=DEFAULT_GRID) -> OracleResult:
    """Maximal disturbance of rho over admissible measurements on qubit a.

    kind selects the objective: squared Hilbert-Schmidt norm ("hs_sq"), trace
    norm ("trace"), or one minus the Wang fidelity ("one_minus_fidelity").
    """
    sw = _Sandwiches(rho.matrix)
    a = fano_decompose(rho).bloch_a
    if np.linalg.norm(a) > X_ZERO_TOL:
        # only the axis parallel to the local Bloch vector leaves the reduced
        # state invariant: no optimization freedom
        axis = MeasurementAxis.from_vector(a)
        return OracleResult(value=float(_objective(sw, _axis_products(axis.n), kind)),
                            argmax_axis=axis, grid_resolution=(1, 1), refined=False)

    n_theta, n_phi = grid[0] // 2 + 1, grid[1]
    tt, pp, q = _grid(tuple(grid))
    vals = _objective(sw, q, kind)
    k = int(np.argmax(vals))
    best_val, best_tp = float(vals[k]), (float(tt[k]), float(pp[k]))

    def neg(tp):
        th, ph = tp
        n = np.array([math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph),
                      math.cos(th)])
        return -float(_objective(sw, _axis_products(n), kind))

    res = minimize(neg, np.array(best_tp), method="Nelder-Mead",
                   options={"xatol": 1e-9, "fatol": 1e-14, "maxiter": 600})
    if -res.fun > best_val:
        best_val, best_tp = -res.fun, tuple(res.x)
    axis = MeasurementAxis(theta=float(best_tp[0]), phi=float(best_tp[1]) % (2 * math.pi))
    return OracleResult(value=float(best_val), argmax_axis=axis,
                        grid_resolution=(n_theta, n_phi), refined=True)


def thermal_state_exp(p: ModelParams) -> DensityMatrix:
    """Gibbs state by numeric eigendecomposition of the Hamiltonian."""
    h = build_hamiltonian(p)
    w, v = np.linalg.eigh(h)
    weights = np.exp(-p.beta * (w - np.min(w)))  # shift avoids overflow
    m = (v * weights) @ v.conj().T
    return DensityMatrix(m / np.trace(m).real)
