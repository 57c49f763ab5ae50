"""Definition-faithful computation of the measurement-induced quantities.

Nothing in this module uses the closed formulas of the measures module: every
value is obtained by explicitly applying von Neumann measurements (projector
algebra) and evaluating norms / fidelity from their definitions.  These
routines arbitrate every closed formula in the package.

The measured state is formed explicitly.  For the projectors
P+- = (I +- N)/2 with N = n.sigma x I, the identity N^2 = I gives
P+ m P+ + P- m P- = (m + N m N)/2, and N m N = sum_ij n_i n_j S_i m S_j with
S_i = sigma_i x I; the nine sandwiches S_i m S_j are built once per call, so
a batch of axes costs one product with that table.

The maximization runs over measurements that leave the reduced state of the
measured qubit unchanged (the defining constraint of these measures).  When
the local Bloch vector is nonzero this pins the measurement axis to it; when
it vanishes every axis is admissible and a grid search with derivative-free
refinement is used.
"""

import math
from dataclasses import dataclass

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


def _measure(m, axes):
    """m after measuring qubit a along each unit axis in axes, an array of
    shape (..., 3), with the outcome discarded: P+ m P+ + P- m P- for the
    projectors P+- = (I +- N)/2, N = n.sigma x I.  Returns shape (..., 4, 4).

    Since N^2 = I this equals (m + N m N)/2, and N m N is the sum of the nine
    sandwiches S_i m S_j (S_i = sigma_i x I) weighted by n_i n_j; the table
    holds them as real rows, real and imaginary parts interleaved."""
    s = PAULI_BASIS[1:, 0]
    table = ((s @ m)[:, None] @ s).reshape(9, 16).view(float)
    lead = axes.shape[:-1]
    q = (axes[..., :, None] * axes[..., None, :]).reshape(*lead, 9)
    nmn = np.einsum("...k,kc->...c", q, table).view(complex).reshape(*lead, 4, 4)
    return (m + nmn) / 2.0


def post_measurement_state(rho: DensityMatrix, axis: MeasurementAxis) -> DensityMatrix:
    """Measure qubit a along the axis and discard the outcome."""
    return DensityMatrix(_measure(rho.matrix, axis.n))


def _wang(r, s):
    """(Tr r s)^2 / (Tr r^2 Tr s^2), broadcast over the leading axes of r and s."""
    num = np.einsum("...ab,...ba->...", r, s).real ** 2
    den = (np.einsum("...ab,...ba->...", r, r).real
           * np.einsum("...ab,...ba->...", s, s).real)
    return num / den


def fidelity_wang(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(Tr rho sigma)^2 / (Tr rho^2 Tr sigma^2); symmetric, 1 iff rho = sigma."""
    return float(_wang(rho.matrix, sigma.matrix))


def _objective(m, axes, kind):
    """Disturbance of m by the measurement along each unit axis in axes, an
    array of shape (..., 3); returns an array of shape (...)."""
    sigma = _measure(m, axes)
    if kind == "hs_sq":
        return np.sum(np.abs(m - sigma) ** 2, axis=(-2, -1))
    if kind == "trace":
        return np.sum(np.abs(np.linalg.eigvalsh(m - sigma)), axis=-1)
    if kind == "one_minus_fidelity":
        return 1.0 - _wang(m, sigma)
    raise ValueError(f"unknown objective kind {kind!r}")


def max_over_measurements(rho: DensityMatrix, kind: str,
                          grid=DEFAULT_GRID) -> OracleResult:
    """Maximal disturbance of rho over admissible measurements on qubit a.

    kind selects the objective: squared Hilbert-Schmidt norm ("hs_sq"), trace
    norm ("trace"), or one minus the Wang fidelity ("one_minus_fidelity").
    """
    m = rho.matrix
    a = fano_decompose(rho).bloch_a
    if np.linalg.norm(a) > X_ZERO_TOL:
        # only the axis parallel to the local Bloch vector leaves the reduced
        # state invariant: no optimization freedom
        axis = MeasurementAxis.from_vector(a)
        return OracleResult(value=float(_objective(m, axis.n, kind)),
                            argmax_axis=axis, grid_resolution=(1, 1), refined=False)

    # antipodal axes define the same measurement: a hemisphere suffices, with
    # both the pole (z-axis) and the equator sampled exactly
    n_theta = grid[0] // 2 + 1
    n_phi = grid[1]
    thetas = np.linspace(0.0, math.pi / 2, n_theta)
    phis = np.linspace(0.0, 2 * math.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    tt, pp = tt.ravel(), pp.ravel()
    axes = np.stack([np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp),
                     np.cos(tt)], axis=1)
    vals = _objective(m, axes, kind)
    k = int(np.argmax(vals))
    best_val, best_tp = float(vals[k]), (float(tt[k]), float(pp[k]))

    def neg(tp):
        th, ph = tp
        n = np.array([math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph),
                      math.cos(th)])
        return -float(_objective(m, n, kind))

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
