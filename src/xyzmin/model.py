"""Two-qubit Heisenberg XYZ model: Hamiltonian, closed-form spectrum, Gibbs state.

The Hamiltonian in the computational basis is

    H = [[Jz/2 + B,      0,        0,      gJ     ],
         [0,         -Jz/2 + l,    J,      0      ],
         [0,              J,   -Jz/2 - l,  0      ],
         [gJ,              0,        0,    Jz/2 - B]]

with g the anisotropy, B the field strength and l the field inhomogeneity.
The thermal state exp(-beta H)/Z is an X-state whose elements are closed
expressions in eta = sqrt(B^2 + (gJ)^2) and delta = sqrt(l^2 + J^2).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import StateInvalid
from .linalg import as_matrix, is_hermitian

POSITIVITY_TOL = 1e-10
PARAMS_NOT_FINITE = "all model parameters must be finite"
BETA_NOT_POSITIVE = "beta must be positive"


@dataclass(frozen=True)
class ModelParams:
    """Couplings of the two-spin Hamiltonian plus inverse temperature."""

    J: float = 0.0
    Jz: float = 0.0
    gamma: float = 0.0
    B: float = 0.0
    lam: float = 0.0
    beta: float = 1.0

    def __post_init__(self):
        vals = (self.J, self.Jz, self.gamma, self.B, self.lam, self.beta)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(PARAMS_NOT_FINITE)
        if self.beta <= 0:
            raise ValueError(BETA_NOT_POSITIVE)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    eta: float
    delta: float
    energies: tuple  # (E1, E2, E3, E4)
    eigenvectors: np.ndarray  # columns match the energies


@dataclass(frozen=True)
class ThermalElements:
    """Closed-form X-state matrix elements and partition function.

    Fields are floats for one point, or arrays of one shape for a batch.
    """

    mu_plus: float
    mu_minus: float
    nu_plus: float
    nu_minus: float
    kappa: float
    epsilon: float
    Z: float


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated two-qubit density matrix (Hermitian, unit trace, PSD)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if m.shape[0] != 4:
            raise StateInvalid("expected a 4x4 two-qubit state")
        if not is_hermitian(m, 1e-12):
            raise StateInvalid("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-12 or abs(np.trace(m).imag) > 1e-12:
            raise StateInvalid("density matrix trace differs from 1")
        if float(np.min(np.linalg.eigvalsh(m))) < -POSITIVITY_TOL:
            raise StateInvalid("density matrix has a negative eigenvalue")
        object.__setattr__(self, "matrix", m)


def _sinhc(x):
    """sinh(x)/x elementwise, by its series 1 + x^2/6 below |x| = 1e-8."""
    small = np.abs(x) < 1e-8
    safe = x + small  # x + 1 where the series applies: no 0/0 in the other branch
    # [()] turns a 0-d result back into a scalar, as a batch of one expects
    return np.where(small, 1.0 + x * x / 6.0, np.sinh(safe) / safe)[()]


def build_hamiltonian(p: ModelParams) -> np.ndarray:
    g = p.gamma * p.J
    h = np.zeros((4, 4), dtype=complex)
    h[0, 0] = p.Jz / 2 + p.B
    h[1, 1] = -p.Jz / 2 + p.lam
    h[2, 2] = -p.Jz / 2 - p.lam
    h[3, 3] = p.Jz / 2 - p.B
    h[0, 3] = h[3, 0] = g
    h[1, 2] = h[2, 1] = p.J
    return h


def _pair_eigvecs(diag_gap, coupling, hi, lo):
    """Orthonormal eigenvectors of [[d, c], [c, -d]] embedded at indices (hi, lo).

    d = diag_gap, c = coupling; returns the vectors for eigenvalues
    +sqrt(d^2+c^2) and -sqrt(d^2+c^2) as 4-component columns.
    """
    r = math.hypot(diag_gap, coupling)
    v_plus = np.zeros(4, dtype=complex)
    v_minus = np.zeros(4, dtype=complex)
    if r == 0.0 or coupling == 0.0:
        if diag_gap >= 0:
            v_plus[hi] = 1.0
            v_minus[lo] = 1.0
        else:
            v_plus[lo] = 1.0
            v_minus[hi] = 1.0
        return v_plus, v_minus
    # pick the numerically larger of the two equivalent component forms
    if diag_gap >= 0:
        a, b = diag_gap + r, coupling
    else:
        a, b = coupling, r - diag_gap
    n = math.hypot(a, b)
    a, b = a / n, b / n
    v_plus[hi], v_plus[lo] = a, b
    v_minus[hi], v_minus[lo] = -b, a
    return v_plus, v_minus


def closed_form_spectrum(p: ModelParams) -> SpectralDecomposition:
    """Closed-form eigenvalues and eigenvectors of the XYZ Hamiltonian.

    E_{1,2} = Jz/2 +- eta live in span{|00>, |11>}, E_{3,4} = -Jz/2 +- delta
    in span{|01>, |10>}; degenerate couplings fall back to the computational
    basis vectors.
    """
    g = p.gamma * p.J
    eta = math.hypot(p.B, g)
    delta = math.hypot(p.lam, p.J)
    energies = (p.Jz / 2 + eta, p.Jz / 2 - eta, -p.Jz / 2 + delta, -p.Jz / 2 - delta)
    v1, v2 = _pair_eigvecs(p.B, g, 0, 3)
    v3, v4 = _pair_eigvecs(p.lam, p.J, 1, 2)
    vecs = np.column_stack([v1, v2, v3, v4])
    return SpectralDecomposition(eta=eta, delta=delta, energies=energies, eigenvectors=vecs)


def thermal_elements_batch(J, Jz, gamma, B, lam, beta) -> ThermalElements:
    """Matrix elements of the Gibbs X-state and the partition function for
    a batch of points: 1-d arrays of one length, each field an array of that
    length, or scalars for a batch of one, each field a numpy scalar.

    Terms of the form (a/eta) sinh(beta eta) are evaluated as
    a * beta * sinhc(beta eta) so the eta -> 0 and delta -> 0 limits are the
    analytic ones.  Every value is checked as ModelParams checks it.  Floating
    point overflow and invalid operations raise FloatingPointError, so a
    parameter too far from zero temperature fails instead of giving inf or nan.
    """
    # a copy with one contiguous row per parameter
    params = np.array((J, Jz, gamma, B, lam, beta), dtype=float)
    if not np.isfinite(params).all():
        raise ValueError(PARAMS_NOT_FINITE)
    if not (params[5] > 0).all():
        raise ValueError(BETA_NOT_POSITIVE)
    J, Jz, gamma, B, lam, beta = params
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        g = gamma * J
        half_jz = beta * Jz / 2
        ea = np.exp(-half_jz)
        eb = np.exp(half_jz)
        x_eta = beta * np.hypot(B, g)
        x_delta = beta * np.hypot(lam, J)
        ch_eta = np.cosh(x_eta)
        ch_delta = np.cosh(x_delta)
        sc_eta = beta * _sinhc(x_eta)  # sinh(beta eta)/eta
        sc_delta = beta * _sinhc(x_delta)
        return ThermalElements(
            mu_plus=ea * (ch_eta + B * sc_eta),
            mu_minus=ea * (ch_eta - B * sc_eta),
            nu_plus=eb * (ch_delta + lam * sc_delta),
            nu_minus=eb * (ch_delta - lam * sc_delta),
            kappa=-g * sc_eta * ea,
            epsilon=-J * sc_delta * eb,
            Z=2.0 * (ea * ch_eta + eb * ch_delta),
        )


def thermal_elements(p: ModelParams) -> ThermalElements:
    """Matrix elements of the Gibbs X-state at one point: a batch of one."""
    t = thermal_elements_batch(p.J, p.Jz, p.gamma, p.B, p.lam, p.beta)
    return ThermalElements(*(float(v) for v in vars(t).values()))


def check_xstate(d0, d1, d2, d3, k, e):
    """The DensityMatrix checks for arrays of real X-states in closed form.

    d0..d3 is the diagonal, k the |00><11| and e the |01><10| element; such a
    matrix is Hermitian by construction and its smallest eigenvalue in each
    2x2 block is (d_a + d_b)/2 - hypot((d_a - d_b)/2, off-diagonal).
    """
    if not np.all(np.abs(d0 + d1 + d2 + d3 - 1.0) <= 1e-12):
        raise StateInvalid("density matrix trace differs from 1")
    lowest = np.minimum((d0 + d3) / 2 - np.hypot((d0 - d3) / 2, k),
                        (d1 + d2) / 2 - np.hypot((d1 - d2) / 2, e))
    if not np.all(lowest >= -POSITIVITY_TOL):
        raise StateInvalid("density matrix has a negative eigenvalue")


def thermal_state(p: ModelParams) -> DensityMatrix:
    """Assemble the Gibbs state from the closed-form elements."""
    t = thermal_elements(p)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = t.mu_minus
    m[1, 1] = t.nu_minus
    m[2, 2] = t.nu_plus
    m[3, 3] = t.mu_plus
    m[0, 3] = m[3, 0] = t.kappa
    m[1, 2] = m[2, 1] = t.epsilon
    return DensityMatrix(m / t.Z)
