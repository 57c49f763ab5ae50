"""Two-qubit Heisenberg XYZ model: Hamiltonian, closed-form spectrum, Gibbs state.

The Hamiltonian in the computational basis is

    H = [[Jz/2 + B,      0,        0,      gJ     ],
         [0,         -Jz/2 + l,    J,      0      ],
         [0,              J,   -Jz/2 - l,  0      ],
         [gJ,              0,        0,    Jz/2 - B]]

with g the anisotropy, B the field strength and l the field inhomogeneity.
The thermal state exp(-beta H)/Z is an X-state whose elements are closed
expressions in eta = sqrt(B^2 + (gJ)^2) and delta = sqrt(l^2 + J^2).

Every function here takes one parameter point or a batch of them: a
ModelParams whose fields are 1-d arrays of one length gives arrays of that
length, and stacks of shape (n, 4, 4) in place of 4x4 matrices.
"""

from dataclasses import dataclass

import numpy as np

from .errors import StateInvalid
from .linalg import as_matrix, is_hermitian

POSITIVITY_TOL = 1e-10
PARAMS_NOT_FINITE = "all model parameters must be finite"
BETA_NOT_POSITIVE = "beta must be positive"


def _checked(J, Jz, gamma, B, lam, beta):
    """The parameters as one float array with a row per parameter, after the
    checks that every parameter is finite and beta positive."""
    params = np.array((J, Jz, gamma, B, lam, beta), dtype=float)
    if not np.isfinite(params).all():
        raise ValueError(PARAMS_NOT_FINITE)
    if not (params[5] > 0).all():
        raise ValueError(BETA_NOT_POSITIVE)
    return params


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Couplings of the two-spin Hamiltonian plus inverse temperature.

    Fields are floats for one point, or 1-d arrays of one length for a batch.
    """

    J: float = 0.0
    Jz: float = 0.0
    gamma: float = 0.0
    B: float = 0.0
    lam: float = 0.0
    beta: float = 1.0

    def __post_init__(self):
        _checked(self.J, self.Jz, self.gamma, self.B, self.lam, self.beta)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Closed-form spectrum; fields of a batch are arrays over its points."""

    eta: float
    delta: float
    energies: tuple  # (E1, E2, E3, E4)
    eigenvectors: np.ndarray  # (..., 4, 4), columns match the energies


@dataclass(frozen=True, eq=False)
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
    """Validated two-qubit density matrix (Hermitian, unit trace, PSD), or a
    stack of them, shape (n, 4, 4), validated as a whole: one state failing
    a check fails the stack."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if m.shape[-1] != 4:
            raise StateInvalid("expected a 4x4 two-qubit state")
        if not is_hermitian(m, 1e-12):
            raise StateInvalid("density matrix is not Hermitian")
        tr = np.trace(m, axis1=-2, axis2=-1)
        if not np.all((np.abs(tr.real - 1.0) <= 1e-12) & (np.abs(tr.imag) <= 1e-12)):
            raise StateInvalid("density matrix trace differs from 1")
        if not np.all(np.linalg.eigvalsh(m)[..., 0] >= -POSITIVITY_TOL):
            raise StateInvalid("density matrix has a negative eigenvalue")
        object.__setattr__(self, "matrix", m)


def _sinhc(x):
    """sinh(x)/x elementwise, by its series 1 + x^2/6 below |x| = 1e-8."""
    small = np.abs(x) < 1e-8
    safe = x + small  # x + 1 where the series applies: no 0/0 in the other branch
    # [()] turns a 0-d result back into a scalar, as a batch of one expects
    return np.where(small, 1.0 + x * x / 6.0, np.sinh(safe) / safe)[()]


def _couplings(p):
    """J, Jz, gamma, B and lam of p as float arrays, 0-d for one point."""
    return (np.asarray(v, dtype=float) for v in (p.J, p.Jz, p.gamma, p.B, p.lam))


def build_hamiltonian(p: ModelParams) -> np.ndarray:
    """H at p: shape (4, 4), or (n, 4, 4) for a batch."""
    J, Jz, gamma, B, lam = _couplings(p)
    g = gamma * J
    h = np.zeros(J.shape + (4, 4), dtype=complex)
    h[..., 0, 0] = Jz / 2 + B
    h[..., 1, 1] = -Jz / 2 + lam
    h[..., 2, 2] = -Jz / 2 - lam
    h[..., 3, 3] = Jz / 2 - B
    h[..., 0, 3] = h[..., 3, 0] = g
    h[..., 1, 2] = h[..., 2, 1] = J
    return h


def _pair_eigvecs(diag_gap, coupling):
    """Orthonormal eigenvectors of [[d, c], [c, -d]], elementwise over arrays
    d = diag_gap and c = coupling: (a, b) for the eigenvalue +sqrt(d^2+c^2)
    and (-b, a) for -sqrt(d^2+c^2).  Returns (a, b).

    Where c = 0 (and so also where d = c = 0) they are the basis vectors,
    (1, 0) for d >= 0 and (0, 1) otherwise.
    """
    r = np.hypot(diag_gap, coupling)
    up = diag_gap >= 0
    flat = coupling == 0.0
    # pick the numerically larger of the two equivalent component forms; its
    # norm is at least r > 0 where c != 0
    a = np.where(flat, up, np.where(up, diag_gap + r, coupling))
    b = np.where(flat, ~up, np.where(up, coupling, r - diag_gap))
    n = np.hypot(a, b)
    return a / n, b / n


def closed_form_spectrum(p: ModelParams) -> SpectralDecomposition:
    """Closed-form eigenvalues and eigenvectors of the XYZ Hamiltonian.

    E_{1,2} = Jz/2 +- eta live in span{|00>, |11>}, E_{3,4} = -Jz/2 +- delta
    in span{|01>, |10>}; degenerate couplings fall back to the computational
    basis vectors.  Fields are numpy scalars for one point and arrays over
    the points of a batch.
    """
    J, Jz, gamma, B, lam = _couplings(p)
    g = gamma * J
    eta = np.hypot(B, g)[()]
    delta = np.hypot(lam, J)[()]
    energies = (Jz / 2 + eta, Jz / 2 - eta, -Jz / 2 + delta, -Jz / 2 - delta)
    vecs = np.zeros(J.shape + (4, 4), dtype=complex)
    # columns 0, 1 in rows (0, 3) and columns 2, 3 in rows (1, 2)
    for col, (hi, lo), (a, b) in ((0, (0, 3), _pair_eigvecs(B, g)),
                                  (2, (1, 2), _pair_eigvecs(lam, J))):
        vecs[..., hi, col], vecs[..., lo, col] = a, b
        vecs[..., hi, col + 1], vecs[..., lo, col + 1] = -b, a
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
    J, Jz, gamma, B, lam, beta = _checked(J, Jz, gamma, B, lam, beta)
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
    """Matrix elements of the Gibbs X-state at p: numpy scalars for one
    point, arrays for a batch."""
    return thermal_elements_batch(p.J, p.Jz, p.gamma, p.B, p.lam, p.beta)


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
    """Assemble the Gibbs state, or a stack of them for a batch, from the
    closed-form elements."""
    t = thermal_elements(p)
    z = np.asarray(t.Z)
    m = np.zeros(z.shape + (4, 4), dtype=complex)
    m[..., 0, 0] = t.mu_minus
    m[..., 1, 1] = t.nu_minus
    m[..., 2, 2] = t.nu_plus
    m[..., 3, 3] = t.mu_plus
    m[..., 0, 3] = m[..., 3, 0] = t.kappa
    m[..., 1, 2] = m[..., 2, 1] = t.epsilon
    return DensityMatrix(m / z[..., None, None])
