"""Closed-form correlation measures for two-qubit states.

General closed forms: the Wootters concurrence of a density matrix, and the
Hilbert-Schmidt (min_hs), trace-distance (min_trace) and fidelity
(min_fidelity) MIN of a Fano form.  Each takes one state or a stack of them
and returns a numpy scalar or an array over the stack; every branch of a
formula is a mask over the stack.  The X-state kernel thermal_measures is
the one thermal path: the concurrence and every MIN variant from the six
thermal elements, for a batch of points.  critical_window bounds the
zero-concurrence window in Jz.  The printed thermal trace-distance formula is
half the general closed form that the trace-norm oracle confirms; the kernel
returns both, as min_trace_paper and min_trace.
"""

import math
from dataclasses import dataclass

import numpy as np

from .decomp import X_ZERO_TOL, FanoForm, pinned_axis
from .errors import ConventionMismatch, DomainError, NotDiagonalCorrelation
from .linalg import PAULI_BASIS, dagger
from .model import (
    DensityMatrix,
    ModelParams,
    ThermalElements,
    check_xstate,
    thermal_elements_batch,
)

_SPIN_FLIP = PAULI_BASIS[2, 2]  # sigma_y x sigma_y
DIAG_CORR_TOL = 1e-10
CONVENTION_TOL = 1e-6


@dataclass(frozen=True)
class CriticalWindow:
    """Interval of Jz inside which the thermal concurrence vanishes.

    jc1 is -inf when the lower bound does not exist (no anisotropy channel).
    """

    jc1: float
    jc2: float

    @property
    def jc1_unbounded(self):
        return math.isinf(self.jc1)


@dataclass(frozen=True, eq=False)
class ThermalMeasures:
    """Every quantity of a batch of thermal X-states, one array per field
    (numpy scalars for a batch of one).

    The Pauli components are those of the normalised state: the Bloch vectors
    lie along z and the correlation matrix is diagonal, so a_z, b_z and
    c_xx, c_yy, c_zz are all of them.
    """

    elements: ThermalElements
    a_z: np.ndarray
    b_z: np.ndarray
    c_xx: np.ndarray
    c_yy: np.ndarray
    c_zz: np.ndarray
    concurrence: np.ndarray
    min_hs: np.ndarray
    min_trace: np.ndarray
    min_trace_paper: np.ndarray
    min_fidelity: np.ndarray


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence from the spin-flipped spectrum.

    The square roots of the eigenvalues of rho rho_tilde equal the singular
    values of (sqrt rho)* S (sqrt rho) with S the double spin flip; computing
    them as singular values keeps the small ones accurate to machine epsilon
    in absolute terms, which a direct nonsymmetric eigensolve does not.
    """
    w, v = np.linalg.eigh(rho.matrix)
    root = (v * np.sqrt(np.maximum(w, 0.0))[..., None, :]) @ dagger(v)
    sv = np.linalg.svd(np.conj(root) @ _SPIN_FLIP @ root, compute_uv=False)
    return np.maximum(0.0, sv[..., 0] - sv[..., 1] - sv[..., 2] - sv[..., 3])[()]


def _log_geo(x, r, log_one_minus_r):
    """log sqrt((cosh x + r sinh x)(cosh x - r sinh x)) for x >= 0 and
    0 <= r <= 1, given log(1 - r).  Each factor is shifted by x, so the value
    stays finite where cosh and sinh overflow:
    log(cosh x +- r sinh x) = x + log(((1 +- r) + (1 -+ r) e^(-2x)) / 2).
    The minus factor is a log-add-exp of log(1 - r) and log(1 + r) - 2x, so
    it stays finite where 1 - r and e^(-2x) both underflow."""
    log_plus = math.log(((1.0 + r) + math.exp(log_one_minus_r - 2.0 * x)) / 2.0)
    a, b = log_one_minus_r, math.log1p(r) - 2.0 * x
    log_minus = max(a, b) + math.log1p(math.exp(-abs(a - b))) - math.log(2.0)
    return x + 0.5 * (log_plus + log_minus)


def _log_sinh(x):
    """log sinh x for x > 0, shifted by x: x + log(-expm1(-2x) / 2)."""
    return x + math.log(-math.expm1(-2.0 * x) / 2.0)


def critical_window(p: ModelParams) -> CriticalWindow:
    """Bounds [jc1, jc2] of the zero-concurrence window in Jz.

    Derived from the vanishing conditions of the two thermal concurrence
    branches; reduces to the standard printed expressions at lam = 0,
    beta = 1.  Evaluated as logs, so it stays finite at low temperature
    (large beta times energy).  Raises DomainError at J = 0 where jc2 is
    undefined.
    """
    if p.J == 0.0:
        raise DomainError("jc2 is undefined at J = 0 (degenerate model)")
    b = p.beta
    g = abs(p.gamma * p.J)
    j = abs(p.J)
    delta = math.hypot(p.lam, p.J)
    # sqrt(mu+ mu-) and sqrt(nu+ nu-) without the exp(-+ beta Jz/2) factors are
    # sqrt((cosh x + r sinh x)(cosh x - r sinh x)), at x = beta eta, r = |B|/eta
    # and at x = beta delta, r = |lam|/delta; log(1 - r) is formed from
    # 1 - r = g^2 / (eta (eta + |B|)) for mu (and alike for nu), which avoids
    # the cancellation and stays finite where g^2 underflows
    log_nu_geo = _log_geo(b * delta, abs(p.lam) / delta,
                          2.0 * math.log(j) - math.log(delta) - math.log(delta + abs(p.lam)))
    log_eps_mag = math.log(j / delta) + _log_sinh(b * delta)
    if g > 0:
        eta = math.hypot(p.B, p.gamma * p.J)
        log_mu_geo = _log_geo(b * eta, abs(p.B) / eta,
                              2.0 * math.log(g) - math.log(eta) - math.log(eta + abs(p.B)))
        log_kappa_mag = math.log(g / eta) + _log_sinh(b * eta)
        jc1 = (log_kappa_mag - log_nu_geo) / b
    else:
        # no anisotropy channel: kappa vanishes and mu+ mu- = 1
        log_mu_geo = 0.0
        jc1 = -math.inf
    jc2 = (log_mu_geo - log_eps_mag) / b
    return CriticalWindow(jc1=jc1, jc2=jc2)


def _along(v, m):
    """v^t m v for vectors v of shape (..., 3) and matrices m of (..., 3, 3)."""
    return (v[..., None, :] @ m @ v[..., :, None])[..., 0, 0]


def min_hs(f: FanoForm) -> float:
    """Hilbert-Schmidt MIN, orthonormal-convention closed form."""
    tt = f.t @ np.swapaxes(f.t, -1, -2)
    _, pinned, xhat = pinned_axis(f.bloch_a)
    total = np.trace(tt, axis1=-2, axis2=-1)
    weakest = np.where(pinned, _along(xhat, tt), np.linalg.eigvalsh(tt)[..., 0])
    return (total - weakest)[()]


def min_trace(f: FanoForm) -> float:
    """Trace MIN closed form for states with diagonal Pauli correlations.

    The norms are Euclidean; with that reading the x != 0 branch reduces to
    the known X-state value, which the trace-norm oracle confirms.  Raises
    NotDiagonalCorrelation if any state of a stack is outside that domain.
    """
    c = np.diagonal(f.pauli_corr, axis1=-2, axis2=-1)
    off = f.pauli_corr - c[..., None] * np.eye(3)
    if float(np.max(np.abs(off))) > DIAG_CORR_TOL:
        raise NotDiagonalCorrelation(
            "pauli correlation matrix is not diagonal; use the measurement oracle"
        )
    xv = f.bloch_a
    nx2, pinned, _ = pinned_axis(xv)
    nx = np.sqrt(nx2)
    abs_c, abs_x = np.abs(c), np.abs(xv)
    # with x along a correlation eigenaxis the quartic collapses exactly to
    # the largest transverse |c|; evaluating it that way avoids the
    # cancellation in chi_- when the two transverse components nearly tie
    aligned = np.any(abs_x > (1.0 - 1e-12) * nx[..., None], axis=-1)
    along_x = np.arange(3) == np.argmax(abs_x, axis=-1)[..., None]
    transverse = np.max(np.where(along_x, 0.0, abs_c), axis=-1)
    c2, x2 = c * c, xv * xv
    alpha = c2.sum(axis=-1) * x2.sum(axis=-1) - (c2 * x2).sum(axis=-1)
    beta_t = (x2[..., 0] * c2[..., 1] * c2[..., 2] + x2[..., 1] * c2[..., 2] * c2[..., 0]
              + x2[..., 2] * c2[..., 0] * c2[..., 1])
    root = 2.0 * np.sqrt(beta_t) * nx
    chi_p = np.maximum(0.0, alpha + root)
    chi_m = np.maximum(0.0, alpha - root)
    quartic = (np.sqrt(chi_p) + np.sqrt(chi_m)) / (2.0 * np.where(pinned, nx, 1.0))
    return np.where(~pinned, np.max(abs_c, axis=-1),
                    np.where(aligned, transverse, quartic))[()]


def min_fidelity(f: FanoForm) -> float:
    """Fidelity MIN, 1 - min_measurement F(rho, measured rho), reduced to
    spectral data.

    With W = a a^t + C C^t (Pauli convention) the minimum fidelity is
    (1 + |b|^2 + q) / (1 + |a|^2 + |b|^2 + |C|^2) where q = a^t W a / |a|^2
    for a != 0 (pinned axis) and the smallest eigenvalue of C C^t otherwise.
    """
    a, b, c = f.bloch_a, f.bloch_b, f.pauli_corr
    na2, pinned, ahat = pinned_axis(a)
    nb2 = np.einsum("...i,...i->...", b, b)
    den = 1.0 + na2 + nb2 + np.sum(c * c, axis=(-2, -1))
    cct = c @ np.swapaxes(c, -1, -2)
    q = np.where(pinned, na2 + _along(ahat, cct), np.linalg.eigvalsh(cct)[..., 0])
    return (1.0 - (1.0 + nb2 + q) / den)[()]


def thermal_measures(J, Jz, gamma, B, lam, beta) -> ThermalMeasures:
    """Concurrence and the three MIN variants for a batch of points: 1-d
    parameter arrays of one length, or scalars for a batch of one.

    The vectorized X-state kernel of the production path: every value follows
    from the six thermal elements, with the branches of the general closed
    forms specialised to a Bloch vector along z.  The per-point checks of the
    general path run here too, over the whole batch: the parameter checks,
    the DensityMatrix trace and positivity checks, and the printed-vs-spectral
    fidelity check.  Overflow raises FloatingPointError (see
    thermal_elements_batch).
    """
    t = thermal_elements_batch(J, Jz, gamma, B, lam, beta)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        d0, d1, d2, d3 = (v / t.Z for v in (t.mu_minus, t.nu_minus, t.nu_plus, t.mu_plus))
        k, e = t.kappa / t.Z, t.epsilon / t.Z
        check_xstate(d0, d1, d2, d3, k, e)
        a_z = d0 + d1 - d2 - d3
        b_z = d0 - d1 + d2 - d3
        c_xx, c_yy, c_zz = 2.0 * (k + e), 2.0 * (e - k), d0 - d1 - d2 + d3
        cxx2, cyy2, czz2 = c_xx * c_xx, c_yy * c_yy, c_zz * c_zz
        sum_c2 = cxx2 + cyy2 + czz2
        min_c2 = np.minimum(np.minimum(cxx2, cyy2), czz2)
        transverse = np.maximum(np.abs(c_xx), np.abs(c_yy))
        # zero local Bloch vector: every axis is admissible and the optimum
        # drops the weakest correlation axis; otherwise the axis is pinned to z
        zero = np.abs(a_z) <= X_ZERO_TOL
        min_hs_v = np.where(zero, (sum_c2 - min_c2) / 4.0, (cxx2 + cyy2) / 4.0)[()]
        min_trace_v = np.where(zero, np.maximum(transverse, np.abs(c_zz)), transverse)[()]
        q = np.where(zero, min_c2, a_z * a_z + czz2)
        den = 1.0 + a_z * a_z + b_z * b_z + sum_c2
        fidelity = 1.0 - (1.0 + b_z * b_z + q) / den
        # printed formula, full-Gamma convention: |Gamma|^2 less the weight of
        # Gamma's identity row and x-hat row, over |Gamma|^2
        norm2 = den / 4.0
        printed = (norm2 - (1.0 + b_z * b_z + a_z * a_z + czz2) / 4.0) / norm2
        gap = np.where(zero, 0.0, np.abs(printed - fidelity))
        if np.any(gap > CONVENTION_TOL):
            raise ConventionMismatch(
                f"printed fidelity formula differs from the spectral form by {np.max(gap)}")
        conc = 2.0 * np.maximum(0.0, np.maximum(np.abs(k) - np.sqrt(d1 * d2),
                                                np.abs(e) - np.sqrt(d0 * d3)))
        return ThermalMeasures(
            elements=t, a_z=a_z, b_z=b_z, c_xx=c_xx, c_yy=c_yy, c_zz=c_zz,
            concurrence=conc, min_hs=min_hs_v, min_trace=min_trace_v,
            min_trace_paper=np.abs(k) + np.abs(e), min_fidelity=fidelity,
        )
