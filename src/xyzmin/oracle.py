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

so one minus the Wang fidelity is ||m - sigma||^2 / r2.  With U = u as a 3x3
matrix, q.u = n^T sym(U) n is a Rayleigh quotient, so over all unit axes the
squared norm is at most (r2 - lambda_min(sym U)) / 2, attained at the matching
eigenvector: the exact maximum of both objectives.

The trace norm is no such form.  But m - sigma = P+ m P- + P- m P+ is
off-diagonal in the eigenbasis |+-n> of n.sigma, so its singular values are
those of the 2x2 block K = (<+n| x I) m (|-n> x I), each twice, and

    ||m - sigma||_1 = 2 ||K||_1 = 2 sqrt(||K||^2 + 2 |det K|)

with ||K||^2 = ||m - sigma||^2 / 2, taken from K itself so that it stays exact
where m - sigma is nearly zero.  The table, u, r2 and the regrouped m that K
is read from are computed once per state.

Its maximum is exact too where the local Bloch vector a of qubit a vanishes
(Hu et al., NJP 17, 033004 (2015)).  Write m = (I + I x b.sigma
+ sum T_ij sigma_i x sigma_j) / 4.  The b term commutes with N, so
m - sigma = sum ((I - nn^T) T)_ij sigma_i x sigma_j / 4, and (I - nn^T) T has
rank at most 2: a local rotation to its signed singular values d1, d2 gives
||m - sigma||_1 = (|d1 + d2| + |d1 - d2|) / 2 = sigma_max((I - nn^T) T).  Over
all axes this is at most sigma_max(T), reached on the great circle of axes
orthogonal to the top left singular vector of T.  At a = 0,
sym U = ((1 + |b|^2 - ||T||^2) I + 2 T T^T) / 4, so the eigenvectors of sym U
are the left singular vectors of T and two of them lie on that circle: the
maximum is the largest trace objective at the three.

The search grid is a product of polar and azimuthal angles.  On it q and the
spinor products that K is built from are each a sum of three products of a
polar and an azimuthal factor, cached once per resolution, so the objective
at every grid axis comes from a (polar x 3) by (3 x azimuthal) matrix
product with the state's u or regrouped m, not from a table per axis.

The maximization runs over measurements that leave the reduced state of the
measured qubit unchanged (the defining constraint of these measures).  When
the local Bloch vector is nonzero this pins the measurement axis to it; when
it vanishes every axis is admissible.  The exact maximum above is then
returned, and the definition evaluated on a grid over the hemisphere of axes
cross-checks it.  Both linear forms are non-increasing in q.u, also as
rounded (r2 > 0, and IEEE rounding is monotone), so their grid maximum is the
form at the grid's least q.u, bit for bit: the grid is reduced to q.u alone,
and the form is taken once.
"""

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .decomp import fano_decompose, pinned_axis
from .errors import OracleInconsistent
from .linalg import PAULI_BASIS, dagger
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
        if not np.all(np.isfinite(v)):
            raise ValueError(f"cannot build a measurement axis from the non-finite vector {v}")
        largest = float(np.max(np.abs(v)))
        if largest == 0.0:
            raise ValueError("cannot build a measurement axis from the zero vector")
        # scaled exactly, by a power of two, to max |v_i| in [1/2, 1): the norm
        # can then neither underflow nor overflow, and elsewhere the angles
        # are those of v / ||v|| bit for bit
        v = np.ldexp(v, -math.frexp(largest)[1])
        v = v / np.linalg.norm(v)
        return cls(theta=math.acos(max(-1.0, min(1.0, v[2]))),
                   phi=math.atan2(v[1], v[0]) % (2 * math.pi))


@dataclass(frozen=True, eq=False)
class OracleResult:
    """A maximum over admissible measurements and an axis attaining it.

    refined is False when the local Bloch vector pins the axis; the value is
    then the objective at that axis and grid_resolution is (1, 1).  refined is
    True when every axis was admissible; the value is then the exact maximum
    at an eigenvector axis of sym U on the searched hemisphere, checked
    against the objective's maximum on a grid of grid_resolution (polar,
    azimuthal) points over that hemisphere.  For hs_sq and one_minus_fidelity
    the exact maximum is the Rayleigh one, at the smallest eigenvalue, and the
    grid maximum is the objective at the grid's least q.u (exactly its largest
    grid value, as both objectives fall as q.u grows).  For trace it is
    sigma_max(T), reached on a great circle of axes, of which the returned
    axis is one."""

    value: float
    argmax_axis: MeasurementAxis
    grid_resolution: tuple
    refined: bool


# S_1, S_2, S_3 (S_i = sigma_i x I) stacked as rows and side by side as
# columns, so that one 12x12 product holds every S_i m S_j as a 4x4 block
_S_ROWS = PAULI_BASIS[1:, 0].reshape(12, 4)
_S_COLS = np.ascontiguousarray(PAULI_BASIS[1:, 0].transpose(1, 0, 2).reshape(4, 12))


class _Sandwiches:
    """What the oracle needs of a 4x4 state m, or of each state of a stack m
    of shape (n, 4, 4), computed once per state and each part on first use;
    a stack prefixes each part with its own axis.

    table holds the nine sandwiches T_k = S_i m S_j (k = 3i + j) as real
    rows, real and imaginary parts interleaved, so that <A, B> = Re Tr A^+ B
    is a dot product of rows.  blocks is m regrouped by the indices of qubit
    a, blocks[2a + b, 2j + l] = m[2a + j, 2b + l], so that the block
    (<e| x I) m (|f> x I) is c . blocks with c_{2a+b} = conj(e_a) f_b."""

    def __init__(self, m):
        self.m = m
        self.lead = m.shape[:-2]

    @cached_property
    def table(self):
        blocks = (_S_ROWS @ self.m @ _S_COLS).reshape(*self.lead, 3, 4, 3, 4)
        return blocks.swapaxes(-3, -2).reshape(*self.lead, 9, 16).view(float)

    @cached_property
    def forms(self):
        """(u, r2) of the linear forms: u = table . m and r2 = <m, m>."""
        mr = np.ascontiguousarray(self.m, dtype=complex).reshape(*self.lead, 16).view(float)
        return (self.table @ mr[..., None])[..., 0], np.einsum("...c,...c->...", mr, mr)

    @cached_property
    def blocks(self):
        m = self.m.reshape(*self.lead, 2, 2, 2, 2)
        return m.swapaxes(-3, -2).reshape(*self.lead, 4, 4)


def _axis_products(axes):
    """q = n (x) n, shape (..., 9), for unit axes n of shape (..., 3)."""
    return (axes[..., :, None] * axes[..., None, :]).reshape(*axes.shape[:-1], 9)


def _spinor_products(axes):
    """c, shape (..., 4), with c_{2a+b} = conj(e+_a) e-_b for eigenvectors
    e+- of n.sigma, for unit axes n of shape (..., 3).  For n_z >= 0 take
    e+ = (1 + z, x + iy) and e- = (x - iy, -(1 + z)), each over
    sqrt(2 (1 + z)).  For n_z < 0 take them for the antipode -n, the same
    measurement, whose e+- are the e-+ of n: K becomes K^+, which has the
    same singular values, and so does -K.  With w = (x - iy) / 2 and
    s = sign(z) (1 + |z|) / 2, c in both cases (times -1 in the second) is

        c = (w, -s, w^2 / s, -w)."""
    w = (axes[..., 0] - 1j * axes[..., 1]) / 2.0
    s = np.copysign(1.0 + np.abs(axes[..., 2]), axes[..., 2]) / 2.0
    c = np.empty(w.shape + (4,), dtype=complex)
    c[..., 0], c[..., 1], c[..., 2], c[..., 3] = w, -s, w * w / s, -w
    return c


def _terms(axes, kind):
    """What the objective of kind reads of unit axes n of shape (..., 3): c
    for trace, q for the linear kinds."""
    return _spinor_products(axes) if kind == "trace" else _axis_products(axes)


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


def _contract(factored, x):
    """q . u or c . blocks at every axis of a grid, for x = u or blocks of
    one state and factored = (alpha, F), the grid's factored q or c (see
    _grid): t = sum_r alpha[i, r] F[r, j] at polar index i and azimuthal
    index j, so t . x = alpha @ (F . x), of shape (polar, azimuthal) plus
    the trailing axes of x after the first."""
    alpha, f = factored
    fx = f @ x
    # alpha is real: a product with the float view of a complex fx
    out = alpha @ fx.view(float).reshape(len(fx), -1)
    return out.view(fx.dtype).reshape(len(alpha), *fx.shape[1:])


def _objective(sw, terms, kind):
    """Disturbance of sw.m by the measurement along each axis, given the
    axes' _terms of shape (..., 9) or (..., 4), or a grid's factored pair of
    them (see _contract); returns an array of shape (...), or (polar,
    azimuthal) for a grid.  For a stack sw.m the leading axes of terms pair
    with its states: one axis per state.  hs_sq and one_minus_fidelity are
    the linear forms and trace the 2x2-block form of the module docstring."""
    grid = isinstance(terms, tuple)
    if kind == "trace":
        blocks = sw.blocks
        if grid:
            k = _contract(terms, blocks)
        else:
            # one state: a single product over every axis
            k = (terms @ blocks if blocks.ndim == 2
                 else np.einsum("...a,...ab->...b", terms, blocks))
        kr = k.view(float)
        norm_sq = np.einsum("...a,...a->...", kr, kr)
        det = k[..., 0] * k[..., 3] - k[..., 1] * k[..., 2]
        return 2.0 * np.sqrt(norm_sq + 2.0 * np.abs(det))
    u, r2 = sw.forms
    qu = _contract(terms, u) if grid else np.einsum("...k,...k->...", terms, u)
    return _linear_form(kind, qu, r2)


def _linear_form(kind, qu, r2):
    """hs_sq = (r2 - q.u) / 2, or one_minus_fidelity = hs_sq / r2, from q.u
    and r2 (module docstring).  Both are non-increasing in q.u, also as
    rounded, since r2 > 0 and IEEE rounding is monotone."""
    hs_sq = (r2 - qu) / 2.0
    if kind == "hs_sq":
        return hs_sq
    if kind == "one_minus_fidelity":
        return hs_sq / r2
    raise ValueError(f"unknown objective kind {kind!r}")


@lru_cache(maxsize=4)
def _grid(grid):
    """The axes searched at a grid resolution, n = (sin t cos p, sin t sin p,
    cos t) over polar angles t and azimuths p, as read-only arrays: thetas,
    phis and the factored pairs (alpha_q, Q) and (alpha_c, C) of both _terms,
    q and c.  On a product grid each is a sum of three products of a polar
    and an azimuthal factor:

        q = sin^2 t Q_0 + sin t cos t Q_1 + cos^2 t Q_2
        c = (sin t / 2) C_0 + ((1 + cos t) / 2) C_1
            + (sin^2 t / (2 (1 + cos t))) C_2

    with C_0 = (e, 0, 0, -e), C_1 = (0, -1, 0, 0) and C_2 = (0, 0, e^2, 0),
    e = exp(-ip): c of _spinor_products for n_z = cos t >= 0.  Antipodal
    axes define the same measurement, so a hemisphere suffices, with the pole
    (z-axis) and the equator sampled exactly."""
    thetas = np.linspace(0.0, math.pi / 2, grid[0] // 2 + 1)
    phis = np.linspace(0.0, 2 * math.pi, grid[1], endpoint=False)
    st, ct = np.sin(thetas), np.cos(thetas)
    cp, sp = np.cos(phis), np.sin(phis)
    o, one = np.zeros_like(phis), np.ones_like(phis)
    alpha_q = np.stack([st * st, st * ct, ct * ct], axis=1)
    q_phi = np.stack([np.stack(f, axis=-1) for f in (
        (cp * cp, cp * sp, o, cp * sp, sp * sp, o, o, o, o),
        (o, o, cp, o, o, sp, cp, sp, o),
        (o, o, o, o, o, o, o, o, one))])
    e = cp - 1j * sp
    alpha_c = np.stack([st / 2.0, (1.0 + ct) / 2.0, st * st / (2.0 * (1.0 + ct))], axis=1)
    c_phi = np.stack([np.stack(f, axis=-1) for f in (
        (e, o, o, -e), (o, -one, o, o), (o, o, e * e, o))])
    arrays = (thetas, phis, alpha_q, q_phi, alpha_c, c_phi)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _exact_max(sw, kind, grid_max):
    """Exact maximum of the objective kind over all unit axes, and an axis
    attaining it, from the eigenvectors of sym(U) (module docstring): for
    the linear kinds the smallest eigenpair, for trace the best of the
    definition at all three.  Raises OracleInconsistent if grid_max, the
    objective's maximum over the search grid, exceeds it by more than
    rounding."""
    u, r2 = sw.forms
    U = u.reshape(3, 3)
    lam, vecs = np.linalg.eigh((U + U.T) / 2.0)
    if kind == "trace":
        values = _objective(sw, _spinor_products(vecs.T), kind)
        i = int(np.argmax(values))
        value = float(values[i])
        rounding = 1e-14 * max(1.0, value)
    else:
        i, value = 0, float(_linear_form(kind, lam[0], r2))
        rounding = 1e-15 * max(1.0, r2)
    if grid_max > value + rounding:
        raise OracleInconsistent(
            f"{kind}: grid maximum {grid_max!r} exceeds the exact maximum {value!r}")
    # the antipode defines the same measurement: take the one on the searched
    # hemisphere, the last nonzero component positive
    n = vecs[:, i]
    return value, MeasurementAxis.from_vector(n if n[np.flatnonzero(n)[-1]] > 0 else -n)


def pinned_disturbance(rho: DensityMatrix, kind: str):
    """The disturbance of kind of each state of rho, one or a stack, by the
    measurement along its own local Bloch vector: the value
    max_over_measurements returns wherever that vector is nonzero, and nan
    where it vanishes."""
    _, pinned, n = pinned_axis(fano_decompose(rho).bloch_a)
    values = _objective(_Sandwiches(rho.matrix), _terms(n, kind), kind)
    return np.where(pinned, values, np.nan)[()]


def _checked_grid(grid):
    """grid as a (polar, azimuthal) pair of ints, each at least 1."""
    pair = tuple(grid) if np.iterable(grid) else ()
    if len(pair) != 2 or not all(isinstance(g, numbers.Integral) and g >= 1 for g in pair):
        raise ValueError(f"grid must be two integers >= 1 (polar, azimuthal), got {grid!r}")
    return tuple(int(g) for g in pair)


def max_over_measurements(rho: DensityMatrix, kind: str,
                          grid=DEFAULT_GRID) -> OracleResult:
    """Maximal disturbance of rho over admissible measurements on qubit a.

    kind selects the objective: squared Hilbert-Schmidt norm ("hs_sq"), trace
    norm ("trace"), or one minus the Wang fidelity ("one_minus_fidelity").
    """
    grid = _checked_grid(grid)
    sw = _Sandwiches(rho.matrix)
    a = fano_decompose(rho).bloch_a
    _, pinned, n = pinned_axis(a)
    if pinned:
        # only the axis parallel to the local Bloch vector leaves the reduced
        # state invariant: no optimization freedom
        return OracleResult(value=float(_objective(sw, _terms(n, kind), kind)),
                            argmax_axis=MeasurementAxis.from_vector(a),
                            grid_resolution=(1, 1), refined=False)

    thetas, phis, alpha_q, q_phi, alpha_c, c_phi = _grid(grid)
    if kind == "trace":
        grid_max = np.max(_objective(sw, (alpha_c, c_phi), kind))
    else:
        # the grid maximum is the form at the least q.u (module docstring)
        u, r2 = sw.forms
        grid_max = _linear_form(kind, _contract((alpha_q, q_phi), u).min(), r2)
    value, axis = _exact_max(sw, kind, float(grid_max))
    return OracleResult(value=value, argmax_axis=axis,
                        grid_resolution=(len(thetas), len(phis)), refined=True)


def thermal_state_exp(p: ModelParams) -> DensityMatrix:
    """Gibbs state by numeric eigendecomposition of the Hamiltonian, or a
    stack of them for a batch."""
    w, v = np.linalg.eigh(build_hamiltonian(p))
    # eigh sorts ascending: shifting by the ground energy avoids overflow
    weights = np.exp(-np.asarray(p.beta)[..., None] * (w - w[..., :1]))
    m = (v * weights[..., None, :]) @ dagger(v)
    return DensityMatrix(m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None])
