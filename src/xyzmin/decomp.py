"""Bloch/Fano decomposition of a two-qubit state.

Both operator conventions are kept side by side:

* Pauli convention:   rho = (1/4)(I + a.sigma x I + I x b.sigma + sum c_ij s_i x s_j)
  with a = bloch_a, b = bloch_b, C = pauli_corr.
* Orthonormal convention (X_i = sigma_i / sqrt(2)): x = a/2, y = b/2, T = C/2,
  collected with the identity sector into the 4x4 coefficient matrix
  gamma_full = [[1/2, y^t], [x, T]] which satisfies ||gamma_full||^2 = Tr rho^2.

Carrying both eliminates silent factor-of-2 mistakes between the closed
formulas stated in either convention.  A stack of states, shape (n, 4, 4),
gives a FanoForm whose fields carry the same leading axis.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import PAULI_BASIS
from .model import DensityMatrix

# Below this norm of bloch_a the local state is treated as maximally mixed and
# the measurement axis is unconstrained.  Branch discontinuities at this point
# are genuine features of the closed formulas, not something to smooth over.
X_ZERO_TOL = 1e-9


def pinned_axis(bloch_a):
    """|a|^2 for local Bloch vectors a of shape (..., 3), the mask of
    |a| > X_ZERO_TOL, where a pins the measurement axis, and the unit axis
    a/|a| there (0 where the mask is False)."""
    na2 = np.einsum("...i,...i->...", bloch_a, bloch_a)
    na = np.sqrt(na2)
    pinned = na > X_ZERO_TOL
    return na2, pinned, bloch_a / np.where(pinned, na, np.inf)[..., None]


@dataclass(frozen=True, eq=False)
class FanoForm:
    # shapes for one state; a stack prefixes its own axis
    bloch_a: np.ndarray   # (3,)  Tr(rho sigma_i x I)
    bloch_b: np.ndarray   # (3,)  Tr(rho I x sigma_j)
    pauli_corr: np.ndarray  # (3, 3)  Tr(rho sigma_i x sigma_j)
    x: np.ndarray         # (3,)  orthonormal-convention local vector = bloch_a/2
    y: np.ndarray         # (3,)
    t: np.ndarray         # (3, 3) orthonormal-convention correlation = pauli_corr/2
    gamma_full: np.ndarray  # (4, 4)


def fano_decompose(rho: DensityMatrix) -> FanoForm:
    # r[i, j] = Tr(rho sigma_i x sigma_j), index 0 the identity: r[0, 0] is
    # Tr rho, the first column bloch_a, the first row bloch_b
    r = np.einsum("ijab,...ba->...ij", PAULI_BASIS, rho.matrix).real
    gamma = r / 2.0
    gamma[..., 0, 0] = 0.5
    return FanoForm(bloch_a=r[..., 1:, 0], bloch_b=r[..., 0, 1:], pauli_corr=r[..., 1:, 1:],
                    x=gamma[..., 1:, 0], y=gamma[..., 0, 1:], t=gamma[..., 1:, 1:],
                    gamma_full=gamma)


def reconstruct(f: FanoForm) -> DensityMatrix:
    """Inverse of fano_decompose, from gamma_full; raises StateInvalid if the
    coefficients do not describe a positive state."""
    return DensityMatrix(np.einsum("...ij,ijab->...ab", f.gamma_full, PAULI_BASIS) / 2.0)
