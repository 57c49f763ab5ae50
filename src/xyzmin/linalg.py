"""Dense complex linear algebra for 2x2 and 4x4 operators.

Everything here is a thin, validated wrapper around numpy; the rest of the
package only ever needs the Pauli operators, their two-qubit products and
Hermiticity checks of single- and two-qubit operators, one at a time or as a
stack of shape (n, d, d).
"""

import numpy as np

HERMITIAN_TOL = 1e-12

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


def as_matrix(m):
    """Coerce input to a complex square ndarray of dimension 2 or 4, or to a
    stack of them, shape (n, d, d)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2] or a.shape[-1] not in (2, 4):
        raise ValueError(f"expected a 2x2 or 4x4 matrix, got shape {a.shape}")
    return a


def dagger(m):
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return np.conj(np.swapaxes(np.asarray(m), -1, -2))


def is_hermitian(m, tol=HERMITIAN_TOL):
    """Whether m, or every matrix of a stack m, is Hermitian within tol."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - dagger(m)))) <= tol


_SIGMA = (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z)
# PAULI_BASIS[i, j] = sigma_i x sigma_j with sigma_0 the identity and
# sigma_1..3 = x, y, z: the two-qubit operator basis, shape (4, 4, 4, 4)
PAULI_BASIS = np.array([[np.kron(si, sj) for sj in _SIGMA] for si in _SIGMA])
