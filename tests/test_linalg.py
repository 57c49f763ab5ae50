import numpy as np
import pytest

from xyzmin.linalg import (
    IDENTITY_2,
    PAULI_BASIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    as_matrix,
    is_hermitian,
)
from xyzmin.model import ModelParams, build_hamiltonian, closed_form_spectrum


def test_hamiltonian_eigenvalues_match_closed_form():
    p = ModelParams(J=1.0, Jz=1.0)
    w = np.linalg.eigvalsh(build_hamiltonian(p))[::-1]
    expected = sorted(closed_form_spectrum(p).energies, reverse=True)
    assert np.allclose(w, expected, atol=1e-12)


def test_pauli_basis_is_kron_products():
    sigma = (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z)
    assert PAULI_BASIS.shape == (4, 4, 4, 4) and PAULI_BASIS.dtype == complex
    for i, si in enumerate(sigma):
        for j, sj in enumerate(sigma):
            assert np.array_equal(PAULI_BASIS[i, j], np.kron(si, sj))
    assert np.array_equal(PAULI_BASIS[0, 0], np.eye(4))
    assert np.array_equal(PAULI_BASIS[1, 3], [[0, 0, 1, 0], [0, 0, 0, -1],
                                              [1, 0, 0, 0], [0, -1, 0, 0]])


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        as_matrix(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        as_matrix(np.zeros(4))


def test_is_hermitian_tolerance():
    m = np.eye(2, dtype=complex)
    m[0, 1] = 1e-11
    assert not is_hermitian(m)
    m[0, 1] = 0.5e-12
    m[1, 0] = 0.5e-12
    assert is_hermitian(m)
