import numpy as np
import pytest

from xyzmin.linalg import SIGMA_X, SIGMA_Z, as_matrix, is_hermitian, kron
from xyzmin.model import ModelParams, build_hamiltonian, closed_form_spectrum


def test_hamiltonian_eigenvalues_match_closed_form():
    p = ModelParams(J=1.0, Jz=1.0)
    w = np.linalg.eigvalsh(build_hamiltonian(p))[::-1]
    expected = sorted(closed_form_spectrum(p).energies, reverse=True)
    assert np.allclose(w, expected, atol=1e-12)


def test_kron_dimensions():
    assert kron(SIGMA_X, SIGMA_Z).shape == (4, 4)
    assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))


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
