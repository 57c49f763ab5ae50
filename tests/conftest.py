import numpy as np
import pytest

from xyzmin.model import DensityMatrix, ModelParams


def bell_phi_plus():
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return DensityMatrix(np.outer(v, v.conj()))


def maximally_mixed():
    return DensityMatrix(np.eye(4, dtype=complex) / 4)


def random_params(rng, low=-5.0, high=5.0):
    j, jz, g, b, lam = rng.uniform(low, high, size=5)
    return ModelParams(J=j, Jz=jz, gamma=g, B=b, lam=lam)


def random_unitary(rng, dim=2):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng):
    """Random full-rank two-qubit state with complex coherences (not an X-state)."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_x_state(rng, zero_bloch_a=False):
    """Random X-state with real off-diagonals (diagonal Pauli correlations)."""
    d = rng.dirichlet(np.ones(4))
    if zero_bloch_a:
        # bloch_a_z = d0 + d1 - d2 - d3: rebalance to zero it
        top = d[0] + d[1]
        d = np.array([d[0], d[1], d[2] * 0.5 / (1 - top), d[3] * 0.5 / (1 - top)])
        d[0], d[1] = d[0] * 0.5 / top, d[1] * 0.5 / top
    k = rng.uniform(-1, 1) * np.sqrt(d[0] * d[3])
    e = rng.uniform(-1, 1) * np.sqrt(d[1] * d[2])
    m = np.diag(d).astype(complex)
    m[0, 3] = m[3, 0] = k
    m[1, 2] = m[2, 1] = e
    return DensityMatrix(m)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
