import numpy as np
import pytest

from conftest import bell_phi_plus, maximally_mixed, random_params, random_state
from xyzmin.decomp import FanoForm, fano_decompose, reconstruct
from xyzmin.errors import StateInvalid
from xyzmin.model import ModelParams, thermal_elements, thermal_state


def test_maximally_mixed_has_no_correlations():
    f = fano_decompose(maximally_mixed())
    assert np.allclose(f.bloch_a, 0) and np.allclose(f.bloch_b, 0)
    assert np.allclose(f.pauli_corr, 0)
    assert f.gamma_full[0, 0] == 0.5


def test_bell_correlations():
    f = fano_decompose(bell_phi_plus())
    assert np.allclose(f.bloch_a, 0, atol=1e-14)
    assert np.allclose(f.bloch_b, 0, atol=1e-14)
    assert np.allclose(f.pauli_corr, np.diag([1.0, -1.0, 1.0]), atol=1e-14)


def test_thermal_xx_example():
    p = ModelParams(J=1.0)
    t = thermal_elements(p)
    f = fano_decompose(thermal_state(p))
    expected = np.diag([2 * t.epsilon / t.Z, 2 * t.epsilon / t.Z,
                        (2 - 2 * np.cosh(1.0)) / t.Z])
    assert np.allclose(f.pauli_corr, expected, atol=1e-13)
    assert np.allclose(f.bloch_a, 0, atol=1e-14)


def test_orthonormal_convention_scaling(rng):
    f = fano_decompose(thermal_state(random_params(rng)))
    assert np.allclose(f.x, f.bloch_a / 2)
    assert np.allclose(f.y, f.bloch_b / 2)
    assert np.allclose(f.t, f.pauli_corr / 2)


def test_gamma_full_norm_is_purity(rng):
    for _ in range(50):
        rho = thermal_state(random_params(rng))
        f = fano_decompose(rho)
        purity = float(np.trace(rho.matrix @ rho.matrix).real)
        assert float(np.sum(f.gamma_full ** 2)) == pytest.approx(purity, abs=1e-12)


def test_round_trip(rng):
    for _ in range(100):
        rho = thermal_state(random_params(rng))
        back = reconstruct(fano_decompose(rho))
        assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-12


def test_general_states_match_trace_definition(rng):
    # complex, non-X states: every entry of the decomposition is exercised
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.diag([1, -1])]
    for _ in range(50):
        rho = random_state(rng)
        f = fano_decompose(rho)
        r = np.array([[np.trace(rho.matrix @ np.kron(si, sj)).real for sj in paulis]
                      for si in paulis])
        assert np.max(np.abs(f.bloch_a - r[1:, 0])) < 1e-14
        assert np.max(np.abs(f.bloch_b - r[0, 1:])) < 1e-14
        assert np.max(np.abs(f.pauli_corr - r[1:, 1:])) < 1e-14
        back = reconstruct(f)
        assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-14


def test_all_zero_reconstructs_identity():
    f = fano_decompose(maximally_mixed())
    assert np.allclose(reconstruct(f).matrix, np.eye(4) / 4)


def test_invalid_correlations_rejected():
    f = FanoForm(
        bloch_a=np.zeros(3), bloch_b=np.zeros(3),
        pauli_corr=np.diag([1.0, 1.0, 1.0]),
        x=np.zeros(3), y=np.zeros(3), t=np.diag([0.5, 0.5, 0.5]),
        gamma_full=np.diag([0.5, 0.5, 0.5, 0.5]),
    )
    with pytest.raises(StateInvalid):
        reconstruct(f)


def test_thermal_fano_identities(rng):
    for _ in range(100):
        p = random_params(rng)
        t = thermal_elements(p)
        f = fano_decompose(thermal_state(p))
        c_expected = np.array([
            2 * (t.kappa + t.epsilon) / t.Z,
            2 * (t.epsilon - t.kappa) / t.Z,
            (t.mu_plus + t.mu_minus - t.nu_plus - t.nu_minus) / t.Z,
        ])
        assert np.allclose(f.pauli_corr, np.diag(c_expected), atol=1e-13)
        a_z = (t.mu_minus - t.mu_plus + t.nu_minus - t.nu_plus) / t.Z
        assert np.allclose(f.bloch_a, [0.0, 0.0, a_z], atol=1e-13)


def test_bloch_a_vanishes_without_fields(rng):
    for _ in range(20):
        j, jz, g = rng.uniform(-5, 5, size=3)
        f = fano_decompose(thermal_state(ModelParams(J=j, Jz=jz, gamma=g)))
        assert np.allclose(f.bloch_a, 0, atol=1e-15)


def test_bloch_norm_bounded(rng):
    for _ in range(50):
        f = fano_decompose(thermal_state(random_params(rng)))
        assert np.linalg.norm(f.bloch_a) <= 1 + 1e-10
        assert np.linalg.norm(f.bloch_b) <= 1 + 1e-10
