import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ptqsim import (
    SystemParams,
    build_hamiltonian,
    coherence_expectation,
    concurrence_pure,
    propagate,
)
from ptqsim.errors import NotNormalizedError
from ptqsim.model import IDENTITY_2, PARITY, SIGMA_X, SIGMA_Z

params_st = st.builds(
    SystemParams,
    omega=st.floats(0.0, 3.0),
    j=st.floats(0.0, 1.2),
    gamma=st.floats(0.0, 2.0),
)


class TestHamiltonian:
    def test_diagonal_when_omega_vanishes(self):
        h = build_hamiltonian(SystemParams(omega=0.0, j=0.3, gamma=1.0))
        expected = np.diag([0.3 + 1j, -0.3, -0.3, 0.3 - 1j])
        assert np.allclose(h, expected, atol=1e-15)

    def test_hermitian_limit(self):
        h = build_hamiltonian(SystemParams(omega=1.5, j=0.0, gamma=0.0))
        assert np.allclose(h, h.conj().T)
        assert np.allclose(np.diag(h), 0)
        # single-qubit flips carry omega/2, double flips vanish
        for a, b in ((0, 1), (0, 2), (1, 3), (2, 3)):
            assert h[a, b] == pytest.approx(0.75)
        assert h[0, 3] == 0 and h[3, 0] == 0

    def test_traceless_and_no_double_flip(self):
        h = build_hamiltonian(SystemParams(omega=2.0, j=0.7, gamma=1.0))
        assert abs(np.trace(h)) == 0
        assert h[0, 3] == 0 and h[3, 0] == 0

    def test_literal_matches_kronecker_form_bitwise(self):
        """Every bit of H, signed zeros included, equals the Kronecker-product formula."""

        def kron_form(params):
            om, j, g = params.omega, params.j, params.gamma
            single = 0.5 * (om * SIGMA_X - 1j * g * SIGMA_Z)
            h = np.kron(single, IDENTITY_2) + np.kron(IDENTITY_2, single)
            h += j * np.kron(SIGMA_Z, SIGMA_Z)
            return h

        rng = np.random.default_rng(20260809)
        edges = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e300, -1e300]
        rates = list(rng.uniform(-3.0, 3.0, 12)) + edges
        gammas = [0.0, -0.0, 5e-324, 1e300] + list(rng.uniform(0.0, 2.0, 6))
        for om in rates:
            for j in rates:
                for g in gammas:
                    params = SystemParams(float(om), float(j), float(g))
                    got = build_hamiltonian(params)
                    assert got.dtype == np.complex128 and got.shape == (4, 4)
                    assert (got.view(float).tobytes()
                            == kron_form(params).view(float).tobytes()), params


@given(params_st)
def test_pt_symmetry(params):
    """PT: parity (both qubits flipped) after entrywise conjugation leaves H as it is."""
    h = build_hamiltonian(params)
    assert np.abs(PARITY @ h.conj() @ PARITY - h).max() <= 1e-13


@given(params_st)
def test_trace_always_zero(params):
    assert abs(np.trace(build_hamiltonian(params))) <= 1e-14


@given(params_st)
def test_qubit_exchange_symmetry(params):
    """Exchanging the qubit labels (|01> <-> |10>) leaves H as it is."""
    swap = [0, 2, 1, 3]
    h = build_hamiltonian(params)
    assert np.abs(h[swap][:, swap] - h).max() <= 1e-14


class TestSystemParams:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SystemParams(omega=np.inf, j=0.0)
        with pytest.raises(ValueError):
            SystemParams(omega=1.0, j=np.nan)

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError):
            SystemParams(omega=1.0, j=0.0, gamma=-0.5)

    def test_preset_domain_flagging(self):
        assert SystemParams(2.0, 0.3).in_preset_domain()
        assert not SystemParams(-1.0, 0.3).in_preset_domain()
        assert not SystemParams(2.0, 0.3, gamma=0.0).in_preset_domain()

    def test_replace(self):
        p = SystemParams(2.0, 0.3).replace(j=0.7)
        assert (p.omega, p.j, p.gamma) == (2.0, 0.7, 1.0)


@pytest.mark.parametrize("amplitude", [np.nan, np.inf])
@pytest.mark.parametrize(
    "entry",
    [
        concurrence_pure,
        coherence_expectation,
        lambda psi: propagate(SystemParams(2.0, 0.4), psi, 0.01, 1e-3),
    ],
    ids=["concurrence_pure", "coherence_expectation", "propagate"],
)
def test_non_finite_state_is_not_normalized(entry, amplitude):
    with pytest.raises(NotNormalizedError):
        entry(np.array([amplitude, 0, 0, 0], dtype=complex))
