import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptqsim import (
    Phase,
    Source,
    SystemParams,
    auxiliary_quantities,
    build_hamiltonian,
    classify_phase,
    eigensystem_oracle,
    eigenvalues_closed_form,
    eigenvectors_closed_form,
    pairing_distance,
    spectrum_closed_form,
    spectrum_oracle,
)
from conftest import FIG_SWEEPS, eigenpairs_reference, fig_sweep_points
from ptqsim.errors import NearDefectiveError, OmegaSingularError
from ptqsim.spectrum import _closed_form_eigenpairs, _min_gap

params_st = st.builds(
    SystemParams,
    omega=st.floats(0.1, 3.0),
    j=st.floats(0.0, 1.2),
    gamma=st.just(1.0),
)


class TestAuxiliaries:
    def test_free_limit(self):
        aux = auxiliary_quantities(SystemParams(0.0, 0.0, 1.0))
        assert aux.x == pytest.approx(-3.0)
        assert aux.z == pytest.approx(1.0)
        assert aux.y == pytest.approx(np.sqrt(3.0))
        assert aux.theta_y == 0.0

    def test_decoupled_qubits(self):
        aux = auxiliary_quantities(SystemParams(2.0, 0.0, 1.0))
        assert aux.x == pytest.approx(9.0)
        assert aux.z == pytest.approx(-27.0)
        assert aux.r == pytest.approx(3.0)
        assert aux.theta_y == pytest.approx(np.pi / 6)
        assert aux.y == pytest.approx(3.0 * np.exp(1j * np.pi / 6))

    def test_polar_consistency(self):
        aux = auxiliary_quantities(SystemParams(1.7, 0.45, 1.0))
        assert aux.y == pytest.approx(aux.r * np.exp(1j * aux.theta_y), abs=1e-12)

    def test_unbroken_phase_locks_x_to_r_squared(self):
        # inside the unbroken phase x - r^2 vanishes identically
        aux = auxiliary_quantities(SystemParams(2.0, 0.589, 1.0))
        assert abs(aux.x - aux.r**2) < 1e-10


class TestClosedFormEigenvalues:
    def test_free_limit_labels(self):
        values = eigenvalues_closed_form(SystemParams(0.0, 0.0, 1.0))
        assert values[0] == 0
        assert values[1] == pytest.approx(0.0, abs=1e-15)
        assert values[2] == pytest.approx(1j, abs=1e-15)
        assert values[3] == pytest.approx(-1j, abs=1e-15)

    def test_decoupled_multiset(self):
        values = eigenvalues_closed_form(SystemParams(2.0, 0.0, 1.0))
        expected = np.array([0.0, np.sqrt(3.0), -np.sqrt(3.0), 0.0])
        assert pairing_distance(values, expected) < 1e-14

    def test_diagonal_multiset(self):
        values = eigenvalues_closed_form(SystemParams(0.0, 0.3, 1.0))
        expected = np.array([-0.3, 0.3 + 1j, 0.3 - 1j, -0.3])
        assert pairing_distance(values, expected) < 1e-14

    def test_singlet_root_exact(self):
        values = eigenvalues_closed_form(SystemParams(1.3, 0.77, 1.0))
        assert values[0] == -0.77

    def test_third_order_point_is_exact_triple_root(self):
        # single-qubit critical point with no coupling: x = z = a = 0, so the
        # cube-root pair is 0 and the symmetric-sector cubic has the triple root j/3
        values = eigenvalues_closed_form(SystemParams(1.0, 0.0, 1.0))
        assert values.tolist() == [0, 0, 0, 0]
        assert not np.any(values.imag)
        assert eigenvalues_closed_form(SystemParams(0.0, 0.0, 0.0)).tolist() == [0, 0, 0, 0]

    def test_verify_against_oracle(self):
        params = SystemParams(2.0, 0.55, 1.0)
        values = eigenvalues_closed_form(params)
        oracle = eigensystem_oracle(build_hamiltonian(params), deflate_root=-params.j)
        assert pairing_distance(values, oracle.eigenvalues) <= 1e-9


def _newton_steps(params: SystemParams, scale: float = 1.0) -> list:
    """|p/p'|/3 at each of E2..E4 over max(scale, |E|), in exact rationals.

    t = 3E - j solves p(t) = t^3 - 3x t - 2a, with x and a exact in the float
    rates, so the Newton step bounds E's distance to the nearest true root.
    A root where p' = 0 exactly gives None, and must be exactly 0 and a root.
    """
    om, j, g = (Fraction(r) for r in (params.omega, params.j, params.gamma))
    x = 4 * j * j + 3 * om * om - 3 * g * g
    a = -8 * j**3 - 9 * j * (om * om + 2 * g * g)
    steps = []
    for e in eigenvalues_closed_form(params)[1:]:
        er, ei = Fraction(e.real), Fraction(e.imag)
        tr, ti = 3 * er - j, 3 * ei
        ur, ui = tr * tr - ti * ti - x, 2 * tr * ti  # t^2 - x = p'/3
        pr = tr * (ur - 2 * x) - ti * ui - 2 * a
        pi = ti * (ur - 2 * x) + tr * ui
        dp2 = 9 * (ur * ur + ui * ui)
        if dp2 == 0:
            assert e == 0 and pr == pi == 0, (params, e)
            steps.append(None)
            continue
        # the ratio stays a Fraction until it is dimensionless: at 1e-200 rates |p|^2 underflows
        ratio = (pr * pr + pi * pi) / (9 * dp2 * max(Fraction(scale) ** 2, er * er + ei * ei))
        steps.append(math.sqrt(ratio))
    return steps


class TestClosedFormAccuracy:
    """Every closed-form eigenvalue lies within 4e-15 max(1, |E|) of a true root (rate units)."""

    BOUND = 4e-15

    def test_fig2_grid(self):
        steps = [
            s for om in np.linspace(0.0, 3.0, 61) for j in np.linspace(0.0, 1.2, 61)
            for s in _newton_steps(SystemParams(float(om), float(j), 1.0))
        ]
        assert steps.count(None) == 3  # the triple root at (omega, j) = (gamma, 0)
        assert max(s for s in steps if s is not None) <= self.BOUND

    @pytest.mark.parametrize("sign", [1, -1])  # j < 0 makes a > 0: the other radicand cancels
    @pytest.mark.parametrize("k", range(2, 11))
    def test_next_to_third_order_point(self, k, sign):
        assert max(_newton_steps(SystemParams(1.0, sign * 10.0**-k, 1.0))) <= self.BOUND

    @pytest.mark.parametrize("scale", [1e-13, 1e-60, 1e-110, 1e-200])
    @pytest.mark.parametrize("shape", [(2.0, 0.4, 1.0), (0.5, 0.3, 1.0)])
    def test_tiny_rates(self, shape, scale):
        params = SystemParams(*(r * scale for r in shape))
        assert max(_newton_steps(params, scale)) <= self.BOUND


class TestClosedFormEigenvectors:
    def test_singlet(self):
        params = SystemParams(1.234, 0.4, 1.0)
        vecs = eigenvectors_closed_form(params)
        assert np.allclose(vecs[0], [0, -1 / np.sqrt(2), 1 / np.sqrt(2), 0])
        h = build_hamiltonian(params)
        assert np.linalg.norm(h @ vecs[0] + params.j * vecs[0]) < 1e-15

    def test_residuals_small(self):
        params = SystemParams(2.0, 0.4, 1.0)
        values = eigenvalues_closed_form(params)
        vecs = eigenvectors_closed_form(params, values)
        h = build_hamiltonian(params)
        for k in range(4):
            assert np.linalg.norm(h @ vecs[k] - values[k] * vecs[k]) < 1e-10

    def test_hermitian_vectors_real_up_to_phase(self):
        vecs = eigenvectors_closed_form(SystemParams(1.5, 0.01, 0.0))
        # phase fixing makes the real case exactly real
        assert np.max(np.abs(vecs.imag)) < 1e-9

    def test_omega_singular(self):
        with pytest.raises(OmegaSingularError):
            eigenvectors_closed_form(SystemParams(0.0, 0.3, 1.0))

    def test_phase_convention(self):
        vecs = eigenvectors_closed_form(SystemParams(2.0, 0.7, 1.0))
        for vec in vecs:
            k = 3 - np.argmax(np.abs(vec)[::-1])  # ties resolve high
            assert vec[k].imag == pytest.approx(0.0, abs=1e-12)
            assert vec[k].real > 0


def _seeded_points(n, seed=20261018):
    rng = np.random.default_rng(seed)
    return [SystemParams(rng.uniform(0.05, 3.0) * rng.choice([-1, 1]), rng.uniform(-1.2, 1.2),
                         rng.uniform(0.0, 1.5)) for _ in range(n)]


def _assert_same_vector(got, want):
    """Within 1e-14; where two amplitudes tie in magnitude to rounding (|r1| = 1 in
    the unbroken phase), the phase fix may pivot on either, so up to that phase."""
    if np.max(np.abs(got - want)) <= 1e-14:
        return
    second, first = np.sort(np.abs(want))[-2:]
    assert first - second <= 4e-16
    phase = np.vdot(want, got)
    assert np.max(np.abs(got - want * phase / abs(phase))) <= 1e-14


class TestBatchedEigenpairs:
    """_closed_form_eigenpairs on a leading axis of points against the per-point loop."""

    @pytest.mark.parametrize("sweep", FIG_SWEEPS + ["seeded"])
    def test_matches_per_point_reference(self, sweep):
        points = _seeded_points(400) if sweep == "seeded" else fig_sweep_points(*sweep)
        values = np.array([eigenvalues_closed_form(p) for p in points])
        keep = _min_gap(values) >= 1e-4  # the points a sense sweep solves
        points = [p for p, k in zip(points, keep) if k]
        vecs, h, residuals = _closed_form_eigenpairs(points, values[keep])
        assert vecs.shape == h.shape == (len(points), 4, 4) and residuals.shape == (len(points),)
        for p, v, hp, res, e in zip(points, vecs, h, residuals, values[keep]):
            want, want_res = eigenpairs_reference(p, e)
            for got_k, want_k in zip(v, want):
                _assert_same_vector(got_k, want_k)
            assert hp.tobytes() == build_hamiltonian(p).tobytes()
            assert res == pytest.approx(want_res, rel=0.5, abs=1e-15)

    def test_a_point_does_not_depend_on_its_batch(self):
        points = fig_sweep_points(*FIG_SWEEPS[0]) + _seeded_points(50)
        values = np.array([eigenvalues_closed_form(p) for p in points])
        keep = _min_gap(values) >= 1e-4
        points, values = [p for p, k in zip(points, keep) if k], values[keep]
        batch = _closed_form_eigenpairs(points, values)
        for i, p in enumerate(points):
            one = _closed_form_eigenpairs([p], values[i:i + 1])
            assert all(a[i].tobytes() == b[0].tobytes() for a, b in zip(batch, one))
        assert eigenvectors_closed_form(points[7]).tobytes() == batch[0][7].tobytes()

    def test_min_gap_on_last_axis(self):
        values = np.array([eigenvalues_closed_form(p) for p in _seeded_points(20)])
        gaps = _min_gap(values.reshape(4, 5, 4))
        assert gaps.shape == (4, 5)
        assert gaps.reshape(-1).tolist() == [_min_gap(v) for v in values]

    def test_near_defective_names_first_failing_point(self):
        good, bad = SystemParams(2.0, 0.4, 1.0), [SystemParams(2e8, 0.4e8, 1e8),
                                                   SystemParams(3e8, 0.4e8, 1e8)]
        with pytest.raises(NearDefectiveError) as single:
            eigenvectors_closed_form(bad[0])
        with pytest.raises(NearDefectiveError) as batch:
            _closed_form_eigenpairs([good] + bad)
        assert str(batch.value) == str(single.value)


class TestOracle:
    def test_diagonal_matrix(self):
        h = np.diag([0.3 + 1j, -0.3, -0.3, 0.3 - 1j])
        spec = eigensystem_oracle(h)
        assert pairing_distance(spec.eigenvalues, np.diag(h)) < 1e-12
        assert spec.max_residual < 1e-12

    def test_agrees_with_closed_form(self):
        params = SystemParams(2.0, 0.4, 1.0)
        spec = eigensystem_oracle(build_hamiltonian(params), deflate_root=-params.j)
        assert pairing_distance(spec.eigenvalues, eigenvalues_closed_form(params)) < 1e-9

    def test_hermitian_orthonormal(self):
        params = SystemParams(2.0, 0.4, 0.0)
        spec = eigensystem_oracle(build_hamiltonian(params), deflate_root=-params.j)
        assert np.max(np.abs(spec.eigenvalues.imag)) < 1e-10
        gram = spec.eigenvectors @ spec.eigenvectors.conj().T
        assert np.max(np.abs(gram - np.eye(4))) < 1e-9

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            eigensystem_oracle(np.full((4, 4), np.nan, dtype=complex))

    @pytest.mark.parametrize("omega", [1e-3, -1e-3, 3e-4])
    def test_keeps_exact_root_next_to_near_pair(self, omega):
        """E2 = -j - O(omega^2) sits next to the exact singlet root -j at small omega;
        neither is moved onto their mean."""
        params = SystemParams(omega, 0.3, 1.0)
        spec = eigensystem_oracle(build_hamiltonian(params), deflate_root=-params.j)
        assert spec.eigenvalues[0] == -0.3
        assert pairing_distance(spec.eigenvalues, eigenvalues_closed_form(params)) < 1e-12

    def test_handles_defective_input(self):
        # both qubits exactly critical: a fourfold zero eigenvalue
        spec = eigensystem_oracle(build_hamiltonian(SystemParams(1.0, 0.0, 1.0)))
        assert np.max(np.abs(spec.eigenvalues)) < 1e-6


class TestSpectrumTypes:
    def test_closed_form_source(self):
        spec = spectrum_closed_form(SystemParams(2.0, 0.4, 1.0))
        assert spec.source is Source.CLOSED_FORM
        assert spec.eigenvalues[0] == -0.4
        assert spec.max_residual < 1e-9

    @pytest.mark.parametrize("omega, j", [(2.0, 0.4), (1.7, 0.45), (1e-3, 0.3)])
    def test_negative_omega_mirrors_positive(self, omega, j):
        """U = sz(x)sz maps H(omega) to H(-omega): the same eigenvalues, vectors U v."""
        plus = spectrum_closed_form(SystemParams(omega, j, 1.0))
        minus = spectrum_closed_form(SystemParams(-omega, j, 1.0))
        assert minus.source is Source.CLOSED_FORM
        assert minus.eigenvalues.tobytes() == plus.eigenvalues.tobytes()
        u = np.array([1, -1, -1, 1])
        for a, b in zip(minus.eigenvectors, plus.eigenvectors):
            assert abs(np.vdot(u * b, a)) == pytest.approx(1.0, abs=1e-12)

    def test_oracle_labels_aligned(self):
        params = SystemParams(2.0, 0.55, 1.0)
        closed = spectrum_closed_form(params)
        oracle = spectrum_oracle(params)
        assert oracle.source is Source.ORACLE
        assert np.max(np.abs(oracle.eigenvalues - closed.eigenvalues)) < 1e-9
        assert abs(oracle.eigenvalues[0] + params.j) < 1e-10


class TestClassifyPhase:
    @pytest.mark.parametrize(
        "omega,j,expected",
        [
            (2.0, 0.4, Phase.PT_SYMMETRIC),
            (2.0, 0.7, Phase.PT_BROKEN),
            (0.0, 0.5, Phase.PT_BROKEN),
        ],
    )
    def test_examples(self, omega, j, expected):
        assert classify_phase(SystemParams(omega, j, 1.0)).phase is expected

    def test_near_ep(self):
        # a hair inside the unbroken phase: real spectrum with a closing gap
        label = classify_phase(SystemParams(2.0, 0.5899798397854932 - 1e-13, 1.0))
        assert label.phase is Phase.NEAR_EP

    @pytest.mark.parametrize("scale", [1e-9, 1e-110])
    @pytest.mark.parametrize("shape, expected", [
        ((2.0, 0.7, 1.0), Phase.PT_BROKEN),
        ((2.0, 0.4, 1.0), Phase.PT_SYMMETRIC),
    ])
    def test_label_does_not_depend_on_units(self, shape, expected, scale):
        """max|Im E| and the gaps scale with the rates, and so do the thresholds below 1."""
        params = SystemParams(*(r * scale for r in shape))
        assert classify_phase(params).phase is expected
        assert classify_phase(SystemParams(*shape)).phase is expected

    def test_max_imag_reported(self):
        label = classify_phase(SystemParams(0.0, 0.5, 1.0))
        assert label.max_imag == pytest.approx(1.0)


@given(params_st)
@settings(max_examples=60)
def test_conjugate_pair_symmetry(params):
    """The eigenvalue multiset equals its conjugate multiset."""
    values = eigenvalues_closed_form(params)
    assert pairing_distance(values, values.conj()) < 1e-10


@given(params_st)
@settings(max_examples=60)
def test_eigenvalue_sum_is_trace(params):
    values = eigenvalues_closed_form(params)
    assert abs(values.sum()) < 1e-10


def test_random_sweep_closed_vs_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        params = SystemParams(rng.uniform(0.1, 3.0), rng.uniform(0.0, 1.2), 1.0)
        values = eigenvalues_closed_form(params)
        spec = eigensystem_oracle(build_hamiltonian(params), deflate_root=-params.j)
        assert pairing_distance(values, spec.eigenvalues) < 1e-9


def test_gamma_zero_real_and_orthogonal():
    rng = np.random.default_rng(11)
    for _ in range(25):
        params = SystemParams(rng.uniform(0.3, 3.0), rng.uniform(0.05, 1.2), 0.0)
        values = eigenvalues_closed_form(params)
        assert np.max(np.abs(values.imag)) < 1e-10
        vecs = eigenvectors_closed_form(params, values)
        gram = vecs @ vecs.conj().T
        assert np.max(np.abs(gram - np.eye(4))) < 1e-9
