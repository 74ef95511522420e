import dataclasses
import math
import sys
import threading
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptqsim import (
    Phase,
    PhaseLabel,
    Source,
    SystemParams,
    auxiliary_quantities,
    build_hamiltonian,
    classify_phase,
    concurrence_mixed,
    concurrence_pure,
    eigensystem_oracle,
    eigenvalues_closed_form,
    eigenvectors_closed_form,
    pairing_distance,
    spectrum_closed_form,
    spectrum_oracle,
)
from conftest import FIG_SWEEPS, eigenpairs_reference, fig_sweep_points
from ptqsim.errors import (
    NearDefectiveError,
    NoConvergenceError,
    NonFiniteError,
    OmegaSingularError,
    PtqsimError,
)
from ptqsim import cli, entanglement, locate_ep, sensing, spectrum
from ptqsim.model import SIGMA_YY
from ptqsim.spectrum import _closed_form_eigenpairs, _min_gap, _rates

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


def _eigenpairs_of(points):
    """_closed_form_eigenpairs of points, with the eigenvalues their instances solve."""
    values = np.array([eigenvalues_closed_form(p) for p in points])
    return _closed_form_eigenpairs(_rates(points), values)


class TestBatchedEigenpairs:
    """_closed_form_eigenpairs on a leading axis of points against the per-point loop."""

    @pytest.mark.parametrize("sweep", FIG_SWEEPS + ["seeded"])
    def test_matches_per_point_reference(self, sweep):
        points = _seeded_points(400) if sweep == "seeded" else fig_sweep_points(*sweep)
        values = np.array([eigenvalues_closed_form(p) for p in points])
        keep = _min_gap(values) >= 1e-4  # the points a sense sweep solves
        points = [p for p, k in zip(points, keep) if k]
        vecs, h, residuals = _closed_form_eigenpairs(_rates(points), values[keep])
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
        batch = _closed_form_eigenpairs(_rates(points), values)
        for i, p in enumerate(points):
            one = _closed_form_eigenpairs(_rates([p]), values[i:i + 1])
            assert all(a[i].tobytes() == b[0].tobytes() for a, b in zip(batch, one))
        assert eigenvectors_closed_form(points[7]).tobytes() == batch[0][7].tobytes()

    def test_min_gap_on_last_axis(self):
        values = np.array([eigenvalues_closed_form(p) for p in _seeded_points(20)])
        gaps = _min_gap(values.reshape(4, 5, 4))
        assert gaps.shape == (4, 5)
        assert gaps.reshape(-1).tolist() == [_min_gap(v) for v in values]

    def test_near_defective_names_first_failing_point(self):
        # at omega << gamma the coefficients divide a 1e-15 gap by omega
        good, bad = SystemParams(2.0, 0.4, 1.0), [SystemParams(1e-7, 0.3, 1.0),
                                                   SystemParams(1e-6, 0.3, 1.0)]
        with pytest.raises(NearDefectiveError) as single:
            eigenvectors_closed_form(bad[0])
        with pytest.raises(NearDefectiveError) as batch:
            _eigenpairs_of([good] + bad)
        assert str(batch.value) == str(single.value)


@pytest.mark.parametrize("call", [
    eigenvalues_closed_form, eigenvectors_closed_form, spectrum_closed_form,
    lambda p: entanglement.eigenstate_concurrence_wootters(p, 3),
    lambda p: sensing.qfi(p, "j"),
], ids=["eigenvalues", "eigenvectors", "spectrum", "concurrence", "qfi"])
def test_overflow_named_ahead_of_omega_singular(call):
    """At omega = 0 with cubic invariants out of the float range, every closed-form
    caller solves the eigenvalues first and names the overflow."""
    with pytest.raises(NonFiniteError):
        call(SystemParams(0.0, 0.3, 1e60))


class TestToleranceScale:
    """Residual and gap tolerances are in units of the largest rate above 1.

    Every rate scales the eigenvalues, the gaps and the rounding error of
    ||Hv - Ev||, so a point and the same point at s times the rates get the
    same verdict and the same eigenvectors.
    """

    SCALES = [1.0, 1e4, 1e8, 1e12, 1e30]

    @pytest.mark.parametrize("s", SCALES)
    def test_eigenvectors_are_scale_free(self, s):
        unit = eigenvectors_closed_form(SystemParams(2.0, 0.4, 1.0))
        vecs = eigenvectors_closed_form(SystemParams(2.0 * s, 0.4 * s, s))
        assert np.max(np.abs(vecs - unit)) < 1e-14

    def test_named_large_point_solves(self):
        params = SystemParams(2e8, 0.4e8, 1e8)  # residual 4.6e-7 = 2.3e-15 in rate units
        vecs, h, residuals = _eigenpairs_of([params])
        assert residuals[0] < 1e-14 * 2e8
        assert spectrum_closed_form(params).max_residual == residuals[0]

    @pytest.mark.parametrize("s", SCALES[:4])
    @pytest.mark.parametrize("offset", [1e-6, 1e-10])
    def test_near_ep_cross_check_is_scale_free(self, s, offset):
        j_c = locate_ep("omega", 2.0, (0.3, 0.9)).j_c
        spec = spectrum_closed_form(SystemParams(2.0 * s, (j_c + offset) * s, s))
        assert spec.max_residual < 1e-14 * s

    @pytest.mark.parametrize("s", SCALES[:4])
    def test_relaxed_tolerance_follows_the_gap_in_rate_units(self, s, monkeypatch):
        """With the strict tolerance at 0 only points with gap < NEAR_EP_GAP (rate units) pass."""
        monkeypatch.setattr(spectrum, "RESIDUAL_TOL", 0.0)
        j_c = locate_ep("omega", 2.0, (0.3, 0.9)).j_c
        near = SystemParams(2.0 * s, (j_c + 1e-10) * s, s)  # gap 1.9e-5 s
        far = SystemParams(2.0 * s, (j_c + 1e-6) * s, s)  # gap 1.9e-3 s
        _eigenpairs_of([near])
        with pytest.raises(NearDefectiveError):
            _eigenpairs_of([far])


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

    @pytest.mark.parametrize("band", [(-16, -12), (-12, -9), (-9, -6), None])
    def test_small_omega_answers(self, band):
        """Below omega ~ 1e-6, E2 is within omega**2 of the deflated singlet root -j: a
        double root of the quartic whose p' is at rounding level, left unpolished."""
        rng = np.random.default_rng(20261018)
        for _ in range(60):
            omega = 0.0 if band is None else 10.0 ** rng.uniform(*band)
            params = SystemParams(omega, rng.uniform(0.01, 1.2), 1.0)
            spec = eigensystem_oracle(build_hamiltonian(params), deflate_root=-params.j)
            assert pairing_distance(spec.eigenvalues, eigenvalues_closed_form(params)) <= 1e-9

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


# The numpy-scalar kernel the Python-scalar _eigenvalues replaced, verbatim but for
# module-qualified names: the reference it must equal bit for bit.
_REF_W3 = np.exp(2j * np.pi / 3)
_REF_W3C = _REF_W3.conjugate()
_REF_SQ27 = 3.0 * np.sqrt(3.0)


def _branch_pair_reference(params):
    x, z, a = spectrum._cubic_data(params)
    if z >= 0:
        s = _REF_SQ27 * math.sqrt(z)
        y, v = np.cbrt(a + s), np.cbrt(a - s)
        if a < 0:
            y = x / v
        elif a > 0:
            v = x / y
        y, v = complex(y), complex(v)
    else:
        radicand = complex(a, _REF_SQ27 * math.sqrt(-z))
        y = radicand ** (1.0 / 3.0)
        if radicand.real < 0:
            y = y * _REF_W3
        v = y.conjugate()
    return y, v


def _eigenvalues_reference(params):
    j = params.j
    scale = spectrum._rate_scale(params)
    if 0 < scale < 2.0**-150:
        e = math.frexp(scale)[1]
        unit = SystemParams(*(math.ldexp(r, -e) for r in (params.omega, j, params.gamma)))
        values = _eigenvalues_reference(unit)
        values.real, values.imag = np.ldexp(values.real, e), np.ldexp(values.imag, e)
        return values
    y, v = _branch_pair_reference(params)
    e2 = (j + v + y) / 3.0
    e3 = (j + _REF_W3C * v + _REF_W3 * y) / 3.0
    e4 = (j + _REF_W3 * v + _REF_W3C * y) / 3.0
    return np.array([-j, e2, e3, e4], dtype=complex)


def _classify_reference(params):
    values, scale = _eigenvalues_reference(params), spectrum._rate_scale(params)
    max_imag, broken = spectrum._phase_probe(values, scale)
    if broken:
        return PhaseLabel(Phase.PT_BROKEN, float(max_imag))
    if _min_gap(values) <= spectrum._NEAR_EP_LABEL_GAP * scale:
        return PhaseLabel(Phase.NEAR_EP, float(max_imag))
    return PhaseLabel(Phase.PT_SYMMETRIC, float(max_imag))


#: Points at the kernel's branch edges: a = 0 (j = +-0); z = 0 (omega = gamma = 0,
#: the origin, the EP3); z < 0 with the root rotated (a < 0) and not (a >= 0);
#: omega = 0, gamma = 0, signed zeros; rates below 2**-150; near-EP points.
_EDGE_POINTS = [
    (2.0, 0.0, 1.0), (2.0, -0.0, 1.0), (0.5, 0.0, 1.0), (0.5, -0.0, 1.0),
    (0.0, 0.7, 0.0), (0.0, -0.7, 0.0), (0.0, 0.0, 0.0), (-0.0, -0.0, 0.0),
    (1.0, 0.0, 1.0), (0.5, 0.0, 0.5), (-1.0, -0.0, 1.0), (3.0, 0.0, 3.0),
    (2.0, 0.4, 1.0), (2.0, -0.4, 1.0), (-2.0, 0.4, 1.0), (2.0, 0.7, 1.0), (2.0, -0.7, 1.0),
    (0.0, 0.5, 1.0), (-0.0, 0.5, 1.0), (0.0, -0.5, 1.0), (0.0, 0.0, 1.0),
    (1.3, 0.77, 0.0), (1.3, -0.77, 0.0), (1.3, 0.0, 0.0), (1.3, -0.0, 0.0),
    (2e-60, 4e-61, 1e-60), (2e-200, 0.7e-200, 1e-200), (2.0**-151, 2.0**-152, 2.0**-153),
    (0.0, 5e-324, 0.0), (5e-324, -0.0, 5e-324), (1e-300, 1e-46, 0.0),
    (2.0, 0.5899798397854931, 1.0), (2.0, 0.5899798397854932 - 1e-13, 1.0),
    (2.0, -0.5899798397854931, 1.0), (2.0, 3.75e-7, 1.0), (2.0, -1e-7, 1.0),
    (1.0, 1e-9, 1.0), (1.0, -1e-9, 1.0), (1.0 + 1e-8, 0.0, 1.0), (1.0 - 1e-8, 0.0, 1.0),
]


def _seeded_edge_draw(n, seed):
    """n points over every regime of the kernel: a broad box, the critical band, rates
    from 1e-200 to 1e40, signed-zero and dyadic grids, and the EP3's neighbourhood."""
    rng = np.random.default_rng(seed)
    points = []
    for k in range(n):
        kind = k % 5
        if kind == 0:
            rates = rng.uniform(-3, 3), rng.uniform(-1.5, 1.5), rng.uniform(0, 2)
        elif kind == 1:
            rates = rng.uniform(1.05, 3.0), rng.uniform(0.0, 1.5), 1.0
        elif kind == 2:
            s = 10.0 ** rng.uniform(-200, 40)
            rates = rng.uniform(-3, 3) * s, rng.uniform(-1.5, 1.5) * s, rng.uniform(0, 2) * s
        elif kind == 3:
            rates = (rng.choice([0.0, -0.0, 1.0, -2.0, 0.5]),
                     rng.choice([0.0, -0.0, 0.3, -0.3, 0.5899798397854931]),
                     rng.choice([0.0, 1.0, 0.5]))
        else:
            g = rng.uniform(0, 2)
            rates = (g * (1 + rng.choice([0, 1e-8, -1e-8, 1e-15])),
                     rng.choice([0.0, -0.0, 1e-9, -1e-9]), g)
        points.append(SystemParams(*(float(r) for r in rates)))
    return points


def _fig2_grid():
    return [SystemParams(float(om), float(j), 1.0)
            for om in np.linspace(0.0, 3.0, 61) for j in np.linspace(0.0, 1.2, 61)]


class TestScalarKernelBitwise:
    """eigenvalues_closed_form and classify_phase equal the numpy-scalar kernel bit for bit."""

    @pytest.mark.parametrize("source", ["edges", "fig2", "seeded"])
    def test_matches_numpy_scalar_reference(self, source):
        points = {"edges": lambda: [SystemParams(*r) for r in _EDGE_POINTS],
                  "fig2": _fig2_grid,
                  "seeded": lambda: _seeded_edge_draw(50_000, 20261018)}[source]()
        got = np.array([eigenvalues_closed_form(p) for p in points])
        want = np.array([_eigenvalues_reference(p) for p in points])
        assert got.dtype == np.complex128
        mismatch = np.flatnonzero((got.view(np.uint64) != want.view(np.uint64)).any(axis=1))
        assert not len(mismatch), [points[i] for i in mismatch[:5]]
        for p in points:
            label, ref = classify_phase(p), _classify_reference(p)
            assert label.phase is ref.phase, p
            assert np.float64(label.max_imag).view(np.uint64) == np.float64(
                ref.max_imag).view(np.uint64), p

    def test_edges_reach_every_branch(self):
        """The fixed list exercises both radicand signs, the rotation and the rescale."""
        seen = set()
        for r in _EDGE_POINTS:
            p = SystemParams(*r)
            x, z, a = spectrum._cubic_data(p)
            rotated = spectrum._branch_pair(p)[2]
            seen.add(("z>0" if z > 0 else "z=0" if z == 0 else "z<0", rotated, a == 0))
            seen.add(("rescaled", 0 < spectrum._rate_scale(p) < 2.0**-150))
        assert {("z<0", True, False), ("z<0", False, False), ("z<0", False, True),
                ("z>0", False, True), ("z>0", False, False), ("z=0", False, False),
                ("z=0", False, True), ("rescaled", True)} <= seen


class TestScalarBatchPhaseAgreement:
    """classify_phase's decisions equal the batch path's on the same eigenvalues."""

    def test_same_decisions(self):
        crossings = [SystemParams(om, sign * d, 1.0) for om in (1.5, 2.0, 3.0)
                     for sign in (1, -1) for d in (0.0, 1e-7, 3e-7, 3.75e-7, 4e-7, 1e-6)]
        points = _fig2_grid() + crossings + _seeded_points(2000) + _seeded_edge_draw(2000, 7)
        values = np.array([eigenvalues_closed_form(p) for p in points])
        scales = np.array([spectrum._rate_scale(p) for p in points])
        max_imag, broken = spectrum._phase_probe(values, scales)
        near = ~broken & spectrum._near_ep(_min_gap(values), scales)
        labels = [classify_phase(p) for p in points]
        assert [lab.phase is Phase.PT_BROKEN for lab in labels] == broken.tolist()
        assert [lab.phase is Phase.NEAR_EP for lab in labels] == near.tolist()
        assert np.array([lab.max_imag for lab in labels]).tobytes() == max_imag.tobytes()
        # both sides of each threshold are reached, the j = 0 crossings among them
        assert broken.any() and not broken.all() and 0 < near.sum() < (~broken).sum()
        crossing_near = [classify_phase(p).phase is Phase.NEAR_EP for p in crossings]
        assert any(crossing_near) and not all(crossing_near)


@pytest.fixture
def solves(count_calls):
    """The number of closed-form eigenvalue solves since the test started."""
    return count_calls(spectrum, "_solve_eigenvalues")


class TestEigenvalueMemo:
    """A SystemParams instance is solved once; the stored tuple never leaks or goes stale."""

    def test_label_then_values_solve_once(self, solves):
        p = SystemParams(2.0, 0.7, 1.0)
        label = classify_phase(p)
        values = eigenvalues_closed_form(p)
        assert solves() == 1
        assert label == _classify_reference(p)
        assert _bits(values).tolist() == _bits(_eigenvalues_reference(p)).tolist()
        eigenvectors_closed_form(p)
        classify_phase(p)
        assert solves() == 1

    def test_spectrum_command_solves_once(self, solves, tmp_path):
        for argv in (["--omega", "2", "--j", "0.4"], ["--omega", "0", "--j", "0.3"]):
            before = solves()
            assert cli.main(["spectrum", *argv, "--out", str(tmp_path / "s.json")]) == 0
            assert solves() - before == 1

    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_equal_points_keep_their_own_signed_zero(self, first):
        points = [(j, SystemParams(0.0, j, 1.0)) for j in (first, -first)]
        assert points[0][1] == points[1][1] and hash(points[0][1]) == hash(points[1][1])
        for j, p in points:  # `first` is solved first
            e1 = eigenvalues_closed_form(p)[0]
            assert e1 == 0 and math.copysign(1.0, e1.real) == -math.copysign(1.0, j)
        for j, p in points:  # and again, from the store
            assert math.copysign(1.0, classify_phase(p).max_imag) == 1.0
            assert math.copysign(1.0, eigenvalues_closed_form(p)[0].real) == -math.copysign(1.0, j)

    def test_returned_array_is_a_copy(self):
        p = SystemParams(1.7, 0.45, 1.0)
        values = eigenvalues_closed_form(p)
        want = values.copy()
        values[:] = 0
        assert _bits(eigenvalues_closed_form(p)).tolist() == _bits(want).tolist()
        assert classify_phase(p).max_imag == np.abs(want.imag).max()

    def test_eq_hash_repr_and_replace_ignore_the_store(self):
        solved, fresh = SystemParams(2.0, 0.4, 1.0), SystemParams(2.0, 0.4, 1.0)
        eigenvalues_closed_form(solved)
        assert spectrum._MEMO_KEY in vars(solved) and spectrum._MEMO_KEY not in vars(fresh)
        assert solved == fresh and hash(solved) == hash(fresh)
        assert repr(solved) == repr(fresh) == "SystemParams(omega=2.0, j=0.4, gamma=1.0)"
        assert dataclasses.asdict(solved) == {"omega": 2.0, "j": 0.4, "gamma": 1.0}
        for moved in (solved.replace(j=0.7), dataclasses.replace(solved, j=0.7)):
            assert spectrum._MEMO_KEY not in vars(moved)
            assert _bits(eigenvalues_closed_form(moved)).tolist() == _bits(
                _eigenvalues_reference(SystemParams(2.0, 0.7, 1.0))).tolist()
        with pytest.raises(dataclasses.FrozenInstanceError):
            solved.j = 0.7

    def test_errors_are_not_stored(self, solves):
        p = SystemParams(1e200, 1e200, 1.0)
        for k in range(1, 4):
            with pytest.raises(NonFiniteError):
                classify_phase(p)
            assert solves() == k
        with pytest.raises(NonFiniteError):
            eigenvalues_closed_form(p)
        assert solves() == 4 and spectrum._MEMO_KEY not in vars(p)

    def test_tiny_rates_stay_bitwise(self, solves):
        points = [SystemParams(*r) for r in _EDGE_POINTS if 0 < spectrum._rate_scale(
            SystemParams(*r)) < 2.0**-150]
        assert len(points) >= 4
        for p in points:
            want = _bits(_eigenvalues_reference(p)).tolist()
            before = solves()
            assert _bits(eigenvalues_closed_form(p)).tolist() == want
            assert solves() - before == 2  # the point and its fresh unit-scale instance
            assert classify_phase(p) == _classify_reference(p)
            assert _bits(eigenvalues_closed_form(p)).tolist() == want
            assert solves() - before == 2


@pytest.fixture
def pair_solves(count_calls):
    """The number of closed-form eigenpair solves since the test started."""
    return count_calls(spectrum, "_closed_form_eigenpairs")


class TestEigenpairMemo:
    """A SystemParams instance's eigenpair is solved once; the stored arrays never leak."""

    def test_spectra_op_solves_once(self, pair_solves):
        """The questions a spectra benchmark op asks of one point make one solve."""
        points = _spectra_pool(200, 14)
        refused = 0
        for p in points:
            try:
                spectrum_closed_form(p)
            except OmegaSingularError:
                spectrum_oracle(p)
            try:
                for s in (3, 4):
                    entanglement.eigenstate_concurrence_wootters(p, s)
                    entanglement.eigenstate_concurrence_closed(p, s, check=False)
            except OmegaSingularError:
                refused += 1
        assert refused == 10  # the omega = 0 points: refused, solved again, not stored
        assert pair_solves() == len(points) + refused

    def test_returned_arrays_are_copies(self, pair_solves):
        p = SystemParams(1.7, 0.45, 1.0)
        want = eigenvectors_closed_form(p)
        spec = spectrum_closed_form(p)
        assert spec.eigenvectors.tobytes() == want.tobytes()
        for got in (eigenvectors_closed_form(p), spec.eigenvectors):
            got[:] = 0
            assert eigenvectors_closed_form(p).tobytes() == want.tobytes()
            assert spectrum_closed_form(p).eigenvectors.tobytes() == want.tobytes()
        assert entanglement.eigenstate_concurrence_wootters(p, 3) == concurrence_pure(want[2])
        assert pair_solves() == 1

    @pytest.mark.parametrize("params", [SystemParams(0.0, 0.3, 1.0), SystemParams(1e-7, 0.3, 1.0)],
                             ids=["omega-singular", "near-defective"])
    def test_errors_are_not_stored(self, pair_solves, params):
        calls = [eigenvectors_closed_form, spectrum_closed_form,
                 lambda p: entanglement.eigenstate_concurrence_wootters(p, 3)]
        for k, call in enumerate(calls * 2, start=1):
            with pytest.raises((OmegaSingularError, NearDefectiveError)) as err:
                call(params)
            assert isinstance(err.value, OmegaSingularError) == (params.omega == 0.0)
            assert pair_solves() == k
        assert spectrum._EIGENPAIR_KEY not in vars(params)
        assert set(vars(params)) <= {"omega", "j", "gamma", spectrum._MEMO_KEY}

    @pytest.mark.parametrize("omega", [2.0, -2.0])  # omega < 0 carries j's zero sign into H
    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_equal_points_keep_their_own_signed_zeros(self, monkeypatch, omega, first):
        given = []
        stage = spectrum._oracle_roots

        def oracle_roots(h, deflate_root=None):
            given.append(h.tobytes())
            return stage(h, deflate_root)

        monkeypatch.setattr(spectrum, "_oracle_roots", oracle_roots)
        points = [SystemParams(omega, j, 1.0) for j in (first, -first)]
        assert points[0] == points[1]
        hams = [build_hamiltonian(p).tobytes() for p in points]
        assert (hams[0] == hams[1]) == (omega > 0)
        for _ in range(2):  # solved, then from the store
            for p, ham in zip(points, hams):
                spec = spectrum_closed_form(p)
                assert given.pop() == ham
                assert _bits(spec.eigenvalues).tolist() == _bits(_eigenvalues_reference(p)).tolist()
                assert math.copysign(1.0, spec.eigenvalues[0].real) == -math.copysign(1.0, p.j)

    def test_eq_hash_repr_and_replace_ignore_the_store(self):
        solved, fresh = SystemParams(2.0, 0.4, 1.0), SystemParams(2.0, 0.4, 1.0)
        spectrum_closed_form(solved)
        assert spectrum._EIGENPAIR_KEY in vars(solved) and not vars(fresh).keys() - {
            "omega", "j", "gamma"}
        assert solved == fresh and hash(solved) == hash(fresh)
        assert repr(solved) == repr(fresh) == "SystemParams(omega=2.0, j=0.4, gamma=1.0)"
        assert dataclasses.asdict(solved) == {"omega": 2.0, "j": 0.4, "gamma": 1.0}
        for moved in (solved.replace(j=0.7), dataclasses.replace(solved, j=0.7)):
            assert spectrum._EIGENPAIR_KEY not in vars(moved)
            assert eigenvectors_closed_form(moved).tobytes() == _eigenpairs_of(
                [SystemParams(2.0, 0.7, 1.0)])[0][0].tobytes()

    def test_threads_racing_on_one_instance_see_the_same_bits(self):
        points = [SystemParams(om, 0.4, 1.0) for om in np.linspace(0.5, 2.5, 40).tolist()]
        want = [_eigenpairs_of([SystemParams(p.omega, p.j, p.gamma)])[0][0].tobytes()
                for p in points]
        got = {k: [] for k in range(len(points))}

        def work():
            for k, p in enumerate(points):
                got[k].append(spectrum_closed_form(p).eigenvectors.tobytes())
                got[k].append(eigenvectors_closed_form(p).tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(got[k] == [want[k]] * 12 for k in range(len(points)))

    def test_stored_and_fresh_solves_are_bitwise_equal(self):
        for p in _seeded_points(60) + _spectra_pool(60, 15):
            if p.omega == 0.0:
                continue
            vecs, h, residuals = _eigenpairs_of([SystemParams(p.omega, p.j, p.gamma)])
            for _ in range(2):  # solved, then from the store
                try:
                    spec = spectrum_closed_form(p)
                except NoConvergenceError:
                    spec = None
                got = eigenvectors_closed_form(p)
                assert got.tobytes() == vecs[0].tobytes()
                assert got.tobytes() == eigenvectors_closed_form(
                    p, eigenvalues_closed_form(p)).tobytes()
                if spec is not None:
                    assert spec.eigenvectors.tobytes() == vecs[0].tobytes()
                    assert _bits(spec.max_residual) == _bits(residuals[0])
                stored_vecs, stored_h, stored_residual = spectrum._eigenpair(p)
                assert stored_h.tobytes() == h[0].tobytes() == build_hamiltonian(p).tobytes()
                assert not stored_vecs.flags.writeable and not stored_h.flags.writeable
                assert _bits(stored_residual) == _bits(residuals[0])


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


# The oracle-side kernels that eigensystem_oracle's stacked SVD, _poly_roots, the
# one-pass Horner polish, the _PERMS table, concurrence_mixed's _poly_roots and
# _char_poly's recursion from h replaced, verbatim but for module-qualified
# names: the reference they must equal bit for bit wherever it answers.
def _eigensystem_oracle_reference(h, deflate_root=None):
    h = np.asarray(h, dtype=complex)
    coeff = _char_poly_reference(h)
    if deflate_root is not None:
        reduced = np.zeros(4, dtype=complex)
        reduced[0] = coeff[0]
        for i in range(1, 4):
            reduced[i] = coeff[i] + deflate_root * reduced[i - 1]
        roots = np.concatenate([[complex(deflate_root)], np.roots(reduced)]).astype(complex)
    else:
        roots = np.roots(coeff).astype(complex)

    deriv = np.polyder(coeff)
    start = 0 if deflate_root is None else 1  # keep the exact root untouched
    for _ in range(2):  # Newton polish
        dp = np.polyval(deriv, roots[start:])
        ok = np.abs(dp) > 1e-30
        roots[start:] = np.where(
            ok, roots[start:] - np.polyval(coeff, roots[start:]) / np.where(ok, dp, 1.0), roots[start:]
        )

    scale = max(1.0, float(np.max(np.abs(h))))
    roots = _refine_close_pair_reference(coeff, roots, scale, start)

    eye = np.eye(4, dtype=complex)
    vecs = np.zeros((4, 4), dtype=complex)
    assigned = np.zeros(4, dtype=bool)
    for k in range(4):
        if assigned[k]:
            continue
        group = [m for m in range(4) if abs(roots[m] - roots[k]) <= 1e-9 * scale]
        lam = roots[group].mean()
        _, sing, vh = np.linalg.svd(h - lam * eye)
        # a repeated eigenvalue may still span several null directions;
        # hand out as many independent ones as are numerically null
        null_dim = max(1, int(np.sum(sing <= 1e-7 * scale)))
        for slot, m in enumerate(group):
            vecs[m] = vh[-1 - min(slot, null_dim - 1)].conj()
            assigned[m] = True
    vecs = spectrum._phase_fix(vecs)
    residuals = np.array([np.linalg.norm(h @ vec - root * vec) for vec, root in zip(vecs, roots)])

    if residuals.max() > 1e-5 * scale:
        raise spectrum.NoConvergenceError(
            f"oracle residual {residuals.max():.3e} above budget; matrix may be "
            "defective - retry with a 1e-8 perturbation"
        )
    return spectrum.Spectrum(
        eigenvalues=roots,
        eigenvectors=vecs,
        source=spectrum.Source.ORACLE,
        max_residual=float(residuals.max()),
    )


def _char_poly_reference(h):
    coeff = np.zeros(5, dtype=complex)
    coeff[0] = 1.0
    m = np.zeros_like(h)
    for k in range(1, 5):
        m = h @ (m + coeff[k - 1] * np.eye(4, dtype=complex))
        coeff[k] = -m.trace() / k
    return coeff


def _refine_close_pair_reference(coeff, roots, scale, start):
    pairs = [
        (abs(roots[i] - roots[k]), i, k) for i in range(4) for k in range(i + 1, 4)
    ]
    gap, i, k = min(pairs, key=lambda t: t[0])
    if gap > 1e-6 * scale:
        return roots
    others = [m for m in range(4) if m not in (i, k)]
    if min(abs(roots[m] - roots[n]) for m in (i, k) for n in others) < 1e-3 * scale:
        return roots  # three-way cluster: leave to the caller's tolerance
    poly = coeff
    for m in others:  # synthetic division by the accurate simple roots
        out = np.empty(len(poly) - 1, dtype=complex)
        out[0] = poly[0]
        for q in range(1, len(out)):
            out[q] = poly[q] + roots[m] * out[q - 1]
        poly = out
    b, c = poly[1], poly[2]
    refined = roots.copy()
    mean = -0.5 * b  # a Newton sum, fully conditioned
    if i < start:
        refined[k] = mean + (mean - roots[0])
        return refined
    disc_sq = b * b - 4.0 * c
    if abs(disc_sq) <= 1e-12 * max(1.0, abs(b) ** 2, abs(c)):
        # at coefficient noise level the pair is a genuine double root
        refined[i] = refined[k] = mean
        return refined
    disc = np.sqrt(disc_sq)
    if abs(-b + disc) < abs(-b - disc):
        disc = -disc
    r_big = 0.5 * (-b + disc)
    r_small = c / r_big if r_big != 0 else 0.5 * (-b - disc)
    refined[i], refined[k] = r_big, r_small
    return refined


def _pairing_distance_reference(a, b):
    return min(max(abs(a[list(p)] - b)) for p in permutations(range(4)))


def _oracle_order_reference(values, reference):
    """spectrum_oracle's label order as the 24-way min over permutations found it."""
    return list(min(
        permutations(range(4)),
        key=lambda p: max(abs(values[list(p)] - reference)),
    ))


def _concurrence_mixed_reference(rho):
    rho = np.asarray(rho, dtype=complex)
    entanglement._validate_density(rho)
    flipped = SIGMA_YY @ rho.conj() @ SIGMA_YY
    coeff = _char_poly_reference(rho @ flipped)
    # Deflate exact-zero eigenvalues first (rank-deficient products are the
    # norm here, and companion solves lose half the digits on repeated zeros).
    degree = 4
    while degree > 0 and abs(coeff[degree]) < 1e-12:
        degree -= 1
    mu = np.zeros(4, dtype=complex)
    if degree > 0:
        mu[:degree] = np.roots(coeff[: degree + 1])
    mu = np.clip(np.sort(mu.real)[::-1], 0.0, None)
    roots = np.sqrt(mu)
    return float(min(1.0, max(0.0, roots[0] - roots[1] - roots[2] - roots[3])))


def _bits(x):
    return np.asarray(x, dtype=complex if np.iscomplexobj(x) else float).view(np.uint64)


def _spectra_pool(n, seed):
    """n points of the spectra benchmark's domain: omega in [0, 3), j in [0, 1.2),
    gamma = 1, with a tenth at gamma = 0 and a twentieth at omega = 0."""
    rng = np.random.default_rng(seed)
    points = []
    for k in range(n):
        om, j = 3.0 * rng.random(), 1.2 * rng.random()
        points.append(SystemParams(0.0 if k % 20 == 7 else om, j, 0.0 if k % 10 == 3 else 1.0))
    return points


#: Matrices whose characteristic polynomial ends in an exact zero (H(1, 0, 1) is
#: the fourfold zero eigenvalue, p = x**4): _poly_roots hands those to np.roots.
_SINGULAR = [np.diag([1.0, 2.0, 3.0, 0.0]).astype(complex),
             np.diag([0.5 + 1j, -0.5, 0.0, 0.5 - 1j]),
             np.diag([1j, 2.0, 0.0, -1j]),
             build_hamiltonian(SystemParams(0.0, 0.0, 1.0)),
             build_hamiltonian(SystemParams(1.0, 0.0, 1.0))]


class TestOracleKernelsBitwise:
    """eigensystem_oracle, pairing_distance, spectrum_oracle's order and
    concurrence_mixed equal the kernels they replaced bit for bit."""

    def _assert_oracle_matches(self, h, deflate_root):
        try:
            want = _eigensystem_oracle_reference(h, deflate_root)
        except NoConvergenceError:
            return False
        got = eigensystem_oracle(h, deflate_root)
        assert (_bits(got.eigenvalues) == _bits(want.eigenvalues)).all(), h
        assert (_bits(got.eigenvectors) == _bits(want.eigenvectors)).all(), h
        assert _bits(got.max_residual) == _bits(want.max_residual), h
        return True

    @pytest.mark.parametrize("seed", [301, 302, 303])
    def test_spectra_pools(self, seed):
        answered = 0
        for p in _spectra_pool(400, seed):
            h = build_hamiltonian(p)
            if not self._assert_oracle_matches(h, -p.j):
                continue
            answered += 1
            oracle = eigensystem_oracle(h, -p.j).eigenvalues
            values = eigenvalues_closed_form(p)
            got, want = pairing_distance(values, oracle), _pairing_distance_reference(values, oracle)
            assert type(got) is type(want) and _bits(got) == _bits(want), p
            assert spectrum_oracle(p).eigenvalues.tobytes() == oracle[
                _oracle_order_reference(oracle, values)].tobytes(), p
            if p.omega != 0.0:
                psi3, psi4 = eigenvectors_closed_form(p, values)[2:]
                rho = np.outer(psi3, psi3.conj()) + np.outer(psi4, psi4.conj())
                for r in (rho / np.trace(rho).real, np.outer(psi3, psi3.conj())):
                    assert _bits(concurrence_mixed(r)) == _bits(_concurrence_mixed_reference(r))
        assert answered >= 370

    def test_fig2_grid(self):
        # every other point of the row-major 61 x 61 grid still visits every omega and j
        for p in _fig2_grid()[::2]:
            self._assert_oracle_matches(build_hamiltonian(p), -p.j)

    def test_random_matrices_undeflated(self):
        rng = np.random.default_rng(20261018)
        for k in range(600):
            h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h *= 10.0 ** rng.uniform(-3, 3) if k % 2 else 1.0
            assert self._assert_oracle_matches(h, None)
            values = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            oracle = eigensystem_oracle(h).eigenvalues
            assert _bits(pairing_distance(values, oracle)) == _bits(
                _pairing_distance_reference(values, oracle))

    def test_small_rates(self):
        # every rate below 1e-4: p' at a simple root is of order max|H|**3, far
        # below one, and the polish must still run where the reference's ran
        rng = np.random.default_rng(20261019)
        for _ in range(300):
            s = 10.0 ** rng.uniform(-8, -5)
            h = s * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            assert self._assert_oracle_matches(h, None)
            p = SystemParams(s * 3.0 * rng.random(), s * 1.2 * rng.random(), s)
            assert self._assert_oracle_matches(build_hamiltonian(p), -p.j)
        # a near-double root at rates 1e-9 to 1e-7: |p'| falls below the
        # reference's absolute 1e-30, which must still skip the polish there
        for _ in range(100):
            s, d = 10.0 ** rng.uniform(-9, -7), 10.0 ** rng.uniform(-9, -5)
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            h = s * (q @ np.diag([1.0, 1.0 + d, 2.0 + 1j, -1.5]) @ q.conj().T)
            assert self._assert_oracle_matches(h, None)

    def test_singular_matrices_take_the_np_roots_branch(self):
        for h in _SINGULAR:
            coeff = spectrum._char_poly(h)
            assert coeff[4] == 0
            assert (_bits(spectrum._poly_roots(coeff)) == _bits(np.roots(coeff))).all()
            assert self._assert_oracle_matches(h, None)
        # the singlet root -j = -0.0 deflated at omega = j = 0 leaves x**3 + x
        assert self._assert_oracle_matches(_SINGULAR[3], -0.0)
        leading_zero = np.array([0j, 1, 2])
        assert (_bits(spectrum._poly_roots(leading_zero)) == _bits(np.roots(leading_zero))).all()

    def test_rank_deficient_concurrence(self):
        rng = np.random.default_rng(11)
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0)
        singlet = np.array([0, -1, 1, 0], dtype=complex) / np.sqrt(2.0)
        states = [bell, np.array([1, 0, 0, 0], dtype=complex), singlet]
        states += [v / np.linalg.norm(v) for v in
                   rng.standard_normal((40, 4)) + 1j * rng.standard_normal((40, 4))]
        inputs = [np.eye(4, dtype=complex) / 4]
        for rank in (1, 2, 3):
            for start in range(0, len(states) - rank, rank):
                group = states[start:start + rank]
                rho = sum(np.outer(v, v.conj()) for v in group)
                inputs.append(rho / np.trace(rho).real)
        for rho in inputs:
            assert _bits(concurrence_mixed(rho)) == _bits(_concurrence_mixed_reference(rho))


def _concurrence_products(rng):
    """rho * (sy x sy) conj(rho) (sy x sy) of pure, rank-2 and diagonal density matrices."""
    states = rng.standard_normal((60, 4)) + 1j * rng.standard_normal((60, 4))
    states /= np.linalg.norm(states, axis=1)[:, None]
    rhos = [np.outer(v, v.conj()) for v in states[:20]]
    for a, b in zip(states[20:40], states[40:]):
        rho = np.outer(a, a.conj()) + 0.5 * np.outer(b, b.conj())
        rhos.append(rho / np.trace(rho).real)
    for w in rng.random((20, 4)):
        rhos.append(np.diag(w / w.sum()).astype(complex))
    rhos += [np.eye(4, dtype=complex) / 4, np.diag([1.0, 0, 0, 0]).astype(complex)]
    return [rho @ (SIGMA_YY @ rho.conj() @ SIGMA_YY) for rho in rhos]


class TestCharPolyBitwise:
    """_char_poly, which starts its recursion from h, equals the recursion from zeros."""

    def test_hamiltonians(self):
        points = [SystemParams(om, j, g) for om in (2.0, -2.0, 0.0, -0.0, 1e-9)
                  for j in (0.0, -0.0, 0.4, -0.4) for g in (1.0, 0.0, -0.0)]
        points += _spectra_pool(400, 16) + [SystemParams(1.0, 0.0, 1.0)]
        hams = [build_hamiltonian(p) for p in points] + _SINGULAR
        rng = np.random.default_rng(17)
        for k in range(200):
            h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h[rng.random((4, 4)) < 0.4] = -0.0 if k % 2 else 0.0
            hams.append(h)
        for h in hams:
            assert (_bits(spectrum._char_poly(h)).tolist()
                    == _bits(_char_poly_reference(h)).tolist())

    def test_concurrence_products(self):
        for product in _concurrence_products(np.random.default_rng(18)):
            assert (_bits(spectrum._char_poly(product)).tolist()
                    == _bits(_char_poly_reference(product)).tolist())


def _oracle_roots_reference(h, deflate_root=None):
    """spectrum._oracle_roots as it was when its Newton polish ran all five Horner
    steps from zeros and always took both np.where masks, verbatim but for
    module-qualified names.  Its companion roots come from the live
    spectrum._poly_roots, so a test can choose the roots the polish starts from."""
    h = np.asarray(h, dtype=complex)
    rate = float(np.abs(h).max())
    scale = max(1.0, rate)
    coeff = _char_poly_reference(h)
    roots = np.empty(4, dtype=complex)
    if deflate_root is not None:
        reduced = np.zeros(4, dtype=complex)
        reduced[0] = coeff[0]
        for i in range(1, 4):
            reduced[i] = coeff[i] + deflate_root * reduced[i - 1]
        roots[0] = deflate_root
        roots[1:] = spectrum._poly_roots(reduced)
    else:
        roots[:] = spectrum._poly_roots(coeff)
    start = 0 if deflate_root is None else 1
    stack = np.zeros((5, 2, 1), dtype=complex)
    stack[:, 0, 0] = coeff
    stack[1:, 1, 0] = coeff[:-1] * np.arange(4, 0, -1)
    guard = max(1e-30, 1e-12 * rate * rate * rate)
    x = roots[start:]
    for _ in range(2):
        y = np.zeros((2, len(x)), dtype=complex)
        for c in stack:
            y = y * x + c
        p, dp = y
        ok = np.abs(dp) > guard
        x = np.where(ok, x - p / np.where(ok, dp, 1.0), x)
    roots[start:] = x
    return _refine_close_pair_reference(coeff, roots, scale, start)


def _concurrence_tail_reference(mu):
    """concurrence_mixed's numpy tail as it was, verbatim: mu are the four roots."""
    mu = np.clip(np.sort(mu.real)[::-1], 0.0, None)
    roots = np.sqrt(mu)
    return float(min(1.0, max(0.0, roots[0] - roots[1] - roots[2] - roots[3])))


#: Parts that take every signed-zero rule: +-0, small, unit-scale and large values.
_SIGNED_PARTS = [0.0, -0.0, 5e-324, -1e-300, 0.75, -1.25, 3e150, -1e300]


def _with_diagonal(m, diagonal):
    """m with its diagonal set part by part (a complex assignment would lose a -0 part)."""
    m = m.copy()
    view = m.view(float).reshape(4, 8)
    for i, (re, im) in enumerate(diagonal):
        view[i, 2 * i], view[i, 2 * i + 1] = re, im
    return m


class TestKernelPremises:
    """Each shortcut in _char_poly, _poly_roots, the Newton polish and
    concurrence_mixed against the numpy form it replaces, bit for bit."""

    def test_trace_is_the_pairwise_sum_from_zero(self):
        rng = np.random.default_rng(21)
        base = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        zeros = [(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
        diagonals = [[zeros[(k >> (2 * i)) & 3] for i in range(4)] for k in range(256)]
        for _ in range(3000):  # partly signed-zero diagonals at every scale
            diagonals.append([tuple(rng.choice(_SIGNED_PARTS, 2)) for _ in range(4)])
        for diagonal in diagonals:
            m = _with_diagonal(base, diagonal)
            d = m.ravel()[::5]
            pairwise = 0j + ((d[0] + d[1]) + (d[2] + d[3]))
            assert _bits([m.trace()]).tolist() == _bits([pairwise]).tolist(), diagonal
            if max(abs(part) for entry in diagonal for part in entry) < 2:  # finite powers
                assert (_bits(spectrum._char_poly(m)).tolist()
                        == _bits(_char_poly_reference(m)).tolist())

    def test_char_poly_on_signed_zero_diagonals(self):
        hams = [build_hamiltonian(SystemParams(om, j, g)) for om in (1.3, 0.0, -0.0)
                for j in (0.0, -0.0) for g in (0.0, -0.0)]
        hams += [np.diag([complex(re, im)] * 4) for re in (0.0, -0.0) for im in (0.0, -0.0)]
        rng = np.random.default_rng(22)
        for h in hams:
            for diagonal in ([(0.0, 0.0)] * 4, [(-0.0, -0.0)] * 4, [(-0.0, 0.0), (0.0, -0.0)] * 2):
                for m in (h, _with_diagonal(h, diagonal),
                          _with_diagonal(h + rng.standard_normal((4, 4)), diagonal)):
                    assert (_bits(spectrum._char_poly(m)).tolist()
                            == _bits(_char_poly_reference(m)).tolist())

    def test_first_horner_step_is_the_head(self):
        x = np.array([complex(re, im) for re in _SIGNED_PARTS for im in _SIGNED_PARTS])
        first = np.zeros((2, len(x)), dtype=complex) * x + np.array([[1.0], [0.0]], dtype=complex)
        head = np.broadcast_to(spectrum._HORNER_HEAD, first.shape).copy()
        assert _bits(first).tolist() == _bits(head).tolist()

    @pytest.mark.parametrize("deflate", [False, True])
    def test_newton_from_signed_zero_roots(self, monkeypatch, deflate):
        values = [complex(re, im) for re in (0.0, -0.0, 0.4, -1.1) for im in (0.0, -0.0, 0.9, -0.3)]
        rng = np.random.default_rng(23)
        hams = [build_hamiltonian(SystemParams(*p)) for p in
                [(1.3, 0.4, 1.0), (0.0, 0.3, 1.0), (2.0, 0.0, 0.0), (1.0, 0.0, 1.0)]]
        hams += [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(3)]
        for h in hams:
            for _ in range(40):
                start = np.array(rng.choice(values, 3 if deflate else 4))
                monkeypatch.setattr(spectrum, "_poly_roots", lambda p, r=start: r.copy())
                root = -0.3 if deflate else None
                got = spectrum._oracle_roots(h, root)[1]
                assert _bits(got).tolist() == _bits(_oracle_roots_reference(h, root)).tolist(), start

    def test_written_roots_leave_the_next_call_unchanged(self):
        rng = np.random.default_rng(24)
        for degree in (4, 3, 2, 1, 3, 4):
            p = np.concatenate([[1.0], rng.standard_normal(degree) + 1j * rng.standard_normal(degree)])
            want = _bits(np.roots(p)).tolist()
            first = spectrum._poly_roots(p)
            assert _bits(first).tolist() == want
            first[:] = np.nan + 1j  # a caller keeps and overwrites its roots
            second = spectrum._poly_roots(p)
            assert _bits(second).tolist() == want and not np.shares_memory(first, second)
        for n, template in spectrum._COMPANIONS.items():
            assert _bits(template).tolist() == _bits(np.eye(n, k=-1, dtype=complex)).tolist()

    def test_concurrence_tail_on_chosen_roots(self, monkeypatch):
        pool = [0.0, -0.0, -1e-12, 1e-12, 9.999999999999999e-13, 1.0000000000000002e-12,
                -3e-17, 2e-20, 0.25, 0.49, 0.0625, 1.0, -0.25, 1e-300]
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0)
        rank2 = 0.5 * np.outer(bell, bell) + 0.5 * np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)
        rng = np.random.default_rng(25)
        for rho in (np.eye(4, dtype=complex) / 4, rank2):
            for _ in range(200):
                mu = rng.choice(pool, 4) + 1j * rng.choice([0.0, -0.0, 1e-18], 4)
                asked = []

                def roots(p, mu=mu):
                    asked.append(len(p) - 1)
                    return mu[: len(p) - 1].copy()

                monkeypatch.setattr(entanglement, "_poly_roots", roots)
                got = concurrence_mixed(rho)
                padded = np.concatenate([mu[: asked[0]], np.zeros(4 - asked[0], dtype=complex)])
                assert _bits(got) == _bits(_concurrence_tail_reference(padded)), mu
                assert type(got) is float
        assert asked == [1]  # the rank-deficient product deflates three exact-zero roots

    def test_concurrence_near_zero_and_near_the_threshold(self):
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0)
        inputs = []
        for p in np.concatenate([np.linspace(0.3, 0.37, 71), [1 / 3, 0.0, 1.0]]):  # Werner
            inputs.append(p * np.outer(bell, bell.conj()) + (1 - p) * np.eye(4) / 4)
        for eps in np.logspace(-9, -3, 25):  # mu of order eps**2 around the 1e-12 cut
            inputs.append((1 - eps) * np.outer(bell, bell.conj()) + eps * np.eye(4) / 4)
            inputs.append(np.diag([1 - eps, eps, 0.0, 0.0]).astype(complex))
        for rho in inputs:
            assert _bits(concurrence_mixed(rho)) == _bits(_concurrence_mixed_reference(rho))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 0.0), 1e200])
    def test_concurrence_refuses_bad_input_as_before(self, bad):
        rho = np.eye(4, dtype=complex) / 4
        rho[1, 2], rho[2, 1] = bad, np.conj(bad)
        outcomes = []
        for call in (concurrence_mixed, _concurrence_mixed_reference):
            with pytest.raises(Exception) as err, np.errstate(all="ignore"):
                call(rho)
            outcomes.append((err.type, str(err.value)))
        assert outcomes[0] == outcomes[1]

    def test_trace_message_is_unchanged(self):
        rho = np.eye(4, dtype=complex) / 8
        with pytest.raises(entanglement.InvalidDensityError) as err:
            concurrence_mixed(rho)
        assert str(err.value) == f"trace {np.trace(rho)} != 1 within 1e-10"


def _spectrum_closed_form_reference(params):
    """spectrum_closed_form as it was when it ran the full oracle, verbatim but for
    module-qualified names."""
    values = eigenvalues_closed_form(params)
    vecs, h, residual = spectrum._eigenpair(params)
    oracle = eigensystem_oracle(h, deflate_root=-params.j)
    dev = pairing_distance(values, oracle.eigenvalues)
    if dev > 1e-9 * spectrum._tolerance_scale(_rates([params]))[0]:
        raise NoConvergenceError(f"closed form deviates from oracle by {dev:.3e}")
    return spectrum.Spectrum(values, vecs.copy(), Source.CLOSED_FORM, residual)


def _cross_check_outcome(call, params):
    """The bits of call(params)'s spectrum, or its error's class and message."""
    try:
        spec = call(SystemParams(params.omega, params.j, params.gamma))  # a fresh instance
    except PtqsimError as err:
        return type(err), str(err)
    return (spec.eigenvalues.tobytes(), spec.eigenvectors.tobytes(),
            _bits(spec.max_residual), spec.source)


def _near_ep_points():
    """(omega, j_c + d) for d = +-1e-6 ... +-1e-14 on six omegas of the critical curve."""
    points = []
    for omega in (1.1, 1.3, 1.7, 2.0, 2.2, 2.4):
        j_c = locate_ep("omega", omega, (1e-3, 2.0)).j_c
        points += [SystemParams(omega, j_c + s * 10.0**-e, 1.0)
                   for e in range(6, 15) for s in (1, -1)]
    return points


#: omega = 0 and omega = 1e-16 ... 1e-4 (half decades), both signs.
_SMALL_OMEGAS = [s * w for w in [0.0] + (10.0 ** np.arange(-16, -3.5, 0.5)).tolist()
                 for s in (1, -1)]


class TestCrossCheckStage:
    """spectrum_closed_form pairs the closed form with the oracle's eigenvalue stage alone."""

    def test_one_call_runs_the_eigenvalue_stage_alone(self, count_calls):
        stage = count_calls(spectrum, "_oracle_roots")
        vectors = count_calls(spectrum, "eigensystem_oracle")
        points = [SystemParams(1.7, 0.45, 1.0), SystemParams(2.0, 0.0, 0.0),
                  SystemParams(1e-6, 1.1, 0.0)]  # the last one deviates
        for k, p in enumerate(points, start=1):
            try:
                spectrum_closed_form(p)
            except NoConvergenceError as err:
                assert "deviates" in str(err) and p.omega == 1e-6
            assert (stage(), vectors()) == (k, 0)
        spectrum_oracle(points[0])
        assert (stage(), vectors()) == (len(points) + 1, 1)

    def test_outcome_matches_the_full_oracle_cross_check(self):
        points = _spectra_pool(400, 19) + _spectra_pool(400, 20) + _near_ep_points()
        points += [SystemParams(om, j, 1.0) for om in _SMALL_OMEGAS for j in (0.0, 0.3, 1.1)]
        classes = set()
        for p in points:
            want = _cross_check_outcome(_spectrum_closed_form_reference, p)
            assert _cross_check_outcome(spectrum_closed_form, p) == want, p
            classes.add(want[0] if isinstance(want[0], type) else Source)
        assert classes == {Source, OmegaSingularError, NearDefectiveError, NoConvergenceError}

    def test_hermitian_small_omega_names_the_deviation(self):
        """At gamma = 0 and omega ~ 1e-6..1e-4 the oracle's roots miss the spectrum: the
        full oracle's residual check raised NoConvergenceError first, and the pairing
        now raises it, naming a deviation that equals that residual to the digits shown."""
        renamed = 0
        for om in _SMALL_OMEGAS:
            for j in (0.3, 1.1):
                p = SystemParams(om, j, 0.0)
                want = _cross_check_outcome(_spectrum_closed_form_reference, p)
                got = _cross_check_outcome(spectrum_closed_form, p)
                if want[0] is NoConvergenceError and want[1].startswith("oracle residual"):
                    assert got[0] is NoConvergenceError, p
                    assert got[1].startswith("closed form deviates from oracle by"), p
                    assert got[1].split()[-1] == want[1].split()[2], p  # the same figure
                    renamed += 1
                else:
                    assert got == want, p
        assert renamed >= 10
