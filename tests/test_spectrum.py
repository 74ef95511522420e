import dataclasses
import math
import sys
import threading
import warnings
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
import mp_reference
from conftest import (FIG_SWEEPS, exact_z, fig2_grid, fig_sweep_points, min_gap, sector_gap,
                      vector_error)
from ptqsim.errors import (
    NearDefectiveError,
    NoConvergenceError,
    NonFiniteError,
    OmegaSingularError,
    PtqsimError,
)
from ptqsim import cli, entanglement, locate_ep, spectrum
from ptqsim.spectrum import _closed_form_eigenpairs, _rates, _sector_gap

params_st = st.builds(
    SystemParams,
    omega=st.floats(0.1, 3.0),
    j=st.floats(0.0, 1.2),
    gamma=st.just(1.0),
)


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


class TestClosedFormAccuracy:
    """Next to the EP3 (j < 0 makes a > 0) and at tiny rates, every closed-form eigenvalue
    lies within 4e-15 of its label's 40-digit root at unit scale (_labeled); the fig2 box
    and the seeded pools are TestScalarKernelAccuracy's."""

    @pytest.mark.parametrize("params", [
        *(SystemParams(1.0, sign * 10.0**-k, 1.0) for k in range(2, 11) for sign in (1, -1)),
        *(SystemParams(*(r * scale for r in shape)) for shape in ((2.0, 0.4, 1.0),
          (0.5, 0.3, 1.0)) for scale in (1e-13, 1e-60, 1e-110, 1e-200))], ids=repr)
    def test_next_to_third_order_point_and_tiny_rates(self, params):
        got, want, _ = _labeled(params)
        assert np.abs(got - want).max() <= 4e-15


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

    def test_omega_zero_is_diagonal(self):
        """At omega = 0 H is diagonal: the singlet, T = (|01> + |10>)/sqrt(2), |00> and |11>
        (E2 = -j, E3 = j + i gamma, E4 = j - i gamma), from the closed form itself, the
        eigenvalues exactly."""
        params = SystemParams(0.0, 0.3, 1.0)
        assert eigenvalues_closed_form(params).tolist() == [-0.3, -0.3, 0.3 + 1j, 0.3 - 1j]
        vecs = eigenvectors_closed_form(params)
        r2 = math.sqrt(0.5)
        want = np.array([[0, -r2, r2, 0], [0, r2, r2, 0], [1, 0, 0, 0], [0, 0, 0, 1]])
        assert np.max(np.abs(vecs - want)) <= 1.2e-16

    def test_phase_fix_ties_within_four_ulp_go_high(self):
        """|v3| = |v0| (1 - 2 ulp) ties with |v0|, and the tie goes to index 3; 8 ulp apart
        they do not tie.  In the PT-symmetric phase |v0| = |v3| exactly, so rounding
        alone would otherwise pick the pivot."""
        below = np.nextafter(np.nextafter(0.6, 0.0), 0.0)
        fixed = spectrum._phase_fix(np.array([-0.6, 0.1, 0.2j, 1j * below]))
        assert fixed[3] == below and fixed[0] == 0.6j
        apart = 0.6 - 8 * np.spacing(0.6)
        fixed = spectrum._phase_fix(np.array([-0.6, 0.1, 0.2j, 1j * apart]))
        assert fixed[0] == 0.6 and fixed[3] == -1j * apart

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


def _deltas_of(points):
    """The (n, 3) unit-scale deltas of E2..E4 that the points' instances solve."""
    return np.array([spectrum._eigenvalues(p)[1] for p in points], dtype=complex)


def _eigenpairs_of(points):
    """_closed_form_eigenpairs of points at unit scale, with the deltas of their grid solve;
    the residuals mapped back."""
    rates, exps, deltas, _ = spectrum._solve_grid(_rates(points))
    vecs, residuals = _closed_form_eigenpairs(rates, deltas, exps)
    return vecs, np.ldexp(residuals, exps)


def _guarded_points(points):
    """The points a sense sweep solves: those whose unit-scale sector gap reaches 1e-4."""
    return [p for p, k in zip(points, _sector_gap(_deltas_of(points)) >= 1e-4) if k]


class TestBatchedEigenpairs:
    """_closed_form_eigenpairs on a leading axis of points against the per-point loop."""

    @pytest.mark.parametrize("sweep", FIG_SWEEPS + ["seeded"])
    def test_matches_40_digit_reference(self, sweep):
        """Each sector vector within 1e-14 of the 40-digit null vector (tests/mp_reference.py)
        once their phases are aligned; the residual is ||Hv - Ev|| of the 4x4 H."""
        points = _guarded_points(
            _seeded_points(400) if sweep == "seeded" else fig_sweep_points(*sweep))
        vecs, residuals = _eigenpairs_of(points)
        assert vecs.shape == (len(points), 4, 4) and residuals.shape == (len(points),)
        for p, v, res in zip(points, vecs, residuals):
            e = eigenvalues_closed_form(p)
            want = mp_reference.sector_eigenvectors(p.omega, p.j, p.gamma, e)
            errors = [vector_error(got, ref) for got, ref in zip(v[1:], want)]
            assert max(errors) <= 1e-14, (p, errors)
            h = build_hamiltonian(p)
            assert res == pytest.approx(max(np.linalg.norm(h @ v[k] - e[k] * v[k])
                                            for k in range(4)), rel=0.5, abs=1e-15), p

    def test_a_point_does_not_depend_on_its_batch(self):
        points = _guarded_points(fig_sweep_points(*FIG_SWEEPS[0]) + _seeded_points(50))
        rates, exps, deltas, _ = spectrum._solve_grid(_rates(points))
        batch = _closed_form_eigenpairs(rates, deltas, exps)
        for i, p in enumerate(points):
            one = _closed_form_eigenpairs(rates[:, i:i + 1], deltas[i:i + 1], exps[i:i + 1])
            assert all(a[i].tobytes() == b[0].tobytes() for a, b in zip(batch, one))
        assert eigenvectors_closed_form(points[7]).tobytes() == batch[0][7].tobytes()

    def test_sector_gap_on_last_axis(self):
        deltas = _deltas_of(_seeded_points(20))
        gaps = _sector_gap(deltas.reshape(4, 5, 3))
        assert gaps.shape == (4, 5)
        assert gaps.reshape(-1).tolist() == [sector_gap(d) for d in deltas]

    def test_near_defective_names_first_failing_point(self):
        """A root 1e-6 off leaves a residual of about that size: the first such point of
        a batch is named, as a batch of one names it."""
        points = [SystemParams(2.0, 0.4, 1.0), SystemParams(1.7, 0.3, 1.0),
                  SystemParams(1.5, 0.2, 1.0)]
        values = eigenvalues_closed_form(points[1])
        values[2] += 1e-6
        deltas = _deltas_of(points)
        deltas[1:, 1] += 1e-6
        with pytest.raises(NearDefectiveError) as single:
            eigenvectors_closed_form(points[1], values)
        with pytest.raises(NearDefectiveError) as batch:
            _closed_form_eigenpairs(_rates(points), deltas)
        assert str(batch.value) == str(single.value)
        assert "omega=1.7, j=0.3," in str(batch.value)

    @pytest.mark.parametrize("band", [(0.0, 0.0), (1e-16, 1e-12), (1e-12, 1e-9), (1e-9, 1e-6),
                                      (1e-6, 1e-4)])
    def test_small_omega_answers(self, band):
        """The omega ~ 0 refusal table's draws (gamma = 1, j uniform in [0.01, 1.2], omega
        log-uniform in the band, 300 seeded draws): no point is refused, and every
        sector vector is within 1e-14 of the 40-digit one."""
        rng = np.random.default_rng(20260809)
        lo, hi = band
        for _ in range(300):
            om = 0.0 if hi == 0 else math.exp(rng.uniform(math.log(lo), math.log(hi)))
            p = SystemParams(om, rng.uniform(0.01, 1.2), 1.0)
            values = eigenvalues_closed_form(p)
            want = mp_reference.sector_eigenvectors(p.omega, p.j, p.gamma, values)
            errors = [vector_error(got, ref)
                      for got, ref in zip(eigenvectors_closed_form(p)[1:], want)]
            assert max(errors) <= 1e-14, (p, errors)

    def test_hermitian_limit_against_40_digits(self):
        """At gamma = 0 every eigenvalue is real, and each sector vector and Psi3's and Psi4's
        concurrences lie within 1e-14 of the 40-digit ones (paired by delta; those of the
        unit-scale point, as the vectors are scale-free): on 25 draws with omega in [0.3, 3],
        where the vectors solved from the given eigenvalues (delta = E - j) hold the same
        bound, and on 300 with omega log-uniform in 1e-12..1e-4, where the pair's roots j and
        sqrt(j^2 + omega^2) round to one float and their deltas 0 and omega^2 / (j +
        sqrt(j^2 + omega^2)) do not."""
        rng = np.random.default_rng(20261021)
        omegas = [*rng.uniform(0.3, 3.0, 25), *np.exp(rng.uniform(-12, -4, 300) * math.log(10))]
        for k, (om, j) in enumerate(zip(omegas, rng.uniform(0.01, 1.2, 325).tolist())):
            p = SystemParams(float(om), j, 0.0)
            assert not eigenvalues_closed_form(p).imag.any()
            unit = spectrum._unit_point(p)[1]
            want = mp_reference.sector_states(unit.omega, unit.j, 0.0, spectrum._eigenvalues(p)[1])
            got = eigenvectors_closed_form(p)[1:]
            given = [eigenvectors_closed_form(p, eigenvalues_closed_form(p))[1:]] if k < 25 else []
            for vecs in [got, *given]:
                assert max(vector_error(v, np.array([complex(x) for x in w]))
                           for v, w in zip(vecs, want)) <= 1e-14, p
            assert max(abs(concurrence_pure(v) - float(mp_reference.pure_concurrence(w)))
                       for v, w in zip(got[1:], want[1:])) <= 1e-14, p


@pytest.mark.parametrize("call, overflows", [
    (eigenvalues_closed_form, True), (spectrum_closed_form, True),
    (eigenvectors_closed_form, False),
    (lambda p: entanglement.eigenstate_concurrence_wootters(p, 3), False),
], ids=["eigenvalues", "spectrum", "eigenvectors", "concurrence"])
def test_only_outputs_that_overflow_refuse(call, overflows):
    """At (1.5e308, 1.5e308, 0) E4 = sqrt(j^2 + omega^2) leaves the float range: the
    eigenvalues are refused, and the scale-free vectors and concurrences equal the
    unit-scale point's bit for bit."""
    params = SystemParams(1.5e308, 1.5e308, 0.0)
    if overflows:
        with pytest.raises(NonFiniteError):
            call(params)
    else:
        unit = SystemParams(*spectrum._unit_point(params)[1])
        assert np.array(call(params)).tobytes() == np.array(call(unit)).tobytes()


class TestToleranceScale:
    """Residual and gap tolerances are in units of the largest rate, at any scale.

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
        vecs, residuals = _eigenpairs_of([params])
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
        """Below omega ~ 1e-6, E2 is within omega**2 of the deflated singlet root -j, and
        the oracle keeps both."""
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

    def test_oracle_answers_at_far_rates(self):
        """Solved at unit scale: no overflow in eig, and the roots are the closed form's."""
        params = SystemParams(2e200, 4e199, 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            oracle = spectrum_oracle(params)
        closed = eigenvalues_closed_form(params)
        assert np.abs(oracle.eigenvalues - closed).max() <= 1e-9 * 2e200

    @pytest.mark.parametrize("k", [-250, -100, 100, 250])
    def test_oracle_scales_bit_for_bit(self, k):
        """Rates times 4**k give the roots and the residual times 4**k and the same vectors."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in _spectra_pool(100, 20261020):
                base = spectrum_oracle(p)
                scaled = spectrum_oracle(SystemParams(
                    *(math.ldexp(r, 2 * k) for r in (p.omega, p.j, p.gamma))))
                want = base.eigenvalues.copy()
                want.real, want.imag = np.ldexp(want.real, 2 * k), np.ldexp(want.imag, 2 * k)
                assert scaled.eigenvalues.tobytes() == want.tobytes(), p
                assert scaled.eigenvectors.tobytes() == base.eigenvectors.tobytes(), p
                assert scaled.max_residual == math.ldexp(base.max_residual, 2 * k), p


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
        """max|Im E| and the gaps scale with the rates; the thresholds apply at unit scale."""
        params = SystemParams(*(r * scale for r in shape))
        assert classify_phase(params).phase is expected
        assert classify_phase(SystemParams(*shape)).phase is expected

    def test_crossing_at_j_zero_is_near_ep_only_inside_the_gap(self):
        """At j = 0 the singlet crosses a sector root, |E1 - E_k| = 2|j| omega^2 / (omega^2 -
        gamma^2) + O(j^2): NEAR_EP where that is at most 1e-6 (unit scale), else not."""
        labels = {d: {classify_phase(SystemParams(om, s * d, 1.0)).phase for om in (1.5, 2.0, 3.0)
                      for s in (1, -1)} for d in (0.0, 1e-7, 2.5e-7, 5e-7, 1e-6)}
        assert labels == {0.0: {Phase.NEAR_EP}, 1e-7: {Phase.NEAR_EP}, 2.5e-7: {Phase.NEAR_EP},
                          5e-7: {Phase.PT_SYMMETRIC}, 1e-6: {Phase.PT_SYMMETRIC}}

    def test_max_imag_reported(self):
        label = classify_phase(SystemParams(0.0, 0.5, 1.0))
        assert label.max_imag == pytest.approx(1.0)


def _fresh(params):
    """A fresh instance of params' rates: its solve is not in params' store."""
    return SystemParams(params.omega, params.j, params.gamma)


def _labeled(params):
    """(the closed-form E1..E4 at unit scale, the 40-digit ones labeled as the closed form
    labels them, whether z > 0 exactly): E2 is the real root where z > 0 (E3 the one of
    positive imaginary part), else the largest where j <= 0 and the smallest where j > 0,
    and E3 <= E4."""
    e, unit = spectrum._unit_point(params)
    got = eigenvalues_closed_form(params)
    roots = mp_reference.hamiltonian_eigenvalues(unit.omega, unit.j, unit.gamma).tolist()
    broken = exact_z(unit.omega, unit.j, unit.gamma) > 0
    if broken:
        e2, e3, e4 = sorted(roots[1:], key=lambda r: abs(r.imag))
        want = [roots[0], e2, *sorted([e3, e4], key=lambda r: -r.imag)]
    else:
        low, mid, high = sorted(roots[1:], key=lambda r: r.real)
        want = [roots[0], *((high, low, mid) if unit.j <= 0 else (low, mid, high))]
    return np.ldexp(got.real, -e) + 1j * np.ldexp(got.imag, -e), np.array(want), broken


#: Points at the kernel's branch edges: a = 0 (j = +-0); z = 0 (omega = gamma = 0,
#: the origin, the EP3); z < 0 with the root rotated (a < 0) and not (a >= 0);
#: omega = 0, gamma = 0, signed zeros; rates outside [1, 4); near-EP points.
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

    def choice(values):  # rng.choice's draw, without its per-call cost
        return values[rng.integers(len(values))]

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
            rates = (choice([0.0, -0.0, 1.0, -2.0, 0.5]),
                     choice([0.0, -0.0, 0.3, -0.3, 0.5899798397854931]),
                     choice([0.0, 1.0, 0.5]))
        else:
            g = rng.uniform(0, 2)
            rates = (g * (1 + choice([0.0, 1e-8, -1e-8, 1e-15])),
                     choice([0.0, -0.0, 1e-9, -1e-9]), g)
        points.append(SystemParams(*(float(r) for r in rates)))
    return points


class TestScalarKernelAccuracy:
    """eigenvalues_closed_form and classify_phase against the 40-digit spectrum.

    Each label's error is |E_k - R_k| at unit scale (_labeled), so a swapped label reads as
    the pair's split.  The bounds are the median and the largest error of the
    complex-branch kernel that this solve replaced, on the same pools: next to the curve
    (the edge pool's j_c points) a double root is split by ~sqrt(eps) in both.  The seeded
    pool is every 100th of the 50 000 draws.  The edge point (2, 3.75e-7, 1) sits 2e-20
    above the 1e-6 NEAR_EP rule (its 50-digit gap is 1.0000000000000209e-6), so a change of
    the kernel's last bits there is expected to flip its label.
    """

    BOUNDS = {"edges": (4.5e-16, 9.3e-11), "fig2": (4.6e-16, 3.2e-15),
              "seeded": (6.7e-16, 3.9e-15)}

    @pytest.mark.parametrize("source", ["edges", "fig2", "seeded"])
    def test_labels_and_digits(self, source):
        points = {"edges": lambda: [SystemParams(*r) for r in _EDGE_POINTS],
                  "fig2": fig2_grid,
                  "seeded": lambda: _seeded_edge_draw(50_000, 20261018)[::100]}[source]()
        got, want, broken = map(np.array, zip(*map(_labeled, points)))
        errors = np.abs(got - want).max(axis=1)
        median, largest = self.BOUNDS[source]
        assert np.median(errors) <= median and errors.max() <= largest
        near = ~broken & (np.array([min_gap(w) for w in want]) <= spectrum._NEAR_EP_LABEL_GAP)
        labels = [classify_phase(p) for p in points]
        assert [lab.phase is Phase.PT_BROKEN for lab in labels] == broken.tolist()
        assert [lab.phase is Phase.NEAR_EP for lab in labels] == near.tolist()
        assert [lab.max_imag for lab in labels] == [
            np.abs(eigenvalues_closed_form(p).imag).max() for p in points]

    def test_edges_reach_every_branch(self):
        """The fixed list exercises both forms of delta2 (the real cube root where z >= 0,
        the trigonometric form where z < 0) with both signs of a and a = 0, delta2 = 0,
        and the rescale."""
        seen = set()
        for r in _EDGE_POINTS:
            e, p = spectrum._unit_point(SystemParams(*r))
            x, z, a = spectrum._cubic_data(p)
            seen.add(("z>0" if z > 0 else "z=0" if z == 0 else "z<0", (a > 0) - (a < 0)))
            seen.add(("delta2 = 0", spectrum._solve_eigenvalues(p)[0][0] == 0))
            seen.add(("rescaled", e != 0))
        assert {("z<0", -1), ("z<0", 1), ("z<0", 0), ("z>0", 0), ("z>0", -1), ("z>0", 1),
                ("z=0", -1), ("z=0", 0), ("delta2 = 0", True), ("rescaled", True)} <= seen


def _near_curve_points(n=300, ulps=10, seed=20261020):
    """n seeded omega in [1.05, 3] (gamma = 1), each with the 2 ulps + 1 floats j around
    its located j_c."""
    points = []
    for omega in np.random.default_rng(seed).uniform(1.05, 3.0, n).tolist():
        j = locate_ep("omega", omega, (1e-9, 2.5)).j_c
        for _ in range(ulps):
            j = math.nextafter(j, 0.0)
        for _ in range(2 * ulps + 1):
            points.append((omega, j, 1.0))
            j = math.nextafter(j, math.inf)
    return points


class TestExactPhase:
    """The phase is the exact sign of z, and the float filter never contradicts it."""

    @pytest.mark.parametrize("k", [0, -125, 125])
    @pytest.mark.parametrize("pool", ["near_curve", "fig2"])
    def test_label_is_the_exact_sign(self, pool, k):
        rates = _near_curve_points() if pool == "near_curve" else [
            (p.omega, p.j, p.gamma) for p in fig2_grid()]
        broken = 0
        for r in rates:
            p = SystemParams(*(math.ldexp(x, 2 * k) for x in r))
            z = exact_z(*r)
            sign = (z > 0) - (z < 0)
            assert spectrum._z_sign(p, spectrum._eigenvalues(p)[2]) == sign, r
            phase = classify_phase(p).phase
            assert (phase is Phase.PT_BROKEN) == (sign > 0), r
            broken += sign > 0
        assert 0 < broken < len(rates)

    def test_filter_decides_off_the_curve(self, count_calls):
        """The fig2 box's cells and a phase_scan column leave the float z outside its
        bound: one exact evaluation, at the EP3 (omega, j) = (1, 0), where z = 0."""
        exact = count_calls(spectrum, "_exact_z_sign")
        for p in fig2_grid() + [SystemParams(2.0, j, 1.0) for j in np.linspace(0, 1.2, 97)]:
            classify_phase(p)
        assert exact() == 1


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
        fresh = _fresh(p)
        assert label == classify_phase(fresh)
        assert _bits(values).tolist() == _bits(eigenvalues_closed_form(fresh)).tolist()
        eigenvectors_closed_form(p)
        classify_phase(p)
        assert solves() == 2

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
                eigenvalues_closed_form(SystemParams(2.0, 0.7, 1.0))).tolist()
        with pytest.raises(dataclasses.FrozenInstanceError):
            solved.j = 0.7

    def test_overflow_raises_from_the_store(self, solves):
        """E4 = sqrt(j^2 + omega^2) leaves the float range: the unit-scale solve is stored
        and the mapped eigenvalues raise on every call; the label, which needs no
        eigenvalue, answers."""
        p = SystemParams(1.5e308, 1.5e308, 0.0)
        for _ in range(3):
            with pytest.raises(NonFiniteError):
                eigenvalues_closed_form(p)
        assert classify_phase(p) == PhaseLabel(Phase.PT_SYMMETRIC, 0.0)
        assert solves() == 1 and spectrum._MEMO_KEY in vars(p)

    def test_rates_outside_the_window_stay_bitwise(self, solves):
        points = [SystemParams(*r) for r in _EDGE_POINTS]
        points = [p for p in points if spectrum._unit_point(p)[0]]
        assert len(points) >= 8
        for p in points:
            fresh = _fresh(p)
            want, label = _bits(eigenvalues_closed_form(fresh)).tolist(), classify_phase(fresh)
            before = solves()
            assert _bits(eigenvalues_closed_form(p)).tolist() == want
            assert classify_phase(p) == label
            assert _bits(eigenvalues_closed_form(p)).tolist() == want
            assert solves() - before == 1


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
            spectrum_closed_form(p)
            try:
                for s in (3, 4):
                    entanglement.eigenstate_concurrence_wootters(p, s)
                    entanglement.eigenstate_concurrence_closed(p, s, check=False)
            except OmegaSingularError:
                refused += 1
        assert refused == 10  # the omega = 0 points: the radical form divides by omega
        assert pair_solves() == len(points)

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

    def test_errors_are_not_stored(self, pair_solves, monkeypatch):
        """With every residual tolerance at 0 the point is near-defective on each call."""
        monkeypatch.setattr(spectrum, "RESIDUAL_TOL", 0.0)
        monkeypatch.setattr(spectrum, "NEAR_EP_RESIDUAL_TOL", 0.0)
        params = SystemParams(1.7, 0.3, 1.0)
        calls = [eigenvectors_closed_form, spectrum_closed_form,
                 lambda p: entanglement.eigenstate_concurrence_wootters(p, 3)]
        for k, call in enumerate(calls * 2, start=1):
            with pytest.raises(NearDefectiveError):
                call(params)
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
                assert _bits(spec.eigenvalues).tolist() == _bits(
                    eigenvalues_closed_form(_fresh(p))).tolist()
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
            vecs, residuals = _eigenpairs_of([SystemParams(p.omega, p.j, p.gamma)])
            for _ in range(2):  # solved, then from the store
                try:
                    spec = spectrum_closed_form(p)
                except NoConvergenceError:
                    spec = None
                got = eigenvectors_closed_form(p)
                assert got.tobytes() == vecs[0].tobytes()
                # from E, delta = E - j carries E's rounding
                assert np.abs(got - eigenvectors_closed_form(
                    p, eigenvalues_closed_form(p))).max() <= 1e-14
                if spec is not None:
                    assert spec.eigenvectors.tobytes() == vecs[0].tobytes()
                    assert _bits(spec.max_residual) == _bits(residuals[0])
                stored_vecs, stored_residual = spectrum._eigenpair(p)
                assert stored_vecs.tobytes() == vecs[0].tobytes()
                assert not stored_vecs.flags.writeable
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


# The kernels that pairing_distance's _PERMS table and spectrum_oracle's order
# replaced, verbatim: the references they must equal bit for bit.
def _pairing_distance_reference(a, b):
    return min(max(abs(a[list(p)] - b)) for p in permutations(range(4)))


def _oracle_order_reference(values, reference):
    """spectrum_oracle's label order as the 24-way min over permutations found it."""
    return list(min(
        permutations(range(4)),
        key=lambda p: max(abs(values[list(p)] - reference)),
    ))


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


#: Singular matrices: H(0, 0, 1) and the EP3 H(1, 0, 1), a fourfold zero eigenvalue.
_SINGULAR = [np.diag([1.0, 2.0, 3.0, 0.0]).astype(complex),
             np.diag([0.5 + 1j, -0.5, 0.0, 0.5 - 1j]),
             np.diag([1j, 2.0, 0.0, -1j]),
             build_hamiltonian(SystemParams(0.0, 0.0, 1.0)),
             build_hamiltonian(SystemParams(1.0, 0.0, 1.0))]


def _rate_unit(p):
    return max(1.0, abs(p.omega), abs(p.j), abs(p.gamma))


def _hamiltonian_error(p, spec):
    """The oracle spectrum's pairing distance from H(p)'s 40-digit eigenvalues."""
    return pairing_distance(spec.eigenvalues, mp_reference.hamiltonian_eigenvalues(
        p.omega, p.j, p.gamma))


def _no_root_merged(spec):
    """Four distinct roots: on a matrix with simple, separated eigenvalues no cluster merged."""
    return len(set(spec.eigenvalues.tolist())) == 4


class TestOracleAccuracy:
    """The LAPACK oracle against 40-digit eigenvalues (tests/mp_reference.py), on the
    pools that pinned the bits of the characteristic-polynomial oracle it replaced.

    The largest errors read here: 4.0e-15 of the rate unit max(1, |omega|,
    |j|, |gamma|) on the Hamiltonian pools (fig2's (1.65, 0.3)), 7.0e-15 of s
    on the small-rate Hamiltonians, 4.5e-15 of max|h| on the random matrices.
    A double root that rounding split and the cluster rule left split would
    read ~1e-8.
    """

    BOUND = 1e-13

    @pytest.mark.parametrize("seed", [301, 302, 303])
    def test_spectra_pools(self, seed):
        for p in _spectra_pool(400, seed):
            oracle = eigensystem_oracle(build_hamiltonian(p), -p.j)
            assert _hamiltonian_error(p, oracle) <= self.BOUND * _rate_unit(p), p
            values = eigenvalues_closed_form(p)
            got = pairing_distance(values, oracle.eigenvalues)
            want = _pairing_distance_reference(values, oracle.eigenvalues)
            assert type(got) is type(want) and _bits(got) == _bits(want), p
            assert spectrum_oracle(p).eigenvalues.tobytes() == oracle.eigenvalues[
                _oracle_order_reference(oracle.eigenvalues, values)].tobytes(), p
            if p.omega != 0.0:
                psi3, psi4 = eigenvectors_closed_form(p, values)[2:]
                rho = np.outer(psi3, psi3.conj()) + np.outer(psi4, psi4.conj())
                trace = np.trace(rho).real
                assert concurrence_mixed(rho / trace) == pytest.approx(
                    mp_reference.concurrence([1 / trace] * 2, [psi3, psi4]),
                    abs=TestConcurrenceAccuracy.BOUND), p
                assert concurrence_mixed(np.outer(psi3, psi3.conj())) == pytest.approx(
                    mp_reference.concurrence([1.0], [psi3]), abs=TestConcurrenceAccuracy.BOUND), p

    def test_hamiltonian_grids(self):
        """Every other point of the fig2 grid (the EP3 (1, 0, 1) among them), the
        signed-zero corners and a spectra pool."""
        points = fig2_grid()[::2] + [SystemParams(om, j, g) for om in (2.0, -2.0, 0.0, -0.0, 1e-9)
                                      for j in (0.0, -0.0, 0.4, -0.4) for g in (1.0, 0.0, -0.0)]
        for p in points + _spectra_pool(400, 16):
            oracle = eigensystem_oracle(build_hamiltonian(p), -p.j)
            assert oracle.eigenvalues[0] == -p.j
            assert _hamiltonian_error(p, oracle) <= self.BOUND * _rate_unit(p), p

    @staticmethod
    def _assert_accurate(h, rel=1e-13):
        """Within rel * max|h| of mpmath's eigenvalues."""
        values = eigensystem_oracle(h).eigenvalues
        assert pairing_distance(values, mp_reference.eigenvalues(h)) <= rel * np.abs(h).max(), h

    def test_random_matrices(self):
        """Every random matrix answers with four distinct roots; every tenth against 40 digits."""
        rng = np.random.default_rng(20261018)
        for k in range(600):
            h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h *= 10.0 ** rng.uniform(-3, 3) if k % 2 else 1.0
            oracle = eigensystem_oracle(h)
            assert _no_root_merged(oracle) and oracle.max_residual <= 1e-13 * np.abs(h).max()
            values = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            assert _bits(pairing_distance(values, oracle.eigenvalues)) == _bits(
                _pairing_distance_reference(values, oracle.eigenvalues))
            if k % 10 == 0:
                self._assert_accurate(h)
        rng = np.random.default_rng(17)  # a fraction of the entries signed zeros
        for k in range(200):
            h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h[rng.random((4, 4)) < 0.4] = -0.0 if k % 2 else 0.0
            if k % 10 == 0:
                self._assert_accurate(h)
            else:
                eigensystem_oracle(h)

    def test_small_rates(self):
        """Rates of 1e-8 to 1e-5, and near-double roots 1e-9 to 1e-5 apart (relative) at
        rates of 1e-9 to 1e-7: the cluster rule scales with max|h|, so it resolves them."""
        rng = np.random.default_rng(20261019)
        for k in range(300):
            s = 10.0 ** rng.uniform(-8, -5)
            h = s * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            assert _no_root_merged(eigensystem_oracle(h))
            if k % 10 == 0:
                self._assert_accurate(h)
            p = SystemParams(s * 3.0 * rng.random(), s * 1.2 * rng.random(), s)
            oracle = eigensystem_oracle(build_hamiltonian(p), -p.j)
            assert _hamiltonian_error(p, oracle) <= self.BOUND * s, p
        for _ in range(100):
            s, d = 10.0 ** rng.uniform(-9, -7), 10.0 ** rng.uniform(-9, -5)
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            exact = np.array([1.0, 1.0 + d, 2.0 + 1j, -1.5])
            h = s * (q @ np.diag(exact) @ q.conj().T)  # normal: rounding moves each root by ~eps s
            assert pairing_distance(eigensystem_oracle(h).eigenvalues, s * exact) <= 1e-14 * s

    def test_singular_matrices(self):
        for h in _SINGULAR[:3]:
            assert pairing_distance(eigensystem_oracle(h).eigenvalues, np.diag(h)) == 0.0
        for p in (SystemParams(0.0, 0.0, 1.0), SystemParams(1.0, 0.0, 1.0)):
            assert _hamiltonian_error(p, eigensystem_oracle(build_hamiltonian(p))) <= 1e-15
        # the singlet root -j = -0.0 deflated at omega = j = 0 keeps its sign
        roots = eigensystem_oracle(_SINGULAR[3], -0.0).eigenvalues
        assert roots[0] == 0 and math.copysign(1.0, roots[0].real) == -1.0
        assert pairing_distance(roots, np.diag(_SINGULAR[3])) == 0.0


_BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0)


def _concurrence_ensembles(rng):
    """(weights, states) of pure, rank-2 and diagonal density matrices, the maximally
    mixed state and |00><00|."""
    states = rng.standard_normal((60, 4)) + 1j * rng.standard_normal((60, 4))
    states /= np.linalg.norm(states, axis=1)[:, None]
    ensembles = [([1.0], [v]) for v in states[:20]]
    for a, b in zip(states[20:40], states[40:]):
        ensembles.append(([1 / 1.5, 0.5 / 1.5], [a, b]))
    basis = list(np.eye(4, dtype=complex))
    for w in rng.random((20, 4)):
        ensembles.append((w / w.sum(), basis))
    return ensembles + [([0.25] * 4, basis), ([1.0], basis[:1])]


def _density(weights, states):
    return sum(w * np.outer(v, v.conj()) for w, v in zip(weights, states))


class TestConcurrenceAccuracy:
    """concurrence_mixed against Wootters' concurrence of the ensemble at 40 digits.

    The largest error on these pools and the spectra pools reads 1.2e-15 here.
    """

    BOUND = 1e-14

    def _assert_accurate(self, weights, states):
        rho = _density(weights, states)
        assert concurrence_mixed(rho) == pytest.approx(
            mp_reference.concurrence(weights, states), abs=self.BOUND), (weights, states)

    def test_rank_deficient(self):
        rng = np.random.default_rng(11)
        singlet = np.array([0, -1, 1, 0], dtype=complex) / np.sqrt(2.0)
        states = [_BELL, np.array([1, 0, 0, 0], dtype=complex), singlet]
        states += [v / np.linalg.norm(v) for v in
                   rng.standard_normal((40, 4)) + 1j * rng.standard_normal((40, 4))]
        self._assert_accurate([0.25] * 4, list(np.eye(4, dtype=complex)))
        for rank in (1, 2, 3):
            for start in range(0, len(states) - rank, rank):
                group = states[start:start + rank]
                trace = np.trace(_density([1.0] * rank, group)).real
                self._assert_accurate([1 / trace] * rank, group)

    def test_pure_mixed_and_diagonal(self):
        for weights, states in _concurrence_ensembles(np.random.default_rng(18)):
            self._assert_accurate(weights, states)

    def test_near_zero_and_near_the_threshold(self):
        """Werner states around p = 1/3, where C = max(0, (3p - 1)/2) leaves 0, and the
        Bell state with eps of white noise, C = 1 - 3 eps/2, next to the diagonal
        diag(1 - eps, eps, 0, 0), C = 0."""
        bell = np.outer(_BELL, _BELL.conj())
        for p in np.concatenate([np.linspace(0.3, 0.37, 71), [1 / 3, 0.0, 1.0]]):
            rho = p * bell + (1 - p) * np.eye(4) / 4
            assert concurrence_mixed(rho) == pytest.approx(max(0.0, (3 * p - 1) / 2),
                                                           abs=self.BOUND), p
        for eps in np.logspace(-9, -3, 25):
            rho = (1 - eps) * bell + eps * np.eye(4) / 4
            assert concurrence_mixed(rho) == pytest.approx(1 - 1.5 * eps, abs=self.BOUND), eps
            assert concurrence_mixed(np.diag([1 - eps, eps, 0.0, 0.0]).astype(complex)) == 0.0

    @pytest.mark.parametrize("bad, message", [
        (np.nan, "non-finite entry (NaN or inf)"),
        (np.inf, "non-finite entry (NaN or inf)"),
        (complex(np.nan, 0.0), "non-finite entry (NaN or inf)"),
        (1e200, "negative eigenvalue below -1e-10 floor"),
    ])
    def test_refuses_bad_input(self, bad, message):
        rho = np.eye(4, dtype=complex) / 4
        rho[1, 2], rho[2, 1] = bad, np.conj(bad)
        with pytest.raises(entanglement.InvalidDensityError) as err:
            concurrence_mixed(rho)
        assert str(err.value) == message

    def test_trace_message_is_unchanged(self):
        rho = np.eye(4, dtype=complex) / 8
        with pytest.raises(entanglement.InvalidDensityError) as err:
            concurrence_mixed(rho)
        assert str(err.value) == f"trace {np.trace(rho)} != 1 within 1e-10"


def _spectrum_closed_form_reference(params):
    """spectrum_closed_form as it was when it ran the full oracle, verbatim but for
    module-qualified names."""
    values = eigenvalues_closed_form(params)
    vecs, residual = spectrum._eigenpair(params)
    oracle = eigensystem_oracle(build_hamiltonian(params), deflate_root=-params.j)
    dev = pairing_distance(values, oracle.eigenvalues)
    if dev > 1e-9 * _rate_unit(params):
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
    """spectrum_closed_form pairs the closed form with the oracle's roots alone."""

    def test_one_call_runs_the_eigenvalue_stage_alone(self, count_calls):
        stage = count_calls(spectrum, "_oracle_roots")
        vectors = count_calls(spectrum, "eigensystem_oracle")
        points = [SystemParams(1.7, 0.45, 1.0), SystemParams(2.0, 0.0, 0.0),
                  SystemParams(2.0, 0.589979839785503, 1.0)]  # j_c + 1e-14
        for k, p in enumerate(points, start=1):
            spectrum_closed_form(p)
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
        assert classes == {Source, NoConvergenceError}  # near-EP points refuse; omega ~ 0 answers

    def test_hermitian_small_omega_answers(self):
        """At gamma = 0 and omega from 0 to 1e-4 the singlet and E2 are a near-double root
        of a normal H, which eig resolves: the cross-check answers at every point, within
        1e-9 of the 40-digit spectrum."""
        for om in _SMALL_OMEGAS:
            for j in (0.3, 1.1):
                p = SystemParams(om, j, 0.0)
                spec = spectrum_closed_form(p)
                reference = mp_reference.hamiltonian_eigenvalues(om, j, 0.0)
                assert pairing_distance(spec.eigenvalues, reference) <= 1e-9 * _rate_unit(p), p

    def test_answers_at_an_exact_double_root(self):
        """At either float of the flip, a located j_c or its broken-side neighbour, where
        the closed form's pair is an exact double root (float z = 0), eig splits it by
        ~1e-8 and the cluster rule merges it back, so the cross-check answers.  Elsewhere
        on the curve the float j_c leaves z at rounding level and the closed form's own
        pair is split by ~1e-8, which no eigensolver resolves to 1e-9: those points stay
        refused."""
        double = 0
        for omega in [1.1, 1.3, 1.7, 2.0, 2.2, 2.4] + np.linspace(1.05, 3.0, 40).tolist():
            j_c = locate_ep("omega", omega, (1e-3, 2.0)).j_c
            for j in (j_c, math.nextafter(j_c, math.inf)):
                p = SystemParams(omega, j, 1.0)
                if spectrum._cubic_data(p)[1] == 0:
                    assert spectrum_closed_form(p).source is Source.CLOSED_FORM, p
                    double += 1
        assert double >= 15
