import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptqsim import (
    SystemParams,
    concurrence_mixed,
    concurrence_pure,
    eigenstate_concurrence_closed,
    eigenstate_concurrence_wootters,
    eigenvectors_closed_form,
    locate_ep,
    scan_closed_form_discrepancies,
)
import mp_reference
from ptqsim import build_hamiltonian, spectrum
from ptqsim.errors import DiscrepancyError, InvalidDensityError, NotNormalizedError

SINGLET = np.array([0, -1, 1, 0], dtype=complex) / np.sqrt(2)


def random_state(rng):
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    return psi / np.linalg.norm(psi)


def random_local_unitary(rng):
    out = []
    for _ in range(2):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(m)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        out.append(q)
    return np.kron(out[0], out[1])


class TestConcurrenceMixed:
    def test_singlet_projector(self):
        assert concurrence_mixed(np.outer(SINGLET, SINGLET.conj())) == pytest.approx(1.0)

    def test_product_state(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        assert concurrence_mixed(rho) == 0.0

    def test_maximally_mixed(self):
        assert concurrence_mixed(np.eye(4, dtype=complex) / 4) == 0.0

    @pytest.mark.parametrize("p,expected", [(0.8, 0.7), (0.5, 0.25), (0.2, 0.0), (0.875, 0.8125),
                                            (0.9, 0.85), (0.96, 0.94), (0.98, 0.97)])
    def test_werner_family(self, p, expected):
        # independent closed form: max(0, (3p-1)/2)
        rho = p * np.outer(SINGLET, SINGLET.conj()) + (1 - p) * np.eye(4) / 4
        assert concurrence_mixed(rho) == pytest.approx(expected, abs=1e-12)

    def test_rejects_non_hermitian(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = 0.3
        with pytest.raises(InvalidDensityError):
            concurrence_mixed(rho)

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidDensityError):
            concurrence_mixed(np.eye(4, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvalidDensityError):
            concurrence_mixed(np.diag([1.5, -0.5, 0, 0]).astype(complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan),
                                     complex(np.inf, 0.0)])
    @pytest.mark.parametrize("where", [(1, 2), (0, 0)], ids=["off-diagonal", "diagonal"])
    def test_rejects_non_finite_entry_without_warning(self, bad, where):
        """A NaN or inf entry is refused by name, before any arithmetic can warn on it."""
        rho = np.eye(4, dtype=complex) / 4
        rho[where] = bad
        rho[where[::-1]] = np.conj(bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidDensityError, match="non-finite"):
                concurrence_mixed(rho)


class TestConcurrencePure:
    def test_schmidt_form(self):
        alpha = np.pi / 8
        psi = np.array([np.cos(alpha), 0, 0, np.sin(alpha)], dtype=complex)
        assert concurrence_pure(psi) == pytest.approx(np.sqrt(2) / 2)

    def test_singlet(self):
        assert concurrence_pure(SINGLET) == pytest.approx(1.0)

    def test_matches_closed_form_eigenstate(self):
        params = SystemParams(2.0, 0.7, 1.0)
        psi3 = eigenvectors_closed_form(params)[2]
        assert concurrence_pure(psi3) == pytest.approx(
            eigenstate_concurrence_wootters(params, 3), abs=1e-12
        )

    def test_not_normalized(self):
        with pytest.raises(NotNormalizedError):
            concurrence_pure(np.array([1, 1, 0, 0], dtype=complex))


class TestClosedFormEigenstateConcurrence:
    def test_discrepancy_reported_not_silenced(self):
        # verbatim radical form disagrees with Wootters away from gamma=0
        with pytest.raises(DiscrepancyError) as excinfo:
            eigenstate_concurrence_closed(SystemParams(2.0, 0.3, 1.0), 3)
        assert excinfo.value.closed == pytest.approx(0.931680, abs=1e-5)
        assert excinfo.value.wootters == pytest.approx(0.585721, abs=1e-5)

    def test_hermitian_limit_agrees(self):
        params = SystemParams(1.5, 0.4, 0.0)
        value = eigenstate_concurrence_closed(params, 3)
        assert value == pytest.approx(eigenstate_concurrence_wootters(params, 3), abs=1e-9)

    def test_broken_phase_pair_identical(self):
        params = SystemParams(2.0, 0.7, 1.0)
        c3 = eigenstate_concurrence_closed(params, 3, check=False)
        c4 = eigenstate_concurrence_closed(params, 4, check=False)
        assert abs(c3 - c4) < 1e-6
        w3 = eigenstate_concurrence_wootters(params, 3)
        w4 = eigenstate_concurrence_wootters(params, 4)
        assert abs(w3 - w4) < 1e-12

    def test_symmetric_phase_ordering(self):
        # C(psi3) falls and C(psi4) rises with the coupling below critical
        samples3, samples4 = [], []
        for j in (0.30, 0.40, 0.50):
            params = SystemParams(2.0, j, 1.0)
            samples3.append(eigenstate_concurrence_wootters(params, 3))
            samples4.append(eigenstate_concurrence_wootters(params, 4))
        assert samples3[0] > samples3[1] > samples3[2]
        assert samples4[0] < samples4[1] < samples4[2]
        assert samples3[0] != pytest.approx(samples4[0], abs=1e-3)

    def test_pair_converges_at_critical_coupling(self):
        jc = locate_ep("omega", 2.000, (0.3, 0.9)).j_c
        gaps = []
        for d in (1e-1, 1e-2, 1e-3):
            params = SystemParams(2.0, jc - d, 1.0)
            gaps.append(
                abs(
                    eigenstate_concurrence_wootters(params, 3)
                    - eigenstate_concurrence_wootters(params, 4)
                )
            )
        assert gaps[0] > gaps[1] > gaps[2]

    def test_scan_records_discrepancies(self):
        points = [SystemParams(2.0, j, 1.0) for j in (0.3, 0.5, 0.7)]
        records = scan_closed_form_discrepancies(points)
        assert len(records) == 6
        assert all(r["abs_diff"] >= 0 for r in records)
        assert max(r["abs_diff"] for r in records) > 1e-6  # the known mismatch

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            eigenstate_concurrence_closed(SystemParams(2.0, 0.3, 1.0), 2)


class TestOneEigenpairSolvePerPoint:
    """Psi3 and Psi4 of one SystemParams instance come from one eigenpair solve."""

    def test_scan_solves_each_point_once(self, count_calls):
        solves = count_calls(spectrum, "_closed_form_eigenpairs")
        points = [SystemParams(2.0, j, 1.0) for j in (0.1, 0.3, 0.5, 0.7, 0.9)]
        records = scan_closed_form_discrepancies(points)
        assert len(records) == 10 and solves() == 5
        fresh = scan_closed_form_discrepancies(
            [SystemParams(p.omega, p.j, p.gamma) for p in points])
        assert fresh == records and solves() == 10

    @pytest.mark.parametrize("gamma", [0.0, 1.0])  # the closed form agrees only at gamma = 0
    def test_checked_closed_forms_solve_once(self, count_calls, gamma):
        solves = count_calls(spectrum, "_closed_form_eigenpairs")
        params = SystemParams(1.5, 0.4, gamma)
        for s in (3, 4):
            try:
                value = eigenstate_concurrence_closed(params, s, check=True)
            except DiscrepancyError as err:
                assert gamma and err.wootters == eigenstate_concurrence_wootters(params, s)
            else:
                assert not gamma
                assert value == pytest.approx(eigenstate_concurrence_wootters(params, s), abs=1e-6)
        assert solves() == 1


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_global_phase_invariance(seed):
    rng = np.random.default_rng(seed)
    psi = random_state(rng)
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    assert concurrence_pure(psi * phase) == pytest.approx(concurrence_pure(psi), abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_local_unitary_invariance(seed):
    rng = np.random.default_rng(seed)
    psi = random_state(rng)
    u = random_local_unitary(rng)
    assert concurrence_pure(u @ psi) == pytest.approx(concurrence_pure(psi), abs=1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_bounds_and_projector_consistency(seed):
    rng = np.random.default_rng(seed)
    psi = random_state(rng)
    c = concurrence_pure(psi)
    assert 0.0 <= c <= 1.0
    assert concurrence_mixed(np.outer(psi, psi.conj())) == pytest.approx(c, abs=1e-10)


def test_reference_resolves_a_split_double_root():
    """At (1e-10, 0.3, 0) the sector roots j and sqrt(j^2 + omega^2) differ by 1.7e-20.
    The 40-digit reference's roots match an 80-digit mp.eig of H (Hermitian there, so
    well conditioned) within 1e-38, and its sector states' concurrences are those of
    that eig's vectors: 1 - 5.6e-20 (E2 and the root above j) and 1 (E = j)."""
    rates = (1e-10, 0.3, 0.0)
    ctx = mpmath.MPContext()
    ctx.dps = 80
    roots, vecs = ctx.eig(ctx.matrix(build_hamiltonian(SystemParams(*rates)).tolist()))
    want_roots, want_defects = [], []
    for k in range(4):
        v = [vecs[i, k] for i in range(4)]
        if abs(v[1] - v[2]) < 1e-30:  # a sector vector, not the singlet (0, -1, 1, 0)/sqrt(2)
            want_roots.append(roots[k])
            want_defects.append(1 - 2 * abs(v[1] * v[2] - v[0] * v[3]) / ctx.fsum(
                abs(x) ** 2 for x in v))
    got = mp_reference._sector_roots(*(mp_reference._mp.mpf(r) for r in rates))
    assert all(min(abs(root - r) for r in want_roots) < 1e-38 for root in got)
    values = spectrum.eigenvalues_closed_form(SystemParams(*rates))
    defects = sorted(1 - mp_reference.pure_concurrence(v)
                     for v in mp_reference.sector_states(*rates, values))
    assert abs(defects[0]) < 1e-38 and defects[1] == pytest.approx(5.5556e-20, rel=1e-4)
    assert [float(d) for d in defects] == pytest.approx(
        sorted(float(d) for d in want_defects), rel=1e-15, abs=1e-38)
