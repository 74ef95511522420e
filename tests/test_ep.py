from fractions import Fraction

import numpy as np
import pytest

from ptqsim import (
    Phase,
    SystemParams,
    auxiliary_quantities,
    build_hamiltonian,
    classify_phase,
    coalesced_eigenvector,
    eigenvalues_closed_form,
    eigenvectors_closed_form,
    ep_curve,
    ep_residual,
    locate_ep,
    pairing_distance,
)
from ptqsim.ep import EpPoint, ep_order_is_two
from ptqsim.errors import (
    EmptyCurveError,
    NoSignChangeError,
    NotAtEpError,
)


def bisect_phase_label(fix, value, bracket, gamma=1.0):
    """Independent oracle: bisect the phase label down to adjacent floats.

    Returns the unbroken-side end of the final bracket, as the locator did
    before the closed form replaced it.
    """
    swept = "j" if fix == "omega" else "omega"
    broken = lambda x: (classify_phase(SystemParams(**{fix: value, swept: x}, gamma=gamma)).phase
                        is Phase.PT_BROKEN)
    lo, hi = bracket
    broken_lo = broken(lo)
    assert broken_lo != broken(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi if broken_lo else lo
        if broken(mid) == broken_lo:
            lo = mid
        else:
            hi = mid


class TestEpResidual:
    def test_decoupled_not_an_ep(self):
        res_theta, _ = ep_residual(SystemParams(2.0, 0.0, 1.0))
        assert res_theta == pytest.approx(np.pi / 6)

    def test_free_limit_not_an_ep(self):
        res_theta, res_x = ep_residual(SystemParams(0.0, 0.0, 1.0))
        assert res_theta == 0.0
        assert res_x == pytest.approx(-6.0)

    def test_near_critical_point(self):
        # the 3-digit critical pair sits ~1e-3 inside the unbroken phase,
        # where the phase residual is 0.016 and the radial residual exactly 0
        res_theta, res_x = ep_residual(SystemParams(2.000, 0.589, 1.0))
        assert abs(res_x) < 1e-10
        assert 0.01 < abs(res_theta) < 0.02


class TestLocateEp:
    def test_fixed_omega_2000(self):
        point = locate_ep("omega", 2.000, (0.3, 0.9))
        assert 0.586 <= point.j_c <= 0.591
        assert point.omega_c == 2.000

    def test_fixed_j_0300(self):
        point = locate_ep("j", 0.300, (1.2, 2.2))
        assert point.omega_c == pytest.approx(1.649, abs=2e-3)

    def test_fixed_omega_1700(self):
        point = locate_ep("omega", 1.700, (0.1, 0.6))
        assert point.j_c == pytest.approx(0.338, abs=2e-3)

    def test_certificate_invariants(self):
        point = locate_ep("omega", 2.000, (0.3, 0.9))
        assert abs(point.residual_theta) <= 1e-6
        assert abs(point.residual_x) <= 1e-6
        assert point.gap <= 1e-6
        assert abs(point.e_degenerate.imag) <= 1e-8

    def test_degenerate_pair_real_and_equal(self):
        point = locate_ep("omega", 2.000, (0.3, 0.9))
        values = eigenvalues_closed_form(point.params())
        assert abs(values[2].imag) <= 1e-8 and abs(values[3].imag) <= 1e-8
        assert abs(values[2].real - values[3].real) <= 1e-8

    def test_second_order(self):
        point = locate_ep("omega", 2.000, (0.3, 0.9))
        assert ep_order_is_two(point)

    def test_no_sign_change(self):
        with pytest.raises(NoSignChangeError):
            locate_ep("omega", 2.000, (0.1, 0.2))

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            locate_ep("theta", 2.000, (0.1, 0.2))

    def test_agrees_with_radical_zero(self):
        """The located point is the zero of the radical discriminant."""
        point = locate_ep("omega", 2.000, (0.3, 0.9))
        lo, hi = 0.3, 0.9
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if auxiliary_quantities(SystemParams(2.0, mid, 1.0)).z < 0:
                lo = mid
            else:
                hi = mid
        assert abs(point.j_c - 0.5 * (lo + hi)) <= 1e-6

    def test_imag_grows_continuously_on_broken_side(self):
        jc = locate_ep("omega", 2.000, (0.3, 0.9)).j_c
        imags = []
        for d in (1e-6, 1e-4, 1e-2):
            values = eigenvalues_closed_form(SystemParams(2.0, jc + d, 1.0))
            imags.append(np.max(np.abs(values.imag)))
            pts = eigenvalues_closed_form(SystemParams(2.0, jc - d, 1.0))
            assert np.max(np.abs(pts.imag)) == 0.0
        assert imags[0] < imags[1] < imags[2]

    @pytest.mark.parametrize("fix, low, high, bracket", [
        ("omega", 1.0005, 3.0, (1e-9, 2.5)),
        ("j", 0.01, 1.5, (1.0, 5.0)),
    ])
    def test_seeded_roots_match_both_oracles(self, fix, low, high, bracket):
        """Within 1e-12 of the label bisection, and z (in exact rationals)
        changes sign within 2 ulp of the root."""
        def z(omega, j):
            om2, jj = Fraction(omega) ** 2, Fraction(j) ** 2
            return 16 * jj * jj + jj * (8 + 20 * om2 - om2 * om2) + (1 - om2) ** 3

        rng = np.random.default_rng(20261018)
        for value in np.concatenate([[low, high], rng.uniform(low, high, 40)]):
            point = locate_ep(fix, float(value), bracket)
            x = point.j_c if fix == "omega" else point.omega_c
            oracle = bisect_phase_label(fix, float(value), bracket)
            assert x == pytest.approx(oracle, rel=1e-12, abs=0.0), value
            ends = [x - 2 * np.spacing(x), x + 2 * np.spacing(x)]
            signs = [z(*((value, e) if fix == "omega" else (e, value))) > 0 for e in ends]
            assert signs[0] != signs[1], value

    @pytest.mark.parametrize("fix, value, bracket, expected", [
        ("omega", -2.0, (0.3, 0.9), 0.5899798397854931),
        ("omega", 2.0, (-0.9, -0.3), -0.5899798397854931),
        ("omega", 2.0, (-0.9, 0.3), -0.5899798397854931),
        ("j", -0.3, (1.2, 2.2), 1.6488931098618156),
        ("j", 0.3, (-2.2, -1.2), -1.6488931098618156),
    ])
    def test_signs_follow_the_bracket(self, fix, value, bracket, expected):
        """Negative fixed values and negative brackets give the bisection's results."""
        point = locate_ep(fix, value, bracket)
        found = point.j_c if fix == "omega" else point.omega_c
        assert found == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert (point.omega_c if fix == "omega" else point.j_c) == value

    def test_third_order_point_is_degenerate(self):
        # at j = 0 the critical omega is gamma, where all four eigenvalues meet
        point = locate_ep("j", 0.0, (0.5, 2.0))
        assert point.omega_c == 1.0
        assert point.gap == 0.0 and point.e_degenerate == 0
        assert not ep_order_is_two(point)

    def test_hermitian_limit_has_no_phase_change(self):
        with pytest.raises(NoSignChangeError):
            locate_ep("omega", 2.0, (0.3, 0.9), gamma=0.0)

    def test_root_outside_bracket_refused(self):
        # both ends differ in phase by the label, whose 1e-8 threshold biases
        # it above the closed-form root; the root itself lies below lo
        with pytest.raises(NoSignChangeError):
            locate_ep("omega", 1.0005, (6.086059771521042e-06, 2.5))


class TestEpCurve:
    def test_endpoints(self):
        entries = ep_curve((1.649, 2.000), 3)
        assert all(e.point is not None for e in entries)
        assert entries[0].point.j_c == pytest.approx(0.300, abs=2e-3)
        assert entries[-1].point.j_c == pytest.approx(0.590, abs=2e-3)
        omegas = [e.omega for e in entries]
        assert omegas == sorted(omegas)

    def test_single_point(self):
        entries = ep_curve((1.900, 1.900), 1)
        assert entries[0].point.j_c == pytest.approx(0.500, abs=1e-3)

    def test_empty_curve(self):
        with pytest.raises(EmptyCurveError):
            ep_curve((0.1, 0.2), 2, j_bracket=(1e-6, 0.05))

    def test_failures_marked_not_dropped(self):
        # omega below gamma never leaves the broken phase: those points fail
        entries = ep_curve((0.5, 2.0), 4)
        assert len(entries) == 4
        assert entries[0].point is None and entries[0].failure
        assert entries[-1].point is not None


class TestThirdOrderPoint:
    """(omega, j) = (gamma, 0) ends the critical curve: E2..E4 meet in an EP3 there.

    The spread of E2..E4 opens as eps**(1/3) along j = eps, the EP3 signature,
    and as eps**(1/2) along omega = gamma - eps at j = 0, where only E3 and E4
    leave E2 = 0 (Demange & Graefe, J. Phys. A 45, 025303 (2012)).
    """

    EPS = 10.0 ** -np.arange(2, 11)

    @pytest.mark.parametrize("path, exponent", [
        (lambda eps: SystemParams(1.0, eps, 1.0), 1 / 3),
        (lambda eps: SystemParams(1.0 - eps, 0.0, 1.0), 1 / 2),
    ], ids=["along_j", "along_omega"])
    def test_splitting_exponent(self, path, exponent):
        spreads = []
        for eps in self.EPS:
            params = path(eps)
            values = eigenvalues_closed_form(params)
            # the oracle is only a loose check: it is near-defective here
            oracle = np.linalg.eigvals(build_hamiltonian(params))
            assert pairing_distance(values, oracle) < 1e-4
            spreads.append(np.max(np.abs(values[1:] - values[1:].mean())))
        slope = np.polyfit(np.log(self.EPS), np.log(spreads), 1)[0]
        assert slope == pytest.approx(exponent, abs=1e-3)

    def test_coalesced_eigenvector(self):
        # E = 0 and d = i*gamma give r2 = -i, r1 = -1: the vector (1, -i, -i, -1)/2
        point = locate_ep("j", 0.0, (0.5, 2.0))
        vec = coalesced_eigenvector(point)
        assert np.allclose(vec, -np.array([1, -1j, -1j, -1]) / 2, rtol=0, atol=1e-15)
        assert not np.any(build_hamiltonian(point.params()) @ vec)


@pytest.fixture(scope="module")
def point():
    return locate_ep("omega", 2.000, (0.3, 0.9))


class TestCoalescedEigenvector:

    def test_eigen_residual(self, point):
        vec = coalesced_eigenvector(point)
        h = build_hamiltonian(point.params())
        assert np.linalg.norm(h @ vec - point.e_degenerate * vec) <= 1e-6

    def test_exchange_symmetric(self, point):
        vec = coalesced_eigenvector(point)
        assert vec[1] == pytest.approx(vec[2])

    def test_overlap_with_both_branches(self, point):
        vec = coalesced_eigenvector(point)
        for d in (1e-4, -1e-4):
            nearby = SystemParams(2.0, point.j_c + d, 1.0)
            vecs = eigenvectors_closed_form(nearby)
            assert abs(np.vdot(vec, vecs[2])) >= 0.999
            assert abs(np.vdot(vec, vecs[3])) >= 0.999
            assert abs(np.vdot(vecs[2], vecs[3])) >= 0.999

    def test_not_at_ep(self):
        fake = EpPoint(
            j_c=0.4, omega_c=2.0, gamma=1.0, residual_theta=0.2,
            residual_x=-3.0, gap=0.5, e_degenerate=1.0 + 0j,
        )
        with pytest.raises(NotAtEpError):
            coalesced_eigenvector(fake)
