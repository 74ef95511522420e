import dataclasses
import math

import numpy as np
import pytest

import mp_reference
from conftest import exact_z, fig2_grid

from ptqsim import (
    Phase,
    SystemParams,
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
    NonFiniteError,
    NotAtEpError,
)
from ptqsim.spectrum import _cubic_data, _unit_point


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


def _unit_z(params) -> float:
    """The float z that ep_residual reads, at unit scale."""
    return _cubic_data(_unit_point(params)[1])[1]


def _seeded_rates(n, seed):
    """n points of a broad box, the critical band and rates from 1e-200 to 1e40."""
    rng = np.random.default_rng(seed)
    points = []
    for k in range(n):
        if k % 3 == 0:
            rates = rng.uniform(-3, 3), rng.uniform(-1.5, 1.5), rng.uniform(0, 2)
        elif k % 3 == 1:
            rates = rng.uniform(1.05, 3.0), rng.uniform(0.0, 1.5), 1.0
        else:
            s = 10.0 ** rng.uniform(-200, 40)
            rates = rng.uniform(-3, 3) * s, rng.uniform(-1.5, 1.5) * s, rng.uniform(0, 2) * s
        points.append(SystemParams(*(float(r) for r in rates)))
    return points


class TestEpResidual:
    def test_decoupled_not_an_ep(self):
        """x = 9, z = -27: y = 3 exp(i pi/6), so |y|^2 = x."""
        res_theta, res_x = ep_residual(SystemParams(2.0, 0.0, 1.0))
        assert res_theta == pytest.approx(np.pi / 6)
        assert res_x == 0.0

    def test_free_limit_not_an_ep(self):
        """x = -3, z = 1: y = sqrt(3), so residual_x = -3 - 3."""
        res_theta, res_x = ep_residual(SystemParams(0.0, 0.0, 1.0))
        assert res_theta == 0.0
        assert res_x == pytest.approx(-6.0)

    def test_third_order_point_has_no_negative_zero(self):
        """At the EP3 x = z = a = 0: both residuals are +0.0 (a CSV prints -0.0 as -0)."""
        for value in ep_residual(SystemParams(1.0, 0.0, 1.0)):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_near_critical_point(self):
        # the 3-digit critical pair sits ~1e-3 inside the unbroken phase,
        # where the phase residual is 0.016 and the radial residual exactly 0
        res_theta, res_x = ep_residual(SystemParams(2.000, 0.589, 1.0))
        assert res_x == 0.0
        assert 0.01 < abs(res_theta) < 0.02

    @pytest.mark.parametrize("pool", ["fig2", "seeded"])
    def test_each_residual_vanishes_on_its_side(self, pool):
        """residual_x is 0.0 wherever the float z <= 0 (|y|^2 = x there), residual_theta
        wherever z > 0 (y's phase is 0 or pi/3 there); neither is ever -0.0, not even where
        a negative residual_x underflows on the way back to the rates."""
        points = fig2_grid() if pool == "fig2" else _seeded_rates(3000, 20261022)
        sides = set()
        for p in points:
            res_theta, res_x = ep_residual(p)
            broken = _unit_z(p) > 0
            sides.add(broken)
            assert (res_theta if broken else res_x) == 0.0, p
            assert all(v or math.copysign(1.0, v) == 1.0 for v in (res_theta, res_x)), p
        assert sides == {False, True}

    #: The parent kernel's (complex principal cube root) largest residual_theta error and
    #: median and largest residual_x error on the same pool.
    BOUNDS = {"theta": 7.0e-16, "x": (1.8e-15, 2.0e-12)}

    def test_off_the_curve_against_50_digits(self):
        """The fig2 box's points with |z| >= 1e-6 against the principal-root residuals at
        50 digits (mp_reference.principal_residuals)."""
        theta_errors, x_errors = [], []
        for p in fig2_grid():
            if abs(exact_z(p.omega, p.j, p.gamma)) < 1e-6:
                continue
            want = mp_reference.principal_residuals(p.omega, p.j, p.gamma)
            got = ep_residual(p)
            theta_errors.append(float(abs(got[0] - want[0])))
            x_errors.append(float(abs(got[1] - want[1])))
        assert len(x_errors) == 3720
        assert max(theta_errors) <= self.BOUNDS["theta"]
        median, largest = self.BOUNDS["x"]
        assert np.median(x_errors) <= median and max(x_errors) <= largest

    @pytest.mark.parametrize("k", [-250, -40, 40, 100, 260])
    def test_powers_of_four(self, k):
        """At rates times 4**k, residual_x scales by 16**k bit for bit and residual_theta
        is the same; a residual_x past the float range is refused."""
        unit = ep_residual(SystemParams(1.7, 0.45, 1.0))
        params = SystemParams(*(math.ldexp(r, 2 * k) for r in (1.7, 0.45, 1.0)))
        if k == 260:
            with pytest.raises(NonFiniteError, match="residual_x"):
                ep_residual(params)
            return
        assert ep_residual(params) == (unit[0], math.ldexp(unit[1], 4 * k))
        unbroken = SystemParams(*(math.ldexp(r, 2 * k) for r in (2.0, 0.4, 1.0)))
        assert ep_residual(unbroken) == (ep_residual(SystemParams(2.0, 0.4, 1.0))[0], 0.0)

    def test_located_points_are_certified(self):
        """400 seeded omega in [1.05, 3]: both residuals of every located point are within
        1e-6 of 0."""
        rng = np.random.default_rng(20261022)
        for omega in rng.uniform(1.05, 3.0, 400).tolist():
            point = locate_ep("omega", omega, (1e-9, 2.5))
            assert max(abs(point.residual_theta), abs(point.residual_x)) <= 1e-6, omega


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
        """The located point is the zero of the radical discriminant, bisected on the
        exact z."""
        point = locate_ep("omega", 2.000, (0.3, 0.9))
        lo, hi = 0.3, 0.9
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if exact_z(2.0, mid, 1.0) < 0:
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
        ("omega", 1.05, 3.0, (1e-9, 2.5)),
    ])
    def test_seeded_roots_match_both_oracles(self, fix, low, high, bracket):
        """The label bisection's float, at the flip of z in exact rationals with no ulp of
        slack: z <= 0 there and z > 0 at the next float toward the broken end (the
        max|Im E| label's walk missed that float by 1-3 ulp at 171 of 300 omega in
        [1.05, 3])."""
        rng = np.random.default_rng(20261018)
        for value in np.concatenate([[low, high], rng.uniform(low, high, 300)]).tolist():
            point = locate_ep(fix, value, bracket)
            if fix == "omega":
                x, broken_end, z = point.j_c, math.inf, lambda s: exact_z(value, s, 1.0)
            else:
                x, broken_end, z = point.omega_c, -math.inf, lambda s: exact_z(s, value, 1.0)
            assert x == bisect_phase_label(fix, value, bracket), value
            assert z(x) <= 0 < z(math.nextafter(x, broken_end)), value

    def test_no_refusal_next_to_the_ep3(self):
        """1 500 seeded draws with omega/gamma - 1 log-uniform in [1e-6, 10]: each answers
        at the flip.  The absolute certificate refused 86 of them, all with omega/gamma - 1
        near 1e-6 to 1e-5, where residual_theta reaches ~2e-6."""
        rng = np.random.default_rng(20261020)
        gammas = rng.uniform(0.5, 2.0, 1500).tolist()
        ratios = (1 + 10.0 ** rng.uniform(-6, 1, 1500)).tolist()
        for gamma, ratio in zip(gammas, ratios):
            omega = gamma * ratio
            j_c = locate_ep("omega", omega, (1e-12 * gamma, 40.0 * gamma), gamma=gamma).j_c
            assert exact_z(omega, j_c, gamma) <= 0 < exact_z(
                omega, math.nextafter(j_c, math.inf), gamma), (omega, gamma)

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
        # lo lies just above j_c = 6.086059771519353e-06, so both ends are broken by the
        # exact sign of z (a max|Im E| > 1e-8 label called lo unbroken: 7.1e-9 there)
        with pytest.raises(NoSignChangeError, match="same phase"):
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

    def test_unallocatable_n_names_n(self):
        """10**15 omegas (7 PiB) are past the address space, so nothing is allocated."""
        with pytest.raises(ValueError, match="n_points = 1000000000000000 .*memory"):
            ep_curve((1.0, 2.0), 10**15)

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

    @pytest.mark.parametrize("k", [-300, 200])
    def test_any_scale(self, point, k):
        """The located point at rates times 4**k has the same coalesced vector, bit for bit."""
        scaled = locate_ep("omega", math.ldexp(2.0, 2 * k), (math.ldexp(0.3, 2 * k),
                                                            math.ldexp(0.9, 2 * k)),
                           gamma=math.ldexp(1.0, 2 * k))
        assert scaled.j_c == math.ldexp(point.j_c, 2 * k)
        assert coalesced_eigenvector(scaled).tobytes() == coalesced_eigenvector(point).tobytes()

    def test_not_at_ep(self):
        fake = EpPoint(
            j_c=0.4, omega_c=2.0, gamma=1.0, residual_theta=0.2,
            residual_x=-3.0, gap=0.5, e_degenerate=1.0 + 0j,
        )
        with pytest.raises(NotAtEpError):
            coalesced_eigenvector(fake)

    def test_certificate_is_the_exact_flip(self, point):
        """The located point passes; one float past it, in the broken phase, and 1e-12
        short of it, where z stays negative at every float neighbour, fail."""
        coalesced_eigenvector(point)
        for j in (math.nextafter(point.j_c, math.inf), point.j_c - 1e-12):
            with pytest.raises(NotAtEpError):
                coalesced_eigenvector(dataclasses.replace(point, j_c=j))
