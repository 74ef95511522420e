import numpy as np
import pytest

from ptqsim import (
    Phase,
    SystemParams,
    classify_phase,
    coherence_expectation,
    eigenvalues_closed_form,
    eigenvectors_closed_form,
    locate_ep,
    qfi,
    qfi_from_states,
    sensing_sweep,
    sensitivity_variance,
)
import mp_reference
from conftest import FIG_SWEEPS, fig_sweep_points, min_gap, sector_gap
from ptqsim.errors import (
    EpTooCloseError,
    NearDefectiveError,
    NonFiniteError,
    NotNormalizedError,
    ZeroSlopeError,
)
from ptqsim import locate_ep, model, sensing, spectrum
from ptqsim.sensing import _sense_point, _sense_rows
from ptqsim.spectrum import _rates, _sector_gap

SEED = 20260809

SINGLET = np.array([0, -1, 1, 0], dtype=complex) / np.sqrt(2)


class TestCoherenceExpectation:
    def test_singlet(self):
        assert coherence_expectation(SINGLET) == pytest.approx(0.0, abs=1e-14)

    def test_plus_state(self):
        psi = np.array([1, 0, 1, 0], dtype=complex) / np.sqrt(2)
        assert coherence_expectation(psi) == pytest.approx(1.0)

    def test_ket_00(self):
        assert coherence_expectation(np.array([1, 0, 0, 0.0])) == 0.0

    def test_not_normalized(self):
        with pytest.raises(NotNormalizedError):
            coherence_expectation(np.array([1, 0, 1, 0.0]))


def _psi3_at(j, omega=2.0):
    return eigenvectors_closed_form(SystemParams(omega, j, 1.0))[2]


class TestQfi:
    def test_gauge_invariance(self):
        """A kappa-dependent global phase must not change the information."""
        j0, h = 0.45, 1e-5
        states = {d: _psi3_at(j0 + d) for d in (-h, 0.0, h)}
        plain = qfi_from_states(states[-h], states[0.0], states[h], h)
        dressed = qfi_from_states(
            states[-h] * np.exp(5j * (j0 - h)),
            states[0.0] * np.exp(5j * j0),
            states[h] * np.exp(5j * (j0 + h)),
            h,
        )
        assert abs(plain - dressed) / plain < 1e-6

    def test_phase_convention_invariance(self):
        j0, h = 0.45, 1e-5
        states = {d: _psi3_at(j0 + d) for d in (-h, 0.0, h)}
        plain = qfi_from_states(states[-h], states[0.0], states[h], h)

        def first_nonzero_fix(v):
            k = int(np.argmax(np.abs(v) > 1e-8))
            return v * (abs(v[k]) / v[k])

        alt = qfi_from_states(
            *(first_nonzero_fix(states[d]) for d in (-h, 0.0, h)), h
        )
        assert abs(plain - alt) / plain < 1e-6

    def test_matches_finite_difference_oracle(self):
        """QFI and coherence slope against central differences on seeded points."""
        rng = np.random.default_rng(SEED)
        h, checked = 1e-5, 0
        while checked < 60:
            params = SystemParams(
                rng.uniform(0.3, 3.0), rng.uniform(0.05, 1.2), rng.uniform(0.0, 1.5)
            )
            if min_gap(eigenvalues_closed_form(params)) <= 1e-2:
                continue
            for kappa in ("j", "omega"):
                x0 = getattr(params, kappa)
                states = [
                    eigenvectors_closed_form(params.replace(**{kappa: x0 + s * h}))[2]
                    for s in (-1, 0, 1)
                ]
                expected_qfi = qfi_from_states(*states, h)
                assert qfi(params, kappa) == pytest.approx(expected_qfi, rel=1e-5)
                m = [coherence_expectation(v) for v in states]
                expected_slope = (m[2] - m[0]) / (2 * h)
                # the variance (1 - m^2) / slope^2 fixes the slope's magnitude
                slope = np.sqrt((1 - m[1] ** 2) / sensitivity_variance(params, kappa))
                assert slope == pytest.approx(abs(expected_slope), rel=1e-5)
            checked += 1

    def test_ep_too_close(self):
        jc = locate_ep("omega", 2.000, (0.3, 0.9)).j_c
        with pytest.raises(EpTooCloseError):
            qfi(SystemParams(2.0, jc + 1e-9, 1.0), "j")

    def test_near_ep_matches_fine_difference(self):
        """Where step halving broke down, the exact derivative still holds."""
        jc = locate_ep("omega", 2.000, (0.3, 0.9)).j_c
        params, h = SystemParams(2.0, jc + 1e-6, 1.0), 1e-9
        states = [_psi3_at(params.j + s * h) for s in (-1, 0, 1)]
        value = qfi(params, "j")
        assert np.isfinite(value)
        assert value == pytest.approx(qfi_from_states(*states, h), rel=1e-5)

    @pytest.mark.parametrize("kappa", ["j", "omega"])
    def test_hermitian_limit_is_exactly_zero(self, kappa):
        """At gamma = 0 Psi3 = (|11> - |00>)/sqrt(2) for every j and omega."""
        assert abs(qfi(SystemParams(2.0, 0.4, 0.0), kappa)) <= 1e-20

    @pytest.mark.parametrize("omega", [1e-13, 1e-5, 0.0])
    @pytest.mark.parametrize("kappa", ["j", "omega"])
    def test_omega_near_zero_answers(self, omega, kappa):
        """At omega ~ 0 the singlet meets the symmetric sector, which is no EP: the point
        answers within the bounds TestBatchedSensing holds (sector gap ~ 2)."""
        params = SystemParams(omega, 0.3, 1.0)
        f, m0, slope = _reference(params, kappa)
        if abs(slope) < 1e-12:  # omega = 0: Psi3 = |00> whatever j is
            with pytest.raises(ZeroSlopeError):
                _sense_point(params, kappa)
            assert abs(qfi(params, kappa) - f) <= 1e-14
            return
        got = _sense_point(params, kappa)
        assert got[0] == pytest.approx(f, rel=1e-13, abs=1e-14)
        assert got[1] == pytest.approx(m0, abs=1e-14)
        assert got[2] == pytest.approx((1 - m0 * m0) / slope**2, rel=1e-11)

    @pytest.mark.parametrize("kappa", ["j", "omega"])
    @pytest.mark.parametrize("omega, gamma", [(1.0, 0.0), (2.0, 0.0), (2.0, 1.0)])
    def test_singlet_crossing_answers(self, kappa, omega, gamma):
        """On the line j = 0 the singlet E1 = 0 meets a sector root, which is no EP."""
        params = SystemParams(omega, 0.0, gamma)
        f = qfi(params, kappa)
        assert f == pytest.approx(_reference(params, kappa)[0], rel=1e-13, abs=1e-14)

    def test_third_order_point_refused(self):
        for kappa in ("j", "omega"):
            with pytest.raises(EpTooCloseError):
                qfi(SystemParams(1.0, 0.0, 1.0), kappa)

    def test_kappa_validation(self):
        with pytest.raises(ValueError):
            qfi(SystemParams(2.0, 0.4, 1.0), "gamma")


class TestSensitivityVariance:
    def test_positive_and_bounded_by_qfi(self):
        params = SystemParams(2.0, 0.45, 1.0)
        var = sensitivity_variance(params, "j")
        assert var > 0
        assert 1.0 / var <= qfi(params, "j") * (1 + 1e-6)

    def test_hermitian_limit_has_zero_slope(self):
        with pytest.raises(ZeroSlopeError):
            sensitivity_variance(SystemParams(2.0, 0.4, 0.0), "j")

    def test_cramer_rao_on_grid(self):
        for j in np.linspace(0.35, 0.55, 9):
            params = SystemParams(2.0, float(j), 1.0)
            assert 1.0 / sensitivity_variance(params, "j") <= qfi(params, "j") * (1 + 1e-6)


class TestSensingSweep:
    def test_two_points_one_phase_no_flags(self):
        points = sensing_sweep("j", 2.0, (0.30, 0.35), 2)
        assert len(points) == 2
        assert all(p.flag is None for p in points)
        assert all(p.cr_bound == pytest.approx(1 / np.sqrt(p.qfi)) for p in points)

    def test_transition_is_bracketed_once(self):
        points = sensing_sweep("j", 2.0, (0.55, 0.63), 17)
        flagged = [p for p in points if p.flag == "ep_bracket"]
        assert len(flagged) == 2
        values = sorted(p.value for p in flagged)
        assert values[0] < 0.58998 < values[1]
        # flagged-by-bracket points still carry data
        assert all(np.isfinite(p.qfi) for p in flagged)

    def test_qfi_peaks_at_bracket(self):
        points = sensing_sweep("j", 2.0, (0.55, 0.63), 17)
        best = max(points, key=lambda p: p.qfi if np.isfinite(p.qfi) else -1)
        assert best.flag == "ep_bracket"

    def test_grid_order_and_length(self):
        points = sensing_sweep("omega", 0.3, (1.60, 1.70), 11)
        assert [p.value for p in points] == sorted(p.value for p in points)
        assert len(points) == 11

    def test_n_validation(self):
        with pytest.raises(ValueError):
            sensing_sweep("j", 2.0, (0.3, 0.4), 1)

    def test_unallocatable_n_names_n(self):
        """10**15 points (7 PiB) are past the address space, so nothing is allocated."""
        with pytest.raises(ValueError, match="n = 1000000000000000 .*memory"):
            sensing_sweep("j", 2.0, (0.3, 0.9), 10**15)

    def test_point_at_ep_flagged_with_empty_payload(self):
        jc = locate_ep("omega", 2.000, (0.3, 0.9)).j_c
        points = sensing_sweep("j", 2.0, (jc - 1e-7, jc + 1e-7), 3)
        middle = points[1]  # lands within the guarded distance of the EP
        assert middle.flag == "EpTooClose"
        assert np.isnan(middle.qfi) and np.isnan(middle.variance_sq)


def _per_point_sweep(kappa, fixed_value, value_range, n, gamma):
    """(qfi, variance, coherence, flag) per grid point from the public per-point calls."""
    if kappa == "j":
        base = SystemParams(omega=fixed_value, j=0.0, gamma=gamma)
    else:
        base = SystemParams(omega=1.0, j=fixed_value, gamma=gamma)
    rows, broken = [], []
    for x in np.linspace(value_range[0], value_range[1], n):
        p = base.replace(**{kappa: float(x)})
        broken.append(classify_phase(p).phase is Phase.PT_BROKEN)
        try:
            rows.append([qfi(p, kappa), sensitivity_variance(p, kappa),
                         coherence_expectation(eigenvectors_closed_form(p)[2]), None])
        except (EpTooCloseError, ZeroSlopeError) as exc:
            rows.append([None, None, None, type(exc).__name__.removesuffix("Error")])
    for i in range(n - 1):
        if broken[i] != broken[i + 1]:
            for k in (i, i + 1):
                if rows[k][3] is None:
                    rows[k][3] = "ep_bracket"
    return rows


_JC_OMEGA2 = 0.5899798397854931  # locate_ep("omega", 2.0, (0.3, 0.9)).j_c


@pytest.mark.parametrize(
    "kappa, fixed_value, value_range, n, gamma, flags",
    [
        # through the EP, with the middle point on it
        ("j", 2.0, (_JC_OMEGA2 - 0.2, _JC_OMEGA2 + 0.2), 41, 1.0, {"EpTooClose"}),
        ("omega", 0.3, (1.4, 2.0), 37, 1.0, {"ep_bracket"}),
        # Hermitian limit: the coherence does not move
        ("j", 2.0, (0.3, 0.9), 13, 0.0, {"ZeroSlope"}),
        # omega = 0 answers (the singlet meets T = (|01>+|10>)/sqrt2 there, which
        # is no EP); at j = 0 the singlet meets a sector root at every point, and
        # the gap guard refuses omega = gamma, the triple point, alone
        ("omega", 0.3, (0.0, 2.0), 21, 1.0, {None, "ep_bracket"}),
        ("omega", 0.0, (0.0, 2.0), 5, 1.0, {None, "EpTooClose"}),
    ],
)
def test_sweep_matches_per_point_calls_bitwise(kappa, fixed_value, value_range, n, gamma,
                                               flags):
    """The fused sweep gives exactly what qfi, sensitivity_variance and the coherence give."""
    points = sensing_sweep(kappa, fixed_value, value_range, n, gamma=gamma)
    expected = _per_point_sweep(kappa, fixed_value, value_range, n, gamma)
    assert [p.flag for p in points] == [row[3] for row in expected]
    assert flags <= {p.flag for p in points}
    for point, (f, var, coh, _) in zip(points, expected):
        if f is None:
            assert np.isnan([point.qfi, point.variance_sq, point.coherence,
                             point.cr_bound]).all()
        else:
            assert (point.qfi, point.variance_sq, point.coherence) == (f, var, coh)
            assert point.cr_bound == 1.0 / np.sqrt(f)


def test_monotone_approach_both_sides():
    point = locate_ep("j", 0.300, (1.2, 2.2))
    for sign in (+1, -1):
        values = [
            qfi(SystemParams(point.omega_c + sign * d, 0.300, 1.0), "omega")
            for d in (1e-1, 3e-2, 1e-2)
        ]
        assert values[0] < values[1] < values[2]


def _reference(params, kappa):
    """(QFI, <sigma_x^1>, slope) of Psi3 from the 40-digit central difference."""
    e3 = eigenvalues_closed_form(params)[2]
    return mp_reference.psi3_sensing(params.omega, params.j, params.gamma, kappa, e3)


def _assert_near_reference(got, want, gap, where):
    """got = (QFI, <sigma_x^1>, variance) within the bounds the derivative's conditioning
    sets: the QFI to 1e-13/gap relative, the slope to 1e-12 (1 + |slope|)/gap, the
    coherence to 1e-14 (gap in units of the largest rate above 1).  The largest
    errors read on the fig7a-fig8b sweeps and the seeded pool were 1.6e-14/gap, 7.9e-14
    (1 + |slope|)/gap and 2.0e-15."""
    f, m0, slope = want
    assert abs(got[0] - f) <= 1e-13 / gap * f, (where, got, want)
    assert abs(got[1] - m0) <= 1e-14, (where, got, want)
    slack = 1e-12 * (1 + abs(slope)) / gap / abs(slope)
    assert abs(got[2] / ((1 - m0 * m0) / slope**2) - 1) <= 3 * slack + 1e-13, (where, got, want)


class TestBatchedSensing:
    """The batched sensing rows against 40-digit central differences (tests/mp_reference.py)."""

    @pytest.mark.parametrize("sweep", FIG_SWEEPS)
    def test_fig_sweeps_match_40_digit_reference(self, sweep):
        kappa = sweep[0]
        points = fig_sweep_points(*sweep)
        values = [eigenvalues_closed_form(p) for p in points]
        broken = [classify_phase(p).phase is Phase.PT_BROKEN for p in points]
        expected = [None if sector_gap(v) >= 1e-4 else "EpTooClose" for v in values]
        for i in range(len(points) - 1):
            if broken[i] != broken[i + 1]:
                for k in (i, i + 1):
                    if expected[k] is None:
                        expected[k] = "ep_bracket"
        got = sensing_sweep(*sweep)
        assert [p.flag for p in got] == expected
        for p, point, v in zip(points, got, values):
            if point.flag in (None, "ep_bracket") and sector_gap(v) >= 1e-3:
                _assert_near_reference((point.qfi, point.coherence, point.variance_sq),
                                       _reference(p, kappa), sector_gap(v), p)

    def test_seeded_points_match_40_digit_reference(self):
        rng = np.random.default_rng(SEED)
        checked = 0
        while checked < 100:
            params = SystemParams(rng.uniform(0.3, 3.0) * rng.choice([-1, 1]),
                                  rng.uniform(0.05, 1.2), rng.uniform(0.05, 1.5))
            values = eigenvalues_closed_form(params)
            if min_gap(values) < 1e-3:
                continue
            unit = max(1.0, abs(params.omega), params.j, params.gamma)
            for kappa in ("j", "omega"):
                got = _sense_point(params, kappa)
                _assert_near_reference(got, _reference(params, kappa),
                                       sector_gap(values) / unit, params)
                assert qfi(params, kappa) == got[0]
            checked += 1

    @pytest.mark.parametrize("kappa", ["j", "omega"])
    def test_a_row_does_not_depend_on_its_batch(self, kappa):
        points = fig_sweep_points(*FIG_SWEEPS[0])  # at unit scale
        deltas = np.array([spectrum._eigenvalues(p)[1] for p in points], dtype=complex)
        keep = np.flatnonzero(_sector_gap(deltas) >= 1e-4)
        points, deltas = [points[k] for k in keep], deltas[keep]
        batch = _sense_rows(_rates(points), kappa, deltas)
        for i, p in enumerate(points):
            one = _sense_rows(_rates([p]), kappa, deltas[i:i + 1])
            assert all(a[i].tobytes() == b[0].tobytes() for a, b in zip(batch, one))


class TestSweepErrorOrder:
    """An error the sweep does not flag is the first one in grid order."""

    def test_non_finite_after_a_good_point(self):
        """The QFI grows as the rates' inverse square: at rates of 2**-510 it fits at
        j = 0.4 and 0.49 (in units of gamma) and leaves the float range at 0.58, where
        the sweep names the point as qfi does."""
        s = 2.0**-510
        with pytest.raises(NonFiniteError) as point:
            qfi(SystemParams(2 * s, 0.58 * s, s), "j")
        with pytest.raises(NonFiniteError) as sweep:
            sensing_sweep("j", 2 * s, (0.4 * s, 0.58 * s), 3, gamma=s)
        assert str(sweep.value) == str(point.value)
        good = qfi(SystemParams(2 * s, 0.49 * s, s), "j")
        assert good == np.ldexp(qfi(SystemParams(2.0, 0.49, 1.0), "j"), 1020)

    @staticmethod
    def _moved_root(monkeypatch, omega):
        """Move E3 of the sweep points at omega by 1e-6: their residual is then about that."""
        solve = spectrum._solve_eigenvalues

        def moved(point):
            (d2, d3, d4), z = solve(point)
            return (d2, d3 + 1e-6 if point.omega == omega else d3, d4), z

        monkeypatch.setattr(spectrum, "_solve_eigenvalues", moved)

    def test_near_defective_ahead_of_non_finite(self, monkeypatch):
        self._moved_root(monkeypatch, 2.0)
        with pytest.raises(NearDefectiveError, match="j=0.5,"):
            sensing_sweep("j", 2.0, (0.5, 1e200), 2)

    def test_non_finite_qfi_ahead_of_later_near_defective(self, monkeypatch):
        """Point 0's QFI overflows (rates of 1e-160: it grows as their inverse square)
        and point 1 is near-defective: the batch fails on point 1 first, and the
        points replayed one at a time name point 0's error."""
        self._moved_root(monkeypatch, 2.0)
        with pytest.raises(NonFiniteError, match="omega=1e-160,"):
            sensing_sweep("omega", 1e-160, (1e-160, 2.0), 2, gamma=1e-160)
        with pytest.raises(NearDefectiveError, match="omega=2.0,"):
            sensing_sweep("omega", 1e-160, (2.0, 1e-160), 2, gamma=1e-160)


class TestArraySweep:
    """A sweep's only per-point Python call is the scalar eigenvalue kernel."""

    def test_one_batch_and_no_per_point_objects(self, count_calls):
        builds = count_calls(model, "build_hamiltonian")
        replaces = count_calls(SystemParams, "replace")
        batches = count_calls(sensing, "_closed_form_eigenpairs")
        solves = count_calls(spectrum, "_solve_eigenvalues")
        points = sensing_sweep("j", 2.0, (0.3, 0.9), 24)
        assert [p.flag for p in points].count("ep_bracket") == 2
        assert (builds(), replaces(), batches(), solves()) == (0, 0, 1, 24)

    def test_rates_are_built_only_inside_the_sign_bound(self, count_calls):
        """fig7a's sweep builds a _Point per solve (spectrum._solve_grid's) and none for the
        phase (every float z lies outside _z_sign's bound); a grid point at the exact flip j_c
        gets one for its sign (the sweep's), which _exact_z_sign reads (one more)."""
        j_c = locate_ep("omega", 2.0, (0.3, 0.9)).j_c
        grid, phase = count_calls(spectrum, "_Point"), count_calls(sensing, "_Point")
        solves = count_calls(spectrum, "_solve_eigenvalues")
        sensing_sweep("omega", 0.3, (1.4, 2.0), 601)
        assert (grid(), phase(), solves()) == (601, 0, 601)
        sensing_sweep("j", 2.0, (j_c, 0.9), 5)
        assert (grid(), phase(), solves()) == (601 + 5 + 1, 1, 601 + 5)

    def test_range_leaving_the_float_range(self):
        """hi - lo overflows, but the grid does not: it is np.linspace's at a quarter of the
        ends, times 4, and every point answers (their slopes are zero at unit scale)."""
        points = sensing_sweep("omega", 0.3, (-1.7e308, 1.7e308), 5)
        values = [p.value for p in points]
        assert values == (4 * np.linspace(-1.7e308 / 4, 1.7e308 / 4, 5)).tolist()
        assert values[::2] == [-1.7e308, 0.0, 1.7e308]
        assert [p.flag for p in points] == ["ZeroSlope"] * 2 + ["ep_bracket"] + ["ZeroSlope"] * 2

    @pytest.mark.parametrize("end", [np.inf, -np.inf, np.nan])
    def test_non_finite_end_is_refused_before_any_solve(self, end, count_calls):
        solves = count_calls(spectrum, "_solve_eigenvalues")
        with pytest.raises(ValueError, match=f"^j must be finite, got {end!r}$"):
            sensing_sweep("j", 2.0, (0.3, end), 5)
        assert solves() == 0

    @pytest.mark.parametrize("kappa, fixed, fixed_name", [("j", np.inf, "omega"),
                                                          ("omega", np.nan, "j")])
    def test_non_finite_fixed_value(self, kappa, fixed, fixed_name):
        with pytest.raises(ValueError, match=f"^{fixed_name} must be finite"):
            sensing_sweep(kappa, fixed, (0.3, 0.9), 5)


def test_sweep_does_not_depend_on_units():
    """The gap guard and the phase threshold apply at unit scale, whatever the rates' units."""
    s = 2.0**-30
    unit = sensing_sweep("j", 2.0, (0.3, 0.9), 7)
    small = sensing_sweep("j", 2 * s, (0.3 * s, 0.9 * s), 7, gamma=s)
    assert [p.flag for p in unit] == [None, None, "ep_bracket", "ep_bracket", None, None, None]
    assert [p.flag for p in small] == [p.flag for p in unit]
    for a, b in zip(unit, small):
        assert b.qfi * s * s == pytest.approx(a.qfi, rel=1e-9)


@pytest.mark.parametrize("kappa", ["j", "omega"])
@pytest.mark.parametrize("omega, j", [(2.0, 0.4), (2.0, 0.7), (1.7, 0.3)])
def test_negative_omega_mirrors_positive(kappa, omega, j):
    """U = sz(x)sz maps H(omega) to H(-omega): the same QFI and variance, and the
    coherence changes sign."""
    f, m0, var, _ = _sense_point(SystemParams(omega, j, 1.0), kappa)
    f_neg, m0_neg, var_neg, _ = _sense_point(SystemParams(-omega, j, 1.0), kappa)
    assert f_neg == pytest.approx(f, rel=1e-12)
    assert var_neg == pytest.approx(var, rel=1e-12)
    assert m0_neg == pytest.approx(-m0, rel=1e-12)


def _log_slope(distances, values) -> float:
    """Least-squares slope of log(values) against log(distances)."""
    return float(np.polyfit(np.log(distances), np.log(values), 1)[0])


class TestDivergenceExponents:
    """The QFI diverges as |kappa - kappa_c|**(-2(1 - 1/N)) at an EP of order N: the
    N-th-root splitting of the coalescing eigenvalues (Wiersig, PRL 112, 203901 (2014)).
    Every sampled point lies outside the sense guard, which is unchanged, and the
    +-0.05 tolerances were fixed before the slopes were measured."""

    @pytest.mark.parametrize("side", [1, -1], ids=["above", "below"])
    def test_ep2_along_omega_is_minus_one(self, side):
        omega_c = locate_ep("j", 0.3, (1.0, 2.5)).omega_c
        deltas = np.logspace(-2, np.log10(3.2e-5), 9)
        values = [qfi(SystemParams(omega_c + side * d, 0.3, 1.0), "omega") for d in deltas]
        assert _log_slope(deltas, values) == pytest.approx(-1.0, abs=0.05)

    def test_ep3_along_j_is_minus_four_thirds(self):
        # the third-order point is omega = gamma, j = 0
        js = np.logspace(-3.5, -4, 6)
        values = [qfi(SystemParams(1.0, j, 1.0), "j") for j in js]
        assert _log_slope(js, values) == pytest.approx(-4 / 3, abs=0.05)
