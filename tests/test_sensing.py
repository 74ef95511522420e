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
from conftest import FIG_SWEEPS, eigenpairs_reference, fig_sweep_points
from ptqsim.errors import (
    EpTooCloseError,
    NearDefectiveError,
    NonFiniteError,
    NotNormalizedError,
    OmegaSingularError,
    ZeroSlopeError,
)
from ptqsim import model, sensing
from ptqsim.model import SIGMA_X1
from ptqsim.sensing import _sense_point, _sense_rows
from ptqsim.spectrum import _min_gap, _rates

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
            if _min_gap(eigenvalues_closed_form(params)) <= 1e-2:
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

    def test_omega_singular_named_ahead_of_gap_guard(self):
        """At omega ~ 0 the singlet meets the symmetric sector; no EP is there."""
        with pytest.raises(OmegaSingularError):
            _sense_point(SystemParams(1e-13, 0.3, 1.0), "j")

    def test_label_crossing_refused(self):
        """A crossing of non-coalescing labels is refused like an EP."""
        for kappa in ("j", "omega"):
            with pytest.raises(EpTooCloseError):
                qfi(SystemParams(1.0, 0.0, 0.0), kappa)

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
        except (EpTooCloseError, ZeroSlopeError, OmegaSingularError) as exc:
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
        # omega = 0 is OmegaSingular ahead of the gap guard (the singlet and
        # (|01>+|10>)/sqrt2 coincide there, which is no EP); at j = 0 every
        # other point has a zero gap, and the gap guard refuses omega = gamma,
        # the triple point
        ("omega", 0.3, (0.0, 2.0), 21, 1.0, {"OmegaSingular", "ep_bracket"}),
        ("omega", 0.0, (0.0, 2.0), 5, 1.0, {"OmegaSingular", "EpTooClose"}),
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


def _psi3_derivative_reference(params, kappa, values):
    """The per-point (psi, dpsi) the batched _psi3_derivative replaced; guards omitted."""
    psi = eigenpairs_reference(params, values)[0][2]
    om, j, e = params.omega, params.j, values[2]
    r2, r1 = psi[1] / psi[0], psi[3] / psi[0]
    d = j - e + 1j * params.gamma
    utu = 1 + 2 * r2 * r2 + r1 * r1
    if kappa == "j":
        de = (1 - 2 * r2 * r2 + r1 * r1) / utu
        dr2 = -(1 - de) / om
        dr1 = -2 * ((1 + de) * d + (j + e) * (1 - de)) / om**2
    else:
        de = 2 * r2 * (1 + r1) / utu
        dr2 = (de + d / om) / om
        dr1 = -2 * (de * d - (j + e) * de) / om**2 + 4 * (j + e) * d / om**3
    return psi, psi[0] * np.array([0, dr2, dr2, dr1])


def _sense_reference(params, kappa, values):
    """(qfi, coherence, variance, flag) of one point by the per-point sense path."""
    if params.omega <= 1e-12:
        return None, None, None, "OmegaSingular"
    if _min_gap(values) < 1e-4:
        return None, None, None, "EpTooClose"
    psi, dpsi = _psi3_derivative_reference(params, kappa, values)
    m0 = np.vdot(psi, SIGMA_X1 @ psi).real
    slope = 2.0 * np.vdot(dpsi, SIGMA_X1 @ psi - m0 * psi).real
    if abs(slope) < 1e-12:
        return None, None, None, "ZeroSlope"
    f = 4.0 * (np.vdot(dpsi, dpsi).real - abs(np.vdot(psi, dpsi)) ** 2)
    return f, m0, (1.0 - m0 * m0) / (slope * slope), None


class TestBatchedSensing:
    """The batched derivative and sensing rows against the per-point path they replaced."""

    @pytest.mark.parametrize("sweep", FIG_SWEEPS)
    def test_fig_sweeps_match_per_point_reference(self, sweep):
        kappa = sweep[0]
        points = fig_sweep_points(*sweep)
        values = [eigenvalues_closed_form(p) for p in points]
        broken = [classify_phase(p).phase is Phase.PT_BROKEN for p in points]
        expected = [list(_sense_reference(p, kappa, v)) for p, v in zip(points, values)]
        for i in range(len(points) - 1):
            if broken[i] != broken[i + 1]:
                for k in (i, i + 1):
                    if expected[k][3] is None:
                        expected[k][3] = "ep_bracket"
        got = sensing_sweep(*sweep)
        assert [p.flag for p in got] == [row[3] for row in expected]
        for point, v, (f, m0, var, _) in zip(got, values, expected):
            if f is not None and _min_gap(v) >= 1e-3:
                assert point.qfi == pytest.approx(f, rel=1e-11)
                assert point.variance_sq == pytest.approx(var, rel=1e-11)
                assert point.coherence == pytest.approx(m0, rel=1e-11, abs=1e-14)

    def test_seeded_points_match_per_point_reference(self):
        rng = np.random.default_rng(SEED)
        checked = 0
        while checked < 100:
            params = SystemParams(rng.uniform(0.3, 3.0) * rng.choice([-1, 1]),
                                  rng.uniform(0.05, 1.2), rng.uniform(0.05, 1.5))
            values = eigenvalues_closed_form(params)
            if _min_gap(values) < 1e-3:
                continue
            for kappa in ("j", "omega"):
                f, m0, var, flag = _sense_reference(params.replace(omega=abs(params.omega)),
                                                    kappa, values)
                assert flag is None
                got = _sense_point(params, kappa)
                # U = sz(x)sz maps H(|omega|) to H(-|omega|) and flips <sigma_x^1>
                sign = np.sign(params.omega)
                assert got[0] == pytest.approx(f, rel=1e-11)
                assert got[1] == pytest.approx(sign * m0, rel=1e-11, abs=1e-14)
                assert got[2] == pytest.approx(var, rel=1e-11)
                assert qfi(params, kappa) == got[0]
            checked += 1

    @pytest.mark.parametrize("kappa", ["j", "omega"])
    def test_a_row_does_not_depend_on_its_batch(self, kappa):
        points = fig_sweep_points(*FIG_SWEEPS[0])
        values = np.array([eigenvalues_closed_form(p) for p in points])
        keep = np.flatnonzero(_min_gap(values) >= 1e-4)
        points, values = [points[k] for k in keep], values[keep]
        batch = _sense_rows(_rates(points), kappa, values)
        for i, p in enumerate(points):
            one = _sense_rows(_rates([p]), kappa, values[i:i + 1])
            assert all(a[i].tobytes() == b[0].tobytes() for a, b in zip(batch, one))


class TestSweepErrorOrder:
    """An error the sweep does not flag is the first one in grid order."""

    def test_non_finite_after_a_good_point(self):
        x = float(np.linspace(0.3, 1e200, 3)[1])
        with pytest.raises(NonFiniteError) as point:
            eigenvalues_closed_form(SystemParams(2.0, x, 1.0))
        with pytest.raises(NonFiniteError) as sweep:
            sensing_sweep("j", 2.0, (0.3, 1e200), 3)
        assert str(sweep.value) == str(point.value)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_near_defective_ahead_of_non_finite(self):
        with pytest.raises(NearDefectiveError, match="j=1e\\+20"):
            sensing_sweep("j", 1e-11, (1e20, 1e200), 2, gamma=0.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_coherence_error_ahead_of_later_near_defective(self):
        """Point 0's state overflows to NaN (its residual is NaN, so it passes the
        residual check) and point 1 is near-defective: point 0's error comes first."""
        with pytest.raises(NotNormalizedError):
            sensing_sweep("j", 1e-11, (1e75, 1e20), 2, gamma=0.0)
        with pytest.raises(NearDefectiveError, match="j=1e\\+20"):
            sensing_sweep("j", 1e-11, (1e20, 1e75), 2, gamma=0.0)


class TestArraySweep:
    """A sweep's only per-point Python call is the scalar eigenvalue kernel."""

    def test_one_batch_and_no_per_point_objects(self, count_calls):
        builds = count_calls(model, "build_hamiltonian")
        replaces = count_calls(SystemParams, "replace")
        batches = count_calls(sensing, "_closed_form_eigenpairs")
        solves = count_calls(sensing, "_solve_eigenvalues")
        points = sensing_sweep("j", 2.0, (0.3, 0.9), 24)
        assert [p.flag for p in points].count("ep_bracket") == 2
        assert (builds(), replaces(), batches(), solves()) == (0, 0, 1, 24)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_range_leaving_the_float_range(self):
        """linspace overflows to nan at the first point: SystemParams' own message names it."""
        with pytest.raises(ValueError) as err:
            sensing_sweep("omega", 0.3, (-1.7e308, 1.7e308), 5)
        assert str(err.value) == "omega must be finite, got nan"

    @pytest.mark.parametrize("kappa, fixed, fixed_name", [("j", np.inf, "omega"),
                                                          ("omega", np.nan, "j")])
    def test_non_finite_fixed_value(self, kappa, fixed, fixed_name):
        with pytest.raises(ValueError, match=f"^{fixed_name} must be finite"):
            sensing_sweep(kappa, fixed, (0.3, 0.9), 5)


def test_sweep_does_not_depend_on_units():
    """Below unit rate scale the gap guard and the phase threshold shrink with the rates."""
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
    f, m0, var = _sense_point(SystemParams(omega, j, 1.0), kappa)
    f_neg, m0_neg, var_neg = _sense_point(SystemParams(-omega, j, 1.0), kappa)
    assert f_neg == pytest.approx(f, rel=1e-12)
    assert var_neg == pytest.approx(var, rel=1e-12)
    assert m0_neg == pytest.approx(-m0, rel=1e-12)
