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
from ptqsim.errors import (
    EpTooCloseError,
    NotNormalizedError,
    OmegaSingularError,
    ZeroSlopeError,
)
from ptqsim.sensing import _sense_point
from ptqsim.spectrum import _min_gap

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
