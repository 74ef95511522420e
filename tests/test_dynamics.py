import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptqsim import (
    SystemParams,
    concurrence_pure,
    detect_revivals,
    detect_steady_state,
    dominant_eigenvector,
    exact_state,
    initial_state,
    passive_pt_map,
    propagate,
)
from ptqsim.dynamics import (
    envelope_of_series,
    revival_times_of_series,
    steady_state_of_series,
)
from ptqsim.errors import NotNormalizedError, StepTooLargeError

KET_00 = initial_state(np.pi / 2)


class TestInitialState:
    def test_theta_half_pi(self):
        assert np.allclose(initial_state(np.pi / 2), [1, 0, 0, 0], atol=1e-15)

    def test_theta_zero(self):
        assert np.allclose(initial_state(0.0), [0, 0, 1, 0])

    def test_theta_quarter_pi(self):
        s = 1 / np.sqrt(2)
        assert np.allclose(initial_state(np.pi / 4), [s, 0, s, 0])

    @given(st.floats(-np.pi, np.pi))
    def test_unit_norm(self, theta):
        assert np.linalg.norm(initial_state(theta)) == pytest.approx(1.0)

    @pytest.mark.parametrize("theta", [np.inf, -np.inf, np.nan])
    def test_non_finite_theta_rejected_without_warning(self, theta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                initial_state(theta)


class TestPropagate:
    def test_hermitian_norm_conserved(self):
        traj = propagate(SystemParams(2.0, 0.4, 0.0), KET_00, 50.0, 1e-3, record_every=100)
        assert np.max(np.abs(traj.norm_log)) / 50.0 < 1e-8

    def test_states_stay_normalized(self):
        traj = propagate(SystemParams(2.0, 0.7, 1.0), KET_00, 10.0, 1e-3, record_every=50)
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.max(np.abs(norms - 1)) < 1e-10
        assert np.all(np.diff(traj.times) > 0)
        assert len(traj.times) == len(traj.concurrence) == len(traj.coherence_x)

    def test_matches_eigendecomposition_propagator(self):
        params = SystemParams(2.0, 0.7, 1.0)
        traj = propagate(params, KET_00, 20.0, 1e-3, record_every=10**9)
        exact = exact_state(params, KET_00, 20.0)
        assert abs(np.vdot(traj.states[-1], exact)) >= 1 - 1e-8

    def test_fourth_order_convergence(self):
        params = SystemParams(2.0, 0.7, 1.0)
        exact = exact_state(params, KET_00, 5.0)
        errors = []
        dts = (0.02, 0.01, 0.005, 0.002)
        for dt in dts:
            fin = propagate(params, KET_00, 5.0, dt, record_every=10**9).states[-1]
            fin = fin * np.exp(-1j * np.angle(np.vdot(exact, fin)))
            errors.append(np.linalg.norm(fin - exact))
        rate = np.log(errors[0] / errors[-1]) / np.log(dts[0] / dts[-1])
        assert rate > 3.7

    def test_step_too_large(self):
        with pytest.raises(StepTooLargeError):
            propagate(SystemParams(2.0, 0.7, 1.0), KET_00, 10.0, 0.1)

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalizedError):
            propagate(SystemParams(2.0, 0.7, 1.0), np.array([1, 1, 0, 0.0]), 1.0, 1e-3)

    def test_subnormal_step_runs(self):
        """5/dt overflows to inf below dt ~ 3e-308; the chunk length must not."""
        traj = propagate(SystemParams(2.0, 0.4, 1.0), KET_00, 1e-310, 1e-311)
        assert len(traj) == 11

    def test_record_every_includes_final_step(self):
        traj = propagate(SystemParams(2.0, 0.4, 1.0), KET_00, 1.0, 1e-3, record_every=7)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0)

    def test_broken_phase_locks_to_dominant_eigenvector(self):
        params = SystemParams(2.0, 0.7, 1.0)
        traj = propagate(params, KET_00, 30.0, 1e-3, record_every=10)
        overlap = np.abs(traj.states @ dominant_eigenvector(params).conj())
        start = int(np.argmax(overlap > 0.9))
        assert np.all(np.diff(overlap[start:]) > -1e-9)
        assert overlap[-1] > 1 - 1e-6


class TestSteadyState:
    def test_constant_series(self):
        times = np.linspace(0, 10, 101)
        result = steady_state_of_series(times, np.full(101, 0.42), 2.0, 0.01)
        assert result == (0.0, pytest.approx(0.42))

    def test_broken_phase_value_and_dominant_match(self):
        params = SystemParams(2.0, 0.7, 1.0)
        traj = propagate(params, KET_00, 40.0, 1e-3, record_every=10)
        result = detect_steady_state(traj, window=5.0, tol=0.01)
        assert result is not None
        t_ss, c_ss = result
        assert 0.45 <= c_ss <= 0.55
        assert c_ss == pytest.approx(concurrence_pure(dominant_eigenvector(params)), abs=0.01)
        assert t_ss < 20.0

    def test_symmetric_phase_never_settles(self):
        traj = propagate(SystemParams(2.0, 0.4, 1.0), KET_00, 40.0, 1e-3, record_every=10)
        assert detect_steady_state(traj, window=5.0, tol=0.01) is None

    def test_window_validation(self):
        traj = propagate(SystemParams(2.0, 0.4, 1.0), KET_00, 1.0, 1e-3, record_every=10)
        with pytest.raises(ValueError):
            detect_steady_state(traj, window=5.0, tol=0.01)


class TestRevivals:
    def test_window_past_the_end_gives_suffix_maxima(self):
        times = np.linspace(0.0, 10.0, 101)
        values = np.abs(np.sin(times))
        suffix_max = np.maximum.accumulate(values[::-1])[::-1]
        for window in (1e3, 1e300):
            assert np.array_equal(envelope_of_series(times, values, window), suffix_max)

    @pytest.mark.parametrize("window", [np.inf, np.nan])
    def test_non_finite_window_rejected(self, window):
        times = np.linspace(0.0, 10.0, 101)
        with pytest.raises(ValueError, match="finite"):
            envelope_of_series(times, np.abs(np.sin(times)), window)

    def test_plain_sinusoid_has_no_revivals(self):
        times = np.arange(0, 200, 0.01)
        assert len(revival_times_of_series(times, np.abs(np.sin(times)))) == 0

    def test_revival_detected_near_critical_coupling(self):
        traj = propagate(SystemParams(1.7, 0.337, 1.0), KET_00, 300.0, 0.02)
        revivals = detect_revivals(traj, collapse_fraction=0.45)
        assert len(revivals) >= 1
        assert revivals[0] == pytest.approx(128.0, abs=10.0)

    def test_default_fraction_sees_deeper_collapse_only(self):
        traj = propagate(SystemParams(1.7, 0.337, 1.0), KET_00, 300.0, 0.02)
        shallow = detect_revivals(traj, collapse_fraction=0.05)
        assert len(shallow) == 0  # envelope floor never dips that far


class TestHermitianPeriodicity:
    def test_commensurate_point_is_periodic(self):
        """gamma=0 spectrum {-j, j, +-sqrt(j^2+omega^2)}: a 3-4-5 point is periodic."""
        traj = propagate(SystemParams(0.8, 0.6, 0.0), KET_00, 50.0, 1e-3)
        c = traj.concurrence
        period = _autocorrelation_period(traj.times, c, min_lag=1.0)
        assert period == pytest.approx(5 * np.pi, rel=0.01)
        k = int(round(period / 1e-3))
        assert np.max(np.abs(c[k:] - c[: len(c) - k])) < 1e-3


def _autocorrelation_period(times, values, min_lag):
    """Dominant period: autocorrelation peak refined by mismatch minimization.

    The refinement removes the partial-period edge bias of the correlation
    peak (the record rarely spans an integer number of periods).
    """
    x = values - values.mean()
    n = len(x)
    raw = np.correlate(x, x, "full")[n - 1 :]
    unbiased = raw / np.arange(n, 0, -1)
    lags = times - times[0]
    interior = (
        (unbiased[1:-1] > unbiased[:-2]) & (unbiased[1:-1] >= unbiased[2:])
    ).nonzero()[0] + 1
    interior = interior[(lags[interior] > min_lag) & (interior < n // 2)]
    k0 = interior[np.argmax(unbiased[interior])]
    window = max(2, int(0.03 * k0))
    candidates = np.arange(max(1, k0 - window), min(n - 1, k0 + window + 1))
    mismatch = [np.max(np.abs(values[k:] - values[: n - k])) for k in candidates]
    return lags[candidates[int(np.argmin(mismatch))]]


class TestPassiveMap:
    def test_zero_time_is_identity(self):
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        assert np.allclose(passive_pt_map(rho, 1.0, 0.0), rho)

    def test_zero_gamma_is_identity(self):
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        assert np.allclose(passive_pt_map(rho, 0.0, 3.7), rho)

    def test_trace_scaling(self):
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        mapped = passive_pt_map(rho, 1.0, 0.5)
        assert np.trace(mapped).real == pytest.approx(np.e)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            passive_pt_map(np.eye(4) / 4, 1.0, -1.0)
