import math
import warnings

import mp_reference
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from ptqsim import (
    SystemParams,
    concurrence_pure,
    detect_revivals,
    dominant_eigenvector,
    exact_state,
    initial_state,
    propagate,
)
from ptqsim.dynamics import (
    STABILITY_LIMIT,
    _integrate,
    _observe,
    _rk4_step_matrix,
    _span,
    _step_factors,
    _window_len,
    envelope_of_series,
    revival_times_of_series,
    steady_state_of_series,
)
from ptqsim.errors import NotNormalizedError, StepTooLargeError
from ptqsim.model import build_hamiltonian

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

    def test_record_beyond_memory_rejected(self):
        """1e16 recorded states need 6e17 bytes, more than any address space."""
        with pytest.raises(ValueError, match="memory"):
            propagate(SystemParams(2.0, 0.4, 1.0), KET_00, 1e13, 1e-3)

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

    @pytest.mark.parametrize("params, t_max, dt, record_every", [
        (SystemParams(2.0, 0.4, 1.0), 1.0, 1e-3, 7),  # 1000 steps, off-grid final step
        (SystemParams(2.0, 0.4, 1.0), 0.01, 1e-3, 50),  # fewer steps than record_every
        (SystemParams(2.0, 0.7, 1.0), 4.095, 1e-3, 3),  # one chunk (4096 steps) minus 1
        (SystemParams(2.0, 0.7, 1.0), 4.096, 1e-3, 3),  # exactly one chunk
        (SystemParams(2.0, 0.7, 1.0), 4.097, 1e-3, 1),  # one chunk plus 1
        (SystemParams(2.0, 0.7, 1.0), 4.097, 1e-3, 4097),  # only t=0 and the final step
        (SystemParams(1.5, 0.01, 0.0), 20.0, 1e-3, 10),  # 5 chunks, Hermitian limit
        (SystemParams(1.5, 0.01, 1.1), 30.0, 5e-3, 4),  # 7 chunks of 909 steps
        (SystemParams(1.5, 0.01, 1.1), 30.0, 5e-3, 909),  # one record per chunk
        (SystemParams(1.5, 0.01, 1.1), 30.0, 5e-3, 2000),  # 4 of 7 chunks record nothing
        (SystemParams(2.0, 0.7, 1.0), 10.0, 1e-3, 7),  # 3 chunks, off-grid final step
        (SystemParams(2.0, 0.4, 1.0), 0.5, 1e-3, 1),  # fewer steps than the cap: one chunk
        (SystemParams(2.0, 0.4, 0.0), 8.193, 1e-3, 1),  # gamma = 0: 4096-step chunks, every row
        (SystemParams(2.0, 0.4, 0.0), 8.193, 1e-3, 5),  # gamma = 0: 4096-step chunks, off grid
        # omega = 0: H is diagonal and |01>, |11> stay exactly zero (signed zeros)
        (SystemParams(0.0, 0.3, 1.0), 6.0, 1e-3, 1),
        (SystemParams(0.0, 0.3, 0.0), 6.0, 1e-3, 7),
        (SystemParams(0.0, 0.0, 0.0), 6.0, 1e-3, 1),  # H = 0
        (SystemParams(-0.0, -0.2, 1.0), 6.0, 1e-3, 3),
        (SystemParams(1.0, 0.0, 0.0), 6.0, 1e-3, 1),  # gamma = 0 and j = 0
    ])
    def test_recording_grid_matches_list_recorder_bitwise(self, params, t_max, dt, record_every):
        psi0 = initial_state(np.pi / 4)
        traj = propagate(params, psi0, t_max, dt, record_every=record_every)
        expected = _propagate_reference(params, psi0, t_max, dt, record_every)
        got = (traj.times, traj.states, traj.norm_log, traj.concurrence, traj.coherence_x)
        for name, a, b in zip(("times", "states", "norm_log", "concurrence", "coherence_x"),
                              got, expected):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("psi0", [
        initial_state(0.0),  # |10>
        initial_state(np.pi),  # -|10> with a 1.2e-16 |00> part
        np.array([complex(0.6, -0.0), complex(-0.0, 0.0), complex(-0.8, 0.0), -0j]),
    ], ids=["theta0", "thetapi", "signed-zeros"])
    @pytest.mark.parametrize("params", [
        SystemParams(0.0, 0.3, 1.0),
        SystemParams(0.0, 0.3, 0.0),
        SystemParams(0.0, 0.0, 0.0),
        SystemParams(-0.0, -0.2, 1.0),
        SystemParams(1.0, 0.0, 0.0),
        SystemParams(2.0, 0.7, 1.0),
    ], ids=repr)
    def test_zero_amplitudes_match_list_recorder_bitwise(self, params, psi0):
        """Initial states with exactly zero parts, which stay zero where H is diagonal."""
        traj = propagate(params, psi0, 6.0, 1e-3, record_every=3)
        expected = _propagate_reference(params, psi0, 6.0, 1e-3, 3)
        got = (traj.times, traj.states, traj.norm_log, traj.concurrence, traj.coherence_x)
        for name, a, b in zip(("times", "states", "norm_log", "concurrence", "coherence_x"),
                              got, expected):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    @seed(20261018)
    @settings(max_examples=200, deadline=None, database=None)
    @given(omega=st.floats(0.2, 2.5), j=st.floats(0.0, 1.2),
           gamma=st.sampled_from([0.0, 0.3, 1.0, 2.5]), margin=st.floats(0.02, 1.0),
           n_steps=st.integers(1, 9000), theta=st.floats(0.0, np.pi),
           record_every=st.one_of(st.integers(1, 8), st.integers(1, 3000)))
    def test_matches_list_recorder_bitwise(self, omega, j, gamma, margin, n_steps, theta,
                                           record_every):
        params = SystemParams(omega, j, gamma)
        # dt * ||H|| = margin * STABILITY_LIMIT: chunks from 4096 steps down to ~50
        dt = margin * STABILITY_LIMIT / np.abs(build_hamiltonian(params)).sum(axis=1).max()
        psi0 = initial_state(theta)
        traj = propagate(params, psi0, n_steps * dt, dt, record_every=record_every)
        expected = _propagate_reference(params, psi0, n_steps * dt, dt, record_every)
        got = (traj.times, traj.states, traj.norm_log, traj.concurrence, traj.coherence_x)
        for name, a, b in zip(("times", "states", "norm_log", "concurrence", "coherence_x"),
                              got, expected):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("params, dt, n", [
        (SystemParams(1.7, 0.337, 1.0), 2e-3, 2500),  # the benchmark's evolve chunk
        (SystemParams(1.7, 0.336, 1.0), 5e-3, 1000),  # a fig5a chunk
        (SystemParams(2.0, 0.4, 0.0), 1e-3, 4096),  # Hermitian limit at the cap
    ])
    def test_chunk_states_match_40_digits(self, params, dt, n):
        """Each sampled state of one chunk is within 1e-15 (relative, largest part) of the
        exact P**m psi, and P**n in extended precision within an ulp of the exact P**n.

        The premise: the factors are chained in an extended precision whose
        rounding sits far below a double's, so a state carries the roundings of
        two factors and two products.  The power table this replaced read at
        most 2.8e-16 on these samples, and these states 2.4e-16.
        """
        assert np.finfo(np.longdouble).eps < 2.0**-60
        step = _rk4_step_matrix(build_hamiltonian(params), dt)
        heads, first, whole = _step_factors(step, n)
        b = math.isqrt(n)
        assert first.shape == (4, 4 * b) and heads.shape == (4 * (-(-n // b) - 1), 4)
        psi = initial_state(np.pi / 4)
        states = _span(psi, heads, first, -(-n // b))
        sampled = [1, 2, b - 1, b, b + 1, 2 * b + 3, n // 2, n - 1, n]
        powers = mp_reference.matrix_powers(step, sampled)
        for m, power in powers.items():
            want = power @ psi
            err = np.abs(states[m - 1] - want).max() / np.abs(want).max()
            assert err <= 1e-15, (m, err)
        # the extended-precision P**n that starts each next chunk rounds to the exact one
        err = np.abs(whole.astype(complex) - powers[n]).max() / np.abs(powers[n]).max()
        assert err <= np.finfo(float).eps, err

    @pytest.mark.parametrize("record_every", [2.5, 4.0, "3", None, 0, -2])
    def test_record_every_must_be_a_positive_integer(self, record_every):
        with pytest.raises(ValueError, match="record_every"):
            propagate(SystemParams(2.0, 0.4, 1.0), KET_00, 0.1, 1e-3, record_every=record_every)

    def test_record_every_past_a_64_bit_integer(self):
        """A period longer than the run records t=0 and the final step, however long it is."""
        args = (SystemParams(2.0, 0.4, 1.0), KET_00, 1.0, 1e-3)
        want = propagate(*args, record_every=1001)
        for every in (10**9, 2**63, 10**30):
            got = propagate(*args, record_every=every)
            assert got.times.tobytes() == want.times.tobytes() == np.array([0.0, 1.0]).tobytes()
            assert got.states.tobytes() == want.states.tobytes()

    def test_numpy_integer_record_every(self):
        args = (SystemParams(2.0, 0.4, 1.0), KET_00, 0.1, 1e-3)
        got = propagate(*args, record_every=np.int64(7))
        assert got.states.tobytes() == propagate(*args, record_every=7).states.tobytes()


class TestStatelessRun:
    """The CLI's runs keep only the fields they print; those are propagate's, bit for bit."""

    @pytest.mark.parametrize("params, t_max, dt, record_every", [
        (SystemParams(2.0, 0.4, 1.0), 1.0, 1e-3, 7),  # off-grid final step
        (SystemParams(2.0, 0.7, 1.0), 10.0, 1e-3, 1),  # 3 chunks, every row
        (SystemParams(1.5, 0.01, 1.1), 30.0, 5e-3, 2000),  # chunks that record nothing
        (SystemParams(0.0, 0.3, 1.0), 6.0, 1e-3, 3),  # signed zeros stay
        (SystemParams(1.7, 0.337, 1.0), 50.0, 2e-3, 1),  # the benchmark's evolve grid
    ])
    def test_matches_propagate_bitwise(self, params, t_max, dt, record_every):
        psi0 = initial_state(np.pi / 4)
        want = propagate(params, psi0, t_max, dt, record_every=record_every)
        # evolve's fields, one field alone, and the fields of revivals and the presets
        for keep in [("norm_log", "coherence_x"), ("coherence_x",), ()]:
            got = _integrate(params, psi0, t_max, dt, record_every, keep)
            for name in ("times", "concurrence", "states", "norm_log", "coherence_x"):
                if name in ("times", "concurrence") or name in keep:
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
                else:
                    assert getattr(got, name) is None, name

    @pytest.mark.parametrize("length", [1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 64, 127, 1000,
                                        2500, 4095, 4096])
    def test_observables_per_chunk_keep_their_bits(self, length):
        """Each chunk's rows reduced alone give the bits of one pass over all rows."""
        rng = np.random.default_rng(20261019)
        n = 100_003 if length >= 16 else 5_003
        rows = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
        rows *= np.exp(rng.uniform(-5, 5, (n, 1)))  # a chunk's growth
        rows[::97, rng.integers(0, 4)] = 0.0  # exact zero amplitudes, as at omega = 0
        sq = np.einsum("ij,ij->i", rows.view(float), rows.view(float))
        whole = np.empty((2, n))
        _observe(rows, sq, *whole)
        chunked = np.empty((2, n))
        for lo in range(0, n, length):
            part = rows[lo:lo + length].view(float)
            assert np.einsum("ij,ij->i", part, part).tobytes() == sq[lo:lo + length].tobytes()
            _observe(rows[lo:lo + length], sq[lo:lo + length], *chunked[:, lo:lo + length])
        assert chunked.tobytes() == whole.tobytes()


class TestObservables:
    """A row's concurrence and coherence_x over its squared norm, against long double."""

    def test_error_bound(self):
        """Both are 2 x / s, s the sum of the eight squared parts (error <= 8u s), and
        |x| <= s / 2.  To first order in u = eps / 2:

        - coherence_x: x is four products and three sums, erring by <= 4u s / 2;
          with the quotient's u, the result errs by <= 4u + 9u = 13u;
        - concurrence: x = |psi1 psi2 - psi0 psi3|, each part two complex products
          and a difference, erring by <= 3u sqrt(2) s / 2; with |.|'s u and the
          quotient's u, the result errs by <= 3 sqrt(2) u + 10u < 15u.

        The renormalize-then-unit-row pipeline this replaced read 4.5u for the
        coherence and 5.3u for the concurrence on these rows; the quotients read
        3.2u and 4.3u.
        """
        rng = np.random.default_rng(20261019)
        rows = rng.normal(size=(200_000, 4)) + 1j * rng.normal(size=(200_000, 4))
        rows *= np.exp(rng.uniform(-5, 5, (200_000, 1)))  # a chunk's growth
        traj = propagate(SystemParams(1.7, 0.337, 1.0), initial_state(0.3), 40.0, 2e-3)
        rows = np.vstack((rows, traj.states))
        wide = rows.astype(np.clongdouble)
        sq_wide = (np.abs(wide) ** 2).sum(axis=1)
        coherence = 2 * (wide[:, 0].conj() * wide[:, 2] + wide[:, 1].conj() * wide[:, 3]).real
        concurrence = 2 * np.abs(wide[:, 1] * wide[:, 2] - wide[:, 0] * wide[:, 3])
        got = np.empty((2, len(rows)))
        _observe(rows, np.einsum("ij,ij->i", rows.view(float), rows.view(float)), *got)
        u = np.finfo(float).eps / 2
        assert np.abs(got[1] - coherence / sq_wide).astype(float).max() <= 13 * u
        assert np.abs(got[0] - concurrence / sq_wide).astype(float).max() <= 15 * u


def _propagate_reference(params, psi0, t_max, dt, record_every):
    """propagate's record grid as a list recorder: every step of each chunk formed and
    reduced, then a mask of the recorded ones, then np.asarray.

    Kept as the oracle of the recorder's rows, chunk ends and final step
    (validation omitted).  It shares propagate's step factors and chunk
    product, which test_chunk_states_match_40_digits checks on its own, and
    writes out the same formulas on the unnormalized rows and the same
    extended-precision start of each next chunk.
    """
    n_steps = int(round(t_max / dt))
    step = _rk4_step_matrix(build_hamiltonian(params), dt)
    chunk = min(n_steps, max(1, round(min(5.0 / (dt * max(params.gamma, 1.0)), 4096))))
    heads, first, whole = _step_factors(step, chunk)
    b = first.shape[1] // 4
    rec_idx, rec_states, rec_norm = [0], [psi0.copy()], [0.0]
    f0 = psi0.view(float)
    rec_conc = [2.0 * abs(psi0[1] * psi0[2] - psi0[0] * psi0[3])]
    rec_coh = [2.0 * np.einsum("j,j->", f0[:4], f0[4:])]
    psi, carry, log_acc, done = psi0.copy(), psi0.astype(np.clongdouble), 0.0, 0
    while done < n_steps:
        k = min(chunk, n_steps - done)
        block = _span(psi, heads, first, -(-k // b))[:k]
        parts = block.view(float)
        sq = np.einsum("ij,ij->i", parts, parts)
        logs = 0.5 * np.log(sq) + log_acc
        steps = np.arange(done + 1, done + k + 1)
        mask = (steps % record_every == 0) | (steps == n_steps)
        if mask.any():
            rows, half = block[mask], 0.5 * sq[mask]
            rec_idx.extend(steps[mask].tolist())
            rec_states.extend((rows.view(float) / np.sqrt(sq[mask])[:, None]).view(complex))
            rec_norm.extend(logs[mask].tolist())
            rec_conc.extend(np.abs(rows[:, 1] * rows[:, 2] - rows[:, 0] * rows[:, 3]) / half)
            rec_coh.extend(np.einsum("ij,ij->i", parts[mask, :4], parts[mask, 4:]) / half)
        carry = whole @ carry / math.sqrt(sq[-1])
        psi, log_acc = carry.astype(complex), logs[-1]
        done += k
    return (np.asarray(rec_idx, dtype=float) * dt, np.asarray(rec_states), np.asarray(rec_norm),
            np.asarray(rec_conc), np.asarray(rec_coh))


class TestSteadyState:
    def test_constant_series(self):
        times = np.linspace(0, 10, 101)
        result = steady_state_of_series(times, np.full(101, 0.42), 2.0, 0.01)
        assert result == (0.0, pytest.approx(0.42))

    def test_broken_phase_value_and_dominant_match(self):
        params = SystemParams(2.0, 0.7, 1.0)
        traj = propagate(params, KET_00, 40.0, 1e-3, record_every=10)
        result = steady_state_of_series(traj.times, traj.concurrence, 5.0, 0.01)
        assert result is not None
        t_ss, c_ss = result
        assert 0.45 <= c_ss <= 0.55
        assert c_ss == pytest.approx(concurrence_pure(dominant_eigenvector(params)), abs=0.01)
        assert t_ss < 20.0

    def test_symmetric_phase_never_settles(self):
        traj = propagate(SystemParams(2.0, 0.4, 1.0), KET_00, 40.0, 1e-3, record_every=10)
        assert steady_state_of_series(traj.times, traj.concurrence, 5.0, 0.01) is None

    def test_window_validation(self):
        traj = propagate(SystemParams(2.0, 0.4, 1.0), KET_00, 1.0, 1e-3, record_every=10)
        with pytest.raises(ValueError):
            steady_state_of_series(traj.times, traj.concurrence, 5.0, 0.01)

    @pytest.mark.parametrize("n", [3, 10, 97, 10**5])
    def test_matches_sliding_window_bitwise(self, n):
        rng = np.random.default_rng(200 + n)
        times = _grid(n)
        damped = 0.5 + np.exp(-times / (0.1 * n)) * np.sin(times)
        windows = np.arange(1, n - 1) - 0.5 if n < 100 else (1.0, 7.0, 500.0)
        tols = (0.0, 1e-3, 0.3, 1.0, 2.0) if n < 100 else (1e-3, 0.3)
        for values in [damped, *_series(rng, n)]:
            for window in windows:
                for tol in tols:
                    got = steady_state_of_series(times, values, window, tol)
                    want = _steady_state_reference(times, values, window, tol)
                    assert np.array(got).tobytes() == np.array(want).tobytes(), (window, tol)


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

    @pytest.mark.parametrize("keywords", [
        {"collapse_fraction": np.nan},
        {"collapse_fraction": np.inf},
        {"collapse_fraction": -0.1},
        {"collapse_fraction": 1.5},
        {"envelope_window": 0.0},
        {"envelope_window": -1.0},
        {"envelope_window": np.nan},
    ])
    def test_detector_inputs_out_of_range_rejected(self, keywords):
        traj = propagate(SystemParams(1.7, 0.337, 1.0), KET_00, 300.0, 0.02)
        with pytest.raises(ValueError, match=next(iter(keywords))):
            detect_revivals(traj, **keywords)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 97])
    def test_envelope_matches_sliding_window_bitwise(self, n):
        rng = np.random.default_rng(n)
        times = _grid(n)
        for values in _series(rng, n):
            for window in range(2, n + 6):
                got = envelope_of_series(times, values, float(window))
                assert got.tobytes() == _envelope_reference(times, values, window).tobytes()

    @pytest.mark.parametrize("window", [2.0, 3.0, 64.0, 1000.0, 0.4, 2.5])
    def test_long_envelope_matches_sliding_window_bitwise(self, window):
        rng = np.random.default_rng(7)
        n = 10**5
        times = _grid(n)
        for values in _series(rng, n):
            got = envelope_of_series(times, values, window)
            assert got.tobytes() == _envelope_reference(times, values, window).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 97, 10**5])
    def test_revival_times_match_sample_loop_bitwise(self, n):
        rng = np.random.default_rng(100 + n)
        times = _grid(n) * 0.01
        windows = range(2, n + 6) if n < 100 else (2, 64)
        fractions = (0.0, 0.3, 0.7, 1.0) if n < 100 else (0.3, 0.7)
        for values in _series(rng, n):
            for window in windows:
                for fraction in fractions:
                    got = revival_times_of_series(times, values, 0.01 * window, fraction)
                    want = _revivals_reference(times, values, 0.01 * window, fraction)
                    assert got.tobytes() == want.tobytes(), (window, fraction)


def _grid(n):
    """A unit-spaced time grid; one sample still needs two times for its spacing."""
    return np.arange(max(n, 2), dtype=float)


def _series(rng, n):
    """Seeded series: bursty noise, one starting and one ending high, all equal, all negative."""
    bursts = rng.random(n) ** 8
    rising = np.linspace(0.0, 1.0, n) * rng.random(n)
    return [bursts, rising[::-1].copy(), rising, np.full(n, 0.25), -1.0 - rng.random(n)]


def _steady_state_reference(times, values, window, tol):
    """steady_state_of_series with a sliding_window_view max and min, kept as the O(n w) oracle."""
    spans = sliding_window_view(values, _window_len(times, window))
    bad = np.nonzero(spans.max(axis=1) - spans.min(axis=1) >= tol)[0]
    if len(bad) == 0:
        start = 0
    elif bad[-1] + 1 >= len(spans):
        return None
    else:
        start = bad[-1] + 1
    return float(times[start]), float(values[start:].mean())


def _envelope_reference(times, values, window):
    """envelope_of_series as a sliding_window_view max, kept as the O(n w) oracle."""
    w = min(_window_len(times, window), len(values))
    padded = np.concatenate([values, np.full(w - 1, values[-1])])
    return sliding_window_view(padded, w).max(axis=1)


def _revivals_reference(times, values, envelope_window, collapse_fraction):
    """revival_times_of_series as a per-sample loop, kept as the oracle."""
    env = _envelope_reference(times, values, envelope_window)
    active = env >= collapse_fraction * env.max()
    revivals = []
    seen_collapse = False
    i, n = 0, len(env)
    while i < n:
        if active[i]:
            stop = i
            while stop < n and active[stop]:
                stop += 1
            if seen_collapse:
                revivals.append(times[i + int(np.argmax(env[i:stop]))])
            i = stop
        else:
            seen_collapse = True
            i += 1
    return np.asarray(revivals)


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
