"""Non-unitary time evolution with per-step renormalization, steady-state and
collapse/revival detection.

The integrator is the classical fixed-step 4th-order scheme; for a
time-independent generator its one-step map P is the quartic Taylor matrix of
exp(-iH dt), so steps are applied in chunks: the state m steps into a chunk is
P^m times the state that starts it.  Chunk length n is capped so unnormalized
growth stays within exp(5) between renormalizations.  The recorded count is
known before the first step, so recorded rows are written into preallocated
arrays.  Only ``propagate`` keeps every field (the recorded states are 64 bytes
a row); the CLI runs the same loop keeping the fields it prints: ``evolve`` its
three observables (32 bytes a row with the times), ``revivals`` and the figure
presets the concurrence alone (16 bytes a row).

A chunk's states come from two small factor sets, built once per run in blocks
of b = isqrt(n): the first block P .. P^b and the block heads P^b, P^2b, ..,
chains of products in extended precision (np.clongdouble, whose 64-bit
significand keeps a chain of a hundred products well inside one double
rounding), each rounded to complex128 once.  Per chunk, one matrix-vector
product of the stacked heads gives the head states P^(qb) psi, and one gemm of
the head states with the first block gives every state of the chunk in step
order, P^(s + 1) P^(qb) psi; each is within 5e-16 (relative) of the exact
P^m psi.  The rows a chunk records are reduced unnormalized: their squared
norms, log-norms, and the concurrence and coherence over the squared norm.
Only the kept states are renormalized; the state that starts the next chunk is
P^n times this chunk's start in extended precision, renormalized, so rounding
does not accumulate from chunk to chunk.

The envelope and the steady-state variation (forward-looking sliding maxima,
and minima as maxima of the negated series) cost O(n) for any window: block
prefix and suffix maxima (van Herk / Gil-Werman), exact because max is.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, StepTooLargeError
from .model import SystemParams, as_state, as_unit_state, build_hamiltonian
from .spectrum import _unit_point, eigensystem_oracle

#: dt * (max row sum of |H|) must stay below this for the fixed-step scheme.
STABILITY_LIMIT = 0.1
#: Step counts are int64 indices (np.arange); t_max/dt must stay below this.
_MAX_STEPS = 2.0**63
#: OpenBLAS threads a complex gemm of m n k >= 65536 (16 a state), costing several times more.
_GEMM_STATES = 4096
#: The Trajectory fields a run may leave out (None); times and concurrence are always kept.
_FIELDS = ("states", "norm_log", "coherence_x")


@dataclass(frozen=True)
class Trajectory:
    """Normalized states and derived observables on a strictly increasing grid.

    norm_log accumulates the log of the norm growth the renormalization
    discarded, so exp(norm_log) recovers the unnormalized magnitude.  states,
    norm_log and coherence_x are None only in the CLI's runs, which keep the
    fields they print.
    """

    times: np.ndarray
    states: np.ndarray | None
    norm_log: np.ndarray | None
    concurrence: np.ndarray
    coherence_x: np.ndarray | None

    def __len__(self):
        return len(self.times)


def initial_state(theta_init: float) -> np.ndarray:
    """Product state (sin(theta)|0> + cos(theta)|1>) (x) |0>."""
    if not math.isfinite(theta_init):
        raise ValueError(f"theta must be finite, got {theta_init}")
    return np.array(
        [np.sin(theta_init), 0.0, np.cos(theta_init), 0.0], dtype=complex
    )


def _rk4_step_matrix(h: np.ndarray, dt: float) -> np.ndarray:
    a = -1j * dt * h
    m = np.eye(4, dtype=complex)
    term = np.eye(4, dtype=complex)
    for k in range(1, 5):
        term = term @ a / k
        m = m + term
    return m


def propagate(
    params: SystemParams,
    psi0,
    t_max: float,
    dt: float,
    record_every: int = 1,
) -> Trajectory:
    """Integrate d(psi)/dt = -iH psi, renormalizing every step.

    Records every record_every-th step (plus t=0 and the final step).
    """
    return _integrate(params, psi0, t_max, dt, record_every, _FIELDS)


def _integrate(params: SystemParams, psi0, t_max: float, dt: float, record_every: int,
               keep) -> Trajectory:
    """propagate's run, recording only the fields of _FIELDS that are in keep (else None).

    Every reduction of a chunk's rows is per row, so a chunk's values have the
    bits of one pass over every recorded row.
    """
    psi0 = as_unit_state(psi0)
    if not (math.isfinite(t_max) and math.isfinite(dt)):
        raise ValueError(f"t_max and dt must be finite, got t_max={t_max}, dt={dt}")
    if dt <= 0 or t_max < dt:
        raise ValueError("require dt > 0 and t_max >= dt")
    if not t_max / dt < _MAX_STEPS:
        raise ValueError(
            f"t_max/dt = {t_max / dt:.3e} steps does not fit a 64-bit step count"
        )
    if not isinstance(record_every, numbers.Integral) or record_every < 1:
        raise ValueError(f"record_every must be an integer >= 1, got {record_every!r}")

    e, unit = _unit_point(params)  # ||H|| (largest row sum of |H|) may overflow at the rates
    row_sum = float(np.max(np.abs(build_hamiltonian(unit)).sum(axis=1)))
    with np.errstate(over="ignore"):
        dt_norm = float(np.ldexp(dt, e)) * row_sum
    if dt_norm > STABILITY_LIMIT:
        raise StepTooLargeError(
            f"dt*||H|| = {dt_norm:.3f} exceeds {STABILITY_LIMIT} "
            f"(use dt <= {math.ldexp(STABILITY_LIMIT / row_sum, -e):.2e})"
        )

    n_steps = int(round(t_max / dt))
    record_every = min(record_every, n_steps + 1)  # any longer period records 0 and the end
    # Growth within a chunk stays below exp(~5).  The cap applies before
    # rounding, where 5/dt overflows to inf for subnormal dt.
    chunk = min(n_steps, max(1, round(min(5.0 / (dt * max(params.gamma, 1.0)), 4096))))
    heads, first, whole = _step_factors(_rk4_step_matrix(build_hamiltonian(params), dt), chunk)
    b = first.shape[1] // 4

    # t=0, every record_every-th step, and the final step when off that grid
    n_rec = n_steps // record_every + 1 + (n_steps % record_every != 0)
    try:
        times = np.arange(n_rec, dtype=float)
        concurrence = np.empty(n_rec)
        norm_log = np.zeros(n_rec) if "norm_log" in keep else None
        coherence = np.empty(n_rec) if "coherence_x" in keep else None
        states = np.empty((n_rec, 4), dtype=complex) if "states" in keep else None
    except MemoryError:
        raise ValueError(f"{n_rec} recorded states do not fit in memory "
                         f"(raise record_every)") from None
    times *= record_every
    times[-1] = n_steps
    times *= dt
    _observe(psi0[None], np.ones(1), concurrence[:1], None if coherence is None else coherence[:1])
    if states is not None:
        states[0] = psi0
    psi, carry, log_acc = psi0, psi0.astype(np.clongdouble), 0.0
    done, r = 0, 1
    with np.errstate(divide="ignore"):  # a zero norm is caught as a non-finite log
        while done < n_steps:
            k = min(chunk, n_steps - done)
            rows = _picks((-(done + 1)) % record_every, k, record_every)
            span = _span(psi, heads, first, -(-k // b))
            new = span[:k] if rows is None else span[rows]
            parts = new.view(float)
            sq = np.einsum("ij,ij->i", parts, parts)
            logs = 0.5 * np.log(sq) + log_acc
            if not math.isfinite(logs.sum()):
                raise NonFiniteError(f"amplitudes left the finite range near t={done * dt}")
            # the last row starts the next chunk; it is recorded when on the grid or final
            n_new = len(new) - (done + k < n_steps and (done + k) % record_every != 0)
            rec = slice(r, r + n_new)
            _observe(new[:n_new], sq[:n_new], concurrence[rec],
                     None if coherence is None else coherence[rec])
            if norm_log is not None:
                norm_log[rec] = logs[:n_new]
            if states is not None:
                np.divide(parts[:n_new], np.sqrt(sq[:n_new])[:, None], out=states[rec].view(float))
            r += n_new
            # the next chunk starts from P^chunk times this one's start, in extended precision
            carry = whole.dot(carry) / math.sqrt(sq[-1])
            psi = carry.astype(complex)
            log_acc = logs[-1]
            done += k

    return Trajectory(times, states, norm_log, concurrence, coherence)


@functools.lru_cache(maxsize=64)
def _picks(start: int, k: int, every: int) -> np.ndarray | None:
    """The rows of a k-step chunk that are reduced: start, start + every, .., and the
    last, which starts the next chunk; None when that is every row."""
    rows = np.arange(start, k, every)
    if not len(rows) or rows[-1] != k - 1:
        rows = np.append(rows, k - 1)
    return None if len(rows) == k else rows


def _span(psi: np.ndarray, heads: np.ndarray, first: np.ndarray, nq: int) -> np.ndarray:
    """The nq * b states after psi, from _step_factors' heads and first block: row q*b + s
    is P^(s + 1) P^(qb) psi, in step order."""
    starts = np.empty((nq, 4), dtype=complex)
    starts[0] = psi
    heads[:4 * (nq - 1)].dot(psi, starts[1:].reshape(-1))
    span = np.empty((nq, first.shape[1]), dtype=complex)
    per = -(-_GEMM_STATES // (first.shape[1] // 4)) - 1
    for lo in range(0, nq, per):
        starts[lo:lo + per].dot(first, span[lo:lo + per])
    return span.reshape(-1, 4)


def _observe(rows: np.ndarray, sq: np.ndarray, concurrence: np.ndarray, coherence):
    """The concurrence and <sigma_x^1> of (n, 4) rows of squared norms sq, into concurrence
    and coherence (which may be None): of a unit state 2 |psi1 psi2 - psi0 psi3| and
    2 Re(conj(psi0) psi2 + conj(psi1) psi3), the float view's first four parts dotted with
    its last four."""
    half = 0.5 * sq
    np.divide(np.abs(rows[:, 1] * rows[:, 2] - rows[:, 0] * rows[:, 3]), half, out=concurrence)
    if coherence is not None:
        parts = rows.view(float)
        np.divide(np.einsum("ij,ij->i", parts[:, :4], parts[:, 4:]), half, out=coherence)


def _step_factors(step: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The heads P^b, P^2b, .. < P^n of step P stacked as a (4 (ceil(n/b) - 1), 4) matrix,
    its first block P .. P^b as M[i, 4r + c] = P^(r+1)[c, i] (b = isqrt(n)), each chained
    in extended precision and rounded once, and P^n in extended precision."""
    b = math.isqrt(n)
    first = _chain(step.astype(np.clongdouble), b)
    heads = _chain(first[-1], -(-n // b) - 1)
    whole = first[n - len(heads) * b - 1].dot(heads[-1]) if len(heads) else first[0]
    return (heads.astype(complex).reshape(-1, 4),
            first.astype(complex).transpose(2, 0, 1).reshape(4, 4 * b), whole)


def _chain(factor: np.ndarray, count: int) -> np.ndarray:
    """factor**1 .. factor**count, each factor @ (the previous power), in factor's dtype."""
    powers = np.empty((count, 4, 4), dtype=factor.dtype)
    powers[:1] = factor
    dot = factor.dot
    for m in range(1, count):
        dot(powers[m - 1], powers[m])
    return powers


def exact_state(params: SystemParams, psi0, t: float) -> np.ndarray:
    """Normalized V exp(-i E t) V^-1 psi0 from the oracle eigendecomposition.

    Ill-conditioned at an EP (V is singular there); intended for
    cross-validation away from the critical curve.
    """
    psi0 = as_state(psi0)
    spec = eigensystem_oracle(build_hamiltonian(params), deflate_root=-params.j)
    v = spec.eigenvectors.T
    x = np.linalg.solve(v, psi0)
    psi = v @ (np.exp(-1j * spec.eigenvalues * t) * x)
    return psi / np.linalg.norm(psi)


def dominant_eigenvector(params: SystemParams) -> np.ndarray:
    """Eigenvector with the largest Im E; attracts normalized broken-phase dynamics."""
    spec = eigensystem_oracle(build_hamiltonian(params), deflate_root=-params.j)
    return spec.eigenvectors[int(np.argmax(spec.eigenvalues.imag))]


def _window_len(times: np.ndarray, width: float) -> int:
    samples = width / (times[1] - times[0])
    if not math.isfinite(samples):
        raise ValueError(f"window {width} is not a finite number of samples")
    return max(2, int(round(samples)))


def _window_max(values: np.ndarray, w: int) -> np.ndarray:
    """max(values[i:i + w]) for every i, windows past the end padded with the final value."""
    n = len(values)
    # window i spans blocks i // w and (i + w - 1) // w: a suffix max and a prefix max
    padded = np.full(-(-(n + w - 1) // w) * w, values[-1])
    padded[:n] = values
    blocks = padded.reshape(-1, w)
    prefix = np.maximum.accumulate(blocks, axis=1).ravel()
    # the suffix maxima overwrite padded, and the window maxima its first n
    reverse = blocks[:, ::-1]
    np.maximum.accumulate(reverse, axis=1, out=reverse)
    return np.maximum(padded[:n], prefix[w - 1 : n + w - 1], out=padded[:n])


def steady_state_of_series(times, values, window: float, tol: float):
    """Earliest time after which every trailing window varies less than tol.

    Returns (t_ss, mean value from t_ss on) or None.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if window >= times[-1] - times[0]:
        raise ValueError("window must be shorter than the trajectory")
    w = _window_len(times, window)
    m = len(values) - w + 1  # windows that fit: max - min is max + max of the negation
    variation = _window_max(values, w)[:m] + _window_max(-values, w)[:m]
    bad = np.nonzero(variation >= tol)[0]
    if len(bad) == 0:
        start = 0
    elif bad[-1] + 1 >= len(variation):
        return None
    else:
        start = bad[-1] + 1
    return float(times[start]), float(values[start:].mean())


def envelope_of_series(times, values, window: float) -> np.ndarray:
    """Sliding-window maxima (forward-looking, end-padded with the final value)."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    # a window past the end sees the same suffix maxima as one of len(values)
    return _window_max(values, min(_window_len(times, window), len(values)))


def revival_times_of_series(
    times, values, envelope_window: float = 5.0, collapse_fraction: float = 0.3
) -> np.ndarray:
    """Times of envelope maxima separated by collapses (dips below the fraction)."""
    # the messages name the CLI flags too: revivals passes these through unchecked
    if not 0.0 <= collapse_fraction <= 1.0:
        raise ValueError(f"collapse_fraction (--collapse-fraction) must lie in [0, 1], "
                         f"got {collapse_fraction}")
    if not envelope_window > 0:
        raise ValueError(f"envelope_window (--envelope-window) must be > 0, got {envelope_window}")
    times = np.asarray(times, dtype=float)
    env = envelope_of_series(times, values, envelope_window)
    # the mask padded with False at both ends: its int8 differences mark the runs' edges
    active = np.concatenate(([False], env >= collapse_fraction * env.max(), [False]))
    edges = np.diff(active.view(np.int8))
    starts, stops = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    # a run that starts at t0 follows no collapse
    peaks = [s + int(np.argmax(env[s:e])) for s, e in zip(starts, stops) if s > 0]
    return times[np.asarray(peaks, dtype=int)]


def detect_revivals(
    traj: Trajectory, envelope_window: float = 5.0, collapse_fraction: float = 0.3
) -> np.ndarray:
    """Revival times of the concurrence envelope (empty when nothing collapses)."""
    return revival_times_of_series(
        traj.times, traj.concurrence, envelope_window, collapse_fraction
    )
