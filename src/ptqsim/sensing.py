"""Parameter sensing on the third eigenstate: quantum Fisher information and
the single-qubit coherence error-propagation sensitivity.

Both use the closed-form derivative of Psi3 = N(1, r2, r2, r1): r1 and r2
are explicit in E3, and dE3 is first-order perturbation theory for the
complex-symmetric H, so no step size enters and the Hermitian limit gives
an exact zero.  Points whose smallest eigenvalue gap is below 1e-4 (times
the largest rate, when that is below 1) are refused as too close to an EP.
qfi_from_states keeps the central-difference form (states phase-aligned by
overlap) as an independent reference.

The kernels work on a leading axis of points, given as their (3, n) array of
(omega, j, gamma) rates.  A sweep solves each grid point's eigenvalues once
(the scalar closed-form kernel on a _Point record, its only per-point Python
call), then works on the rate array: the finite-value check, the refusals
(omega ~ 0, then too close to an EP) as masks, one closed-form eigenpair solve
with one batched H for every Psi3, and one (psi, dpsi) batch for the QFI, the
coherence and its variance together.  qfi, sensitivity_variance and
coherence_expectation are batches of one of the same kernels, so a point
gets the same bits either way.  Sweeps mark the phase transition with
spectrum's one phase decision (max |Im E| against its threshold) on the
same closed-form eigenvalues.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import (
    EpTooCloseError,
    NonFiniteError,
    NumericalError,
    OmegaSingularError,
    PtqsimError,
    ZeroSlopeError,
)
from .model import SIGMA_X1, SystemParams, _Point, _require_unit_rows, as_state
from .spectrum import (
    _closed_form_eigenpairs,
    _min_gap,
    _omega_singular,
    _phase_probe,
    _rate_scale,
    _rate_scales,
    _rates,
    _require_omega,
    _solve_eigenvalues,
    eigenvalues_closed_form,
)

KAPPAS = ("j", "omega")
#: Smallest eigenvalue gap at which the derivative of Psi3 is still computed.
_EP_GUARD_GAP = 1e-4
#: Smallest |d<sigma_x^1>/d kappa| at which the coherence variance is defined.
_MIN_SLOPE = 1e-12


@dataclass(frozen=True)
class SensingPoint:
    """One sweep sample; flagged points carry NaN payloads and a reason string."""

    kappa: str
    value: float
    qfi: float
    variance_sq: float
    coherence: float
    cr_bound: float
    flag: str | None = None


def _check_kappa(kappa: str):
    if kappa not in KAPPAS:
        raise ValueError(f"kappa must be one of {KAPPAS}, got {kappa!r}")


def _align(vec: np.ndarray, ref: np.ndarray) -> np.ndarray:
    overlap = np.vdot(vec, ref)
    if overlap == 0:
        return vec
    return vec * (overlap / abs(overlap))


def qfi_from_states(psi_minus, psi_center, psi_plus, h: float) -> float:
    """Fisher information from three equally spaced eigenvector samples.

    Exposed so gauge/convention invariance can be probed by injecting
    phases into the sampled states.
    """
    p0 = as_state(psi_center)
    pm = _align(as_state(psi_minus), p0)
    pp = _align(as_state(psi_plus), p0)
    diff = (pp - pm) / (2.0 * h)
    return 4.0 * (np.vdot(diff, diff).real - abs(np.vdot(p0, diff)) ** 2)


def coherence_expectation(psi) -> float:
    """<sigma_x^1> of a unit state; Hermitian, so the tiny imaginary residue is dropped."""
    return float(_coherence(as_state(psi)[None])[0])


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.vdot of each pair of rows."""
    return (a.conj() * b).sum(axis=-1)


def _coherence(psi: np.ndarray) -> np.ndarray:
    """<sigma_x^1> of (n, 4) unit-state rows.

    Raises NotNormalizedError for the first row that is not a unit state,
    then NumericalError for the first whose imaginary part exceeds 1e-12.
    """
    _require_unit_rows(psi)
    value = _rowdot(psi, psi @ SIGMA_X1)
    imag = np.abs(value.imag) > 1e-12
    if imag.any():
        raise NumericalError(f"<sigma_x^1> has imaginary part {value.imag[np.argmax(imag)]:.3e}")
    return value.real


def _clear_of_ep(gap, scale):
    """The EP guard: the smallest eigenvalue gap reaches _EP_GUARD_GAP times the rate
    scale (_rate_scale, so the guard shrinks with the rates below unit scale).

    Elementwise; a NaN gap does not clear it.
    """
    return gap >= _EP_GUARD_GAP * scale


def _guarded(params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """The point's (3, 1) rates and (1, 4) closed-form E1..E4; raises its refusal, if any.

    OmegaSingularError comes ahead of EpTooCloseError: at omega ~ 0 the
    singlet and the symmetric sector share E = -j, so the gap guard would
    name an EP that is not there.
    """
    values = eigenvalues_closed_form(params)[None]
    _require_omega(params)
    gap, scale = float(_min_gap(values)[0]), _rate_scale(params)
    if not _clear_of_ep(gap, scale):
        raise EpTooCloseError(
            f"eigenvalue gap {gap:.3e} below {_EP_GUARD_GAP * scale:.0e}; "
            "derivative ill-defined this close to the EP")
    return _rates([params]), values


def _psi3_derivative(
    rates: np.ndarray, kappa: str, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(psi, dpsi) rows: each point's unit Psi3 and its exact kappa-derivative, up to psi.

    H is complex symmetric, so dE3 = u^T dH u / u^T u for u = (1, r2, r2, r1);
    differentiating r2 = -d/omega and r1 = -2(j+E3)d/omega^2 - 1 with
    d = j - E3 + i*gamma gives du.  The normalization and phase fixing only
    add multiples of psi, which the QFI and the coherence slope ignore.
    rates are the points' (omega, j, gamma), shape (3, n), and values their
    closed-form E1..E4, shape (n, 4); no point may have a refusal (_guarded).
    """
    psi = _closed_form_eigenpairs(rates, values)[0][:, 2]
    om, j, g = rates
    e = values[:, 2]
    r2, r1 = psi[:, 1] / psi[:, 0], psi[:, 3] / psi[:, 0]
    d = j - e + 1j * g
    utu = 1 + 2 * r2 * r2 + r1 * r1
    if kappa == "j":
        de = (1 - 2 * r2 * r2 + r1 * r1) / utu
        dr2 = -(1 - de) / om
        dr1 = -2 * ((1 + de) * d + (j + e) * (1 - de)) / om**2
    else:
        de = 2 * r2 * (1 + r1) / utu
        dr2 = (de + d / om) / om
        dr1 = -2 * (de * d - (j + e) * de) / om**2 + 4 * (j + e) * d / om**3
    du = np.zeros_like(psi)
    du[:, 1] = du[:, 2] = dr2
    du[:, 3] = dr1
    return psi, psi[:, :1] * du


def _fisher(psi: np.ndarray, dpsi: np.ndarray) -> np.ndarray:
    return 4.0 * (_rowdot(dpsi, dpsi).real - abs(_rowdot(psi, dpsi)) ** 2)


def _variance(m0, slope):
    """Error-propagation variance (1 - m0^2) / slope^2 of the coherence."""
    return (1.0 - m0 * m0) / (slope * slope)


def _sense_rows(
    rates: np.ndarray, kappa: str, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(qfi, m0 = <sigma_x^1>, d m0/d kappa) rows from one batch of (psi, dpsi).

    Raises what _closed_form_eigenpairs and _coherence raise.
    """
    psi, dpsi = _psi3_derivative(rates, kappa, values)
    m0 = _coherence(psi)
    slope = 2.0 * _rowdot(dpsi, psi @ SIGMA_X1 - m0[:, None] * psi).real
    return _fisher(psi, dpsi), m0, slope


def _sense_point(params: SystemParams, kappa: str) -> tuple[float, float, float]:
    """(qfi, m0 = <sigma_x^1>, variance (1 - m0^2)/slope^2): a batch of one of _sense_rows.

    Raises the point's refusal (OmegaSingularError, then EpTooCloseError),
    then ZeroSlopeError when the coherence does not move with kappa.
    """
    rates, values = _guarded(params)
    f, m0, slope = (float(a[0]) for a in _sense_rows(rates, kappa, values))
    if abs(slope) < _MIN_SLOPE:
        raise ZeroSlopeError(
            f"|d<sigma_x^1>/d{kappa}| = {abs(slope):.3e} < 1e-12; sensitivity undefined"
        )
    return f, m0, _variance(m0, slope)


def qfi(params: SystemParams, kappa: str) -> float:
    """Fisher information of eigenstate 3 w.r.t. kappa in {"j", "omega"}."""
    _check_kappa(kappa)
    rates, values = _guarded(params)
    return float(_fisher(*_psi3_derivative(rates, kappa, values))[0])


def sensitivity_variance(params: SystemParams, kappa: str) -> float:
    """Error-propagation variance (delta kappa)^2 of the coherence measurement."""
    _check_kappa(kappa)
    return _sense_point(params, kappa)[2]


def sensing_sweep(
    kappa: str,
    fixed_value: float,
    value_range: tuple[float, float],
    n: int,
    gamma: float = 1.0,
) -> list[SensingPoint]:
    """Ordered grid of sensing points over kappa; failures become flags, not gaps.

    Points whose computation raises near the EP are emitted with NaN
    payloads and the error name; additionally the pair of grid points
    bracketing a detected phase transition is flagged "ep_bracket" (their
    values are kept), so exported data marks the divergence location
    honestly without storing infinities.  Any other error is raised for the
    first point in grid order that has one, as a per-point loop would.
    """
    _check_kappa(kappa)
    if n < 2:
        raise ValueError("n must be >= 2")
    if kappa == "j":
        base = SystemParams(omega=fixed_value, j=0.0, gamma=gamma)
    else:
        base = SystemParams(omega=1.0, j=fixed_value, gamma=gamma)
    grid = np.linspace(value_range[0], value_range[1], n)
    xs = grid.tolist()
    rate_lists = [[base.omega] * n, [base.j] * n, [base.gamma] * n]
    rate_lists[("omega", "j").index(kappa)] = xs
    finite = np.isfinite(grid)
    first_bad = n if finite.all() else int(finite.argmin())

    values, failure = [], None
    try:
        for point in islice(map(_Point, *rate_lists), first_bad):
            values.append(_solve_eigenvalues(point))
        if first_bad < n:
            base.replace(**{kappa: xs[first_bad]})  # raises: SystemParams names the value
    except (ValueError, NonFiniteError) as exc:
        failure = exc  # raised after the points before it, as a per-point loop would
    m = len(values)
    rates = np.array(rate_lists)[:, :m]
    values = np.array(values, dtype=complex).reshape(-1, 4)
    scales = _rate_scales(rates)
    singular = _omega_singular(rates[0])
    too_close = ~singular & ~_clear_of_ep(_min_gap(values), scales)
    flags = np.where(singular, _flag(OmegaSingularError),
                     np.where(too_close, _flag(EpTooCloseError), None)).tolist()
    kept = np.flatnonzero(~(singular | too_close))
    f = m0 = slope = np.empty(0)
    if len(kept):
        f, m0, slope = _sense_rows_in_order(rates[:, kept], kappa, values[kept])
    if failure is not None:
        raise failure

    payload = [(float("nan"),) * 4] * m
    moves = np.abs(slope) >= _MIN_SLOPE
    f, m0, slope = f[moves], m0[moves], slope[moves]
    columns = (f, _variance(m0, slope), m0, 1.0 / np.sqrt(f))
    for k, row in zip(kept[moves].tolist(), zip(*(c.tolist() for c in columns))):
        payload[k] = row
    for k in kept[~moves].tolist():
        flags[k] = _flag(ZeroSlopeError)
    broken = _phase_probe(values, scales)[1]
    for i in np.flatnonzero(broken[:-1] != broken[1:]).tolist():
        for k in (i, i + 1):
            if flags[k] is None:
                flags[k] = "ep_bracket"
    return [SensingPoint(kappa, x, *row, flag=flag) for x, row, flag in zip(xs, payload, flags)]


def _flag(error: type[PtqsimError]) -> str:
    """A sweep point's flag for the error it is refused with: the name without Error."""
    return error.__name__.removesuffix("Error")


def _sense_rows_in_order(rates, kappa, values):
    """_sense_rows of a sweep's unflagged points, raising what a per-point loop would.

    Each check names the first point it fails on, but two checks may fail on
    different points; replaying the points one at a time then finds the first
    failing point in grid order.  A point's bits do not depend on its batch.
    """
    try:
        return _sense_rows(rates, kappa, values)
    except PtqsimError:
        for k in range(len(values)):
            _sense_rows(rates[:, k:k + 1], kappa, values[k:k + 1])
        raise
