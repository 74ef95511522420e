"""Parameter sensing on the third eigenstate: quantum Fisher information and
the single-qubit coherence error-propagation sensitivity.

Both use the exact derivative of Psi3 from first-order perturbation theory in
the exchange-symmetric sector (_psi3_derivative): no step size enters, and the
Hermitian limit gives an exact zero.  Every point is solved and decided at unit
scale (spectrum._unit_point): points whose smallest sector gap is below 1e-4
there are refused as too close to an EP (the singlet never couples to Psi3, so
its crossings are not), a coherence slope below 1e-12 there counts as zero, and
the outputs map back by ldexp: the QFI by 4**-E, the variance by 4**E and the
Cramer-Rao bound by 2**E.
qfi_from_states keeps the central-difference form (states phase-aligned by
overlap) as an independent reference.

The kernels work on a leading axis of points, given as their (3, n) array of
(omega, j, gamma) rates and (n, 3) deltas.  A sweep solves each grid point's deltas once
with spectrum._solve_grid (the scalar closed-form kernel on a _Point record, its only
per-point Python call), then works on the unit-scale rate array: the finite-value check,
the refusal (too close to an EP) as a mask, one closed-form eigenpair solve for every
point's sector vectors, and one (psi, dpsi) batch for the QFI, the coherence and its
variance together.  qfi, sensitivity_variance and coherence_expectation are
batches of one of the same kernels, so a point gets the same bits either way.  Sweeps mark the phase transition with
spectrum's one phase decision, the exact sign of z (_z_sign), on the float z
that each point's solve evaluates (its rates are rebuilt only inside the filter's bound).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EpTooCloseError, NonFiniteError, NumericalError, PtqsimError, ZeroSlopeError
from .model import SIGMA_X1, SystemParams, _Point, _require_unit_rows, as_state
from .spectrum import (
    _closed_form_eigenpairs,
    _eigenvalues,
    _linspace,
    _rates,
    _sector_gap,
    _solve_grid,
    _unit_point,
    _z_sign,
)

KAPPAS = ("j", "omega")
#: Smallest unit-scale symmetric-sector gap at which the derivative of Psi3 is still computed.
_EP_GUARD_GAP = 1e-4
#: dH/d kappa: sigma_z (x) sigma_z for j, (sigma_x (x) 1 + 1 (x) sigma_x)/2 for omega.
_DH = {"j": np.diag([1.0, -1.0, -1.0, 1.0]),
       "omega": np.array([[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]]) / 2}
#: Smallest unit-scale |d<sigma_x^1>/d kappa| at which the coherence variance is defined.
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


def _clear_of_ep(gap):
    """The EP guard: the smallest unit-scale symmetric-sector gap reaches _EP_GUARD_GAP,
    elementwise; a NaN gap does not clear it."""
    return gap >= _EP_GUARD_GAP


def _guarded(params: SystemParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The point's unit-scale (3, 1) rates, (1, 3) deltas and (1,) exponent E (_unit_point);
    raises EpTooCloseError where the EP guard refuses it."""
    e, deltas, _ = _eigenvalues(params)
    deltas = np.array([deltas], dtype=complex)
    gap = float(_sector_gap(deltas)[0])
    if not _clear_of_ep(gap):
        raise EpTooCloseError(
            f"eigenvalue gap {math.ldexp(gap, e):.3e} below {math.ldexp(_EP_GUARD_GAP, e):.0e}; "
            "derivative ill-defined this close to the EP")
    return _rates([_unit_point(params)[1]]), deltas, np.array([e])


def _psi3_derivative(
    rates: np.ndarray, kappa: str, deltas: np.ndarray, exps=0
) -> tuple[np.ndarray, np.ndarray]:
    """(psi, dpsi) rows: each point's unit Psi3 and its exact kappa-derivative, less its part
    along psi, of unit-scale (3, n) rates and (n, 3) deltas that the EP guard clears
    (exps, the points' exponents E, name a near-defective point's rates).

    H is complex symmetric, so its eigenvectors u_k are orthogonal in u^T v, and
    dpsi = sum_{k = 2, 4} (u_k^T dH psi) / ((E3 - E_k) u_k^T u_k) u_k; dH keeps the
    exchange symmetry, so the singlet does not enter.  The QFI and the coherence
    slope ignore multiples of psi (normalization, phase); the part along psi is
    removed before the QFI subtracts it, since next to an EP it outgrows the rest.
    """
    vecs = _closed_form_eigenpairs(rates, deltas, exps)[0]
    psi, u = vecs[:, 2], vecs[:, 1::2]
    coupling = (u * (psi @ _DH[kappa])[:, None]).sum(axis=-1)
    weight = coupling / ((deltas[:, 1:2] - deltas[:, ::2]) * (u * u).sum(axis=-1))
    dpsi = (weight[..., None] * u).sum(axis=1)
    dpsi -= _rowdot(psi, dpsi)[:, None] * psi
    return psi, dpsi


def _sense_rows(rates: np.ndarray, kappa: str, deltas: np.ndarray, exps=0) -> tuple:
    """(qfi, m0 = <sigma_x^1>, unit-scale slope d m0/d kappa, variance, CR bound) rows from
    one batch of (psi, dpsi) at unit-scale (3, n) rates and (n, 3) deltas, mapped back by
    the points' exponents exps (an int or an (n,) array).

    The variance (1 - m0^2)/slope^2 is defined where the slope reaches _MIN_SLOPE.  Raises
    what _closed_form_eigenpairs and _coherence raise, then NonFiniteError for the first
    point whose QFI, or whose defined variance, leaves the float range (the QFI grows as
    1/rate^2 and the variance as rate^2).
    """
    psi, dpsi = _psi3_derivative(rates, kappa, deltas, exps)
    m0 = _coherence(psi)
    slope = 2.0 * _rowdot(dpsi, psi @ SIGMA_X1 - m0[:, None] * psi).real
    f = 4.0 * (_rowdot(dpsi, dpsi).real - abs(_rowdot(psi, dpsi)) ** 2)
    with np.errstate(all="ignore"):  # a zero slope's variance, and the float range's ends
        variance = np.ldexp((1.0 - m0 * m0) / (slope * slope), 2 * exps)
        cr = np.ldexp(1.0 / np.sqrt(f), exps)
        f = np.ldexp(f, -2 * exps)
    finite = np.isfinite(f) & (np.isfinite(variance) | (np.abs(slope) < _MIN_SLOPE))
    if not finite.all():
        i = int(np.argmin(finite))
        omega, j, gamma = np.ldexp(rates[:, i], np.broadcast_to(exps, finite.shape)[i]).tolist()
        raise NonFiniteError(f"QFI of Psi3 or its variance leaves the float range at "
                             f"omega={omega}, j={j}, gamma={gamma}")
    return f, m0, slope, variance, cr


def _sense_point(params: SystemParams, kappa: str) -> tuple[float, float, float, float]:
    """(qfi, m0 = <sigma_x^1>, variance (1 - m0^2)/slope^2, CR bound): a batch of one of
    _sense_rows.

    Raises the point's refusal (EpTooCloseError), then what _sense_rows raises, then
    ZeroSlopeError when the coherence does not move with kappa.
    """
    rates, deltas, exps = _guarded(params)
    f, m0, slope, variance, cr = (float(a[0]) for a in _sense_rows(rates, kappa, deltas, exps))
    if abs(slope) < _MIN_SLOPE:
        raise ZeroSlopeError(
            f"|d<sigma_x^1>/d{kappa}| = {abs(slope):.3e} < 1e-12 at unit scale; "
            "sensitivity undefined")
    return f, m0, variance, cr


def qfi(params: SystemParams, kappa: str) -> float:
    """Fisher information of eigenstate 3 w.r.t. kappa in {"j", "omega"}."""
    _check_kappa(kappa)
    rates, deltas, exps = _guarded(params)
    return float(_sense_rows(rates, kappa, deltas, exps)[0][0])


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
    fixed = "omega" if kappa == "j" else "j"
    for end in value_range:  # SystemParams names a non-finite rate before any point is solved
        base = SystemParams(**{fixed: fixed_value, kappa: float(end)}, gamma=gamma)
    try:
        xs = _linspace(value_range[0], value_range[1], n).tolist()
        rate_lists = [[base.omega] * n, [base.j] * n, [base.gamma] * n]
    except MemoryError:  # the message names the CLI flag too: sense passes --n through
        raise ValueError(f"n = {n} sweep points (--n {n}) do not fit in memory") from None
    rate_lists[("omega", "j").index(kappa)] = xs
    rates, exps, deltas, zs = _solve_grid(np.array(rate_lists))
    too_close = ~_clear_of_ep(_sector_gap(deltas))
    flags = np.where(too_close, _flag(EpTooCloseError), None).tolist()
    kept = np.flatnonzero(~too_close)
    columns, slope = np.empty((4, 0)), np.empty(0)
    if len(kept):
        f, m0, slope, variance, cr = _sense_rows_in_order(
            rates[:, kept], kappa, deltas[kept], exps[kept])
        columns = f, variance, m0, cr
    payload = [(float("nan"),) * 4] * n
    moves = np.abs(slope) >= _MIN_SLOPE
    for k, row in zip(kept[moves].tolist(), zip(*(c[moves].tolist() for c in columns))):
        payload[k] = row
    for k in kept[~moves].tolist():
        flags[k] = _flag(ZeroSlopeError)
    omegas, js, gammas = rate_lists  # the rates themselves, for _z_sign inside its bound
    broken = np.array([_z_sign(lambda k=k: _Point(omegas[k], js[k], gammas[k]), z) > 0
                       for k, z in enumerate(zs)])
    for i in np.flatnonzero(broken[:-1] != broken[1:]).tolist():
        for k in (i, i + 1):
            if flags[k] is None:
                flags[k] = "ep_bracket"
    return [SensingPoint(kappa, x, *row, flag=flag) for x, row, flag in zip(xs, payload, flags)]


def _flag(error: type[PtqsimError]) -> str:
    """A sweep point's flag for the error it is refused with: the name without Error."""
    return error.__name__.removesuffix("Error")


def _sense_rows_in_order(rates, kappa, deltas, exps):
    """_sense_rows of a sweep's unflagged points, raising what a per-point loop would.

    Each check names the first point it fails on, but two checks may fail on
    different points; replaying the points one at a time then finds the first
    failing point in grid order.  A point's bits do not depend on its batch.
    """
    try:
        return _sense_rows(rates, kappa, deltas, exps)
    except PtqsimError:
        for k in range(len(deltas)):
            _sense_rows(rates[:, k:k + 1], kappa, deltas[k:k + 1], exps[k:k + 1])
        raise
