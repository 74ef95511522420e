"""Exceptional-point location, the critical curve, and the coalesced eigenvector.

The primary locator bisects the phase label, which is monotone across a
second-order coalescence.  The label is spectrum's one phase decision
(max |Im E| against its threshold, with the label-aligned oracle standing
in where the cubic radical degenerates).  The analytic residual pair from
the cubic radical serves as a certificate of the found point, not as the
search objective.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateCubicError,
    EmptyCurveError,
    NoSignChangeError,
    NotAtEpError,
    NotConvergedError,
)
from .model import SystemParams
from .spectrum import (
    _SQ27,
    _cubic_data,
    _eigvec_coefficients,
    _phase_fix,
    _phase_probe,
    auxiliary_quantities,
    eigenvalues_closed_form,
)


#: Widest final bisection bracket locate_ep accepts, and its iteration budget.
_BRACKET_TOL = 1e-8
_MAX_BISECTIONS = 200


@dataclass(frozen=True)
class EpPoint:
    """A located critical pair with its certificate residuals.

    residual_theta folds the principal-branch phase of the cubic radical
    onto its nearest coalescence ray (multiples of pi/3); together with
    residual_x = x - r**2 it vanishes exactly at an EP.
    """

    j_c: float
    omega_c: float
    gamma: float
    residual_theta: float
    residual_x: float
    gap: float
    e_degenerate: complex

    def params(self) -> SystemParams:
        return SystemParams(omega=self.omega_c, j=self.j_c, gamma=self.gamma)


@dataclass(frozen=True)
class EpCurveEntry:
    """One curve sample; point is None when the locator failed (failure says why)."""

    omega: float
    point: EpPoint | None
    failure: str | None = None


def ep_residual(params: SystemParams) -> tuple[float, float]:
    """Certificate pair (residual_theta, residual_x); both vanish exactly at EPs."""
    aux = auxiliary_quantities(params)
    res_theta = aux.theta_y - (np.pi / 3) * np.round(aux.theta_y / (np.pi / 3))
    return float(res_theta), float(aux.x - aux.r**2)


def _degenerate_eigenvalue(params: SystemParams) -> complex:
    """Common eigenvalue at a coalescence, from the real-branch radical."""
    x, z, a = _cubic_data(params)
    rho = np.cbrt(a + _SQ27 * np.sqrt(max(z, 0.0)))
    return complex((params.j - 0.5 * (x / rho + rho)) / 3.0)


def locate_ep(
    fix: str,
    value: float,
    bracket: tuple[float, float],
    gamma: float = 1.0,
) -> EpPoint:
    """Bisect the swept parameter across the phase transition.

    fix="omega" holds omega at `value` and sweeps j over `bracket`
    (fix="j" the other way round).  The bracket ends must lie in different
    phases.  Bisection runs until the bracket collapses to machine
    precision (_BRACKET_TOL is only validated as an upper bound), because
    the gap certificate scales like the square root of the parameter error.
    """
    if fix == "omega":
        make = lambda x: SystemParams(omega=value, j=x, gamma=gamma)
    elif fix == "j":
        make = lambda x: SystemParams(omega=x, j=value, gamma=gamma)
    else:
        raise ValueError(f"fix must be 'omega' or 'j', got {fix!r}")

    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError(f"bracket must satisfy lo < hi, got {bracket}")
    broken = lambda x: _phase_probe(make(x))[2]
    broken_lo, broken_hi = broken(lo), broken(hi)
    if broken_lo == broken_hi:
        raise NoSignChangeError(
            f"both bracket ends are in the same phase at {fix}={value} "
            f"(broken={broken_lo})"
        )
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if broken(mid) == broken_lo:
            lo = mid
        else:
            hi = mid
    if hi - lo > _BRACKET_TOL:
        raise NotConvergedError(
            f"bracket width {hi - lo:.3e} still above tol={_BRACKET_TOL:.1e} "
            f"after {_MAX_BISECTIONS} iterations"
        )

    # report the unbroken-side endpoint, where the pair is exactly real
    found = make(hi if broken_lo else lo)
    res_theta, res_x = ep_residual(found)
    values = eigenvalues_closed_form(found)
    gap = float(abs(values[2] - values[3]))
    point = EpPoint(
        j_c=found.j,
        omega_c=found.omega,
        gamma=found.gamma,
        residual_theta=res_theta,
        residual_x=res_x,
        gap=gap,
        e_degenerate=_degenerate_eigenvalue(found),
    )
    _check_point(point)
    return point


def _check_point(point: EpPoint):
    if (
        abs(point.residual_theta) > 1e-6
        or abs(point.residual_x) > 1e-6
        or point.gap > 1e-6
        or abs(point.e_degenerate.imag) > 1e-8
    ):
        raise NotConvergedError(
            f"EP certificate failed: residual_theta={point.residual_theta:.3e}, "
            f"residual_x={point.residual_x:.3e}, gap={point.gap:.3e}"
        )


def ep_order_is_two(point: EpPoint) -> bool:
    """Exactly one coalescing pair (E3, E4); every other pair stays more than 1e-3 apart."""
    values = eigenvalues_closed_form(point.params())
    e1, e2, e3, e4 = values
    others = [abs(e1 - e2), abs(e1 - e3), abs(e1 - e4), abs(e2 - e3), abs(e2 - e4)]
    return abs(e3 - e4) <= 1e-6 and min(others) > 1e-3


def ep_curve(
    omega_range: tuple[float, float],
    n_points: int,
    gamma: float = 1.0,
    j_bracket: tuple[float, float] = (1e-9, 1.5),
) -> list[EpCurveEntry]:
    """Critical curve j_c(omega) over a monotone omega grid.

    Failed points are reported with a failure marker, never dropped.
    Raises EmptyCurveError when no point in the range brackets a phase
    change.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    omegas = np.linspace(omega_range[0], omega_range[1], n_points)
    entries: list[EpCurveEntry] = []
    for om in omegas:
        try:
            point = locate_ep("omega", float(om), j_bracket, gamma=gamma)
            entries.append(EpCurveEntry(float(om), point))
        except (NoSignChangeError, NotConvergedError, DegenerateCubicError) as exc:
            entries.append(EpCurveEntry(float(om), None, failure=type(exc).__name__))
    if all(entry.point is None for entry in entries):
        raise EmptyCurveError(
            f"no phase change found for omega in {omega_range} with j bracket {j_bracket}"
        )
    return entries


def coalesced_eigenvector(ep: EpPoint) -> np.ndarray:
    """The single eigenvector both branches collapse onto at the EP.

    Built from the degenerate eigenvalue; the quadratic coefficient sits on
    |11> and the unit amplitude on |00> in the fixed basis.
    """
    _check_point_or_raise(ep)
    r1, r2 = _eigvec_coefficients(ep.omega_c, ep.j_c, ep.gamma, ep.e_degenerate)
    vec = np.array([1, r2, r2, r1], dtype=complex)
    return _phase_fix(vec / np.linalg.norm(vec))


def _check_point_or_raise(point: EpPoint):
    try:
        _check_point(point)
    except NotConvergedError as exc:
        raise NotAtEpError(str(exc)) from None
