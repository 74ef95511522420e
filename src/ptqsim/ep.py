"""Exceptional-point location, the critical curve, and the coalesced eigenvector.

E3 and E4 coalesce where the cubic invariant z, a quadratic in j**2, vanishes:
the locator evaluates that root in closed form.  The phase label only checks the
bracket and picks the unbroken side; the radical's residuals certify the point.
Each step runs at unit scale (spectrum._unit_point).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyCurveError,
    NoSignChangeError,
    NotAtEpError,
    NotConvergedError,
)
from .model import SystemParams, _Point
from .spectrum import (
    _at_rates,
    _closed_form_eigenpairs,
    _eigenvalues,
    _probe_point,
    _rates,
    _unit_point,
    auxiliary_quantities,
)


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
    """Certificate pair (residual_theta, residual_x); both vanish exactly at EPs.

    Taken at unit scale (_unit_point); residual_x maps back by 4**E."""
    e, unit = _unit_point(params)
    aux = auxiliary_quantities(unit)
    res_theta = aux.theta_y - (np.pi / 3) * np.round(aux.theta_y / (np.pi / 3))
    return float(res_theta), float(_at_rates(aux.x - aux.r**2, 2 * e, params, "residual_x"))


def _critical_square(fix: str, value: float, gamma: float) -> float:
    """Square of the swept parameter on z = 0 (negative when no real root exists).

    fix="omega": z = 16g^2 J^2 + B J + C in J = j^2, solved without cancellation.  fix="j":
    w = omega^2 - g^2 solves w^3 + J w^2 - 18g^2 J w - (27g^4 + 16g^2 J) J = 0, convex for
    w >= 0 with one positive root, which Newton reaches from above from Fujiwara's bound.
    """
    g2 = gamma * gamma
    if fix == "omega":
        om2 = value * value
        b = 8 * g2 * g2 + 20 * g2 * om2 - om2 * om2
        s = om2 + 8 * g2
        sqrt_d = abs(value) * s * math.sqrt(s)  # sqrt(B^2 - 64g^2 C)
        c = ((abs(gamma) - abs(value)) * (abs(gamma) + abs(value))) ** 3  # C, no cancellation
        return 2 * c / (-b - sqrt_d) if b > 0 else (sqrt_d - b) / (32 * g2)
    jj = value * value
    a, b, c = jj, -18 * g2 * jj, -(27 * g2 * g2 + 16 * g2 * jj) * jj
    w = 2 * max(a, math.sqrt(-b), math.cbrt(-c / 2))
    while (f := ((w + a) * w + b) * w + c) > 0:
        step = w - f / ((3 * w + 2 * a) * w + b)
        if not step < w:
            break
        w = step
    return w + g2


def locate_ep(fix: str, value: float, bracket: tuple[float, float],
              gamma: float = 1.0) -> EpPoint:
    """The root of z = 0 on the swept axis inside `bracket`, in closed form.

    fix="omega" holds omega at `value` and sweeps j over `bracket` (fix="j" the
    other way round).  NoSignChangeError unless the bracket ends lie in different
    phases and the root whose sign fits the bracket lies in it.  A root probed
    broken steps toward the unbroken end, 1, 3, 7, ... ulp; `gap` is the last probe's.
    The root is solved at the unit scale of (value, gamma), the point certified at its own.
    """
    if fix not in ("omega", "j"):
        raise ValueError(f"fix must be 'omega' or 'j', got {fix!r}")
    swept = "j" if fix == "omega" else "omega"
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError(f"bracket must satisfy lo < hi, got {bracket}")

    def probe(x):
        """(point, its E, its unit-scale eigenvalues, PT-broken) at swept = x."""
        found = SystemParams(**{fix: value, swept: x}, gamma=gamma)
        e, values, _, broken = _probe_point(found)
        return found, e, values, broken

    broken_lo = probe(lo)[3]
    if broken_lo == probe(hi)[3]:
        raise NoSignChangeError(f"both bracket ends are in the same phase at "
                                f"{fix}={value} (broken={broken_lo})")
    e, unit = _unit_point(_Point(value, 0.0, gamma))  # the fixed rates' scale
    square = _critical_square(fix, unit.omega, unit.gamma)
    root = math.ldexp(math.sqrt(square), e) if square >= 0 else math.nan
    inside = [x for x in (root, -root) if lo <= x <= hi]
    if not inside:
        raise NoSignChangeError(f"the critical {swept} +-{root} at {fix}={value} "
                                f"lies outside the bracket {lo}:{hi}")
    x, unbroken = inside[0], (hi if broken_lo else lo)
    while True:
        found, e, values, broken = probe(x)
        if not broken or x == unbroken:
            break
        x = float(np.clip(np.nextafter(2 * x - inside[0], unbroken), lo, hi))
    unit = _unit_point(found)[1]
    point = EpPoint(unit.j, unit.omega, unit.gamma, *ep_residual(unit),
                    abs(values[2] - values[3]), 0.5 * (values[2] + values[3]))
    _check_point(point)
    return _at_scale(point, found, e)


def _at_scale(point: EpPoint, params, e: int) -> EpPoint:
    """point at params' rates, its gap and e_degenerate times 2**e and residual_x times 4**e."""
    return EpPoint(params.j, params.omega, params.gamma, point.residual_theta,
                   float(_at_rates(point.residual_x, 2 * e, params, "residual_x")),
                   float(_at_rates(point.gap, e, params, "the gap")),
                   complex(_at_rates(point.e_degenerate, e, params, "e_degenerate")))


def _check_point(point: EpPoint):
    """The EP certificate of a point at unit scale."""
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
    """Exactly one coalescing pair (E3, E4); every other pair stays more than 1e-3 apart
    (at unit scale)."""
    e1, e2, e3, e4 = _eigenvalues(point.params())[1]
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
    try:
        omegas = np.linspace(omega_range[0], omega_range[1], n_points)
    except MemoryError:  # the message names the CLI flag too: ep-curve passes --n through
        raise ValueError(
            f"n_points = {n_points} omegas (--n {n_points}) do not fit in memory") from None
    entries: list[EpCurveEntry] = []
    for om in omegas:
        try:
            point = locate_ep("omega", float(om), j_bracket, gamma=gamma)
            entries.append(EpCurveEntry(float(om), point))
        except (NoSignChangeError, NotConvergedError) as exc:
            entries.append(EpCurveEntry(float(om), None, failure=type(exc).__name__))
    if all(entry.point is None for entry in entries):
        raise EmptyCurveError(
            f"no phase change found for omega in {omega_range} with j bracket {j_bracket}"
        )
    return entries


def coalesced_eigenvector(ep: EpPoint) -> np.ndarray:
    """The single eigenvector both branches collapse onto at the EP: the sector block less
    the degenerate eigenvalue keeps rank 2 there (spectrum._sector_eigenvectors).  The
    point is certified and solved at unit scale; NotAtEpError where it fails."""
    e, unit = _unit_point(ep.params())
    point = _at_scale(ep, unit, -e)
    try:
        _check_point(point)
    except NotConvergedError as exc:
        raise NotAtEpError(str(exc)) from None
    return _closed_form_eigenpairs(_rates([unit]), np.full((1, 4), point.e_degenerate), e)[0][0, 2]
