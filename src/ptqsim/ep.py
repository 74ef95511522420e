"""Exceptional-point location, the critical curve, and the coalesced eigenvector.

E3 and E4 coalesce where the cubic invariant z, a quadratic in j**2, vanishes:
the locator evaluates that root in closed form.  The phase label only checks the
bracket and picks the unbroken side; the radical's residuals certify the point.
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
from .model import SystemParams
from .spectrum import (
    _eigvec_coefficients,
    _phase_fix,
    _phase_probe,
    _rate_scale,
    auxiliary_quantities,
    eigenvalues_closed_form,
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
    """Certificate pair (residual_theta, residual_x); both vanish exactly at EPs."""
    aux = auxiliary_quantities(params)
    res_theta = aux.theta_y - (np.pi / 3) * np.round(aux.theta_y / (np.pi / 3))
    return float(res_theta), float(aux.x - aux.r**2)


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
    """
    if fix not in ("omega", "j"):
        raise ValueError(f"fix must be 'omega' or 'j', got {fix!r}")
    swept = "j" if fix == "omega" else "omega"
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError(f"bracket must satisfy lo < hi, got {bracket}")

    def probe(x):
        """(point, its eigenvalues, PT-broken) at swept = x."""
        found = SystemParams(**{fix: value, swept: x}, gamma=gamma)
        values = eigenvalues_closed_form(found)
        return found, values, _phase_probe(values, _rate_scale(found))[1]

    broken_lo = probe(lo)[2]
    if broken_lo == probe(hi)[2]:
        raise NoSignChangeError(f"both bracket ends are in the same phase at "
                                f"{fix}={value} (broken={broken_lo})")
    square = _critical_square(fix, value, gamma)
    root = math.sqrt(square) if square >= 0 else math.nan
    inside = [x for x in (root, -root) if lo <= x <= hi]
    if not inside:
        raise NoSignChangeError(f"the critical {swept} +-{root} at {fix}={value} "
                                f"lies outside the bracket {lo}:{hi}")
    x, unbroken = inside[0], (hi if broken_lo else lo)
    while True:
        found, values, broken = probe(x)
        if not broken or x == unbroken:
            break
        x = float(np.clip(np.nextafter(2 * x - inside[0], unbroken), lo, hi))
    res_theta, res_x = ep_residual(found)
    point = EpPoint(
        j_c=found.j, omega_c=found.omega, gamma=found.gamma,
        residual_theta=res_theta, residual_x=res_x,
        gap=float(abs(values[2] - values[3])), e_degenerate=complex(0.5 * (values[2] + values[3])),
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
        except (NoSignChangeError, NotConvergedError) as exc:
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
