"""Exceptional-point location, the critical curve, and the coalesced eigenvector.

E3 and E4 coalesce where the cubic invariant z, a quadratic in j**2, vanishes.  Every
decision is an exact sign (spectrum._z_sign): the bracket's phases, the located float
(z <= 0 there, z > 0 at its neighbour toward the broken end), the certificate (that
sign change) and the order (the EP3 iff x = z = 0).  Residuals, gap and degenerate
eigenvalue are reported values, taken at unit scale (spectrum._unit_point).
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCurveError, NoSignChangeError, NotAtEpError
from .model import SystemParams, _Point
from .spectrum import (
    _at_rates,
    _closed_form_eigenpairs,
    _eigenvalues,
    _rates,
    _unit_point,
    _z_sign,
    auxiliary_quantities,
)


@dataclass(frozen=True)
class EpPoint:
    """A located critical pair with its residuals.

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
    """The float in `bracket` on the unbroken side of the exact flip of z's sign.

    fix="omega" holds omega at `value` and sweeps j over `bracket` (fix="j" the
    other way round).  NoSignChangeError unless the bracket ends lie in different
    phases.  The search (_flip) starts from the closed-form root of z = 0, solved at
    the unit scale of (value, gamma).
    """
    if fix not in ("omega", "j"):
        raise ValueError(f"fix must be 'omega' or 'j', got {fix!r}")
    swept = "j" if fix == "omega" else "omega"
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError(f"bracket must satisfy lo < hi, got {bracket}")

    def at(x, point=SystemParams):  # a _Point for the probes between checked ends
        return point(**{fix: value, swept: x}, gamma=gamma)

    broken_lo = _z_sign(at(lo)) > 0
    if broken_lo == (_z_sign(at(hi)) > 0):
        raise NoSignChangeError(f"both bracket ends are in the same phase at "
                                f"{fix}={value} (broken={broken_lo})")
    e, unit = _unit_point(_Point(value, 0.0, gamma))  # the fixed rates' scale
    root = math.ldexp(math.sqrt(max(_critical_square(fix, unit.omega, unit.gamma), 0.0)), e)
    root = math.copysign(root, lo if abs(lo) > abs(hi) else hi)  # the end past +-root
    unbroken, broken = (hi, lo) if broken_lo else (lo, hi)
    k = _flip(lambda n: _z_sign(at(_float(n), _Point)) > 0, _ordinal(unbroken),
              _ordinal(broken), _ordinal(min(max(root, lo), hi)))
    found = at(_float(k))
    e, (_, d3, d4), _ = _eigenvalues(found)
    degenerate = complex(math.ldexp(found.j, -e) + 0.5 * (d3 + d4))  # j + the pair's mean delta
    return EpPoint(found.j, found.omega, found.gamma, *ep_residual(found),
                   _at_rates(abs(d3 - d4), e, found, "the gap"),
                   _at_rates(degenerate, e, found, "e_degenerate"))


def _flip(broken, u: int, b: int, t: int) -> int:
    """The ordinal next to a flip of broken, of broken(u) False and broken(b) True: from t,
    steps of 1, 2, 4, ... toward it until one crosses it, then bisection."""
    step = 1 if u < b else -1
    while abs(b - u) > 1:
        if not min(u, b) < t < max(u, b):  # a step crossed the flip: bisect from here on
            t, step = (u + b) // 2, 0
        if broken(t):
            b, t = t, t - step
        else:
            u, t = t, t + step
        step *= 2
    return u


def _ordinal(x: float) -> int:
    """The float x as an integer that counts floats in order (0.0 and -0.0 are 0)."""
    n = struct.unpack("<Q", struct.pack("<d", x))[0]
    return n if n < 1 << 63 else (1 << 63) - n


def _float(k: int) -> float:
    """The float of ordinal k (_ordinal); 0 is 0.0."""
    return struct.unpack("<d", struct.pack("<Q", k if k >= 0 else (1 << 63) - k))[0]


def _at_flip(params) -> bool:
    """The EP certificate: z <= 0 exactly at params, and z > 0 at a float neighbour of its
    omega or its j."""
    omega, j, gamma = params.omega, params.j, params.gamma
    neighbours = [_Point(math.nextafter(omega, to), j, gamma) for to in (-math.inf, math.inf)]
    neighbours += [_Point(omega, math.nextafter(j, to), gamma) for to in (-math.inf, math.inf)]
    return _z_sign(params) <= 0 and any(_z_sign(p) > 0 for p in neighbours)


def ep_order_is_two(point: EpPoint) -> bool:
    """Order two at every EP but the EP3, where x = z = 0 exactly: x = 0 with j != 0 gives
    z > 0, and at j = 0, z = (gamma^2 - omega^2)^3."""
    return point.j_c != 0 or _z_sign(point.params()) != 0


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
        except NoSignChangeError as exc:
            entries.append(EpCurveEntry(float(om), None, failure=type(exc).__name__))
    if all(entry.point is None for entry in entries):
        raise EmptyCurveError(
            f"no phase change found for omega in {omega_range} with j bracket {j_bracket}"
        )
    return entries


def coalesced_eigenvector(ep: EpPoint) -> np.ndarray:
    """The single eigenvector both branches collapse onto at the EP: the sector block less
    the degenerate eigenvalue, j plus the mean of the pair's deltas, keeps rank 2 there
    (spectrum._sector_eigenvectors).  NotAtEpError unless the point carries the EP
    certificate (_at_flip); solved at unit scale."""
    params = ep.params()
    if not _at_flip(params):
        raise NotAtEpError(f"z changes sign at no float neighbour of omega={ep.omega_c}, "
                           f"j={ep.j_c} (gamma={ep.gamma})")
    e, (_, d3, d4), _ = _eigenvalues(params)
    degenerate = np.full((1, 3), 0.5 * (d3 + d4), dtype=complex)
    return _closed_form_eigenpairs(_rates([_unit_point(params)[1]]), degenerate, e)[0][0, 2]
