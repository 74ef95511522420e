"""Parameter sensing on the third eigenstate: quantum Fisher information and
the single-qubit coherence error-propagation sensitivity.

Derivatives are central differences of the phase-fixed eigenvector with a
step-halving agreement check (3 significant digits, up to four halvings).
Differenced vectors are additionally phase-aligned to the center vector by
overlap, which makes the result exactly independent of the deterministic
phase-fixing convention.

Sweeps mark the phase transition with spectrum's one phase decision
(max |Im E| against its threshold, with the label-aligned oracle standing
in where the cubic radical degenerates).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateCubicError,
    EpTooCloseError,
    NoDerivativeConvergenceError,
    NumericalError,
    OmegaSingularError,
    ZeroSlopeError,
)
from .model import SIGMA_X1, SystemParams, as_state, as_unit_state
from .spectrum import _phase_probe, eigenvalues_closed_form, eigenvectors_closed_form

KAPPAS = ("j", "omega")
_RICHARDSON_REL_TOL = 1e-3
_MAX_HALVINGS = 4


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


def _params_at(params: SystemParams, kappa: str, value: float) -> SystemParams:
    return params.replace(j=value) if kappa == "j" else params.replace(omega=value)


def _psi3(params: SystemParams) -> np.ndarray:
    return eigenvectors_closed_form(params)[2]


def _gap34(params: SystemParams) -> float:
    values = eigenvalues_closed_form(params)
    return float(abs(values[2] - values[3]))


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
    psi = as_unit_state(psi)
    value = np.vdot(psi, SIGMA_X1 @ psi)
    if abs(value.imag) > 1e-12:
        raise NumericalError(f"<sigma_x^1> has imaginary part {value.imag:.3e}")
    return float(value.real)


def _guard_gap(params: SystemParams, h: float):
    if _gap34(params) < 10.0 * h:
        raise EpTooCloseError(
            f"eigenvalue gap {_gap34(params):.3e} below 10*h = {10 * h:.1e}; "
            "derivative ill-defined this close to the EP"
        )


def qfi(params: SystemParams, kappa: str, h: float = 1e-5) -> float:
    """Fisher information of eigenstate 3 w.r.t. kappa in {"j", "omega"}."""
    _check_kappa(kappa)
    _guard_gap(params, h)
    x0 = params.j if kappa == "j" else params.omega
    p0 = _psi3(params)

    def value_at(step: float) -> float:
        pm = _psi3(_params_at(params, kappa, x0 - step))
        pp = _psi3(_params_at(params, kappa, x0 + step))
        return qfi_from_states(pm, p0, pp, step)

    return _richardson(value_at, h, "qfi")


def _richardson(value_at, h: float, what: str) -> float:
    for _ in range(_MAX_HALVINGS + 1):
        coarse, fine = value_at(h), value_at(h / 2)
        if abs(coarse - fine) <= _RICHARDSON_REL_TOL * max(abs(fine), 1e-300):
            return fine
        h /= 2
    raise NoDerivativeConvergenceError(
        f"{what} finite difference did not stabilize to 3 significant digits "
        f"(last pair {coarse:.6g} / {fine:.6g})"
    )


def sensitivity_variance(params: SystemParams, kappa: str, h: float = 1e-5) -> float:
    """Error-propagation variance (delta kappa)^2 of the coherence measurement."""
    _check_kappa(kappa)
    _guard_gap(params, h)
    x0 = params.j if kappa == "j" else params.omega
    m0 = coherence_expectation(_psi3(params))

    def slope_at(step: float) -> float:
        mm = coherence_expectation(_psi3(_params_at(params, kappa, x0 - step)))
        mp = coherence_expectation(_psi3(_params_at(params, kappa, x0 + step)))
        return (mp - mm) / (2.0 * step)

    slope = _richardson(slope_at, h, "coherence slope")
    if abs(slope) < 1e-12:
        raise ZeroSlopeError(
            f"|d<sigma_x^1>/d{kappa}| = {abs(slope):.3e} < 1e-12; sensitivity undefined"
        )
    return (1.0 - m0 * m0) / (slope * slope)


def sensing_sweep(
    kappa: str,
    fixed_value: float,
    value_range: tuple[float, float],
    n: int,
    gamma: float = 1.0,
    h: float = 1e-5,
) -> list[SensingPoint]:
    """Ordered grid of sensing points over kappa; failures become flags, not gaps.

    Points whose computation raises near the EP are emitted with NaN
    payloads and the error name; additionally the pair of grid points
    bracketing a detected phase transition is flagged "ep_bracket" (their
    values are kept), so exported data marks the divergence location
    honestly without storing infinities.
    """
    _check_kappa(kappa)
    if n < 2:
        raise ValueError("n must be >= 2")
    if kappa == "j":
        base = SystemParams(omega=fixed_value, j=0.0, gamma=gamma)
    else:
        base = SystemParams(omega=1.0, j=fixed_value, gamma=gamma)
    grid = np.linspace(value_range[0], value_range[1], n)

    points: list[SensingPoint] = []
    broken: list[bool] = []
    for x in grid:
        p = _params_at(base, kappa, float(x))
        broken.append(_phase_probe(p)[2])
        try:
            f = qfi(p, kappa, h)
            var = sensitivity_variance(p, kappa, h)
            coh = coherence_expectation(_psi3(p))
            points.append(
                SensingPoint(
                    kappa=kappa,
                    value=float(x),
                    qfi=f,
                    variance_sq=var,
                    coherence=coh,
                    cr_bound=1.0 / np.sqrt(f),
                )
            )
        except (
            EpTooCloseError,
            NoDerivativeConvergenceError,
            ZeroSlopeError,
            OmegaSingularError,
            DegenerateCubicError,
        ) as exc:
            nan = float("nan")
            points.append(
                SensingPoint(kappa, float(x), nan, nan, nan, nan,
                             flag=type(exc).__name__.removesuffix("Error"))
            )

    for i in range(n - 1):
        if broken[i] != broken[i + 1]:
            for k in (i, i + 1):
                if points[k].flag is None:
                    points[k] = replace(points[k], flag="ep_bracket")
    return points
