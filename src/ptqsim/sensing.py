"""Parameter sensing on the third eigenstate: quantum Fisher information and
the single-qubit coherence error-propagation sensitivity.

Both use the closed-form derivative of Psi3 = N(1, r2, r2, r1): r1 and r2
are explicit in E3, and dE3 is first-order perturbation theory for the
complex-symmetric H, so no step size enters and the Hermitian limit gives
an exact zero.  Points whose smallest eigenvalue gap is below 1e-4 are
refused as too close to an EP.  qfi_from_states keeps the central-difference
form (states phase-aligned by overlap) as an independent reference.

A sweep point costs one closed-form eigensolve: its eigenvalues give the
phase label and Psi3, and one (psi, dpsi) pair gives the QFI, the
coherence and its variance together.  Sweeps mark the phase transition
with spectrum's one phase decision (max |Im E| against its threshold) on
the same closed-form eigenvalues.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    EpTooCloseError,
    NumericalError,
    OmegaSingularError,
    ZeroSlopeError,
)
from .model import SIGMA_X1, SystemParams, as_state, as_unit_state
from .spectrum import (
    _min_gap,
    _phase_probe,
    _require_omega,
    eigenvalues_closed_form,
    eigenvectors_closed_form,
)

KAPPAS = ("j", "omega")
#: Smallest eigenvalue gap at which the derivative of Psi3 is still computed.
_EP_GUARD_GAP = 1e-4


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
    psi = as_unit_state(psi)
    value = np.vdot(psi, SIGMA_X1 @ psi)
    if abs(value.imag) > 1e-12:
        raise NumericalError(f"<sigma_x^1> has imaginary part {value.imag:.3e}")
    return float(value.real)


def _psi3_derivative(
    params: SystemParams, kappa: str, values: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(psi, dpsi): unit Psi3 and its exact kappa-derivative up to a multiple of psi.

    H is complex symmetric, so dE3 = u^T dH u / u^T u for u = (1, r2, r2, r1);
    differentiating r2 = -d/omega and r1 = -2(j+E3)d/omega^2 - 1 with
    d = j - E3 + i*gamma gives du.  The normalization and phase fixing only
    add multiples of psi, which the QFI and the coherence slope ignore.
    values, when given, are the point's closed-form E1..E4.
    """
    if values is None:
        values = eigenvalues_closed_form(params)
    # at omega ~ 0 the singlet and the symmetric sector share E = -j, so the
    # gap guard would name an EP that is not there
    _require_omega(params)
    if _min_gap(values) < _EP_GUARD_GAP:
        raise EpTooCloseError(
            f"eigenvalue gap {_min_gap(values):.3e} below {_EP_GUARD_GAP:.0e}; "
            "derivative ill-defined this close to the EP"
        )
    psi = eigenvectors_closed_form(params, values)[2]
    om, j, e = params.omega, params.j, values[2]
    r2, r1 = psi[1] / psi[0], psi[3] / psi[0]
    d = j - e + 1j * params.gamma
    utu = 1 + 2 * r2 * r2 + r1 * r1
    if kappa == "j":
        de = (1 - 2 * r2 * r2 + r1 * r1) / utu
        dr2 = -(1 - de) / om
        dr1 = -2 * ((1 + de) * d + (j + e) * (1 - de)) / om**2
    else:
        de = 2 * r2 * (1 + r1) / utu
        dr2 = (de + d / om) / om
        dr1 = -2 * (de * d - (j + e) * de) / om**2 + 4 * (j + e) * d / om**3
    return psi, psi[0] * np.array([0, dr2, dr2, dr1])


def _fisher(psi: np.ndarray, dpsi: np.ndarray) -> float:
    return 4.0 * (np.vdot(dpsi, dpsi).real - abs(np.vdot(psi, dpsi)) ** 2)


def _sense_point(
    params: SystemParams, kappa: str, values: np.ndarray | None = None
) -> tuple[float, float, float]:
    """(qfi, m0 = <sigma_x^1>, variance (1 - m0^2)/slope^2) from one (psi, dpsi).

    Raises what _psi3_derivative raises (OmegaSingularError, then
    EpTooCloseError), then ZeroSlopeError when the coherence does not move
    with kappa.
    """
    psi, dpsi = _psi3_derivative(params, kappa, values)
    m0 = coherence_expectation(psi)
    slope = 2.0 * np.vdot(dpsi, SIGMA_X1 @ psi - m0 * psi).real
    if abs(slope) < 1e-12:
        raise ZeroSlopeError(
            f"|d<sigma_x^1>/d{kappa}| = {abs(slope):.3e} < 1e-12; sensitivity undefined"
        )
    return _fisher(psi, dpsi), m0, (1.0 - m0 * m0) / (slope * slope)


def qfi(params: SystemParams, kappa: str) -> float:
    """Fisher information of eigenstate 3 w.r.t. kappa in {"j", "omega"}."""
    _check_kappa(kappa)
    return _fisher(*_psi3_derivative(params, kappa))


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
        p = base.replace(**{kappa: float(x)})
        values = eigenvalues_closed_form(p)
        try:
            f, coh, var = _sense_point(p, kappa, values)
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
        except (EpTooCloseError, ZeroSlopeError, OmegaSingularError) as exc:
            nan = float("nan")
            points.append(
                SensingPoint(kappa, float(x), nan, nan, nan, nan,
                             flag=type(exc).__name__.removesuffix("Error"))
            )
        broken.append(_phase_probe(p, values)[2])

    for i in range(n - 1):
        if broken[i] != broken[i + 1]:
            for k in (i, i + 1):
                if points[k].flag is None:
                    points[k] = replace(points[k], flag="ep_bracket")
    return points
