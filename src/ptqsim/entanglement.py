"""Two-qubit concurrence: general Wootters form, pure-state shortcut, and the
radical-coefficient closed form for the symmetric-sector eigenstates.

The Wootters form takes its lambdas as singular values (concurrence_mixed),
not as square roots of a characteristic polynomial's roots.

The closed form is kept verbatim for cross-checking but is *not*
authoritative: it disagrees with the Wootters value away from the
Hermitian limit (its second root is identically zero), so any mismatch is
surfaced as data via DiscrepancyError / scan_closed_form_discrepancies.
"""
from __future__ import annotations

import numpy as np

from .errors import DiscrepancyError, InvalidDensityError, OmegaSingularError
from .model import SIGMA_YY, SystemParams, as_unit_state
from .spectrum import _EPS, _eigenvalues, _unit_point, eigenvectors_closed_form


def _validate_density(rho: np.ndarray) -> tuple:
    """Check rho and return its eigh decomposition (eigenvalues, eigenvectors as columns)."""
    if rho.shape != (4, 4):
        raise InvalidDensityError(f"expected 4x4, got {rho.shape}")
    if not np.isfinite(rho).all():
        raise InvalidDensityError("non-finite entry (NaN or inf)")
    if np.abs(rho - rho.conj().T).max() > 1e-10:
        raise InvalidDensityError("not Hermitian within 1e-10")
    trace = rho.trace()
    if abs(trace - 1) > 1e-10:
        raise InvalidDensityError(f"trace {trace} != 1 within 1e-10")
    weights, vecs = np.linalg.eigh(rho)
    if weights[0] < -1e-10:
        raise InvalidDensityError("negative eigenvalue below -1e-10 floor")
    return weights, vecs


def concurrence_mixed(rho) -> float:
    """Wootters concurrence of a validated two-qubit density matrix.

    With rho = W W^dagger, W = V sqrt(max(d, 0)) from rho's eigh, Wootters'
    lambda_i (the square roots of the eigenvalues of rho (sy x sy) conj(rho)
    (sy x sy)) are the singular values of tau = W^T (sy x sy) W.  No square
    root of a rounding-level eigenvalue of rho rho~ is taken, so a
    rank-deficient rho loses no digits; rho's own weights within 4 eps of zero
    (relative to the largest) are set to zero, since eigh cannot tell them
    from it.
    """
    rho = np.asarray(rho, dtype=complex)
    weights, vecs = _validate_density(rho)
    weights[weights <= 4 * _EPS * weights[-1]] = 0.0  # zero within eigh's rounding
    w = vecs * np.sqrt(weights)
    r0, r1, r2, r3 = np.linalg.svd(w.T @ SIGMA_YY @ w, compute_uv=False).tolist()
    return min(1.0, max(0.0, r0 - r1 - r2 - r3))


def concurrence_pure(psi) -> float:
    """Concurrence of a unit state via the spin-flip overlap |<psi|sy x sy|psi*>|."""
    psi = as_unit_state(psi)
    return float(min(1.0, 2.0 * abs(psi[1] * psi[2] - psi[0] * psi[3])))


def _radical_coefficients(params: SystemParams, s: int):
    """(r1, r2, |N|^2) of the paper's radical form N(1, r2, r2, r1) of eigenstate s in {3, 4}:
    r2 = -d/omega, r1 = -2(2j + delta)d/omega^2 - 1, d = i*gamma - delta (delta = E - j), at
    unit scale (spectrum._unit_point), where |omega| <= 1e-12 raises OmegaSingularError."""
    if s not in (3, 4):
        raise ValueError(f"s must be 3 or 4, got {s}")
    unit = _unit_point(params)[1]
    omega, j = unit.omega, unit.j
    if abs(omega) <= 1e-12:
        raise OmegaSingularError(
            f"the radical coefficients divide by omega (omega={params.omega})")
    delta = np.complex128(_eigenvalues(params)[1][s - 2])
    d = 1j * unit.gamma - delta
    r1, r2 = -2 * (2 * j + delta) * d / omega**2 - 1, -d / omega
    n2 = 1.0 / (1 + abs(r1) ** 2 + 2 * abs(r2) ** 2)  # |N|^2
    return r1, r2, n2


def eigenstate_concurrence_closed(
    params: SystemParams, s: int, check: bool = True
) -> float:
    """Closed-form concurrence of eigenstate s in {3, 4} from the R coefficients.

    check=True compares against concurrence_pure of the same eigenvector and
    raises DiscrepancyError beyond 1e-6 - the Wootters path is authoritative,
    mismatches are reported, never silently overridden.
    """
    r1, r2, n2 = _radical_coefficients(params, s)
    a = 2 * r1.real - 2 * abs(r2) ** 2
    b = -a
    common = (2 * r1.real) ** 2 + 2 * b * abs(r2) ** 2 - 4 * abs(r2) ** 2 * r1.real
    lam1 = 0.5 * n2**2 * (common + a * a)
    lam2 = 0.5 * n2**2 * (common - a * a)
    value = float(np.sqrt(max(lam1, 0.0)) - np.sqrt(max(lam2, 0.0)))
    if check:
        reference = eigenstate_concurrence_wootters(params, s)
        if abs(value - reference) > 1e-6:
            raise DiscrepancyError(
                f"closed form {value:.9f} vs Wootters {reference:.9f} at "
                f"omega={params.omega}, j={params.j}, s={s}",
                closed=value,
                wootters=reference,
            )
    return value


def eigenstate_concurrence_wootters(params: SystemParams, s: int) -> float:
    """Authoritative eigenstate concurrence: Wootters form on the unit eigenvector."""
    if s not in (1, 2, 3, 4):
        raise ValueError(f"s must be in 1..4, got {s}")
    vec = eigenvectors_closed_form(params)[s - 1]
    return concurrence_pure(vec)


def scan_closed_form_discrepancies(points) -> list[dict]:
    """Closed-form vs Wootters table over parameter points; one record per (point, s in 3, 4)."""
    records = []
    for params in points:
        for s in (3, 4):
            closed = eigenstate_concurrence_closed(params, s, check=False)
            wootters = eigenstate_concurrence_wootters(params, s)
            records.append(
                {
                    "omega": params.omega,
                    "j": params.j,
                    "gamma": params.gamma,
                    "s": s,
                    "closed": closed,
                    "wootters": wootters,
                    "abs_diff": abs(closed - wootters),
                }
            )
    return records
