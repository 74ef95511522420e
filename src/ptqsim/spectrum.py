"""Eigensystem of the two-qubit Hamiltonian: closed forms and an oracle.

The characteristic quartic factors into the exact singlet root E1 = -j and
a cubic for the exchange-symmetric sector, solved here in radicals.  The
cube-root branch is fixed so that

* labels E3/E4 always name the pair that coalesces on the critical curve
  (E2 stays separated), continuously across the phase transition;
* eigenvalues are produced as exact conjugate pairs / exact reals, so the
  unbroken phase has max|Im E| == 0 in floating point.

The closed form holds at every finite point, the third-order point
x = z = 0 included (its cube-root pair is 0, a triple root).  An independent
oracle path (characteristic polynomial by trace recursion, companion-matrix
roots, SVD null-space eigenvectors) cross-checks every closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import permutations

import numpy as np

from .errors import (
    NearDefectiveError,
    NoConvergenceError,
    NonFiniteError,
    OmegaSingularError,
)
from .model import SystemParams, build_hamiltonian

_W3 = np.exp(2j * np.pi / 3)  # primitive cube root of unity
_W3C = _W3.conjugate()
_SQ27 = 3.0 * np.sqrt(3.0)

#: Residual tolerance for eigenpairs, relaxed near a coalescence where
#: eigenvector conditioning diverges.
RESIDUAL_TOL = 1e-9
NEAR_EP_GAP = 1e-4
NEAR_EP_RESIDUAL_TOL = 1e-6
#: max|Im E| above which a spectrum is labeled PT-broken.
_PHASE_TOL = 1e-8
#: Smallest gap at or below which a real spectrum is labeled NEAR_EP.
_NEAR_EP_LABEL_GAP = 1e-6


class Source(Enum):
    CLOSED_FORM = "closed-form"
    ORACLE = "oracle"


class Phase(Enum):
    PT_SYMMETRIC = "pt-symmetric"
    PT_BROKEN = "pt-broken"
    NEAR_EP = "near-ep"


@dataclass(frozen=True)
class Auxiliaries:
    """Cubic invariants (x, z) and the principal cube root y = r*exp(i*theta_y)."""

    x: float
    z: float
    y: complex
    r: float
    theta_y: float


@dataclass(frozen=True)
class PhaseLabel:
    phase: Phase
    max_imag: float


@dataclass(frozen=True)
class Spectrum:
    """Labeled eigenpairs; eigenvectors[k] is the unit right eigenvector of eigenvalues[k]."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    source: Source
    max_residual: float


def _cubic_data(params: SystemParams):
    """(x, z, a) with a the real part of the cubed radical.

    Raises NonFiniteError when they leave the float range (float powers
    raise OverflowError, products silently become inf).
    """
    try:
        om2, j, g2 = params.omega**2, params.j, params.gamma**2
        x = 4 * j * j + 3 * om2 - 3 * g2
        z = 16 * j**4 * g2 + j * j * (8 * g2 * g2 + 20 * g2 * om2 - om2 * om2) + (g2 - om2) ** 3
        a = -8 * j**3 - 9 * j * (om2 + 2 * g2)
        if math.isfinite(x) and math.isfinite(z) and math.isfinite(a):
            return x, z, a
    except OverflowError:
        pass
    raise NonFiniteError(
        f"cubic invariants overflow at omega={params.omega}, j={params.j}, "
        f"gamma={params.gamma}"
    )


def auxiliary_quantities(params: SystemParams) -> Auxiliaries:
    """Cubic invariants with the principal-branch cube root.

    For z < 0 the square root is taken as +i*sqrt(|z|) and y is the
    principal cube root of the resulting complex radicand.
    """
    x, z, a = _cubic_data(params)
    radicand = a + _SQ27 * np.sqrt(complex(z))
    y = radicand ** (1.0 / 3.0)
    return Auxiliaries(x=x, z=z, y=y, r=abs(y), theta_y=float(np.angle(y)))


def _branch_pair(params: SystemParams):
    """Cube-root pair (y, v) with y*v = x, on the label-continuous branch.

    z >= 0: both radicands a +- sqrt(27z) are real, and the one whose terms
    have opposite signs cancels; its root is taken as x over the other's,
    since x^3 = a^2 - 27z = (a + sqrt(27z))(a - sqrt(27z)).  At a = 0 neither
    cancels and both real cube roots are used.
    z < 0: |y|^2 = x there, so v is exactly conj(y); the principal root is
    rotated onto the continuation of the negative-real branch when the
    radicand has negative real part.
    """
    x, z, a = _cubic_data(params)
    if z >= 0:
        s = _SQ27 * math.sqrt(z)
        y, v = np.cbrt(a + s), np.cbrt(a - s)
        if a < 0:
            y = x / v
        elif a > 0:
            v = x / y
        y, v = complex(y), complex(v)
    else:
        radicand = complex(a, _SQ27 * math.sqrt(-z))
        y = radicand ** (1.0 / 3.0)
        if radicand.real < 0:
            y = y * _W3
        v = y.conjugate()
    return y, v


def _rate_scale(params: SystemParams) -> float:
    """min(1, max(|omega|, |j|, |gamma|)): the unit that absolute thresholds shrink with.

    Every rate-valued quantity (eigenvalues, gaps, max|Im E|) is proportional to
    the largest rate, so a threshold times this factor labels a point the same at
    any scale below 1; at and above unit scale the thresholds stay as they are.
    """
    return min(1.0, max(abs(params.omega), abs(params.j), abs(params.gamma)))


def eigenvalues_closed_form(params: SystemParams) -> np.ndarray:
    """Labeled eigenvalues (E1..E4); E1 = -j exactly, (E3, E4) the coalescing pair.

    The invariant z scales as the sixth power of the rates and underflows
    below about 1e-52, so rates below 2**-150 are solved at unit scale, by
    exact power-of-two scaling.
    """
    j = params.j
    scale = _rate_scale(params)
    if 0 < scale < 2.0**-150:
        e = math.frexp(scale)[1]
        unit = SystemParams(*(math.ldexp(r, -e) for r in (params.omega, j, params.gamma)))
        values = eigenvalues_closed_form(unit)
        values.real, values.imag = np.ldexp(values.real, e), np.ldexp(values.imag, e)
        return values
    y, v = _branch_pair(params)
    e2 = (j + v + y) / 3.0
    e3 = (j + _W3C * v + _W3 * y) / 3.0
    e4 = (j + _W3 * v + _W3C * y) / 3.0
    return np.array([-j, e2, e3, e4], dtype=complex)


def _phase_fix(vecs: np.ndarray) -> np.ndarray:
    """Make each vector's largest-magnitude amplitude real-positive (last axis).

    Magnitude ties resolve toward the higher index, which keeps the
    canonical singlet sign pattern (0, -1, 1, 0)/sqrt(2).
    """
    m = vecs.shape[-1]
    rows = vecs.reshape(-1, m)
    pivot = rows[np.arange(len(rows)), m - 1 - np.abs(rows[:, ::-1]).argmax(axis=1)]
    return vecs * (np.abs(pivot) / pivot).reshape(vecs.shape[:-1] + (1,))


def _eigvec_coefficients(omega, j, gamma, e):
    """(r1, r2) of the symmetric-sector eigenvector N(1, r2, r2, r1) of eigenvalue e.

    The unit amplitude sits on |00> and the quadratic coefficient r1 on |11>.
    Elementwise, so the arguments may be broadcastable arrays.
    """
    d = j - e + 1j * gamma
    return -2 * (j + e) * d / omega**2 - 1, -d / omega


def eigenvectors_closed_form(
    params: SystemParams, eigenvalues: np.ndarray | None = None
) -> np.ndarray:
    """Unit right eigenvectors as the rows of a (4, 4) array, phase-fixed; Psi1 is the singlet.

    eigenvalues, when given, are the point's closed-form E1..E4, shape (4,).
    A batch of one of _closed_form_eigenpairs: residuals ||Hv - Ev|| are
    checked against RESIDUAL_TOL (relaxed to NEAR_EP_RESIDUAL_TOL when the
    smallest eigenvalue gap is below NEAR_EP_GAP).
    """
    values = None if eigenvalues is None else np.asarray(eigenvalues)[None]
    return _closed_form_eigenpairs([params], values)[0][0]


def _require_omega(params: SystemParams):
    """The one omega ~ 0 decision: the (r1, r2) coefficients divide by omega."""
    if abs(params.omega) <= 1e-12:
        raise OmegaSingularError(
            f"eigenvector coefficients divide by omega (omega={params.omega}); "
            "use the oracle"
        )


def _rates(points: list[SystemParams]) -> np.ndarray:
    """(omega, j, gamma) of n points as a (3, n) array."""
    return np.array([(p.omega, p.j, p.gamma) for p in points]).T


_SINGLET = np.array([0, -1, 1, 0], dtype=complex) / np.sqrt(2.0)


def _closed_form_eigenpairs(points: list[SystemParams], eigenvalues: np.ndarray | None = None):
    """(eigenvectors, H, residuals) of n points: shapes (n, 4, 4), (n, 4, 4) and (n,).

    eigenvalues are the points' closed-form E1..E4, shape (n, 4); when None
    they are solved here.  eigenvectors[i, k] is the unit right eigenvector of
    eigenvalues[i, k] and residuals[i] the largest ||Hv - Ev|| of point i.
    Raises OmegaSingularError, then NearDefectiveError, for the first point
    that fails.  Every operation is elementwise or per point, so a point's
    bits do not depend on the batch it is in.
    """
    for p in points:
        _require_omega(p)
    if eigenvalues is None:
        eigenvalues = np.array([eigenvalues_closed_form(p) for p in points])
    om, j, g = _rates(points)[..., None]
    r1, r2 = _eigvec_coefficients(om, j, g, eigenvalues[:, 1:])
    norm = (1 + abs(r1) ** 2 + 2 * abs(r2) ** 2) ** -0.5
    vecs = np.empty((len(points), 4, 4), dtype=complex)
    vecs[:, 0] = _SINGLET
    vecs[:, 1:, 0] = norm
    vecs[:, 1:, 1] = vecs[:, 1:, 2] = norm * r2
    vecs[:, 1:, 3] = norm * r1
    vecs[:, 1:] = _phase_fix(vecs[:, 1:])
    h = np.array([build_hamiltonian(p) for p in points])
    residuals = np.linalg.norm(
        vecs @ np.swapaxes(h, -1, -2) - eigenvalues[..., None] * vecs, axis=-1).max(axis=-1)
    if (residuals > RESIDUAL_TOL).any():  # no tolerance is below RESIDUAL_TOL
        gaps = _min_gap(eigenvalues)
        tol = np.where(gaps < NEAR_EP_GAP, NEAR_EP_RESIDUAL_TOL, RESIDUAL_TOL)
        failed = residuals > tol
        if failed.any():
            i = int(np.argmax(failed))
            p = points[i]
            raise NearDefectiveError(
                f"eigenvector residual {residuals[i]:.3e} exceeds {tol[i]:.0e} at "
                f"omega={p.omega}, j={p.j}, gamma={p.gamma} (min gap {gaps[i]:.3e})"
            )
    return vecs, h, residuals


#: The six index pairs (i, k), i < k, of four eigenvalues: the i's, then the k's.
_PAIRS = np.concatenate(np.triu_indices(4, 1))


def _min_gap(values: np.ndarray) -> np.ndarray:
    """Smallest |E_i - E_k| over the last axis of (..., 4) eigenvalues."""
    ends = values[..., _PAIRS]
    return np.abs(ends[..., :6] - ends[..., 6:]).min(axis=-1)


def _char_poly(h: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial coefficients via the trace recursion."""
    coeff = np.zeros(5, dtype=complex)
    coeff[0] = 1.0
    m = np.zeros_like(h)
    eye = np.eye(4, dtype=complex)
    for k in range(1, 5):
        m = h @ (m + coeff[k - 1] * eye)
        coeff[k] = -np.trace(m) / k
    return coeff


def eigensystem_oracle(
    h: np.ndarray, deflate_root: complex | None = None
) -> Spectrum:
    """Independent eigensolve: characteristic quartic + SVD null spaces.

    deflate_root, when given, is divided out synthetically before the
    companion-matrix solve (used for the exactly known singlet root).
    Raises NoConvergenceError when residuals stay above tolerance; callers
    may retry with a ~1e-8 perturbation of the matrix.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h.view(float))):
        raise ValueError("matrix entries must be finite")

    coeff = _char_poly(h)
    if deflate_root is not None:
        reduced = np.zeros(4, dtype=complex)
        reduced[0] = coeff[0]
        for i in range(1, 4):
            reduced[i] = coeff[i] + deflate_root * reduced[i - 1]
        roots = np.concatenate([[complex(deflate_root)], np.roots(reduced)]).astype(complex)
    else:
        roots = np.roots(coeff).astype(complex)

    deriv = np.polyder(coeff)
    start = 0 if deflate_root is None else 1  # keep the exact root untouched
    for _ in range(2):  # Newton polish
        dp = np.polyval(deriv, roots[start:])
        ok = np.abs(dp) > 1e-30
        roots[start:] = np.where(
            ok, roots[start:] - np.polyval(coeff, roots[start:]) / np.where(ok, dp, 1.0), roots[start:]
        )

    scale = max(1.0, float(np.max(np.abs(h))))
    roots = _refine_close_pair(coeff, roots, scale, start)

    eye = np.eye(4, dtype=complex)
    vecs = np.zeros((4, 4), dtype=complex)
    assigned = np.zeros(4, dtype=bool)
    for k in range(4):
        if assigned[k]:
            continue
        group = [m for m in range(4) if abs(roots[m] - roots[k]) <= 1e-9 * scale]
        lam = roots[group].mean()
        _, sing, vh = np.linalg.svd(h - lam * eye)
        # a repeated eigenvalue may still span several null directions;
        # hand out as many independent ones as are numerically null
        null_dim = max(1, int(np.sum(sing <= 1e-7 * scale)))
        for slot, m in enumerate(group):
            vecs[m] = vh[-1 - min(slot, null_dim - 1)].conj()
            assigned[m] = True
    vecs = _phase_fix(vecs)
    residuals = np.array([np.linalg.norm(h @ vec - root * vec) for vec, root in zip(vecs, roots)])

    if residuals.max() > 1e-5 * scale:
        raise NoConvergenceError(
            f"oracle residual {residuals.max():.3e} above budget; matrix may be "
            "defective - retry with a 1e-8 perturbation"
        )
    return Spectrum(
        eigenvalues=roots,
        eigenvectors=vecs,
        source=Source.ORACLE,
        max_residual=float(residuals.max()),
    )


def _refine_close_pair(
    coeff: np.ndarray, roots: np.ndarray, scale: float, start: int
) -> np.ndarray:
    """Re-solve the closest root pair from a deflated quadratic.

    Companion/Newton accuracy degrades to ~sqrt(eps) on (nearly) repeated
    roots; dividing out the two well-separated roots and solving the
    remaining quadratic in closed form restores full precision for the
    cluster (the usual double-eigenvalue case, e.g. a coalescing pair).
    roots[:start] are exact (start = 1 for the deflated root).  When the
    exact root is in the pair it stays, and its partner is its reflection
    through the pair's mean, so a near pair (the singlet and E2 at small
    omega) is not merged.
    """
    pairs = [
        (abs(roots[i] - roots[k]), i, k) for i in range(4) for k in range(i + 1, 4)
    ]
    gap, i, k = min(pairs, key=lambda t: t[0])
    if gap > 1e-6 * scale:
        return roots
    others = [m for m in range(4) if m not in (i, k)]
    if min(abs(roots[m] - roots[n]) for m in (i, k) for n in others) < 1e-3 * scale:
        return roots  # three-way cluster: leave to the caller's tolerance
    poly = coeff
    for m in others:  # synthetic division by the accurate simple roots
        out = np.empty(len(poly) - 1, dtype=complex)
        out[0] = poly[0]
        for q in range(1, len(out)):
            out[q] = poly[q] + roots[m] * out[q - 1]
        poly = out
    b, c = poly[1], poly[2]
    refined = roots.copy()
    mean = -0.5 * b  # a Newton sum, fully conditioned
    if i < start:
        refined[k] = mean + (mean - roots[0])
        return refined
    disc_sq = b * b - 4.0 * c
    if abs(disc_sq) <= 1e-12 * max(1.0, abs(b) ** 2, abs(c)):
        # at coefficient noise level the pair is a genuine double root
        refined[i] = refined[k] = mean
        return refined
    disc = np.sqrt(disc_sq)
    if abs(-b + disc) < abs(-b - disc):
        disc = -disc
    r_big = 0.5 * (-b + disc)
    r_small = c / r_big if r_big != 0 else 0.5 * (-b - disc)
    refined[i], refined[k] = r_big, r_small
    return refined


def pairing_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Smallest max-deviation between two eigenvalue quadruples over all pairings."""
    return min(max(abs(a[list(p)] - b)) for p in permutations(range(4)))


def spectrum_closed_form(params: SystemParams) -> Spectrum:
    """Closed-form spectrum, cross-checked against the oracle multiset."""
    values = eigenvalues_closed_form(params)
    vecs, h, residuals = _closed_form_eigenpairs([params], values[None])
    oracle = eigensystem_oracle(h[0], deflate_root=-params.j)
    dev = pairing_distance(values, oracle.eigenvalues)
    if dev > 1e-9:
        raise NoConvergenceError(f"closed form deviates from oracle by {dev:.3e}")
    return Spectrum(values, vecs[0], Source.CLOSED_FORM, float(residuals[0]))


def spectrum_oracle(params: SystemParams) -> Spectrum:
    """Oracle spectrum with labels aligned to the closed-form convention."""
    spec = eigensystem_oracle(build_hamiltonian(params), deflate_root=-params.j)
    reference = eigenvalues_closed_form(params)
    order = list(min(
        permutations(range(4)),
        key=lambda p: max(abs(spec.eigenvalues[list(p)] - reference)),
    ))
    return Spectrum(
        spec.eigenvalues[order],
        spec.eigenvectors[order],
        Source.ORACLE,
        spec.max_residual,
    )


def _phase_probe(values: np.ndarray, scale) -> tuple[np.ndarray, np.ndarray]:
    """(max|Im E|, PT-broken) of closed-form E1..E4 on the last axis - the one phase decision.

    scale is each point's _rate_scale: below unit rate scale the threshold
    shrinks with the rates, so the label does not depend on their units.
    """
    max_imag = np.abs(values.imag).max(axis=-1)
    return max_imag, max_imag > _PHASE_TOL * scale


def classify_phase(params: SystemParams) -> PhaseLabel:
    """Phase from max |Im E|; NEAR_EP when a real spectrum's smallest gap is <= 1e-6.

    Both thresholds are in units of the largest rate below unit scale.  Real
    crossings that are not coalescences (e.g. j = 0, where the singlet meets a
    symmetric-sector root) also report NEAR_EP.
    """
    values, scale = eigenvalues_closed_form(params), _rate_scale(params)
    max_imag, broken = _phase_probe(values, scale)
    if broken:
        return PhaseLabel(Phase.PT_BROKEN, float(max_imag))
    if _min_gap(values) <= _NEAR_EP_LABEL_GAP * scale:
        return PhaseLabel(Phase.NEAR_EP, float(max_imag))
    return PhaseLabel(Phase.PT_SYMMETRIC, float(max_imag))
