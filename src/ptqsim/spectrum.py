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
oracle path cross-checks every closed form: the characteristic polynomial by
trace recursion, its roots from one companion-matrix eigvals call
(_poly_roots, np.roots' bits without its per-call overhead), a Newton polish
that skips roots whose p' is at rounding level relative to max|H|**3, and the
null-space eigenvectors of every root group from one stacked SVD.

The scalar kernel _eigenvalues, which the phase label and the EP locator call
once per point, runs in Python floats and complexes (no numpy scalars or
arrays) and gives the bits of the numpy-scalar form that tests keep as its
reference.  The cube roots stay np.cbrt: math.cbrt differs in the last bit.
numpy divides a complex128 by 3 with Smith's algorithm, which multiplies by
1/3, while Python divides truly; _third rounds as numpy does wherever that
form divided a numpy complex: E3 and E4 (their terms carry the cube root of
unity, a numpy scalar there) and E2 on the z < 0 branch where the root was
rotated by it.  Every other E2 is a true division there as here.

A point is solved once: the first _eigenvalues call on a SystemParams instance
stores its (E1, E2, E3, E4) tuple in that instance's attributes, and later calls
on it (the phase label, eigenvalues_closed_form, the eigenpair batch, the EP
probes) return the stored tuple.  The instance is frozen, so the tuple cannot
go stale, and replace() builds a new instance.  The store is keyed by the
instance, never by equality: SystemParams(0.0, -0.0) equals SystemParams(0.0,
0.0) but its E1 = -j has the other sign, and an equality-keyed cache would also
keep every point alive.  Errors are not stored (a NonFiniteError raises again);
eq, hash and repr read only the fields, so the store is invisible to them.

The eigenpair is solved once the same way: the first _eigenpair call on an
instance stores its (eigenvectors, H, max residual), and eigenvectors_closed_form,
spectrum_closed_form (which gives the stored H to the oracle) and the
concurrences built on them (Psi3 and Psi4 of one point) read it.  Callers get
copies of the vectors; the stored arrays are read-only.  An OmegaSingularError
or NearDefectiveError raises again on every call.  Explicit eigenvalues and the
sweep batch bypass the store: a sweep solves each point's eigenvalues once with
_solve_eigenvalues on an unchecked _Point record, and its eigenpairs in one
_closed_form_eigenpairs call on the (3, n) rate array.
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
from .model import SystemParams, _hamiltonians, _Point, build_hamiltonian

_W3 = complex(np.exp(2j * np.pi / 3))  # primitive cube root of unity
_W3C = _W3.conjugate()
_SQ27 = 3.0 * math.sqrt(3.0)

#: Residual tolerance for eigenpairs, relaxed near a coalescence where
#: eigenvector conditioning diverges.  All three are in units of the largest
#: rate above unit scale (_tolerance_scale).
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
    """Cube-root pair (y, v) with y*v = x, on the label-continuous branch, and
    whether y was rotated by the cube root of unity.

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
        return complex(y), complex(v), False
    radicand = complex(a, _SQ27 * math.sqrt(-z))
    y = radicand ** (1.0 / 3.0)
    rotated = radicand.real < 0
    if rotated:
        y = y * _W3
    return y, y.conjugate(), rotated


def _rate_scale(params: SystemParams) -> float:
    """min(1, max(|omega|, |j|, |gamma|)): the unit that absolute thresholds shrink with.

    Every rate-valued quantity (eigenvalues, gaps, max|Im E|) is proportional to
    the largest rate, so a threshold times this factor labels a point the same at
    any scale below 1; at and above unit scale the thresholds stay as they are.
    """
    return min(1.0, max(abs(params.omega), abs(params.j), abs(params.gamma)))


def _rate_scales(rates: np.ndarray) -> np.ndarray:
    """_rate_scale of each point of (3, n) rates."""
    return np.minimum(1.0, np.abs(rates).max(axis=0))


def _tolerance_scale(rates: np.ndarray) -> np.ndarray:
    """max(1, max(|omega|, |j|, |gamma|)) of each point of (3, n) rates.

    Eigenvalues, gaps and the rounding error of ||Hv - Ev|| grow with the
    largest rate, so a residual or gap tolerance times this factor holds at
    any scale above 1; below unit scale the tolerances stay as they are.
    """
    return np.maximum(1.0, np.abs(rates).max(axis=0))


def _third(c: complex) -> complex:
    """c / 3 rounded as numpy's complex128 division rounds it: Smith's algorithm times 1/3."""
    return complex((c.real + c.imag * 0.0) * (1 / 3), (c.imag - c.real * 0.0) * (1 / 3))


#: The private instance attribute under which _eigenvalues keeps a point's tuple.
_MEMO_KEY = "_ptqsim_eigenvalues"


def _eigenvalues(params: SystemParams) -> tuple:
    """Labeled eigenvalues (E1, E2, E3, E4) as Python scalars; E1 = -j exactly.

    Solved once per SystemParams instance by _solve_eigenvalues: the tuple is
    kept on the instance (see the module docstring), and a raised error is not
    kept.  It is read
    with getattr and set with object.__setattr__, as the frozen dataclass's
    own __init__ sets its fields: touching params.__dict__ would make CPython
    build a dict for the instance and slow every later field read.
    """
    values = getattr(params, _MEMO_KEY, None)
    if values is None:
        values = _solve_eigenvalues(params)
        object.__setattr__(params, _MEMO_KEY, values)
    return values


def _solve_eigenvalues(params: SystemParams) -> tuple:
    """The closed-form solve behind _eigenvalues, of anything with omega, j and gamma.

    A sweep calls it on each _Point, which stores nothing.  The invariant z
    scales as the sixth power of the rates and underflows below about 1e-52,
    so rates below 2**-150 are solved at unit scale, by exact power-of-two
    scaling.
    """
    j = params.j
    scale = _rate_scale(params)
    if 0 < scale < 2.0**-150:
        e = math.frexp(scale)[1]
        unit = _Point(*(math.ldexp(r, -e) for r in (params.omega, j, params.gamma)))
        return tuple(complex(math.ldexp(c.real, e), math.ldexp(c.imag, e))
                     for c in _solve_eigenvalues(unit))
    y, v, rotated = _branch_pair(params)
    sum2 = j + v + y
    return (-j, _third(sum2) if rotated else sum2 / 3.0,
            _third(j + _W3C * v + _W3 * y), _third(j + _W3 * v + _W3C * y))


def eigenvalues_closed_form(params: SystemParams) -> np.ndarray:
    """Labeled eigenvalues (E1..E4); E1 = -j exactly, (E3, E4) the coalescing pair."""
    return np.array(_eigenvalues(params), dtype=complex)


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

    eigenvalues, when given, are the point's closed-form E1..E4, shape (4,),
    and the vectors are solved from them; without them they are a copy of
    the instance's stored _eigenpair.  Either way a batch of one of
    _closed_form_eigenpairs: residuals ||Hv - Ev|| are checked against
    RESIDUAL_TOL (relaxed to NEAR_EP_RESIDUAL_TOL when the smallest
    eigenvalue gap is below NEAR_EP_GAP), each times _tolerance_scale.
    """
    if eigenvalues is None:
        return _eigenpair(params)[0].copy()
    return _closed_form_eigenpairs(_rates([params]), np.asarray(eigenvalues)[None])[0][0]


#: The private instance attribute under which _eigenpair keeps a point's eigenpair.
_EIGENPAIR_KEY = "_ptqsim_eigenpair"


def _eigenpair(params: SystemParams) -> tuple:
    """(eigenvectors, H, max residual) of one point: read-only (4, 4) arrays and a float.

    Solved once per SystemParams instance, stored as _eigenvalues stores its
    tuple (see the module docstring); a raised error is not kept.  The
    eigenvalues are solved (or read from the store) first, so a point whose
    cubic invariants overflow raises NonFiniteError ahead of an omega ~ 0 refusal.
    """
    pair = getattr(params, _EIGENPAIR_KEY, None)
    if pair is None:
        values = np.array([_eigenvalues(params)], dtype=complex)
        vecs, h, residuals = _closed_form_eigenpairs(_rates([params]), values)
        vecs, h = vecs[0], h[0]
        vecs.flags.writeable = h.flags.writeable = False
        pair = vecs, h, float(residuals[0])
        object.__setattr__(params, _EIGENPAIR_KEY, pair)
    return pair


def _omega_singular(omega):
    """The one omega ~ 0 decision, elementwise: the (r1, r2) coefficients divide by omega."""
    return abs(omega) <= 1e-12


def _require_omega(params: SystemParams):
    """Raise OmegaSingularError where _omega_singular holds."""
    if _omega_singular(params.omega):
        raise OmegaSingularError(
            f"eigenvector coefficients divide by omega (omega={params.omega}); "
            "use the oracle"
        )


def _rates(points: list[SystemParams]) -> np.ndarray:
    """(omega, j, gamma) of n points as a (3, n) array."""
    return np.array([(p.omega, p.j, p.gamma) for p in points]).T


_SINGLET = np.array([0, -1, 1, 0], dtype=complex) / np.sqrt(2.0)
_EYE = np.eye(4, dtype=complex)


def _closed_form_eigenpairs(rates: np.ndarray, eigenvalues: np.ndarray):
    """(eigenvectors, H, residuals) of n points: shapes (n, 4, 4), (n, 4, 4) and (n,).

    rates are the points' (omega, j, gamma), shape (3, n), and eigenvalues
    their closed-form E1..E4, shape (n, 4).  eigenvectors[i, k] is the unit
    right eigenvector of eigenvalues[i, k] and residuals[i] the largest
    ||Hv - Ev|| of point i.  Raises OmegaSingularError, then
    NearDefectiveError, for the first point that fails.  Every operation is
    elementwise or per point, so a point's bits do not depend on the batch it
    is in.
    """
    for i, omega in enumerate(rates[0].tolist()):  # cheaper than a mask at n = 1
        if _omega_singular(omega):
            _require_omega(_Point(*rates[:, i].tolist()))
    om, j, g = rates[..., None]
    r1, r2 = _eigvec_coefficients(om, j, g, eigenvalues[:, 1:])
    norm = (1 + abs(r1) ** 2 + 2 * abs(r2) ** 2) ** -0.5
    vecs = np.empty((len(eigenvalues), 4, 4), dtype=complex)
    vecs[:, 0] = _SINGLET
    vecs[:, 1:, 0] = norm
    vecs[:, 1:, 1] = vecs[:, 1:, 2] = norm * r2
    vecs[:, 1:, 3] = norm * r1
    vecs[:, 1:] = _phase_fix(vecs[:, 1:])
    h = _hamiltonians(rates)
    residuals = np.linalg.norm(
        vecs @ np.swapaxes(h, -1, -2) - eigenvalues[..., None] * vecs, axis=-1).max(axis=-1)
    unit = _tolerance_scale(rates)
    if (residuals > RESIDUAL_TOL * unit).any():  # no tolerance is below RESIDUAL_TOL
        gaps = _min_gap(eigenvalues)
        tol = np.where(gaps < NEAR_EP_GAP * unit, NEAR_EP_RESIDUAL_TOL, RESIDUAL_TOL) * unit
        failed = residuals > tol
        if failed.any():
            i = int(np.argmax(failed))
            omega, j, gamma = rates[:, i].tolist()
            raise NearDefectiveError(
                f"eigenvector residual {residuals[i]:.3e} exceeds {tol[i]:.0e} at "
                f"omega={omega}, j={j}, gamma={gamma} (min gap {gaps[i]:.3e})"
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
    for k in range(1, 5):
        m = h @ (m + coeff[k - 1] * _EYE)
        coeff[k] = -m.trace() / k
    return coeff


#: The 24 orderings of four labels, in itertools.permutations order.
_PERMS = np.array(list(permutations(range(4))))
#: np.polyder's weights: the derivative of sum_k c[k] x**(4-k) is sum_k (4-k) c[k] x**(3-k).
_DERIVATIVE_WEIGHTS = np.arange(4, 0, -1)


def _poly_roots(p: np.ndarray) -> np.ndarray:
    """Roots of p[0] x**n + ... + p[n], with the bits of np.roots(p).

    The companion matrix np.roots builds, solved by np.linalg.eigvals without
    np.roots' stripping and casting; a zero first or last coefficient goes to
    np.roots, which strips it (a trailing zero is a root at 0).
    """
    if p[0] == 0 or p[-1] == 0:
        return np.roots(p)
    companion = np.eye(len(p) - 1, k=-1, dtype=p.dtype)
    companion[0] = -p[1:] / p[0]
    return np.linalg.eigvals(companion)


def _horner(coeff: np.ndarray, x: np.ndarray) -> np.ndarray:
    """np.polyval(coeff, x) without its wrapper: the same Horner steps from zeros."""
    y = np.zeros(x.shape, dtype=x.dtype)
    for c in coeff:
        y = y * x + c
    return y


def eigensystem_oracle(
    h: np.ndarray, deflate_root: complex | None = None
) -> Spectrum:
    """Independent eigensolve: characteristic quartic + SVD null spaces.

    deflate_root, when given, is divided out synthetically before the
    companion-matrix solve (used for the exactly known singlet root).  Two
    Newton steps polish the other roots; a root whose |p'| is at or below
    max(1e-30, 1e-12 * max|h|**3) is left as the companion solve gave it,
    since a step there (a double root such as the singlet and E2 at
    omega = 0) only amplifies rounding.  With scale = max(1, max|h|), roots
    within 1e-9 * scale form one group, and one SVD of the stacked
    (groups, 4, 4) array h - lam*I gives every group's null vectors.
    Raises NoConvergenceError when residuals stay above tolerance; callers
    may retry with a ~1e-8 perturbation of the matrix.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {h.shape}")
    if not np.isfinite(h.view(float)).all():
        raise ValueError("matrix entries must be finite")
    rate = float(np.abs(h).max())
    scale = max(1.0, rate)

    coeff = _char_poly(h)
    roots = np.empty(4, dtype=complex)
    if deflate_root is not None:
        reduced = np.zeros(4, dtype=complex)
        reduced[0] = coeff[0]
        for i in range(1, 4):
            reduced[i] = coeff[i] + deflate_root * reduced[i - 1]
        roots[0] = deflate_root
        roots[1:] = _poly_roots(reduced)
    else:
        roots[:] = _poly_roots(coeff)

    start = 0 if deflate_root is None else 1  # keep the exact root untouched
    deriv = coeff[:-1] * _DERIVATIVE_WEIGHTS
    # p' at a simple root grows as max|h|**3, below 1 too; at or below 1e-30 it
    # counts as zero at any scale (a product cannot raise OverflowError)
    guard = max(1e-30, 1e-12 * rate * rate * rate)
    x = roots[start:]
    for _ in range(2):  # Newton polish
        dp = _horner(deriv, x)
        ok = np.abs(dp) > guard
        x = np.where(ok, x - _horner(coeff, x) / np.where(ok, dp, 1.0), x)
    roots[start:] = x
    roots = _refine_close_pair(coeff, roots, scale, start)

    values = roots.tolist()
    groups, lams, assigned = [], [], [False] * 4
    for k in range(4):
        if assigned[k]:
            continue
        group = [m for m in range(4) if abs(values[m] - values[k]) <= 1e-9 * scale]
        for m in group:
            assigned[m] = True
        groups.append(group)
        lams.append(roots[group].mean())
    _, sing, vh = np.linalg.svd(h - np.array(lams)[:, None, None] * _EYE)
    null = vh.conj()
    # a repeated eigenvalue may still span several null directions;
    # hand out as many independent ones as are numerically null
    null_dims = (sing <= 1e-7 * scale).sum(axis=1).tolist()
    vecs = np.empty((4, 4), dtype=complex)
    for g, group in enumerate(groups):  # a later group overrides a shared member
        null_dim = max(1, null_dims[g])
        for slot, m in enumerate(group):
            vecs[m] = null[g, -1 - min(slot, null_dim - 1)]
    vecs = _phase_fix(vecs)
    diff = (h @ vecs[:, :, None])[..., 0] - roots[:, None] * vecs
    # the per-row dots are the sum np.linalg.norm takes, so the residual keeps its bits
    worst = float(np.sqrt(np.max([d.real.dot(d.real) + d.imag.dot(d.imag) for d in diff])))

    if worst > 1e-5 * scale:
        raise NoConvergenceError(
            f"oracle residual {worst:.3e} above budget; matrix may be "
            "defective - retry with a 1e-8 perturbation"
        )
    return Spectrum(
        eigenvalues=roots,
        eigenvectors=vecs,
        source=Source.ORACLE,
        max_residual=worst,
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
    values = roots.tolist()
    pairs = [
        (abs(values[i] - values[k]), i, k) for i in range(4) for k in range(i + 1, 4)
    ]
    gap, i, k = min(pairs, key=lambda t: t[0])
    if gap > 1e-6 * scale:
        return roots
    others = [m for m in range(4) if m not in (i, k)]
    if min(abs(values[m] - values[n]) for m in (i, k) for n in others) < 1e-3 * scale:
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


def _pairing_deviations(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max|a[p] - b| for each ordering p of a, in _PERMS order."""
    return np.abs(a[_PERMS] - b).max(axis=1)


def pairing_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Smallest max-deviation between two eigenvalue quadruples over all pairings."""
    return _pairing_deviations(a, b).min()


def spectrum_closed_form(params: SystemParams) -> Spectrum:
    """Closed-form spectrum, cross-checked against the oracle multiset."""
    values = eigenvalues_closed_form(params)
    vecs, h, residual = _eigenpair(params)
    oracle = eigensystem_oracle(h, deflate_root=-params.j)
    dev = pairing_distance(values, oracle.eigenvalues)
    if dev > 1e-9 * _tolerance_scale(_rates([params]))[0]:
        raise NoConvergenceError(f"closed form deviates from oracle by {dev:.3e}")
    return Spectrum(values, vecs.copy(), Source.CLOSED_FORM, residual)


def spectrum_oracle(params: SystemParams) -> Spectrum:
    """Oracle spectrum with labels aligned to the closed-form convention."""
    spec = eigensystem_oracle(build_hamiltonian(params), deflate_root=-params.j)
    reference = eigenvalues_closed_form(params)
    order = _PERMS[_pairing_deviations(spec.eigenvalues, reference).argmin()]
    return Spectrum(
        spec.eigenvalues[order],
        spec.eigenvectors[order],
        Source.ORACLE,
        spec.max_residual,
    )


def _broken(max_imag, scale):
    """PT-broken: max|Im E| above _PHASE_TOL times the rate scale - the one broken decision.

    Elementwise, so max_imag and scale may be floats or arrays.
    """
    return max_imag > _PHASE_TOL * scale


def _near_ep(gap, scale):
    """A real spectrum's smallest gap at or below _NEAR_EP_LABEL_GAP times the rate scale."""
    return gap <= _NEAR_EP_LABEL_GAP * scale


def _phase_probe(values: np.ndarray, scale) -> tuple[np.ndarray, np.ndarray]:
    """(max|Im E|, PT-broken) of closed-form E1..E4 on the last axis.

    scale is each point's _rate_scale: below unit rate scale the threshold
    shrinks with the rates, so the label does not depend on their units.
    """
    max_imag = np.abs(values.imag).max(axis=-1)
    return max_imag, _broken(max_imag, scale)


def _probe_point(params: SystemParams):
    """(E1..E4, rate scale, max|Im E|, PT-broken) of one point: _phase_probe in Python scalars."""
    values, scale = _eigenvalues(params), _rate_scale(params)
    _, e2, e3, e4 = values  # E1 = -j is real
    max_imag = max(abs(e2.imag), abs(e3.imag), abs(e4.imag))
    return values, scale, max_imag, _broken(max_imag, scale)


def classify_phase(params: SystemParams) -> PhaseLabel:
    """Phase from max |Im E|; NEAR_EP when a real spectrum's smallest gap is <= 1e-6.

    Both thresholds are in units of the largest rate below unit scale.  Real
    crossings that are not coalescences (e.g. j = 0, where the singlet meets a
    symmetric-sector root) also report NEAR_EP.
    """
    values, scale, max_imag, broken = _probe_point(params)
    if broken:
        return PhaseLabel(Phase.PT_BROKEN, max_imag)
    e1, e2, e3, e4 = values
    gap = min(abs(e1 - e2), abs(e1 - e3), abs(e1 - e4), abs(e2 - e3), abs(e2 - e4), abs(e3 - e4))
    if _near_ep(gap, scale):
        return PhaseLabel(Phase.NEAR_EP, max_imag)
    return PhaseLabel(Phase.PT_SYMMETRIC, max_imag)
