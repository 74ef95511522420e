"""Eigensystem of the two-qubit Hamiltonian: closed forms and an oracle.

The characteristic quartic factors into the exact singlet root E1 = -j and
a cubic for the exchange-symmetric sector, whose roots have one format here,
delta = E - j, solved in real floats by _solve_eigenvalues (which says how).
The labels are fixed so that

* labels E3/E4 always name the pair that coalesces on the critical curve
  (E2 stays separated), continuously across the phase transition;
* eigenvalues are produced as exact conjugate pairs / exact reals, so the
  unbroken phase has max|Im E| == 0 in floating point.

The vectors read delta too, so no j - E cancels: where omega, gamma << j, E3
and E4 round to j while their deltas resolve the pair.  E = j + delta is
formed only where an eigenvalue is output.

The closed form holds at every finite point, the third-order point
x = z = 0 included (a triple root).  An independent
oracle, eigensystem_oracle, takes the eigenpairs from one LAPACK eig call of H
and merges roots that rounding split (_oracle_roots); spectrum_closed_form
cross-checks the closed form against its roots.

The phase is the exact sign of z (_z_sign): the cubic's discriminant is -4z, so
z > 0 is PT-broken, z < 0 PT-symmetric and z = 0 an EP.  The solve's float z
decides outside a static error bound, the rates' exact rationals inside it.

The spectrum scales exactly with the rates, so every kernel solves at one unit
scale: _unit_point takes a point to its rates times 2**-E, E the even exponent
that puts the largest rate in [1, 4) (0 where H = 0), every decision and
tolerance applies there, and _at_rates maps the outputs back by ldexp (only an
output that leaves the float range is refused).  A point in the window (every
preset point) passes unchanged, and rates times 4**k give outputs times 4**k.

A point is solved once: the first _eigenvalues call on a SystemParams instance
stores its exponent E, unit-scale (delta2, delta3, delta4) and float z in that
instance's attributes, and later calls on it return them.  The instance is frozen, so they
cannot go stale, and replace() builds a new instance.  The store is keyed by the
instance, never by equality: SystemParams(0.0, -0.0)
equals SystemParams(0.0, 0.0) but its E1 = -j has the other sign, and an
equality-keyed cache would also keep every point alive.  The unit-scale solve
never fails, so every point is stored; an output that overflows when mapped
back raises NonFiniteError again on every call.  eq, hash and repr read only
the fields, so the store is invisible to them.

The eigenpair is solved once the same way: the first _eigenpair call on an
instance stores its (eigenvectors, max residual), and eigenvectors_closed_form,
spectrum_closed_form and the concurrences built on them (Psi3 and Psi4 of one
point) read it.  Callers get copies of the vectors; the stored array is
read-only.  A NearDefectiveError raises again on every call.  Explicit
eigenvalues and the grids bypass the store: every sweep (sensing_sweep, and the
CLI's fig2, fig3 and concurrence command) solves its grid with _solve_grid, each
point's deltas and z once, and its eigenpairs, where it needs them, in one
_closed_form_eigenpairs call on the (3, n) unit-scale rate array and (n, 3) deltas.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from itertools import permutations

import numpy as np

from .errors import NearDefectiveError, NoConvergenceError, NonFiniteError
from .model import SystemParams, _Point, build_hamiltonian

_SQ27 = 3.0 * math.sqrt(3.0)

#: Residual tolerance for eigenpairs, relaxed near a coalescence where
#: eigenvector conditioning diverges.  All three apply at unit scale
#: (_unit_point), in units of the largest rate there, max(|omega|, |j|, |gamma|)
#: in [1, 4): eigenvalues, gaps and the rounding error of ||Hv - Ev|| grow with it.
RESIDUAL_TOL = 1e-9
NEAR_EP_GAP = 1e-4
NEAR_EP_RESIDUAL_TOL = 1e-6
#: Unit-scale smallest gap at or below which a real spectrum is labeled NEAR_EP.
_NEAR_EP_LABEL_GAP = 1e-6


class Source(Enum):
    CLOSED_FORM = "closed-form"
    ORACLE = "oracle"


class Phase(Enum):
    PT_SYMMETRIC = "pt-symmetric"
    PT_BROKEN = "pt-broken"
    NEAR_EP = "near-ep"


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
    """(x, z, a) with a the real part of the cubed radical, of a point at unit scale
    (_unit_point), where none of them leaves the float range; of integer rates, exactly."""
    om2, j, g2 = params.omega**2, params.j, params.gamma**2
    x = 4 * j * j + 3 * om2 - 3 * g2
    z = 16 * j**4 * g2 + j * j * (8 * g2 * g2 + 20 * g2 * om2 - om2 * om2) + (g2 - om2) ** 3
    a = -8 * j**3 - 9 * j * (om2 + 2 * g2)
    return x, z, a


#: A static bound on the float z's rounding error at unit scale: each term sees at most 12
#: roundings (16 with a margin; a libm pow counts two) and the terms sum below 53 * 4**6.
_Z_ERROR = 16 * 2.0**-53 * 53 * 4.0**6


def _z_sign(params, z: float | None = None) -> int:
    """The one phase decision, the exact sign of z at params (+1 broken, -1 symmetric, 0 an EP):
    the float z at unit scale (given, or evaluated) decides outside _Z_ERROR, params' rates
    exactly inside it (a filtered predicate, Shewchuk, Discrete Comput. Geom. 18, 305 (1997)).
    With z given, params may be a function that builds the point, called only inside it."""
    if z is None:
        z = _cubic_data(_unit_point(params)[1])[1]
    if abs(z) > _Z_ERROR:
        return 1 if z > 0 else -1
    return _exact_z_sign(params() if callable(params) else params)


def _exact_z_sign(params) -> int:
    """The sign of z at params in Python integers: z, homogeneous of degree 6, keeps its
    sign when every rate is multiplied by the largest denominator (a power of two)."""
    ratios = [r.as_integer_ratio() for r in (params.omega, params.j, params.gamma)]
    d = max(den for _, den in ratios)
    z = _cubic_data(_Point(*(num * (d // den) for num, den in ratios)))[1]
    return (z > 0) - (z < 0)


def _unit_point(params) -> tuple:
    """(E, the point at its rates times 2**-E), E the even exponent that puts the largest
    rate in [1, 4) (0 where H = 0): the one scale boundary.  A point in the window is
    returned as it is."""
    omega, j, gamma = params.omega, params.j, params.gamma
    top = max(abs(omega), abs(j), abs(gamma))
    if 1.0 <= top < 4.0 or not top:
        return 0, params
    e = (math.frexp(top)[1] - 1) & -2
    return e, _Point(math.ldexp(omega, -e), math.ldexp(j, -e), math.ldexp(gamma, -e))


def _solve_grid(rates: np.ndarray) -> tuple:
    """(unit-scale (3, n) rates, (n,) exponents E, (n, 3) deltas, n float zs) of n points'
    (3, n) rates, the one grid solve: each point taken to its rates times 2**-E (E as
    _unit_point's) and solved once by _solve_eigenvalues on an unchecked _Point record."""
    top = np.abs(rates).max(axis=0)
    exps = np.where(top > 0, (np.frexp(top)[1] - 1) & -2, 0)
    rates = np.ldexp(rates, -exps)
    solved = [_solve_eigenvalues(point) for point in map(_Point, *rates.tolist())]
    deltas = np.array([d for d, _ in solved], dtype=complex).reshape(-1, 3)
    return rates, exps, deltas, [z for _, z in solved]


def _linspace(lo: float, hi: float, n: int) -> np.ndarray:
    """np.linspace(lo, hi, n), also where hi - lo overflows: there taken at the ends' unit
    scale (_unit_point's E) and mapped back by ldexp, exactly (both ends exceed 2**1022).
    Elsewhere no rescale: it would round away an end far below the other's scale."""
    lo, hi = float(lo), float(hi)
    top = max(abs(lo), abs(hi))
    if math.isfinite(hi - lo) or not math.isfinite(top):
        return np.linspace(lo, hi, n)
    e = (math.frexp(top)[1] - 1) & -2
    return np.ldexp(np.linspace(math.ldexp(lo, -e), math.ldexp(hi, -e), n), e)


def _at_rates(value, e: int, params, name: str):
    """A unit-scale float or complex times 2**e: exact, by math.ldexp, unless it leaves the
    float range, which raises NonFiniteError naming params' rates."""
    if not e:
        return value
    try:
        if isinstance(value, complex):
            return complex(math.ldexp(value.real, e), math.ldexp(value.imag, e))
        return math.ldexp(value, e)
    except OverflowError:
        raise NonFiniteError(f"{name} out of the float range at omega={params.omega}, "
                             f"j={params.j}, gamma={params.gamma}") from None


#: The private instance attribute under which _eigenvalues keeps a point's solve.
_MEMO_KEY = "_ptqsim_eigenvalues"


def _eigenvalues(params: SystemParams) -> tuple:
    """(E, unit-scale (delta2, delta3, delta4) as Python scalars, float z):
    the point's _unit_point exponent and _solve_eigenvalues of its unit-scale rates.

    Solved once per SystemParams instance: the triple is kept on the instance (see
    the module docstring).  It is read with getattr and set with
    object.__setattr__, as the frozen dataclass's own __init__ sets its fields:
    touching params.__dict__ would make CPython build a dict for the instance
    and slow every later field read.
    """
    solved = getattr(params, _MEMO_KEY, None)
    if solved is None:
        e, unit = _unit_point(params)
        deltas, z = _solve_eigenvalues(unit)
        solved = e, deltas, z
        object.__setattr__(params, _MEMO_KEY, solved)
    return solved


def _solve_eigenvalues(params) -> tuple:
    """((delta2, delta3, delta4), z) of anything with omega, j and gamma at unit scale
    (_unit_point), a sweep's _Point included: E2..E4 as delta = E - j, the roots of
    P(delta) = delta^3 + 2j delta^2 + (gamma^2 - omega^2) delta + 2j gamma^2, and the float z
    (for _z_sign).  delta2 stays separated; the pair, from Vieta's product p and sum s, is
    real where z <= 0 (E3 <= E4) and exact conjugates where z > 0 (E3 with Im > 0)."""
    j, g2, om2 = params.j, params.gamma**2, params.omega**2
    x, z, a = _cubic_data(params)
    t = 0.0  # t = 3 delta2 + 2j solves t^3 - 3x t = 2a
    if z < 0:  # 2 sqrt(x) cos(theta/3) with a's sign (z < 0 needs omega^2 > gamma^2: x >= 0)
        t = (-2.0 if a < 0 else 2.0) * math.sqrt(x) * math.cos(
            math.atan2(_SQ27 * math.sqrt(-z), abs(a)) / 3.0)
    elif a:  # y + v, y^3 = a +- sqrt(27z) the radicand that does not cancel, v = x/y:
        y = math.cbrt(a + math.copysign(_SQ27 * math.sqrt(z), a))
        v = x / y
        t = 2.0 * a / (y * y - x + v * v)  # 2a / (y^2 - yv + v^2), where no term cancels
    c = g2 - om2
    d2 = (t - 2.0 * j) / 3.0
    slope = (3.0 * d2 + 4.0 * j) * d2 + c
    if slope:  # one Newton step on P
        d2 -= (((d2 + 2.0 * j) * d2 + c) * d2 + 2.0 * j * g2) / slope
        slope = (3.0 * d2 + 4.0 * j) * d2 + c
    p, s = c, -2.0 * j  # where delta2 = 0, P = delta (delta^2 + 2j delta + c)
    if d2:
        p = -2.0 * j * g2 / d2
        s, rest = s - d2, c - p
        if (2.0 * abs(j) + abs(d2)) * abs(rest) > (g2 + om2 + abs(p)) * abs(s):
            s = rest / d2
    q = 0.25 * s * s - p  # +-half^2, whose terms cancel next to the curve: z's form holds there
    cancels = abs(q) < 0.5 * (0.25 * s * s + abs(p)) and slope
    half = math.sqrt(abs(z)) / abs(slope) if cancels else math.sqrt(abs(q))
    if z > 0:
        return (d2, complex(0.5 * s, half), complex(0.5 * s, -half)), z
    big = 0.5 * s + math.copysign(half, s)
    other = p / big if big else 0.0
    return ((d2, big, other) if big <= other else (d2, other, big)), z


def _unit_eigenvalues(params: SystemParams) -> tuple:
    """(E, the point's (E1, E2, E3, E4) at unit scale): E1 = -j, E_k = j + delta_k."""
    e, (d2, d3, d4), _ = _eigenvalues(params)
    j = math.ldexp(params.j, -e)
    return e, (-j, j + d2, j + d3, j + d4)


def eigenvalues_closed_form(params: SystemParams) -> np.ndarray:
    """Labeled eigenvalues (E1..E4); E1 = -j exactly, (E3, E4) the coalescing pair.
    Solved at unit scale and mapped back by 2**E (_at_rates)."""
    e, values = _unit_eigenvalues(params)
    if e:
        values = [_at_rates(v, e, params, "eigenvalues") for v in values]
    return np.array(values, dtype=complex)


def _phase_fix(vecs: np.ndarray) -> np.ndarray:
    """Make each vector's largest-magnitude amplitude real-positive (last axis).

    Magnitudes within 4 ulp of the largest tie, and a tie resolves toward the higher
    index, which keeps the canonical singlet sign pattern (0, -1, 1, 0)/sqrt(2).
    """
    m = vecs.shape[-1]
    rows = vecs.reshape(-1, m)
    mags = np.abs(rows)
    top = mags.max(axis=1, keepdims=True)
    k = m - 1 - (mags[:, ::-1] >= top - 4 * np.spacing(top)).argmax(axis=1)
    index = np.arange(len(rows)), k
    return vecs * (mags[index] / rows[index]).reshape(vecs.shape[:-1] + (1,))


def eigenvectors_closed_form(
    params: SystemParams, eigenvalues: np.ndarray | None = None
) -> np.ndarray:
    """Unit right eigenvectors as the rows of a (4, 4) array, phase-fixed; Psi1 is the singlet.

    A batch of one of _closed_form_eigenpairs: solved from eigenvalues, the point's
    closed-form E1..E4 of shape (4,), when given (taken to unit scale with the rates, and
    to delta = E - j for E2..E4: the one place a delta is formed from an E), else a copy
    of its stored _eigenpair.
    """
    if eigenvalues is None:
        return _eigenpair(params)[0].copy()
    e, unit = _unit_point(params)
    deltas = [_at_rates(complex(v), -e, params, "eigenvalues") - unit.j for v in eigenvalues[1:]]
    return _closed_form_eigenpairs(_rates([unit]), np.array([deltas]), e)[0][0]


#: The private instance attribute under which _eigenpair keeps a point's eigenpair.
_EIGENPAIR_KEY = "_ptqsim_eigenpair"


def _eigenpair(params: SystemParams) -> tuple:
    """(eigenvectors, max residual) of one point: a read-only (4, 4) array and a float,
    stored once per SystemParams instance as _eigenvalues stores its triple (see the module
    docstring); a raised error is not kept."""
    pair = getattr(params, _EIGENPAIR_KEY, None)
    if pair is None:
        e, deltas, _ = _eigenvalues(params)
        vecs, residuals = _closed_form_eigenpairs(
            _rates([_unit_point(params)[1]]), np.array([deltas], dtype=complex), e)
        vecs = vecs[0]
        vecs.flags.writeable = False
        pair = vecs, math.ldexp(float(residuals[0]), e)
        object.__setattr__(params, _EIGENPAIR_KEY, pair)
    return pair


def _rates(points: list[SystemParams]) -> np.ndarray:
    """(omega, j, gamma) of n points as a (3, n) array."""
    return np.array([(p.omega, p.j, p.gamma) for p in points]).T


_SINGLET = np.array([0, -1, 1, 0], dtype=complex) / np.sqrt(2.0)
_R2 = math.sqrt(0.5)
#: (omega, j, gamma) . _TEMPLATE = (i*gamma, -2j, -i*gamma, a, -a), a = omega/sqrt(2): B - j's
#: diagonal and off-diagonal, B the sector block.  F = (d0, d1, d2, a, -a) of a root j + delta
#: is the template less (delta, delta, delta, 0, 0), and adj(B - E)'s entries (A00, A11, A22,
#: A01, A02, A12) = (d1 d2 - a^2, d0 d2, d0 d1 - a^2, -a d2, a^2, -a d0) are F[_LEFT] *
#: F[_RIGHT] less a^2 on A00 and A22; _ADJ_ROWS[m] holds row m's positions among them.
_TEMPLATE = np.array([[0, 0, 0, _R2, -_R2], [0, -2, 0, 0, 0], [1j, 0, -1j, 0, 0]])
_LEFT, _RIGHT = [1, 0, 0, 4, 3, 4], [2, 2, 1, 2, 3, 0]
_ADJ_ROWS = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])
#: The sector vectors of E2, E3 and E4 where the adjugate vanishes (a row shorter than
#: _SMALL_ROW): B - E of rank 1, at omega ~ 0 and gamma = 0 where delta3 = delta4 = 0.
_UNDETERMINED, _SMALL_ROW = np.eye(3, dtype=complex)[[1, 0, 2]], 2.0**-400
#: u[..., _EMBED] * _EMBED_SCALE is u on |00>, |01>, |10>, |11> (_WEIGHTS: squared), kept
#: out of BLAS, whose gemm past m*n*k = 65 536 threads and runs several times slower.
_EMBED, _EMBED_SCALE = [0, 1, 1, 2], np.array([1.0, _R2, _R2, 1.0])
_WEIGHTS = np.array([1.0, 0.5, 1.0])


def _sector_eigenvectors(rates: np.ndarray, deltas: np.ndarray):
    """(u, ||(B - E) u||) of the exchange-symmetric block at E = j + deltas: (n, 3, 3), (n, 3).

    rates are n points' (omega, j, gamma), shape (3, n), and deltas their E2..E4 - j, shape
    (n, 3).  On (|00>, T = (|01> + |10>)/sqrt(2), |11>) H is B = [[j + i*gamma, a, 0],
    [a, -j, a], [0, a, j - i*gamma]].  Each row of adj(B - E) is a bilinear cross product
    of two rows of B - E, and at a root of rank 2 row m is c u_m u (Kopp, Int. J. Mod.
    Phys. C 19, 523 (2008)): u is the row of the largest |A_mm|, normalized, and nothing
    is divided.  E4 takes row 2 on the tie |A00| = |A22| of gamma = 0, so the double root
    of omega = gamma = 0 gets |00> and |11>, as _UNDETERMINED does.  The phase is fixed as
    _phase_fix fixes it in the basis |00>..|11>, with |u_m|^2 read off the diagonal: in the
    PT-symmetric phase A22 = conj(A00) bit for bit, so |u0| = |u2| tie exactly and go to
    |11>.  Where the chosen amplitude is below a quarter of its row's norm (near rank 1),
    the row's own magnitudes pick the pivot.
    """
    n = len(deltas)
    f = np.empty((n, 3, 5), dtype=complex)
    f[...] = (rates.T[..., None] * _TEMPLATE).sum(axis=1)[:, None]
    f[..., :3] -= deltas[..., None]
    a = rates[0, :, None] * _R2
    adj = f.take(_LEFT, axis=-1) * f.take(_RIGHT, axis=-1)
    adj[..., :3:2] -= (a * a)[..., None]
    diagonal = abs(adj[..., :3])
    m = diagonal.argmax(axis=-1)
    m[:, 2] = 2 - diagonal[:, 2, ::-1].argmax(axis=-1)
    u = adj.reshape(-1).take(_ADJ_ROWS.take(m, 0) + 6 * _starts(n)[..., None])
    mags = abs(u)
    norm = np.sqrt(np.square(mags).sum(axis=-1))
    if norm.min() < _SMALL_ROW:
        small = norm < _SMALL_ROW
        u[small] = np.broadcast_to(_UNDETERMINED, u.shape)[small]
        mags[small] = diagonal[small] = u[small].real
        norm[small] = 1.0
    neighbours = u.take([1, 0, 1], axis=-1)  # of each amplitude in the tridiagonal B
    neighbours[..., 1] += u[..., 2]
    r = f[..., :3] * u + a[..., None] * neighbours
    k = 2 - (diagonal * _WEIGHTS)[..., ::-1].argmax(axis=-1) + 3 * _starts(n)
    pivots = mags.take(k)
    if (pivots < 0.25 * norm).any():  # near rank 1 a row leaves the diagonal's pattern
        k = 2 - (mags * _WEIGHTS)[..., ::-1].argmax(axis=-1) + 3 * _starts(n)
        pivots = mags.take(k)
    u *= (u.take(k).conj() / (pivots * norm))[..., None]
    np.put(u, k, pivots / norm)  # real, and 1 where u has one nonzero amplitude
    return u, np.sqrt(np.square(abs(r)).sum(axis=-1)) / norm


@functools.lru_cache(maxsize=8)
def _starts(n: int) -> np.ndarray:
    """The (n, 3) root indices 0, 1, ..., 3n - 1 (read-only): flat offsets of each root's row."""
    starts = np.arange(3 * n).reshape(n, 3)
    starts.flags.writeable = False
    return starts


def _closed_form_eigenpairs(rates: np.ndarray, deltas: np.ndarray, exps=0):
    """(eigenvectors, residuals) of n points' unit-scale (3, n) rates and (n, 3) deltas.

    eigenvectors[i, k], shape (n, 4, 4), is the unit, phase-fixed eigenvector of E_k (the
    singlet, then _sector_eigenvectors') and residuals[i] the largest ||Hv - Ev|| at unit
    scale; the first point above its tolerance raises NearDefectiveError, which names the
    point's rates and residual times 2**exps (the points' E: an int or an (n,) array).
    Elementwise, so a point's bits do not depend on its batch.
    """
    u, residuals = _sector_eigenvectors(rates, deltas)
    residuals = residuals.max(axis=-1)
    vecs = np.empty((len(deltas), 4, 4), dtype=complex)
    vecs[:, 0] = _SINGLET
    vecs[:, 1:] = u.take(_EMBED, axis=-1) * _EMBED_SCALE
    if residuals.max() > RESIDUAL_TOL:  # every tolerance is RESIDUAL_TOL or more
        top = np.abs(rates).max(axis=0)  # in [1, 4): the tolerances' unit
        gaps = _sector_gap(deltas)
        tol = np.where(gaps < NEAR_EP_GAP * top, NEAR_EP_RESIDUAL_TOL, RESIDUAL_TOL) * top
        failed = residuals > tol
        if failed.any():
            i = int(np.argmax(failed))
            with np.errstate(over="ignore"):
                residual, bound, gap, omega, j, gamma = np.ldexp(
                    [residuals[i], tol[i], gaps[i], *rates[:, i]],
                    np.broadcast_to(exps, failed.shape)[i]).tolist()
            raise NearDefectiveError(
                f"eigenvector residual {residual:.3e} exceeds {bound:.0e} at "
                f"omega={omega}, j={j}, gamma={gamma} (min sector gap {gap:.3e})"
            )
    return vecs, residuals


def _sector_gap(deltas: np.ndarray) -> np.ndarray:
    """Smallest |E_i - E_k| among E2, E3 and E4, read off the last axis of (..., 3) deltas:
    the singlet E1 never couples to the sector, so its crossings are no EPs."""
    return np.abs(deltas[..., [0, 0, 1]] - deltas[..., [1, 2, 2]]).min(axis=-1)


#: The 24 orderings of four labels, in itertools.permutations order.
_PERMS = np.array(list(permutations(range(4))))
#: Two roots whose separation is within this many times the sum of their
#: rounding errors are one root that rounding split.  On the critical curve
#: (omega from 1.05 to 3) an exact double root splits by up to 3.0 such sums,
#: and a pair at j_c +- 1e-14, which the closed form resolves, by at least 13.
_CLUSTER_C = 6.0
_EPS = float(np.finfo(float).eps)


def _oracle_roots(h, deflate_root: complex | None = None) -> tuple:
    """The oracle's eigensolve: (h as a complex array, roots, unit eigenvectors as rows, scale).

    One LAPACK eig call (balancing, then Hessenberg QR: backward stable, and
    sharing nothing with the radicals); scale = max(1, max|h|).  A root's
    rounding error is eps * max|h| times its Petermann factor 1/|u^T u|, u its
    unit vector (for a complex symmetric h, the eigenvalue's condition
    number).  Roots within _CLUSTER_C times the sum of their errors are
    replaced by their mean, which is well conditioned where the roots are
    not: rounding splits an EP2 by ~sqrt(eps) and an EP3 by ~eps**(1/3).
    deflate_root, when given, replaces its nearest root exactly and moves to
    roots[0]; of exactly equal nearest roots, the later one.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {h.shape}")
    if not np.isfinite(h.view(float)).all():
        raise ValueError("matrix entries must be finite")
    rate = float(np.abs(h).max())
    roots, vecs = np.linalg.eig(h)
    vecs = vecs.T
    values = roots.tolist()
    dots = np.abs((vecs * vecs).sum(axis=1)).tolist()  # |u^T u|, 1 / Petermann factor
    tol = _CLUSTER_C * _EPS * rate
    done = [False] * 4
    for k in range(4):
        if done[k]:
            continue
        # |E_m - E_k| <= tol / dots[m] + tol / dots[k], without dividing by a zero dot
        group = [m for m in range(k, 4) if not done[m] and abs(values[m] - values[k])
                 * dots[m] * dots[k] <= tol * (dots[m] + dots[k])]
        for m in group:
            done[m] = True
        if len(group) > 1:
            roots[group] = roots[group].mean()
    if deflate_root is not None:
        k = 3 - int(np.abs(roots[::-1] - deflate_root).argmin())
        order = [k] + [m for m in range(4) if m != k]
        roots, vecs = roots[order], vecs[order]
        roots[0] = deflate_root
    return h, roots, vecs, max(1.0, rate)


def eigensystem_oracle(
    h: np.ndarray, deflate_root: complex | None = None
) -> Spectrum:
    """Independent eigensolve: the roots of _oracle_roots and eig's vectors, phase-fixed.

    deflate_root, when given, is an exactly known root (the singlet's -j),
    which replaces the nearest computed root and comes first.  Raises
    NoConvergenceError when a residual ||h v - E v|| exceeds 1e-5 * scale,
    scale = max(1, max|h|); callers may retry with a ~1e-8 perturbation of
    the matrix.  A residual is eig's backward error plus the distance its root
    moved (half a rounding cluster's spread, or the deflated root's shift), so
    it trips only where deflate_root is not an eigenvalue of h.
    spectrum_closed_form pairs the closed form with the roots alone.
    """
    h, roots, vecs, scale = _oracle_roots(h, deflate_root)
    vecs = _phase_fix(vecs)
    worst = float(np.linalg.norm(vecs @ h.T - roots[:, None] * vecs, axis=1).max())
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


def _pairing_deviations(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max|a[p] - b| for each ordering p of a, in _PERMS order."""
    return np.abs(a[_PERMS] - b).max(axis=1)


def pairing_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Smallest max-deviation between two eigenvalue quadruples over all pairings."""
    return _pairing_deviations(a, b).min()


def spectrum_closed_form(params: SystemParams) -> Spectrum:
    """Closed-form spectrum, cross-checked against the oracle multiset.

    The oracle's roots (_oracle_roots) alone give the multiset: its residual
    check cannot fail where the roots pair with the closed form (see
    eigensystem_oracle).  Both sides are taken at unit scale (_unit_point), where
    NoConvergenceError is raised when the best pairing deviates by more than
    1e-9 * max(|omega|, |j|, |gamma|).
    """
    values = eigenvalues_closed_form(params)
    vecs, residual = _eigenpair(params)
    e, unit = _unit_point(params)
    solved = np.array(_unit_eigenvalues(params)[1], dtype=complex)
    dev = pairing_distance(solved, _oracle_roots(build_hamiltonian(unit), -unit.j)[1])
    if dev > 1e-9 * max(1.0, abs(unit.omega), abs(unit.j), abs(unit.gamma)):
        raise NoConvergenceError(f"closed form deviates from oracle by {dev:.3e}")
    return Spectrum(values, vecs.copy(), Source.CLOSED_FORM, residual)


def spectrum_oracle(params: SystemParams) -> Spectrum:
    """Oracle spectrum with labels aligned to the closed-form convention, solved at unit
    scale; the roots and the residual map back by 2**E (_at_rates)."""
    e, unit = _unit_point(params)
    spec = eigensystem_oracle(build_hamiltonian(unit), deflate_root=-unit.j)
    reference = np.array(_unit_eigenvalues(params)[1])
    order = _PERMS[_pairing_deviations(spec.eigenvalues, reference).argmin()]
    roots = [_at_rates(v, e, params, "eigenvalues") for v in spec.eigenvalues[order].tolist()]
    return Spectrum(np.array(roots), spec.eigenvectors[order], Source.ORACLE,
                    _at_rates(spec.max_residual, e, params, "the oracle residual"))


def classify_phase(params: SystemParams) -> PhaseLabel:
    """PT_BROKEN where z > 0 exactly (_z_sign); otherwise NEAR_EP when the smallest gap is
    <= 1e-6, else PT_SYMMETRIC.

    The gap is taken at unit scale (_unit_point), so the label does not depend on the
    rates' units; max_imag is a reported value, mapped back.  Real crossings that are
    not coalescences (e.g. j = 0, where the singlet meets a symmetric-sector root) also
    report NEAR_EP.
    """
    e, (d2, d3, d4), z = _eigenvalues(params)
    max_imag = _at_rates(abs(d3.imag), e, params, "max|Im E|")  # delta2 is real, d4 = conj(d3)
    if _z_sign(params, z) > 0:
        return PhaseLabel(Phase.PT_BROKEN, max_imag)
    d1 = -math.ldexp(params.j, 1 - e)  # E1 = -j: delta1 = -2j
    gap = min(abs(d1 - d2), abs(d1 - d3), abs(d1 - d4), abs(d2 - d3), abs(d2 - d4), abs(d3 - d4))
    if gap <= _NEAR_EP_LABEL_GAP:
        return PhaseLabel(Phase.NEAR_EP, max_imag)
    return PhaseLabel(Phase.PT_SYMMETRIC, max_imag)
