"""40-digit references (mpmath) for the eigenvalues, the symmetric sector's eigenvectors,
Psi3's sensing quantities, the concurrence and matrix powers.

Each function reads its float inputs as the exact binary numbers they are,
works at DPS digits in a context of its own and rounds only its answer to a
double, so a test's bound on the distance to it measures the code's error
alone.
"""
from itertools import permutations

import mpmath
import numpy as np

DPS = 40
_mp = mpmath.MPContext()
_mp.dps = DPS
_TURN = _mp.expjpi(_mp.mpf(2) / 3)  # the primitive cube root of unity


def eigenvalues(h) -> np.ndarray:
    """The eigenvalues of a complex square matrix, from mpmath's QR eigensolver.

    Like any eigensolver it loses digits at a defective matrix: at a Jordan
    block of order N its error is about (1e-DPS)**(1/N), 2e-14 at the EP3.
    """
    values = _mp.eig(_mp.matrix(np.asarray(h, dtype=complex).tolist()), left=False, right=False)
    return np.array([complex(v) for v in values])


def _sector_roots(om, jj, g) -> list:
    """The exchange-symmetric sector's three roots (j + t)/3 at DPS digits, of mp rates.

    Cardano places a double root only to about half its working digits, so
    two roots that rounding would merge (j and sqrt(j^2 + omega^2) at gamma =
    0 and omega << j) are taken at 2 DPS digits and polished there by two
    Newton steps (_newton), then rounded to DPS digits.
    """
    with _mp.workdps(2 * DPS):
        x = 4 * jj * jj + 3 * om * om - 3 * g * g
        a = -8 * jj**3 - 9 * jj * (om * om + 2 * g * g)
        s = _mp.sqrt(_mp.mpc(a * a - x**3))
        cube = a + s if abs(a + s) >= abs(a - s) else a - s
        roots = [0, 0, 0]
        if cube != 0:
            u = _mp.root(cube, 3)
            roots = [u + x / u, u * _TURN + x / (u * _TURN), u / _TURN + x * _TURN / u]
        block = _block(om, jj, g)
        roots = [_newton(block, _newton(block, (jj + t) / 3)) for t in roots]
    return [+r for r in roots]


def hamiltonian_eigenvalues(omega: float, j: float, gamma: float) -> np.ndarray:
    """The eigenvalues of H(omega, j, gamma): the singlet's -j, then (j + t)/3 for each root t
    of the exchange-symmetric sector's cubic t^3 - 3 x t - 2 a (t = 3E - j), with
    x = 4 j^2 + 3 omega^2 - 3 gamma^2 and a = -8 j^3 - 9 j (omega^2 + 2 gamma^2).

    Cardano: t = u + x/u with u^3 = a +- sqrt(a^2 - x^3), the sign of the larger
    |u^3|, so that u = 0 only at the triple root x = a = 0.
    """
    jj = _mp.mpf(j)
    roots = _sector_roots(_mp.mpf(omega), jj, _mp.mpf(gamma))
    return np.array([complex(-jj)] + [complex(r) for r in roots])


_SQRT2 = _mp.sqrt(2)
_STEP = _mp.mpf(10) ** -20  # psi3_sensing's central-difference step, per unit rate


def _block(omega, j, gamma) -> tuple:
    """(j + i gamma, -j, j - i gamma, a): the diagonal and the off-diagonal a = omega/sqrt(2)
    of H's block B on (|00>, (|01> + |10>)/sqrt(2), |11>), of mp rates."""
    return _mp.mpc(j, gamma), -j, _mp.mpc(j, -gamma), omega / _SQRT2


def _null_vector(block, e, m=None) -> tuple:
    """(the unit null vector (u0, uT, u2) of B - e in the sector basis at DPS digits, m).

    At a root every row of adj(B - e) is a multiple u_m u of the vector; the row m
    taken, unless given, is the one of the largest diagonal |u_m|^2 (by |re| +
    |im|), so it keeps far more than double precision wherever B - e has rank 2.
    """
    b0, b1, b2, a = block
    d0, d1, d2, a2 = b0 - e, b1 - e, b2 - e, a * a
    if m is None:
        diagonal = (d1 * d2 - a2, d0 * d2, d0 * d1 - a2)
        m = max(range(3), key=lambda k: abs(diagonal[k].real) + abs(diagonal[k].imag))
    if m == 0:
        u = (d1 * d2 - a2, -a * d2, a2)
    elif m == 1:
        u = (-a * d2, d0 * d2, -a * d0)
    else:
        u = (a2, -a * d0, d0 * d1 - a2)
    norm = _mp.sqrt(_mp.fsum(x.real**2 + x.imag**2 for x in u))
    return [x / norm for x in u], m


def _full(u) -> list:
    """A sector vector (u0, uT, u2) in the basis |00>, |01>, |10>, |11>."""
    return [u[0], u[1] / _SQRT2, u[1] / _SQRT2, u[2]]


def _paired(roots, values):
    """The roots reordered to pair with values, by the least largest distance."""
    near = [complex(r) for r in roots]
    order = min(permutations(range(len(roots))),
                key=lambda p: max(abs(near[k] - v) for k, v in zip(p, values)))
    return [roots[k] for k in order]


def paired_roots(omega: float, j: float, gamma: float, values) -> list:
    """The DPS-digit sector roots paired with the closed-form ones, E1..E4 or the deltas E - j
    of E2..E4 (which resolve roots that round to one float E: gamma = 0, small omega)."""
    om, jj, g = _mp.mpf(omega), _mp.mpf(j), _mp.mpf(gamma)
    shift = jj if len(values) == 3 else 0
    roots = _paired([r - shift for r in _sector_roots(om, jj, g)],
                    [complex(v) for v in values[-3:]])
    return [r + shift for r in roots]


def sector_states(omega: float, j: float, gamma: float, values) -> list:
    """Psi2, Psi3 and Psi4 at DPS digits: the unit null vector of the sector block at each
    of paired_roots (global phase arbitrary), as a list of four mp amplitudes."""
    block = _block(_mp.mpf(omega), _mp.mpf(j), _mp.mpf(gamma))
    return [_full(_null_vector(block, e)[0]) for e in paired_roots(omega, j, gamma, values)]


def sector_eigenvectors(omega: float, j: float, gamma: float, values) -> np.ndarray:
    """sector_states rounded to a (3, 4) complex array."""
    return np.array([[complex(x) for x in v] for v in sector_states(omega, j, gamma, values)])


def pure_concurrence(v):
    """2 |v1 v2 - v0 v3| of a unit state, at DPS digits."""
    return 2 * abs(v[1] * v[2] - v[0] * v[3])


def _newton(block, e):
    """One Newton step on det(B - e) from e: from within 1e-20 of a simple root, to DPS
    digits (at the working precision); e itself where the slope vanishes (a multiple root)."""
    b0, b1, b2, a = block
    d0, d1, d2, a2 = b0 - e, b1 - e, b2 - e, a * a
    det = d0 * (d1 * d2 - a2) - a2 * d2
    slope = -(d1 * d2 - a2) - d0 * (d1 + d2) + a2
    return e - det / slope if slope else e


def _coherence(u):
    """<sigma_x^1> of a unit sector vector (u0, uT, u2): sqrt(2) Re(conj(u0) uT + conj(uT) u2)."""
    return _SQRT2 * _mp.re(_mp.conj(u[0]) * u[1] + _mp.conj(u[1]) * u[2])


def psi3_sensing(omega: float, j: float, gamma: float, kappa: str, e3: complex) -> tuple:
    """psi3_sensing_mp rounded to floats."""
    return tuple(float(x) for x in psi3_sensing_mp(omega, j, gamma, kappa, e3))


def psi3_sensing_mp(omega: float, j: float, gamma: float, kappa: str, e3: complex) -> tuple:
    """(QFI, <sigma_x^1>, d<sigma_x^1>/d kappa) of Psi3, kappa in {"j", "omega"}, at DPS digits.

    Psi3 is the null vector at the DPS-digit root nearest e3 (the closed-form E3);
    its derivative is the central difference over kappa +- h, h = 1e-20 times the
    largest rate, of the null vectors (from Psi3's adjugate row) at that root moved
    by one Newton step, their phases aligned to Psi3's.  Neither side uses perturbation theory, and the step's
    error (h^2) and rounding (1e-DPS / h) are both far below double precision.  The
    sector basis is orthonormal, so the QFI's inner products are taken there.
    """
    rates = {"omega": _mp.mpf(omega), "j": _mp.mpf(j), "gamma": _mp.mpf(gamma)}
    h = _STEP * max(abs(r) for r in rates.values())
    centre = min(_sector_roots(*rates.values()), key=lambda r: abs(complex(r) - e3))
    psi, m = _null_vector(_block(*rates.values()), centre)
    sides = []
    for sign in (1, -1):
        block = _block(*{**rates, kappa: rates[kappa] + sign * h}.values())
        v = _null_vector(block, _newton(block, centre), m)[0]
        overlap = _mp.fsum(_mp.conj(p) * x for p, x in zip(psi, v))
        phase = _mp.conj(overlap) / abs(overlap)
        sides.append([x * phase for x in v])
    dpsi = [(p - q) / (2 * h) for p, q in zip(*sides)]
    norm2 = _mp.fsum(x.real**2 + x.imag**2 for x in dpsi)
    overlap = _mp.fsum(_mp.conj(p) * x for p, x in zip(psi, dpsi))
    qfi = 4 * (norm2 - abs(overlap) ** 2)
    slope = (_coherence(sides[0]) - _coherence(sides[1])) / (2 * h)
    return qfi, _coherence(psi), slope


def _spin_flip_overlap(v, w):
    """v^T (sy x sy) w."""
    return v[1] * w[2] + v[2] * w[1] - v[0] * w[3] - v[3] * w[0]


def concurrence(weights, states) -> float:
    """Wootters' concurrence of sum_i w_i |v_i><v_i|, from the ensemble itself.

    The lambda_i (square roots of the eigenvalues of rho (sy x sy) conj(rho)
    (sy x sy)) are the singular values of tau_ik = sqrt(w_i w_k) v_i^T (sy x sy) v_k
    (Wootters, PRL 80, 2245 (1998)), and C = max(0, l1 - l2 - l3 - l4).  One
    state has the single lambda |tau_00|; two have l1 - l2 =
    sqrt(||tau||_F^2 - 2 |det tau|).  No eigendecomposition of rho is taken.
    """
    cols = [[_mp.sqrt(_mp.mpf(w)) * _mp.mpc(c) for c in np.asarray(v, dtype=complex).tolist()]
            for w, v in zip(weights, states)]
    tau = [[_spin_flip_overlap(v, w) for w in cols] for v in cols]
    if len(cols) == 1:
        return float(abs(tau[0][0]))
    if len(cols) == 2:
        frob = sum(abs(t) ** 2 for row in tau for t in row)
        det = abs(tau[0][0] * tau[1][1] - tau[0][1] * tau[1][0])
        return float(_mp.sqrt(max(0, frob - 2 * det)))
    lam = sorted(_mp.svd_c(_mp.matrix(tau), compute_uv=False), reverse=True)
    return float(max(0, lam[0] - sum(lam[1:])))


def matrix_powers(step, exponents) -> dict:
    """{m: step**m} for each m in exponents, each rounded to complex128 once.

    The powers are taken in increasing order, each from the previous one by
    mpmath's binary powering of step.
    """
    p = _mp.matrix(np.asarray(step, dtype=complex).tolist())
    acc, done, powers = _mp.eye(p.rows), 0, {}
    for m in sorted(set(exponents)):
        acc = p ** (m - done) * acc
        done = m
        powers[m] = np.array(acc.tolist(), dtype=complex)
    return powers
