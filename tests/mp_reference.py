"""40-digit references (mpmath) for the eigenvalues, the concurrence and matrix powers.

Each function reads its float inputs as the exact binary numbers they are,
works at DPS digits in a context of its own and rounds only its answer to a
double, so a test's bound on the distance to it measures the code's error
alone.
"""
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


def hamiltonian_eigenvalues(omega: float, j: float, gamma: float) -> np.ndarray:
    """The eigenvalues of H(omega, j, gamma): the singlet's -j, then (j + t)/3 for each root t
    of the exchange-symmetric sector's cubic t^3 - 3 x t - 2 a (t = 3E - j), with
    x = 4 j^2 + 3 omega^2 - 3 gamma^2 and a = -8 j^3 - 9 j (omega^2 + 2 gamma^2).

    Cardano: t = u + x/u with u^3 = a +- sqrt(a^2 - x^3), the sign of the larger
    |u^3|, so that u = 0 only at the triple root x = a = 0.
    """
    om, jj, g = _mp.mpf(omega), _mp.mpf(j), _mp.mpf(gamma)
    x = 4 * jj * jj + 3 * om * om - 3 * g * g
    a = -8 * jj**3 - 9 * jj * (om * om + 2 * g * g)
    s = _mp.sqrt(_mp.mpc(a * a - x**3))
    cube = a + s if abs(a + s) >= abs(a - s) else a - s
    roots = [0, 0, 0]
    if cube != 0:
        u = _mp.root(cube, 3)
        roots = [u + x / u, u * _TURN + x / (u * _TURN), u / _TURN + x * _TURN / u]
    return np.array([complex(-jj)] + [complex((jj + t) / 3) for t in roots])


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
