"""Two-qubit gain/loss model: parameters, Pauli operators, Hamiltonian.

Fixed conventions used repo-wide: computational basis ordered
|00>, |01>, |10>, |11> with sigma_z|1> = +|1>, sigma_z|0> = -|0>.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NotNormalizedError

_NORM_TOL = 1e-10

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, 1j], [-1j, 0]], dtype=complex)
SIGMA_Z = np.array([[-1, 0], [0, 1]], dtype=complex)

# Parity operator (flips both qubits); time reversal is entrywise conjugation.
PARITY = np.kron(SIGMA_X, SIGMA_X)
SIGMA_X1 = np.kron(SIGMA_X, IDENTITY_2)
SIGMA_YY = np.kron(SIGMA_Y, SIGMA_Y)


@dataclass(frozen=True)
class SystemParams:
    """Model rates: coherent coupling omega, Ising coupling j, gain/loss gamma.

    gamma is the unit scale; all bundled presets quote omega and j in units
    of gamma = 1.  gamma = 0 labels the Hermitian limit.
    """

    omega: float
    j: float
    gamma: float = 1.0

    def __post_init__(self):
        for name in ("omega", "j", "gamma"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")

    def in_preset_domain(self) -> bool:
        """True inside the domain all bundled presets use (omega, j >= 0, gamma > 0)."""
        return self.omega >= 0 and self.j >= 0 and self.gamma > 0

    def replace(self, **kw) -> "SystemParams":
        data = {"omega": self.omega, "j": self.j, "gamma": self.gamma}
        data.update(kw)
        return SystemParams(**data)


class _Point(NamedTuple):
    """An unchecked (omega, j, gamma): the fields the per-point kernels read, without
    SystemParams' validation, for points whose rates are already checked."""

    omega: float
    j: float
    gamma: float


def _hamiltonian_entries(om, j, g) -> tuple:
    """H's distinct entries (d0r, d0i, d1r, d3r, d3i, u, v, w) of the float rates.

    They are the float operations the Kronecker-product form
    kron(s, 1) + kron(1, s) + j*kron(sz, sz) performs, reduced to what
    reaches H, so every bit agrees with it: the signed zeros, which take
    their signs from omega, j and gamma (gamma = -0.0 included), and the
    halvings of subnormal rates.
    """
    # zg, zj, t: signed zeros; ho ~ omega/2, hg ~ gamma/2; d*: diagonal; u, w: single
    # flips touching |00>, |11>; v: the (zero) |00>-|11> and |01>-|10> entries
    zg, zj = 0.0 * g, 0.0 * j
    ho = 0.5 * (om - zg)
    hg = 0.5 * (g + 0.0)
    t = (0.0 * om - zg) - 0.0 * (0.0 - g)
    d0r, d0i, d1r = j + 0.0, hg + hg, 0.0 - j
    d3r, d3i = t + j, 0.0 - (hg + hg)
    u = (0.0 * om + zg + ho) - zj
    v = 0.0 * ho + zj
    w = (ho + t) + zj
    return d0r, d0i, d1r, d3r, d3i, u, v, w


#: H's rows as (re, im) float pairs, each an index into (0.0, *_hamiltonian_entries).
_LAYOUT = np.array([
    [1, 2, 6, 0, 6, 0, 7, 0],
    [6, 0, 3, 0, 7, 0, 8, 0],
    [6, 0, 7, 0, 3, 0, 8, 0],
    [7, 0, 8, 0, 8, 0, 4, 5],
])


def build_hamiltonian(params: SystemParams) -> np.ndarray:
    """H = (omega*sx - i*gamma*sz)/2 per qubit + j*sz(x)sz as a 4x4 complex array.

    Its entries are _hamiltonian_entries', bit for bit the Kronecker-product form's.
    """
    entries = _hamiltonian_entries(params.omega, params.j, params.gamma)
    return np.array((0.0, *entries))[_LAYOUT].view(complex)


def as_state(vec) -> np.ndarray:
    """Coerce to a complex 4-vector without copying when possible."""
    v = np.asarray(vec, dtype=complex)
    if v.shape != (4,):
        raise ValueError(f"expected a 4-component state vector, got shape {v.shape}")
    return v


def as_unit_state(vec) -> np.ndarray:
    """as_state of a unit-norm vector; a NaN or infinite norm fails the check too."""
    v = as_state(vec)
    _require_unit_rows(v)
    return v


def _require_unit_rows(states: np.ndarray):
    """Raise NotNormalizedError for the first state (a row) whose norm is not 1 within 1e-10."""
    for norm in np.sqrt(np.square(np.abs(states)).sum(axis=-1)).reshape(-1).tolist():
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise NotNormalizedError(f"state norm {norm} != 1 within {_NORM_TOL}")
