"""The four benchmark workloads: seeded inputs, one op, and its correctness check.

Every workload draws a fixed-size pool of ops from the seed and a run
makes repeated passes over it. Continuous inputs are Latin-hypercube
stratified over the pool (evolve's work sizes are a full factorial), so
every seed's pool covers the same ranges evenly and the per-run figures
depend on the code and the machine, not on a lucky draw.

An op ends in one of three ways:

* answered: it returned (CLI: exit 0) and its output is then checked;
* refused: it stopped with one of the package's named errors (CLI: exit
  2 or 3 with a one-line JSON error on stderr). Refusals are the
  program's known edge-regime defects; they are counted by error name
  and lower ``answered_frac``, and are never dropped from the draw;
* failed: anything else, or an answered op whose output fails its check.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import ptqsim
import ptqsim.cli
from ptqsim.errors import (
    DegenerateCubicError,
    OmegaSingularError,
    PtqsimError,
)

ANSWERED, REFUSED, FAILED = "answered", "refused", "failed"


@dataclass
class Op:
    """One unit of closed-loop work; `points` and `steps` are its work counts."""

    kind: str
    args: tuple
    points: int = 1
    steps: int = 0


@dataclass
class Outcome:
    status: str
    reason: str = ""
    payload: object = None
    bytes_out: int = 0
    flagged: int = 0


def _strata(rng, n: int) -> list[float]:
    """n uniforms in [0, 1), one per equal-width stratum, in seeded random order."""
    u = [(k + rng.random()) / n for k in range(n)]
    rng.shuffle(u)
    return u


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """ptqsim.cli.main in-process; returns (exit code, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = ptqsim.cli.main(argv)
    return code, err.getvalue()


def _cli_outcome(code: int, stderr: str, out_path: Path) -> Outcome:
    if code == 0:
        text = out_path.read_text(encoding="utf-8")
        return Outcome(ANSWERED, payload=text, bytes_out=len(text.encode("utf-8")))
    lines = stderr.splitlines()
    if code in (2, 3) and len(lines) == 1:
        try:
            name = json.loads(lines[0])["error"]
        except (ValueError, KeyError, TypeError):
            return Outcome(FAILED, f"exit {code} with malformed stderr")
        return Outcome(REFUSED, name)
    return Outcome(FAILED, f"exit {code}")


def _csv_body(text: str) -> tuple[dict, list[str], list[str]]:
    """(metadata, header, data lines) of a ``# ptq-sim v1`` CSV."""
    lines = text.splitlines()
    if not lines or lines[0] != "# ptq-sim v1":
        raise ValueError("missing magic line")
    meta = {}
    k = 1
    while k < len(lines) and lines[k].startswith("# "):
        key, _, value = lines[k][2:].partition(": ")
        meta[key] = value
        k += 1
    return meta, lines[k].split(","), lines[k + 1:]


# ---------------------------------------------------------------- sense


class Sense:
    """`ptq-sim sense` sweeps that each cross one exceptional point."""

    pool = 100
    n_grid = 24

    def make(self, rng) -> list[Op]:
        fixed, lo, hi = (_strata(rng, self.pool) for _ in range(3))
        return [self._op(i, fixed[i], lo[i], hi[i]) for i in range(self.pool)]

    def warmup(self, rng) -> Op:
        return self._op(0, rng.random(), rng.random(), rng.random())

    def _op(self, i: int, uf: float, ul: float, uh: float) -> Op:
        if i % 2 == 0:  # omega ~ 2 fixed, j swept across j_c (0.50..0.69)
            axis, fixed_flag, fixed = "j", "--omega", 1.9 + 0.2 * uf
            lo, hi = 0.28 + 0.06 * ul, 0.84 + 0.06 * uh
        else:  # j ~ 0.3 fixed, omega swept across omega_c (1.62..1.68)
            axis, fixed_flag, fixed = "omega", "--j", 0.28 + 0.04 * uf
            lo, hi = 1.40 + 0.06 * ul, 1.94 + 0.06 * uh
        argv = ["sense", "--sweep-axis", axis, fixed_flag, repr(fixed),
                "--sweep-range", f"{lo!r}:{hi!r}", "--n", str(self.n_grid)]
        return Op("sense", (argv, axis, fixed, lo, hi), points=self.n_grid)

    def run(self, op: Op, workdir: Path) -> Outcome:
        out = workdir / "sense.csv"
        code, err = _run_cli(op.args[0] + ["--out", str(out)])
        return _cli_outcome(code, err, out)

    def check(self, op: Op, outcome: Outcome) -> None:
        _, axis, fixed, lo, hi = op.args
        _, header, rows = _csv_body(outcome.payload)
        if header != [axis, "qfi", "variance_sq", "inv_variance_sq", "coherence",
                      "cr_bound", "flag"]:
            raise ValueError(f"unexpected header {header}")
        if len(rows) != self.n_grid:
            raise ValueError(f"{len(rows)} rows, expected {self.n_grid}")
        flagged = []
        for row in rows:
            cells = row.split(",")
            x, flag = float(cells[0]), cells[6]
            if flag:
                flagged.append(x)
            if cells[1] and cells[3]:
                f, inv_var = float(cells[1]), float(cells[3])
                if inv_var > f * (1 + 1e-6):
                    raise ValueError(f"Cramer-Rao violated at {axis}={x}: 1/var {inv_var} > qfi {f}")
        fix = "omega" if axis == "j" else "j"
        point = ptqsim.locate_ep(fix, fixed, (lo, hi))
        critical = point.j_c if axis == "j" else point.omega_c
        step = (hi - lo) / (self.n_grid - 1)
        if not any(abs(x - critical) <= step * (1 + 1e-9) for x in flagged):
            raise ValueError(f"no flag within one grid step of the EP at {axis}={critical}")
        outcome.flagged = len(flagged)


# ---------------------------------------------------------------- scan


class Scan:
    """One omega column of scripts/phase_scan.py: phase labels, gaps, then j_c."""

    pool = 256
    js = np.linspace(0.0, 1.2, 97)
    j_bracket = (1e-9, 2.5)

    def make(self, rng) -> list[Op]:
        return [self._op(u) for u in _strata(rng, self.pool)]

    def warmup(self, rng) -> Op:
        return self._op(rng.random())

    def _op(self, u: float) -> Op:
        # the critical curve crosses the j bracket for omega in [1.05, 3]
        return Op("scan", (1.05 + 1.95 * u,), points=len(self.js))

    def run(self, op: Op, workdir: Path) -> Outcome:
        (om,) = op.args
        column = []
        try:
            for j in self.js:
                params = ptqsim.SystemParams(om, float(j), 1.0)
                label = ptqsim.classify_phase(params)
                try:
                    values = ptqsim.eigenvalues_closed_form(params)
                    gap = abs(values[2] - values[3])
                except DegenerateCubicError:
                    gap = float("nan")
                column.append((label, gap))
            point = ptqsim.locate_ep("omega", om, self.j_bracket)
        except PtqsimError as exc:
            return Outcome(REFUSED, type(exc).__name__)
        return Outcome(ANSWERED, payload=(column, point))

    def check(self, op: Op, outcome: Outcome) -> None:
        column, point = outcome.payload
        if max(abs(point.residual_theta), abs(point.residual_x)) > 1e-6:
            raise ValueError(f"EP certificate residuals {point.residual_theta}, {point.residual_x}")
        for j, (label, _) in zip(self.js, column):
            if label.phase is ptqsim.Phase.NEAR_EP or j == point.j_c:
                continue
            want = ptqsim.Phase.PT_SYMMETRIC if j < point.j_c else ptqsim.Phase.PT_BROKEN
            if label.phase is not want:
                raise ValueError(f"j={j} labelled {label.phase.value} but j_c={point.j_c}")


# ---------------------------------------------------------------- evolve


# (omega, j_c) samples of the critical curve; draws sit 15-50% off it.
_CRITICAL = ((1.6, 0.2664), (1.8, 0.4156), (2.0, 0.5900), (2.2, 0.7875))


def _critical_j(om: float) -> float:
    return float(np.interp(om, [c[0] for c in _CRITICAL], [c[1] for c in _CRITICAL]))


class Evolve:
    """A mix of `ptq-sim evolve` (dense or sparse CSV) and `ptq-sim revivals` calls."""

    dt = 0.002
    gap_away = 0.05  # |E3 - E4| above which exact_state is well conditioned
    # Full factorial: kind x tmax stratum x record_every. Op costs span 20x,
    # so every seed gets the same mix and only jitter inside a cell varies.
    kinds = {"evolve": ((10.0, 60.0), (1, 2, 4, 8, 16, 40)),
             "revivals": ((50.0, 250.0), (1, 1, 2, 3, 5, 10))}
    tmax_strata = 10

    def make(self, rng) -> list[Op]:
        cells = [(kind, a, rec) for kind, (_, recs) in self.kinds.items()
                 for a in range(self.tmax_strata) for rec in recs]
        rng.shuffle(cells)
        u_om, u_side, u_theta = (_strata(rng, len(cells)) for _ in range(3))
        ops = []
        for i, (kind, a, rec) in enumerate(cells):
            u_tmax = (a + 0.25 + 0.5 * rng.random()) / self.tmax_strata
            ops.append(self._op(kind, u_tmax, rec, u_om[i], u_side[i], u_theta[i]))
        return ops

    def warmup(self, rng) -> Op:
        return self._op("evolve", 0.0, 8, rng.random(), rng.random(), rng.random())

    def _op(self, kind, u_tmax, record_every, u_om, u_side, u_theta) -> Op:
        om = 1.6 + 0.6 * u_om
        side = -1.0 if u_side < 0.5 else 1.0
        j = _critical_j(om) * (1.0 + side * (0.15 + 0.7 * abs(u_side - 0.5)))
        theta = math.pi * u_theta
        lo, hi = self.kinds[kind][0]
        tmax = lo + (hi - lo) * u_tmax
        argv = [kind, "--omega", repr(om), "--j", repr(j), "--theta", repr(theta),
                "--tmax", repr(tmax), "--dt", repr(self.dt),
                "--record-every", str(record_every)]
        return Op(kind, (argv, om, j, theta, tmax), steps=int(round(tmax / self.dt)))

    def run(self, op: Op, workdir: Path) -> Outcome:
        out = workdir / "evolve.csv"
        code, err = _run_cli(op.args[0] + ["--out", str(out)])
        return _cli_outcome(code, err, out)

    def check(self, op: Op, outcome: Outcome) -> None:
        _, om, j, theta, tmax = op.args
        meta, header, rows = _csv_body(outcome.payload)
        if op.kind == "revivals":
            if header != ["revival_index", "revival_time"]:
                raise ValueError(f"unexpected header {header}")
            times = [float(r.split(",")[1]) for r in rows]
            if int(meta["n_revivals"]) != len(times):
                raise ValueError("n_revivals disagrees with the table")
            if any(not 0 <= t <= tmax for t in times) or times != sorted(set(times)):
                raise ValueError("revival times not increasing inside [0, tmax]")
            return
        if header != ["t", "concurrence", "coherence_x", "norm_log"]:
            raise ValueError(f"unexpected header {header}")
        table = np.fromstring("\n".join(rows).replace("\n", ","), sep=",").reshape(-1, 4)
        if not np.all(np.isfinite(table)):
            raise ValueError("non-finite value in trajectory")
        conc = table[:, 1]
        if conc.min() < 0 or conc.max() > 1:
            raise ValueError(f"concurrence outside [0, 1]: {conc.min()}..{conc.max()}")
        params = ptqsim.SystemParams(om, j, 1.0)
        values = ptqsim.eigenvalues_closed_form(params)
        if abs(values[2] - values[3]) < self.gap_away:
            return
        exact = ptqsim.exact_state(params, ptqsim.initial_state(theta), table[-1, 0])
        reference = ptqsim.concurrence_pure(exact)
        if abs(conc[-1] - reference) > 1e-6:
            raise ValueError(f"final concurrence {conc[-1]} vs exact {reference}")


# ---------------------------------------------------------------- spectra


class Spectra:
    """Seeded points in the preset domain: eigensystem plus eigenstate entanglement."""

    pool = 1000
    hermitian_share = 0.10  # points at gamma = 0
    omega_zero_share = 0.02  # points at omega = 0

    def make(self, rng) -> list[Op]:
        u_om, u_j = _strata(rng, self.pool), _strata(rng, self.pool)
        n_herm = round(self.hermitian_share * self.pool)
        n_zero = round(self.omega_zero_share * self.pool)
        regime = ["hermitian"] * n_herm + ["omega0"] * n_zero
        regime += ["interior"] * (self.pool - len(regime))
        rng.shuffle(regime)
        return [self._op(regime[i], u_om[i], u_j[i]) for i in range(self.pool)]

    def warmup(self, rng) -> Op:
        return self._op("interior", rng.random(), rng.random())

    def _op(self, regime: str, u_om: float, u_j: float) -> Op:
        om = 0.0 if regime == "omega0" else 3.0 * u_om
        gamma = 0.0 if regime == "hermitian" else 1.0
        return Op("spectra", (om, 1.2 * u_j, gamma))

    def run(self, op: Op, workdir: Path) -> Outcome:
        params = ptqsim.SystemParams(*op.args)
        try:
            try:
                spec = ptqsim.spectrum_closed_form(params)
            except (DegenerateCubicError, OmegaSingularError):
                spec = ptqsim.spectrum_oracle(params)
            wootters = [ptqsim.eigenstate_concurrence_wootters(params, s) for s in (3, 4)]
            closed = [ptqsim.eigenstate_concurrence_closed(params, s, check=False)
                      for s in (3, 4)]
            psi3, psi4 = spec.eigenvectors[2], spec.eigenvectors[3]
            rho = np.outer(psi3, psi3.conj()) + np.outer(psi4, psi4.conj())
            mixed = ptqsim.concurrence_mixed(rho / np.trace(rho).real)
        except PtqsimError as exc:
            return Outcome(REFUSED, type(exc).__name__)
        return Outcome(ANSWERED, payload=(spec, wootters, closed, mixed))

    def check(self, op: Op, outcome: Outcome) -> None:
        spec, wootters, closed, mixed = outcome.payload
        params = ptqsim.SystemParams(*op.args)
        if spec.source is ptqsim.Source.CLOSED_FORM:
            reference = ptqsim.eigensystem_oracle(
                ptqsim.build_hamiltonian(params), deflate_root=-params.j).eigenvalues
        else:
            try:
                reference = ptqsim.eigenvalues_closed_form(params)
            except DegenerateCubicError:
                reference = spec.eigenvalues
        dev = ptqsim.pairing_distance(spec.eigenvalues, reference)
        if dev > 1e-9:
            raise ValueError(f"closed form vs oracle pairing distance {dev:.3e}")
        if not all(0.0 <= c <= 1.0 for c in (*wootters, mixed)):
            raise ValueError(f"concurrence outside [0, 1]: {wootters}, {mixed}")
        if not all(math.isfinite(c) for c in closed):
            raise ValueError(f"non-finite closed-form concurrence {closed}")
        psi3 = spec.eigenvectors[2]
        pure = ptqsim.concurrence_pure(psi3)
        as_mixed = ptqsim.concurrence_mixed(np.outer(psi3, psi3.conj()))
        if abs(pure - as_mixed) > 1e-6:
            raise ValueError(f"concurrence_mixed {as_mixed} vs concurrence_pure {pure}")


WORKLOADS = {"sense": Sense(), "scan": Scan(), "evolve": Evolve(), "spectra": Spectra()}
