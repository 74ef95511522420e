#!/usr/bin/env python3
"""Audit the fields that differ between two outputs of one dynamics run against 40 digits.

Usage (from the repository root):

    python3 scripts/digit_audit.py OLD NEW -- reproduce fig5a
    python3 scripts/digit_audit.py old.json new.json -- evolve --omega 2 --j 0.4 --tmax 2 --dt 0.01
    python3 scripts/digit_audit.py --against HEAD -- reproduce fig5a

OLD and NEW are two outputs (CSV or --format json) of the ptq-sim command
after "--": `evolve`, or `reproduce` of a dynamics preset (fig4 to fig6b).
The command names the run exactly; it is parsed, not run.  With --against
REV there are no files: REV's tracked files are exported with `git archive`
(as scripts/bench_pairs.py does), and the command is run on REV's src for
OLD and on this tree's src for NEW.  The reference
of each row is the 40-digit state P^m psi0, with P the program's own RK4 step
matrix (`dynamics._rk4_step_matrix`) and psi0 its initial state, both read as
the exact binary numbers they are, propagated row by row and renormalized.
From it come the concurrence, the coherence <sigma_x^1> and the log-norm
log ||P^m psi0||: the exact values of the scheme the program integrates, so
a distance to them is rounding alone.

Every changed field gets one line: its row, column, old and new values,
|old - ref|, |new - ref| and whether it moved toward the reference.  Each
column then gets one JSON line: how many fields changed and moved toward the
reference, the largest and median |old - ref| and |new - ref| over the
changed fields, and the largest |old - ref| and |new - ref| over all its
fields.  A fig5a
column of 100 001 rows takes about half a minute.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import mpmath
import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ptqsim import cli  # noqa: E402
from ptqsim.dynamics import _rk4_step_matrix, initial_state  # noqa: E402
from ptqsim.model import build_hamiltonian  # noqa: E402

_mp = mpmath.MPContext()
_mp.dps = 40


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    """The header and the float rows of a CSV (after its # lines) or JSON table."""
    text = path.read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        results = json.loads(text)["results"]
        return results["columns"], np.array(results["rows"], dtype=float)
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.array(rows, dtype=float)


def runs_of(command: list[str]) -> tuple[dict, list[int], float]:
    """({column: (params, theta, observable)}, recorded step counts, dt) of a ptq-sim argv."""
    args = cli.build_parser().parse_args(command)
    if args.command == "evolve":
        params = cli._params_from(args)
        columns = {name: (params, args.theta, name)
                   for name in ("concurrence", "coherence_x", "norm_log")}
        grid = (args.tmax, args.dt, args.record_every)
    elif args.command == "reproduce":
        # the preset's runs, captured where it would integrate them
        captured = []
        run_columns = cli._evolve_columns
        cli._evolve_columns = lambda _args, _desc, runs, *grid: captured.append((runs, grid))
        try:
            cli.PRESETS[args.preset](args)
        finally:
            cli._evolve_columns = run_columns
        if not captured:
            raise SystemExit(f"preset {args.preset} is not a dynamics run")
        runs, grid = captured[0]
        columns = {name: (params, theta, "concurrence") for name, params, theta in runs}
    else:
        raise SystemExit(f"not a dynamics command: {args.command}")
    t_max, dt, every = grid
    n_steps = int(round(t_max / dt))
    steps = list(range(0, n_steps + 1, every))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return columns, steps, dt


def reference(params, theta: float, dt: float, steps: list[int]) -> dict:
    """{observable: [40-digit value per recorded step]} of the scheme's exact states."""
    step = _rk4_step_matrix(build_hamiltonian(params), dt)
    p = _mp.matrix([[_mp.mpc(x) for x in row] for row in step.tolist()])
    v = [_mp.mpc(x) for x in initial_state(theta).tolist()]
    powers, log_norm, done = {}, _mp.mpf(0), 0
    out = {"concurrence": [], "coherence_x": [], "norm_log": []}
    for m in steps:
        if m > done:
            if m - done not in powers:
                q = p ** (m - done)
                powers[m - done] = [[q[i, k] for k in range(4)] for i in range(4)]
            q = powers[m - done]
            v = [_mp.fsum(q[i][k] * v[k] for k in range(4)) for i in range(4)]
            norm = _mp.sqrt(_mp.fsum(abs(x) ** 2 for x in v))
            log_norm += _mp.log(norm)
            v = [x / norm for x in v]
            done = m
        out["concurrence"].append(2 * abs(v[1] * v[2] - v[0] * v[3]))
        out["coherence_x"].append(2 * _mp.re(_mp.conj(v[0]) * v[2] + _mp.conj(v[1]) * v[3]))
        out["norm_log"].append(log_norm)
    return out


def audit(old: Path, new: Path, command: list[str], emit=print) -> list[dict]:
    """Emit one line per changed field and return one summary per audited column."""
    header, old_rows = read_table(old)
    new_header, new_rows = read_table(new)
    if new_header != header or new_rows.shape != old_rows.shape:
        raise SystemExit("the two tables differ in shape or header")
    columns, steps, dt = runs_of(command)
    if len(steps) != len(old_rows):
        raise SystemExit(f"{len(old_rows)} rows, but the command records {len(steps)}")
    refs = {}
    summaries = []
    for c, name in enumerate(header):
        if name not in columns:
            if not np.array_equal(old_rows[:, c], new_rows[:, c]):
                raise SystemExit(f"column {name} changed and has no reference")
            continue
        params, theta, observable = columns[name]
        if (params, theta) not in refs:
            refs[params, theta] = reference(params, theta, dt, steps)
        ref = refs[params, theta][observable]
        old_all, new_all = ([float(abs(_mp.mpf(x) - r)) for x, r in zip(rows[:, c].tolist(), ref)]
                            for rows in (old_rows, new_rows))
        changed = np.flatnonzero(old_rows[:, c] != new_rows[:, c]).tolist()
        toward = 0
        for i in changed:
            a, b = float(old_rows[i, c]), float(new_rows[i, c])
            toward += new_all[i] < old_all[i]
            emit(f"row {i} {name}: {a!r} -> {b!r}  |old-ref| {old_all[i]:.3g}  "
                 f"|new-ref| {new_all[i]:.3g}  {'toward' if new_all[i] < old_all[i] else 'away'}")
        old_err, moved = [old_all[i] for i in changed], [new_all[i] for i in changed]
        summaries.append({
            "column": name, "rows": len(steps), "changed": len(changed), "toward": toward,
            "old_max": max(old_err, default=0.0), "new_max": max(moved, default=0.0),
            "old_median": statistics.median(old_err) if changed else 0.0,
            "new_median": statistics.median(moved) if changed else 0.0,
            "old_max_all": max(old_all), "new_max_all": max(new_all),
        })
    return summaries


def _run(src: Path, command: list[str], out: Path):
    """The ptq-sim command run on the ptqsim in src, writing out."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-m", "ptqsim.cli", *command, "--out", str(out)],
                   env=env, check=True, timeout=600)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="run the command on REV's tracked files (OLD) and on this tree (NEW)")
    parser.add_argument("files", nargs="*", type=Path, metavar="OLD NEW")
    parser.epilog = "-- then the ptq-sim argv that wrote both files"
    argv = sys.argv[1:] if argv is None else argv
    cut = argv.index("--") if "--" in argv else len(argv)
    args, command = parser.parse_args(argv[:cut]), argv[cut + 1:]
    if not command:
        parser.error("name the ptq-sim command after --")
    if len(args.files) != (0 if args.against else 2):
        parser.error("give OLD and NEW, or --against REV, not both")
    if args.against:
        sys.path.insert(0, str(ROOT / "scripts"))
        from bench_pairs import parent_checkout

        with parent_checkout(args.against, ROOT) as parent, tempfile.TemporaryDirectory() as tmp:
            old, new = Path(tmp) / "old", Path(tmp) / "new"
            _run(parent / "src", command, old)
            _run(ROOT / "src", command, new)
            summaries = audit(old, new, command)
    else:
        summaries = audit(*args.files, command)
    for summary in summaries:
        print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
