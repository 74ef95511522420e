#!/usr/bin/env python3
"""Audit the fields that differ between two outputs of one ptq-sim command against 40 digits.

Usage (from the repository root):

    python3 scripts/digit_audit.py OLD NEW -- reproduce fig5a
    python3 scripts/digit_audit.py old.json new.json -- evolve --omega 2 --j 0.4 --tmax 2 --dt 0.01
    python3 scripts/digit_audit.py --against HEAD -- reproduce fig7a
    python3 scripts/digit_audit.py --against HEAD -- qfi --omega 2 --j 0.4 --sweep-axis j

OLD and NEW are two outputs (CSV or --format json) of the ptq-sim command
after "--".  The command names the run exactly; it is parsed, not run.  With
--against REV there are no files: REV's tracked files are exported with `git
archive` (as scripts/bench_pairs.py does), and the command is run on REV's
src for OLD and on this tree's src for NEW.  The commands and their
references:

- `evolve`, or `reproduce` of a dynamics preset (fig4 to fig6b): each row's
  40-digit state P^m psi0, with P the program's own RK4 step matrix
  (`dynamics._rk4_step_matrix`) and psi0 its initial state, both read as the
  exact binary numbers they are, propagated row by row and renormalized.
  From it come the concurrence, the coherence <sigma_x^1> and the log-norm
  log ||P^m psi0||: the exact values of the scheme the program integrates, so
  a distance to them is rounding alone.  A fig5a column of 100 001 rows takes
  about half a minute.
- `sense`, `qfi`, or `reproduce` of a sensing preset (fig7a to fig8b): Psi3's
  QFI, coherence and coherence slope by a 40-digit central difference
  (tests/mp_reference.py), and from them variance_sq, inv_variance_sq and
  cr_bound.  Flagged rows have no reference.
- `concurrence` (a point or a sweep), or `reproduce fig3a`/`fig3b`: Psi3's and
  Psi4's concurrences of the 40-digit null vectors; the paper's radical form
  (`eigenstate_concurrence_closed`) evaluated at 40 digits at the 40-digit
  roots; and the largest distance between the two.
- `reproduce fig2`: each cell's 40-digit E3 and E4, the roots nearest the
  closed form's.
- `spectrum`: the 40-digit eigenvalues and null vectors, each vector's phase
  aligned to the audited one's; max_residual's reference is 0.
- `ep-locate` and `ep-curve`: at each located point (located again by this
  tree, whose j_c is the exact flip of z's sign), the gap and the mean of the
  two 40-digit sector roots nearest each other.

Every changed field gets one line: its row, column, old and new values,
|old - ref|, |new - ref| and whether it moved toward the reference.  Each
column then gets one JSON line: how many fields changed and moved toward the
reference, the largest and median |old - ref| and |new - ref| over the
changed fields, and the largest |old - ref| and |new - ref| over all its
fields.  A changed field without a reference stops the audit.
"""
import argparse
import json
import math
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

from ptqsim import cli, ep_curve, locate_ep  # noqa: E402
from ptqsim.dynamics import _rk4_step_matrix, initial_state  # noqa: E402
from ptqsim.model import SystemParams, build_hamiltonian  # noqa: E402
from ptqsim.spectrum import _eigenvalues, _unit_point, eigenvalues_closed_form  # noqa: E402

_mp = mpmath.MPContext()
_mp.dps = 40


def _leaves(prefix: str, value) -> list:
    """(name, number) of each numeric leaf of a JSON value, named by its path."""
    if isinstance(value, dict):
        return [leaf for k, v in value.items() for leaf in _leaves(f"{prefix}{k}.", v)]
    if isinstance(value, list):
        return [leaf for k, v in enumerate(value) for leaf in _leaves(f"{prefix}{k}.", v)]
    if value is None or isinstance(value, (int, float)) and not isinstance(value, bool):
        return [(prefix[:-1], math.nan if value is None else float(value))]
    return []


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    """The header and the float rows of a CSV (after its # lines) or JSON table; a JSON
    point object is one row of its numeric leaves, named by their paths (`eigenvectors.1.2.re`).
    Empty cells and nulls read as NaN, and text columns are dropped."""
    text = path.read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        results = json.loads(text)["results"]
        if "rows" not in results:
            names, values = zip(*_leaves("", results))
            return list(names), np.array([values], dtype=float)
        header, rows = results["columns"], results["rows"]
    else:
        lines = [line for line in text.splitlines() if not line.startswith("#")]
        header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    keep = [c for c, name in enumerate(header) if name not in ("flag", "failure")]
    cells = [[math.nan if row[c] in ("", None) else float(row[c]) for c in keep] for row in rows]
    return [header[c] for c in keep], np.array(cells, dtype=float).reshape(len(rows), len(keep))


#: The preset runners whose arguments name a run: dynamics, sensing and fig3's sweeps.
_RUNNERS = ("_evolve_columns", "_preset_sense", "_preset_fig3")


def _captured(args) -> tuple:
    """(runner, its arguments) of a preset, captured where it would run; fig2's are the
    (omega, j) of its cells, from the rows it would write."""
    if cli.PRESETS[args.preset] is cli._preset_fig2:
        emit, rows = cli._emit, []
        cli._emit = lambda _args, _desc, _header, table, _meta: rows.extend(table)
        try:
            cli._preset_fig2(args)
        finally:
            cli._emit = emit
        return "_preset_fig2", [(float(r[0]), float(r[1])) for r in rows]
    captured, originals = [], {name: getattr(cli, name) for name in _RUNNERS}
    for name in _RUNNERS:
        setattr(cli, name, lambda _args, *rest, name=name: captured.append((name, rest)))
    try:
        cli.PRESETS[args.preset](args)
    finally:
        for name, runner in originals.items():
            setattr(cli, name, runner)
    return captured[0]


def runs_of(command: list[str]) -> tuple[dict, list[int], float]:
    """({column: (params, theta, observable)}, recorded step counts, dt) of a dynamics argv."""
    args = cli.build_parser().parse_args(command)
    if args.command == "evolve":
        params = cli._params_from(args)
        columns = {name: (params, args.theta, name)
                   for name in ("concurrence", "coherence_x", "norm_log")}
        grid = (args.tmax, args.dt, args.record_every)
    elif args.command == "reproduce" and _captured(args)[0] == "_evolve_columns":
        _desc, runs, *grid = _captured(args)[1]
        columns = {name: (params, theta, "concurrence") for name, params, theta in runs}
    else:
        raise SystemExit(f"not a dynamics command: {' '.join(command)}")
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


def _dynamics_references(command: list[str], header: list[str], rows: np.ndarray) -> dict:
    columns, steps, dt = runs_of(command)
    if len(steps) != len(rows):
        raise SystemExit(f"{len(rows)} rows, but the command records {len(steps)}")
    refs, out = {}, {}
    for name in header:
        if name in columns:
            params, theta, observable = columns[name]
            if (params, theta) not in refs:
                refs[params, theta] = reference(params, theta, dt, steps)
            out[name] = refs[params, theta][observable]
    return out


def _mp_reference():
    """tests/mp_reference.py: the 40-digit eigenvectors and sensing references."""
    sys.path.insert(0, str(ROOT / "tests"))
    import mp_reference

    return mp_reference


def _point(fixed: str, fixed_value: float, axis: str, x: float, gamma: float) -> SystemParams:
    return SystemParams(**{fixed: fixed_value, axis: x}, gamma=gamma)


def _sensing_reference(params: SystemParams, kappa: str) -> dict:
    f, m0, slope = _mp_reference().psi3_sensing_mp(
        params.omega, params.j, params.gamma, kappa, eigenvalues_closed_form(params)[2])
    variance = (1 - m0 * m0) / (slope * slope)
    return {"qfi": f, "coherence": m0, "variance_sq": variance,
            "inv_variance_sq": 1 / variance, "cr_bound": 1 / _mp.sqrt(f)}


def _sector_reference(params: SystemParams) -> list:
    """Psi2..Psi4 at 40 digits, of the unit-scale point (they are scale-free), paired with
    the closed form's roots by their deltas E - j, which resolve roots that round to one E."""
    unit = _unit_point(params)[1]
    return _mp_reference().sector_states(unit.omega, unit.j, unit.gamma, _eigenvalues(params)[1])


def _radical_concurrence(omega, j, gamma, e):
    """The radical form of eigenstate_concurrence_closed at 40 digits, at the root e."""
    d = j - e + _mp.mpc(0, gamma)
    r1, r2 = -2 * (j + e) * d / omega**2 - 1, -d / omega
    n2 = 1 / (1 + abs(r1) ** 2 + 2 * abs(r2) ** 2)
    a = 2 * r1.real - 2 * abs(r2) ** 2
    common = (2 * r1.real) ** 2 - 2 * a * abs(r2) ** 2 - 4 * abs(r2) ** 2 * r1.real
    lam1, lam2 = (n2**2 * (common + sign * a * a) / 2 for sign in (1, -1))
    return _mp.sqrt(max(lam1, 0)) - _mp.sqrt(max(lam2, 0))


def _concurrence_reference(params: SystemParams) -> dict:
    """Psi3's and Psi4's 40-digit concurrences, the radical form's (none where it refuses
    omega ~ 0), and the largest distance between them."""
    c3, c4 = (_mp_reference().pure_concurrence(v) for v in _sector_reference(params)[1:])
    out = {"c_psi3": c3, "c_psi4": c4, "closed3": None, "closed4": None, "max": None}
    unit = _unit_point(params)[1]
    if abs(unit.omega) > 1e-12:
        rates = (unit.omega, unit.j, unit.gamma)
        roots = _mp_reference().paired_roots(*rates, _eigenvalues(params)[1])
        rates = [_mp.mpf(r) for r in rates]
        out["closed3"], out["closed4"] = (_radical_concurrence(*rates, e) for e in roots[1:])
        out["max"] = max(abs(c3 - out["closed3"]), abs(c4 - out["closed4"]))
    return out


def _spectrum_reference(params: SystemParams, header: list[str], row: np.ndarray) -> dict:
    """{field: reference} of a spectrum point: each vector's phase aligned to row's."""
    values = eigenvalues_closed_form(params)
    roots = _mp_reference().hamiltonian_eigenvalues(params.omega, params.j, params.gamma)
    near = [min(roots, key=lambda r, v=v: abs(r - v)) for v in values]
    r2 = 1 / _mp.sqrt(2)
    states = [[0, -r2, r2, 0]] + _sector_reference(params)
    field = dict(zip(header, row.tolist()))
    out = {"max_residual": 0, "max_imag": max(abs(r.imag) for r in near)}
    for k, state in enumerate(states):
        got = [_mp.mpc(field[f"eigenvectors.{k}.{i}.re"], field[f"eigenvectors.{k}.{i}.im"])
               for i in range(4)]
        overlap = _mp.fsum(_mp.conj(s) * g for s, g in zip(state, got))
        phase = overlap / abs(overlap)
        for i, amplitude in enumerate(state):
            out[f"eigenvectors.{k}.{i}.re"] = _mp.re(amplitude * phase)
            out[f"eigenvectors.{k}.{i}.im"] = _mp.im(amplitude * phase)
        out[f"eigenvalues.{k}.re"], out[f"eigenvalues.{k}.im"] = near[k].real, near[k].imag
    return out


def _pair_reference(point) -> dict | None:
    """The 40-digit gap and degenerate eigenvalue of a located EpPoint (None for none): the
    two sector roots nearest each other, the pair that coalesces there."""
    if point is None:
        return None
    roots = _mp_reference().hamiltonian_eigenvalues(point.omega_c, point.j_c, point.gamma)[1:]
    r3, r4 = min(((a, b) for k, a in enumerate(roots) for b in roots[k + 1:]),
                 key=lambda pair: abs(pair[0] - pair[1]))
    mean = (r3 + r4) / 2
    return {"gap": abs(r3 - r4), "re_e_degenerate": mean.real, "im_e_degenerate": mean.imag}


def _grid(rows: np.ndarray, value_range, n: int) -> list[float]:
    """The sweep's grid as the program builds it (a CSV prints it to 12 digits only)."""
    if len(rows) != n:
        raise SystemExit(f"{len(rows)} rows, but the command sweeps {n} points")
    return np.linspace(value_range[0], value_range[1], n).tolist()


def references(command: list[str], header: list[str], rows: np.ndarray) -> dict:
    """{column: [reference per row, None where there is none]} of one side's table."""
    args = cli.build_parser().parse_args(command)
    point = cli._params_from(args) if hasattr(args, "omega") else None
    sweep = None
    if args.command == "sense":
        fixed = args.omega if args.sweep_axis == "j" else args.j
        sweep = (args.sweep_axis, fixed, args.sweep_range, args.n, args.gamma)
    elif args.command == "reproduce" and _captured(args)[0] == "_preset_sense":
        sweep = (*_captured(args)[1], 1.0)
    if sweep is not None:
        kappa, fixed, value_range, n, gamma = sweep
        other = "omega" if kappa == "j" else "j"
        out = {name: [] for name in header[1:]}
        for x, row in zip(_grid(rows, value_range, n), rows):
            ref = None if math.isnan(row[1]) else _sensing_reference(
                _point(other, fixed, kappa, x, gamma), kappa)
            for name in out:
                out[name].append(ref and ref[name])
        return out
    if args.command == "qfi":
        ref = _sensing_reference(point, args.sweep_axis or "omega")
        return {name: [ref[name]] for name in header}
    if args.command == "reproduce" and _captured(args)[0] == "_preset_fig2":
        out = {name: [] for name in ("re_e3", "im_e3", "re_e4", "im_e4")}
        for omega, j in _captured(args)[1]:
            params = SystemParams(omega, j, 1.0)
            roots = _mp_reference().hamiltonian_eigenvalues(omega, j, 1.0)
            for k, v in ((3, eigenvalues_closed_form(params)[2]),
                         (4, eigenvalues_closed_form(params)[3])):
                near = min(roots, key=lambda r: abs(r - v))
                out[f"re_e{k}"].append(near.real)
                out[f"im_e{k}"].append(near.imag)
        return out
    if args.command == "reproduce" and _captured(args)[0] == "_preset_fig3":
        axis, fixed_value, value_range, n = _captured(args)[1]
        fix = "omega" if axis == "j" else "j"
        refs = [_concurrence_reference(_point(fix, fixed_value, axis, x, 1.0))
                for x in _grid(rows, value_range, n)]
        return {name: [ref[name] for ref in refs] for name in ("c_psi3", "c_psi4")}
    if args.command == "concurrence":
        if args.sweep_axis is None:
            points, closed = [point], ["closed_form.c_psi3", "closed_form.c_psi4"]
        else:
            points = [point.replace(**{args.sweep_axis: x})
                      for x in _grid(rows, args.sweep_range, args.n)]
            closed = ["c_closed_psi3", "c_closed_psi4"]
        refs = [_concurrence_reference(p) for p in points]
        return {name: [ref[key] for ref in refs] for name, key in (
            ("c_psi3", "c_psi3"), ("c_psi4", "c_psi4"), (closed[0], "closed3"),
            (closed[1], "closed4"), ("max_closed_form_discrepancy", "max"))}
    if args.command in ("ep-locate", "ep-curve"):
        if args.command == "ep-locate":
            fix, value = ("omega", args.omega) if args.sweep_axis == "j" else ("j", args.j)
            points = [locate_ep(fix, value, args.sweep_range, gamma=args.gamma)]
        else:
            points = [e.point for e in ep_curve(args.sweep_range, args.n, gamma=args.gamma)]
        refs = [_pair_reference(p) for p in points]
        return {name: [ref and ref[name] for ref in refs]
                for name in ("gap", "re_e_degenerate", "im_e_degenerate")}
    if args.command == "spectrum":
        ref = _spectrum_reference(point, header, rows[0])
        return {name: [ref[name]] for name in header if name in ref}
    return _dynamics_references(command, header, rows)


def audit(old: Path, new: Path, command: list[str], emit=print) -> list[dict]:
    """Emit one line per changed field and return one summary per audited column."""
    header, old_rows = read_table(old)
    new_header, new_rows = read_table(new)
    if new_header != header or new_rows.shape != old_rows.shape:
        raise SystemExit("the two tables differ in shape or header")
    old_refs = references(command, header, old_rows)
    new_refs = references(command, header, new_rows)
    summaries = []
    for c, name in enumerate(header):
        same = (old_rows[:, c] == new_rows[:, c]) | (np.isnan(old_rows[:, c])
                                                     & np.isnan(new_rows[:, c]))
        if name not in old_refs:
            if not same.all():
                raise SystemExit(f"column {name} changed and has no reference")
            continue

        def errors(rows, refs):
            return [0.0 if r is None else float(abs(_mp.mpf(x) - r))
                    for x, r in zip(rows[:, c].tolist(), refs[name])]

        old_all, new_all = errors(old_rows, old_refs), errors(new_rows, new_refs)
        changed = np.flatnonzero(~same).tolist()
        if any(old_refs[name][i] is None or new_refs[name][i] is None for i in changed):
            raise SystemExit(f"column {name} changed where it has no reference")
        toward = 0
        for i in changed:
            a, b = float(old_rows[i, c]), float(new_rows[i, c])
            toward += new_all[i] < old_all[i]
            emit(f"row {i} {name}: {a!r} -> {b!r}  |old-ref| {old_all[i]:.3g}  "
                 f"|new-ref| {new_all[i]:.3g}  {'toward' if new_all[i] < old_all[i] else 'away'}")
        old_err, moved = [old_all[i] for i in changed], [new_all[i] for i in changed]
        summaries.append({
            "column": name, "rows": len(old_rows), "changed": len(changed), "toward": toward,
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
