"""Command-line front end: sweeps, evolution, sensing, and figure-data presets.

Output contract: every CSV starts with the magic line ``# ptq-sim v1`` and a
``# params: ...`` comment (extra ``# key: value`` metadata lines may
follow), then a header row.  Complex numbers are exported as ``re_*`` /
``im_*`` column pairs; undefined values are left empty next to a ``flag``
column.  JSON output is one object with ``params``, ``results`` and
``diagnostics`` keys.  Exit codes: 0 success, 2 validation/usage error,
3 numerical failure; an --out that cannot be written (a missing directory, a
directory) exits 2 and names the OSError.  Identical configurations produce
byte-identical files.

``--out PATH`` is rewritten in place: opened without truncation (created with
mode 0o666 less the umask, as ``open(PATH, "w")`` creates it), written, then
cut to the new length when it is a regular file, so ``/dev/null``, FIFOs and
``/dev/stdout`` work too.  The bytes, inode, mode, symlink target and hard
links come out as ``open(PATH, "w")`` leaves them.  Truncating a file to zero
bytes first would make ext4 (with its default ``auto_da_alloc``) flush it to
disk on close, which costs more than writing a small table; a run that rewrites
one file per call, as a benchmark loop does, would pay that flush every time.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import stat
import sys

import numpy as np

from . import __version__
from .dynamics import detect_revivals, initial_state, propagate
from .entanglement import eigenstate_concurrence_closed, eigenstate_concurrence_wootters
from .ep import ep_curve, locate_ep
from .errors import NumericalError, OmegaSingularError, ValidationError
from .model import SystemParams
from .sensing import _sense_point, sensing_sweep
from .spectrum import (
    classify_phase,
    eigenvalues_closed_form,
    spectrum_closed_form,
    spectrum_oracle,
)

MAGIC = "# ptq-sim v1"
#: A whole CSV field that reads nan (a NaN float) or None (a missing flag or failure).
_EMPTY_FIELD = re.compile(r"(?<![^,\n])(?:nan|None)(?![^,\n])")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float) and math.isnan(x):
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.12g}"
    return str(x)


def _jsonable(x):
    if isinstance(x, (float, np.floating)):
        x = float(x)
        return None if math.isnan(x) else x
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    return x


def _write(out_path: str, text: str):
    """Write text to stdout ("-") or to out_path, rewritten in place (see the module docstring)."""
    if out_path == "-":
        sys.stdout.write(text)
        return
    with open(os.open(out_path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode("utf-8"))
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()  # at the end of the new bytes: drops a longer file's stale tail


def _emit(args, params_desc: str, header: list[str], rows: list[list] | np.ndarray, meta: dict,
          results: dict | None = None):
    """Write one table as CSV, or as JSON {params, results, diagnostics}.

    results, when given, is a point command's JSON object; its CSV is the table.
    """
    rows = rows.tolist() if isinstance(rows, np.ndarray) else rows
    if args.format == "json":
        if results is None:
            results = {"columns": header, "rows": rows}
        payload = {"params": params_desc, "results": results, "diagnostics": meta}
        _write(args.out, json.dumps(_jsonable(payload), indent=2) + "\n")
        return
    lines = [MAGIC, f"# params: {params_desc}"]
    for key, value in meta.items():
        lines.append(f"# {key}: {_fmt(value)}")
    lines.append(",".join(header))
    if len(rows):
        # one template per table: each column formats as its first row's value does
        template = ",".join(
            "%d" if isinstance(v, (int, np.integer))
            else "%.12g" if isinstance(v, (float, np.floating)) else "%s" for v in rows[0])
        body = "\n".join([template % tuple(row) for row in rows])
        # a field reads nan only for a NaN float and None only for None: both print empty
        lines.append(_EMPTY_FIELD.sub("", body) if "nan" in body or "None" in body else body)
    _write(args.out, "\n".join(lines) + "\n")


def _params_from(args) -> SystemParams:
    return SystemParams(omega=args.omega, j=args.j, gamma=args.gamma)


def _params_desc(params: SystemParams, **extra) -> str:
    parts = [f"omega={_fmt(params.omega)}", f"j={_fmt(params.j)}", f"gamma={_fmt(params.gamma)}"]
    parts += [f"{k}={_fmt(v)}" for k, v in extra.items()]
    return " ".join(parts)


def _sweep_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except Exception:
        raise argparse.ArgumentTypeError(f"expected a:b, got {text!r}")


def _require_range(args):
    """The range commands' shared argument check: --sweep-range with finite ends."""
    if args.sweep_range is None:
        raise ValidationError(f"{args.command} requires --sweep-range")
    if not all(math.isfinite(x) for x in args.sweep_range):
        raise ValidationError(f"--sweep-range ends must be finite, got {args.sweep_range}")


def _require_sweep(args):
    """The sweep commands' shared argument check: a range and --n >= 1."""
    _require_range(args)
    if args.n is None:
        raise ValidationError(f"{args.command} sweep requires --n")
    if args.n < 1:
        raise ValidationError(f"--n must be >= 1, got {args.n}")


# ---------------------------------------------------------------- commands


def cmd_spectrum(args) -> int:
    params = _params_from(args)
    try:
        spec = spectrum_closed_form(params)
    except OmegaSingularError:
        spec = spectrum_oracle(params)
    label = classify_phase(params)
    results = {
        "eigenvalues": [
            {"label": f"E{k+1}", "re": spec.eigenvalues[k].real, "im": spec.eigenvalues[k].imag}
            for k in range(4)
        ],
        "eigenvectors": [_jsonable(spec.eigenvectors[k]) for k in range(4)],
        "source": spec.source.value,
        "max_residual": spec.max_residual,
        "phase": label.phase.value,
        "max_imag": label.max_imag,
    }
    header = ["label", "re_e", "im_e"] + [f"{p}_v{i}" for i in range(4) for p in ("re", "im")]
    rows = []
    for k in range(4):
        row = [f"E{k+1}", spec.eigenvalues[k].real, spec.eigenvalues[k].imag]
        for i in range(4):
            row += [spec.eigenvectors[k][i].real, spec.eigenvectors[k][i].imag]
        rows.append(row)
    meta = {"source": spec.source.value, "phase": label.phase.value,
            "max_residual": spec.max_residual}
    _emit(args, _params_desc(params), header, rows, meta, results)
    return 0


def _ep_point_payload(point):
    return {
        "j_c": point.j_c,
        "omega_c": point.omega_c,
        "gamma": point.gamma,
        "residual_theta": point.residual_theta,
        "residual_x": point.residual_x,
        "gap": point.gap,
        "re_e_degenerate": point.e_degenerate.real,
        "im_e_degenerate": point.e_degenerate.imag,
    }


def cmd_ep_locate(args) -> int:
    _require_range(args)
    if args.sweep_axis == "j":
        fix, fixed_value = "omega", args.omega
    else:
        fix, fixed_value = "j", args.j
    point = locate_ep(fix, fixed_value, args.sweep_range, gamma=args.gamma)
    payload = _ep_point_payload(point)
    header = list(payload)
    desc = f"fix={fix} value={_fmt(fixed_value)} gamma={_fmt(args.gamma)} " \
           f"bracket={_fmt(args.sweep_range[0])}:{_fmt(args.sweep_range[1])}"
    _emit(args, desc, header, [list(payload.values())], {}, payload)
    return 0


def cmd_ep_curve(args) -> int:
    _require_sweep(args)
    entries = ep_curve(args.sweep_range, args.n, gamma=args.gamma)
    header = ["omega", "j_c", "residual_theta", "residual_x", "gap",
              "re_e_degenerate", "im_e_degenerate", "failure"]
    rows = []
    for entry in entries:
        if entry.point is None:
            rows.append([entry.omega] + [float("nan")] * 6 + [entry.failure])
        else:
            p = entry.point
            rows.append([entry.omega, p.j_c, p.residual_theta, p.residual_x, p.gap,
                         p.e_degenerate.real, p.e_degenerate.imag, None])
    desc = f"gamma={_fmt(args.gamma)} omega_range=" \
           f"{_fmt(args.sweep_range[0])}:{_fmt(args.sweep_range[1])} n={args.n}"
    _emit(args, desc, header, rows, {"n_failed": sum(r[-1] is not None for r in rows)})
    return 0


def _concurrence_row(params: SystemParams):
    c3 = eigenstate_concurrence_wootters(params, 3)
    c4 = eigenstate_concurrence_wootters(params, 4)
    cc3 = eigenstate_concurrence_closed(params, 3, check=False)
    cc4 = eigenstate_concurrence_closed(params, 4, check=False)
    return c3, c4, cc3, cc4


def cmd_concurrence(args) -> int:
    params = _params_from(args)
    if args.sweep_axis is None:
        c3, c4, cc3, cc4 = _concurrence_row(params)
        results = {"c_psi3": c3, "c_psi4": c4,
                   "closed_form": {"c_psi3": cc3, "c_psi4": cc4},
                   "max_closed_form_discrepancy": max(abs(c3 - cc3), abs(c4 - cc4))}
        header = ["c_psi3", "c_psi4", "c_closed_psi3", "c_closed_psi4"]
        _emit(args, _params_desc(params), header, [[c3, c4, cc3, cc4]], {}, results)
        return 0
    _require_sweep(args)
    grid = np.linspace(args.sweep_range[0], args.sweep_range[1], args.n)
    rows = []
    for x in grid:
        p = params.replace(**{args.sweep_axis: float(x)})
        rows.append([float(x), *_concurrence_row(p)])
    header = [args.sweep_axis, "c_psi3", "c_psi4", "c_closed_psi3", "c_closed_psi4"]
    _emit(args, _params_desc(params, sweep=args.sweep_axis), header, rows, {})
    return 0


def _trajectory(args):
    """The evolve/revivals run and its params description."""
    params = _params_from(args)
    traj = propagate(params, initial_state(args.theta), args.tmax, args.dt,
                     record_every=args.record_every)
    return traj, _params_desc(params, theta=args.theta, tmax=args.tmax, dt=args.dt)


def cmd_evolve(args) -> int:
    traj, desc = _trajectory(args)
    header = ["t", "concurrence", "coherence_x", "norm_log"]
    rows = np.column_stack((traj.times, traj.concurrence, traj.coherence_x, traj.norm_log))
    _emit(args, desc, header, rows, {})
    return 0


def cmd_revivals(args) -> int:
    traj, desc = _trajectory(args)
    revivals = detect_revivals(traj, envelope_window=args.envelope_window,
                               collapse_fraction=args.collapse_fraction)
    meta = {
        "n_revivals": len(revivals),
        "first_revival": float(revivals[0]) if len(revivals) else None,
        "envelope_window": args.envelope_window,
        "collapse_fraction": args.collapse_fraction,
    }
    _emit(args, desc, ["revival_index", "revival_time"],
          [[k, t] for k, t in enumerate(revivals)], meta)
    return 0


def cmd_qfi(args) -> int:
    params = _params_from(args)
    kappa = args.sweep_axis or "omega"
    f, coh, var = _sense_point(params, kappa)
    results = {
        "kappa": kappa,
        "qfi": f,
        "cr_bound": 1.0 / math.sqrt(f),
        "variance_sq": var,
        "inv_variance_sq": 1.0 / var,
        "coherence": coh,
    }
    header = list(results)
    _emit(args, _params_desc(params), header, [list(results.values())], {}, results)
    return 0


def _sense_table(kappa: str, fixed_value: float, rng: tuple, n: int, gamma: float):
    """The `sense` sweep as (params description, header, rows, points)."""
    points = sensing_sweep(kappa, fixed_value, rng, n, gamma=gamma)
    header = [kappa, "qfi", "variance_sq", "inv_variance_sq", "coherence", "cr_bound", "flag"]
    rows = [
        [p.value, p.qfi, p.variance_sq,
         (1.0 / p.variance_sq) if p.variance_sq and not math.isnan(p.variance_sq) else float("nan"),
         p.coherence, p.cr_bound, p.flag]
        for p in points
    ]
    fixed_name = "omega" if kappa == "j" else "j"
    desc = f"kappa={kappa} {fixed_name}={_fmt(fixed_value)} gamma={_fmt(gamma)} " \
           f"range={_fmt(rng[0])}:{_fmt(rng[1])} n={n}"
    return desc, header, rows, points


def cmd_sense(args) -> int:
    kappa = args.sweep_axis
    if kappa is None:
        raise ValidationError("sense requires --sweep-axis j|omega")
    _require_sweep(args)
    fixed_value = args.omega if kappa == "j" else args.j
    desc, header, rows, points = _sense_table(
        kappa, fixed_value, args.sweep_range, args.n, args.gamma)
    _emit(args, desc, header, rows,
          {"n_flagged": sum(p.flag is not None for p in points)})
    return 0


# ---------------------------------------------------------------- presets


def _preset_fig2(args):
    omegas = np.linspace(0.0, 3.0, 61)
    js = np.linspace(0.0, 1.2, 61)
    rows = []
    for om in omegas:
        for j in js:
            values = eigenvalues_closed_form(SystemParams(omega=float(om), j=float(j), gamma=1.0))
            rows.append([om, j, values[2].real, values[2].imag,
                         values[3].real, values[3].imag])
    header = ["omega", "j", "re_e3", "im_e3", "re_e4", "im_e4"]
    _emit(args, "gamma=1 omega=0:3 j=0:1.2 grid=61x61", header, rows, {})


def _preset_fig3(args, axis: str, fixed_value: float, sweep: tuple, n: int):
    fix = "omega" if axis == "j" else "j"
    point = locate_ep(fix, fixed_value, sweep)
    rows = []
    for x in np.linspace(sweep[0], sweep[1], n):
        p = SystemParams(**{fix: fixed_value, axis: float(x)}, gamma=1.0)
        rows.append([x, eigenstate_concurrence_wootters(p, 3),
                     eigenstate_concurrence_wootters(p, 4)])
    header = [axis, "c_psi3", "c_psi4"]
    critical = {"j_c": point.j_c} if axis == "j" else {"omega_c": point.omega_c}
    desc = f"{fix}={_fmt(fixed_value)} gamma=1 {axis}={_fmt(sweep[0])}:{_fmt(sweep[1])} n={n}"
    _emit(args, desc, header, rows, critical)


def _evolve_columns(args, desc: str, runs, t_max: float, dt: float, record_every: int):
    """Concurrence of each (column, params, theta) run on their shared time grid."""
    header, series = ["t"], []
    for column, params, theta in runs:
        traj = propagate(params, initial_state(theta), t_max, dt, record_every=record_every)
        header.append(column)
        series.append(traj.concurrence)
    _emit(args, desc, header, np.column_stack((traj.times, *series)), {})


def _preset_sense(args, kappa, fixed_value, rng, n):
    point = locate_ep("j" if kappa == "omega" else "omega", fixed_value, rng)
    desc, header, rows, _ = _sense_table(kappa, fixed_value, rng, n, 1.0)
    _emit(args, desc, header, rows, {"j_c": point.j_c, "omega_c": point.omega_c})


PRESETS = {
    "fig2": _preset_fig2,
    "fig3a": lambda a: _preset_fig3(a, "j", 2.000, (0.30, 0.90), 121),
    "fig3b": lambda a: _preset_fig3(a, "omega", 0.300, (1.20, 2.20), 201),
    "fig4": lambda a: _evolve_columns(
        a, "gamma=1 theta=pi/2 tmax=40 dt=0.001 pts=(2.0,0.4) ptb=(2.0,0.7)",
        [("concurrence_pts", SystemParams(2.0, 0.4), np.pi / 2),
         ("concurrence_ptb", SystemParams(2.0, 0.7), np.pi / 2)], 40.0, 1e-3, 10),
    "fig5a": lambda a: _evolve_columns(
        a, "omega=1.7 gamma=1 j=0.336,0.337 theta=pi/2 tmax=2000 dt=0.005",
        [("concurrence_j0336", SystemParams(1.7, 0.336), np.pi / 2),
         ("concurrence_j0337", SystemParams(1.7, 0.337), np.pi / 2)], 2000.0, 5e-3, 4),
    "fig5b": lambda a: _evolve_columns(
        a, "j=0.5 gamma=1 omega=1.901,1.902 theta=pi/2 tmax=2000 dt=0.005",
        [("concurrence_omega1901", SystemParams(1.901, 0.5), np.pi / 2),
         ("concurrence_omega1902", SystemParams(1.902, 0.5), np.pi / 2)], 2000.0, 5e-3, 4),
    "fig6a": lambda a: _evolve_columns(
        a, "omega=1.5 j=0.01 gamma=0 tmax=200 dt=0.001 theta=pi/2,pi/4",
        [("c_theta_pi_2", SystemParams(1.5, 0.01, 0.0), np.pi / 2),
         ("c_theta_pi_4", SystemParams(1.5, 0.01, 0.0), np.pi / 4)], 200.0, 1e-3, 10),
    "fig6b": lambda a: _evolve_columns(
        a, "omega=1.5 j=0.01 gamma=1.1 tmax=200 dt=0.001 theta=pi/2,pi/4",
        [("c_theta_pi_2", SystemParams(1.5, 0.01, 1.1), np.pi / 2),
         ("c_theta_pi_4", SystemParams(1.5, 0.01, 1.1), np.pi / 4)], 200.0, 1e-3, 10),
    "fig7a": lambda a: _preset_sense(a, "omega", 0.300, (1.4, 2.0), 601),
    "fig7b": lambda a: _preset_sense(a, "j", 2.000, (0.3, 0.9), 601),
    "fig8a": lambda a: _preset_sense(a, "omega", 0.300, (1.4, 2.0), 200),
    "fig8b": lambda a: _preset_sense(a, "j", 1.700, (0.25, 0.45), 200),
}


def cmd_reproduce(args) -> int:
    PRESETS[args.preset](args)
    return 0


# ---------------------------------------------------------------- wiring


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValidationError, so main reports them as one JSON line.

    Any float literal is a value, so `--omega -1e-3` and `--sweep-range -inf:0`
    parse like their `=` forms (argparse alone takes only -<digits>[.<digits>]).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|\.|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise ValidationError(message)


#: Every flag a subcommand may declare; each subcommand takes only those it reads.
_FLAGS = {
    "--omega": dict(type=float, default=0.0),
    "--j": dict(type=float, default=0.0),
    "--gamma": dict(type=float, default=1.0),
    "--sweep-axis": dict(choices=("j", "omega"), default=None),
    "--sweep-range": dict(type=_sweep_range, default=None, metavar="A:B"),
    "--n": dict(type=int, default=None),
    "--theta": dict(type=float, default=np.pi / 2),
    "--tmax": dict(type=float, required=True),
    "--dt": dict(type=float, default=1e-3),
    "--record-every": dict(type=int, default=1),
    "--envelope-window": dict(type=float, default=5.0),
    "--collapse-fraction": dict(type=float, default=0.3),
}
_POINT = ("--omega", "--j", "--gamma")
_SWEEP = ("--sweep-axis", "--sweep-range", "--n")
_RUN = ("--theta", "--tmax", "--dt", "--record-every")

#: (name, handler, default format, flags, help) of every subcommand but reproduce.
_COMMANDS = (
    ("spectrum", cmd_spectrum, "json", _POINT,
     "eigenvalues, eigenvectors, phase label"),
    ("ep-locate", cmd_ep_locate, "json", _POINT + ("--sweep-axis", "--sweep-range"),
     "locate one critical point"),
    ("ep-curve", cmd_ep_curve, "csv", ("--gamma", "--sweep-range", "--n"),
     "critical curve j_c(omega)"),
    ("concurrence", cmd_concurrence, "json", _POINT + _SWEEP,
     "eigenstate concurrence (point or sweep)"),
    ("evolve", cmd_evolve, "csv", _POINT + _RUN,
     "propagate and record concurrence / coherence"),
    ("revivals", cmd_revivals, "csv", _POINT + _RUN + ("--envelope-window", "--collapse-fraction"),
     "propagate and detect envelope revivals"),
    ("qfi", cmd_qfi, "json", _POINT + ("--sweep-axis",),
     "Fisher information and coherence sensitivity at a point"),
    ("sense", cmd_sense, "csv", _POINT + _SWEEP,
     "QFI + coherence-sensitivity sweep"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ptq-sim",
        description="Gain/loss two-qubit simulator: spectra, critical points, "
                    "entanglement dynamics, parameter sensing.",
    )
    parser.add_argument("--version", action="version", version=f"ptq-sim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, fmt_default, flags, helptext in _COMMANDS:
        p = sub.add_parser(name, help=helptext)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("--out", default="-", metavar="PATH")
        p.add_argument("--format", choices=("csv", "json"), default=fmt_default)
        p.set_defaults(func=handler)

    p = sub.add_parser("reproduce", help="bundled figure-data presets")
    p.add_argument("preset", choices=sorted(PRESETS))
    p.add_argument("--out", default="-", metavar="PATH")
    p.set_defaults(func=cmd_reproduce, format="csv")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process; parse_args leaves the parser unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (ValidationError, ValueError, OSError) as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2
    except NumericalError as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
