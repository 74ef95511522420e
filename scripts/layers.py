#!/usr/bin/env python3
"""Layer times: the eigenpair and sensing kernels, the spectrum, the integrator and the CSV writer.

Usage (from the repository root):

    python3 scripts/layers.py [--passes K]
    python3 scripts/layers.py --against HEAD [--rounds R] [--passes K]

The layers, each timed as the best of K passes (default 7), every pass on
inputs built for it and not timed:

- eigenpairs_<n>, n = 1, 24, 601: `spectrum._closed_form_eigenpairs` of n
  points of fig7a's sweep (omega from 1.4 to 2.0, gamma = 1) at j = 0.3 moved
  by 1e-9 per pass, their roots solved beforehand (in the form the tree's
  `_solve_eigenvalues` returns and its kernels take: the deltas E - j of
  E2..E4, or E1..E4 where the tree predates them);
- sense_rows_<n>, n = 24, 601: `sensing._sense_rows` with kappa = omega on the
  same points, less those the EP guard refuses;
- sensing_sweep_601: `sensing.sensing_sweep` of fig7a, its fixed j moved by
  1e-9 per pass;
- spectrum_closed_form_1: `spectrum_closed_form` of a fresh SystemParams(1.7,
  0.3 + 1e-9 k), which solves it and cross-checks it against the oracle;
- solve_200, solve_200_tiny, solve_200_huge: `eigenvalues_closed_form` of 200 fresh
  SystemParams of fig7a's sweep at j = 0.3 + 1e-9 k, with every rate times 1,
  2**-600 and 2**600: the scalar solve (the real delta cubic, then E = j + delta)
  in the unit-scale window and through the scale boundary both ways;
- eigenpair_1, eigenpair_1_tiny, eigenpair_1_huge: `eigenvectors_closed_form` of
  fig7a's first point at the same three scales, its eigenvalues solved beforehand:
  the one-point eigenpair kernel with and without the boundary's rescaling;
- classify_200: `classify_phase` of solve_200's fresh points, which solves them and
  reads the gaps off the deltas;
- locate_ep_1: `locate_ep("omega", 2 + 1e-9 k, (1e-9, 2.5))`;
- z_sign_200: `spectrum._z_sign`, the filtered sign of z, of 200 fig7a points at
  j = 0.3 + 1e-9 k, their float z solved beforehand (every one outside the filter's
  bound);
- exact_z_sign_at_j_c: `spectrum._exact_z_sign`, the exact integer sign of z,
  at locate_ep_1's located point;
- step_factors_<n>, n = 1000, 2500, 4096: `dynamics._step_factors` (the
  per-run block heads and first block of step powers) of the RK4 step matrix
  at (omega, j, gamma) = (1.7, 0.337, 1), dt = 2e-3, with j moved by 1e-9 per
  pass;
- chunk_states_<n>: `dynamics._span`, the n states of one chunk from those
  factors and a unit state moved per pass;
- integrate_400000: a 400 000-step `dynamics._integrate` that keeps no
  optional field (as the figure presets run it), fig5a's j = 0.337 run (dt
  5e-3, t_max 2000, every 4th step recorded), from a theta moved per pass;
- csv_blocks_30001: `cli._csv_blocks` of a 30 001 x 4 float table (the size of
  the largest `evolve` table of the benchmark), with fresh uniform [0, 1) values
  per pass;
- csv_blocks_evolve_30001: the same for a table whose columns look like an
  `evolve` table's: a t grid of step 0.002, a concurrence in [0, 1], a signed
  coherence crossing zero (a few cells below 1e-4) and a growing norm_log, with
  fresh phases per pass.

A writer layer joins the blocks into the bytes the CLI writes (a block of text
is encoded as the CLI encodes it).

Each layer prints one JSON line, {"layer", "best_ms", "passes"}.  A layer
whose kernel the imported ptqsim lacks, or refuses the layer's inputs, is left
out.

--against REV exports REV's tracked files with `git archive` (as
scripts/bench_pairs.py does), then runs this script R times (default 3) in a
fresh process on each side's src, alternating which side goes first.  It
prints one line per layer, the change/parent ratio of the medians with the
range of the per-round ratios (or which side lacks the layer), then one JSON
line per layer with both sides' per-round best times and their medians (null
on a side that lacks it), the ratio and its range.
"""
import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHUNK_SIZES = (1000, 2500, 4096)


def _best_ms(make, run, passes: int) -> float:
    """The least wall time of run(make(k)) over k < passes, in ms."""
    best = float("inf")
    for k in range(passes):
        args = make(k)
        start = time.perf_counter()
        run(*args)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def measure(passes: int) -> list[dict]:
    """One {"layer", "best_ms", "passes"} record per layer, from the ptqsim on sys.path."""
    import numpy as np

    from ptqsim import dynamics, locate_ep, sensing, spectrum
    from ptqsim.cli import _csv_blocks
    from ptqsim.errors import PtqsimError
    from ptqsim.dynamics import _integrate, _rk4_step_matrix, initial_state
    from ptqsim.model import SystemParams, _Point, build_hamiltonian

    def fig7a(n, k, guarded=False):
        """(rates, roots) of n points of fig7a's omega sweep at j = 0.3 + 1e-9 k."""
        rates = np.array([np.linspace(1.4, 2.0, n), np.full(n, 0.3 + 1e-9 * k), np.ones(n)])
        solved = [spectrum._solve_eigenvalues(_Point(*r)) for r in rates.T.tolist()]
        # (roots, z) per point: the deltas of E2..E4, or E1..E4 where the tree predates them;
        # the roots alone where the tree predates z.  Each side's kernels take its own form.
        values = np.array([s[0] if len(s) == 2 else s for s in solved], dtype=complex)
        if guarded:  # the sector gap, or every gap where the tree predates it
            gap = getattr(spectrum, "_sector_gap", None) or spectrum._min_gap
            keep = gap(values) >= 1e-4
            rates, values = rates[:, keep], values[keep]
        return rates, values

    def step(k):
        return _rk4_step_matrix(build_hamiltonian(SystemParams(1.7, 0.337 + 1e-9 * k)), 2e-3)

    layers = {}
    for n in (1, 24, 601):
        layers[f"eigenpairs_{n}"] = (lambda k, n=n: fig7a(n, k), spectrum._closed_form_eigenpairs)
    for n in (24, 601):
        layers[f"sense_rows_{n}"] = (lambda k, n=n: (*fig7a(n, k, True), "omega"),
                                     lambda rates, values, kappa: sensing._sense_rows(
                                         rates, kappa, values))
    layers["sensing_sweep_601"] = (lambda k: ("omega", 0.3 + 1e-9 * k, (1.4, 2.0), 601),
                                   sensing.sensing_sweep)
    layers["spectrum_closed_form_1"] = (lambda k: (SystemParams(1.7, 0.3 + 1e-9 * k),),
                                        spectrum.spectrum_closed_form)

    def fig7a_points(n, k, s):
        """n fresh SystemParams of fig7a's sweep at j = 0.3 + 1e-9 k, every rate times s."""
        return [SystemParams(om * s, (0.3 + 1e-9 * k) * s, s)
                for om in np.linspace(1.4, 2.0, n).tolist()]

    def with_values(k, s):
        (point,) = fig7a_points(1, k, s)
        return point, spectrum.eigenvalues_closed_form(point)

    for suffix, s in (("", 1.0), ("_tiny", 2.0**-600), ("_huge", 2.0**600)):
        layers[f"solve_200{suffix}"] = (
            lambda k, s=s: (fig7a_points(200, k, s),),
            lambda points: [spectrum.eigenvalues_closed_form(p) for p in points])
        layers[f"eigenpair_1{suffix}"] = (lambda k, s=s: with_values(k, s),
                                          spectrum.eigenvectors_closed_form)
    layers["classify_200"] = (lambda k: (fig7a_points(200, k, 1.0),),
                              lambda points: [spectrum.classify_phase(p) for p in points])
    layers["locate_ep_1"] = (lambda k: ("omega", 2.0 + 1e-9 * k, (1e-9, 2.5)), locate_ep)
    z_sign, exact_z_sign = (getattr(spectrum, name, None) for name in ("_z_sign", "_exact_z_sign"))
    if z_sign and exact_z_sign:
        def solved_points(k):
            """((float z, point) of 200 fig7a points,): z_sign's arguments, solved."""
            points = [_Point(*p) for p in fig7a(200, k)[0].T.tolist()]
            return ([(spectrum._solve_eigenvalues(p)[1], p) for p in points],)

        layers["z_sign_200"] = (solved_points, lambda pairs: [z_sign(p, z) for z, p in pairs])
        layers["exact_z_sign_at_j_c"] = (
            lambda k: (locate_ep("omega", 2.0 + 1e-9 * k, (1e-9, 2.5)).params(),), exact_z_sign)
    factors, span = (getattr(dynamics, name, None) for name in ("_step_factors", "_span"))
    if factors and span:
        for n in CHUNK_SIZES:
            layers[f"step_factors_{n}"] = (lambda k, n=n: (step(k), n), factors)
            layers[f"chunk_states_{n}"] = (
                lambda k, n=n: (initial_state(np.pi / 2 - 1e-9 * k), *factors(step(k), n)[:2],
                                -(-n // math.isqrt(n))),
                span)
    layers["integrate_400000"] = (
        lambda k: (SystemParams(1.7, 0.337), initial_state(np.pi / 2 - 1e-9 * k),
                   2000.0, 5e-3, 4, ()),
        _integrate)
    rng = np.random.default_rng(2022)

    def csv_bytes(rows):
        return b"".join(b if isinstance(b, bytes) else b.encode() for b in _csv_blocks(rows))

    def evolve_like(k):
        t = np.arange(30_001) * 0.002
        a, b, c = rng.random(3) * 2 * np.pi
        return (np.column_stack((t, np.sin(1.3 * t + a) ** 2, np.cos(2.1 * t + b) * np.exp(-t / 40),
                                 0.2 * t + 0.1 * np.sin(0.7 * t + c))),)

    layers["csv_blocks_30001"] = (lambda k: (rng.random((30_001, 4)),), csv_bytes)
    layers["csv_blocks_evolve_30001"] = (evolve_like, csv_bytes)
    records = []
    for name, (make, run) in layers.items():
        try:
            run(*make(0))
        except PtqsimError:  # a tree that refuses the layer's inputs lacks the layer
            continue
        records.append({"layer": name, "best_ms": _best_ms(make, run, passes), "passes": passes})
    return records


def _run_side(src: Path, passes: int) -> dict[str, float]:
    """{layer: best_ms} of this script run in a fresh process on the ptqsim in src."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--src", str(src),
         "--passes", str(passes)],
        capture_output=True, text=True, check=True, timeout=600)
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    return {r["layer"]: r["best_ms"] for r in records}


def _ratio(parent: list | None, change: list | None) -> tuple:
    """The change/parent ratio of the medians and the range of the per-round ratios."""
    if not parent or not change:
        return None, None
    rounds = [c / p for p, c in zip(parent, change)]
    return statistics.median(change) / statistics.median(parent), [min(rounds), max(rounds)]


def against(rev: str, rounds: int, passes: int) -> list[dict]:
    """Per layer, REV's and this tree's per-round best times, sides alternating (None on a
    side that lacks the layer), with the change/parent ratio of their medians."""
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from bench_pairs import parent_checkout

    times = {"parent": [], "change": []}
    with parent_checkout(rev, ROOT) as parent:
        for r in range(rounds):
            sides = [("parent", parent / "src"), ("change", ROOT / "src")]
            if r % 2:
                sides.reverse()
            for label, src in sides:
                times[label].append(_run_side(src, passes))
                print(f"round {r + 1} {label}: " + "  ".join(
                    f"{k} {v:.3f}" for k, v in times[label][-1].items()), flush=True)
    layers = list(dict.fromkeys([*times["change"][0], *times["parent"][0]]))
    records = []
    for layer in layers:
        side = {label: [t[layer] for t in runs] if layer in runs[0] else None
                for label, runs in times.items()}
        ratio, spread = _ratio(side["parent"], side["change"])
        records.append({"layer": layer, "parent_ms": side["parent"], "change_ms": side["change"],
                        **{f"{label}_median": ms and statistics.median(ms)
                           for label, ms in side.items()},
                        "ratio": ratio, "ratio_range": spread})
        absent = [label for label, ms in side.items() if ms is None]
        print(f"{layer}: " + (f"absent on the {' and '.join(absent)} side" if absent else
                              f"change/parent {ratio:.3f} [{spread[0]:.3f}, {spread[1]:.3f}]"))
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--passes", type=int, default=7, help="passes per layer (default 7)")
    parser.add_argument("--against", metavar="REV",
                        help="also time REV's tracked files, in alternating processes")
    parser.add_argument("--rounds", type=int, default=3,
                        help="processes per side with --against (default 3)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the directory ptqsim is imported from (default: this tree's src)")
    args = parser.parse_args(argv)
    if args.passes < 1 or args.rounds < 1:
        parser.error("--passes and --rounds must be at least 1")
    if args.against:
        records = against(args.against, args.rounds, args.passes)
    else:
        sys.path.insert(0, str(args.src))
        records = measure(args.passes)
    for record in records:
        print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
