#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarised per metric.

For each seed, runs

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0

with S the run_seconds of BENCHMARK.json, once in a checkout of the parent
revision and once in this working tree, alternating which side goes first,
then prints for each end-to-end metric of BENCHMARK.json the parent and change
medians, the relative move, the parent's quartiles, the number of pairs in
which the change is better, and whether the move is clear: at least 10 pairs,
the change better in at least 9 of 10, the medians further apart than the
parent's quartile spread, and no larger share of failed ops than the parent's.
A metric whose change median is worse than the parent's by more than the
metric's bound in BENCHMARK.json (a relative move) is marked regressed, and one
whose parent quartile spread, relative to the parent median, is wider than that
bound is marked unresolved, unless every change run reads better than every
parent run: the runs cannot then tell a move within the bound from none.

Usage (from the repository root):

    python3 scripts/bench_pairs.py --workload spectra --seeds 401-410
    python3 scripts/bench_pairs.py --workload scan --seeds 1,2,3 --parent HEAD~1
    python3 scripts/bench_pairs.py --workload sense,scan,spectra --seeds 1-3

A comma-separated --workload runs the seeds on each workload in turn, one
export of the parent serving them all, and prints each workload's summary
block and JSON line as soon as its pairs are done.

The parent revision (default HEAD: the comparison is then against uncommitted
changes) is exported with `git archive` into a temporary directory, which is
removed afterwards; a run writes nothing under .git and registers no worktree.
The script refuses a parent whose tracked files equal the working tree's: it
would compare the code with itself.
Each workload's summary ends in one line of stdout holding a JSON object with
every row of that workload.
"""
import argparse
import contextlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """'401-403,7' -> [401, 402, 403, 7]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _failed_share(sides: list[dict]) -> float:
    return sum(s["failed"] for s in sides) / max(1, sum(s["attempted"] for s in sides))


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> list[dict]:
    """One row per metric of better ({name: "lower" | "higher"}) from (parent, change) pairs.

    Each pair holds the two sides' metric values of one seed and their
    "failed" and "attempted" op counts.  A pair counts as a win when the change
    is strictly better; the move is clear when there are at least 10 pairs, at
    least 90% of them are wins, the medians differ by more than the parent's
    interquartile range and the change fails no larger share of its ops.  A
    metric with a bound ({name: relative move}) is regressed when the change
    median is worse than the parent's by more than bound times the parent's,
    and unresolved when the parent's interquartile range is wider than bound
    times the parent median, unless every change value is better than every
    parent value.
    """
    bounds = bounds or {}
    failed = [_failed_share([p for p, _ in pairs]), _failed_share([c for _, c in pairs])]
    rows = []
    for name, direction in better.items():
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        q1, q3 = _quartiles(parent)
        bound = bounds.get(name)
        separated = min(sign * c for c in change) > max(sign * p for p in parent)
        rows.append({
            "metric": name, "parent": p_med, "change": c_med,
            "relative": (c_med - p_med) / p_med if p_med else 0.0,
            "parent_quartiles": [q1, q3], "wins": wins, "pairs": len(pairs),
            "failed_share": failed,
            "clear": (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
                      and abs(c_med - p_med) > q3 - q1 and failed[1] <= failed[0]),
            "bound": bound,
            "regressed": bound is not None and sign * (p_med - c_med) > bound * abs(p_med),
            "unresolved": bound is not None and q3 - q1 > bound * abs(p_med) and not separated,
        })
    return rows


def format_row(row: dict) -> str:
    q1, q3 = row["parent_quartiles"]
    bound = "" if row["bound"] is None else f" bound {row['bound']:.0%}"
    return (f"{row['metric']:14s} {row['parent']:.4g} -> {row['change']:.4g} "
            f"({row['relative']:+.1%}) [{q1:.4g}, {q3:.4g}] "
            f"{row['wins']}/{row['pairs']}{bound}{'  clear' if row['clear'] else ''}"
            f"{'  REGRESSED' if row['regressed'] else ''}"
            f"{'  unresolved' if row['unresolved'] else ''}")


def run_side(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """{metric: value} of one untraced benchmark run in checkout, with its op counts."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=60 * seconds + 600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout}: seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"warning: {checkout} seed {seed}: {result['failed']} failed ops", file=sys.stderr)
    side = {k: v["value"] for k, v in result["metrics"].items()}
    side.update(failed=result["failed"], attempted=result["attempted"])
    return side


@contextlib.contextmanager
def parent_checkout(rev: str, root: Path):
    """The tracked files of rev in repository root, exported to a temporary directory removed on exit."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=root, check=True, capture_output=True).stdout
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    path = tmp / "parent"
    try:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(path, filter="data")
        yield path
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


WORKLOADS = ("sense", "scan", "evolve", "spectra")


def parse_workloads(text: str) -> list[str]:
    """'sense,scan' -> ['sense', 'scan']; each name must be a benchmark workload."""
    names = text.split(",")
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown workload(s) {', '.join(map(repr, unknown))}: "
                                         f"choose from {', '.join(WORKLOADS)}")
    return names


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, type=parse_workloads,
                        help=f"one of {', '.join(WORKLOADS)}, or a comma-separated list")
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="seeds as a list of numbers and ranges, e.g. 401-410 or 1,2,5")
    parser.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
    if subprocess.run(["git", "diff", "--quiet", args.parent, "--"], cwd=ROOT).returncode == 0:
        parser.error(f"the working tree's tracked files equal {args.parent}'s: "
                     "name the parent revision with --parent")

    with parent_checkout(args.parent, ROOT) as parent:
        for workload in args.workload:
            pairs = []
            for i, seed in enumerate(args.seeds):
                sides = [("parent", parent), ("change", ROOT)]
                if i % 2:
                    sides.reverse()
                got = {label: run_side(path, workload, seed, spec["run_seconds"])
                       for label, path in sides}
                pairs.append((got["parent"], got["change"]))
                print(f"{workload} seed {seed} ({sides[0][0]} first): " + "  ".join(
                    f"{name} {got['parent'][name]:.4g}/{got['change'][name]:.4g}"
                    for name in better), flush=True)
            rows = summarize(pairs, better, bounds)
            print(f"{workload}, {len(pairs)} pairs: median parent -> change (move) "
                  "[parent quartiles] change-better pairs, regression bound")
            for row in rows:
                print("  " + format_row(row))
            print("  failed ops: parent {:.2%}, change {:.2%}".format(*rows[0]["failed_share"]))
            print(json.dumps({"workload": workload, "seeds": args.seeds, "rows": rows}),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
