#!/usr/bin/env python3
"""ptqsim benchmark: seeded closed-loop workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload sense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

--trace 0 times ops untraced and reports the end-to-end metrics; --trace 1
runs a fixed number of ops (set by the workload and --seconds) once
untraced and once traced, and reports the per-layer metrics and the
tracing overhead. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. A fuller report goes to
.bench_out/. See perfbench/README.md for the metrics and workloads.
"""
import os

# One thread per process: the workloads are single-client closed loops.
PINNED_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                      "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in PINNED_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("sense", "scan", "evolve", "spectra")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
#: Ops per second of --seconds in a traced run (split over its untraced
#: and traced passes); fixed so that call counts repeat for a given seed.
TRACE_OPS_PER_S = {"sense": 6, "scan": 70, "evolve": 5, "spectra": 120}

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "points_per_s": "1/s",
    "answered_frac": "ratio",
    "peak_rss_mb": "MB",
}


def load_program():
    """Import ptqsim from this checkout's src/ (never an installed copy)."""
    if not (SRC / "ptqsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ptqsim sources at {SRC / 'ptqsim'}")
    sys.path.insert(0, str(SRC))
    import ptqsim

    if Path(ptqsim.__file__).resolve().parent != SRC / "ptqsim":
        sys.exit(f"perfbench: imported ptqsim from {ptqsim.__file__}, not {SRC}")
    import workloads

    return workloads


def make_inputs(workloads, name: str, seed: int):
    """(op pool, warm-up op) for a workload; inputs depend only on the seed."""
    wl = workloads.WORKLOADS[name]
    ops = wl.make(random.Random(f"{name}-{seed}"))
    return wl, ops, wl.warmup(random.Random(f"{name}-{seed}-warmup"))


def run_ops(workloads, wl, ops, workdir, seconds=None, n_ops=None, tracer=None):
    """Closed loop over the op pool; each op is timed, then checked untimed.

    Stops after `n_ops` ops, or after `seconds` of loop time once every op
    in `ops` has run at least once. Returns one (op, outcome, latency_s)
    triple per attempted op; payloads are dropped after the check so
    memory stays flat.
    """
    records = []
    deadline = None if seconds is None else time.perf_counter() + seconds
    i = 0
    while n_ops is None or i < n_ops:
        if deadline is not None and i >= len(ops) and time.perf_counter() >= deadline:
            break
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.op_id, tracer.active = i, True
        start = time.perf_counter()
        try:
            outcome = wl.run(op, workdir)
        except Exception as exc:  # an escaped exception is a failed op, not a crash
            outcome = workloads.Outcome(workloads.FAILED, f"{type(exc).__name__}: {exc}")
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        if outcome.status == workloads.ANSWERED:
            try:
                wl.check(op, outcome)
            except Exception as exc:
                outcome.status, outcome.reason = workloads.FAILED, f"check: {exc}"
        outcome.payload = None
        records.append((op, outcome, latency))
        i += 1
    return records


def tally(workloads, records) -> dict:
    statuses = [o.status for _, o, _ in records]
    refusals, failures = {}, []
    for op, o, _ in records:
        if o.status == workloads.REFUSED:
            refusals[o.reason] = refusals.get(o.reason, 0) + 1
        elif o.status == workloads.FAILED:
            failures.append(f"{op.kind} {op.args!r:.300}: {o.reason}")
    return {
        "attempted": len(records),
        "answered": statuses.count(workloads.ANSWERED),
        "refused": statuses.count(workloads.REFUSED),
        "failed": statuses.count(workloads.FAILED),
        "refusals_by_error": dict(sorted(refusals.items())),
        "failures": failures,
    }


def measure_setup(name: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters to import, draw inputs and finish a warm-up op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode}): {err.strip()}")
        times.append(elapsed)
    return times


def probe(name: str, seed: int) -> int:
    workloads = load_program()
    wl, _, warm = make_inputs(workloads, name, seed)
    workdir = _workdir()
    try:
        outcome = wl.run(warm, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if outcome.status != workloads.ANSWERED:
        sys.exit(f"warm-up op {outcome.status}: {outcome.reason}")
    print("ready", flush=True)
    return 0


def _workdir() -> Path:
    path = OUT / f"work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def environment() -> dict:
    import numpy

    uname = os.uname()
    cpu = uname.machine
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "os": f"{uname.sysname} {uname.release}",
        "pinned_threads": {var: os.environ[var] for var in PINNED_THREAD_VARS},
    }


def _p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(workloads, name, seed, seconds, workdir):
    setup = measure_setup(name, seed)
    wl, ops, warm = make_inputs(workloads, name, seed)
    run_ops(workloads, wl, [warm], workdir, n_ops=1)
    records = run_ops(workloads, wl, ops, workdir, seconds=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counts = tally(workloads, records)
    # Latency quantiles and throughput are taken over the pool's ops, each
    # at its mean latency over the run's passes. They then describe the
    # workload's fixed op mix, whichever ops ran while the shared host was
    # slow (its speed swings by about 30% within seconds).
    total_s, runs, answered = [0.0] * len(ops), [0] * len(ops), [0] * len(ops)
    for i, (_, outcome, latency) in enumerate(records):
        k = i % len(ops)
        total_s[k] += latency
        runs[k] += 1
        answered[k] += outcome.status == workloads.ANSWERED
    mean_ms = [1e3 * t / r for t, r in zip(total_s, runs)]
    share = [a / r for a, r in zip(answered, runs)]
    pool_s = sum(mean_ms) / 1e3
    all_ms = [1e3 * latency for _, _, latency in records]
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_ms": statistics.median(mean_ms),
        "op_p90_ms": _p90(mean_ms),
        "points_per_s": sum(op.points * a for op, a in zip(ops, share)) / pool_s,
        "answered_frac": counts["answered"] / counts["attempted"],
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "pool_ops": len(ops),
        "passes": len(records) / len(ops),
        "steps_per_s": sum(op.steps * a for op, a in zip(ops, share)) / pool_s,
        "all_samples_p50_ms": statistics.median(all_ms),
        "all_samples_p90_ms": _p90(all_ms),
        "setup_probes_s": setup,
        "op_latency_ms": all_ms,
    }
    return {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}, counts, extra


def per_layer(workloads, name, seed, seconds, workdir):
    import spans

    wl, ops, warm = make_inputs(workloads, name, seed)
    n_ops = max(2, round(seconds * TRACE_OPS_PER_S[name]))
    run_ops(workloads, wl, [warm], workdir, n_ops=1)
    untraced = run_ops(workloads, wl, ops, workdir, n_ops=n_ops)
    tracer = spans.Tracer()
    tracer.install()
    try:
        records = run_ops(workloads, wl, ops, workdir, n_ops=n_ops, tracer=tracer)
    finally:
        tracer.uninstall()

    metrics = {}
    for fn, row in tracer.summary().items():
        metrics[f"{fn}.calls"] = (row["calls"], "count")
        metrics[f"{fn}.self_ms"] = (row["self_ms"], "ms")
        metrics[f"{fn}.errors"] = (row["errors"], "count")

    def calls(fn):
        return metrics[f"{fn}.calls"][0]

    def ratio(num, den):
        return num / den if den else 0.0

    closed_ok = (calls("spectrum.spectrum_closed_form")
                 - metrics["spectrum.spectrum_closed_form.errors"][0])
    evals = (tracer.count_under("spectrum.eigenvalues_closed_form", "ep.locate_ep")
             + tracer.count_under("spectrum.eigensystem_oracle", "ep.locate_ep"))
    steps = sum(op.steps for op, _, _ in records)
    sweep_points = sum(op.points for op, _, _ in records if op.kind == "sense")
    traced_s = sum(lat for _, _, lat in records)
    untraced_s = sum(lat for _, _, lat in untraced)
    metrics.update({
        "spectrum.closed_form_ratio": (
            ratio(closed_ok, closed_ok + calls("spectrum.spectrum_oracle")), "ratio"),
        "ep.eigenvalue_evals_per_locate": (ratio(evals, calls("ep.locate_ep")), "count"),
        "dynamics.propagate.ns_per_step": (
            ratio(1e6 * tracer.inclusive_ms("dynamics.propagate"), steps), "ns"),
        "sensing.eigvec_solves_per_point": (ratio(tracer.count_under(
            "spectrum.eigenvectors_closed_form", "sensing.sensing_sweep"), sweep_points), "count"),
        "sensing.flagged_points": (sum(o.flagged for _, o, _ in records), "count"),
        "cli.bytes_written": (sum(o.bytes_out for _, o, _ in records), "B"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
    })
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{name}-seed{seed}.csv.gz"
    tracer.write(span_file)
    extra = {
        "traced_ops": n_ops,
        "spans": len(tracer.fn),
        "span_file": str(span_file.relative_to(ROOT)),
        "untraced_op_time_s": untraced_s,
        "traced_op_time_s": traced_s,
        "preset_sha256": preset_hashes(workdir),
    }
    return metrics, tally(workloads, records + untraced), extra


def preset_hashes(workdir: Path) -> dict:
    """sha256 of every `ptq-sim reproduce` preset CSV (output-identity record)."""
    import ptqsim.cli

    hashes = {}
    for preset in sorted(ptqsim.cli.PRESETS):
        target = workdir / f"{preset}.csv"
        code = ptqsim.cli.main(["reproduce", preset, "--out", str(target)])
        hashes[preset] = (hashlib.sha256(target.read_bytes()).hexdigest()
                          if code == 0 else f"exit {code}")
        target.unlink(missing_ok=True)
    return hashes


def run_workload(name: str, seed: int, seconds: int, trace: int) -> int:
    workloads = load_program()
    workdir = _workdir()
    try:
        measure = per_layer if trace else end_to_end
        metrics, counts, extra = measure(workloads, name, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment()
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, **counts, **extra,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    report_file = OUT / f"report-{name}-seed{seed}-trace{trace}.json"
    report_file.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print(f"workload {name}  seed {seed}  trace {trace}  python {env['python']}  "
          f"numpy {env['numpy']}  nproc {env['nproc']}  cpu {env['cpu']}")
    print(f"ops attempted {counts['attempted']}  answered {counts['answered']}  "
          f"refused {counts['refused']}  failed {counts['failed']}")
    if counts["refusals_by_error"]:
        print(f"refusals by error: {json.dumps(counts['refusals_by_error'])}")
    for line in counts["failures"][:10]:
        print(f"FAILED {line}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:52s} {value:>14.6g} {unit}")
    if trace:
        for preset, digest in extra["preset_sha256"].items():
            print(f"  sha256 {preset:6s} {digest}")
    print(f"report: {report_file.relative_to(ROOT)}")
    result = {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": report["metrics"],
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload in its own process; prints one metrics table."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"workload {name} exited {proc.returncode}: {proc.stderr.strip()}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, entry in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = entry
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.probe:
        return probe(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
