"""Self-checks of the benchmark harness: python3 -m pytest perfbench"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_METRICS = ("spectrum.closed_form_ratio", "ep.eigenvalue_evals_per_locate",
                 "sensing.eigvec_solves_per_point", "sensing.flagged_points",
                 "cli.bytes_written")


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def _counts(result):
    return {key: entry["value"] for key, entry in result["metrics"].items()
            if key.endswith((".calls", ".errors")) or key in COUNT_METRICS}


@pytest.mark.parametrize("workload", ["sense", "scan", "evolve", "spectra"])
def test_traced_counts_repeat_for_a_seed(workload):
    runs = []
    for _ in range(2):
        proc = _run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    assert all(r["correct"] and r["failed"] == 0 for r in runs)
    first, second = (_counts(r) for r in runs)
    assert first == second
    assert sum(v for k, v in first.items() if k.endswith(".calls")) > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
