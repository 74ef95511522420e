"""End-to-end runs of the bundled scripts in a subprocess."""
import hashlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import parse_csv

ROOT = Path(__file__).resolve().parents[1]
PHASE_MAP_SHA256 = "b623f32153f7109cbd67d0c249b657f03bb9306c65e6b99fc03daf52bdeea449"
#: sha256 of the "omega,j_c" lines of ep_curve.csv; its gap column is rounding
#: noise at the EP (|E3 - E4| of order 1e-8) and is not pinned.
EP_CURVE_OMEGA_JC_SHA256 = "568ee334f3209950e5a3f207541bccc46f7b3da521eefc11518155dde814ef28"


def test_phase_scan(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "phase_scan.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr

    phase_map = (tmp_path / "phase_map.csv").read_bytes()
    assert hashlib.sha256(phase_map).hexdigest() == PHASE_MAP_SHA256
    _, _, grid = parse_csv(phase_map.decode())
    assert len(grid["phase"]) == 11640
    assert set(grid["phase"]) == {"pt-symmetric", "pt-broken", "near-ep"}
    assert all(grid["gap34"])

    _, _, curve = parse_csv((tmp_path / "ep_curve.csv").read_text())
    assert len(curve["omega"]) == 80
    assert all(curve["j_c"]) and not any(curve["failure"])
    assert all(curve["gap"])
    omega_jc = "\n".join(f"{o},{j}" for o, j in zip(curve["omega"], curve["j_c"]))
    assert hashlib.sha256(omega_jc.encode()).hexdigest() == EP_CURVE_OMEGA_JC_SHA256
    assert "critical curve: 80/80 located" in proc.stdout


def _script(name):
    """scripts/<name>.py, imported as a module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_pairs():
    return _script("bench_pairs")


def test_bench_pairs_summary():
    """The pair summary alone; running the benchmark is not part of the test suite."""
    bench_pairs = _bench_pairs()
    assert bench_pairs.parse_seeds("401-403,7") == [401, 402, 403, 7]
    parent = [100, 104, 98, 102, 101, 99, 103, 100, 97, 105]
    change = [130, 128, 131, 99, 126, 127, 129, 132, 125, 128]
    ops = {"failed": 0, "attempted": 1000}
    pairs = [({"rate": p, "ms": 1 / p, **ops}, {"rate": c, "ms": 1 / c, **ops})
             for p, c in zip(parent, change)]
    rate, ms = bench_pairs.summarize(pairs, {"rate": "higher", "ms": "lower"})
    assert (rate["metric"], rate["parent"], rate["change"]) == ("rate", 100.5, 128)
    assert rate["parent_quartiles"] == [99.25, 102.75]
    assert rate["relative"] == (128 - 100.5) / 100.5
    assert (rate["wins"], rate["pairs"]) == (9, 10) and rate["clear"]
    assert ms["wins"] == 9 and ms["change"] == 1 / 128 and ms["clear"]
    assert rate["failed_share"] == [0, 0]
    assert bench_pairs.format_row(rate).startswith("rate ")
    # 8 of 9 wins, too few pairs, or a move inside the parent's quartile spread is not clear
    assert not bench_pairs.summarize(pairs[1:], {"rate": "higher"})[0]["clear"]
    assert not bench_pairs.summarize(pairs[:3], {"rate": "higher"})[0]["clear"]
    noisy = [({"rate": p, **ops}, {"rate": p + 1, **ops}) for p in range(90, 140, 5)]
    assert not bench_pairs.summarize(noisy, {"rate": "higher"})[0]["clear"]
    # nor is a gain bought with a larger share of failed ops
    failing = [(p, {**c, "failed": 1}) for p, c in pairs]
    rate = bench_pairs.summarize(failing, {"rate": "higher"})[0]
    assert rate["failed_share"] == [0, 0.001] and not rate["clear"]
    # one pair: the quartiles are its value
    assert bench_pairs.summarize(pairs[:1], {"rate": "higher"})[0]["parent_quartiles"] == [100, 100]
    # a median worse than the parent's by more than the metric's bound is regressed
    directions, bounds = {"rate": "higher", "ms": "lower"}, {"rate": 0.25, "ms": 0.25}
    assert not any(row["regressed"] for row in bench_pairs.summarize(pairs, directions, bounds))

    def slower(factor):
        return [(p, {**p, "rate": p["rate"] * factor, "ms": p["ms"] / factor}) for p, _ in pairs]

    rate, ms = bench_pairs.summarize(slower(0.7), directions, bounds)
    assert rate["regressed"] and ms["regressed"] and rate["bound"] == ms["bound"] == 0.25
    assert "bound 25%" in bench_pairs.format_row(rate) and "REGRESSED" in bench_pairs.format_row(ms)
    rate, ms = bench_pairs.summarize(slower(0.85), directions, bounds)
    assert not rate["regressed"] and not ms["regressed"]
    # a metric without a bound is never regressed
    rate = bench_pairs.summarize(slower(0.1), {"rate": "higher"})[0]
    assert rate["bound"] is None and not rate["regressed"]
    assert "REGRESSED" not in bench_pairs.format_row(rate)
    # a parent quartile spread wider than the bound leaves the metric unresolved
    assert not any(row["unresolved"] for row in bench_pairs.summarize(pairs, directions, bounds))
    spread = [60, 100, 140, 80, 120, 70, 130, 90, 110, 100]  # quartiles 82.5, 117.5

    def sides(parent, change):
        return [({"rate": p, "ms": 1 / p, **ops}, {"rate": c, "ms": 1 / c, **ops})
                for p, c in zip(parent, change)]

    rate, ms = bench_pairs.summarize(sides(spread, [p * 1.01 for p in spread]), directions, bounds)
    assert rate["unresolved"] and ms["unresolved"] and not rate["regressed"]
    assert bench_pairs.format_row(rate).endswith("  unresolved")
    # ... unless every change run reads better than every parent run
    rate, ms = bench_pairs.summarize(sides(spread, [p + 81 for p in spread]), directions, bounds)
    assert not rate["unresolved"] and not ms["unresolved"]
    assert "unresolved" not in bench_pairs.format_row(rate)
    # one tie between the best parent and the worst change run is not separated
    rate = bench_pairs.summarize(sides(spread, [p + 80 for p in spread]), directions, bounds)[0]
    assert rate["unresolved"]
    # a spread equal to the bound is resolved, and a metric without a bound is never unresolved
    edge = [87.5, 87.5, 100, 112.5, 112.5]
    assert not bench_pairs.summarize(sides(edge, edge), {"rate": "higher"}, bounds)[0]["unresolved"]
    assert not bench_pairs.summarize(sides(spread, spread), {"rate": "higher"})[0]["unresolved"]


def _git(repo, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                          cwd=repo, check=True, capture_output=True, text=True).stdout


def test_bench_pairs_exports_the_parent_without_a_worktree(tmp_path):
    """The parent is a git archive export: nothing is written under .git; no benchmark runs."""
    bench_pairs = _bench_pairs()
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text("parent\n")
    (repo / "BENCHMARK.json").write_text('{"end_to_end": [], "run_seconds": 1}\n')
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "parent")
    (repo / "perfbench" / "run.py").write_text("change\n")
    git_files = sorted(p.relative_to(repo) for p in (repo / ".git").rglob("*"))

    with bench_pairs.parent_checkout("HEAD", repo) as parent:
        assert (parent / "perfbench" / "run.py").read_text() == "parent\n"
        assert not (parent / ".git").exists()
        assert _git(repo, "worktree", "list").count("\n") == 1
    assert not parent.exists() and not parent.parent.exists()
    assert sorted(p.relative_to(repo) for p in (repo / ".git").rglob("*")) == git_files

    # a parent whose tracked files equal the working tree's is refused before any run
    (repo / "perfbench" / "run.py").write_text("parent\n")
    bench_pairs.ROOT = repo
    with pytest.raises(SystemExit) as refused:
        bench_pairs.main(["--workload", "spectra", "--seeds", "1"])
    assert refused.value.code == 2


def test_bench_pairs_runs_each_listed_workload(tmp_path, monkeypatch, capsys):
    """A comma-separated --workload runs every seed on each workload in turn, one summary
    block and one JSON line each; the benchmark itself is replaced by a stub."""
    bench_pairs = _bench_pairs()
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text("parent\n")
    (repo / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "rate", "better": "higher", "bound": 0.25}], '
        '"run_seconds": 1}\n')
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "parent")
    (repo / "perfbench" / "run.py").write_text("change\n")
    calls = []

    def run_side(checkout, workload, seed, seconds):
        side = "change" if checkout == repo else "parent"
        calls.append((workload, seed, side))
        rate = {"sense": 100, "scan": 1000}[workload] + seed + (20 if side == "change" else 0)
        return {"rate": rate, "failed": 0, "attempted": 10}

    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    assert bench_pairs.main(["--workload", "sense,scan", "--seeds", "1-3"]) == 0
    out = capsys.readouterr().out.splitlines()
    alternating = ["parent", "change", "change", "parent", "parent", "change"]
    assert calls == [(w, seed, side) for w in ("sense", "scan")
                     for seed, side in zip((1, 1, 2, 2, 3, 3), alternating)]
    blocks = [k for k, line in enumerate(out) if " pairs: median parent -> change" in line]
    assert [out[k].split(",")[0] for k in blocks] == ["sense", "scan"]
    rows = [json.loads(line) for line in out if line.startswith("{")]
    assert [(r["workload"], r["seeds"]) for r in rows] == [("sense", [1, 2, 3]),
                                                           ("scan", [1, 2, 3])]
    assert [r["rows"][0]["parent"] for r in rows] == [102, 1002]
    assert [r["rows"][0]["change"] for r in rows] == [122, 1022]
    # each JSON line closes its own workload's block
    assert blocks[0] < out.index(json.dumps(rows[0])) < blocks[1] < out.index(json.dumps(rows[1]))
    assert out[-1] == json.dumps(rows[1])
    # an unknown name is a usage error before any run
    calls.clear()
    with pytest.raises(SystemExit) as refused:
        bench_pairs.main(["--workload", "sense,bogus", "--seeds", "1"])
    assert refused.value.code == 2 and calls == []
    assert "'bogus'" in capsys.readouterr().err


def _readme_entry_points() -> list[str]:
    """The names in the README's "Library entry points" import block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library entry points", 1)[1]
    block = section.split("from ptqsim import (", 1)[1].split(")", 1)[0]
    return [name.strip() for name in block.split(",") if name.strip()]


def test_readme_lists_every_public_function():
    import ptqsim

    listed = _readme_entry_points()
    assert len(listed) == len(set(listed))
    for name in listed:
        assert hasattr(ptqsim, name), name
    functions = {name for name, obj in vars(ptqsim).items()
                 if not name.startswith("_") and inspect.isfunction(obj)}
    assert functions - set(listed) == set()


def test_digit_audit_on_a_synthetic_diff(tmp_path, capsys):
    """One field moved off the 40-digit reference in each file: the audit names both,
    and which of them moved toward it."""
    from ptqsim.cli import main

    digit_audit = _script("digit_audit")
    command = ["evolve", "--omega", "2", "--j", "0.4", "--tmax", "0.5", "--dt", "0.01",
               "--record-every", "2"]
    exact = tmp_path / "exact.json"
    assert main(command + ["--format", "json", "--out", str(exact)]) == 0
    payload = json.loads(exact.read_text())
    assert len(payload["results"]["rows"]) == 26

    def written(name, row, column, delta):
        changed = json.loads(exact.read_text())
        changed["results"]["rows"][row][column] += delta
        path = tmp_path / name
        path.write_text(json.dumps(changed))
        return path

    old = written("old.json", 5, 1, 1e-6)  # old concurrence off, new as computed
    new = written("new.json", 9, 2, -2e-6)  # new coherence off, old as computed
    lines = []
    summaries = {s["column"]: s for s in digit_audit.audit(old, new, command, lines.append)}
    assert [line.split(":")[0] for line in lines] == ["row 5 concurrence", "row 9 coherence_x"]
    assert lines[0].endswith("toward") and lines[1].endswith("away")
    conc, coh, norm = (summaries[c] for c in ("concurrence", "coherence_x", "norm_log"))
    assert (conc["changed"], conc["toward"], coh["changed"], coh["toward"]) == (1, 1, 1, 0)
    assert norm["changed"] == 0 and norm["new_max_all"] < 1e-15
    assert abs(conc["old_max"] - 1e-6) < 1e-12 and conc["new_max"] < 1e-15
    assert abs(coh["new_max"] - 2e-6) < 1e-12 and coh["old_max"] < 1e-15
    assert conc["new_max_all"] < 1e-15 and abs(coh["new_max_all"] - 2e-6) < 1e-12
    # the command line prints the same lines and one JSON summary per column
    assert digit_audit.main([str(old), str(new), "--", *command]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == lines and [json.loads(line)["column"] for line in out[2:]] == [
        "concurrence", "coherence_x", "norm_log"]
    # a changed column without a reference, or a table of another run, is refused
    with pytest.raises(SystemExit, match="column t changed"):
        digit_audit.audit(old, written("t.json", 3, 0, 1.0), command, lines.append)
    with pytest.raises(SystemExit, match="26 rows, but the command records 51"):
        digit_audit.audit(old, new, command[:-2], lines.append)


def test_digit_audit_on_a_synthetic_sensing_diff(tmp_path):
    """A sense table and a qfi point: one field moved off the 40-digit reference in each
    file; the audit names both, which of them moved toward it, and the flagged rows'
    empty cells need no reference."""
    from ptqsim.cli import main

    digit_audit = _script("digit_audit")
    command = ["sense", "--omega", "2", "--sweep-axis", "j", "--sweep-range", "0.3:0.9",
               "--n", "5"]
    exact = tmp_path / "exact.json"
    assert main(command + ["--format", "json", "--out", str(exact)]) == 0

    def written(name, row, column, factor):
        changed = json.loads(exact.read_text())
        changed["results"]["rows"][row][column] *= factor
        path = tmp_path / name
        path.write_text(json.dumps(changed))
        return path

    old = written("old.json", 1, 1, 1 + 1e-9)  # old qfi off, new as computed
    new = written("new.json", 3, 4, 1 - 2e-9)  # new coherence off, old as computed
    lines = []
    summaries = {s["column"]: s for s in digit_audit.audit(old, new, command, lines.append)}
    assert [line.split(":")[0] for line in lines] == ["row 1 qfi", "row 3 coherence"]
    assert lines[0].endswith("toward") and lines[1].endswith("away")
    assert list(summaries) == ["qfi", "variance_sq", "inv_variance_sq", "coherence", "cr_bound"]
    qfi, coherence = summaries["qfi"], summaries["coherence"]
    assert (qfi["changed"], qfi["toward"]) == (1, 1)
    assert (coherence["changed"], coherence["toward"]) == (1, 0)
    assert qfi["old_max"] > 1e-10 and qfi["new_max"] < 1e-13 and coherence["new_max"] > 1e-10
    assert summaries["qfi"]["new_max_all"] < 1e-12 and summaries["cr_bound"]["new_max_all"] < 1e-14
    with pytest.raises(SystemExit, match="column j changed"):
        digit_audit.audit(old, written("j.json", 2, 0, 1.5), command, lines.append)
    with pytest.raises(SystemExit, match="5 rows, but the command sweeps 7 points"):
        digit_audit.audit(old, new, command[:-1] + ["7"], lines.append)

    point = ["qfi", "--omega", "2", "--j", "0.45", "--sweep-axis", "j"]
    exact = tmp_path / "point.json"
    assert main(point + ["--out", str(exact)]) == 0
    moved = json.loads(exact.read_text())
    moved["results"]["variance_sq"] *= 1 + 1e-9
    off = tmp_path / "off.json"
    off.write_text(json.dumps(moved))
    summaries = {s["column"]: s for s in digit_audit.audit(off, exact, point, lines.append)}
    assert summaries["variance_sq"]["toward"] == 1 and summaries["qfi"]["changed"] == 0
    assert all(s["new_max_all"] < 1e-14 for s in summaries.values())


def test_digit_audit_on_a_synthetic_residual_diff(tmp_path):
    """An ep-curve table: old residual_x and new residual_theta moved off the 50-digit
    principal-root residuals; the audit names both and which of them moved toward them."""
    from ptqsim.cli import main

    digit_audit = _script("digit_audit")
    command = ["ep-curve", "--sweep-range", "1.6:2", "--n", "3"]
    exact = tmp_path / "exact.json"
    assert main(command + ["--format", "json", "--out", str(exact)]) == 0
    header = json.loads(exact.read_text())["results"]["columns"]

    def written(name, row, column, delta):
        changed = json.loads(exact.read_text())
        changed["results"]["rows"][row][header.index(column)] += delta
        path = tmp_path / name
        path.write_text(json.dumps(changed))
        return path

    old = written("old.json", 0, "residual_x", 1e-6)  # old residual_x off, new as computed
    new = written("new.json", 2, "residual_theta", 1e-6)  # new residual_theta off
    lines = []
    summaries = {s["column"]: s for s in digit_audit.audit(old, new, command, lines.append)}
    assert [line.split(":")[0] for line in lines] == ["row 2 residual_theta", "row 0 residual_x"]
    assert lines[0].endswith("away") and lines[1].endswith("toward")
    theta, x = summaries["residual_theta"], summaries["residual_x"]
    assert (theta["changed"], theta["toward"], x["changed"], x["toward"]) == (1, 0, 1, 1)
    assert abs(x["old_max"] - 1e-6) < 1e-12 and x["new_max_all"] < 1e-14
    assert theta["new_max"] > 9e-7 and theta["old_max_all"] < 1e-8


def test_digit_audit_captures_the_fig2_cells(count_calls):
    """_captured reads fig2's (omega, j) cells off its columns, in row order, with no 40-digit
    work: omega outer, j inner, 61 values each."""
    digit_audit = _script("digit_audit")
    references = count_calls(digit_audit, "_mp_reference")
    args = digit_audit.cli.build_parser().parse_args(["reproduce", "fig2"])
    runner, cells = digit_audit._captured(args)
    omegas, js = np.linspace(0.0, 3.0, 61).tolist(), np.linspace(0.0, 1.2, 61).tolist()
    assert runner == "_preset_fig2" and references() == 0
    assert cells == [(omega, j) for omega in omegas for j in js]


def _json_lines(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def _repo_copy(repo, parts):
    """A git repository at repo holding this tree's files matching parts, committed."""
    for part in parts:
        for path in ROOT.glob(part):
            target = repo / path.relative_to(ROOT)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(path.read_bytes())
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "parent")


#: The parent of test_layers_on_a_tiny_budget renames its kernels, and under their names
#: gives a solve of E1..E4 and kernels that take them, as a tree before the deltas E - j had.
_RENAMED = {"_solve_eigenvalues": "_solve_deltas", "_closed_form_eigenpairs": "_delta_pairs",
            "_sector_gap": "_delta_gap", "_sense_rows": "_delta_rows", "_span(": "_chunk_span("}
_E_FORM = {"spectrum.py": """
def _solve_eigenvalues(params):
    (d2, d3, d4), z = _solve_deltas(params)
    return (-params.j, params.j + d2, params.j + d3, params.j + d4), z
_closed_form_eigenpairs = lambda rates, e, *k: _delta_pairs(rates, e[:, 1:] - rates[1:2].T, *k)
_sector_gap = lambda values: _delta_gap(values[..., 1:])
""", "sensing.py": """
_sense_rows = lambda rates, kappa, e, *k: _delta_rows(rates, kappa, e[:, 1:] - rates[1:2].T, *k)
"""}


def test_layers_on_a_tiny_budget(tmp_path):
    """One pass per layer; --against exports the committed tree and alternates the sides,
    and a layer whose kernel one side lacks prints as absent."""
    layers = ["eigenpairs_1", "eigenpairs_24", "eigenpairs_601", "sense_rows_24",
              "sense_rows_601", "sensing_sweep_601", "spectrum_closed_form_1",
              "solve_200", "eigenpair_1", "solve_200_tiny", "eigenpair_1_tiny", "solve_200_huge",
              "eigenpair_1_huge", "classify_200", "locate_ep_1", "z_sign_200",
              "exact_z_sign_at_j_c", "step_factors_1000", "chunk_states_1000", "step_factors_2500", "chunk_states_2500",
              "step_factors_4096", "chunk_states_4096", "integrate_400000", "csv_blocks_30001",
              "csv_blocks_evolve_30001", "fig2_preset", "concurrence_sweep_601"]
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "layers.py"), "--passes", "1"],
                          capture_output=True, text=True, timeout=300, check=True)
    records = _json_lines(proc.stdout)
    assert [r["layer"] for r in records] == layers
    assert all(r["best_ms"] > 0 and r["passes"] == 1 for r in records)

    # the parent names the chunk kernel otherwise (its chunk layers are absent), and its solve
    # returns E1..E4, which its eigenpair and sensing kernels take (_E_FORM)
    repo = tmp_path / "repo"
    _repo_copy(repo, ("src/ptqsim/*.py", "scripts/layers.py", "scripts/bench_pairs.py"))
    texts = {path: path.read_text() for path in (repo / "src" / "ptqsim").glob("*.py")}
    for path, text in texts.items():
        for name, other in _RENAMED.items():
            text = text.replace(name, other)
        path.write_text(text + _E_FORM.get(path.name, ""))
    _git(repo, "commit", "-q", "-am", "parent without _span, its solve in E")
    for path, text in texts.items():
        path.write_text(text)
    proc = subprocess.run([sys.executable, str(repo / "scripts" / "layers.py"), "--against",
                           "HEAD", "--rounds", "2", "--passes", "1"],
                          capture_output=True, text=True, timeout=300, check=True)
    rounds = [line.split(":")[0] for line in proc.stdout.splitlines() if line.startswith("round")]
    assert rounds == ["round 1 parent", "round 1 change", "round 2 change", "round 2 parent"]
    lines = {line.split(":")[0]: line for line in proc.stdout.splitlines()
             if line.split(":")[0] in layers}
    records = _json_lines(proc.stdout)
    assert [r["layer"] for r in records] == list(lines) == layers
    for r in records:
        assert len(r["change_ms"]) == 2 and r["change_median"] == sum(r["change_ms"]) / 2
        if r["layer"].startswith(("step_factors", "chunk_states")):
            assert r["parent_ms"] is r["parent_median"] is r["ratio"] is r["ratio_range"] is None
            assert lines[r["layer"]].endswith("absent on the parent side")
        else:
            assert len(r["parent_ms"]) == 2
            rounds = [c / p for p, c in zip(r["parent_ms"], r["change_ms"])]
            assert r["ratio"] == r["change_median"] / r["parent_median"]
            assert r["ratio_range"] == [min(rounds), max(rounds)]
            assert f"change/parent {r['ratio']:.3f}" in lines[r["layer"]]


def test_digit_audit_against_a_revision(tmp_path):
    """--against REV runs the command on REV's tree and on this one: here REV starts the run
    from a theta 1e-9 off, so its fields are off the reference and each moves toward it."""
    repo = tmp_path / "repo"
    _repo_copy(repo, ("src/ptqsim/*.py", "scripts/digit_audit.py", "scripts/bench_pairs.py"))
    dynamics = repo / "src" / "ptqsim" / "dynamics.py"
    text = dynamics.read_text()
    dynamics.write_text(text + "\n_exact_initial_state = initial_state\n\n\n"
                        "def initial_state(theta_init):\n"
                        "    return _exact_initial_state(theta_init + 1e-9)\n")
    _git(repo, "commit", "-q", "-am", "parent off by 1e-9 in theta")
    dynamics.write_text(text)
    command = ["evolve", "--omega", "2", "--j", "0.4", "--theta", "0.7", "--tmax", "0.5",
               "--dt", "0.01", "--record-every", "2", "--format", "json"]
    proc = subprocess.run([sys.executable, str(repo / "scripts" / "digit_audit.py"), "--against",
                           "HEAD", "--", *command],
                          capture_output=True, text=True, timeout=300, check=True)
    summaries = {s["column"]: s for s in _json_lines(proc.stdout)}
    assert list(summaries) == ["concurrence", "coherence_x", "norm_log"]
    for name, s in summaries.items():  # every row but t=0's concurrence and log-norm, both 0
        assert s["rows"] == 26 and s["changed"] == s["toward"] == 25 + (name == "coherence_x")
        assert 1e-11 < s["old_max_all"] < 1e-8 and s["new_max_all"] < 1e-15
    lines = [line for line in proc.stdout.splitlines() if line.startswith("row ")]
    assert lines and all(line.endswith("toward") for line in lines)
