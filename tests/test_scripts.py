"""End-to-end runs of the bundled scripts in a subprocess."""
import os
import subprocess
import sys
from pathlib import Path

from conftest import parse_csv

ROOT = Path(__file__).resolve().parents[1]


def test_phase_scan(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "phase_scan.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr

    _, _, grid = parse_csv((tmp_path / "phase_map.csv").read_text())
    assert len(grid["phase"]) == 11640
    assert set(grid["phase"]) == {"pt-symmetric", "pt-broken", "near-ep"}
    assert all(grid["gap34"])

    _, _, curve = parse_csv((tmp_path / "ep_curve.csv").read_text())
    assert len(curve["omega"]) == 80
    assert all(curve["j_c"]) and not any(curve["failure"])
    assert all(curve["gap"])
    assert "critical curve: 80/80 located" in proc.stdout
