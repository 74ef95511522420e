"""End-to-end runs of the bundled scripts in a subprocess."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

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
