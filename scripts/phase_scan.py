#!/usr/bin/env python3
"""Scan the (omega, j) plane: phase labels, spectral gap, and the critical curve.

Writes phase_map.csv (grid scan) and ep_curve.csv next to each other.
Usage: python scripts/phase_scan.py [outdir]
"""
import sys
from pathlib import Path

import numpy as np

from ptqsim import SystemParams, classify_phase, ep_curve, eigenvalues_closed_form

outdir = Path(sys.argv[1] if len(sys.argv) > 1 else "out")
outdir.mkdir(parents=True, exist_ok=True)

omegas = np.linspace(0.05, 3.0, 120)
js = np.linspace(0.0, 1.2, 97)

with open(outdir / "phase_map.csv", "w") as fh:
    fh.write("# ptq-sim v1\n# params: gamma=1 omega=0.05:3 j=0:1.2\n")
    fh.write("omega,j,phase,max_imag,gap34\n")
    for om in omegas:
        for j in js:
            params = SystemParams(float(om), float(j), 1.0)
            label = classify_phase(params)
            values = eigenvalues_closed_form(params)
            gap = abs(values[2] - values[3])
            fh.write(f"{om:.6g},{j:.6g},{label.phase.value},"
                     f"{label.max_imag:.6g},{gap:.6g}\n")

entries = ep_curve((1.05, 3.0), 80, j_bracket=(1e-9, 2.5))
with open(outdir / "ep_curve.csv", "w") as fh:
    fh.write("# ptq-sim v1\n# params: gamma=1 omega=1.05:3 n=80\n")
    fh.write("omega,j_c,gap,failure\n")
    for entry in entries:
        if entry.point is None:
            fh.write(f"{entry.omega:.6g},,,{entry.failure}\n")
        else:
            fh.write(f"{entry.omega:.6g},{entry.point.j_c:.9g},"
                     f"{entry.point.gap:.3g},\n")

found = sum(e.point is not None for e in entries)
print(f"phase map: {len(omegas) * len(js)} points; critical curve: {found}/{len(entries)} located")
