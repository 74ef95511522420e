"""Shared helpers: CLI runner, CSV parsing, acceptance-criterion reporting."""
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

_CRITERION = re.compile(r"test_criterion_(\d+)")


def pytest_runtest_logreport(report):
    """One pass/fail line per acceptance criterion."""
    match = _CRITERION.search(report.nodeid)
    if match and report.when == "call":
        status = "PASS" if report.passed else "FAIL"
        print(f"\n[acceptance] criterion {match.group(1)}: {status}", flush=True)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) wraps module.name for the test; returns a reader of its calls."""

    def install(module, name):
        fn, count = getattr(module, name), [0]

        def counted(*args, **kwargs):
            count[0] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return lambda: count[0]

    return install


def run_cli(args, timeout=300):
    """Run the CLI in a subprocess; returns CompletedProcess with text output."""
    return subprocess.run(
        [sys.executable, "-m", "ptqsim.cli", *[str(a) for a in args]],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def parse_csv(text):
    """Split a ptq-sim CSV into (meta dict, header list, column dict of str lists)."""
    meta, header, rows = {}, None, []
    lines = text.splitlines()
    assert lines[0] == "# ptq-sim v1"
    for line in lines[1:]:
        if line.startswith("# "):
            key, _, value = line[2:].partition(":")
            meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    columns = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    return meta, header, columns


def column(columns, name):
    """Numeric column as float array; empty fields become NaN."""
    return np.array([float(v) if v else np.nan for v in columns[name]])


def exact_z(omega, j, gamma) -> Fraction:
    """The cubic invariant z of the rates taken as exact rationals: > 0 PT-broken, < 0
    PT-symmetric, 0 an EP."""
    om2, jj, g2 = (Fraction(r) ** 2 for r in (omega, j, gamma))
    return 16 * jj * jj * g2 + jj * (8 * g2 * g2 + 20 * g2 * om2 - om2 * om2) + (g2 - om2) ** 3


def min_gap(values) -> float:
    """Smallest |E_i - E_k| over all four eigenvalues: the phase label's NEAR_EP gap."""
    return min(abs(values[i] - values[k]) for i in range(4) for k in range(i + 1, 4))


def sector_gap(values) -> float:
    """Smallest |E_i - E_k| among E2..E4, the last three of E1..E4 or of their deltas E - j."""
    e2, e3, e4 = values[-3:]
    return min(abs(e2 - e3), abs(e2 - e4), abs(e3 - e4))


def vector_error(got, want) -> float:
    """max|got - want * phase|, want's global phase aligned to got's."""
    overlap = np.vdot(want, got)
    return float(np.max(np.abs(got - want * overlap / abs(overlap))))


def fig_sweep_points(kappa, fixed_value, value_range, n):
    """The points of a fig7/fig8 sweep (gamma = 1), as sensing_sweep builds them."""
    from ptqsim import SystemParams

    fixed = "omega" if kappa == "j" else "j"
    return [SystemParams(**{fixed: fixed_value, kappa: x}, gamma=1.0)
            for x in np.linspace(value_range[0], value_range[1], n).tolist()]


def fig2_grid():
    """The fig2 preset's 61 x 61 cells (gamma = 1)."""
    from ptqsim import SystemParams

    return [SystemParams(float(om), float(j), 1.0)
            for om in np.linspace(0.0, 3.0, 61) for j in np.linspace(0.0, 1.2, 61)]


#: The fig7a, fig7b and fig8b sweeps as (kappa, fixed value, range, n); fig8a is
#: fig7a on 200 points.
FIG_SWEEPS = [("omega", 0.3, (1.4, 2.0), 601), ("j", 2.0, (0.3, 0.9), 601),
              ("j", 1.7, (0.25, 0.45), 200)]
