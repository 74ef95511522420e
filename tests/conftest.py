"""Shared helpers: CLI runner, CSV parsing, acceptance-criterion reporting."""
import re
import subprocess
import sys

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


def phase_fix_reference(vec):
    """The one-vector phase fix the last-axis _phase_fix replaced."""
    mags = np.abs(vec)
    k = len(vec) - 1 - int(np.argmax(mags[::-1]))
    return vec * (mags[k] / vec[k])


def eigenpairs_reference(params, eigenvalues):
    """(vectors, max residual) of one point by the per-point loop the batched
    _closed_form_eigenpairs replaced; its omega and residual checks are omitted.
    """
    from ptqsim.model import build_hamiltonian
    from ptqsim.spectrum import _eigvec_coefficients

    om, j, g = params.omega, params.j, params.gamma
    vecs = np.zeros((4, 4), dtype=complex)
    vecs[0] = np.array([0, -1, 1, 0], dtype=complex) / np.sqrt(2.0)
    for k in (1, 2, 3):
        r1, r2 = _eigvec_coefficients(om, j, g, eigenvalues[k])
        norm = (1 + abs(r1) ** 2 + 2 * abs(r2) ** 2) ** -0.5
        vecs[k] = phase_fix_reference(norm * np.array([1, r2, r2, r1]))
    h = build_hamiltonian(params)
    residual = max(
        float(np.linalg.norm(h @ vecs[k] - eigenvalues[k] * vecs[k])) for k in range(4))
    return vecs, residual


def fig_sweep_points(kappa, fixed_value, value_range, n):
    """The points of a fig7/fig8 sweep (gamma = 1), as sensing_sweep builds them."""
    from ptqsim import SystemParams

    fixed = "omega" if kappa == "j" else "j"
    return [SystemParams(**{fixed: fixed_value, kappa: x}, gamma=1.0)
            for x in np.linspace(value_range[0], value_range[1], n).tolist()]


#: The fig7a, fig7b and fig8b sweeps as (kappa, fixed value, range, n); fig8a is
#: fig7a on 200 points.
FIG_SWEEPS = [("omega", 0.3, (1.4, 2.0), 601), ("j", 2.0, (0.3, 0.9), 601),
              ("j", 1.7, (0.25, 0.45), 200)]
