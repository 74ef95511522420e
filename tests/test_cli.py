import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

import mp_reference
from conftest import column, exact_z, parse_csv, run_cli, vector_error
from ptqsim import (
    SystemParams,
    build_hamiltonian,
    cli,
    detect_revivals,
    initial_state,
    pairing_distance,
    propagate,
    spectrum,
)
from ptqsim import eigenvalues_closed_form as ptqsim_eigenvalues
from ptqsim.cli import _BLOCK_ROWS, MAGIC, _emit, _fmt, _jsonable, main


def invoke(capsys, *args):
    code = main([str(a) for a in args])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSpectrumCommand:
    def test_diagonal_case_json(self, capsys):
        code, out, _ = invoke(capsys, "spectrum", "--omega", 0, "--j", 0.3)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"params", "results", "diagnostics"}
        values = sorted(
            (e["re"], e["im"]) for e in payload["results"]["eigenvalues"]
        )
        expected = sorted([(-0.3, 0.0), (-0.3, 0.0), (0.3, 1.0), (0.3, -1.0)])
        assert np.allclose(values, expected, atol=1e-9)

    def test_omega_zero_double_root_answers(self, capsys):
        """E2 and the singlet are a double root -j: the closed form answers, its E1 = -j
        exactly and every root within 1e-15 of the 40-digit one (E2 is 1 ulp off)."""
        code, out, err = invoke(capsys, "spectrum", "--omega", 0, "--j", 0.42)
        assert (code, err) == (0, "")
        results = json.loads(out)["results"]
        values = np.array([complex(e["re"], e["im"]) for e in results["eigenvalues"]])
        assert results["source"] == "closed-form" and values[0] == -0.42
        reference = mp_reference.hamiltonian_eigenvalues(0.0, 0.42, 1.0)
        assert pairing_distance(values, reference) <= 1e-15

    @pytest.mark.parametrize("rates, label, want", [
        ("2 0 1", "E4", 0.0), ("2 0 1", "E3", -math.sqrt(3.0)), ("1e-5 1.1 0", "E3", 1.1)])
    def test_roots_that_the_deltas_make_exact(self, capsys, rates, label, want):
        """A root that is j (delta = 0: E4 at j = 0, E3 at gamma = 0) or -sqrt(3) (j = 0,
        omega^2 - gamma^2 = 3) prints correctly rounded."""
        omega, j, gamma = rates.split()
        code, out, _ = invoke(capsys, "spectrum", "--omega", omega, "--j", j, "--gamma", gamma)
        values = {v["label"]: v for v in json.loads(out)["results"]["eigenvalues"]}
        assert code == 0 and (values[label]["re"], values[label]["im"]) == (want, 0.0)

    def test_omega_zero_vectors_are_the_diagonal_basis(self, capsys):
        """At omega = 0 the closed form reports E1 the singlet and E2 the state T =
        (|01> + |10>)/sqrt(2) (the oracle, which answered here before, gave |10> and |01>),
        then |00> and |11>: each within 1e-15 of the 40-digit null vector."""
        code, out, err = invoke(capsys, "spectrum", "--omega", 0, "--j", 0.3)
        assert (code, err) == (0, "")
        results = json.loads(out)["results"]
        assert results["source"] == "closed-form"
        values = np.array([complex(e["re"], e["im"]) for e in results["eigenvalues"]])
        vecs = np.array([[complex(c["re"], c["im"]) for c in v] for v in results["eigenvectors"]])
        r2 = np.sqrt(0.5)
        assert np.max(np.abs(vecs[0] - [0, -r2, r2, 0])) <= 1.2e-16
        want = mp_reference.sector_eigenvectors(0.0, 0.3, 1.0, values)
        assert max(vector_error(got, ref) for got, ref in zip(vecs[1:], want)) <= 1e-15
        assert np.max(np.abs(vecs[1] - [0, r2, r2, 0])) <= 1e-16

    @pytest.mark.parametrize("omega, j, gamma", [
        (1e-5, 1.1, 0.0), (1e-5, 0.3, 0.0),  # a near-double root of a normal H
        (2.0, 0.589979839785503, 1.0),  # j_c + 1e-14
    ])
    def test_answers_next_to_a_double_root(self, capsys, omega, j, gamma):
        code, out, err = invoke(capsys, "spectrum", "--omega", omega, "--j", j, "--gamma", gamma)
        assert (code, err) == (0, "")
        results = json.loads(out)["results"]
        values = np.array([complex(e["re"], e["im"]) for e in results["eigenvalues"]])
        reference = mp_reference.eigenvalues(build_hamiltonian(SystemParams(omega, j, gamma)))
        assert pairing_distance(values, reference) <= 1e-9

    def test_next_to_third_order_point_closed_form(self, capsys):
        # the closed form agrees with the oracle within 1e-9 here too
        code, out, _ = invoke(capsys, "spectrum", "--omega", 1, "--j", 1e-3)
        assert code == 0
        assert json.loads(out)["results"]["source"] == "closed-form"

    @pytest.mark.parametrize("command", ["spectrum", "qfi", "concurrence"])
    def test_large_rates_answer(self, capsys, command):
        # the residual 4.6e-7 here is 2.3e-15 in units of the largest rate
        code, out, err = invoke(capsys, command, "--omega", 2e8, "--j", 4e7, "--gamma", 1e8)
        assert (code, err) == (0, "")
        assert json.loads(out)["results"]

    @pytest.mark.parametrize("omega", [-2, 1e-3, -1e-3])
    def test_negative_and_small_omega_closed_form(self, capsys, omega):
        # at 1e-3 E2 sits 4.4e-7 from the singlet, which does not couple to it
        code, out, _ = invoke(capsys, "spectrum", "--omega", omega, "--j", 0.4)
        assert code == 0
        assert json.loads(out)["results"]["source"] == "closed-form"

    def test_csv_format(self, capsys):
        code, out, _ = invoke(capsys, "spectrum", "--omega", 2, "--j", 0.4, "--format", "csv")
        assert code == 0
        meta, header, cols = parse_csv(out)
        assert header[:3] == ["label", "re_e", "im_e"]
        assert cols["label"] == ["E1", "E2", "E3", "E4"]
        assert meta["phase"] == "pt-symmetric"

    def test_overflow_exits_3(self, capsys):
        """E4 = sqrt(j^2 + omega^2) = 2.1e308 leaves the float range."""
        code, out, err = invoke(capsys, "spectrum", "--omega", "1.5e308", "--j", "1.5e308",
                                "--gamma", "0")
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "NonFiniteError"


class TestEpCommands:
    def test_locate_json(self, capsys):
        code, out, _ = invoke(
            capsys, "ep-locate", "--sweep-axis", "j", "--omega", 2.0,
            "--sweep-range", "0.3:0.9",
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert 0.586 <= results["j_c"] <= 0.591
        assert abs(results["gap"]) <= 1e-6

    def test_locate_next_to_the_ep3_answers(self, capsys):
        """omega/gamma - 1 = 4e-6, where residual_theta is -1.9e-6: a reported value, no
        certificate; the located j is the unbroken-side float of the exact flip of z."""
        code, out, err = invoke(capsys, "ep-locate", "--omega", 1.000004, "--sweep-axis", "j",
                                "--sweep-range", "1e-12:1")
        assert (code, err) == (0, "")
        j_c = json.loads(out)["results"]["j_c"]
        assert exact_z(1.000004, j_c, 1.0) <= 0 < exact_z(1.000004, math.nextafter(j_c, 1), 1.0)

    def test_locate_no_sign_change_exits_3(self, capsys):
        code, _, err = invoke(
            capsys, "ep-locate", "--sweep-axis", "j", "--omega", 2.0,
            "--sweep-range", "0.1:0.2",
        )
        assert code == 3
        assert json.loads(err)["error"] == "NoSignChangeError"

    def test_curve_csv_marks_failures(self, capsys):
        code, out, _ = invoke(
            capsys, "ep-curve", "--sweep-range", "0.5:2.0", "--n", 4, "--format", "csv",
        )
        assert code == 0
        meta, header, cols = parse_csv(out)
        assert "failure" in header
        assert cols["failure"][0] == "NoSignChangeError"
        assert cols["failure"][-1] == ""

    @pytest.mark.parametrize("argv", [
        ["ep-locate", "--omega", 2, "--sweep-axis", "j"],
        ["ep-curve", "--sweep-range", "1:inf", "--n", 3],
        ["sense", "--sweep-axis", "j", "--omega", 2, "--sweep-range", "inf:0.4", "--n", 3],
        ["ep-locate", "--omega", 2, "--sweep-axis", "j", "--sweep-range", "nan:0.9"],
    ])
    def test_missing_or_non_finite_range_exits_2(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == "" and not caught
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "ValidationError"


class TestConcurrenceCommand:
    def test_point_json(self, capsys):
        code, out, _ = invoke(capsys, "concurrence", "--omega", 2.0, "--j", 0.7)
        results = json.loads(out)["results"]
        assert code == 0
        assert results["c_psi3"] == pytest.approx(results["c_psi4"], abs=1e-9)
        assert results["max_closed_form_discrepancy"] > 1e-6

    def test_sweep_csv(self, capsys):
        code, out, _ = invoke(
            capsys, "concurrence", "--omega", 2.0, "--sweep-axis", "j",
            "--sweep-range", "0.3:0.5", "--n", 5, "--format", "csv",
        )
        assert code == 0
        _, header, cols = parse_csv(out)
        assert header == ["j", "c_psi3", "c_psi4", "c_closed_psi3", "c_closed_psi4"]
        c3 = column(cols, "c_psi3")
        assert np.all(np.diff(c3) < 0)  # falls with j below the critical point

    def test_hermitian_small_omega_is_maximally_entangled(self, capsys):
        """At gamma = 0 and omega = 1e-10, Psi3 and Psi4 are (|00> -+ |11>)/sqrt(2) up to
        O(omega/j), though E3 = j and E4 = sqrt(j^2 + omega^2) round to one float."""
        code, out, _ = invoke(capsys, "concurrence", "--omega", 1e-10, "--j", 0.3, "--gamma", 0)
        results = json.loads(out)["results"]
        assert code == 0 and max(abs(results[c] - 1) for c in ("c_psi3", "c_psi4")) <= 1e-15

    def test_one_eigenpair_solve_per_point(self, capsys, count_calls):
        """Psi3 and Psi4 of every point come from one eigenvector batch; every eigenvalue
        solve is one point's, and no point builds a SystemParams."""
        batches, pairs = count_calls(cli, "_closed_form_eigenpairs"), count_calls(
            spectrum, "_closed_form_eigenpairs")
        solves = count_calls(spectrum, "_solve_eigenvalues")
        built = count_calls(SystemParams, "__post_init__")
        argv = ["concurrence", "--omega", 2.0, "--sweep-axis", "j", "--sweep-range", "0.3:0.9",
                "--n", 7]
        assert invoke(capsys, *argv)[0] == 0
        assert (batches(), pairs(), solves(), built()) == (1, 0, 7, 1)  # 1: the argv's point

    @pytest.mark.parametrize("axis, fixed, sweep", [("j", ("--omega", 2.0), "0.3:0.9"),
                                                    ("omega", ("--j", 0.3), "-0.5:2.5")],
                             ids=["j", "omega"])
    def test_sweep_rows_are_the_point_commands(self, capsys, axis, fixed, sweep):
        """Each JSON row of a sweep is, bit for bit, the point command's JSON at its rates
        (omega = 0 included, where the radical form's cells are null)."""
        argv = ["concurrence", *fixed, "--sweep-axis", axis, "--sweep-range", sweep, "--n", 7,
                "--format", "json"]
        code, out, _ = invoke(capsys, *argv)
        rows = json.loads(out)["results"]["rows"]
        assert code == 0 and len(rows) == 7
        assert any(row[3:] == [None, None] for row in rows) == (axis == "omega")
        for x, *cells in rows:
            code, out, _ = invoke(capsys, "concurrence", *fixed, f"--{axis}", repr(x))
            results = json.loads(out)["results"]
            closed = results["closed_form"]
            assert code == 0
            assert cells == [results["c_psi3"], results["c_psi4"], closed["c_psi3"],
                             closed["c_psi4"]]

    @pytest.mark.parametrize("preset, n", [("fig3a", 121), ("fig3b", 201)])
    def test_fig3_solves_its_grid_in_one_batch(self, capsys, count_calls, preset, n):
        """One eigenpair batch over the rate array; one eigenvalue solve per grid point,
        besides the located point of the preset's locate_ep, whose probes read z alone."""
        batches, pairs = count_calls(cli, "_closed_form_eigenpairs"), count_calls(
            spectrum, "_closed_form_eigenpairs")
        solves = count_calls(spectrum, "_solve_eigenvalues")
        assert invoke(capsys, "reproduce", preset)[0] == 0
        assert (batches(), pairs(), solves()) == (1, 0, n + 1)

    def test_fig2_solves_its_grid_without_params(self, capsys, count_calls):
        """fig2's 61 x 61 cells: one eigenvalue solve each, and no SystemParams."""
        solves = count_calls(spectrum, "_solve_eigenvalues")
        built = count_calls(SystemParams, "__post_init__")
        assert invoke(capsys, "reproduce", "fig2")[0] == 0
        assert (solves(), built()) == (61 * 61, 0)

    def test_omega_zero_answers(self, capsys):
        """H is diagonal: Psi3 = |00> and Psi4 = |11> are product states, and the radical
        form, which divides by omega, leaves its cells empty (JSON null)."""
        code, out, err = invoke(capsys, "concurrence", "--omega", 0, "--j", 0.3)
        assert (code, err) == (0, "")
        results = json.loads(out)["results"]
        assert (results["c_psi3"], results["c_psi4"]) == (0.0, 0.0)
        assert results["closed_form"] == {"c_psi3": None, "c_psi4": None}
        assert results["max_closed_form_discrepancy"] is None
        code, out, _ = invoke(capsys, "concurrence", "--omega", 0, "--j", 0.3, "--format", "csv")
        assert out.splitlines()[-1] == "0,0,,"

    def test_small_omega_answers(self, capsys):
        """omega = 1e-5: Psi3's and Psi4's concurrences within 1e-15 of the 40-digit
        vectors' (they are 2.2e-11)."""
        code, out, err = invoke(capsys, "concurrence", "--omega", 1e-5, "--j", 0.3)
        assert (code, err) == (0, "")
        results = json.loads(out)["results"]
        values = SystemParams(1e-5, 0.3, 1.0)
        want = mp_reference.sector_eigenvectors(1e-5, 0.3, 1.0, ptqsim_eigenvalues(values))
        for key, vec in (("c_psi3", want[1]), ("c_psi4", want[2])):
            assert abs(results[key] - mp_reference.concurrence([1.0], [vec])) <= 1e-15


class TestEvolveCommand:
    def test_csv_layout_and_magic(self, capsys):
        code, out, _ = invoke(
            capsys, "evolve", "--omega", 2.0, "--j", 0.7, "--theta", 1.5707963,
            "--tmax", 5, "--record-every", 100,
        )
        assert code == 0
        assert out.startswith("# ptq-sim v1\n# params: ")
        _, header, cols = parse_csv(out)
        assert header == ["t", "concurrence", "coherence_x", "norm_log"]
        assert column(cols, "t")[-1] == pytest.approx(5.0)

    @pytest.mark.parametrize("command", ["evolve", "revivals"])
    def test_off_grid_tmax_names_end_time(self, capsys, command):
        """--tmax 0.0105 at --dt 0.01 is one step: the output names t = 0.01 as the end."""
        argv = [command, "--omega", 2, "--j", 0.4, "--tmax", 0.0105, "--dt", 0.01]
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        meta, _, cols = parse_csv(out)
        assert meta["t_end"] == "0.01"
        if command == "evolve":
            assert cols["t"] == ["0", "0.01"]
        code, out, _ = invoke(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["diagnostics"]["t_end"] == 0.01

    @pytest.mark.parametrize("command", ["evolve", "revivals"])
    def test_on_grid_tmax_has_no_end_time(self, capsys, command):
        code, out, _ = invoke(capsys, command, "--omega", 2, "--j", 0.4, "--tmax", 2,
                              "--dt", 0.01, "--record-every", 3)
        assert code == 0
        meta, _, _ = parse_csv(out)
        assert "t_end" not in meta

    def test_rates_near_the_float_limit(self, capsys):
        """||H|| overflows at rates of 1.5e308, but dt * ||H|| = 0.036 does not: the run
        answers with the observables of the same run at unit scale (rates times 2**-1022,
        dt times 2**1022) and nothing on stderr; a larger dt is refused with a finite bound."""
        def run(rate, dt):
            argv = ["--omega", rate, "--j", rate, "--gamma", rate, "--dt", dt, "--tmax", 10 * dt]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = invoke(capsys, "evolve", *argv)
            assert not caught, [str(w.message) for w in caught]
            return result

        code, out, err = run(1.5e308, 1e-310)
        assert (code, err) == (0, "")
        unit = run(math.ldexp(1.5e308, -1022), math.ldexp(1e-310, 1022))[1]
        for name in ("concurrence", "coherence_x", "norm_log"):
            assert parse_csv(out)[2][name] == parse_csv(unit)[2][name]
        code, out, err = run(1.5e308, 1e-300)
        assert (code, out) == (2, "")
        assert json.loads(err)["message"].endswith("(use dt <= 2.76e-310)")

    def test_validation_error_exits_2(self, capsys):
        sweep = ["concurrence", "--omega", 2, "--sweep-axis", "j", "--sweep-range", "0.3:0.9"]
        for argv in (
            ["evolve", "--omega", 2.0, "--j", 0.7, "--tmax", 5, "--dt", "-0.1"],
            sweep + ["--n", 0],
            sweep + ["--n", -3],
        ):
            code, out, err = invoke(capsys, *argv)
            assert code == 2
            assert out == ""
            assert len(err.splitlines()) == 1
            assert "error" in json.loads(err)


    @pytest.mark.parametrize(
        "times",
        [["--tmax", "inf"], ["--tmax", "1e300", "--dt", "1e-300"], ["--tmax", "5", "--dt", "nan"]],
        ids=["tmax-inf", "steps-overflow", "dt-nan"],
    )
    @pytest.mark.parametrize("command", ["evolve", "revivals"])
    def test_unrepresentable_step_count_exits_2(self, capsys, command, times):
        code, out, err = invoke(capsys, command, "--omega", 2, "--j", 0.4, *times)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        error = json.loads(err)
        assert error["error"] == "ValueError"
        assert "finite" in error["message"] or "64-bit" in error["message"]


class TestSenseCommand:
    def test_two_endpoints_one_phase(self, capsys):
        code, out, _ = invoke(
            capsys, "sense", "--sweep-axis", "j", "--omega", 2.0,
            "--sweep-range", "0.30:0.35", "--n", 2,
        )
        assert code == 0
        meta, header, cols = parse_csv(out)
        assert meta["n_flagged"] == "0"
        assert cols["flag"] == ["", ""]
        assert np.all(column(cols, "inv_variance_sq") <= column(cols, "qfi") * (1 + 1e-6))

    def test_requires_axis(self, capsys):
        code, _, err = invoke(capsys, "sense", "--sweep-range", "0.3:0.4", "--n", 4)
        assert code == 2


class TestRevivalsCommand:
    def test_metadata(self, capsys):
        code, out, _ = invoke(
            capsys, "revivals", "--omega", 1.7, "--j", 0.337, "--tmax", 300,
            "--dt", 0.02, "--collapse-fraction", 0.45,
        )
        assert code == 0
        meta, header, cols = parse_csv(out)
        assert header == ["revival_index", "revival_time"]
        assert int(meta["n_revivals"]) >= 1
        assert float(meta["first_revival"]) == pytest.approx(128.0, abs=10.0)

    @pytest.mark.parametrize("flag, value", [
        ("--collapse-fraction", "nan"),
        ("--collapse-fraction", "inf"),
        ("--collapse-fraction", "-0.1"),
        ("--collapse-fraction", "1.5"),
        ("--envelope-window", "0"),
        ("--envelope-window", "-1"),
    ])
    def test_detector_option_out_of_range_exits_2(self, capsys, flag, value):
        code, out, err = invoke(
            capsys, "revivals", "--omega", 1.7, "--j", 0.337, "--tmax", 3, "--dt", 0.02,
            f"{flag}={value}",
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ValueError"
        assert flag in json.loads(err)["message"]


class TestCsvWriter:
    """_emit's row templates print what a per-value _fmt join prints, byte for byte.

    None appears only in text columns (flag, failure), as in every table the CLI writes.
    """

    @staticmethod
    def _per_value(header, rows, meta):
        lines = [MAGIC, "# params: p=1"] + [f"# {k}: {_fmt(v)}" for k, v in meta.items()]
        lines.append(",".join(header))
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n"

    @staticmethod
    def _emitted(capsys, header, rows, meta):
        _emit(argparse.Namespace(format="csv", out="-"), "p=1", header, rows, meta)
        return capsys.readouterr().out

    _FLOATS = [-0.0, 5e-324, 1e300, np.inf, -np.inf, np.nan, 0.1, -1.0 / 3.0, 123456789012345.0]

    def test_mixed_list_table(self, capsys):
        rows = [
            [k if k % 2 else np.int64(k) * 10**13, x, np.float64(-x),
             "NearDefective" if k % 3 else None]
            for k, x in enumerate(self._FLOATS)
        ]
        rows.append([np.int64(-7), np.nan, np.nan, "NoConvergence"])
        header = ["index", "x", "minus_x", "flag"]
        meta = {"n_flagged": 6, "first": None, "value": np.nan}
        assert self._emitted(capsys, header, rows, meta) == self._per_value(header, rows, meta)

    def test_first_row_sets_text_columns(self, capsys):
        rows = [[1.5, None, "E1"], [np.nan, "OmegaSingular", "E2"], [2.5, None, "E3"]]
        header = ["omega", "failure", "label"]
        assert self._emitted(capsys, header, rows, {}) == self._per_value(header, rows, {})

    def test_float_array_table(self, capsys):
        rng = np.random.default_rng(3)
        table = np.concatenate([
            np.array(self._FLOATS).reshape(-1, 3),
            rng.standard_normal((50, 3)) * 10.0 ** rng.integers(-300, 300, (50, 3)),
        ])
        header = ["t", "a", "b"]
        rows = list(zip(*table.T))
        assert self._emitted(capsys, header, tuple(table.T), {}) == \
            self._per_value(header, rows, {})

    @pytest.mark.parametrize("rows", [[], tuple(np.empty((3, 0)))], ids=["list", "columns"])
    def test_zero_rows(self, capsys, rows):
        header = ["t", "a", "b"]
        assert self._emitted(capsys, header, rows, {"n": 0}) == self._per_value(header, [], {"n": 0})

    def test_float_array_with_nan_rows(self, capsys):
        rng = np.random.default_rng(5)
        table = rng.standard_normal((40, 4)) * 10.0 ** rng.integers(-300, 300, (40, 4))
        table[0, 2] = table[3] = table[17, 1] = table[39, [0, 3]] = np.nan
        header = ["t", "a", "b", "c"]
        rows = list(zip(*table.T))
        assert self._emitted(capsys, header, tuple(table.T), {}) == \
            self._per_value(header, rows, {})

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    def test_int_array_table(self, capsys, dtype):
        table = (np.arange(24).reshape(8, 3) * 37 % 251).astype(dtype)
        if dtype is np.int64:
            table = table * -(10**15)
        rows = list(zip(*table.T))
        assert self._emitted(capsys, ["i", "j", "k"], rows, {}) == \
            self._per_value(["i", "j", "k"], rows, {})

    @pytest.mark.parametrize("rows", [
        tuple(np.array([[0.1], [np.nan], [-2.5]])),
        [[np.int64(3), 1.0 / 3.0, None]],
        [[None, np.nan, "NearDefective"]],
    ], ids=["columns", "list", "list-missing"])
    def test_one_row_table(self, capsys, rows):
        header = ["t", "a", "flag"]
        want = self._per_value(header, list(zip(*rows)) if isinstance(rows, tuple) else rows, {})
        assert self._emitted(capsys, header, rows, {}) == want

    def test_first_row_missing_cells(self, capsys):
        # column 3 is None first, then floats: it formats as its first present cell does
        rows = [[np.nan, None, 1.5, None],
                [0.25, "OmegaSingular", -1.0 / 3.0, 2.0 / 3.0],
                [1e-300, None, np.nan, 0.1],
                [np.float64(7.0), "EpTooClose", 1e300, None]]
        header = ["omega", "failure", "a", "b"]
        assert self._emitted(capsys, header, rows, {}) == self._per_value(header, rows, {})
        table = np.array([[np.nan, np.nan], [1.0 / 7.0, -0.0]])
        assert self._emitted(capsys, ["a", "b"], tuple(table.T), {}) == \
            self._per_value(["a", "b"], list(zip(*table.T)), {})

    def test_large_float_array(self, capsys):
        rng = np.random.default_rng(6)
        table = np.column_stack((
            np.arange(25_000) * 0.002,
            rng.random(25_000),
            rng.standard_normal(25_000) * 10.0 ** rng.integers(-300, 300, 25_000),
            rng.standard_normal(25_000).cumsum(),
        ))
        table[rng.integers(0, 25_000, 50), rng.integers(0, 4, 50)] = np.nan
        header = ["t", "concurrence", "coherence_x", "norm_log"]
        rows = list(zip(*table.T))
        assert self._emitted(capsys, header, tuple(table.T), {}) == \
            self._per_value(header, rows, {})

    # The float-column writer's hard cases: each table holds the cells and their negations.

    @staticmethod
    def _near(values, ulps=3):
        """values and the doubles 1 .. ulps ulp below and above each."""
        out = [values]
        for direction in (-np.inf, np.inf):
            step = values
            for _ in range(ulps):
                step = np.nextafter(step, direction)
                out.append(step)
        return np.concatenate(out)

    def _assert_cells(self, capsys, cells):
        cells = np.concatenate([cells, -cells])
        table = np.resize(cells, (len(cells) // 3 + 1, 3))
        header = ["t", "a", "b"]
        assert self._emitted(capsys, header, tuple(table.T), {}) == \
            self._per_value(header, list(zip(*table.T)), {})

    def test_next_to_a_rounding_tie(self, capsys):
        """(m + 1/2) 10**(x - 11): the 12-digit ties of every fixed-notation exponent."""
        rng = np.random.default_rng(23)
        x = np.repeat(np.arange(-4, 12), 40)
        m = rng.integers(10**11, 10**12, len(x))
        self._assert_cells(capsys, self._near((m + 0.5) * 10.0 ** (x - 11)))

    def test_powers_of_ten_and_the_carry(self, capsys):
        """10**j, and 999999999999.5 10**j, whose 12 digits carry to 10**(j + 12)."""
        j = np.arange(-20.0, 25.0)
        self._assert_cells(capsys, self._near(np.concatenate([10.0 ** j,
                                                              999_999_999_999.5 * 10.0 ** j])))

    def test_notation_edges(self, capsys):
        """%g turns to exponent notation below 1e-4 and from 1e12 on, after rounding."""
        edges = np.array([1e-5, 1e-4, 1e11, 1e12, 9.999999999995e-5, 9.9999999999949e-5,
                          999_999_999_999.4, 999_999_999_999.6, 99_999_999_999.95])
        self._assert_cells(capsys, self._near(edges))

    def test_zeros_subnormals_and_non_finite(self, capsys):
        self._assert_cells(capsys, np.array([0.0, 5e-324, 2.2250738585072014e-308,
                                             2.225073858507201e-308, 1.7976931348623157e308,
                                             np.nan, np.inf]))

    @seed(20261020)
    @settings(max_examples=60, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cells=st.lists(st.floats(), min_size=1, max_size=300))
    def test_any_floats(self, capsys, cells):
        self._assert_cells(capsys, np.array(cells))


class TestJsonWriter:
    """_emit's JSON is the per-row _jsonable payload, byte for byte."""

    @staticmethod
    def _per_row(desc, header, rows, meta, results=None):
        if results is None:
            results = {"columns": header, "rows": [_jsonable(r) for r in rows]}
        else:
            results = _jsonable(results)
        payload = {"params": desc, "results": results, "diagnostics": _jsonable(meta)}
        return json.dumps(payload, indent=2) + "\n"

    @staticmethod
    def _emitted(capsys, header, rows, meta, results=None):
        _emit(argparse.Namespace(format="json", out="-"), "p=1", header, rows, meta, results)
        return capsys.readouterr().out

    _FLOATS = TestCsvWriter._FLOATS[:3] + TestCsvWriter._FLOATS[5:]  # JSON has no inf

    def test_mixed_list_table(self, capsys):
        rows = [[np.int64(k), x, np.float64(-x), complex(x, k), None if k % 2 else "EpTooClose"]
                for k, x in enumerate(self._FLOATS)]
        header = ["index", "x", "minus_x", "z", "flag"]
        meta = {"n_flagged": np.int64(3), "first": None, "value": np.nan}
        want = self._per_row("p=1", header, rows, meta)
        assert self._emitted(capsys, header, rows, meta) == want

    def test_float_array_table(self, capsys):
        """Rows written in blocks of _BLOCK_ROWS print as one dump of the whole table."""
        rng = np.random.default_rng(4)
        n = 2 * _BLOCK_ROWS + 40
        table = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
        table[::7, 1] = np.nan
        table[5, 2], table[_BLOCK_ROWS, 0] = np.inf, -np.inf
        want = self._per_row("p=1", ["t", "a", "b"], table, {})
        assert self._emitted(capsys, ["t", "a", "b"], tuple(table.T), {}) == want

    @pytest.mark.parametrize("n", [0, 1, _BLOCK_ROWS, 2 * _BLOCK_ROWS + 40])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_columns_print_as_their_stacked_table(self, capsys, fmt, n):
        """A tuple of columns, stacked a block at a time, prints its rows' bytes."""
        rng = np.random.default_rng(n)
        columns = tuple(rng.standard_normal((3, n)) * 10.0 ** rng.integers(-300, 300, (3, n)))
        columns[1][::7] = np.nan
        if n > _BLOCK_ROWS:
            columns[2][5], columns[0][_BLOCK_ROWS] = np.inf, -np.inf
            columns[0][_BLOCK_ROWS - 1], columns[2][-1] = np.nan, -np.inf
        args = argparse.Namespace(format=fmt, out="-")
        _emit(args, "p=1", ["t", "a", "b"], columns, {"k": 1})
        got = capsys.readouterr().out
        _emit(args, "p=1", ["t", "a", "b"], list(zip(*columns)), {"k": 1})
        assert got == capsys.readouterr().out

    def test_point_object(self, capsys):
        results = {"qfi": np.float64(2.5), "nested": {"v": np.array([1 + 2j, np.nan])},
                   "eigenvalues": [{"re": 0.5, "im": np.nan}]}
        want = self._per_row("p=1", ["qfi"], [[2.5]], {"k": 1}, results)
        assert self._emitted(capsys, ["qfi"], [[2.5]], {"k": 1}, results) == want


#: sha256 of every subcommand's --format json output.  All twelve equal the
#: per-row JSON writer's output on the same numbers; the spectral ones carry the
#: digits of the real delta = E - j solve, and the params lines name the runs exactly.
_JSON_CASES = {
    "spectrum": (["spectrum", "--omega", 2, "--j", 0.4],
                 "afa1198a53f29049c59b364de54dac3d0c74409542730c3ff49b2179764bd52c"),
    "spectrum-broken": (["spectrum", "--omega", 1.7, "--j", 0.45],
                        "4862e6537d3e1979d5ca8e3a6af59bba95bc3cf801701354e69e89808c3ac4a8"),
    "spectrum-omega0": (["spectrum", "--omega", 0, "--j", 0.3],
                        "603cedefb35801d5c381d0632576450ae3c2a0ded81119647266141e95c84ba5"),
    "ep-locate": (["ep-locate", "--omega", 2, "--sweep-axis", "j", "--sweep-range", "0.3:0.9"],
                  "d22d68b9d0a6cb3a15aa9a739a62f8ad9b21054ee5cd493630267f6780b447f0"),
    "ep-locate-j": (["ep-locate", "--j", 0.3, "--sweep-axis", "omega", "--sweep-range", "1.2:2.2"],
                    "d6f56ad531e540fb679035799c22fee84f92e28cda20d7591e16b6edb2fc3cde"),
    "ep-curve": (["ep-curve", "--sweep-range", "0.5:2.5", "--n", 9],
                 "afe22356ce6292460a0f2499a1c3eecb8e38c619eb1c8a9fa697ad4ac8ae80e7"),
    "concurrence": (["concurrence", "--omega", 2, "--j", 0.4],
                    "ce47b7032d7d1e2bc6dc7130e86e790f1aca873a212df2197f5747e36d91b8f9"),
    "concurrence-sweep": (["concurrence", "--omega", 2, "--sweep-axis", "j",
                           "--sweep-range", "0.3:0.9", "--n", 7],
                          "1dacf444b810a426402a296868a381838de57dc2a226a9aeeccb977b9df29a46"),
    "evolve": (["evolve", "--omega", 2, "--j", 0.4, "--tmax", 2, "--dt", 0.01],
               "ebaafb64777fbe295b277ba36e06319701f75a69af148db74387675f7d4e2503"),
    "revivals": (["revivals", "--omega", 1.7, "--j", 0.337, "--tmax", 300, "--dt", 0.02,
                  "--collapse-fraction", 0.45],
                 "ed1be79cd9481bfde7eb5333df624bee27f25b051a765406f707dc1b24872c38"),
    "qfi": (["qfi", "--omega", 2, "--j", 0.4, "--sweep-axis", "j"],
            "e59b3f925489e7ff34e774e0566141e29a1ee599c65a52f375f59c14a810158e"),
    "sense": (["sense", "--omega", 2, "--sweep-axis", "j", "--sweep-range", "0.3:0.9",
               "--n", 13],
              "cd40e5272ccbf6a1617b24a5d8ea59b602558c2e76cd05484a2d06f03deb9167"),
}


@pytest.mark.parametrize("argv", [
    "spectrum --omega 2 --j 0.589979839785503", "qfi --omega 2 --j 0.4 --gamma 0.3333333333333333",
    "evolve --omega 2 --j 0.4 --tmax 0.5 --dt 0.01 --record-every 3",
    "revivals --omega 1.7 --j 0.337 --tmax 20 --dt 0.02 --record-every 2"])
def test_params_line_repeats_the_run(argv, tmp_path):
    """Each name=value pair of the params line, read back as its flag, repeats the run: the
    same bytes (theta's default pi/2, record_every and j_c + 1e-14 included)."""
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    assert main(argv.split() + ["--format", "json", "--out", str(first)]) == 0
    pairs = [pair.split("=") for pair in json.loads(first.read_text())["params"].split()]
    flags = [part for name, value in pairs for part in ("--" + name.replace("_", "-"), value)]
    assert main([argv.split()[0], *flags, "--format", "json", "--out", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("argv, line", [
    ("sense --omega 2.000000000000001 --sweep-axis j --sweep-range 0.3:0.589979839785503 --n 3",
     "kappa=j omega=2.000000000000001 gamma=1 range=0.3:0.589979839785503 n=3"),
    ("ep-locate --omega 2.000000000000001 --sweep-axis j --sweep-range 0.30000000000000004:0.9",
     "fix=omega value=2.000000000000001 gamma=1 bracket=0.30000000000000004:0.9"),
    ("ep-curve --gamma 1.0000000000000002 --sweep-range 1.6:2.000000000000001 --n 3",
     "gamma=1.0000000000000002 omega_range=1.6:2.000000000000001 n=3"),
    ("concurrence --omega 2.000000000000001 --sweep-axis j --sweep-range 0.3:0.589979839785503"
     " --n 3", "omega=2.000000000000001 j=0 gamma=1 sweep=j range=0.3:0.589979839785503 n=3"),
], ids=["sense", "ep-locate", "ep-curve", "concurrence"])
def test_range_params_lines_read_back_the_argv(argv, line, tmp_path):
    """The range commands' params lines keep their keys and print every value of the run,
    its range and n included, so that it reads back as the argv's float."""
    out = tmp_path / "out.json"
    assert main(argv.split() + ["--format", "json", "--out", str(out)]) == 0
    params = json.loads(out.read_text())["params"]
    assert params == line
    floats = {float(v) for arg in argv.split() if arg[:1].isdigit() for v in arg.split(":")}
    printed = {float(v) for pair in params.split() for v in pair.split("=")[1].split(":")
               if v[:1].isdigit()}
    assert floats <= printed


@pytest.mark.parametrize("argv", [
    "concurrence --omega 2 --sweep-axis omega --sweep-range -1e308:1e308 --n 3",
    "sense --omega 2 --sweep-axis j --sweep-range -1e308:1e308 --n 3",
    "sense --j 0.4 --sweep-axis omega --sweep-range -1e308:1e308 --n 3",
    "ep-curve --sweep-range -1e308:1e308 --n 3",
], ids=["concurrence", "sense-j", "sense-omega", "ep-curve"])
def test_sweep_range_whose_width_overflows(argv):
    """hi - lo overflows, the grid -1e308, 0, 1e308 does not: each command answers (exit 0)
    or names a numerical failure in one JSON line (exit 3), with nothing else on stderr."""
    proc = run_cli(argv.split())
    assert proc.returncode in (0, 3), proc.stderr
    if proc.returncode == 0:
        assert proc.stderr == ""
        assert "-1e+308" in proc.stdout and "1e+308" in proc.stdout
    else:
        assert len(proc.stderr.splitlines()) == 1
        assert json.loads(proc.stderr)["error"] == "EmptyCurveError"


@pytest.mark.parametrize("name", sorted(_JSON_CASES))
def test_json_output_sha256_pinned(name, tmp_path):
    argv, digest = _JSON_CASES[name]
    out_file = tmp_path / "out.json"
    assert main([str(a) for a in argv] + ["--format", "json", "--out", str(out_file)]) == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


class TestReproduce:
    def test_fig3a_metadata_and_shape(self, tmp_path, capsys):
        out_file = tmp_path / "fig3a.csv"
        code, _, _ = invoke(capsys, "reproduce", "fig3a", "--out", out_file)
        assert code == 0
        meta, header, cols = parse_csv(out_file.read_text())
        assert header == ["j", "c_psi3", "c_psi4"]
        assert float(meta["j_c"]) == pytest.approx(0.58998, abs=1e-4)
        assert len(cols["j"]) == 121

    def test_byte_identical_reruns(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert invoke(capsys, "reproduce", "fig3b", "--out", path)[0] == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


_QFI = ["qfi", "--omega", 2, "--j", 0.3]


class TestOutFile:
    """--out rewrites its target in place: what open(path, "w") leaves, without its truncate."""

    @staticmethod
    def _stdout_bytes(capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        return out.encode()

    def test_shorter_output_leaves_no_stale_tail(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        path.write_bytes(b"x" * 100_000)
        want = self._stdout_bytes(capsys, _QFI)
        assert invoke(capsys, *_QFI, "--out", path)[0] == 0
        assert path.read_bytes() == want

    def test_symlink_keeps_the_link_and_rewrites_its_target(self, tmp_path, capsys):
        target, link, hard = tmp_path / "target.json", tmp_path / "link.json", tmp_path / "hard"
        target.write_bytes(b"x" * 10_000)
        link.symlink_to(target.name)
        os.link(target, hard)
        inode = target.stat().st_ino
        want = self._stdout_bytes(capsys, _QFI)
        assert invoke(capsys, *_QFI, "--out", link)[0] == 0
        assert link.is_symlink() and os.readlink(link) == target.name
        assert target.read_bytes() == hard.read_bytes() == want
        assert (target.stat().st_ino, target.stat().st_nlink) == (inode, 2)

    @pytest.mark.parametrize("mask", [0o022, 0o077])
    def test_new_file_mode_is_open_w_under_the_umask(self, tmp_path, capsys, mask):
        ours, theirs = tmp_path / "ours.json", tmp_path / "theirs.json"
        old = os.umask(mask)
        try:
            assert invoke(capsys, *_QFI, "--out", ours)[0] == 0
            with open(theirs, "w"):
                pass
        finally:
            os.umask(old)
        assert stat.S_IMODE(ours.stat().st_mode) == stat.S_IMODE(theirs.stat().st_mode)
        assert stat.S_IMODE(ours.stat().st_mode) == 0o666 & ~mask

    def test_existing_mode_is_kept(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        path.write_bytes(b"x")
        path.chmod(0o600)
        assert invoke(capsys, *_QFI, "--out", path)[0] == 0
        assert stat.S_IMODE(path.stat().st_mode) == 0o600

    def test_dev_null(self, capsys):
        assert invoke(capsys, *_QFI, "--out", os.devnull) == (0, "", "")

    def test_dash_is_stdout(self, tmp_path, capsys):
        """`--out -` prints the bytes the pinned file gets."""
        argv, digest = _JSON_CASES["sense"]
        out = self._stdout_bytes(capsys, argv + ["--format", "json", "--out", "-"])
        assert hashlib.sha256(out).hexdigest() == digest
        assert out == self._stdout_bytes(capsys, argv + ["--format", "json"])

    def test_text_only_stdout(self, capsys):
        """A stdout with no binary buffer (an io.StringIO) gets the same text."""
        argv = ["evolve", "--omega", 2, "--j", 0.4, "--tmax", 0.1, "--dt", 0.01]
        want = self._stdout_bytes(capsys, argv).decode()
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            assert main([str(a) for a in argv]) == 0
        assert text.getvalue() == want

    @pytest.mark.parametrize("target, error", [("missing", "FileNotFoundError"),
                                               ("directory", "IsADirectoryError")])
    def test_unwritable_target_exits_2(self, tmp_path, capsys, target, error):
        path = tmp_path / "no" / "such" / "x.json" if target == "missing" else tmp_path
        code, out, err = invoke(capsys, *_QFI, "--out", path)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == error
        assert str(path) in json.loads(err)["message"]


def _run_reference(command, omega, j, gamma, theta, tmax, dt, record_every, fmt):
    """evolve / revivals output built from the public propagate Trajectory, one _fmt per value.

    revivals runs with --collapse-fraction 0.45 (see TestStreamedRuns._argv).
    """
    traj = propagate(SystemParams(omega, j, gamma), initial_state(theta), tmax, dt,
                     record_every=record_every)
    desc = cli._params_desc(SystemParams(omega, j, gamma), theta=float(theta), tmax=float(tmax),
                            dt=float(dt), record_every=record_every)
    t_end = float(traj.times[-1])
    end = {} if t_end == tmax else {"t_end": t_end}
    if command == "evolve":
        header, meta = ["t", "concurrence", "coherence_x", "norm_log"], end
        rows = [list(r) for r in zip(traj.times.tolist(), traj.concurrence.tolist(),
                                     traj.coherence_x.tolist(), traj.norm_log.tolist())]
    else:
        revivals = detect_revivals(traj, collapse_fraction=0.45)
        header = ["revival_index", "revival_time"]
        rows = [[k, t] for k, t in enumerate(revivals.tolist())]
        meta = {"n_revivals": len(revivals),
                "first_revival": revivals[0] if len(revivals) else None,
                "envelope_window": 5.0, "collapse_fraction": 0.45, **end}
    if fmt == "json":
        payload = {"params": desc, "results": {"columns": header, "rows": rows},
                   "diagnostics": meta}
        return json.dumps(_jsonable(payload), indent=2) + "\n"
    lines = [MAGIC, f"# params: {desc}"] + [f"# {k}: {_fmt(v)}" for k, v in meta.items()]
    lines += [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


#: (omega, j, gamma, theta, tmax, dt, record_every) runs of the row-streaming path.  At
#: dt = 0.01 and gamma = 1 a chunk is 500 steps.
_STREAMED = {
    # 100 steps: one chunk shorter than the chunk length
    "one-short-chunk": (2.0, 0.4, 1.0, 1.5, 1.0, 0.01, 1),
    # samples 700 steps apart, each in a later chunk, and the off-grid final step 3000
    "record-past-chunk": (2.0, 0.7, 1.0, 0.9, 30.0, 0.01, 700),
    # 123 steps end at 1.23, off --tmax (a t_end line) and off the 5-step record grid
    "off-grid-end": (1.8, 0.3, 1.0, 2.2, 1.2345, 0.01, 5),
    # 2.5 blocks of rows, and exactly two blocks
    "several-blocks": (1.7, 0.336, 1.0, 1.5707963, 25.0 * _BLOCK_ROWS / 1000, 0.01, 1),
    "two-full-blocks": (1.5, 0.01, 0.0, 0.7, (2 * _BLOCK_ROWS - 1) * 0.01, 0.01, 1),
    # many collapses and revivals on 15 000 steps of a PT-symmetric run
    "revivals": (1.7, 0.337, 1.0, 1.5707963, 300.0, 0.02, 1),
}


class TestStreamedRuns:
    """evolve and revivals run the integrator without states and write CSV in row blocks:
    their bytes equal tables built from propagate's Trajectory, one value at a time."""

    @staticmethod
    def _argv(command, case):
        omega, j, gamma, theta, tmax, dt, record_every = _STREAMED[case]
        detector = ["--collapse-fraction", 0.45] if command == "revivals" else []
        return [command, "--omega", omega, "--j", j, "--gamma", gamma, "--theta", theta,
                "--tmax", tmax, "--dt", dt, "--record-every", record_every, *detector]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["evolve", "revivals"])
    @pytest.mark.parametrize("case", sorted(_STREAMED))
    def test_stdout_equals_the_trajectory_table(self, capsys, case, command, fmt):
        code, out, err = invoke(capsys, *self._argv(command, case), "--format", fmt,
                                "--out", "-")
        assert (code, err) == (0, "")
        assert out == _run_reference(command, *_STREAMED[case], fmt)

    def test_cases_reach_what_they_name(self, capsys):
        lengths = {}
        for case in _STREAMED:
            _, out, _ = invoke(capsys, *self._argv("evolve", case))
            meta, _, cols = parse_csv(out)
            lengths[case] = (len(cols["t"]), "t_end" in meta)
        assert lengths["one-short-chunk"] == (101, False)
        assert lengths["record-past-chunk"] == (6, False)
        assert lengths["off-grid-end"] == (26, True)
        assert lengths["several-blocks"] == (25 * _BLOCK_ROWS // 10 + 1, False)
        assert lengths["two-full-blocks"] == (2 * _BLOCK_ROWS, False)
        _, out, _ = invoke(capsys, *self._argv("revivals", "revivals"))
        assert int(parse_csv(out)[0]["n_revivals"]) >= 2

    @pytest.mark.parametrize("command", ["evolve", "revivals"])
    def test_longer_out_file_is_cut(self, tmp_path, capsys, command):
        path = tmp_path / "run.csv"
        want = _run_reference(command, *_STREAMED["several-blocks"], "csv").encode()
        path.write_bytes(b"x" * (len(want) + 100_000))
        assert invoke(capsys, *self._argv(command, "several-blocks"), "--out", path)[0] == 0
        assert path.read_bytes() == want


#: The peak bound of an evolve / revivals call: bytes per recorded row, plus a constant
#: for the chunk's step powers and one write block.  Fixed before measuring; a run that
#: keeps its states (64 bytes a row) and formats a whole table at once exceeds it.
_BYTES_PER_ROW, _PEAK_CONSTANT = 100, 2 * 2**20


@pytest.mark.parametrize("argv, rows", [
    (["revivals", "--omega", 1.7, "--j", 0.3, "--tmax", 200, "--dt", 0.002], 100_001),
    (["evolve", "--omega", 1.7, "--j", 0.3, "--tmax", 60, "--dt", 0.002], 30_001),
], ids=["revivals", "evolve"])
def test_peak_memory_per_recorded_row(tmp_path, argv, rows):
    argv = [str(a) for a in argv] + ["--out", str(tmp_path / "run.csv")]
    assert main(argv) == 0  # warm: the parser and numpy's first-call state are not counted
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _BYTES_PER_ROW * rows + _PEAK_CONSTANT, f"{peak / rows:.0f} B/row"


def test_record_every_past_a_64_bit_integer(capsys):
    """--record-every longer than the run, even past int64, records t=0 and the end."""
    code, out, err = invoke(capsys, "evolve", "--omega", 2, "--j", 0.4, "--tmax", 1, "--dt", 0.01,
                            "--record-every", 10**20)
    assert (code, err) == (0, "") and parse_csv(out)[2]["t"] == ["0", "1"]


def test_closed_stdout_ends_the_run_quietly():
    """A reader that closes stdout after three lines is not a usage error: exit 0 and an empty
    stderr, the rest of the table going nowhere (it is longer than a pipe buffer)."""
    proc = subprocess.Popen([sys.executable, "-m", "ptqsim.cli", "evolve", "--omega", "2",
                             "--j", "0.4", "--tmax", "30", "--dt", "0.01"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = [proc.stdout.readline() for _ in range(3)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (0, b"")
    assert lines[0] == (MAGIC + "\n").encode() and lines[2].startswith(b"t,concurrence")


class TestQfiCommand:
    def test_point_json(self, capsys):
        code, out, _ = invoke(
            capsys, "qfi", "--omega", 2.0, "--j", 0.45, "--sweep-axis", "j",
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["cr_bound"] == pytest.approx(1 / np.sqrt(results["qfi"]))
        assert results["inv_variance_sq"] <= results["qfi"] * (1 + 1e-6)

    @pytest.mark.parametrize("kappa", ["j", "omega"])
    def test_negative_omega_mirrors_positive(self, capsys, kappa):
        """U = sz(x)sz maps H(omega) to H(-omega): the same QFI, the coherence negated."""
        results = {}
        for omega in (2, -2):
            code, out, _ = invoke(capsys, "qfi", "--omega", omega, "--j", 0.4,
                                  "--sweep-axis", kappa)
            assert code == 0
            results[omega] = json.loads(out)["results"]
        for key in ("qfi", "variance_sq"):
            assert results[-2][key] == pytest.approx(results[2][key], rel=1e-12)
        assert results[-2]["coherence"] == pytest.approx(-results[2]["coherence"], rel=1e-12)

    @pytest.mark.parametrize("omega, j, kappa", [(1e-5, 0.3, "omega"), (1e-5, 0.3, "j"),
                                                 (2.0, 0.0, "omega"), (2.0, 0.0, "j")])
    def test_singlet_crossings_answer(self, capsys, omega, j, kappa):
        """At omega ~ 0 and on the line j = 0 the singlet meets a sector root, which is
        no EP: the point answers, within the 40-digit central difference's bounds."""
        code, out, err = invoke(capsys, "qfi", "--omega", omega, "--j", j, "--sweep-axis", kappa)
        assert (code, err) == (0, "")
        results = json.loads(out)["results"]
        p = SystemParams(omega, j, 1.0)
        f, m0, slope = mp_reference.psi3_sensing(omega, j, 1.0, kappa, ptqsim_eigenvalues(p)[2])
        assert results["qfi"] == pytest.approx(f, rel=1e-13)
        assert results["coherence"] == pytest.approx(m0, abs=1e-14)
        assert results["variance_sq"] == pytest.approx((1 - m0 * m0) / slope**2, rel=1e-11)

    def test_hermitian_limit_exits_3(self, capsys):
        """gamma = 0: Psi3 does not move with j, so the coherence slope is zero."""
        code, out, err = invoke(
            capsys, "qfi", "--omega", 2, "--j", 0.4, "--sweep-axis", "j", "--gamma", 0,
        )
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "ZeroSlopeError"

    def test_sweep_is_refused_sense_writes_it(self, capsys):
        """qfi takes one point; the sweep table is sense's, with the same flags."""
        sweep = ["--omega", 2.0, "--sweep-axis", "j", "--sweep-range", "0.40:0.45",
                 "--n", 3, "--format", "csv"]
        code, out, err = invoke(capsys, "qfi", *sweep)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "ValidationError"
        code, out, _ = invoke(capsys, "sense", *sweep)
        assert code == 0
        _, header, cols = parse_csv(out)
        assert header[0] == "j" and "qfi" in header
        assert len(cols["j"]) == 3


class TestRemainingPresets:
    def test_fig2_surface_grid(self, tmp_path, capsys):
        out_file = tmp_path / "fig2.csv"
        assert invoke(capsys, "reproduce", "fig2", "--out", out_file)[0] == 0
        _, header, cols = parse_csv(out_file.read_text())
        assert header == ["omega", "j", "re_e3", "im_e3", "re_e4", "im_e4"]
        assert len(cols["omega"]) == 61 * 61
        im3 = column(cols, "im_e3")
        im4 = column(cols, "im_e4")
        # conjugate partners: imaginary parts mirror each other
        assert np.max(np.abs(im3 + im4)) < 1e-9

    def test_fig5b_runs(self, tmp_path, capsys):
        out_file = tmp_path / "fig5b.csv"
        assert invoke(capsys, "reproduce", "fig5b", "--out", out_file)[0] == 0
        _, header, cols = parse_csv(out_file.read_text())
        assert header == ["t", "concurrence_omega1901", "concurrence_omega1902"]
        assert column(cols, "t")[-1] == pytest.approx(2000.0)


class TestNegativeValues:
    @pytest.mark.parametrize("value", ["-1e-3", "-.5", "-2", "-1E+2"])
    def test_space_form_equals_equals_form(self, capsys, value):
        """`--omega -1e-3` is a value, as `--omega=-1e-3` is."""
        spaced = invoke(capsys, "spectrum", "--omega", value, "--j", "0.3")
        joined = invoke(capsys, "spectrum", f"--omega={value}", "--j", "0.3")
        assert spaced[0] == 0
        assert spaced == joined

    def test_non_finite_after_a_space_is_a_value(self, capsys):
        code, _, err = invoke(capsys, "spectrum", "--omega", "-inf", "--j", "-nan")
        assert code == 2
        assert json.loads(err) == {"error": "ValueError", "message": "omega must be finite, got -inf"}

    @pytest.mark.parametrize("argv, key, expected", [
        (["--sweep-axis", "j", "--omega", "-2.0", "--sweep-range", "0.3:0.9"],
         "j_c", 0.5899798397854931),
        (["--sweep-axis", "j", "--omega", "2.0", "--sweep-range", "-0.9:-0.3"],
         "j_c", -0.5899798397854931),
        (["--sweep-axis", "omega", "--j", "0.3", "--sweep-range", "-2.2:-1.2"],
         "omega_c", -1.6488931098618156),
    ])
    def test_ep_locate_negative_brackets(self, capsys, argv, key, expected):
        code, out, _ = invoke(capsys, "ep-locate", *argv)
        assert code == 0
        assert json.loads(out)["results"][key] == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestProcessLevel:
    def test_parser_keeps_no_state_between_calls(self, tmp_path, capsys):
        """Repeated in-process main calls print what a fresh interpreter prints."""
        runs = [
            ["spectrum", "--omega", "2", "--j", "0.4"],
            ["reproduce", "fig3a"],
            ["spectrum", "--omega", "2", "--j", "0.4"],
        ]
        for argv in runs:
            assert main(argv) == 0
            in_process = capsys.readouterr().out
            fresh = run_cli(argv)
            assert fresh.returncode == 0
            assert in_process == fresh.stdout
        assert json.loads(in_process)["params"] == "omega=2 j=0.4 gamma=1"

    def test_version_runs(self):
        proc = run_cli(["--version"])
        assert proc.returncode == 0
        assert "ptq-sim" in proc.stdout

    def test_unknown_flag_exits_2(self):
        proc = run_cli(["spectrum", "--bogus", "1"])
        assert proc.returncode == 2

    def test_unknown_preset_exits_2(self):
        proc = run_cli(["reproduce", "fig99"])
        assert proc.returncode == 2


#: Each flag that some subcommand declares but this one does not, as its handler does not read it.
_UNDECLARED = [
    ["spectrum", "--sweep-axis", "j"],
    ["spectrum", "--sweep-range", "0:1"],
    ["ep-locate", "--omega", 2, "--sweep-range", "0.3:0.9", "--n", 3],
    ["ep-curve", "--sweep-range", "0.5:2", "--n", 3, "--omega", 5],
    ["ep-curve", "--sweep-range", "0.5:2", "--n", 3, "--j", 0.3],
    ["ep-curve", "--sweep-range", "0.5:2", "--n", 3, "--sweep-axis", "j"],
    ["qfi", "--omega", 2, "--j", 0.45, "--sweep-range", "0.4:0.5"],
    ["qfi", "--omega", 2, "--j", 0.45, "--n", 3],
] + [
    [command, "--tmax", 1, *flag]
    for command in ("evolve", "revivals")
    for flag in (["--sweep-axis", "j"], ["--sweep-range", "0:1"], ["--n", 3])
]


@pytest.mark.parametrize("argv", [
    ["spectrum", "--omega", "abc"],
    ["spectrum", "--bogus", 1],
    [],
    ["reproduce", "fig99"],
    ["evolve", "--omega", 2],
    ["spectrum", "--n", 3],
] + _UNDECLARED)
def test_usage_error_is_one_json_line(capsys, argv):
    """A bad value, an unknown or undeclared flag, a missing argument: exit 2, one JSON line."""
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "ValidationError"


@pytest.mark.parametrize("argv", [
    ["sense", "--sweep-axis", "j", "--omega", 2, "--sweep-range", "0.3:0.9"],
    ["concurrence", "--sweep-axis", "j", "--omega", 2, "--sweep-range", "0.3:0.9"],
    ["ep-curve", "--sweep-range", "1:2"],
], ids=["sense", "concurrence", "ep-curve"])
def test_huge_n_is_one_json_line(capsys, argv):
    """A grid of 10**15 points cannot be allocated (7 PiB is past the address space,
    so nothing is allocated): exit 2 with one JSON line naming --n, no traceback."""
    code, out, err = invoke(capsys, *argv, "--n", 10**15)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    error = json.loads(err)
    assert error["error"] == "ValueError"
    assert "--n 1000000000000000" in error["message"] and "memory" in error["message"]


_EXTREMES = st.sampled_from(
    ["0", "-0.0", "-1", "-2.5", "nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "-1e-300"]
)
# in-domain values (omega, j, gamma, windows >= 0) a third of the time
_VALUES = st.one_of(_EXTREMES, st.floats(-3.0, 3.0).map(repr), st.floats(0.0, 3.0).map(repr))
#: A value drawn for each flag; --tmax and --dt are drawn together by _run_length.
_FLAG_VALUES = {
    "--omega": _VALUES,
    "--j": _VALUES,
    "--gamma": _VALUES,
    "--sweep-axis": st.sampled_from(["j", "omega"]),
    "--sweep-range": st.tuples(_VALUES, _VALUES).map(":".join),
    "--n": st.integers(-2, 5).map(str),
    "--theta": _VALUES,
    "--record-every": st.integers(-2, 50).map(str),
    "--envelope-window": _VALUES,
    "--collapse-fraction": _VALUES,
}
_POINT = ("--omega", "--j", "--gamma", "--format")
_SWEEP = _POINT + ("--sweep-axis", "--sweep-range", "--n")
_RUN = _POINT + ("--theta", "--tmax", "--dt", "--record-every")
#: The flags each subcommand declares besides --out.
_DECLARED = {
    "spectrum": _POINT,
    "ep-locate": _POINT + ("--sweep-axis", "--sweep-range"),
    "ep-curve": ("--gamma", "--format", "--sweep-range", "--n"),
    "concurrence": _SWEEP,
    "evolve": _RUN,
    "revivals": _RUN + ("--envelope-window", "--collapse-fraction"),
    "qfi": _POINT + ("--sweep-axis",),
    "sense": _SWEEP,
    "reproduce": (),
}
_ALL_FLAGS = tuple(_FLAG_VALUES) + ("--tmax", "--dt", "--format")


@st.composite
def _run_length(draw):
    """--tmax (and maybe --dt) for a run that takes at most 1e4 steps if it passes validation.

    At omega = j = gamma = 0 H vanishes and the dt*||H|| check never fires,
    so tmax/dt alone sets the run length: tmax is dt times a step count of
    at most 1e4, or times a factor propagate must refuse.
    """
    dt = draw(st.one_of(st.none(), _VALUES))
    steps = draw(st.one_of(
        st.floats(0.0, 1e4),
        st.sampled_from([float("nan"), float("inf"), -float("inf"), -1.0, 1e19, 1e300]),
    ))
    tmax = (1e-3 if dt is None else float(dt)) * steps
    return [("--tmax", repr(tmax))] + ([] if dt is None else [("--dt", dt)])


@st.composite
def _argv(draw):
    """(argv, spaced, usage_error, json): one subcommand's declared flags, maybe one usage error.

    argv writes each value after `=`; spaced, drawn half the time (else None),
    is the same argv with each value after a space (`--omega -1e-3`).
    """
    command = draw(st.sampled_from(sorted(_DECLARED)))
    head = [command]
    if command == "reproduce":
        # the fast presets; every preset's bytes are pinned in test_presets
        head.append(draw(st.sampled_from(["fig3a", "fig3b"])))
    declared = _DECLARED[command]
    pairs = []
    for flag in declared:
        if flag in _FLAG_VALUES and draw(st.integers(0, 3)):  # present 3 times in 4
            pairs.append((flag, draw(_FLAG_VALUES[flag])))
    if "--tmax" in declared:
        pairs += draw(_run_length())
    if "--format" in declared:
        pairs.append(("--format", draw(st.sampled_from(["csv", "json"]))))
    mistake = draw(st.sampled_from([None] * 8 + ["undeclared", "unparsable"]))
    if mistake == "undeclared":
        flag = draw(st.sampled_from([f for f in _ALL_FLAGS if f not in declared]))
        pairs.append((flag, draw(_FLAG_VALUES.get(flag, _VALUES))))
    elif mistake == "unparsable" and command == "reproduce":
        head[1] = draw(st.sampled_from(["fig99", "FIG3A", ""]))
    elif mistake == "unparsable":
        flag = draw(st.sampled_from(declared))
        pairs.append((flag, draw(st.sampled_from(["abc", "", "1,5", "0x"]))))
    argv = head + [f"{flag}={value}" for flag, value in pairs]
    spaced = head + [arg for pair in pairs for arg in pair] if draw(st.booleans()) else None
    return argv, spaced, mistake is not None, ("--format", "json") in pairs


@seed(20260809)
@settings(max_examples=500, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_argv())
def test_cli_contract_fuzz(capsys, case):
    """Exit 0, 2 or 3; a failure is one JSON line on stderr and nothing else.

    Every subcommand is drawn with the flags it declares; an undeclared flag
    or an unparsable value is a usage error and exits 2.  Writing the values
    after a space instead of `=` changes neither the exit code, the output
    nor the error's name.
    """
    argv, spaced, usage_error, json_format = case
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3)
    assert not caught, [str(w.message) for w in caught]
    if usage_error:
        assert code == 2
    if code == 0:
        assert err == ""
        if json_format:
            json.loads(out)
        else:
            assert out.startswith("# ptq-sim v1\n")
    else:
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "error" in json.loads(err)
    if spaced is not None:
        spaced_code = main(spaced)
        spaced_out, spaced_err = capsys.readouterr()
        assert (spaced_code, spaced_out) == (code, out)
        if code:
            assert json.loads(spaced_err)["error"] == json.loads(err)["error"]
