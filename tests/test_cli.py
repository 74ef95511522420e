import argparse
import hashlib
import json
import os
import stat
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from conftest import column, parse_csv, run_cli
from ptqsim import spectrum
from ptqsim.cli import MAGIC, _emit, _fmt, _jsonable, main


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
        # E2 and the singlet are a double root -j: the oracle no longer polishes it away
        code, out, err = invoke(capsys, "spectrum", "--omega", 0, "--j", 0.42)
        assert (code, err) == (0, "")
        values = [(e["re"], e["im"]) for e in json.loads(out)["results"]["eigenvalues"]]
        assert values == [(-0.42, 0.0), (-0.42, 0.0), (0.42, 1.0), (0.42, -1.0)]

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
        # only |omega| <= 1e-12 is singular; at 1e-3 E2 sits 4.4e-7 from the singlet
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
        code, out, err = invoke(capsys, "spectrum", "--omega", "1e200", "--j", "1e200")
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

    @pytest.mark.parametrize("argv, n, probes", [
        (["concurrence", "--omega", 2.0, "--sweep-axis", "j", "--sweep-range", "0.3:0.9",
          "--n", 7], 7, 0),
        (["reproduce", "fig3a"], 121, 3),
        (["reproduce", "fig3b"], 201, 4),
    ])
    def test_one_eigenpair_solve_per_point(self, capsys, count_calls, argv, n, probes):
        """Psi3 and Psi4 come from one eigenvector solve; every eigenvalue solve is one point's."""
        eigenpairs = count_calls(spectrum, "_closed_form_eigenpairs")
        solves = count_calls(spectrum, "_solve_eigenvalues")
        assert invoke(capsys, *argv)[0] == 0
        assert eigenpairs() == n
        # the swept points, plus the bracket ends and root probes of fig3's locate_ep
        assert solves() == n + probes


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
        assert self._emitted(capsys, header, table, {}) == self._per_value(header, rows, {})

    @pytest.mark.parametrize("rows", [[], np.empty((0, 3))], ids=["list", "array"])
    def test_zero_rows(self, capsys, rows):
        header = ["t", "a", "b"]
        assert self._emitted(capsys, header, rows, {"n": 0}) == self._per_value(header, [], {"n": 0})


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
        rng = np.random.default_rng(4)
        table = rng.standard_normal((40, 3)) * 10.0 ** rng.integers(-300, 300, (40, 3))
        table[::7, 1] = np.nan
        want = self._per_row("p=1", ["t", "a", "b"], table, {})
        assert self._emitted(capsys, ["t", "a", "b"], table, {}) == want

    def test_point_object(self, capsys):
        results = {"qfi": np.float64(2.5), "nested": {"v": np.array([1 + 2j, np.nan])},
                   "eigenvalues": [{"re": 0.5, "im": np.nan}]}
        want = self._per_row("p=1", ["qfi"], [[2.5]], {"k": 1}, results)
        assert self._emitted(capsys, ["qfi"], [[2.5]], {"k": 1}, results) == want


#: sha256 of every subcommand's --format json output.  All twelve equal the
#: per-row JSON writer's output on the same numbers; the points and sweeps that
#: reach the PT-broken phase or an EP carry the exact cube-root pair's digits.
_JSON_CASES = {
    "spectrum": (["spectrum", "--omega", 2, "--j", 0.4],
                 "04008b7f1402c88353a47b964c5eaf8b62f455faed98cb9da73fb755b11621a5"),
    "spectrum-broken": (["spectrum", "--omega", 1.7, "--j", 0.45],
                        "8333e749061f96adae3c4d93087ac8b1bcbd19db8af1636cee5e74999f6259b1"),
    "spectrum-omega0": (["spectrum", "--omega", 0, "--j", 0.3],
                        "75f3116632d2090d41d16779c619315716fcaa689c3c500c24741b0fe80befd1"),
    "ep-locate": (["ep-locate", "--omega", 2, "--sweep-axis", "j", "--sweep-range", "0.3:0.9"],
                  "9c969676d43f96fc9d0fdbd1e45d9ac7c5b40b2f99a048786e4bb74d514ea33f"),
    "ep-locate-j": (["ep-locate", "--j", 0.3, "--sweep-axis", "omega", "--sweep-range", "1.2:2.2"],
                    "fab41d5302ca066f207a8a08a02b6944aee02e775f5dc523bf55df8cec015073"),
    "ep-curve": (["ep-curve", "--sweep-range", "0.5:2.5", "--n", 9],
                 "000d38a2300b2436b3960c62819243eaafc91553440a3a52677dd614b193335b"),
    "concurrence": (["concurrence", "--omega", 2, "--j", 0.4],
                    "fc71cfd03e3c2e671e6eba5da32a8f6f8bfbd9f3d6e3f0551f76b2bf5e59cc48"),
    "concurrence-sweep": (["concurrence", "--omega", 2, "--sweep-axis", "j",
                           "--sweep-range", "0.3:0.9", "--n", 7],
                          "d761ed05c9239bc54dcad0b404651c894d8f12df6a025af25ba9462770e9905e"),
    "evolve": (["evolve", "--omega", 2, "--j", 0.4, "--tmax", 2, "--dt", 0.01],
               "4764adc01b0b0727a68931b22d09c8b915063a84762c7db9e82a5349365ae29b"),
    "revivals": (["revivals", "--omega", 1.7, "--j", 0.337, "--tmax", 300, "--dt", 0.02,
                  "--collapse-fraction", 0.45],
                 "0bedec01be610fc83f17cd77ff2a67513306535d2dadda39649a7e07156529c3"),
    "qfi": (["qfi", "--omega", 2, "--j", 0.4, "--sweep-axis", "j"],
            "e0e5536a22d1c6a720785dcb4e7ad44b2ee8a2562f2619e887ec08930bc0c796"),
    "sense": (["sense", "--omega", 2, "--sweep-axis", "j", "--sweep-range", "0.3:0.9",
               "--n", 13],
              "5ad680c1937d3f0707590f51cda58a762884d868c321ee4bf63b8b68466d339f"),
}


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

    @pytest.mark.parametrize("target, error", [("missing", "FileNotFoundError"),
                                               ("directory", "IsADirectoryError")])
    def test_unwritable_target_exits_2(self, tmp_path, capsys, target, error):
        path = tmp_path / "no" / "such" / "x.json" if target == "missing" else tmp_path
        code, out, err = invoke(capsys, *_QFI, "--out", path)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == error
        assert str(path) in json.loads(err)["message"]


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
