import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from vqmc import cli, conic, markov
from vqmc import registers as reg

from conftest import tolerance_split_case


# the maximally mixed three-qubit state, as a state file's 're'
EIGHTH = (np.eye(8) / 8).tolist()


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, f"no stdout (stderr: {err})"
    return code, json.loads(out)


def usage_error(capsys, *argv) -> str:
    """Run ``vqmc *argv``, expect argparse to reject it with exit code 1, and
    return stderr."""
    with pytest.raises(SystemExit) as caught:
        cli.main(list(argv))
    captured = capsys.readouterr()
    assert caught.value.code == cli.EXIT_ERROR and captured.out == ""
    assert captured.err.startswith("usage: vqmc")
    return captured.err


class TestStateCommand:
    def test_w4_payload(self, capsys):
        code, payload = run_json(capsys, "state", "W4")
        assert code == 0
        matrix = np.asarray(payload["re"]) + 1j * np.asarray(payload["im"])
        nonzero = np.abs(matrix) > 1e-12
        assert nonzero.sum() == 16
        assert np.allclose(np.abs(matrix[nonzero]), 0.25)

    def test_mix_zero_equals_ghz4(self, capsys):
        _, out_mix, _ = run(capsys, "state", "MIX", "--p", "0")
        _, out_ghz, _ = run(capsys, "state", "GHZ4")
        assert out_mix == out_ghz

    def test_rho2_diagonal_entries(self, capsys):
        code, payload = run_json(capsys, "state", "RHO2")
        matrix = np.asarray(payload["re"])
        assert matrix[0][0] == 0.5 and matrix[15][15] == 0.5
        assert np.abs(matrix).sum() == pytest.approx(1.0)

    def test_writes_file_in_registers_format(self, capsys, tmp_path):
        path = tmp_path / "mix.json"
        code, report = run_json(capsys, "state", "MIX", "--p", "0.3", "--out", str(path))
        assert code == 0 and report["results"]["written"] == str(path)
        loaded = reg.load_state(path)
        assert np.abs(loaded.matrix - reg.make_state("MIX", p=0.3).matrix).max() == 0.0

    def test_written_file_is_the_registers_writer_output(self, capsys, tmp_path):
        path = tmp_path / "w4.json"
        assert run(capsys, "state", "W4", "--out", str(path))[0] == 0
        reg.save_state(reg.make_state("W4"), tmp_path / "reference.json")
        assert path.read_bytes() == (tmp_path / "reference.json").read_bytes()

    def test_bad_p(self, capsys):
        code, _, err = run(capsys, "state", "MIX", "--p", "1.5")
        assert code == 1 and "error" in err

    def test_unwritable_path(self, capsys, tmp_path):
        code, _, err = run(capsys, "state", "W4", "--out", str(tmp_path / "no" / "w4.json"))
        assert code == 1 and "error" in err

    def test_verbose_is_not_offered(self, capsys):
        assert "unrecognized arguments: --verbose" in usage_error(capsys, "state", "W4",
                                                                  "--verbose")

    def test_pretty_indents_the_payload(self, capsys):
        _, out, _ = run(capsys, "state", "W4", "--pretty")
        assert out.startswith('{\n "labels"')
        assert json.loads(out) == reg.state_to_dict(reg.make_state("W4"))


class TestInclusionCommand:
    def test_w4_passes(self, capsys):
        code, report = run_json(capsys, "inclusion", "--builtin", "W4")
        assert code == 0
        assert report["results"]["verdict"] is True

    def test_mix_half_passes(self, capsys):
        code, report = run_json(capsys, "inclusion", "--builtin", "MIX", "--p", "0.5")
        assert code == 0 and report["results"]["verdict"] is True

    def test_convex_mix_matches_fixture(self, capsys, inclusion_fixture):
        code, report = run_json(
            capsys, "inclusion", "--builtin", "CONVEX_MIX", "--lambda", "0.5"
        )
        expected = inclusion_fixture["cases"]["CONVEX_MIX_0.5"]["verdict"]
        assert report["results"]["verdict"] == expected
        assert code == (0 if expected else 2)

    def test_state_file_input(self, capsys, tmp_path):
        path = tmp_path / "w4.json"
        reg.save_state(reg.make_state("W4"), path)
        code, report = run_json(capsys, "inclusion", str(path))
        assert code == 0 and report["inputs"]["state_file"] == str(path)

    def test_three_label_marginal_accepted(self, capsys, tmp_path):
        path = tmp_path / "marginal.json"
        reg.save_state(reg.partial_trace(reg.make_state("W4"), "D"), path)
        code, report = run_json(capsys, "inclusion", str(path))
        assert code == 0 and report["results"]["verdict"] is True

    def test_tol_defaults_to_the_inclusion_leak_tolerance(self, capsys):
        code, report = run_json(capsys, "inclusion", "--builtin", "W4")
        assert code == 0
        assert report["results"]["tol"] == markov.INCLUSION_LEAK_TOL

    def test_tol_is_passed_through(self, capsys):
        code, report = run_json(capsys, "inclusion", "--builtin", "W4", "--tol", "1e-6")
        assert code == 0
        assert report["results"]["tol"] == 1e-6

    @pytest.fixture
    def violation_file(self, tmp_path):
        # the engineered violation of TestLeakPayload: Ker(AC|1) leaks out of Ker(BC|1)
        matrix = 0.5 * reg.projector(reg.ket("000")) + 0.5 * reg.projector(reg.ket("011"))
        path = tmp_path / "violation.json"
        reg.save_state(reg.DensityOperator(register=reg.QubitRegister(("A", "B", "C")),
                                           matrix=matrix), path)
        return str(path)

    def test_verbose_failure_reports_the_leaking_vector(self, capsys, violation_file):
        code, plain = run_json(capsys, "inclusion", violation_file)
        code_verbose, verbose = run_json(capsys, "inclusion", violation_file, "--verbose")
        assert code == code_verbose == 2
        assert set(verbose) == set(plain)
        payload = verbose["results"].pop("leaking_vector")
        assert verbose["results"] == plain["results"]
        state = reg.load_state(violation_file)
        assert payload == cli._leak_payload(markov.kernel_inclusion_check(state))
        assert payload["outcome"] == 1 and payload["leak"] == pytest.approx(1.0, abs=1e-12)

    def test_plain_failure_report_has_no_leaking_vector(self, capsys, violation_file):
        _, report = run_json(capsys, "inclusion", violation_file)
        assert "leaking_vector" not in report["results"]

    def test_verbose_pass_adds_nothing(self, capsys):
        code, plain = run_json(capsys, "inclusion", "--builtin", "W4")
        code_verbose, verbose = run_json(capsys, "inclusion", "--builtin", "W4", "--verbose")
        assert code == code_verbose == 0
        assert "leaking_vector" not in verbose["results"]
        assert verbose["results"] == plain["results"]

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "inclusion")
        assert code == 1 and "builtin" in err

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "inclusion", str(path))
        assert code == 1

    @pytest.mark.parametrize("text, message", [
        ('{"labels": ["A", "B", "C", "D"]}', "lacks 're', 'im'"),
        ("[1, 2]", "must be a JSON object, got list"),
        ('{"labels": 5, "re": [[1.0]], "im": [[0.0]]}', "'labels' must be a list, got int"),
        ('{"labels": ["A"], "dims": 2, "re": [[1.0]], "im": [[0.0]]}',
         "'dims' must be a list, got int"),
        ('{"labels": [["A"], ["B"]], "re": [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], '
         '[0, 0, 0, 0]], "im": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}',
         "'labels' must be strings, got [['A'], ['B']]"),
        ('{"labels": ["A"], "re": [[1.0]], "im": [[0.0]], "normalized": "no"}',
         "'normalized' must be true or false, got 'no'"),
        ('{"labels": ["A"], "re": {"x": 1}, "im": [[0]]}', "'re' must be a matrix of numbers"),
        ('{"labels": ["A"], "re": [["0.5", "0"], ["0", "0.5"]], "im": [[0, 0], [0, 0]]}',
         "'re' must be a matrix of numbers"),
        ('{"labels": ["A"], "re": [[0.5, 0], [0, 0.5]], "im": [[false, 0], [0, 0]]}',
         "'im' must be a matrix of numbers"),
        pytest.param('{"labels": ["A"], "re": [[1%s, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}'
                     % ("0" * 400), "'re' must be a matrix of numbers", id="int beyond float"),
        pytest.param(json.dumps({"labels": list("ABC"), "re": EIGHTH, "im": [[0]]}),
                     "'re' has shape (8, 8) but 'im' has shape (1, 1)", id="1x1 im"),
        pytest.param(json.dumps({"labels": list("ABC"), "re": EIGHTH, "im": 0}),
                     "'re' has shape (8, 8) but 'im' has shape ()", id="scalar im"),
        pytest.param(json.dumps({"labels": list("ABC"), "dims": [2, 2], "re": EIGHTH,
                                 "im": np.zeros((8, 8)).tolist()}),
                     "'dims' must have one entry per label, got 2 for 3 labels", id="short dims"),
    ])
    def test_malformed_state_is_a_usage_error(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "inclusion", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_bad_tol_is_a_usage_error(self, capsys, tol):
        code, out, err = run(capsys, "inclusion", "--builtin", "W4", "--tol", tol)
        assert code == 1 and out == ""
        assert err.startswith("error: tol must be finite and nonnegative")


class TestCertifyCommand:
    def test_ghz4_cptp_infeasible(self, capsys):
        code, report = run_json(capsys, "certify", "--builtin", "GHZ4", "--mode", "cptp")
        assert code == 2
        assert report["results"]["status"] == "INFEASIBLE"

    def test_ghz4_hptp_infinite(self, capsys):
        code, report = run_json(capsys, "certify", "--builtin", "GHZ4", "--mode", "hptp")
        assert code == 2
        assert report["results"]["nu"] == "inf"

    def test_rho2_cptp_feasible(self, capsys):
        code, report = run_json(capsys, "certify", "--builtin", "RHO2", "--mode", "cptp")
        assert code == 0
        assert report["results"]["status"] == "FEASIBLE"
        assert report["results"]["reconstruction_residual"] <= 1e-6

    def test_w4_hptp_reports_log2_3(self, capsys):
        code, report = run_json(capsys, "certify", "--builtin", "W4", "--mode", "hptp")
        assert code == 0
        assert report["results"]["nu"] == pytest.approx(math.log2(3.0), abs=2e-5)
        assert report["results"]["c1_plus_c2"] == pytest.approx(3.0, abs=1e-5)

    def test_w4_hptp_verbose_shows_the_certified_bound(self, capsys):
        _, report = run_json(capsys, "certify", "--builtin", "W4", "--mode", "hptp", "--verbose")
        results = report["results"]
        debug = results["solver_debug"]
        assert set(debug) == {"method", "lower_bound", "gap"}
        assert debug["method"] == "dual"
        assert debug["lower_bound"] <= results["c1_plus_c2"]
        assert debug["gap"] == pytest.approx(results["c1_plus_c2"] - debug["lower_bound"])

    @pytest.mark.parametrize("argv", [("certify", "--mode", "cptp"), ("inclusion",)])
    def test_non_finite_state_file_rejected(self, capsys, tmp_path, argv):
        payload = reg.state_to_dict(reg.make_state("W4"))
        payload["re"][0][0] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 1 and not out
        assert "non-finite" in err and "did not converge" not in err

    def test_solver_flags_are_echoed(self, capsys):
        code, report = run_json(
            capsys,
            "certify", "--builtin", "RHO2", "--mode", "cptp",
            "--max-iter", "2000", "--eps-feas", "1e-8",
        )
        assert report["config"]["max_iterations"] == 2000
        assert report["config"]["eps_feasible"] == 1e-8

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_max_iter_below_one_is_a_usage_error(self, capsys, count):
        code, out, err = run(capsys, "certify", "--builtin", "W4", "--mode", "hptp",
                             "--max-iter", count)
        assert code == 1 and out == ""
        assert err.startswith("error: max_iterations must be at least 1")

    @pytest.mark.parametrize("flag, value", [
        ("--eps-feas", "nan"), ("--eps-feas", "inf"), ("--eps-feas", "0"),
        ("--eps-infeasible", "inf"), ("--eps-infeasible", "nan"),
    ])
    def test_non_finite_tolerance_is_a_usage_error(self, capsys, flag, value):
        code, out, err = run(capsys, "certify", "--builtin", "GHZ4", "--mode", "cptp",
                             flag, value)
        assert code == 1 and out == ""
        assert err.startswith("error: tolerances must be finite and positive")

    def test_solver_flag_defaults_are_the_solver_config_defaults(self, capsys):
        code, report = run_json(capsys, "certify", "--builtin", "W4", "--mode", "hptp")
        assert code == 0
        assert report["config"] == conic.SolverConfig().to_dict()

    def test_config_block_holds_the_solver_tolerances_only(self, capsys):
        _, report = run_json(capsys, "certify", "--builtin", "W4", "--mode", "hptp")
        assert set(report["config"]) == {
            "eps_feasible", "eps_psd", "eps_infeasible", "max_iterations",
        }

    def test_solver_flags_say_what_they_bound(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["certify", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "cap on the interior-point Newton steps" in text
        assert "counts as recovered" in text
        assert "counts as infeasible" in text


class TestRelabeledStateFile:
    @pytest.fixture
    def w4_file(self, tmp_path):
        w4 = reg.make_state("W4")
        relabeled = reg.DensityOperator(register=reg.QubitRegister(("W", "X", "Y", "Z")),
                                        matrix=w4.matrix)
        path = tmp_path / "w4_wxyz.json"
        path.write_text(json.dumps(reg.state_to_dict(relabeled)))
        return str(path)

    def test_hptp_reports_log2_3(self, capsys, w4_file):
        code, report = run_json(capsys, "certify", w4_file, "--mode", "hptp")
        assert code == 0
        assert report["results"]["nu"] == pytest.approx(math.log2(3.0), abs=2e-5)

    def test_cptp_infeasible(self, capsys, w4_file):
        code, report = run_json(capsys, "certify", w4_file, "--mode", "cptp")
        assert code == 2
        assert report["results"]["status"] == "INFEASIBLE"


class TestSweepCommand:
    def test_comma_grid(self, capsys):
        code, report = run_json(capsys, "sweep", "--grid", "0.25,1.0")
        assert code == 0
        rows = report["results"]["rows"]
        assert [row["p"] for row in rows] == [0.25, 1.0]
        assert rows[0]["hptp"] == "INFEASIBLE" and rows[0]["nu"] == "inf"
        assert rows[1]["hptp"] == "OPTIMAL"

    def test_colon_grid_parsing(self, capsys):
        code, report = run_json(capsys, "sweep", "--grid", "0:1:5")
        assert [row["p"] for row in report["results"]["rows"]] == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_grid_validation(self, capsys):
        code, _, err = run(capsys, "sweep", "--grid", "0:2:3")
        assert code == 1 and "grid" in err

    @pytest.mark.parametrize("grid", ["2:3:1", "0:1:0", "0:1:-3", ","])
    def test_bad_grids_are_usage_errors(self, capsys, grid):
        code, out, err = run(capsys, "sweep", "--grid", grid)
        assert code == 1 and out == "" and err.startswith("error: grid")

    def test_single_point_grid(self):
        assert cli._parse_grid("0.5:1:1") == [0.5]

    def test_verbose_adds_the_deciding_routes(self, capsys):
        code, plain = run_json(capsys, "sweep", "--grid", "0,0.5,1")
        code_verbose, verbose = run_json(capsys, "sweep", "--grid", "0,0.5,1", "--verbose")
        assert code == code_verbose == 0
        assert set(verbose) == set(plain)
        routes = [(row.pop("cptp_method"), row.pop("hptp_method"))
                  for row in verbose["results"]["rows"]]
        assert verbose["results"] == plain["results"]
        # GHZ4 and MIX(0.5) fail the least squares; MIX(1) = W4 has a unique
        # extension, which the Petz map does not recover and the dual prices
        assert routes == [("least_squares", "least_squares"), ("least_squares", "least_squares"),
                          ("petz", "dual")]


class TestDemoCommand:
    def test_append_channel(self, capsys):
        code, report = run_json(capsys, "demo", "append_channel")
        assert code == 0
        assert report["results"]["factory_residual"] <= 1e-12
        assert report["results"]["solver_status"] == "FEASIBLE"

    def test_two_qubit_recovery(self, capsys):
        code, report = run_json(capsys, "demo", "two_qubit_recovery")
        assert code == 0
        results = report["results"]
        assert results["consistency"]["consistent"] is True
        traced = results["traced_blocks_on_B"]
        assert traced["Tr_CD M_11"] == [[0.25, 0.0], [0.0, 0.0]]
        assert traced["Tr_CD M_01"] == [[0.0, 0.0], [0.25, 0.0]]

    def test_nonconvexity(self, capsys, inclusion_fixture):
        code, report = run_json(capsys, "demo", "nonconvexity")
        rows = {row["lambda"]: row for row in report["results"]["rows"]}
        fixture_verdict = inclusion_fixture["cases"]["CONVEX_MIX_0.5"]["verdict"]
        assert rows[0.5]["inclusion"] == fixture_verdict
        assert code == (0 if fixture_verdict else 2)
        assert rows[0.0]["hptp"] == "OPTIMAL"
        assert rows[1.0]["hptp"] == "OPTIMAL"
        assert rows[0.5]["hptp"] == "INFEASIBLE" and rows[0.5]["nu"] == "inf"

    def test_nonconvexity_conclusion_follows_its_rows(self, capsys):
        _, default = run_json(capsys, "demo", "nonconvexity")
        assert default["results"]["conclusion"].endswith("recoverable states is non-convex")
        # loose tolerances let a channel rebuild every row, the midpoint too
        code, loose = run_json(capsys, "demo", "nonconvexity", "--eps-feas", "0.3",
                               "--eps-infeasible", "0.9")
        rows = loose["results"]["rows"]
        assert [(row["hptp"], row["nu"]) for row in rows] == [("OPTIMAL", 0.0)] * 3
        assert loose["results"]["conclusion"] == (
            "these rows do not show that the set of recoverable states is non-convex")
        # the exit code still follows the midpoint's inclusion verdict
        assert rows[1]["inclusion"] is True and code == cli.EXIT_PASS

    def test_nonconvexity_verbose_adds_the_deciding_routes(self, capsys):
        code, plain = run_json(capsys, "demo", "nonconvexity")
        code_verbose, verbose = run_json(capsys, "demo", "nonconvexity", "--verbose")
        assert code == code_verbose
        assert set(verbose) == set(plain)
        routes = [(row.pop("cptp_method"), row.pop("hptp_method"))
                  for row in verbose["results"]["rows"]]
        assert verbose["results"] == plain["results"]
        # RHO2, the midpoint, W4
        assert routes == [("petz", "petz"), ("least_squares", "least_squares"), ("petz", "dual")]

    @pytest.mark.parametrize("flag, value", [("--max-iter", "1"), ("--eps-feas", "1e-3"),
                                             ("--eps-infeasible", "1e-2")])
    def test_two_qubit_recovery_refuses_solver_flags(self, capsys, flag, value):
        code, out, err = run(capsys, "demo", "two_qubit_recovery", flag, value)
        assert code == cli.EXIT_ERROR and out == ""
        assert err.count("\n") == 1 and err.startswith("error: demo two_qubit_recovery runs no")


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", [
        (("certify", "--builtin", "W4"), "the following arguments are required: --mode"),
        (("state", "W4", "--bogus"), "unrecognized arguments: --bogus"),
        (("sweep", "--max-iter", "x"), "argument --max-iter: invalid int value: 'x'"),
    ])
    def test_exit_1_with_the_argparse_message(self, capsys, argv, message):
        # 2 would read as "infeasible"
        assert f"error: {message}" in usage_error(capsys, *argv)

    @pytest.mark.parametrize("argv", [("--version",), ("--help",), ("certify", "--help")])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as caught:
            cli.main(list(argv))
        assert caught.value.code == 0
        assert capsys.readouterr().out


class TestReportContract:
    def test_deterministic_except_timestamp(self, capsys):
        _, first = run_json(capsys, "inclusion", "--builtin", "W4")
        _, second = run_json(capsys, "inclusion", "--builtin", "W4")
        first.pop("timestamp")
        second.pop("timestamp")
        assert first == second

    def test_floats_have_full_precision(self, capsys):
        _, out, _ = run(capsys, "certify", "--builtin", "W4", "--mode", "hptp")
        # one third never prints exactly; log2(3) needs 17 significant digits
        assert "1.584962500" in out

    def test_report_shape(self, capsys):
        _, report = run_json(capsys, "inclusion", "--builtin", "GHZ4")
        assert set(report) == {"command", "inputs", "results", "config", "version", "timestamp"}
        assert report["version"] == cli.__version__

    def test_infinity_never_a_bare_float(self, capsys):
        _, out, _ = run(capsys, "certify", "--builtin", "GHZ4", "--mode", "hptp")
        assert '"inf"' in out
        assert "Infinity" not in out


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter has loaded once it has run ``code``."""
    script = code + "\nimport sys\nprint(' '.join(sys.modules))\n"
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True)
    return set(proc.stdout.splitlines()[-1].split())


def modules_after_cli(*argv) -> set[str]:
    """The modules a fresh interpreter has loaded once ``vqmc *argv`` has run."""
    return modules_after("import vqmc.cli\n"
                         "try:\n"
                         f"    vqmc.cli.main({list(argv)!r})\n"
                         "except SystemExit:\n"
                         "    pass")


class TestImportFloor:
    def test_package_import_loads_no_numpy(self):
        loaded = modules_after("import vqmc")
        assert "numpy" not in loaded
        assert not {name for name in loaded if name.startswith("vqmc.")}

    @pytest.mark.parametrize("argv", [("--version",), ("certify", "--help")])
    def test_version_and_help_load_no_numpy(self, argv):
        assert "numpy" not in modules_after_cli(*argv)

    @pytest.mark.parametrize("argv", [("state", "W4"), ("inclusion", "--builtin", "W4")])
    def test_state_and_inclusion_load_no_solver(self, argv):
        loaded = modules_after_cli(*argv)
        assert "vqmc.registers" in loaded
        assert "vqmc.conic" not in loaded

    @pytest.mark.parametrize("argv", [
        ("certify", "--builtin", "W4", "--mode", "hptp"),
        ("certify", "--builtin", "W4", "--mode", "cptp"),
        ("sweep", "--grid", "0,0.5,1"),
        ("demo", "nonconvexity"),
    ])
    def test_solver_commands_load_no_reference_route(self, argv):
        loaded = modules_after_cli(*argv)
        assert "vqmc.conic" in loaded
        assert "vqmc._reference" not in loaded

    def test_submodules_and_names_load_on_first_access(self):
        loaded = modules_after(
            "import sys, vqmc\n"
            "assert 'vqmc.conic' not in sys.modules\n"
            "assert vqmc.conic is sys.modules['vqmc.conic']\n"
            "assert vqmc.registers.make_state is vqmc.make_state\n"
            "assert 'vqmc._reference' not in sys.modules\n"
            "assert vqmc.solve is sys.modules['vqmc._reference'].solve")
        assert {"vqmc.conic", "vqmc.registers", "vqmc._reference"} <= loaded

    def test_cli_import_does_not_load_scipy(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        code = "import vqmc.cli, sys; assert 'scipy' not in sys.modules, 'scipy was imported'"
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        # nor does answering W4's overhead, which takes the dual route
        code = ("import math, sys, vqmc.cli\n"
                "from vqmc import conic, registers as reg\n"
                "w4 = reg.make_state('W4')\n"
                "result = conic.sampling_overhead(reg.partial_trace(w4, 'D'), w4)\n"
                "assert abs(result.nu - math.log2(3)) < 1e-12, result.nu\n"
                "assert 'scipy' not in sys.modules, 'scipy was imported'")
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


def run_process(*argv, cwd=None) -> subprocess.CompletedProcess:
    """``python -m vqmc.cli *argv`` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "vqmc.cli", *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True)


class TestProcessBoundary:
    @pytest.mark.parametrize("argv, code", [
        (("certify", "--builtin", "RHO2", "--mode", "cptp"), 0),
        (("certify", "--builtin", "W4"), 1),
        (("inclusion", "MISSING.json"), 1),
        (("certify", "--builtin", "GHZ4", "--mode", "cptp"), 2),
        # GHZ4's Petz residual 0.5 lies between the two tolerances
        (("certify", "--builtin", "GHZ4", "--mode", "cptp",
          "--eps-feas", "0.1", "--eps-infeasible", "0.9"), 3),
    ], ids=["pass", "usage", "io", "fail", "undetermined"])
    def test_documented_exit_codes(self, tmp_path, argv, code):
        assert run_process(*argv, cwd=tmp_path).returncode == code

    @pytest.mark.parametrize("mode, results", [
        ("cptp", {"status": conic.FEASIBLE}),
        ("hptp", {"status": conic.OPTIMAL, "nu": 0.0}),
    ])
    def test_both_modes_pass_where_a_channel_recovers(self, tmp_path, mode, results):
        # tolerances that put the Petz residual under eps_feasible and the
        # least-squares residual over eps_infeasible: a channel recovers, so nu = 0
        _, target, config = tolerance_split_case()
        path = tmp_path / "state.json"
        reg.save_state(target, path)
        proc = run_process("certify", str(path), "--mode", mode,
                           "--eps-feas", repr(config.eps_feasible),
                           "--eps-infeasible", repr(config.eps_infeasible))
        assert proc.returncode == cli.EXIT_PASS, proc.stdout + proc.stderr
        report = json.loads(proc.stdout)["results"]
        assert {key: report[key] for key in results} == results

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["Infinity", "NaN"])
    def test_non_finite_state_file_prints_one_error_line(self, tmp_path, value):
        payload = reg.state_to_dict(reg.make_state("W4"))
        payload["re"][0][0] = value
        path = tmp_path / "state.json"
        path.write_text(json.dumps(payload))
        proc = run_process("inclusion", str(path))
        assert proc.returncode == 1 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("error: ") and "non-finite" in lines[0]

    @pytest.mark.parametrize("text, message", [
        ('{"labels": %s%s, "re": [[1]], "im": [[0]]}' % ("[" * 5000, "]" * 5000),
         "nested too deeply"),
        ('{"labels": ["A"], "re": %s1%s, "im": [[0]]}' % ("[" * 900, "]" * 900),
         "'re' must be a matrix of numbers"),
    ], ids=["labels 5000 deep", "re 900 deep"])
    def test_deeply_nested_state_file_prints_one_error_line(self, tmp_path, text, message):
        path = tmp_path / "state.json"
        path.write_text(text)
        proc = run_process("inclusion", str(path))
        assert proc.returncode == 1 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "Traceback" not in proc.stderr, proc.stderr
        assert lines[0].startswith("error: ") and message in lines[0]


class TestLeakPayload:
    def test_first_leaking_vector_is_reported(self):
        # Ker(AC|1) holds |1>|1>, which leaks fully out of Ker(BC|1)
        matrix = 0.5 * reg.projector(reg.ket("000")) + 0.5 * reg.projector(reg.ket("011"))
        state = reg.DensityOperator(register=reg.QubitRegister(("A", "B", "C")), matrix=matrix)
        payload = cli._leak_payload(markov.kernel_inclusion_check(state))
        assert set(payload) == {"outcome", "re", "im", "leak"}
        assert payload["outcome"] == 1
        assert payload["leak"] == pytest.approx(1.0, abs=1e-12)
        vector = np.asarray(payload["re"]) + 1j * np.asarray(payload["im"])
        assert abs(np.linalg.norm(vector) - 1.0) <= 1e-12

    def test_nothing_to_report_when_contained(self):
        marginal = reg.partial_trace(reg.make_state("W4"), "D")
        assert cli._leak_payload(markov.kernel_inclusion_check(marginal)) is None
