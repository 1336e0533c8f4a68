"""End-to-end CLI tests driven through subprocesses.

Exit codes are the contract: 0 success/affirmative, 1 usage, 2 invalid
input, 3 negative verdict.
"""

import argparse
import importlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import pentagate.cli
from pentagate import (Circuit, GateInstance, a_gate, certify, compress, constraints,
                       describe_fusion_gate, jsonio, parse, phase_distance, refine,
                       scan_fusion_solutions, serialize, standard_gate, to_unitary, transpile)
from pentagate.certify import Witness
from pentagate.cli import _fold_negative_values, build_parser, main
from conftest import haar_unitary, nested_template_circuit, run_cli, template_circuit
from oracles import report_reference
from test_rewrite import LOOSE_TOL, NEAR_IDENTITY

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"

CNOT = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]


@pytest.fixture
def template_file(tmp_path):
    path = tmp_path / "template.json"
    path.write_text(serialize(template_circuit()) + "\n")
    return path


class TestCertifyCommand:
    def test_cnot_affirms(self):
        result = run_cli("certify", "--gate", "CNOT")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["verdict"] == "fusion"
        assert doc["residual"] < 1e-12

    def test_swap_negative_verdict(self):
        result = run_cli("certify", "--gate", "SWAP", "--quiet")
        assert result.returncode == 3
        assert json.loads(result.stdout)["verdict"] == "not_fusion"
        assert result.stderr == ""

    def test_a_gate_identity_point(self):
        result = run_cli("certify", "--gate", "A", "--params", "0,0,0", "--quiet")
        assert result.returncode == 0

    def test_matrix_file(self, tmp_path):
        path = tmp_path / "cnot.json"
        cnot = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
        path.write_text(json.dumps([[[x, 0] for x in row] for row in cnot]))
        result = run_cli("certify", "--matrix", str(path), "--quiet")
        assert result.returncode == 0

    def test_unknown_gate_invalid_input(self):
        assert run_cli("certify", "--gate", "NOPE", "--quiet").returncode == 2

    def test_one_qubit_gate_invalid_input(self):
        assert run_cli("certify", "--gate", "H", "--quiet").returncode == 2

    def test_unknown_flag_usage_error(self):
        assert run_cli("certify", "--gate", "CNOT", "--frobnicate").returncode == 1

    def test_missing_command_usage_error(self):
        assert run_cli().returncode == 1

    @pytest.mark.parametrize("flags, message", [
        ([], "one of the arguments --gate --matrix is required"),
        (["--gate", "CNOT", "--matrix", "m.json"],
         "argument --matrix: not allowed with argument --gate"),
    ], ids=["neither", "both"])
    def test_gate_flags_are_one_required_argument(self, flags, message):
        # a missing or doubled argument is a usage error, as the cli docstring says
        result = run_cli("certify", *flags)
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.endswith(f"pentagate certify: error: {message}\n")


@pytest.mark.parametrize("argv, folded", [
    (["--range", "-1:1", "--step", "1"], ["--range=-1:1", "--step", "1"]),
    (["--params", "-1,0", "--fusion-params", "-2"], ["--params=-1,0", "--fusion-params=-2"]),
    (["--range", "--step", "-1"], ["--range", "--step", "-1"]),
    (["--range", "-1", "-2"], ["--range=-1", "-2"]),
    (["--range", "--", "-1"], ["--range", "--", "-1"]),
    (["--params", "-"], ["--params=-"]),
    (["--step", "-1", "--range"], ["--step", "-1", "--range"]),
], ids=["range", "params", "flag_after_flag", "one_value_only", "double_dash", "bare_dash",
        "flag_last"])
def test_negative_values_fold_into_their_flag(argv, folded):
    assert _fold_negative_values(argv) == folded


class TestConstraintsCommand:
    def test_solution_point(self):
        result = run_cli("constraints", "--family", "a", "--params", "0,0,0", "--quiet")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["max_residual"] == 0.0
        assert doc["active_count"] == 0

    def test_phase_flipped_point(self):
        result = run_cli(
            "constraints", "--family", "heis", "--params", "0,0,-3.141592653589793", "--quiet"
        )
        assert result.returncode == 3
        assert json.loads(result.stdout)["max_residual"] == pytest.approx(2.0, abs=1e-12)


class TestScanCommand:
    def test_single_point(self):
        result = run_cli("scan", "--family", "heis", "--range", "0:0", "--step", "1", "--quiet")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert [p["parameters"] for p in doc] == [[0.0, 0.0, 0.0]]

    def test_quarter_turn_grid(self):
        result = run_cli(
            "scan", "--family", "a", "--range", "0:3.1416", "--step", "1.5708", "--quiet"
        )
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert len(doc) == 1
        assert doc[0]["operator_class"] == "identity_up_to_tolerance"

    def test_deterministic_output(self):
        args = ("scan", "--family", "a", "--range", "-3.1416:3.1416", "--step", "1.5708", "--quiet")
        first, second = run_cli(*args), run_cli(*args)
        assert first.returncode == 0
        assert json.loads(first.stdout), "negative range bound must parse and find solutions"
        assert first.stdout == second.stdout

    def test_negative_parameter_values_accepted(self):
        result = run_cli(
            "certify", "--gate", "A", "--params", "-12.566370614359172,0,0", "--quiet"
        )
        assert result.returncode == 0  # c1 = -4*pi builds the identity

    def test_summary_on_stderr(self):
        result = run_cli("scan", "--family", "a", "--range", "0:0", "--step", "1")
        assert "grid points" in result.stderr

    def test_malformed_range_usage_error(self):
        assert run_cli("scan", "--family", "a", "--range", "0-1", "--step", "1").returncode == 1
        assert run_cli("scan", "--family", "a", "--range", "0:1", "--step", "-1").returncode == 1

    def test_grid_above_the_grid_cap_usage_error(self, capsys):
        assert main(["scan", "--family", "a", "--range", "0:999", "--step", "0.001"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: grid of 997005993005997001 points exceeds the cap of 100000000 points\n"
        )

    def test_grid_too_large_usage_error(self, capsys):
        assert main(["scan", "--family", "a", "--range=-1e308:1e308", "--step", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: grid range -1e+308:1e+308 at step 1.0 has more than 100000000 points\n"
        )

    @pytest.mark.parametrize("axis_range, step, points", [
        ("0:3.1416", "1.5708", 27), ("-6.2832:6.2832", "0.3927", 35937)])
    def test_summary_counts_the_cube(self, capsys, axis_range, step, points):
        assert main(["scan", "--family", "a", f"--range={axis_range}", "--step", step]) == 0
        assert capsys.readouterr().err.startswith(f"scanned {points} grid points in ")


class TestTranspileCommand:
    def test_pipeline_certify_compress_verify(self, template_file, tmp_path):
        out = tmp_path / "compressed.json"
        assert run_cli("certify", "--gate", "CNOT", "--quiet").returncode == 0
        result = run_cli(
            "transpile", "--in", str(template_file), "--out", str(out),
            "--rule", "compress", "--fusion-gate", "CNOT", "--quiet",
        )
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["gate_count_before"] == 5
        assert report["gate_count_after"] == 2
        assert report["depth_before"] == 5
        assert report["depth_after"] == 2
        assert report["equivalence_verified"] is True
        verify = run_cli("verify", "--a", str(template_file), "--b", str(out), "--quiet")
        assert verify.returncode == 0

    def test_expand_restores_template(self, template_file, tmp_path):
        compressed = tmp_path / "c.json"
        restored = tmp_path / "r.json"
        run_cli("transpile", "--in", str(template_file), "--out", str(compressed),
                "--rule", "compress", "--fusion-gate", "CNOT", "--quiet")
        result = run_cli("transpile", "--in", str(compressed), "--out", str(restored),
                         "--rule", "expand", "--fusion-gate", "CNOT", "--quiet")
        assert result.returncode == 0
        assert restored.read_text() == template_file.read_text()

    def test_uncertified_gate_writes_nothing(self, template_file, tmp_path):
        out = tmp_path / "never.json"
        result = run_cli(
            "transpile", "--in", str(template_file), "--out", str(out),
            "--rule", "compress", "--fusion-gate", "SWAP", "--quiet",
        )
        assert result.returncode == 2
        assert not out.exists()

    def test_fusion_gate_is_built_by_the_library_alone(self, template_file, tmp_path,
                                                       monkeypatch, capsys):
        monkeypatch.setattr(pentagate.cli, "gate_matrix", None)  # a CLI-side build fails
        assert main(["transpile", "--in", str(template_file), "--out", str(tmp_path / "o.json"),
                     "--rule", "compress", "--fusion-gate", "CNOT", "--quiet"]) == 0
        assert json.loads(capsys.readouterr().out)["gate_count_after"] == 2

    def test_zero_sites_still_succeeds(self, tmp_path):
        path = tmp_path / "plain.json"
        path.write_text('{"qubits": 2, "gates": [{"name": "H", "wires": [0]}]}')
        out = tmp_path / "out.json"
        result = run_cli("transpile", "--in", str(path), "--out", str(out),
                         "--rule", "compress", "--fusion-gate", "CNOT", "--quiet")
        assert result.returncode == 0
        assert json.loads(result.stdout)["sites_found"] == 0
        assert out.exists()

    def test_fixed_point_compresses_chain(self, tmp_path):
        # expansion at fixed point terminates after one productive pass
        pair = tmp_path / "pair.json"
        pair.write_text(
            '{"qubits": 3, "gates": [{"name": "CNOT", "wires": [0, 1]}, '
            '{"name": "CNOT", "wires": [1, 2]}]}'
        )
        out = tmp_path / "expanded.json"
        result = run_cli("transpile", "--in", str(pair), "--out", str(out),
                         "--rule", "expand", "--fusion-gate", "CNOT",
                         "--fixed-point", "--quiet")
        assert result.returncode == 0
        assert json.loads(result.stdout)["gate_count_after"] == 5

    def test_verification_failure_exit_three(self, tmp_path):
        # A(pi/2,0,0) has pentagon residual 2.1648, so at tol 2.2 it is
        # certified, yet two rewritten sites accumulate phase distance 4.0
        # and unitary verification fails; nothing may be written
        from pentagate import Circuit
        from conftest import template_gates

        half_pi = "1.5707963267948966,0,0"
        gates = template_gates("A", (1.5707963267948966, 0.0, 0.0), (0, 1, 2))
        double = Circuit(3, tuple(gates + gates))
        path = tmp_path / "double_template.json"
        path.write_text(serialize(double) + "\n")
        out = tmp_path / "never.json"
        result = run_cli("transpile", "--in", str(path), "--out", str(out),
                         "--rule", "compress", "--fusion-gate", "A",
                         "--fusion-params", half_pi, "--tol", "2.2", "--quiet")
        assert result.returncode == 3
        assert not out.exists()

    def test_drift_over_fixed_point_passes_exit_three(self, tmp_path, capsys):
        # each of the 3 passes alone stays within tolerance; all three do not
        path = tmp_path / "nested.json"
        path.write_text(serialize(nested_template_circuit(3, "A", NEAR_IDENTITY)) + "\n")
        out = tmp_path / "never.json"
        code = main(["transpile", "--in", str(path), "--out", str(out), "--rule", "compress",
                     "--fixed-point", "--fusion-gate", "A",
                     "--fusion-params", ",".join(map(str, NEAR_IDENTITY)), "--tol", str(LOOSE_TOL)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: rewrite is not equivalent to the input (phase distance 0.044721")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_invalid_circuit_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"qubits": 2}')
        out = tmp_path / "out.json"
        result = run_cli("transpile", "--in", str(bad), "--out", str(out),
                         "--rule", "compress", "--fusion-gate", "CNOT", "--quiet")
        assert result.returncode == 2
        assert not out.exists()


class TestVerifyRouteStats:
    def test_verify_self(self, template_file):
        assert run_cli("verify", "--a", str(template_file), "--b", str(template_file),
                       "--quiet").returncode == 0

    def test_verify_inequivalent(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('{"qubits": 2, "gates": [{"name": "CNOT", "wires": [0, 1]}]}')
        b.write_text('{"qubits": 2, "gates": [{"name": "CNOT", "wires": [1, 0]}]}')
        result = run_cli("verify", "--a", str(a), "--b", str(b), "--quiet")
        assert result.returncode == 3
        assert json.loads(result.stdout)["equivalent"] is False

    def test_verify_register_mismatch_invalid(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('{"qubits": 2, "gates": []}')
        b.write_text('{"qubits": 3, "gates": []}')
        assert run_cli("verify", "--a", str(a), "--b", str(b), "--quiet").returncode == 2

    def test_verify_register_mismatch_message(self, tmp_path, simulations, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('{"qubits": 2, "gates": [{"name": "CNOT", "wires": [0, 1]}]}')
        b.write_text('{"qubits": 3, "gates": [{"name": "CNOT", "wires": [1, 2]}]}')
        assert main(["verify", "--a", str(a), "--b", str(b)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: register mismatch: 2 vs 3 qubits\n"
        assert simulations == []

    def test_stats_on_template(self, template_file):
        result = run_cli("stats", "--in", str(template_file))
        assert result.returncode == 0
        assert json.loads(result.stdout) == {
            "gate_count": 5, "depth": 5, "two_qubit_count": 5, "nonlocal_count": 0,
        }

    def test_route_removes_nonlocal(self, tmp_path):
        path = tmp_path / "nl.json"
        path.write_text(
            '{"qubits": 3, "gates": [{"name": "XX", "wires": [0, 2], "params": [0.5]}]}'
        )
        out = tmp_path / "routed.json"
        result = run_cli("route", "--in", str(path), "--out", str(out), "--quiet")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["nonlocal_count"] == 0
        assert doc["swaps_added"] == 2
        routed = parse(out.read_text())
        assert [g.name for g in routed.gates] == ["SWAP", "XX", "SWAP"]

    def test_missing_file_invalid_input(self, tmp_path):
        assert run_cli("stats", "--in", str(tmp_path / "absent.json"),
                       "--quiet").returncode == 2

    @pytest.mark.parametrize("command", [["stats"], ["route", "--out", "routed.json"]],
                             ids=["stats", "route"])
    def test_commands_that_compare_nothing_take_no_tol(self, template_file, command, tmp_path,
                                                        monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exited:
            main([command[0], "--in", str(template_file), *command[1:], "--tol", "1e-3"])
        assert exited.value.code == 1
        assert "unrecognized arguments: --tol 1e-3" in capsys.readouterr().err
        assert not (tmp_path / "routed.json").exists()


class TestRoundTripStability:
    def test_cli_written_file_reparses_identically(self, template_file, tmp_path):
        out1 = tmp_path / "one.json"
        out2 = tmp_path / "two.json"
        run_cli("route", "--in", str(template_file), "--out", str(out1), "--quiet")
        run_cli("route", "--in", str(out1), "--out", str(out2), "--quiet")
        assert out1.read_text() == out2.read_text()


class TestInputBoundary:
    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf", "-inf", "abc"])
    def test_bad_tolerance_usage_error(self, tol, capsys):
        with pytest.raises(SystemExit) as err:
            main(["certify", "--gate", "CNOT", "--tol", tol])
        assert err.value.code == 1
        assert capsys.readouterr().out == ""

    def test_bad_tolerance_subprocess(self):
        result = run_cli("certify", "--gate", "CNOT", "--tol", "-1")
        assert result.returncode == 1
        assert result.stdout == ""

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "1e400",
                                       pytest.param("1" + "0" * 400, id="huge_integer")])
    def test_non_finite_param_invalid_input(self, value, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"qubits": 1, "gates": [{"name": "RZ", "wires": [0], "params": [%s]}]}' % value)
        assert main(["stats", "--in", str(path), "--quiet"]) == 2
        assert main(["verify", "--a", str(path), "--b", str(path), "--quiet"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv, message", [
        (["certify", "--gate", "A", "--params=nan,0,0"],
         "gate 'A' parameters[0]: expected a finite number, got nan"),
        (["certify", "--gate", "HEIS", "--params=0,inf,0"],
         "gate 'HEIS' parameters[1]: expected a finite number, got inf"),
        (["constraints", "--family", "a", "--params=nan,0,0"],
         "parameters[0]: expected a finite number, got nan"),
        (["constraints", "--family", "heis", "--params=0,0,-inf"],
         "parameters[2]: expected a finite number, got -inf"),
        # the fusion gate is checked by GateInstance alone
        (["transpile", "--in", "empty.json", "--out", "out.json", "--rule", "compress",
          "--fusion-gate", "A", "--fusion-params=inf,0,0"],
         "params[0]: expected a finite number"),
    ], ids=["certify_a", "certify_heis", "constraints_a", "constraints_heis", "transpile"])
    def test_non_finite_gate_parameters_invalid_input(self, argv, message, tmp_path, monkeypatch,
                                                      capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty.json").write_text('{"qubits": 3, "gates": []}')
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert not (tmp_path / "out.json").exists()


    @pytest.mark.parametrize("circuit", [Circuit(3, ()), template_circuit()], ids=["no_site", "site"])
    def test_fusion_gate_outside_the_schema_invalid_input(self, circuit, tmp_path, monkeypatch, capsys):
        # unitary within the certification tolerance 1e-6, not within the
        # 1e-10 a custom gate in a circuit must meet
        monkeypatch.chdir(tmp_path)
        nearly = [[[x * (1 + 5e-11), 0] for x in row] for row in CNOT]
        (tmp_path / "f.json").write_text(json.dumps(nearly))
        (tmp_path / "c.json").write_text(serialize(circuit))
        assert main(["transpile", "--in", "c.json", "--out", "out.json", "--rule", "compress",
                     "--tol", "1e-6", "--fusion-gate", "@f.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: fusion gate 'custom': matrix: not unitary within 1e-10\n"
        assert not (tmp_path / "out.json").exists()
        assert main(["certify", "--matrix", "f.json", "--tol", "1e-6", "--quiet"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "fusion"

    @pytest.mark.parametrize("argv, code, message", [
        (["certify", "--gate", "A", "--params", "x" * 10**5], 2,
         "error: cannot parse parameter list a str of length 100000"),
        (["scan", "--family", "a", "--step", "1", "--range", "x" * 10**5], 1,
         "range must look like lo:hi, got a str of length 100000"),
        (["scan", "--family", "a", "--step", "1", "--range", "x" * 10**5 + ":1"], 1,
         "range bounds must be numbers, got a str of length 100002"),
    ], ids=["params", "range", "range_bounds"])
    def test_long_flag_text_is_named_by_its_size(self, argv, code, message, capsys):
        try:
            assert main(argv) == code
        except SystemExit as exc:  # argparse refuses a bad --range
            assert exc.code == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert max(len(line) for line in captured.err.splitlines()) <= 600


class TestMatrixFiles:
    """Matrix files follow the circuit schema's rules for custom matrices."""

    @pytest.mark.parametrize("text, message", [
        ("[[[1, 0], [0, 0, 99]], [[0, 0], [1, 0]]]", r"m\.json\[0\]\[1\]: expected an \[re, im\] pair"),
        ("[[[true, false], [false, false]], [[false, false], [true, false]]]",
         r"m\.json\[0\]\[0\]\[0\]: expected a number, got True"),
        ("[[[1, 0], [0, 0]], [[0, 0]]]", r"m\.json: matrix must be square"),
    ], ids=["triple", "booleans", "ragged"])
    @pytest.mark.parametrize("flags", [
        ["certify", "--matrix", "m.json"],
        ["certify", "--gate", "@m.json"],
        ["transpile", "--in", "c.json", "--out", "out.json", "--rule", "compress",
         "--fusion-gate", "@m.json"],
    ], ids=["matrix", "gate", "fusion_gate"])
    def test_malformed_matrix_invalid_input(self, flags, text, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m.json").write_text(text)
        (tmp_path / "c.json").write_text(serialize(template_circuit()))
        assert main(flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search(message, captured.err)
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("matrix", [np.eye(64), np.ones((9, 9))], ids=["eye64", "ones9"])
    @pytest.mark.parametrize("flags", [
        ["certify", "--matrix", "m.json"],
        ["certify", "--gate", "@m.json"],
        ["transpile", "--in", "c.json", "--out", "out.json", "--rule", "compress",
         "--fusion-gate", "@m.json"],
    ], ids=["matrix", "gate", "fusion_gate"])
    def test_wrong_size_matrix_refused_before_unitarity(self, flags, matrix, tmp_path,
                                                        monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for module in ("pentagate.certify", "pentagate.circuit"):
            monkeypatch.setattr(importlib.import_module(module), "is_unitary", None)
        rows = [[[x, 0.0] for x in row] for row in matrix.tolist()]
        (tmp_path / "m.json").write_text(json.dumps(rows))
        (tmp_path / "c.json").write_text(serialize(template_circuit()))
        assert main(flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        size = len(matrix)
        if flags[0] == "transpile":  # GateInstance checks the fusion gate's shape
            assert captured.err == (
                f"error: fusion gate 'custom': matrix: expected 4x4 for 2 wires, got {size}x{size}\n"
            )
        else:  # certify's index-map check applies the shape rule
            assert captured.err == (
                f"error: operator of shape ({size}, {size}) does not act on 2 wires of dimension 2\n"
            )
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("flags, matrix", [
        (["certify", "--gate", "@m.json", "--params", "1,2,3"], "haar_4x4.json"),
        (["certify", "--matrix", "m.json", "--params", "1"], "custom_fusion.json"),
        (["transpile", "--in", "c.json", "--out", "out.json", "--rule", "compress",
          "--fusion-gate", "@m.json", "--fusion-params", "1"], "custom_fusion.json"),
    ], ids=["gate", "matrix", "fusion_gate"])
    def test_parameters_with_a_matrix_gate_invalid_input(self, flags, matrix, tmp_path,
                                                         monkeypatch, capsys):
        # a matrix gate has no parameters to give; they are refused, not dropped
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m.json").write_text((GOLDEN_INPUTS / matrix).read_text())
        (tmp_path / "c.json").write_text(serialize(template_circuit()))
        assert main(flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a matrix gate takes no parameters\n"
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("flags", [["stats", "--in", "deep.json"],
                                       ["certify", "--matrix", "deep.json"]],
                             ids=["stats", "matrix"])
    def test_runaway_nesting_invalid_input(self, flags, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "deep.json").write_text("[" * 200_000)
        assert main(flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "nested too deeply" in captured.err

    def test_overlong_integer_invalid_input(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "long.json").write_text(
            '{"qubits": 1, "gates": [{"name": "RZ", "wires": [0], "params": [%s]}]}' % ("1" * 5001)
        )
        assert main(["stats", "--in", "long.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "integer literal longer than" in captured.err


class TestSimulationCounts:
    def test_verify_of_equal_circuits_simulates_nothing(self, template_file, simulations, capsys):
        # the gate-list walk proves the two unitaries equal
        assert main(["verify", "--a", str(template_file), "--b", str(template_file), "--quiet"]) == 0
        assert simulations == []
        assert json.loads(capsys.readouterr().out)["phase_distance"] == 0.0

    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_fixed_point_transpile(self, levels, tmp_path, simulations, capsys):
        path = tmp_path / "nested.json"
        path.write_text(serialize(nested_template_circuit(levels)) + "\n")
        code = main(["transpile", "--in", str(path), "--out", str(tmp_path / "out.json"),
                     "--rule", "compress", "--fusion-gate", "CNOT", "--fixed-point", "--quiet"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["sites_found"] == levels
        # CNOT rewrites change permutation gates alone: the output is proven equal to the input
        assert simulations == []

    def test_verify_of_a_permuted_rewrite_simulates_both(self, tmp_path, simulations, capsys):
        # the compressed circuit with X(0) appended differs from the input by
        # permutation gates alone, but they do not cancel
        a = parse((GOLDEN_INPUTS / "cnot_exact_5q.json").read_text(encoding="utf-8"))
        out = compress(a, describe_fusion_gate("CNOT"), verify=False)[0]
        b = Circuit(a.num_qubits, out.gates + (GateInstance("X", (0,)),))
        path = tmp_path / "permuted.json"
        path.write_text(serialize(b) + "\n")
        distance = phase_distance(to_unitary(a), to_unitary(b))
        del simulations[:]
        code = main(["verify", "--a", str(GOLDEN_INPUTS / "cnot_exact_5q.json"), "--b", str(path), "--quiet"])
        assert code == 3
        assert capsys.readouterr().out == jsonio.dumps(
            {"equivalent": False, "phase_distance": distance, "tolerance": 1e-10}) + "\n"
        assert [serialize(c) for c in simulations] == [serialize(a), serialize(b)]


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of one ``main`` call; SystemExit gives its code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _alone(argv, capsys):
    """The outcome of ``argv`` as the first command of a process."""
    build_parser.cache_clear()
    return _outcome(argv, capsys)


CERTIFY_CNOT = ["certify", "--gate", "CNOT"]


class TestParserReuse:
    """``main`` builds its parser once; a call leaves nothing for the next."""

    @pytest.mark.parametrize("first", [
        ["certify", "--gate", "CNOT", "--frobnicate"],
        ["--help"],
        ["certify", "--help"],
        ["certify", "--gate", "CNOT", "--tol", "1e-3"],
        ["certify", "--gate", "CNOT", "--quiet"],
        ["scan", "--family", "a", "--range", "0:0", "--step", "1"],
    ], ids=["usage_error", "help", "command_help", "tol", "quiet", "scan"])
    def test_later_call_as_if_alone(self, first, capsys):
        alone = _alone(CERTIFY_CNOT, capsys)
        assert alone[0] == 0 and '"tolerance": 1e-10' in alone[1]
        assert alone[2] == "verdict: fusion (residual 0)\n"
        build_parser.cache_clear()
        _outcome(first, capsys)
        assert _outcome(CERTIFY_CNOT, capsys) == alone

    def test_usage_error_then_help_output(self, capsys):
        alone = _alone(["--help"], capsys)
        assert alone[0] == 0 and alone[1].startswith("usage: pentagate")
        assert _outcome(["certify", "--frobnicate"], capsys)[0] == 1
        assert _outcome(["--help"], capsys) == alone

    def test_scan_and_constraints_keep_their_own_tolerance(self, monkeypatch, capsys):
        seen = []
        scan = pentagate.cli.scan_fusion_solutions
        monkeypatch.setattr(pentagate.cli, "scan_fusion_solutions",
                            lambda family, grid, tol: seen.append(tol) or scan(family, grid, tol))
        scan_argv = ["scan", "--family", "a", "--range", "0:0", "--step", "1", "--quiet"]
        constraints_argv = ["constraints", "--family", "a", "--params", "0,0,0", "--quiet"]
        alone = _alone(constraints_argv, capsys)
        assert _outcome(scan_argv, capsys)[0] == 0
        assert _outcome(constraints_argv, capsys) == alone
        assert json.loads(alone[1])["tolerance"] == 1e-10
        assert _outcome(scan_argv, capsys)[0] == 0
        assert seen == [1e-9, 1e-9]

    def test_second_call_adds_no_arguments(self, monkeypatch, capsys):
        calls = []
        add_argument = argparse.ArgumentParser.add_argument
        monkeypatch.setattr(argparse.ArgumentParser, "add_argument",
                            lambda self, *a, **k: calls.append(a) or add_argument(self, *a, **k))
        build_parser.cache_clear()
        assert main(CERTIFY_CNOT + ["--quiet"]) == 0
        built = len(calls)
        assert built > 0
        assert main(["constraints", "--family", "a", "--params", "0,0,0", "--quiet"]) == 0
        assert len(calls) == built


@dataclass(frozen=True)
class _ArrayHolder:
    values: np.ndarray


class TestJsonio:
    def test_report_types(self):
        doc = {"a": (1, -0.5, None, True, "x"), "b": [np.float64(0.25), []], 3: {}}
        assert jsonio.dumps(doc) == '{"a": [1, -0.5, null, true, "x"], "b": [0.25, []], "3": {}}'

    @pytest.mark.parametrize("value, text", [
        (1j, "[0, 1]"),
        (Witness(1, 2, 0.5 - 1j, np.complex128(2.0)),
         '{"row": 1, "col": 2, "lhs": [0.5, -1], "rhs": [2, 0]}'),
    ], ids=["complex", "witness"])
    def test_accepted_layouts(self, value, text):
        # a complex number is its [re, im] pair; a dataclass without a
        # to_jsonable method is the dict of its fields in declaration order
        assert jsonio.dumps(value) == text

    @pytest.mark.parametrize("value", [complex(math.nan, 0.0), complex(0.0, math.inf)],
                             ids=["nan-real", "inf-imag"])
    def test_non_finite_complex_is_refused(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            jsonio.dumps(value)

    @pytest.mark.parametrize("value", [np.int64(1), np.zeros(2), [np.float32(1.0)],
                                       _ArrayHolder(np.zeros(2)), Witness],
                             ids=["numpy-int", "array", "numpy-float32",
                                  "dataclass-with-array", "dataclass-class"])
    def test_other_types_are_refused(self, value):
        with pytest.raises(TypeError, match="cannot emit"):
            jsonio.dumps(value)


#: One report of every kind the CLI prints, both outcomes where a kind has
#: two: label -> a call that returns the report.
REPORTS = {
    "certify-SWAP": lambda: certify(standard_gate("SWAP"), 2, 1e-10, name="SWAP"),
    "certify-CNOT": lambda: certify(standard_gate("CNOT"), 2, 1e-10, name="CNOT"),
    "certify-A": lambda: certify(a_gate(0.3, -1.2, 2.5), 2, 1e-10, name="A",
                                 params=(0.3, -1.2, 2.5)),
    "certify-haar-d3": lambda: certify(haar_unitary(9, np.random.default_rng(31)), 3, 1e-10),
    "constraints-a": lambda: constraints("a", (0.1, -0.2, 0.3), 1e-10),
    "constraints-heis": lambda: constraints("heis", (math.pi / 8, 0.0, -2.0), 1e-10),
    "scan-a-default": lambda: scan_fusion_solutions("a", (-6.2832, 6.2832, 0.3927), 1e-9),
    "scan-heis-pi/8": lambda: scan_fusion_solutions("heis", (-math.pi, math.pi, math.pi / 8), 1e-9),
    "refine-converged": lambda: refine((1e-3, -1e-3, 1e-3), "a", tol=1e-10),
    "refine-not-converged": lambda: refine((1.0, 2.0, 0.5), "heis", max_iters=5, tol=1e-10),
    "transpile-verified": lambda: transpile(template_circuit(), describe_fusion_gate("CNOT"),
                                            "compress")[1],
    "transpile-no-verify": lambda: transpile(template_circuit(), describe_fusion_gate("CNOT"),
                                             "compress", verify=False)[1],
}


@pytest.mark.parametrize("label", list(REPORTS))
def test_reports_keep_their_layout(label):
    # jsonio.dumps writes a report from its fields and its to_jsonable
    # method; the bytes must be those of the hand-written layout
    report = REPORTS[label]()
    assert jsonio.dumps(report) == jsonio.dumps(report_reference(report))
