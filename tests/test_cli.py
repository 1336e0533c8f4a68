"""End-to-end CLI tests driven through subprocesses.

Exit codes are the contract: 0 success/affirmative, 1 usage, 2 invalid
input, 3 negative verdict.
"""

import json

import pytest

from pentagate import parse, serialize
from pentagate.cli import main
from conftest import nested_template_circuit, run_cli, template_circuit


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

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "1e400"])
    def test_non_finite_param_invalid_input(self, value, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"qubits": 1, "gates": [{"name": "RZ", "wires": [0], "params": [%s]}]}' % value)
        assert main(["stats", "--in", str(path), "--quiet"]) == 2
        assert main(["verify", "--a", str(path), "--b", str(path), "--quiet"]) == 2
        assert capsys.readouterr().out == ""


class TestSimulationCounts:
    def test_verify_simulates_each_circuit_once(self, template_file, simulations, capsys):
        assert main(["verify", "--a", str(template_file), "--b", str(template_file), "--quiet"]) == 0
        assert len(simulations) == 2
        assert json.loads(capsys.readouterr().out)["equivalent"] is True

    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_fixed_point_transpile(self, levels, tmp_path, simulations, capsys):
        path = tmp_path / "nested.json"
        path.write_text(serialize(nested_template_circuit(levels)) + "\n")
        code = main(["transpile", "--in", str(path), "--out", str(tmp_path / "out.json"),
                     "--rule", "compress", "--fusion-gate", "CNOT", "--fixed-point", "--quiet"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["sites_found"] == levels
        assert len(simulations) == levels + 1
