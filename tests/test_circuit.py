"""Tests for the circuit representation, JSON schema, simulation, and routing."""

import json
import math

import numpy as np
import pytest

from pentagate import (
    Circuit,
    DimensionError,
    GateInstance,
    SchemaError,
    circuit_stats,
    circuits_identical,
    depth,
    embed,
    equivalent_up_to_phase,
    frobenius_norm,
    parse,
    resolved_matrix,
    route_line,
    serialize,
    to_unitary,
)
from conftest import haar_unitary, random_circuit, template_circuit

PI = math.pi


class TestParse:
    def test_minimal_circuit(self):
        c = parse('{"qubits":2,"gates":[{"name":"CNOT","wires":[0,1]}]}')
        assert c.num_qubits == 2
        assert len(c.gates) == 1
        assert c.gates[0].name == "CNOT"

    def test_parametrized_gate(self):
        c = parse('{"qubits":2,"gates":[{"name":"A","wires":[0,1],"params":[0.1,0.2,0.3]}]}')
        assert c.gates[0].params == (0.1, 0.2, 0.3)

    def test_custom_gate(self):
        text = json.dumps({
            "qubits": 1,
            "gates": [{"name": "custom", "wires": [0],
                       "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}],
        })
        c = parse(text)
        assert np.array_equal(c.gates[0].matrix, np.array([[0, 1], [1, 0]], dtype=complex))

    def test_invalid_json_reports_line(self):
        with pytest.raises(SchemaError, match="line 1"):
            parse('{"qubits": 2,,}')

    def test_unknown_gate_name(self):
        with pytest.raises(SchemaError, match=r"gates\[0\].name"):
            parse('{"qubits":2,"gates":[{"name":"CZ","wires":[0,1]}]}')

    def test_wire_out_of_range(self):
        with pytest.raises(SchemaError, match=r"gates\[0\].wires"):
            parse('{"qubits":2,"gates":[{"name":"CNOT","wires":[0,2]}]}')

    def test_duplicate_wires(self):
        with pytest.raises(SchemaError, match="duplicate"):
            parse('{"qubits":2,"gates":[{"name":"CNOT","wires":[1,1]}]}')

    def test_wrong_parameter_count(self):
        with pytest.raises(SchemaError, match=r"gates\[0\].params"):
            parse('{"qubits":2,"gates":[{"name":"RZ","wires":[0]}]}')

    def test_matrix_on_named_gate_rejected(self):
        with pytest.raises(SchemaError, match="matrix"):
            parse('{"qubits":1,"gates":[{"name":"X","wires":[0],"matrix":[[[1,0]]]}]}')

    def test_non_unitary_custom_matrix_rejected(self):
        text = json.dumps({
            "qubits": 1,
            "gates": [{"name": "custom", "wires": [0],
                       "matrix": [[[2, 0], [0, 0]], [[0, 0], [2, 0]]]}],
        })
        with pytest.raises(SchemaError, match="unitary"):
            parse(text)

    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaError, match="unknown field"):
            parse('{"qubits":1,"gates":[],"comment":"hi"}')

    def test_register_cap(self):
        with pytest.raises(SchemaError, match="cap"):
            parse('{"qubits":13,"gates":[]}')

    def test_zero_qubits_rejected(self):
        with pytest.raises(SchemaError):
            parse('{"qubits":0,"gates":[]}')


class TestSerialize:
    def test_round_trip_small(self):
        text = '{"qubits": 2, "gates": [{"name": "CNOT", "wires": [0, 1]}]}'
        assert serialize(parse(text)) == text

    def test_round_trip_byte_stable_fifty_gates(self, rng):
        c = random_circuit(rng, 4, 50)
        first = serialize(c)
        second = serialize(parse(first))
        assert first == second

    def test_seventeen_digit_floats_round_trip(self):
        c = Circuit(1, (GateInstance("RZ", (0,), (1.0 / 3.0,)),))
        restored = parse(serialize(c))
        assert restored.gates[0].params[0] == 1.0 / 3.0

    def test_custom_matrix_round_trip(self, rng):
        phase = np.exp(1j * PI / 7) * np.eye(2, dtype=complex)
        c = Circuit(2, (GateInstance("custom", (0,), (), phase),))
        restored = parse(serialize(c))
        assert np.array_equal(restored.gates[0].matrix, c.gates[0].matrix)

    def test_deterministic_bytes(self, rng):
        c = random_circuit(rng, 3, 20)
        assert serialize(c) == serialize(Circuit(c.num_qubits, tuple(c.gates)))


def dense_product(circuit: Circuit) -> np.ndarray:
    """Reference simulator: one embedded 2**n x 2**n matrix per gate."""
    n = circuit.num_qubits
    u = np.eye(2**n, dtype=complex)
    for gate in circuit.gates:
        u = embed(resolved_matrix(gate), gate.wires, n) @ u
    return u


class TestNonFiniteRejected:
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
    def test_parse_rejects_non_finite_param(self, value):
        text = '{"qubits": 1, "gates": [{"name": "RZ", "wires": [0], "params": [%s]}]}' % value
        with pytest.raises(SchemaError, match=r"gates\[0\]\.params\[0\]"):
            parse(text)

    @pytest.mark.parametrize("entry", ["[NaN, 0]", "[1, Infinity]", "[1e400, 0]"])
    def test_parse_rejects_non_finite_matrix_entry(self, entry):
        text = (
            '{"qubits": 1, "gates": [{"name": "custom", "wires": [0], '
            '"matrix": [[%s, [0, 0]], [[0, 0], [1, 0]]]}]}' % entry
        )
        with pytest.raises(SchemaError, match=r"gates\[0\]\.matrix"):
            parse(text)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_gate_instance_rejects_non_finite_param(self, value):
        with pytest.raises(SchemaError):
            GateInstance("RZ", (0,), (value,))
        with pytest.raises(SchemaError):
            GateInstance("A", (0, 1), (0.1, value, 0.3))

    def test_gate_instance_rejects_non_finite_matrix(self):
        matrix = np.eye(2, dtype=complex)
        matrix[1, 0] = complex(0.0, math.nan)
        with pytest.raises(SchemaError):
            GateInstance("custom", (0,), (), matrix)


class TestToUnitary:
    def test_empty_circuit(self):
        for n in range(1, 7):
            assert np.array_equal(to_unitary(Circuit(n, ())), np.eye(2**n, dtype=complex))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_dense_embed_product(self, rng, n):
        for _ in range(5):
            if n == 1:
                gates = [GateInstance("custom", (0,), (), haar_unitary(2, rng)) for _ in range(6)]
                c = Circuit(1, tuple(gates))
            else:
                c = random_circuit(rng, n, 25)
            assert np.max(np.abs(to_unitary(c) - dense_product(c))) < 1e-12

    def test_reversed_and_scattered_wire_order(self, rng):
        gates = (
            GateInstance("CNOT", (3, 0)),
            GateInstance("custom", (4, 1), (), haar_unitary(4, rng)),
            GateInstance("A", (2, 1), (0.3, -1.1, 2.0)),
            GateInstance("custom", (0, 4), (), haar_unitary(4, rng)),
        )
        c = Circuit(5, gates)
        assert np.max(np.abs(to_unitary(c) - dense_product(c))) < 1e-12

    def test_three_qubit_custom_gates(self, rng):
        for n in (3, 4, 6):
            for wires in ((0, 1, 2), (2, 0, 1), (n - 1, 0, n // 2)):
                gates = (
                    GateInstance("custom", wires, (), haar_unitary(8, rng)),
                    GateInstance("H", (wires[1],)),
                    GateInstance("custom", tuple(reversed(wires)), (), haar_unitary(8, rng)),
                )
                c = Circuit(n, gates)
                assert np.max(np.abs(to_unitary(c) - dense_product(c))) < 1e-12

    def test_cnot_twice_is_identity(self):
        g = GateInstance("CNOT", (0, 1))
        assert np.array_equal(to_unitary(Circuit(2, (g, g))), np.eye(4, dtype=complex))

    def test_template_equals_two_gate_form(self):
        lhs = template_circuit("CNOT", (), (0, 1, 2))
        rhs = Circuit(3, (GateInstance("CNOT", (0, 1)), GateInstance("CNOT", (1, 2))))
        assert frobenius_norm(to_unitary(lhs) - to_unitary(rhs)) == 0.0

    def test_unitary_for_random_circuits(self, rng):
        from pentagate import is_unitary

        for _ in range(20):
            c = random_circuit(rng, int(rng.integers(2, 5)), int(rng.integers(1, 12)))
            assert is_unitary(to_unitary(c), 1e-10)

    def test_execution_order_is_first_gate_first(self):
        # X then CNOT(0,1): |00> -> |10> -> |11>
        c = Circuit(2, (GateInstance("X", (0,)), GateInstance("CNOT", (0, 1))))
        state = to_unitary(c)[:, 0]
        assert state[3] == pytest.approx(1.0)


class TestEquivalence:
    def test_self_equivalent(self, rng):
        c = random_circuit(rng, 3, 8)
        assert equivalent_up_to_phase(c, c, 1e-10)

    def test_global_phase_gate_ignored(self):
        base = Circuit(2, (GateInstance("CNOT", (0, 1)),))
        phase = np.exp(1j * PI / 7) * np.eye(2, dtype=complex)
        phased = Circuit(2, base.gates + (GateInstance("custom", (0,), (), phase),))
        assert equivalent_up_to_phase(base, phased, 1e-10)

    def test_reversed_cnot_not_equivalent(self):
        a = Circuit(2, (GateInstance("CNOT", (0, 1)),))
        b = Circuit(2, (GateInstance("CNOT", (1, 0)),))
        assert not equivalent_up_to_phase(a, b, 1e-10)

    def test_register_mismatch(self):
        with pytest.raises(DimensionError):
            equivalent_up_to_phase(Circuit(2, ()), Circuit(3, ()), 1e-10)


class TestDepth:
    def test_empty(self):
        assert depth(Circuit(3, ())) == 0

    def test_parallel_gates_share_a_layer(self):
        c = Circuit(4, (GateInstance("CNOT", (0, 1)), GateInstance("CNOT", (2, 3))))
        assert depth(c) == 1

    def test_template_depth_five_versus_two(self):
        assert depth(template_circuit()) == 5
        rhs = Circuit(3, (GateInstance("CNOT", (0, 1)), GateInstance("CNOT", (1, 2))))
        assert depth(rhs) == 2

    def test_asap_packing(self):
        c = Circuit(
            3,
            (
                GateInstance("H", (0,)),
                GateInstance("H", (1,)),
                GateInstance("CNOT", (0, 1)),
                GateInstance("H", (2,)),
            ),
        )
        assert depth(c) == 2


class TestRouteLine:
    def test_local_circuit_unchanged(self):
        c = Circuit(3, (GateInstance("CNOT", (0, 1)), GateInstance("H", (2,))))
        assert circuits_identical(route_line(c), c)

    def test_distance_two_gate_expansion(self):
        c = Circuit(3, (GateInstance("A", (0, 2), (0.1, 0.2, 0.3)),))
        routed = route_line(c)
        assert [(g.name, g.wires) for g in routed.gates] == [
            ("SWAP", (1, 2)),
            ("A", (0, 1)),
            ("SWAP", (1, 2)),
        ]
        assert equivalent_up_to_phase(c, routed, 1e-12)

    def test_descending_wire_pair(self):
        c = Circuit(5, (GateInstance("CNOT", (4, 1)),))
        routed = route_line(c)
        assert [(g.name, g.wires) for g in routed.gates] == [
            ("SWAP", (1, 2)),
            ("SWAP", (2, 3)),
            ("CNOT", (4, 3)),
            ("SWAP", (2, 3)),
            ("SWAP", (1, 2)),
        ]
        assert equivalent_up_to_phase(c, routed, 1e-12)

    def test_swap_cost_formula(self):
        for span in (2, 3, 4):
            c = Circuit(5, (GateInstance("XX", (0, span), (0.7,)),))
            routed = route_line(c)
            assert len(routed.gates) - len(c.gates) == 2 * (span - 1)

    def test_random_circuits_routed_equivalent_and_local(self, rng):
        for _ in range(40):
            c = random_circuit(rng, int(rng.integers(3, 6)), int(rng.integers(2, 8)))
            routed = route_line(c)
            assert circuit_stats(routed)["nonlocal_count"] == 0
            assert equivalent_up_to_phase(c, routed, 1e-10)
            assert depth(routed) >= depth(c)

    def test_local_input_preserves_depth(self, rng):
        c = Circuit(4, (GateInstance("CNOT", (0, 1)), GateInstance("XX", (2, 3), (0.5,))))
        assert depth(route_line(c)) == depth(c)

    def test_idempotent(self, rng):
        for _ in range(10):
            c = random_circuit(rng, 4, 6)
            once = route_line(c)
            assert circuits_identical(route_line(once), once)


class TestStats:
    def test_template_stats(self):
        stats = circuit_stats(template_circuit())
        assert stats == {
            "gate_count": 5,
            "depth": 5,
            "two_qubit_count": 5,
            "nonlocal_count": 0,
        }

    def test_nonlocal_count(self):
        c = Circuit(4, (GateInstance("CNOT", (0, 3)), GateInstance("H", (1,))))
        assert circuit_stats(c)["nonlocal_count"] == 1
