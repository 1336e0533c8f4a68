"""Tests for the circuit representation, JSON schema, simulation, and routing."""

import gc
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentagate import (
    Circuit,
    DimensionError,
    GateInstance,
    SchemaError,
    circuit_stats,
    circuit_distance,
    compress,
    describe_fusion_gate,
    embed,
    parse,
    phase_distance,
    route_line,
    serialize,
    to_unitary,
)
from pentagate import circuit as circuit_module
from pentagate.circuit import _orders, depth, parse_matrix, resolved_matrix
from pentagate.gates import GATES, gate_matrix
from pentagate.linalg import _permutation_rows, frobenius_norm
from conftest import haar_unitary, random_circuit, template_circuit, template_gates
from oracles import phase_distance_reference, to_unitary_reference

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

    @pytest.mark.parametrize("text", ["[" * 200_000, '{"qubits": 1, "gates": ' + "[" * 200_000],
                             ids=["top_level", "in_gates"])
    def test_runaway_nesting_is_a_schema_error(self, text):
        with pytest.raises(SchemaError, match="nested too deeply"):
            parse(text)

    def test_overlong_integer_is_a_schema_error(self):
        # json.loads refuses integer literals past the interpreter's digit limit
        text = '{"qubits": 1, "gates": [{"name": "RZ", "wires": [0], "params": [%s]}]}'
        with pytest.raises(SchemaError, match="integer literal longer than"):
            parse(text % ("1" * 5001))

    def test_overlong_integer_in_a_matrix_file_is_a_schema_error(self):
        with pytest.raises(SchemaError, match="integer literal longer than"):
            parse_matrix("[[[%s, 0]]]" % ("1" * 5001), "matrix")

    @pytest.mark.parametrize("text, message", [
        ("null", "m: expected a non-empty array of rows"),
        ("[]", "m: expected a non-empty array of rows"),
        ('"[[[1, 0]]]"', "m: expected a non-empty array of rows"),
        ("[[[1, 0]], 5]", "m[1]: expected an array"),
        ("[[[1, 0, 0]]]", "m[0][0]: expected an [re, im] pair"),
        ("[[1]]", "m[0][0]: expected an [re, im] pair"),
        ("[[[true, 0]]]", "m[0][0][0]: expected a number, got True"),
        ('[[[1, "0"]]]', "m[0][0][1]: expected a number, got '0'"),
        ("[[[1, null]]]", "m[0][0][1]: expected a number, got None"),
        ("[[[NaN, 0]]]", "m[0][0][0]: expected a finite number, got nan"),
        ("[[[1, -1e400]]]", "m[0][0][1]: expected a finite number, got -inf"),
        # an integer just past the float maximum, though it rounds to it
        ("[[[%d, 0]]]" % (int(sys.float_info.max) + 1),
         "m[0][0][0]: expected a finite number, got %d" % (int(sys.float_info.max) + 1)),
        ("[[[1, 0], [0, 0]], [[0, 0]]]", "m: matrix must be square"),
        ("[[[1, 0]], [[0, 0]]]", "m: matrix must be square"),
        ("[[]]", "m: matrix must be square"),
    ], ids=["null", "empty", "string", "non_array_row", "triple", "bare_number", "bool",
            "string_entry", "null_entry", "nan", "overflow", "int_past_float_max", "ragged",
            "not_square", "empty_row"])
    def test_matrix_rejections(self, text, message):
        with pytest.raises(SchemaError) as excinfo:
            parse_matrix(text, "m")
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("text", [
        "[[[1, 0], [0, 0]], [[0, 0], [0, -1]]]",
        "[[[-0.0, 5e-324], [1.7976931348623157e308, -0]], [[%d, 0.1], [2e-308, -1e308]]]"
        % int(sys.float_info.max),
        "[[[12345678901234567890, -9007199254740993]]]",
    ], ids=["integers", "edge_floats", "long_integers"])
    def test_matrix_decodes_every_entry_to_its_float(self, text):
        expected = [[complex(float(re), float(im)) for re, im in row] for row in json.loads(text)]
        decoded = parse_matrix(text, "m")
        assert decoded.dtype == np.complex128
        assert decoded.tobytes() == np.array(expected, dtype=np.complex128).tobytes()

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

    @pytest.mark.parametrize("gate, message", [
        ('["X", [0]]', "gates[1]: expected an object"),
        ('{"name": "X", "wires": [0], "zeta": 1, "alpha": 2}',
         "gates[1]: unknown field(s) ['alpha', 'zeta']"),
        ('{"wires": [0]}', "gates[1].name: missing"),
        ('{"name": "X"}', "gates[1].wires: missing"),
        ('{"name": "X", "wires": 0}', "gates[1].wires: expected an array"),
        ('{"name": "RZ", "wires": [0], "params": 0.5}', "gates[1].params: expected an array"),
        ('{"name": "custom", "wires": [0], "matrix": null}',
         "gates[1].matrix: expected a non-empty array of rows"),
        # with several faults, the first in check order is reported
        ('{"name": "X", "extra": 1}', "gates[1]: unknown field(s) ['extra']"),
        ('{"params": null}', "gates[1].name: missing"),
        ('{"name": "X", "params": {}}', "gates[1].wires: missing"),
        ('{"name": "X", "wires": null, "params": null}', "gates[1].wires: expected an array"),
        ('{"name": "X", "wires": [0], "params": "a", "matrix": null}',
         "gates[1].params: expected an array"),
        ('{"name": "CZ", "wires": [0, 0], "matrix": null}',
         "gates[1].matrix: expected a non-empty array of rows"),
        ('{"name": 7, "wires": [true], "params": ["x"]}', "gates[1].name: expected a string"),
    ], ids=["non_object", "unknown_fields", "missing_name", "missing_wires", "non_array_wires",
            "non_array_params", "null_matrix", "unknown_and_missing_wires",
            "missing_name_and_wires", "missing_wires_and_bad_params",
            "non_array_wires_and_params", "non_array_params_and_null_matrix",
            "null_matrix_and_bad_gate", "bad_name_wires_and_params"])
    def test_gate_shape_rejections(self, gate, message):
        text = '{"qubits": 2, "gates": [{"name": "H", "wires": [1]}, %s]}' % gate
        with pytest.raises(SchemaError) as excinfo:
            parse(text)
        assert str(excinfo.value) == message

    def test_register_cap(self):
        with pytest.raises(SchemaError, match="cap"):
            parse('{"qubits":13,"gates":[]}')

    @pytest.mark.parametrize("text, kind", [(None, "NoneType"), (b"[[[1, 0]]]", "bytes"),
                                            (7, "int"), (["[[[1, 0]]]"], "list")],
                             ids=["none", "bytes", "int", "list"])
    def test_text_that_is_not_a_str_is_a_schema_error(self, text, kind):
        for load in (parse, lambda t: parse_matrix(t, "m")):
            with pytest.raises(SchemaError) as excinfo:
                load(text)
            assert str(excinfo.value) == f"invalid JSON: expected a str, got {kind}"

    def test_zero_qubits_rejected(self):
        with pytest.raises(SchemaError):
            parse('{"qubits":0,"gates":[]}')


#: A valid custom X gate on wire 0, as the JSON matrix of [re, im] pairs.
X_ROWS = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]


def _x_rows_with(i: int, j: int, k: int, value) -> list:
    rows = json.loads(json.dumps(X_ROWS))
    rows[i][j][k] = value
    return rows


class TestSharedGates:
    """Equal gates share one checked object, and a cached twin never lets a gate through.

    Each case puts a valid twin first, so its key is warm when the hostile
    gate arrives; the message must be the one the gate gets on its own.
    """

    H1 = {"name": "H", "wires": [1]}
    X0 = {"name": "custom", "wires": [0], "matrix": X_ROWS}

    @pytest.mark.parametrize("twin, gate, message", [
        (H1, {"name": "H", "wires": [True]}, "gates[1].wires[0]: expected an integer, got True"),
        (H1, {"name": "H", "wires": [1.0]}, "gates[1].wires[0]: expected an integer, got 1.0"),
        (H1, {"name": "H", "wires": [1], "matrix": None},
         "gates[1].matrix: expected a non-empty array of rows"),
        (H1, {"name": "H", "wires": [1], "zeta": 1}, "gates[1]: unknown field(s) ['zeta']"),
        (H1, {"name": "H", "wires": [1], "params": [0.5]},
         "gates[1].params: gate 'H' takes 0 parameter(s), got 1"),
        (X0, {**X0, "matrix": _x_rows_with(0, 1, 0, True)},
         "gates[1].matrix[0][1][0]: expected a number, got True"),
        (X0, {**X0, "matrix": _x_rows_with(1, 1, 1, math.nan)},
         "gates[1].matrix[1][1][1]: expected a finite number, got nan"),
    ], ids=["bool_wire", "float_wire", "null_matrix", "unknown_field", "params_on_h",
            "bool_matrix_entry", "nan_matrix_entry"])
    def test_hostile_twin_gets_its_own_message(self, twin, gate, message):
        with pytest.raises(SchemaError) as excinfo:
            parse(json.dumps({"qubits": 2, "gates": [twin, gate, gate]}))
        assert str(excinfo.value) == message

    def test_failed_gate_is_not_cached(self):
        nan = {**self.X0, "matrix": _x_rows_with(1, 1, 1, math.nan)}
        with pytest.raises(SchemaError) as excinfo:
            parse(json.dumps({"qubits": 1, "gates": [nan, nan]}))
        assert str(excinfo.value) == "gates[0].matrix[1][1][1]: expected a finite number, got nan"

    @pytest.mark.parametrize("entry, value", [((0, 1, 0), 1), ((0, 0, 0), -0.0)],
                             ids=["int_for_float", "signed_zero"])
    def test_respelled_matrix_entry_parses_to_the_same_gate(self, entry, value):
        respelled = {**self.X0, "matrix": _x_rows_with(*entry, value)}
        circuit = parse(json.dumps({"qubits": 1, "gates": [self.X0, respelled]}))
        first, second = circuit.gates
        assert first is not second
        assert first.matrix.tobytes() == second.matrix.tobytes()
        assert math.copysign(1.0, second.matrix[0, 0].real) == 1.0
        once = '{"name": "custom", "wires": [0], "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}'
        assert serialize(circuit) == '{"qubits": 1, "gates": [%s, %s]}' % (once, once)

    def test_equal_gates_are_one_object(self):
        cnot = {"name": "CNOT", "wires": [0, 1]}
        gates = [cnot, self.H1, self.X0, cnot, {"name": "CNOT", "wires": [1, 0]}, self.X0,
                 {"name": "RZ", "wires": [0], "params": [0.5]}] * 2
        parsed = parse(json.dumps({"qubits": 2, "gates": gates})).gates
        assert parsed[0] is parsed[3] is parsed[7] and parsed[2] is parsed[5]
        assert parsed[4] is not parsed[0]
        assert parsed[6] is not parsed[13]  # gates with parameters are built one by one
        assert len({id(g) for g in parsed}) == 6

    def test_custom_matrix_is_read_only(self):
        gate = parse(json.dumps({"qubits": 1, "gates": [self.X0, self.X0]})).gates[0]
        with pytest.raises(ValueError, match="read-only"):
            gate.matrix[0, 0] = 1.0
        built = GateInstance("custom", (0,), (), np.eye(2))
        with pytest.raises(ValueError, match="read-only"):
            built.matrix *= -1

    @pytest.mark.parametrize("gates, message", [
        ((0, 0, 1), "gates[2].wires: wire 5 out of range for 2 qubits"),
        ((0, 1, 0, 1), "gates[1].wires: wire 5 out of range for 2 qubits"),
        ((0, 0, 2, 1), "gates[2]: not a GateInstance"),
        ((0, 0, 3, 1), "gates[2]: not a GateInstance"),
        ((1, 0, 1, 2), "gates[0].wires: wire 5 out of range for 2 qubits"),
        ((2, 0, 2, 1), "gates[0]: not a GateInstance"),
    ], ids=["after_twin", "repeated_bad_gate", "not_a_gate", "unhashable",
            "bad_gate_first_and_again", "not_a_gate_first_and_again"])
    def test_register_check_names_the_first_bad_index(self, gates, message):
        items = (GateInstance("H", (1,)), GateInstance("H", (5,)), "H", ["H", 1])
        with pytest.raises(SchemaError) as excinfo:
            Circuit(2, tuple(items[k] for k in gates))
        assert str(excinfo.value) == message


GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


@pytest.fixture
def collector():
    """Sets the cyclic collector's state for a test and restores it after."""
    enabled = gc.isenabled()
    yield lambda on: gc.enable() if on else gc.disable()
    (gc.enable if enabled else gc.disable)()


class TestCollectorPause:
    """``parse`` pauses the cyclic collector while it builds and restores its state."""

    @pytest.mark.parametrize("text, message", [
        ('{"qubits": 1, "gates": [{"name": "H", "wires": [0]}]}', None),
        ('{"qubits": 1, "gates": [{"name": "H", "wires": [true]}]}',
         "gates[0].wires[0]: expected an integer, got True"),
        ("[" * 200_000, "invalid JSON: arrays or objects nested too deeply"),
    ], ids=["parsed", "schema_error", "nested_too_deeply"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_state_is_restored(self, collector, enabled, text, message):
        collector(enabled)
        if message is None:
            assert parse(text).gates[0].name == "H"
        else:
            with pytest.raises(SchemaError) as excinfo:
                parse(text)
            assert str(excinfo.value) == message
        assert gc.isenabled() is enabled

    def test_paused_while_gates_are_built(self, collector, monkeypatch):
        seen, check_wires = [], circuit_module.check_wires

        def recording(wires, error):
            seen.append(gc.isenabled())
            return check_wires(wires, error)

        monkeypatch.setattr(circuit_module, "check_wires", recording)
        collector(True)
        parse('{"qubits": 2, "gates": [{"name": "H", "wires": [0]}, '
              '{"name": "RZ", "wires": [1], "params": [0.5]}]}')
        assert seen == [False, False] and gc.isenabled()

    def test_parse_makes_no_reference_cycle(self, collector, rng):
        texts = [path.read_text() for path in sorted(GOLDEN_INPUTS.glob("*.json"))]
        texts = [t for t in texts if isinstance(json.loads(t), dict)]
        assert len(texts) >= 20
        gates = list(random_circuit(rng, 5, 2000).gates)
        for k in range(0, 2000, 40):
            gates[k] = GateInstance("custom", (k % 5,), (), haar_unitary(2, rng))
        texts.append(serialize(Circuit(5, gates)))
        collector(False)
        gc.collect()
        for text in texts:
            parse(text)
            assert gc.collect() == 0


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
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400",
                                       pytest.param("1" + "0" * 400, id="huge_integer")])
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


class TestOneValidationPath:
    """The constructor applies parse's rules and reports them in parse's words."""

    @pytest.mark.parametrize("name, wires, params, message", [
        ("X", (1.9,), (), "wires[0]: expected an integer, got 1.9"),
        ("X", (True,), (), "wires[0]: expected an integer, got True"),
        ("RZ", (0,), ("1.5",), "params[0]: expected a number, got '1.5'"),
        ("RZ", (0,), (True,), "params[0]: expected a number, got True"),
    ], ids=["float_wire", "bool_wire", "string_param", "bool_param"])
    def test_constructor_rejects_what_parse_rejects(self, name, wires, params, message):
        gate = {"name": name, "wires": list(wires), "params": list(params)}
        with pytest.raises(SchemaError) as parsed:
            parse(json.dumps({"qubits": 2, "gates": [gate]}))
        assert str(parsed.value) == "gates[0]." + message
        with pytest.raises(SchemaError) as built:
            GateInstance(name, wires, params)
        assert str(built.value) == message

    @pytest.mark.parametrize("name, wires, params, message", [
        ("CNOT", {1, 0}, (), "wires: expected a sequence, got {0, 1}"),
        ("H", 0, (), "wires: expected a sequence, got 0"),
        ("RZ", (0,), {0.5: 1}, "params: expected a sequence, got {0.5: 1}"),
        ("RZ", (0,), {0.5}, "params: expected a sequence, got {0.5}"),
        ("RZ", (0,), 0.5, "params: expected a sequence, got 0.5"),
        ("RZ", (0,), "0.5", "params: expected a sequence, got '0.5'"),
        ("RZ", (0,), None, "params: expected a sequence, got None"),
        ("RZ", {0}, 0.5, "wires: expected a sequence, got {0}"),
    ], ids=["set_wires", "scalar_wires", "dict_params", "set_params", "scalar_params",
            "string_params", "none_params", "wires_first"])
    def test_wire_and_parameter_lists_are_sequences(self, name, wires, params, message):
        with pytest.raises(SchemaError) as excinfo:
            GateInstance(name, wires, params)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("params", [[0.5], np.array([0.5]), (np.float64(0.5),)],
                             ids=["list", "array", "tuple"])
    def test_sequences_of_parameters_are_stored_as_a_tuple(self, params):
        gate = GateInstance("RZ", [0], params)
        assert gate.params == (0.5,) and type(gate.params) is tuple
        assert type(gate.params[0]) is float

    @pytest.mark.parametrize("gates, message", [
        (None, "gates: expected a sequence, got None"),
        (5, "gates: expected a sequence, got 5"),
        ({GateInstance("H", (0,))}, "gates: expected a sequence, got "
                                    "{GateInstance(name='H', wires=(0,), params=(), matrix=None)}"),
    ], ids=["none", "scalar", "set"])
    def test_circuit_gates_are_a_sequence(self, gates, message):
        with pytest.raises(SchemaError) as excinfo:
            Circuit(2, gates)
        assert str(excinfo.value) == message

    def test_a_list_of_gates_is_stored_as_a_tuple(self):
        gate = GateInstance("H", (0,))
        assert Circuit(2, [gate, gate]).gates == (gate, gate)

    @pytest.mark.parametrize("wire, param, stored", [
        (np.int64(1), np.float64(-0.0), 0.0),
        (np.uint8(1), np.int32(3), 3.0),
        (1, 2, 2.0),
        (1, -0.0, 0.0),
        (1, 5e-324, 5e-324),
        (1, -1.7976931348623157e308, -1.7976931348623157e308),
    ], ids=["numpy_int_and_signed_zero", "numpy_uint8_and_int32", "int_param",
            "signed_zero", "subnormal", "float_min"])
    def test_constructor_stores_python_ints_and_floats(self, wire, param, stored):
        gate = GateInstance("RZ", [wire], [param])
        assert gate.wires == (1,) and type(gate.wires[0]) is int
        assert type(gate.params[0]) is float
        assert math.copysign(1.0, gate.params[0]) == math.copysign(1.0, stored)
        assert gate.params == (stored,)

    @pytest.mark.parametrize("name", sorted(GATES))
    def test_resolved_matrix_is_gate_matrix_bitwise(self, name, rng):
        # resolved_matrix builds a checked gate without checking its parameters again
        arity, count, _ = GATES[name]
        for _ in range(20):
            gate = GateInstance(name, tuple(range(arity)), tuple(rng.uniform(-20, 20, count)))
            got, want = resolved_matrix(gate), gate_matrix(name, gate.params)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


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


def reference_unitary(circuit: Circuit) -> np.ndarray:
    return to_unitary_reference(circuit.num_qubits, [(resolved_matrix(g), g.wires) for g in circuit.gates])


def reference_distance(a: Circuit, b: Circuit) -> float:
    return phase_distance_reference(reference_unitary(a), reference_unitary(b))


def near_permutation(perm: np.ndarray) -> np.ndarray:
    """``perm`` times a rotation by 1e-12 in the plane of basis states 0 and 1."""
    rotation = np.eye(len(perm), dtype=complex)
    c, s = math.cos(1e-12), math.sin(1e-12)
    rotation[:2, :2] = [[c, -s], [s, c]]
    return perm @ rotation


@st.composite
def simulator_gates(draw, n: int) -> GateInstance:
    """Any named gate, or as often a custom gate on 1-3 wires: Haar-random,
    an exact permutation, a signed permutation or a near-permutation."""
    name = draw(st.one_of(st.sampled_from(tuple(GATES)), st.just("custom")))
    arity = draw(st.integers(1, min(n, 3))) if name == "custom" else GATES[name][0]
    if arity > n:
        name, arity = "H", 1
    wires = tuple(draw(st.permutations(range(n)))[:arity])
    if name != "custom":
        params = draw(st.lists(st.floats(-10.0, 10.0), min_size=GATES[name][1], max_size=GATES[name][1]))
        return GateInstance(name, wires, tuple(params))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    perm = np.eye(2**arity, dtype=complex)[rng.permutation(2**arity)]
    kind = draw(st.sampled_from(("haar", "permutation", "signed", "near")))
    matrix = {"haar": lambda: haar_unitary(2**arity, rng), "permutation": lambda: perm,
              "signed": lambda: -perm, "near": lambda: near_permutation(perm)}[kind]()
    return GateInstance("custom", wires, (), matrix)


@st.composite
def simulator_circuits(draw, max_qubits: int = 8) -> Circuit:
    n = draw(st.integers(1, max_qubits))
    return Circuit(n, tuple(draw(st.lists(simulator_gates(n), max_size=10))))


SIMULATOR_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def row_map_circuits(draw) -> Circuit:
    """9 or 10 qubits and at most 6 gates.

    The gates are XX and CNOT on any two wires, so ``route_line`` adds SWAP
    chains around dense and permutation gates; custom 3-wire permutations; and
    signed permutations on 1-3 wires, which take the dense path. The last
    gate may be H on wire 0, whose operand is in register order, so the row
    map ends at the identity; or X on the last wire, which leaves it off
    the identity.
    """
    n = draw(st.integers(9, 10))
    gates = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(("XX", "CNOT", "permutation", "signed")))
        k = {"XX": 2, "CNOT": 2, "permutation": 3}.get(kind) or draw(st.integers(1, 3))
        wires = tuple(draw(st.permutations(range(n)))[:k])
        if kind in ("XX", "CNOT"):
            gates.append(GateInstance(kind, wires, (draw(st.floats(-3.0, 3.0)),) if kind == "XX" else ()))
            continue
        perm = np.eye(2**k, dtype=complex)[draw(st.permutations(range(2**k)))]
        gates.append(GateInstance("custom", wires, (), perm if kind == "permutation" else -perm))
    last = draw(st.sampled_from((None, GateInstance("H", (0,)), GateInstance("X", (n - 1,)))))
    return Circuit(n, tuple(gates) + ((last,) if last else ()))


class TestTwoBufferSimulator:
    """``to_unitary`` against the one-``tensordot``-per-gate reference.

    A dense gate makes the reference's ``np.dot`` call on the same
    operands, and a permutation gate relabels the rows the product would
    sum with exact zeros, so the values must be equal. Comparisons use
    ``==``, which treats -0.0 and 0.0 as equal: the sign of a zero entry
    is the one thing relabelling may change.
    """

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(row_map_circuits())
    def test_row_map_at_nine_and_ten_qubits(self, circuit):
        routed = route_line(circuit)
        expected, expected_routed = reference_unitary(circuit), reference_unitary(routed)
        assert np.array_equal(to_unitary(circuit), expected)
        assert np.array_equal(to_unitary(routed), expected_routed)
        assert circuit_distance(circuit, routed) == phase_distance_reference(expected, expected_routed)

    def test_orders_are_cached_and_read_only(self):
        order, inverse = _orders(3, (2, 0))
        assert list(order) == [0, 2, 4, 6, 1, 3, 5, 7]  # wire 2 leads, then wires 0 and 1
        assert list(order[inverse]) == list(range(8))
        assert not order.flags.writeable and not inverse.flags.writeable
        assert _orders(3, (2, 0))[0] is order
        assert _orders.cache_info().maxsize is not None

    @SIMULATOR_SETTINGS
    @given(simulator_circuits())
    def test_equals_the_tensordot_reference(self, circuit):
        assert np.array_equal(to_unitary(circuit), reference_unitary(circuit))

    @SIMULATOR_SETTINGS
    @given(st.data())
    def test_distance_of_circuits_one_gate_apart(self, data):
        a = data.draw(simulator_circuits(max_qubits=6))
        gates = list(a.gates) or [GateInstance("I", (0,))]
        gates[data.draw(st.integers(0, len(gates) - 1))] = data.draw(simulator_gates(a.num_qubits))
        b = Circuit(a.num_qubits, tuple(gates))
        assert circuit_distance(a, b) == reference_distance(a, b)

    @SIMULATOR_SETTINGS
    @given(st.integers(3, 6), st.sampled_from(("CNOT", "A")), st.integers(0, 2**32 - 1))
    def test_distance_across_a_rewrite(self, n, name, seed):
        # CNOT rewrites exactly; the A gate near the identity is only close to a solution
        params = (0.01, 0.0, 0.0) if name == "A" else ()
        rng = np.random.default_rng(seed)
        filler = random_circuit(rng, n, 4).gates
        wires = tuple(int(w) for w in rng.permutation(n)[:3])
        circuit = Circuit(n, filler[:2] + tuple(template_gates(name, params, wires)) + filler[2:])
        rewritten, report = compress(circuit, describe_fusion_gate(name, params, tol=1.0), verify=False)
        assert report.sites_found == 1
        assert circuit_distance(circuit, rewritten) == reference_distance(circuit, rewritten)

    def test_permutation_rows_only_for_exact_zero_one_rows(self):
        perm = np.eye(8, dtype=complex)[[3, 0, 7, 1, 2, 6, 4, 5]]
        assert list(_permutation_rows(perm)) == [3, 0, 7, 1, 2, 6, 4, 5]
        repeated = np.eye(8, dtype=complex)[[3, 3, 7, 1, 2, 6, 4, 5]]  # a column has two 1s
        others = (near_permutation(perm), -perm, 1j * perm, np.ones((8, 8)) / 8**0.5, repeated)
        for other in others:
            assert _permutation_rows(other) is None
        assert list(_permutation_rows(resolved_matrix(GateInstance("CNOT", (0, 1))))) == [0, 1, 3, 2]

    @pytest.mark.parametrize("wires", [(0, 1), (1, 0), (2, 0)])
    def test_result_is_c_contiguous_and_unaliased(self, rng, wires):
        for gates in ((), (GateInstance("XX", wires, (0.3,)),), (GateInstance("CNOT", wires),)):
            c = Circuit(3, gates)
            first, second = to_unitary(c), to_unitary(c)
            assert first.flags.c_contiguous and first.shape == (8, 8)
            assert not np.shares_memory(first, second)
            second[0, 0] = 7.0
            assert np.array_equal(first, to_unitary(c))

    def test_zero_gate_circuit_is_the_identity(self):
        for n in (1, 5, 9):
            u, again = to_unitary(Circuit(n, ())), to_unitary(Circuit(n, ()))
            assert u.flags.c_contiguous and np.array_equal(u, np.eye(2**n, dtype=complex))
            assert u.flags.writeable and not np.shares_memory(u, again)

    def test_custom_matrices_are_never_written(self, rng):
        gates = [GateInstance("custom", (0, 2), (), haar_unitary(4, rng)),
                 GateInstance("custom", (1, 2, 0), (), np.eye(8, dtype=complex)[rng.permutation(8)])]
        before = [g.matrix.copy() for g in gates]
        assert not any(g.matrix.flags.writeable for g in gates)
        to_unitary(Circuit(3, tuple(gates * 3)))
        for g, m in zip(gates, before):
            assert g.matrix.tobytes() == m.tobytes()

    def test_phase_distance_is_the_two_temporary_formula(self, rng):
        for dim in (2, 8, 32):
            for _ in range(20):
                a, b = haar_unitary(dim, rng), haar_unitary(dim, rng)
                a_in, b_in = a.copy(), b.copy()
                assert phase_distance(a, b) == phase_distance_reference(a, b)
                assert phase_distance(a, a * np.exp(0.7j)) == phase_distance_reference(a, a * np.exp(0.7j))
                assert np.array_equal(a, a_in) and np.array_equal(b, b_in)


class TestEquivalence:
    def test_self_equivalent(self, rng):
        c = random_circuit(rng, 3, 8)
        assert circuit_distance(c, c) < 1e-10

    def test_global_phase_gate_ignored(self):
        base = Circuit(2, (GateInstance("CNOT", (0, 1)),))
        phase = np.exp(1j * PI / 7) * np.eye(2, dtype=complex)
        phased = Circuit(2, base.gates + (GateInstance("custom", (0,), (), phase),))
        assert circuit_distance(base, phased) < 1e-10

    def test_reversed_cnot_not_equivalent(self):
        a = Circuit(2, (GateInstance("CNOT", (0, 1)),))
        b = Circuit(2, (GateInstance("CNOT", (1, 0)),))
        assert circuit_distance(a, b) >= 1e-10

    def test_register_mismatch(self):
        with pytest.raises(DimensionError):
            circuit_distance(Circuit(2, ()), Circuit(3, ()))


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
    def test_relocated_gate_is_built_once(self, rng, monkeypatch):
        import pentagate.circuit

        far = GateInstance("custom", (0, 3), (), haar_unitary(4, rng))
        circuit = Circuit(4, (far, GateInstance("H", (1,)), far))
        checked = []
        is_unitary = pentagate.circuit.is_unitary
        monkeypatch.setattr(pentagate.circuit, "is_unitary",
                            lambda m, tol: checked.append(m.shape) or is_unitary(m, tol))
        routed = route_line(circuit)
        assert checked == [(4, 4)]
        moved = [g for g in routed.gates if g.name == "custom"]
        assert len(moved) == 2 and moved[0] is moved[1] and moved[0].wires == (0, 1)
        assert circuit_distance(circuit, routed) < 1e-12

    def test_local_circuit_unchanged(self):
        c = Circuit(3, (GateInstance("CNOT", (0, 1)), GateInstance("H", (2,))))
        assert serialize(route_line(c)) == serialize(c)

    def test_distance_two_gate_expansion(self):
        c = Circuit(3, (GateInstance("A", (0, 2), (0.1, 0.2, 0.3)),))
        routed = route_line(c)
        assert [(g.name, g.wires) for g in routed.gates] == [
            ("SWAP", (1, 2)),
            ("A", (0, 1)),
            ("SWAP", (1, 2)),
        ]
        assert circuit_distance(c, routed) < 1e-12

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
        assert circuit_distance(c, routed) < 1e-12

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
            assert circuit_distance(c, routed) < 1e-10
            assert depth(routed) >= depth(c)

    def test_local_input_preserves_depth(self, rng):
        c = Circuit(4, (GateInstance("CNOT", (0, 1)), GateInstance("XX", (2, 3), (0.5,))))
        assert depth(route_line(c)) == depth(c)

    def test_idempotent(self, rng):
        for _ in range(10):
            c = random_circuit(rng, 4, 6)
            once = route_line(c)
            assert serialize(route_line(once)) == serialize(once)


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
