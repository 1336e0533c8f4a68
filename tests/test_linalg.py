"""Tests for the dense linear-algebra layer."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pentagate import (
    CayleyTable,
    Circuit,
    DimensionError,
    GateInstance,
    GridError,
    InvalidGroupError,
    NonUnitaryError,
    SchemaError,
    UncertifiedGateError,
    UnknownGateError,
    WireError,
    certify,
    compress,
    constraints,
    describe_fusion_gate,
    embed,
    expand,
    find_compress_sites,
    find_expand_sites,
    gate_matrix,
    group_algebra_fusion,
    is_unitary,
    parse,
    phase_distance,
    refine,
    scan_fusion_solutions,
    serialize,
    standard_gate,
    transpile,
)
from pentagate import linalg
from pentagate.equations import pentagon_stack
from pentagate.gates import rotation
from pentagate.rewrite import FusionGateDescriptor
from pentagate.linalg import _permutation_rows, frobenius_norm, twist
from conftest import haar_unitary
from oracles import embed_by_transpose_copy, matrices_equal, permutation_operator

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
SWAP = standard_gate("SWAP")


class TestMatmul:
    def test_identity(self):
        assert np.array_equal(I2 @ I2, I2)

    def test_pauli_squares_to_identity(self):
        for name in "XYZ":
            assert matrices_equal(standard_gate(name) @ standard_gate(name), I2, 0.0)

    def test_swap_is_involutive(self):
        assert np.array_equal(SWAP @ SWAP, I4)


class TestTwist:
    def test_one_dimensional(self):
        assert np.array_equal(twist(1), np.array([[1.0]], dtype=complex))

    def test_two_dimensional_is_swap(self):
        assert np.array_equal(twist(2), SWAP)
        assert np.array_equal(twist(np.int64(2)), SWAP)

    @pytest.mark.parametrize("d", [0, -1, 2.0, True], ids=["zero", "negative", "float", "bool"])
    def test_dimension_is_a_positive_integer(self, d):
        with pytest.raises(DimensionError, match="local dimension must be an integer of at least 1"):
            twist(d)

    def test_dimension_cap(self, monkeypatch):
        # d*d is capped as embed's registers are, before anything is allocated;
        # the size is a Python int, so a numpy d cannot wrap past the cap
        with pytest.raises(DimensionError, match="exceeds the 4096-dimensional cap"):
            twist(10**4)
        with pytest.raises(DimensionError, match="exceeds the 4096-dimensional cap"):
            twist(np.int64(2**32))
        monkeypatch.setattr(linalg, "MAX_QUBITS", 3)
        assert np.array_equal(twist(2), SWAP)
        with pytest.raises(DimensionError, match="register of 2 wires of dimension 3 exceeds"):
            twist(3)

    def test_involutive(self):
        for d in (2, 3, 4):
            assert np.array_equal(twist(d) @ twist(d), np.eye(d * d, dtype=complex))

    def test_matches_oracle_permutation(self):
        for d in range(1, 6):
            assert np.array_equal(twist(d), permutation_operator(lambda t: (t[1], t[0]), d, 2))

    def test_symmetric_permutation(self):
        for d in (2, 3):
            t = twist(d)
            assert np.array_equal(t, t.T)
            assert np.all((t == 0) | (t == 1))
            assert np.array_equal(t.sum(axis=0), np.ones(d * d))
            assert np.array_equal(t.sum(axis=1), np.ones(d * d))


class TestEmbed:
    def test_identity_case(self):
        assert np.array_equal(embed(I4, [0, 1], 3), np.eye(8, dtype=complex))

    def test_leading_wires_is_kron(self, rng):
        t = haar_unitary(4, rng)
        assert np.array_equal(embed(t, [0, 1], 3), np.kron(t, I2))

    def test_trailing_wires_is_kron(self, rng):
        t = haar_unitary(4, rng)
        assert np.allclose(embed(t, [1, 2], 3), np.kron(I2, t), atol=1e-15)

    def test_outer_wires_via_twist_conjugation(self, rng):
        # embed only moves entries, so T13 is exactly the conjugation of
        # T (x) id by id (x) tau, whose products only add zeros
        for d in (2, 3):
            t = haar_unitary(d * d, rng)
            eye = np.eye(d, dtype=complex)
            mid = np.kron(eye, twist(d))
            assert np.array_equal(embed(t, [0, 2], 3, d), mid @ np.kron(t, eye) @ mid)

    def test_reversed_wire_order_differs(self, rng):
        t = haar_unitary(4, rng)
        cnot = standard_gate("CNOT")
        assert not matrices_equal(embed(cnot, [1, 0], 2), embed(cnot, [0, 1], 2), 1e-6)
        # reversing wires is conjugation by SWAP
        assert np.allclose(embed(t, [1, 0], 2), SWAP @ t @ SWAP, atol=1e-15)

    def test_unitary_preserved(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(1, min(n, 3) + 1))
            wires = [int(w) for w in rng.choice(n, size=k, replace=False)]
            u = haar_unitary(2**k, rng)
            assert is_unitary(embed(u, wires, n), 1e-12)

    def test_disjoint_wire_sets_commute(self, rng):
        for _ in range(20):
            n = 5
            wires = [int(w) for w in rng.choice(n, size=4, replace=False)]
            u = haar_unitary(4, rng)
            v = haar_unitary(4, rng)
            eu = embed(u, wires[:2], n)
            ev = embed(v, wires[2:], n)
            assert frobenius_norm(eu @ ev - ev @ eu) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("stack", [None, 1, 5], ids=["matrix", "stack1", "stack5"])
    def test_bitwise_equal_to_the_transpose_copy(self, d, stack, rng):
        # every wire order on 3 factors, with signed zeros among the entries
        for k in (1, 2, 3):
            for wires in itertools.permutations(range(3), k):
                shape = (d**k, d**k) if stack is None else (stack, d**k, d**k)
                u = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                u.flat[::3] = complex(-0.0, -0.0)
                u.flat[1::5] = complex(0.0, -0.0)
                got, want = embed(u, wires, 3, d), embed_by_transpose_copy(u, wires, 3, d)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), wires

    def test_bitwise_equal_to_the_transpose_copy_on_10_qubits(self, rng):
        u = haar_unitary(4, rng)
        u[0, 1] = complex(-0.0, -0.0)
        got, want = embed(u, (3, 7), 10), embed_by_transpose_copy(u, (3, 7), 10)
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))

    def test_wire_errors(self):
        with pytest.raises(WireError):
            embed(I4, [0, 3], 3)
        with pytest.raises(WireError):
            embed(I4, [1, 1], 3)
        with pytest.raises(DimensionError):
            embed(I4, [0], 3)
        # a register size is an integer, not a bool or a float
        for size in (True, 1.0, 0):
            with pytest.raises(WireError, match="register size must be an integer of at least 1"):
                embed(np.eye(2), (0,), size)
        assert np.array_equal(embed(np.eye(2), (0,), np.int64(1)), np.eye(2))

    def test_register_cap(self):
        with pytest.raises(DimensionError):
            embed(I4, [0, 1], 13)
        # the wire count is refused before d**num_qubits is computed, so a
        # huge register costs nothing and a numpy count cannot wrap
        with pytest.raises(DimensionError, match="register of 64 qubits exceeds the 12-qubit cap"):
            embed(I2, (0,), np.int64(64))
        with pytest.raises(DimensionError, match="12-qubit cap"):
            embed(I2, (0,), 10**12)
        # one-level wires have dimension 1, but the wire cap still holds
        assert np.array_equal(embed(-np.eye(1), (7,), 12, 1), -np.eye(1))
        with pytest.raises(DimensionError, match="register of 13 qubits exceeds"):
            embed(np.eye(1), (0,), 13, 1)

    def test_dimension_cap(self, monkeypatch):
        # a d-level register is capped at 2**MAX_QUBITS before anything is
        # allocated: 3**12 would need 52 GiB
        with pytest.raises(DimensionError, match="exceeds the 4096-dimensional cap"):
            embed(np.eye(9), (0, 1), 12, 3)
        monkeypatch.setattr(linalg, "MAX_QUBITS", 3)
        assert np.array_equal(embed(I2, (0,), 3), np.eye(8))
        with pytest.raises(DimensionError, match="register of 2 wires of dimension 3 exceeds"):
            embed(np.eye(3), (0,), 2, 3)

    def test_stack_cap(self, monkeypatch):
        # a stack is capped at 4**MAX_QUBITS entries in all, one 2**MAX_QUBITS
        # square lift, before anything is allocated
        monkeypatch.setattr(linalg, "MAX_QUBITS", 3)
        assert np.array_equal(embed(I2[np.newaxis], (0,), 3), np.eye(8)[np.newaxis])
        with pytest.raises(DimensionError, match="2 lifts of dimension 8 exceed the 64-entry cap"):
            embed(np.stack([I2, I2]), (0,), 3)
        assert embed(np.stack([I2, I2]), (0,), 2).shape == (2, 4, 4)
        ts = np.stack([I4, I4])
        assert pentagon_stack(ts[:1], 2)[2].tolist() == [0.0]
        with pytest.raises(DimensionError, match="2 lifts of dimension 8 exceed"):
            pentagon_stack(ts, 2)


#: Wire lists and the message both ``GateInstance`` (SchemaError) and
#: ``embed`` (WireError) give, or None for a list both accept; the range,
#: which needs a register, has its own test below.
WIRE_CASES = {
    "bool": ((0, True), "wires[1]: expected an integer, got True"),
    "float": ((0, 1.0), "wires[1]: expected an integer, got 1.0"),
    "str": (("0", 1), "wires[0]: expected an integer, got '0'"),
    "numpy_then_str": ((np.int64(0), "x"), "wires[1]: expected an integer, got 'x'"),
    "numpy": ((np.int64(2), np.int32(0)), None),
    "list": ([2, 0], None),
    "array": (np.array([2, 0]), None),
    "empty": ((), "wires: must list at least one wire"),
    "duplicate": ((1, 1), "wires: duplicate wire in [1, 1]"),
    # a wire list is a sequence: nothing is read in an order of its own
    "set": ({1, 0}, "wires: expected a sequence, got {0, 1}"),
    "dict": ({5: 0, 2: 0}, "wires: expected a sequence, got {5: 0, 2: 0}"),
    "scalar": (0, "wires: expected a sequence, got 0"),
    "string": ("01", "wires: expected a sequence, got '01'"),
    "zero_d_array": (np.array(1), "wires: expected a sequence, got array(1)"),
    "none": (None, "wires: expected a sequence, got None"),
}


class TestWireRule:
    @pytest.mark.parametrize("wires, message", WIRE_CASES.values(), ids=WIRE_CASES)
    def test_gate_and_embed_give_one_message(self, wires, message):
        if message is None:
            gate = GateInstance("XX", wires, (0.3,))
            assert gate.wires == tuple(map(int, wires))
            assert all(type(w) is int for w in gate.wires)
            u = np.kron(standard_gate("X"), I2)
            assert np.array_equal(embed(u, wires, 3), embed(u, gate.wires, 3))
        else:
            with pytest.raises(SchemaError) as gate_error:
                GateInstance("XX", wires, (0.3,))
            with pytest.raises(WireError) as embed_error:
                embed(I4, wires, 3)
            assert str(gate_error.value) == str(embed_error.value) == message

    def test_range_is_the_register_check(self):
        # a gate has no register; the circuit's message is embed's after the gate index
        gate = GateInstance("XX", (0, 5), (0.3,))
        with pytest.raises(WireError) as embed_error:
            embed(I4, gate.wires, 3)
        with pytest.raises(SchemaError) as circuit_error:
            Circuit(3, (gate,))
        assert str(embed_error.value) == "wires: wire 5 out of range for 3 qubits"
        assert str(circuit_error.value) == f"gates[0].{embed_error.value}"

    def test_plain_tuple_is_kept(self):
        wires = (3, 7)
        assert linalg.check_wires(wires, WireError) is wires
        assert GateInstance("XX", wires, (0.3,)).wires is wires


#: Lists of numbers no entry may take, and the message ``linalg.reals`` gives
#: for each after the entry's name: a list is a sequence of finite numbers.
LIST_CASES = {
    "none": (None, ": expected a sequence, got None"),
    "scalar": (0.5, ": expected a sequence, got 0.5"),
    "integer": (5, ": expected a sequence, got 5"),
    "zero_d_array": (np.array(0.5), ": expected a sequence, got array(0.5)"),
    "set": ({0.5}, ": expected a sequence, got {0.5}"),
    "dict": ({0.5: 1}, ": expected a sequence, got {0.5: 1}"),
    "string": ("0.5", ": expected a sequence, got '0.5'"),
    "nested": ([[0.5]], "[0]: expected a number, got [0.5]"),
    "ragged": ([0.5, [0.5, 0.5]], "[1]: expected a number, got [0.5, 0.5]"),
    "bool": ([True], "[0]: expected a number, got True"),
    "nan": ([math.nan], "[0]: expected a finite number, got nan"),
    "inf": ([0.5, math.inf], "[1]: expected a finite number, got inf"),
    "negative_inf": ([-math.inf], "[0]: expected a finite number, got -inf"),
    "huge_integer": ([10**400], f"[0]: expected a finite number, got {10**400}"),
    "array_nan": (np.array([0.5, math.nan]),
                  f"[1]: expected a finite number, got {np.float64(math.nan)!r}"),
}

_AXIS = (0.0, 1.0, 1.0)


def _with_pair(value) -> str:
    """Circuit JSON of a one-qubit custom gate, ``value`` in place of its first
    [re, im] pair; a value JSON cannot hold is written as its repr, a string."""
    matrix = [[value, [0, 0]], [[0, 0], [1, 0]]]
    gate = {"name": "custom", "wires": [0], "matrix": matrix}
    return json.dumps({"qubits": 1, "gates": [gate]}, default=repr)


#: Every entry that reads a list of numbers: the call that puts a value in
#: place of the list, the class it raises and the name ``reals`` reads the
#: list under, or None where the entry words its own refusal.
LIST_TAKERS = {
    "gate_matrix": (lambda v: gate_matrix("RZ", v), ValueError, "gate 'RZ' parameters"),
    "certify_params": (lambda v: certify(standard_gate("CNOT"), params=v), ValueError,
                       "gate parameters"),
    "constraints": (lambda v: constraints("a", v), ValueError, "parameters"),
    "refine_start": (lambda v: refine(v), ValueError, "parameters"),
    "scan_axes": (lambda v: scan_fusion_solutions("a", v), GridError, "axes"),
    "gate_instance_params": (lambda v: GateInstance("RZ", (0,), v), SchemaError, "params"),
    "json_matrix_pair": (lambda v: parse(_with_pair(v)), SchemaError, None),
}


class TestListReader:
    """``linalg.reals`` is the one reader of a list of numbers: each entry
    refuses what is not a sequence of finite numbers with its own class."""

    @pytest.mark.parametrize("case", sorted(LIST_CASES))
    @pytest.mark.parametrize("entry", sorted(LIST_TAKERS))
    def test_refuses(self, entry, case):
        call, error, what = LIST_TAKERS[entry]
        value, message = LIST_CASES[case]
        with pytest.raises(Exception) as caught:
            call(value)
        assert type(caught.value) is error
        if what is not None:
            assert str(caught.value) == what + message

    # JSON has one sequence, the array, which every test of ``parse`` reads
    @pytest.mark.parametrize("entry", sorted(set(LIST_TAKERS) - {"json_matrix_pair"}))
    @pytest.mark.parametrize("kind", [list, tuple, np.array])
    def test_sequences_are_read(self, entry, kind):
        values = {"gate_matrix": [0.5], "certify_params": [0.1], "scan_axes": _AXIS,
                  "gate_instance_params": [0.5]}.get(entry, [0.1, 0.0, 0.0])
        LIST_TAKERS[entry][0](kind(values))

    @pytest.mark.parametrize("call, error, message", [
        # a set or a dict's keys would be read in an order of their own
        (lambda: gate_matrix("RZ", {0.5}), ValueError,
         "gate 'RZ' parameters: expected a sequence, got {0.5}"),
        (lambda: certify(standard_gate("CNOT"), params={0.1}), ValueError,
         "gate parameters: expected a sequence, got {0.1}"),
        (lambda: constraints("a", {0.1: 1, 0.2: 2, 0.3: 3}), ValueError,
         "parameters: expected a sequence, got {0.1: 1, 0.2: 2, 0.3: 3}"),
        # in set order this triple reads (0, 1, 3): one point per axis, not four
        (lambda: scan_fusion_solutions("a", {0.0, 3.0, 1.0}), GridError,
         "axes: expected a sequence, got {0.0, 1.0, 3.0}"),
        # a scalar, or a pair in place of a triple, is no axis or parameter list
        (lambda: gate_matrix("RZ", 0.5), ValueError,
         "gate 'RZ' parameters: expected a sequence, got 0.5"),
        (lambda: refine(5), ValueError, "parameters: expected a sequence, got 5"),
        (lambda: scan_fusion_solutions("a", 5), GridError, "axes: expected a sequence, got 5"),
        (lambda: scan_fusion_solutions("a", [(0, 1)] * 3), GridError,
         "axes[0]: expected a number, got (0, 1)"),
        # the scan takes one (lo, hi, step) triple, the axis of every parameter
        (lambda: scan_fusion_solutions("a", [0, 1]), GridError,
         "axes: expected one (lo, hi, step) triple, got 2 values"),
    ], ids=["gate_matrix_set", "certify_set", "constraints_dict", "scan_set", "gate_matrix_scalar",
            "refine_scalar", "scan_scalar", "scan_pairs", "scan_two_numbers"])
    def test_calls_that_read_a_list_any_way(self, call, error, message):
        with pytest.raises(Exception) as caught:
            call()
        assert type(caught.value) is error
        assert str(caught.value) == message

    def test_ordered_scan_axes_keep_their_order(self):
        # (0, 3, 1) is four points per axis, read in the order given
        one = scan_fusion_solutions("a", [0.0, 3.0, 1.0])
        assert one == scan_fusion_solutions("a", (0.0, 3.0, 1.0))
        assert one == scan_fusion_solutions("a", np.array([0.0, 3.0, 1.0]))

    def test_certify_and_constraints_keep_a_negative_zero(self):
        # the gate stores 0.0 for -0.0; the reports print the parameters as given
        assert math.copysign(1.0, certify(standard_gate("CNOT"), params=(-0.0,)).gate_params[0]) < 0
        assert math.copysign(1.0, constraints("a", (-0.0, 0, 0)).parameters[0]) < 0
        assert math.copysign(1.0, GateInstance("RZ", (0,), (-0.0,)).params[0]) > 0


#: Hostile numbers and matrices at the library's entries: the call, the class
#: the entry documents and its message. None of them may end in numpy's or
#: the interpreter's own TypeError or ValueError.
#: Finite, but its entries square past the float range.
_HUGE = 1e200 * np.eye(4)

HOSTILE_CALLS = {
    # repr refuses an integer past the interpreter's digit limit
    "gate_params_past_digit_limit": (
        lambda: GateInstance("RZ", (0,), [10**5000]), SchemaError,
        "params[0]: expected a finite number, got an integer of 16610 bits"),
    "scan_bound_past_digit_limit": (
        lambda: scan_fusion_solutions("a", (0, 10**5000, 1)), GridError,
        "axes[1]: expected a finite number, got an integer of 16610 bits"),
    "register_size_past_digit_limit": (
        lambda: embed(I2, (0,), -10**5000), WireError,
        "register size must be an integer of at least 1, got a negative integer of 16610 bits"),
    "embed_wire_past_digit_limit": (
        lambda: embed(I2, [10**5000], 1), WireError,
        "wires: wire an integer of 16610 bits out of range for 1 qubits"),
    "embed_register_past_digit_limit": (
        lambda: embed(I2, (0,), 10**5000), DimensionError,
        "register of an integer of 16610 bits qubits exceeds the 12-qubit cap"),
    "circuit_register_past_digit_limit": (
        lambda: Circuit(10**5000, ()), SchemaError,
        "qubits: register of an integer of 16610 bits exceeds the 12-qubit cap"),
    "circuit_wire_past_digit_limit": (
        lambda: Circuit(1, (GateInstance("X", [10**5000]),)), SchemaError,
        "gates[0].wires: wire an integer of 16610 bits out of range for 1 qubits"),
    "group_identity_past_digit_limit": (
        lambda: CayleyTable(1, ((0,),), 10**5000), InvalidGroupError,
        "identity index an integer of 16610 bits out of range"),
    "group_order_past_digit_limit": (
        lambda: CayleyTable(10**5000, (), 0), DimensionError,
        "register of 2 wires of dimension an integer of 16610 bits exceeds the 4096-dimensional cap"),
    # what numpy cannot read as an array of numbers, or reads with the wrong shape
    "custom_matrix_dict": (lambda: GateInstance("custom", (0,), matrix={0: 1}), SchemaError,
                           "matrix: expected an array of numbers, got dict"),
    "custom_matrix_string": (lambda: GateInstance("custom", (0,), matrix="ab"), SchemaError,
                             "matrix: expected an array of numbers, got str"),
    "custom_matrix_ragged": (lambda: GateInstance("custom", (0,), matrix=[[1, 0], [0]]),
                             SchemaError, "matrix: expected an array of numbers, got list"),
    "custom_matrix_huge_entry": (lambda: GateInstance("custom", (0,), matrix=[[10**400]]),
                                 SchemaError, "matrix: expected an array of numbers, got list"),
    "custom_matrix_vector": (lambda: GateInstance("custom", (0,), matrix=[1, 0]), SchemaError,
                             "matrix: expected 2 dimensions, got 1"),
    "certify_string": (lambda: certify("ab"), DimensionError,
                       "matrix: expected an array of numbers, got str"),
    "embed_string": (lambda: embed("ab", (0,), 1), DimensionError,
                     "matrix: expected an array of numbers, got str"),
    "pentagon_stack_string": (lambda: pentagon_stack("ab", 2), DimensionError,
                              "matrix: expected an array of numbers, got str"),
    # numpy would read a bool as 1 or 0 and a string as the number it spells
    "certify_string_cnot": (
        lambda: certify([[str(int(x.real)) for x in row] for row in standard_gate("CNOT")]),
        DimensionError, "matrix: expected an array of numbers, got list"),
    "certify_bool_cnot": (lambda: certify(standard_gate("CNOT").real.astype(bool).tolist()),
                          DimensionError, "matrix: expected an array of numbers, got list"),
    "certify_bool_array": (lambda: certify(standard_gate("CNOT").real.astype(bool)),
                           DimensionError, "matrix: expected an array of numbers, got ndarray"),
    "certify_bool_among_ints": (
        lambda: certify([[True, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
        DimensionError, "matrix: expected an array of numbers, got list"),
    "custom_matrix_numeric_strings": (
        lambda: GateInstance("custom", (0,), matrix=[["1", "0"], ["0", "1"]]), SchemaError,
        "matrix: expected an array of numbers, got list"),
    "custom_matrix_string_array": (
        lambda: GateInstance("custom", (0,), matrix=np.array([["1", "0"], ["0", "1"]])),
        SchemaError, "matrix: expected an array of numbers, got ndarray"),
    "embed_numeric_strings": (lambda: embed([["1", "0"], ["0", "1"]], (0,), 1), DimensionError,
                              "matrix: expected an array of numbers, got list"),
    "embed_bytes": (lambda: embed([[b"1", b"0"], [b"0", b"1"]], (0,), 1), DimensionError,
                    "matrix: expected an array of numbers, got list"),
    # an unknown name is the UnknownGateError that gate_matrix raises
    "gate_instance_unknown_name": (lambda: GateInstance("FOO", (0,)), UnknownGateError,
                                   "name: unknown gate 'FOO'"),
    # a name too long for repr is named by its size, as a number is
    "gate_instance_huge_integer_name": (lambda: GateInstance(10**5000, (0,)), SchemaError,
                                        "name: expected a string, got an integer of 16610 bits"),
    "parse_unknown_name": (
        lambda: parse('{"qubits": 1, "gates": [{"name": "FOO", "wires": [0]}]}'),
        UnknownGateError, "gates[0].name: unknown gate 'FOO'"),
    # an unhashable name is an unknown one, not a bare TypeError
    "gate_matrix_list_name": (lambda: gate_matrix(["X"]), UnknownGateError,
                              "unknown gate name ['X']"),
    "standard_gate_list_name": (lambda: standard_gate(["X"]), UnknownGateError,
                                "unknown standard gate ['X']"),
    "refine_list_family": (lambda: refine((0.1, 0.2, 0.3), family=["a"]), ValueError,
                           "unknown family ['a'], expected 'a' or 'heis'"),
    "constraints_list_family": (lambda: constraints(["a"], (0.1, 0.2, 0.3)), ValueError,
                                "unknown family ['a'], expected 'a' or 'heis'"),
    "scan_list_family": (lambda: scan_fusion_solutions(["a"], (0, 1, 1)), ValueError,
                         "unknown family ['a'], expected 'a' or 'heis'"),
    "transpile_list_rule": (
        lambda: transpile(Circuit(3, ()), describe_fusion_gate("CNOT"), ["compress"]), ValueError,
        "unknown rule ['compress'], expected 'compress' or 'expand'"),
    # a rewrite entry refuses anything but a descriptor before reading it
    "transpile_none_descriptor": (
        lambda: transpile(Circuit(3, ()), None, "compress"), UncertifiedGateError,
        "descriptor: expected a FusionGateDescriptor, got NoneType"),
    "compress_name_descriptor": (
        lambda: compress(Circuit(3, (GateInstance("CNOT", (0, 1)),)), "CNOT"), UncertifiedGateError,
        "descriptor: expected a FusionGateDescriptor, got str"),
    "expand_none_descriptor": (
        lambda: expand(Circuit(3, ()), None), UncertifiedGateError,
        "descriptor: expected a FusionGateDescriptor, got NoneType"),
    "find_compress_sites_none_descriptor": (
        lambda: find_compress_sites(Circuit(3, ()), None), UncertifiedGateError,
        "descriptor: expected a FusionGateDescriptor, got NoneType"),
    "find_expand_sites_name_descriptor": (
        lambda: find_expand_sites(Circuit(3, ()), "CNOT"), UncertifiedGateError,
        "descriptor: expected a FusionGateDescriptor, got str"),
    "group_algebra_fusion_none": (lambda: group_algebra_fusion(None), InvalidGroupError,
                                  "group: expected a CayleyTable, got NoneType"),
    "direct_product_none": (lambda: CayleyTable.direct_product(None, None), InvalidGroupError,
                            "g: expected a CayleyTable, got NoneType"),
    "direct_product_string_factor": (
        lambda: CayleyTable.direct_product(CayleyTable.cyclic(2), "ab"), InvalidGroupError,
        "h: expected a CayleyTable, got str"),
    # a refused value whose repr is longer than 500 characters is named by its
    # type and size, an integer by its bits
    "certify_tolerance_long_array": (
        lambda: certify(I4, tol=np.ones(1000)), ValueError,
        "tolerance: expected a number, got an array of shape (1000,)"),
    "certify_tolerance_long_integer": (
        lambda: certify(I4, tol=10**600), ValueError,
        "tolerance must be finite and positive, got an integer of 1994 bits"),
    "embed_long_string_wires": (
        lambda: embed(I2, "x" * 10**5, 1), WireError,
        "wires: expected a sequence, got a str of length 100000"),
    "embed_long_duplicate_wires": (
        lambda: embed(I2, [0] * 10**4, 1), WireError,
        "wires: duplicate wire in a list of length 10000"),
    "gate_instance_long_string_wire": (
        lambda: GateInstance("X", ["x" * 1000]), SchemaError,
        "wires[0]: expected an integer, got a str of length 1000"),
    "gate_instance_long_string_params": (
        lambda: GateInstance("RZ", (0,), "x" * 10**5), SchemaError,
        "params: expected a sequence, got a str of length 100000"),
    "gate_instance_long_name": (
        lambda: GateInstance("x" * 10**5, (0,)), UnknownGateError,
        "name: unknown gate a str of length 100000"),
    "parse_long_name": (
        lambda: parse(json.dumps({"qubits": 1, "gates": [{"name": "x" * 10**5, "wires": [0]}]})),
        UnknownGateError, "gates[0].name: unknown gate a str of length 100000"),
    # a refusal of the name names it once, not in the prefix as well
    "describe_fusion_gate_long_name": (
        lambda: describe_fusion_gate("y" * 10**5), SchemaError,
        "fusion gate: name: unknown gate a str of length 100000"),
    "describe_fusion_gate_name_under_the_bound": (
        lambda: describe_fusion_gate("y" * 497), SchemaError,
        f"fusion gate: name: unknown gate {'y' * 497!r}"),
    "gate_matrix_long_name": (lambda: gate_matrix("x" * 10**5), UnknownGateError,
                              "unknown gate name a str of length 100000"),
    "standard_gate_long_name": (lambda: standard_gate("x" * 10**5), UnknownGateError,
                                "unknown standard gate a str of length 100000"),
    "constraints_long_family": (
        lambda: constraints("x" * 10**5, (0.1, 0.2, 0.3)), ValueError,
        "unknown family a str of length 100000, expected 'a' or 'heis'"),
    "rotation_long_axis": (
        lambda: rotation("x" * 10**5, 0.0), ValueError,
        "unknown Pauli axis a str of length 100000, expected 'x', 'y' or 'z'"),
    "parse_long_gate_field": (
        lambda: parse(json.dumps(
            {"qubits": 1, "gates": [{"name": "X", "wires": [0], "k" * 10**5: 1}]})),
        SchemaError, "gates[0]: unknown field(s) a list of length 1"),
    "parse_many_top_level_fields": (
        lambda: parse(json.dumps({"qubits": 1, "gates": [], **{f"k{i}": 1 for i in range(10**4)}})),
        SchemaError, "top level: unknown field(s) a list of length 10000"),
    "transpile_long_rule": (
        lambda: transpile(Circuit(3, ()), describe_fusion_gate("CNOT"), ["compress"] * 10**4),
        ValueError, "unknown rule a list of length 10000, expected 'compress' or 'expand'"),
    # a' a overflows past about 1e154; the suite turns numpy's warning into an error
    "gate_instance_overflowing_matrix": (
        lambda: GateInstance("custom", (0, 1), matrix=_HUGE), SchemaError,
        "matrix: not unitary within 1e-10"),
    "parse_overflowing_matrix": (
        lambda: parse(json.dumps({"qubits": 2, "gates": [
            {"name": "custom", "wires": [0, 1], "matrix": [[[x, 0] for x in row]
                                                           for row in _HUGE.tolist()]}]})),
        SchemaError, "gates[0].matrix: not unitary within 1e-10"),
    "certify_overflowing_matrix": (
        lambda: certify(_HUGE), NonUnitaryError,
        "candidate gate is not unitary; certification refused"),
    "describe_fusion_gate_overflowing_matrix": (
        lambda: describe_fusion_gate(matrix=_HUGE), SchemaError,
        "fusion gate 'custom': matrix: not unitary within 1e-10"),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_CALLS))
def test_hostile_arguments_raise_the_documented_class(name):
    call, error, message = HOSTILE_CALLS[name]
    with pytest.raises(Exception) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message


_CNOT_DESCRIPTOR = describe_fusion_gate("CNOT")

#: Every public caller of a refusal that names a caller's value, its type or
#: a table key: the hostile value's slot, the documented class, and how many
#: times its message names the value.
REFUSING_CALLERS = {
    "check_circuit": (serialize, SchemaError, 0),
    "group_algebra_fusion": (group_algebra_fusion, InvalidGroupError, 0),
    "direct_product": (lambda v: CayleyTable.direct_product(CayleyTable.cyclic(2), v),
                       InvalidGroupError, 0),
    "fusion_gate": (FusionGateDescriptor, SchemaError, 0),
    "descriptor": (lambda v: find_compress_sites(Circuit(3, ()), v), UncertifiedGateError, 0),
    "parse_text": (parse, SchemaError, 0),
    "family": (lambda v: constraints(v, (0.1, 0.2, 0.3)), ValueError, 1),
    "rule": (lambda v: transpile(Circuit(3, ()), _CNOT_DESCRIPTOR, v), ValueError, 1),
    "standard_gate": (standard_gate, UnknownGateError, 1),
    "gate_matrix": (gate_matrix, UnknownGateError, 1),
    "rotation_axis": (lambda v: rotation(v, 0.0), ValueError, 1),
    "tolerance": (lambda v: certify(I4, tol=v), ValueError, 1),
    "params": (lambda v: GateInstance("RZ", (0,), v), SchemaError, 1),
    "embed_wires": (lambda v: embed(I2, v, 1), WireError, 1),
    "gate_wires": (lambda v: GateInstance("X", v), SchemaError, 1),
    "gate_name": (lambda v: GateInstance(v, (0,)), SchemaError, 1),
    "describe_fusion_gate": (describe_fusion_gate, SchemaError, 1),
}

#: Values no caller above accepts. No table has a key made of these
#: characters, and a list holds only entries no reader takes.
HOSTILE_VALUES = st.one_of(
    st.sampled_from([None, True, False, {0, 1}, {"a": 1}, 10**400, -10**400, 10**5000,
                     np.array(0.5), np.ones(1000)]),
    st.builds(lambda n, c: c * n, st.integers(1, 10**5), st.sampled_from(["Q", "é", "\x00", "'"])),
    st.builds(lambda n, item: [item] * n, st.integers(0, 10**4), st.sampled_from([None, "Q"])),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(caller=st.sampled_from(sorted(REFUSING_CALLERS)), value=HOSTILE_VALUES)
@example(caller="describe_fusion_gate", value="y" * 497)  # a repr just under the bound
def test_refusals_of_hostile_values_are_bounded(caller, value):
    """Every refusal raises its documented class, and its message holds at
    most 100 characters of its own and 500 for each time it names the value."""
    call, error, names = REFUSING_CALLERS[caller]
    with pytest.raises(error) as caught:
        call(value)
    assert len(str(caught.value)) <= 100 + 500 * names


class TestNormsAndUnitarity:
    def test_frobenius_of_identity(self):
        assert frobenius_norm(I4) == 2.0

    def test_swap_is_unitary(self):
        assert is_unitary(SWAP, 1e-12)

    def test_scaled_identity_is_not(self):
        # ||(2I)'(2I) - I||_F = ||3 I_2||_F = 3 sqrt(2)
        assert not is_unitary(2 * I2, 1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            is_unitary(np.ones((2, 3)))

    @pytest.mark.parametrize("tol", [1e-10, 1e300])
    def test_overflowing_entries_are_not_unitary(self, tol):
        # a' a overflows to inf or nan, so the norm is never below tol, and
        # no warning escapes
        assert not is_unitary(1e200 * I4, tol)
        assert not is_unitary(np.full((2, 2), 1e160), tol)

    def test_permutation_rows_accepts_exactly_the_permutation_matrices(self):
        # every 4x4 0/1 matrix with four ones: only the 24 permutations pass,
        # and each is exactly unitary, which certify relies on
        accepted = []
        for cells in itertools.combinations(range(16), 4):
            m = np.zeros(16, dtype=complex)
            m[list(cells)] = 1
            m = m.reshape(4, 4)
            if (rows := _permutation_rows(m)) is not None:
                assert np.array_equal(m, I4[list(rows)])
                assert np.array_equal(m.conj().T @ m, I4)
                accepted.append(tuple(rows))
        assert sorted(accepted) == sorted(itertools.permutations(range(4)))

    def test_matrices_equal_exact_and_tolerant(self):
        assert matrices_equal(I2, I2, 0.0)
        assert matrices_equal(I2, I2 + 1e-12, 1e-11)
        assert not matrices_equal(I2, I2 + 1e-12, 1e-13)
        assert not matrices_equal(I2, I4, 1.0)


class TestPhaseDistance:
    def test_identical(self):
        assert phase_distance(I4, I4) == 0.0

    def test_global_sign(self):
        assert phase_distance(I4, -I4) == 0.0

    def test_orthogonal_traceless_pair(self):
        # tr(sigma_z' I) = 0, so the distance is sqrt(2 + 2) = 2
        assert phase_distance(I2, standard_gate("Z")) == pytest.approx(2.0, abs=1e-15)

    def test_zero_iff_phase_related(self, rng):
        for _ in range(20):
            u = haar_unitary(4, rng)
            phi = np.exp(1j * rng.uniform(0, 2 * math.pi))
            assert phase_distance(u, phi * u) < 1e-12
            v = haar_unitary(4, rng)
            perturbed = u + 1e-6 * v
            assert phase_distance(u, phi * perturbed) > 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            phase_distance(I2, I4)

    def test_matches_closed_form(self, rng):
        # sqrt(||a||^2 + ||b||^2 - 2 |tr(b' a)|), overlap from the full product
        for dim in (2, 4, 8, 16):
            for _ in range(10):
                a = haar_unitary(dim, rng) + 0.5 * haar_unitary(dim, rng)
                b = haar_unitary(dim, rng)
                overlap = abs(np.trace(b.conj().T @ a))
                closed = math.sqrt(
                    np.linalg.norm(a) ** 2 + np.linalg.norm(b) ** 2 - 2 * overlap
                )
                assert phase_distance(a, b) == pytest.approx(closed, rel=1e-12, abs=1e-12)

    def test_invariant_under_global_phase(self, rng):
        for _ in range(20):
            a, b = haar_unitary(8, rng), haar_unitary(8, rng)
            phi, psi = np.exp(1j * rng.uniform(0, 2 * math.pi, size=2))
            assert phase_distance(phi * a, psi * b) == pytest.approx(
                phase_distance(a, b), rel=1e-12
            )
