"""Circuit representation, JSON serialization, simulation, and routing.

JSON schema (UTF-8, no comments):

    {"qubits": <int>, "gates": [GATE, ...]}
    GATE = {"name": <string>,
            "wires": [<int>, ...],
            "params": [<number>, ...],            # optional
            "matrix": [[[re, im], ...], ...]}     # required iff name == "custom"

Gate order is execution order: ``gates[0]`` acts first, so the register
unitary is the reverse-order product of the embedded gate matrices.
Serialization is canonical: fixed field order, floats with 17 significant
digits, so equal circuits serialize to identical bytes. Parameters and
custom-matrix entries must be finite.

Simulation builds the full register unitary by tensor contraction: the
unitary is held as a ``(2,) * n + (2**n,)`` tensor and each k-qubit gate
is contracted into the axes of its wires, costing O(2**k * 4**n) per gate
instead of the O(8**n) of multiplying by an embedded 2**n x 2**n gate.
Registers stay capped at 12 qubits, because the result is still a dense
2**n x 2**n matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import json
import math

import numpy as np

from . import jsonio
from .errors import DimensionError, SchemaError, UnknownGateError
from .gates import gate_arity, gate_matrix, parameter_count
from .linalg import (
    DEFAULT_TOLERANCE,
    MAX_QUBITS,
    as_matrix,
    check_tolerance,
    is_unitary,
    phase_distance,
)

#: Custom gate matrices must be unitary within this bound.
CUSTOM_UNITARY_TOLERANCE = 1e-10

CUSTOM = "custom"


@dataclass(frozen=True, eq=False)
class GateInstance:
    """A named, parametrized gate applied to an ordered tuple of wires."""

    name: str
    wires: tuple[int, ...]
    params: tuple[float, ...] = ()
    matrix: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "wires", tuple(int(w) for w in self.wires))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if not all(map(math.isfinite, self.params)):
            raise SchemaError(f"params: must be finite, got {list(self.params)}")
        if self.matrix is not None:
            object.__setattr__(self, "matrix", as_matrix(self.matrix))
            if not np.isfinite(self.matrix).all():
                raise SchemaError("matrix: entries must be finite")


def resolved_matrix(gate: GateInstance) -> np.ndarray:
    """The unitary a gate instance denotes."""
    if gate.name == CUSTOM:
        return gate.matrix
    return gate_matrix(gate.name, gate.params)


def _validate_gate(gate: GateInstance, num_qubits: int, where: str) -> None:
    wires = gate.wires
    if not wires:
        raise SchemaError(f"{where}.wires: must list at least one wire")
    if len(set(wires)) != len(wires):
        raise SchemaError(f"{where}.wires: duplicate wire in {list(wires)}")
    for w in wires:
        if not 0 <= w < num_qubits:
            raise SchemaError(
                f"{where}.wires: wire {w} out of range for {num_qubits} qubits"
            )
    if gate.name == CUSTOM:
        if gate.matrix is None:
            raise SchemaError(f"{where}.matrix: required for custom gates")
        dim = 2 ** len(wires)
        if gate.matrix.shape != (dim, dim):
            raise SchemaError(
                f"{where}.matrix: expected {dim}x{dim} for {len(wires)} wires, "
                f"got {gate.matrix.shape[0]}x{gate.matrix.shape[1]}"
            )
        if gate.params:
            raise SchemaError(f"{where}.params: custom gates take no parameters")
        if not is_unitary(gate.matrix, CUSTOM_UNITARY_TOLERANCE):
            raise SchemaError(f"{where}.matrix: not unitary within {CUSTOM_UNITARY_TOLERANCE}")
        return
    if gate.matrix is not None:
        raise SchemaError(f"{where}.matrix: only allowed for custom gates")
    try:
        arity = gate_arity(gate.name)
        expected = parameter_count(gate.name)
    except UnknownGateError:
        raise SchemaError(f"{where}.name: unknown gate {gate.name!r}") from None
    if len(wires) != arity:
        raise SchemaError(
            f"{where}.wires: gate {gate.name!r} acts on {arity} wire(s), got {len(wires)}"
        )
    if len(gate.params) != expected:
        raise SchemaError(
            f"{where}.params: gate {gate.name!r} takes {expected} parameter(s), "
            f"got {len(gate.params)}"
        )


@dataclass(frozen=True, eq=False)
class Circuit:
    """An ordered gate list over a fixed register; index 0 acts first."""

    num_qubits: int
    gates: tuple[GateInstance, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        n = self.num_qubits
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
            raise SchemaError(f"qubits: must be a positive integer, got {n!r}")
        if n > MAX_QUBITS:
            raise SchemaError(f"qubits: register of {n} exceeds the {MAX_QUBITS}-qubit cap")
        for i, gate in enumerate(self.gates):
            if not isinstance(gate, GateInstance):
                raise SchemaError(f"gates[{i}]: not a GateInstance")
            _validate_gate(gate, n, f"gates[{i}]")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise SchemaError(f"{where}: expected a finite number, got {value!r}")
    return value


def _decode_matrix(raw, where: str) -> np.ndarray:
    _require(isinstance(raw, list) and raw, f"{where}: expected a non-empty array of rows")
    rows = []
    for i, row in enumerate(raw):
        _require(isinstance(row, list), f"{where}[{i}]: expected an array")
        entries = []
        for j, pair in enumerate(row):
            _require(
                isinstance(pair, list) and len(pair) == 2,
                f"{where}[{i}][{j}]: expected an [re, im] pair",
            )
            entries.append(
                complex(_number(pair[0], f"{where}[{i}][{j}][0]"),
                        _number(pair[1], f"{where}[{i}][{j}][1]"))
            )
        rows.append(entries)
    _require(all(len(r) == len(rows) for r in rows), f"{where}: matrix must be square")
    return np.array(rows, dtype=np.complex128)


_GATE_KEYS = {"name", "wires", "params", "matrix"}


def parse(text: str) -> Circuit:
    """Parse circuit JSON, with field-level diagnostics on schema errors."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    _require(isinstance(data, dict), "top level: expected an object")
    unknown = set(data) - {"qubits", "gates"}
    _require(not unknown, f"top level: unknown field(s) {sorted(unknown)}")
    _require("qubits" in data, "qubits: missing")
    _require("gates" in data, "gates: missing")
    qubits = data["qubits"]
    _require(
        isinstance(qubits, int) and not isinstance(qubits, bool),
        f"qubits: expected an integer, got {qubits!r}",
    )
    raw_gates = data["gates"]
    _require(isinstance(raw_gates, list), "gates: expected an array")
    gates = []
    for i, raw in enumerate(raw_gates):
        where = f"gates[{i}]"
        _require(isinstance(raw, dict), f"{where}: expected an object")
        unknown = set(raw) - _GATE_KEYS
        _require(not unknown, f"{where}: unknown field(s) {sorted(unknown)}")
        _require("name" in raw, f"{where}.name: missing")
        _require(isinstance(raw["name"], str), f"{where}.name: expected a string")
        _require("wires" in raw, f"{where}.wires: missing")
        _require(isinstance(raw["wires"], list), f"{where}.wires: expected an array")
        wires = []
        for j, w in enumerate(raw["wires"]):
            _require(
                isinstance(w, int) and not isinstance(w, bool),
                f"{where}.wires[{j}]: expected an integer, got {w!r}",
            )
            wires.append(w)
        params = []
        if "params" in raw:
            _require(isinstance(raw["params"], list), f"{where}.params: expected an array")
            params = [
                _number(p, f"{where}.params[{j}]") for j, p in enumerate(raw["params"])
            ]
        matrix = None
        if "matrix" in raw:
            _require(
                raw["name"] == CUSTOM, f"{where}.matrix: only allowed for custom gates"
            )
            matrix = _decode_matrix(raw["matrix"], f"{where}.matrix")
        gates.append(GateInstance(raw["name"], tuple(wires), tuple(params), matrix))
    return Circuit(qubits, tuple(gates))


def serialize(circuit: Circuit) -> str:
    """Canonical JSON text for a circuit; byte-stable across round trips."""
    doc_gates = []
    for gate in circuit.gates:
        entry: dict = {"name": gate.name, "wires": list(gate.wires)}
        if gate.params:
            entry["params"] = list(gate.params)
        if gate.name == CUSTOM:
            entry["matrix"] = [
                [jsonio.complex_pair(z) for z in row] for row in gate.matrix
            ]
        doc_gates.append(entry)
    return jsonio.dumps({"qubits": circuit.num_qubits, "gates": doc_gates})


def circuits_identical(a: Circuit, b: Circuit) -> bool:
    """Gate-exact structural equality, via canonical serialization."""
    return serialize(a) == serialize(b)


def to_unitary(circuit: Circuit) -> np.ndarray:
    """Full register unitary; gate 0 is applied first.

    Row axis j of the ``(2,) * n + (2**n,)`` tensor is wire j. A k-qubit
    gate, reshaped to ``(2,) * 2k``, contracts its k input axes with the
    axes of its wires; the k output axes land in front and move back to
    those wire positions.
    """
    n = circuit.num_qubits
    dim = 2**n
    u = np.eye(dim, dtype=np.complex128).reshape((2,) * n + (dim,))
    for gate in circuit.gates:
        k = len(gate.wires)
        g = resolved_matrix(gate).reshape((2,) * (2 * k))
        u = np.tensordot(g, u, axes=(range(k, 2 * k), gate.wires))
        u = np.moveaxis(u, range(k), gate.wires)
    return u.reshape(dim, dim)


def equivalent_up_to_phase(a: Circuit, b: Circuit, tol: float = DEFAULT_TOLERANCE) -> bool:
    """True iff the two circuit unitaries agree up to a global phase."""
    check_tolerance(tol)
    if a.num_qubits != b.num_qubits:
        raise DimensionError(
            f"register mismatch: {a.num_qubits} vs {b.num_qubits} qubits"
        )
    return phase_distance(to_unitary(a), to_unitary(b)) < tol


def depth(circuit: Circuit) -> int:
    """Number of layers under earliest-possible (ASAP) scheduling."""
    level = [0] * circuit.num_qubits
    total = 0
    for gate in circuit.gates:
        layer = max(level[w] for w in gate.wires) + 1
        for w in gate.wires:
            level[w] = layer
        total = max(total, layer)
    return total


def _swap(a: int, b: int) -> GateInstance:
    return GateInstance("SWAP", (a, b))


def route_line(circuit: Circuit) -> Circuit:
    """Replace non-adjacent two-qubit gates by SWAP-conjugated local ones.

    For a gate on wires (a, b) with |a - b| >= 2 the state of wire b is
    swapped step by step to the neighbor of a on b's side, the gate acts
    there, and the chain is undone, costing 2(|a - b| - 1) SWAPs. Output
    circuits contain only adjacent-wire two-qubit gates and are exactly
    equivalent to the input. Gates on one wire or on three or more wires
    pass through untouched.
    """
    routed: list[GateInstance] = []
    for gate in circuit.gates:
        if len(gate.wires) != 2 or abs(gate.wires[0] - gate.wires[1]) < 2:
            routed.append(gate)
            continue
        a, b = gate.wires
        if b > a:
            chain = [_swap(j - 1, j) for j in range(b, a + 1, -1)]
            target = a + 1
        else:
            chain = [_swap(j, j + 1) for j in range(b, a - 1)]
            target = a - 1
        routed.extend(chain)
        routed.append(GateInstance(gate.name, (a, target), gate.params, gate.matrix))
        routed.extend(reversed(chain))
    return Circuit(circuit.num_qubits, tuple(routed))


def circuit_stats(circuit: Circuit) -> dict:
    """Gate count, depth, two-qubit count, and non-local two-qubit count."""
    two_qubit = [g for g in circuit.gates if len(g.wires) == 2]
    nonlocal_count = sum(1 for g in two_qubit if abs(g.wires[0] - g.wires[1]) >= 2)
    return {
        "gate_count": len(circuit.gates),
        "depth": depth(circuit),
        "two_qubit_count": len(two_qubit),
        "nonlocal_count": nonlocal_count,
    }
