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
custom-matrix entries must be finite. ``serialize`` writes each gate as one
string in ``jsonio.dumps``' format; ``jsonio.dumps`` itself serves reports.

Gates are frozen and a custom gate's matrix is read-only, so equal gates
may be one object, and each distinct gate is built and checked once per
call: ``parse`` keys gates without parameters by their JSON content,
``route_line`` builds each relocated gate once, and ``serialize`` writes
each gate without parameters once. ``Circuit`` checks the register in one
ordered walk over its gates, an isinstance test and a wire range test
each, and names the first bad index.

``parse`` checks only what JSON adds to the constructors' rules: that the
top level and each gate are objects of known fields, that ``gates`` is an
array and that a matrix is an array of [re, im] pairs. Every other fault,
a missing or mistyped field or register size among them, is the one
``GateInstance`` or ``Circuit`` raises, under the gate's ``gates[i].``
prefix. ``parse`` costs little more per gate than the JSON decode and the
checks themselves, and ``GateInstance`` stores each field once, after its
checks. The cyclic garbage collector is paused while ``parse`` runs, since
none of the containers it allocates forms a cycle.

Every function that reads a circuit takes only a ``Circuit``
(``check_circuit``) and raises SchemaError naming the type of anything else.

Simulation builds the full register unitary by tensor contraction: each
k-qubit gate is contracted into the rows of its wires, costing
O(2**k * 4**n) per gate instead of the O(8**n) of multiplying by an
embedded 2**n x 2**n gate. One walker, ``_run``, reads a gate list: from
a position to the next dense gate, it resolves each gate and composes each
run of permutation gates, whose matrix has only exact 0 and 1 entries with
one 1 per row and per column (X, CNOT, SWAP, permutation custom gates;
``linalg._permutation_rows``), into one integer row map, O(2**n) integers
and no register data: the product would add ``1 * x`` to exact zeros, so
relabelling gives its values, and only the sign of a zero entry can
differ. A permutation gate's row map is its rows lifted onto its wires
by ``linalg._row_map``, the layer the pentagon certifier lifts with too.
A named gate's matrix and its class are cached per name and parameters,
and a qubit row map per register size, wires and rows, both in bounded
caches, so no gate object holds a row map.
``to_unitary`` simulates as it walks, in two register-sized buffers with a
row map beside them: register row r is row ``at[r]`` of the held buffer.
Any other gate gathers its operand through the map into the free buffer,
the gate's wires leading, and ``np.dot`` writes the product back, the
call and operands ``np.tensordot`` would use, so the same values. The
rows are put in order once, at the end.

``circuit_distance`` walks the two gate lists in lockstep
(``_same_unitary``) and proves ``U_b == U_a`` without simulating when
``b`` differs from ``a`` by permutation gates alone that cancel: each
dense gate is the same on both sides, the relative row map commutes with
it, and the map ends as the identity. Where the two lists hold the same
gate (``_gate_key``) and the map is the identity, the walk steps past it
without resolving it, so its cost grows with the gates the lists do not
share. A rewrite with a permutation fusion gate (CNOT, the group fusion
operators) is such a pair, so verifying it simulates nothing. Any other
pair is simulated twice. Registers stay capped at 12 qubits, because the
result is still a dense 2**n x 2**n matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import functools
import gc
import json
import math
import sys

import numpy as np

from . import jsonio, linalg
from .errors import DimensionError, SchemaError, UnknownGateError
from .gates import GATES
from .linalg import (MAX_QUBITS, _orders, _permutation_rows, _shown, as_matrix, as_sequence,
                     check_integer, check_wires, finite, instance, is_unitary, phase_distance,
                     reals)

#: Custom gate matrices must be unitary within this bound.
CUSTOM_UNITARY_TOLERANCE = 1e-10

CUSTOM = "custom"


@dataclass(frozen=True, eq=False, slots=True)
class GateInstance:
    """A named, parametrized gate applied to an ordered tuple of wires.

    Construction is the one place a gate is checked, in this order: the
    name is a string; the wires pass ``linalg.check_wires`` (a sequence of
    integers, at least one, no duplicate; numpy ints are stored as Python
    ints); the parameters pass ``linalg.reals``: a sequence (a list, tuple
    or numpy array, never a set, dict, string, scalar or 0-d array) of
    finite real numbers, stored as floats with -0.0 read as 0.0. A custom
    gate then needs a finite ``2**k x 2**k`` matrix for its k wires, no
    parameters, and unitarity within ``CUSTOM_UNITARY_TOLERANCE``. A named
    gate takes no matrix, and its wire and parameter counts must match
    ``GATES``. The first failing check raises SchemaError with a message
    relative to the field, such as ``"params: expected a sequence, got
    {0.5}"`` or ``"params[0]: expected a finite number, got inf"``; an
    unknown name raises its subclass UnknownGateError, as ``gate_matrix``
    does, and a matrix numpy cannot read as numbers (``linalg.as_matrix``)
    raises SchemaError too.

    The constructor is written out rather than generated: it keeps the
    generated signature and stores each field once, after every check has
    passed, through the slot's own setter, as the class is frozen.
    """

    name: str
    wires: tuple[int, ...]
    params: tuple[float, ...] = ()
    matrix: np.ndarray | None = None

    def __init__(self, name: str, wires, params=(), matrix=None):
        if not isinstance(name, str):
            raise SchemaError(f"name: expected a string, got {_shown(name)}")
        wires = check_wires(wires, SchemaError)
        if type(params) is not tuple:  # fast path: a list, as JSON gives it
            params = tuple(params) if type(params) is list else reals(params, "params", SchemaError)
        # Fast path: nonzero finite plain floats are already in stored form;
        # anything else takes the full check and conversion. Adding 0.0 turns
        # -0.0 into 0.0: JSON reads the "-0" that -0.0 serializes to as the
        # integer 0, so a signed zero would not survive a round trip and the
        # serialized form would not be canonical.
        for p in params:
            if type(p) is not float or not (math.isfinite(p) and p != 0.0):
                params = tuple(p + 0.0 for p in reals(params, "params", SchemaError))
                break
        if name == CUSTOM:
            if matrix is None:
                raise SchemaError("matrix: required for custom gates")
            matrix = np.ascontiguousarray(as_matrix(matrix, SchemaError) + 0.0)
            matrix.flags.writeable = False  # equal gates may share it
            if not np.isfinite(matrix).all():
                raise SchemaError("matrix: entries must be finite")
            dim = 2 ** len(wires)
            if matrix.shape != (dim, dim):
                raise SchemaError(
                    f"matrix: expected {dim}x{dim} for {len(wires)} wires, "
                    f"got {matrix.shape[0]}x{matrix.shape[1]}"
                )
            if params:
                raise SchemaError("params: custom gates take no parameters")
            if not is_unitary(matrix, CUSTOM_UNITARY_TOLERANCE):
                raise SchemaError(f"matrix: not unitary within {CUSTOM_UNITARY_TOLERANCE}")
        else:
            if matrix is not None:
                raise SchemaError("matrix: only allowed for custom gates")
            spec = GATES.get(name)
            if spec is None:
                raise UnknownGateError(f"name: unknown gate {_shown(name)}")
            arity, expected, _ = spec
            if len(wires) != arity:
                raise SchemaError(
                    f"wires: gate {name!r} acts on {arity} wire(s), got {len(wires)}"
                )
            if len(params) != expected:
                raise SchemaError(
                    f"params: gate {name!r} takes {expected} parameter(s), got {len(params)}"
                )
        _store_name(self, name)
        _store_wires(self, wires)
        _store_params(self, params)
        _store_matrix(self, matrix)


# The slots' own setters. The frozen class refuses attribute assignment; these
# store past it, as ``object.__setattr__`` would, without its name lookup.
_store_name, _store_wires, _store_params, _store_matrix = (
    GateInstance.__dict__[f].__set__ for f in ("name", "wires", "params", "matrix")
)


def resolved_matrix(gate: GateInstance) -> np.ndarray:
    """The read-only unitary a gate instance denotes, as simulation reads it.

    The gate's parameters were checked when it was built, so its
    constructor in ``GATES`` builds the matrix without checking them again,
    once per name and parameters (``_classified``).
    """
    return gate.matrix if gate.name == CUSTOM else _classified(gate.name, gate.params)[0]


@dataclass(frozen=True, eq=False)
class Circuit:
    """An ordered gate list over a fixed register; index 0 acts first.

    Each gate was checked when it was built; the circuit checks only what
    needs the register: its size and that every wire lies in it. The gates
    come as a sequence (``linalg.as_sequence``), so a set is never read in
    an order of its own.
    """

    num_qubits: int
    gates: tuple[GateInstance, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "gates", as_sequence(self.gates, "gates", SchemaError))
        n = self.num_qubits
        check_integer(n, "qubits:", error=SchemaError)
        if n > MAX_QUBITS:
            raise SchemaError(
                f"qubits: register of {_shown(int(n))} exceeds the {MAX_QUBITS}-qubit cap")
        for i, gate in enumerate(self.gates):
            if not isinstance(gate, GateInstance):
                raise SchemaError(f"gates[{i}]: not a GateInstance")
            for w in gate.wires:
                if not 0 <= w < n:
                    raise SchemaError(
                        f"gates[{i}].wires: wire {_shown(w)} out of range for {n} qubits")


def check_circuit(circuit) -> Circuit:
    """``circuit`` itself; SchemaError naming its type unless a ``Circuit``."""
    return instance(circuit, Circuit, "circuit", SchemaError)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _decode_matrix(raw, where: str) -> np.ndarray:
    """A JSON square array of [re, im] pairs as a complex matrix.

    Each check builds its message only when it fails.
    """
    if not (isinstance(raw, list) and raw):
        raise SchemaError(f"{where}: expected a non-empty array of rows")
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list):
            raise SchemaError(f"{where}[{i}]: expected an array")
        entries = []
        for j, pair in enumerate(row):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise SchemaError(f"{where}[{i}][{j}]: expected an [re, im] pair")
            try:
                entries.append(complex(finite(pair[0], "[0]", SchemaError),
                                       finite(pair[1], "[1]", SchemaError)))
            except SchemaError as exc:
                raise SchemaError(f"{where}[{i}][{j}]{exc}") from None
        rows.append(entries)
    if any(len(r) != len(rows) for r in rows):
        raise SchemaError(f"{where}: matrix must be square")
    return np.array(rows, dtype=np.complex128)


def _load_json(text: str):
    """``json.loads``, raising SchemaError on a non-str, bad syntax, deep nesting or
    overlong integers."""
    instance(text, str, "invalid JSON", SchemaError)  # before the try: SchemaError is a ValueError
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise SchemaError("invalid JSON: arrays or objects nested too deeply") from None
    except ValueError:  # json.loads refuses integers past the interpreter's digit limit
        raise SchemaError(
            f"invalid JSON: integer literal longer than {sys.get_int_max_str_digits()} digits"
        ) from None


def parse_matrix(text: str, where: str) -> np.ndarray:
    """Parse a JSON square array of [re, im] pairs, as custom gates hold them."""
    return _decode_matrix(_load_json(text), where)


_GATE_KEYS = frozenset(("name", "wires", "params", "matrix"))


def _plain_key(raw) -> tuple | None:
    """The key of a plain-typed gate, or None: equal keys mean equal checks.

    A gate is plain-typed when its name is a string, every wire is exactly
    an int and it has no ``params`` field. A bool wire never builds a key,
    since ``True == 1`` and the two hash alike; the matrix enters as its
    ``repr``, which tells ``True``, ``1``, ``1.0`` and ``-0.0`` apart.
    """
    if type(raw) is dict and "params" not in raw and len(raw) == 2 + ("matrix" in raw):
        name, wires = raw.get("name"), raw.get("wires")
        if type(name) is str and type(wires) is list:
            for w in wires:
                if type(w) is not int:
                    return None
            return (name, *wires) if len(raw) == 2 else (name, repr(raw["matrix"]), *wires)
    return None


def _gate(raw, i: int) -> GateInstance:
    """Gate ``i`` of the JSON gate list, built and checked.

    The one shape test here is that ``raw`` is an object of known fields.
    A missing field reads as None, which ``GateInstance`` refuses as it
    refuses any other value of the wrong type; its message, or the
    matrix decoder's, gets the ``gates[i].`` prefix.
    """
    if type(raw) is not dict:
        raise SchemaError(f"gates[{i}]: expected an object")
    if not raw.keys() <= _GATE_KEYS:
        raise SchemaError(f"gates[{i}]: unknown field(s) {_shown(sorted(raw.keys() - _GATE_KEYS))}")
    try:
        matrix = _decode_matrix(raw["matrix"], "matrix") if "matrix" in raw else None
        return GateInstance(raw.get("name"), raw.get("wires"), raw.get("params", ()), matrix)
    except SchemaError as exc:
        raise type(exc)(f"gates[{i}].{exc}") from None


def parse(text: str) -> Circuit:
    """Parse circuit JSON, with field-level diagnostics on schema errors.

    Python's cyclic garbage collector is paused while the text is decoded
    and the circuit built. That allocates about two containers per gate,
    none of them in a cycle, so the collections the allocations would
    trigger walk them for nothing. The collector's state from before the
    call is restored on every exit, a SchemaError included: a caller that
    disabled it finds it disabled. The collector is one per process, so a
    ``parse`` running in another thread may re-enable it when it ends, and
    this call then loses the pause; the collector decides no check, so no
    result changes. Likewise, a thread that disables the collector while a
    ``parse`` runs may find it enabled again when that parse ends.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse(text)
    finally:
        if enabled:
            gc.enable()


def _parse(text: str) -> Circuit:
    data = _load_json(text)
    _require(isinstance(data, dict), "top level: expected an object")
    unknown = set(data) - {"qubits", "gates"}
    _require(not unknown, f"top level: unknown field(s) {_shown(sorted(unknown))}")
    _require("gates" in data, "gates: missing")
    raw_gates = data["gates"]
    _require(isinstance(raw_gates, list), "gates: expected an array")
    gates, built = [], {}  # a plain-typed gate's key -> its checked gate
    for i, raw in enumerate(raw_gates):
        key = _plain_key(raw)
        if (gate := built.get(key)) is None:
            gate = _gate(raw, i)
            if key:
                built[key] = gate
        gates.append(gate)
    return Circuit(data.get("qubits"), tuple(gates))


#: Each gate name as a JSON string.
_QUOTED = {name: json.dumps(name) for name in (*GATES, CUSTOM)}


def serialize(circuit: Circuit) -> str:
    """Canonical JSON text for a circuit; byte-stable across round trips.

    Each gate is written as one string, in the field order, separators and
    float format (``jsonio.format_float``) of ``jsonio.dumps``. A gate
    without parameters is written once per call: a named one per name and
    wires, a custom one per object.
    """
    fmt = jsonio.format_float
    parts, texts = [], {}
    for gate in check_circuit(circuit).gates:
        key = None if gate.params else gate if gate.name == CUSTOM else (gate.name, gate.wires)
        if (text := texts.get(key)) is None:
            text = f'{{"name": {_QUOTED[gate.name]}, "wires": [{", ".join(map(str, gate.wires))}]'
            if gate.params:
                text += f', "params": [{", ".join(map(fmt, gate.params))}]'
            if gate.name == CUSTOM:
                rows = (", ".join(f"[{fmt(z.real)}, {fmt(z.imag)}]" for z in row)
                        for row in gate.matrix.tolist())
                text += f', "matrix": [[{"], [".join(rows)}]]'
            if key is not None:
                texts[key] = text
        parts.append(text + "}")
    return f'{{"qubits": {int(circuit.num_qubits)}, "gates": [{", ".join(parts)}]}}'


#: Bound of the ``_row_map`` cache. An entry holds ``2**n`` integers, 32 KiB
#: at 12 qubits, so the cache holds at most 8 MiB. It caches qubit lifts
#: only; ``linalg._row_map`` itself keeps none.
_ROW_MAPS_CACHED = 256

_row_map = functools.lru_cache(maxsize=_ROW_MAPS_CACHED)(linalg._row_map)


#: Bound of the ``_classified`` cache. An entry holds a named gate's matrix,
#: at most 4x4 entries or 256 bytes, so the cache holds at most 256 KiB.
_CLASSIFIED_CACHED = 1024


@functools.lru_cache(maxsize=_CLASSIFIED_CACHED)
def _classified(name: str, params: tuple[float, ...]) -> tuple[np.ndarray, tuple[int, ...] | None]:
    """The read-only matrix of the named gate ``name`` with ``params``, and its
    ``_permutation_rows`` as a tuple, or None when it is dense."""
    m = GATES[name][2](*params)
    m.flags.writeable = False
    return m, _permutation_rows(m)


def _run(n: int, gates: tuple[GateInstance, ...], i: int) -> tuple[int, np.ndarray | None, np.ndarray | None]:
    """``(k, at, m)``: the index k of the first dense gate from gate ``i`` on,
    the row map ``at`` of the permutation gates before it (None for the
    identity) and its resolved matrix ``m``; ``m`` is None and k is
    ``len(gates)`` when no dense gate is left.

    A gate is a permutation gate when its resolved matrix passes
    ``_permutation_rows``: X, CNOT and SWAP, and also RZ(0), XX(0) and a
    custom identity. A row map ``at`` turns a register unitary U into the
    one whose row r is ``U[at[r]]``, so the run composes as ``at[moved]``.
    Both kinds of matrix are C-contiguous, as tensordot's reshape passes
    them: a named gate's is built fresh, a custom gate's is stored so.
    """
    at = None
    for k in range(i, len(gates)):
        gate = gates[k]
        m, rows = (_classified(gate.name, gate.params) if gate.name != CUSTOM
                   else (gate.matrix, _permutation_rows(gate.matrix)))
        if rows is None:
            return k, at, m
        moved = _row_map(n, gate.wires, rows)
        at = moved if at is None else at[moved]
    return len(gates), at, None


def to_unitary(circuit: Circuit) -> np.ndarray:
    """Full register unitary; gate 0 is applied first.

    The walk reads the gates run by run (``_run``): a permutation gate
    relabels rows, any other gate is one ``np.dot`` on the register. The
    register lives in ``held``, one of two register-sized buffers, with its
    rows relabelled: register row r is row ``at[r]`` of ``held``. A run's
    row map composes into ``at`` and moves no register data. Its dense
    gate then gathers its operand through ``at`` into the free buffer, the
    gate's wires leading (``_orders``), and ``np.dot`` writes the product
    back into ``held``, which then holds the register in the operand's row
    order. At the end ``held`` is returned when ``at`` is the identity, as
    it is after no gate, and otherwise its rows are gathered into order in
    the other buffer, which is returned: C-contiguous and fresh on each
    call either way.
    """
    n, gates = check_circuit(circuit).num_qubits, circuit.gates
    held = np.eye(2**n, dtype=np.complex128)
    free = np.empty_like(held)
    at = identity = np.arange(2**n)
    i = 0
    while True:
        i, before, m = _run(n, gates, i)
        if before is not None:
            at = at[before]
        if m is None:
            break
        order, inverse = _orders(n, gates[i].wires)
        # the indices are a permutation; mode="clip" spares the bounds
        # check, whose default mode buffers ``out``
        np.take(held, at[order], axis=0, out=free, mode="clip")
        np.dot(m, free.reshape(len(m), -1), out=held.reshape(len(m), -1))
        at, i = inverse, i + 1
    if np.array_equal(at, identity):
        return held
    return np.take(held, at, axis=0, out=free, mode="clip")


def _gate_key(gate: GateInstance) -> tuple:
    """What makes two gates one gate, as a key: the name, wires and
    parameters, and a custom gate's matrix bytes."""
    return gate.name, gate.wires, gate.params, gate.matrix is not None and gate.matrix.tobytes()


def _same_unitary(a: Circuit, b: Circuit) -> bool:
    """Whether the gate lists prove ``U_b == U_a`` as matrices, without simulating.

    A relative row map ``delta``, with ``U_b[r] == U_a[delta[r]]`` for the
    gates read so far, starts as the ``identity`` object and is set back to
    it when it is the identity again at a dense step on equal wires. While
    it is, the walk steps past every position where both lists hold the
    same gate (the same object or the same ``_gate_key``), which leaves it
    the identity, resolving nothing. Then each side reads its run of
    permutation gates up to its next dense gate (``_run``), and the runs
    move ``delta``: side b's map composes on its right, the inverse of side
    a's, made by a scatter, on its left. Both sides must then hold dense
    gates whose matrices have the same bytes, and ``delta`` must carry b's
    gate onto a's: send operand row (g, x) of b's gate, g its wire bits, to
    operand row (g, f(x)) of a's, one f for every g. Then ``delta`` holds
    after both gates. The wires may differ, as where ``route_line`` moved a
    gate inside SWAP chains, and are then always checked. On equal wires
    this says ``delta`` commutes with the gate, which holds without a check
    when ``delta`` is the identity or when the gate's wires are disjoint
    from those of every permutation gate read since ``delta`` was last the
    identity, since ``delta`` then moves only those bits, as a function of
    them alone.

    True when every step holds and ``delta`` ends as the identity, whatever
    U_a's values; False when the lists differ in their number of dense
    gates, a step fails or ``delta`` ends moving a row. The registers must
    be of one size.
    """
    n, gates_a, gates_b = a.num_qubits, a.gates, b.gates
    delta = identity = np.arange(2**n)
    i = j = 0
    while True:
        if delta is identity:
            while i < len(gates_a) and j < len(gates_b) and (
                    gates_a[i] is gates_b[j] or _gate_key(gates_a[i]) == _gate_key(gates_b[j])):
                i, j = i + 1, j + 1
            support = set()
        dense_a, at_a, m_a = _run(n, gates_a, i)
        dense_b, at_b, m_b = _run(n, gates_b, j)
        for gate in gates_a[i:dense_a] + gates_b[j:dense_b]:
            support.update(gate.wires)
        if at_b is not None:
            delta = delta[at_b]
        if at_a is not None:
            inverse = np.empty_like(at_a)
            inverse[at_a] = identity  # U_a[at_a[r]] is the new U_a's row r
            delta = inverse[delta]
        if m_a is None or m_b is None:
            return m_a is None and m_b is None and np.array_equal(delta, identity)
        wires_a, wires_b = gates_a[dense_a].wires, gates_b[dense_b].wires
        if m_a.tobytes() != m_b.tobytes():
            return False
        i, j = dense_a + 1, dense_b + 1
        if wires_a == wires_b and np.array_equal(delta, identity):
            delta = identity
        elif wires_a != wires_b or not support.isdisjoint(wires_a):
            # b's operand row (g, x), g its gate's wire bits, must map to a's (g, f(x))
            rows = _orders(n, wires_a)[1][delta[_orders(n, wires_b)[0]]].reshape(len(m_a), -1)
            if not np.array_equal(rows, rows[0] + rows.shape[1] * np.arange(len(m_a))[:, None]):
                return False


def circuit_distance(a: Circuit, b: Circuit) -> float:
    """``phase_distance`` of the two circuit unitaries.

    Raises DimensionError before simulating when the registers differ.
    0.0 without simulating when ``_same_unitary`` proves the unitaries
    equal from the gate lists; otherwise both circuits are simulated,
    ``U_a`` held while ``U_b`` is simulated.
    """
    if check_circuit(a).num_qubits != check_circuit(b).num_qubits:
        raise DimensionError(
            f"register mismatch: {a.num_qubits} vs {b.num_qubits} qubits"
        )
    if _same_unitary(a, b):
        return 0.0
    return phase_distance(to_unitary(a), to_unitary(b))


def depth(circuit: Circuit) -> int:
    """Number of layers under earliest-possible (ASAP) scheduling."""
    level = [0] * check_circuit(circuit).num_qubits
    for gate in circuit.gates:
        wires = gate.wires
        if len(wires) == 2:
            a, b = wires
            la, lb = level[a], level[b]
            level[a] = level[b] = (la if la > lb else lb) + 1
        elif len(wires) == 1:
            level[wires[0]] += 1
        else:
            layer = max([level[w] for w in wires]) + 1
            for w in wires:
                level[w] = layer
    # A wire's level only grows, so the last levels hold the deepest layer.
    return max(level)


def route_line(circuit: Circuit) -> Circuit:
    """Replace non-adjacent two-qubit gates by SWAP-conjugated local ones.

    For a gate on wires (a, b) with |a - b| >= 2 the state of wire b is
    swapped step by step to the neighbor of a on b's side, the gate acts
    there, and the chain is undone, costing 2(|a - b| - 1) SWAPs. Output
    circuits contain only adjacent-wire two-qubit gates and are exactly
    equivalent to the input. Gates on one wire or on three or more wires
    pass through untouched.
    """
    n = check_circuit(circuit).num_qubits
    swaps = [GateInstance("SWAP", (j, j + 1)) for j in range(n - 1)]
    moved = {}  # (gate, target) -> the gate on (a, target), built once
    routed: list[GateInstance] = []
    for gate in circuit.gates:
        if len(gate.wires) != 2 or abs(gate.wires[0] - gate.wires[1]) < 2:
            routed.append(gate)
            continue
        a, b = gate.wires
        if b > a:
            chain = swaps[a + 1:b][::-1]  # SWAP(b-1, b) first, down to SWAP(a+1, a+2)
            target = a + 1
        else:
            chain = swaps[b:a - 1]  # SWAP(b, b+1) first, up to SWAP(a-2, a-1)
            target = a - 1
        routed.extend(chain)
        if (gate, target) not in moved:
            moved[gate, target] = GateInstance(gate.name, (a, target), gate.params, gate.matrix)
        routed.append(moved[gate, target])
        routed.extend(reversed(chain))
    return Circuit(circuit.num_qubits, tuple(routed))


def circuit_stats(circuit: Circuit) -> dict:
    """Gate count, depth, two-qubit count, and non-local two-qubit count."""
    two_qubit = [g for g in check_circuit(circuit).gates if len(g.wires) == 2]
    nonlocal_count = sum(1 for g in two_qubit if abs(g.wires[0] - g.wires[1]) >= 2)
    return {
        "gate_count": len(circuit.gates),
        "depth": depth(circuit),
        "two_qubit_count": len(two_qubit),
        "nonlocal_count": nonlocal_count,
    }
