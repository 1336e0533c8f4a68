"""Hypothesis properties of the equation layer, the stacked kernel, the
circuit serializer, circuit depth and the rewrite rules.

A permutation gate's lifts and both sides of every equation are exact 0/1
matrices, so the library must agree bitwise with the brute-force oracles
in oracles.py, which trace basis tuples and never call ``embed``, and
``certify``'s index-map path must give the dense kernel's report. The
stacked kernel runs one matrix product per slice, so its lifts, sides,
residuals and stacked gate constructors must equal the one-gate calls
bitwise as well. Against the dense lifts and products of
``conftest.dense_pentagon_stack`` the kernel must agree bitwise at d=2
and to rounding beyond. The scanner's column bound must equal the norm
of column |001> of their difference to rounding and never exceed the
kernel's residual by more than ``certify.SCAN_SLACK``. ``serialize``
must write the bytes of ``conftest.reference_serialize``, and ``depth``
must equal the ASAP layer count of ``oracles.asap_depth``.
"""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pentagate import (
    CayleyTable,
    Circuit,
    GateInstance,
    SchemaError,
    a_gate,
    check_folklore_duality,
    check_street_duality,
    certify,
    circuit_stats,
    compress,
    describe_fusion_gate,
    embed,
    expand,
    group_algebra_fusion,
    heisenberg_evolution,
    parse,
    pentagon_residual,
    phase_distance,
    serialize,
    standard_gate,
    to_unitary,
    transpile,
)
from pentagate.certify import SCAN_SLACK, CertificationReport, Witness
from pentagate.circuit import depth, parse_matrix
from pentagate.equations import (COLUMN_BOUND_PIECE, _pentagon_column_bound, pentagon_stack,
                                 permutation_solves_pentagon, ybe_residual)
from pentagate.gates import GATES
from pentagate.linalg import _permutation_rows, _row_map, twist
from pentagate.rewrite import _RULES, _apply_sites, _find_sites, _site_distance
from conftest import (
    SITES_GOLDEN,
    dense_pentagon_stack,
    golden_gates,
    haar_unitary,
    pair_circuit,
    reference_serialize,
    template_gates,
)
from oracles import (
    asap_depth,
    braid_ybe_sides,
    group_fusion_map,
    pentagon_sides,
    permutation_map,
    permutation_operator,
    residual_norm,
)

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

#: Parameters of the A-gate and Heisenberg families: several periods either way.
ANGLES = st.floats(min_value=-40.0, max_value=40.0, allow_nan=False)


@st.composite
def permutation_gates(draw, d=None, dims=(2, 3)):
    """(d, basis map, matrix) of a random permutation of C^d (x) C^d, d in ``dims``."""
    d = draw(st.sampled_from(dims)) if d is None else d
    tmap = permutation_map(draw(st.permutations(range(d * d))), d)
    return d, tmap, permutation_operator(tmap, d, 2)


@st.composite
def permutation_stacks(draw):
    """(d, basis maps, stacked matrices) of one to four permutation gates of one d."""
    d = draw(st.sampled_from((2, 3)))
    gates = draw(st.lists(permutation_gates(d), min_size=1, max_size=4))
    return d, [tmap for _, tmap, _ in gates], np.stack([t for _, _, t in gates])


def _check_stack_matches_one_gate_calls(stack, d):
    lhs, rhs, residuals = pentagon_stack(stack, d)
    assert lhs.shape == rhs.shape == (len(stack), d**3, d**3)
    assert residuals.shape == (len(stack),)
    for t, side_l, side_r, residual in zip(stack, lhs, rhs, residuals):
        res = pentagon_residual(t, d)
        assert np.array_equal(side_l, res.lhs)
        assert np.array_equal(side_r, res.rhs)
        assert residual == res.residual


@PROPERTY_SETTINGS
@given(permutation_gates())
def test_pentagon_sides_match_oracle(gate):
    d, tmap, t = gate
    res = pentagon_residual(t, d)
    lhs, rhs = pentagon_sides(tmap, d)
    assert np.array_equal(res.lhs, lhs)
    assert np.array_equal(res.rhs, rhs)


@PROPERTY_SETTINGS
@given(permutation_gates())
def test_braid_ybe_sides_match_oracle(gate):
    d, tmap, t = gate
    res = ybe_residual(t, d)
    lhs, rhs = braid_ybe_sides(tmap, d)
    assert np.array_equal(res.lhs, lhs)
    assert np.array_equal(res.rhs, rhs)


@PROPERTY_SETTINGS
@given(permutation_gates())
def test_street_and_folklore_dualities(gate):
    d, _, t = gate
    assert check_street_duality(t, d)
    assert check_folklore_duality(t, d)


_FACTORS = [CayleyTable.cyclic(n) for n in range(1, 13)] + [CayleyTable.symmetric(n)
                                                            for n in range(4)]
#: The cyclic and symmetric groups of order at most 12, and their direct products.
CYCLIC_SYMMETRIC_PRODUCTS = _FACTORS + [CayleyTable.direct_product(g, h) for g in _FACTORS
                                        for h in _FACTORS if g.order * h.order <= 12]


@st.composite
def group_operators(draw):
    """(d, basis map, matrix) of the fusion operator of a group from
    ``CYCLIC_SYMMETRIC_PRODUCTS``, or of that operator after the twist, which
    solves the pentagon equation only for the trivial group."""
    g = draw(st.sampled_from(CYCLIC_SYMMETRIC_PRODUCTS))
    d, t, tmap = g.order, group_algebra_fusion(g), group_fusion_map(g.table)
    if draw(st.booleans()):
        t, tmap = twist(d) @ t, lambda pair, fused=tmap: fused(pair)[::-1]
    return d, tmap, t


@PROPERTY_SETTINGS
@given(st.one_of(permutation_gates(dims=(2, 3, 4, 5, 6)), group_operators()))
def test_index_maps_decide_like_the_oracle(gate):
    d, tmap, t = gate
    assert permutation_solves_pentagon(t, d) == (residual_norm(pentagon_sides(tmap, d)) == 0.0)


@PROPERTY_SETTINGS
@given(st.sampled_from((2, 3, 4)), st.integers(2, 4), st.data())
def test_row_map_lifts_like_embed(d, n, data):
    # the lifted rows of a permutation gate are the rows of its dense lift, on
    # every ordered wire pair
    p = np.eye(d * d, dtype=complex)[data.draw(st.permutations(range(d * d)))]
    rows = _permutation_rows(p)
    for wires in itertools.permutations(range(n), 2):
        lifted = _row_map(n, wires, rows, d)
        assert tuple(lifted.tolist()) == _permutation_rows(embed(p, wires, n, d))


def matrix_group(*generators) -> CayleyTable:
    """Cayley table of the group that the invertible matrices ``generators`` generate.

    Element 0 is the identity; the others are indexed in order of discovery.
    """
    key = lambda m: tuple(np.round(m, 9).ravel())
    elements = [np.eye(len(generators[0]), dtype=complex)]
    index = {key(elements[0]): 0}
    for m in elements:  # the list grows while it is read
        for g in generators:
            if key(m @ g) not in index:
                index[key(m @ g)] = len(elements)
                elements.append(m @ g)
    return CayleyTable(len(elements), tuple(tuple(index[key(a @ b)] for b in elements)
                                            for a in elements), 0)


def _dihedral(n: int) -> CayleyTable:
    """D_n of order 2n: the rotation and a reflection of an n-gon's vertices."""
    eye = np.eye(n, dtype=complex)
    return matrix_group(eye[[(k + 1) % n for k in range(n)]], eye[[-k % n for k in range(n)]])


def _dicyclic(n: int) -> CayleyTable:
    """Dic_n of order 4n: a of order 2n and x with x^2 = a^n, x a x^-1 = a^-1."""
    turn = np.exp(1j * math.pi / n)
    return matrix_group(np.diag([turn, 1 / turn]), np.array([[0, -1], [1, 0]], dtype=complex))


_Z = CayleyTable.cyclic
#: Every group of order at most 12, one table per isomorphism class, built
#: by the package's constructors where they reach it.
GROUPS_UP_TO_12 = {
    **{f"Z{n}": _Z(n) for n in range(1, 13)},
    "Z2xZ2": CayleyTable.direct_product(_Z(2), _Z(2)),
    "S3": CayleyTable.symmetric(3),
    "Z4xZ2": CayleyTable.direct_product(_Z(4), _Z(2)),
    "Z2xZ2xZ2": CayleyTable.direct_product(CayleyTable.direct_product(_Z(2), _Z(2)), _Z(2)),
    "D4": _dihedral(4),
    "Q8": _dicyclic(2),
    "Z3xZ3": CayleyTable.direct_product(_Z(3), _Z(3)),
    "D5": _dihedral(5),
    "Z2xZ6": CayleyTable.direct_product(_Z(2), _Z(6)),
    "A4": matrix_group(np.eye(4, dtype=complex)[[1, 2, 0, 3]],
                       np.eye(4, dtype=complex)[[1, 0, 3, 2]]),
    "Z2xS3": CayleyTable.direct_product(_Z(2), CayleyTable.symmetric(3)),
    "Dic3": _dicyclic(3),
}


def dense_report(t, d: int, tol: float) -> dict:
    """``certify(t, d, tol).to_jsonable()`` as the dense kernel alone gives it.

    The verdict rule is ``residual < tol``, and the witnesses are the five
    largest positive entries of ``|lhs - rhs|``, ties in reverse ``argsort`` order.
    """
    res = pentagon_residual(t, d)
    witnesses = []
    for flat in np.argsort(res.mismatch, axis=None)[::-1][:5]:
        row, col = np.unravel_index(int(flat), res.mismatch.shape)
        if res.mismatch[row, col] > 0.0:
            witnesses.append(Witness(int(row), int(col), complex(res.lhs[row, col]),
                                     complex(res.rhs[row, col])))
    verdict = "fusion" if res.residual < tol else "not_fusion"
    report = CertificationReport("custom", (), "pentagon", res.residual, tol, verdict,
                                 tuple(witnesses))
    return report.to_jsonable()


@st.composite
def certify_cases(draw):
    """(gate, d, tol): a permutation gate at d=2-4, its negative, a near-permutation
    P exp(i eps H), or a 0/1 matrix with one 1 per row that only a loose tol lets pass
    the unitarity check."""
    d = draw(st.sampled_from((2, 3, 4)))
    t = np.eye(d * d, dtype=complex)[draw(st.permutations(range(d * d)))]
    kind = draw(st.sampled_from(("permutation", "negative", "near", "function")))
    tol = draw(st.sampled_from((1e-10, 1e-6, 10.0)))
    if kind == "negative":
        t = -t
    elif kind == "near":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        a = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        w, v = np.linalg.eigh(a + a.conj().T)
        eps = draw(st.sampled_from((1e-14, 1e-9, 1e-3)))
        t = t @ (v * np.exp(1j * eps * w)) @ v.conj().T
    elif kind == "function":
        d, tol = 2, 10.0
        t = np.eye(4, dtype=complex)[draw(st.lists(st.integers(0, 3), min_size=4, max_size=4))]
    return t, d, tol


@PROPERTY_SETTINGS
@given(certify_cases())
@example((standard_gate("SWAP"), 2, 1e-10))
@example((standard_gate("SWAP"), 2, 10.0))
@example((-group_algebra_fusion(_Z(3)), 3, 1e-10))
def test_index_map_path_gives_the_dense_report(case):
    t, d, tol = case
    assert certify(t, d, tol).to_jsonable() == dense_report(t, d, tol)


for _group in GROUPS_UP_TO_12.values():
    test_index_map_path_gives_the_dense_report = example(
        (group_algebra_fusion(_group), _group.order, 1e-10)
    )(test_index_map_path_gives_the_dense_report)


@PROPERTY_SETTINGS
@given(
    st.sampled_from((2, 3)),
    st.sampled_from(((0, 1), (1, 2), (0, 2))),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
def test_stacked_embed_matches_per_slice(d, wires, count, seed):
    rng = np.random.default_rng(seed)
    shape = (count, d * d, d * d)
    stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    lifted = embed(stack, wires, 3, d)
    assert np.array_equal(lifted, np.stack([embed(u, wires, 3, d) for u in stack]))


@PROPERTY_SETTINGS
@given(
    st.sampled_from((a_gate, heisenberg_evolution)),
    st.lists(st.tuples(ANGLES, ANGLES, ANGLES), min_size=1, max_size=8),
)
def test_stacked_family_points_match_one_gate_calls(build, points):
    stack = build(*np.array(points).T)
    assert np.array_equal(stack, np.stack([build(*p) for p in points]))
    _check_stack_matches_one_gate_calls(stack, 2)


@PROPERTY_SETTINGS
@given(
    st.sampled_from((a_gate, heisenberg_evolution)),
    *(st.lists(ANGLES, min_size=1, max_size=12) for _ in range(3)),
)
def test_broadcast_axis_slices_are_bitwise_the_point_calls(build, first, second, third):
    # the scanner builds each grid block from slices of shape (r, 1, 1),
    # (1, c, 1) and (1, 1, n); the bytes are compared, so a signed zero counts
    a0, a1, a2 = (np.array(axis) for axis in (first, second, third))
    got = build(a0[:, None, None], a1[None, :, None], a2[None, None, :]).reshape(-1, 4, 4)
    points = np.array([(x, y, z) for x in first for y in second for z in third])
    assert np.array_equal(got.view(np.uint8), build(*points.T).view(np.uint8))


@PROPERTY_SETTINGS
@given(st.sampled_from((2, 3, 4)), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_stacked_haar_gates_match_one_gate_calls(d, count, seed):
    rng = np.random.default_rng(seed)
    stack = np.stack([haar_unitary(d * d, rng) for _ in range(count)])
    _check_stack_matches_one_gate_calls(stack, d)


@PROPERTY_SETTINGS
@given(st.lists(st.tuples(ANGLES, ANGLES, ANGLES), min_size=1, max_size=64),
       st.integers(0, 2**32 - 1))
def test_kernel_is_bitwise_the_dense_products_at_d2(points, seed):
    rng = np.random.default_rng(seed)
    haar = np.stack([haar_unitary(4, rng) for _ in points])
    for stack in (a_gate(*np.array(points).T), heisenberg_evolution(*np.array(points).T), haar):
        for got, want in zip(pentagon_stack(stack, 2), dense_pentagon_stack(stack, 2)):
            assert np.array_equal(got, want)


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(st.sampled_from((3, 4, 6)), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_kernel_agrees_with_the_dense_products_on_haar_gates(d, count, seed):
    # beyond d=2 the summation order differs, so agreement is to rounding
    rng = np.random.default_rng(seed)
    stack = np.stack([haar_unitary(d * d, rng) for _ in range(count)])
    bound = 1e-13 * d**3
    lhs, rhs, residuals = pentagon_stack(stack, d)
    want_lhs, want_rhs, want_residuals = dense_pentagon_stack(stack, d)
    assert np.max(np.abs(lhs - want_lhs)) <= bound
    assert np.max(np.abs(rhs - want_rhs)) <= bound
    assert np.max(np.abs(residuals - want_residuals)) <= bound


def _column_bound_stack(family: str, count: int, seed: int) -> np.ndarray:
    """``count`` gates of a family: the identity, then random points.

    Half the coordinates lie on the pi/2 lattice, where the +-I points and
    the exact solutions of both families are; the identity's bound and
    residual are both 0.
    """
    rng = np.random.default_rng(seed)
    if family == "haar":
        return np.stack([np.eye(4, dtype=complex)] + [haar_unitary(4, rng) for _ in range(count - 1)])
    lattice = rng.integers(-8, 9, (3, count)) * (math.pi / 2)
    params = np.where(rng.random((3, count)) < 0.5, lattice, rng.uniform(-40.0, 40.0, (3, count)))
    params[:, 0] = 0.0
    return (a_gate if family == "a" else heisenberg_evolution)(*params)


def _check_column_bound(stack: np.ndarray) -> None:
    bound = _pentagon_column_bound(stack)
    lhs, rhs, _ = dense_pentagon_stack(stack, 2)
    column = np.linalg.norm((lhs - rhs)[:, :, 1], axis=1)  # column |001>
    assert np.max(np.abs(bound - column)) <= 1e-14
    assert np.all(bound <= pentagon_stack(stack, 2)[2] + SCAN_SLACK)


@PROPERTY_SETTINGS
@given(st.sampled_from(("a", "heis", "haar")), st.integers(1, 1024), st.integers(0, 2**32 - 1))
def test_column_bound_is_the_dense_column_and_at_most_the_residual(family, count, seed):
    _check_column_bound(_column_bound_stack(family, count, seed))


@pytest.mark.parametrize("count", [COLUMN_BOUND_PIECE + k for k in (-1, 0, 1)]
                         + [2 * COLUMN_BOUND_PIECE + k for k in (0, 1)])
@pytest.mark.parametrize("family", ["a", "heis", "haar"])
def test_column_bound_property_across_piece_edges(family, count):
    # a stack of a piece less one gate, a piece, a piece and one gate, two
    # pieces, and two pieces and one gate
    _check_column_bound(_column_bound_stack(family, count, count))


@PROPERTY_SETTINGS
@given(permutation_stacks())
def test_stacked_sides_match_oracle(gates):
    d, maps, stack = gates
    lhs, rhs, residuals = pentagon_stack(stack, d)
    for tmap, side_l, side_r in zip(maps, lhs, rhs):
        oracle_l, oracle_r = pentagon_sides(tmap, d)
        assert np.array_equal(side_l, oracle_l)
        assert np.array_equal(side_r, oracle_r)
    assert np.array_equal(residuals == 0.0, [np.array_equal(*pentagon_sides(m, d)) for m in maps])


# ---- circuit serialization ---------------------------------------------------

#: Floats whose text is easy to get wrong: signed zeros, subnormals, the
#: ends of the float range and values that need all 17 digits.
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
               1.7976931348623157e308, 0.1, 1.0 / 3.0, -2.0 / 3.0, 1e-7, 1e16, 123456789.01234567)
NUMBERS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def custom_matrices(draw, arity):
    """A unitary on ``arity`` wires: Haar-random, or a signed permutation
    whose zeros may be -0.0 or carry a subnormal imaginary part."""
    dim = 2**arity
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return haar_unitary(dim, rng)
    matrix = np.eye(dim, dtype=complex)[rng.permutation(dim)] * draw(st.sampled_from((1, -1, 1j)))
    if draw(st.booleans()):
        matrix[matrix == 0] += 5e-324j
    return matrix


@st.composite
def circuits(draw):
    """Any circuit the schema accepts: every built-in gate, custom gates on
    1-3 wires, edge-case floats, and wires given as numpy integers."""
    n = draw(st.integers(1, 5))
    wire_type = draw(st.sampled_from((int, np.int64, np.int32, np.uint8)))
    gates = []
    for _ in range(draw(st.integers(0, 8))):
        name = draw(st.sampled_from(tuple(GATES) + ("custom",)))
        arity = draw(st.integers(1, min(n, 3))) if name == "custom" else GATES[name][0]
        if arity > n:
            continue
        wires = tuple(map(wire_type, draw(st.permutations(range(n)))[:arity]))
        if name == "custom":
            gates.append(GateInstance(name, wires, (), draw(custom_matrices(arity))))
        else:
            params = draw(st.lists(NUMBERS, min_size=GATES[name][1], max_size=GATES[name][1]))
            gates.append(GateInstance(name, wires, tuple(params)))
    return Circuit(n, tuple(gates))


def _same_circuit(a: Circuit, b: Circuit) -> bool:
    """Field-by-field equality; numbers compare by their bits, so -0.0 != 0.0."""
    bits = lambda values: np.asarray(values, dtype=np.complex128).tobytes()
    return a.num_qubits == b.num_qubits and len(a.gates) == len(b.gates) and all(
        (g.name, g.wires, bits(g.params)) == (h.name, h.wires, bits(h.params))
        and (g.matrix is None) == (h.matrix is None)
        and (g.matrix is None or bits(g.matrix) == bits(h.matrix))
        for g, h in zip(a.gates, b.gates)
    )


def _respelled(text: str, indent, reverse_keys: bool) -> str:
    """The same JSON document with other whitespace and key order."""
    doc = json.loads(text)
    if reverse_keys:
        doc = {k: doc[k] for k in reversed(doc)}
        doc["gates"] = [{k: g[k] for k in reversed(g)} for g in doc["gates"]]
    return json.dumps(doc, indent=indent)


@PROPERTY_SETTINGS
@given(circuits(), st.sampled_from((None, 0, 2)), st.booleans())
def test_serialize_parse_is_canonical_and_lossless(circuit, indent, reverse_keys):
    text = serialize(circuit)
    parsed = parse(text)
    assert serialize(parsed) == text
    assert _same_circuit(parsed, circuit)
    assert serialize(parse(_respelled(text, indent, reverse_keys))) == text


@PROPERTY_SETTINGS
@given(circuits())
def test_serialize_is_byte_for_byte_the_reference_serializer(circuit):
    assert serialize(circuit) == reference_serialize(circuit)


@st.composite
def repeated_circuits(draw):
    """Up to 40 gates drawn from a small pool, as shared objects or as fresh copies."""
    pool = draw(circuits())
    if not pool.gates:
        return pool
    picks = draw(st.lists(st.integers(0, len(pool.gates) - 1), max_size=40))
    gates = [pool.gates[k] for k in picks]
    if draw(st.booleans()):
        gates = [GateInstance(g.name, g.wires, g.params, g.matrix) for g in gates]
    return Circuit(pool.num_qubits, tuple(gates))


@PROPERTY_SETTINGS
@given(repeated_circuits())
def test_repeated_gates_serialize_as_the_reference_and_parse_to_shared_objects(circuit):
    text = serialize(circuit)
    assert text == reference_serialize(circuit)
    parsed = parse(text)
    assert serialize(parsed) == reference_serialize(parsed) == text
    # equal gates without parameters parse to one object
    seen = {}
    for gate in parsed.gates:
        if not gate.params:
            assert seen.setdefault(serialize(Circuit(parsed.num_qubits, (gate,))), gate) is gate


GOLDEN = Path(__file__).parent / "golden"


def test_serialize_is_the_reference_serializer_on_golden_circuits():
    texts = [path.read_text(encoding="utf-8") for path in sorted((GOLDEN / "inputs").glob("*.json"))]
    circuits = [parse(text) for text in texts if text.startswith("{")]
    for case in SITES_GOLDEN["cases"]:
        for gates in (case["gates"], case["compress"]["gates"], case["expand"]["gates"]):
            circuits.append(Circuit(case["qubits"], tuple(golden_gates(gates))))
    assert len(circuits) > 900
    for circuit in circuits:
        assert serialize(circuit) == reference_serialize(circuit)


@pytest.mark.parametrize("zero", ["-0.0", "-0", "0", "0.0", "-0e5"])
def test_signed_zero_parses_to_one_canonical_form(zero):
    text = '{"qubits": 1, "gates": [{"name": "RZ", "wires": [0], "params": [%s]}]}' % zero
    once = serialize(parse(text))
    assert serialize(parse(once)) == once
    assert math.copysign(1.0, parse(text).gates[0].params[0]) == 1.0


# ---- circuit depth -----------------------------------------------------------


@st.composite
def layered_circuits(draw):
    """Custom gates on 1-4 wires (identity matrices) over 1-6 qubits."""
    n = draw(st.integers(1, 6))
    gates = []
    for _ in range(draw(st.integers(0, 30))):
        arity = draw(st.integers(1, min(n, 4)))
        wires = tuple(draw(st.permutations(range(n)))[:arity])
        gates.append(GateInstance("custom", wires, (), np.eye(2**arity)))
    return Circuit(n, tuple(gates))


@PROPERTY_SETTINGS
@given(layered_circuits())
@example(Circuit(3, ()))
def test_depth_is_the_asap_layer_count(circuit):
    expected = asap_depth([gate.wires for gate in circuit.gates])
    assert depth(circuit) == circuit_stats(circuit)["depth"] == expected


# ---- one validation path -----------------------------------------------------

MUTATIONS = (None, "bool_wire", "float_wire", "string_param", "bool_param", "unknown_name",
             "wrong_arity", "wrong_param_count", "matrix_on_named_gate", "non_unitary_custom")


@st.composite
def one_gate_fields(draw):
    """(name, wires, params, matrix) of a gate on 3 qubits, at most one field mutated."""
    name = draw(st.sampled_from(tuple(GATES) + ("custom",)))
    arity, count = (draw(st.integers(1, 2)), 0) if name == "custom" else GATES[name][:2]
    wires = list(draw(st.permutations(range(3)))[:arity])
    params = draw(st.lists(ANGLES, min_size=count, max_size=count))
    matrix = None
    if name == "custom":
        matrix = haar_unitary(2**arity, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    mutation = draw(st.sampled_from(MUTATIONS))
    if mutation == "bool_wire":
        wires[0] = draw(st.booleans())
    elif mutation == "float_wire":
        wires[0] += draw(st.sampled_from((0.0, 0.5)))
    elif mutation in ("string_param", "bool_param"):
        bad = str(draw(ANGLES)) if mutation == "string_param" else draw(st.booleans())
        params = params[1:] + [bad] if params else [bad]
    elif mutation == "unknown_name":
        name = draw(st.sampled_from(("CZ", "cnot", "")))
    elif mutation == "wrong_arity":
        wires = wires[:1] if len(wires) == 2 else wires + [min({0, 1, 2} - set(wires))]
    elif mutation == "wrong_param_count":
        params = params + [0.5] if draw(st.booleans()) or not params else params[1:]
    elif mutation == "matrix_on_named_gate" and name != "custom":
        matrix = np.eye(2**arity)
    elif mutation == "non_unitary_custom" and name == "custom":
        matrix = 2 * matrix
    return name, wires, params, matrix


def _schema_error(build) -> str | None:
    """The SchemaError text ``build()`` raises, without its gates[0]. prefix."""
    try:
        build()
    except SchemaError as exc:
        return str(exc).removeprefix("gates[0].")
    return None


@PROPERTY_SETTINGS
@given(one_gate_fields())
def test_parse_and_constructor_share_one_validation_path(fields):
    name, wires, params, matrix = fields
    gate = {"name": name, "wires": wires, "params": params}
    if matrix is not None:
        gate["matrix"] = [[[z.real, z.imag] for z in row] for row in matrix.astype(complex)]
    text = json.dumps({"qubits": 3, "gates": [gate]})
    build = lambda: Circuit(3, (GateInstance(name, wires, params, matrix),))
    parsed = _schema_error(lambda: parse(text))
    assert parsed == _schema_error(build)
    if parsed is None:
        assert serialize(parse(text)) == serialize(build())


# ---- rewrite rules -----------------------------------------------------------

CNOT = describe_fusion_gate(name="CNOT", tol=1e-10)


@st.composite
def template_images(draw):
    """Circuits in the image of ``expand``: CNOT templates among filler gates.

    Filler holds neither the fusion gate nor SWAP, so the templates are
    exactly the compression sites and their compressed pairs exactly the
    expansion sites.
    """
    n = draw(st.integers(3, 5))
    gates = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            a, b, c = draw(st.permutations(range(n)))[:3]
            gates += template_gates("CNOT", (), (a, b, c))
        else:
            name = draw(st.sampled_from(("H", "X", "RZ", "XX", "A")))
            arity, count, _ = GATES[name]
            wires = tuple(draw(st.permutations(range(n)))[:arity])
            params = tuple(draw(st.lists(ANGLES, min_size=count, max_size=count)))
            gates.append(GateInstance(name, wires, params))
    return Circuit(n, tuple(gates))


@PROPERTY_SETTINGS
@given(template_images())
def test_expand_after_compress_is_identity_on_template_images(circuit):
    compressed, report = compress(circuit, CNOT)
    restored, _ = expand(compressed, CNOT)
    assert report.sites_found == sum(g.name == "SWAP" for g in circuit.gates) // 2
    assert serialize(restored) == serialize(circuit)


@st.composite
def cnot_swap_h_circuits(draw):
    """A 3-6 qubit circuit of up to 30 CNOT, SWAP and H gates on random wires."""
    n = draw(st.integers(3, 6))
    names = draw(st.lists(st.sampled_from(("CNOT", "SWAP", "H")), max_size=30))
    gates = (GateInstance(name, tuple(draw(st.permutations(range(n)))[:GATES[name][0]]))
             for name in names)
    return Circuit(n, tuple(gates))


@PROPERTY_SETTINGS
@given(cnot_swap_h_circuits())
def test_fixed_point_runs_make_at_most_k_plus_one_passes(circuit):
    # k fusion gates bound a fixed-point compress, which removes one per
    # rewriting pass; the same bound on expand is observed, not proven
    k = sum(gate.name == "CNOT" for gate in circuit.gates)
    for rule in _RULES:
        _, report = transpile(circuit, CNOT, rule, fixed_point=True, verify=False)
        assert report.passes <= k + 1


TOFFOLI = np.eye(8)[[0, 1, 2, 3, 4, 5, 7, 6]]


@st.composite
def noise_gates(draw, n):
    """A gate that may block, feed or sit beside a template match."""
    kind = draw(st.sampled_from(("1q", "RZ", "CNOT", "SWAP", "toffoli")))
    wires = tuple(draw(st.permutations(range(n))))
    if kind == "1q":
        return GateInstance(draw(st.sampled_from(("H", "X"))), wires[:1])
    if kind == "RZ":
        return GateInstance("RZ", wires[:1], (draw(ANGLES),))
    if kind == "toffoli":
        return GateInstance("custom", wires[:3], (), TOFFOLI)
    return GateInstance(kind, wires[:2])


@st.composite
def interleaved_templates(draw):
    """CNOT templates and pairs merged at random with noise gates.

    The noise holds CNOT and SWAP, gates on wires a template binds late,
    and three-qubit gates on a template's window, so the matcher has to
    refuse many near matches as well as find the real sites.
    """
    n = draw(st.integers(3, 5))
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        a, b, c = draw(st.permutations(range(n)))[:3]
        if draw(st.booleans()):
            pieces.append(template_gates("CNOT", (), (a, b, c)))
        else:
            pieces.append(list(pair_circuit("CNOT", (), (a, b, c), n).gates))
    pieces.append(draw(st.lists(noise_gates(n), max_size=8)))
    # a random merge that keeps the order within each piece
    order = draw(st.permutations([k for k, piece in enumerate(pieces) for _ in piece]))
    queues = [iter(piece) for piece in pieces]
    return Circuit(n, tuple(next(queues[k]) for k in order))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(interleaved_templates())
def test_verified_rewrites_preserve_the_unitary_under_interleaving(circuit):
    before = to_unitary(circuit)
    for rewrite in (compress, expand):
        out, report = rewrite(circuit, CNOT)  # verified: raises on a bad rewrite
        assert report.equivalence_verified
        assert phase_distance(before, to_unitary(out)) < 1e-10


#: The golden dense fusion gate: a U (x) U conjugate of CNOT.
CUSTOM_FUSION = describe_fusion_gate(matrix=parse_matrix(
    (GOLDEN / "inputs" / "custom_fusion.json").read_text(encoding="utf-8"), "custom_fusion.json"),
    tol=1e-10)


@st.composite
def planted_compress_sites(draw):
    """CNOT or the golden custom fusion gate, and a 3-7 qubit circuit with
    1-3 planted compress templates of it, each with gates on the other
    wires inside it, between random gates on any wires."""
    descriptor = draw(st.sampled_from((CNOT, CUSTOM_FUSION)))
    fusion = descriptor.gate
    t = lambda w: GateInstance(fusion.name, w, fusion.params, fusion.matrix)
    n = draw(st.integers(3, 7))
    gates = draw(st.lists(noise_gates(n), max_size=6))
    for _ in range(draw(st.integers(1, 3))):
        a, b, c, *others = draw(st.permutations(range(n)))
        swap = GateInstance("SWAP", (b, c))
        for gate in (t((b, c)), swap, t((a, b)), swap, t((a, b))):
            gates.append(gate)
            # noise drawn on three wires, kept when it fits on the others
            for filler in draw(st.lists(noise_gates(3), max_size=2)):
                if max(filler.wires) < len(others):
                    gates.append(GateInstance(filler.name, tuple(others[w] for w in filler.wires),
                                              filler.params, filler.matrix))
    gates += draw(st.lists(noise_gates(n), max_size=6))
    return descriptor, Circuit(n, tuple(gates))


@PROPERTY_SETTINGS
@given(planted_compress_sites(), st.booleans())
def test_compress_never_deepens_a_circuit(case, fixed_point):
    # the level argument of the transpile docstring: each site leaves no
    # wire at a higher ASAP level, so no later gate and not the depth rises
    descriptor, circuit = case
    out, report = transpile(circuit, descriptor, "compress", fixed_point=fixed_point,
                            verify=False)
    assert report.sites_found >= 1
    assert (report.depth_before, report.depth_after) == (depth(circuit), depth(out))
    assert report.depth_after <= report.depth_before


def _near_cnot(eps: float) -> np.ndarray:
    """CNOT times exp(i eps H) for a fixed Hermitian H: unitary, not a solution."""
    h = haar_unitary(4, np.random.default_rng(7))
    h = h + h.conj().T
    w, v = np.linalg.eigh(h)
    return standard_gate("CNOT") @ (v * np.exp(1j * eps * w)) @ v.conj().T


#: Near-solutions certified loosely, so that every site moves the unitary a little.
NEAR_SOLUTIONS = [describe_fusion_gate(name="A", params=(delta, 0.0, 0.0), tol=1.0)
                  for delta in (1e-3, 1e-2, 0.05)]
NEAR_SOLUTIONS += [describe_fusion_gate(matrix=_near_cnot(eps), tol=1.0) for eps in (1e-3, 1e-2)]


@st.composite
def near_solution_sites(draw):
    """A near-solution descriptor and a 3-7 qubit circuit of its templates
    and pairs, each with gates on the other wires inside it, merged at
    random with noise gates on any wires."""
    descriptor = draw(st.sampled_from(NEAR_SOLUTIONS))
    fusion = descriptor.gate
    t = lambda w: GateInstance(fusion.name, w, fusion.params, fusion.matrix)
    n = draw(st.integers(3, 7))
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        a, b, c, *others = draw(st.permutations(range(n)))
        if draw(st.booleans()):
            swap = GateInstance("SWAP", (b, c))
            piece = [t((b, c)), swap, t((a, b)), swap, t((a, b))]
        else:
            piece = [t((a, b)), t((b, c))]
        if len(others) >= 3:
            for gate in draw(st.lists(noise_gates(len(others)), max_size=3)):
                moved = GateInstance(gate.name, tuple(others[w] for w in gate.wires),
                                     gate.params, gate.matrix)
                piece.insert(draw(st.integers(1, len(piece) - 1)), moved)
        pieces.append(piece)
    pieces.append(draw(st.lists(noise_gates(n), max_size=4)))
    order = draw(st.permutations([k for k, piece in enumerate(pieces) for _ in piece]))
    queues = [iter(piece) for piece in pieces]
    return descriptor, Circuit(n, tuple(next(queues[k]) for k in order))


@PROPERTY_SETTINGS
@given(near_solution_sites())
def test_window_distance_is_the_full_single_site_distance(case):
    # the failure diagnosis scales an 8x8 window distance to the register;
    # it must equal the distance of the full single-site rewrite
    descriptor, circuit = case
    before = to_unitary(circuit)
    for pattern, side in _RULES.values():
        for site in _find_sites(circuit, descriptor, pattern):
            alone = to_unitary(_apply_sites(circuit, [site], descriptor, side))
            full = phase_distance(before, alone)
            window = _site_distance(circuit, site, descriptor, side)
            assert full > 0.0
            assert abs(window - full) <= 1e-9 * full
