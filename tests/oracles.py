"""Independent brute-force oracles.

These deliberately avoid the library's lift/residual machinery: operators
are built by tracing basis tuples through hand-written maps, so agreement
with the library is a genuine cross-check rather than a tautology.
"""

from __future__ import annotations

import math

import numpy as np


def permutation_operator(mapping, d: int, legs: int) -> np.ndarray:
    """Matrix of a basis-tuple permutation on (C^d)^(x legs)."""
    size = d**legs
    mat = np.zeros((size, size), dtype=np.complex128)
    for col in range(size):
        digits = [(col // d ** (legs - 1 - k)) % d for k in range(legs)]
        image = mapping(tuple(digits))
        row = 0
        for x in image:
            row = row * d + x
        mat[row, col] = 1.0
    return mat


def lift_map(tmap, position: str):
    """Lift a 2-site basis map to 3 sites at positions 12, 23 or 13."""

    def at12(t):
        x, y = tmap((t[0], t[1]))
        return (x, y, t[2])

    def at23(t):
        y, z = tmap((t[1], t[2]))
        return (t[0], y, z)

    def at13(t):
        x, z = tmap((t[0], t[2]))
        return (x, t[1], z)

    return {"12": at12, "23": at23, "13": at13}[position]


def compose(*maps):
    """Compose basis maps; the rightmost acts first, like matrix products."""

    def run(t):
        for m in reversed(maps):
            t = m(t)
        return t

    return run


def pentagon_sides(tmap, d: int) -> tuple[np.ndarray, np.ndarray]:
    """LHS and RHS of the pentagon equation for a basis-permutation gate."""
    lhs = compose(lift_map(tmap, "23"), lift_map(tmap, "12"))
    rhs = compose(lift_map(tmap, "12"), lift_map(tmap, "13"), lift_map(tmap, "23"))
    return (
        permutation_operator(lhs, d, 3),
        permutation_operator(rhs, d, 3),
    )


def braid_ybe_sides(rmap, d: int) -> tuple[np.ndarray, np.ndarray]:
    """LHS and RHS of R12 R23 R12 = R23 R12 R23 for a basis-permutation gate."""
    r12, r23 = lift_map(rmap, "12"), lift_map(rmap, "23")
    return (
        permutation_operator(compose(r12, r23, r12), d, 3),
        permutation_operator(compose(r23, r12, r23), d, 3),
    )


def residual_norm(sides) -> float:
    lhs, rhs = sides
    return float(np.linalg.norm(lhs - rhs))


CNOT_MAP = lambda t: (t[0], t[0] ^ t[1])
SWAP_MAP = lambda t: (t[1], t[0])
IDENTITY_MAP = lambda t: t


def permutation_map(perm, d: int):
    """Basis map of a permutation ``perm`` of the d*d basis states of C^d (x) C^d."""
    return lambda t: divmod(int(perm[t[0] * d + t[1]]), d)


def group_fusion_map(table):
    """Basis map e_g (x) e_h -> e_g (x) e_{gh} of a group multiplication table."""
    return lambda t: (t[0], table[t[0]][t[1]])


def asap_depth(gate_wires) -> int:
    """ASAP layer count of a gate sequence, given as one wire tuple per gate.

    Each gate's layer is one more than the deepest earlier gate sharing a
    wire with it, found by comparing it with every earlier gate.
    """
    layers = []
    for i, wires in enumerate(gate_wires):
        earlier = [layers[j] for j in range(i) if set(gate_wires[j]) & set(wires)]
        layers.append(max(earlier, default=0) + 1)
    return max(layers, default=0)


def embed_by_transpose_copy(u, wires, num_qubits: int, d: int = 2) -> np.ndarray:
    """``linalg.embed`` by the direct formula: form u (x) I, then copy it permuted.

    The reference for the library's placement through a permuted view of
    its result, which must give the same products bit for bit.
    """
    u = np.asarray(u, dtype=np.complex128)
    wires = [int(w) for w in wires]
    rest = [q for q in range(num_qubits) if q not in wires]
    eye = np.eye(d ** len(rest), dtype=np.complex128)
    full = u[..., :, np.newaxis, :, np.newaxis] * eye[:, np.newaxis, :]
    batch, size = u.shape[:-2], d**num_qubits
    order = wires + rest
    if order == list(range(num_qubits)):
        return full.reshape(batch + (size, size))
    pos = [order.index(q) for q in range(num_qubits)]
    axes = [len(batch) + p for p in pos]
    tensor = full.reshape(batch + (d,) * (2 * num_qubits))
    tensor = tensor.transpose(list(range(len(batch))) + axes + [a + num_qubits for a in axes])
    return np.ascontiguousarray(tensor.reshape(batch + (size, size)))


def matrices_equal(a, b, tol: float) -> bool:
    """Entrywise comparison: max |a - b| <= tol. tol=0 is exact equality."""
    a, b = np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        return False
    if a.size == 0:
        return True
    return bool(np.max(np.abs(a - b)) <= tol)


def to_unitary_reference(num_qubits: int, gates) -> np.ndarray:
    """Register unitary by one ``np.tensordot`` and ``np.moveaxis`` per gate.

    ``gates`` lists ``(matrix, wires)`` pairs, the first acting first. The
    reference for ``circuit.to_unitary``'s row-map loop, which must give the
    same values: its dense gates make the same ``np.dot`` call on the same
    operands, and its permutation gates only relabel rows.
    """
    dim = 2**num_qubits
    u = np.eye(dim, dtype=np.complex128).reshape((2,) * num_qubits + (dim,))
    for matrix, wires in gates:
        k = len(wires)
        g = np.asarray(matrix).reshape((2,) * (2 * k))
        u = np.tensordot(g, u, axes=(range(k, 2 * k), wires))
        u = np.moveaxis(u, range(k), wires)
    return u.reshape(dim, dim)


def phase_distance_reference(a, b) -> float:
    """``linalg.phase_distance`` with ``a - phi * b`` formed in two temporaries."""
    overlap = complex(np.vdot(b, a))
    if abs(overlap) == 0.0:
        return math.sqrt(np.linalg.norm(a) ** 2 + np.linalg.norm(b) ** 2)
    return float(np.linalg.norm(a - (overlap / abs(overlap)) * b))


def _plan(circuit) -> list[tuple]:
    """A circuit's gates as one step per dense gate, read by ``circuit._run``.

    A step ``(gate, matrix, before)`` holds a dense gate, its resolved
    matrix and the row map of the permutation gates run since the dense
    gate before it. A last step ``(None, None, after)`` holds the row map
    of those after the last dense gate. None stands for the identity.
    """
    from pentagate.circuit import _run

    n, gates = circuit.num_qubits, circuit.gates
    plan, i = [], 0
    while True:
        i, at, m = _run(n, gates, i)
        if m is None:
            plan.append((None, None, at))
            return plan
        plan.append((gates[i], m, at))
        i += 1


def same_unitary_reference(a, b) -> bool:
    """Whether the two circuits' plans prove ``U_b == U_a``: the walk over
    ``_plan`` of both circuits, one step per dense gate.

    The reference for ``circuit._same_unitary``'s walk over the gate lists,
    which must decide the same. A relative row map ``delta``, with
    ``U_b[r] == U_a[delta[r]]``, starts at the identity and follows the two
    plans in lockstep, each side's row maps moving it. At each dense gate
    both sides must hold the same gate, on the same wires with a matrix of
    the same bytes, and ``delta`` must commute with it: keep the gate's
    wire bits and move the other bits alike for every value of them. True
    when every step holds and ``delta`` ends as the identity.
    """
    from pentagate.circuit import _orders

    n, plan_a, plan_b = a.num_qubits, _plan(a), _plan(b)
    if len(plan_a) != len(plan_b):
        return False
    delta = identity = np.arange(2**n)
    for (gate_a, m_a, at_a), (gate_b, m_b, at_b) in zip(plan_a, plan_b):
        if at_b is not None:
            delta = delta[at_b]
        if at_a is not None:
            delta = np.argsort(at_a)[delta]  # U_a[at_a[r]] is the new U_a's row r
        if gate_a is None:
            return np.array_equal(delta, identity)
        if gate_a.wires != gate_b.wires or m_a.tobytes() != m_b.tobytes():
            return False
        order, inverse = _orders(n, gate_a.wires)
        # operand row (g, x), g the gate's wire bits, must map to (g, f(x))
        rows = inverse[delta[order]].reshape(len(m_a), -1)
        if not np.array_equal(rows, rows[0] + rows.shape[1] * np.arange(len(m_a))[:, None]):
            return False


def scan_reference(family: str, axes, tol: float) -> list:
    """``certify.scan_fusion_solutions`` without its column-bound pruning.

    The scan loop as it was before the bound: every grid point, in chunks
    of 64, goes through ``equations.pentagon_stack``, and a point passes
    when its residual is under ``tol``. Passing points are grouped into
    operator classes as the scanner groups them. ``axes`` is one valid
    (lo, hi, step) triple; nothing is checked.
    """
    import itertools

    from pentagate.certify import (FAMILIES, SolutionPoint, _canonical, _operator_class,
                                   axis_points)
    from pentagate.equations import pentagon_stack
    from pentagate.linalg import frobenius_norm

    build = FAMILIES[family][0]
    points = itertools.product(axis_points(*axes), repeat=3)
    passing = []
    while chunk := list(itertools.islice(points, 64)):
        matrices = build(*np.array(chunk).T)
        residuals = pentagon_stack(matrices, 2)[2]
        for params, residual, matrix in zip(chunk, residuals, matrices):
            if residual < tol:
                passing.append((_canonical(params), params, float(residual), matrix))
    passing.sort(key=lambda item: (item[0], item[1]))
    classes = []
    for canonical, params, residual, matrix in passing:
        if any(frobenius_norm(matrix - rep) < tol for rep, _ in classes):
            continue
        kind = _operator_class(matrix, tol)
        classes.append((matrix, SolutionPoint(params, residual, canonical, kind)))
    return [point for _, point in classes]


def report_reference(x):
    """A report as the plain dict/list tree of its hand-written layout.

    These are the bodies of the six ``to_jsonable`` methods the report
    classes had before ``jsonio.dumps`` wrote dataclasses field by field;
    ``jsonio.dumps(x)`` must equal ``jsonio.dumps(report_reference(x))``
    byte for byte. A list or tuple is converted entry by entry, so a
    scan's list of solution points is one report.
    """
    from pentagate.certify import (FAMILIES, CertificationReport, ConstraintResiduals,
                                   RefineResult, SolutionPoint, Witness)
    from pentagate.rewrite import RewriteReport

    def pair(z):
        z = complex(z)
        return [z.real, z.imag]

    if isinstance(x, (list, tuple)):
        return [report_reference(item) for item in x]
    if isinstance(x, Witness):
        return {"row": x.row, "col": x.col, "lhs": pair(x.lhs), "rhs": pair(x.rhs)}
    if isinstance(x, CertificationReport):
        return {
            "gate_descriptor": {"name": x.gate_name, "params": [float(p) for p in x.gate_params]},
            "equation": x.equation,
            "residual": x.residual,
            "tolerance": x.tolerance,
            "verdict": x.verdict,
            "witnesses": [report_reference(w) for w in x.witnesses],
        }
    if isinstance(x, ConstraintResiduals):
        return {
            "parameter_point": dict(zip(FAMILIES[x.family][1], x.parameters)),
            "entry_residuals": [[float(e) for e in row] for row in x.entry_residuals],
            "active_count": x.active_count,
            "max_residual": x.max_residual,
            "tolerance": x.tolerance,
        }
    if isinstance(x, SolutionPoint):
        return {
            "parameters": [float(p) for p in x.parameters],
            "residual": x.residual,
            "canonical_parameters": [float(p) for p in x.canonical_parameters],
            "operator_class": x.operator_class,
        }
    if isinstance(x, RefineResult):
        return {
            "converged": x.converged,
            "parameters": [float(p) for p in x.parameters],
            "residual": x.residual,
            "iterations": x.iterations,
            "evaluations": x.evaluations,
            "solution": None if x.solution is None else report_reference(x.solution),
        }
    if isinstance(x, RewriteReport):
        return {
            "sites_found": x.sites_found,
            "sites_rewritten": x.sites_found,
            "gate_count_before": x.gate_count_before,
            "gate_count_after": x.gate_count_after,
            "depth_before": x.depth_before,
            "depth_after": x.depth_after,
            "equivalence_verified": x.equivalence_verified,
            "phase_distance": x.phase_distance,
        }
    raise TypeError(f"no reference layout for {type(x).__name__}")
