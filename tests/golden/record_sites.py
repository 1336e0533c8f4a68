"""Record ``sites.json``: template matches and fixed-point rewrites.

Run from the repository root:

    PYTHONPATH=src python tests/golden/record_sites.py

The corpus is 300 seeded adversarial circuits on 3-6 qubits. Each plants
compression templates and expansion pairs, damages some of them (a gate
dropped or rewired, a SWAP or T reversed, a near miss of the fusion gate,
a blocker on wire ``a`` before ``T(a, b)``, a three-qubit custom gate on
the window) and shuffles them among noise that includes the fusion gate
and SWAP. For each circuit the file keeps the input, the sites that
``find_compress_sites`` and ``find_expand_sites`` report, and the output
and site count of ``transpile(..., fixed_point=True, verify=False)`` for
both rules. ``tests/test_rewrite.py`` replays the inputs and compares exactly.

Gates are stored as ``[name, wires]``, ``[name, wires, params]`` or
``["custom", wires, key]``, where ``key`` names a matrix in the file's
``matrices`` table.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

from pentagate import (
    Circuit,
    GateInstance,
    describe_fusion_gate,
    find_compress_sites,
    find_expand_sites,
    transpile,
)

OUT = Path(__file__).parent / "sites.json"

CASES = 300


def _permutation(images):
    m = np.zeros((len(images), len(images)))
    m[images, range(len(images))] = 1.0
    return m


MATRICES = {
    "z2": _permutation([0, 1, 3, 2]),  # the Z2 group-algebra fusion operator
    "cz": np.diag([1.0, 1.0, 1.0, -1.0]),
    "toffoli": _permutation([0, 1, 2, 3, 4, 5, 7, 6]),
}

#: Fusion gates as (name, params or matrix key), and a near miss of each.
FUSIONS = (
    (("CNOT", ()), ("XX", (0.5,))),
    (("A", (0.0, 0.0, 0.0)), ("A", (0.0, 1e-6, 0.0))),
    (("custom", "z2"), ("custom", "cz")),
)


def _gate(spec, wires) -> GateInstance:
    name, extra = spec
    if name == "custom":
        return GateInstance(name, wires, (), MATRICES[extra])
    return GateInstance(name, wires, extra)


def _encode(gate: GateInstance) -> list:
    if gate.name == "custom":
        key = next(k for k, m in MATRICES.items() if np.array_equal(m, gate.matrix))
        return ["custom", list(gate.wires), key]
    if gate.params:
        return [gate.name, list(gate.wires), list(gate.params)]
    return [gate.name, list(gate.wires)]


def _noise(rng: random.Random, n: int, fusion) -> GateInstance:
    kind = rng.choice(("1q", "1q", "2q", "T", "SWAP", "toffoli"))
    if kind == "1q":
        return GateInstance(rng.choice(("H", "X")), (rng.randrange(n),))
    wires = tuple(rng.sample(range(n), 3 if kind == "toffoli" else 2))
    if kind == "T":
        return _gate(fusion, wires)
    if kind == "SWAP":
        return GateInstance("SWAP", wires)
    if kind == "toffoli":
        return _gate(("custom", "toffoli"), wires)
    return GateInstance("CNOT", wires) if rng.random() < 0.5 else GateInstance("ZZ", wires, (0.25,))


def _planted(rng: random.Random, n: int, fusion, near) -> list[GateInstance]:
    """A template or a pair on a random triple, damaged at random."""
    a, b, c = rng.sample(range(n), 3)
    if rng.random() < 0.6:
        slots = [("T", (b, c)), ("SWAP", (b, c)), ("T", (a, b)), ("SWAP", (b, c)), ("T", (a, b))]
    else:
        slots = [("T", (a, b)), ("T", (b, c))]
    damage = rng.choice(
        ("none", "none", "drop", "rewire", "reverse", "near", "blocker_a", "toffoli", "aside")
    )
    k = rng.randrange(len(slots))
    kind, wires = slots[k]
    if damage == "drop":
        del slots[k]
    elif damage == "rewire":
        slots[k] = (kind, tuple(rng.sample(range(n), 2)))
    elif damage == "reverse":
        slots[k] = (kind, wires[::-1])
    elif damage == "near" and kind == "T":
        slots[k] = ("near", wires)
    gates = [
        _gate(fusion, w) if s == "T" else _gate(near, w) if s == "near" else GateInstance("SWAP", w)
        for s, w in slots
    ]
    if damage == "blocker_a":
        # a gate on wire a (or c for a pair) before the gate that binds it
        gates.insert(rng.randrange(1, len(gates)), GateInstance("X", (a if len(slots) == 5 else c,)))
    elif damage == "toffoli":
        window = rng.sample((a, b, c), 3)
        gates.insert(rng.randrange(len(gates) + 1), _gate(("custom", "toffoli"), tuple(window)))
    elif damage == "aside" and n > 3:
        others = [w for w in range(n) if w not in (a, b, c)]
        gates.insert(rng.randrange(len(gates) + 1), GateInstance("H", (rng.choice(others),)))
    return gates


def _shuffle_merge(rng: random.Random, lists) -> list[GateInstance]:
    """Interleave the lists at random, keeping the order within each."""
    queues = [list(g) for g in lists if g]
    out = []
    while queues:
        q = rng.choice(queues)
        out.append(q.pop(0))
        if not q:
            queues.remove(q)
    return out


def make_case(seed: int):
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    fusion, near = rng.choice(FUSIONS)
    pieces = [_planted(rng, n, fusion, near) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.3:
        # two planted pieces back to back: a candidate can start on a
        # gate that an earlier site already took
        pieces[0] = pieces[0] + _planted(rng, n, fusion, near)
    noise = [_noise(rng, n, fusion) for _ in range(rng.randint(0, 6))]
    if rng.random() < 0.5:
        gates = _shuffle_merge(rng, pieces + [noise])
    else:  # pieces in a row with the noise between them
        cuts = sorted(rng.randint(0, len(noise)) for _ in pieces)
        gates = noise[: cuts[0]]
        for piece, lo, hi in zip(pieces, cuts, cuts[1:] + [len(noise)]):
            gates += piece + noise[lo:hi]
    return fusion, Circuit(n, tuple(gates))


def main() -> None:
    descriptors = {}
    cases = []
    for seed in range(CASES):
        fusion, circuit = make_case(seed)
        name, extra = fusion
        if fusion not in descriptors:
            if name == "custom":
                descriptors[fusion] = describe_fusion_gate(matrix=MATRICES[extra], tol=1e-10)
            else:
                descriptors[fusion] = describe_fusion_gate(name=name, params=extra, tol=1e-10)
        descriptor = descriptors[fusion]
        case = {
            "name": f"seed{seed:03d}",
            "fusion": [name, list(extra) if name != "custom" else extra],
            "qubits": circuit.num_qubits,
            "gates": [_encode(g) for g in circuit.gates],
        }
        for rule, find in (("compress", find_compress_sites), ("expand", find_expand_sites)):
            case[f"{rule}_sites"] = [
                [list(s.gate_indices), list(s.wires)] for s in find(circuit, descriptor)
            ]
        for rule in ("compress", "expand"):
            out, report = transpile(circuit, descriptor, rule, fixed_point=True, verify=False)
            case[rule] = {"sites_found": report.sites_found, "gates": [_encode(g) for g in out.gates]}
        cases.append(case)
    matrices = {
        key: [[[z.real, z.imag] for z in row] for row in m.astype(complex)]
        for key, m in MATRICES.items()
    }
    compact = {"separators": (",", ":")}
    lines = ",\n".join(json.dumps(c, **compact) for c in cases)
    OUT.write_text(
        '{"matrices":' + json.dumps(matrices, **compact) + ',\n"cases":[\n' + lines + "\n]}\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    main()
