"""Paired probe of dense simulation at two checkouts: ``to_unitary`` and ``circuit_distance``.

Times, on each checkout and alternating the sides as
``probe_circuit_io.py`` does (one process, wall time):

- ``to_unitary`` of an empty circuit at 8, 10 and 12 qubits, the fixed
  cost of a call (its buffers, the identity and the returned copy);
- ``to_unitary`` of a circuit of dense 2-qubit gates (XX) and of one of
  permutation gates (CNOT) at 8, 10 and 12 qubits, on scattered wires,
  reported per gate (the call time over the gate count, the fixed cost
  included);
- ``to_unitary`` of ``route_line`` of that 10-qubit XX circuit, whose
  SWAP chains put permutation gates between the dense ones, as
  ``route`` followed by ``verify`` simulates; reported per routed gate;
- ``circuit_distance`` of two 12-qubit circuits of a few gates that differ
  in one gate, a dense one, so both are simulated;
- ``circuit_distance`` of a related 12-qubit pair: a CNOT template among
  XX gates and its compressed rewrite, which differs from it by
  permutation gates that cancel, so a checkout that proves such pairs
  equal simulates nothing;
- ``circuit_distance`` of the 12-qubit XX circuit and its ``route_line``
  output, as ``verify`` of a ``route`` result compares them: a checkout
  that proves a routed pair equal simulates nothing;
- a verified fixed-point CNOT ``transpile`` compress of a seeded 1000-gate
  12-qubit circuit: CNOT templates on random wire triples among XX and RZ
  gates. A checkout that proves a permutation rewrite equal to its input
  finishes it in well under 1 s; one that simulates its input takes tens
  of seconds per call;
- the same call on a seeded 40,000-gate 12-qubit circuit shaped like the
  benchmark's ``c40k``: 1,600 CNOT templates among filler, built gate by
  gate rather than parsed, so equal gates are distinct objects but for
  each template's SWAP. It is timed verified and unverified on each side, with the
  ratio of the two medians, which is the cost of verification.

Before timing, it runs each 12-qubit ``circuit_distance`` and the
verified 40,000-gate compress once per side in a child process and
reports the child's peak resident set size in MB, which holds every
register-sized array the call makes. Both checkouts
must give bit-identical unitaries for every timed circuit,
bit-identical distances between the XX and CNOT circuits at each size and
for the three 12-qubit pairs, and the same compressed circuit, site count and
distance bits for both verified compresses, or the probe exits 1; the report
lists what it compared.

usage: python3 scripts/probe_simulate.py BASE_CHECKOUT CHANGE_CHECKOUT [ROUNDS]

ROUNDS is at least 2 (default 21). Prints one JSON object: per call, each
side's median and quartiles, the ratio of the medians and the rounds the
change won. Bad arguments print the usage line and exit 2.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from probe_circuit_io import arguments, load, paired

#: Gates per timed circuit at each register size: few at 12 qubits, where
#: one dense gate streams two 256 MiB buffers.
GATES_AT = {8: 40, 10: 12, 12: 4}

#: The register size of the routed row: its XX gates lie 5 wires apart, so
#: each becomes 9 gates.
ROUTED_AT = 10

#: The 12-qubit ``circuit_distance`` pair: these gates, then the second
#: circuit with its last gate's angle changed.
DISTANCE_GATES = [("XX", (0, 11), (0.3,)), ("CNOT", (5, 2), ()), ("H", (7,), ()),
                  ("A", (3, 9), (0.1, 0.2, 0.3)), ("RZ", (4,), (0.5,))]

#: The related 12-qubit pair: XX gates around a CNOT template on wires
#: (2, 5, 10), then its compressed rewrite.
RELATED_FILLER = [("XX", (0, 6), (0.3,)), ("XX", (1, 7), (0.4,)), ("XX", (8, 11), (0.5,)),
                  ("XX", (6, 9), (0.6,))]

#: The verified compress: its circuit's gate count and seed.
COMPRESS_GATES, COMPRESS_SEED = 1000, 11

#: The large verified compress, shaped like the benchmark's ``c40k``: its
#: gate count, template count and seed. Each template comes after
#: ``LARGE_GAP`` filler gates and takes 10 gates with its own filler.
LARGE_GATES, LARGE_TEMPLATES, LARGE_SEED = 40000, 1600, 12
LARGE_GAP = LARGE_GATES // LARGE_TEMPLATES - 10

#: A child process that prints the peak RSS in MB of one ``peak_call``;
#: its arguments are the checkout's src directory, this script's directory
#: and the call's key.
CHILD = """
import resource, sys
sys.path[:0] = sys.argv[1:3]
import pentagate, probe_simulate
probe_simulate.peak_call(pentagate, sys.argv[3])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def circuit(pg, name: str, n: int, count: int):
    """``count`` copies of gate ``name``, each on wires (i, i + n // 2) mod n in turn."""
    params = (0.3,) if name == "XX" else ()
    return pg.Circuit(n, [pg.GateInstance(name, (i % n, (i + n // 2) % n), params) for i in range(count)])


def distance_pair(pg):
    gates = [pg.GateInstance(*g) for g in DISTANCE_GATES]
    return pg.Circuit(12, gates), pg.Circuit(12, gates[:-1] + [pg.GateInstance("RZ", (4,), (0.6,))])


def related_pair(pg):
    xx = [pg.GateInstance(*g) for g in RELATED_FILLER]
    cnot, swap = (lambda *w: pg.GateInstance("CNOT", w)), pg.GateInstance("SWAP", (5, 10))
    template = [cnot(5, 10), swap, cnot(2, 5), swap, cnot(2, 5)]
    circuit = pg.Circuit(12, xx[:2] + template + xx[2:])
    return circuit, pg.compress(circuit, pg.describe_fusion_gate("CNOT"), verify=False)[0]


def routed_pair(pg):
    xx = circuit(pg, "XX", 12, GATES_AT[12])
    return xx, pg.route_line(xx)


def compress_circuit(pg):
    """``COMPRESS_GATES`` gates on 12 qubits: a CNOT template on random wires
    a fifth of the time, else an XX or RZ gate; the last template may be cut."""
    rng = np.random.default_rng(COMPRESS_SEED)
    wires = lambda k: tuple(int(w) for w in rng.permutation(12)[:k])
    gates = []
    while len(gates) < COMPRESS_GATES:
        if rng.random() < 0.2:
            a, b, c = wires(3)
            cnot, swap = (lambda *w: pg.GateInstance("CNOT", w)), pg.GateInstance("SWAP", (b, c))
            gates += [cnot(b, c), swap, cnot(a, b), swap, cnot(a, b)]
        else:
            name = ("XX", "RZ")[int(rng.integers(0, 2))]
            gates.append(pg.GateInstance(name, wires(2 if name == "XX" else 1), (float(rng.uniform(0, 6.2)),)))
    return pg.Circuit(12, gates[:COMPRESS_GATES])


def large_compress_circuit(pg):
    """``LARGE_GATES`` gates on 12 qubits holding ``LARGE_TEMPLATES`` CNOT
    templates. A template on wires (a, b, c) has a filler gate on the other
    wires after its second and fourth gates and H on a, b and c after it,
    so no site reaches across templates. Filler gates are XX or ZZ with a
    seeded angle half the time, else H, X or RZ with a seeded angle."""
    rng = np.random.default_rng(LARGE_SEED)

    def filler(wires):
        if rng.random() < 0.5:
            a, b = (int(w) for w in rng.choice(wires, size=2, replace=False))
            return pg.GateInstance(("XX", "ZZ")[int(rng.integers(0, 2))], (a, b), (float(rng.uniform(0, 6.2)),))
        name, w = ("H", "X", "RZ")[int(rng.integers(0, 3))], int(rng.choice(wires))
        return pg.GateInstance(name, (w,), (float(rng.uniform(0, 6.2)),) if name == "RZ" else ())

    gates = []
    for _ in range(LARGE_TEMPLATES):
        gates += [filler(range(12)) for _ in range(LARGE_GAP)]
        a, b, c = (int(w) for w in rng.permutation(12)[:3])
        others = [w for w in range(12) if w not in (a, b, c)]
        cnot, swap = (lambda *w: pg.GateInstance("CNOT", w)), pg.GateInstance("SWAP", (b, c))
        gates += [cnot(b, c), swap, filler(others), cnot(a, b), swap, filler(others), cnot(a, b)]
        gates += [pg.GateInstance("H", (w,)) for w in (a, b, c)]
    return pg.Circuit(12, gates)


def verified_compress(pg, circuit, verify=True):
    return pg.transpile(circuit, pg.describe_fusion_gate("CNOT"), "compress", fixed_point=True, verify=verify)


#: The 12-qubit ``circuit_distance`` pairs by report key.
PAIRS = {"12q": distance_pair, "12q related": related_pair, "12q routed": routed_pair}

#: The report key of the large verified compress.
LARGE = "verified compress 40k 12q"


def peak_call(pg, key: str):
    """The call whose child peak RSS is reported under ``key``: a pair's
    ``circuit_distance`` or the large verified compress."""
    if key == LARGE:
        return verified_compress(pg, large_compress_circuit(pg))
    return pg.circuit_distance(*PAIRS[key](pg))


def per_gate(result: dict, count: int) -> dict:
    """``result`` with each side's median and quartiles divided by ``count``."""
    for side in ("base_ms", "change_ms"):
        times = result[side]
        result[side] = {"median": times["median"] / count, "quartiles": [q / count for q in times["quartiles"]]}
    return {"gates": count, **result}


def same_bits(a, b) -> bool:
    """Whether two float or complex arrays, or two floats, hold the same bit patterns."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def peak_rss_mb(checkout: str, key: str) -> float:
    src = str(Path(checkout).resolve() / "src")
    argv = [sys.executable, "-c", CHILD, src, str(Path(__file__).resolve().parent), key]
    return float(subprocess.run(argv, capture_output=True, text=True, check=True).stdout)


def main(argv: list[str]) -> int:
    args = arguments(argv, __doc__)
    if args is None:
        return 2
    base, change, rounds = args
    # The peaks come first: a child started from a large process may report
    # that process's peak as its own.
    peaks = {key: {"base": peak_rss_mb(base, key), "change": peak_rss_mb(change, key)} for key in (*PAIRS, LARGE)}
    sides = {"base": load(base), "change": load(change)}
    report, compared = {}, []

    def timed(key: str, circuits: dict, count: int) -> bool:
        """Time ``to_unitary`` of ``circuits`` per gate; False when the sides' bits differ."""
        if not same_bits(*(pg.to_unitary(circuits[s]) for s, pg in sides.items())):
            print(f"{key}: the two checkouts simulate differently", file=sys.stderr)
            return False
        compared.append(f"to_unitary {key}")
        run = lambda pg, side: pg.to_unitary(circuits[side])
        report[f"to_unitary {key} per gate"] = per_gate(paired(sides, run, rounds), count)
        return True

    for n, count in GATES_AT.items():
        empty = {side: pg.Circuit(n, ()) for side, pg in sides.items()}
        report[f"to_unitary empty {n}q"] = paired(sides, lambda pg, side: pg.to_unitary(empty[side]), rounds)
        made = {name: {side: circuit(pg, name, n, count) for side, pg in sides.items()} for name in ("XX", "CNOT")}
        for name, circuits in made.items():
            if not timed(f"{name} {n}q", circuits, count):
                return 1
        if n == ROUTED_AT:
            routed = {side: pg.route_line(made["XX"][side]) for side, pg in sides.items()}
            if not timed(f"routed XX {n}q", routed, len(routed["base"].gates)):
                return 1
        distances = [pg.circuit_distance(made["XX"][s], made["CNOT"][s]) for s, pg in sides.items()]
        if not same_bits(*distances):
            print(f"circuit_distance at {n} qubits differs: {distances}", file=sys.stderr)
            return 1
        compared.append(f"circuit_distance XX-CNOT {n}q")
    for key, make in PAIRS.items():
        pairs = {side: make(pg) for side, pg in sides.items()}
        distances = {side: pg.circuit_distance(*pairs[side]) for side, pg in sides.items()}
        if not same_bits(distances["base"], distances["change"]):
            print(f"circuit_distance {key} differs: {distances}", file=sys.stderr)
            return 1
        compared.append(f"circuit_distance {key}")
        run = lambda pg, side: pg.circuit_distance(*pairs[side])
        gates = [len(c.gates) for c in pairs["base"]]
        report[f"circuit_distance {key}"] = {"gates": gates, **paired(sides, run, rounds)}
        report[f"circuit_distance {key} peak_rss_mb"] = peaks[key]
    for key, make in (("verified compress 12q", compress_circuit),
                      (LARGE, large_compress_circuit)):
        circuits = {side: make(pg) for side, pg in sides.items()}
        results = {side: verified_compress(pg, circuits[side]) for side, pg in sides.items()}
        texts = [pg.serialize(results[side][0]) for side, pg in sides.items()]
        base_report, change_report = (results[side][1] for side in sides)
        if texts[0] != texts[1] or base_report.sites_found != change_report.sites_found \
                or not same_bits(base_report.phase_distance, change_report.phase_distance):
            print(f"{key} differs: {base_report} vs {change_report}", file=sys.stderr)
            return 1
        compared.append(key)
        run = lambda pg, side: verified_compress(pg, circuits[side])
        report[key] = {"gates": len(circuits["base"].gates), "sites_found": base_report.sites_found,
                       "phase_distance": base_report.phase_distance, **paired(sides, run, rounds)}
    # ``circuits`` holds the large circuit, the loop's last
    unverified = paired(sides, lambda pg, side: verified_compress(pg, circuits[side], verify=False), rounds)
    report["unverified compress 40k 12q"] = unverified
    report["verified/unverified 40k 12q"] = {
        side: report[LARGE][f"{side}_ms"]["median"] / unverified[f"{side}_ms"]["median"] for side in ("base", "change")}
    report[f"{LARGE} peak_rss_mb"] = peaks[LARGE]
    report["bit-identical"] = compared
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
