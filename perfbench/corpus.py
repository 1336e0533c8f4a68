"""Seeded inputs for every workload, with the answers known by construction.

Nothing here imports the program under test. Circuits are plain lists of
``(name, wires, params)`` tuples; the planted rewrite sites, the expected
rewritten gate lists, the expected statistics and the analytic pentagon
verdicts are all derived from how the inputs were built, so the checks
never compare the program against its own earlier output.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi

#: A-gate scans per pass: cubic grids of 2 * SCAN_A_HALF + 1 points per axis
#: centred on the origin, each at a seeded step in SCAN_A_STEPS. The largest
#: grid ends at 3.0 < 2*pi, so the origin is its only +-I point.
SCAN_A_GRIDS = 6
SCAN_A_HALF = 6
SCAN_A_STEPS = (0.25, 0.5)
#: The Heisenberg scan on -pi:pi step pi/8.
SCAN_HEIS = ("heis", repr(-math.pi), repr(math.pi), repr(math.pi / 8))

#: Reversed-control CNOT, (H x H) CNOT (H x H): a fusion operator that only
#: a custom-matrix fusion gate can name.
REVERSED_CNOT = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=np.complex128
)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128)

#: Filler gate names. No SWAP and no fusion gate, so filler never forms or
#: blocks a template site.
FILLER_1Q = ("H", "X", "RZ")
FILLER_2Q = ("XX", "ZZ")


def grid_count(lo: str, hi: str, step: str) -> int:
    """Points per axis of a lo:hi grid, counted from the README's rule."""
    lo, hi, step = float(lo), float(hi), float(step)
    return int(math.floor((hi - lo) / step + 1e-9)) + 1


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def a_gate_sign(c) -> int | None:
    """+1 if A(c) = +I, -1 if A(c) = -I, None otherwise.

    A(c1, c2, c3) = zz(c3) yy(c2) xx(c1) and each factor at 2*pi*k is
    (-1)^k I, so A is +-I exactly on the 2*pi lattice, with the sign set
    by the parity of the lattice coordinates.
    """
    ks = [round(x / TWO_PI) for x in c]
    if any(abs(x - TWO_PI * k) > 1e-7 for x, k in zip(c, ks)):
        return None
    return 1 if sum(ks) % 2 == 0 else -1


# --- circuits -----------------------------------------------------------------


def _filler(rng, wires, count):
    gates = []
    for _ in range(count):
        if len(wires) >= 2 and rng.random() < 0.5:
            a, b = rng.choice(wires, size=2, replace=False)
            name = FILLER_2Q[int(rng.integers(0, 2))]
            gates.append((name, (int(a), int(b)), (float(rng.uniform(0, 6.2)),)))
        else:
            name = FILLER_1Q[int(rng.integers(0, 3))]
            params = (float(rng.uniform(0, 6.2)),) if name == "RZ" else ()
            gates.append((name, (int(rng.choice(wires)),), params))
    return gates


def depth(num_qubits: int, gates) -> int:
    """ASAP layer count."""
    level = [0] * num_qubits
    total = 0
    for _, wires, _ in gates:
        layer = max(level[w] for w in wires) + 1
        for w in wires:
            level[w] = layer
        total = max(total, layer)
    return total


def stats(num_qubits: int, gates) -> dict:
    two = [w for _, w, _ in gates if len(w) == 2]
    return {
        "gate_count": len(gates),
        "depth": depth(num_qubits, gates),
        "two_qubit_count": len(two),
        "nonlocal_count": sum(1 for a, b in two if abs(a - b) >= 2),
    }


def routing_swaps(gates) -> int:
    return sum(2 * (abs(w[0] - w[1]) - 1) for _, w, _ in gates if len(w) == 2 and abs(w[0] - w[1]) >= 2)


def planted_circuit(rng, num_qubits, total, blocks, rule, fusion, interleave=2, barrier=True):
    """A circuit with ``blocks`` planted rewrite sites and exactly ``total`` gates.

    ``rule`` "compress" plants the 5-gate template T(b,c) SWAP T(a,b) SWAP
    T(a,b); "expand" plants the pair T(a,b) T(b,c). ``interleave`` filler
    gates on wires outside {a, b, c} are mixed into each block, and with
    ``barrier`` a one-qubit gate on each of a, b, c closes it, so no site
    can reach across blocks. Returns the gate list and the gate list after
    the rewrite (sites rewritten in place, filler untouched).
    """
    core = 5 if rule == "compress" else 2
    block_len = core + interleave + (3 if barrier else 0)
    free = total - blocks * block_len
    if free < 0:
        raise ValueError("circuit too small for its planted blocks")
    gaps = rng.multinomial(free, [1.0 / (blocks + 1)] * (blocks + 1))
    everything = list(range(num_qubits))
    gates, after = [], []
    t = lambda w: (fusion, w, ())
    for k in range(blocks):
        chunk = _filler(rng, everything, int(gaps[k]))
        gates += chunk
        after += chunk
        a, b, c = (int(x) for x in rng.choice(num_qubits, size=3, replace=False))
        swap = ("SWAP", (b, c), ())
        if rule == "compress":
            site = [t((b, c)), swap, t((a, b)), swap, t((a, b))]
            replacement = [t((a, b)), t((b, c))]
        else:
            site = [t((a, b)), t((b, c))]
            replacement = [t((b, c)), swap, t((a, b)), swap, t((a, b))]
        others = [w for w in everything if w not in (a, b, c)]
        mixed = _filler(rng, others, interleave)
        # interleaved filler goes after the first site gate, at seeded slots
        slots = sorted(int(s) for s in rng.integers(1, core, size=interleave))
        block, block_after = [site[0]], list(replacement)
        j = 0
        for i in range(1, core):
            while j < len(slots) and slots[j] == i:
                block.append(mixed[j])
                block_after.append(mixed[j])
                j += 1
            block.append(site[i])
        block += mixed[j:]
        block_after += mixed[j:]
        if barrier:
            closing = [("H", (a,), ()), ("H", (b,), ()), ("H", (c,), ())]
            block += closing
            block_after += closing
        gates += block
        after += block_after
    tail = _filler(rng, everything, int(gaps[blocks]))
    gates += tail
    after += tail
    return gates, after


def transpile_circuit(rng, name, qubits, total, blocks, rule, fusion="CNOT", **kw):
    gates, after = planted_circuit(rng, qubits, total, blocks, rule, fusion, **kw)
    return {
        "name": name,
        "qubits": qubits,
        "gates": gates,
        "after": after,
        "sites": blocks,
        "rule": rule,
        "fusion": fusion,
        "stats": stats(qubits, gates),
        "stats_after": stats(qubits, after),
        "swaps": routing_swaps(gates),
    }


# --- workload specs -----------------------------------------------------------


#: Lattice points k with A(2*pi*k) = +I (coordinates of even total parity).
PLUS_I_POINTS = ((0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1), (-1, -1, 0), (0, 0, 2), (0, 0, -2), (1, -1, 0))


def scan_spec(rng) -> dict:
    """A-gate grids, constraint points with known verdicts, refine starts."""
    grids = []
    for _ in range(SCAN_A_GRIDS):
        step = float(rng.uniform(*SCAN_A_STEPS))
        half = SCAN_A_HALF * step
        grids.append(("a", repr(-half), repr(half), repr(step)))
    points = []
    for i in range(200):
        family = "a" if i % 2 == 0 else "heis"
        kind = ("solution", "minus_identity", "generic", "generic")[(i // 2) % 4]
        if kind == "generic":
            c = tuple(float(x) for x in rng.uniform(-TWO_PI, TWO_PI, 3))
            while a_gate_sign(c) is not None:
                c = tuple(float(x) for x in rng.uniform(-TWO_PI, TWO_PI, 3))
        else:
            ks = [int(k) for k in rng.integers(-2, 3, size=3)]
            if (sum(ks) % 2 == 0) != (kind == "solution"):
                ks[int(rng.integers(0, 3))] += 1
            c = tuple(TWO_PI * k for k in ks)
        # heis(t) = A(2t), so the Heisenberg point is half the A point
        params = c if family == "a" else tuple(x / 2 for x in c)
        points.append({"family": family, "params": params, "sign": a_gate_sign(c)})
    starts = []
    for i in range(10):
        if i < 7:  # near: within 0.3 of a +I lattice point
            centre = np.array(PLUS_I_POINTS[int(rng.integers(0, len(PLUS_I_POINTS)))]) * TWO_PI
            start = centre + rng.uniform(-0.3, 0.3, 3)
            starts.append({"near": True, "start": tuple(float(x) for x in start)})
        else:  # far: at least 1.0 from every +-I lattice point in each coordinate
            start = rng.uniform(1.0, TWO_PI - 1.0, 3) * rng.choice([-1.0, 1.0], 3)
            starts.append({"near": False, "start": tuple(float(x) for x in start)})
    return {"grids": grids, "points": points, "starts": starts}


#: Every CayleyTable group of order <= 8 the package can build, plus order 12.
GROUPS = (
    "Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8",
    "Z2xZ2", "S3", "Z2xZ4", "Z2xZ2xZ2", "Z12", "Z2xS3",
)


def certify_spec(rng) -> dict:
    """The 103-gate d=2 zoo, Haar unitaries at d=3 and d=4, -CNOT, the groups."""
    a_params = []
    while len(a_params) < 50:
        c = tuple(float(x) for x in rng.uniform(-6.0, 6.0, 3))
        if a_gate_sign(c) is None:
            a_params.append(c)
    haar2 = [haar_unitary(4, rng) for _ in range(50)]
    haar3 = [haar_unitary(9, rng) for _ in range(5)]
    haar4 = [haar_unitary(16, rng) for _ in range(5)]
    return {"a_params": a_params, "haar2": haar2, "haar3": haar3, "haar4": haar4, "groups": GROUPS}


def transpile_verify_spec(rng) -> dict:
    """8-qubit circuits of 100 and 80 gates and a 6-gate 10-qubit circuit."""
    compress8 = transpile_circuit(rng, "c8", 8, 100, 4, "compress")
    expand8 = transpile_circuit(rng, "e8", 8, 80, 3, "expand")
    compress10 = transpile_circuit(rng, "c10", 10, 6, 1, "compress", interleave=0, barrier=False)
    return {"circuits": [compress8, expand8, compress10]}


def transpile_large_spec(rng) -> dict:
    """12-qubit circuits of 40k, 20k and 10k gates; the last uses a custom fusion gate."""
    big = transpile_circuit(rng, "c40k", 12, 40000, 1600, "compress")
    pairs = transpile_circuit(rng, "e20k", 12, 20000, 1400, "expand")
    custom = transpile_circuit(rng, "x10k", 12, 10000, 400, "compress", fusion="custom")
    return {"circuits": [big, pairs, custom]}


SPECS = {
    "scan": scan_spec,
    "certify": certify_spec,
    "transpile-verify": transpile_verify_spec,
    "transpile-large": transpile_large_spec,
}


def make_spec(workload: str, seed: int) -> dict:
    return SPECS[workload](np.random.default_rng([seed, len(workload)]))
