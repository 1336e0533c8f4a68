"""Shared helpers for the test suite.

Everything random is seeded through numpy Generators created per test, so
the suite is deterministic.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pentagate
from pentagate import Circuit, GateInstance
from pentagate.gates import parameter_count

#: CLI subprocesses import the same pentagate as the test process.
_PACKAGE_ROOT = str(Path(pentagate.__file__).resolve().parents[1])


def run_cli(*args, **kwargs) -> subprocess.CompletedProcess:
    """Run ``python -m pentagate`` with text output captured."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=_PACKAGE_ROOT + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, "-m", "pentagate", *args],
        capture_output=True,
        text=True,
        env=env,
        **kwargs,
    )


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def template_gates(name: str, params, wires) -> list[GateInstance]:
    """The 5-gate compression template on a wire triple (a, b, c)."""
    a, b, c = wires
    t = lambda w: GateInstance(name, w, tuple(params))
    swap = GateInstance("SWAP", (b, c))
    return [t((b, c)), swap, t((a, b)), swap, t((a, b))]


def template_circuit(name: str = "CNOT", params=(), wires=(0, 1, 2), num_qubits: int = 3) -> Circuit:
    return Circuit(num_qubits, tuple(template_gates(name, params, wires)))


def pair_circuit(name: str = "CNOT", params=(), wires=(0, 1, 2), num_qubits: int = 3) -> Circuit:
    a, b, c = wires
    return Circuit(
        num_qubits,
        (GateInstance(name, (a, b), tuple(params)), GateInstance(name, (b, c), tuple(params))),
    )


def random_filler_gates(rng: np.random.Generator, num_qubits: int, count: int) -> list[GateInstance]:
    """Random gates that can never form a compression template (no SWAPs)."""
    gates = []
    for _ in range(count):
        if rng.random() < 0.5:
            name = ("H", "X", "RZ")[int(rng.integers(0, 3))]
            params = (float(rng.uniform(0, 6.2)),) if name == "RZ" else ()
            gates.append(GateInstance(name, (int(rng.integers(0, num_qubits)),), params))
        else:
            w = rng.choice(num_qubits, size=2, replace=False)
            if rng.random() < 0.5:
                gates.append(GateInstance("CNOT", (int(w[0]), int(w[1]))))
            else:
                gates.append(
                    GateInstance("XX", (int(w[0]), int(w[1])), (float(rng.uniform(0, 6.2)),))
                )
    return gates


def seeded_template_circuit(rng: np.random.Generator) -> tuple[Circuit, int]:
    """A random 3-5 qubit circuit with 1-3 contiguous CNOT template blocks.

    Filler never contains SWAP gates, so the template blocks are exactly
    the compression sites.
    """
    n = int(rng.integers(3, 6))
    blocks = int(rng.integers(1, 4))
    gates: list[GateInstance] = []
    for _ in range(blocks):
        gates.extend(random_filler_gates(rng, n, int(rng.integers(0, 4))))
        wires = rng.choice(n, size=3, replace=False)
        gates.extend(template_gates("CNOT", (), (int(wires[0]), int(wires[1]), int(wires[2]))))
    gates.extend(random_filler_gates(rng, n, int(rng.integers(0, 4))))
    return Circuit(n, tuple(gates)), blocks


def random_circuit(rng: np.random.Generator, num_qubits: int, num_gates: int) -> Circuit:
    """Random circuit over the built-in gate set, any wire pairs allowed."""
    pool_1q = ("I", "X", "Y", "Z", "H", "S", "RX", "RY", "RZ")
    pool_2q = ("CNOT", "SWAP", "XX", "YY", "ZZ", "A", "HEIS", "B")
    gates = []
    for _ in range(num_gates):
        if rng.random() < 0.45:
            name = pool_1q[int(rng.integers(0, len(pool_1q)))]
            wires = (int(rng.integers(0, num_qubits)),)
        else:
            name = pool_2q[int(rng.integers(0, len(pool_2q)))]
            w = rng.choice(num_qubits, size=2, replace=False)
            wires = (int(w[0]), int(w[1]))
        params = tuple(float(x) for x in rng.uniform(0, 6.2, parameter_count(name)))
        gates.append(GateInstance(name, wires, params))
    return Circuit(num_qubits, tuple(gates))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def simulations(monkeypatch) -> list:
    """Every circuit passed to ``to_unitary`` anywhere in the package, in order."""
    import pentagate.circuit
    import pentagate.cli
    import pentagate.rewrite

    calls = []
    simulate = pentagate.circuit.to_unitary

    def counting(circuit):
        calls.append(circuit)
        return simulate(circuit)

    for module in (pentagate.circuit, pentagate.cli, pentagate.rewrite):
        monkeypatch.setattr(module, "to_unitary", counting, raising=False)
    return calls


def nested_template_circuit(levels: int, name: str = "CNOT", params=()) -> Circuit:
    """A chain of templates on wires 0..3 that compresses in ``levels`` passes.

    Each pass rewrites one site; its output T(b, c) starts the template the
    next pass finds.
    """
    t = lambda w: GateInstance(name, w, tuple(params))
    gates = [t((1, 2))]
    for level in range(levels):
        a = 0 if level % 2 == 0 else 3
        gates += [GateInstance("SWAP", (1, 2)), t((a, 1)), GateInstance("SWAP", (1, 2)), t((a, 1))]
    return Circuit(4, tuple(gates))
