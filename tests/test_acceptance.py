"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
prints one pass/fail line (visible with ``pytest -s``). Derived expected
values were computed with independent oracles before being frozen here;
see oracles.py and the inline notes.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from pentagate import (
    CayleyTable,
    Circuit,
    GateInstance,
    a_gate,
    certify,
    check_folklore_duality,
    check_street_duality,
    circuit_stats,
    circuit_distance,
    compress,
    constraints,
    describe_fusion_gate,
    expand,
    group_algebra_fusion,
    heisenberg_evolution,
    parse,
    pentagon_residual,
    route_line,
    scan_fusion_solutions,
    serialize,
    standard_gate,
)
from pentagate.certify import IDENTITY_CLASS
from pentagate.circuit import depth
from pentagate.equations import ybe_residual
from pentagate.gates import pauli
from pentagate.linalg import frobenius_norm
from conftest import (
    haar_unitary,
    random_circuit,
    run_cli,
    seeded_template_circuit,
    template_circuit,
)

PI = math.pi
I4 = np.eye(4, dtype=complex)
CNOT = standard_gate("CNOT")
SWAP = standard_gate("SWAP")


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    print(f"[PASS] criterion {number}: {title}")


def test_criterion_1_pentagon_solutions():
    with criterion(1, "pentagon solutions certify exactly"):
        started = time.perf_counter()
        assert pentagon_residual(I4, 2).residual == 0.0
        assert pentagon_residual(CNOT, 2).residual < 1e-12
        groups = [
            CayleyTable.cyclic(2),
            CayleyTable.cyclic(3),
            CayleyTable.cyclic(4),
            CayleyTable.direct_product(CayleyTable.cyclic(2), CayleyTable.cyclic(2)),
            CayleyTable.cyclic(5),
            CayleyTable.cyclic(6),
            CayleyTable.symmetric(3),
        ]
        assert len(groups) == 7
        for group in groups:
            fusion = group_algebra_fusion(group)
            assert pentagon_residual(fusion, group.order).residual == 0.0
        assert time.perf_counter() - started < 1.0


def test_criterion_2_pentagon_non_solutions():
    with criterion(2, "pentagon non-solutions and phase sensitivity"):
        assert pentagon_residual(SWAP, 2).residual == pytest.approx(
            2 * math.sqrt(2), abs=1e-12
        )
        assert pentagon_residual(-CNOT, 2).residual == pytest.approx(
            4 * math.sqrt(2), abs=1e-12
        )


def test_criterion_3_yang_baxter_digression():
    with criterion(3, "Yang-Baxter solutions and the CNOT non-solution"):
        assert ybe_residual(SWAP, 2).residual < 1e-12
        assert ybe_residual(I4, 2).residual < 1e-12
        assert ybe_residual(CNOT, 2).residual > 1.0


def test_criterion_4_theorem_dualities():
    with criterion(4, "folklore and Street dualities on the gate zoo"):
        started = time.perf_counter()
        rng = np.random.default_rng(424242)
        zoo = [I4, SWAP, CNOT]
        zoo += [a_gate(*rng.uniform(-6, 6, 3)) for _ in range(50)]
        zoo += [haar_unitary(4, rng) for _ in range(50)]
        for gate in zoo:
            assert check_folklore_duality(gate, 2, 1e-10)
            assert check_street_duality(gate, 2, 1e-10)
        assert time.perf_counter() - started < 5.0


def test_criterion_5_heisenberg_matches_a_gate():
    # Direct evaluation of the component exponentials fixes the parameter
    # correspondence at (2 tx, 2 ty, 2 tz): matching the closed forms
    # entrywise requires (c1 - c2)/2 = tx - ty and (c1 + c2)/2 = tx + ty.
    with criterion(5, "Heisenberg evolution equals the A gate at doubled parameters"):
        from scipy.linalg import expm

        rng = np.random.default_rng(55)
        for _ in range(100):
            tx, ty, tz = rng.uniform(-7, 7, 3)
            evolution = heisenberg_evolution(tx, ty, tz)
            assert frobenius_norm(evolution - a_gate(2 * tx, 2 * ty, 2 * tz)) < 1e-12
        for _ in range(20):
            tx, ty, tz = rng.uniform(-7, 7, 3)
            oracle = (
                expm(1j * tx * np.kron(pauli("x"), pauli("x")))
                @ expm(1j * ty * np.kron(pauli("y"), pauli("y")))
                @ expm(1j * tz * np.kron(pauli("z"), pauli("z")))
            )
            assert frobenius_norm(heisenberg_evolution(tx, ty, tz) - oracle) < 1e-10


def test_criterion_6_constraint_system_verdicts():
    # At c3 = -2 pi (theta_z = -pi) the operator equals -I and the two
    # pentagon sides differ by a sign: the residual is exactly 2, refuting
    # the odd-k half of the stated solution family; only even k survives.
    with criterion(6, "constraint-system verdicts at the derived points"):
        assert constraints("a", (0, 0, 0), 1e-12).max_residual == 0.0
        assert constraints("a", (0, 0, -4 * PI), 1e-12).max_residual < 1e-12
        assert constraints("a", (0, 0, -2 * PI), 1e-12).max_residual == pytest.approx(
            2.0, abs=1e-12
        )
        assert constraints("heis", (0, 0, 0), 1e-12).max_residual == 0.0
        assert constraints("heis", (0, 0, -2 * PI), 1e-12).max_residual < 1e-12
        assert constraints("heis", (0, 0, -PI), 1e-12).max_residual == pytest.approx(
            2.0, abs=1e-12
        )


def test_criterion_7_default_grid_scan():
    with criterion(7, "default grid scan finds only the identity class"):
        started = time.perf_counter()
        solutions = scan_fusion_solutions("a", (-2 * PI, 2 * PI, PI / 8), 1e-9)
        elapsed = time.perf_counter() - started
        assert solutions, "scan must return a nonempty solution set"
        for point in solutions:
            assert frobenius_norm(a_gate(*point.parameters) - I4) < 1e-9
            assert point.operator_class == IDENTITY_CLASS
            report = certify(
                a_gate(*point.parameters), 2, 1e-9, name="A", params=point.parameters
            )
            assert report.is_fusion
        assert elapsed < 60.0


def test_criterion_8_theorem_round_trip():
    with criterion(8, "compression round trip on 200 seeded circuits"):
        started = time.perf_counter()
        descriptor = describe_fusion_gate(name="CNOT", tol=1e-10)
        rng = np.random.default_rng(88)
        for _ in range(200):
            circuit, blocks = seeded_template_circuit(rng)
            compressed, report = compress(circuit, descriptor, verify=True, tol=1e-10)
            assert report.sites_found == blocks
            assert report.gate_count_after == report.gate_count_before - 3 * blocks
            assert report.phase_distance < 1e-10
            assert circuit_distance(circuit, compressed) < 1e-10
        pure = template_circuit()
        compressed, report = compress(pure, descriptor, verify=True, tol=1e-10)
        assert (report.depth_before, report.depth_after) == (5, 2)
        restored, _ = expand(compressed, descriptor, verify=True, tol=1e-10)
        assert serialize(restored) == serialize(pure)
        assert time.perf_counter() - started < 30.0


def test_criterion_9_routing():
    with criterion(9, "line routing localizes circuits and preserves semantics"):
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(4, 7))
            circuit = random_circuit(rng, n, int(rng.integers(2, 8)))
            routed = route_line(circuit)
            assert circuit_stats(routed)["nonlocal_count"] == 0
            assert circuit_distance(circuit, routed) < 1e-10
        skip = Circuit(4, (GateInstance("XX", (1, 3), (0.7,)),))
        routed = route_line(skip)
        assert len(routed.gates) == 3  # exactly 2 SWAPs around the gate
        assert [g.name for g in routed.gates] == ["SWAP", "XX", "SWAP"]


def test_criterion_10_cli_contract(tmp_path):
    with criterion(10, "CLI pipeline exit codes and byte-stable JSON"):
        template_path = tmp_path / "template.json"
        template_path.write_text(serialize(template_circuit()) + "\n")
        compressed_path = tmp_path / "compressed.json"

        assert run_cli("certify", "--gate", "CNOT", "--quiet").returncode == 0
        assert run_cli(
            "transpile", "--in", str(template_path), "--out", str(compressed_path),
            "--rule", "compress", "--fusion-gate", "CNOT", "--quiet",
        ).returncode == 0
        assert run_cli(
            "verify", "--a", str(template_path), "--b", str(compressed_path), "--quiet"
        ).returncode == 0

        assert run_cli("certify", "--gate", "SWAP", "--quiet").returncode == 3

        blocked = tmp_path / "blocked.json"
        refused = run_cli(
            "transpile", "--in", str(template_path), "--out", str(blocked),
            "--rule", "compress", "--fusion-gate", "SWAP", "--quiet",
        )
        assert refused.returncode == 2
        assert not blocked.exists()

        rng = np.random.default_rng(1010)
        big = random_circuit(rng, 4, 50)
        first = serialize(big)
        assert serialize(parse(first)) == first
