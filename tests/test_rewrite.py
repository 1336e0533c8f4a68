"""Tests for pentagon-template matching and rewriting."""

import math
from functools import lru_cache

import numpy as np
import pytest

from pentagate import (
    CayleyTable,
    Circuit,
    GateInstance,
    RewriteVerificationError,
    SchemaError,
    UncertifiedGateError,
    circuit_distance,
    compress,
    describe_fusion_gate,
    expand,
    find_compress_sites,
    find_expand_sites,
    group_algebra_fusion,
    serialize,
    standard_gate,
    transpile,
)
from pentagate.certify import certify
from pentagate.circuit import circuit_stats, depth, route_line, to_unitary
from pentagate.gates import gate_matrix
from pentagate.rewrite import MATCH_TOLERANCE, FusionGateDescriptor, _matches_fusion_gate
from conftest import (
    GOLDEN_MATRICES,
    SITES_GOLDEN,
    golden_gates,
    nested_template_circuit,
    pair_circuit,
    seeded_template_circuit,
    template_circuit,
    template_gates,
)

PI = math.pi


@pytest.fixture(scope="module")
def cnot_descriptor():
    return describe_fusion_gate(name="CNOT", tol=1e-10)


class TestDescriptor:
    def test_cnot_certifies(self, cnot_descriptor):
        assert cnot_descriptor.certification.is_fusion
        assert cnot_descriptor.gate.name == "CNOT"

    def test_swap_refused(self):
        with pytest.raises(UncertifiedGateError) as err:
            describe_fusion_gate(name="SWAP", tol=1e-10)
        assert err.value.report.residual == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_custom_matrix_descriptor(self):
        z2 = group_algebra_fusion(CayleyTable.cyclic(2))
        descriptor = describe_fusion_gate(matrix=z2, tol=1e-10)
        assert descriptor.certification.is_fusion
        assert descriptor.gate.name == "custom"

    def test_one_qubit_name_rejected(self):
        with pytest.raises(ValueError):
            describe_fusion_gate(name="H", tol=1e-10)

    @pytest.mark.parametrize("name, params, tol", [
        ("CNOT", (), 1e-10), ("XX", (0.3,), 10.0), ("A", (0.0, 2 * PI, 2 * PI), 1e-9)])
    def test_descriptor_certifies_its_own_gate(self, name, params, tol):
        gate = GateInstance(name, (1, 0), params)
        descriptor = FusionGateDescriptor(gate, tol)
        assert descriptor.gate is gate and descriptor.tol == tol
        assert descriptor.certification == certify(gate_matrix(name, params), 2, tol, name=name, params=params)
        assert descriptor.certification == describe_fusion_gate(name, params, tol=tol).certification

    def test_certification_of_another_gate_is_refused(self):
        # a CNOT report beside a SWAP gate would let compress rewrite SWAP
        # templates at phase distance 2 sqrt(2) without an error
        cnot_report = certify(standard_gate("CNOT"), name="CNOT")
        with pytest.raises(ValueError, match=r"^tolerance: expected a number, got CertificationReport\("):
            FusionGateDescriptor(GateInstance("SWAP", (0, 1)), cnot_report)
        with pytest.raises(UncertifiedGateError, match=r"^gate 'SWAP' is not a fusion operator"):
            FusionGateDescriptor(GateInstance("SWAP", (0, 1)))

    @pytest.mark.parametrize("gate", [None, "CNOT", standard_gate("CNOT")], ids=["none", "name", "matrix"])
    def test_gate_that_is_not_a_gate_instance_is_refused(self, gate):
        message = rf"^fusion gate: expected a GateInstance, got {type(gate).__name__}$"
        with pytest.raises(SchemaError, match=message):
            FusionGateDescriptor(gate)

    def test_gate_the_circuit_schema_rejects_is_refused(self):
        # certify accepts it at tol 1e-6, but no circuit may hold it: a
        # custom gate must be unitary within 1e-10
        nearly = standard_gate("CNOT") * (1 + 5e-11)
        message = r"^fusion gate 'custom': matrix: not unitary within 1e-10$"
        with pytest.raises(SchemaError, match=message):
            describe_fusion_gate(matrix=nearly, tol=1e-6)

    def test_name_given_with_a_matrix_is_refused(self):
        # the name is not dropped for "custom": the gate schema refuses the pair
        message = r"^fusion gate 'SWAP': matrix: only allowed for custom gates$"
        with pytest.raises(SchemaError, match=message):
            describe_fusion_gate("SWAP", (), standard_gate("CNOT"))
        with pytest.raises(ValueError):
            describe_fusion_gate()


class TestFindCompressSites:
    def test_exact_template(self, cnot_descriptor):
        sites = find_compress_sites(template_circuit(), cnot_descriptor)
        assert len(sites) == 1
        assert sites[0].gate_indices == (0, 1, 2, 3, 4)
        assert sites[0].wires == (0, 1, 2)

    def test_disjoint_interleaving_allowed(self, cnot_descriptor):
        gates = template_gates("CNOT", (), (0, 1, 2))
        gates.insert(2, GateInstance("H", (3,)))
        sites = find_compress_sites(Circuit(4, tuple(gates)), cnot_descriptor)
        assert len(sites) == 1
        assert sites[0].gate_indices == (0, 1, 3, 4, 5)

    def test_blocking_gate_on_bound_wire(self, cnot_descriptor):
        gates = template_gates("CNOT", (), (0, 1, 2))
        gates.insert(2, GateInstance("X", (1,)))
        assert find_compress_sites(Circuit(3, tuple(gates)), cnot_descriptor) == []

    def test_gate_touching_late_bound_wire_blocks(self, cnot_descriptor):
        # a gate on wire a sits before a is bound by the third gate and
        # must still block the match
        gates = template_gates("CNOT", (), (0, 1, 2))
        gates.insert(1, GateInstance("X", (0,)))
        assert find_compress_sites(Circuit(3, tuple(gates)), cnot_descriptor) == []

    def test_sequential_templates_both_found(self, cnot_descriptor):
        gates = template_gates("CNOT", (), (0, 1, 2)) + template_gates("CNOT", (), (0, 1, 2))
        sites = find_compress_sites(Circuit(3, tuple(gates)), cnot_descriptor)
        assert [s.gate_indices for s in sites] == [(0, 1, 2, 3, 4), (5, 6, 7, 8, 9)]

    def test_wrong_parameters_do_not_match(self):
        descriptor = describe_fusion_gate(name="A", params=(0.0, 0.0, 0.0), tol=1e-10)
        circuit = template_circuit("A", (0.1, 0.0, 0.0))
        assert find_compress_sites(circuit, descriptor) == []

    @pytest.mark.parametrize("phase, sites", [(5e-11, 1), (2e-10, 0)])
    def test_custom_fusion_gate_matches_within_the_match_tolerance(self, phase, sites):
        # a global phase keeps the gate unitary and moves each unit entry by about `phase`
        z2 = group_algebra_fusion(CayleyTable.cyclic(2))
        descriptor = describe_fusion_gate(matrix=z2, tol=1e-10)
        shifted = z2 * np.exp(1j * phase)
        assert (np.abs(shifted - z2).max() <= MATCH_TOLERANCE) == (sites == 1)
        t = lambda w: GateInstance("custom", w, (), shifted)
        swap = GateInstance("SWAP", (1, 2))
        circuit = Circuit(3, (t((1, 2)), swap, t((0, 1)), swap, t((0, 1))))
        assert len(find_compress_sites(circuit, descriptor)) == sites

    @pytest.mark.parametrize("wires", [(0,), (0, 1, 2)], ids=["one_wire", "three_wires"])
    def test_custom_gate_on_other_wire_counts_never_matches(self, wires):
        z2 = group_algebra_fusion(CayleyTable.cyclic(2))
        descriptor = describe_fusion_gate(matrix=z2, tol=1e-10)
        gate = GateInstance("custom", wires, (), np.eye(2 ** len(wires)))
        assert _matches_fusion_gate(gate, descriptor) is False

    def test_nonadjacent_wire_triple_matches(self, cnot_descriptor):
        circuit = template_circuit("CNOT", (), (4, 0, 2), num_qubits=5)
        sites = find_compress_sites(circuit, cnot_descriptor)
        assert len(sites) == 1
        assert sites[0].wires == (4, 0, 2)


class TestCompress:
    def test_pure_template(self, cnot_descriptor):
        out, report = compress(template_circuit(), cnot_descriptor, verify=True, tol=1e-10)
        assert [(g.name, g.wires) for g in out.gates] == [("CNOT", (0, 1)), ("CNOT", (1, 2))]
        assert report.sites_found == 1
        assert (report.gate_count_before, report.gate_count_after) == (5, 2)
        assert (report.depth_before, report.depth_after) == (5, 2)
        assert report.equivalence_verified and report.phase_distance < 1e-10

    def test_no_sites_leaves_circuit_unchanged(self, cnot_descriptor):
        c = Circuit(3, (GateInstance("H", (0,)), GateInstance("CNOT", (0, 1))))
        out, report = compress(c, cnot_descriptor, verify=True, tol=1e-10)
        assert serialize(out) == serialize(c)
        assert report.sites_found == 0
        assert report.phase_distance == 0.0

    def test_not_fusion_descriptor_refused_before_matching(self):
        # a descriptor is certified by construction, so no rewrite entry sees one
        report = certify(standard_gate("SWAP"), 2, 1e-10, name="SWAP")
        assert not report.is_fusion
        message = r"^gate 'SWAP' is not a fusion operator: pentagon residual 2.82843 >= tolerance 1e-10$"
        with pytest.raises(UncertifiedGateError, match=message) as err:
            FusionGateDescriptor(GateInstance("SWAP", (0, 1)), 1e-10)
        assert err.value.report == report

    def test_loosely_certified_gate_fails_verification(self):
        loose = describe_fusion_gate(name="XX", params=(0.3,), tol=10.0)
        circuit = template_circuit("XX", (0.3,))
        with pytest.raises(RewriteVerificationError) as err:
            compress(circuit, loose, verify=True, tol=1e-10)
        assert err.value.site.gate_indices == (0, 1, 2, 3, 4)
        # without verification the rewrite goes through
        out, report = compress(circuit, loose, verify=False, tol=1e-10)
        assert report.sites_found == 1
        assert report.phase_distance is None

    def test_interleaved_gate_survives(self, cnot_descriptor):
        gates = template_gates("CNOT", (), (0, 1, 2))
        gates.insert(2, GateInstance("H", (3,)))
        c = Circuit(4, tuple(gates))
        out, report = compress(c, cnot_descriptor, verify=True, tol=1e-10)
        assert report.sites_found == 1
        assert sum(1 for g in out.gates if g.name == "H") == 1
        assert circuit_distance(c, out) < 1e-10

    def test_custom_fusion_gate_template(self):
        z2 = group_algebra_fusion(CayleyTable.cyclic(2))
        descriptor = describe_fusion_gate(matrix=z2, tol=1e-10)
        gates = []
        for name, wires in [
            ("custom", (1, 2)), ("SWAP", (1, 2)), ("custom", (0, 1)),
            ("SWAP", (1, 2)), ("custom", (0, 1)),
        ]:
            matrix = z2 if name == "custom" else None
            gates.append(GateInstance(name, wires, (), matrix))
        c = Circuit(3, tuple(gates))
        out, report = compress(c, descriptor, verify=True, tol=1e-10)
        assert report.sites_found == 1
        assert len(out.gates) == 2


class TestExpand:
    def test_pair_expands_to_template(self, cnot_descriptor):
        out, report = expand(pair_circuit(), cnot_descriptor, verify=True, tol=1e-10)
        assert serialize(out) == serialize(template_circuit())
        assert report.sites_found == 1
        assert (report.gate_count_before, report.gate_count_after) == (2, 5)

    def test_expand_then_compress_is_identity(self, cnot_descriptor):
        pair = pair_circuit()
        expanded, _ = expand(pair, cnot_descriptor, verify=True, tol=1e-10)
        back, _ = compress(expanded, cnot_descriptor, verify=True, tol=1e-10)
        assert serialize(back) == serialize(pair)

    def test_compress_then_expand_restores_template(self, cnot_descriptor):
        template = template_circuit()
        compressed, _ = compress(template, cnot_descriptor, verify=True, tol=1e-10)
        restored, _ = expand(compressed, cnot_descriptor, verify=True, tol=1e-10)
        assert serialize(restored) == serialize(template)

    def test_disjoint_pair_untouched(self, cnot_descriptor):
        c = Circuit(4, (GateInstance("CNOT", (0, 1)), GateInstance("CNOT", (2, 3))))
        out, report = expand(c, cnot_descriptor, verify=True, tol=1e-10)
        assert report.sites_found == 0
        assert serialize(out) == serialize(c)

    def test_shared_first_wire_is_not_the_pattern(self, cnot_descriptor):
        c = Circuit(3, (GateInstance("CNOT", (0, 1)), GateInstance("CNOT", (0, 2))))
        assert find_expand_sites(c, cnot_descriptor) == []

    def test_blocking_gate_on_target_wire(self, cnot_descriptor):
        c = Circuit(
            3,
            (
                GateInstance("CNOT", (0, 1)),
                GateInstance("X", (2,)),
                GateInstance("CNOT", (1, 2)),
            ),
        )
        assert find_expand_sites(c, cnot_descriptor) == []

    def test_expansion_is_idempotent_at_fixed_point(self, cnot_descriptor):
        out, _ = expand(pair_circuit(), cnot_descriptor, verify=True, tol=1e-10)
        again, report = expand(out, cnot_descriptor, verify=True, tol=1e-10)
        assert report.sites_found == 0
        assert serialize(again) == serialize(out)


class TestSemanticPreservation:
    def test_seeded_circuits_preserved(self, rng, cnot_descriptor):
        for _ in range(60):
            circuit, blocks = seeded_template_circuit(rng)
            out, report = compress(circuit, cnot_descriptor, verify=True, tol=1e-10)
            assert report.sites_found == blocks
            assert report.gate_count_after == report.gate_count_before - 3 * blocks
            assert circuit_distance(circuit, out) < 1e-10

    def test_gate_count_arithmetic_expand(self, rng, cnot_descriptor):
        circuit = pair_circuit()
        out, report = expand(circuit, cnot_descriptor, verify=True, tol=1e-10)
        assert report.gate_count_after == report.gate_count_before + 3 * report.sites_found

    def test_depth_monotone_on_templates(self, cnot_descriptor):
        for wires in [(0, 1, 2), (2, 0, 1), (1, 2, 0)]:
            template = template_circuit("CNOT", (), wires)
            out, report = compress(template, cnot_descriptor, verify=True, tol=1e-10)
            assert report.depth_after <= report.depth_before

    def test_group_fusion_descriptor_on_seeded_circuits(self, rng):
        # same preservation property with the custom-matrix descriptor
        # flavor, using the Z2 fusion operator (the CNOT permutation)
        from conftest import random_filler_gates

        z2 = group_algebra_fusion(CayleyTable.cyclic(2))
        descriptor = describe_fusion_gate(matrix=z2, tol=1e-10)

        def custom_template(wires):
            a, b, c = wires
            t = lambda w: GateInstance("custom", w, (), z2)
            swap = GateInstance("SWAP", (b, c))
            return [t((b, c)), swap, t((a, b)), swap, t((a, b))]

        for _ in range(20):
            n = int(rng.integers(3, 6))
            blocks = int(rng.integers(1, 3))
            gates = []
            for _ in range(blocks):
                gates.extend(random_filler_gates(rng, n, int(rng.integers(0, 3))))
                w = rng.choice(n, size=3, replace=False)
                gates.extend(custom_template((int(w[0]), int(w[1]), int(w[2]))))
            circuit = Circuit(n, tuple(gates))
            out, report = compress(circuit, descriptor, verify=True, tol=1e-10)
            assert report.sites_found == blocks
            assert report.gate_count_after == report.gate_count_before - 3 * blocks
            assert circuit_distance(circuit, out) < 1e-10


class TestRebuildChecks:
    def test_unverified_compress_checks_only_the_gates_it_writes(self, monkeypatch):
        import pentagate.circuit

        z2 = group_algebra_fusion(CayleyTable.cyclic(2))
        descriptor = describe_fusion_gate(matrix=z2, tol=1e-10)
        phase = GateInstance("custom", (3,), (), np.exp(0.3j) * np.eye(2))
        t = lambda w: GateInstance("custom", w, (), z2)
        swap = GateInstance("SWAP", (1, 2))
        circuit = Circuit(4, (phase, t((1, 2)), swap, t((0, 1)), swap, t((0, 1)), phase))
        checked = []
        is_unitary = pentagate.circuit.is_unitary
        monkeypatch.setattr(pentagate.circuit, "is_unitary",
                            lambda m, tol: checked.append(m.shape) or is_unitary(m, tol))
        out, report = compress(circuit, descriptor, verify=False)
        assert report.sites_found == 1
        # the two T gates the site writes, not the phase gates carried over
        assert checked == [(4, 4)] * 2
        assert [g.name for g in out.gates] == ["custom"] * 4

    def test_sites_on_one_triple_share_the_gates_written(self, monkeypatch):
        import pentagate.circuit

        z2 = group_algebra_fusion(CayleyTable.cyclic(2))
        descriptor = describe_fusion_gate(matrix=z2, tol=1e-10)
        t = lambda w: GateInstance("custom", w, (), z2)
        swap = GateInstance("SWAP", (1, 2))
        circuit = Circuit(3, (t((1, 2)), swap, t((0, 1)), swap, t((0, 1))) * 3)
        checked = []
        is_unitary = pentagate.circuit.is_unitary
        monkeypatch.setattr(pentagate.circuit, "is_unitary",
                            lambda m, tol: checked.append(m.shape) or is_unitary(m, tol))
        out, report = compress(circuit, descriptor, verify=False)
        assert report.sites_found == 3
        # one pair of T gates for the wire triple, written at all three sites
        assert checked == [(4, 4)] * 2
        assert len(out.gates) == 6 and len({id(g) for g in out.gates}) == 2


#: Every function that reads a circuit, called on a value that is not one.
CIRCUIT_READERS = {
    "route_line": lambda c, fusion: route_line(c),
    "circuit_stats": lambda c, fusion: circuit_stats(c),
    "depth": lambda c, fusion: depth(c),
    "to_unitary": lambda c, fusion: to_unitary(c),
    "serialize": lambda c, fusion: serialize(c),
    "circuit_distance_first": lambda c, fusion: circuit_distance(c, Circuit(1)),
    "circuit_distance_second": lambda c, fusion: circuit_distance(Circuit(1), c),
    "transpile": lambda c, fusion: transpile(c, fusion, "compress"),
    "compress": lambda c, fusion: compress(c, fusion),
    "expand": lambda c, fusion: expand(c, fusion),
    "find_compress_sites": lambda c, fusion: find_compress_sites(c, fusion),
    "find_expand_sites": lambda c, fusion: find_expand_sites(c, fusion),
}


@pytest.mark.parametrize("value, kind", [(None, "NoneType"), ("{}", "str"),
                                         ([GateInstance("H", (0,))], "list")],
                         ids=["none", "text", "gate_list"])
@pytest.mark.parametrize("reader", sorted(CIRCUIT_READERS))
def test_circuit_readers_refuse_a_non_circuit(reader, value, kind, cnot_descriptor):
    with pytest.raises(Exception) as caught:
        CIRCUIT_READERS[reader](value, cnot_descriptor)
    assert type(caught.value) is SchemaError
    assert str(caught.value) == f"circuit: expected a Circuit, got {kind}"


class TestTranspileDriver:
    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_fixed_point_matches_repeated_passes(self, cnot_descriptor, simulations, levels):
        circuit = nested_template_circuit(levels)
        out, report = transpile(circuit, cnot_descriptor, "compress", fixed_point=True)
        # verification compares the input with the final output only, and
        # the output differs from it by permutation gates that cancel, so
        # the two are proven equal without simulating
        assert simulations == []
        current, found = circuit, 0
        while True:
            current, step = compress(current, cnot_descriptor, verify=False)
            found += step.sites_found
            if step.sites_found == 0:
                break
        assert serialize(out) == serialize(current)
        assert report.sites_found == found == levels
        assert report.passes == levels + 1
        assert (report.gate_count_before, report.gate_count_after) == (1 + 4 * levels, 1 + levels)
        assert report.phase_distance == 0.0

    def test_dense_fusion_gate_simulates_both_circuits(self, loose, simulations):
        # the A gate near the identity is dense, so the rewrite changes dense
        # gates and the output's unitary is simulated too
        circuit = nested_template_circuit(2, "A", NEAR_IDENTITY)
        out, report = transpile(circuit, loose, "compress", fixed_point=True, tol=LOOSE_TOL)
        assert report.sites_found == 2 and 0.01 < report.phase_distance < LOOSE_TOL
        assert simulations == [circuit, out]

    def test_single_pass_equals_compress(self, cnot_descriptor):
        circuit = nested_template_circuit(2)
        out, report = transpile(circuit, cnot_descriptor, "compress")
        expected, expected_report = compress(circuit, cnot_descriptor)
        assert serialize(out) == serialize(expected)
        assert report == expected_report
        assert report.sites_found == 1 and report.passes == 1

    def test_unknown_rule(self, cnot_descriptor):
        with pytest.raises(ValueError, match="unknown rule"):
            transpile(template_circuit(), cnot_descriptor, "shuffle")

    def test_no_sites_no_simulation(self, cnot_descriptor, simulations):
        c = Circuit(3, (GateInstance("H", (0,)),))
        _, report = transpile(c, cnot_descriptor, "compress", fixed_point=True)
        assert report.phase_distance == 0.0
        assert simulations == []


#: A(delta, 0, 0) is within 0.0142 of a fusion operator: certified at tol
#: 0.03, one rewritten site moves the unitary by 0.0141, four by 0.0566.
NEAR_IDENTITY = (0.01, 0.0, 0.0)
LOOSE_TOL = 0.03


@pytest.fixture(scope="module")
def loose():
    return describe_fusion_gate(name="A", params=NEAR_IDENTITY, tol=LOOSE_TOL)


class TestInteractingSiteFailure:
    @pytest.fixture
    def four_sites(self):
        gates = template_gates("A", NEAR_IDENTITY, (0, 1, 2)) * 4
        return Circuit(3, tuple(gates))

    def test_no_single_site_is_blamed(self, four_sites, loose):
        assert len(find_compress_sites(four_sites, loose)) == 4
        with pytest.raises(RewriteVerificationError) as err:
            compress(four_sites, loose, verify=True, tol=LOOSE_TOL)
        assert err.value.site is None
        assert (
            "none of its 4 sites fails on its own (largest single-site distance "
            "0.0141421): the per-site errors add up" in str(err.value)
        )

    def test_each_site_alone_passes(self, loose):
        one = Circuit(3, tuple(template_gates("A", NEAR_IDENTITY, (0, 1, 2))))
        _, report = compress(one, loose, verify=True, tol=LOOSE_TOL)
        assert 0.01 < report.phase_distance < LOOSE_TOL

    def test_failure_simulates_the_input_once(self, four_sites, loose, simulations):
        with pytest.raises(RewriteVerificationError):
            compress(four_sites, loose, verify=True, tol=LOOSE_TOL)
        assert sum(c is four_sites for c in simulations) == 1
        # the input and the full rewrite, then the 5-gate window the four
        # equal sites share and the 2 gates that replace it
        assert simulations[0] is four_sites
        assert [len(c.gates) for c in simulations] == [20, 8, 5, 2]

    def test_diagnosis_simulates_only_windows(self, loose, simulations):
        # four sites on a 7-qubit register, each interleaved with a gate on
        # other wires; each alone moves the unitary by 4 * 0.0141 < 0.1
        gates = []
        for wires in ((0, 1, 2), (5, 2, 1), (0, 1, 2), (6, 1, 0)):
            gates += template_gates("A", NEAR_IDENTITY, wires)
            gates.insert(len(gates) - 2, GateInstance("CNOT", (3, 4)))
        circuit = Circuit(7, tuple(gates))
        assert len(find_compress_sites(circuit, loose)) == 4
        with pytest.raises(RewriteVerificationError) as err:
            compress(circuit, loose, verify=True, tol=0.1)
        assert err.value.site is None
        assert "(largest single-site distance 0.0565685)" in str(err.value)
        # the four sites are equal on their roles, so they share one window
        assert [c.num_qubits for c in simulations] == [7, 7, 3, 3]
        assert simulations[0] is circuit

    def test_one_window_per_distinct_site(self, loose, simulations):
        gates = []
        for wires in ((0, 1, 2), (3, 4, 2), (0, 1, 2), (4, 3, 0), (0, 1, 2)):
            gates += template_gates("A", NEAR_IDENTITY, wires)
        # the same site with its SWAPs on (c, b): an equal unitary, but another gate tuple
        t = lambda w: GateInstance("A", w, NEAR_IDENTITY)
        swap = GateInstance("SWAP", (4, 3))
        gates += [t((3, 4)), swap, t((2, 3)), swap, t((2, 3))]
        circuit = Circuit(5, tuple(gates))
        with pytest.raises(RewriteVerificationError) as err:
            compress(circuit, loose, verify=True, tol=LOOSE_TOL)
        assert str(err.value) == (
            "rewrite is not equivalent to the input (phase distance 0.0979773 >= 0.03) yet "
            "none of its 6 sites fails on its own (largest single-site distance 0.0282842): "
            "the per-site errors add up; rolled back"
        )
        # two full registers, then a window and its replacement per distinct tuple
        assert [c.num_qubits for c in simulations] == [5, 5, 3, 3, 3, 3]
        assert [len(c.gates) for c in simulations[2:]] == [5, 2, 5, 2]


class TestEndToEndVerification:
    """A fixed-point run is verified against its input, not pass by pass."""

    def test_drift_over_passes_fails(self, loose, simulations):
        # each of the 3 passes moves the unitary by 0.02 < tol, all three by 0.0447
        circuit = nested_template_circuit(3, "A", NEAR_IDENTITY)
        with pytest.raises(RewriteVerificationError) as err:
            transpile(circuit, loose, "compress", fixed_point=True, tol=LOOSE_TOL)
        assert err.value.site is None
        assert (
            "(phase distance 0.044721 >= 0.03) yet none of its 3 sites fails on its own "
            "(largest single-site distance 0.02): the per-site errors add up" in str(err.value)
        )
        assert [c.num_qubits for c in simulations[:2]] == [4, 4]
        assert all(c.num_qubits == 3 for c in simulations[2:])

    def test_each_pass_alone_passes(self, loose):
        current = nested_template_circuit(3, "A", NEAR_IDENTITY)
        for _ in range(3):
            current, report = compress(current, loose, verify=True, tol=LOOSE_TOL)
            assert report.sites_found == 1
            assert 0.01 < report.phase_distance < LOOSE_TOL

    def test_site_is_blamed_in_its_pass(self, loose):
        # every site of one descriptor moves the unitary by the same window
        # distance, up to the 1e-10 parameter slack of matching: the second
        # level's gates are 9e-11 off, so its site alone moves it 1.8e-10 more
        base = nested_template_circuit(2, "A", NEAR_IDENTITY)
        bumped = nested_template_circuit(2, "A", (NEAR_IDENTITY[0] + 9e-11, 0.0, 0.0))
        circuit = Circuit(4, base.gates[:5] + bumped.gates[5:])
        with pytest.raises(RewriteVerificationError) as err:
            transpile(circuit, loose, "compress", fixed_point=True, tol=0.0199999792)
        assert err.value.site.gate_indices == (1, 2, 3, 4, 5)
        assert str(err.value).endswith(
            "at site RewriteSite(gate_indices=(1, 2, 3, 4, 5), wires=(3, 1, 2)) in pass 2; rolled back"
        )


@lru_cache(maxsize=None)
def _golden_descriptor(name, extra):
    if name == "custom":
        return describe_fusion_gate(matrix=GOLDEN_MATRICES[extra], tol=1e-10)
    return describe_fusion_gate(name=name, params=extra, tol=1e-10)


@pytest.mark.parametrize("case", SITES_GOLDEN["cases"], ids=[c["name"] for c in SITES_GOLDEN["cases"]])
def test_golden_sites_and_fixed_points(case):
    name, extra = case["fusion"]
    descriptor = _golden_descriptor(name, extra if name == "custom" else tuple(extra))
    circuit = Circuit(case["qubits"], tuple(golden_gates(case["gates"])))
    for rule, find in (("compress", find_compress_sites), ("expand", find_expand_sites)):
        sites = [[list(s.gate_indices), list(s.wires)] for s in find(circuit, descriptor)]
        assert sites == case[f"{rule}_sites"], rule
        out, report = transpile(circuit, descriptor, rule, fixed_point=True, verify=False)
        expected = Circuit(case["qubits"], tuple(golden_gates(case[rule]["gates"])))
        assert serialize(out) == serialize(expected), rule
        assert report.sites_found == case[rule]["sites_found"], rule
