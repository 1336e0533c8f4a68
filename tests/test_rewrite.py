"""Tests for pentagon-template matching and rewriting."""

import math

import pytest

from pentagate import (
    CayleyTable,
    Circuit,
    GateInstance,
    RewriteVerificationError,
    UncertifiedGateError,
    circuits_identical,
    compress,
    depth,
    describe_fusion_gate,
    equivalent_up_to_phase,
    expand,
    find_compress_sites,
    find_expand_sites,
    group_algebra_fusion,
    transpile,
)
from pentagate.rewrite import FusionGateDescriptor
from conftest import (
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

    def test_nonadjacent_wire_triple_matches(self, cnot_descriptor):
        circuit = template_circuit("CNOT", (), (4, 0, 2), num_qubits=5)
        sites = find_compress_sites(circuit, cnot_descriptor)
        assert len(sites) == 1
        assert sites[0].wires == (4, 0, 2)


class TestCompress:
    def test_pure_template(self, cnot_descriptor):
        out, report = compress(template_circuit(), cnot_descriptor, verify=True, tol=1e-10)
        assert [(g.name, g.wires) for g in out.gates] == [("CNOT", (0, 1)), ("CNOT", (1, 2))]
        assert (report.sites_found, report.sites_rewritten) == (1, 1)
        assert (report.gate_count_before, report.gate_count_after) == (5, 2)
        assert (report.depth_before, report.depth_after) == (5, 2)
        assert report.equivalence_verified and report.phase_distance < 1e-10

    def test_no_sites_leaves_circuit_unchanged(self, cnot_descriptor):
        c = Circuit(3, (GateInstance("H", (0,)), GateInstance("CNOT", (0, 1))))
        out, report = compress(c, cnot_descriptor, verify=True, tol=1e-10)
        assert circuits_identical(out, c)
        assert report.sites_found == 0
        assert report.phase_distance == 0.0

    def test_not_fusion_descriptor_refused_before_matching(self):
        from pentagate.certify import certify
        from pentagate.gates import standard_gate

        bad = FusionGateDescriptor(
            GateInstance("SWAP", (0, 1)),
            certify(standard_gate("SWAP"), 2, 1e-10, name="SWAP"),
        )
        assert not bad.certification.is_fusion
        with pytest.raises(UncertifiedGateError):
            compress(template_circuit("SWAP"), bad, verify=True, tol=1e-10)

    def test_loosely_certified_gate_fails_verification(self):
        loose = describe_fusion_gate(name="XX", params=(0.3,), tol=10.0)
        circuit = template_circuit("XX", (0.3,))
        with pytest.raises(RewriteVerificationError) as err:
            compress(circuit, loose, verify=True, tol=1e-10)
        assert err.value.site.gate_indices == (0, 1, 2, 3, 4)
        # without verification the rewrite goes through
        out, report = compress(circuit, loose, verify=False, tol=1e-10)
        assert report.sites_rewritten == 1
        assert report.phase_distance is None

    def test_interleaved_gate_survives(self, cnot_descriptor):
        gates = template_gates("CNOT", (), (0, 1, 2))
        gates.insert(2, GateInstance("H", (3,)))
        c = Circuit(4, tuple(gates))
        out, report = compress(c, cnot_descriptor, verify=True, tol=1e-10)
        assert report.sites_rewritten == 1
        assert sum(1 for g in out.gates if g.name == "H") == 1
        assert equivalent_up_to_phase(c, out, 1e-10)

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
        assert report.sites_rewritten == 1
        assert len(out.gates) == 2


class TestExpand:
    def test_pair_expands_to_template(self, cnot_descriptor):
        out, report = expand(pair_circuit(), cnot_descriptor, verify=True, tol=1e-10)
        assert circuits_identical(out, template_circuit())
        assert report.sites_rewritten == 1
        assert (report.gate_count_before, report.gate_count_after) == (2, 5)

    def test_expand_then_compress_is_identity(self, cnot_descriptor):
        pair = pair_circuit()
        expanded, _ = expand(pair, cnot_descriptor, verify=True, tol=1e-10)
        back, _ = compress(expanded, cnot_descriptor, verify=True, tol=1e-10)
        assert circuits_identical(back, pair)

    def test_compress_then_expand_restores_template(self, cnot_descriptor):
        template = template_circuit()
        compressed, _ = compress(template, cnot_descriptor, verify=True, tol=1e-10)
        restored, _ = expand(compressed, cnot_descriptor, verify=True, tol=1e-10)
        assert circuits_identical(restored, template)

    def test_disjoint_pair_untouched(self, cnot_descriptor):
        c = Circuit(4, (GateInstance("CNOT", (0, 1)), GateInstance("CNOT", (2, 3))))
        out, report = expand(c, cnot_descriptor, verify=True, tol=1e-10)
        assert report.sites_found == 0
        assert circuits_identical(out, c)

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
        assert circuits_identical(again, out)


class TestSemanticPreservation:
    def test_seeded_circuits_preserved(self, rng, cnot_descriptor):
        for _ in range(60):
            circuit, blocks = seeded_template_circuit(rng)
            out, report = compress(circuit, cnot_descriptor, verify=True, tol=1e-10)
            assert report.sites_found == blocks
            assert report.gate_count_after == report.gate_count_before - 3 * blocks
            assert equivalent_up_to_phase(circuit, out, 1e-10)

    def test_gate_count_arithmetic_expand(self, rng, cnot_descriptor):
        circuit = pair_circuit()
        out, report = expand(circuit, cnot_descriptor, verify=True, tol=1e-10)
        assert report.gate_count_after == report.gate_count_before + 3 * report.sites_rewritten

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
            assert report.sites_rewritten == blocks
            assert report.gate_count_after == report.gate_count_before - 3 * blocks
            assert equivalent_up_to_phase(circuit, out, 1e-10)


class TestTranspileDriver:
    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_fixed_point_matches_repeated_passes(self, cnot_descriptor, simulations, levels):
        circuit = nested_template_circuit(levels)
        out, report = transpile(circuit, cnot_descriptor, "compress", fixed_point=True)
        # k rewriting passes simulate the input plus each pass's output
        assert len(simulations) == levels + 1
        current, found = circuit, 0
        while True:
            current, step = compress(current, cnot_descriptor, verify=False)
            found += step.sites_found
            if step.sites_found == 0:
                break
        assert circuits_identical(out, current)
        assert report.sites_found == report.sites_rewritten == found == levels
        assert report.passes == levels + 1
        assert (report.gate_count_before, report.gate_count_after) == (1 + 4 * levels, 1 + levels)
        assert report.phase_distance == 0.0

    def test_single_pass_equals_compress(self, cnot_descriptor):
        circuit = nested_template_circuit(2)
        out, report = transpile(circuit, cnot_descriptor, "compress")
        expected, expected_report = compress(circuit, cnot_descriptor)
        assert circuits_identical(out, expected)
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


class TestInteractingSiteFailure:
    @pytest.fixture
    def four_sites(self):
        gates = template_gates("A", NEAR_IDENTITY, (0, 1, 2)) * 4
        return Circuit(3, tuple(gates))

    @pytest.fixture
    def loose(self):
        return describe_fusion_gate(name="A", params=NEAR_IDENTITY, tol=LOOSE_TOL)

    def test_no_single_site_is_blamed(self, four_sites, loose):
        assert len(find_compress_sites(four_sites, loose)) == 4
        with pytest.raises(RewriteVerificationError) as err:
            compress(four_sites, loose, verify=True, tol=LOOSE_TOL)
        assert err.value.site is None
        assert "only appears when sites interact" in str(err.value)

    def test_each_site_alone_passes(self, loose):
        one = Circuit(3, tuple(template_gates("A", NEAR_IDENTITY, (0, 1, 2))))
        _, report = compress(one, loose, verify=True, tol=LOOSE_TOL)
        assert 0.01 < report.phase_distance < LOOSE_TOL

    def test_failure_simulates_the_input_once(self, four_sites, loose, simulations):
        with pytest.raises(RewriteVerificationError):
            compress(four_sites, loose, verify=True, tol=LOOSE_TOL)
        assert sum(c is four_sites for c in simulations) == 1
        # the input, the full rewrite, then each single-site rewrite once
        assert len(simulations) == 2 + 4
