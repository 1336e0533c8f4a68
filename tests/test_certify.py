"""Tests for certification, constraint systems, scanning, and refinement."""

import math

import numpy as np
import pytest

from pentagate import (
    Circuit,
    NonUnitaryError,
    a_gate,
    a_gate_constraints,
    certify,
    check_folklore_duality,
    check_street_duality,
    compress,
    describe_fusion_gate,
    equivalent_up_to_phase,
    expand,
    heisenberg_constraints,
    is_unitary,
    pentagon_residual,
    refine,
    scan_a_gate,
    scan_fusion_solutions,
    scan_heisenberg,
    standard_gate,
    transpile,
)
from pentagate.certify import IDENTITY_CLASS, axis_points
from pentagate.errors import GridError
from pentagate import jsonio

PI = math.pi
I4 = np.eye(4, dtype=complex)

# frozen from direct evaluation of the pentagon residual
A_GATE_HALF_PI_RESIDUAL = 2.164784400584788


class TestCertify:
    def test_identity_fusion_exact(self):
        report = certify(I4, 2, 1e-10, name="I4")
        assert report.verdict == "fusion"
        assert report.residual == 0.0
        assert report.witnesses == ()

    def test_cnot_fusion(self):
        report = certify(standard_gate("CNOT"), 2, 1e-10, name="CNOT")
        assert report.is_fusion
        assert report.residual < 1e-12

    def test_a_gate_half_pi_not_fusion(self):
        report = certify(a_gate(PI / 2, 0, 0), 2, 1e-10, name="A", params=(PI / 2, 0, 0))
        assert report.verdict == "not_fusion"
        assert report.residual == pytest.approx(A_GATE_HALF_PI_RESIDUAL, abs=1e-12)

    def test_verdict_matches_residual_threshold(self):
        swap = standard_gate("SWAP")
        loose = certify(swap, 2, 10.0, name="SWAP")
        tight = certify(swap, 2, 1e-10, name="SWAP")
        assert loose.is_fusion and not tight.is_fusion
        assert loose.residual == tight.residual

    def test_non_unitary_refused(self):
        with pytest.raises(NonUnitaryError):
            certify(2.0 * I4, 2, 1e-10)

    def test_witnesses_sorted_and_capped(self):
        report = certify(standard_gate("SWAP"), 2, 1e-10, name="SWAP")
        assert 1 <= len(report.witnesses) <= 5
        deltas = [abs(w.lhs - w.rhs) for w in report.witnesses]
        assert deltas == sorted(deltas, reverse=True)

    def test_json_shape(self):
        report = certify(standard_gate("SWAP"), 2, 1e-10, name="SWAP")
        doc = report.to_jsonable()
        assert set(doc) == {
            "gate_descriptor", "equation", "residual", "tolerance", "verdict", "witnesses",
        }
        text = jsonio.dumps(doc)
        assert text.startswith('{"gate_descriptor"')
        w = doc["witnesses"][0]
        assert isinstance(w["lhs"], list) and len(w["lhs"]) == 2


class TestConstraintSystems:
    def test_a_gate_identity_point_all_zero(self):
        res = a_gate_constraints((0, 0, 0), 1e-12)
        assert res.max_residual == 0.0
        assert res.active_count == 0

    def test_a_gate_minus_two_pi_residual_two_on_diagonal(self):
        # the gate equals -I there; the pentagon sides differ by a sign,
        # putting |1 - (-1)| = 2 on diagonal entries
        res = a_gate_constraints((0, 0, -2 * PI), 1e-12)
        assert res.max_residual == pytest.approx(2.0, abs=1e-12)
        worst = np.unravel_index(np.argmax(res.entry_residuals), (8, 8))
        assert worst[0] == worst[1]

    def test_a_gate_minus_four_pi_all_zero(self):
        res = a_gate_constraints((0, 0, -4 * PI), 1e-12)
        assert res.max_residual < 1e-12
        assert res.active_count == 0

    def test_heisenberg_triple_of_checks(self):
        assert heisenberg_constraints((0, 0, 0), 1e-12).max_residual == 0.0
        assert heisenberg_constraints((0, 0, -PI), 1e-12).max_residual == pytest.approx(
            2.0, abs=1e-12
        )
        assert heisenberg_constraints((0, 0, -2 * PI), 1e-12).max_residual < 1e-12

    def test_heisenberg_equals_a_gate_constraints_at_doubled_params(self, rng):
        for _ in range(100):
            tx, ty, tz = rng.uniform(-6, 6, 3)
            ra = a_gate_constraints((2 * tx, 2 * ty, 2 * tz), 1e-12)
            rh = heisenberg_constraints((tx, ty, tz), 1e-12)
            assert np.max(np.abs(ra.entry_residuals - rh.entry_residuals)) < 1e-12

    def test_structurally_nonzero_positions(self, rng):
        # The difference of the two pentagon sides is structurally nonzero
        # at 32 of the 64 positions; the 16 entries in the upper half-rows
        # carry the scalar constraint system and the lower half mirrors
        # them at (7-i, 7-j) with identical values.
        samples = []
        union = np.zeros((8, 8), dtype=bool)
        for _ in range(60):
            res = pentagon_residual(a_gate(*rng.uniform(-6, 6, 3)), 2)
            samples.append(res.lhs - res.rhs)
            union |= np.abs(samples[-1]) > 1e-9
        assert union.sum() == 32
        top = [(i, j) for i, j in zip(*np.nonzero(union)) if i < 4]
        assert len(top) == 16
        for i, j in top:
            assert union[7 - i, 7 - j]
            for diff in samples:
                assert diff[i, j] == pytest.approx(diff[7 - i, 7 - j], abs=1e-13)

    def test_max_residual_consistent_with_certify(self, rng):
        for _ in range(20):
            p = rng.uniform(-6, 6, 3)
            res = a_gate_constraints(p, 1e-10)
            report = certify(a_gate(*p), 2, 1e-10, name="A", params=tuple(p))
            assert (res.max_residual < 1e-10) == report.is_fusion

    def test_json_shape(self):
        doc = heisenberg_constraints((0.1, 0.2, 0.3), 1e-10).to_jsonable()
        assert set(doc) == {
            "parameter_point", "entry_residuals", "active_count", "max_residual", "tolerance",
        }
        assert set(doc["parameter_point"]) == {"theta_x", "theta_y", "theta_z"}
        assert len(doc["entry_residuals"]) == 8


class TestAxisPoints:
    def test_inclusive_when_integral(self):
        pts = axis_points(0.0, PI, PI / 2)
        assert len(pts) == 3
        assert pts[-1] == pytest.approx(PI)

    def test_single_point(self):
        assert axis_points(0.0, 0.0, 1.0) == [0.0]

    def test_non_integral_span(self):
        assert len(axis_points(0.0, 1.0, 0.4)) == 3  # 0.0, 0.4, 0.8

    def test_malformed(self):
        with pytest.raises(GridError):
            axis_points(0.0, 1.0, 0.0)
        with pytest.raises(GridError):
            axis_points(1.0, 0.0, 0.5)


class TestScan:
    def test_single_point_grid(self):
        points = scan_a_gate((0.0, 0.0, 1.0), 1e-9)
        assert len(points) == 1
        assert points[0].parameters == (0.0, 0.0, 0.0)
        assert points[0].residual == 0.0
        assert points[0].operator_class == IDENTITY_CLASS

    def test_quarter_turn_grid_finds_only_identity(self):
        points = scan_a_gate((0.0, PI, PI / 2), 1e-9)
        assert [p.parameters for p in points] == [(0.0, 0.0, 0.0)]

    def test_coarse_full_period_grid_identity_class_only(self):
        points = scan_a_gate((-2 * PI, 2 * PI, PI / 2), 1e-9)
        assert points, "expected at least the identity class"
        for p in points:
            assert p.operator_class == IDENTITY_CLASS
            assert np.linalg.norm(a_gate(*p.parameters) - I4) < 1e-9

    def test_operator_level_deduplication(self):
        # (0,0,0) and (2pi, 2pi, 0) both build +I and collapse to one class
        points = scan_a_gate((-2 * PI, 2 * PI, 2 * PI), 1e-9)
        assert len(points) == 1
        assert points[0].canonical_parameters == (0.0, 0.0, 0.0)

    def test_shift_by_four_pi_preserves_classes(self):
        low = scan_a_gate((0.0, PI, PI / 2), 1e-9)
        high = scan_a_gate((4 * PI, 5 * PI, PI / 2), 1e-9)
        assert [p.operator_class for p in low] == [p.operator_class for p in high]

    def test_heisenberg_family(self):
        points = scan_heisenberg((-PI, PI, PI / 2), 1e-9)
        assert points
        for p in points:
            assert p.operator_class == IDENTITY_CLASS

    def test_solutions_recertify(self):
        for p in scan_a_gate((-2 * PI, 2 * PI, PI / 2), 1e-9):
            report = certify(a_gate(*p.parameters), 2, 1e-9, name="A", params=p.parameters)
            assert report.is_fusion

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            scan_fusion_solutions("xyz", (0.0, 1.0, 0.5))

    def test_empty_grid_error(self):
        with pytest.raises(GridError):
            scan_a_gate((1.0, 0.0, 0.5))


class TestRefine:
    def test_already_solved_point_returns_immediately(self):
        result = refine((0.0, 0.0, 0.0), "a", tol=1e-10)
        assert result.converged
        assert result.iterations == 0
        assert result.residual == 0.0
        assert result.solution is not None

    def test_converges_from_small_perturbation(self):
        result = refine((1e-3, -1e-3, 1e-3), "a", tol=1e-10)
        assert result.converged
        assert result.residual < 1e-10
        assert max(abs(p) for p in result.parameters) < 1e-6

    def test_half_pi_start_reaches_identity_class(self):
        # regression fixture: from (pi/2, pi/2, 0) the search walks into
        # the identity basin rather than stagnating
        result = refine((PI / 2, PI / 2, 0.0), "a", tol=1e-10)
        assert result.converged
        assert result.solution.operator_class == IDENTITY_CLASS

    def test_heisenberg_family_converges(self):
        result = refine((1e-3, 1e-3, -1e-3), "heis", tol=1e-10)
        assert result.converged

    def test_result_recertifies(self):
        result = refine((1e-3, -1e-3, 1e-3), "a", tol=1e-10)
        report = certify(a_gate(*result.parameters), 2, 1e-10)
        assert report.is_fusion

    def test_solution_json_roundtrip_shape(self):
        result = refine((0.0, 0.0, 0.0), "a", tol=1e-10)
        doc = result.to_jsonable()
        assert doc["converged"] is True
        assert set(doc["solution"]) == {
            "parameters", "residual", "canonical_parameters", "operator_class",
        }


BAD_TOLERANCES = [0.0, -1.0, math.nan, math.inf, -math.inf]


def _tolerance_takers():
    cnot = standard_gate("CNOT")
    empty = Circuit(2, ())
    descriptor = describe_fusion_gate(name="CNOT")
    return {
        "certify": lambda tol: certify(cnot, 2, tol),
        "a_gate_constraints": lambda tol: a_gate_constraints((0, 0, 0), tol),
        "heisenberg_constraints": lambda tol: heisenberg_constraints((0, 0, 0), tol),
        "scan_fusion_solutions": lambda tol: scan_fusion_solutions("a", (0, 0, 1), tol),
        "scan_a_gate": lambda tol: scan_a_gate((0, 0, 1), tol),
        "scan_heisenberg": lambda tol: scan_heisenberg((0, 0, 1), tol),
        "refine": lambda tol: refine((0, 0, 0), "a", tol=tol),
        "check_street_duality": lambda tol: check_street_duality(cnot, 2, tol),
        "check_folklore_duality": lambda tol: check_folklore_duality(cnot, 2, tol),
        "is_unitary": lambda tol: is_unitary(cnot, tol),
        "equivalent_up_to_phase": lambda tol: equivalent_up_to_phase(empty, empty, tol),
        "describe_fusion_gate": lambda tol: describe_fusion_gate(name="CNOT", tol=tol),
        "compress": lambda tol: compress(empty, descriptor, tol=tol),
        "expand": lambda tol: expand(empty, descriptor, tol=tol),
        "transpile": lambda tol: transpile(empty, descriptor, "compress", tol=tol),
    }


class TestToleranceValidation:
    @pytest.mark.parametrize("name", sorted(_tolerance_takers()))
    def test_rejects_non_finite_or_non_positive(self, name):
        call = _tolerance_takers()[name]
        call(1e-10)
        for tol in BAD_TOLERANCES:
            with pytest.raises(ValueError, match="tolerance must be finite and positive"):
                call(tol)
