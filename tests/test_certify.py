"""Tests for certification, constraint systems, scanning, and refinement."""

import functools
import importlib
import itertools
import json
import math
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pentagate import (
    CayleyTable,
    Circuit,
    DimensionError,
    NonUnitaryError,
    a_gate,
    certify,
    check_folklore_duality,
    check_street_duality,
    compress,
    constraints,
    describe_fusion_gate,
    expand,
    group_algebra_fusion,
    is_unitary,
    pentagon_residual,
    refine,
    scan_fusion_solutions,
    standard_gate,
    transpile,
)
from pentagate.certify import FAMILIES, IDENTITY_CLASS, axis_points
from pentagate.circuit import GateInstance, _decode_matrix
from pentagate.equations import _pentagon_column_bound, pentagon_stack
from pentagate.errors import GridError, SchemaError
from pentagate.gates import gate_matrix
from pentagate import jsonio
from conftest import haar_unitary, template_circuit
from oracles import report_reference, scan_reference

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
        # 0/1 entries with one 1 per row but a repeated column: no permutation,
        # although these rows read as an index map would solve the equation
        with pytest.raises(NonUnitaryError):
            certify(np.eye(4)[[0, 1, 0, 3]], 2, 1e-10)
        # the index-map check applies the shape rule before unitarity is checked
        with pytest.raises(DimensionError):
            certify(np.ones((9, 9)), 2, 1e-10)

    @pytest.mark.parametrize("matrix", [np.eye(64), np.ones((9, 9))], ids=["eye64", "ones9"])
    def test_wrong_size_matrix_refused_before_unitarity(self, matrix, monkeypatch):
        monkeypatch.setattr(importlib.import_module("pentagate.certify"), "is_unitary", None)
        size = len(matrix)
        message = rf"shape \({size}, {size}\) does not act on 2 wires"
        with pytest.raises(DimensionError, match=message):
            certify(matrix, 2)

    @pytest.mark.parametrize("point, sign", [
        ((0, 0, 0), 1), ((0, 2 * PI, 2 * PI), 1), ((2 * PI, 0, 2 * PI), 1),
        ((2 * PI, 2 * PI, 0), 1), ((2 * PI, 2 * PI, 2 * PI), -1),
    ])
    def test_a_gate_solutions_are_the_plus_identity_points(self, point, sign):
        # xx, yy and zz are each -I at 2*pi, so A is +I where an even number of
        # coordinates are 2*pi and -I where all three are
        gate = a_gate(*point)
        assert np.abs(gate - sign * I4).max() < 1e-15
        assert certify(gate, 2, 1e-10).verdict == ("fusion" if sign == 1 else "not_fusion")

    def test_permutation_solutions_skip_the_kernel(self, monkeypatch):
        module = importlib.import_module("pentagate.certify")
        monkeypatch.setattr(module, "pentagon_residual", None)  # any kernel call fails
        report = certify(group_algebra_fusion(CayleyTable.cyclic(12)), 12, name="Z12")
        assert (report.verdict, report.residual, report.witnesses) == ("fusion", 0.0, ())
        for failing in (standard_gate("SWAP"), -standard_gate("CNOT")):
            with pytest.raises(TypeError):  # a failing permutation, and a non-permutation
                certify(failing, 2)

    def test_s4_certifies_in_under_a_second_and_32_mib(self):
        # the dense sides of S4 (d=24) would be 13824 x 13824, about 3 GB each
        gate = group_algebra_fusion(CayleyTable.symmetric(4))
        tracemalloc.start()
        try:
            started = time.perf_counter()
            report = certify(gate, 24, name="S4")
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.verdict, report.residual, report.witnesses) == ("fusion", 0.0, ())
        assert elapsed < 1.0
        assert peak < 32 * 2**20

    def test_dense_kernel_refuses_lifts_past_the_cap(self):
        # a d=17 gate that is no permutation would need 4913 x 4913 lifts
        gate = np.diag(np.exp(1j * np.arange(17 * 17)))
        with pytest.raises(DimensionError, match="4096-dimensional cap"):
            certify(gate, 17)

    def test_witnesses_sorted_and_capped(self):
        report = certify(standard_gate("SWAP"), 2, 1e-10, name="SWAP")
        assert 1 <= len(report.witnesses) <= 5
        deltas = [abs(w.lhs - w.rhs) for w in report.witnesses]
        assert deltas == sorted(deltas, reverse=True)

    @pytest.mark.parametrize(
        "group",
        [CayleyTable.cyclic(2), CayleyTable.cyclic(3), CayleyTable.symmetric(3)],
        ids=["Z2", "Z3", "S3"],
    )
    def test_exact_solution_has_no_witnesses(self, group):
        report = certify(group_algebra_fusion(group), group.order, 1e-10)
        assert report.residual == 0.0
        assert report.witnesses == ()

    def test_witnesses_match_the_sides(self, rng):
        """Witnesses are the largest entries of |lhs - rhs|, formed from the sides."""
        gates = [(standard_gate("SWAP"), 2), (a_gate(PI / 2, 0, 0), 2)]
        gates += [(a_gate(*rng.uniform(-6, 6, 3)), 2) for _ in range(5)]
        gates += [(haar_unitary(9, rng), 3)]
        for gate, d in gates:
            res = pentagon_residual(gate, d)
            diff = np.abs(res.lhs - res.rhs)
            expected = []
            for index in np.argsort(diff, axis=None)[::-1][:5]:
                row, col = np.unravel_index(int(index), diff.shape)
                expected.append((int(row), int(col), res.lhs[row, col], res.rhs[row, col]))
            report = certify(gate, d, 1e-10)
            assert [(w.row, w.col, w.lhs, w.rhs) for w in report.witnesses] == expected

    def test_json_shape(self):
        report = certify(standard_gate("SWAP"), 2, 1e-10, name="SWAP")
        text = jsonio.dumps(report)
        doc = json.loads(text)
        assert set(doc) == {
            "gate_descriptor", "equation", "residual", "tolerance", "verdict", "witnesses",
        }
        assert text.startswith('{"gate_descriptor"')
        w = doc["witnesses"][0]
        assert isinstance(w["lhs"], list) and len(w["lhs"]) == 2


class TestConstraintSystems:
    def test_a_gate_identity_point_all_zero(self):
        res = constraints("a", (0, 0, 0), 1e-12)
        assert res.max_residual == 0.0
        assert res.active_count == 0

    def test_a_gate_minus_two_pi_residual_two_on_diagonal(self):
        # the gate equals -I there; the pentagon sides differ by a sign,
        # putting |1 - (-1)| = 2 on diagonal entries
        res = constraints("a", (0, 0, -2 * PI), 1e-12)
        assert res.max_residual == pytest.approx(2.0, abs=1e-12)
        worst = np.unravel_index(np.argmax(res.entry_residuals), (8, 8))
        assert worst[0] == worst[1]

    def test_a_gate_minus_four_pi_all_zero(self):
        res = constraints("a", (0, 0, -4 * PI), 1e-12)
        assert res.max_residual < 1e-12
        assert res.active_count == 0

    def test_heisenberg_triple_of_checks(self):
        assert constraints("heis", (0, 0, 0), 1e-12).max_residual == 0.0
        assert constraints("heis", (0, 0, -PI), 1e-12).max_residual == pytest.approx(
            2.0, abs=1e-12
        )
        assert constraints("heis", (0, 0, -2 * PI), 1e-12).max_residual < 1e-12

    def test_heisenberg_equals_a_gate_constraints_at_doubled_params(self, rng):
        for _ in range(100):
            tx, ty, tz = rng.uniform(-6, 6, 3)
            ra = constraints("a", (2 * tx, 2 * ty, 2 * tz), 1e-12)
            rh = constraints("heis", (tx, ty, tz), 1e-12)
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
            res = constraints("a", p, 1e-10)
            report = certify(a_gate(*p), 2, 1e-10, name="A", params=tuple(p))
            assert (res.max_residual < 1e-10) == report.is_fusion

    def test_json_shape(self):
        doc = constraints("heis", (0.1, 0.2, 0.3), 1e-10).to_jsonable()
        assert set(doc) == {
            "parameter_point", "entry_residuals", "active_count", "max_residual", "tolerance",
        }
        assert set(doc["parameter_point"]) == {"theta_x", "theta_y", "theta_z"}
        assert len(doc["entry_residuals"]) == 8

    def test_parameter_point_names_come_from_the_family_table(self):
        for family, (build, names) in FAMILIES.items():
            res = constraints(family, (0.1, -0.2, 0.3), 1e-10)
            assert (res.family, res.parameters) == (family, (0.1, -0.2, 0.3))
            assert res.to_jsonable()["parameter_point"] == dict(zip(names, (0.1, -0.2, 0.3)))
            expected = pentagon_residual(build(0.1, -0.2, 0.3), 2)
            assert np.array_equal(res.entry_residuals, np.abs(expected.lhs - expected.rhs))

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            constraints("xyz", (0, 0, 0))

    def test_wrong_parameter_count(self):
        with pytest.raises(ValueError, match="expected a parameter triple"):
            constraints("a", (0, 0))


class TestNonFiniteParameters:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_constraints_reject(self, value):
        for family in FAMILIES:
            with pytest.raises(ValueError,
                               match=rf"^parameters\[1\]: expected a finite number, got {value}$"):
                constraints(family, (0.0, value, 0.0))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_refine_rejects(self, value):
        for family in FAMILIES:
            with pytest.raises(ValueError,
                               match=rf"^parameters\[0\]: expected a finite number, got {value}$"):
                refine((value, 0.0, 0.0), family)

    @pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["huge", "huge_negative"])
    def test_huge_integer_parameters_reject(self, value):
        # float() of such an integer overflows; it must read as non-finite
        for family in FAMILIES:
            with pytest.raises(ValueError,
                               match=rf"^parameters\[0\]: expected a finite number, got {value}$"):
                constraints(family, (value, 0, 0))
            with pytest.raises(ValueError,
                               match=rf"^parameters\[0\]: expected a finite number, got {value}$"):
                refine((value, 0, 0), family)


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

    @pytest.mark.parametrize("lo, hi, step, message", [
        ("0", 1.0, 0.5, r"^axes\[0\]: expected a number, got '0'$"),
        (0.0, None, 0.5, r"^axes\[1\]: expected a number, got None$"),
        (0.0, 1.0, True, r"^axes\[2\]: expected a number, got True$"),
        (0.0, math.inf, 1.0, r"^axes\[1\]: expected a finite number, got inf$"),
    ], ids=["str", "none", "bool", "inf"])
    def test_bounds_are_read_as_the_scan_reads_them(self, lo, hi, step, message):
        with pytest.raises(GridError, match=message):
            axis_points(lo, hi, step)

    def test_count_too_large_to_represent(self):
        # (hi - lo) / step overflows to infinity
        message = r"^grid range -1e\+308:1e\+308 at step 1.0 has more than 100000000 points$"
        with pytest.raises(GridError, match=message):
            axis_points(-1e308, 1e308, 1.0)

    def test_count_above_the_cap(self):
        message = r"^grid range 0.0:1.0 at step 1e-12 has more than 100000000 points$"
        with pytest.raises(GridError, match=message):
            axis_points(0.0, 1.0, 1e-12)

    def test_the_grid_cap_bounds_the_axis(self):
        # 464**3 = 99,897,344 points fit under MAX_GRID_POINTS = 10**8; 465**3 do not
        assert len(axis_points(0.0, 463.0, 1.0)) == 464
        with pytest.raises(GridError, match=r"^grid of 100544625 points exceeds the cap of 100000000 points$"):
            axis_points(0.0, 464.0, 1.0)

    def test_cap_is_inclusive(self, monkeypatch):
        # the package's ``certify`` attribute is the function; patch the module
        monkeypatch.setattr(importlib.import_module("pentagate.certify"), "MAX_GRID_POINTS", 1000)
        assert len(axis_points(0.0, 9.0, 1.0)) == 10
        with pytest.raises(GridError, match="grid of 1331 points exceeds the cap of 1000 points"):
            axis_points(0.0, 10.0, 1.0)


class TestScan:
    def test_single_point_grid(self):
        points = scan_fusion_solutions("a", (0.0, 0.0, 1.0), 1e-9)
        assert len(points) == 1
        assert points[0].parameters == (0.0, 0.0, 0.0)
        assert points[0].residual == 0.0
        assert points[0].operator_class == IDENTITY_CLASS

    def test_quarter_turn_grid_finds_only_identity(self):
        points = scan_fusion_solutions("a", (0.0, PI, PI / 2), 1e-9)
        assert [p.parameters for p in points] == [(0.0, 0.0, 0.0)]

    def test_coarse_full_period_grid_identity_class_only(self):
        points = scan_fusion_solutions("a", (-2 * PI, 2 * PI, PI / 2), 1e-9)
        assert points, "expected at least the identity class"
        for p in points:
            assert p.operator_class == IDENTITY_CLASS
            assert np.linalg.norm(a_gate(*p.parameters) - I4) < 1e-9

    def test_operator_level_deduplication(self):
        # (0,0,0) and (2pi, 2pi, 0) both build +I and collapse to one class
        points = scan_fusion_solutions("a", (-2 * PI, 2 * PI, 2 * PI), 1e-9)
        assert len(points) == 1
        assert points[0].canonical_parameters == (0.0, 0.0, 0.0)

    def test_shift_by_four_pi_preserves_classes(self):
        low = scan_fusion_solutions("a", (0.0, PI, PI / 2), 1e-9)
        high = scan_fusion_solutions("a", (4 * PI, 5 * PI, PI / 2), 1e-9)
        assert [p.operator_class for p in low] == [p.operator_class for p in high]

    def test_heisenberg_family(self):
        points = scan_fusion_solutions("heis", (-PI, PI, PI / 2), 1e-9)
        assert points
        for p in points:
            assert p.operator_class == IDENTITY_CLASS

    def test_solutions_recertify(self):
        for p in scan_fusion_solutions("a", (-2 * PI, 2 * PI, PI / 2), 1e-9):
            report = certify(a_gate(*p.parameters), 2, 1e-9, name="A", params=p.parameters)
            assert report.is_fusion

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            scan_fusion_solutions("xyz", (0.0, 1.0, 0.5))

    def test_grid_above_the_cap_is_refused(self):
        # 999,001 points per axis pass the axis cap; their cube does not
        message = r"^grid of 997005993005997001 points exceeds the cap of 100000000 points$"
        with pytest.raises(GridError, match=message):
            scan_fusion_solutions("a", (0.0, 999.0, 0.001))

    def test_grid_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(importlib.import_module("pentagate.certify"), "MAX_GRID_POINTS", 27)
        assert scan_fusion_solutions("a", (0.0, 2.0, 1.0), 1e-9)
        with pytest.raises(GridError, match="grid of 64 points exceeds the cap of 27 points"):
            scan_fusion_solutions("a", (0.0, 3.0, 1.0))

    @pytest.mark.parametrize("family, axis", [
        ("a", (-6.2832, 6.2832, 0.3927)),  # the README grid, 33 points per axis
        ("a", (-1.5, 1.5, 0.25)),  # the benchmark's A grids, 13 points per axis
        ("a", (-3.0, 3.0, 0.5)),
        ("heis", (-PI, PI, PI / 8)),  # the benchmark's Heisenberg grid
    ])
    def test_documented_grids_run_under_the_cap(self, family, axis):
        points = scan_fusion_solutions(family, axis, 1e-9)
        assert [p.operator_class for p in points] == [IDENTITY_CLASS]

    def test_empty_grid_error(self):
        with pytest.raises(GridError):
            scan_fusion_solutions("a", (1.0, 0.0, 0.5))


def _scan_cases():
    """The README's default A grid, the benchmark's Heisenberg grid, and
    seeded grids at tolerances from below rounding to above every residual."""
    yield "a", (-6.2832, 6.2832, 0.3927), 1e-9
    yield "heis", (-PI, PI, PI / 8), 1e-9
    rng = np.random.default_rng(2901)
    for tol in (1e-15, 1e-9, 0.5, 2.0, 10.0):
        for k in range(8):
            step = (PI / 4, PI / 8, float(rng.uniform(0.05, 2.0)))[k % 3]
            count = int(rng.integers(3, 13))
            # the first four grids hold the origin, a solution of both families
            lo = -step * int(rng.integers(0, count)) if k < 4 else float(rng.uniform(-15.0, 15.0))
            yield ("a", "heis")[k % 2], (lo, lo + (count - 1) * step, step), tol


@functools.lru_cache(maxsize=None)
def _block_edge_grid(family, n, step, shift, tol):
    """A grid of n points per axis from -(n // 3) step - shift, and the
    reference scan's JSON on it."""
    lo = -step * (n // 3) - shift
    axis = (lo, lo + (n - 1) * step, step)
    assert len(axis_points(*axis)) == n
    return axis, jsonio.dumps(report_reference(scan_reference(family, axis, tol)))


class TestScanPruning:
    """The column bound only skips points the kernel would refuse, so the
    scan's output is byte-for-byte the unpruned reference's."""

    # a block is SCAN_CHUNK // n**2 first-axis values by the plane when a
    # plane fits, else one value by SCAN_CHUNK // n of the second axis: the
    # sizes take both shapes, partial last blocks, and one second-axis
    # value per block where SCAN_CHUNK < 2 n. The pi/4 grids hold the
    # origin, an exact solution; on the offset grids up to four classes of
    # near-solutions pass at tol 1, each reported by its own parameters.
    @pytest.mark.parametrize("step, shift, tol", [(PI / 4, 0.0, 1e-9), (0.37, 0.1, 1.0)],
                             ids=["lattice", "offset"])
    @pytest.mark.parametrize("n", [1, 2, 13, 17, 33])
    @pytest.mark.parametrize("family", ["a", "heis"])
    @pytest.mark.parametrize("chunk", [1, 7, 169, 1024])
    def test_block_edges_change_no_output(self, monkeypatch, chunk, family, n, step, shift, tol):
        module = importlib.import_module("pentagate.certify")
        blocks = []

        def recording(ts):
            blocks.append(ts)
            return _pentagon_column_bound(ts)

        monkeypatch.setattr(module, "SCAN_CHUNK", chunk)
        monkeypatch.setattr(module, "_pentagon_column_bound", recording)
        axis, want = _block_edge_grid(family, n, step, shift, tol)
        got = scan_fusion_solutions(family, axis, tol)
        assert jsonio.dumps(got) == want
        # in walk order the blocks are the grid in product order, bit for bit,
        # each of at most SCAN_CHUNK points or one run of the third axis
        assert max(len(b) for b in blocks) <= max(chunk, n)
        grid = np.array(list(itertools.product(axis_points(*axis), repeat=3)))
        build = FAMILIES[family][0]
        assert np.concatenate(blocks).tobytes() == build(*grid.T).tobytes()

    @pytest.mark.parametrize("family, axis, tol", list(_scan_cases()))
    def test_output_is_the_unpruned_reference(self, family, axis, tol):
        got = scan_fusion_solutions(family, axis, tol)
        want = scan_reference(family, axis, tol)
        assert jsonio.dumps(got) == jsonio.dumps(report_reference(want))

    def test_kernel_sees_only_the_points_the_bound_keeps(self, monkeypatch):
        module = importlib.import_module("pentagate.certify")
        seen = []

        def counting(ts, d):
            seen.append(len(ts))
            return pentagon_stack(ts, d)

        monkeypatch.setattr(module, "pentagon_stack", counting)
        points = scan_fusion_solutions("a", (-6.2832, 6.2832, 0.3927), 1e-9)
        assert [p.parameters for p in points] == [(0.0, 0.0, 0.0)]
        # of 33**3 points in 66 blocks the bound keeps three: the origin and
        # (-+6.2832, +-6.2832, 0), whose gates lie within 1e-5 of +I
        assert sum(seen) == 3 and len(seen) <= 3


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
        doc = json.loads(jsonio.dumps(result))
        assert doc["converged"] is True
        assert set(doc["solution"]) == {
            "parameters", "residual", "canonical_parameters", "operator_class",
        }


#: ``refine(...)`` in its report layout, ``oracles.report_reference``, and
#: ``json.dumps``, for starts near and far from solutions in both families,
#: including runs that stop on a shrunk step and on the iteration budget.
#: Recorded with the refine that evaluated its six polls one call at a
#: time, before they moved onto the stacked kernel.
REFINE_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "refine.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("case", REFINE_GOLDEN, ids=[c["name"] for c in REFINE_GOLDEN])
def test_refine_golden_iterates(case):
    result = refine(tuple(case["start"]), case["family"], **case["kwargs"])
    assert json.dumps(report_reference(result)) == case["result"]
    assert jsonio.dumps(result) == jsonio.dumps(report_reference(result))


BAD_TOLERANCES = [0.0, -1.0, math.nan, math.inf, -math.inf]


def _tolerance_takers():
    cnot = standard_gate("CNOT")
    empty = Circuit(2, ())
    descriptor = describe_fusion_gate(name="CNOT")
    return {
        "certify": lambda tol: certify(cnot, 2, tol),
        # family-level calls: one case per gate family, named after the family
        "a_gate_constraints": lambda tol: constraints("a", (0, 0, 0), tol),
        "heisenberg_constraints": lambda tol: constraints("heis", (0, 0, 0), tol),
        "scan_a_gate": lambda tol: scan_fusion_solutions("a", (0, 0, 1), tol),
        "scan_heisenberg": lambda tol: scan_fusion_solutions("heis", (0, 0, 1), tol),
        "scan_fusion_solutions": lambda tol: scan_fusion_solutions("a", [0, 0, 1], tol),
        "refine": lambda tol: refine((0, 0, 0), "a", tol=tol),
        "check_street_duality": lambda tol: check_street_duality(cnot, 2, tol),
        "check_folklore_duality": lambda tol: check_folklore_duality(cnot, 2, tol),
        "is_unitary": lambda tol: is_unitary(cnot, tol),
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

    def test_huge_integer_tolerance_rejected(self):
        # float() of such an integer overflows; it must read as non-finite
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            certify(standard_gate("CNOT"), tol=10**400)


#: Values that are no real number, or no finite one, for ``linalg.real``'s rule.
NOT_FINITE_REALS = [True, "0.5", 1j, None, math.nan, math.inf, 10**400,
                    int(sys.float_info.max) + 1]
NOT_FINITE_REAL_IDS = ["bool", "string", "complex", "none", "nan", "inf", "huge_integer",
                       "float_max_plus_one"]

#: Finite real numbers the rule accepts, Python and numpy ones.
FINITE_REALS = [0.5, 2, np.float32(0.5), np.int64(2)]


def _real_takers():
    """Every library entry that takes a real number: name -> (call of the value, error class).

    Each call puts the value in one real argument; the class is the one the
    entry raises for its other refusals.
    """
    cnot = standard_gate("CNOT")
    takers = {
        "GateInstance": (lambda v: GateInstance("RZ", (0,), (v,)), SchemaError),
        "custom_matrix_entry": (lambda v: _decode_matrix([[[v, 0.0]]], "m"), SchemaError),
        "gate_matrix": (lambda v: gate_matrix("A", (0.0, v, 0.0)), ValueError),
        "constraints": (lambda v: constraints("a", (v, 0.0, 0.0)), ValueError),
        "refine_start": (lambda v: refine((0.0, 0.0, v), "heis", max_iters=2), ValueError),
        "refine_initial_step": (lambda v: refine((0.1, 0.0, 0.0), initial_step=v, max_iters=2),
                                ValueError),
        "scan_bound": (lambda v: scan_fusion_solutions("a", (0.0, v, 1.0)), GridError),
        "scan_step": (lambda v: scan_fusion_solutions("heis", [0.0, 1.0, v]), GridError),
        "certify_params": (lambda v: certify(cnot, params=(v,)), ValueError),
    }
    for name, call in _tolerance_takers().items():
        takers[f"tol_{name}"] = (call, ValueError)
    return takers


class TestOneNumberRule:
    """Every entry that takes a real applies ``linalg.real`` and refuses what is not finite."""

    @pytest.mark.parametrize("name", sorted(_real_takers()))
    @pytest.mark.parametrize("value", NOT_FINITE_REALS, ids=NOT_FINITE_REAL_IDS)
    def test_refuses(self, name, value):
        call, error = _real_takers()[name]
        with pytest.raises(error):
            call(value)

    # comparing a numpy float32 with the float range once warned of an overflow
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", sorted(_real_takers()))
    def test_accepts(self, name):
        call, _ = _real_takers()[name]
        for value in FINITE_REALS:
            call(value)

    def test_true_is_no_tolerance(self):
        # read as 1.0, True would certify this non-solution (residual 1.4e-6)
        # and accept any rewrite within phase distance 1
        with pytest.raises(ValueError, match="tolerance: expected a number, got True"):
            describe_fusion_gate("A", (1e-6, 0, 0), tol=True)
        descriptor = describe_fusion_gate("CNOT")
        with pytest.raises(ValueError, match="tolerance: expected a number, got True"):
            transpile(template_circuit(), descriptor, "compress", tol=True)

    def test_certify_checks_params_before_the_kernel(self, monkeypatch):
        module = importlib.import_module("pentagate.certify")
        monkeypatch.setattr(module, "pentagon_residual", None)  # any kernel call fails
        with pytest.raises(ValueError, match=r"gate parameters\[0\]: expected a number, got 'x'"):
            certify(group_algebra_fusion(CayleyTable.cyclic(3)), 3, params=("x",))


class TestRefineEntryChecks:
    @pytest.mark.parametrize("step", [0.0, -0.25, math.inf, math.nan, "0.25"])
    def test_initial_step_is_finite_and_positive(self, step):
        message = (f"initial_step: expected a number, got {step!r}" if isinstance(step, str)
                   else f"initial_step must be finite and positive, got {step!r}")
        with pytest.raises(ValueError) as error:
            refine((0.1, 0.0, 0.0), initial_step=step)
        assert str(error.value) == message

    @pytest.mark.parametrize("budget", [-1, 2.5, "5", True, None])
    def test_max_iters_is_an_integer_of_at_least_zero(self, budget):
        with pytest.raises(ValueError, match="max_iters must be an integer of at least 0"):
            refine((0.1, 0.0, 0.0), max_iters=budget)

    def test_budgets_at_the_bounds_run(self):
        assert refine((0.1, 0.0, 0.0), max_iters=0).iterations == 0
        assert refine((0.1, 0.0, 0.0), max_iters=np.int64(3)).iterations == 3
