"""Tests for the equation residual layer.

Derived expected values are frozen from independent basis-permutation
oracles (see oracles.py) and hand calculations noted inline.
"""

import math
import re

import numpy as np
import pytest

from pentagate import (
    CayleyTable,
    DimensionError,
    a_gate,
    certify,
    check_folklore_duality,
    check_street_duality,
    embed,
    group_algebra_fusion,
    pentagon_residual,
    standard_gate,
)
from pentagate.equations import (cocycle3_residual, pentagon_stack, permutation_solves_pentagon,
                                 ybe13_residual, ybe_residual)
from pentagate.linalg import frobenius_norm, twist
from conftest import haar_unitary
from oracles import (
    CNOT_MAP,
    SWAP_MAP,
    braid_ybe_sides,
    group_fusion_map,
    lift_map,
    pentagon_sides,
    permutation_map,
    permutation_operator,
    residual_norm,
)

I4 = np.eye(4, dtype=complex)
I8 = np.eye(8, dtype=complex)
CNOT = standard_gate("CNOT")
SWAP = standard_gate("SWAP")

TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)
FOUR_SQRT_TWO = 4.0 * math.sqrt(2.0)
TWO_SQRT_THREE = 2.0 * math.sqrt(3.0)


LIFT_WIRES = {"12": (0, 1), "13": (0, 2), "23": (1, 2)}

#: The equation entries, each called as entry(operator, d); pentagon_stack
#: is given the one-gate stack of the operator.
SHAPE_ENTRIES = {
    "pentagon_residual": pentagon_residual,
    "pentagon_stack": lambda t, d: pentagon_stack(np.asarray(t)[np.newaxis], d),
    "ybe_residual": ybe_residual,
    "ybe13_residual": ybe13_residual,
    "cocycle3_residual": cocycle3_residual,
    "check_street_duality": check_street_duality,
    "check_folklore_duality": check_folklore_duality,
    "certify": certify,
}

#: (operator, d) pairs that break the shape rule, each a unitary where it is a matrix.
BAD_SHAPES = {
    "eye4-at-d3": (I4, 3),
    "eye9-at-d2": (np.eye(9), 2),
    "one-dimensional": (np.ones(4), 2),
    "three-dimensional": (np.stack([I4, I4]), 2),
    "d-float": (CNOT, 2.0),
    "d-bool": (CNOT, True),
    "d-zero": (CNOT, 0),
    "d-string": (CNOT, "2"),
}

#: The pairs whose operator is a matrix, which every entry reads as one.
BAD_MATRIX_SHAPES = {k: v for k, v in BAD_SHAPES.items() if "dimensional" not in k}


class TestLifts:
    """The subscript lift Tij is ``embed(T, (i - 1, j - 1), 3, d)``."""

    def test_lift12_identity(self):
        assert np.array_equal(embed(I4, (0, 1), 3), I8)

    def test_lifts_match_embed(self, rng):
        for d in (2, 3):
            for _ in range(5):
                tmap = permutation_map(rng.permutation(d * d), d)
                t = permutation_operator(tmap, d, 2)
                for position, wires in LIFT_WIRES.items():
                    oracle = permutation_operator(lift_map(tmap, position), d, 3)
                    assert np.array_equal(embed(t, wires, 3, d), oracle)

    def test_lift13_of_swap_exchanges_outer_wires(self):
        reverse = lambda t: (t[2], t[1], t[0])
        assert np.array_equal(embed(SWAP, (0, 2), 3), permutation_operator(reverse, 2, 3))
        assert np.array_equal(embed(twist(3), (0, 2), 3, 3), permutation_operator(reverse, 3, 3))

    def test_dimension_check(self):
        with pytest.raises(DimensionError):
            embed(I4, (0, 1), 3, 3)
        with pytest.raises(DimensionError):
            pentagon_residual(I4, 3)
        with pytest.raises(DimensionError):
            pentagon_stack(I4, 2)  # one gate, not a stack
        with pytest.raises(DimensionError):
            pentagon_stack(np.stack([I4, I4]), 3)
        with pytest.raises(DimensionError):
            embed(np.zeros((1, 1, 4, 4)), (0, 1), 3)
        with pytest.raises(DimensionError):
            pentagon_stack(np.stack([I4]), 1)
        with pytest.raises(DimensionError):
            pentagon_stack(np.ones((1, 1, 1)), 0)
        # a local dimension is an integer, not a float or a bool
        for d in (2.0, np.float64(2.0), True):
            with pytest.raises(DimensionError, match="local dimension must be an integer"):
                certify(CNOT, d)
            with pytest.raises(DimensionError, match="local dimension must be an integer"):
                pentagon_residual(CNOT, d)
            with pytest.raises(DimensionError, match="local dimension must be an integer"):
                pentagon_stack(CNOT[np.newaxis], d)
            with pytest.raises(DimensionError, match="local dimension must be an integer"):
                embed(CNOT, (0, 1), 3, d)
        assert pentagon_residual(CNOT, np.int64(2)).residual == 0.0
        assert certify(CNOT, np.int64(2)).is_fusion

    @pytest.mark.parametrize("bad", BAD_SHAPES.values(), ids=BAD_SHAPES.keys())
    @pytest.mark.parametrize("entry", SHAPE_ENTRIES.values(), ids=SHAPE_ENTRIES.keys())
    def test_embed_owns_the_shape_rule(self, entry, bad):
        # every entry leaves the operator's shape and d to its first embed
        with pytest.raises(DimensionError):
            entry(*bad)

    @pytest.mark.parametrize("bad", BAD_MATRIX_SHAPES.values(), ids=BAD_MATRIX_SHAPES.keys())
    def test_index_map_check_refuses_as_embed_does(self, bad):
        # the same rule and message, before a permutation gate's rows are read
        with pytest.raises(DimensionError) as lifted:
            embed(bad[0], (0, 1), 3, bad[1])
        with pytest.raises(DimensionError, match=re.escape(str(lifted.value))):
            permutation_solves_pentagon(*bad)

    def test_one_dimensional_factors(self):
        # at d=1 a gate is a scalar lambda and the sides are lambda^2, lambda^3
        lam = np.exp(0.7j)
        lhs, rhs, residuals = pentagon_stack(np.full((1, 1, 1), lam), 1)
        assert lhs.shape == rhs.shape == (1, 1, 1)
        assert lhs[0, 0, 0] == pytest.approx(lam**2)
        assert rhs[0, 0, 0] == pytest.approx(lam**3)
        assert residuals[0] == pytest.approx(abs(lam**2 - lam**3))


class TestPentagonResidual:
    def test_identity_is_exactly_zero(self):
        assert pentagon_residual(I4, 2).residual == 0.0

    def test_cnot_is_a_solution(self):
        res = pentagon_residual(CNOT, 2)
        assert res.residual < 1e-12
        lhs, rhs = pentagon_sides(CNOT_MAP, 2)
        assert np.array_equal(res.lhs, lhs)
        assert np.array_equal(res.rhs, rhs)

    def test_swap_residual_value(self):
        # both sides are permutations agreeing on exactly the 4 basis
        # states with equal middle and last labels: squared norm 8
        res = pentagon_residual(SWAP, 2)
        assert res.residual == pytest.approx(TWO_SQRT_TWO, abs=1e-12)
        assert res.residual == pytest.approx(residual_norm(pentagon_sides(SWAP_MAP, 2)))

    def test_phase_sensitivity_scaling(self, rng):
        # LHS scales as lambda^2 and RHS as lambda^3, so a unit phase on a
        # solution leaves residual |l^2 - l^3| * ||T23 T12||_F
        norm_lhs = math.sqrt(8.0)
        for _ in range(20):
            lam = np.exp(1j * rng.uniform(0, 2 * math.pi))
            expected = abs(lam**2 - lam**3) * norm_lhs
            assert pentagon_residual(lam * CNOT, 2).residual == pytest.approx(
                expected, abs=1e-12
            )

    def test_negated_cnot(self):
        assert pentagon_residual(-CNOT, 2).residual == pytest.approx(
            FOUR_SQRT_TWO, abs=1e-12
        )

    def test_residual_consistent_with_fields(self, rng):
        res = pentagon_residual(a_gate(*rng.uniform(-6, 6, 3)), 2)
        assert res.residual == pytest.approx(frobenius_norm(res.lhs - res.rhs))
        assert np.array_equal(res.mismatch, np.abs(res.lhs - res.rhs))


class TestGroupFusionSolutions:
    GROUPS = [
        ("Z2", CayleyTable.cyclic(2)),
        ("Z3", CayleyTable.cyclic(3)),
        ("Z4", CayleyTable.cyclic(4)),
        ("Z2xZ2", CayleyTable.direct_product(CayleyTable.cyclic(2), CayleyTable.cyclic(2))),
        ("Z5", CayleyTable.cyclic(5)),
        ("Z6", CayleyTable.cyclic(6)),
        ("S3", CayleyTable.symmetric(3)),
        ("Z7", CayleyTable.cyclic(7)),
        ("Z8", CayleyTable.cyclic(8)),
        ("Z12", CayleyTable.cyclic(12)),
        ("Z2xS3", CayleyTable.direct_product(CayleyTable.cyclic(2), CayleyTable.symmetric(3))),
    ]

    @pytest.mark.parametrize("name,group", GROUPS, ids=[n for n, _ in GROUPS])
    def test_exact_pentagon_solution(self, name, group):
        t = group_algebra_fusion(group)
        res = pentagon_residual(t, group.order)
        assert res.residual == 0.0
        lhs, rhs = pentagon_sides(group_fusion_map(group.table), group.order)
        assert np.array_equal(res.lhs, lhs)
        assert np.array_equal(res.rhs, rhs)

    def test_z3_matches_basis_oracle(self):
        group = CayleyTable.cyclic(3)
        res = pentagon_residual(group_algebra_fusion(group), 3)
        lhs, rhs = pentagon_sides(group_fusion_map(group.table), 3)
        assert np.array_equal(res.lhs, lhs)
        assert np.array_equal(res.rhs, rhs)


class TestYangBaxter:
    def test_swap_and_identity_solve_braid_form(self):
        assert ybe_residual(SWAP, 2).residual == 0.0
        assert ybe_residual(I4, 2).residual == 0.0

    def test_cnot_braid_residual(self):
        # sides agree only on the two basis states with first two labels
        # zero: 6 disagreeing permutation columns, squared norm 12
        res = ybe_residual(CNOT, 2)
        assert res.residual == pytest.approx(TWO_SQRT_THREE, abs=1e-12)
        assert res.residual == pytest.approx(residual_norm(braid_ybe_sides(CNOT_MAP, 2)))
        assert res.residual > 1.0

    def test_ybe13_identity(self):
        assert ybe13_residual(I4, 2).residual == 0.0

    def test_ybe13_of_twist_composed_swap(self):
        # twist o SWAP = I, and the identity solves the 13-form
        assert ybe13_residual(twist(2) @ SWAP, 2).residual == 0.0

    def test_ybe13_of_swap_itself(self):
        # both sides evaluate to the full reversal permutation
        assert ybe13_residual(SWAP, 2).residual == 0.0


class TestCocycle:
    def test_swap_satisfies_cocycle(self):
        assert cocycle3_residual(SWAP, 2).residual == 0.0

    def test_twist_composed_cnot_satisfies_cocycle(self):
        assert cocycle3_residual(twist(2) @ CNOT, 2).residual < 1e-12

    def test_identity_fails_cocycle(self):
        # LHS reduces to id (x) tau and RHS to the identity: 4 moved basis
        # columns of norm gap 2 each
        assert cocycle3_residual(I4, 2).residual == pytest.approx(
            TWO_SQRT_TWO, abs=1e-12
        )


class TestDualities:
    def zoo(self, rng):
        gates = [I4, SWAP, CNOT]
        gates += [a_gate(*rng.uniform(-6, 6, 3)) for _ in range(50)]
        gates += [haar_unitary(4, rng) for _ in range(50)]
        return gates

    def test_street_duality_on_zoo(self, rng):
        assert all(check_street_duality(t, 2, 1e-10) for t in self.zoo(rng))

    def test_folklore_duality_on_zoo(self, rng):
        assert all(check_folklore_duality(t, 2, 1e-10) for t in self.zoo(rng))

    def test_street_on_known_verdict_pairs(self):
        assert check_street_duality(CNOT, 2, 1e-10)
        assert check_street_duality(SWAP, 2, 1e-10)
        assert check_folklore_duality(SWAP, 2, 1e-10)


class TestPermutationSimilarityInvariance:
    def test_residuals_invariant_under_register_permutation(self, rng):
        # permuting both sides of the equation by the same register
        # permutation only reorders entries, so norms match exactly
        perm = rng.permutation(8)
        p = np.zeros((8, 8), dtype=complex)
        for i, j in enumerate(perm):
            p[j, i] = 1.0
        for gate in (CNOT, SWAP, group_algebra_fusion(CayleyTable.cyclic(2))):
            res = pentagon_residual(gate, 2)
            conjugated = p @ (res.lhs - res.rhs) @ p.conj().T
            assert frobenius_norm(conjugated) == res.residual
