"""Hypothesis properties of the equation layer on random basis permutations.

A permutation gate's lifts and both sides of every equation are exact 0/1
matrices, so the library must agree bitwise with the brute-force oracles
in oracles.py, which trace basis tuples and never call ``embed``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pentagate import (
    check_folklore_duality,
    check_street_duality,
    pentagon_residual,
    ybe_residual,
)
from oracles import braid_ybe_sides, pentagon_sides, permutation_map, permutation_operator

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def permutation_gates(draw):
    """(d, basis map, matrix) of a random permutation of C^d (x) C^d, d in {2, 3}."""
    d = draw(st.sampled_from((2, 3)))
    tmap = permutation_map(draw(st.permutations(range(d * d))), d)
    return d, tmap, permutation_operator(tmap, d, 2)


@PROPERTY_SETTINGS
@given(permutation_gates())
def test_pentagon_sides_match_oracle(gate):
    d, tmap, t = gate
    res = pentagon_residual(t, d)
    lhs, rhs = pentagon_sides(tmap, d)
    assert np.array_equal(res.lhs, lhs)
    assert np.array_equal(res.rhs, rhs)


@PROPERTY_SETTINGS
@given(permutation_gates())
def test_braid_ybe_sides_match_oracle(gate):
    d, tmap, t = gate
    res = ybe_residual(t, d)
    lhs, rhs = braid_ybe_sides(tmap, d)
    assert np.array_equal(res.lhs, lhs)
    assert np.array_equal(res.rhs, rhs)


@PROPERTY_SETTINGS
@given(permutation_gates())
def test_street_and_folklore_dualities(gate):
    d, _, t = gate
    assert check_street_duality(t, d)
    assert check_folklore_duality(t, d)
