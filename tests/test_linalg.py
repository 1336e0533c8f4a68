"""Tests for the dense linear-algebra layer."""

import itertools
import math

import numpy as np
import pytest

from pentagate import (
    DimensionError,
    WireError,
    embed,
    frobenius_norm,
    is_unitary,
    pauli,
    phase_distance,
    standard_gate,
    twist,
)
from conftest import haar_unitary
from oracles import embed_by_transpose_copy, matrices_equal, permutation_operator

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
SWAP = standard_gate("SWAP")


class TestMatmul:
    def test_identity(self):
        assert np.array_equal(I2 @ I2, I2)

    def test_pauli_squares_to_identity(self):
        for axis in "xyz":
            assert matrices_equal(pauli(axis) @ pauli(axis), I2, 0.0)

    def test_swap_is_involutive(self):
        assert np.array_equal(SWAP @ SWAP, I4)


class TestTwist:
    def test_one_dimensional(self):
        assert np.array_equal(twist(1), np.array([[1.0]], dtype=complex))

    def test_two_dimensional_is_swap(self):
        assert np.array_equal(twist(2), SWAP)
        assert np.array_equal(twist(np.int64(2)), SWAP)

    @pytest.mark.parametrize("d", [0, -1, 2.0, True], ids=["zero", "negative", "float", "bool"])
    def test_dimension_is_a_positive_integer(self, d):
        with pytest.raises(DimensionError, match="local dimension must be an integer of at least 1"):
            twist(d)

    def test_involutive(self):
        for d in (2, 3, 4):
            assert np.array_equal(twist(d) @ twist(d), np.eye(d * d, dtype=complex))

    def test_matches_oracle_permutation(self):
        for d in range(1, 6):
            assert np.array_equal(twist(d), permutation_operator(lambda t: (t[1], t[0]), d, 2))

    def test_symmetric_permutation(self):
        for d in (2, 3):
            t = twist(d)
            assert np.array_equal(t, t.T)
            assert np.all((t == 0) | (t == 1))
            assert np.array_equal(t.sum(axis=0), np.ones(d * d))
            assert np.array_equal(t.sum(axis=1), np.ones(d * d))


class TestEmbed:
    def test_identity_case(self):
        assert np.array_equal(embed(I4, [0, 1], 3), np.eye(8, dtype=complex))

    def test_leading_wires_is_kron(self, rng):
        t = haar_unitary(4, rng)
        assert np.array_equal(embed(t, [0, 1], 3), np.kron(t, I2))

    def test_trailing_wires_is_kron(self, rng):
        t = haar_unitary(4, rng)
        assert np.allclose(embed(t, [1, 2], 3), np.kron(I2, t), atol=1e-15)

    def test_outer_wires_via_twist_conjugation(self, rng):
        # embed only moves entries, so T13 is exactly the conjugation of
        # T (x) id by id (x) tau, whose products only add zeros
        for d in (2, 3):
            t = haar_unitary(d * d, rng)
            eye = np.eye(d, dtype=complex)
            mid = np.kron(eye, twist(d))
            assert np.array_equal(embed(t, [0, 2], 3, d), mid @ np.kron(t, eye) @ mid)

    def test_reversed_wire_order_differs(self, rng):
        t = haar_unitary(4, rng)
        cnot = standard_gate("CNOT")
        assert not matrices_equal(embed(cnot, [1, 0], 2), embed(cnot, [0, 1], 2), 1e-6)
        # reversing wires is conjugation by SWAP
        assert np.allclose(embed(t, [1, 0], 2), SWAP @ t @ SWAP, atol=1e-15)

    def test_unitary_preserved(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(1, min(n, 3) + 1))
            wires = [int(w) for w in rng.choice(n, size=k, replace=False)]
            u = haar_unitary(2**k, rng)
            assert is_unitary(embed(u, wires, n), 1e-12)

    def test_disjoint_wire_sets_commute(self, rng):
        for _ in range(20):
            n = 5
            wires = [int(w) for w in rng.choice(n, size=4, replace=False)]
            u = haar_unitary(4, rng)
            v = haar_unitary(4, rng)
            eu = embed(u, wires[:2], n)
            ev = embed(v, wires[2:], n)
            assert frobenius_norm(eu @ ev - ev @ eu) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("stack", [None, 1, 5], ids=["matrix", "stack1", "stack5"])
    def test_bitwise_equal_to_the_transpose_copy(self, d, stack, rng):
        # every wire order on 3 factors, with signed zeros among the entries
        for k in (1, 2, 3):
            for wires in itertools.permutations(range(3), k):
                shape = (d**k, d**k) if stack is None else (stack, d**k, d**k)
                u = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                u.flat[::3] = complex(-0.0, -0.0)
                u.flat[1::5] = complex(0.0, -0.0)
                got, want = embed(u, wires, 3, d), embed_by_transpose_copy(u, wires, 3, d)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), wires

    def test_bitwise_equal_to_the_transpose_copy_on_10_qubits(self, rng):
        u = haar_unitary(4, rng)
        u[0, 1] = complex(-0.0, -0.0)
        got, want = embed(u, (3, 7), 10), embed_by_transpose_copy(u, (3, 7), 10)
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))

    def test_wire_errors(self):
        with pytest.raises(WireError):
            embed(I4, [0, 3], 3)
        with pytest.raises(WireError):
            embed(I4, [1, 1], 3)
        with pytest.raises(DimensionError):
            embed(I4, [0], 3)
        # a register size is an integer, not a bool or a float
        for size in (True, 1.0, 0):
            with pytest.raises(WireError, match="register size must be an integer of at least 1"):
                embed(np.eye(2), (0,), size)
        assert np.array_equal(embed(np.eye(2), (0,), np.int64(1)), np.eye(2))

    def test_register_cap(self):
        with pytest.raises(DimensionError):
            embed(I4, [0, 1], 13)


class TestNormsAndUnitarity:
    def test_frobenius_of_identity(self):
        assert frobenius_norm(I4) == 2.0

    def test_swap_is_unitary(self):
        assert is_unitary(SWAP, 1e-12)

    def test_scaled_identity_is_not(self):
        # ||(2I)'(2I) - I||_F = ||3 I_2||_F = 3 sqrt(2)
        assert not is_unitary(2 * I2, 1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            is_unitary(np.ones((2, 3)))

    def test_matrices_equal_exact_and_tolerant(self):
        assert matrices_equal(I2, I2, 0.0)
        assert matrices_equal(I2, I2 + 1e-12, 1e-11)
        assert not matrices_equal(I2, I2 + 1e-12, 1e-13)
        assert not matrices_equal(I2, I4, 1.0)


class TestPhaseDistance:
    def test_identical(self):
        assert phase_distance(I4, I4) == 0.0

    def test_global_sign(self):
        assert phase_distance(I4, -I4) == 0.0

    def test_orthogonal_traceless_pair(self):
        # tr(sigma_z' I) = 0, so the distance is sqrt(2 + 2) = 2
        assert phase_distance(I2, pauli("z")) == pytest.approx(2.0, abs=1e-15)

    def test_zero_iff_phase_related(self, rng):
        for _ in range(20):
            u = haar_unitary(4, rng)
            phi = np.exp(1j * rng.uniform(0, 2 * math.pi))
            assert phase_distance(u, phi * u) < 1e-12
            v = haar_unitary(4, rng)
            perturbed = u + 1e-6 * v
            assert phase_distance(u, phi * perturbed) > 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            phase_distance(I2, I4)

    def test_matches_closed_form(self, rng):
        # sqrt(||a||^2 + ||b||^2 - 2 |tr(b' a)|), overlap from the full product
        for dim in (2, 4, 8, 16):
            for _ in range(10):
                a = haar_unitary(dim, rng) + 0.5 * haar_unitary(dim, rng)
                b = haar_unitary(dim, rng)
                overlap = abs(np.trace(b.conj().T @ a))
                closed = math.sqrt(
                    np.linalg.norm(a) ** 2 + np.linalg.norm(b) ** 2 - 2 * overlap
                )
                assert phase_distance(a, b) == pytest.approx(closed, rel=1e-12, abs=1e-12)

    def test_invariant_under_global_phase(self, rng):
        for _ in range(20):
            a, b = haar_unitary(8, rng), haar_unitary(8, rng)
            phi, psi = np.exp(1j * rng.uniform(0, 2 * math.pi, size=2))
            assert phase_distance(phi * a, psi * b) == pytest.approx(
                phase_distance(a, b), rel=1e-12
            )
