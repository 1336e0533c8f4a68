"""Tests for the gate constructors."""

import functools
import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from pentagate import (
    CayleyTable,
    DimensionError,
    InvalidGroupError,
    a_gate,
    gate_matrix,
    group_algebra_fusion,
    heisenberg_evolution,
    is_unitary,
    scan_fusion_solutions,
    standard_gate,
)
from pentagate.errors import UnknownGateError
from pentagate.gates import GATES, b_gate, rotation, xx, yy, zz
from pentagate.linalg import frobenius_norm
from oracles import group_fusion_map, matrices_equal, permutation_operator

#: The groups of the ``certify`` benchmark workload, and S4 (d=24).
GROUP_NAMES = (
    "Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8",
    "Z2xZ2", "S3", "Z2xZ4", "Z2xZ2xZ2", "Z12", "Z2xS3", "S4",
)


def named_group(name: str) -> CayleyTable:
    """The CayleyTable ``name`` names: Zn, Sn, or an x-separated direct product."""
    parts = [(CayleyTable.symmetric if part[0] == "S" else CayleyTable.cyclic)(int(part[1:]))
             for part in name.split("x")]
    return functools.reduce(CayleyTable.direct_product, parts)


def reference_table(name: str) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(table, identity index) of ``name`` from the definitions, element by element.

    Z_n is the residues under addition mod n, S_n the permutation tuples in
    lex order under composition, and a direct product the tuples of its
    factors' elements in lex order under the componentwise product.
    """
    factors = []
    for part in name.split("x"):
        n = int(part[1:])
        if part[0] == "Z":
            factors.append((list(range(n)), lambda a, b, n=n: (a + b) % n, 0))
        else:
            perms = sorted(itertools.permutations(range(n)))
            factors.append((perms, lambda p, q: tuple(p[x] for x in q), tuple(range(n))))
    elements = list(itertools.product(*(f[0] for f in factors)))
    index = {g: i for i, g in enumerate(elements)}
    table = tuple(
        tuple(index[tuple(f[1](a, b) for f, a, b in zip(factors, g, h))] for h in elements)
        for g in elements
    )
    return table, index[tuple(f[2] for f in factors)]

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
PI = math.pi


class TestPauliAndRotation:
    def test_pauli_squares(self):
        for name in "XYZ":
            assert matrices_equal(standard_gate(name) @ standard_gate(name), I2, 0.0)

    def test_rotation_at_zero(self):
        assert np.array_equal(rotation("z", 0.0), I2)

    def test_rotation_x_at_pi(self):
        assert matrices_equal(rotation("x", PI), -1j * standard_gate("X"), 1e-15)

    def test_rotation_y_is_real_and_unitary(self):
        r = rotation("y", 1.234)
        assert np.max(np.abs(r.imag)) == 0.0
        assert is_unitary(r, 1e-12)

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            rotation("w", 0.0)
        with pytest.raises(ValueError):
            rotation("q", 1.0)


class TestStandardGates:
    def test_hadamard_squares_to_identity(self):
        h = standard_gate("H")
        assert matrices_equal(h @ h, I2, 1e-15)

    def test_phase_gate_fourth_power(self):
        s = standard_gate("S")
        assert matrices_equal(np.linalg.matrix_power(s, 4), I2, 0.0)

    def test_swap_self_inverse(self):
        swap = standard_gate("SWAP")
        assert np.array_equal(np.linalg.inv(swap).astype(complex), swap)

    def test_cnot_entries(self):
        expected = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        assert np.array_equal(standard_gate("CNOT"), expected)

    def test_unknown_name(self):
        with pytest.raises(UnknownGateError):
            standard_gate("TOFFOLI")

    def test_each_call_returns_its_own_bitwise_matrix(self):
        literal = {
            "H": (1.0 / math.sqrt(2.0)) * np.array([[1, 1], [1, -1]], dtype=np.complex128),
            "S": np.array([[1, 0], [0, 1j]], dtype=np.complex128),
            "SWAP": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                             dtype=np.complex128),
        }
        for name, expected in literal.items():
            first = standard_gate(name)
            assert first.dtype == np.complex128 and first.tobytes() == expected.tobytes()
            first[0, 0] = 7.0
            assert standard_gate(name).tobytes() == expected.tobytes()


class TestTwoSiteExponentials:
    def test_xx_at_zero(self):
        assert np.array_equal(xx(0.0), I4)

    def test_zz_closed_form(self, rng):
        for c in rng.uniform(-7, 7, 20):
            e = np.exp(0.5j * c)
            expected = np.diag([e, e.conjugate(), e.conjugate(), e]).astype(complex)
            assert matrices_equal(zz(c), expected, 1e-15)

    def test_yy_corner_signs(self):
        # (0,3) entry of yy carries -i sin(c/2)
        c = 0.8
        assert yy(c)[0, 3] == pytest.approx(-1j * math.sin(c / 2))
        assert yy(c)[1, 2] == pytest.approx(1j * math.sin(c / 2))

    def test_exponential_addition(self, rng):
        for fam in (xx, yy, zz):
            for _ in range(30):
                a, b = rng.uniform(-7, 7, 2)
                assert frobenius_norm(fam(a) @ fam(b) - fam(a + b)) < 1e-12

    def test_pairwise_commutation(self, rng):
        for _ in range(30):
            a, b, c = rng.uniform(-7, 7, 3)
            pairs = [(xx(a), yy(b)), (xx(a), zz(c)), (yy(b), zz(c))]
            for m1, m2 in pairs:
                assert frobenius_norm(m1 @ m2 - m2 @ m1) < 1e-12

    def test_matches_direct_matrix_exponential(self, rng):
        for _ in range(20):
            c = float(rng.uniform(-7, 7))
            direct = expm(0.5j * c * np.kron(standard_gate("X"), standard_gate("X")))
            assert frobenius_norm(xx(c) - direct) < 1e-13


class TestAGate:
    def test_identity_point(self):
        assert np.array_equal(a_gate(0, 0, 0), I4)

    def test_minus_identity_at_c3_minus_two_pi(self):
        assert matrices_equal(a_gate(0, 0, -2 * PI), -I4, 1e-15)

    def test_equals_product_of_exponentials(self, rng):
        for _ in range(100):
            c1, c2, c3 = rng.uniform(-7, 7, 3)
            assert frobenius_norm(a_gate(c1, c2, c3) - zz(c3) @ yy(c2) @ xx(c1)) < 1e-12

    def test_unitary_for_random_parameters(self, rng):
        for _ in range(200):
            assert is_unitary(a_gate(*rng.uniform(-20, 20, 3)), 1e-12)

    @pytest.mark.parametrize("params", [(1e308, 1e308, 0.0), (-1e308, -1e308, 1.0),
                                        (1.7e308, -1.7e308, 0.5)])
    def test_finite_and_unitary_at_huge_parameters(self, params):
        # c1 + c2 would overflow; each is halved first
        gate = a_gate(*params)
        assert np.isfinite(gate).all()
        assert is_unitary(gate, 1e-12)
        c1, c2, c3 = params
        assert frobenius_norm(gate - zz(c3) @ yy(c2) @ xx(c1)) < 1e-12

    def test_four_pi_periodicity(self, rng):
        for _ in range(10):
            c1, c2, c3 = rng.uniform(-7, 7, 3)
            base = a_gate(c1, c2, c3)
            assert matrices_equal(a_gate(c1 + 4 * PI, c2, c3), base, 1e-12)
            assert matrices_equal(a_gate(c1, c2 + 4 * PI, c3), base, 1e-12)
            assert matrices_equal(a_gate(c1, c2, c3 + 4 * PI), base, 1e-12)

    def test_parameter_arrays_broadcast_to_a_stack(self):
        c1 = np.array([0.0, 0.5, -1.0])
        for build in (a_gate, heisenberg_evolution):
            stack = build(c1, 0.25, -2.0)
            assert stack.shape == (3, 4, 4)
            assert all(np.array_equal(m, build(c, 0.25, -2.0)) for m, c in zip(stack, c1))
            assert build(0.0, 0.0, 0.0).shape == (4, 4)

    def test_params_canonicalization(self):
        # A(-4pi, -4pi, -4pi) = +I; a one-point scan reports it reduced mod 4pi
        (point,) = scan_fusion_solutions("a", (-4 * PI, -4 * PI, 1.0))
        assert point.parameters == (-4 * PI, -4 * PI, -4 * PI)
        assert point.canonical_parameters == pytest.approx((0.0, 0.0, 0.0))
        assert all(0 <= x < 4 * PI for x in point.canonical_parameters)


class TestBGate:
    def test_unitary(self):
        b = b_gate()
        assert matrices_equal(b @ b.conj().T, I4, 1e-15)

    def test_definition(self):
        assert np.array_equal(b_gate(), xx(PI / 2) @ yy(PI / 4))

    def test_equals_a_gate_with_zero_zz(self):
        # xx and yy commute, and zz(0) = I, so the A gate reproduces B
        assert matrices_equal(b_gate(), a_gate(PI / 2, PI / 4, 0), 1e-15)


class TestHeisenbergEvolution:
    def test_identity_point(self):
        assert np.array_equal(heisenberg_evolution(0, 0, 0), I4)

    def test_z_only_diagonal(self, rng):
        for tz in rng.uniform(-7, 7, 10):
            e = np.exp(1j * tz)
            expected = np.diag([e, e.conjugate(), e.conjugate(), e]).astype(complex)
            assert matrices_equal(heisenberg_evolution(0, 0, tz), expected, 1e-15)

    def test_equals_a_gate_at_doubled_parameters(self, rng):
        for _ in range(100):
            tx, ty, tz = rng.uniform(-7, 7, 3)
            gap = frobenius_norm(
                heisenberg_evolution(tx, ty, tz) - a_gate(2 * tx, 2 * ty, 2 * tz)
            )
            assert gap < 1e-12

    def test_matches_expm_oracle(self, rng):
        for _ in range(30):
            tx, ty, tz = rng.uniform(-7, 7, 3)
            direct = (
                expm(1j * tx * np.kron(standard_gate("X"), standard_gate("X")))
                @ expm(1j * ty * np.kron(standard_gate("Y"), standard_gate("Y")))
                @ expm(1j * tz * np.kron(standard_gate("Z"), standard_gate("Z")))
            )
            assert frobenius_norm(heisenberg_evolution(tx, ty, tz) - direct) < 1e-10

    def test_corner_entries_share_one_phase(self, rng):
        # both anti-diagonal corners carry e^{+i tz}; they are equal entries
        for _ in range(10):
            tx, ty, tz = rng.uniform(-7, 7, 3)
            h = heisenberg_evolution(tx, ty, tz)
            assert h[0, 3] == pytest.approx(h[3, 0], abs=1e-14)

    def test_unitary_for_random_parameters(self, rng):
        for _ in range(100):
            assert is_unitary(heisenberg_evolution(*rng.uniform(-20, 20, 3)), 1e-12)


class TestCayleyTable:
    def test_cyclic_groups_validate(self):
        for n in range(1, 9):
            CayleyTable.cyclic(n)
        assert CayleyTable.cyclic(np.int64(3)).order == 3  # numpy-int entries

    def test_symmetric_three_is_nonabelian_order_six(self):
        s3 = CayleyTable.symmetric(3)
        assert s3.order == 6
        assert any(
            s3.table[a][b] != s3.table[b][a] for a in range(6) for b in range(6)
        )

    def test_rejects_non_latin_square(self):
        with pytest.raises(InvalidGroupError):
            CayleyTable(2, ((0, 0), (1, 1)), 0)

    def test_rejects_bad_identity(self):
        with pytest.raises(InvalidGroupError):
            CayleyTable(2, ((0, 1), (1, 0)), 1)

    @pytest.mark.parametrize("order", [0, -3])
    def test_cyclic_group_of_no_elements_is_refused(self, order):
        with pytest.raises(InvalidGroupError, match="group order must be an integer of at least 1"):
            CayleyTable.cyclic(order)

    @pytest.mark.parametrize("build", [
        lambda: CayleyTable(2.0, ((0, 1), (1, 0)), 0),
        lambda: CayleyTable(True, ((0,),), 0),
        lambda: CayleyTable.cyclic(2.0),
        lambda: CayleyTable.symmetric(2.5),
        lambda: CayleyTable(2, ((0.0, 1.0), (1.0, 0.0)), 0),
        lambda: CayleyTable(2, ((False, True), (True, False)), 0),
        lambda: CayleyTable(2, ((0, 1), (1, 0)), 0.0),
        lambda: CayleyTable(2, ((1, 0), (0, 1)), True),  # element 1 is the identity
    ], ids=["order-float", "order-bool", "cyclic-float", "symmetric-float",
            "entries-float", "entries-bool", "identity-float", "identity-bool"])
    def test_counts_are_integers(self, build):
        with pytest.raises(InvalidGroupError, match="must be an integer of at least"):
            build()

    @pytest.mark.parametrize("build, order", [
        (lambda: CayleyTable(65, (), 0), 65),  # before the table is read
        (lambda: CayleyTable.cyclic(65), 65),
        (lambda: CayleyTable.direct_product(CayleyTable.cyclic(8), CayleyTable.cyclic(9)), 72),
        (lambda: CayleyTable.symmetric(5), 120),
    ], ids=["table", "cyclic", "direct-product", "symmetric"])
    def test_order_past_the_dense_cap_is_refused(self, build, order):
        # the fusion operator acts on two wires of dimension order: order**2 <= 2**12
        with pytest.raises(DimensionError) as excinfo:
            build()
        assert str(excinfo.value) == (
            f"register of 2 wires of dimension {order} exceeds the 4096-dimensional cap"
        )

    def test_symmetric_group_past_the_cap_is_refused_before_building(self, monkeypatch):
        # S_9 would list 362,880 permutations for a 362,880^2 table, and S_(10**9)
        # would never end; a call past the cap must not count or list them
        factorial = math.factorial

        def small_factorial(n):
            assert n <= 64, f"{n}! computed past the cap"
            return factorial(n)

        def no_permutations(*args):
            raise AssertionError("permutations listed past the cap")

        monkeypatch.setattr(math, "factorial", small_factorial)
        monkeypatch.setattr(itertools, "permutations", no_permutations)
        for degree, order in [(9, 362880), (10**9, 10**9)]:
            with pytest.raises(DimensionError, match=f"dimension {order} exceeds"):
                CayleyTable.symmetric(degree)

    def test_dense_cap_is_inclusive(self):
        assert CayleyTable.cyclic(64).order == 64
        assert CayleyTable.direct_product(CayleyTable.cyclic(8), CayleyTable.cyclic(8)).order == 64
        assert group_algebra_fusion(CayleyTable.symmetric(4)).shape == (576, 576)

    def test_rejects_non_associative_latin_square(self):
        # a 5x5 Latin square with two-sided identity 0 that is not a group
        table = (
            (0, 1, 2, 3, 4),
            (1, 0, 3, 4, 2),
            (2, 4, 0, 1, 3),
            (3, 2, 4, 0, 1),
            (4, 3, 1, 2, 0),
        )
        with pytest.raises(InvalidGroupError):
            CayleyTable(5, table, 0)

    @pytest.mark.parametrize("order, table, identity, message", [
        (2, ((0, 0), (1, 1)), 0, "row 0 is not a permutation of 0..1"),
        (3, ((0, 1, 2), (1, 2, 0), (2, 2, 1)), 0, "row 2 is not a permutation of 0..2"),
        (2, ((0, 1), (0, 1)), 0, "column 0 is not a permutation of 0..1"),
        (2, ((0, 1), (1, 0)), 1, "element 1 is not a two-sided identity"),
        (2, ((0, 1), (1, 0)), 2, "identity index 2 out of range"),
        (5, ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0)),
         0, "associativity fails at triple (1, 1, 2)"),
        (2, ((0, 2), (1, 0)), 0, "row 0 is not a permutation of 0..1"),
        (2, ((0, 10**30), (1, 0)), 0, "row 0 is not a permutation of 0..1"),
        (3, ((0, 1, 2), (1, 2, 10**30), (2, 0, 1)), 0, "row 1 is not a permutation of 0..2"),
        (2, ((0, 1),), 0, "table must be 2x2"),
    ], ids=["row", "later-row", "column", "identity", "identity-range", "associativity",
            "entry-past-order", "entry-huge", "entry-huge-later-row", "shape"])
    def test_refusal_messages(self, order, table, identity, message):
        # an entry of any size is refused by its row, not by an overflow
        with pytest.raises(InvalidGroupError) as excinfo:
            CayleyTable(order, table, identity)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("name", GROUP_NAMES)
    def test_tables_match_their_definition(self, name):
        group = named_group(name)
        table, identity = reference_table(name)
        assert (group.order, group.table, group.identity_index) == (len(table), table, identity)
        assert all(type(x) is int for row in group.table for x in row)

    def test_direct_product_order(self):
        v4 = CayleyTable.direct_product(CayleyTable.cyclic(2), CayleyTable.cyclic(2))
        assert v4.order == 4
        # Klein four group: every element squares to the identity
        assert all(v4.table[g][g] == v4.identity_index for g in range(4))


class TestGroupAlgebraFusion:
    def test_trivial_group(self):
        assert np.array_equal(group_algebra_fusion(CayleyTable.cyclic(1)), np.array([[1.0]]))

    def test_z2_is_cnot(self):
        assert np.array_equal(
            group_algebra_fusion(CayleyTable.cyclic(2)), standard_gate("CNOT")
        )

    def test_permutation_structure(self):
        groups = [
            CayleyTable.cyclic(2),
            CayleyTable.cyclic(3),
            CayleyTable.cyclic(4),
            CayleyTable.direct_product(CayleyTable.cyclic(2), CayleyTable.cyclic(2)),
            CayleyTable.cyclic(5),
            CayleyTable.cyclic(6),
            CayleyTable.symmetric(3),
        ]
        for g in groups:
            t = group_algebra_fusion(g)
            assert np.all((t == 0) | (t == 1))
            assert np.array_equal(t.sum(axis=0), np.ones(g.order**2))
            assert np.array_equal(t.sum(axis=1), np.ones(g.order**2))

    @pytest.mark.parametrize("name", GROUP_NAMES)
    def test_matches_the_basis_map_oracle(self, name):
        table, _ = reference_table(name)
        fusion = group_algebra_fusion(named_group(name))
        assert fusion.dtype == np.complex128 and fusion.flags.c_contiguous
        assert np.array_equal(fusion, permutation_operator(group_fusion_map(table), len(table), 2))


class TestGateMatrixDispatch:
    def test_every_known_gate_resolves_and_is_unitary(self, rng):
        # each table entry builds a 2**arity unitary from its parameter count,
        # and gate_matrix resolves the name to that same matrix
        for name, (arity, count, build) in GATES.items():
            params = tuple(rng.uniform(0, 6.2, count))
            m = build(*params)
            assert m.shape == (2**arity,) * 2
            assert is_unitary(m, 1e-12)
            assert np.array_equal(gate_matrix(name, params), m)

    def test_constructors_unitary_over_500_random_draws(self, rng):
        parametrized = [n for n, (_, count, _) in GATES.items() if count > 0]
        for _ in range(500):
            name = parametrized[int(rng.integers(0, len(parametrized)))]
            params = tuple(rng.uniform(-20, 20, GATES[name][1]))
            assert is_unitary(gate_matrix(name, params), 1e-12)

    def test_wrong_parameter_count(self):
        with pytest.raises(ValueError):
            gate_matrix("RZ", ())
        with pytest.raises(ValueError):
            gate_matrix("A", (1.0,))

    def test_unknown_gate(self):
        with pytest.raises(UnknownGateError):
            gate_matrix("CZ", ())

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, value):
        for name, params, index in (("RZ", (value,), 0), ("XX", (value,), 0),
                                    ("A", (value, 0, 0), 0), ("HEIS", (0, 0, value), 2)):
            message = rf"^gate '{name}' parameters\[{index}\]: expected a finite number, got {value}$"
            with pytest.raises(ValueError, match=message):
                gate_matrix(name, params)

    @pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["huge", "huge_negative"])
    def test_huge_integer_parameters_rejected(self, value):
        # float() of such an integer overflows; it must read as non-finite
        for name, params, index in (("RZ", (value,), 0), ("A", (0, value, 0), 1)):
            message = rf"^gate '{name}' parameters\[{index}\]: expected a finite number, got {value}$"
            with pytest.raises(ValueError, match=message):
                gate_matrix(name, params)
