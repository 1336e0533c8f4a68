"""Gate matrix constructors and the gate table.

``GATES`` maps every gate name a circuit may use to its arity, its
parameter count and its constructor; ``gate_matrix`` resolves a name and
parameters through it. The eight fixed gates (I, X, Y, Z, H, S, CNOT,
SWAP) are one table of matrices, ``_FIXED``: ``GATES`` takes each one's
arity from its size, 2**k rows for k wires, ``standard_gate`` returns a
copy of any of them, and ``rotation`` reads its Pauli matrix there. The
other constructors cover the commuting XX/YY/ZZ exponentials, the
three-parameter A gate, the B gate, the two-site Heisenberg evolution
operator, and permutation fusion operators built from finite-group
multiplication tables.

Conventions:

  rotation(axis, theta) = cos(theta/2) I - i sin(theta/2) sigma_axis
  xx(c) = exp(i c/2 sigma_x (x) sigma_x), same pattern for yy and zz
  a_gate(c1, c2, c3) = zz(c3) yy(c2) xx(c1)     (the factors commute)
  heisenberg_evolution(tx, ty, tz) = prod_a exp(i t_a sigma_a (x) sigma_a)

Heisenberg angles are the dimensionless products t_a = J_a t / hbar with
hbar = 1; coupling and time never enter separately. Both a_gate and
heisenberg_evolution are 4*pi-periodic in each parameter, and the two
families coincide under parameter doubling:

  heisenberg_evolution(tx, ty, tz) == a_gate(2 tx, 2 ty, 2 tz)

``a_gate`` and ``heisenberg_evolution`` also take arrays of parameters
of one broadcast shape and return the stack of gates, slice for slice
bitwise the scalar calls. The refiner builds its polls as one stack; the
grid scanner builds each block of its grid from three axis slices of
shapes (r, 1, 1), (1, c, 1) and (1, 1, n), so each factor that depends
on fewer parameters is computed once per value it depends on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGroupError, UnknownGateError
from .linalg import _dimension, _shown, check_integer, entry, instance, reals

FOUR_PI = 4.0 * math.pi

_SQRT2_INV = 1.0 / math.sqrt(2.0)

#: The fixed gates: name -> read-only matrix. ``GATES`` and ``standard_gate``
#: read it, and each call gets its own copy; ``rotation`` reads its Paulis.
_FIXED = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    "H": _SQRT2_INV * np.array([[1, 1], [1, -1]], dtype=np.complex128),
    "S": np.array([[1, 0], [0, 1j]], dtype=np.complex128),
    "CNOT": np.eye(4, dtype=np.complex128)[[0, 1, 3, 2]],
    "SWAP": np.eye(4, dtype=np.complex128)[[0, 2, 1, 3]],
}
#: sigma_a (x) sigma_a for each Pauli axis, and the 4x4 identity: the
#: constants of the XX/YY/ZZ closed form, built once and read-only. Each
#: product is ``np.kron``'s, entry for entry, for a tenth of its import cost.
_PAIRS = {axis: np.multiply.outer(p, p).transpose(0, 2, 1, 3).reshape(4, 4)
          for axis, p in (("x", _FIXED["X"]), ("y", _FIXED["Y"]), ("z", _FIXED["Z"]))}
_EYE4 = np.eye(4, dtype=np.complex128)
for _m in (*_FIXED.values(), *_PAIRS.values(), _EYE4):
    _m.flags.writeable = False


def rotation(axis: str, theta: float) -> np.ndarray:
    """Single-qubit rotation exp(-i theta/2 sigma_axis); ValueError unless
    ``axis`` is 'x', 'y' or 'z'."""
    entry(_PAIRS, axis, "Pauli axis", ValueError, ", expected 'x', 'y' or 'z'")  # keyed by axis
    half = 0.5 * float(theta)
    return math.cos(half) * _FIXED["I"] - 1j * math.sin(half) * _FIXED[axis.upper()]


def standard_gate(name: str) -> np.ndarray:
    """One of the fixed named gates I, X, Y, Z, H, S, CNOT, SWAP."""
    return entry(_FIXED, name, "standard gate", UnknownGateError).copy()


def _two_site_exponential(axis: str, theta) -> np.ndarray:
    """exp(i theta sigma_axis (x) sigma_axis), closed form via (s(x)s)^2 = I.

    ``theta`` may be an array of angles; the result then has shape
    ``theta.shape + (4, 4)``.
    """
    theta = np.asarray(theta, dtype=float)[..., np.newaxis, np.newaxis]
    return np.cos(theta) * _EYE4 + 1j * np.sin(theta) * _PAIRS[axis]


def xx(c1: float) -> np.ndarray:
    """exp(i c1/2 sigma_x (x) sigma_x)."""
    return _two_site_exponential("x", 0.5 * float(c1))


def yy(c2: float) -> np.ndarray:
    """exp(i c2/2 sigma_y (x) sigma_y)."""
    return _two_site_exponential("y", 0.5 * float(c2))


def zz(c3: float) -> np.ndarray:
    """exp(i c3/2 sigma_z (x) sigma_z) = diag(e^{ic/2}, e^{-ic/2}, e^{-ic/2}, e^{ic/2})."""
    return _two_site_exponential("z", 0.5 * float(c3))


def a_gate(c1, c2, c3) -> np.ndarray:
    """The three-parameter A gate, zz(c3) yy(c2) xx(c1), in closed form.

    Each parameter triple labels a local-equivalence class of two-qubit
    gates; the matrix is 4*pi-periodic in every parameter. The parameters
    may be arrays of one broadcast shape s; the result is then the stack
    of shape ``s + (4, 4)``, slice for slice equal to the scalar calls.
    Each parameter is halved before the half-sum and half-difference are
    formed: halving a float is exact, and a sum of two floats near the
    float maximum would overflow, so the gate is finite and unitary at
    every finite point.
    """
    c1, c2, c3 = (np.asarray(c, dtype=float) for c in (c1, c2, c3))
    half_diff = 0.5 * c1 - 0.5 * c2
    half_sum = 0.5 * c1 + 0.5 * c2
    ep = np.exp(0.5j * c3)
    em = np.exp(-0.5j * c3)
    cd, sd = np.cos(half_diff), np.sin(half_diff)
    cs, ss = np.cos(half_sum), np.sin(half_sum)
    m = np.zeros(np.broadcast(c1, c2, c3).shape + (4, 4), dtype=np.complex128)
    m[..., 0, 0] = m[..., 3, 3] = ep * cd
    m[..., 0, 3] = m[..., 3, 0] = 1j * ep * sd
    m[..., 1, 1] = m[..., 2, 2] = em * cs
    m[..., 1, 2] = m[..., 2, 1] = 1j * em * ss
    return m


def b_gate() -> np.ndarray:
    """The fixed two-qubit B gate, xx(pi/2) yy(pi/4)."""
    return xx(0.5 * math.pi) @ yy(0.25 * math.pi)


def heisenberg_evolution(theta_x, theta_y, theta_z) -> np.ndarray:
    """Two-site Heisenberg evolution operator.

    Product of the three commuting component exponentials
    exp(i theta_a sigma_a (x) sigma_a); equals a_gate(2 tx, 2 ty, 2 tz).
    Like ``a_gate``, it takes arrays of angles and returns the stack of
    operators, associated as (Ez @ Ey) @ Ex with one matrix product per
    slice. On broadcast axis slices Ez @ Ey is formed once per (ty, tz)
    pair and only the product with Ex per point, and every slice is
    bitwise the one-point result.
    """
    return (
        _two_site_exponential("z", theta_z)
        @ _two_site_exponential("y", theta_y)
        @ _two_site_exponential("x", theta_x)
    )


@dataclass(frozen=True)
class CayleyTable:
    """Multiplication table of a finite group.

    ``table[i][j]`` is the index of the product g_i * g_j. The order, the
    entries and the identity index are counts under ``check_integer``.
    The group's fusion operator acts on two wires of dimension ``order``,
    so ``linalg._dimension`` caps the order at 64, ``order**2 <= 2**12``:
    a larger order raises DimensionError before the table is read, and the
    constructors below refuse one before they build it.
    Validation is eager and states each group axiom as an identity on the
    table read as an integer array ``a``: every row and every column sorts
    to ``0..order-1``, row and column ``e`` of the identity are
    ``0..order-1``, and associativity ``(xb)c = x(bc)`` is
    ``a[a[x]] == a[x][a]`` for each row ``x``. That last check makes
    construction O(order**3) in time but holds O(order**2) memory at once.
    A failure names the first bad row, column or ``(x, b, c)`` triple in
    index order.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    identity_index: int

    def __post_init__(self):
        n = self.order
        check_integer(n, "group order", error=InvalidGroupError)
        _dimension(2, n)
        t = self.table
        if len(t) != n or any(len(row) != n for row in t):
            raise InvalidGroupError(f"table must be {n}x{n}")
        for x in itertools.chain.from_iterable(t):
            check_integer(x, "table entry", 0, InvalidGroupError)
        # an entry past the order reads as n, so it fits an intp array
        # however large it is, and it still fails its row's check
        a = np.minimum(np.array(t, dtype=object), n).astype(np.intp)
        full = np.arange(n)
        bad = np.argwhere((np.sort([a, a.T]) != full).any(axis=2))  # rows, then columns
        if bad.size:
            what, i = ("row", "column")[bad[0, 0]], bad[0, 1]
            raise InvalidGroupError(f"{what} {i} is not a permutation of 0..{n - 1}")
        e = self.identity_index
        check_integer(e, "identity index", 0, InvalidGroupError)
        if e >= n:
            raise InvalidGroupError(f"identity index {_shown(int(e))} out of range")
        if not ((a[e] == full) & (a[:, e] == full)).all():
            raise InvalidGroupError(f"element {e} is not a two-sided identity")
        for x in range(n):
            if (fails := a[a[x]] != a[x][a]).any():  # [b, c]: (xb)c != x(bc)
                b, c = divmod(int(fails.argmax()), n)
                raise InvalidGroupError(f"associativity fails at triple ({x}, {b}, {c})")

    @classmethod
    def cyclic(cls, n: int) -> "CayleyTable":
        """The cyclic group Z_n with addition mod n."""
        check_integer(n, "group order", error=InvalidGroupError)
        _dimension(2, n)
        table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
        return cls(n, table, 0)

    @classmethod
    def direct_product(cls, g: "CayleyTable", h: "CayleyTable") -> "CayleyTable":
        """Direct product with pair (i, j) indexed as i * h.order + j.

        Anything but two ``CayleyTable`` instances raises InvalidGroupError.
        """
        instance(g, CayleyTable, "g", InvalidGroupError)
        instance(h, CayleyTable, "h", InvalidGroupError)
        n, m = g.order * h.order, h.order
        _dimension(2, n)
        # entry [i1, j1, i2, j2] is the index of (g_i1 g_i2, h_j1 h_j2)
        table = np.array(g.table)[:, None, :, None] * m + np.array(h.table)[None, :, None, :]
        return cls(n, tuple(map(tuple, table.reshape(n, n).tolist())),
                   g.identity_index * m + h.identity_index)

    @classmethod
    def symmetric(cls, n: int) -> "CayleyTable":
        """The symmetric group S_n; elements are permutation tuples in lex order."""
        check_integer(n, "symmetric group degree", 0, InvalidGroupError)
        _dimension(2, n)  # S_n has at least n elements, so n! is computed only for a small n
        _dimension(2, math.factorial(n))
        perms = sorted(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        table = []
        for p in perms:
            # (p o q)(x) = p[q[x]]
            table.append(tuple(index[tuple(p[q[x]] for x in range(n))] for q in perms))
        return cls(len(perms), tuple(table), index[tuple(range(n))])


def group_algebra_fusion(g: CayleyTable) -> np.ndarray:
    """Permutation fusion operator of a finite group.

    Acts on basis vectors of C^n (x) C^n by e_g (x) e_h -> e_g (x) e_{g h},
    i.e. the composite of the diagonal coproduct g -> g (x) g with the group
    product. Always an exact pentagon solution; for Z_2 this is CNOT.
    Anything but a ``CayleyTable`` raises InvalidGroupError.
    """
    n = instance(g, CayleyTable, "group", InvalidGroupError).order
    mat = np.zeros((n * n, n * n), dtype=np.complex128)
    # column a*n + b holds its 1 in row a*n + ab
    mat[(np.arange(n)[:, None] * n + np.array(g.table)).ravel(), np.arange(n * n)] = 1.0
    return mat


#: The gate table: name -> (arity, parameter count, constructor). It is the
#: only statement of which named gates exist, how many wires each acts on
#: and how many real parameters its constructor takes. The circuit JSON
#: schema and every gate check read it. A fixed gate's arity is worked out
#: from its matrix, of 2**k rows for k wires, and its constructor copies it.
GATES = {
    **{name: (len(m).bit_length() - 1, 0, m.copy) for name, m in _FIXED.items()},
    "RX": (1, 1, lambda theta: rotation("x", theta)),
    "RY": (1, 1, lambda theta: rotation("y", theta)),
    "RZ": (1, 1, lambda theta: rotation("z", theta)),
    "B": (2, 0, b_gate),
    "XX": (2, 1, xx),
    "YY": (2, 1, yy),
    "ZZ": (2, 1, zz),
    "A": (2, 3, a_gate),
    "HEIS": (2, 3, heisenberg_evolution),
}


def gate_matrix(name: str, params=()) -> np.ndarray:
    """Resolve a gate name plus parameters to its unitary matrix."""
    _, expected, build = entry(GATES, name, "gate name", UnknownGateError)
    params = reals(params, f"gate {name!r} parameters")
    if len(params) != expected:
        raise ValueError(
            f"gate {name!r} takes {expected} parameter(s), got {len(params)}"
        )
    return build(*params)
