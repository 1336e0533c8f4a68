"""Residuals of the pentagon equation, both Yang-Baxter forms, and the
3-cocycle condition, evaluated as dense operators on V (x) V (x) V.

Composition convention: in every equation string the rightmost factor acts
first, i.e. ordinary matrix-product order. Circuit execution order (first
gate listed acts first) is confined to :mod:`pentagate.circuit`.

The subscript lift Tij of an operator T on V (x) V to V (x) V (x) V places
T on factors i and j and the identity on the third; it is
``embed(T, (i - 1, j - 1), 3, d)`` with d = dim V, so

  T12 = T (x) id,
  T23 = id (x) T,
  T13 = (id (x) tau)^-1 (T (x) id) (id (x) tau),

with tau the twist map; id (x) tau is ``embed(tau, (1, 2), 3, d)``. The
equations evaluated here are

  pentagon:  T23 T12 = T12 T13 T23
  ybe:       R12 R23 R12 = R23 R12 R23      (braid form)
  ybe13:     R12 R13 R23 = R23 R13 R12
  cocycle3:  (T' (x) id)(id (x) tau)(T' (x) id)
               = (id (x) T')(T' (x) id)(id (x) T')

The pentagon equation is evaluated by one stacked kernel,
``pentagon_stack``, on a stack of gates of shape ``(n, d*d, d*d)``.
``embed`` forms T12 and T13 for the whole stack at once; the other three
factors are applied as reshaped products of the gates themselves, which
costs O(d**8) per gate instead of the O(d**9) of dense d**3 x d**3
products. Each stacked product runs one matrix product per slice, so
every slice is bitwise the one-gate result. ``pentagon_residual`` is its
one-gate case. At d=2, ``_pentagon_column_bound`` gives a lower bound of
each residual, the norm of one column of the difference, for a fraction
of the kernel's cost; the scanner uses it to skip points that cannot
pass. It copies the gates entry-major, in pieces of at most
``COLUMN_BOUND_PIECE``, so each of its products runs over one row of
gates. The other equations are evaluated with dense lifts; they are only
called at small d.

A permutation gate, one whose matrix has only exact 0 and 1 entries with
one 1 per row and per column (``linalg._permutation_rows``), is also
decided without a dense lift by ``permutation_solves_pentagon``. Each lift
of such a gate maps basis state i of V (x) V (x) V to one basis state,
its rows as ``linalg._row_map`` lifts them for the simulator, and a
product of such matrices composes those maps, so the sides are equal
exactly when the composed index maps of T23 T12 and T12 T13 T23 agree on
the d**3 basis states. That costs O(d**3) where the dense sides cost
O(d**8), and it is the vectorised form of the basis-tuple oracle
``tests/oracles.py`` ``pentagon_sides``. Where the maps agree, the
kernel's sides are bitwise equal and its residual is exactly 0.0 (see
``pentagon_stack``).

``linalg._check_operator`` states the shape rule. Each entry only
coerces its input with ``as_matrix`` (``pentagon_stack`` tests that it
has a stack), and its first lift, or the index-map check before it reads
the gate's rows, checks that d is an integer of at least 1 and that the
operator is d*d x d*d, raising DimensionError before any product.
``certify`` calls the index-map check first, so the rule is applied
there before its unitarity check.

Two classical dualities tie these together: R solves the braid YBE iff
tau R solves ybe13, and T solves the pentagon equation iff tau T solves
the 3-cocycle condition (Street). Note the pentagon equation is not
invariant under a global phase: scaling a solution T by a unit scalar
lambda scales the two sides by lambda^2 and lambda^3 respectively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (DEFAULT_TOLERANCE, _check_operator, _permutation_rows, _row_map,
                     as_matrix, check_tolerance, embed, twist)


@dataclass(frozen=True, eq=False)
class EquationResidual:
    """Both sides of an equation instance and the size of their difference.

    ``residual`` is the Frobenius norm of ``lhs - rhs``; ``mismatch`` is
    ``|lhs - rhs|`` entrywise, for callers to read rather than form again.
    """

    equation: str
    residual: float
    lhs: np.ndarray
    rhs: np.ndarray
    mismatch: np.ndarray


def _residual(
    equation: str, lhs: np.ndarray, rhs: np.ndarray, residual: float | None = None
) -> EquationResidual:
    diff = lhs - rhs
    return EquationResidual(
        equation=equation,
        residual=float(np.linalg.norm(diff)) if residual is None else residual,
        lhs=lhs,
        rhs=rhs,
        mismatch=np.abs(diff),
    )


def pentagon_stack(ts, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both sides of T23 T12 = T12 T13 T23 for a stack of gates, and each residual.

    ``ts`` has shape ``(n, d*d, d*d)``. Returns the stacked sides, each of
    shape ``(n, d**3, d**3)``, and the ``n`` residuals, the Frobenius norm
    of each slice of their difference.

    Only T12 and T13 are formed densely. Every other factor is applied as
    one reshaped product of the gate itself: T12 on the left contracts
    factors 1 and 2 of the rows, T23 on the left factors 2 and 3 of the
    rows, and T23 on the right factors 2 and 3 of the columns. That costs
    O(d**8) per gate where a dense d**3 x d**3 product costs O(d**9).

    The sides are associated as T23 T12 and (T12 T13) T23, the order in
    which the dense products ``l23 @ l12`` and ``l12 @ l13 @ l23`` are
    evaluated. With that order both sides, and the residuals, are bitwise
    those of the dense products at d=2, as the property tests check on A,
    Heisenberg and Haar gates; so are the sides of a permutation gate at
    every d, since every sum and product of 0s and 1s there is exact.
    At d=3 and above a general gate's sides may differ in the last bit.
    The residual sums squares as ``np.linalg.norm`` does, the real parts
    and then the imaginary parts, each as one dot product. Each stacked
    product runs one matrix product per slice, so every slice is bitwise
    what ``pentagon_residual`` returns for that gate alone.
    """
    ts = as_matrix(ts, ndims=(3,))
    lhs = embed(ts, (0, 1), 3, d)  # T12; this embed checks d and the gates' shape
    n, size = len(ts), d**3
    lhs = ts[:, np.newaxis] @ lhs.reshape(n, d, d * d, size)  # T23 T12, replacing T12
    rhs = ts @ embed(ts, (0, 2), 3, d).reshape(n, d * d, d * size)  # T12 T13
    rhs = rhs.reshape(n, size * d, d * d) @ ts  # (T12 T13) T23
    lhs, rhs = lhs.reshape(n, size, size), rhs.reshape(n, size, size)
    diff = (lhs - rhs).reshape(n, 1, size * size)
    re, im = diff.real, diff.imag
    residuals = np.sqrt((re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0, 0])
    return lhs, rhs, residuals


#: Most gates ``_pentagon_column_bound`` evaluates at a time. A piece's
#: entry-major copy of its gates takes 128 KiB and each temporary 64 KiB,
#: within glibc's 128 KiB mmap threshold, so they are reused from the
#: heap. A whole 1,024-point scan block doubles both, and then the
#: temporaries are mapped and faulted in again on every call: about 95
#: minor page faults per call, 2,300-2,700 in the bound per pass of the
#: ``scan`` benchmark's seven scans, where in 512-gate pieces the whole
#: pass faults 130-720 times, the bound alone 0-530 (which call touches
#: the heap's trimmed top first varies from process to process). Each
#: ufunc still runs over 512 contiguous values.
COLUMN_BOUND_PIECE = 512


def _pentagon_column_bound(ts: np.ndarray) -> np.ndarray:
    """Lower bounds of the ``pentagon_stack`` residuals of a stack of d=2 gates.

    ``ts`` has shape ``(n, 4, 4)``. Returns, per gate, the norm of column
    |001> of ``lhs - rhs``, ||(T23 T12 - T12 T13 T23)|001>||_2; for a unit
    vector e, ||(L - R) e||_2 <= ||L - R||_F. Writing T[xy, x'y'], the
    columns are T23 T12|001>: (x, yz) -> sum_b T[xb, 00] T[yz, b1], and
    T12 T13 T23|001>: (xy, z) -> sum_k T[xy, k] v[k, z] with
    v[x'y', z] = sum_w T[x'z, 0w] T[y'w, 01]. A gate with a NaN entry gets
    a NaN bound, as every entry enters the second column.

    The stack is evaluated in pieces of at most ``COLUMN_BOUND_PIECE``
    gates, each copied once entry-major: entry T[r, c] of every gate of
    the piece is one contiguous row, so each product and sum above is one
    ufunc call over whole rows, where in the gates' own layout every call
    would run 2- to 4-element strided inner loops. The column of
    ``lhs - rhs`` is built in one ``(8, n)`` array, the two terms of lhs
    added and the four of rhs subtracted in place, and each gate's norm is
    read from that array's float view. The bound of a gate depends on no
    other gate, so the pieces change no bit of it; the summation order
    moves the bound by at most 2 ulps from that of the gates' own layout
    (``certify.SCAN_SLACK`` covers it).
    """
    bounds = np.empty(len(ts))
    for start in range(0, len(ts), COLUMN_BOUND_PIECE):
        piece = ts[start:start + COLUMN_BOUND_PIECE]
        n = len(piece)
        t = np.ascontiguousarray(piece.reshape(n, 16).T).reshape(4, 4, n)  # t[r, c] over gates
        diff = np.empty((8, n), dtype=np.complex128)
        lhs = diff.reshape(2, 4, n)  # (x, yz)
        np.multiply(t[0::2, 0, None], t[None, :, 1], out=lhs)
        lhs += t[1::2, 0, None] * t[None, :, 3]
        v = (t[:, 0].reshape(2, 1, 2, n) * t[0::2, 1].reshape(1, 2, 1, n)
             + t[:, 1].reshape(2, 1, 2, n) * t[1::2, 1].reshape(1, 2, 1, n)).reshape(4, 2, n)
        rhs = diff.reshape(4, 2, n)  # (xy, z)
        for k in range(4):
            rhs -= t[:, k, None] * v[k]
        squares = diff.view(np.float64)  # (8, 2n): re, im interleaved
        squares *= squares
        sums = squares.sum(axis=0)
        bounds[start:start + n] = np.sqrt(sums[0::2] + sums[1::2])
    return bounds


def pentagon_residual(t, d: int) -> EquationResidual:
    """Residual of T23 T12 = T12 T13 T23: the one-gate case of ``pentagon_stack``."""
    lhs, rhs, residuals = pentagon_stack(as_matrix(t)[np.newaxis], d)
    return _residual("pentagon", lhs[0], rhs[0], float(residuals[0]))


def permutation_solves_pentagon(t, d: int) -> bool:
    """True iff ``t`` is a permutation gate whose index maps satisfy T23 T12 = T12 T13 T23.

    Refuses a bad ``d`` or shape with the shape rule's DimensionError
    first. A gate that is not a permutation, or whose maps disagree, gives
    False; ``certify`` checks its unitarity and leaves it to the dense
    kernel, which reports its residual and where the sides differ. Each
    lift's rows are ``linalg._row_map`` of the gate's rows, and the rows of
    a product A B are ``rows_B[rows_A]``.
    """
    t = as_matrix(t)
    _check_operator(t, 2, d)
    if (rows := _permutation_rows(t)) is None:
        return False
    rows = np.array(rows)  # converted once for the three lifts
    t12, t23, t13 = (_row_map(3, wires, rows, d) for wires in ((0, 1), (1, 2), (0, 2)))
    return bool((t12[t23] == t23[t13[t12]]).all())


def ybe_residual(r, d: int) -> EquationResidual:
    """Residual of the braid-form Yang-Baxter equation R12 R23 R12 = R23 R12 R23."""
    r = as_matrix(r)
    l12, l23 = embed(r, (0, 1), 3, d), embed(r, (1, 2), 3, d)
    return _residual("ybe", l12 @ l23 @ l12, l23 @ l12 @ l23)


def ybe13_residual(r, d: int) -> EquationResidual:
    """Residual of the three-lift Yang-Baxter form R12 R13 R23 = R23 R13 R12."""
    r = as_matrix(r)
    l12, l13, l23 = (embed(r, wires, 3, d) for wires in ((0, 1), (0, 2), (1, 2)))
    return _residual("ybe13", l12 @ l13 @ l23, l23 @ l13 @ l12)


def cocycle3_residual(tp, d: int) -> EquationResidual:
    """Residual of the 3-cocycle condition for an operator T'."""
    tp = as_matrix(tp)
    l12, l23 = embed(tp, (0, 1), 3, d), embed(tp, (1, 2), 3, d)
    mid = embed(twist(d), (1, 2), 3, d)  # id (x) tau
    return _residual("cocycle3", l12 @ mid @ l12, l23 @ l12 @ l23)


def _biconditional(first, second, m, d: int, tol) -> bool:
    """True iff (m solves ``first``) == (tau m solves ``second``), both at ``tol``."""
    check_tolerance(tol)
    m = as_matrix(m)
    return (first(m, d).residual < tol) == (second(twist(d) @ m, d).residual < tol)


def check_street_duality(t, d: int, tol: float = DEFAULT_TOLERANCE) -> bool:
    """True iff (T solves the pentagon equation) == (tau T solves the 3-cocycle).

    Tests the biconditional at a shared tolerance; the duality relates
    zero-sets, not residual magnitudes.
    """
    return _biconditional(pentagon_residual, cocycle3_residual, t, d, tol)


def check_folklore_duality(r, d: int, tol: float = DEFAULT_TOLERANCE) -> bool:
    """True iff (R solves the braid YBE) == (tau R solves the 13-form YBE)."""
    return _biconditional(ybe_residual, ybe13_residual, r, d, tol)
