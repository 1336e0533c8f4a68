"""Residuals of the pentagon equation, both Yang-Baxter forms, and the
3-cocycle condition, evaluated as dense operators on V (x) V (x) V.

Composition convention: in every equation string the rightmost factor acts
first, i.e. ordinary matrix-product order. Circuit execution order (first
gate listed acts first) is confined to :mod:`pentagate.circuit`.

The subscript lifts of an operator T on V (x) V to V (x) V (x) V are

  T12 = T (x) id,
  T23 = id (x) T,
  T13 = (id (x) tau)^-1 (T (x) id) (id (x) tau),

with tau the twist map. The equations evaluated here are

  pentagon:  T23 T12 = T12 T13 T23
  ybe:       R12 R23 R12 = R23 R12 R23      (braid form)
  ybe13:     R12 R13 R23 = R23 R13 R12
  cocycle3:  (T' (x) id)(id (x) tau)(T' (x) id)
               = (id (x) T')(T' (x) id)(id (x) T')

Two classical dualities tie these together: R solves the braid YBE iff
tau R solves ybe13, and T solves the pentagon equation iff tau T solves
the 3-cocycle condition (Street). Note the pentagon equation is not
invariant under a global phase: scaling a solution T by a unit scalar
lambda scales the two sides by lambda^2 and lambda^3 respectively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .linalg import DEFAULT_TOLERANCE, as_matrix, check_tolerance, kron, twist


@dataclass(frozen=True, eq=False)
class EquationResidual:
    """Both sides of an equation instance and the size of their difference.

    ``residual`` is the Frobenius norm of ``lhs - rhs``;
    ``max_entry_mismatch`` is (row, col, |difference|) at the worst entry.
    """

    equation: str
    residual: float
    lhs: np.ndarray
    rhs: np.ndarray
    max_entry_mismatch: tuple[int, int, float]


def _residual(equation: str, lhs: np.ndarray, rhs: np.ndarray) -> EquationResidual:
    diff = np.abs(lhs - rhs)
    row, col = np.unravel_index(int(np.argmax(diff)), diff.shape)
    return EquationResidual(
        equation=equation,
        residual=float(np.linalg.norm(lhs - rhs)),
        lhs=lhs,
        rhs=rhs,
        max_entry_mismatch=(int(row), int(col), float(diff[row, col])),
    )


def _checked(t, d: int) -> np.ndarray:
    t = as_matrix(t)
    if d < 1:
        raise DimensionError("local dimension must be positive")
    if t.shape != (d * d, d * d):
        raise DimensionError(
            f"operator of shape {t.shape} is not {d * d}x{d * d} (local dimension {d})"
        )
    return t


def lift12(t, d: int) -> np.ndarray:
    """T (x) id on the triple tensor product."""
    return kron(_checked(t, d), np.eye(d, dtype=np.complex128))


def lift23(t, d: int) -> np.ndarray:
    """id (x) T on the triple tensor product."""
    return kron(np.eye(d, dtype=np.complex128), _checked(t, d))


def lift13(t, d: int) -> np.ndarray:
    """Conjugate T (x) id by id (x) tau so T acts on factors 1 and 3."""
    t = _checked(t, d)
    mid = kron(np.eye(d, dtype=np.complex128), twist(d))  # involutive, its own inverse
    return mid @ kron(t, np.eye(d, dtype=np.complex128)) @ mid


def pentagon_residual(t, d: int) -> EquationResidual:
    """Residual of T23 T12 = T12 T13 T23."""
    t = _checked(t, d)
    l12, l23 = lift12(t, d), lift23(t, d)
    lhs = l23 @ l12
    rhs = l12 @ lift13(t, d) @ l23
    return _residual("pentagon", lhs, rhs)


def ybe_residual(r, d: int) -> EquationResidual:
    """Residual of the braid-form Yang-Baxter equation R12 R23 R12 = R23 R12 R23."""
    r = _checked(r, d)
    l12, l23 = lift12(r, d), lift23(r, d)
    return _residual("ybe", l12 @ l23 @ l12, l23 @ l12 @ l23)


def ybe13_residual(r, d: int) -> EquationResidual:
    """Residual of the three-lift Yang-Baxter form R12 R13 R23 = R23 R13 R12."""
    r = _checked(r, d)
    l12, l13, l23 = lift12(r, d), lift13(r, d), lift23(r, d)
    return _residual("ybe13", l12 @ l13 @ l23, l23 @ l13 @ l12)


def cocycle3_residual(tp, d: int) -> EquationResidual:
    """Residual of the 3-cocycle condition for an operator T'."""
    tp = _checked(tp, d)
    l12, l23 = lift12(tp, d), lift23(tp, d)
    mid = kron(np.eye(d, dtype=np.complex128), twist(d))
    return _residual("cocycle3", l12 @ mid @ l12, l23 @ l12 @ l23)


def check_street_duality(t, d: int, tol: float = DEFAULT_TOLERANCE) -> bool:
    """True iff (T solves the pentagon equation) == (tau T solves the 3-cocycle).

    Tests the biconditional at a shared tolerance; the duality relates
    zero-sets, not residual magnitudes.
    """
    check_tolerance(tol)
    t = _checked(t, d)
    is_fusion = pentagon_residual(t, d).residual < tol
    is_cocycle = cocycle3_residual(twist(d) @ t, d).residual < tol
    return is_fusion == is_cocycle


def check_folklore_duality(r, d: int, tol: float = DEFAULT_TOLERANCE) -> bool:
    """True iff (R solves the braid YBE) == (tau R solves the 13-form YBE)."""
    check_tolerance(tol)
    r = _checked(r, d)
    is_braid = ybe_residual(r, d).residual < tol
    is_alt = ybe13_residual(twist(d) @ r, d).residual < tol
    return is_braid == is_alt
