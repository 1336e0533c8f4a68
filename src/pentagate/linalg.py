"""Dense complex linear algebra on tensor-product registers, and the number rules.

Two functions here decide what the package takes as a number:

  - ``real`` is the one test of a real number. It accepts a Python or
    numpy int or float, never a bool, and reads a value past the float
    range as a signed infinity, comparing integers exactly. Every checked
    entry that takes a real goes through it: gate parameters
    (``GateInstance``, ``gate_matrix``, ``certify(params=...)``), custom
    matrix entries, the family triples of ``constraints`` and ``refine``,
    ``refine``'s ``initial_step``, every ``tol`` (``check_tolerance``) and
    the scan grid bounds and steps. Each entry then refuses a value that
    is not finite with its own error class and message. The gate
    constructors below those entries (``a_gate``, ``rotation``, ...)
    convert without checking.
  - ``check_integer`` is the one test of a count: a Python or numpy int,
    never a bool, of at least a bound. It checks the local dimension
    ``d`` of ``embed`` and ``twist``, the register size of ``embed`` and
    ``Circuit``, ``refine``'s ``max_iters`` and a ``CayleyTable``'s
    order, entries and identity index.

``embed`` owns the shape rule: it checks ``d`` and that an operator acts
on its wires, and the equations and ``certify`` leave both to their
first lift rather than check them again.

Conventions used throughout the package:

  - Operators are numpy ``complex128`` arrays of shape ``(d, d)``.
  - Registers are tensor products of qubits; wire 0 is the leftmost
    (most significant) tensor factor, so basis state ``|b0 b1 ... >`` has
    row index ``b0 b1 ...`` read as a binary number.
  - Every function is pure and never mutates its arguments.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DimensionError, WireError

#: Library-wide default for Frobenius-norm comparisons.
DEFAULT_TOLERANCE = 1e-10

#: Dense operators are capped at 12 qubits (4096 x 4096).
MAX_QUBITS = 12


#: The numbers ``real`` accepts: Python or numpy ints and floats, never bools.
_REAL = (int, float, np.integer, np.floating)

#: The largest finite float; comparing with it keeps huge integers exact.
_FLOAT_MAX = sys.float_info.max


def real(value, where: str, error=ValueError) -> float:
    """``value`` as a float; ``error`` naming ``where`` unless a real number.

    A bool, string, complex number or None is refused. A value past the
    float range reads as a signed infinity, so callers refuse it with
    their own finiteness check and its message. An integer is compared
    with the range exactly: ``int(sys.float_info.max) + 1`` is past it,
    although ``float`` would round it down to the largest float.
    """
    if isinstance(value, bool) or not isinstance(value, _REAL):
        raise error(f"{where}: expected a number, got {value!r}")
    if isinstance(value, int) and not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        return math.inf if value > 0 else -math.inf
    return float(value)


def reals(values, what: str) -> tuple[float, ...]:
    """``values`` read by ``real``; ValueError naming ``what`` unless all are finite."""
    values = tuple(real(v, what) for v in values)
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{what} must be finite, got {list(values)}")
    return values


def check_integer(value, what: str, least: int = 1, error=DimensionError) -> None:
    """Raise ``error`` naming ``what`` unless ``value`` is an integer of at least ``least``.

    Python and numpy integers count; bools do not.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise error(f"{what} must be an integer of at least {least}, got {value!r}")


def check_tolerance(tol) -> float:
    """Return ``tol`` as a float; raise ValueError unless finite and positive.

    Every ``tol`` in the package is a strict bound (``residual < tol``),
    so zero, negative or non-finite values would silently decide every
    comparison the same way.
    """
    value = real(tol, "tolerance")
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
    return value


def as_matrix(values) -> np.ndarray:
    """Coerce input to a 2-D complex128 array."""
    m = np.asarray(values, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got {m.ndim} dimensions")
    return m


def frobenius_norm(a) -> float:
    return float(np.linalg.norm(as_matrix(a)))


def is_unitary(a, tol: float = DEFAULT_TOLERANCE) -> bool:
    """True iff ||a' a - I||_F < tol; requires a square matrix."""
    check_tolerance(tol)
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"is_unitary needs a square matrix, got {a.shape}")
    eye = np.eye(a.shape[0], dtype=np.complex128)
    return frobenius_norm(a.conj().T @ a - eye) < tol


def twist(d: int) -> np.ndarray:
    """Permutation matrix of x (x) y -> y (x) x on C^d (x) C^d.

    Symmetric and involutive; for d=2 this is the SWAP gate.
    """
    check_integer(d, "local dimension")
    eye = np.eye(d * d, dtype=np.complex128).reshape(d, d, d, d)
    return eye.transpose(0, 1, 3, 2).reshape(d * d, d * d)


def _check_wires(wires, num_qubits: int) -> None:
    check_integer(num_qubits, "register size", error=WireError)
    if num_qubits > MAX_QUBITS:
        raise DimensionError(
            f"register of {num_qubits} qubits exceeds the {MAX_QUBITS}-qubit cap"
        )
    if not wires:
        raise WireError("empty wire list")
    seen = set()
    for w in wires:
        if isinstance(w, bool) or not isinstance(w, (int, np.integer)):
            raise WireError(f"wire index {w!r} is not an integer")
        if not 0 <= w < num_qubits:
            raise WireError(f"wire {w} out of range for {num_qubits} qubits")
        if w in seen:
            raise WireError(f"duplicate wire {w}")
        seen.add(w)


def embed(u, wires, num_qubits: int, d: int = 2) -> np.ndarray:
    """Embed an operator on the listed wires into a register of d-level wires.

    Wire order is significant: tensor factor i of ``u`` acts on
    ``wires[i]``; every other wire gets the identity. The result is
    unitary whenever ``u`` is. Circuits use qubits (d=2); the equations
    place a gate on factors (i, j) of C^d (x) C^d (x) C^d with
    ``embed(t, (i, j), 3, d)``. Only entries move, so the result is exact.

    ``u`` may also be a stack of operators of shape ``(n, d**k, d**k)``;
    the result is then the stack of their embeddings, slice for slice
    equal to embedding each operator on its own.
    """
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim not in (2, 3):
        raise DimensionError(
            f"expected a matrix or a stack of matrices, got {u.ndim} dimensions"
        )
    wires = list(wires)
    _check_wires(wires, num_qubits)
    check_integer(d, "local dimension")
    wires = [int(w) for w in wires]
    k = len(wires)
    if u.shape[-2:] != (d**k, d**k):
        raise DimensionError(
            f"operator of shape {u.shape} does not act on {k} wires of dimension {d}"
        )
    rest = [q for q in range(num_qubits) if q not in wires]
    eye = np.eye(d ** len(rest), dtype=np.complex128)
    batch, size = u.shape[:-2], d**num_qubits
    if wires + rest == list(range(num_qubits)):
        # u (x) I slice by slice, as the same broadcast product np.kron forms
        full = u[..., :, np.newaxis, :, np.newaxis] * eye[:, np.newaxis, :]
        return full.reshape(batch + (size, size))
    # the same products, written through a view of the result whose axes run
    # over u's row wires and column wires, then the identity's rows and columns
    out = np.empty(batch + (size, size), dtype=np.complex128)
    axes = [len(batch) + q + s for group in (wires, rest) for s in (0, num_qubits) for q in group]
    view = out.reshape(batch + (d,) * (2 * num_qubits)).transpose([*range(len(batch)), *axes])
    lift = u.reshape(batch + (d,) * (2 * k) + (1,) * (2 * len(rest)))
    np.multiply(lift, eye.reshape((d,) * (2 * len(rest))), out=view)
    return out


def phase_distance(a, b) -> float:
    """Distance min over |phi| = 1 of ||a - phi b||_F.

    Equal in closed form to sqrt(||a||^2 + ||b||^2 - 2 |tr(a' b)|), and
    zero exactly when a and b agree up to a global phase. Evaluated as
    ||a - phi* b|| at the optimal phase phi* = tr(b' a) / |tr(b' a)|,
    which avoids the cancellation the raw radicand suffers near zero.
    The overlap tr(b' a) is the entrywise sum of conj(b) * a, so it costs
    O(d^2) rather than the O(d^3) of forming b' a, and a - phi* b is
    formed in one register-sized temporary.
    """
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    overlap = complex(np.vdot(b, a))
    if abs(overlap) == 0.0:
        return math.sqrt(frobenius_norm(a) ** 2 + frobenius_norm(b) ** 2)
    diff = np.multiply(overlap / abs(overlap), b)
    return frobenius_norm(np.subtract(a, diff, out=diff))
