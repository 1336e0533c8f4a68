"""Dense complex linear algebra on tensor-product registers, and the number and wire rules.

These functions decide what the package takes as a number, a list of
numbers or a wire list:

  - ``real`` is the one test of a real number. It accepts a Python or
    numpy int or float, never a bool, and reads a value past the float
    range as a signed infinity, comparing integers exactly. ``finite``
    is the one scalar reader on top of it: ``real``, then the value must
    be finite, with the caller's error class. Custom matrix entries go
    through it directly, every list of numbers through ``reals``;
    ``refine``'s ``initial_step`` and every ``tol`` take ``real`` through
    ``check_tolerance``, which also asks for a positive value. The gate
    constructors below those entries (``a_gate``, ``rotation``, ...)
    convert without checking.
  - ``reals`` is the one reader of a list of numbers: a sequence
    (``as_sequence``) whose entries each pass ``finite``, the first bad
    one named by its index, as in ``"params[0]: expected a finite
    number, got inf"``. It reads the parameters of ``GateInstance``
    (SchemaError), ``gate_matrix``, ``certify(params=...)`` and the
    triples of ``constraints`` and ``refine`` (ValueError), and the scan's
    (lo, hi, step) triple (GridError).
  - ``check_integer`` is the one test of a count: a Python or numpy int,
    never a bool, of at least a bound. It checks the local dimension
    ``d`` of ``embed`` and ``twist``, the register size of ``embed`` and
    ``Circuit``, ``refine``'s ``max_iters`` and a ``CayleyTable``'s
    order, entries and identity index.
  - ``check_wires`` is the one wire rule: a wire list is a sequence
    (``as_sequence``: a list, tuple or numpy array, never a set, dict or
    scalar) of Python or numpy ints, never a bool, at least one and no
    duplicate. It checks the wires of every ``GateInstance`` (SchemaError)
    and of every ``embed`` (WireError), with the same messages; each
    caller then checks the range against its own register.
  - ``instance`` is the one type check of an argument: ``"{what}:
    expected a {Kind}, got {type}"``, for a circuit, a group, a fusion
    gate, a rewrite descriptor and the text ``parse`` reads.
  - ``entry`` is the one lookup in a fixed table: a missing or unhashable
    key reads ``"unknown {what} {key}{expected}"``, for ``GATES``, the
    standard gates, the gate families, the rewrite rules and the Pauli
    axes.

``as_matrix`` is the one reader of a matrix or a stack of them: what is
not an array of numbers (a dict, a set, a ragged list, an integer past the
float range, a bool or a string, which numpy would read as a number) and
an array of the wrong number of dimensions raise the caller's class,
DimensionError by default and SchemaError for a custom gate.

The readers above, and the refusals elsewhere that name a caller's
value, name it through ``_shown``: its ``repr`` when that is at most 500
characters, else its type and size (an integer by its bits, as ``repr``
refuses one past the interpreter's digit limit), so the message stays
short.

``_check_operator`` is the one statement of the shape rule: ``d`` is a
count and an operator acts on k wires of dimension d. ``embed`` applies
it on every lift, and the equations' index-map check before it reads a
permutation gate's rows; ``certify`` makes that check first, so it
refuses a wrong shape before any O(N**3) work, and the other equations
leave the rule to their first lift. ``_permutation_rows`` is the one
test of a permutation matrix, exact 0/1 entries with one 1 per row and
per column, shared by the simulator and the index-map check.

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
from collections.abc import Sized

import numpy as np

from .errors import DimensionError, WireError

#: Library-wide default for Frobenius-norm comparisons.
DEFAULT_TOLERANCE = 1e-10

#: Dense operators are capped at 12 qubits (4096 x 4096): a register of
#: d-level wires at ``d**n <= 2**MAX_QUBITS``.
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
        raise error(f"{where}: expected a number, got {_shown(value)}")
    if isinstance(value, int) and not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        return math.inf if value > 0 else -math.inf
    return float(value)


def finite(value, where: str, error=ValueError) -> float:
    """``value`` read by ``real``; ``error`` naming ``where`` unless finite."""
    x = real(value, where, error)
    if not math.isfinite(x):
        raise error(f"{where}: expected a finite number, got {_shown(value)}")
    return x


def _shown(value) -> str:
    """``repr(value)`` when it is at most 500 characters; otherwise the value's
    type and size, as in ``"a str of length 100000"``.

    An integer is named by its bits when its repr would be longer, that is
    outside (-10**499, 10**500); ``repr`` refuses one past the interpreter's
    digit limit (``sys.get_int_max_str_digits``, at least 640). An array is
    named by its shape, another sized value by its length, anything else by
    its type alone.
    """
    if isinstance(value, int) and not -10**499 < value < 10**500:
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
    if len(text := repr(value)) <= 500:
        return text
    if isinstance(value, np.ndarray):
        return f"an array of shape {value.shape}"
    kind = type(value).__name__
    size = f" of length {len(value)}" if isinstance(value, Sized) else ""
    return f"{'an' if kind[0].lower() in 'aeiou' else 'a'} {kind}{size}"


def instance(value, kind: type, what: str, error):
    """``value`` itself; ``error`` naming ``what`` and both types unless a ``kind``,
    as in ``"circuit: expected a Circuit, got NoneType"``."""
    if not isinstance(value, kind):
        raise error(f"{what}: expected a {kind.__name__}, got {type(value).__name__}")
    return value


def entry(table, key, what: str, error=ValueError, expected: str = ""):
    """``table[key]``; ``error`` reading ``"unknown {what} {key}{expected}"`` when
    ``key`` is missing or cannot be hashed, the key named by ``_shown``."""
    try:
        return table[key]
    except (KeyError, TypeError):
        raise error(f"unknown {what} {_shown(key)}{expected}") from None


def reals(values, what: str, error=ValueError) -> tuple[float, ...]:
    """``values`` as a tuple of finite floats; ``error`` at the first bad entry.

    The list must be a sequence (``as_sequence``: a list, tuple or numpy
    array, never a set, dict, string, scalar or 0-d array), and entry j is
    read by ``finite`` under the name ``what[j]``, as in
    ``"params[0]: expected a finite number, got inf"``.
    """
    return tuple(finite(v, f"{what}[{j}]", error)
                 for j, v in enumerate(as_sequence(values, what, error)))


def check_integer(value, what: str, least: int = 1, error=DimensionError) -> None:
    """Raise ``error`` naming ``what`` unless ``value`` is an integer of at least ``least``.

    Python and numpy integers count; bools do not.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise error(f"{what} must be an integer of at least {least}, got {_shown(value)}")


def as_sequence(values, what: str, error) -> tuple:
    """``values`` as a tuple; ``error`` naming ``what`` unless a list, tuple or numpy array.

    A set, dict, string, scalar or 0-d array is refused, so no entry is
    read in an order the caller did not give.
    """
    if isinstance(values, (tuple, list)) or isinstance(values, np.ndarray) and values.ndim:
        return tuple(values)
    raise error(f"{what}: expected a sequence, got {_shown(values)}")


def check_wires(wires, error) -> tuple[int, ...]:
    """``wires`` as a tuple of Python ints; ``error`` unless a sequence
    (``as_sequence``) of at least one integer and no duplicate.

    Python and numpy integers count; bools do not. Every entry is checked
    before any is converted, and a tuple of plain ints is returned as it is.
    """
    if type(wires) is not tuple:  # fast path: a list, as JSON gives it
        wires = tuple(wires) if type(wires) is list else as_sequence(wires, "wires", error)
    for w in wires:  # fast path: plain ints are already in stored form
        if type(w) is not int:
            for j, w in enumerate(wires):
                if isinstance(w, bool) or not isinstance(w, (int, np.integer)):
                    raise error(f"wires[{j}]: expected an integer, got {_shown(w)}")
            wires = tuple(map(int, wires))
            break
    if not wires:
        raise error("wires: must list at least one wire")
    if len(wires) > 1 and len(set(wires)) != len(wires):
        raise error(f"wires: duplicate wire in {_shown(list(wires))}")
    return wires


def check_tolerance(value, what: str = "tolerance") -> float:
    """Return ``value`` as a float; raise ValueError naming ``what`` unless finite and positive.

    Every ``tol`` in the package is a strict bound (``residual < tol``),
    so zero, negative or non-finite values would silently decide every
    comparison the same way; ``refine`` checks its ``initial_step`` here too.
    """
    x = real(value, what)
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"{what} must be finite and positive, got {_shown(value)}")
    return x


def as_matrix(values, error=DimensionError, ndims=(2,)) -> np.ndarray:
    """``values`` as a complex128 array of ``ndims`` dimensions, a matrix by default.

    ``error`` is raised for any other number of dimensions, and for what
    is not an array of numbers: a dict, a set, a ragged list, an integer
    past the float range, and a bool or string array or entry, which numpy
    would read as 1, 0 or the number the string spells. An array of a
    numeric dtype costs only its dtype test.
    """
    try:
        if not (isinstance(values, np.ndarray) and values.dtype.kind in "iufc") and any(
                isinstance(v, (bool, np.bool_, str, bytes))
                for v in np.asarray(values, dtype=object).flat):
            raise TypeError
        m = np.asarray(values, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError):
        raise error(f"matrix: expected an array of numbers, got {type(values).__name__}") from None
    if m.ndim not in ndims:
        raise error(f"matrix: expected {' or '.join(map(str, ndims))} dimensions, got {m.ndim}")
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


def _dimension(num_qubits, d) -> int:
    """``d**num_qubits``; DimensionError past ``MAX_QUBITS`` wires or the
    ``2**MAX_QUBITS`` cap.

    The wire count is checked first, so the power stays small, and the
    power is taken with Python ints, so numpy counts cannot wrap.
    """
    if num_qubits > MAX_QUBITS:
        raise DimensionError(
            f"register of {_shown(int(num_qubits))} qubits exceeds the {MAX_QUBITS}-qubit cap")
    size = int(d) ** int(num_qubits)
    if size > 2**MAX_QUBITS:
        raise DimensionError(
            f"register of {num_qubits} wires of dimension {_shown(int(d))} exceeds the "
            f"{2**MAX_QUBITS}-dimensional cap"
        )
    return size


def twist(d: int) -> np.ndarray:
    """Permutation matrix of x (x) y -> y (x) x on C^d (x) C^d.

    Symmetric and involutive; for d=2 this is the SWAP gate. Capped, as
    ``embed`` is, at ``d*d <= 2**MAX_QUBITS``.
    """
    check_integer(d, "local dimension")
    eye = np.eye(_dimension(2, d), dtype=np.complex128).reshape(d, d, d, d)
    return eye.transpose(0, 1, 3, 2).reshape(d * d, d * d)


def _check_operator(u: np.ndarray, k: int, d) -> None:
    """Raise DimensionError unless ``d`` is a count and ``u`` acts on ``k`` wires of dimension d.

    Only the last two axes of ``u`` are read, so a stack of operators passes
    when each of its operators does.
    """
    check_integer(d, "local dimension")
    if u.shape[-2:] != (d**k, d**k):
        raise DimensionError(
            f"operator of shape {u.shape} does not act on {k} wires of dimension {d}"
        )


def _permutation_rows(m: np.ndarray) -> np.ndarray | None:
    """Column of the 1 in each row when ``m`` is a permutation matrix: only
    exact 0 and 1 entries, one 1 per row and one per column; otherwise None.

    Such a matrix is exactly unitary. Multiplying by it adds ``1 * x`` to
    exact zeros, so copying row ``rows[i]`` into row i gives the product's
    values; only the sign of a zero entry can differ, and ``==`` treats the
    two zeros as equal. Counting the nonzero entries first refuses most
    other matrices cheaply.
    """
    if np.count_nonzero(m) != len(m):
        return None
    ones = m == 1
    if (ones | (m == 0)).all() and (ones.sum(axis=1) == 1).all() and ones.any(axis=0).all():
        return ones.argmax(axis=1)
    return None


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

    The register size is a count (WireError); ``wires`` must pass
    ``check_wires`` (WireError, ``GateInstance``'s messages) and lie in the
    register. A register of more than ``MAX_QUBITS`` (12) wires, or of
    dimension ``d**num_qubits`` past ``2**MAX_QUBITS`` (4096), raises
    DimensionError before anything is allocated, so the pentagon kernel's
    d**3 lifts stop at d=16. A stack of more than ``4**MAX_QUBITS`` entries
    in all, one 4096 x 4096 lift, raises DimensionError as well.
    """
    u = as_matrix(u, ndims=(2, 3))
    check_integer(num_qubits, "register size", error=WireError)
    wires = check_wires(wires, WireError)
    for w in wires:
        if not 0 <= w < num_qubits:
            raise WireError(
                f"wires: wire {_shown(w)} out of range for {_shown(int(num_qubits))} qubits")
    k = len(wires)
    _check_operator(u, k, d)
    batch, size = u.shape[:-2], _dimension(num_qubits, d)
    if (n := math.prod(batch)) * size * size > 4**MAX_QUBITS:
        raise DimensionError(f"{n} lifts of dimension {size} exceed the {4**MAX_QUBITS}-entry cap")
    rest = [q for q in range(num_qubits) if q not in wires]
    eye = np.eye(d ** len(rest), dtype=np.complex128)
    # u's entries times the identity's, written through a view of the result
    # whose axes run over u's row wires and column wires, then the identity's
    # rows and columns
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
    formed in one temporary the size of b.
    """
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    overlap = complex(np.vdot(b, a))
    if abs(overlap) == 0.0:
        return math.sqrt(frobenius_norm(a) ** 2 + frobenius_norm(b) ** 2)
    diff = np.multiply(overlap / abs(overlap), b)
    return frobenius_norm(np.subtract(a, diff, out=diff))
