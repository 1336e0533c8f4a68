"""Dense complex linear algebra on tensor-product registers.

Conventions used throughout the package:

  - Operators are numpy ``complex128`` arrays of shape ``(d, d)``.
  - Registers are tensor products of qubits; wire 0 is the leftmost
    (most significant) tensor factor, so basis state ``|b0 b1 ... >`` has
    row index ``b0 b1 ...`` read as a binary number.
  - Every function is pure and never mutates its arguments.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, WireError

#: Library-wide default for Frobenius-norm comparisons.
DEFAULT_TOLERANCE = 1e-10

#: Dense operators are capped at 12 qubits (4096 x 4096).
MAX_QUBITS = 12


def check_tolerance(tol) -> float:
    """Return ``tol`` as a float; raise ValueError unless finite and positive.

    Every ``tol`` in the package is a strict bound (``residual < tol``),
    so zero, negative or non-finite values would silently decide every
    comparison the same way.
    """
    value = float(tol)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
    return value


def as_matrix(values) -> np.ndarray:
    """Coerce input to a 2-D complex128 array."""
    m = np.asarray(values, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got {m.ndim} dimensions")
    return m


def matmul(a, b) -> np.ndarray:
    """Matrix product with an explicit inner-dimension check."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"cannot multiply {a.shape} by {b.shape}")
    return a @ b


def kron(a, b) -> np.ndarray:
    """Kronecker product; block (i, j) of the result is a[i, j] * b."""
    return np.kron(as_matrix(a), as_matrix(b))


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T


def frobenius_norm(a) -> float:
    return float(np.linalg.norm(as_matrix(a)))


def matrices_equal(a, b, tol: float) -> bool:
    """Entrywise comparison: max |a - b| <= tol. tol=0 is exact equality."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        return False
    if a.size == 0:
        return True
    return bool(np.max(np.abs(a - b)) <= tol)


def is_unitary(a, tol: float = DEFAULT_TOLERANCE) -> bool:
    """True iff ||a' a - I||_F < tol; requires a square matrix."""
    check_tolerance(tol)
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"is_unitary needs a square matrix, got {a.shape}")
    eye = np.eye(a.shape[0], dtype=np.complex128)
    return frobenius_norm(adjoint(a) @ a - eye) < tol


def twist(d: int) -> np.ndarray:
    """Permutation matrix of x (x) y -> y (x) x on C^d (x) C^d.

    Symmetric and involutive; for d=2 this is the SWAP gate.
    """
    if d < 1:
        raise DimensionError("twist needs a positive dimension")
    t = np.zeros((d * d, d * d), dtype=np.complex128)
    for x in range(d):
        for y in range(d):
            t[y * d + x, x * d + y] = 1.0
    return t


def _check_wires(wires, num_qubits: int) -> None:
    if num_qubits < 1:
        raise WireError("register must have at least one qubit")
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


def embed(u, wires, num_qubits: int) -> np.ndarray:
    """Embed an operator on the listed wires into an n-qubit register.

    Wire order is significant: tensor factor i of ``u`` acts on
    ``wires[i]``; every other wire gets the identity. The result is
    unitary whenever ``u`` is.
    """
    u = as_matrix(u)
    wires = [int(w) for w in _checked_wire_list(wires, num_qubits)]
    k = len(wires)
    dim = 2**k
    if u.shape != (dim, dim):
        raise DimensionError(f"operator of shape {u.shape} does not act on {k} qubits")
    rest = [q for q in range(num_qubits) if q not in wires]
    full = np.kron(u, np.eye(2 ** len(rest), dtype=np.complex128))
    order = wires + rest  # tensor factor j of `full` is register wire order[j]
    if order == list(range(num_qubits)):
        return full
    pos = [order.index(q) for q in range(num_qubits)]
    tensor = full.reshape([2] * (2 * num_qubits))
    tensor = tensor.transpose(pos + [p + num_qubits for p in pos])
    return np.ascontiguousarray(tensor.reshape(2**num_qubits, 2**num_qubits))


def _checked_wire_list(wires, num_qubits: int) -> list:
    wires = list(wires)
    _check_wires(wires, num_qubits)
    return wires


def phase_distance(a, b) -> float:
    """Distance min over |phi| = 1 of ||a - phi b||_F.

    Equal in closed form to sqrt(||a||^2 + ||b||^2 - 2 |tr(a' b)|), and
    zero exactly when a and b agree up to a global phase. Evaluated as
    ||a - phi* b|| at the optimal phase phi* = tr(b' a) / |tr(b' a)|,
    which avoids the cancellation the raw radicand suffers near zero.
    The overlap tr(b' a) is the entrywise sum of conj(b) * a, so it costs
    O(d^2) rather than the O(d^3) of forming b' a.
    """
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    overlap = complex(np.vdot(b, a))
    if abs(overlap) == 0.0:
        return math.sqrt(frobenius_norm(a) ** 2 + frobenius_norm(b) ** 2)
    return frobenius_norm(a - (overlap / abs(overlap)) * b)
