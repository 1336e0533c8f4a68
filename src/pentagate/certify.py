"""Fusion-operator certification and parameter-space search.

Certification evaluates the pentagon residual of a candidate unitary and
issues a verdict. The gate families, the A gate and the Heisenberg
evolution, share one table, ``FAMILIES``, and every family-level
function takes a key of it. ``constraints`` instantiates the pentagon
equation at a parameter point and reports the entrywise residual
pattern, which is the numeric form of the scalar constraint system the
family must satisfy. The scanner walks a parameter grid and reports
solution classes; ``refine`` polishes a near-solution with a
derivative-free compass search.

Both evaluate many parameter points through the stacked kernel
``equations.pentagon_stack``. The scanner builds the grid in blocks of
at most ``SCAN_CHUNK`` points, each one family-constructor call on three
broadcast slices of the axis, and computes for every point the cheap
lower bound ``equations._pentagon_column_bound`` of its residual; only
the points whose bound is under ``tol + SCAN_SLACK`` go to one kernel
call per block, and the kernel's residual decides each of them.
``refine`` evaluates its six compass polls in one kernel call per
iteration. Each slice is bitwise the one-point result, so verdicts,
classes, residuals and iterates depend neither on the blocks nor on
which points the bound skips.

Known solution structure of the A-gate family: pentagon solutions on the
grid are exactly the points where the matrix equals +I. Since xx, yy and
zz each equal -I at 2*pi, those are the points where every coordinate is
0 or 2*pi mod 4*pi and an even number of them are 2*pi: (0, 0, 0),
(0, 2*pi, 2*pi), (2*pi, 0, 2*pi) and (2*pi, 2*pi, 0) mod 4*pi. Where an
odd number are 2*pi, (2*pi, 2*pi, 2*pi) among them, the matrix equals -I,
which is not a solution because the pentagon equation scales with the
cube of a global phase on one side and the square on the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equations import (EquationResidual, _pentagon_column_bound, pentagon_residual,
                        pentagon_stack, permutation_solves_pentagon)
from .errors import GridError, NonUnitaryError
from .gates import FOUR_PI, a_gate, heisenberg_evolution
from .linalg import (
    DEFAULT_TOLERANCE,
    as_matrix,
    check_integer,
    check_tolerance,
    entry,
    frobenius_norm,
    is_unitary,
    reals,
)

#: Default grid-scan tolerance on the pentagon residual.
SCAN_TOLERANCE = 1e-9

#: Largest number of points in a scan grid, the cube of its axis length;
#: ``axis_points`` refuses the axis of a larger grid before building any
#: point, so no axis holds more than 464 points.
MAX_GRID_POINTS = 10**8

#: Most grid points built and bounded per block, one family-constructor
#: call on broadcast axis slices. A block never splits the third axis, and
#: the grid cap keeps an axis under 465 points, so each block holds at
#: least two runs of it. At 1024 the per-call overhead is spread thin; a
#: larger block costs peak memory for little further speed.
SCAN_CHUNK = 1024

#: Margin over ``tol`` under which a point's column bound sends it to the
#: kernel. In exact arithmetic the bound is at most the residual. For a
#: unitary gate every lift is unitary, so each entry of either side, in
#: the kernel or in the bound, is a sum of at most 4 products per factor
#: whose moduli sum to at most 1 (Cauchy-Schwarz on a unit row and a unit
#: column), and at most three factors deep: each is computed to within
#: about 30 * 2**-53 < 4e-15. Over the 64 entries of the kernel's
#: difference and the 8 of the bound's column, with the rounding of both
#: norms (the residual is at most 2 * sqrt(8)), the computed bound exceeds
#: the computed residual by under 2e-13, a fifth of this margin; the
#: measured gap between the bound and the dense column norm is under
#: 1e-15 on A, Heisenberg and Haar gates. So every point whose residual
#: is under ``tol`` has its bound under ``tol + SCAN_SLACK``.
SCAN_SLACK = 1e-12

IDENTITY_CLASS = "identity_up_to_tolerance"
OTHER_CLASS = "other"

#: Gate families: constructor of a parameter triple, and the triple's names.
FAMILIES = {
    "a": (a_gate, ("c1", "c2", "c3")),
    "heis": (heisenberg_evolution, ("theta_x", "theta_y", "theta_z")),
}


def _family(family: str):
    return entry(FAMILIES, family, "family", ValueError, ", expected 'a' or 'heis'")


def _triple(params) -> tuple[float, float, float]:
    values = reals(params, "parameters")
    if len(values) != 3:
        raise ValueError(f"expected a parameter triple, got {len(values)} values")
    return values


@dataclass(frozen=True)
class Witness:
    """One entrywise disagreement between the two sides of an equation."""

    row: int
    col: int
    lhs: complex
    rhs: complex


@dataclass(frozen=True)
class CertificationReport:
    """Verdict on whether a gate is a fusion operator."""

    gate_name: str
    gate_params: tuple[float, ...]
    equation: str
    residual: float
    tolerance: float
    verdict: str  # "fusion" or "not_fusion"
    witnesses: tuple[Witness, ...]

    @property
    def is_fusion(self) -> bool:
        return self.verdict == "fusion"

    def to_jsonable(self) -> dict:
        return {
            "gate_descriptor": {"name": self.gate_name, "params": self.gate_params},
            "equation": self.equation,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "witnesses": self.witnesses,
        }


def certify(
    t,
    d: int = 2,
    tol: float = DEFAULT_TOLERANCE,
    *,
    name: str = "custom",
    params: tuple[float, ...] = (),
) -> CertificationReport:
    """Certify a unitary as a pentagon solution.

    The checks run cheapest first. The index-map check
    (``equations.permutation_solves_pentagon``) applies the shape rule, so
    a bad ``d`` or shape raises DimensionError before any O(N**3) work,
    and then decides a permutation gate in O(d**3). A permutation gate
    whose maps solve the equation is exactly unitary and is reported as
    ``fusion`` with residual 0.0 and no witnesses, the report the dense
    kernel gives it, without forming its d**3 x d**3 sides: every group
    fusion operator certifies in milliseconds, S4 at d=24 among them.

    Every other gate, a permutation that fails included, is checked for
    unitarity and then takes the dense kernel. Non-unitary input is
    refused: the rewriter's correctness argument needs a unitary gate, so
    a non-unitary candidate gets a distinct error rather than a
    not_fusion verdict.
    """
    tol = check_tolerance(tol)
    params = reals(params, "gate parameters")
    t = as_matrix(t)
    if permutation_solves_pentagon(t, d):
        residual, witnesses = 0.0, ()
    else:
        if not is_unitary(t, tol=max(tol, 1e-12)):
            raise NonUnitaryError("candidate gate is not unitary; certification refused")
        res = pentagon_residual(t, d)
        # an exact solution has no mismatch, so skip sorting the d**6 entries
        residual, witnesses = res.residual, _witnesses(res) if res.mismatch.any() else ()
    verdict = "fusion" if residual < tol else "not_fusion"
    return CertificationReport(name, params, "pentagon", residual, tol, verdict, witnesses)


def _witnesses(res: EquationResidual, limit: int = 5) -> tuple[Witness, ...]:
    lhs, rhs, mismatch = res.lhs, res.rhs, res.mismatch
    flat = np.argsort(mismatch, axis=None)[::-1][:limit]
    out = []
    for index in flat:
        row, col = np.unravel_index(int(index), mismatch.shape)
        if mismatch[row, col] <= 0.0:
            break
        out.append(Witness(int(row), int(col), complex(lhs[row, col]), complex(rhs[row, col])))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class ConstraintResiduals:
    """Entrywise pentagon residuals at one parameter point of a family.

    ``entry_residuals`` holds |LHS - RHS| of the instantiated equation;
    the positions that are not identically zero across parameter space are
    the scalar constraints the family must satisfy.
    """

    family: str
    parameters: tuple[float, float, float]
    entry_residuals: np.ndarray
    active_count: int
    max_residual: float
    tolerance: float

    def to_jsonable(self) -> dict:
        names = FAMILIES[self.family][1]
        return {
            "parameter_point": dict(zip(names, self.parameters)),
            "entry_residuals": self.entry_residuals.tolist(),
            "active_count": self.active_count,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
        }


def constraints(family: str, params, tol: float = DEFAULT_TOLERANCE) -> ConstraintResiduals:
    """Entrywise pentagon residuals of a gate family at a parameter triple.

    ``family`` is a key of ``FAMILIES``. The Heisenberg residuals equal the
    A-gate residuals at doubled parameters, since the two gate families
    coincide under that substitution.
    """
    tol = check_tolerance(tol)
    build, _ = _family(family)
    parameters = _triple(params)
    entries = pentagon_residual(build(*parameters), 2).mismatch
    return ConstraintResiduals(
        family=family,
        parameters=parameters,
        entry_residuals=entries,
        active_count=int(np.count_nonzero(entries > tol)),
        max_residual=float(entries.max()),
        tolerance=tol,
    )


@dataclass(frozen=True)
class SolutionPoint:
    """One operator class of pentagon solutions found on a grid."""

    parameters: tuple[float, float, float]
    residual: float
    canonical_parameters: tuple[float, float, float]
    operator_class: str


def _canonical(params) -> tuple[float, float, float]:
    return tuple(p % FOUR_PI for p in params)


def _operator_class(matrix: np.ndarray, tol: float) -> str:
    """The solution class of ``matrix``: the identity class when within ``tol`` of it."""
    eye = np.eye(len(matrix), dtype=np.complex128)
    return IDENTITY_CLASS if frobenius_norm(matrix - eye) < tol else OTHER_CLASS


def axis_points(lo: float, hi: float, step: float) -> list[float]:
    """The grid points lo, lo+step, ... up to hi of one axis (hi included when integral).

    The three values are read by ``linalg.reals`` as ``axes[0]`` to
    ``axes[2]``: a bool, string, None or non-finite value raises GridError,
    as do a step that is not positive, a range with hi < lo, and an axis
    whose cube grid has more than ``MAX_GRID_POINTS`` points, before any
    point is built. An axis of more than ``MAX_GRID_POINTS`` points, one
    whose (hi - lo) / step overflows included, is refused without cubing
    its count, so no message names a count of more than 25 digits.
    """
    lo, hi, step = reals((lo, hi, step), "axes", GridError)
    if step <= 0:
        raise GridError(f"grid step must be positive, got {step}")
    if hi < lo:
        raise GridError(f"empty grid range {lo}:{hi}")
    span = (hi - lo) / step + 1e-9  # infinite when hi - lo overflows
    if not span < MAX_GRID_POINTS:
        raise GridError(f"grid range {lo}:{hi} at step {step} has more than {MAX_GRID_POINTS} points")
    n = int(span) + 1
    if n**3 > MAX_GRID_POINTS:
        raise GridError(f"grid of {n**3} points exceeds the cap of {MAX_GRID_POINTS} points")
    return [lo + k * step for k in range(n)]


def scan_fusion_solutions(family: str, axes, tol: float = SCAN_TOLERANCE) -> list[SolutionPoint]:
    """Scan a cube grid of 3-parameter points for pentagon solutions of a gate family.

    ``family`` is a key of ``FAMILIES``; ``axes`` is one (lo, hi, step)
    triple, the axis of every parameter, read by ``linalg.reals``: a
    sequence (a list, tuple or numpy array, never a set, dict, string or
    scalar) of finite numbers, so no bound is read in an order the caller
    did not give. Any other ``axes`` raises GridError, as does an axis
    that ``axis_points`` refuses, its grid of more than ``MAX_GRID_POINTS``
    points among them, before any point is built.

    The axis is read once, as the array of ``axis_points``, and the grid
    is built in blocks of at most ``SCAN_CHUNK`` points, each one
    family-constructor call on three broadcast slices of it: ``SCAN_CHUNK // n**2`` values of the
    first parameter by the whole plane of the other two when a plane of
    n**2 points fits, else one value by ``SCAN_CHUNK // n`` values of the
    second by the whole third axis. So ``a_gate`` takes its cosines and
    sines once per (c1, c2) pair and its exponentials once per c3 value,
    and ``heisenberg_evolution`` forms ``Ez @ Ey`` once per (ty, tz) pair;
    each block is bitwise the per-point stack. A point whose column bound
    (``equations._pentagon_column_bound``, at most its residual up to
    rounding) is not under ``tol + SCAN_SLACK`` cannot pass and is
    skipped, a NaN bound included; the others take one ``pentagon_stack``
    call per block, and a point passes when its residual is under
    ``tol``. Its parameters are read from the block's slices by index, the
    floats ``axis_points`` gives. The residual of a slice does not depend
    on the rest of the stack, so the result is the one the kernel gives on
    every point.

    Passing grid points are grouped into operator classes (matrices within
    ``tol`` in Frobenius norm are one class) and each class is reported once,
    represented by its lexicographically smallest canonical parameters. The
    result ordering is deterministic and independent of evaluation order.
    """
    tol = check_tolerance(tol)
    build, _ = _family(family)
    axis = reals(axes, "axes", GridError)
    if len(axis) != 3:
        raise GridError(f"axes: expected one (lo, hi, step) triple, got {len(axis)} values")
    points = np.array(axis_points(*axis))
    n = len(points)
    # r values of the first axis by the whole plane, or one by c of the second
    r, c = max(SCAN_CHUNK // n**2, 1), max(SCAN_CHUNK // n, 1)
    passing = []
    for a0, a1 in [(points[i:i + r], points[j:j + c]) for i in range(0, n, r)
                   for j in range(0, n, c)]:
        matrices = build(a0[:, None, None], a1[None, :, None], points).reshape(-1, 4, 4)
        kept = np.flatnonzero(_pentagon_column_bound(matrices) < tol + SCAN_SLACK)
        if not kept.size:
            continue
        index = np.unravel_index(kept, (len(a0), len(a1), n))
        for k, x, y, z, residual in zip(kept, *index, pentagon_stack(matrices[kept], 2)[2]):
            if residual < tol:
                params = (float(a0[x]), float(a1[y]), float(points[z]))
                passing.append((_canonical(params), params, float(residual), matrices[k]))
    passing.sort(key=lambda item: (item[0], item[1]))

    classes: list[tuple[np.ndarray, SolutionPoint]] = []
    for canonical, params, residual, matrix in passing:
        if any(frobenius_norm(matrix - rep) < tol for rep, _ in classes):
            continue
        kind = _operator_class(matrix, tol)
        classes.append((matrix, SolutionPoint(params, residual, canonical, kind)))
    return [point for _, point in classes]


@dataclass(frozen=True)
class RefineResult:
    """Outcome of a compass-search refinement run."""

    converged: bool
    parameters: tuple[float, float, float]
    residual: float
    iterations: int
    evaluations: int
    solution: SolutionPoint | None


#: Compass search stops once the poll step shrinks below this.
MIN_REFINE_STEP = 1e-12

#: The six compass polls, in the order ties are broken: +step, then -step,
#: along each axis in turn.
_POLL_AXES = np.array([0, 0, 1, 1, 2, 2])
_POLL_SIGNS = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])


def refine(
    start,
    family: str = "a",
    max_iters: int = 5000,
    tol: float = DEFAULT_TOLERANCE,
    initial_step: float = 0.25,
) -> RefineResult:
    """Derivative-free local minimization of the pentagon residual.

    Classic compass search over the 3 parameters: poll +-step along each
    axis, move to the best improving point, halve the step when no poll
    improves. Terminates with success when the residual drops below
    ``tol`` and with failure when the step shrinks below ``MIN_REFINE_STEP``
    or the iteration budget runs out while the residual is still above
    tolerance. Raises ValueError before the first evaluation unless
    ``initial_step`` is finite and positive and ``max_iters`` is an integer
    of at least 0.
    """
    tol = check_tolerance(tol)
    build, _ = _family(family)
    point = np.asarray(_triple(start), dtype=float)
    step = check_tolerance(initial_step, "initial_step")
    check_integer(max_iters, "max_iters", 0, ValueError)
    value = pentagon_residual(build(*point), 2).residual
    evaluations = 1
    iterations = 0
    while value >= tol and step >= MIN_REFINE_STEP and iterations < max_iters:
        trials = np.tile(point, (6, 1))
        trials[np.arange(6), _POLL_AXES] += _POLL_SIGNS * step
        values = pentagon_stack(build(*trials.T), 2)[2]
        evaluations += len(values)
        best = int(np.argmin(values))  # the first poll of least residual
        if values[best] < value:
            point, value = trials[best], float(values[best])
        else:
            step *= 0.5
        iterations += 1

    converged = value < tol
    params = tuple(float(p) for p in point)
    solution = None
    if converged:
        kind = _operator_class(build(*params), max(tol, 1e-9))
        solution = SolutionPoint(params, value, _canonical(params), kind)
    return RefineResult(converged, params, value, iterations, evaluations, solution)
