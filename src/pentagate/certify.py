"""Fusion-operator certification and parameter-space search.

Certification evaluates the pentagon residual of a candidate unitary and
issues a verdict. The constraint evaluators instantiate the pentagon
equation at an A-gate or Heisenberg parameter point and report the
entrywise residual pattern, which is the numeric form of the scalar
constraint systems those families must satisfy. The scanner walks a
parameter grid and reports solution classes; ``refine`` polishes a
near-solution with a derivative-free compass search.

Known solution structure of the A-gate family: pentagon solutions on the
grid are exactly the points where the matrix equals +I (c1 = c2 = 0 and
c3 = 0 mod 4*pi, up to the 4*pi periodicity of each coordinate). The
points where the matrix equals -I are not solutions because the pentagon
equation scales with the cube of a global phase on one side and the
square on the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equations import pentagon_residual
from .errors import DimensionError, GridError, NonUnitaryError
from .gates import FOUR_PI, AGateParams, HeisenbergParams, a_gate, heisenberg_evolution
from .jsonio import complex_pair
from .linalg import DEFAULT_TOLERANCE, as_matrix, check_tolerance, frobenius_norm, is_unitary

#: Default grid-scan tolerance on the pentagon residual.
SCAN_TOLERANCE = 1e-9

IDENTITY_CLASS = "identity_up_to_tolerance"
OTHER_CLASS = "other"

_FAMILIES = {"a": a_gate, "heis": heisenberg_evolution}


@dataclass(frozen=True)
class Witness:
    """One entrywise disagreement between the two sides of an equation."""

    row: int
    col: int
    lhs: complex
    rhs: complex

    def to_jsonable(self) -> dict:
        return {
            "row": self.row,
            "col": self.col,
            "lhs": complex_pair(self.lhs),
            "rhs": complex_pair(self.rhs),
        }


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
            "gate_descriptor": {
                "name": self.gate_name,
                "params": [float(p) for p in self.gate_params],
            },
            "equation": self.equation,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "witnesses": [w.to_jsonable() for w in self.witnesses],
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

    Refuses non-unitary input: the rewriter's correctness argument needs a
    unitary gate, so a non-unitary candidate gets a distinct error rather
    than a not_fusion verdict.
    """
    tol = check_tolerance(tol)
    t = as_matrix(t)
    if t.shape != (d * d, d * d):
        raise DimensionError(
            f"gate of shape {t.shape} does not act on two factors of dimension {d}"
        )
    if not is_unitary(t, tol=max(tol, 1e-12)):
        raise NonUnitaryError("candidate gate is not unitary; certification refused")
    res = pentagon_residual(t, d)
    verdict = "fusion" if res.residual < tol else "not_fusion"
    return CertificationReport(
        gate_name=name,
        gate_params=tuple(float(p) for p in params),
        equation=res.equation,
        residual=res.residual,
        tolerance=float(tol),
        verdict=verdict,
        witnesses=_witnesses(res.lhs, res.rhs),
    )


def _witnesses(lhs: np.ndarray, rhs: np.ndarray, limit: int = 5) -> tuple[Witness, ...]:
    diff = np.abs(lhs - rhs)
    flat = np.argsort(diff, axis=None)[::-1][:limit]
    out = []
    for index in flat:
        row, col = np.unravel_index(int(index), diff.shape)
        if diff[row, col] <= 0.0:
            break
        out.append(Witness(int(row), int(col), complex(lhs[row, col]), complex(rhs[row, col])))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class ConstraintResiduals:
    """Entrywise pentagon residuals at one parameter point.

    ``entry_residuals`` holds |LHS - RHS| of the instantiated equation;
    the positions that are not identically zero across parameter space are
    the scalar constraints the family must satisfy.
    """

    parameter_point: AGateParams | HeisenbergParams
    entry_residuals: np.ndarray
    active_count: int
    max_residual: float
    tolerance: float

    def to_jsonable(self) -> dict:
        point = self.parameter_point
        fields = {
            name: float(getattr(point, name)) for name in point.__dataclass_fields__
        }
        return {
            "parameter_point": fields,
            "entry_residuals": [[float(x) for x in row] for row in self.entry_residuals],
            "active_count": self.active_count,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
        }


def _constraints(point, matrix, tol: float) -> ConstraintResiduals:
    tol = check_tolerance(tol)
    res = pentagon_residual(matrix, 2)
    entries = np.abs(res.lhs - res.rhs)
    return ConstraintResiduals(
        parameter_point=point,
        entry_residuals=entries,
        active_count=int(np.count_nonzero(entries > tol)),
        max_residual=float(entries.max()),
        tolerance=float(tol),
    )


def _triple(params) -> tuple[float, float, float]:
    if isinstance(params, (AGateParams, HeisenbergParams)):
        return params.as_tuple()
    values = tuple(float(p) for p in params)
    if len(values) != 3:
        raise ValueError(f"expected a parameter triple, got {len(values)} values")
    return values


def a_gate_constraints(params, tol: float = DEFAULT_TOLERANCE) -> ConstraintResiduals:
    """Entrywise pentagon residuals of the A gate at a parameter triple."""
    c1, c2, c3 = _triple(params)
    return _constraints(AGateParams(c1, c2, c3), a_gate(c1, c2, c3), tol)


def heisenberg_constraints(params, tol: float = DEFAULT_TOLERANCE) -> ConstraintResiduals:
    """Entrywise pentagon residuals of the Heisenberg evolution operator.

    Equals ``a_gate_constraints`` at doubled parameters since the two gate
    families coincide under that substitution.
    """
    tx, ty, tz = _triple(params)
    return _constraints(
        HeisenbergParams(tx, ty, tz), heisenberg_evolution(tx, ty, tz), tol
    )


@dataclass(frozen=True)
class SolutionPoint:
    """One operator class of pentagon solutions found on a grid."""

    parameters: tuple[float, float, float]
    residual: float
    canonical_parameters: tuple[float, float, float]
    operator_class: str

    def to_jsonable(self) -> dict:
        return {
            "parameters": [float(p) for p in self.parameters],
            "residual": self.residual,
            "canonical_parameters": [float(p) for p in self.canonical_parameters],
            "operator_class": self.operator_class,
        }


def _canonical(params) -> tuple[float, float, float]:
    return tuple(p % FOUR_PI for p in params)


def axis_points(lo: float, hi: float, step: float) -> list[float]:
    """Grid points lo, lo+step, ... up to hi (endpoint included when integral)."""
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
        raise GridError("grid bounds and step must be finite")
    if step <= 0:
        raise GridError(f"grid step must be positive, got {step}")
    if hi < lo:
        raise GridError(f"empty grid range {lo}:{hi}")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + k * step for k in range(count)]


def _normalize_axes(axes):
    axes = list(axes)
    if len(axes) == 3 and all(np.isscalar(a) for a in axes):
        axes = [tuple(axes)] * 3
    if len(axes) != 3:
        raise GridError("expected one (lo, hi, step) triple or three of them")
    return [tuple(float(x) for x in axis) for axis in axes]


def scan_fusion_solutions(
    family: str, axes, tol: float = SCAN_TOLERANCE
) -> list[SolutionPoint]:
    """Scan a 3-parameter grid for pentagon solutions of a gate family.

    ``family`` is ``"a"`` or ``"heis"``; ``axes`` is a single (lo, hi, step)
    triple applied to every parameter, or a sequence of three such triples.
    Passing grid points are grouped into operator classes (matrices within
    ``tol`` in Frobenius norm are one class) and each class is reported once,
    represented by its lexicographically smallest canonical parameters. The
    result ordering is deterministic and independent of evaluation order.
    """
    tol = check_tolerance(tol)
    try:
        build = _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}, expected 'a' or 'heis'") from None
    grids = [axis_points(*axis) for axis in _normalize_axes(axes)]
    passing = []
    for p0 in grids[0]:
        for p1 in grids[1]:
            for p2 in grids[2]:
                matrix = build(p0, p1, p2)
                residual = pentagon_residual(matrix, 2).residual
                if residual < tol:
                    params = (p0, p1, p2)
                    passing.append((_canonical(params), params, residual, matrix))
    passing.sort(key=lambda item: (item[0], item[1]))

    eye = np.eye(4, dtype=np.complex128)
    classes: list[tuple[np.ndarray, SolutionPoint]] = []
    for canonical, params, residual, matrix in passing:
        if any(frobenius_norm(matrix - rep) < tol for rep, _ in classes):
            continue
        kind = IDENTITY_CLASS if frobenius_norm(matrix - eye) < tol else OTHER_CLASS
        classes.append(
            (matrix, SolutionPoint(params, residual, canonical, kind))
        )
    return [point for _, point in classes]


def scan_a_gate(axes, tol: float = SCAN_TOLERANCE) -> list[SolutionPoint]:
    """Grid scan of the A-gate parameter space."""
    return scan_fusion_solutions("a", axes, tol)


def scan_heisenberg(axes, tol: float = SCAN_TOLERANCE) -> list[SolutionPoint]:
    """Grid scan of the Heisenberg parameter space."""
    return scan_fusion_solutions("heis", axes, tol)


@dataclass(frozen=True)
class RefineResult:
    """Outcome of a compass-search refinement run."""

    converged: bool
    parameters: tuple[float, float, float]
    residual: float
    iterations: int
    evaluations: int
    solution: SolutionPoint | None

    def to_jsonable(self) -> dict:
        return {
            "converged": self.converged,
            "parameters": [float(p) for p in self.parameters],
            "residual": self.residual,
            "iterations": self.iterations,
            "evaluations": self.evaluations,
            "solution": None if self.solution is None else self.solution.to_jsonable(),
        }


#: Compass search stops once the poll step shrinks below this.
MIN_REFINE_STEP = 1e-12


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
    tolerance.
    """
    tol = check_tolerance(tol)
    try:
        build = _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}, expected 'a' or 'heis'") from None
    point = np.asarray(_triple(start), dtype=float)
    if not np.all(np.isfinite(point)):
        raise ValueError("starting point must be finite")

    def objective(p) -> float:
        return pentagon_residual(build(*p), 2).residual

    value = objective(point)
    evaluations = 1
    step = float(initial_step)
    iterations = 0
    while value >= tol and step >= MIN_REFINE_STEP and iterations < max_iters:
        best_value, best_point = value, None
        for axis in range(3):
            for sign in (1.0, -1.0):
                trial = point.copy()
                trial[axis] += sign * step
                trial_value = objective(trial)
                evaluations += 1
                if trial_value < best_value:
                    best_value, best_point = trial_value, trial
        if best_point is None:
            step *= 0.5
        else:
            point, value = best_point, best_value
        iterations += 1

    converged = value < tol
    params = tuple(float(p) for p in point)
    solution = None
    if converged:
        matrix = build(*params)
        eye = np.eye(4, dtype=np.complex128)
        kind = IDENTITY_CLASS if frobenius_norm(matrix - eye) < max(tol, 1e-9) else OTHER_CLASS
        solution = SolutionPoint(params, value, _canonical(params), kind)
    return RefineResult(converged, params, value, iterations, evaluations, solution)
