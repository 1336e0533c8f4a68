"""Pentagon-template rewriting: 5-gate compression and 2-gate expansion.

The compression template, in execution order on a wire triple (a, b, c):

    T(b, c); SWAP(b, c); T(a, b); SWAP(b, c); T(a, b)

is replaced by

    T(a, b); T(b, c)

whenever T is a certified fusion operator, and expansion is the inverse
rewrite. The 5-gate form is one side of the pentagon equation with the
non-adjacent factor conjugated through SWAPs, so both directions preserve
the circuit unitary exactly; rewrites are verified up to global phase
because user-supplied gates may carry their own phase conventions.

Matching is syntactic: gate names must agree and parameters (or custom
matrices) must match the fusion gate within 1e-10, with the wire roles
bound by the template structure. Gates on wires outside {a, b, c} may
interleave a match; any unmatched gate touching {a, b, c} blocks it.
Sites are selected leftmost-first and never overlap, so each gate joins
at most one rewrite per pass.

Verification simulates each distinct circuit once: the input, then the
output of every rewriting pass, whose unitary is carried into the next
pass as its input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certify import CertificationReport, certify
from .circuit import (
    Circuit,
    GateInstance,
    depth,
    resolved_matrix,
    to_unitary,
)
from .errors import RewriteVerificationError, UncertifiedGateError
from .gates import gate_arity, gate_matrix
from .linalg import (
    DEFAULT_TOLERANCE,
    as_matrix,
    check_tolerance,
    matrices_equal,
    phase_distance,
)

#: Parameters and custom matrices must match the fusion gate this tightly.
MATCH_TOLERANCE = 1e-10


@dataclass(frozen=True, eq=False)
class FusionGateDescriptor:
    """A two-qubit gate together with its fusion certification."""

    gate: GateInstance
    certification: CertificationReport

    @property
    def matrix(self) -> np.ndarray:
        return resolved_matrix(self.gate)


def describe_fusion_gate(
    name: str | None = None,
    params=(),
    matrix=None,
    tol: float = DEFAULT_TOLERANCE,
) -> FusionGateDescriptor:
    """Certify a gate and wrap it for rewriting.

    Accepts either a built-in two-qubit gate name with parameters, or a
    custom 4x4 matrix. Raises UncertifiedGateError when the pentagon
    residual is at or above ``tol``.
    """
    check_tolerance(tol)
    params = tuple(float(p) for p in params)
    if matrix is not None:
        matrix = as_matrix(matrix)
        gate = GateInstance("custom", (0, 1), (), matrix)
        report = certify(matrix, 2, tol, name="custom")
    else:
        if name is None:
            raise ValueError("need a gate name or a custom matrix")
        if gate_arity(name) != 2:
            raise ValueError(f"fusion gates act on two qubits; {name!r} does not")
        gate = GateInstance(name, (0, 1), params)
        report = certify(gate_matrix(name, params), 2, tol, name=name, params=params)
    if not report.is_fusion:
        raise UncertifiedGateError(
            f"gate {report.gate_name!r} is not a fusion operator: pentagon residual "
            f"{report.residual:.6g} >= tolerance {tol:.6g}",
            report=report,
        )
    return FusionGateDescriptor(gate, report)


@dataclass(frozen=True)
class RewriteSite:
    """A located template match: gate indices plus the bound wire triple."""

    gate_indices: tuple[int, ...]
    wires: tuple[int, int, int]


@dataclass(frozen=True)
class RewriteReport:
    """Bookkeeping for one rewrite run.

    ``passes`` counts the matching passes, including the final one that
    finds no site in a fixed-point run. It is a diagnostic and stays out
    of :meth:`to_jsonable`.
    """

    sites_found: int
    sites_rewritten: int
    gate_count_before: int
    gate_count_after: int
    depth_before: int
    depth_after: int
    equivalence_verified: bool
    phase_distance: float | None
    passes: int

    def to_jsonable(self) -> dict:
        return {
            "sites_found": self.sites_found,
            "sites_rewritten": self.sites_rewritten,
            "gate_count_before": self.gate_count_before,
            "gate_count_after": self.gate_count_after,
            "depth_before": self.depth_before,
            "depth_after": self.depth_after,
            "equivalence_verified": self.equivalence_verified,
            "phase_distance": self.phase_distance,
        }


def _matches_fusion_gate(gate: GateInstance, descriptor: FusionGateDescriptor) -> bool:
    if len(gate.wires) != 2:
        return False
    target = descriptor.gate
    if target.name == "custom":
        return (
            gate.name == "custom"
            and gate.matrix is not None
            and gate.matrix.shape == target.matrix.shape
            and matrices_equal(gate.matrix, target.matrix, MATCH_TOLERANCE)
        )
    return (
        gate.name == target.name
        and len(gate.params) == len(target.params)
        and all(abs(p - q) <= MATCH_TOLERANCE for p, q in zip(gate.params, target.params))
    )


def _is_swap_on(gate: GateInstance, b: int, c: int) -> bool:
    return gate.name == "SWAP" and set(gate.wires) == {b, c}


def _match_compress(gates, start, descriptor, consumed):
    first = gates[start]
    if start in consumed or not _matches_fusion_gate(first, descriptor):
        return None
    b, c = first.wires
    indices = [start]
    skipped: list[set[int]] = []  # wire sets of interleaved, unmatched gates
    watch = {b, c}
    a = None
    stage = 0  # 0: SWAP(b,c), 1: T(a,b), 2: SWAP(b,c), 3: T(a,b)
    i = start + 1
    while i < len(gates) and stage < 4:
        gate = gates[i]
        touched = set(gate.wires)
        if touched.isdisjoint(watch):
            skipped.append(touched)
            i += 1
            continue
        if i in consumed:
            return None
        if stage in (0, 2):
            if not _is_swap_on(gate, b, c):
                return None
        elif stage == 1:
            if not (_matches_fusion_gate(gate, descriptor) and gate.wires[1] == b):
                return None
            candidate = gate.wires[0]
            if candidate in (b, c) or any(candidate in w for w in skipped):
                return None
            a = candidate
            watch = {a, b, c}
        else:  # stage 3: the second T(a, b)
            if not (_matches_fusion_gate(gate, descriptor) and gate.wires == (a, b)):
                return None
        indices.append(i)
        stage += 1
        i += 1
    if stage != 4:
        return None
    return RewriteSite(tuple(indices), (a, b, c))


def _match_expand(gates, start, descriptor, consumed):
    first = gates[start]
    if start in consumed or not _matches_fusion_gate(first, descriptor):
        return None
    a, b = first.wires
    watch = {a, b}
    skipped: list[set[int]] = []
    i = start + 1
    while i < len(gates):
        gate = gates[i]
        touched = set(gate.wires)
        if touched.isdisjoint(watch):
            skipped.append(touched)
            i += 1
            continue
        if i in consumed:
            return None
        if not (_matches_fusion_gate(gate, descriptor) and gate.wires[0] == b):
            return None
        c = gate.wires[1]
        if c in (a, b) or any(c in w for w in skipped):
            return None
        return RewriteSite((start, i), (a, b, c))
    return None


def _find_sites(circuit: Circuit, descriptor: FusionGateDescriptor, matcher) -> list[RewriteSite]:
    sites: list[RewriteSite] = []
    consumed: set[int] = set()
    for start in range(len(circuit.gates)):
        site = matcher(circuit.gates, start, descriptor, consumed)
        if site is not None:
            sites.append(site)
            consumed.update(site.gate_indices)
    return sites


def find_compress_sites(
    circuit: Circuit, descriptor: FusionGateDescriptor
) -> list[RewriteSite]:
    """All maximal non-overlapping 5-gate template matches, leftmost first."""
    _require_certified(descriptor)
    return _find_sites(circuit, descriptor, _match_compress)


def find_expand_sites(
    circuit: Circuit, descriptor: FusionGateDescriptor
) -> list[RewriteSite]:
    """All maximal non-overlapping T(a,b); T(b,c) pair matches, leftmost first."""
    _require_certified(descriptor)
    return _find_sites(circuit, descriptor, _match_expand)


def _require_certified(descriptor: FusionGateDescriptor) -> None:
    report = descriptor.certification
    if not report.is_fusion:
        raise UncertifiedGateError(
            f"gate {report.gate_name!r} carries a not_fusion certification; refusing to rewrite",
            report=report,
        )


def _fusion_instance(descriptor: FusionGateDescriptor, wires) -> GateInstance:
    gate = descriptor.gate
    return GateInstance(gate.name, tuple(wires), gate.params, gate.matrix)


def _compress_replacement(descriptor, site):
    a, b, c = site.wires
    return [_fusion_instance(descriptor, (a, b)), _fusion_instance(descriptor, (b, c))]


def _expand_replacement(descriptor, site):
    a, b, c = site.wires
    return [
        _fusion_instance(descriptor, (b, c)),
        GateInstance("SWAP", (b, c)),
        _fusion_instance(descriptor, (a, b)),
        GateInstance("SWAP", (b, c)),
        _fusion_instance(descriptor, (a, b)),
    ]


def _apply_sites(circuit, sites, descriptor, replacement):
    removed = {i for site in sites for i in site.gate_indices}
    first_index = {site.gate_indices[0]: site for site in sites}
    out: list[GateInstance] = []
    for i, gate in enumerate(circuit.gates):
        if i in first_index:
            out.extend(replacement(descriptor, first_index[i]))
        if i in removed:
            continue
        out.append(gate)
    return Circuit(circuit.num_qubits, tuple(out))


_RULES = {
    "compress": (_match_compress, _compress_replacement),
    "expand": (_match_expand, _expand_replacement),
}


def transpile(
    circuit: Circuit,
    descriptor: FusionGateDescriptor,
    rule: str,
    fixed_point: bool = False,
    verify: bool = True,
    tol: float = DEFAULT_TOLERANCE,
) -> tuple[Circuit, RewriteReport]:
    """Apply ``rule`` ("compress" or "expand") once, or until a pass finds no site.

    With ``verify`` every rewriting pass is checked against its input up
    to global phase, and the report carries the phase distance between
    the original circuit and the final one. On failure nothing is
    returned: :class:`RewriteVerificationError` names the first site whose
    rewrite alone breaks equivalence, or ``site=None`` when only the
    sites together do.
    """
    tol = check_tolerance(tol)
    _require_certified(descriptor)
    try:
        matcher, replacement = _RULES[rule]
    except KeyError:
        raise ValueError(f"unknown rule {rule!r}, expected 'compress' or 'expand'") from None
    current = circuit
    initial = held = None  # unitaries of the input and of ``current``
    distance = 0.0 if verify else None
    found = passes = rewriting_passes = 0
    while True:
        sites = _find_sites(current, descriptor, matcher)
        passes += 1
        if not sites:
            break
        rewritten = _apply_sites(current, sites, descriptor, replacement)
        if verify:
            if held is None:
                initial = held = to_unitary(current)
            after = to_unitary(rewritten)
            distance = phase_distance(held, after)
            if not distance < tol:
                failing = _first_failing_site(current, held, sites, descriptor, replacement, tol)
                where = (
                    f"at site {failing}" if failing is not None else
                    "yet no single site fails on its own: the failure only "
                    "appears when sites interact"
                )
                raise RewriteVerificationError(
                    f"rewrite is not equivalent to the input (phase distance "
                    f"{distance:.6g} >= {tol:.6g}) {where}; rolled back",
                    site=failing,
                )
            held = after
        found += len(sites)
        rewriting_passes += 1
        current = rewritten
        if not fixed_point:
            break
    if verify and rewriting_passes > 1:
        distance = phase_distance(initial, held)
    report = RewriteReport(
        sites_found=found,
        sites_rewritten=found,
        gate_count_before=len(circuit.gates),
        gate_count_after=len(current.gates),
        depth_before=depth(circuit),
        depth_after=depth(current),
        equivalence_verified=verify,
        phase_distance=distance,
        passes=passes,
    )
    return current, report


def _first_failing_site(circuit, unitary, sites, descriptor, replacement, tol):
    """The first site whose rewrite alone breaks equivalence, else None.

    ``unitary`` is the already simulated unitary of ``circuit``; only the
    single-site rewrites are simulated here.
    """
    for site in sites:
        alone = _apply_sites(circuit, [site], descriptor, replacement)
        if not phase_distance(unitary, to_unitary(alone)) < tol:
            return site
    return None


def compress(
    circuit: Circuit,
    descriptor: FusionGateDescriptor,
    verify: bool = True,
    tol: float = DEFAULT_TOLERANCE,
) -> tuple[Circuit, RewriteReport]:
    """Rewrite every 5-gate template site to the 2-gate form.

    Gate count drops by exactly 3 per rewritten site. With ``verify`` the
    output is checked against the input up to global phase; on failure the
    rewrite is rolled back and the failing site is raised.
    """
    return transpile(circuit, descriptor, "compress", verify=verify, tol=tol)


def expand(
    circuit: Circuit,
    descriptor: FusionGateDescriptor,
    verify: bool = True,
    tol: float = DEFAULT_TOLERANCE,
) -> tuple[Circuit, RewriteReport]:
    """Rewrite every consecutive T(a,b); T(b,c) pair to the 5-gate template.

    Inverse of :func:`compress` on its image; gate count grows by exactly 3
    per rewritten site.
    """
    return transpile(circuit, descriptor, "expand", verify=verify, tol=tol)
