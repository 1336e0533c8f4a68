"""Pentagon-template rewriting: 5-gate compression and 2-gate expansion.

When T is a certified fusion operator, the pentagon equation with its
non-adjacent factor conjugated through SWAPs says that two gate sequences
on a wire triple (a, b, c) are equal. ``_FIVE`` and ``_TWO`` below state
them, in execution order, and are the only statement of the template:

    _FIVE:  T(b, c); SWAP(b, c); T(a, b); SWAP(b, c); T(a, b)
    _TWO:   T(a, b); T(b, c)

``_RULES`` reads the equation both ways: compress matches ``_FIVE`` and
writes ``_TWO``, expand matches ``_TWO`` and writes ``_FIVE``. One
matcher and one instantiator serve both. Both directions preserve the
circuit unitary exactly; rewrites are verified up to global phase
because user-supplied gates may carry their own phase conventions.

Matching is syntactic. A T slot needs the fusion gate's name, with
parameters (or a custom matrix) within 1e-10, and takes the gate's wires
in role order; a SWAP slot takes its two wires in either order. The
first gate binds the roles of the first slot, and later slots bind the
rest. Gates on no bound wire may interleave a match. A role bound later
may not take a wire such a gate touched, and any other gate on a bound
wire blocks the match. Sites are selected leftmost-first and never
overlap, so each gate joins at most one rewrite per pass.

Verification makes one comparison (``circuit_distance``): the input
against the final output, however many passes rewrote. With a
permutation fusion gate (CNOT, a group fusion operator) the rewrite
changes permutation gates alone, so the two are proven equal from their
gate lists without simulating: the walk steps past the gates the
rewrite kept, which the output shares with the input, and reads only
those around its sites. With a dense fusion gate both circuits are
simulated. Only when it fails are the sites checked one by
one, each on its own 3-qubit window (``_window``: the site's gates with
roles (a, b, c) on wires (0, 1, 2)):
the gates a site skips touch none of its wires, so rewriting the site
alone moves an n-qubit unitary by sqrt(2**(n-3)) times the distance of
its 8x8 window. Sites with equal window gates share one simulation.
A pass builds each wire triple's written side once, and its sites on that
triple share those gates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .certify import CertificationReport, certify
from .circuit import (CUSTOM, Circuit, GateInstance, _gate_key, check_circuit, circuit_distance,
                      depth, resolved_matrix)
from .errors import RewriteVerificationError, SchemaError, UncertifiedGateError
from .linalg import DEFAULT_TOLERANCE, _shown, check_tolerance, entry, instance

#: Parameters and custom matrices must match the fusion gate this tightly.
MATCH_TOLERANCE = 1e-10

#: The two sides of the pentagon template as (gate, wire roles) slots.
_FIVE = (("T", "bc"), ("SWAP", "bc"), ("T", "ab"), ("SWAP", "bc"), ("T", "ab"))
_TWO = (("T", "ab"), ("T", "bc"))

#: rule -> (the side it matches, the side it writes)
_RULES = {"compress": (_FIVE, _TWO), "expand": (_TWO, _FIVE)}


@dataclass(frozen=True, eq=False)
class FusionGateDescriptor:
    """A two-qubit gate together with its fusion certification at ``tol``.

    A descriptor is certified by construction: it certifies its gate's
    matrix itself and raises UncertifiedGateError unless the verdict is
    fusion, so every rewrite entry may take its gate as a pentagon
    solution. A gate that is not a ``GateInstance`` raises SchemaError.
    """

    gate: GateInstance
    tol: float = DEFAULT_TOLERANCE
    certification: CertificationReport = field(init=False)

    def __post_init__(self):
        gate = instance(self.gate, GateInstance, "fusion gate", SchemaError)
        report = certify(resolved_matrix(gate), 2, self.tol, name=gate.name, params=gate.params)
        object.__setattr__(self, "certification", report)
        if not report.is_fusion:
            raise UncertifiedGateError(
                f"gate {report.gate_name!r} is not a fusion operator: pentagon residual "
                f"{report.residual:.6g} >= tolerance {report.tolerance:.6g}",
                report=report,
            )


def describe_fusion_gate(
    name: str | None = None,
    params=(),
    matrix=None,
    tol: float = DEFAULT_TOLERANCE,
) -> FusionGateDescriptor:
    """Build a gate and wrap it for rewriting; the descriptor certifies it.

    Accepts either a built-in two-qubit gate name with parameters, or a
    custom 4x4 matrix, named ``custom`` when ``name`` is None. The gate is
    built on wires (0, 1) first, so a gate no circuit could hold, a name
    given with a matrix, or neither, raises SchemaError naming the fusion
    gate. A pentagon residual at or above ``tol`` gives a not_fusion
    certification, which the descriptor refuses with UncertifiedGateError.
    """
    if name is None:
        name = CUSTOM
    try:
        gate = GateInstance(name, (0, 1), params, matrix)
    except SchemaError as exc:
        raise SchemaError(f"fusion gate {_shown(name)}: {exc}") from None
    return FusionGateDescriptor(gate, tol)


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
            "sites_rewritten": self.sites_found,
            "gate_count_before": self.gate_count_before,
            "gate_count_after": self.gate_count_after,
            "depth_before": self.depth_before,
            "depth_after": self.depth_after,
            "equivalence_verified": self.equivalence_verified,
            "phase_distance": self.phase_distance,
        }


def _matches_fusion_gate(gate: GateInstance, descriptor: FusionGateDescriptor) -> bool:
    target = descriptor.gate
    if target.name == CUSTOM:
        # custom matrices are stored as checked 2-D complex128 arrays: no coercion
        a, b = gate.matrix, target.matrix
        return (gate.name == CUSTOM and a.shape == b.shape
                and bool(np.abs(a - b).max() <= MATCH_TOLERANCE))
    return gate.name == target.name and all(
        abs(p - q) <= MATCH_TOLERANCE for p, q in zip(gate.params, target.params)
    )


def _fill(slot, gate, is_fusion, bound, skipped) -> bool:
    """Whether ``gate`` fills ``slot``; binds the slot's unbound roles.

    A T slot takes the fusion gate's wires in role order; a SWAP slot
    takes them in either order. A newly bound role must take a wire that
    no bound role holds and no skipped gate touched.
    """
    kind, roles = slot
    wires = gate.wires
    if kind == "SWAP":
        if gate.name != "SWAP":
            return False
        if bound.get(roles[0]) == wires[1]:
            wires = wires[::-1]
    elif not is_fusion:
        return False
    for role, wire in zip(roles, wires):
        if role in bound:
            if bound[role] != wire:
                return False
        elif wire in bound.values() or wire in skipped:
            return False
        else:
            bound[role] = wire
    return True


def _match(pattern, gates, start, fusion) -> RewriteSite | None:
    """The site of ``pattern`` whose first gate is ``gates[start]``, or None.

    ``fusion[i]`` says whether gate i is the fusion gate. The first gate
    binds the roles of the first slot. After it, a gate that touches no
    bound wire is skipped and the wires it touches are recorded; any
    other gate must fill the next slot.
    """
    bound: dict[str, int] = {}
    if not _fill(pattern[0], gates[start], fusion[start], bound, ()):
        return None
    indices = [start]
    watch = set(gates[start].wires)
    skipped: set[int] = set()
    for i in range(start + 1, len(gates)):
        gate = gates[i]
        if watch.isdisjoint(gate.wires):
            skipped.update(gate.wires)
            continue
        if not _fill(pattern[len(indices)], gate, fusion[i], bound, skipped):
            return None
        indices.append(i)
        if len(indices) == len(pattern):
            return RewriteSite(tuple(indices), (bound["a"], bound["b"], bound["c"]))
        watch.update(gate.wires)
    return None


def _find_sites(circuit: Circuit, descriptor: FusionGateDescriptor, pattern) -> list[RewriteSite]:
    """Leftmost-first, non-overlapping matches of ``pattern``.

    Both template sides begin with a T slot, so only a fusion gate that
    no earlier site took can start a match. Gates a site skips touch
    none of its wires, so a later match never reaches a taken gate. Every
    rewrite entry comes here, where a descriptor that is not a
    ``FusionGateDescriptor`` raises UncertifiedGateError.
    """
    gates = check_circuit(circuit).gates
    instance(descriptor, FusionGateDescriptor, "descriptor", UncertifiedGateError)
    fusion = [_matches_fusion_gate(gate, descriptor) for gate in gates]
    sites: list[RewriteSite] = []
    consumed: set[int] = set()
    for start in range(len(gates)):
        if fusion[start] and start not in consumed:
            site = _match(pattern, gates, start, fusion)
            if site is not None:
                sites.append(site)
                consumed.update(site.gate_indices)
    return sites


def find_compress_sites(
    circuit: Circuit, descriptor: FusionGateDescriptor
) -> list[RewriteSite]:
    """All maximal non-overlapping 5-gate template matches, leftmost first."""
    return _find_sites(circuit, descriptor, _FIVE)


def find_expand_sites(
    circuit: Circuit, descriptor: FusionGateDescriptor
) -> list[RewriteSite]:
    """All maximal non-overlapping T(a,b); T(b,c) pair matches, leftmost first."""
    return _find_sites(circuit, descriptor, _TWO)


def _instantiate(descriptor: FusionGateDescriptor, side, wires) -> list[GateInstance]:
    """The gates of one template side on the wire triple (a, b, c)."""
    wire = dict(zip("abc", wires))
    gate = descriptor.gate
    out = []
    for kind, roles in side:
        wires = tuple(map(wire.__getitem__, roles))
        if kind == "SWAP":
            out.append(GateInstance("SWAP", wires))
        else:
            out.append(GateInstance(gate.name, wires, gate.params, gate.matrix))
    return out


def _apply_sites(circuit, sites, descriptor, side):
    removed = {i for site in sites for i in site.gate_indices}
    first_index = {site.gate_indices[0]: site.wires for site in sites}
    # each wire triple's side is built once; its sites share the gates
    made = {wires: _instantiate(descriptor, side, wires) for wires in set(first_index.values())}
    out: list[GateInstance] = []
    for i, gate in enumerate(circuit.gates):
        if i in first_index:
            out.extend(made[first_index[i]])
        if i in removed:
            continue
        out.append(gate)
    return Circuit(circuit.num_qubits, tuple(out))


def transpile(
    circuit: Circuit,
    descriptor: FusionGateDescriptor,
    rule: str,
    fixed_point: bool = False,
    verify: bool = True,
    tol: float = DEFAULT_TOLERANCE,
) -> tuple[Circuit, RewriteReport]:
    """Apply ``rule`` ("compress" or "expand") once, or until a pass finds no site.

    A fixed-point ``compress`` stops: a site's three fusion gates become
    two and no other gate changes, so each rewriting pass removes at least
    one fusion gate, and an input holding k of them takes at most k + 1
    passes, the last finding no site. ``expand`` grows the circuit and has
    no such argument; its pass count is only tested.

    ``compress`` never deepens the circuit: ``depth_after <= depth_before``.
    A site on wires (a, b, c) is T(b,c), SWAP(b,c), T(a,b), SWAP(b,c),
    T(a,b), and no gate between them touches a, b or c. Let M be the
    largest ASAP level of a, b and c before the site. The five gates leave
    a and b at level M + 3 or more and c at M + 2 or more; the two written
    gates, placed at the site's first index, leave a at M + 1 or less and
    b and c at M + 2 or less. The gates the site skips keep their levels,
    and a level feeds later levels monotonically, so no later gate's level,
    and not the depth, can rise. That holds site by site, so for a pass,
    and pass by pass, so for a fixed-point run. ``expand`` has no such
    bound: a written site can lift a wire from below M up to M + 5, and every
    later gate on that wire with it.

    With ``verify`` the final circuit is checked against the input up to
    global phase, and the report carries their phase distance. On failure
    nothing is returned: :class:`RewriteVerificationError` names the first
    site whose rewrite alone breaks equivalence, with its pass when that is
    not the first, or ``site=None`` when no site fails alone; its message
    then gives the site count and the largest single-site distance, since
    the per-site errors add up.
    """
    tol = check_tolerance(tol)
    pattern, side = entry(_RULES, rule, "rule", ValueError, ", expected 'compress' or 'expand'")
    current = circuit
    rewrites = []  # (pass input, its sites) for every rewriting pass
    passes = 0
    while True:
        sites = _find_sites(current, descriptor, pattern)
        passes += 1
        if not sites:
            break
        rewrites.append((current, sites))
        current = _apply_sites(current, sites, descriptor, side)
        if not fixed_point:
            break
    distance = None
    if verify:
        distance = circuit_distance(circuit, current) if rewrites else 0.0
        if not distance < tol:
            raise _verification_error(distance, tol, rewrites, descriptor, side)
    report = RewriteReport(
        sites_found=sum(len(sites) for _, sites in rewrites),
        gate_count_before=len(circuit.gates),
        gate_count_after=len(current.gates),
        depth_before=depth(circuit),
        depth_after=depth(current),
        equivalence_verified=verify,
        phase_distance=distance,
        passes=passes,
    )
    return current, report


def _window(circuit, site) -> tuple[GateInstance, ...]:
    """The site's gates on the 3-qubit window of roles (a, b, c) -> (0, 1, 2)."""
    role = {wire: i for i, wire in enumerate(site.wires)}
    return tuple(GateInstance(g.name, tuple(role[w] for w in g.wires), g.params, g.matrix)
                 for g in map(circuit.gates.__getitem__, site.gate_indices))


def _site_distance(circuit, site, descriptor, side) -> float:
    """The phase distance by which rewriting ``site`` alone moves ``circuit``.

    Computed on the site's ``_window`` and scaled to the register, since
    the gates the site skips touch none of its wires.
    """
    after = tuple(_instantiate(descriptor, side, (0, 1, 2)))
    scale = math.sqrt(2 ** (circuit.num_qubits - 3))
    return scale * circuit_distance(Circuit(3, _window(circuit, site)), Circuit(3, after))


def _verification_error(distance, tol, rewrites, descriptor, side):
    """The error for a failed rewrite, blaming the first site that fails alone.

    Sites are checked pass by pass; a site's indices refer to its pass's input.
    Sites whose ``_window`` gates are equal (``circuit._gate_key``) have
    bitwise equal windows, so each distinct one is simulated once.
    """
    head = f"rewrite is not equivalent to the input (phase distance {distance:.6g} >= {tol:.6g})"
    largest, windows = 0.0, {}
    for p, (circuit, sites) in enumerate(rewrites, 1):
        for site in sites:
            key = tuple(map(_gate_key, _window(circuit, site)))
            if key not in windows:
                windows[key] = _site_distance(circuit, site, descriptor, side)
            alone = windows[key]
            if not alone < tol:
                where = f" in pass {p}" if p > 1 else ""
                return RewriteVerificationError(f"{head} at site {site}{where}; rolled back", site)
            largest = max(largest, alone)
    count = sum(len(sites) for _, sites in rewrites)
    return RewriteVerificationError(
        f"{head} yet none of its {count} sites fails on its own (largest single-site "
        f"distance {largest:.6g}): the per-site errors add up; rolled back"
    )


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
