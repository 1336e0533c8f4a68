"""Per-layer metrics from the spans of one traced run.

Span names are ``<module>.<function>`` of the package call they wrap
(``circuit.to_unitary``, ``rewrite.find_compress_sites``); the call span of
a CLI op is ``cli.<command>``, that of a library op the function's own
name. Each ``op`` span has the call span as a child, then a ``replay``
child (the op's essential work redone through public functions) and, for
some ops, a ``sample`` child (single calls timed for a per-call cost, not
part of the op's work). ``key`` maps spans to the coverage keys the probes
in ops.py are tagged with.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import Span

DUALITY = ("equations.check_street_duality", "equations.check_folklore_duality")
BUILDS = ("gates.a_gate", "gates.heisenberg_evolution", "gates.gate_matrix", "gates.group_algebra_fusion")
FINDS = ("rewrite.find_compress_sites", "rewrite.find_expand_sites")
APPLIES = ("rewrite.compress", "rewrite.expand")

#: (name, unit) of every per-layer metric, in the order printed.
METRICS = (
    ("gates.build_s", "s"), ("gates.a_gate_us", "us"), ("gates.cayley_s", "s"),
    ("equations.pentagon_calls", "count"), ("equations.pentagon_s", "s"),
    ("equations.pentagon_us_d2", "us"), ("equations.pentagon_ms_d8", "ms"),
    ("equations.pentagon_ms_d12", "ms"), ("equations.duality_s", "s"),
    ("certify.scan_points", "count"), ("certify.scan_s", "s"), ("certify.scan_self_s", "s"),
    ("certify.refine_evaluations", "count"), ("certify.refine_iterations", "count"),
    ("certify.refine_converged", "ratio"), ("certify.refine_s", "s"), ("certify.certify_s", "s"),
    ("linalg.is_unitary_s", "s"), ("linalg.embed_ms_q8", "ms"), ("linalg.embed_ms_q10", "ms"),
    ("linalg.phase_distance_s", "s"),
    ("circuit.to_unitary_s", "s"), ("circuit.ms_per_gate_q8", "ms"), ("circuit.ms_per_gate_q10", "ms"),
    ("circuit.parse_s", "s"), ("circuit.serialize_s", "s"), ("circuit.route_s", "s"), ("circuit.stats_s", "s"),
    ("rewrite.describe_s", "s"), ("rewrite.match_s", "s"), ("rewrite.sites_found", "count"),
    ("rewrite.site_yield", "ratio"), ("rewrite.passes", "count"), ("rewrite.apply_s", "s"),
    ("rewrite.verify_s", "s"),
    ("cli.unattributed_s", "s"), ("jsonio.dumps_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def key(span: Span) -> str:
    name = span.name
    if name == "equations.pentagon_residual":
        return f"pentagon@{span.attrs['d']}"
    if name == "circuit.to_unitary":
        return f"to_unitary@{span.attrs['n']}"
    if name == "linalg.embed":
        return f"embed@{span.attrs['n']}"
    if name in DUALITY:
        return "duality"
    if name in FINDS:
        return "rewrite.find"
    if name in APPLIES:
        return "rewrite.apply"
    return name


def covered(spans: list[Span]) -> set[str]:
    keys = {key(s) for s in spans}
    if any(s.name.startswith("cli.") for s in spans):
        keys.add("cli")
    return keys


def per_layer(spans: list[Span], overhead_ratio: float) -> dict:
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def total(*names) -> float:
        return sum(s.duration for n in names for s in by_name[n])

    def mean(name, scale, **match) -> float:
        picked = [s.duration for s in by_name[name] if all(s.attrs.get(k) == v for k, v in match.items())]
        return scale * statistics.fmean(picked)

    def attr_sum(names, attr) -> int:
        return sum(s.attrs[attr] for n in names for s in by_name[n])

    pent_us = mean("equations.pentagon_residual", 1e6, d=2)
    build_us = {"a": mean("gates.a_gate", 1e6)}
    if by_name["gates.heisenberg_evolution"]:
        build_us["heis"] = mean("gates.heisenberg_evolution", 1e6)
    scans = by_name["cli.scan"]
    scan_s = sum(s.duration for s in scans)
    # estimate: the scan's time less what its points cost one call at a time
    scan_self = scan_s - sum(s.attrs["points"] * (build_us[s.attrs["family"]] + pent_us) * 1e-6 for s in scans)
    refines = by_name["certify.refine"]

    def per_gate_ms(n) -> float:
        picked = [s for s in by_name["circuit.to_unitary"] if s.attrs["n"] == n]
        return 1e3 * sum(s.duration for s in picked) / sum(s.attrs["gates"] for s in picked)

    unattributed = 0.0
    for op in by_name["op"]:
        kids = children[op.span_id]
        calls = [c for c in kids if c.name.startswith("cli.")]
        replays = [c for c in kids if c.name == "replay"]
        if calls and replays:
            unattributed += calls[0].duration - sum(c.duration for c in children[replays[0].span_id])

    scanned = attr_sum(FINDS, "gates")
    values = {
        "gates.build_s": total(*BUILDS),
        "gates.a_gate_us": build_us["a"],
        "gates.cayley_s": total("gates.CayleyTable"),
        "equations.pentagon_calls": len(by_name["equations.pentagon_residual"]),
        "equations.pentagon_s": total("equations.pentagon_residual"),
        "equations.pentagon_us_d2": pent_us,
        "equations.pentagon_ms_d8": mean("equations.pentagon_residual", 1e3, d=8),
        "equations.pentagon_ms_d12": mean("equations.pentagon_residual", 1e3, d=12),
        "equations.duality_s": total(*DUALITY),
        "certify.scan_points": attr_sum(["cli.scan"], "points"),
        "certify.scan_s": scan_s,
        "certify.scan_self_s": scan_self,
        "certify.refine_evaluations": attr_sum(["certify.refine"], "evaluations"),
        "certify.refine_iterations": attr_sum(["certify.refine"], "iterations"),
        "certify.refine_converged": sum(s.attrs["converged"] for s in refines) / len(refines),
        "certify.refine_s": total("certify.refine"),
        "certify.certify_s": total("certify.certify"),
        "linalg.is_unitary_s": total("linalg.is_unitary"),
        "linalg.embed_ms_q8": mean("linalg.embed", 1e3, n=8),
        "linalg.embed_ms_q10": mean("linalg.embed", 1e3, n=10),
        "linalg.phase_distance_s": total("linalg.phase_distance"),
        "circuit.to_unitary_s": total("circuit.to_unitary"),
        "circuit.ms_per_gate_q8": per_gate_ms(8),
        "circuit.ms_per_gate_q10": per_gate_ms(10),
        "circuit.parse_s": total("circuit.parse"),
        "circuit.serialize_s": total("circuit.serialize"),
        "circuit.route_s": total("circuit.route_line"),
        "circuit.stats_s": total("circuit.circuit_stats"),
        "rewrite.describe_s": total("rewrite.describe_fusion_gate"),
        "rewrite.match_s": total(*FINDS),
        "rewrite.sites_found": attr_sum(FINDS, "sites"),
        "rewrite.site_yield": attr_sum(FINDS, "sites") / scanned,
        "rewrite.passes": sum(len(by_name[n]) for n in FINDS),
        # compress/expand re-run the match, so their excess over it is the apply
        "rewrite.apply_s": total(*APPLIES) - total(*FINDS),
        "rewrite.verify_s": total("rewrite.verify"),
        "cli.unattributed_s": unattributed,
        "jsonio.dumps_s": total("jsonio.dumps"),
        "trace.overhead_ratio": overhead_ratio,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}


def self_time_by_name(spans: list[Span], own: dict[int, float]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s.name] += own[s.span_id]
    return dict(sorted(totals.items(), key=lambda item: -item[1]))
