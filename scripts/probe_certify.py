"""Paired probe of ``certify`` at two checkouts: group fusion operators, CNOT and SWAP.

Certifies the fusion operator of each of the 14 groups of the ``certify``
workload (perfbench/corpus.py ``GROUPS``) and of the symmetric group S4
(d=24), then CNOT and SWAP, on each checkout, alternating the sides as
``probe_circuit_io.py`` does (one process, wall time). Both checkouts
must write the same report bytes for every gate, each side's
``jsonio.dumps(report.to_jsonable())`` with its own ``jsonio``, or the
probe exits 1. Both checkouts must decide permutation gates on index
maps: one that forms the dense d**3 x d**3 sides of the pentagon
equation needs about 3 GB for S4.

It then times building the ``CayleyTable`` and the fusion operator
(``group_algebra_fusion``) of each group in ``BUILDS``, 10 builds per
round. Both checkouts must build equal tables and identity indices and
bit-equal operators, or the probe exits 1.

usage: python3 scripts/probe_certify.py BASE_CHECKOUT CHANGE_CHECKOUT [ROUNDS]

ROUNDS is at least 2 (default 21). Prints one JSON object: per gate, its
local dimension d, each side's median and quartiles in milliseconds, the
ratio of the medians and the rounds the change won; then each side's sum
of the medians over all gates; then the same timings per build, under
"<group> table" and "<group> fusion operator". Bad arguments print the
usage line and exit 2.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

from probe_circuit_io import ROOT, arguments, load, paired

#: Groups whose table and fusion operator builds are timed.
BUILDS = ("S4", "Z12", "Z2xS3")


def group(pg, name: str):
    """The CayleyTable ``name`` names: Zn, Sn, or an x-separated direct product."""
    parts = [(pg.CayleyTable.symmetric if part[0] == "S" else pg.CayleyTable.cyclic)(int(part[1:]))
             for part in name.split("x")]
    return functools.reduce(pg.CayleyTable.direct_product, parts)


def gates(pg, groups) -> dict:
    """label -> (matrix, d) of every gate the probe certifies."""
    out = {}
    for name in groups:
        table = group(pg, name)
        out[name] = (pg.group_algebra_fusion(table), table.order)
    for name in ("CNOT", "SWAP"):
        out[name] = (pg.standard_gate(name), 2)
    return out


def bit_equal(a, b) -> bool:
    """True iff the arrays have one dtype, one shape and the same bytes."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def main(argv: list[str]) -> int:
    args = arguments(argv, __doc__)
    if args is None:
        return 2
    base, change, rounds = args
    sys.path.insert(0, str(ROOT / "perfbench"))
    import corpus

    sides = {"base": load(base, "jsonio"), "change": load(change, "jsonio")}
    cases = {side: gates(pg, corpus.GROUPS + ("S4",)) for side, pg in sides.items()}
    report = {}
    for label, (_, d) in cases["base"].items():
        def run(pg, side):
            return pg.certify(*cases[side][label], name=label)

        reports = {side: pg.jsonio.dumps(run(pg, side).to_jsonable())
                   for side, pg in sides.items()}
        if reports["base"] != reports["change"]:
            print(f"{label}: the two checkouts certify differently", file=sys.stderr)
            return 1
        report[label] = {"d": d, **paired(sides, run, rounds)}
    report["sum of medians ms"] = {
        side: sum(entry[f"{side}_ms"]["median"] for entry in report.values()) for side in sides
    }
    for name in BUILDS:
        tables = {side: group(pg, name) for side, pg in sides.items()}
        (table, fusion), (other_table, other_fusion) = (
            ((t.table, t.identity_index), sides[side].group_algebra_fusion(t))
            for side, t in tables.items()
        )
        if table != other_table or not bit_equal(fusion, other_fusion):
            print(f"{name}: the two checkouts build different groups", file=sys.stderr)
            return 1
        report[f"{name} table"] = paired(sides, lambda pg, side: group(pg, name), rounds, 10)
        report[f"{name} fusion operator"] = paired(
            sides, lambda pg, side: pg.group_algebra_fusion(tables[side]), rounds, 10
        )
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
