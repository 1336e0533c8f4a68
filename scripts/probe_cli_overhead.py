"""Paired probe of per-call overhead at two checkouts: CLI commands, ``embed``, fusion matching.

Times, on each checkout and alternating the sides as
``probe_circuit_io.py`` does (one process, wall time):

- one in-process ``cli.main`` call of ``certify`` and of ``constraints``
  at a d=2 A-gate point, with stdout captured, as the ``scan`` and
  ``certify`` benchmark workloads make them;
- one in-process ``cli.main`` ``scan`` of the README's default 33**3
  A-gate grid and of the benchmark's Heisenberg grid (-pi:pi step pi/8),
  with stdout captured;
- ``linalg.embed`` of one d=12 gate on factors (1, 3) of three (T13 of
  the pentagon equation), and of a d=2 stack of one gate on factors
  (1, 2) and (1, 3), as one d=2 ``certify`` or ``constraints`` call
  places it;
- the fusion-gate test of every gate of the parsed seed-7
  ``transpile-large`` circuits ``x10k`` (custom fusion gate) and ``c40k``
  (CNOT), the list each rewriting pass builds.

usage: python3 scripts/probe_cli_overhead.py BASE_CHECKOUT CHANGE_CHECKOUT [ROUNDS]

ROUNDS is at least 2 (default 21). Prints one JSON object: per call, each
side's median and quartiles per call, the ratio of the medians and the
rounds the change won. Bad arguments print the usage line and exit 2.
The run exits 1 unless both checkouts print the same stdout for each
``cli.main`` call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys

import numpy as np

from probe_circuit_io import ROOT, arguments, fresh, load, paired

#: The CLI calls timed, as the benchmark's scan and certify workloads make them.
CLI_CALLS = {
    "main certify": ["certify", "--gate", "A", "--params", "0.1,0.2,0.3", "--quiet"],
    "main constraints": ["constraints", "--family", "a", "--params", "0.1,0.2,0.3", "--quiet"],
    "main scan a 33^3": ["scan", "--family", "a", "--range=-6.2832:6.2832", "--step", "0.3927",
                         "--quiet"],
    "main scan heis pi/8": ["scan", "--family", "heis", f"--range={-math.pi!r}:{math.pi!r}",
                            "--step", repr(math.pi / 8), "--quiet"],
}

#: Calls per round of each ``CLI_CALLS`` entry: a scan takes milliseconds.
PER_ROUND = {"main scan a 33^3": 3, "main scan heis pi/8": 3}


def main(argv: list[str]) -> int:
    args = arguments(argv, __doc__)
    if args is None:
        return 2
    base, change, rounds = args
    sys.path.insert(0, str(ROOT / "perfbench"))
    import corpus

    sides = {"base": load(base, "cli", "linalg", "rewrite"),
             "change": load(change, "cli", "linalg", "rewrite")}
    report = {}

    for call, cli_argv in CLI_CALLS.items():
        def run(pg, side, cli_argv=cli_argv):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                pg.cli.main(cli_argv)
            return out.getvalue()

        if run(sides["base"], "base") != run(sides["change"], "change"):
            raise SystemExit(f"{call}: the two checkouts print different stdout")
        per_round = PER_ROUND.get(call, 50)
        report[call] = paired(sides, run, rounds, per_round, "ms" if per_round < 50 else "us")

    rng = np.random.default_rng(12)
    t12 = rng.normal(size=(144, 144)) + 1j * rng.normal(size=(144, 144))
    stack = rng.normal(size=(1, 4, 4)) + 1j * rng.normal(size=(1, 4, 4))
    embeds = {
        "embed T13 d=12": (lambda pg, side: pg.linalg.embed(t12, (0, 2), 3, 12), 3, "ms"),
        "embed T12 d=2 stack of one": (lambda pg, side: pg.linalg.embed(stack, (0, 1), 3), 500, "us"),
        "embed T13 d=2 stack of one": (lambda pg, side: pg.linalg.embed(stack, (0, 2), 3), 500, "us"),
    }
    for call, (run, per_round, unit) in embeds.items():
        report[call] = paired(sides, run, rounds, per_round=per_round, unit=unit)

    spec = corpus.make_spec("transpile-large", 7)
    for c in spec["circuits"]:
        if c["name"] not in ("x10k", "c40k"):
            continue
        custom = corpus.REVERSED_CNOT if c["fusion"] == "custom" else None
        gates, descriptors = {}, {}
        for side, pg in sides.items():
            gates[side] = pg.parse(pg.serialize(fresh(pg, c, custom))).gates
            descriptors[side] = pg.describe_fusion_gate(c["fusion"], (), custom)

        def run(pg, side):
            return [pg.rewrite._matches_fusion_gate(g, descriptors[side]) for g in gates[side]]

        if run(sides["base"], "base") != run(sides["change"], "change"):
            raise SystemExit(f"{c['name']}: the two checkouts match different gates")
        report[f"{c['name']} fusion list"] = {
            "gates": len(c["gates"]), **paired(sides, run, rounds, per_round=3)
        }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
