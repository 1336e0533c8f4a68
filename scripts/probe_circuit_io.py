"""Paired probe of circuit I/O at two checkouts: gate building, ``serialize`` and ``parse``.

Builds the seed-7 ``transpile-large`` gate lists (perfbench/corpus.py) as
fresh ``GateInstance`` objects, one per gate and none shared, the way the
benchmark set-up writes its corpus. It times that build, ``serialize`` of
the fresh circuit and ``parse`` of its canonical text on each checkout,
alternating the sides. Both checkouts are imported into one process, so
the two sides see the same host speed at the same moment. Wall time is
used: process CPU time sums over BLAS threads, so it misjudges a change
that alters how much work reaches BLAS.

usage: python3 scripts/probe_circuit_io.py BASE_CHECKOUT CHANGE_CHECKOUT [ROUNDS]

ROUNDS is at least 2 (default 21). Prints one JSON object: per circuit and
call, each side's median and quartiles in milliseconds, the ratio of the
medians and the rounds the change won. Bad arguments print the usage line
and exit 2. The run exits 1 unless both checkouts build gates with equal
wires and parameters, Python types included, and serialize them to the
same text.
"""

from __future__ import annotations

import gc
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def arguments(argv: list[str], doc: str) -> tuple[str, str, int] | None:
    """(base, change, rounds) from the command line.

    Otherwise prints the usage line of the script's docstring ``doc`` and
    returns None: ROUNDS must be at least 2 for the quartiles.
    """
    if len(argv) in (2, 3) and (len(argv) == 2 or argv[2].isdigit() and int(argv[2]) >= 2):
        return argv[0], argv[1], int(argv[2]) if len(argv) == 3 else 21
    print(next(line for line in doc.splitlines() if line.startswith("usage:")), file=sys.stderr)
    return None


def load(checkout: str, *submodules: str):
    """Import pentagate and ``submodules`` from ``checkout``.

    Earlier imports stay alive through their references.
    """
    for name in [m for m in sys.modules if m == "pentagate" or m.startswith("pentagate.")]:
        del sys.modules[name]
    sys.path.insert(0, str(Path(checkout).resolve() / "src"))
    try:
        module = importlib.import_module("pentagate")
        for name in submodules:
            importlib.import_module(f"pentagate.{name}")
    finally:
        sys.path.pop(0)
    if not Path(module.__file__).resolve().is_relative_to(Path(checkout).resolve()):
        raise SystemExit(f"imported pentagate from {module.__file__}, not from {checkout}")
    return module


def build(pg, spec: dict, custom) -> tuple:
    return tuple(
        pg.GateInstance(name, wires, params, custom if name == "custom" else None)
        for name, wires, params in spec["gates"]
    )


def fresh(pg, spec: dict, custom):
    return pg.Circuit(spec["qubits"], build(pg, spec, custom))


def stored(gates: tuple) -> list:
    """What each gate stores of its wires and parameters, with the Python types."""
    return [(g.name, g.wires, g.params, [type(x) for x in g.wires + g.params]) for g in gates]


def quartiles(values: list[float]) -> list[float]:
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def paired(sides: dict, run, rounds: int, per_round: int = 1, unit: str = "ms") -> dict:
    """Time ``run(module, side)`` on both sides, alternating which goes first.

    Each round times ``per_round`` calls per side in wall time
    (``time.perf_counter``) and records the mean per call in ``unit``
    (ms or us).
    """
    scale = {"ms": 1e3, "us": 1e6}[unit]
    times = {side: [] for side in sides}
    for k in range(rounds):
        order = list(sides) if k % 2 == 0 else list(reversed(sides))
        for side in order:
            gc.collect()
            started = time.perf_counter()
            for _ in range(per_round):
                run(sides[side], side)
            times[side].append(scale * (time.perf_counter() - started) / per_round)
    medians = {side: statistics.median(t) for side, t in times.items()}
    return {
        f"base_{unit}": {"median": medians["base"], "quartiles": quartiles(times["base"])},
        f"change_{unit}": {"median": medians["change"], "quartiles": quartiles(times["change"])},
        "ratio": medians["change"] / medians["base"],
        "change_won": sum(b > a for a, b in zip(times["change"], times["base"])),
        "rounds": rounds,
    }


def main(argv: list[str]) -> int:
    args = arguments(argv, __doc__)
    if args is None:
        return 2
    base, change, rounds = args
    sys.path.insert(0, str(ROOT / "perfbench"))
    import corpus

    spec = corpus.make_spec("transpile-large", 7)
    sides = {"base": load(base), "change": load(change)}
    report = {}
    for c in spec["circuits"]:
        custom = corpus.REVERSED_CNOT if c["fusion"] == "custom" else None
        gates = {side: build(pg, c, custom) for side, pg in sides.items()}
        if stored(gates["base"]) != stored(gates["change"]):
            raise SystemExit(f"{c['name']}: the two checkouts build different gates")
        circuits = {side: pg.Circuit(c["qubits"], gates[side]) for side, pg in sides.items()}
        texts = {side: pg.serialize(circuits[side]) for side, pg in sides.items()}
        if texts["base"] != texts["change"]:
            raise SystemExit(f"{c['name']}: the two checkouts serialize differently")
        calls = {
            "build": lambda pg, side: build(pg, c, custom),
            "serialize": lambda pg, side: pg.serialize(circuits[side]),
            "parse": lambda pg, side: pg.parse(texts[side]),
        }
        for call, run in calls.items():
            report[f"{c['name']} {call}"] = {"gates": len(c["gates"]), **paired(sides, run, rounds)}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
