"""Paired probe of circuit I/O at two checkouts: gate building, ``serialize`` and ``parse``.

Builds the seed-7 ``transpile-large`` gate lists (perfbench/corpus.py) as
fresh ``GateInstance`` objects, one per gate and none shared, the way the
benchmark set-up writes its corpus. It times that build, ``serialize`` of
the fresh circuit, ``json.loads`` of its canonical text and ``parse`` of
that text on each checkout, alternating the sides. Both checkouts are
imported into one process, so the two sides see the same host speed at
the same moment. Wall time is used: process CPU time sums over BLAS
threads, so it misjudges a change that alters how much work reaches BLAS.

``json.loads`` is the floor ``parse`` is measured against: the same stdlib
call on both sides, with the cyclic collector enabled, as a caller has it.
The two are timed after the gate lists are dropped, since a collection
inside a timed call walks every live container: with the corpus alive,
``json.loads`` of c40k took about half as long again as in a small process.

usage: python3 scripts/probe_circuit_io.py BASE_CHECKOUT CHANGE_CHECKOUT [ROUNDS]

ROUNDS is at least 2 (default 21). Prints one JSON object: per circuit and
call, each side's median and quartiles in milliseconds, the ratio of the
medians, the rounds the change won and each side's median minor page
faults per call (``timed``). Each ``parse`` row adds
``over_json_loads``: per side, the median over the rounds of its ``parse``
time over its ``json.loads`` time, the two timed back to back. Bad
arguments print the usage line and exit 2. The run exits 1 unless both
checkouts build gates with equal wires and parameters, Python types
included, and serialize them to the same text.
"""

from __future__ import annotations

import gc
import importlib
import json
import resource
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


def timed(sides: dict, calls: dict, rounds: int, per_round: int = 1,
          scale: float = 1e3) -> tuple[dict, dict]:
    """Times of each ``calls[name](module, side)``, by name and side, in ms
    by default, and the minor page faults per call.

    Each round runs both sides, alternating which goes first, and a side
    runs the calls back to back. Each call is timed ``per_round`` times in
    wall time (``time.perf_counter``), and the mean per call is recorded,
    times ``scale``. Beside it goes the mean count of minor page faults
    per call, read from ``ru_minflt`` of this process's own
    ``RUSAGE_SELF`` (its BLAS threads count, no other process does): a
    call whose temporaries are mapped and unmapped each time faults their
    pages in again on every call.
    """
    times = {call: {side: [] for side in sides} for call in calls}
    faults = {call: {side: [] for side in sides} for call in calls}
    for k in range(rounds):
        for side in list(sides) if k % 2 == 0 else list(reversed(sides)):
            for call, run in calls.items():
                gc.collect()
                faulted = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                started = time.perf_counter()
                for _ in range(per_round):
                    run(sides[side], side)
                times[call][side].append(scale * (time.perf_counter() - started) / per_round)
                faulted = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faulted
                faults[call][side].append(faulted / per_round)
    return times, faults


def summary(times: dict, faults: dict, unit: str = "ms") -> dict:
    """Each side's median and quartiles, the ratio of the medians, the
    rounds the change won and each side's median minor page faults per call."""
    medians = {side: statistics.median(t) for side, t in times.items()}
    return {
        f"base_{unit}": {"median": medians["base"], "quartiles": quartiles(times["base"])},
        f"change_{unit}": {"median": medians["change"], "quartiles": quartiles(times["change"])},
        "ratio": medians["change"] / medians["base"],
        "change_won": sum(b > a for a, b in zip(times["change"], times["base"])),
        "rounds": len(times["base"]),
        "faults_per_call": {side: statistics.median(f) for side, f in faults.items()},
    }


def paired(sides: dict, run, rounds: int, per_round: int = 1, unit: str = "ms") -> dict:
    """``summary`` of ``run(module, side)`` timed by ``timed`` in ``unit`` (ms or us)."""
    scale = {"ms": 1e3, "us": 1e6}[unit]
    times, faults = timed(sides, {unit: run}, rounds, per_round, scale)
    return summary(times[unit], faults[unit], unit)


def gate_rows(sides: dict, rounds: int, report: dict) -> dict:
    """Adds each circuit's build and serialize rows to ``report``; returns its canonical text by name."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import corpus

    texts = {}
    for c in corpus.make_spec("transpile-large", 7)["circuits"]:
        custom = corpus.REVERSED_CNOT if c["fusion"] == "custom" else None
        gates = {side: build(pg, c, custom) for side, pg in sides.items()}
        if stored(gates["base"]) != stored(gates["change"]):
            raise SystemExit(f"{c['name']}: the two checkouts build different gates")
        circuits = {side: pg.Circuit(c["qubits"], gates[side]) for side, pg in sides.items()}
        text = {side: pg.serialize(circuits[side]) for side, pg in sides.items()}
        if text["base"] != text["change"]:
            raise SystemExit(f"{c['name']}: the two checkouts serialize differently")
        calls = {
            "build": lambda pg, side: build(pg, c, custom),
            "serialize": lambda pg, side: pg.serialize(circuits[side]),
        }
        for call, run in calls.items():
            report[f"{c['name']} {call}"] = {"gates": len(c["gates"]), **paired(sides, run, rounds)}
        texts[c["name"]] = text["base"]
    return texts


def main(argv: list[str]) -> int:
    args = arguments(argv, __doc__)
    if args is None:
        return 2
    base, change, rounds = args
    sides = {"base": load(base), "change": load(change)}
    report = {}
    texts = gate_rows(sides, rounds, report)
    # The gate lists are gone by now, so a collection inside json.loads or
    # parse walks about what a CLI process holds, not this probe's corpus.
    for name, text in texts.items():
        calls = {"json.loads": lambda pg, side: json.loads(text),
                 "parse": lambda pg, side: pg.parse(text)}
        times, faults = timed(sides, calls, rounds)
        for call, by_side in times.items():
            report[f"{name} {call}"] = {"gates": report[f"{name} build"]["gates"],
                                        **summary(by_side, faults[call])}
        report[f"{name} parse"]["over_json_loads"] = {
            side: statistics.median(p / j for p, j in zip(times["parse"][side], times["json.loads"][side]))
            for side in sides
        }
    print(json.dumps(dict(sorted(report.items())), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
