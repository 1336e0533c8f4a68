"""Benchmark ops: one user-level call each, with its check and its replay.

An op is either a CLI command run in-process through ``pentagate.cli.main``
(stdout, stderr and the exit code captured) or a public library call where
the CLI has no command. Each op carries

- ``run``: the call itself, the only thing the end-to-end timers see;
- ``check``: compares the answer with ``expect``, a reference known by
  construction (see corpus.py) or from the brute-force oracle in
  tests/oracles.py; its first key after ``rc`` is the primary answer;
- ``replay``: for the traced run, the op's essential work redone through
  the package's public functions, one span per call.

The ``build_*`` functions are the workload set-up: they write the corpus,
build the Cayley tables and certify the fusion descriptors, and return the
op list. They take a tracer only so that the traced run can time the
Cayley-table builds.
"""

from __future__ import annotations

import importlib
import io
import json
import math
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

import corpus

TOL = 1e-10
SCAN_TOL = 1e-9
IDENTITY_CLASS = "identity_up_to_tolerance"


class Mismatch(Exception):
    """An op's answer disagrees with its reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def load_package() -> SimpleNamespace:
    """(Re-)import pentagate from scratch and return the modules the ops use."""
    for name in [m for m in sys.modules if m == "pentagate" or m.startswith("pentagate.")]:
        del sys.modules[name]
    pg = importlib.import_module("pentagate")
    return SimpleNamespace(
        pg=pg,
        cli=importlib.import_module("pentagate.cli"),
        scan=importlib.import_module("pentagate.certify"),
        gates=importlib.import_module("pentagate.gates"),
        jsonio=importlib.import_module("pentagate.jsonio"),
    )


@dataclass
class CliResult:
    rc: int
    out: str
    err: str


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], None]
    expect: dict
    span: str
    work: int = 0
    replay: Callable | None = None
    attrs: Callable[[Any], dict] | None = None
    sample: Callable | None = None
    extra: dict = field(default_factory=dict)

    @property
    def is_cli(self) -> bool:
        return self.kind.startswith("cli.")


def verdict(op: Op, outcome) -> str | None:
    """None when the answer matches the reference, else what went wrong."""
    try:
        op.check(outcome, op.expect)
    except Mismatch as exc:
        return f"{op.label}: {exc}"
    except Exception as exc:  # a malformed answer is a wrong answer
        return f"{op.label}: unreadable answer ({type(exc).__name__}: {exc})"
    return None


def traced(tr, name, fn, /, *args, attrs=None, **kwargs):
    if tr is None:
        return fn(*args, **kwargs)
    return tr.call(name, fn, *args, attrs=attrs, **kwargs)


# --- CLI plumbing -------------------------------------------------------------


def cli_op(pkg, kind, label, argv, check, expect, **kw) -> Op:
    main = pkg.cli.main

    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = main(list(argv))
            except SystemExit as exc:  # argparse usage errors exit
                rc = exc.code if isinstance(exc.code, int) else 1
        return CliResult(rc, out.getvalue(), err.getvalue())

    return Op(f"cli.{kind}", label, run, check, expect, span=f"cli.{kind}", **kw)


def payload(result: CliResult, expect: dict):
    require(result.rc == expect["rc"], f"exit code {result.rc}, expected {expect['rc']}")
    return json.loads(result.out)


def replay_dumps(pkg, tr, result: CliResult) -> None:
    tr.call("jsonio.dumps", pkg.jsonio.dumps, json.loads(result.out))


def write_matrix(path: str, matrix) -> None:
    rows = [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(matrix)]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(rows, handle)


def mod_distance(x: float, period: float) -> float:
    r = x % period
    return min(r, period - r)


# --- scan workload ------------------------------------------------------------


def check_scan(result: CliResult, expect: dict) -> None:
    classes = payload(result, expect)
    require(f"scanned {expect['points']} grid points" in result.err, "wrong grid point count")
    require(len(classes) == 1, f"{len(classes)} solution classes, expected the identity alone")
    (point,) = classes
    require(point["operator_class"] == IDENTITY_CLASS, f"class {point['operator_class']}")
    require(point["residual"] < SCAN_TOL, f"residual {point['residual']}")
    canonical = point["canonical_parameters"]
    require(
        all(mod_distance(c, corpus.FOUR_PI) < SCAN_TOL for c in canonical),
        f"canonical parameters {canonical}, expected (0, 0, 0)",
    )


def scan_op(pkg, family, lo, hi, step) -> Op:
    per_axis = corpus.grid_count(lo, hi, step)
    points = per_axis**3
    build = pkg.pg.a_gate if family == "a" else pkg.pg.heisenberg_evolution

    def replay(tr, result):
        axis = pkg.scan.axis_points(float(lo), float(hi), float(step))
        pentagon = pkg.pg.pentagon_residual
        name = f"gates.{build.__name__}"
        with tr.span("certify.scan_grid", points=points, family=family):
            for p0 in axis:
                for p1 in axis:
                    for p2 in axis:
                        m = tr.call(name, build, p0, p1, p2)
                        tr.call("equations.pentagon_residual", pentagon, m, 2, attrs={"d": 2})
        replay_dumps(pkg, tr, result)

    argv = ["scan", "--family", family, "--range", f"{lo}:{hi}", "--step", step]
    return cli_op(
        pkg, "scan", f"scan {family} {lo}:{hi}:{step}", argv, check_scan,
        {"rc": 0, "points": points}, work=points, replay=replay,
        attrs=lambda r: {"points": points, "family": family},
    )


def check_constraints(result: CliResult, expect: dict) -> None:
    data = payload(result, expect)
    echoed = tuple(data["parameter_point"].values())
    require(echoed == expect["params"], f"parameter point {echoed}")
    worst = data["max_residual"]
    if expect["sign"] == 1:
        require(worst < TOL, f"max residual {worst} at a +I point")
    elif expect["sign"] == -1:
        # -I scales the two pentagon sides by +1 and -1: entries differ by 2
        require(abs(worst - 2.0) < 1e-9, f"max residual {worst} at a -I point, expected 2")
    else:
        require(worst > TOL, f"max residual {worst} at a generic point")


def constraints_op(pkg, family, params, sign) -> Op:
    build = pkg.pg.a_gate if family == "a" else pkg.pg.heisenberg_evolution

    def replay(tr, result):
        m = tr.call(f"gates.{build.__name__}", build, *params)
        tr.call("equations.pentagon_residual", pkg.pg.pentagon_residual, m, 2, attrs={"d": 2})
        replay_dumps(pkg, tr, result)

    text = ",".join(repr(p) for p in params)
    argv = ["constraints", "--family", family, f"--params={text}"]
    expect = {"rc": 0 if sign == 1 else 3, "sign": sign, "params": tuple(params)}
    return cli_op(pkg, "constraints", f"constraints {family} {text}", argv, check_constraints, expect, replay=replay)


def check_refine(result, expect: dict) -> None:
    if expect["converged"] is not None:
        require(result.converged == expect["converged"], f"converged={result.converged}")
    if result.converged:
        # the analytic +I condition: every coordinate on the 2*pi lattice,
        # even total parity (c1 = c2 = 0, c3 = 0 mod 4*pi up to periodicity)
        require(corpus.a_gate_sign(result.parameters) == 1, f"converged off +I at {result.parameters}")
        require(result.residual < TOL, f"residual {result.residual}")
        require(result.solution.operator_class == IDENTITY_CLASS, "solution not in the identity class")
    else:
        require(result.residual >= TOL, "not converged but residual under tolerance")


def refine_op(pkg, start, near) -> Op:
    refine = pkg.pg.refine
    return Op(
        "lib.refine", f"refine {'near' if near else 'far'} {start}",
        lambda: refine(start), check_refine, {"converged": True if near else None},
        span="certify.refine",
        attrs=lambda r: {"evaluations": r.evaluations, "iterations": r.iterations, "converged": r.converged},
    )


def build_scan(pkg, spec, workdir, tr=None) -> list[Op]:
    ops = [scan_op(pkg, *grid) for grid in spec["grids"]] + [scan_op(pkg, *corpus.SCAN_HEIS)]
    ops += [constraints_op(pkg, p["family"], p["params"], p["sign"]) for p in spec["points"]]
    ops += [refine_op(pkg, s["start"], s["near"]) for s in spec["starts"]]
    return ops


# --- certify workload ---------------------------------------------------------


def group_table(pkg, name: str, tr=None):
    """A CayleyTable by name: Zn, S3, or an x-separated direct product."""
    table = pkg.pg.CayleyTable

    def build(part):
        if part == "S3":
            return table.symmetric(3)
        return table.cyclic(int(part[1:]))

    def make():
        parts = [build(p) for p in name.split("x")]
        group = parts[0]
        for other in parts[1:]:
            group = table.direct_product(group, other)
        return group

    return traced(tr, "gates.CayleyTable", make, attrs={"group": name})


def check_lib_certify(report, expect: dict) -> None:
    require(report.verdict == expect["verdict"], f"verdict {report.verdict}")
    if expect.get("residual") is not None:
        require(report.residual == expect["residual"], f"residual {report.residual}, expected exactly {expect['residual']}")
    if expect["verdict"] == "not_fusion":
        require(report.residual >= TOL, f"residual {report.residual} under tolerance")
    if "oracle" in expect:
        require(expect["oracle"] == report.residual, f"brute-force oracle residual {expect['oracle']}")


def lib_certify_op(pkg, label, matrix, d, expect) -> Op:
    certify, pentagon, is_unitary = pkg.pg.certify, pkg.pg.pentagon_residual, pkg.pg.is_unitary

    def replay(tr, report):
        tr.call("equations.pentagon_residual", pentagon, matrix, d, attrs={"d": d})

    def sample(tr, report):
        tr.call("linalg.is_unitary", is_unitary, matrix, attrs={"dim": d * d})

    return Op(
        "lib.certify", label, lambda: certify(matrix, d, TOL, name=label), check_lib_certify, expect,
        span="certify.certify", work=1, replay=replay, attrs=lambda r: {"d": d}, sample=sample,
    )


def check_cli_certify(result: CliResult, expect: dict) -> None:
    report = payload(result, expect)
    require(report["verdict"] == expect["verdict"], f"verdict {report['verdict']}")
    for key in ("residual", "oracle"):
        if expect.get(key) is not None:
            require(abs(report["residual"] - expect[key]) < 1e-12, f"residual {report['residual']}, {key} {expect[key]}")
    if expect["verdict"] == "not_fusion":
        require(report["residual"] >= TOL, f"residual {report['residual']} under tolerance")
        require(len(report["witnesses"]) > 0, "not_fusion without witnesses")


def cli_certify_op(pkg, label, argv_gate, matrix, verdict_expected, residual, oracle_map=None) -> Op:
    gate_matrix, certify, dumps = pkg.pg.gate_matrix, pkg.pg.certify, pkg.jsonio.dumps

    def replay(tr, result):
        m = matrix
        if m is None:
            name, params = argv_gate
            m = tr.call("gates.gate_matrix", gate_matrix, name, params)
        tr.call("certify.certify", certify, m, 2, TOL, attrs={"d": 2})
        replay_dumps(pkg, tr, result)

    if matrix is None:
        name, params = argv_gate
        argv = ["certify", "--gate", name]
        if params:
            argv.append("--params=" + ",".join(repr(p) for p in params))
    else:
        argv = ["certify", "--matrix", argv_gate]
    expect = {"rc": 0 if verdict_expected == "fusion" else 3, "verdict": verdict_expected, "residual": residual}
    op = cli_op(pkg, "certify", label, argv, check_cli_certify, expect, work=1, replay=replay)
    if oracle_map is not None:
        op.extra["oracle_map"] = oracle_map
    return op


def check_duality(value, expect: dict) -> None:
    require(value is expect["holds"], f"duality returned {value!r}")


def duality_op(pkg, label, which, matrix) -> Op:
    fn = pkg.pg.check_street_duality if which == "street" else pkg.pg.check_folklore_duality
    return Op(
        "lib.duality", f"{which} duality {label}", lambda: fn(matrix, 2, TOL), check_duality,
        {"holds": True}, span=f"equations.{fn.__name__}", work=1,
    )


def attach_oracles(op_list, oracles, cache: dict) -> None:
    """Fill in pentagon residuals from the brute-force permutation oracle.

    Runs outside every timer; ``cache`` keeps results across set-up repeats.
    """
    for op in op_list:
        if "table" in op.extra:
            table = op.extra["table"]
            key = ("group", op.label)
            if key not in cache:
                rows = [list(r) for r in table.table]
                sides = oracles.pentagon_sides(oracles.group_fusion_map(rows), table.order)
                cache[key] = oracles.residual_norm(sides)
            op.expect["oracle"] = cache[key]
        elif "oracle_map" in op.extra:
            name = op.extra["oracle_map"]
            key = ("map", name)
            if key not in cache:
                cache[key] = oracles.residual_norm(oracles.pentagon_sides(getattr(oracles, name), 2))
            op.expect["oracle"] = cache[key]


def build_certify(pkg, spec, workdir, tr=None) -> list[Op]:
    ops = []
    for name in spec["groups"]:
        group = group_table(pkg, name, tr)
        matrix = traced(tr, "gates.group_algebra_fusion", pkg.pg.group_algebra_fusion, group)
        expect = {"verdict": "fusion", "residual": 0.0}
        op = lib_certify_op(pkg, name, matrix, group.order, expect)
        op.extra["table"] = group
        ops.append(op)
    zoo = []  # (label, matrix) of the 103-gate duality zoo
    identity = np.eye(4, dtype=np.complex128)
    files = {"I": identity, "-CNOT": -corpus.CNOT}
    files.update({f"haar{k}": m for k, m in enumerate(spec["haar2"])})
    for label, m in files.items():
        path = os.path.join(workdir, f"{label}.json")
        write_matrix(path, m)
        files[label] = (path, m)
    # analytic residuals: SWAP 2*sqrt(2); -CNOT scales the sides by +1 and -1
    ops.append(cli_certify_op(pkg, "I", files["I"][0], identity, "fusion", 0.0, "IDENTITY_MAP"))
    ops.append(cli_certify_op(pkg, "SWAP", ("SWAP", ()), None, "not_fusion", 2 * math.sqrt(2), "SWAP_MAP"))
    ops.append(cli_certify_op(pkg, "CNOT", ("CNOT", ()), None, "fusion", 0.0, "CNOT_MAP"))
    ops.append(cli_certify_op(pkg, "-CNOT", files["-CNOT"][0], -corpus.CNOT, "not_fusion", 4 * math.sqrt(2)))
    zoo += [("I", identity), ("SWAP", corpus.SWAP), ("CNOT", corpus.CNOT)]
    for k, params in enumerate(spec["a_params"]):
        ops.append(cli_certify_op(pkg, f"A{k}", ("A", params), None, "not_fusion", None))
        zoo.append((f"A{k}", pkg.pg.a_gate(*params)))
    for k in range(len(spec["haar2"])):
        path, m = files[f"haar{k}"]
        ops.append(cli_certify_op(pkg, f"haar{k}", path, m, "not_fusion", None))
        zoo.append((f"haar{k}", m))
    for d, key in ((3, "haar3"), (4, "haar4")):
        for k, m in enumerate(spec[key]):
            ops.append(lib_certify_op(pkg, f"haar d={d} #{k}", m, d, {"verdict": "not_fusion", "residual": None}))
    for label, m in zoo:
        ops.append(duality_op(pkg, label, "street", m))
        ops.append(duality_op(pkg, label, "folklore", m))
    return ops


# --- transpile workloads ------------------------------------------------------


def gate_list(doc) -> list[tuple]:
    return [(g["name"], tuple(g["wires"]), tuple(g.get("params", ()))) for g in doc["gates"]]


def check_custom_matrices(doc, matrix) -> None:
    for g in doc["gates"]:
        if g["name"] == "custom":
            m = np.array([[complex(re, im) for re, im in row] for row in g["matrix"]])
            require(np.max(np.abs(m - matrix)) < 1e-12, "custom gate matrix changed")


def check_transpile(result: CliResult, expect: dict) -> None:
    report = payload(result, expect)
    require(report["sites_found"] == expect["sites"], f"{report['sites_found']} sites, {expect['sites']} planted")
    require(report["sites_rewritten"] == expect["sites"], "sites_rewritten differs from sites planted")
    require(report["gate_count_before"] == expect["before"]["gate_count"], "gate_count_before")
    require(report["gate_count_after"] == expect["after"]["gate_count"], "gate count did not change by 3 per site")
    require(report["depth_before"] == expect["before"]["depth"], "depth_before")
    require(report["depth_after"] == expect["after"]["depth"], "depth_after")
    require(report["equivalence_verified"] is expect["verify"], "equivalence_verified")
    if expect["verify"]:
        require(report["phase_distance"] < TOL, f"phase distance {report['phase_distance']}")
    else:
        require(report["phase_distance"] is None, "phase distance reported without verification")
    with open(expect["out_path"], encoding="utf-8") as handle:
        doc = json.load(handle)
    require(gate_list(doc) == expect["gates_after"], "rewritten circuit differs from the planted rewrite")
    if expect["custom"] is not None:
        check_custom_matrices(doc, expect["custom"])


def replay_transpile(pkg, tr, text, rule, descriptor_args, fixed_point, verify, n):
    pg = pkg.pg
    circuit = tr.call("circuit.parse", pg.parse, text, attrs={"gates": text.count('"name"')})
    descriptor = tr.call("rewrite.describe_fusion_gate", pg.describe_fusion_gate, **descriptor_args)
    find = pg.find_compress_sites if rule == "compress" else pg.find_expand_sites
    apply = pg.compress if rule == "compress" else pg.expand
    current = circuit
    while True:
        with tr.span(f"rewrite.{find.__name__}", gates=len(current.gates)) as span:
            sites = find(current, descriptor)
            span.attrs["sites"] = len(sites)
        current, _ = tr.call(f"rewrite.{rule}", apply, current, descriptor, verify=False)
        if not (fixed_point and sites):
            break
    if verify:
        with tr.span("rewrite.verify"):
            before = tr.call("circuit.to_unitary", pg.to_unitary, circuit, attrs={"n": n, "gates": len(circuit.gates)})
            after = tr.call("circuit.to_unitary", pg.to_unitary, current, attrs={"n": n, "gates": len(current.gates)})
            tr.call("linalg.phase_distance", pg.phase_distance, before, after)
    tr.call("circuit.serialize", pg.serialize, current, attrs={"gates": len(current.gates)})


def transpile_op(pkg, c, paths, fusion_arg, descriptor_args, custom, fixed_point, verify) -> Op:
    in_path, out_path = paths
    argv = ["transpile", "--in", in_path, "--out", out_path, "--rule", c["rule"], "--fusion-gate", fusion_arg]
    if fixed_point:
        argv.append("--fixed-point")
    if not verify:
        argv.append("--no-verify")
    n = c["qubits"]

    def replay(tr, result):
        with open(in_path, encoding="utf-8") as handle:
            text = handle.read()
        replay_transpile(pkg, tr, text, c["rule"], descriptor_args, fixed_point, verify, n)
        replay_dumps(pkg, tr, result)

    def sample(tr, result):
        # one embed per simulated circuit, for the per-call embed cost
        name, wires, params = c["gates"][0]
        m = custom if name == "custom" else pkg.pg.gate_matrix(name, params)
        tr.call("linalg.embed", pkg.pg.embed, m, wires, n, attrs={"n": n})

    expect = {
        "rc": 0, "sites": c["sites"], "before": c["stats"], "after": c["stats_after"], "verify": verify,
        "out_path": out_path, "gates_after": c["after"], "custom": custom,
    }
    label = f"transpile {c['rule']} {c['name']}{' fixed-point' if fixed_point else ''}"
    return cli_op(pkg, "transpile", label, argv, check_transpile, expect, work=len(c["gates"]), replay=replay,
                  sample=sample if verify else None)


def check_verify(result: CliResult, expect: dict) -> None:
    report = payload(result, expect)
    require(report["equivalent"] is expect["equivalent"], f"equivalent={report['equivalent']}")
    if expect["equivalent"]:
        require(report["phase_distance"] < TOL, f"phase distance {report['phase_distance']}")
    else:
        require(report["phase_distance"] > 1e-6, f"phase distance {report['phase_distance']} for a perturbed circuit")


def verify_op(pkg, label, first, second, n, equivalent) -> Op:
    pg = pkg.pg

    def replay(tr, result):
        circuits = []
        for path in (first, second):
            with open(path, encoding="utf-8") as handle:
                circuits.append(tr.call("circuit.parse", pg.parse, handle.read()))
        us = [tr.call("circuit.to_unitary", pg.to_unitary, c, attrs={"n": n, "gates": len(c.gates)}) for c in circuits]
        tr.call("linalg.phase_distance", pg.phase_distance, *us)
        replay_dumps(pkg, tr, result)

    expect = {"rc": 0 if equivalent else 3, "equivalent": equivalent}
    return cli_op(pkg, "verify", f"verify {label}", ["verify", "--a", first, "--b", second], check_verify, expect, replay=replay)


def check_route(result: CliResult, expect: dict) -> None:
    report = payload(result, expect)
    require(report["swaps_added"] == expect["swaps"], f"swaps_added {report['swaps_added']}, expected {expect['swaps']}")
    require(report["gate_count"] == expect["gates"] + expect["swaps"], "routed gate count")
    require(report["nonlocal_count"] == 0, "non-adjacent gates remain")
    with open(expect["out_path"], encoding="utf-8") as handle:
        gates = gate_list(json.load(handle))
    require(len(gates) == report["gate_count"], "routed file gate count")
    require(all(len(w) != 2 or abs(w[0] - w[1]) == 1 for _, w, _ in gates), "routed file has a non-adjacent gate")


def route_op(pkg, c, in_path, out_path) -> Op:
    pg = pkg.pg

    def replay(tr, result):
        with open(in_path, encoding="utf-8") as handle:
            circuit = tr.call("circuit.parse", pg.parse, handle.read())
        routed = tr.call("circuit.route_line", pg.route_line, circuit)
        tr.call("circuit.serialize", pg.serialize, routed, attrs={"gates": len(routed.gates)})
        tr.call("circuit.circuit_stats", pg.circuit_stats, routed)
        replay_dumps(pkg, tr, result)

    expect = {"rc": 0, "swaps": c["swaps"], "gates": len(c["gates"]), "out_path": out_path}
    argv = ["route", "--in", in_path, "--out", out_path]
    return cli_op(pkg, "route", f"route {c['name']}", argv, check_route, expect, replay=replay)


def check_stats(result: CliResult, expect: dict) -> None:
    report = payload(result, expect)
    require(report == expect["stats"], f"stats {report}, expected {expect['stats']}")


def stats_op(pkg, c, in_path) -> Op:
    pg = pkg.pg

    def replay(tr, result):
        with open(in_path, encoding="utf-8") as handle:
            circuit = tr.call("circuit.parse", pg.parse, handle.read())
        tr.call("circuit.circuit_stats", pg.circuit_stats, circuit)
        replay_dumps(pkg, tr, result)

    return cli_op(pkg, "stats", f"stats {c['name']}", ["stats", "--in", in_path], check_stats,
                  {"rc": 0, "stats": c["stats"]}, replay=replay)


def write_circuit(pkg, c, path, custom=None) -> None:
    """Build the circuit through the package and write its canonical JSON."""
    G = pkg.pg.GateInstance
    gates = tuple(
        G(name, wires, params, custom if name == "custom" else None) for name, wires, params in c["gates"]
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(pkg.pg.serialize(pkg.pg.Circuit(c["qubits"], gates)))


def fusion_for(pkg, c, workdir):
    """(--fusion-gate argument, describe_fusion_gate kwargs, custom matrix)."""
    if c["fusion"] == "custom":
        path = os.path.join(workdir, "fusion.json")
        write_matrix(path, corpus.REVERSED_CNOT)
        kwargs = {"matrix": corpus.REVERSED_CNOT, "tol": TOL}
        arg, custom = "@" + path, corpus.REVERSED_CNOT
    else:
        kwargs = {"name": c["fusion"], "tol": TOL}
        arg, custom = c["fusion"], None
    pkg.pg.describe_fusion_gate(**kwargs)  # certify the descriptor once at set-up
    return arg, kwargs, custom


def paths_for(workdir, c):
    return [os.path.join(workdir, f"{c['name']}.{suffix}.json") for suffix in ("in", "out", "routed")]


def build_transpile_verify(pkg, spec, workdir, tr=None) -> list[Op]:
    ops = []
    for c in spec["circuits"]:
        in_path, out_path, _ = paths_for(workdir, c)
        write_circuit(pkg, c, in_path)
        arg, kwargs, custom = fusion_for(pkg, c, workdir)
        fixed_point = c["name"] == "c8"
        ops.append(transpile_op(pkg, c, (in_path, out_path), arg, kwargs, custom, fixed_point, verify=True))
        ops.append(verify_op(pkg, c["name"], in_path, out_path, c["qubits"], True))
    # the first circuit's rewrite with an X gate appended: not equivalent
    first = spec["circuits"][0]
    perturbed = dict(first, gates=first["after"] + [("X", (0,), ())])
    bad_path = os.path.join(workdir, "perturbed.json")
    write_circuit(pkg, perturbed, bad_path)
    ops.append(verify_op(pkg, "perturbed", paths_for(workdir, first)[0], bad_path, first["qubits"], False))
    return ops


def build_transpile_large(pkg, spec, workdir, tr=None) -> list[Op]:
    ops = []
    for c in spec["circuits"]:
        in_path, out_path, routed_path = paths_for(workdir, c)
        arg, kwargs, custom = fusion_for(pkg, c, workdir)
        write_circuit(pkg, c, in_path, custom)
        ops.append(transpile_op(pkg, c, (in_path, out_path), arg, kwargs, custom, fixed_point=True, verify=False))
        if custom is not None:
            ops.append(route_op(pkg, c, in_path, routed_path))
        ops.append(stats_op(pkg, c, in_path))
    return ops


BUILDERS = {
    "scan": build_scan,
    "certify": build_certify,
    "transpile-verify": build_transpile_verify,
    "transpile-large": build_transpile_large,
}


# --- probes for the traced run ------------------------------------------------


def pentagon_op(pkg, label, matrix, d) -> Op:
    pentagon = pkg.pg.pentagon_residual

    def check(res, expect):
        require(res.residual == expect["residual"], f"residual {res.residual}")

    return Op("lib.pentagon", label, lambda: pentagon(matrix, d), check, {"residual": 0.0},
              span="equations.pentagon_residual", attrs=lambda r: {"d": d})


def probe_ops(pkg, workdir, tr) -> list[tuple[set, Callable[[], Op]]]:
    """Small fixed ops, each tagged with the layer keys (see layers.py) it covers.

    The traced run builds and runs a probe only for keys its workload never
    reached, so every per-layer metric is measured on every workload.
    """

    def z8():
        group = group_table(pkg, "Z8", tr)
        matrix = pkg.pg.group_algebra_fusion(group)
        return lib_certify_op(pkg, "Z8", matrix, 8, {"verdict": "fusion", "residual": 0.0})

    def z12():
        return pentagon_op(pkg, "Z12", pkg.pg.group_algebra_fusion(group_table(pkg, "Z12")), 12)

    def circuit(n):
        rng = np.random.default_rng(n)
        c = corpus.transpile_circuit(rng, f"probe{n}", n, 5, 1, "compress", interleave=0, barrier=False)
        paths = paths_for(workdir, c)
        if not os.path.exists(paths[0]):
            write_circuit(pkg, c, paths[0])
        return c, paths

    def transpile(n):
        c, (in_path, out_path, _) = circuit(n)
        arg, kwargs, custom = fusion_for(pkg, c, workdir)
        return transpile_op(pkg, c, (in_path, out_path), arg, kwargs, custom, False, True)

    def route():
        c, (in_path, _, routed_path) = circuit(8)
        return route_op(pkg, c, in_path, routed_path)

    def stats():
        c, (in_path, _, _) = circuit(8)
        return stats_op(pkg, c, in_path)

    return [
        ({"cli.scan", "gates.a_gate", "pentagon@2", "jsonio.dumps"}, lambda: scan_op(pkg, "a", "-0.4", "0.4", "0.4")),
        ({"certify.refine"}, lambda: refine_op(pkg, (0.05, -0.03, 0.02), True)),
        ({"gates.CayleyTable", "certify.certify", "pentagon@8", "linalg.is_unitary"}, z8),
        ({"pentagon@12"}, z12),
        ({"duality"}, lambda: duality_op(pkg, "CNOT", "street", corpus.CNOT)),
        ({"to_unitary@8", "embed@8", "circuit.parse", "circuit.serialize", "rewrite.describe_fusion_gate",
          "rewrite.find", "rewrite.apply", "rewrite.verify", "linalg.phase_distance", "cli"}, lambda: transpile(8)),
        ({"to_unitary@10", "embed@10"}, lambda: transpile(10)),
        ({"circuit.route_line"}, route),
        ({"circuit.circuit_stats"}, stats),
    ]
