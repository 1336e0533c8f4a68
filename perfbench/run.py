"""pentagate benchmark: seeded workloads, checked answers, e2e and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Workloads: scan, certify, transpile-verify, transpile-large (see
perfbench/WORKLOADS.md). A run sets the workload up several times (the
median, scaled to the reference host speed, is ``setup_s``), then repeats the workload's op list, one pass at a
time, for about ``--seconds`` seconds. Every answer is checked right after
its op, outside the timers. Between ops the run times chunks of reference
units (reference.py) and reports op times scaled to the reference host
speed, each figure a median over the passes.

With ``--trace 0`` the last stdout line holds the end-to-end metrics. With
``--trace 1`` the run makes one untraced pass and one traced pass (every op
wrapped in spans, its essential work replayed through public functions),
writes the spans as JSONL under .perfbench_work/traces/, and the last line
holds the per-layer metrics. The line before the last one holds the run's
details: environment, op counts, error rate, the tail latency and the
checker's self-test.

The package is imported from ./src of the checkout the script sits in; the
brute-force oracle from ./tests/oracles.py. Without them the run exits 2.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("scan", "certify", "transpile-verify", "transpile-large")
#: Set-up repeats: at least SETUP_REPEATS, more while they add up to under
#: SETUP_MIN_S, at most SETUP_MAX_REPEATS; setup_s is the median of their
#: times scaled to the reference host speed.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 15
#: Set-ups are short; the gauge chunks beside one are sized as for an op of
#: at least this many seconds.
SETUP_GAUGE_S = 0.2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
#: Named throughput of each workload, reported as ``work_per_s``.
WORK_UNIT = {
    "scan": "grid_points_per_s",
    "certify": "verdicts_per_s",
    "transpile-verify": "gates_per_s",
    "transpile-large": "gates_per_s",
}
#: Reference units each workload's times are scaled by (reference.py): the
#: kind of work its time goes to.
GAUGE = {
    "scan": "python",
    "certify": "blas",
    "transpile-verify": "blas",
    "transpile-large": "python",
}


def cap_blas_threads(nproc: int) -> dict:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    caps = {}
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        value = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(value)
        caps[var] = value
    return caps


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(np, caps: dict, nproc: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "git_commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": caps,
        "nproc": nproc,
        "platform": platform.platform(),
    }


def load_oracles():
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def corpus_digest(workdir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(workdir.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Result:
    __slots__ = ("op", "seconds", "outcome", "error")

    def __init__(self, op, seconds, outcome, error):
        self.op, self.seconds, self.outcome, self.error = op, seconds, outcome, error


def execute(ops, op, tr=None) -> Result:
    """Run one op (inside spans when traced) and check its answer untimed."""
    outcome, error = None, None
    if tr is None:
        started = perf_counter()
        try:
            outcome = op.run()
        except Exception as exc:
            error = f"{op.label}: raised {type(exc).__name__}: {exc}"
        seconds = perf_counter() - started
    else:
        with tr.span("op", kind=op.kind, label=op.label):
            with tr.span(op.span) as call:
                try:
                    outcome = op.run()
                except Exception as exc:
                    error = f"{op.label}: raised {type(exc).__name__}: {exc}"
            if error is None:
                try:
                    if op.attrs is not None:
                        call.attrs.update(op.attrs(outcome))
                    if op.replay is not None:
                        with tr.span("replay"):
                            op.replay(tr, outcome)
                    if op.sample is not None:
                        with tr.span("sample"):
                            op.sample(tr, outcome)
                except Exception as exc:
                    error = f"{op.label}: replay raised {type(exc).__name__}: {exc}"
        seconds = call.duration
    if error is None:
        error = ops.verdict(op, outcome)
    return Result(op, seconds, outcome, error)


def run_pass(ops, op_list, tr=None, first_id=1) -> list[Result]:
    results = []
    for k, op in enumerate(op_list):
        if tr is not None:
            tr.op_id = first_id + k
        results.append(execute(ops, op, tr))
    return results


def gauged_pass(ops, op_list, gauge, last) -> tuple[list[Result], list[float]]:
    """One untraced pass with a reference chunk before, between and after ops.

    A chunk is sized by the longer of its two neighbours, ``last`` holding
    each op's latest time (0 before its first run). Returns the results
    and, for each op, the host speed read from the chunks on either side.
    """
    results, speeds = [], []
    before = gauge.chunk(last[0])
    for k, op in enumerate(op_list):
        result = execute(ops, op)
        last[k] = result.seconds
        after = gauge.chunk(max(result.seconds, last[(k + 1) % len(op_list)]))
        results.append(result)
        speeds.append(gauge.speed(before, after))
        before = after
    return results, speeds


def perturb(value):
    """A wrong version of an expected answer."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if value is None:
        return 1
    if isinstance(value, str):
        return {"fusion": "not_fusion", "not_fusion": "fusion"}.get(value, value + "?")
    if isinstance(value, dict):
        return {k: perturb(v) for k, v in value.items()}
    raise TypeError(f"cannot perturb {type(value).__name__}")


def checker_self_test(ops, results: list[Result]) -> dict:
    """Corrupted answers and wrong expectations must all be flagged.

    Uses the first correct op of each kind from the run: its exit code or
    return value is corrupted, its stdout cut short, and its primary
    expected answer (first key of ``expect`` after the exit code) changed.
    Reports the error rate over these cases, which must be 1.
    """
    cases, flagged, missed = 0, 0, []
    seen = set()
    for r in results:
        if r.error is not None or r.op.kind in seen:
            continue
        seen.add(r.op.kind)
        variants = []
        if r.op.is_cli:
            o = r.outcome
            variants.append(("exit code", r.op, ops.CliResult(o.rc + 1, o.out, o.err)))
            variants.append(("truncated stdout", r.op, ops.CliResult(o.rc, o.out[: len(o.out) // 2], o.err)))
        else:
            variants.append(("no return value", r.op, None))
        primary = next(k for k in r.op.expect if k != "rc")
        wrong = dict(r.op.expect, **{primary: perturb(r.op.expect[primary])})
        variants.append((f"wrong {primary}", ops.Op(**{**vars(r.op), "expect": wrong}), r.outcome))
        for what, op, outcome in variants:
            cases += 1
            if ops.verdict(op, outcome) is not None:
                flagged += 1
            else:
                missed.append(f"{r.op.kind}: {what}")
    return {"cases": cases, "error_rate": flagged / cases if cases else 0.0, "missed": missed}


def tail(latencies: list[float]) -> dict | None:
    """Highest integer percentile with at least 10 ops beyond it (needs 20 ops)."""
    n = len(latencies)
    if n < 20:
        return None
    p = int(100 * (1 - 10 / n))
    value = statistics.quantiles(latencies, n=100, method="inclusive")[p - 1]
    return {"percentile": p, "value_ms": 1e3 * value, "samples": n}


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "pentagate" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"perfbench: no pentagate checkout at {ROOT} (need src/pentagate and tests/oracles.py)", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    caps = cap_blas_threads(nproc)
    sys.path.insert(0, str(src))

    import numpy as np

    import corpus
    import layers
    import ops
    import reference
    import spans

    work_root = ROOT / ".perfbench_work"
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, corpus, layers, ops, reference, spans, workdir, work_root, environment(np, caps, nproc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, corpus, layers, ops, reference, spans, workdir, work_root, env) -> int:
    spec = corpus.make_spec(args.workload, args.seed)
    build = ops.BUILDERS[args.workload]
    oracles, oracle_cache = load_oracles(), {}
    problems = []
    tr = spans.Tracer() if args.trace else None

    # set-up is Python work on every workload (imports, small numpy, file
    # writes), so python units gauge it
    setup_gauge = reference.Gauge("python")
    setup_times, setup_scaled, digests = [], [], set()
    before = setup_gauge.chunk(SETUP_GAUGE_S)
    while True:
        started = perf_counter()
        pkg = ops.load_package()
        op_list = build(pkg, spec, str(workdir), tr)
        elapsed = perf_counter() - started
        after = setup_gauge.chunk(max(elapsed, SETUP_GAUGE_S))
        setup_times.append(elapsed)
        setup_scaled.append(elapsed * setup_gauge.speed(before, after))
        before = after
        digests.add(corpus_digest(workdir))
        ops.attach_oracles(op_list, oracles, oracle_cache)
        reps = len(setup_times)
        if args.trace or reps >= SETUP_MAX_REPEATS or (reps >= SETUP_REPEATS and sum(setup_times) >= SETUP_MIN_S):
            break
    if not Path(pkg.pg.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        print(f"perfbench: imported pentagate from {pkg.pg.__file__}, not from this checkout", file=sys.stderr)
        return 2
    if len(digests) != 1:
        problems.append("set-up wrote a different corpus on a repeat")

    # The run holds the corpus and its expected answers, objects a user's
    # process would not have; keep them out of the collector's scans.
    gc.collect()
    gc.freeze()
    results: list[Result] = []
    passes: list[list[Result]] = []
    if args.trace:
        passes.append(run_pass(ops, op_list))
        tr.origin = perf_counter()
        traced = run_pass(ops, op_list, tr)
        covered = layers.covered(tr.spans)
        probe_results = []
        for keys, factory in ops.probe_ops(pkg, str(workdir), tr):
            if not keys <= covered:
                tr.op_id = len(op_list) + 1 + len(probe_results)
                probe_results.append(execute(ops, factory(), tr))
                covered |= layers.covered(tr.spans)
        results = passes[0] + traced + probe_results
    else:
        gauge = reference.Gauge(GAUGE[args.workload])
        speeds: list[list[float]] = []
        last = [0.0] * len(op_list)
        started = perf_counter()
        # whole passes only, so every run sees the same op mix; stop when
        # another pass would end nearer past --seconds than this one ends short
        while True:
            pass_results, pass_speeds = gauged_pass(ops, op_list, gauge, last)
            passes.append(pass_results)
            speeds.append(pass_speeds)
            elapsed = perf_counter() - started
            if elapsed + 0.5 * elapsed / len(passes) >= args.seconds:
                break
        results = [r for p in passes for r in p]

    errors = [r.error for r in results if r.error is not None]
    self_test = checker_self_test(ops, results)
    if self_test["error_rate"] != 1.0:
        problems.append(f"checker self-test missed {self_test['missed']}")
    latencies = [r.seconds for r in results]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "passes": len(passes) + (1 if args.trace else 0),
        "ops_per_pass": len(op_list),
        "ops_attempted": len(results),
        "error_rate": len(errors) / len(results),
        "errors": errors[:5],
        "problems": problems,
        "checker_self_test": self_test,
        "setup_repeats_s": setup_times,
    }

    if args.trace:
        untraced = sum(r.seconds for r in passes[0])
        traced_time = sum(r.seconds for r in traced)
        metrics = layers.per_layer(tr.spans, traced_time / untraced - 1)
        trace_dir = work_root / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
        spans.write_jsonl(trace_path, tr.spans, tr.origin, {"details": details})
        own = spans.self_times(tr.spans)
        details["trace_file"] = str(trace_path.relative_to(ROOT))
        details["spans"] = len(tr.spans)
        details["probes"] = [r.op.label for r in probe_results]
        details["self_s_by_span"] = {k: round(v, 6) for k, v in list(layers.self_time_by_name(tr.spans, own).items())[:25]}
    else:
        # times at the reference host speed (see reference.py); each figure
        # is a median over the run's passes
        timed = [k for k, op in enumerate(op_list) if op.work]
        work = sum(op_list[k].work for k in timed)
        scaled = [[r.seconds * v for r, v in zip(p, sp)] for p, sp in zip(passes, speeds)]
        wall = statistics.median(sum(p) for p in scaled)
        rate = work / statistics.median(sum(p[k] for k in timed) for p in scaled)
        per_op = [statistics.median(p[k] for p in scaled) for k in range(len(op_list))]
        metrics = {
            "setup_s": metric(statistics.median(setup_scaled), "s"),
            "wall_s": metric(wall, "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "work_per_s": metric(rate, "1/s"),
        }
        # latency figures stay out of the bounded metrics (WORKLOADS.md)
        details["op_p50_ms"] = 1e3 * statistics.median(per_op)
        details["op_tail_ms"] = tail(latencies)
        details[WORK_UNIT[args.workload]] = rate
        details["gauge"] = gauge.kind
        details["host_speed"] = [round(statistics.median(sp), 4) for sp in speeds]
        details["measured_setup_s"] = statistics.median(setup_times)
        details["measured_wall_s"] = statistics.median(sum(r.seconds for r in p) for p in passes)
        details["measured_work_per_s"] = work / statistics.median(sum(p[k].seconds for k in timed) for p in passes)

    print(json.dumps(details))
    print(json.dumps({
        "correct": not errors and not problems,
        "attempted": len(results),
        "failed": len(errors),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
