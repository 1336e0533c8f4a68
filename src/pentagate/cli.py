"""Command-line front end.

Commands: certify, constraints, scan, transpile, verify, route, stats.

Exit codes are the scripting API:

    0  success or affirmative verdict
    1  usage error (unknown flag, malformed range, missing argument)
    2  invalid input (bad circuit or matrix file, unknown gate,
       non-unitary or uncertified gate)
    3  negative verdict (not a fusion operator, circuits not equivalent,
       rewrite verification failure)

Reports go to standard output as deterministic JSON; diagnostics go to
standard error and are silenced by --quiet. There is no configuration
file and no environment lookup; flags are the whole interface.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import jsonio
from .certify import (
    SCAN_TOLERANCE,
    a_gate_constraints,
    axis_points,
    certify,
    heisenberg_constraints,
    scan_fusion_solutions,
)
from .circuit import Circuit, circuit_stats, parse, route_line, serialize, to_unitary
from .errors import (
    GridError,
    PentagateError,
    RewriteVerificationError,
    UncertifiedGateError,
)
from .gates import gate_arity, gate_matrix
from .linalg import DEFAULT_TOLERANCE, as_matrix, check_tolerance, phase_distance
from .rewrite import describe_fusion_gate, transpile

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_NEGATIVE = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_params(text: str) -> tuple[float, ...]:
    if not text:
        return ()
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse parameter list {text!r}") from None


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"range must look like lo:hi, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"range bounds must be numbers, got {text!r}") from None


def _parse_tolerance(text: str) -> float:
    try:
        return check_tolerance(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.write("\n")


def _load_circuit(path: str) -> Circuit:
    return parse(_read_text(path))


def _load_matrix_file(path: str):
    data = json.loads(_read_text(path))
    try:
        return as_matrix([[complex(e[0], e[1]) for e in row] for row in data])
    except (TypeError, IndexError, KeyError):
        raise ValueError(
            f"{path}: expected a square array of [re, im] pairs"
        ) from None


def _resolve_gate_spec(name: str | None, params: str, matrix_path: str | None):
    """Name + params, or a matrix file, to (display name, params, matrix)."""
    values = _parse_params(params)
    if matrix_path is not None:
        if name is not None:
            raise ValueError("give either a gate name or a matrix file, not both")
        return "custom", (), _load_matrix_file(matrix_path)
    if name is None:
        raise ValueError("no gate given")
    if name.startswith("@"):
        return "custom", (), _load_matrix_file(name[1:])
    if gate_arity(name) != 2:
        raise ValueError(f"certification needs a two-qubit gate; {name!r} is not one")
    return name, values, gate_matrix(name, values)


#: Flags whose values may start with a minus sign (negative angles and
#: ranges); argparse only accepts such values in --flag=value form, so the
#: space-separated form is folded before parsing.
_NEGATIVE_VALUE_FLAGS = ("--range", "--params", "--fusion-params")


def _fold_negative_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if (
            token in _NEGATIVE_VALUE_FLAGS
            and i + 1 < len(argv)
            and argv[i + 1].startswith("-")
            and not argv[i + 1].startswith("--")
        ):
            out.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def _diag(message: str, quiet: bool) -> None:
    if not quiet:
        print(message, file=sys.stderr)


def _emit(payload) -> None:
    print(jsonio.dumps(payload))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pentagate", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--quiet", action="store_true", help="suppress diagnostics")
        p.add_argument(
            "--tol", type=_parse_tolerance, default=None,
            help="comparison tolerance (finite, positive)"
        )
        return p

    p = add("certify", "certify a two-qubit gate as a fusion operator")
    p.add_argument("--gate", help="built-in gate name, or @file.json for a matrix")
    p.add_argument("--params", default="", help="comma-separated gate parameters")
    p.add_argument("--matrix", help="JSON file with a 4x4 matrix of [re, im] pairs")

    p = add("constraints", "evaluate the pentagon constraints at a parameter point")
    p.add_argument("--family", choices=("a", "heis"), required=True)
    p.add_argument("--params", required=True, help="comma-separated parameter triple")

    p = add("scan", "grid-scan a gate family for pentagon solutions")
    p.add_argument("--family", choices=("a", "heis"), required=True)
    p.add_argument("--range", dest="axis_range", type=_parse_range, required=True,
                   help="per-axis range lo:hi")
    p.add_argument("--step", type=float, required=True, help="per-axis grid step")

    p = add("transpile", "rewrite pentagon template sites in a circuit")
    p.add_argument("--in", dest="input", required=True, help="input circuit JSON")
    p.add_argument("--out", dest="output", required=True, help="output circuit JSON")
    p.add_argument("--rule", choices=("compress", "expand"), required=True)
    p.add_argument("--fusion-gate", required=True,
                   help="built-in gate name, or @file.json for a matrix")
    p.add_argument("--fusion-params", default="", help="fusion gate parameters")
    p.add_argument("--fixed-point", action="store_true",
                   help="repeat passes until no site is found")
    p.add_argument("--no-verify", action="store_true",
                   help="skip unitary equivalence verification")

    p = add("verify", "check two circuits for equivalence up to global phase")
    p.add_argument("--a", dest="first", required=True)
    p.add_argument("--b", dest="second", required=True)

    p = add("route", "replace non-adjacent two-qubit gates by SWAP chains")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)

    p = add("stats", "print gate count, depth, and locality counts")
    p.add_argument("--in", dest="input", required=True)

    return parser


def _cmd_certify(args) -> int:
    tol = DEFAULT_TOLERANCE if args.tol is None else args.tol
    name, params, matrix = _resolve_gate_spec(args.gate, args.params, args.matrix)
    report = certify(matrix, 2, tol, name=name, params=params)
    _emit(report.to_jsonable())
    _diag(f"verdict: {report.verdict} (residual {report.residual:.6g})", args.quiet)
    return EXIT_OK if report.is_fusion else EXIT_NEGATIVE


def _cmd_constraints(args) -> int:
    tol = DEFAULT_TOLERANCE if args.tol is None else args.tol
    values = _parse_params(args.params)
    evaluate = a_gate_constraints if args.family == "a" else heisenberg_constraints
    residuals = evaluate(values, tol)
    _emit(residuals.to_jsonable())
    _diag(
        f"max residual {residuals.max_residual:.6g}, "
        f"{residuals.active_count} active entries",
        args.quiet,
    )
    return EXIT_OK if residuals.max_residual < tol else EXIT_NEGATIVE


def _cmd_scan(args) -> int:
    tol = SCAN_TOLERANCE if args.tol is None else args.tol
    lo, hi = args.axis_range
    started = time.perf_counter()
    solutions = scan_fusion_solutions(args.family, (lo, hi, args.step), tol)
    elapsed = time.perf_counter() - started
    per_axis = len(axis_points(lo, hi, args.step))
    _emit([s.to_jsonable() for s in solutions])
    _diag(
        f"scanned {per_axis ** 3} grid points in {elapsed:.2f} s; "
        f"{len(solutions)} solution class(es)",
        args.quiet,
    )
    return EXIT_OK


def _cmd_transpile(args) -> int:
    tol = DEFAULT_TOLERANCE if args.tol is None else args.tol
    circuit = _load_circuit(args.input)
    name, params, matrix = _resolve_gate_spec(args.fusion_gate, args.fusion_params, None)
    if name == "custom":
        descriptor = describe_fusion_gate(matrix=matrix, tol=tol)
    else:
        descriptor = describe_fusion_gate(name=name, params=params, tol=tol)
    current, report = transpile(
        circuit, descriptor, args.rule,
        fixed_point=args.fixed_point, verify=not args.no_verify, tol=tol,
    )
    _write_text(args.output, serialize(current))
    _emit(report.to_jsonable())
    _diag(
        f"{args.rule}: {report.sites_found} site(s) over {report.passes} pass(es); "
        f"wrote {args.output}",
        args.quiet,
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    tol = DEFAULT_TOLERANCE if args.tol is None else args.tol
    first = _load_circuit(args.first)
    second = _load_circuit(args.second)
    if first.num_qubits != second.num_qubits:
        raise ValueError(
            f"register mismatch: {first.num_qubits} vs {second.num_qubits} qubits"
        )
    distance = phase_distance(to_unitary(first), to_unitary(second))
    equivalent = distance < tol
    _emit({"equivalent": equivalent, "phase_distance": distance, "tolerance": tol})
    return EXIT_OK if equivalent else EXIT_NEGATIVE


def _cmd_route(args) -> int:
    circuit = _load_circuit(args.input)
    routed = route_line(circuit)
    _write_text(args.output, serialize(routed))
    stats = circuit_stats(routed)
    stats["swaps_added"] = len(routed.gates) - len(circuit.gates)
    _emit(stats)
    _diag(f"wrote {args.output}", args.quiet)
    return EXIT_OK


def _cmd_stats(args) -> int:
    _emit(circuit_stats(_load_circuit(args.input)))
    return EXIT_OK


_COMMANDS = {
    "certify": _cmd_certify,
    "constraints": _cmd_constraints,
    "scan": _cmd_scan,
    "transpile": _cmd_transpile,
    "verify": _cmd_verify,
    "route": _cmd_route,
    "stats": _cmd_stats,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(_fold_negative_values(argv))
    quiet = getattr(args, "quiet", False)
    try:
        return _COMMANDS[args.command](args)
    except RewriteVerificationError as exc:
        _diag(f"error: {exc}", quiet)
        return EXIT_NEGATIVE
    except GridError as exc:
        _diag(f"error: {exc}", quiet)
        return EXIT_USAGE
    except UncertifiedGateError as exc:
        _diag(f"error: {exc}", quiet)
        return EXIT_INVALID
    except (PentagateError, ValueError, OSError) as exc:
        _diag(f"error: {exc}", quiet)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
