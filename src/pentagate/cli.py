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

Each command is stated once, in ``build_parser``: its flags and its
handler, which the subparser stores as ``run`` and ``main`` calls.
``main`` builds one parser per process, on its first call, so a caller
that runs many commands in one process pays for it once.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from . import jsonio
from .certify import (
    FAMILIES,
    SCAN_TOLERANCE,
    axis_points,
    certify,
    constraints,
    scan_fusion_solutions,
)
from .circuit import (
    CUSTOM,
    Circuit,
    circuit_distance,
    circuit_stats,
    parse,
    parse_matrix,
    route_line,
    serialize,
)
from .errors import (
    GridError,
    PentagateError,
    RewriteVerificationError,
)
from .gates import gate_matrix
from .linalg import DEFAULT_TOLERANCE, _shown, check_tolerance
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
        raise ValueError(f"cannot parse parameter list {_shown(text)}") from None


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"range must look like lo:hi, got {_shown(text)}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"range bounds must be numbers, got {_shown(text)}") from None


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


def _resolve_gate_spec(name: str | None, params: str, matrix_path: str | None):
    """Name + params, or a matrix file, to (display name, params, matrix or None).

    Exactly one of ``name`` and ``matrix_path`` is given; argparse sees to
    that. Reads the flags and the matrix file and builds no gate: the
    matrix is None for a named gate, and the library checks whatever is
    returned. A matrix gate takes no parameters, so parameters given with
    one raise ValueError before the file is read.
    """
    values = _parse_params(params)
    if matrix_path is None and not name.startswith("@"):
        return name, values, None
    if values:
        raise ValueError("a matrix gate takes no parameters")
    path = name[1:] if matrix_path is None else matrix_path
    return CUSTOM, (), parse_matrix(_read_text(path), path)


#: Flags whose values may start with a minus sign (negative angles and
#: ranges); argparse only accepts such values in --flag=value form, so the
#: space-separated form is folded before parsing.
_NEGATIVE_VALUE_FLAGS = ("--range", "--params", "--fusion-params")


def _fold_negative_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for token in argv:
        # a folded flag no longer matches, so it takes one value at most
        if out and out[-1] in _NEGATIVE_VALUE_FLAGS and token[:1] == "-" and token[:2] != "--":
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _diag(message: str, quiet: bool) -> None:
    if not quiet:
        print(message, file=sys.stderr)


def _emit(payload) -> None:
    print(jsonio.dumps(payload))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on the first call and shared after it.

    ``parse_args`` returns a fresh namespace on every call and leaves the
    parser as it was, so one parser serves every ``main`` call of a process.
    It holds ``DEFAULT_TOLERANCE`` and ``SCAN_TOLERANCE`` as they were at
    its first build.
    """
    parser = _Parser(prog="pentagate", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, run, tol=DEFAULT_TOLERANCE):
        """A subcommand; one that compares nothing passes ``tol=None`` and has no --tol."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--quiet", action="store_true", help="suppress diagnostics")
        if tol is not None:
            p.add_argument("--tol", type=_parse_tolerance, default=tol,
                           help="comparison tolerance (finite, positive)")
        return p

    p = add("certify", "certify a two-qubit gate as a fusion operator", _cmd_certify)
    gate = p.add_mutually_exclusive_group(required=True)
    gate.add_argument("--gate", help="built-in gate name, or @file.json for a matrix")
    gate.add_argument("--matrix", help="JSON file with a 4x4 matrix of [re, im] pairs")
    p.add_argument("--params", default="", help="comma-separated gate parameters")

    p = add("constraints", "evaluate the pentagon constraints at a parameter point",
            _cmd_constraints)
    p.add_argument("--family", choices=tuple(FAMILIES), required=True)
    p.add_argument("--params", required=True, help="comma-separated parameter triple")

    p = add("scan", "grid-scan a gate family for pentagon solutions", _cmd_scan, SCAN_TOLERANCE)
    p.add_argument("--family", choices=tuple(FAMILIES), required=True)
    p.add_argument("--range", dest="axis_range", type=_parse_range, required=True,
                   help="per-axis range lo:hi")
    p.add_argument("--step", type=float, required=True, help="per-axis grid step")

    p = add("transpile", "rewrite pentagon template sites in a circuit", _cmd_transpile)
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

    p = add("verify", "check two circuits for equivalence up to global phase", _cmd_verify)
    p.add_argument("--a", dest="first", required=True)
    p.add_argument("--b", dest="second", required=True)

    p = add("route", "replace non-adjacent two-qubit gates by SWAP chains", _cmd_route, None)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)

    p = add("stats", "print gate count, depth, and locality counts", _cmd_stats, None)
    p.add_argument("--in", dest="input", required=True)

    return parser


def _cmd_certify(args) -> int:
    name, params, matrix = _resolve_gate_spec(args.gate, args.params, args.matrix)
    if matrix is None:
        matrix = gate_matrix(name, params)
    report = certify(matrix, 2, args.tol, name=name, params=params)
    _emit(report)
    _diag(f"verdict: {report.verdict} (residual {report.residual:.6g})", args.quiet)
    return EXIT_OK if report.is_fusion else EXIT_NEGATIVE


def _cmd_constraints(args) -> int:
    residuals = constraints(args.family, _parse_params(args.params), args.tol)
    _emit(residuals)
    _diag(
        f"max residual {residuals.max_residual:.6g}, "
        f"{residuals.active_count} active entries",
        args.quiet,
    )
    return EXIT_OK if residuals.max_residual < args.tol else EXIT_NEGATIVE


def _cmd_scan(args) -> int:
    lo, hi = args.axis_range
    started = time.perf_counter()
    solutions = scan_fusion_solutions(args.family, (lo, hi, args.step), args.tol)
    elapsed = time.perf_counter() - started
    per_axis = len(axis_points(lo, hi, args.step))
    _emit(solutions)
    _diag(
        f"scanned {per_axis ** 3} grid points in {elapsed:.2f} s; "
        f"{len(solutions)} solution class(es)",
        args.quiet,
    )
    return EXIT_OK


def _cmd_transpile(args) -> int:
    circuit = _load_circuit(args.input)
    name, params, matrix = _resolve_gate_spec(args.fusion_gate, args.fusion_params, None)
    descriptor = describe_fusion_gate(name, params, matrix, args.tol)
    current, report = transpile(
        circuit, descriptor, args.rule,
        fixed_point=args.fixed_point, verify=not args.no_verify, tol=args.tol,
    )
    _write_text(args.output, serialize(current))
    _emit(report)
    _diag(
        f"{args.rule}: {report.sites_found} site(s) over {report.passes} pass(es); "
        f"wrote {args.output}",
        args.quiet,
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    distance = circuit_distance(_load_circuit(args.first), _load_circuit(args.second))
    equivalent = distance < args.tol
    _emit({"equivalent": equivalent, "phase_distance": distance, "tolerance": args.tol})
    return EXIT_OK if equivalent else EXIT_NEGATIVE


def _cmd_route(args) -> int:
    circuit = _load_circuit(args.input)
    routed = route_line(circuit)
    _write_text(args.output, serialize(routed))
    _emit({**circuit_stats(routed), "swaps_added": len(routed.gates) - len(circuit.gates)})
    _diag(f"wrote {args.output}", args.quiet)
    return EXIT_OK


def _cmd_stats(args) -> int:
    _emit(circuit_stats(_load_circuit(args.input)))
    return EXIT_OK


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(_fold_negative_values(argv))
    quiet = args.quiet
    try:
        return args.run(args)
    except RewriteVerificationError as exc:
        _diag(f"error: {exc}", quiet)
        return EXIT_NEGATIVE
    except GridError as exc:
        _diag(f"error: {exc}", quiet)
        return EXIT_USAGE
    except (PentagateError, ValueError, OSError) as exc:
        _diag(f"error: {exc}", quiet)
        return EXIT_INVALID
