"""pentagate: certify two-qubit fusion operators and rewrite circuits.

A fusion operator is a unitary T on V (x) V solving the pentagon equation
T23 T12 = T12 T13 T23. Such gates license an exact rewrite between a
5-gate SWAP-mediated template and a 2-gate nearest-neighbor form, giving
a local / non-local duality for circuits built from them. The package
certifies candidate gates, evaluates the constraint systems of the A-gate
and Heisenberg-evolution families, scans their parameter spaces, and
applies the rewrite in both directions with full unitary verification.

The package root exports the calls the README's quickstart and the
benchmark use, the rest of the entry points listed below, and the error
classes. Every other public name, such as ``certify.FAMILIES``,
``circuit.depth``, ``equations.pentagon_stack``, ``gates.xx`` or
``linalg.twist``, is imported from its own module.
"""

from .certify import (
    certify,
    constraints,
    refine,
    scan_fusion_solutions,
)
from .circuit import (
    Circuit,
    GateInstance,
    circuit_distance,
    circuit_stats,
    parse,
    route_line,
    serialize,
    to_unitary,
)
from .equations import (
    check_folklore_duality,
    check_street_duality,
    pentagon_residual,
)
from .errors import (
    DimensionError,
    GridError,
    InvalidGroupError,
    NonUnitaryError,
    PentagateError,
    RewriteVerificationError,
    SchemaError,
    UncertifiedGateError,
    UnknownGateError,
    WireError,
)
from .gates import (
    CayleyTable,
    a_gate,
    gate_matrix,
    group_algebra_fusion,
    heisenberg_evolution,
    standard_gate,
)
from .linalg import (
    embed,
    is_unitary,
    phase_distance,
)
from .rewrite import (
    compress,
    describe_fusion_gate,
    expand,
    find_compress_sites,
    find_expand_sites,
    transpile,
)

__version__ = "0.1.0"
