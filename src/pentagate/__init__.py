"""pentagate: certify two-qubit fusion operators and rewrite circuits.

A fusion operator is a unitary T on V (x) V solving the pentagon equation
T23 T12 = T12 T13 T23. Such gates license an exact rewrite between a
5-gate SWAP-mediated template and a 2-gate nearest-neighbor form, giving
a local / non-local duality for circuits built from them. The package
certifies candidate gates, evaluates the constraint systems of the A-gate
and Heisenberg-evolution families, scans their parameter spaces, and
applies the rewrite in both directions with full unitary verification.
"""

from .certify import (
    CertificationReport,
    ConstraintResiduals,
    RefineResult,
    SCAN_TOLERANCE,
    SolutionPoint,
    Witness,
    a_gate_constraints,
    certify,
    heisenberg_constraints,
    refine,
    scan_a_gate,
    scan_fusion_solutions,
    scan_heisenberg,
)
from .circuit import (
    Circuit,
    GateInstance,
    circuit_stats,
    circuits_identical,
    depth,
    equivalent_up_to_phase,
    parse,
    resolved_matrix,
    route_line,
    serialize,
    to_unitary,
)
from .equations import (
    EquationResidual,
    check_folklore_duality,
    check_street_duality,
    cocycle3_residual,
    lift12,
    lift13,
    lift23,
    pentagon_residual,
    ybe13_residual,
    ybe_residual,
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
    AGateParams,
    CayleyTable,
    HeisenbergParams,
    a_gate,
    b_gate,
    gate_matrix,
    group_algebra_fusion,
    heisenberg_evolution,
    pauli,
    rotation,
    standard_gate,
    xx,
    yy,
    zz,
)
from .linalg import (
    DEFAULT_TOLERANCE,
    adjoint,
    embed,
    frobenius_norm,
    is_unitary,
    kron,
    matmul,
    matrices_equal,
    phase_distance,
    twist,
)
from .rewrite import (
    FusionGateDescriptor,
    RewriteReport,
    RewriteSite,
    compress,
    describe_fusion_gate,
    expand,
    find_compress_sites,
    find_expand_sites,
    transpile,
)

__version__ = "0.1.0"
