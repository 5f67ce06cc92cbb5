"""causalflow: compile and verify one-way measurement patterns.

Pipeline: represent an open graph state, find a flow, synthesize the
deterministic correction pattern, verify determinism by exhaustive branch
simulation, and extract an equivalent controlled-Z/phase/Hadamard circuit.

Only :mod:`causalflow.simulator` imports numpy.  The graph, flow, pattern
and circuit names are bound when the package is imported; the simulator's
names are looked up on first use, so code that never simulates never
loads numpy.
"""

from .graph_model import (
    Flow,
    GraphFormatError,
    OpenGraphState,
    ValidationResult,
    graph_from_json_dict,
    validate_flow,
    validate_graph,
)
from .flow_finder import (
    FlowSearchResult,
    OracleSizeError,
    brute_force_flow_oracle,
    dependency_order,
    find_biflow,
    find_flow,
)
from .pattern import (
    Command,
    CorrectX,
    CorrectXPhase,
    CorrectZ,
    Entangle,
    Measure,
    Pattern,
    PatternError,
    PatternFormatError,
    Prepare,
    SimulationError,
    adjoint,
    check_runnable,
    drop_x_corrections,
    parse_pattern,
    print_pattern,
    relabel,
    synthesize,
    synthesize_stabilizer_form,
)
from .circuit_extract import (
    Circuit,
    CZGate,
    HadamardGate,
    PhaseGate,
    StarPattern,
    Wire,
    decompose_stars,
    extract_circuit,
)

# Resolved on first use, so that importing the package does not load numpy.
_SIMULATOR_NAMES = (
    "BranchReport",
    "Classification",
    "DeterminismVerdict",
    "IdentityReport",
    "Witness",
    "check_rewrite_identities",
    "classify_determinism",
    "enumerate_branches",
    "max_deviation_up_to_phase",
    "realized_embedding",
    "run_branch",
    "simulate_circuit",
)

__version__ = "0.1.0"

__all__ = [
    "BranchReport",
    "Circuit",
    "CZGate",
    "Classification",
    "Command",
    "CorrectX",
    "CorrectXPhase",
    "CorrectZ",
    "DeterminismVerdict",
    "Entangle",
    "Flow",
    "FlowSearchResult",
    "GraphFormatError",
    "HadamardGate",
    "IdentityReport",
    "Measure",
    "OpenGraphState",
    "OracleSizeError",
    "Pattern",
    "PatternError",
    "PatternFormatError",
    "PhaseGate",
    "Prepare",
    "SimulationError",
    "StarPattern",
    "ValidationResult",
    "Wire",
    "Witness",
    "adjoint",
    "brute_force_flow_oracle",
    "check_rewrite_identities",
    "check_runnable",
    "classify_determinism",
    "decompose_stars",
    "dependency_order",
    "drop_x_corrections",
    "enumerate_branches",
    "extract_circuit",
    "find_biflow",
    "find_flow",
    "graph_from_json_dict",
    "max_deviation_up_to_phase",
    "parse_pattern",
    "print_pattern",
    "realized_embedding",
    "relabel",
    "run_branch",
    "simulate_circuit",
    "synthesize",
    "synthesize_stabilizer_form",
    "validate_flow",
    "validate_graph",
]


def __getattr__(name: str):
    if name not in _SIMULATOR_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import simulator

    value = getattr(simulator, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | set(_SIMULATOR_NAMES))
