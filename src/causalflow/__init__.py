"""causalflow: compile and verify one-way measurement patterns.

Pipeline: represent an open graph state, find a flow, synthesize the
deterministic correction pattern, verify determinism by exhaustive branch
simulation, and extract an equivalent controlled-Z/phase/Hadamard circuit.

Only :mod:`causalflow.simulator` imports numpy.  Every public name, and
every module, is imported on first use, so importing the package loads
none of them, and code that never simulates never loads numpy, nor do
``check_rewrite_identities`` and ``classify_determinism`` on a certified pattern.
"""

import importlib

# The public names of each module.
_NAMES = {
    "graph_model": """Flow GraphFormatError OpenGraphState ValidationResult
        graph_from_json_dict validate_flow validate_graph""",
    "flow_finder": """FlowSearchResult OracleSizeError brute_force_flow_oracle
        dependency_order find_biflow find_flow""",
    "pattern": """Command CorrectX CorrectXPhase CorrectZ Entangle Measure
        Pattern PatternError PatternFormatError Prepare SimulationError adjoint
        check_runnable drop_x_corrections parse_pattern print_pattern relabel
        synthesize synthesize_stabilizer_form""",
    "circuit_extract": """Circuit CZGate HadamardGate PhaseGate StarPattern
        Wire decompose_stars extract_circuit""",
    "verdict": "Classification DeterminismVerdict Witness classify_determinism",
    "rewrite_rules": "IdentityReport check_rewrite_identities",
    "simulator": """BranchReport enumerate_branches max_deviation_up_to_phase
        realized_embedding run_branch simulate_circuit""",
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _NAMES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _MODULE_OF.keys())
