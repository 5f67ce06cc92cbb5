"""Command-line front end.

Subcommands: ``flow``, ``synth``, ``verify``, ``extract``, ``adjoint``,
``identities``.  Graphs are JSON documents, patterns use the line-based
text format, and all reports are emitted as JSON on stdout.  Exit codes:
0 for success (flow found / verdict strong / checks pass), 1 for a
definite negative (no flow, weaker verdict, failed check), 2 for input or
usage errors.

Each handler imports the modules it needs beyond the graph model and the
flow search: ``flow`` loads no pattern module, and only ``extract --check``,
``identities`` and ``verify`` on a pattern the Pauli-frame certificate
declines load the simulator, and with it numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Sequence

from .flow_finder import find_biflow, find_flow
from .graph_model import (
    GraphFormatError,
    OpenGraphState,
    _json_array,
    _json_id,
    _text_id,
    graph_from_json_dict,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT_ERROR = 2


class _CliError(Exception):
    """User-facing input error; maps to exit code 2."""


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _CliError(f"{path}: not UTF-8 text: {exc}") from exc


def _load_json(path: str):
    try:
        return json.loads(_read_text(path))
    except ValueError as exc:
        # a JSONDecodeError, or an integer past int()'s digit limit
        raise _CliError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise _CliError(f"{path}: invalid JSON: nested too deeply") from exc


def _load_graph(path: str) -> tuple[OpenGraphState, frozenset[int]]:
    data = _load_json(path)
    try:
        graph = graph_from_json_dict(data)
    except GraphFormatError as exc:
        raise _CliError(f"{path}: {exc}") from exc
    try:
        entries = _json_array(data.get("y_measured", []), "y_measured")
    except TypeError as exc:
        raise _CliError(f"{path}: {exc}") from exc
    try:
        y_measured = frozenset(_json_id(q) for q in entries)
    except (TypeError, ValueError, OverflowError) as exc:
        raise _CliError(f"{path}: bad y_measured entry: {exc}") from exc
    return graph, y_measured


def _json_angle(value: object) -> float:
    """An angle read from a JSON document: a JSON number.  What ``float``
    cannot read raises ``float``'s own error; a bool or a numeric string,
    which ``float`` would coerce, raises TypeError."""
    angle = float(value)
    if type(value) not in (int, float):
        raise TypeError(f"{json.dumps(value)} is not a number")
    return angle


def _load_angles(path: str | None, qubits: Sequence[int]) -> dict[int, float]:
    """Angle map from a JSON file; missing entries default to zero."""
    angles = {int(q): 0.0 for q in qubits}
    if path is None:
        return angles
    data = _load_json(path)
    if not isinstance(data, dict):
        raise _CliError(f"{path}: expected a JSON object of vertex -> radians")
    for key, value in data.items():
        try:
            q, angle = _text_id(key), _json_angle(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise _CliError(f"{path}: bad angle entry {key!r}: {exc}") from exc
        if not math.isfinite(angle):
            raise _CliError(f"{path}: angle {value!r} of {key} is not finite")
        angles[q] = angle
    return angles


def _find_flow_for(args, graph: OpenGraphState, y_from_file: frozenset[int]):
    """Loop candidates: ``--y-measured``, else the graph file's
    ``y_measured``, else every measured qubit under ``--loops``."""
    y_qubits = y_from_file
    if args.y_measured:
        try:
            y_qubits = frozenset(
                _text_id(t) for t in args.y_measured.replace(",", " ").split()
            )
        except ValueError as exc:
            raise _CliError(f"--y-measured: {exc}") from exc
    if not y_qubits and args.loops:
        y_qubits = frozenset(graph.measured)
    return find_flow(graph, loop_candidates=y_qubits)


def _tolerance(text: str) -> float:
    """A tolerance, spelled as a pattern file's angles are."""
    from .pattern import _parse_angle

    try:
        value = _parse_angle(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a plain number: {text!r}") from None
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and positive: {text}")
    return value


def _non_negative(text: str) -> int:
    """A count or a seed, spelled as a pattern file's ids are."""
    try:
        value = _text_id(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a plain integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {text}")
    return value


def _emit(data) -> None:
    json.dump(data, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _cmd_flow(args) -> int:
    if args.bidirectional:
        for flag, given in (("--loops", args.loops), ("--y-measured", args.y_measured)):
            if given:
                raise _CliError(f"{flag} cannot be combined with --bidirectional")
        graph, _ = _load_graph(args.graph)
        forward, reverse = find_biflow(graph)
        _emit(
            {
                "forward": forward.to_json_dict(),
                "reverse": reverse.to_json_dict(),
            }
        )
        return EXIT_OK if forward.found and reverse.found else EXIT_NEGATIVE
    result = _find_flow_for(args, *_load_graph(args.graph))
    _emit(result.to_json_dict())
    return EXIT_OK if result.found else EXIT_NEGATIVE


def _cmd_synth(args) -> int:
    from .pattern import print_pattern, synthesize, synthesize_stabilizer_form

    if args.stabilizer_form and args.prep_angles is not None:
        raise _CliError("--prep-angles cannot be combined with --stabilizer-form")
    graph, y_from_file = _load_graph(args.graph)
    result = _find_flow_for(args, graph, y_from_file)
    if not result.found:
        print("no flow exists for this open graph state", file=sys.stderr)
        return EXIT_NEGATIVE
    meas = _load_angles(args.angles, graph.measured)
    if args.stabilizer_form:
        pattern = synthesize_stabilizer_form(graph, result.flow, meas)
    else:
        preps = _load_angles(args.prep_angles, graph.prepared)
        pattern = synthesize(graph, result.flow, meas, preps)
    sys.stdout.write(print_pattern(pattern))
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .pattern import DEFAULT_TOLERANCE, PatternFormatError, check_runnable, parse_pattern

    text = _read_text(args.pattern)
    try:
        pattern = parse_pattern(text)
    except PatternFormatError as exc:
        raise _CliError(f"{args.pattern}: {exc}") from exc
    check = check_runnable(pattern)
    if not check.ok:
        _emit({"runnable": False, "violations": list(check.violations)})
        return EXIT_INPUT_ERROR
    from .verdict import classify_determinism

    verdict = classify_determinism(
        pattern,
        angle_samples=args.samples,
        seed=args.seed,
        tolerance=DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance,
    )
    _emit(verdict.to_json_dict())
    return EXIT_OK if verdict.is_strong else EXIT_NEGATIVE


def _cmd_extract(args) -> int:
    from .circuit_extract import extract_circuit

    graph, _ = _load_graph(args.graph)
    result = find_flow(graph)
    if not result.found:
        print("no flow exists for this open graph state", file=sys.stderr)
        return EXIT_NEGATIVE
    meas = _load_angles(args.angles, graph.measured)
    circuit = extract_circuit(graph, result.flow, meas)
    payload = circuit.to_json_dict()
    if args.check:
        from .simulator import (
            max_deviation_up_to_phase,
            realized_embedding,
            simulate_circuit,
        )

        realized = simulate_circuit(circuit)
        target = realized_embedding(graph, meas)
        payload["max_deviation"] = max_deviation_up_to_phase(realized, target)
    _emit(payload)
    return EXIT_OK


def _cmd_adjoint(args) -> int:
    from .pattern import adjoint, print_pattern, synthesize

    graph, _ = _load_graph(args.graph)
    forward, reverse = find_biflow(graph)
    if not (forward.found and reverse.found):
        print("no bi-flow: adjoint undefined", file=sys.stderr)
        return EXIT_NEGATIVE
    meas = _load_angles(args.angles, graph.measured)
    preps = _load_angles(args.prep_angles, graph.prepared)
    pattern = synthesize(graph, forward.flow, meas, preps)
    sys.stdout.write(print_pattern(adjoint(pattern, reverse.flow)))
    return EXIT_OK


def _cmd_identities(args) -> int:
    if args.angles_grid + args.random == 0:
        raise _CliError("--angles-grid and --random are both 0: no angles to check")
    from .pattern import EXACT_TOLERANCE
    from .simulator import check_rewrite_identities

    report = check_rewrite_identities(
        tolerance=EXACT_TOLERANCE if args.tolerance is None else args.tolerance,
        grid_points=args.angles_grid,
        n_random=args.random,
        seed=args.seed,
    )
    _emit(report.to_json_dict())
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalflow",
        exit_on_error=False,
        description=(
            "Compile and verify one-way measurement patterns: flow search, "
            "deterministic synthesis, branch simulation, circuit extraction."
        ),
    )
    parser.add_argument("--seed", type=_non_negative, default=0, help="random seed")
    parser.add_argument(
        "--tolerance",
        type=_tolerance,
        help="numerical tolerance (default 1e-9 for verify, 1e-12 for identities)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_flow = sub.add_parser("flow", help="find a flow for a graph file")
    p_flow.add_argument("graph")
    p_flow.add_argument("--loops", action="store_true", help="allow loop correctors")
    p_flow.add_argument(
        "--y-measured", default="", help="comma-separated loop-eligible qubits"
    )
    p_flow.add_argument(
        "--bidirectional",
        action="store_true",
        help="also search the reversed state; neither search allows loops",
    )
    p_flow.set_defaults(handler=_cmd_flow)

    p_synth = sub.add_parser("synth", help="synthesize a deterministic pattern")
    p_synth.add_argument("graph")
    p_synth.add_argument("--angles", help="JSON map vertex -> measurement angle")
    p_synth.add_argument(
        "--prep-angles", help="JSON map vertex -> preparation angle"
    )
    p_synth.add_argument(
        "--stabilizer-form",
        action="store_true",
        help="emit the stabilizer-derived correction order",
    )
    p_synth.add_argument("--loops", action="store_true")
    p_synth.add_argument("--y-measured", default="")
    p_synth.set_defaults(handler=_cmd_synth)

    p_verify = sub.add_parser("verify", help="classify a pattern's determinism")
    p_verify.add_argument("pattern")
    p_verify.add_argument("--samples", type=_non_negative, default=20)
    p_verify.set_defaults(handler=_cmd_verify)

    p_extract = sub.add_parser("extract", help="extract an equivalent circuit")
    p_extract.add_argument("graph")
    p_extract.add_argument("--angles")
    p_extract.add_argument(
        "--check",
        action="store_true",
        help="simulate the circuit and report its deviation",
    )
    p_extract.set_defaults(handler=_cmd_extract)

    p_adjoint = sub.add_parser("adjoint", help="synthesize the adjoint pattern")
    p_adjoint.add_argument("graph")
    p_adjoint.add_argument("--angles")
    p_adjoint.add_argument("--prep-angles")
    p_adjoint.set_defaults(handler=_cmd_adjoint)

    p_ident = sub.add_parser("identities", help="run the rewrite-identity suite")
    p_ident.add_argument("--angles-grid", type=_non_negative, default=16)
    p_ident.add_argument("--random", type=_non_negative, default=50)
    p_ident.set_defaults(handler=_cmd_identities)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        if exc.argument_name == "command":
            # argparse sets an unknown flag before the subcommand aside and
            # reads the value after it as the subcommand: name the flag
            known = argparse.ArgumentParser(add_help=False, exit_on_error=False)
            known.add_argument("--seed", "--tolerance", nargs="?")
            rest = known.parse_known_args(argv)[1]
            if rest[0].startswith("-"):
                parser.error(f"unrecognized arguments: {rest[0]}")
        parser.error(str(exc))
    try:
        return args.handler(args)
    except Exception as exc:
        # imported on the error path only: a run that succeeds without a
        # pattern, as a flow search does, never loads the pattern module
        from .pattern import PatternError, SimulationError

        if not isinstance(exc, (_CliError, PatternError, SimulationError)):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
