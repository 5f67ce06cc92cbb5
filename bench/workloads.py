"""The benchmark's four workloads.

A workload builds, from the seed, a fixed list of operations that one pass
runs in order.  Each :class:`Op` has a ``body`` that reaches the program
only through ``call(name, fn, ...)`` and is timed, and a ``check`` that runs
outside the timed region.  ``check`` raises :class:`Failed` when the
program did not complete the operation as it promises (an exception, a
wrong exit code), raises :class:`Wrong` when it completed with a wrong
output, and otherwise returns one ``(depth, minimum depth)`` pair per flow
the operation found.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from causalflow import (
    Classification,
    brute_force_flow_oracle,
    classify_determinism,
    drop_x_corrections,
    extract_circuit,
    find_flow,
    parse_pattern,
    print_pattern,
    realized_embedding,
    run_branch,
    simulate_circuit,
    synthesize,
    validate_flow,
)

import corpus
from checkers import (
    flow_conditions_hold,
    isometry_defect,
    mp_depth,
    mp_flow,
    phase_defect,
    proportionality_defect,
)

TOL = 1e-9


class Failed(Exception):
    """The program raised, or exited with another code than it promises."""


class Wrong(Exception):
    """The program completed the operation with a wrong output."""


@dataclass(frozen=True)
class Op:
    """One operation of a pass.

    ``probe`` marks an operation on fixed inputs that exercises a known
    fault: it is run and counted on every pass, but never timed, so fixing
    the fault moves no timing metric.
    """

    label: str
    body: Callable[[Callable], Any]
    check: Callable[[Any], list]
    kind: str = ""
    probe: bool = False


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise Wrong(message)


def _random_angles(rng: random.Random, qubits) -> dict[int, float]:
    return {q: rng.uniform(0.0, 2.0 * math.pi) for q in qubits}


def _outcome_string(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def _check_flow(g, result, minimum: int | None) -> list:
    """Found flow passes both flow checks and is no shallower than the minimum.

    ``minimum`` is None when the benchmark's own decision finds no flow.
    """
    _require(result.found, "no flow found where one exists")
    _require(minimum is not None, "flow found where the benchmark finds none")
    _require(validate_flow(g, result.flow).ok, "flow fails validate_flow")
    _require(
        flow_conditions_hold(g, result.flow.f, result.flow.levels),
        "flow fails the flow conditions",
    )
    _require(result.depth == result.flow.depth, "reported depth differs from the flow's")
    _require(
        result.depth >= minimum, f"depth {result.depth} below the minimum {minimum}"
    )
    return [(result.depth, minimum)]


# ---------------------------------------------------------------- sweep5


SWEEP_SHARE = 0.1


def sweep5_pipeline(seed: int) -> list[Op]:
    """A stratified seeded draw from the 6556 flow geometries on <= 5 vertices.

    One operation runs the whole pipeline on one geometry.  Strata are
    (vertices, inputs, measured qubits, minimum depth), so the draw's size,
    its cost and its summed minimum depth do not depend on the seed.
    """
    rng = random.Random(seed)
    geometries = corpus.sweep_geometries(5)
    drawn = corpus.stratified_draw(
        geometries,
        lambda item: (
            len(item[0].vertices),
            len(item[0].inputs),
            len(item[0].measured),
            item[1],
        ),
        SWEEP_SHARE,
        rng,
    )
    ops = []
    for k, (g, minimum) in enumerate(drawn):
        angles = _random_angles(rng, g.measured)
        outcomes = _outcome_string(rng, len(g.measured))
        ops.append(
            Op(
                f"sweep5.{k}",
                _sweep_body(g, angles, seed + k),
                _sweep_check(g, angles, outcomes, minimum),
                "strong",
            )
        )
    return ops


def _sweep_body(g, angles, classify_seed):
    def body(call):
        found = call("flow_finder.find_flow", find_flow, g)
        if not found.found:
            return found, None
        p = call("pattern.synthesize", synthesize, g, found.flow, angles)
        verdict = call(
            "simulator.classify_determinism", classify_determinism, p, seed=classify_seed
        )
        embedding = call("simulator.realized_embedding", realized_embedding, g, angles)
        circuit = call(
            "circuit_extract.extract_circuit", extract_circuit, g, found.flow, angles
        )
        matrix = call("circuit_extract.simulate_circuit", simulate_circuit, circuit)
        return found, (p, verdict, embedding, matrix)

    return body


def _sweep_check(g, angles, outcomes, minimum):
    def check(output) -> list:
        found, rest = output
        _require(
            found.found == brute_force_flow_oracle(g).found,
            "find_flow disagrees with brute_force_flow_oracle",
        )
        depths = _check_flow(g, found, minimum)
        p, verdict, embedding, matrix = rest
        _require(verdict.is_strong and verdict.uniform, f"verdict {verdict.classification.value}")
        branch = run_branch(p, outcomes) * 2.0 ** (len(outcomes) / 2.0)
        _require(
            float(np.max(np.abs(branch - embedding))) < TOL,
            "rescaled branch map differs from realized_embedding",
        )
        _require(isometry_defect(embedding) < TOL, "embedding is not an isometry")
        _require(phase_defect(matrix, embedding) < TOL, "circuit differs from embedding")
        return depths

    return check


# ---------------------------------------------------------------- dense


DENSE_GRIDS = ((3, 4), (2, 6), (1, 13), (1, 11))
DENSE_SAMPLES = 20


def dense_classify(seed: int) -> list[Op]:
    """Cluster grids with 9 to 12 measurements, each as three patterns.

    * ``strong``: synthesized at random angles, classified with 20 samples;
    * ``witness``: the same pattern with every correction stripped,
      classified with no samples (not deterministic, with a witness);
    * ``proportional``: synthesized at zero angles with the X corrections
      into zero-angle measurements dropped (deterministic, not strong).

    The stripped and dropped patterns are made while the corpus is built.
    """
    rng = random.Random(seed)
    ops = []
    for rows, cols in DENSE_GRIDS:
        g = corpus.cluster_grid(rows, cols)
        name = f"dense.{rows}x{cols}"
        angles = _random_angles(rng, g.measured)
        flow = find_flow(g).flow
        stripped = synthesize(g, flow, angles).without_corrections()
        dropped = drop_x_corrections(synthesize(g, flow, {q: 0.0 for q in g.measured}))
        n = len(g.measured)
        ops.append(
            Op(
                name + ".strong",
                _dense_strong_body(g, angles, seed),
                _dense_strong_check(g, _outcome_string(rng, n)),
                "strong",
            )
        )
        ops.append(
            Op(
                name + ".witness",
                _classify_body(stripped),
                _dense_witness_check(stripped),
                "witness",
            )
        )
        ops.append(
            Op(
                name + ".proportional",
                _classify_body(dropped),
                _dense_proportional_check(
                    dropped, _outcome_string(rng, n), _outcome_string(rng, n)
                ),
                "proportional",
            )
        )
    return ops


def _dense_strong_body(g, angles, classify_seed):
    def body(call):
        found = call("flow_finder.find_flow", find_flow, g)
        p = call("pattern.synthesize", synthesize, g, found.flow, angles)
        verdict = call(
            "simulator.classify_determinism",
            classify_determinism,
            p,
            angle_samples=DENSE_SAMPLES,
            seed=classify_seed,
        )
        return found, p, verdict

    return body


def _dense_strong_check(g, outcomes):
    def check(output) -> list:
        found, p, verdict = output
        depths = _check_flow(g, found, mp_depth(g))
        _require(verdict.is_strong and verdict.uniform, f"verdict {verdict.classification.value}")
        branch = run_branch(p, outcomes) * 2.0 ** (len(outcomes) / 2.0)
        _require(isometry_defect(branch) < TOL, "rescaled branch map is not an isometry")
        return depths

    return check


def _classify_body(pattern):
    def body(call):
        return call(
            "simulator.classify_determinism",
            classify_determinism,
            pattern,
            angle_samples=0,
        )

    return body


def _dense_witness_check(pattern):
    def check(verdict) -> list:
        _require(
            verdict.classification is Classification.NOT_DETERMINISTIC
            and verdict.witness is not None,
            f"stripped pattern classified {verdict.classification.value}",
        )
        w = verdict.witness
        a = run_branch(pattern, w.branch_a) @ w.input_state
        b = run_branch(pattern, w.branch_b) @ w.input_state
        _require(
            min(np.linalg.norm(a), np.linalg.norm(b)) > TOL,
            "a witness branch vanishes on its input",
        )
        _require(proportionality_defect(a, b) > TOL, "witness branches agree on its input")
        return []

    return check


def _dense_proportional_check(pattern, outcomes_a, outcomes_b):
    def check(verdict) -> list:
        _require(
            verdict.is_deterministic,
            f"pattern with X corrections dropped classified {verdict.classification.value}",
        )
        a = run_branch(pattern, outcomes_a).ravel()
        b = run_branch(pattern, outcomes_b).ravel()
        _require(proportionality_defect(a, b) < TOL, "branch maps are not proportional")
        return []

    return check


# ---------------------------------------------------------------- flow search


SMALL_GRID_VERTICES = 40
LARGE_GRIDS = ((6, 12), (8, 20))
CHORDED = (3, 6, 2)
CHORDED_COUNT = 30
PATHS = (200, 250, 300, 350, 400, 450, 500, 600, 750, 900)
FAILING_PATH = 1200


def flow_search(seed: int) -> list[Op]:
    """``find_flow`` on four families of larger geometries.

    * cluster grids with flow: every shape with 2 to 13 rows, at least 3
      columns and at most 40 vertices, plus 6x12 and 8x20 (polynomial);
    * paths of 200 to 900 vertices (quadratic);
    * 3x6 grids with two seeded random chords and no flow (exponential);
    * one path of 1200 vertices, where the recursive search fails.

    Only the chords depend on the seed.  Small instances with many draws
    keep the summed search cost steady from seed to seed; one 3x8 grid
    with three chords already ranges over 0.03-0.44 s.
    """
    rng = random.Random(seed)
    ops = []
    shapes = [
        (r, c)
        for r in range(2, 14)
        for c in range(3, SMALL_GRID_VERTICES // r + 1)
    ]
    for rows, cols in shapes + list(LARGE_GRIDS):
        g = corpus.cluster_grid(rows, cols)
        ops.append(Op(f"flow_search.grid_{rows}x{cols}", _find_body(g), _found_check(g)))
    rows, cols, chords = CHORDED
    for k in range(CHORDED_COUNT):
        g = corpus.chorded_grid_without_flow(rows, cols, chords, rng)
        ops.append(Op(f"flow_search.chorded_{k}", _find_body(g), _no_flow_check(g)))
    for n in PATHS:
        g = corpus.path(n)
        ops.append(Op(f"flow_search.path_{n}", _find_body(g), _path_check(g, n)))
    g = corpus.path(FAILING_PATH)
    ops.append(
        Op(
            f"flow_search.path_{FAILING_PATH}",
            _find_body(g),
            _path_check(g, FAILING_PATH),
            probe=True,
        )
    )
    return ops


def _find_body(g):
    def body(call):
        return call("flow_finder.find_flow", find_flow, g)

    return body


def _found_check(g):
    def check(found) -> list:
        return _check_flow(g, found, mp_depth(g))

    return check


def _path_check(g, n):
    def check(found) -> list:
        depths = _check_flow(g, found, n)
        _require(found.depth == n, f"path depth {found.depth}, expected {n}")
        return depths

    return check


def _no_flow_check(g):
    def check(found) -> list:
        _require(mp_flow(g) is None, "corpus error: chorded grid has a flow")
        _require(not found.found, "find_flow found a flow where none exists")
        return []

    return check


# ---------------------------------------------------------------- cli


CLI_PATH_LENGTH = 5
HADAMARD_PATTERN = ["V: 1 2", "I: 1", "O: 2", "N 2 0.0", "E 1 2", "M 1 0.0", "X 2 [1]"]


def cli(seed: int, workdir: str) -> list[Op]:
    """One ``python -m causalflow.cli`` process per operation, on small files.

    The files are written into ``workdir``.  The last two operations are
    fault probes with fixed inputs: each should exit 2 with a named error.
    """
    rng = random.Random(seed)
    os.makedirs(workdir, exist_ok=True)

    def write(name: str, text: str) -> str:
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    line = corpus.path(CLI_PATH_LENGTH)
    grid = corpus.cluster_grid(2, 3)
    angles = _random_angles(rng, grid.measured)
    pattern = synthesize(grid, find_flow(grid).flow, angles)
    hadamard = corpus.path(2)

    line_file = write("path.json", line.to_json())
    grid_file = write("grid.json", grid.to_json())
    angle_file = write("angles.json", json.dumps({str(q): a for q, a in angles.items()}))
    pattern_file = write("pattern.txt", print_pattern(pattern))
    h_file = write("hadamard.json", hadamard.to_json())
    h_angles = write("hadamard_angles.json", json.dumps({"1": 0.0}))
    nan_file = write("nan.txt", "V: 1 2\nI: 1\nO: 2\nN 2 0.0\nE 1 2\nM 1 nan\nX 2 [1]\n")
    bad_angles = write("bad_angles.json", json.dumps({"1": "north"}))

    forward = {k: k + 1 for k in range(1, CLI_PATH_LENGTH)}
    outcomes = _outcome_string(rng, len(grid.measured))
    return [
        Op("cli.flow", _cli_body(["flow", line_file]), _cli_flow_check(forward)),
        Op(
            "cli.flow_bidirectional",
            _cli_body(["flow", "--bidirectional", line_file]),
            _cli_biflow_check(forward),
        ),
        Op(
            "cli.synth",
            _cli_body(["synth", grid_file, "--angles", angle_file]),
            _cli_synth_check(grid, angles, outcomes),
        ),
        Op(
            "cli.verify",
            _cli_body(["verify", pattern_file, "--samples", "20"]),
            _cli_verify_check,
        ),
        Op(
            "cli.extract",
            _cli_body(["extract", grid_file, "--angles", angle_file, "--check"]),
            _cli_extract_check,
        ),
        Op(
            "cli.adjoint",
            _cli_body(["adjoint", h_file, "--angles", h_angles]),
            _cli_adjoint_check,
        ),
        Op(
            "cli.identities",
            _cli_body(["--seed", str(seed), "identities"]),
            _cli_identities_check,
        ),
        Op("cli.verify_nan", _cli_body(["verify", nan_file]), _cli_probe_check, probe=True),
        Op(
            "cli.synth_bad_angle",
            _cli_body(["synth", h_file, "--angles", bad_angles]),
            _cli_probe_check,
            probe=True,
        ),
    ]


CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
}


def _cli_body(argv: list[str]):
    command = [sys.executable, "-m", "causalflow.cli", *argv]

    def body(call):
        return call("cli.main", _run_cli, command)

    return body


def _run_cli(command: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        command, capture_output=True, text=True, env=CLI_ENV, timeout=120
    )


def _cli_ok(proc) -> None:
    if proc.returncode != 0:
        last = proc.stderr.strip().splitlines()[-1:] or [""]
        raise Failed(f"exit {proc.returncode} ({last[0][:80]})")


def _cli_json(proc) -> dict:
    _cli_ok(proc)
    return json.loads(proc.stdout)


def _int_map(data: dict) -> dict[int, int]:
    return {int(k): int(v) for k, v in data.items()}


def _cli_flow_check(forward):
    def check(proc) -> list:
        report = _cli_json(proc)
        _require(report["found"], "flow not found on a path")
        _require(_int_map(report["flow"]["f"]) == forward, "corrector map is not forced")
        return [(report["depth"], CLI_PATH_LENGTH)]

    return check


def _cli_biflow_check(forward):
    backward = {j: i for i, j in forward.items()}

    def check(proc) -> list:
        report = _cli_json(proc)
        _require(
            _int_map(report["forward"]["flow"]["f"]) == forward
            and _int_map(report["reverse"]["flow"]["f"]) == backward,
            "bi-flow corrector maps are not forced",
        )
        return [
            (report["forward"]["depth"], CLI_PATH_LENGTH),
            (report["reverse"]["depth"], CLI_PATH_LENGTH),
        ]

    return check


def _cli_synth_check(g, angles, outcomes):
    def check(proc) -> list:
        _cli_ok(proc)
        p = parse_pattern(proc.stdout)
        branch = run_branch(p, outcomes) * 2.0 ** (len(outcomes) / 2.0)
        embedding = realized_embedding(g, angles)
        _require(
            float(np.max(np.abs(branch - embedding))) < TOL,
            "synthesized branch map differs from the embedding",
        )
        _require(isometry_defect(branch) < TOL, "synthesized branch map is not an isometry")
        return []

    return check


def _cli_verify_check(proc) -> list:
    report = _cli_json(proc)
    _require(
        report["classification"] == "strongly-deterministic" and report["uniform"],
        f"verdict {report['classification']}",
    )
    return []


def _cli_extract_check(proc) -> list:
    report = _cli_json(proc)
    _require(report["max_deviation"] < TOL, f"max_deviation {report['max_deviation']}")
    return []


def _cli_adjoint_check(proc) -> list:
    """Swapping qubits 1 and 2 in the adjoint gives back the Hadamard pattern."""
    _cli_ok(proc)
    swap = str.maketrans("12", "21")
    relabelled = []
    for line in proc.stdout.strip().splitlines():
        head, *rest = line.translate(swap).split()
        if head in ("V:", "I:", "O:", "E"):
            rest = sorted(rest)
        relabelled.append(" ".join([head, *rest]))
    _require(
        relabelled == HADAMARD_PATTERN,
        "adjoint of the Hadamard pattern is not the relabelled original",
    )
    return []


def _cli_identities_check(proc) -> list:
    report = _cli_json(proc)
    _require(report["ok"] is True, "rewrite identities fail")
    return []


def _cli_probe_check(proc) -> list:
    """A malformed input must give exit 2 with a named error, not a verdict."""
    if proc.returncode != 2 or "Traceback" in proc.stderr:
        raise Failed(f"exit {proc.returncode}, expected 2 with a named error")
    _require(proc.stderr.startswith("error:"), "exit 2 without a named error")
    return []

