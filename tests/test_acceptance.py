"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  Tolerances are pinned in each test body.

The exhaustive geometry sweep enumerates connected graphs up to graph
isomorphism (1, 1, 2, 6, 21 classes for 1..5 vertices) with every
input/output choice over a canonical labeling.  Every property checked is
invariant under vertex relabeling, so this covers all connected open graph
states of at most five vertices.
"""

import itertools
import math
import random
import time
from collections import Counter

import numpy as np
import pytest

from causalflow import (
    Classification,
    CZGate,
    HadamardGate,
    OpenGraphState,
    PhaseGate,
    adjoint,
    brute_force_flow_oracle,
    check_rewrite_identities,
    classify_determinism,
    enumerate_branches,
    extract_circuit,
    find_biflow,
    find_flow,
    max_deviation_up_to_phase,
    realized_embedding,
    relabel,
    simulate_circuit,
    synthesize,
    synthesize_stabilizer_form,
    validate_flow,
)
from causalflow.pattern import (
    CorrectX,
    Entangle,
    Measure,
    Pattern,
    Prepare,
)
from conftest import HADAMARD, all_subsets, hadamard_geometry, loop_geometry

STRICT = 1e-12
TOL = 1e-9


def _report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {number:2d}: {name}{suffix}")


def test_criterion_01_rewrite_identity_suite():
    """Correction-rewrite identities hold as matrix equalities at 1e-12."""
    start = time.perf_counter()
    report = check_rewrite_identities(
        tolerance=STRICT, grid_points=16, n_random=50, seed=7
    )
    elapsed = time.perf_counter() - start
    worst = max(c.max_deviation for c in report.checks)
    passed = report.ok and elapsed < 1.0
    _report(
        1,
        "rewrite-identity suite",
        passed,
        f"max deviation {worst:.2e}, {len(report.checks)} checks, {elapsed:.2f}s",
    )
    assert report.ok, [c for c in report.checks if not c.passed]
    assert worst < STRICT
    assert elapsed < 1.0


def test_criterion_02_projector_example():
    """The ancilla-measurement pattern yields exactly the two rank-one
    branch maps and is deterministic but neither strong nor uniform."""
    p = Pattern(
        [1, 2],
        [1],
        [1],
        [Prepare(2, 0.0), Entangle(1, 2), Measure(2, 0.0), CorrectX(1, {2})],
    )
    reports = enumerate_branches(p)
    expected = {
        "0": np.array([[1, 0], [0, 0]], dtype=complex),
        "1": np.array([[0, 1], [0, 0]], dtype=complex),
    }
    dev = max(
        float(np.max(np.abs(r.branch_map - expected[r.outcomes]))) for r in reports
    )
    verdict = classify_determinism(p, angle_samples=20, seed=0)
    passed = (
        dev < STRICT
        and verdict.classification is Classification.DETERMINISTIC
        and not verdict.is_strong
        and not verdict.uniform
    )
    _report(
        2,
        "projector-pattern branch maps and classification",
        passed,
        f"map deviation {dev:.2e}, verdict {verdict.classification.value}, "
        f"uniform {verdict.uniform}",
    )
    assert dev < STRICT
    assert verdict.classification is Classification.DETERMINISTIC
    assert not verdict.uniform


def test_criterion_03_hadamard_pattern():
    """The single-edge pattern is strongly and uniformly deterministic,
    realizes the Hadamard exactly, and is self-adjoint under its bi-flow."""
    g = hadamard_geometry()
    forward, reverse = find_biflow(g)
    assert forward.found and reverse.found
    # both corrector maps are forced, so the bi-flow is unique
    assert forward.flow.f == {1: 2}
    assert reverse.flow.f == {2: 1}
    p = synthesize(g, forward.flow, {1: 0.0})
    verdict = classify_determinism(p, angle_samples=20, seed=1)
    rescaled = enumerate_branches(p)[0].branch_map * 2.0 ** (p.n_measurements / 2)
    dev = float(np.max(np.abs(rescaled - HADAMARD)))
    dagger = adjoint(p, reverse.flow)
    self_adjoint = relabel(dagger, {1: 2, 2: 1}) == p
    passed = (
        verdict.is_strong and verdict.uniform and dev < STRICT and self_adjoint
    )
    _report(
        3,
        "Hadamard pattern strong, uniform, self-adjoint",
        passed,
        f"deviation from H {dev:.2e}, self-adjoint {self_adjoint}",
    )
    assert verdict.is_strong and verdict.uniform
    assert dev < STRICT
    assert self_adjoint


def test_criterion_04_synthesis_at_scale(flow_instances):
    """Every connected flow geometry with at most 5 vertices, 10 random
    angle vectors each: strong determinism, equal branch probabilities,
    rescaled branch map = embedding, and the isometry property."""
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_strong = worst_prob = worst_embed = worst_iso = 0.0
    samples_per_instance = 10
    for g, fl in flow_instances:
        measured = g.measured
        n = len(measured)
        dim_in = 1 << len(g.inputs)
        for _ in range(samples_per_instance):
            angles = {q: float(a) for q, a in zip(measured, rng.uniform(0, 2 * math.pi, n))}
            p = synthesize(g, fl, angles)
            state = rng.normal(size=dim_in) + 1j * rng.normal(size=dim_in)
            state /= np.linalg.norm(state)
            reports = enumerate_branches(p, input_state=state)
            base = reports[0].branch_map
            for r in reports:
                worst_strong = max(
                    worst_strong, float(np.max(np.abs(r.branch_map - base)))
                )
                worst_prob = max(worst_prob, abs(r.probability - 2.0 ** -n))
            rescaled = reports[0].branch_map * 2.0 ** (n / 2)
            embedding = realized_embedding(g, angles)
            worst_embed = max(
                worst_embed, float(np.max(np.abs(rescaled - embedding)))
            )
            gram = embedding.conj().T @ embedding
            worst_iso = max(
                worst_iso, float(np.max(np.abs(gram - np.eye(dim_in))))
            )
    elapsed = time.perf_counter() - start
    passed = (
        max(worst_strong, worst_prob, worst_embed, worst_iso) < TOL
        and elapsed < 300.0
    )
    _report(
        4,
        "deterministic synthesis at scale",
        passed,
        f"{len(flow_instances)} geometries x {samples_per_instance} angle vectors, "
        f"strong {worst_strong:.1e}, prob {worst_prob:.1e}, "
        f"embed {worst_embed:.1e}, isometry {worst_iso:.1e}, {elapsed:.0f}s",
    )
    assert worst_strong < TOL
    assert worst_prob < TOL
    assert worst_embed < TOL
    assert worst_iso < TOL
    assert elapsed < 300.0


def test_criterion_05_flow_solver_soundness():
    """Layer-peeling search agrees with the brute-force oracle on every
    graph with at most 4 vertices (all I/O choices) and on 200 random
    graphs with at most 7 vertices; all returned flows validate."""
    checked = 0
    for n in range(1, 5):
        vs = list(range(1, n + 1))
        all_edges = list(itertools.combinations(vs, 2))
        subsets = all_subsets(vs)
        for bits in range(1 << len(all_edges)):
            edges = [e for k, e in enumerate(all_edges) if bits >> k & 1]
            for inputs in subsets:
                for outputs in subsets:
                    g = OpenGraphState(vs, edges, inputs, outputs)
                    solver = find_flow(g)
                    oracle = brute_force_flow_oracle(g)
                    assert solver.found == oracle.found, (vs, edges, inputs, outputs)
                    if solver.found:
                        assert validate_flow(g, solver.flow).ok
                        assert validate_flow(g, oracle.flow).ok
                    checked += 1
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(1, 7)
        vs = list(range(1, n + 1))
        edges = [e for e in itertools.combinations(vs, 2) if rng.random() < 0.5]
        inputs = [v for v in vs if rng.random() < 0.4]
        outputs = [v for v in vs if rng.random() < 0.5]
        g = OpenGraphState(vs, edges, inputs, outputs)
        solver = find_flow(g)
        oracle = brute_force_flow_oracle(g)
        assert solver.found == oracle.found, (vs, edges, inputs, outputs)
        if solver.found:
            assert validate_flow(g, solver.flow).ok
        checked += 1
    _report(5, "flow solver vs brute-force oracle", True, f"{checked} graphs agree")


def test_criterion_06_stabilizer_form_equivalence(flow_instances):
    """Both synthesis routes produce identical branch maps on every
    exhaustive-sweep instance."""
    rng = np.random.default_rng(6)
    worst = 0.0
    for g, fl in flow_instances:
        angles = {q: float(rng.uniform(0, 2 * math.pi)) for q in g.measured}
        a = enumerate_branches(synthesize(g, fl, angles))
        b = enumerate_branches(synthesize_stabilizer_form(g, fl, angles))
        for x, y in zip(a, b):
            worst = max(worst, float(np.max(np.abs(x.branch_map - y.branch_map))))
    passed = worst < TOL
    _report(
        6,
        "stabilizer-form synthesis equivalence",
        passed,
        f"{len(flow_instances)} instances, max deviation {worst:.1e}",
    )
    assert worst < TOL


def test_criterion_07_circuit_extraction(flow_instances):
    """Extracted circuits match the realized embedding up to global phase;
    gate counts are structural.

    Each star folds its flow edge into the phase/Hadamard pair on the
    continuing wire, so the controlled-Z count is the number of edges not
    used by the corrector map, |E|-|measured|; the stated per-edge count
    would require a gate on a single merged wire.  Hadamard and phase
    counts are one per measured qubit.
    """
    rng = np.random.default_rng(7)
    worst = 0.0
    for g, fl in flow_instances:
        angles = {q: float(rng.uniform(0, 2 * math.pi)) for q in g.measured}
        circuit = extract_circuit(g, fl, angles)
        counts = Counter(type(x) for x in circuit.gates)
        n_measured = len(g.measured)
        assert counts[CZGate] == len(set(g.edges)) - n_measured
        assert counts[HadamardGate] == n_measured
        assert counts[PhaseGate] == n_measured
        assert len(circuit.wires) == len(g.outputs)
        deviation = max_deviation_up_to_phase(
            simulate_circuit(circuit), realized_embedding(g, angles)
        )
        worst = max(worst, deviation)
    passed = worst < TOL
    _report(
        7,
        "circuit extraction equivalence and gate counts",
        passed,
        f"{len(flow_instances)} circuits, max phase-aligned deviation {worst:.1e}, "
        f"CZ count |E|-|measured|",
    )
    assert worst < TOL


def test_criterion_08_biflow_adjoint(flow_instances):
    """Every bi-flow geometry realizes a unitary whose adjoint pattern
    realizes the adjoint matrix up to global phase."""
    rng = np.random.default_rng(8)
    worst_unitary = worst_adjoint = 0.0
    n_biflow = 0
    for g, fl in flow_instances:
        reverse = find_flow(g.reversed())
        if not reverse.found:
            continue
        n_biflow += 1
        meas = {q: float(rng.uniform(0, 2 * math.pi)) for q in g.measured}
        preps = {q: float(rng.uniform(0, 2 * math.pi)) for q in g.prepared}
        p = synthesize(g, fl, meas, preps)
        a = enumerate_branches(p)[0].branch_map * 2.0 ** (p.n_measurements / 2)
        dim = a.shape[0]
        worst_unitary = max(
            worst_unitary,
            float(np.max(np.abs(a @ a.conj().T - np.eye(dim)))),
            float(np.max(np.abs(a.conj().T @ a - np.eye(dim)))),
        )
        dagger = adjoint(p, reverse.flow)
        b = enumerate_branches(dagger)[0].branch_map * 2.0 ** (
            dagger.n_measurements / 2
        )
        worst_adjoint = max(
            worst_adjoint, max_deviation_up_to_phase(b, a.conj().T)
        )
    passed = max(worst_unitary, worst_adjoint) < TOL and n_biflow > 0
    _report(
        8,
        "bi-flow unitarity and adjoint realization",
        passed,
        f"{n_biflow} bi-flow geometries, unitary {worst_unitary:.1e}, "
        f"adjoint {worst_adjoint:.1e}",
    )
    assert n_biflow > 0
    assert worst_unitary < TOL
    assert worst_adjoint < TOL


def test_criterion_09_loop_flow_behavior():
    """The loop geometry is strongly deterministic with its loop qubit at a
    right angle and produces witnesses at generic angles."""
    g = loop_geometry()
    assert not find_flow(g).found
    result = find_flow(g, loop_candidates={2})
    assert result.found and result.flow.loops == {2}
    at_right = classify_determinism(
        synthesize(g, result.flow, {2: math.pi / 2.0}), angle_samples=10, seed=9
    )
    generic_angles = [0.7, 2.0, 3.9, 5.3]
    witnesses = []
    for angle in generic_angles:
        verdict = classify_determinism(
            synthesize(g, result.flow, {2: angle}), angle_samples=0
        )
        witnesses.append(
            verdict.classification is Classification.NOT_DETERMINISTIC
            and verdict.witness is not None
        )
    passed = (
        at_right.classification is Classification.STRONGLY_DETERMINISTIC
        and not at_right.uniform
        and all(witnesses)
    )
    _report(
        9,
        "loop flow: strong at right angle, witnesses elsewhere",
        passed,
        f"right-angle verdict {at_right.classification.value}, "
        f"{sum(witnesses)}/{len(generic_angles)} generic angles witnessed",
    )
    assert at_right.classification is Classification.STRONGLY_DETERMINISTIC
    assert not at_right.uniform
    assert all(witnesses)


def test_criterion_10_corrections_are_necessary(flow_instances):
    """Deleting all corrections from any synthesized pattern with nonzero
    angles destroys determinism, with an explicit witness each time."""
    rng = np.random.default_rng(10)
    n_checked = 0
    all_witnessed = True
    for g, fl in flow_instances:
        if not g.measured:
            continue
        angles = {q: float(rng.uniform(0.3, 2 * math.pi - 0.3)) for q in g.measured}
        stripped = synthesize(g, fl, angles).without_corrections()
        verdict = classify_determinism(stripped, angle_samples=0)
        ok = (
            verdict.classification is Classification.NOT_DETERMINISTIC
            and verdict.witness is not None
            and verdict.witness.deviation > 0
        )
        all_witnessed = all_witnessed and ok
        assert ok, (g.vertices, g.edges, g.inputs, g.outputs)
        n_checked += 1
    _report(
        10,
        "corrections are necessary (witnessed)",
        all_witnessed,
        f"{n_checked} stripped patterns all non-deterministic",
    )
    assert all_witnessed
