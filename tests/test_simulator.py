"""Tests for the branch simulator, determinism classification, and identities."""

import cmath
import itertools
import json
import math
import random
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from causalflow import (
    Circuit,
    Classification,
    CorrectX,
    CorrectXPhase,
    CorrectZ,
    Entangle,
    Measure,
    OpenGraphState,
    Pattern,
    PatternError,
    PhaseGate,
    Prepare,
    SimulationError,
    Wire,
    adjoint,
    check_rewrite_identities,
    check_runnable,
    classify_determinism,
    drop_x_corrections,
    enumerate_branches,
    extract_circuit,
    find_biflow,
    find_flow,
    max_deviation_up_to_phase,
    parse_pattern,
    print_pattern,
    realized_embedding,
    run_branch,
    simulate_circuit,
    synthesize,
    synthesize_stabilizer_form,
)
from causalflow import simulator
from causalflow import verdict as front
from causalflow.pattern import _ENTANGLE, _PREPARE, certify_strong
from causalflow.simulator import DeterminismVerdict, _classify_entry, _run_branches, _TensorEngine
from conftest import (
    CZ,
    HADAMARD,
    cluster_grid,
    hadamard_geometry,
    loop_geometry,
    path_state,
    random_angles,
    random_open_graph,
)

KET0_BRA0 = np.array([[1, 0], [0, 0]], dtype=complex)
KET0_BRA1 = np.array([[0, 1], [0, 0]], dtype=complex)


def projector_pattern() -> Pattern:
    """Deterministic-but-not-strong example: measure the ancilla, correct the input."""
    return Pattern(
        [1, 2],
        [1],
        [1],
        [Prepare(2, 0.0), Entangle(1, 2), Measure(2, 0.0), CorrectX(1, {2})],
    )


def hadamard_pattern() -> Pattern:
    g = hadamard_geometry()
    return synthesize(g, find_flow(g).flow, {1: 0.0})


def _count_passes(monkeypatch) -> list:
    """The angle vector of every dense pass from now on, in order, each as
    a list of floats."""
    passes = []

    def counting(p, angles):
        passes.append([float(a) for a in angles])
        return _run_branches(p, angles)

    monkeypatch.setattr(simulator, "_run_branches", counting)
    return passes


class TestRunBranch:
    def test_projector_pattern_branches(self):
        p = projector_pattern()
        np.testing.assert_allclose(run_branch(p, "0"), KET0_BRA0, atol=1e-14)
        np.testing.assert_allclose(run_branch(p, "1"), KET0_BRA1, atol=1e-14)

    def test_hadamard_branches(self):
        p = hadamard_pattern()
        for outcomes in ("0", "1"):
            np.testing.assert_allclose(
                run_branch(p, outcomes), HADAMARD / math.sqrt(2), atol=1e-14
            )

    def test_zero_measurement_pattern_is_its_unitary(self):
        p = Pattern([1, 2], [1, 2], [1, 2], [Entangle(1, 2)])
        np.testing.assert_allclose(run_branch(p, ""), CZ, atol=1e-14)

    def test_outcome_length_mismatch(self):
        with pytest.raises(PatternError, match="outcome"):
            run_branch(hadamard_pattern(), "01")

    def test_unrunnable_pattern_rejected(self):
        p = Pattern([1, 2], [1], [2], [Entangle(1, 2), Prepare(2), Measure(1)])
        with pytest.raises(PatternError, match="not runnable"):
            run_branch(p, "0")

    def test_agrees_with_enumerate_branches(self):
        rng = random.Random(53)
        arng = np.random.default_rng(53)
        checked = 0
        while checked < 15:
            g = random_open_graph(rng, max_vertices=5)
            result = find_flow(g)
            if not result.found or not g.measured:
                continue
            p = synthesize(
                g,
                result.flow,
                random_angles(arng, g.measured),
                random_angles(arng, g.prepared),
            )
            for report in enumerate_branches(p):
                np.testing.assert_allclose(
                    run_branch(p, report.outcomes),
                    report.branch_map,
                    atol=1e-12,
                )
            checked += 1


class TestEnumerateBranches:
    def test_hadamard_two_equal_branches_with_probabilities(self):
        arng = np.random.default_rng(1)
        state = arng.normal(size=2) + 1j * arng.normal(size=2)
        state /= np.linalg.norm(state)
        reports = enumerate_branches(hadamard_pattern(), input_state=state)
        assert [r.outcomes for r in reports] == ["0", "1"]
        for r in reports:
            np.testing.assert_allclose(r.branch_map, HADAMARD / math.sqrt(2), atol=1e-14)
            assert r.probability == pytest.approx(0.5, abs=1e-12)

    def test_projector_pattern_probabilities_are_input_dependent(self):
        a, b = 0.8, 0.6
        state = np.array([a, b], dtype=complex)
        reports = enumerate_branches(projector_pattern(), input_state=state)
        assert reports[0].probability == pytest.approx(a * a, abs=1e-12)
        assert reports[1].probability == pytest.approx(b * b, abs=1e-12)

    def test_path_three_random_angles_equal_branches(self):
        g = path_state(3, [1], [3])
        p = synthesize(g, find_flow(g).flow, {1: 2.11, 2: 0.37})
        reports = enumerate_branches(p)
        assert len(reports) == 4
        for r in reports[1:]:
            np.testing.assert_allclose(
                r.branch_map, reports[0].branch_map, atol=1e-12
            )

    def test_trace_preservation_random_patterns(self):
        rng = random.Random(59)
        arng = np.random.default_rng(59)
        checked = 0
        while checked < 15:
            g = random_open_graph(rng, max_vertices=5)
            result = find_flow(g)
            if not result.found:
                continue
            p = synthesize(g, result.flow, random_angles(arng, g.measured))
            reports = enumerate_branches(p)  # raises if trace preservation fails
            total = sum(
                r.branch_map.conj().T @ r.branch_map for r in reports
            )
            np.testing.assert_allclose(
                total, np.eye(total.shape[0]), atol=1e-9
            )
            checked += 1

    @pytest.mark.parametrize(
        "state",
        [
            np.ones(4) / 2,
            np.array([1.0, math.nan]),
            np.array([math.inf, 0.0]),
            np.array([3.0, 4.0]),
        ],
    )
    def test_bad_input_state_rejected_before_any_pass(self, monkeypatch, state):
        """A state of the wrong length, with a non-finite amplitude or whose
        norm is not 1 raises ValueError before the dense pass, also on a
        pattern over the budget."""
        passes = _count_passes(monkeypatch)
        with pytest.raises(ValueError, match="input state"):
            enumerate_branches(hadamard_pattern(), input_state=state)
        with pytest.raises(ValueError, match="input state"):
            enumerate_branches(_path_pattern(30), input_state=state)
        assert passes == []


def test_undeclared_output_rejected_before_any_pass(monkeypatch):
    """An output outside the declared qubits is a runnability violation, so
    classify_determinism raises before it simulates anything."""
    passes = _count_passes(monkeypatch)
    p = parse_pattern("V: 1 2\nI: 1\nO: 2 5\nN 2 0.0\nE 1 2\nM 1 0.0\n")
    with pytest.raises(PatternError, match="output qubit 5 not declared"):
        classify_determinism(p)
    assert passes == []


def _count_cached(monkeypatch, name: str) -> list:
    """The patterns whose cached ``Pattern.<name>`` is computed from now on,
    in order."""
    cached = Pattern.__dict__[name]
    func = cached.func
    log = []

    def counting(p):
        log.append(p)
        return func(p)

    monkeypatch.setattr(cached, "func", counting)
    return log


class TestOneWalk:
    def test_each_reader_shares_one_walk(self, monkeypatch):
        """synthesize's own check, check_runnable, classify_determinism,
        enumerate_branches and run_branch all read the one walk of the
        pattern's commands that the first of them made.  The certified
        classification lowers no plan; enumerate_branches lowers it once."""
        walked = _count_cached(monkeypatch, "_walk")
        planned = _count_cached(monkeypatch, "_plan")
        g = path_state(3, [1], [3])
        p = synthesize(g, find_flow(g).flow, {1: 2.11, 2: 0.37})
        assert len(walked) == 1 and walked[0] is p
        assert check_runnable(p).ok
        assert classify_determinism(p, angle_samples=5).is_strong
        assert planned == []
        enumerate_branches(p, input_state=np.array([0.6, 0.8]))
        run_branch(p, "01")
        enumerate_branches(p)
        assert len(walked) == 1
        assert planned == [p]

    def test_one_walk_across_restarts(self, monkeypatch):
        """classify_determinism walks a pattern and lowers its plan once,
        across its eight passes, one per angle vector; a second
        classification and enumerate_branches walk it and lower it no
        more."""
        g = path_state(8, [1], [8])
        arng = np.random.default_rng(8)
        flow = find_flow(g).flow
        p = synthesize(g, flow, random_angles(arng, g.measured), random_angles(arng, g.prepared))
        p = _off_strong(p, 1)
        walked = _count_cached(monkeypatch, "_walk")
        planned = _count_cached(monkeypatch, "_plan")
        passes = _count_passes(monkeypatch)
        verdict = classify_determinism(p, angle_samples=7, tolerance=OFF_TOLERANCE)
        assert verdict.is_strong and verdict.uniform
        assert len(passes) == 8
        classify_determinism(p, angle_samples=7, tolerance=OFF_TOLERANCE)
        enumerate_branches(p)
        assert walked == [p] and planned == [p]


class TestClassification:
    def test_projector_pattern_deterministic_not_strong_not_uniform(self):
        verdict = classify_determinism(projector_pattern(), angle_samples=20, seed=3)
        assert verdict.classification is Classification.DETERMINISTIC
        assert not verdict.is_strong
        assert not verdict.uniform
        assert verdict.is_deterministic

    def test_synthesized_patterns_strong_and_uniform(self):
        g = path_state(3, [1], [3])
        p = synthesize(g, find_flow(g).flow, {1: 1.0, 2: 2.0})
        verdict = classify_determinism(p, angle_samples=20, seed=5)
        assert verdict.classification is Classification.STRONGLY_DETERMINISTIC
        assert verdict.uniform

    def test_deleting_corrections_breaks_determinism_with_witness(self):
        g = hadamard_geometry()
        p = synthesize(g, find_flow(g).flow, {1: 1.1}).without_corrections()
        verdict = classify_determinism(p, angle_samples=5, seed=7)
        assert verdict.classification is Classification.NOT_DETERMINISTIC
        witness = verdict.witness
        assert witness is not None
        maps = {
            r.outcomes: r.branch_map for r in enumerate_branches(p)
        }
        u = maps[witness.branch_a] @ witness.input_state
        v = maps[witness.branch_b] @ witness.input_state
        gram = np.linalg.norm(u) * np.linalg.norm(v) - abs(np.vdot(u, v))
        assert gram > 1e-6

    def test_no_measurements_is_trivially_strong(self):
        p = Pattern([1], [1], [1], [])
        verdict = classify_determinism(p)
        assert verdict.classification is Classification.STRONGLY_DETERMINISTIC
        assert verdict.uniform

    def test_verdict_json(self):
        doc = classify_determinism(projector_pattern(), seed=2).to_json_dict()
        assert doc["classification"] == "deterministic"
        assert doc["uniform"] is False
        assert doc["seed"] == 2


def _flow_patterns(seed: int, count: int, max_vertices: int = 6):
    """Seeded (geometry, flow) pairs with at least one measured qubit."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        g = random_open_graph(rng, max_vertices=max_vertices)
        result = find_flow(g)
        if result.found and g.measured:
            found.append((g, result.flow))
    return found


def _mutants(p: Pattern, rng: random.Random) -> list[Pattern]:
    """``p`` with one correction dropped, and with one correction's X and Z swapped."""
    spots = [
        k for k, c in enumerate(p.commands) if isinstance(c, (CorrectX, CorrectXPhase, CorrectZ))
    ]
    if not spots:
        return []
    k = rng.choice(spots)
    cmd = p.commands[k]
    swapped = (
        CorrectZ(cmd.qubit, cmd.signals)
        if isinstance(cmd, (CorrectX, CorrectXPhase))
        else CorrectX(cmd.qubit, cmd.signals)
    )
    rest = list(p.commands[:k]), list(p.commands[k + 1 :])
    return [
        Pattern(p.vertices, p.inputs, p.outputs, rest[0] + rest[1]),
        Pattern(p.vertices, p.inputs, p.outputs, rest[0] + [swapped] + rest[1]),
    ]


def _angle_vector(p: Pattern, angles) -> list[float]:
    """An angle vector as ``_run_branches`` takes it: ``angles`` of each
    measurement, in measurement order."""
    return [angles[q] for q in p.measurement_order]


class TestOnePassPerAngleVector:
    def test_each_pass_matches_run_branch(self):
        """Distinct angle vectors, one pass each over one pattern's plan;
        each pass's branch maps equal run_branch on the pattern with that
        pass's angles.  Random preparation angles turn X corrections into
        phase-conjugated ones.  The late-graph pattern puts a correction's
        control on a later axis of the engine's tensor than its target."""
        arng = np.random.default_rng(61)
        families = []
        for k, (g, fl) in enumerate(_flow_patterns(61, 14)):
            prep = random_angles(arng, g.prepared) if k % 2 else {q: 0.0 for q in g.prepared}
            families.append(
                [synthesize(g, fl, random_angles(arng, g.measured), prep) for _ in range(3)]
            )
        families.append([_late_graph_pattern(random_angles(arng, [2, 3, 4])) for _ in range(3)])
        control_first = set()
        kinds = set()
        for family in families:
            p = family[0]
            for q in family:
                eng = _run_branches(p, _angle_vector(p, q.measure_angles()))
                for cmd in p.commands:
                    if isinstance(cmd, (CorrectX, CorrectXPhase, CorrectZ)):
                        kinds.add(type(cmd))
                        control_first.update(
                            eng.axis_of[s] < eng.axis_of[cmd.qubit] for s in cmd.signals
                        )
                maps = eng.maps(p.outputs)
                n = p.n_measurements
                for s in range(1 << n):
                    label = format(s, f"0{n}b")
                    np.testing.assert_allclose(maps[s], run_branch(q, label), atol=1e-12)
        assert kinds == {CorrectX, CorrectXPhase, CorrectZ}
        assert control_first == {True, False}


def _late_graph_pattern(angles, preps=(0.3, 0.5, 1.2)) -> Pattern:
    """Inputs 1 and 2, outputs 1 and 5: qubits 4 and 5 are prepared and
    entangled after measurements, 4 and 5 with the input 1, and the
    correction of 1 is controlled by the late qubit 4.  The qubit axes end
    as 5, 4, 3, 1, 2, so the read-out (the branches 2, 3, 4, then the
    outputs 1, 5) moves every one.
    ``preps`` are the preparation angles of 3, 4 and 5."""
    return Pattern(
        range(1, 6),
        [1, 2],
        [1, 5],
        [
            Prepare(3, preps[0]),
            Entangle(2, 3),
            Entangle(1, 3),
            Measure(2, angles[2]),
            CorrectX(3, {2}),
            Prepare(4, preps[1]),
            Entangle(1, 4),
            Entangle(3, 4),
            Measure(3, angles[3]),
            CorrectXPhase(4, preps[1], {3}),
            CorrectZ(1, {2, 3}),
            Measure(4, angles[4]),
            CorrectX(1, {4}),
            Prepare(5, preps[2]),
            Entangle(1, 5),
            CorrectZ(5, {3, 4}),
        ],
    )


def _eager_pass(p: Pattern, angles) -> _TensorEngine:
    """The reference pass, eager and in the pattern's own order, with the
    dense pass's arithmetic: from the identity on the inputs, each
    preparation is a new axis 0 (``prepare``) and every gate is one of the
    engine's kernels."""
    eng = _TensorEngine(p.inputs, len(p.vertices))
    factors = iter(np.exp(-1j * np.asarray(angles, dtype=float)))
    for cmd in p.commands:
        if isinstance(cmd, Prepare):
            eng.prepare(cmd.qubit, cmath.exp(1j * cmd.angle))
        elif isinstance(cmd, Entangle):
            eng.phase(cmd.b, -1.0, cmd.a)
        elif isinstance(cmd, Measure):
            eng.butterfly(cmd.qubit, next(factors))
            eng.branch_order.append(cmd.qubit)
        else:
            e = cmath.exp(1j * cmd.angle) if isinstance(cmd, CorrectXPhase) else None
            for s in cmd.signals:
                if isinstance(cmd, CorrectZ):
                    eng.phase(cmd.qubit, -1.0, s)
                    continue
                if e is not None:
                    eng.phase(cmd.qubit, e.conjugate(), s)
                eng.flip(cmd.qubit, s)
                if e is not None:
                    eng.phase(cmd.qubit, e, s)
    return eng


def _edited(p: Pattern, rng: random.Random) -> list[Pattern]:
    """``p`` with one correction dropped, one swapped X<->Z (``_mutants``),
    and one duplicated."""
    spots = [k for k, c in enumerate(p.commands) if isinstance(c, (CorrectX, CorrectXPhase, CorrectZ))]
    if not spots:
        return []
    k = rng.choice(spots)
    doubled = [*p.commands[: k + 1], p.commands[k], *p.commands[k + 1 :]]
    return [*_mutants(p, rng), Pattern(p.vertices, p.inputs, p.outputs, doubled)]


class TestGraphStateBuild:
    """The dense pass runs its plan's lazy order and prepares each qubit in
    place.  At zero preparation angles its branch maps are bit for
    bit those of the eager reference pass; at any angles they equal
    run_branch's."""

    def _assert_bitwise(self, p: Pattern, angle_vectors) -> None:
        for angles in angle_vectors:
            maps = _run_branches(p, angles).maps(p.outputs)
            expected = _eager_pass(p, angles).maps(p.outputs)
            assert np.array_equal(maps, expected), print_pattern(p)

    def _assert_run_branch(self, p: Pattern) -> None:
        maps = _run_branches(p, _angle_vector(p, p.measure_angles())).maps(p.outputs)
        for s in range(1 << p.n_measurements):
            label = format(s, f"0{p.n_measurements}b")
            np.testing.assert_allclose(maps[s], run_branch(p, label), atol=1e-12)

    def test_sampled_geometries_bitwise(self):
        arng = np.random.default_rng(14)
        forms = set()
        for g, fl in _flow_patterns(14, 120, max_vertices=5):
            meas = random_angles(arng, g.measured)
            for p in (synthesize(g, fl, meas), synthesize_stabilizer_form(g, fl, meas)):
                forms.add(bool(p.inputs))
                angles = arng.uniform(0.0, 2.0 * math.pi, size=(3, p.n_measurements))
                for variant in (p, p.without_corrections(), drop_x_corrections(p)):
                    self._assert_bitwise(variant, angles)
        assert forms == {True, False}

    def test_cluster_grid_bitwise(self):
        """The 3x4 grid at 21 angle vectors."""
        g = cluster_grid(3, 4)
        p = synthesize(g, find_flow(g).flow, {q: 0.1 * q for q in g.measured})
        rows = np.random.default_rng(4).uniform(0.0, 2.0 * math.pi, size=(20, 9))
        self._assert_bitwise(p, [_angle_vector(p, p.measure_angles()), *rows])

    def test_graph_after_measurements_matches_run_branch(self):
        arng = np.random.default_rng(15)
        variants = [_late_graph_pattern(random_angles(arng, [2, 3, 4])) for _ in range(4)]
        p = variants[0]
        assert check_runnable(p).ok
        for q in variants:
            eng = _run_branches(p, _angle_vector(p, q.measure_angles()))
            # the inputs 1 and 2 start on axes 0 and 1; 3, 4 and 5, each
            # prepared later, took axis 0; the two domain axes stay last.  So
            # Z1's control 2 and Z5's controls 3 and 4 have axes after their
            # targets', and X1's control 4 before its target's
            assert sorted(eng.axis_of, key=eng.axis_of.get) == [5, 4, 3, 1, 2]
            assert sorted(eng.axis_of.values()) == [0, 1, 2, 3, 4]
            assert eng.t.shape == (2,) * 7
            maps = eng.maps(p.outputs)
            for s in range(8):
                label = format(s, "03b")
                np.testing.assert_allclose(maps[s], run_branch(q, label), atol=1e-12)
        zero = _late_graph_pattern(p.measure_angles(), (0.0, 0.0, 0.0))
        self._assert_bitwise(zero, [_angle_vector(zero, q.measure_angles()) for q in variants])

    def test_edited_patterns_match_run_branch(self):
        """Random preparation phases, corrections swapped X<->Z, dropped and
        duplicated, entanglers after measurements and corrections with
        several signals: the lazy pass equals run_branch within 1e-12."""
        rng = random.Random(16)
        arng = np.random.default_rng(16)
        for g, fl in _flow_patterns(16, 60, max_vertices=5):
            meas = random_angles(arng, g.measured)
            for p in (
                synthesize(g, fl, meas, random_angles(arng, g.prepared)),
                synthesize_stabilizer_form(g, fl, meas),
            ):
                for variant in (p, *_edited(p, rng)):
                    self._assert_run_branch(variant)
        late = _late_graph_pattern(random_angles(arng, [2, 3, 4]))
        for variant in (late, *_edited(late, rng)):
            self._assert_run_branch(variant)


def _placed_at(p: Pattern, plan: list) -> list[int]:
    """Each plan entry's index in ``p.commands``; equal commands in order."""
    unused: dict = {}
    for k, cmd in enumerate(p.commands):
        unused.setdefault(cmd, []).append(k)
    return [unused[cmd].pop(0) for cmd in plan]


def _on(cmd, q: int) -> bool:
    return q in (cmd.a, cmd.b) if isinstance(cmd, Entangle) else cmd.qubit == q


def _lazy_order(p: Pattern) -> list:
    """The commands of ``p`` in its plan's lazy order: for each _PREPARE and
    _ENTANGLE step, the first unused command that lowers to it, and for
    each other step the next gate of ``p.commands`` (no gate moves)."""
    gates = (c for c in p.commands if not isinstance(c, (Prepare, Entangle)))
    deferred: dict = {}
    for cmd in p.commands:
        if isinstance(cmd, Prepare):
            deferred.setdefault((_PREPARE, cmd.qubit, cmath.exp(1j * cmd.angle)), []).append(cmd)
        elif isinstance(cmd, Entangle):
            deferred.setdefault((_ENTANGLE, cmd.b, cmd.a), []).append(cmd)
    return [
        deferred[step[:3]].pop(0) if step[0] in (_PREPARE, _ENTANGLE) else next(gates)
        for step in p._plan
    ]


class TestCompile:
    """The plan's lazy order: each N just before the first command on its
    qubit, each E just before the first measurement or X/XA correction on
    either endpoint, leftovers at the end in their own order, and no
    command earlier than in the pattern."""

    def test_late_graph_pattern_order(self):
        p = _late_graph_pattern({2: 0.1, 3: 0.2, 4: 0.3})
        c = p.commands
        # N3 E23 M2; E13 X3; N4 E34 M3; E14 XA4; Z1 M4 X1; N5 Z5; then the
        # leftover E15, which commutes with Z5
        order = [0, 1, 3, 2, 4, 5, 7, 8, 6, 9, 10, 11, 12, 13, 15, 14]
        assert _lazy_order(p) == [c[k] for k in order]

    def test_rule_on_sampled_patterns(self):
        rng = random.Random(18)
        arng = np.random.default_rng(18)
        patterns = [_late_graph_pattern(random_angles(arng, [2, 3, 4]))]
        for g, fl in _flow_patterns(18, 80, max_vertices=6):
            meas = random_angles(arng, g.measured)
            for p in (synthesize(g, fl, meas), synthesize_stabilizer_form(g, fl, meas)):
                patterns += [p, p.without_corrections(), *_edited(p, rng)]
        for p in patterns:
            self._assert_rule(p)

    def test_malformed_patterns_lower(self):
        """The walk lowers a pattern that is not runnable without raising,
        each command placed once and the gates in their own order: a
        repeated N, a self-entangler, gates on an unprepared and on an
        undeclared qubit, signals never measured and a qubit measured
        twice."""
        texts = [
            "V: 1 2\nI: 1\nO: 2\nN 2 0.0\nN 2 0.7\nE 1 2\nM 1 0.5\nX 2 [1]\n",
            "V: 4\nI:\nO: 4\nE 4 4\nN 4 0.0\n",
            "V: 1 2 3\nI: 1\nO: 3\nE 1 2\nM 2 0.1\nN 2 0.0\nZ 3 [1]\nX 9 [7]\n",
            "V: 1 2\nI: 1\nO: 2\nN 2 0.0\nE 1 2\nXA 2 0.4 [1,5]\nM 1 0.3\nM 1 0.2\n",
        ]
        for text in texts:
            p = parse_pattern(text)
            assert not check_runnable(p).ok
            origin = _placed_at(p, _lazy_order(p))
            assert sorted(origin) == [*range(len(p.commands))], text
            gates = [k for k in origin if not isinstance(p.commands[k], (Prepare, Entangle))]
            assert gates == sorted(gates), text

    def _assert_rule(self, p: Pattern) -> None:
        plan = _lazy_order(p)
        origin = _placed_at(p, plan)
        assert sorted(origin) == [*range(len(p.commands))]
        # a command passes one that came before it in p only if that one
        # is a preparation or an entangler, deferred
        for at, k in enumerate(origin):
            for j in origin[at + 1 :]:
                assert j > k or isinstance(p.commands[j], (Prepare, Entangle)), print_pattern(p)
        gates = [k for k in origin if not isinstance(p.commands[k], (Prepare, Entangle))]
        assert gates == sorted(gates)
        n = len(plan)
        tail = n
        while tail and isinstance(plan[tail - 1], (Prepare, Entangle)):
            tail -= 1
        for at, cmd in enumerate(plan[:tail]):
            if isinstance(cmd, Entangle):
                # the next gate needs it: a measurement or X/XA on an endpoint,
                # and none of those comes between the E's place in p and it
                nxt = next(j for j in range(at, n) if not isinstance(plan[j], (Prepare, Entangle)))
                trigger = plan[nxt]
                assert not isinstance(trigger, CorrectZ) and _on(trigger, cmd.a) | _on(trigger, cmd.b)
                between = p.commands[origin[at] + 1 : origin[nxt]]
                assert not any(
                    not isinstance(c, (Prepare, Entangle, CorrectZ))
                    and (_on(c, cmd.a) or _on(c, cmd.b))
                    for c in between
                ), print_pattern(p)
            elif isinstance(cmd, Prepare):
                # only preparations and entanglers before its qubit's first use
                use = next(j for j in range(at + 1, n) if _on(plan[j], cmd.qubit))
                assert all(isinstance(c, (Prepare, Entangle)) for c in plan[at + 1 : use])
        for at in range(tail, n):
            # a leftover is needed by no gate after it in p
            cmd = plan[at]
            later = p.commands[origin[at] + 1 :]
            if isinstance(cmd, Entangle):
                assert not any(
                    isinstance(c, (Measure, CorrectX, CorrectXPhase)) and (_on(c, cmd.a) or _on(c, cmd.b))
                    for c in later
                )
            else:
                assert not any(_on(c, cmd.qubit) for c in later if not isinstance(c, Entangle))
        assert origin[tail:] == sorted(origin[tail:])


class TestInputDiagonalWrite:
    """The constructor writes the identity on the inputs, ones where each
    input's qubit axis equals its domain axis and zeros elsewhere, with the
    qubit axes in input order; ``prepare`` puts a new qubit on axis 0."""

    def test_identity_on_zero_to_four_inputs(self):
        """From no input, a tensor with no axis, to four, in a row with and
        without room for more qubits."""
        for n_in in range(5):
            inputs = [7, 2, 9, 4][:n_in]
            expected = np.eye(1 << n_in, dtype=complex).reshape((2,) * (2 * n_in))
            for qubits in (n_in, n_in + 2):
                eng = _TensorEngine(inputs, qubits)
                assert eng.axis_of == {q: k for k, q in enumerate(inputs)}
                assert eng.t.shape == expected.shape
                assert np.array_equal(eng.t, expected), inputs
                assert eng.scale == 1.0

    def test_prepare_adds_axis_zero(self):
        """The tensor as it stood is the new 0-half, times the phase the
        1-half, exactly; the 1/sqrt(2) of each plus state is in the scale."""
        eng = _TensorEngine([7, 2], 4)
        before = eng.t.copy()
        phases = [cmath.exp(0.7j), 1.0]
        for q, phase in zip([5, 3], phases):
            eng.prepare(q, phase)
        assert eng.axis_of == {3: 0, 5: 1, 7: 2, 2: 3}
        expected = np.multiply.outer([1.0, phases[1]], np.multiply.outer([1.0, phases[0]], before))
        assert np.array_equal(eng.t, expected)
        assert eng.scale == simulator._SQRT2_INV * simulator._SQRT2_INV


class TestOneRow:
    """Every simulation lives in the row its constructor allocates, sized
    for its most qubits at once: each step leaves the tensor at the start
    of the engine's row, and the simulation allocates within its charge."""

    STEPS = ("prepare", "contract_bra")

    def _watch(self, monkeypatch) -> list[str]:
        """Check the tensor after every call of one of STEPS; return the
        names of the calls, in order."""
        calls = []
        for name in self.STEPS:

            def watched(eng, *args, _step=getattr(_TensorEngine, name), _name=name):
                _step(eng, *args)
                calls.append(_name)
                assert np.shares_memory(eng.t, eng._row), _name
                assert eng.t.flags.c_contiguous, _name
                start = eng.t.__array_interface__["data"][0]
                assert start == eng._row.__array_interface__["data"][0], _name

            monkeypatch.setattr(_TensorEngine, name, watched)
        return calls

    @pytest.mark.parametrize("inputs", [[1, 4, 7], [4]], ids=["grid-3x3", "grid-3x3-one-input"])
    def test_each_step_leaves_the_tensor_at_the_row_start(self, monkeypatch, inputs):
        """On the 3x3 grid, with its three inputs and with the middle one
        alone: realized_embedding prepares and contracts qubits,
        simulate_circuit prepares its ancilla wires (the one-input grid's
        circuit has two) and the dense pass of enumerate_branches prepares
        its qubits, each in its row."""
        calls = self._watch(monkeypatch)
        grid = cluster_grid(3, 3)
        g = OpenGraphState(grid.vertices, grid.edges, inputs, grid.outputs)
        flow = find_flow(g).flow
        angles = {q: 0.1 * q for q in g.measured}
        realized_embedding(g, angles)
        assert {"prepare", "contract_bra"} <= set(calls)
        calls.clear()
        circuit = extract_circuit(g, flow, angles)
        simulate_circuit(circuit)
        assert calls == ["prepare"] * sum(w.source == "plus" for w in circuit.wires)
        calls.clear()
        enumerate_branches(synthesize(g, flow, angles))
        assert set(calls) == {"prepare"}

    @pytest.mark.parametrize(
        "g", [path_state(3000, [1], [3000]), cluster_grid(7, 6)], ids=["path-1x3000", "grid-7x6"]
    )
    def test_simulation_peaks_within_its_charge(self, monkeypatch, g):
        """realized_embedding, and simulate_circuit on the extracted circuit:
        from the engine's constructor to the end of the call, the traced
        allocations peak within _pass_bytes of the qubit count and input
        axes the constructor is handed and checks.  The 7x6 grid holds 15
        axes at once, so its two rows and its map weigh more than numpy's
        buffer reserve.  The geometry's bookkeeping (ranks and steps, about
        1 MB for the path's 3000 vertices) is held before the constructor,
        grows with the geometry, not with the tensor, and is not charged."""
        charges = []
        engine = _TensorEngine.__init__

        def charged(eng, inputs, qubits):
            charges.append(
                (simulator._pass_bytes(qubits, len(inputs)), tracemalloc.get_traced_memory()[0])
            )
            tracemalloc.reset_peak()
            engine(eng, inputs, qubits)

        angles = {q: 0.0 for q in g.measured}
        circuit = extract_circuit(g, find_flow(g).flow, angles)
        realized_embedding(g, angles)
        simulate_circuit(circuit)
        monkeypatch.setattr(_TensorEngine, "__init__", charged)
        for call in (partial(realized_embedding, g, angles), partial(simulate_circuit, circuit)):
            charges.clear()
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            [(charge, held)] = charges
            assert peak - held <= charge


def _reference_pair_witness(a: np.ndarray, b: np.ndarray, tolerance: float, scale: float):
    """The witness as a loop over the probes, each image a matrix-vector
    product: the probes are the basis states, then e_k + e_l and e_k + i e_l
    for each pair k < l; (defect, probe) for the first of largest defect,
    or None if no defect exceeds ``tolerance``."""

    def defect(u: np.ndarray, v: np.ndarray) -> float:
        nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
        if nu <= tolerance * scale or nv <= tolerance * scale:
            return 0.0
        return (nu * nv - abs(np.vdot(u, v))) / (nu * nv)

    eye = np.eye(a.shape[1], dtype=complex)
    probes = list(eye)
    for k, l in itertools.combinations(range(len(eye)), 2):
        probes += [eye[k] + eye[l], eye[k] + 1j * eye[l]]
    defects = np.array([defect(a @ probe, b @ probe) for probe in probes])
    k = simulator._first_near_max(defects)
    if defects[k] <= tolerance:
        return None
    return float(defects[k]), probes[k] / np.linalg.norm(probes[k])


class TestPassClassifier:
    def test_engine_and_run_branch_give_same_verdict_and_witness(self):
        """Strong, deterministic-only and non-deterministic samples from
        synthesized, X-dropped and mutated patterns: classifying a pass's
        maps gives the verdict and witness of classifying the maps
        run_branch builds for that pass's angles, although the two routes
        round differently and tied branch norms and probe defects abound."""
        rng = random.Random(67)
        arng = np.random.default_rng(67)
        seen = set()
        witnesses = 0
        patterns = [projector_pattern()]
        for g, fl in _flow_patterns(67, 30):
            p = synthesize(g, fl, random_angles(arng, g.measured), random_angles(arng, g.prepared))
            patterns += [p, drop_x_corrections(synthesize(g, fl, {q: 0.0 for q in g.measured}))]
            patterns += _mutants(p, rng)
        for p in patterns:
            angle_sets = [p.measure_angles()] + [
                random_angles(arng, p.measurement_order) for _ in range(3)
            ]
            n = p.n_measurements
            for angles in angle_sets:
                q = Pattern(
                    p.vertices,
                    p.inputs,
                    p.outputs,
                    [Measure(c.qubit, angles[c.qubit]) if isinstance(c, Measure) else c for c in p.commands],
                )
                reference = np.array([run_branch(q, format(s, f"0{n}b")) for s in range(1 << n)])
                expected = _classify_entry(reference, 1e-9)
                maps = _run_branches(p, _angle_vector(p, angles)).maps(p.outputs)
                got = _classify_entry(maps, 1e-9)
                assert got[0] is expected[0]
                if expected[1] is None:
                    assert got[1] is None
                else:
                    witnesses += 1
                    assert got[1].branch_a == expected[1].branch_a
                    assert got[1].branch_b == expected[1].branch_b
                    assert got[1].deviation == pytest.approx(expected[1].deviation, abs=1e-12)
                    np.testing.assert_array_equal(got[1].input_state, expected[1].input_state)
                seen.add(expected[0])
        assert seen == set(Classification)
        assert witnesses > 10

    def _patterns(self) -> list[Pattern]:
        rng = random.Random(71)
        arng = np.random.default_rng(71)
        # an unentangled ancilla scales every branch by its own factor
        ancilla = Pattern([1, 2], [1], [1], [Prepare(2, 0.0), Measure(2, 0.3)])
        patterns = [projector_pattern(), ancilla]
        g = loop_geometry()
        fl = find_flow(g, loop_candidates=g.measured).flow
        patterns += [synthesize(g, fl, {2: math.pi / 2}), synthesize(g, fl, {2: 0.4})]
        for g, fl in _flow_patterns(71, 16):
            p = synthesize(g, fl, random_angles(arng, g.measured), random_angles(arng, g.prepared))
            patterns += [p, p.without_corrections()]
            patterns.append(drop_x_corrections(synthesize(g, fl, {q: 0.0 for q in g.measured})))
            patterns += _mutants(p, rng)
        return patterns

    def test_strong_test_is_the_per_entry_rule(self):
        """Per entry, the reference is the first branch within 1e-12 of the
        largest norm, and the strong verdict is the entrywise distance from
        it, on entries with tied norms, with a largest branch that is not
        the first, and with one branch off by more or less than the
        tolerance; a witness starts from the reference branch."""
        rng = np.random.default_rng(73)
        maps = np.repeat(rng.standard_normal((1, 1, 2, 4)) + 0j, 8, axis=1)
        maps = np.repeat(maps, 6, axis=0)
        maps[1, 5] *= 1.5
        maps[2] *= np.linspace(0.5, 1.0, 8)[:, None, None]
        maps[3, 2, 1, 3] += 1e-10
        maps[4, 6, 0, 0] += 1e-8
        maps[5] = rng.standard_normal((8, 2, 4)) + 1j * rng.standard_normal((8, 2, 4))
        refs, strong, witnesses = [], [], []
        for entry in maps:
            norms = np.linalg.norm(entry.reshape(8, -1), axis=1)
            ref = int(np.flatnonzero(norms >= norms.max() * (1.0 - 1e-12))[0])
            classification, witness = _classify_entry(entry, 1e-9)
            refs.append(ref)
            strong.append(classification is Classification.STRONGLY_DETERMINISTIC)
            assert strong[-1] == (np.abs(entry - entry[ref]).max() < 1e-9)
            if witness is not None:
                assert witness.branch_a == format(ref, "03b")
                witnesses.append(ref)
        assert refs[:3] == [0, 5, 7]
        assert witnesses == [1]
        assert strong == [True, False, False, True, False, False]

    def test_strong_test_takes_moduli_between_the_bounds(self):
        """A difference whose real and imaginary parts are each below the
        tolerance may still have a modulus at or above it.  The verdict is
        the modulus test's below tolerance / 2, in between and at the
        tolerance."""
        verdicts = []
        for delta in [4e-10, 4e-10 * (1 + 1j), 9e-10, 6e-10 * (1 + 1j), 7.5e-10 * (1 + 1j), 1e-9]:
            maps = np.ones((2, 2, 2), dtype=complex)
            maps[1, 0, 1] += delta
            classification, _ = _classify_entry(maps, 1e-9)
            verdicts.append(classification is Classification.STRONGLY_DETERMINISTIC)
            assert verdicts[-1] == (np.abs(maps[1] - maps[0]).max() < 1e-9)
        assert verdicts == [True, True, True, True, False, False]

    def test_verdict_does_not_depend_on_output_order(self):
        """Permuting the output rows of a pass's maps leaves the
        classification, the branch pair and the probe as they were, and the
        deviation within 1e-12 relative."""
        rng = np.random.default_rng(79)
        witnesses = 0
        for p in self._patterns():
            samples = rng.uniform(0.0, 2.0 * math.pi, size=(2, p.n_measurements))
            for angles in [_angle_vector(p, p.measure_angles()), *samples]:
                maps = _run_branches(p, angles).maps(p.outputs)
                perm = rng.permutation(maps.shape[1])
                classification, witness = _classify_entry(maps, 1e-9)
                permuted, moved = _classify_entry(maps[:, perm, :], 1e-9)
                assert permuted is classification
                assert (moved is None) == (witness is None)
                if witness is not None:
                    witnesses += 1
                    assert (moved.branch_a, moved.branch_b) == (witness.branch_a, witness.branch_b)
                    np.testing.assert_array_equal(moved.input_state, witness.input_state)
                    assert moved.deviation == pytest.approx(witness.deviation, rel=1e-12)
        assert witnesses > 10

    def test_pair_witness_matches_the_per_probe_loop(self):
        """On seeded maps, the same probe as testing each probe on its own,
        and a deviation within 1e-12 relative: random pairs, rank-one pairs
        with a common range (no witness), pairs whose probe defects tie
        exactly (the first of largest wins) and pairs with negligible probe
        images (the tolerance * scale case)."""
        rng = np.random.default_rng(83)

        def draw(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        cases = []
        for out, d in [(1, 1), (1, 2), (2, 2), (2, 4), (4, 8), (8, 2), (1, 8), (2, 16)]:
            cases.append((draw(out, d), draw(out, d)))
            u = draw(out, 1)
            cases.append((u @ draw(1, d), 0.7j * u @ draw(1, d)))
        for d in (2, 4, 8):
            signs = np.where(rng.random(d) < 0.5, 1.0, -1.0)
            signs[-1] = -signs[0]
            cases.append((np.eye(d, dtype=complex), np.diag(signs).astype(complex)))
        cases.append((np.eye(2, dtype=complex), np.array([[1.0, -1.0], [0.0, 0.0]], dtype=complex)))
        # e_1's image under the second map is negligible, else the worst probe
        cases.append((np.eye(2, dtype=complex), np.array([[1.0, 1e-12], [0.0, 0.0]], dtype=complex)))
        a, b = draw(2, 4), draw(2, 4)
        b[:, 1] = -b[:, 0]
        a[:, 3] = 0.0
        b[:, 2] *= 1e-12
        cases.append((a, b))
        found = agreed = 0
        for a, b in cases:
            scale = max(np.abs(a).max(), np.abs(b).max())
            want = _reference_pair_witness(a, b, 1e-9, scale)
            got = simulator._pair_witness(np.stack([a, b]), 0, 1, 1e-9, scale)
            assert (got is None) == (want is None)
            if want is None:
                agreed += 1
                continue
            found += 1
            np.testing.assert_array_equal(got[1], want[1])
            assert got[0] == pytest.approx(want[0], rel=1e-12)
        assert found >= 10 and agreed >= 8

    @pytest.mark.parametrize("seed", range(5))
    def test_samples_equal_scalar_at_a_time_draws(self, monkeypatch, seed):
        """The samples, each drawn in one call as its pass starts, reach the
        passes as the scalar-at-a-time draws would, after the pattern's own
        angles, on a strong pattern with the certificate off."""
        monkeypatch.setattr(front, "certify_strong", lambda p: False)
        g = path_state(8, [1], [8])
        p = synthesize(g, find_flow(g).flow, {q: 0.1 * q for q in g.measured})
        rows = _count_passes(monkeypatch)
        classify_determinism(p, angle_samples=20, seed=seed)
        rng = np.random.default_rng(seed)
        scalar = [
            [float(rng.uniform(0.0, 2.0 * math.pi)) for _ in p.measurement_order]
            for _ in range(20)
        ]
        assert rows == [list(p.measure_angles().values())] + scalar

    def test_verdicts_match_golden_file(self):
        """``verify`` verdicts on a fixed corpus, byte for byte as recorded
        (tests/data/make_verify_golden.py writes the file)."""
        cases = json.loads(
            (Path(__file__).parent / "data" / "verify_golden.json").read_text(encoding="utf-8")
        )
        assert len(cases) >= 150
        for case in cases:
            verdict = classify_determinism(
                parse_pattern(case["pattern"]), angle_samples=case["samples"], seed=case["seed"]
            )
            assert json.dumps(verdict.to_json_dict(), indent=2) == json.dumps(
                case["verdict"], indent=2
            ), case["pattern"]


# Moving the first or second XA angle of a synthesized path or grid by
# OFF_ANGLE takes it off the certificate, whose exact-angle rule allows
# 1e-12, while its branch maps stay within 1e-11 of each other entrywise, so
# within OFF_TOLERANCE.
OFF_ANGLE = 1e-10
OFF_TOLERANCE = 1e-10


def _off_strong(p: Pattern, k: int) -> Pattern:
    """``p`` with the angle of its k-th XA correction moved by OFF_ANGLE."""
    k = [k for k, c in enumerate(p.commands) if isinstance(c, CorrectXPhase)][k]
    cmd = p.commands[k]
    cmds = list(p.commands)
    cmds[k] = CorrectXPhase(cmd.qubit, cmd.angle + OFF_ANGLE, cmd.signals)
    return Pattern(p.vertices, p.inputs, p.outputs, cmds)


def _full_path_verdict(p: Pattern, angle_samples: int, seed: int, tolerance: float):
    """The verdict of the full pass and classifier at every angle vector,
    the samples drawn in one call, with no certificate and no early stop:
    the pattern's own angles give the verdict, and uniform means every
    vector's maps are deterministic."""
    rng = np.random.default_rng(seed)
    samples = rng.uniform(0.0, 2.0 * math.pi, size=(angle_samples, p.n_measurements))
    verdicts = []
    for angles in [_angle_vector(p, p.measure_angles()), *samples]:
        eng = _run_branches(p, angles)
        outputs = sorted(p.outputs, key=eng.axis_of.__getitem__)
        verdicts.append(_classify_entry(eng.maps(outputs), tolerance))
    (classification, witness), uniform = verdicts[0], all(c.is_deterministic for c, _ in verdicts)
    return DeterminismVerdict(classification, uniform, witness, angle_samples, seed, tolerance)


class TestMergingPass:
    """No merging pass shortens the dense route: the certificate gives
    every strong and uniform verdict it can prove, and every pattern it
    declines runs one full pass per angle vector and the classifier."""

    def test_certificate_and_full_path_verdicts_agree(self):
        """Geometries of at most five vertices, synthesized, with random
        preparation angles (so with XA corrections), in stabilizer form,
        stripped, X-dropped and mutated, at 0 and 20 samples and tolerances
        1e-9 and 1e-13: the verdict, by the certificate or by the dense
        route, is the full path's, JSON for JSON."""
        rng = random.Random(97)
        arng = np.random.default_rng(97)
        seen = set()
        strong = 0
        for g, fl in _flow_patterns(97, 60, max_vertices=5):
            meas = random_angles(arng, g.measured)
            p = synthesize(g, fl, meas)
            xa = synthesize(g, fl, meas, random_angles(arng, g.prepared))
            variants = [
                p,
                xa,
                synthesize_stabilizer_form(g, fl, meas),
                xa.without_corrections(),
                drop_x_corrections(synthesize(g, fl, {q: 0.0 for q in g.measured})),
                *_mutants(xa, rng),
            ]
            for q in variants:
                for samples, tolerance in itertools.product((0, 20), (1e-9, 1e-13)):
                    seed = rng.randrange(100)
                    got = classify_determinism(q, samples, seed, tolerance)
                    want = _full_path_verdict(q, samples, seed, tolerance)
                    assert got.to_json_dict() == want.to_json_dict(), print_pattern(q)
                    seen.add(got.classification)
                    strong += got.is_strong and got.uniform
        assert seen == set(Classification)
        assert strong > 500

    @pytest.mark.parametrize("xa", [0, 1])
    def test_near_strong_pattern_falls_back_to_the_full_pass(self, monkeypatch, xa):
        """A path one XA angle off strong: the certificate declines it, and
        its branch maps stay within OFF_TOLERANCE of each other.  At
        OFF_TOLERANCE and at 3e-10 the full pass and classifier find the
        pattern strong; at 1e-12 they find the maps unequal.  Each case
        runs one full pass per angle vector, since every vector is
        deterministic, and every verdict is the full path's."""
        g = path_state(8, [1], [8])
        arng = np.random.default_rng(8)
        flow = find_flow(g).flow
        p = synthesize(g, flow, random_angles(arng, g.measured), random_angles(arng, g.prepared))
        p = _off_strong(p, xa)
        cases = [*itertools.product((0, 20), (OFF_TOLERANCE, 3e-10, 1e-12))]
        want = [_full_path_verdict(p, s, 0, t).to_json_dict() for s, t in cases]
        passes = _count_passes(monkeypatch)
        for (samples, tolerance), expected in zip(cases, want):
            passes.clear()
            verdict = classify_determinism(p, samples, 0, tolerance)
            assert verdict.to_json_dict() == expected
            assert verdict.is_strong == (tolerance > 1e-12)
            assert len(passes) == samples + 1


# Every STRIDE-th flow geometry of at most five vertices goes through the
# certificate's soundness gate.
STRIDE = 16


def _correction_mutants(p: Pattern, rng: random.Random) -> list[Pattern]:
    """``p``'s :func:`_mutants`, and ``p`` stripped of its corrections, with
    one correction re-signalled on outcomes measured before it, and with
    one correction duplicated."""
    spots = [
        k for k, c in enumerate(p.commands) if isinstance(c, (CorrectX, CorrectXPhase, CorrectZ))
    ]
    mutants = [p.without_corrections(), *_mutants(p, rng)]
    if not spots:
        return mutants
    cmds = list(p.commands)
    k = rng.choice(spots)
    earlier = [c.qubit for c in cmds[:k] if isinstance(c, Measure)]
    signals = frozenset(rng.sample(earlier, rng.randint(1, len(earlier))))
    old = cmds[k]
    fields = (old.qubit, old.angle) if isinstance(old, CorrectXPhase) else (old.qubit,)
    resignalled = cmds[:k] + [type(old)(*fields, signals)] + cmds[k + 1 :]
    k = rng.choice(spots)
    duplicated = cmds[: k + 1] + cmds[k:]
    return mutants + [Pattern(p.vertices, p.inputs, p.outputs, c) for c in (resignalled, duplicated)]


class TestCertificate:
    """certify_strong, the Pauli-frame certificate that classify_determinism
    tries before any dense pass.  The dense route, with the certificate
    off, is its oracle."""

    def test_certified_patterns_are_strong_and_uniform(self, monkeypatch, flow_instances):
        """Every STRIDE-th flow geometry of at most five vertices,
        synthesized, with random preparation phases, in stabilizer form, and
        X-dropped at zero and at mixed angles, each also stripped and with a
        correction deleted, swapped between X and Z, re-signalled or
        duplicated: every pattern the certificate certifies is strong and
        uniform by the dense route."""
        monkeypatch.setattr(front, "certify_strong", lambda p: False)
        rng = random.Random(27)
        arng = np.random.default_rng(27)
        certified = declined = 0
        for g, fl in flow_instances[::STRIDE]:
            meas = random_angles(arng, g.measured)
            mixed = {q: 0.0 if rng.random() < 0.5 else a for q, a in meas.items()}
            bases = [
                synthesize(g, fl, meas),
                synthesize(g, fl, meas, random_angles(arng, g.prepared)),
                synthesize_stabilizer_form(g, fl, meas),
                drop_x_corrections(synthesize(g, fl, dict.fromkeys(g.measured, 0.0))),
                drop_x_corrections(synthesize(g, fl, mixed)),
            ]
            for p in bases + [m for b in bases for m in _correction_mutants(b, rng)]:
                if not check_runnable(p).ok:
                    continue
                if not certify_strong(p):
                    declined += 1
                    continue
                certified += 1
                verdict = classify_determinism(p, angle_samples=5, seed=certified)
                assert verdict.is_strong and verdict.uniform, print_pattern(p)
        assert certified > 3000 and declined > 7000

    def test_every_synthesized_flow_pattern_is_certified(self, flow_instances):
        """Every flow geometry of at most five vertices synthesizes to a
        certified pattern, with and without preparation phases and in
        stabilizer form."""
        arng = np.random.default_rng(28)
        for g, fl in flow_instances:
            meas = random_angles(arng, g.measured)
            assert certify_strong(synthesize(g, fl, meas))
            assert certify_strong(synthesize(g, fl, meas, random_angles(arng, g.prepared)))
            assert certify_strong(synthesize_stabilizer_form(g, fl, meas))

    def test_certified_pattern_runs_no_pass(self, monkeypatch):
        """A certified pattern's verdict draws no angle, builds no engine and
        runs no pass, and keeps the call's samples, seed and tolerance; a
        declined one runs the dense route."""
        g = path_state(5, [1], [5])
        arng = np.random.default_rng(5)
        p = synthesize(
            g, find_flow(g).flow, random_angles(arng, g.measured), random_angles(arng, g.prepared)
        )

        def dense(*args, **kwargs):
            raise AssertionError("the dense route ran")

        with monkeypatch.context() as m:
            for name in ("_run_branches", "_TensorEngine"):
                m.setattr(simulator, name, dense)
            m.setattr(np.random, "default_rng", dense)
            verdict = classify_determinism(p, angle_samples=20, seed=9, tolerance=1e-7)
        assert verdict.to_json_dict() == {
            "classification": "strongly-deterministic",
            "uniform": True,
            "witness": None,
            "angle_samples": 20,
            "seed": 9,
            "tolerance": 1e-7,
        }
        passes = _count_passes(monkeypatch)
        classify_determinism(p.without_corrections(), angle_samples=20)
        # the stripped path is not deterministic at its own angles
        assert passes == [_angle_vector(p, p.measure_angles())]

    def test_declines_what_it_cannot_prove(self):
        """A loop at pi/2, which is strong at that angle only; X-dropped and
        stripped patterns; an XA whose angle is off its qubit's preparation
        by more than the exact-angle rule's 1e-12; a plain X on a phased
        qubit; and a pattern that is not runnable.  Within the rule, the XA
        still matches."""
        g = loop_geometry()
        loop = synthesize(g, find_flow(g, loop_candidates=g.measured).flow, {2: math.pi / 2})
        g = path_state(4, [1], [4])
        fl = find_flow(g).flow
        zero = synthesize(g, fl, dict.fromkeys(g.measured, 0.0))
        phased = synthesize(g, fl, {1: 0.4, 2: 1.3, 3: 2.9}, {2: 0.5, 3: 1.1, 4: 2.0})
        k = next(k for k, c in enumerate(phased.commands) if isinstance(c, CorrectXPhase))

        def moved(delta: float) -> Pattern:
            cmds = list(phased.commands)
            c = cmds[k]
            cmds[k] = CorrectXPhase(c.qubit, c.angle + delta, c.signals)
            return Pattern(phased.vertices, phased.inputs, phased.outputs, cmds)

        plain_x = parse_pattern("V: 1 2\nI: 1\nO: 2\nN 2 0.5\nE 1 2\nM 1 0.3\nX 2 [1]\n")
        unrunnable = parse_pattern("V: 1 2\nI: 1\nO: 2 5\nN 2 0.0\nE 1 2\nM 1 0.0\n")
        declined = [loop, drop_x_corrections(zero), zero.without_corrections(), moved(1e-6), plain_x]
        for p in declined:
            assert certify_strong(p) is False, print_pattern(p)
            verdict = classify_determinism(p)
            assert not (verdict.is_strong and verdict.uniform), print_pattern(p)
        assert certify_strong(unrunnable) is False
        assert certify_strong(moved(1e-13)) is True

    def test_exact_at_any_tolerance(self):
        """The certificate is exact: a synthesized 1x2 path with a
        preparation phase is strong at tolerance 1e-30, where the dense
        route's rounding of the phases reads deterministic, not uniform."""
        g = path_state(2, [1], [2])
        p = synthesize(g, find_flow(g).flow, {1: 0.1}, {2: 0.3})
        for tolerance in (1e-9, 1e-16, 1e-30):
            verdict = classify_determinism(p, tolerance=tolerance)
            assert verdict.is_strong and verdict.uniform


def _path_pattern(n: int) -> Pattern:
    g = path_state(n, [1], [n])
    return synthesize(g, find_flow(g).flow, {q: 0.0 for q in g.measured})


def _complete_graph(n: int) -> OpenGraphState:
    vertices = range(1, n + 1)
    return OpenGraphState(vertices, itertools.combinations(vertices, 2), [1], [n])


# Each builder makes an input over the dense byte budget and returns the call
# of one dense entry point on it.
OVER_BUDGET = {
    # the certificate declines the stripped path, so the dense route meets it
    "classify_determinism": lambda: partial(
        classify_determinism, _path_pattern(30).without_corrections()
    ),
    "enumerate_branches": lambda: partial(enumerate_branches, _path_pattern(30)),
    # 23 axes fit the pass, but not beside 2^21 branch records
    "enumerate_branches-records": lambda: partial(enumerate_branches, _path_pattern(22)),
    # every qubit is in flight at the first vertex's last entangler: 26
    # qubits and 1 input axis
    "realized_embedding": lambda: partial(
        realized_embedding, _complete_graph(26), {q: 0.0 for q in range(1, 26)}
    ),
    # 12 wires plus 12 input wires
    "simulate_circuit": lambda: partial(
        simulate_circuit,
        Circuit(tuple(Wire(k, "input") for k in range(12)), (), tuple(range(12))),
    ),
    # synthesis prepares all 24 qubits before the first measurement
    "run_branch": lambda: partial(run_branch, _path_pattern(24), "0" * 23),
}


class TestDenseBudget:
    @pytest.mark.parametrize("entry_point", OVER_BUDGET)
    def test_every_entry_point_raises_before_allocating(self, entry_point):
        call = OVER_BUDGET[entry_point]()
        tracemalloc.start()
        try:
            with pytest.raises(SimulationError, match="dense tensor bound"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_certified_pattern_meets_no_budget(self):
        """The strong 1x30 path, over the budget for any dense pass, gets its
        verdict from the certificate, allocating no tensor."""
        p = _path_pattern(30)
        tracemalloc.start()
        try:
            verdict = classify_determinism(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.is_strong and verdict.uniform
        assert peak < 2**20

    def test_records_are_charged_before_the_pass(self, monkeypatch):
        """The 1x22 path's pass fits, but not beside its 2^21 branch
        records: enumerate_branches raises before the pass."""
        passes = _count_passes(monkeypatch)
        with pytest.raises(SimulationError, match="branch records .* dense tensor bound"):
            enumerate_branches(_path_pattern(22))
        assert passes == []

    def test_enumeration_peak_within_its_charge(self):
        """The 1x14 path's 8192 branch records and its pass peak at or below
        what enumerate_branches charges them before the pass."""
        p = _path_pattern(14)
        charge = simulator._pass_bytes(len(p.vertices), len(p.inputs))
        charge += simulator._RECORD_BYTES << p.n_measurements
        enumerate_branches(p)
        tracemalloc.start()
        try:
            reports = enumerate_branches(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(reports) == 8192
        assert peak <= charge

    def test_run_branch_counts_live_qubits(self):
        """A 30-qubit chain written as N/E/M/X blocks has at most two qubits
        live at once, so run_branch runs it although all its qubits together
        are over the budget."""
        cmds = []
        for q in range(1, 30):
            cmds += [Prepare(q + 1, 0.0), Entangle(q, q + 1), Measure(q, 0.0)]
            cmds.append(CorrectX(q + 1, {q}))
        branch = run_branch(Pattern(range(1, 31), [1], [30], cmds), "0" * 29)
        assert branch.shape == (2, 2)
        np.testing.assert_allclose(branch * 2.0 ** (29 / 2), HADAMARD, atol=1e-12)

    def test_angle_draw_is_bounded_by_the_pass(self, monkeypatch):
        """A million angle samples on a pattern that is not deterministic at
        its own angles run one pass and draw no sample, within a 1 MiB
        peak."""
        stripped = _path_pattern(4).without_corrections()
        passes = _count_passes(monkeypatch)
        tracemalloc.start()
        try:
            verdict = classify_determinism(stripped, angle_samples=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert verdict.classification is Classification.NOT_DETERMINISTIC
        assert not verdict.uniform
        assert passes == [_angle_vector(stripped, stripped.measure_angles())]

    def test_first_sample_that_is_not_deterministic_ends_the_run(self, monkeypatch):
        """At 20 samples, a declined pattern runs one pass per angle vector
        up to the first whose maps are not deterministic, and no more: one
        pass for the stripped path, which fails at its own angles; for the
        X-dropped path and the projector pattern, deterministic at their own
        angles, passes up to their first sample that is not."""
        g = path_state(4, [1], [4])
        fl = find_flow(g).flow
        stripped = synthesize(g, fl, {1: 0.4, 2: 1.3, 3: 2.9}).without_corrections()
        dropped = drop_x_corrections(synthesize(g, fl, {1: 0.0, 2: 0.0, 3: 0.0}))
        passes = _count_passes(monkeypatch)
        counts = []
        for p in (stripped, dropped, projector_pattern()):
            passes.clear()
            verdict = classify_determinism(p, angle_samples=20, seed=1)
            assert not verdict.uniform
            deterministic = [
                _classify_entry(_run_branches(p, angles).maps(p.outputs), 1e-9)[0].is_deterministic
                for angles in passes
            ]
            assert deterministic == [True] * (len(passes) - 1) + [False], print_pattern(p)
            counts.append(len(passes))
        assert counts[0] == 1
        assert all(1 < n < 21 for n in counts[1:])

    def test_witness_probes_fit_the_budget(self, monkeypatch):
        """Seven measured inputs beside one unentangled output: every branch
        is rank one onto the output's state, so the pattern is
        deterministic, and each of the 127 branches besides the reference
        is probed, with 4^7 probes.  The call's peak stays within what
        _pass_bytes charges."""
        k = 7
        cmds = [Prepare(k + 1, 0.0)] + [Measure(i, 0.1 * i) for i in range(1, k + 1)]
        p = Pattern(range(1, k + 2), range(1, k + 1), [k + 1], cmds)
        probed = []
        pair_witness = simulator._pair_witness

        def counting(maps, r, s, tolerance, scale):
            probed.append(s)
            return pair_witness(maps, r, s, tolerance, scale)

        monkeypatch.setattr(simulator, "_pair_witness", counting)
        tracemalloc.start()
        try:
            verdict = classify_determinism(p, angle_samples=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.classification is Classification.DETERMINISTIC
        assert verdict.witness is None
        assert len(probed) == 2**k - 1
        assert peak <= simulator._pass_bytes(k + 1, k)

    def test_every_tensor_of_23_axes_fits_in_one_pass(self):
        """One pass, at one angle vector, fits the budget exactly when its
        qubits and inputs number at most 23."""
        for n_inputs in range(0, 6):
            assert simulator._pass_bytes(23 - n_inputs, n_inputs) <= simulator._MAX_DENSE_BYTES
            assert simulator._pass_bytes(24 - n_inputs, n_inputs) > simulator._MAX_DENSE_BYTES

    @pytest.mark.parametrize("rows, cols", [(3, 4), (2, 6), (1, 13)])
    def test_peak_within_budget_accounting(self, monkeypatch, rows, cols):
        """A pattern one XA angle off strong, which the certificate
        declines, runs the full pass and is strong all the same.  While the
        pass runs, its peak (the tensor, the kernel's scratch and numpy's
        iteration buffers) must fit the running charge of _pass_bytes: the
        tensor, half of it and the buffer reserve.  The read-out and the
        classifier after it must keep the call's peak within _pass_bytes."""
        g = cluster_grid(rows, cols)
        flow = find_flow(g).flow
        meas = {q: 0.1 * q for q in g.measured}
        arng = np.random.default_rng(rows * cols)
        p = _off_strong(synthesize(g, flow, meas, random_angles(arng, g.prepared)), 0)
        tensor = np.dtype(complex).itemsize << (len(p.vertices) + len(p.inputs))
        pass_peak = []
        run_branches = simulator._run_branches

        def measured(q, angles):
            tracemalloc.reset_peak()
            eng = run_branches(q, angles)
            pass_peak.append(tracemalloc.get_traced_memory()[1])
            return eng

        classify_determinism(p, angle_samples=0, tolerance=OFF_TOLERANCE)
        monkeypatch.setattr(simulator, "_run_branches", measured)
        tracemalloc.start()
        try:
            verdict = classify_determinism(p, angle_samples=0, tolerance=OFF_TOLERANCE)
            call_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.is_strong and verdict.uniform
        assert len(pass_peak) == 1
        assert pass_peak[0] <= 3 * tensor // 2 + simulator._BUFFER_RESERVE
        assert call_peak <= simulator._pass_bytes(len(p.vertices), len(p.inputs))

    def test_small_patterns_peak_within_budget_accounting(self):
        """On synthesized and stripped patterns of at most five vertices, whose
        tensors are under one numpy buffer, the call's peak, in the pass or
        in the classifier after it, stays within what _pass_bytes charges."""
        arng = np.random.default_rng(5)
        patterns = []
        for g, fl in _flow_patterns(89, 300, max_vertices=5):
            p = synthesize(g, fl, random_angles(arng, g.measured), random_angles(arng, g.prepared))
            patterns += [p, p.without_corrections()]
        # one untraced call first, so that what a process's first call
        # allocates once is not charged to a pattern
        classify_determinism(patterns[0], angle_samples=20)
        for p in patterns:
            charge = simulator._pass_bytes(len(p.vertices), len(p.inputs))
            tracemalloc.start()
            try:
                classify_determinism(p, angle_samples=20)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= charge, print_pattern(p)


def test_fifteen_measurements_classify_within_the_budget():
    """The 1x16 path's 15 measurements fit the byte budget: its pattern is
    strong and uniform, its stripped pattern is not deterministic, and the
    witness's branches, computed by run_branch, are not parallel on the
    witness input."""
    g = path_state(16, [1], [16])
    arng = np.random.default_rng(16)
    p = synthesize(g, find_flow(g).flow, random_angles(arng, g.measured))
    verdict = classify_determinism(p)
    assert verdict.is_strong and verdict.uniform and verdict.angle_samples == 20
    stripped = p.without_corrections()
    verdict = classify_determinism(stripped)
    assert verdict.classification is Classification.NOT_DETERMINISTIC
    w = verdict.witness
    a = run_branch(stripped, w.branch_a) @ w.input_state
    b = run_branch(stripped, w.branch_b) @ w.input_state
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    assert (na * nb - abs(np.vdot(a, b))) / (na * nb) > verdict.tolerance


class TestClassifierArguments:
    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_bad_tolerance_rejected(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            classify_determinism(projector_pattern(), tolerance=tolerance)
        with pytest.raises(ValueError, match="tolerance"):
            enumerate_branches(projector_pattern(), tolerance=tolerance)

    def test_negative_angle_samples_rejected(self):
        """A negative count raises ValueError and one that is not an integer
        TypeError, on a pattern the certificate certifies as on one it
        declines."""
        certified = hadamard_pattern()
        assert certify_strong(certified) and not certify_strong(projector_pattern())
        for p in (certified, projector_pattern()):
            for kwargs, error in [
                ({"angle_samples": -5}, ValueError),
                ({"seed": -1}, ValueError),
                ({"angle_samples": 2.5}, TypeError),
                ({"seed": 2.5}, TypeError),
                ({"seed": "3"}, TypeError),
            ]:
                with pytest.raises(error, match=next(iter(kwargs))):
                    classify_determinism(p, **kwargs)
        verdict = classify_determinism(certified, angle_samples=np.int64(3), seed=np.int64(4))
        assert json.dumps(verdict.to_json_dict())


class TestRealizedEmbedding:
    def test_hadamard(self):
        np.testing.assert_allclose(
            realized_embedding(hadamard_geometry(), {1: 0.0}), HADAMARD, atol=1e-14
        )

    def test_star_embedding_is_phase_then_hadamard(self):
        alpha = 1.37
        g = hadamard_geometry()
        expected = HADAMARD @ np.diag([1.0, np.exp(-1j * alpha)])
        np.testing.assert_allclose(
            realized_embedding(g, {1: alpha}), expected, atol=1e-14
        )

    def test_no_measured_qubits_gives_entangler(self):
        g = OpenGraphState([1, 2], [(1, 2)], [1, 2], [1, 2])
        np.testing.assert_allclose(realized_embedding(g, {}), CZ, atol=1e-14)

    def test_non_finite_angles_rejected(self):
        g = hadamard_geometry()
        with pytest.raises(PatternError, match="measurement angles not finite"):
            realized_embedding(g, {1: math.nan})
        with pytest.raises(PatternError, match="preparation angles not finite"):
            realized_embedding(g, {1: 0.0}, {2: math.inf})
        with pytest.raises(PatternError, match="measurement angles missing"):
            realized_embedding(g, {})

    def test_gates_act_on_a_tensor_of_one_axis(self):
        """With no input, a lone qubit's tensor has one axis, and a gate's
        half of it indexes every axis; the gate must still act in place.
        The last projection of an edge with no input and no output, and a
        phase on one plus wire, against their closed forms."""
        g = OpenGraphState([1, 2], [(1, 2)], [], [])
        a, b = 0.3, 0.1
        expected = (1 + cmath.exp(-1j * a) + cmath.exp(-1j * b) - cmath.exp(-1j * (a + b))) / 2
        np.testing.assert_allclose(realized_embedding(g, {1: a, 2: b}), [[expected]], atol=1e-14)
        circuit = Circuit((Wire(0, "plus"),), (PhaseGate(0, 0.7),), (0,))
        np.testing.assert_allclose(
            simulate_circuit(circuit), [[1 / math.sqrt(2)], [cmath.exp(0.7j) / math.sqrt(2)]], atol=1e-14
        )

    @pytest.mark.parametrize("n", [24, 30])
    def test_long_path_contracts_as_it_goes(self, n):
        """The tensor holds only the qubits in flight, so long paths, whose
        whole tensor exceeds the budget, give the extracted circuit's map."""
        g = path_state(n, [1], [n])
        arng = np.random.default_rng(n)
        meas = random_angles(arng, g.measured)
        embedding = realized_embedding(g, meas)
        assert embedding.shape == (2, 2)
        circuit = simulate_circuit(extract_circuit(g, find_flow(g).flow, meas))
        assert max_deviation_up_to_phase(circuit, embedding) < 1e-12

    def test_grid_peak_memory_follows_qubits_in_flight(self):
        """All 15 qubits and 3 inputs of the 3x5 grid at once take 4 MiB;
        in flight they stay under 1 MB."""
        g = cluster_grid(3, 5)
        meas = random_angles(np.random.default_rng(15), g.measured)
        tracemalloc.start()
        try:
            embedding = realized_embedding(g, meas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        circuit = simulate_circuit(extract_circuit(g, find_flow(g).flow, meas))
        assert max_deviation_up_to_phase(circuit, embedding) < 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_contraction_order_ignores_vertex_labels(self, seed):
        """Shuffled ids leave the qubits in flight as few as for row-major
        ids: the 4x8 grid stays under 1 MiB whatever its labels."""
        labels = list(range(1, 33))
        random.Random(seed).shuffle(labels)
        g = cluster_grid(4, 8, labels)
        meas = random_angles(np.random.default_rng(seed), g.measured)
        tracemalloc.start()
        try:
            embedding = realized_embedding(g, meas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        circuit = simulate_circuit(extract_circuit(g, find_flow(g).flow, meas))
        assert max_deviation_up_to_phase(circuit, embedding) < 1e-12

    def test_flow_determinism_invariant(self):
        """Random flow geometries, 20 angle vectors each: synthesized patterns
        are strongly deterministic and match the rescaled embedding."""
        rng = random.Random(61)
        arng = np.random.default_rng(61)
        checked = 0
        while checked < 8:
            g = random_open_graph(rng, max_vertices=7)
            result = find_flow(g)
            if not result.found or not g.measured:
                continue
            for _ in range(20):
                angles = random_angles(arng, g.measured)
                p = synthesize(g, result.flow, angles)
                reports = enumerate_branches(p)
                rescaled = reports[0].branch_map * 2.0 ** (p.n_measurements / 2)
                embedding = realized_embedding(g, angles)
                for r in reports[1:]:
                    np.testing.assert_allclose(
                        r.branch_map, reports[0].branch_map, atol=1e-9
                    )
                np.testing.assert_allclose(rescaled, embedding, atol=1e-9)
                np.testing.assert_allclose(
                    embedding.conj().T @ embedding,
                    np.eye(embedding.shape[1]),
                    atol=1e-9,
                )
            checked += 1

    def test_equal_branch_probabilities(self):
        arng = np.random.default_rng(67)
        g = path_state(4, [1], [4])
        p = synthesize(g, find_flow(g).flow, random_angles(arng, g.measured))
        state = arng.normal(size=2) + 1j * arng.normal(size=2)
        state /= np.linalg.norm(state)
        for r in enumerate_branches(p, input_state=state):
            assert r.probability == pytest.approx(2.0 ** -p.n_measurements, abs=1e-9)

    def test_biflow_realizes_unitary_and_adjoint(self):
        rng = random.Random(71)
        arng = np.random.default_rng(71)
        checked = 0
        while checked < 6:
            g = random_open_graph(rng, max_vertices=5)
            forward, reverse = find_biflow(g)
            if not (forward.found and reverse.found and g.measured):
                continue
            meas = random_angles(arng, g.measured)
            preps = random_angles(arng, g.prepared)
            p = synthesize(g, forward.flow, meas, preps)
            a = enumerate_branches(p)[0].branch_map * 2.0 ** (p.n_measurements / 2)
            dim = a.shape[0]
            np.testing.assert_allclose(a @ a.conj().T, np.eye(dim), atol=1e-9)
            np.testing.assert_allclose(a.conj().T @ a, np.eye(dim), atol=1e-9)
            dagger = adjoint(p, reverse.flow)
            b = enumerate_branches(dagger)[0].branch_map * 2.0 ** (
                dagger.n_measurements / 2
            )
            assert abs(np.trace(a.conj().T @ b.conj().T)) / dim == pytest.approx(
                1.0, abs=1e-9
            )
            checked += 1


class TestRewriteIdentities:
    def test_default_suite_passes(self):
        report = check_rewrite_identities()
        assert report.ok
        assert all(c.max_deviation < 1e-12 for c in report.checks)

    def test_expected_identities_present(self):
        names = {c.name for c in check_rewrite_identities().checks}
        assert "anachronical-z-fuses-into-measurement" in names
        assert "z-conjugates-to-x-pair-through-cz-s1" in names
        assert "x-through-cz-leaves-z-s1" in names
        assert "z-commutes-with-cz-s1" in names
        assert "x-fixes-plus-preparation-s1" in names
        assert "phase-x-pair-through-cz-s1" in names
        assert "phase-x-fixes-matching-preparation-s1" in names
        assert "y-measurement-x-equals-z-s1" in names
        assert "x-measurement-absorbs-x-s1" in names

    def test_zero_signal_cases_trivial(self):
        report = check_rewrite_identities(grid_points=4, n_random=2)
        for check in report.checks:
            if check.name.endswith("-s0"):
                assert check.max_deviation == 0.0

    def test_tolerance_semantics(self):
        report = check_rewrite_identities(tolerance=1e-30)
        assert any(not c.passed for c in report.checks) or report.ok
        wide = check_rewrite_identities(tolerance=1.0, grid_points=4, n_random=1)
        assert wide.ok

    def test_custom_grid(self):
        report = check_rewrite_identities(grid_points=64, n_random=0)
        assert report.ok

    def test_no_angles_rejected(self):
        """Without angles the 15 angle-parameterized identities would
        vanish from the report, leaving 4 checks that pass."""
        with pytest.raises(ValueError, match="no angles to check"):
            check_rewrite_identities(grid_points=0, n_random=0)


def test_max_deviation_up_to_phase():
    arng = np.random.default_rng(5)
    m = arng.normal(size=(3, 3)) + 1j * arng.normal(size=(3, 3))
    assert max_deviation_up_to_phase(m, np.exp(0.7j) * m) < 1e-12
    assert max_deviation_up_to_phase(m, m + 1.0) > 0.1


def test_max_deviation_rejects_unequal_shapes():
    """A column and the same values as a row would broadcast to 4x4."""
    column = np.arange(4.0).reshape(4, 1)
    with pytest.raises(ValueError, match="shapes"):
        max_deviation_up_to_phase(column, column.T)
    with pytest.raises(ValueError, match="shapes"):
        max_deviation_up_to_phase(np.eye(2), np.eye(3))
