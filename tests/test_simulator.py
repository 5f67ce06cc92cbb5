"""Tests for the branch simulator, determinism classification, and identities."""

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
from causalflow.simulator import (
    _classify_maps,
    _max_batch,
    _run_branches,
    _strong_test,
)
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

    def test_measurement_bound(self):
        g = path_state(4, [1], [4])
        p = synthesize(g, find_flow(g).flow, {1: 0.0, 2: 0.0, 3: 0.0})
        with pytest.raises(SimulationError, match="bound"):
            enumerate_branches(p, max_measurements=2)

    @pytest.mark.parametrize(
        "state", [np.ones(4) / 2, np.array([1.0, math.nan]), np.array([math.inf, 0.0])]
    )
    def test_bad_input_state_rejected_before_any_pass(self, monkeypatch, state):
        """A state of the wrong length or with a non-finite amplitude raises
        ValueError before the dense pass, also on a pattern over the budget."""
        passes = []

        def counting(p, angles):
            passes.append(len(angles))
            return _run_branches(p, angles)

        monkeypatch.setattr(simulator, "_run_branches", counting)
        with pytest.raises(ValueError, match="input state"):
            enumerate_branches(hadamard_pattern(), input_state=state)
        with pytest.raises(ValueError, match="input state"):
            enumerate_branches(_path_pattern(30), input_state=state, max_measurements=40)
        assert passes == []


def test_undeclared_output_rejected_before_any_pass(monkeypatch):
    """An output outside the declared qubits is a runnability violation, so
    classify_determinism raises before it simulates anything."""
    passes = []

    def counting(p, angles):
        passes.append(len(angles))
        return _run_branches(p, angles)

    monkeypatch.setattr(simulator, "_run_branches", counting)
    p = parse_pattern("V: 1 2\nI: 1\nO: 2 5\nN 2 0.0\nE 1 2\nM 1 0.0\n")
    with pytest.raises(PatternError, match="output qubit 5 not declared"):
        classify_determinism(p)
    assert passes == []


class TestOneWalk:
    def test_each_reader_shares_one_walk(self, monkeypatch):
        """synthesize's own check, check_runnable, classify_determinism,
        enumerate_branches and run_branch all read the one walk of the
        pattern's commands that the first of them made."""
        walked = []
        walk = Pattern.__dict__["_walk"]
        func = walk.func

        def counting(p):
            walked.append(p)
            return func(p)

        monkeypatch.setattr(walk, "func", counting)
        g = path_state(3, [1], [3])
        p = synthesize(g, find_flow(g).flow, {1: 2.11, 2: 0.37})
        assert len(walked) == 1 and walked[0] is p
        assert check_runnable(p).ok
        assert classify_determinism(p, angle_samples=5).is_strong
        enumerate_branches(p, input_state=np.array([0.6, 0.8]))
        run_branch(p, "01")
        assert len(walked) == 1


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


def _angle_rows(p: Pattern, angle_sets) -> np.ndarray:
    """Angle vectors as ``_run_branches`` takes them: a row per vector,
    a column per measurement in measurement order."""
    return np.array([[angles[q] for q in p.measurement_order] for angles in angle_sets])


class TestBatchedEngine:
    def test_every_batch_entry_matches_run_branch(self):
        """Distinct angle vectors in one pass; every batch entry's branch maps
        equal run_branch on the pattern with that entry's angles.  Random
        preparation angles turn X corrections into phase-conjugated ones.
        The late-graph pattern puts a correction's control on a later axis
        of the engine's tensor than its target."""
        arng = np.random.default_rng(61)
        batches = []
        for k, (g, fl) in enumerate(_flow_patterns(61, 14)):
            prep = random_angles(arng, g.prepared) if k % 2 else {q: 0.0 for q in g.prepared}
            batches.append(
                [synthesize(g, fl, random_angles(arng, g.measured), prep) for _ in range(3)]
            )
        batches.append([_late_graph_pattern(random_angles(arng, [2, 3, 4])) for _ in range(3)])
        control_first = set()
        kinds = set()
        for batch in batches:
            p = batch[0]
            eng = _run_branches(p, _angle_rows(p, [q.measure_angles() for q in batch]))
            for cmd in p.commands:
                if isinstance(cmd, (CorrectX, CorrectXPhase, CorrectZ)):
                    kinds.add(type(cmd))
                    control_first.update(
                        eng.axis_of[s] < eng.axis_of[cmd.qubit] for s in cmd.signals
                    )
            for b, q in enumerate(batch):
                maps = eng.maps(b, p.outputs)
                n = p.n_measurements
                for s in range(1 << n):
                    label = format(s, f"0{n}b")
                    np.testing.assert_allclose(maps[s], run_branch(q, label), atol=1e-12)
        assert kinds == {CorrectX, CorrectXPhase, CorrectZ}
        assert control_first == {True, False}


def _per_command(p: Pattern) -> Pattern:
    """``p`` with a no-op ``Z q []`` that ends its leading run of
    preparations and entanglers at once: on an input, or right after the
    first preparation when there is none.  ``_run_branches`` then builds
    the graph state one command at a time over the whole batch."""
    cmds = list(p.commands)
    if p.inputs:
        cmds.insert(0, CorrectZ(p.inputs[0], ()))
    else:
        cmds.insert(1, CorrectZ(cmds[0].qubit, ()))
    return Pattern(p.vertices, p.inputs, p.outputs, cmds)


def _late_graph_pattern(angles) -> Pattern:
    """Inputs 1 and 2, outputs 1 and 5: qubits 4 and 5 are prepared and
    entangled after measurements, 4 and 5 with the input 1, and the
    correction of 1 is controlled by the late qubit 4.  The measured input
    2 comes first among the qubit axes but second in the input space."""
    return Pattern(
        range(1, 6),
        [1, 2],
        [1, 5],
        [
            Prepare(3, 0.3),
            Entangle(2, 3),
            Entangle(1, 3),
            Measure(2, angles[2]),
            CorrectX(3, {2}),
            Prepare(4, 0.5),
            Entangle(1, 4),
            Entangle(3, 4),
            Measure(3, angles[3]),
            CorrectXPhase(4, 0.5, {3}),
            CorrectZ(1, {2, 3}),
            Measure(4, angles[4]),
            CorrectX(1, {4}),
            Prepare(5, 1.2),
            Entangle(1, 5),
            CorrectZ(5, {3, 4}),
        ],
    )


class TestGraphStateBuild:
    """The leading preparations and entanglers are built at once, with the
    measured qubits on the outer axes; the branch maps are bit for bit those
    of the build one command at a time over the batch."""

    def _assert_bitwise(self, p: Pattern, angles: np.ndarray, standard: bool = True) -> None:
        q = _per_command(p)
        eng = _run_branches(p, angles)
        if standard:
            # the measured qubits, then the outputs, on the outer axes in order
            order = sorted(eng.axis_of, key=eng.axis_of.get)
            assert order == [*p.measurement_order, *p.outputs]
            assert eng.domain_axes == [*range(len(order) + 1, eng.t.ndim)]
        maps = eng.entry_maps(0, len(angles), p.outputs)
        expected = _run_branches(q, angles).entry_maps(0, len(angles), q.outputs)
        assert np.array_equal(maps, expected), print_pattern(p)

    def test_sampled_geometries_bitwise(self):
        arng = np.random.default_rng(14)
        forms = set()
        for g, fl in _flow_patterns(14, 120, max_vertices=5):
            meas = random_angles(arng, g.measured)
            for p in (
                synthesize(g, fl, meas, random_angles(arng, g.prepared)),
                synthesize_stabilizer_form(g, fl, meas),
            ):
                forms.add(bool(p.inputs))
                angles = arng.uniform(0.0, 2.0 * math.pi, size=(3, p.n_measurements))
                for variant in (p, p.without_corrections(), drop_x_corrections(p)):
                    self._assert_bitwise(variant, angles)
        assert forms == {True, False}

    def test_cluster_grid_bitwise(self):
        g = cluster_grid(3, 4)
        p = synthesize(g, find_flow(g).flow, {q: 0.1 * q for q in g.measured})
        rows = np.random.default_rng(4).uniform(0.0, 2.0 * math.pi, size=(20, 9))
        self._assert_bitwise(p, np.concatenate([_angle_rows(p, [p.measure_angles()]), rows]))

    def test_graph_after_measurements_matches_run_branch(self):
        arng = np.random.default_rng(15)
        batch = [_late_graph_pattern(random_angles(arng, [2, 3, 4])) for _ in range(4)]
        p = batch[0]
        assert check_runnable(p).ok
        eng = _run_branches(p, _angle_rows(p, [q.measure_angles() for q in batch]))
        # qubit 4, prepared after the graph state's build, follows the domain axes
        assert eng.axis_of[4] > max(eng.domain_axes) > eng.axis_of[1] > eng.axis_of[2]
        for b, q in enumerate(batch):
            maps = eng.maps(b, p.outputs)
            for s in range(8):
                label = format(s, "03b")
                np.testing.assert_allclose(maps[s], run_branch(q, label), atol=1e-12)
        self._assert_bitwise(p, _angle_rows(p, [q.measure_angles() for q in batch]), False)


def _classify_entry(maps: np.ndarray, tolerance: float):
    """Verdict and witness of one entry's branch maps: the strong test,
    then, if it fails, ``_classify_maps`` with the norms and reference it found."""
    strong, norms, refs = _strong_test(maps[np.newaxis], tolerance)
    if strong[0]:
        return Classification.STRONGLY_DETERMINISTIC, None
    return _classify_maps(maps, tolerance, norms[0], int(refs[0]))


def _per_entry_verdict(p: Pattern, angle_samples: int, seed: int):
    """Classification, uniformity and witness from one pass over every angle
    vector, drawn one scalar at a time, and one ``_classify_entry`` per entry."""
    rng = np.random.default_rng(seed)
    angle_sets = [p.measure_angles()] + [
        {q: float(rng.uniform(0.0, 2.0 * math.pi)) for q in p.measurement_order}
        for _ in range(angle_samples)
    ]
    eng = _run_branches(p, _angle_rows(p, angle_sets))
    verdicts = [_classify_entry(eng.maps(b, p.outputs), 1e-9) for b in range(eng.batch)]
    classification, witness = verdicts[0]
    return classification, all(c.is_deterministic for c, _ in verdicts), witness


def _assert_same_verdict(verdict, expected) -> None:
    classification, uniform, witness = expected
    assert verdict.classification is classification
    assert verdict.uniform == uniform
    assert (verdict.witness is None) == (witness is None)
    if witness is not None:
        assert (verdict.witness.branch_a, verdict.witness.branch_b) == (
            witness.branch_a,
            witness.branch_b,
        )
        np.testing.assert_array_equal(verdict.witness.input_state, witness.input_state)
        assert verdict.witness.deviation == witness.deviation


class TestBatchedClassifier:
    def test_engine_and_run_branch_give_same_verdict_and_witness(self):
        """Strong, deterministic-only and non-deterministic samples from
        synthesized, X-dropped and mutated patterns: classifying a batch
        entry's maps gives the verdict and witness of classifying the maps
        run_branch builds for that entry's angles, although the two routes
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
            eng = _run_branches(p, _angle_rows(p, angle_sets))
            n = p.n_measurements
            for b, angles in enumerate(angle_sets):
                q = Pattern(
                    p.vertices,
                    p.inputs,
                    p.outputs,
                    [Measure(c.qubit, angles[c.qubit]) if isinstance(c, Measure) else c for c in p.commands],
                )
                reference = np.array([run_branch(q, format(s, f"0{n}b")) for s in range(1 << n)])
                expected = _classify_entry(reference, 1e-9)
                got = _classify_entry(eng.maps(b, p.outputs), 1e-9)
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

    def test_chunked_run_matches_unchunked(self, monkeypatch):
        """A budget of two batch entries (with their scratch and the
        iteration-buffer reserve) splits 8 angle vectors into four passes
        and leaves every verdict as it was."""
        g = path_state(4, [1], [4])
        fl = find_flow(g).flow
        strong = synthesize(g, fl, {1: 0.4, 2: 1.3, 3: 2.9})
        patterns = [strong, strong.without_corrections(), projector_pattern()]
        unchunked = [classify_determinism(p, angle_samples=7, seed=4) for p in patterns]

        sizes = []

        def counting(p, angles):
            sizes.append(len(angles))
            return _run_branches(p, angles)

        sample = np.dtype(complex).itemsize << (len(g.vertices) + len(g.inputs))
        monkeypatch.setattr(simulator, "_MAX_DENSE_BYTES", simulator._BUFFER_RESERVE + 3 * sample)
        monkeypatch.setattr(simulator, "_run_branches", counting)
        assert _max_batch(len(g.vertices), len(g.inputs)) == 2
        chunked = [classify_determinism(p, angle_samples=7, seed=4) for p in patterns]
        assert sizes[:4] == [2, 2, 2, 2]
        for a, b in zip(unchunked, chunked):
            assert a.classification is b.classification
            assert a.uniform == b.uniform
            assert (a.witness is None) == (b.witness is None)
            if a.witness is not None:
                assert (a.witness.branch_a, a.witness.branch_b) == (
                    b.witness.branch_a,
                    b.witness.branch_b,
                )
                np.testing.assert_allclose(a.witness.input_state, b.witness.input_state)
                assert a.witness.deviation == pytest.approx(b.witness.deviation, abs=1e-12)
        assert [v.classification for v in chunked] == [
            Classification.STRONGLY_DETERMINISTIC,
            Classification.NOT_DETERMINISTIC,
            Classification.DETERMINISTIC,
        ]
        assert [v.uniform for v in chunked] == [True, False, False]

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

    def test_batched_and_per_entry_verdicts_agree(self, monkeypatch):
        """Synthesized, stripped, X-dropped, mutated and loop patterns: the
        batched strong test with its per-entry fallback gives the verdict,
        uniformity and witness of classifying every entry on its own, in one
        pass and with a budget of two entries per pass."""
        patterns = self._patterns()
        expected = [_per_entry_verdict(p, 20, seed=k) for k, p in enumerate(patterns)]
        groups = []
        strong_test = simulator._strong_test

        def recording(maps, tolerance):
            groups.append(len(maps))
            return strong_test(maps, tolerance)

        monkeypatch.setattr(simulator, "_strong_test", recording)
        one_group = 0
        for k, (p, want) in enumerate(zip(patterns, expected)):
            groups.clear()
            _assert_same_verdict(classify_determinism(p, angle_samples=20, seed=k), want)
            # a group holds one numpy buffer's worth of entries, or the rest
            # of the 21-entry pass; a verdict that is not deterministic stops early
            group = max(1, np.getbufsize() >> (len(p.vertices) + len(p.inputs)))
            split = [min(group, 21 - start) for start in range(0, 21, group)]
            assert groups and groups == split[: len(groups)]
            one_group += groups == [21]
        assert one_group >= len(patterns) // 2
        for k, (p, want) in enumerate(zip(patterns, expected)):
            sample = np.dtype(complex).itemsize << (len(p.vertices) + len(p.inputs))
            budget = simulator._BUFFER_RESERVE + 3 * sample
            monkeypatch.setattr(simulator, "_MAX_DENSE_BYTES", budget)
            assert _max_batch(len(p.vertices), len(p.inputs)) == 2
            _assert_same_verdict(classify_determinism(p, angle_samples=20, seed=k), want)
        kinds = {(c, u, w is not None) for c, u, w in expected}
        assert {
            (Classification.STRONGLY_DETERMINISTIC, True, False),
            (Classification.STRONGLY_DETERMINISTIC, False, False),
            (Classification.DETERMINISTIC, True, False),
            (Classification.DETERMINISTIC, False, False),
            (Classification.NOT_DETERMINISTIC, False, True),
        } <= kinds

    def test_strong_test_is_the_per_entry_rule(self):
        """Per entry, the norms are np.linalg.norm's bit for bit, the
        reference is the first branch within 1e-12 of the largest norm, and
        the verdict is the entrywise distance from it, on entries with tied
        norms, with a largest branch that is not the first, and with one
        branch off by more or less than the tolerance."""
        rng = np.random.default_rng(73)
        maps = np.repeat(rng.standard_normal((1, 1, 2, 4)) + 0j, 8, axis=1)
        maps = np.repeat(maps, 6, axis=0)
        maps[1, 5] *= 1.5
        maps[2] *= np.linspace(0.5, 1.0, 8)[:, None, None]
        maps[3, 2, 1, 3] += 1e-10
        maps[4, 6, 0, 0] += 1e-8
        maps[5] = rng.standard_normal((8, 2, 4)) + 1j * rng.standard_normal((8, 2, 4))
        strong, norms, refs = simulator._strong_test(maps, 1e-9)
        for k, entry in enumerate(maps):
            want = np.linalg.norm(entry.reshape(8, -1), axis=1)
            np.testing.assert_array_equal(norms[k], want)
            ref = int(np.flatnonzero(want >= want.max() * (1.0 - 1e-12))[0])
            assert refs[k] == ref
            assert strong[k] == (np.abs(entry - entry[ref]).max() < 1e-9)
        assert list(refs[:3]) == [0, 5, 7]
        assert list(strong) == [True, False, False, True, False, False]

    @pytest.mark.parametrize("seed", range(5))
    def test_angles_drawn_in_one_call_equal_scalar_draws(self, monkeypatch, seed):
        """The samples reach the pass as the scalar-at-a-time draws would."""
        g = path_state(8, [1], [8])
        p = synthesize(g, find_flow(g).flow, {q: 0.1 * q for q in g.measured})
        rows = []

        def capture(p, angles):
            rows.extend(angles.tolist())
            return _run_branches(p, angles)

        monkeypatch.setattr(simulator, "_run_branches", capture)
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


def _path_pattern(n: int) -> Pattern:
    g = path_state(n, [1], [n])
    return synthesize(g, find_flow(g).flow, {q: 0.0 for q in g.measured})


def _complete_graph(n: int) -> OpenGraphState:
    vertices = range(1, n + 1)
    return OpenGraphState(vertices, itertools.combinations(vertices, 2), [1], [n])


# Each builder makes an input over the dense byte budget and returns the call
# of one dense entry point on it.
OVER_BUDGET = {
    "classify_determinism": lambda: partial(
        classify_determinism, _path_pattern(30), max_measurements=40
    ),
    "enumerate_branches": lambda: partial(
        enumerate_branches, _path_pattern(30), max_measurements=40
    ),
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

    def test_every_tensor_of_23_axes_fits_at_batch_one(self):
        for n_inputs in range(0, 6):
            assert _max_batch(23 - n_inputs, n_inputs) == 1
            assert _max_batch(24 - n_inputs, n_inputs) == 0

    def test_twenty_samples_fit_in_one_pass_on_small_grids(self):
        assert _max_batch(15, 3) >= 21

    @pytest.mark.parametrize("rows, cols", [(3, 4), (2, 6), (1, 13)])
    def test_peak_within_budget_accounting(self, monkeypatch, rows, cols):
        """_max_batch reserves, beyond a pass's batch tensor, the larger of
        half of it and three entries, and for the pass also numpy's
        iteration buffers.  The pass's peak (the tensor, the kernel's
        scratch and those buffers) must fit what _max_batch charges.  The
        classifier's temporaries must fit in the reserve, with one entry to
        spare for small objects, and leave the call's peak at the pass's."""
        g = cluster_grid(rows, cols)
        p = synthesize(g, find_flow(g).flow, {q: 0.1 * q for q in g.measured})
        entry = np.dtype(complex).itemsize << (len(p.vertices) + len(p.inputs))
        batch = 21
        pass_peak, classify_peak = [], []
        classify_batch = simulator._classify_batch

        def measured(eng, outputs, tolerance):
            pass_peak.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            result = classify_batch(eng, outputs, tolerance)
            classify_peak.append(tracemalloc.get_traced_memory()[1])
            return result

        classify_determinism(p, angle_samples=batch - 1)
        monkeypatch.setattr(simulator, "_classify_batch", measured)
        tracemalloc.start()
        try:
            verdict = classify_determinism(p, angle_samples=batch - 1)
        finally:
            tracemalloc.stop()
        assert verdict.is_strong and verdict.uniform
        assert len(pass_peak) == len(classify_peak) == 1
        assert classify_peak[0] <= (batch + max(batch // 2, 3) + 1) * entry
        assert classify_peak[0] < pass_peak[0]
        assert pass_peak[0] <= 3 * batch * entry // 2 + simulator._BUFFER_RESERVE

    def test_small_patterns_peak_within_budget_accounting(self):
        """On synthesized and stripped patterns of at most five vertices, whose
        entries are under one numpy buffer, a classifier group's temporaries
        take the buffer reserve after the pass, so the call's peak may pass
        the pass's but stays within what _max_batch charges."""
        arng = np.random.default_rng(5)
        patterns = []
        for g, fl in _flow_patterns(89, 300, max_vertices=5):
            p = synthesize(g, fl, random_angles(arng, g.measured), random_angles(arng, g.prepared))
            patterns += [p, p.without_corrections()]
        # one untraced call first, so that what a process's first call
        # allocates once is not charged to a pattern
        classify_determinism(patterns[0], angle_samples=20)
        for p in patterns:
            s = np.dtype(complex).itemsize << (len(p.vertices) + len(p.inputs))
            charge = 21 * s + max(21 * s // 2 + simulator._BUFFER_RESERVE, 3 * s)
            tracemalloc.start()
            try:
                classify_determinism(p, angle_samples=20)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= charge, print_pattern(p)


class TestClassifierArguments:
    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_bad_tolerance_rejected(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            classify_determinism(projector_pattern(), tolerance=tolerance)
        with pytest.raises(ValueError, match="tolerance"):
            enumerate_branches(projector_pattern(), tolerance=tolerance)

    def test_negative_angle_samples_rejected(self):
        with pytest.raises(ValueError, match="angle_samples"):
            classify_determinism(projector_pattern(), angle_samples=-5)


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
