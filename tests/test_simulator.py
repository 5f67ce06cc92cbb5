"""Tests for the branch simulator, determinism classification, and identities."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from causalflow import (
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
    adjoint,
    check_rewrite_identities,
    classify_determinism,
    drop_x_corrections,
    enumerate_branches,
    extract_circuit,
    find_biflow,
    find_flow,
    max_deviation_up_to_phase,
    realized_embedding,
    rescale_branch_map,
    run_branch,
    simulate_circuit,
    synthesize,
)
from causalflow import simulator
from causalflow.simulator import (
    _classify_maps,
    _max_batch,
    _run_branches,
)
from conftest import (
    CZ,
    HADAMARD,
    cluster_grid,
    hadamard_geometry,
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


class TestBatchedEngine:
    def test_every_batch_entry_matches_run_branch(self):
        """Distinct angle vectors in one pass; every batch entry's branch maps
        equal run_branch on the pattern with that entry's angles.  Random
        preparation angles turn X corrections into phase-conjugated ones."""
        arng = np.random.default_rng(61)
        control_first = set()
        kinds = set()
        for k, (g, fl) in enumerate(_flow_patterns(61, 14)):
            prep = random_angles(arng, g.prepared) if k % 2 else {q: 0.0 for q in g.prepared}
            batch = [
                synthesize(g, fl, random_angles(arng, g.measured), prep) for _ in range(3)
            ]
            p = batch[0]
            axis_order = list(p.inputs) + [c.qubit for c in p.commands if isinstance(c, Prepare)]
            axis = {q: k for k, q in enumerate(axis_order)}
            for cmd in p.commands:
                if isinstance(cmd, (CorrectX, CorrectXPhase, CorrectZ)):
                    kinds.add(type(cmd))
                    control_first.update(axis[s] < axis[cmd.qubit] for s in cmd.signals)
            eng = _run_branches(p, [q.measure_angles() for q in batch])
            for b, q in enumerate(batch):
                maps = eng.maps(b, p.outputs)
                n = p.n_measurements
                for s in range(1 << n):
                    label = format(s, f"0{n}b")
                    np.testing.assert_allclose(maps[s], run_branch(q, label), atol=1e-12)
        assert kinds == {CorrectX, CorrectXPhase, CorrectZ}
        assert control_first == {True, False}


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
            eng = _run_branches(p, angle_sets)
            n = p.n_measurements
            for b, angles in enumerate(angle_sets):
                q = Pattern(
                    p.vertices,
                    p.inputs,
                    p.outputs,
                    [Measure(c.qubit, angles[c.qubit]) if isinstance(c, Measure) else c for c in p.commands],
                )
                reference = np.array([run_branch(q, format(s, f"0{n}b")) for s in range(1 << n)])
                expected = _classify_maps(reference, 1e-9)
                got = _classify_maps(eng.maps(b, p.outputs), 1e-9)
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
        """A budget of two batch entries splits 8 angle vectors into four
        passes and leaves every verdict as it was."""
        g = path_state(4, [1], [4])
        fl = find_flow(g).flow
        strong = synthesize(g, fl, {1: 0.4, 2: 1.3, 3: 2.9})
        patterns = [strong, strong.without_corrections(), projector_pattern()]
        unchunked = [classify_determinism(p, angle_samples=7, seed=4) for p in patterns]

        sizes = []

        def counting(p, angle_sets):
            sizes.append(len(angle_sets))
            return _run_branches(p, angle_sets)

        sample = np.dtype(complex).itemsize << (len(g.vertices) + len(g.inputs))
        monkeypatch.setattr(simulator, "_MAX_DENSE_BYTES", 5 * sample)
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


class TestDenseBudget:
    def test_every_tensor_of_23_axes_fits_at_batch_one(self):
        for n_inputs in range(0, 6):
            assert _max_batch(23 - n_inputs, n_inputs) == 1
            assert _max_batch(24 - n_inputs, n_inputs) == 0

    def test_twenty_samples_fit_in_one_pass_on_small_grids(self):
        assert _max_batch(15, 3) >= 21

    def test_classify_over_bound_raises_before_allocating(self):
        g = path_state(30, [1], [30])
        p = synthesize(g, find_flow(g).flow, {q: 0.0 for q in g.measured})
        with pytest.raises(SimulationError, match="dense tensor bound"):
            classify_determinism(p, max_measurements=40)
        with pytest.raises(SimulationError, match="dense tensor bound"):
            enumerate_branches(p, max_measurements=40)


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

    def test_over_tensor_bound_raises_before_allocating(self):
        # every qubit of a complete graph is in flight at its first vertex's
        # last entangler: 26 qubits and 1 input axis exceed the budget
        vertices = range(1, 27)
        g = OpenGraphState(
            vertices, [(u, v) for u in vertices for v in vertices if u < v], [1], [26]
        )
        with pytest.raises(SimulationError, match="dense tensor bound"):
            realized_embedding(g, {q: 0.0 for q in g.measured})

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
                rescaled = rescale_branch_map(reports[0], p.n_measurements)
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
            a = rescale_branch_map(enumerate_branches(p)[0], p.n_measurements)
            dim = a.shape[0]
            np.testing.assert_allclose(a @ a.conj().T, np.eye(dim), atol=1e-9)
            np.testing.assert_allclose(a.conj().T @ a, np.eye(dim), atol=1e-9)
            dagger = adjoint(p, reverse.flow)
            b = rescale_branch_map(
                enumerate_branches(dagger)[0], dagger.n_measurements
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


def test_max_deviation_up_to_phase():
    arng = np.random.default_rng(5)
    m = arng.normal(size=(3, 3)) + 1j * arng.normal(size=(3, 3))
    assert max_deviation_up_to_phase(m, np.exp(0.7j) * m) < 1e-12
    assert max_deviation_up_to_phase(m, m + 1.0) > 0.1
