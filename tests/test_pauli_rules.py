"""Tests for loop flows, right-angle measurement behavior, and droppable X."""

import math
import random

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
    PatternError,
    Prepare,
    brute_force_flow_oracle,
    classify_determinism,
    dependency_order,
    drop_x_corrections,
    enumerate_branches,
    find_flow,
    synthesize,
    validate_flow,
)
from conftest import loop_geometry, path_state, random_open_graph

RIGHT = math.pi / 2.0


class TestFindFlowWithLoops:
    """``find_flow`` with loop candidates: the Pauli-Y relaxation."""

    def test_loop_rescues_geometry_without_flow(self):
        g = loop_geometry()
        assert not find_flow(g).found
        assert not brute_force_flow_oracle(g).found
        result = find_flow(g, loop_candidates={2})
        assert result.found
        assert result.flow.f == {2: 2}
        assert result.flow.loops == {2}
        assert result.flow.levels == {2: 0, 1: 1, 3: 1}
        assert result.depth == 2
        assert validate_flow(g, result.flow, allow_loops=True).ok

    def test_loop_blocked_by_neighbor_order_falls_back_to_plain_flow(self):
        # Middle qubit would need every neighbor later, but its input
        # neighbor must be corrected by it first: the loop assignment is
        # cyclic and a loop-free flow is returned instead.
        g = path_state(3, [1], [3])
        assert dependency_order(g, {1: 2, 2: 2}) is None
        result = find_flow(g, loop_candidates={2})
        assert result.found
        assert result.flow.loops == frozenset()
        assert result.flow.f == {1: 2, 2: 3}

    def test_empty_y_set_matches_plain_search(self):
        rng = random.Random(43)
        for _ in range(60):
            g = random_open_graph(rng, max_vertices=5)
            assert find_flow(g, loop_candidates=frozenset()) == find_flow(g)

    def test_loops_only_enlarge_the_search_space(self):
        rng = random.Random(47)
        for _ in range(80):
            g = random_open_graph(rng, max_vertices=5)
            if find_flow(g).found:
                assert find_flow(g, loop_candidates=frozenset(g.measured)).found

    def test_input_y_qubit_gets_no_loop(self):
        g = OpenGraphState([1], [], [1], [])
        assert not find_flow(g, loop_candidates={1}).found

    def test_y_qubits_must_be_measured(self):
        with pytest.raises(PatternError, match="not measured"):
            find_flow(path_state(2, [1], [2]), loop_candidates={2})


class TestLoopSynthesis:
    def test_loop_correction_block(self):
        g = loop_geometry()
        fl = find_flow(g, loop_candidates={2}).flow
        p = synthesize(g, fl, {2: RIGHT})
        assert p.commands == (
            Prepare(2, 0.0),
            Entangle(1, 2),
            Entangle(2, 3),
            Measure(2, RIGHT),
            CorrectX(1, {2}),
            CorrectXPhase(1, RIGHT, {2}),
            CorrectZ(3, {2}),
        )

    def test_loop_requires_zero_prep_angle(self):
        g = loop_geometry()
        fl = find_flow(g, loop_candidates={2}).flow
        with pytest.raises(PatternError, match="zero preparation"):
            synthesize(g, fl, {2: RIGHT}, {2: 0.3})

    def test_loop_pattern_realizes_a_unitary(self):
        g = loop_geometry()
        fl = find_flow(g, loop_candidates={2}).flow
        p = synthesize(g, fl, {2: RIGHT})
        reports = enumerate_branches(p)
        a = reports[0].branch_map * math.sqrt(2.0)
        np.testing.assert_allclose(a.conj().T @ a, np.eye(4), atol=1e-12)


class TestClassifyLoopPattern:
    def test_right_angle_is_strongly_deterministic_not_uniform(self):
        g = loop_geometry()
        fl = find_flow(g, loop_candidates={2}).flow
        verdict = classify_determinism(
            synthesize(g, fl, {2: RIGHT}), angle_samples=10, seed=2
        )
        assert verdict.classification is Classification.STRONGLY_DETERMINISTIC
        assert not verdict.uniform

    @pytest.mark.parametrize("angle", [0.4, 1.1, 2.9, 4.4])
    def test_generic_angle_breaks_determinism(self, angle):
        g = loop_geometry()
        fl = find_flow(g, loop_candidates={2}).flow
        verdict = classify_determinism(synthesize(g, fl, {2: angle}), angle_samples=0)
        assert verdict.classification is Classification.NOT_DETERMINISTIC
        assert verdict.witness is not None

    def test_without_loops_matches_plain_classification(self):
        g = path_state(3, [1], [3])
        fl = find_flow(g, loop_candidates={2}).flow
        assert not fl.loops
        assert fl == find_flow(g).flow
        angles = {1: 0.9, 2: 1.7}
        a = classify_determinism(synthesize(g, fl, angles), angle_samples=5, seed=9)
        b = classify_determinism(
            synthesize(g, find_flow(g).flow, angles), angle_samples=5, seed=9
        )
        assert a.classification == b.classification
        assert a.uniform == b.uniform


class TestDropXCorrections:
    def test_drops_only_corrections_into_zero_measured_qubits(self):
        g = path_state(3, [1], [3])
        fl = find_flow(g).flow
        p = synthesize(g, fl, {1: 0.7, 2: 0.0})
        dropped = drop_x_corrections(p)
        assert CorrectX(2, {1}) in p.commands
        assert CorrectX(2, {1}) not in dropped.commands
        assert CorrectX(3, {2}) in dropped.commands  # output keeps its correction
        assert CorrectZ(3, {1}) in dropped.commands

    def test_channel_preserved_and_maps_move_at_most_by_sign(self):
        g = path_state(3, [1], [3])
        p = synthesize(g, find_flow(g).flow, {1: 0.7, 2: 0.0})
        dropped = drop_x_corrections(p)
        before = enumerate_branches(p)
        after = enumerate_branches(dropped)
        for x, y in zip(before, after):
            sign_aware = min(
                np.max(np.abs(x.branch_map - y.branch_map)),
                np.max(np.abs(x.branch_map + y.branch_map)),
            )
            assert sign_aware < 1e-12
        rho = np.array([[0.6, 0.2 - 0.3j], [0.2 + 0.3j, 0.4]], dtype=complex)

        def channel(reports):
            return sum(r.branch_map @ rho @ r.branch_map.conj().T for r in reports)

        np.testing.assert_allclose(channel(before), channel(after), atol=1e-12)

    def test_untouched_branches_exactly_preserved(self):
        g = path_state(3, [1], [3])
        p = synthesize(g, find_flow(g).flow, {1: 0.7, 2: 0.0})
        before = enumerate_branches(p)
        after = enumerate_branches(drop_x_corrections(p))
        for x, y in zip(before, after):
            fired = x.outcomes[0] == "1" and x.outcomes[1] == "1"
            if not fired:
                np.testing.assert_allclose(x.branch_map, y.branch_map, atol=1e-14)

    def test_no_zero_angles_means_no_change(self):
        g = path_state(3, [1], [3])
        p = synthesize(g, find_flow(g).flow, {1: 0.7, 2: 1.4})
        assert drop_x_corrections(p) == p

    def test_all_zero_angles_drop_internal_only(self):
        g = path_state(4, [1], [4])
        p = synthesize(g, find_flow(g).flow, {1: 0.0, 2: 0.0, 3: 0.0})
        dropped = drop_x_corrections(p)
        assert CorrectX(2, {1}) not in dropped.commands
        assert CorrectX(3, {2}) not in dropped.commands
        assert CorrectX(4, {3}) in dropped.commands

    def test_exactness_threshold(self):
        g = path_state(3, [1], [3])
        fl = find_flow(g).flow
        near = synthesize(g, fl, {1: 0.7, 2: 1e-13})
        assert CorrectX(2, {1}) not in drop_x_corrections(near).commands
        off = synthesize(g, fl, {1: 0.7, 2: 1e-6})
        assert CorrectX(2, {1}) in drop_x_corrections(off).commands

    def test_determinism_class_preserved(self):
        g = path_state(3, [1], [3])
        p = synthesize(g, find_flow(g).flow, {1: 0.7, 2: 0.0})
        verdict = classify_determinism(drop_x_corrections(p), angle_samples=0)
        assert verdict.is_deterministic


class TestLoopGeometryShape:
    def test_loop_example_matches_two_level_description(self):
        g = loop_geometry()
        measured = set(g.measured)
        assert measured == {2}
        result = find_flow(g, loop_candidates=measured)
        assert result.depth == 2

    def test_isolated_loop_vertex_has_no_corrections_to_equalize(self):
        # A lone prepared-and-measured vertex admits only the loop; with no
        # neighbors there is nothing to correct on, so the two scalar
        # branches stay merely proportional.
        g = OpenGraphState([1], [], [], [])
        assert not find_flow(g).found
        result = find_flow(g, loop_candidates={1})
        assert result.found and result.flow.loops == {1}
        p = synthesize(g, result.flow, {1: RIGHT})
        verdict = classify_determinism(p, angle_samples=0)
        assert verdict.classification is Classification.DETERMINISTIC
