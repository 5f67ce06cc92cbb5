"""Tests for open graph states, flows, and their validators."""

import json
import random

import pytest

from causalflow import (
    Flow,
    GraphFormatError,
    OpenGraphState,
    find_flow,
    graph_from_json_dict,
    validate_flow,
    validate_graph,
)
from conftest import hadamard_geometry, no_flow_geometry, path_state, random_open_graph


class TestValidateGraph:
    def test_minimal_legal_graph(self):
        g = OpenGraphState([1, 2], [(1, 2)], [1], [2])
        assert validate_graph(g).ok

    def test_self_edge(self):
        with pytest.raises(GraphFormatError, match="self-edge at vertex 1"):
            OpenGraphState([1, 2], [(1, 1)], [1], [2])

    def test_input_not_a_vertex(self):
        with pytest.raises(GraphFormatError, match="input 9 not a vertex"):
            OpenGraphState([1, 2], [(1, 2)], [9], [2])

    def test_output_not_a_vertex(self):
        with pytest.raises(GraphFormatError, match="output 7 not a vertex"):
            OpenGraphState([1, 2], [(1, 2)], [1], [7])

    def test_duplicate_edge_either_orientation(self):
        for edges in ([(1, 2), (2, 1)], [(2, 1), (2, 1)]):
            with pytest.raises(GraphFormatError, match=r"duplicate edge \[1, 2\]"):
                OpenGraphState([1, 2], edges, [1], [2])

    def test_edge_endpoint_undeclared(self):
        with pytest.raises(GraphFormatError, match="edge endpoint 3 not a vertex"):
            OpenGraphState([1, 2], [(1, 3)], [1], [2])

    def test_one_message_lists_every_violation_in_order(self):
        """Edge by edge in stored order, then inputs, then outputs."""
        with pytest.raises(GraphFormatError) as info:
            OpenGraphState([1, 2], [(1, 1), (3, 1), (1, 2), (2, 1)], [9], [7])
        assert str(info.value) == (
            "invalid open graph: self-edge at vertex 1; edge endpoint 3 not a "
            "vertex; duplicate edge [1, 2]; input 9 not a vertex; output 7 not a vertex"
        )

    def test_undeclared_self_edge_names_its_vertex_once(self):
        with pytest.raises(GraphFormatError) as info:
            OpenGraphState([1, 2], [(1, 2), (3, 3)], [1], [2])
        assert str(info.value) == (
            "invalid open graph: self-edge at vertex 3; edge endpoint 3 not a vertex"
        )

    @pytest.mark.parametrize(
        "edges, inputs, outputs, violation",
        [
            ([(1, 2), (2, 2)], [1], [2], "self-edge at vertex 2"),
            ([(1, 2), (2, 3)], [1], [2], "edge endpoint 3 not a vertex"),
            ([(1, 2), (1, 1)], [1, 2], [1, 2], "self-edge at vertex 1"),
        ],
        ids=["self-edge", "dangling-edge", "self-edge-between-outputs"],
    )
    def test_graphs_that_broke_synthesis_and_extraction_cannot_be_built(
        self, edges, inputs, outputs, violation
    ):
        """Such graphs once reached synthesize (which failed an internal
        assertion) and extract_circuit (which emitted a CZ of a wire with
        itself); they now stop at construction."""
        with pytest.raises(GraphFormatError, match=violation):
            OpenGraphState([1, 2], edges, inputs, outputs)

    def test_overlapping_inputs_outputs_legal(self):
        g = OpenGraphState([1, 2], [(1, 2)], [1, 2], [1, 2])
        assert validate_graph(g).ok
        assert g.measured == ()
        assert g.prepared == ()


class TestNeighbors:
    """The adjacency map every search and validator reads."""

    def test_path_center(self):
        g = path_state(3, [1], [3])
        assert g._adjacency[2] == {1, 3}

    def test_isolated_vertex(self):
        g = OpenGraphState([1, 2], [], [1], [2])
        assert g._adjacency[1] == frozenset()

    def test_star_center(self):
        leaves = [2, 3, 4, 5]
        g = OpenGraphState([1] + leaves, [(1, w) for w in leaves], [1], leaves)
        assert g._adjacency[1] == set(leaves)

    def test_unknown_vertex_raises(self):
        """Keyed by exactly the vertices, which ``dependency_order`` relies
        on to name a corrector map's stray vertices."""
        g = path_state(2, [1], [2])
        assert g._adjacency.keys() == g.vertex_set
        with pytest.raises(KeyError):
            g._adjacency[99]

    def test_symmetry(self):
        rng = random.Random(5)
        for _ in range(25):
            g = random_open_graph(rng)
            for i in g.vertices:
                for j in g._adjacency[i]:
                    assert i in g._adjacency[j]


class TestValidateFlow:
    def test_hadamard_geometry_flow(self):
        g = hadamard_geometry()
        fl = Flow({1: 2}, {1: 0, 2: 1})
        assert validate_flow(g, fl).ok

    def test_fixed_point_rejected_without_loops(self):
        g = OpenGraphState([1, 2], [(1, 2)], [1], [2])
        fl = Flow({1: 1}, {1: 0, 2: 1})
        result = validate_flow(g, fl, allow_loops=False)
        assert any("loops not allowed" in v for v in result.violations)

    def test_forced_collision_reports_injectivity(self):
        g = no_flow_geometry()
        fl = Flow({1: 3, 2: 3}, {1: 0, 2: 0, 3: 1, 4: 1})
        result = validate_flow(g, fl)
        assert any("injective" in v for v in result.violations)
        # F2 also bites: vertex 2 neighbors f(1)=3 but is not later than 1.
        assert any(v.startswith("F2") for v in result.violations)

    def test_edge_condition(self):
        g = path_state(3, [1], [3])
        fl = Flow({1: 3, 2: 3}, {1: 0, 2: 1, 3: 2})
        assert any(v.startswith("F0") for v in validate_flow(g, fl).violations)

    def test_order_condition(self):
        g = hadamard_geometry()
        fl = Flow({1: 2}, {1: 1, 2: 0})
        assert any(v.startswith("F1") for v in validate_flow(g, fl).violations)

    def test_domain_must_cover_measured(self):
        g = path_state(3, [1], [3])
        fl = Flow({1: 2}, {1: 0, 2: 1, 3: 2})
        assert any("undefined" in v for v in validate_flow(g, fl).violations)

    def test_every_vertex_needs_a_level(self):
        g = path_state(3, [1], [3])
        fl = Flow({1: 2, 2: 3}, {2: 1})
        assert validate_flow(g, fl).violations == ("vertex 1 has no level", "vertex 3 has no level")

    def test_f_on_an_unknown_vertex(self):
        fl = Flow({1: 2, 5: 2}, {1: 0, 2: 1})
        assert validate_flow(hadamard_geometry(), fl).violations == (
            "f defined outside measured set: [5]",
            "f not injective: f(1)=f(5)=2",
            "f defined on unknown vertex 5",
        )

    def test_loop_needs_every_neighbor_later(self):
        g = path_state(3, [1, 3], [1, 3])
        fl = Flow({2: 2}, {1: 0, 2: 1, 3: 2})
        assert validate_flow(g, fl, allow_loops=True).violations == (
            "F2 (loop): neighbor 1 of loop vertex 2 is not later",
        )

    def test_monotone_under_level_refinement(self):
        rng = random.Random(11)
        refined = 0
        while refined < 20:
            g = random_open_graph(rng)
            result = find_flow(g)
            if not result.found:
                continue
            fl = result.flow
            stretched = Flow(fl.f, {v: 3 * l for v, l in fl.levels.items()})
            assert validate_flow(g, stretched).ok
            jittered = Flow(
                fl.f, {v: 3 * l + rng.randint(0, 2) for v, l in fl.levels.items()}
            )
            assert validate_flow(g, jittered).ok
            refined += 1

    def test_flow_orbits_inject_inputs_into_outputs(self):
        rng = random.Random(23)
        checked = 0
        while checked < 25:
            g = random_open_graph(rng)
            result = find_flow(g)
            if not result.found:
                continue
            fl = result.flow
            oset = set(g.outputs)
            ends = []
            for start in g.inputs:
                q = start
                while q not in oset:
                    q = fl.f[q]
                ends.append(q)
            assert len(set(ends)) == len(g.inputs)
            checked += 1


class TestFlowImmutable:
    def test_hashable_and_consistent_with_eq(self):
        fl = find_flow(path_state(3, [1], [3])).flow
        same = Flow({2: 3, 1: 2}, {3: 2, 2: 1, 1: 0})
        assert fl == same
        assert hash(fl) == hash(same)
        assert len({fl, same}) == 1

    def test_mappings_are_read_only(self):
        fl = find_flow(path_state(3, [1], [3])).flow
        with pytest.raises(TypeError):
            fl.f[1] = 9
        with pytest.raises(TypeError):
            fl.levels[1] = 9

    def test_loops_are_the_fixed_points_of_f(self):
        assert Flow({1: 1, 2: 3}, {1: 0, 2: 0, 3: 1}).loops == {1}
        assert Flow({1: 2}, {1: 0, 2: 1}).loops == frozenset()

    def test_constructor_copies_its_arguments(self):
        f, levels = {1: 2}, {1: 0, 2: 1}
        fl = Flow(f, levels)
        f[1] = 9
        levels[2] = 5
        assert fl.f == {1: 2}
        assert fl.levels == {1: 0, 2: 1}


class TestJson:
    def test_graph_round_trip(self):
        g = no_flow_geometry()
        assert graph_from_json_dict(json.loads(g.to_json())) == g

    def test_tuples_read_as_arrays(self):
        doc = {"vertices": (1, 2), "edges": [(1, 2)], "inputs": (1,), "outputs": (2,)}
        assert graph_from_json_dict(doc) == OpenGraphState([1, 2], [(1, 2)], [1], [2])

    def test_duplicate_edges_rejected(self):
        doc = {"vertices": [1, 2], "edges": [[1, 2], [2, 1]], "inputs": [], "outputs": []}
        with pytest.raises(GraphFormatError):
            graph_from_json_dict(doc)

    def test_malformed_document(self):
        with pytest.raises(GraphFormatError):
            graph_from_json_dict({"vertices": [1]})

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1, 2]", "expected a JSON object, got list"),
            ('{"vertices": [1]}', "missing key 'edges'"),
        ],
        ids=["not-an-object", "missing-key"],
    )
    def test_malformed_document_message(self, text, message):
        with pytest.raises(GraphFormatError) as info:
            graph_from_json_dict(json.loads(text))
        assert str(info.value) == f"malformed graph document: {message}"

    def test_flow_round_trip(self):
        fl = Flow({1: 2, 3: 3}, {1: 0, 2: 1, 3: 0})
        doc = json.loads(json.dumps(fl.to_json_dict()))
        assert doc["loops"] == [3]
        back = Flow(
            {int(i): j for i, j in doc["f"].items()},
            {int(v): l for v, l in doc["levels"].items()},
        )
        assert back == fl
        assert fl.depth == 2
