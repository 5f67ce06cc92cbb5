"""Tests for the flow search, dependency order, and the brute-force oracle."""

import itertools
import random

import pytest

from causalflow import (
    Entangle,
    FlowSearchResult,
    GraphFormatError,
    Measure,
    OpenGraphState,
    OracleSizeError,
    Pattern,
    PatternError,
    Prepare,
    brute_force_flow_oracle,
    dependency_order,
    find_biflow,
    find_flow,
    graph_from_json_dict,
    validate_flow,
)
from causalflow.flow_finder import _constraint_successors
from conftest import hadamard_geometry, no_flow_geometry, path_state, random_open_graph


def enumerate_valid_layerings(g, f, max_level=None):
    """All level assignments below ``max_level`` that satisfy the
    constraints of ``f``; the coarsest layering from
    :func:`dependency_order` must be no deeper than any of them."""
    vertices = list(g.vertices)
    bound = max_level if max_level is not None else len(vertices)
    succ = _constraint_successors(g, f)
    valid = []
    for combo in itertools.product(range(bound), repeat=len(vertices)):
        levels = dict(zip(vertices, combo))
        if all(levels[w] > levels[v] for v, ws in succ.items() for w in ws):
            valid.append(levels)
    return valid


def exhaustive_min_depth(g):
    """Minimum depth over every loop-free flow of ``g``, or None without one.

    Tries every injective corrector map along edges; each acyclic one is a
    flow whose least depth is that of its coarsest layering.
    """
    measured = list(g.measured)
    adjacency = {v: set() for v in g.vertices}
    for u, v in g.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    best = None
    for targets in itertools.permutations(sorted(g.prepared), len(measured)):
        if all(j in adjacency[i] for i, j in zip(measured, targets)):
            levels = dependency_order(g, dict(zip(measured, targets)))
            if levels is not None:
                depth = 1 + max(levels.values(), default=0)
                best = depth if best is None else min(best, depth)
    return best


def all_labelled_open_graphs(max_vertices):
    """Every graph on ``1..n``, ``n <= max_vertices``, with every I/O choice."""
    for n in range(1, max_vertices + 1):
        vs = list(range(1, n + 1))
        pairs = list(itertools.combinations(vs, 2))
        subsets = [s for k in range(n + 1) for s in itertools.combinations(vs, k)]
        for bits in range(1 << len(pairs)):
            edges = [e for k, e in enumerate(pairs) if bits >> k & 1]
            for inputs in subsets:
                for outputs in subsets:
                    yield OpenGraphState(vs, edges, inputs, outputs)


class TestFindFlow:
    def test_path_three(self):
        result = find_flow(path_state(3, [1], [3]))
        assert result.found
        assert result.flow.f == {1: 2, 2: 3}
        assert result.flow.levels == {1: 0, 2: 1, 3: 2}
        assert result.depth == 3

    def test_no_flow_geometry(self):
        assert not find_flow(no_flow_geometry()).found

    def test_no_measured_qubits(self):
        g = OpenGraphState([1, 2], [(1, 2)], [1, 2], [1, 2])
        result = find_flow(g)
        assert result.found
        assert result.flow.f == {}
        assert result.depth == 1

    def test_found_flow_always_validates(self):
        rng = random.Random(7)
        found = 0
        for _ in range(200):
            g = random_open_graph(rng)
            result = find_flow(g)
            if result.found:
                assert validate_flow(g, result.flow).ok
                assert result.depth == result.flow.depth
                found += 1
        assert found > 20

    def test_search_is_deterministic(self):
        g = path_state(4, [1], [4])
        assert find_flow(g) == find_flow(g) or (
            find_flow(g).flow.f == find_flow(g).flow.f
        )


class TestMinimumDepth:
    def _check(self, g):
        result = find_flow(g)
        best = exhaustive_min_depth(g)
        assert result.found == (best is not None), g
        if result.found:
            assert result.depth == best, g
            assert result.flow.levels == dependency_order(g, result.flow.f), g

    def test_every_graph_up_to_four_vertices(self):
        for g in all_labelled_open_graphs(4):
            self._check(g)

    def test_random_graphs_up_to_seven_vertices(self):
        rng = random.Random(53)
        for _ in range(400):
            self._check(random_open_graph(rng, max_vertices=7))

    def test_long_path(self):
        n = 10_000
        g = path_state(n, [1], [n])
        result = find_flow(g)
        assert result.found
        assert result.depth == n
        assert result.flow.levels == dependency_order(g, result.flow.f)


class TestLoops:
    def test_loops_only_without_loop_free_flow(self):
        rng = random.Random(59)
        graphs = list(all_labelled_open_graphs(3))
        graphs += [random_open_graph(rng, max_vertices=6) for _ in range(200)]
        with_loops = 0
        for g in graphs:
            result = find_flow(g, loop_candidates=g.measured)
            assert result.found == brute_force_flow_oracle(g, True).found
            if result.found:
                assert result.flow.levels == dependency_order(g, result.flow.f), g
            if result.found and result.flow.loops:
                assert not brute_force_flow_oracle(g).found
                with_loops += 1
        assert with_loops > 10


class TestGraphValidation:
    def test_undeclared_edge_endpoint_rejected(self):
        with pytest.raises(GraphFormatError, match="edge endpoint 3 not a vertex"):
            OpenGraphState([1, 2], [(1, 2), (2, 3)], [1], [2])

    def test_every_entry_point_validates(self):
        """No search can meet an invalid graph: direct construction, the JSON
        form and a pattern's geometry all reject it."""
        doc = {"vertices": [1, 2], "edges": [[1, 2], [2, 3]], "inputs": [1], "outputs": [2]}
        cmds = [Prepare(2), Entangle(1, 2), Entangle(2, 3), Measure(1)]
        for build in (
            lambda: OpenGraphState([1, 2], [(1, 2), (2, 3)], [1], [2]),
            lambda: graph_from_json_dict(doc),
            lambda: Pattern([1, 2], [1], [2], cmds).geometry(),
        ):
            with pytest.raises(GraphFormatError, match="edge endpoint 3 not a vertex"):
                build()


class TestDependencyOrder:
    def test_path_three_layering(self):
        g = path_state(3, [1], [3])
        assert dependency_order(g, {1: 2, 2: 3}) == {1: 0, 2: 1, 3: 2}

    def test_forced_collision_reports_cycle(self):
        g = no_flow_geometry()
        # vertices 1 and 2 each have to precede the other
        assert dependency_order(g, {1: 3, 2: 3}) is None

    def test_single_edge(self):
        g = path_state(2, [1], [2])
        assert dependency_order(g, {1: 2}) == {1: 0, 2: 1}

    @pytest.mark.parametrize(
        "f, stray", [({1: 9}, [9]), ({5: 1}, [5]), ({7: 8}, [7, 8])]
    )
    def test_vertices_outside_the_graph_are_named(self, f, stray):
        g = hadamard_geometry()
        with pytest.raises(PatternError) as info:
            dependency_order(g, f)
        assert str(info.value) == f"corrector map names vertices {stray} not in the graph"

    def test_long_cycle_is_reported(self):
        n = 5000
        g = OpenGraphState(range(n), [(i, (i + 1) % n) for i in range(n)])
        f = {i: (i + 1) % n for i in range(n)}
        assert dependency_order(g, f) is None

    def test_coarsest_layering_minimizes_depth(self):
        g = path_state(3, [1], [3])
        coarsest = dependency_order(g, {1: 2, 2: 3})
        depth = 1 + max(coarsest.values())
        for levels in enumerate_valid_layerings(g, {1: 2, 2: 3}, max_level=3):
            assert 1 + max(levels.values()) >= depth

    def test_coarsest_layering_minimizes_depth_random(self):
        rng = random.Random(3)
        checked = 0
        while checked < 10:
            g = random_open_graph(rng, max_vertices=4)
            result = find_flow(g)
            if not result.found or not result.flow.f:
                continue
            coarsest = dependency_order(g, result.flow.f)
            depth = 1 + max(coarsest.values())
            alternatives = enumerate_valid_layerings(
                g, result.flow.f, max_level=len(g.vertices)
            )
            assert alternatives, "coarsest layering itself must appear"
            assert min(1 + max(l.values()) for l in alternatives) == depth
            checked += 1


class TestBiflow:
    def test_single_edge_biflow(self):
        forward, reverse = find_biflow(path_state(2, [1], [2]))
        assert forward.found and reverse.found

    def test_path_three_biflow(self):
        forward, reverse = find_biflow(path_state(3, [1], [3]))
        assert forward.found and reverse.found
        assert reverse.flow.f == {3: 2, 2: 1}

    def test_reverse_can_be_absent(self):
        forward, reverse = find_biflow(path_state(2, [1], [1, 2]))
        assert forward.found
        assert not reverse.found

    def test_biflow_forces_equal_io_sizes(self):
        rng = random.Random(19)
        seen = 0
        for _ in range(300):
            g = random_open_graph(rng, max_vertices=5)
            forward, reverse = find_biflow(g)
            if forward.found and reverse.found:
                assert len(g.inputs) == len(g.outputs)
                seen += 1
        assert seen > 5


class TestOracle:
    def test_reproduces_find_flow_examples(self):
        for g in (
            path_state(3, [1], [3]),
            no_flow_geometry(),
            OpenGraphState([1, 2], [(1, 2)], [1, 2], [1, 2]),
        ):
            assert brute_force_flow_oracle(g).found == find_flow(g).found

    def test_empty_graph(self):
        g = OpenGraphState([], [], [], [])
        assert brute_force_flow_oracle(g).found

    def test_injectivity_shortcut(self):
        g = OpenGraphState([1, 2, 3], [(1, 3), (2, 3)], [1, 2], [3])
        assert not brute_force_flow_oracle(g).found

    def test_size_bound(self):
        g = OpenGraphState(range(1, 9), [], [], [])
        with pytest.raises(OracleSizeError):
            brute_force_flow_oracle(g)
        assert brute_force_flow_oracle(g, max_vertices=10).found is False

    def test_agreement_all_small_graphs(self):
        vs = [1, 2, 3]
        subsets = list(
            itertools.chain.from_iterable(
                itertools.combinations(vs, k) for k in range(4)
            )
        )
        for bits in range(8):
            edges = [
                e
                for k, e in enumerate([(1, 2), (1, 3), (2, 3)])
                if bits >> k & 1
            ]
            for inputs in subsets:
                for outputs in subsets:
                    g = OpenGraphState(vs, edges, inputs, outputs)
                    for loops in (False, True):
                        assert (
                            find_flow(g, g.measured if loops else ()).found
                            == brute_force_flow_oracle(g, loops).found
                        )

    def test_agreement_random_graphs(self):
        rng = random.Random(31)
        for _ in range(150):
            g = random_open_graph(rng, max_vertices=6)
            for loops in (False, True):
                assert (
                    find_flow(g, g.measured if loops else ()).found
                    == brute_force_flow_oracle(g, loops).found
                )

    def test_oracle_flows_validate(self):
        rng = random.Random(37)
        found = 0
        for _ in range(100):
            g = random_open_graph(rng, max_vertices=5)
            result = brute_force_flow_oracle(g, allow_loops=True)
            if result.found:
                assert validate_flow(g, result.flow, allow_loops=True).ok
                found += 1
        assert found > 10


def test_search_result_json():
    result = find_flow(path_state(3, [1], [3]))
    doc = result.to_json_dict()
    assert doc["found"] is True
    assert doc["depth"] == 3
    assert doc["flow"]["f"] == {"1": 2, "2": 3}
    assert not find_flow(no_flow_geometry()).to_json_dict()["found"]


def test_empty_search_result_is_not_found():
    """``found`` and ``depth`` are read from the result's one field, the flow."""
    result = FlowSearchResult()
    assert result.found is False
    assert result.depth is None
    assert result.to_json_dict() == {"found": False}


def test_oracle_without_measured_or_with_too_few_prepared():
    """The oracle's enumeration decides both edge cases: no measured qubit
    gives the empty flow of depth 1, and more measured than prepared qubits
    give no injective corrector map."""
    g = OpenGraphState([1, 2], [(1, 2)], [1, 2], [1, 2])
    result = brute_force_flow_oracle(g)
    assert result.flow.f == {} and result.flow.levels == {1: 0, 2: 0}
    assert result.depth == 1
    star = OpenGraphState([1, 2, 3], [(1, 3), (2, 3)], [1, 2, 3], [3])
    assert not brute_force_flow_oracle(star, allow_loops=True).found
