"""Tests for star decomposition, circuit extraction, and circuit simulation."""

import math
import random

import numpy as np
import pytest

from causalflow import (
    CZGate,
    HadamardGate,
    OpenGraphState,
    PatternError,
    PhaseGate,
    SimulationError,
    StarPattern,
    Wire,
    Circuit,
    circuit_from_json_dict,
    decompose_stars,
    extract_circuit,
    find_flow,
    gate_counts,
    max_deviation_up_to_phase,
    realized_embedding,
    simulate_circuit,
)
from conftest import CZ, HADAMARD, hadamard_geometry, loop_geometry, path_state, random_angles, random_open_graph


def phase_matrix(theta: float) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * theta)]).astype(complex)


def kron_circuit_matrix(c: Circuit) -> np.ndarray:
    """Map of ``c`` as a product of full 2^n x 2^n gate matrices, built with
    np.kron over the wires in declaration order."""
    position = {w.id: k for k, w in enumerate(c.wires)}
    n = len(c.wires)
    eye = np.eye(2, dtype=complex)
    one = np.diag([0.0, 1.0]).astype(complex)

    def on_wires(factors: dict) -> np.ndarray:
        full = np.eye(1, dtype=complex)
        for k in range(n):
            full = np.kron(full, factors.get(k, eye))
        return full

    plus = np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2.0)
    state = np.eye(1, dtype=complex)
    for w in c.wires:
        state = np.kron(state, eye if w.source == "input" else plus)
    for gate in c.gates:
        if isinstance(gate, CZGate):
            both = on_wires({position[gate.a]: one, position[gate.b]: one})
            state = (np.eye(1 << n) - 2.0 * both) @ state
        elif isinstance(gate, PhaseGate):
            state = on_wires({position[gate.wire]: phase_matrix(gate.theta)}) @ state
        else:
            state = on_wires({position[gate.wire]: HADAMARD}) @ state
    rows = state.reshape((2,) * n + (state.shape[1],))
    order = [position[w] for w in c.outputs] + [n]
    return rows.transpose(order).reshape(state.shape)


class TestDecomposeStars:
    def test_single_edge_one_star_no_residual(self):
        g = hadamard_geometry()
        stars, residual = decompose_stars(g, find_flow(g).flow, {1: 0.3})
        assert stars == [StarPattern(1, (2,), 0.3, 2)]
        assert residual == []

    def test_path_three_two_stars(self):
        g = path_state(3, [1], [3])
        stars, residual = decompose_stars(g, find_flow(g).flow, {1: 0.3, 2: 0.8})
        assert stars == [
            StarPattern(1, (2,), 0.3, 2),
            StarPattern(2, (3,), 0.8, 3),
        ]
        assert residual == []

    def test_outputs_only_triangle_is_all_residual(self):
        g = OpenGraphState(
            [1, 2, 3], [(1, 2), (1, 3), (2, 3)], [1, 2, 3], [1, 2, 3]
        )
        stars, residual = decompose_stars(g, find_flow(g).flow, {})
        assert stars == []
        assert residual == [(1, 2), (1, 3), (2, 3)]

    def test_star_with_multiple_outputs(self):
        g = OpenGraphState([1, 2, 3], [(1, 2), (1, 3)], [1], [2, 3])
        stars, _ = decompose_stars(g, find_flow(g).flow, {1: 0.5})
        assert len(stars) == 1
        assert stars[0].outputs == (2, 3)
        assert stars[0].corrected in (2, 3)

    def test_loops_rejected(self):
        g = loop_geometry()
        fl = find_flow(g, loop_candidates={2}).flow
        with pytest.raises(PatternError, match="loop"):
            decompose_stars(g, fl, {2: 0.0})

    def test_corrected_output_must_be_listed(self):
        with pytest.raises(ValueError, match="corrected"):
            StarPattern(1, (2, 3), 0.0, 4)


class TestStarGates:
    def test_three_qubit_star_has_one_cz(self):
        g = OpenGraphState([1, 2, 3], [(1, 2), (1, 3)], [1], [2, 3])
        circuit = extract_circuit(g, find_flow(g).flow, {1: 0.7})
        assert circuit.gates == (CZGate(0, 1), PhaseGate(0, -0.7), HadamardGate(0))

    def test_three_qubit_star_matrix(self):
        alpha = 1.234
        g = OpenGraphState([1, 2, 3], [(1, 2), (1, 3)], [1], [2, 3])
        fl = find_flow(g).flow
        circuit = extract_circuit(g, fl, {1: alpha})
        np.testing.assert_allclose(
            simulate_circuit(circuit),
            realized_embedding(g, {1: alpha}),
            atol=1e-12,
        )


class TestExtractCircuit:
    def test_hadamard_geometry_single_wire(self):
        g = hadamard_geometry()
        circuit = extract_circuit(g, find_flow(g).flow, {1: 0.0})
        assert circuit.wires == (Wire(0, "input"),)
        assert circuit.gates == (PhaseGate(0, -0.0), HadamardGate(0))
        assert circuit.outputs == (0,)
        np.testing.assert_allclose(simulate_circuit(circuit), HADAMARD, atol=1e-14)

    def test_path_three_gate_sequence(self):
        g = path_state(3, [1], [3])
        a1, a2 = 0.9, 2.2
        circuit = extract_circuit(g, find_flow(g).flow, {1: a1, 2: a2})
        assert circuit.gates == (
            PhaseGate(0, -a1),
            HadamardGate(0),
            PhaseGate(0, -a2),
            HadamardGate(0),
        )
        expected = HADAMARD @ phase_matrix(-a2) @ HADAMARD @ phase_matrix(-a1)
        np.testing.assert_allclose(simulate_circuit(circuit), expected, atol=1e-12)

    def test_two_disconnected_edges_tensor(self):
        g = OpenGraphState([1, 2, 3, 4], [(1, 2), (3, 4)], [1, 3], [2, 4])
        circuit = extract_circuit(g, find_flow(g).flow, {1: 0.0, 3: 0.0})
        assert len(circuit.wires) == 2
        np.testing.assert_allclose(
            simulate_circuit(circuit), np.kron(HADAMARD, HADAMARD), atol=1e-12
        )

    def test_residual_cz_lands_between_stars(self):
        # Output 4 hangs off output 1, which is final only after star 5;
        # their controlled-Z comes right after that star, before star 2.
        g = OpenGraphState(
            [1, 2, 3, 4, 5], [(1, 2), (1, 4), (1, 5), (2, 3)], [], [1, 3, 4]
        )
        fl = find_flow(g).flow
        assert fl.f == {5: 1, 2: 3}
        circuit = extract_circuit(g, fl, {2: 1.1, 5: 0.3})
        assert circuit.wires == (Wire(0, "plus"), Wire(1, "plus"), Wire(2, "plus"))
        assert circuit.gates == (
            PhaseGate(1, -0.3),
            HadamardGate(1),
            CZGate(1, 0),
            CZGate(2, 1),
            PhaseGate(2, -1.1),
            HadamardGate(2),
        )
        assert circuit.outputs == (1, 2, 0)
        embedding = realized_embedding(g, {2: 1.1, 5: 0.3})
        assert max_deviation_up_to_phase(simulate_circuit(circuit), embedding) < 1e-12

    def test_non_finite_angle_rejected(self):
        g = hadamard_geometry()
        with pytest.raises(PatternError, match="not finite"):
            extract_circuit(g, find_flow(g).flow, {1: math.inf})

    def test_outputs_only_graph_is_residual_czs(self):
        g = OpenGraphState(
            [1, 2, 3], [(1, 2), (1, 3), (2, 3)], [1, 2, 3], [1, 2, 3]
        )
        circuit = extract_circuit(g, find_flow(g).flow, {})
        assert gate_counts(circuit) == {"CZ": 3, "P": 0, "H": 0}
        np.testing.assert_allclose(
            simulate_circuit(circuit), realized_embedding(g, {}), atol=1e-12
        )

    def test_gate_and_wire_counts(self):
        rng = random.Random(73)
        arng = np.random.default_rng(73)
        checked = 0
        while checked < 25:
            g = random_open_graph(rng, max_vertices=6)
            result = find_flow(g)
            if not result.found:
                continue
            circuit = extract_circuit(g, result.flow, random_angles(arng, g.measured))
            counts = gate_counts(circuit)
            n_measured = len(g.measured)
            # each star consumes its flow edge into the phase/Hadamard block,
            # so controlled-Z gates cover exactly the non-flow edges
            assert counts["CZ"] == len(set(g.edges)) - n_measured
            assert counts["H"] == n_measured
            assert counts["P"] == n_measured
            assert len(circuit.wires) == len(g.outputs)
            assert circuit.n_input_wires == len(g.inputs)
            checked += 1

    def test_end_to_end_equivalence_random(self):
        rng = random.Random(79)
        arng = np.random.default_rng(79)
        checked = 0
        while checked < 30:
            g = random_open_graph(rng, max_vertices=7)
            result = find_flow(g)
            if not result.found:
                continue
            angles = random_angles(arng, g.measured)
            circuit = extract_circuit(g, result.flow, angles)
            deviation = max_deviation_up_to_phase(
                simulate_circuit(circuit), realized_embedding(g, angles)
            )
            assert deviation < 1e-9
            checked += 1


class TestSimulateCircuit:
    def test_single_hadamard(self):
        c = Circuit((Wire(0, "input"),), (HadamardGate(0),), (0,))
        np.testing.assert_allclose(simulate_circuit(c), HADAMARD, atol=1e-14)

    def test_bare_cz(self):
        c = Circuit(
            (Wire(0, "input"), Wire(1, "input")), (CZGate(0, 1),), (0, 1)
        )
        np.testing.assert_allclose(simulate_circuit(c), CZ, atol=1e-14)

    def test_ancilla_contraction(self):
        c = Circuit((Wire(0, "plus"),), (HadamardGate(0),), (0,))
        np.testing.assert_allclose(
            simulate_circuit(c), np.array([[1.0], [0.0]]), atol=1e-14
        )

    def test_matches_kron_product_of_gates(self):
        rng = random.Random(83)
        arng = np.random.default_rng(83)
        checked = 0
        while checked < 40:
            g = random_open_graph(rng, max_vertices=6)
            result = find_flow(g)
            if not result.found:
                continue
            c = extract_circuit(g, result.flow, random_angles(arng, g.measured))
            np.testing.assert_allclose(
                simulate_circuit(c), kron_circuit_matrix(c), atol=1e-12
            )
            checked += 1
        # Gates on ancillas, a CZ whose first wire comes later, and outputs
        # out of declaration order.
        c = Circuit(
            (Wire(0, "input"), Wire(1, "plus"), Wire(2, "input")),
            (
                HadamardGate(1),
                CZGate(2, 0),
                PhaseGate(1, 0.7),
                CZGate(1, 2),
                HadamardGate(0),
                PhaseGate(2, -1.9),
            ),
            (2, 0, 1),
        )
        np.testing.assert_allclose(
            simulate_circuit(c), kron_circuit_matrix(c), atol=1e-12
        )

    def test_long_hadamard_chain(self):
        """Thousands of butterflies leave the entries and the deferred
        1/sqrt(2) factors within range: HH pairs give the identity."""
        for count, expected in ((2100, np.eye(2)), (4001, HADAMARD)):
            c = Circuit((Wire(0, "input"),), (HadamardGate(0),) * count, (0,))
            np.testing.assert_allclose(simulate_circuit(c), expected, atol=1e-12)

    def test_wire_bound(self):
        """Each input wire also carries a domain axis: 12 input wires make 24
        axes, one more than the dense byte budget holds."""
        wires = tuple(Wire(k, "input") for k in range(12))
        c = Circuit(wires, (), tuple(range(12)))
        with pytest.raises(SimulationError, match="exceed"):
            simulate_circuit(c)

    def test_seventeen_plus_wires_fit(self):
        """17 plus-state wires are a 2 MiB state, well inside the budget."""
        wires = tuple(Wire(k, "plus") for k in range(17))
        state = simulate_circuit(Circuit(wires, (), tuple(range(17))))
        assert state.shape == (1 << 17, 1)
        np.testing.assert_allclose(state, 2.0**-8.5, atol=1e-15)


def test_circuit_json_round_trip():
    g = path_state(3, [1], [3])
    circuit = extract_circuit(g, find_flow(g).flow, {1: 0.9, 2: 2.2})
    doc = circuit.to_json_dict()
    assert doc["wires"] == [{"id": 0, "source": "input"}]
    assert circuit_from_json_dict(doc) == circuit
    with_cz = Circuit((Wire(0, "input"), Wire(1, "plus")), (CZGate(0, 1),), (0, 1))
    assert with_cz.to_json_dict()["gates"] == [{"g": "CZ", "a": 0, "b": 1}]
    assert circuit_from_json_dict(with_cz.to_json_dict()) == with_cz
    doc["gates"].append({"g": "T", "w": 0})
    with pytest.raises(ValueError, match="unknown gate kind"):
        circuit_from_json_dict(doc)
