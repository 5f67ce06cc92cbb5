"""Shared builders for the test suite."""

from __future__ import annotations

import itertools
import random

import numpy as np

from causalflow import OpenGraphState

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def path_state(n: int, inputs, outputs) -> OpenGraphState:
    """Path graph 1-2-...-n with the given input/output sets."""
    return OpenGraphState(
        range(1, n + 1), [(k, k + 1) for k in range(1, n)], inputs, outputs
    )


def hadamard_geometry() -> OpenGraphState:
    return path_state(2, [1], [2])


def no_flow_geometry() -> OpenGraphState:
    """Two inputs forced onto the same corrector: no matching order exists."""
    return OpenGraphState([1, 2, 3, 4], [(1, 3), (2, 3), (3, 4)], [1, 2], [3, 4])


def loop_geometry() -> OpenGraphState:
    """Path with both endpoints as inputs and outputs; the middle qubit has
    no prepared neighbor, so only a loop corrector rescues it."""
    return path_state(3, [1, 3], [1, 3])


def cluster_grid(rows: int, cols: int, labels=None) -> OpenGraphState:
    """``rows x cols`` cluster grid with inputs in the first column and
    outputs in the last; vertex ids run row-major from 1, or are taken in
    that order from ``labels``."""
    labels = list(labels or range(1, rows * cols + 1))
    vid = {(r, c): labels[cols * r + c] for r in range(rows) for c in range(cols)}
    edges = [(vid[r, c], vid[r, c + 1]) for r in range(rows) for c in range(cols - 1)]
    edges += [(vid[r, c], vid[r + 1, c]) for r in range(rows - 1) for c in range(cols)]
    return OpenGraphState(
        vid.values(),
        edges,
        [vid[r, 0] for r in range(rows)],
        [vid[r, cols - 1] for r in range(rows)],
    )


def random_open_graph(rng: random.Random, max_vertices: int = 6) -> OpenGraphState:
    n = rng.randint(1, max_vertices)
    vs = list(range(1, n + 1))
    edges = [e for e in itertools.combinations(vs, 2) if rng.random() < 0.5]
    inputs = [v for v in vs if rng.random() < 0.4]
    outputs = [v for v in vs if rng.random() < 0.5]
    return OpenGraphState(vs, edges, inputs, outputs)


def random_angles(rng: np.random.Generator, qubits) -> dict[int, float]:
    return {q: float(rng.uniform(0.0, 2.0 * np.pi)) for q in qubits}
