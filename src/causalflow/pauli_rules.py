"""Pauli-measurement special cases.

Two relaxations apply when measurement angles hit the Pauli axes exactly:

* a qubit measured at a right angle (pi/2) may act as its own corrector
  (a "loop"), with the correction realized on its neighbors through the
  qubit's graph stabilizer; the resulting pattern is deterministic only at
  that angle, so it is never uniformly deterministic;
* an X correction sent into a qubit measured at angle zero has no effect
  on the measurement statistics and can be dropped.

Angle exactness: the special cases trigger only when an angle equals 0 or
pi/2 to within 1e-12; near-Pauli angles are treated as generic.

All functions here are pure over immutable inputs.
"""

from __future__ import annotations

import math
from typing import AbstractSet, Mapping

from .flow_finder import FlowSearchResult, _find_flow
from .graph_model import Flow, OpenGraphState
from .pattern import CorrectX, Pattern, PatternError, normalize_angle, synthesize
from .simulator import DeterminismVerdict, classify_determinism

_ANGLE_EPS = 1e-12
RIGHT_ANGLE = math.pi / 2.0


def _is_exact(angle: float, target: float) -> bool:
    d = abs(normalize_angle(angle) - normalize_angle(target))
    return min(d, 2.0 * math.pi - d) < _ANGLE_EPS


def find_flow_with_loops(
    g: OpenGraphState, y_qubits: AbstractSet[int]
) -> FlowSearchResult:
    """Flow search where the given qubits may be their own correctors.

    ``y_qubits`` must be measured qubits intended for right-angle
    measurement.  A loop vertex waives the edge and strictly-later
    conditions on itself but still requires every neighbor strictly later.
    Loop-free flows are preferred when both exist, preserving uniform
    determinism.

    Raises
    ------
    PatternError
        If ``y_qubits`` contains a non-measured vertex.
    GraphFormatError
        If ``g`` fails :func:`causalflow.graph_model.validate_graph`.
    """
    stray = sorted(set(y_qubits) - set(g.measured))
    if stray:
        raise PatternError(f"y-measured qubits {stray} are not measured vertices")
    return _find_flow(g, frozenset(y_qubits))


def drop_x_corrections(
    p: Pattern, meas_angles: Mapping[int, float] | None = None
) -> Pattern:
    """Remove X corrections aimed at qubits measured at angle exactly zero.

    Such a correction commutes into the measurement without changing any
    outcome statistics, each branch map moving at most by a sign, so the
    realized channel is untouched.  Corrections into outputs and
    phase-conjugated corrections are kept.

    ``meas_angles`` overrides the angles recorded in the pattern, for
    callers that carry them separately.
    """
    angles = dict(p.measure_angles())
    if meas_angles is not None:
        angles.update(meas_angles)
    droppable = {
        q for q, a in angles.items() if q in set(p.measurement_order) and _is_exact(a, 0.0)
    }
    kept = tuple(
        c
        for c in p.commands
        if not (isinstance(c, CorrectX) and c.qubit in droppable)
    )
    return Pattern(p.vertices, p.inputs, p.outputs, kept)


def classify_loop_pattern(
    g: OpenGraphState,
    loop_flow: Flow,
    angles: Mapping[int, float],
    angle_samples: int = 20,
    seed: int = 0,
) -> DeterminismVerdict:
    """Synthesize from a loop flow and classify the result.

    With every loop qubit at exactly pi/2 the pattern is strongly
    deterministic; any loop qubit at a generic angle breaks determinism
    and a witness is produced.  Either way ``uniform`` comes out false for
    patterns with loops, since random angles land off the right angle.
    """
    pattern = synthesize(g, loop_flow, angles)
    return classify_determinism(pattern, angle_samples=angle_samples, seed=seed)


def loop_qubits_at_right_angle(
    fl: Flow, angles: Mapping[int, float]
) -> bool:
    """True when every loop vertex is measured at exactly pi/2."""
    return all(_is_exact(angles.get(i, 0.0), RIGHT_ANGLE) for i in fl.loops)
