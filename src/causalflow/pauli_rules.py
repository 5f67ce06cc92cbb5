"""Pauli-measurement special cases.

Two relaxations apply when measurement angles hit the Pauli axes exactly:

* a qubit measured at a right angle (pi/2) may act as its own corrector
  (a "loop"), with the correction realized on its neighbors through the
  qubit's graph stabilizer; the resulting pattern is deterministic only at
  that angle, so it is never uniformly deterministic.  Loop flows come from
  :func:`causalflow.flow_finder.find_flow` with ``loop_candidates``;
* an X correction sent into a qubit measured at angle zero has no effect
  on the measurement statistics and can be dropped.

Angle exactness: X corrections are dropped only when the angle equals 0
to within 1e-12 (the rule of :mod:`causalflow.pattern`); near-Pauli angles
are treated as generic.

All functions here are pure over immutable inputs.
"""

from __future__ import annotations

from typing import Mapping

from .graph_model import Flow, OpenGraphState
from .pattern import CorrectX, Pattern, _is_zero_angle, synthesize
from .simulator import DeterminismVerdict, classify_determinism


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
    measured = set(p.measurement_order)
    droppable = {q for q, a in angles.items() if q in measured and _is_zero_angle(a)}
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

