"""Determinism verdicts and the classifier's front, which imports only
:mod:`causalflow.pattern`: :func:`classify_determinism` loads the simulator,
and numpy with it, only for a pattern the Pauli-frame certificate declines.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING

from .graph_model import _Frozen
from .pattern import DEFAULT_TOLERANCE, Pattern, PatternError, certify_strong

if TYPE_CHECKING:
    import numpy as np


class Classification(str, Enum):
    """Determinism classes, weakest first; strong implies plain determinism."""

    NOT_DETERMINISTIC = "not-deterministic"
    DETERMINISTIC = "deterministic"
    STRONGLY_DETERMINISTIC = "strongly-deterministic"

    @property
    def is_deterministic(self) -> bool:
        return self is not Classification.NOT_DETERMINISTIC


class Witness(_Frozen):
    """A branch pair and an input state on which their images are not parallel.
    Witnesses compare by identity."""

    branch_a: str
    branch_b: str
    input_state: np.ndarray
    deviation: float

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self, branch_a: str, branch_b: str, input_state: np.ndarray, deviation: float
    ) -> None:
        d = self.__dict__
        d["branch_a"] = branch_a
        d["branch_b"] = branch_b
        d["input_state"] = input_state
        d["deviation"] = deviation

    def to_json_dict(self) -> dict:
        return {
            "branch_a": self.branch_a,
            "branch_b": self.branch_b,
            "input_state": [[float(z.real), float(z.imag)] for z in self.input_state],
            "deviation": float(self.deviation),
        }


class DeterminismVerdict(_Frozen):
    """Classification of a pattern's branch maps.

    ``uniform`` records whether the sampled random measurement-angle
    vectors (same geometry and corrections) all stayed deterministic, or,
    for a pattern that :func:`certify_strong` certifies, that every angle
    vector is strong; the sample count and seed are kept so verdicts are
    reproducible.  Verdicts compare by identity.
    """

    classification: Classification
    uniform: bool
    witness: Witness | None
    angle_samples: int
    seed: int
    tolerance: float

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        classification: Classification,
        uniform: bool,
        witness: Witness | None = None,
        angle_samples: int = 0,
        seed: int = 0,
        tolerance: float = DEFAULT_TOLERANCE,
    ) -> None:
        d = self.__dict__
        d["classification"] = classification
        d["uniform"] = uniform
        d["witness"] = witness
        d["angle_samples"] = angle_samples
        d["seed"] = seed
        d["tolerance"] = tolerance

    @property
    def is_deterministic(self) -> bool:
        return self.classification.is_deterministic

    @property
    def is_strong(self) -> bool:
        return self.classification is Classification.STRONGLY_DETERMINISTIC

    def to_json_dict(self) -> dict:
        return {
            "classification": self.classification.value,
            "uniform": self.uniform,
            "witness": None if self.witness is None else self.witness.to_json_dict(),
            "angle_samples": self.angle_samples,
            "seed": self.seed,
            "tolerance": self.tolerance,
        }


def _check_tolerance(tolerance: float) -> None:
    """Every comparison with a nan tolerance is false, and a tolerance <= 0
    fails exact equality, so both would give a wrong verdict."""
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance}")


def _check_count(name: str, value: int) -> int:
    """``value`` as an int; TypeError unless it is an integer, ValueError if
    it is negative."""
    if not hasattr(value, "__index__"):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return int(value)


def _runnable_or_raise(p: Pattern) -> int:
    """Measurement count of ``p``, once its walk has found it runnable."""
    if p._walk.violations:
        raise PatternError("pattern is not runnable: " + "; ".join(p._walk.violations))
    return p.n_measurements


def classify_determinism(
    p: Pattern, angle_samples: int = 20, seed: int = 0, tolerance: float = DEFAULT_TOLERANCE
) -> DeterminismVerdict:
    """Classify the branch maps of a pattern.

    Strongly deterministic means all branch maps are equal; deterministic
    means every pair acts identically up to a scalar on each input (zero
    maps count as proportional to everything); on the dense route, within
    ``tolerance`` times the maps' largest modulus.  ``uniform`` is decided
    by re-classifying at ``angle_samples`` uniformly random angle vectors.

    The routes, in order.  After the arguments and the runnability check,
    a pattern with no measurement is strong and uniform.  Then the
    Pauli-frame certificate (:func:`certify_strong`): a pattern it certifies
    has every branch map equal at every angle, so it is strongly
    deterministic and uniform, exactly and at any ``tolerance``, with no
    angle drawn, no pass run, no byte budget to meet and no numpy loaded.
    The certificate never proves the contrary, so every pattern it declines
    takes the simulator's dense route (``simulator._classify_dense``), one
    pass per angle vector, which is also its oracle in the tests.

    Raises
    ------
    TypeError
        If ``angle_samples`` or ``seed`` is not an integer.
    ValueError
        If ``tolerance`` is not finite and positive, or ``angle_samples``
        or ``seed`` is negative.
    SimulationError
        If the certificate declines the pattern and its pass, at one angle
        vector, exceeds the dense tensor bound, whatever the number of
        measurements.
    """
    _check_tolerance(tolerance)
    angle_samples = _check_count("angle_samples", angle_samples)
    seed = _check_count("seed", seed)
    n = _runnable_or_raise(p)
    if n == 0 or certify_strong(p):
        # one branch and no angle to vary, or branch maps that the Pauli-frame
        # certificate proves equal at every angle: no angles drawn, no pass
        return DeterminismVerdict(
            Classification.STRONGLY_DETERMINISTIC, True, None, angle_samples, seed, tolerance
        )
    from .simulator import _classify_dense

    return _classify_dense(p, angle_samples, seed, tolerance)
