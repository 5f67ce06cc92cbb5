"""Exact branch simulation of measurement patterns.

The engine is a dense complex state tensor over the currently live qubits.
Two routes are provided on purpose: :func:`run_branch` evaluates a single
outcome string column by column with 2x2 gate matrices (the simple
reference), while :func:`enumerate_branches` runs one tensor pass in which
measured qubits are rotated into their measurement basis and kept as
branch indices, so every branch map falls out of a single contraction.
The two agree to rounding and are cross-checked in the test suite.

The tensor pass applies no matrices.  A pattern only ever needs X, Z, the
phase-conjugated X, diagonal phases, the Hadamard and equatorial
measurement bras, and each of these is an in-place operation on the
0-half and the 1-half of one axis: multiply the 1-half by a phase, swap
the halves, or the butterfly (a + b, a - b)/sqrt(2).  A dependent
correction is the same operation restricted to the slice where its
signal's branch bit is 1.  The pass, with its scratch and the classifier's
temporaries, must fit a byte budget checked before it allocates; the
classifier splits its angle samples into batches that fit.

The same engine gives a geometry's :func:`realized_embedding` and the map
of an extracted circuit (:func:`simulate_circuit`).

Branch evaluations are pure and order-independent; verdicts do not depend
on enumeration order.

This is the package's only module that imports numpy; the package loads it
on the first use of one of its names.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping, Sequence

import numpy as np

from .circuit_extract import Circuit, CZGate, PhaseGate
from .graph_model import OpenGraphState, validate_graph
from .pattern import (
    DEFAULT_MAX_MEASUREMENTS,
    DEFAULT_TOLERANCE,
    EXACT_TOLERANCE,
    CorrectX,
    CorrectXPhase,
    CorrectZ,
    Entangle,
    Measure,
    Pattern,
    PatternError,
    Prepare,
    SimulationError,
    _check_angles,
    check_runnable,
)

_SQRT2_INV = 1.0 / math.sqrt(2.0)
# Each butterfly grows the engine's entries by up to sqrt(2) and shrinks its
# deferred scale by as much; at this scale the two are multiplied together.
_MIN_SCALE = 2.0**-500

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
CZ_MATRIX = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def x_phase_gate(alpha: float) -> np.ndarray:
    """Phase-conjugated X: Z(alpha) X Z(-alpha)."""
    return np.array(
        [[0.0, np.exp(-1j * alpha)], [np.exp(1j * alpha), 0.0]], dtype=complex
    )


def plus_ket(alpha: float = 0.0) -> np.ndarray:
    """(|0> + e^{i alpha}|1>)/sqrt(2) as a column of amplitudes."""
    return np.array([1.0, np.exp(1j * alpha)], dtype=complex) * _SQRT2_INV


def measurement_bras(alpha: float) -> np.ndarray:
    """Rows are the outcome-0 and outcome-1 bras of an equatorial measurement."""
    e = np.exp(-1j * alpha)
    return np.array([[1.0, e], [1.0, -e]], dtype=complex) * _SQRT2_INV


class Classification(str, Enum):
    """Determinism classes; strong implies plain determinism."""

    NOT_DETERMINISTIC = "not-deterministic"
    DETERMINISTIC = "deterministic"
    STRONGLY_DETERMINISTIC = "strongly-deterministic"

    @property
    def rank(self) -> int:
        return {
            Classification.NOT_DETERMINISTIC: 0,
            Classification.DETERMINISTIC: 1,
            Classification.STRONGLY_DETERMINISTIC: 2,
        }[self]

    @property
    def is_deterministic(self) -> bool:
        return self.rank >= 1


@dataclass(frozen=True, eq=False)
class Witness:
    """A branch pair and an input state on which their images are not parallel."""

    branch_a: str
    branch_b: str
    input_state: np.ndarray
    deviation: float

    def to_json_dict(self) -> dict:
        return {
            "branch_a": self.branch_a,
            "branch_b": self.branch_b,
            "input_state": [[float(z.real), float(z.imag)] for z in self.input_state],
            "deviation": float(self.deviation),
        }


@dataclass(frozen=True, eq=False)
class BranchReport:
    """One branch: its outcome string, linear map, and optional probability.

    ``outcomes`` orders bits by measurement occurrence (first measurement
    is the leftmost character).  ``branch_map`` maps the input space to the
    output space with bases ordered by the sorted input/output vertex
    lists.  ``probability`` is filled when an input state was supplied.
    """

    outcomes: str
    branch_map: np.ndarray
    probability: float | None = None


@dataclass(frozen=True, eq=False)
class DeterminismVerdict:
    """Classification of a pattern's branch maps.

    ``uniform`` records whether the sampled random measurement-angle
    vectors (same geometry and corrections) all stayed deterministic; the
    sample count and seed are kept so verdicts are reproducible.
    """

    classification: Classification
    uniform: bool
    witness: Witness | None = None
    angle_samples: int = 0
    seed: int = 0
    tolerance: float = DEFAULT_TOLERANCE

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


def _runnable_or_raise(p: Pattern, max_measurements: int | None = None) -> int:
    """Measurement count of ``p``, once it is known to be runnable and,
    when ``max_measurements`` is given, within that branch bound."""
    check = check_runnable(p)
    if not check.ok:
        raise PatternError(
            "pattern is not runnable: " + "; ".join(check.violations)
        )
    n = p.n_measurements
    if max_measurements is not None and n > max_measurements:
        raise SimulationError(
            f"{n} measurements exceed the branch bound {max_measurements}"
        )
    return n


def _input_index_bits(index: int, n: int) -> list[int]:
    return [(index >> (n - 1 - k)) & 1 for k in range(n)]


def run_branch(p: Pattern, outcomes: str) -> np.ndarray:
    """Branch map for one outcome string, computed column by column.

    Each computational basis state of the input space is pushed through
    the command list: preparations tensor in their phase states, entangle
    commands apply controlled-Z, measurements contract with the outcome
    bra (removing the qubit), and corrections fire when the XOR of their
    signals is 1.  The resulting columns form the branch map.

    Raises
    ------
    PatternError
        If the pattern is not runnable or the outcome string length does
        not match the number of measurements.
    """
    _runnable_or_raise(p)
    order = p.measurement_order
    if len(outcomes) != len(order) or any(c not in "01" for c in outcomes):
        raise PatternError(
            f"outcome string {outcomes!r} does not match {len(order)} measurements"
        )
    outcome_of = {q: int(bit) for q, bit in zip(order, outcomes)}
    n_in = len(p.inputs)
    n_out = len(p.outputs)
    result = np.zeros((1 << n_out, 1 << n_in), dtype=complex)
    basis = (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex))

    for col in range(1 << n_in):
        tensor = np.array(1.0, dtype=complex)
        axis_of: dict[int, int] = {}
        for q, bit in zip(p.inputs, _input_index_bits(col, n_in)):
            axis_of[q] = tensor.ndim
            tensor = np.multiply.outer(tensor, basis[bit])

        def apply_1q(gate: np.ndarray, q: int) -> None:
            nonlocal tensor
            ax = axis_of[q]
            moved = np.moveaxis(tensor, ax, -1)
            tensor = np.moveaxis(moved @ gate.T, -1, ax)

        def signal_fires(signals: frozenset[int]) -> bool:
            return sum(outcome_of[s] for s in signals) % 2 == 1

        for cmd in p.commands:
            if isinstance(cmd, Prepare):
                axis_of[cmd.qubit] = tensor.ndim
                tensor = np.multiply.outer(tensor, plus_ket(cmd.angle))
            elif isinstance(cmd, Entangle):
                idx: list = [slice(None)] * tensor.ndim
                idx[axis_of[cmd.a]] = 1
                idx[axis_of[cmd.b]] = 1
                tensor = tensor.copy()
                tensor[tuple(idx)] *= -1.0
            elif isinstance(cmd, Measure):
                bra = measurement_bras(cmd.angle)[outcome_of[cmd.qubit]]
                ax = axis_of.pop(cmd.qubit)
                tensor = np.tensordot(tensor, bra, axes=([ax], [0]))
                for q in axis_of:
                    if axis_of[q] > ax:
                        axis_of[q] -= 1
            elif isinstance(cmd, CorrectX):
                if signal_fires(cmd.signals):
                    apply_1q(PAULI_X, cmd.qubit)
            elif isinstance(cmd, CorrectZ):
                if signal_fires(cmd.signals):
                    apply_1q(PAULI_Z, cmd.qubit)
            elif isinstance(cmd, CorrectXPhase):
                if signal_fires(cmd.signals):
                    apply_1q(x_phase_gate(cmd.angle), cmd.qubit)

        if set(axis_of) != set(p.outputs):
            raise SimulationError(
                f"live qubits {sorted(axis_of)} differ from outputs"
            )
        perm = [axis_of[q] for q in p.outputs]
        result[:, col] = np.transpose(tensor, perm).reshape(-1)
    return result


class _TensorEngine:
    """Batched all-branches tensor engine: the one kernel under
    :func:`enumerate_branches`, :func:`classify_determinism`,
    :func:`realized_embedding` and the circuit simulator.

    Axis 0 is the batch (one entry per measurement-angle vector); every
    pattern qubit owns one further axis.  A measurement rotates its qubit
    into the measurement basis and keeps the axis as a branch index, so
    dependent corrections become controlled gates on that index.  One
    domain axis per input qubit carries the matrix structure.

    Every gate is an in-place operation on the 0-half and the 1-half of one
    qubit's axis, restricted, when a control qubit is given, to the slice
    where the control's axis (a branch bit, or a live qubit for
    controlled-Z) reads 1:

    * :meth:`phase` multiplies the 1-half by a factor: Z, CZ and P(theta);
    * :meth:`flip` swaps the halves: X, and between two phases the
      phase-conjugated X;
    * :meth:`butterfly` maps the halves (a, b) to (a + f b, a - f b)/sqrt(2)
      with one factor f per batch entry: the Hadamard (f = 1) and the
      equatorial measurement at angle alpha (f = e^{-i alpha}).

    No general 2x2 matrix is applied.  Scratch is one copy of a half-axis
    slice, at most half the tensor.  The butterflies' 1/sqrt(2) factors
    collect in :attr:`scale` and are applied when :meth:`maps` reads the
    result, or earlier, once ``scale`` falls below :data:`_MIN_SCALE`, so
    that a long gate sequence keeps entries and ``scale`` normal floats.
    """

    def __init__(self, inputs: Sequence[int], batch: int) -> None:
        n_in = len(inputs)
        if batch < 1:
            raise ValueError("batch must be positive")
        eye = np.eye(1 << n_in, dtype=complex)[np.newaxis]
        self.t = eye.repeat(batch, axis=0).reshape((batch,) + (2,) * (2 * n_in))
        self.batch = batch
        self.axis_of = {q: 1 + k for k, q in enumerate(inputs)}
        self.domain_axes = list(range(1 + n_in, 1 + 2 * n_in))
        self.branch_order: list[int] = []
        self.scale = 1.0

    def add_qubit(self, q: int, state: np.ndarray) -> None:
        self.axis_of[q] = self.t.ndim
        self.t = np.multiply.outer(self.t, state)

    def _half(self, q: int, bit: int, control: int | None = None) -> np.ndarray:
        idx: list = [slice(None)] * self.t.ndim
        idx[self.axis_of[q]] = bit
        if control is not None:
            idx[self.axis_of[control]] = 1
        return self.t[tuple(idx)]

    def phase(self, q: int, factor: complex, control: int | None = None) -> None:
        """Multiply the 1-half of ``q`` by ``factor``."""
        one = self._half(q, 1, control)
        one *= factor

    def flip(self, q: int, control: int | None = None) -> None:
        """Swap the 0-half and the 1-half of ``q``."""
        zero = self._half(q, 0, control)
        one = self._half(q, 1, control)
        scratch = zero.copy()
        zero[...] = one
        one[...] = scratch

    def butterfly(self, q: int, factors: np.ndarray | None = None) -> None:
        """Map the halves (a, b) of ``q`` to (a + f b, a - f b)/sqrt(2), with
        one factor f per batch entry (1 when omitted): :meth:`phase` by f
        followed by the Hadamard, in one pass."""
        zero = self._half(q, 0)
        one = self._half(q, 1)
        if factors is None:
            scratch = one.copy()
        else:
            scratch = one * factors.reshape((-1,) + (1,) * (one.ndim - 1))
        np.subtract(zero, scratch, out=one)
        zero += scratch
        self._shrink_scale()

    def _shrink_scale(self) -> None:
        """Account for one factor 1/sqrt(2), folding :attr:`scale` into the
        tensor before it leaves the range of normal floats."""
        self.scale *= _SQRT2_INV
        if self.scale < _MIN_SCALE:
            self.t *= self.scale
            self.scale = 1.0

    def apply_cz(self, a: int, b: int) -> None:
        self.phase(b, -1.0, control=a)

    def measure_keep_branch(self, q: int, alphas: Sequence[float]) -> None:
        """Rotate ``q`` into the basis of the equatorial measurement at
        ``alphas`` (one angle per batch entry); its axis becomes a branch index."""
        self.butterfly(q, np.exp(-1j * np.asarray(alphas)))
        self.branch_order.append(q)

    def contract_bra(self, q: int, alpha: float) -> None:
        """Project ``q`` onto the outcome-0 bra of the measurement at ``alpha``."""
        self.phase(q, cmath.exp(-1j * alpha))
        self.t = np.add(self._half(q, 0), self._half(q, 1))
        self._shrink_scale()
        ax = self.axis_of.pop(q)
        for key in self.axis_of:
            if self.axis_of[key] > ax:
                self.axis_of[key] -= 1
        self.domain_axes = [a - 1 if a > ax else a for a in self.domain_axes]

    def maps(self, b: int, outputs: Sequence[int]) -> np.ndarray:
        """Branch maps of batch entry ``b`` as (branches, output space, input
        space), a new array of one batch entry's size."""
        live = self.axis_of.keys() - set(self.branch_order)
        if live != set(outputs):
            raise SimulationError(f"live qubits {sorted(live)} differ from outputs")
        perm = [self.axis_of[q] - 1 for q in self.branch_order]
        perm += [self.axis_of[q] - 1 for q in outputs]
        perm += [a - 1 for a in self.domain_axes]
        shape = (
            1 << len(self.branch_order),
            1 << len(outputs),
            1 << len(self.domain_axes),
        )
        entry = self.t[b].transpose(perm)
        out = np.empty(entry.shape, dtype=complex)
        np.multiply(entry, self.scale, out=out)
        return out.reshape(shape)


# Bytes one dense pass may hold at once, checked before it allocates: every
# tensor of up to 23 qubit and input axes fits at batch 1 (see _max_batch).
_MAX_DENSE_BYTES = 512 * 2**20


def _max_batch(n_qubits: int, n_inputs: int) -> int:
    """Largest batch whose dense pass fits :data:`_MAX_DENSE_BYTES`; 0 if none.

    A batch entry is a complex tensor over every qubit and input axis, of
    ``sample`` bytes.  A pass holds the ``batch`` entries plus the larger of
    the kernel's scratch (half the tensor) and three entries' worth of
    classifier temporaries (one entry's branch maps laid out as matrices,
    and the differences or products its reductions form).
    """
    sample = np.dtype(complex).itemsize << (n_qubits + n_inputs)
    return max(
        0, min(2 * _MAX_DENSE_BYTES // (3 * sample), _MAX_DENSE_BYTES // sample - 3)
    )


def _check_dense_bytes(batch: int, n_qubits: int, n_inputs: int) -> None:
    """Raise, before allocating, for a dense pass over the byte budget."""
    if batch > _max_batch(n_qubits, n_inputs):
        raise SimulationError(
            f"{n_qubits} qubits with {n_inputs} inputs at batch {batch} exceed "
            f"the dense tensor bound of {_MAX_DENSE_BYTES} bytes"
        )


def _run_branches(
    p: Pattern, angle_sets: Sequence[Mapping[int, float]]
) -> _TensorEngine:
    """One dense pass over every branch, for each measurement-angle set."""
    _check_dense_bytes(len(angle_sets), len(p.vertices), len(p.inputs))
    eng = _TensorEngine(p.inputs, len(angle_sets))
    for cmd in p.commands:
        if isinstance(cmd, Prepare):
            eng.add_qubit(cmd.qubit, plus_ket(cmd.angle))
        elif isinstance(cmd, Entangle):
            eng.apply_cz(cmd.a, cmd.b)
        elif isinstance(cmd, Measure):
            eng.measure_keep_branch(
                cmd.qubit, [aset.get(cmd.qubit, cmd.angle) for aset in angle_sets]
            )
        elif isinstance(cmd, CorrectX):
            for s in cmd.signals:
                eng.flip(cmd.qubit, control=s)
        elif isinstance(cmd, CorrectZ):
            for s in cmd.signals:
                eng.phase(cmd.qubit, -1.0, control=s)
        elif isinstance(cmd, CorrectXPhase):
            e = cmath.exp(1j * cmd.angle)
            for s in cmd.signals:
                eng.phase(cmd.qubit, e.conjugate(), control=s)
                eng.flip(cmd.qubit, control=s)
                eng.phase(cmd.qubit, e, control=s)
    return eng


def _check_trace_preserving(maps: np.ndarray, tolerance: float) -> float:
    """Max deviation of sum_s A_s^dag A_s from the identity."""
    total = np.einsum("sij,sik->jk", maps.conj(), maps)
    dev = float(np.max(np.abs(total - np.eye(total.shape[0]))))
    if dev > tolerance:
        raise SimulationError(
            f"branch maps violate trace preservation (deviation {dev:.3e})"
        )
    return dev


def enumerate_branches(
    p: Pattern,
    input_state: np.ndarray | None = None,
    max_measurements: int = DEFAULT_MAX_MEASUREMENTS,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[BranchReport]:
    """All 2^n branch maps of a runnable pattern.

    Verifies trace preservation of the family before returning.  When
    ``input_state`` (a normalized vector over the input space) is given,
    each report also carries that branch's probability.

    Raises
    ------
    ValueError
        If ``tolerance`` is not finite and positive.
    SimulationError
        If the measurement count exceeds ``max_measurements``, the pattern
        exceeds the dense tensor bound, or the branch family fails the
        trace-preservation check.
    """
    _check_tolerance(tolerance)
    n = _runnable_or_raise(p, max_measurements)
    maps = _run_branches(p, [p.measure_angles()]).maps(0, p.outputs)
    _check_trace_preserving(maps, tolerance)
    if input_state is not None:
        input_state = np.asarray(input_state, dtype=complex)
        if input_state.shape != (maps.shape[2],):
            raise ValueError(
                f"input state must be a vector of length {maps.shape[2]}"
            )
    reports = []
    for s in range(1 << n):
        outcomes = _outcome_label(s, 1 << n)
        probability = None
        if input_state is not None:
            probability = float(np.linalg.norm(maps[s] @ input_state) ** 2)
        reports.append(BranchReport(outcomes, maps[s], probability))
    return reports


def _vectors_parallel(
    u: np.ndarray, v: np.ndarray, tolerance: float, scale: float
) -> float:
    """0.0 when parallel (or either negligible); else the relative defect."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu <= tolerance * scale or nv <= tolerance * scale:
        return 0.0
    return (nu * nv - abs(np.vdot(u, v))) / (nu * nv)


def _pair_witness(
    a: np.ndarray, b: np.ndarray, tolerance: float, scale: float
) -> tuple[float, np.ndarray] | None:
    """Probe input states; return (defect, probe) for the worst failure,
    the first probe of largest defect up to rounding.

    Probing the basis states plus their pairwise real and imaginary
    combinations decides proportionality of the action on every input, the
    sense in which branch maps must agree for a deterministic pattern.
    Rank-one maps with a common range pass even though they may differ as
    matrices.
    """
    dim_in = a.shape[1]
    probes: list[np.ndarray] = [np.eye(dim_in, dtype=complex)[:, k] for k in range(dim_in)]
    for k in range(dim_in):
        for l in range(k + 1, dim_in):
            e_kl = np.zeros(dim_in, dtype=complex)
            e_kl[k] = 1.0
            e_kl[l] = 1.0
            probes.append(e_kl)
            e_kli = e_kl.copy()
            e_kli[l] = 1.0j
            probes.append(e_kli)
    defects = np.array(
        [_vectors_parallel(a @ probe, b @ probe, tolerance, scale) for probe in probes]
    )
    k = _first_near_max(defects)
    if defects[k] <= tolerance:
        return None
    return float(defects[k]), probes[k] / np.linalg.norm(probes[k])


def _first_near_max(values: np.ndarray) -> int:
    """Index of the first of ``values`` (non-negative) within a relative
    1e-12 of the largest.  Values equal in exact arithmetic, as branch norms
    and probe defects often are, then give the same index whichever
    rounding the arithmetic that produced them took."""
    top = values[values.argmax()]
    return int((values >= top * (1.0 - 1e-12)).argmax())


def _outcome_label(branch: int, n_branches: int) -> str:
    """Outcome string of a branch index, first measurement leftmost."""
    n = n_branches.bit_length() - 1
    return format(branch, f"0{n}b") if n else ""


def _classify_maps(
    maps: np.ndarray, tolerance: float
) -> tuple[Classification, Witness | None]:
    n_branches = maps.shape[0]
    if n_branches <= 1:
        return Classification.STRONGLY_DETERMINISTIC, None
    flat = maps.reshape(n_branches, -1)
    norms = np.linalg.norm(flat, axis=1)
    ref = _first_near_max(norms)

    strong_dev = float(np.abs(maps - maps[ref]).max())
    if strong_dev < tolerance:
        return Classification.STRONGLY_DETERMINISTIC, None

    scale = float(np.abs(maps).max()) or 1.0
    for s in range(n_branches):
        if s == ref or norms[s] <= tolerance * scale:
            continue
        hs_defect = (norms[ref] * norms[s] - abs(np.vdot(flat[ref], flat[s]))) / (
            norms[ref] * norms[s]
        )
        if hs_defect <= tolerance:
            continue
        failure = _pair_witness(maps[ref], maps[s], tolerance, scale)
        if failure is not None:
            defect, probe = failure
            return Classification.NOT_DETERMINISTIC, Witness(
                _outcome_label(ref, n_branches),
                _outcome_label(s, n_branches),
                probe,
                defect,
            )
    return Classification.DETERMINISTIC, None


def classify_determinism(
    p: Pattern,
    angle_samples: int = 20,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
    max_measurements: int = DEFAULT_MAX_MEASUREMENTS,
) -> DeterminismVerdict:
    """Classify the branch maps of a pattern.

    Strongly deterministic means all branch maps are equal; deterministic
    means every pair acts identically up to a scalar on each input (zero
    maps count as proportional to everything).  ``uniform`` is decided by
    re-running the classification on ``angle_samples`` fresh uniformly
    random measurement-angle vectors over the same geometry and
    corrections, evaluated in batched passes as large as the dense byte
    budget allows; it stops at the first sample that is not deterministic.

    Raises
    ------
    ValueError
        If ``tolerance`` is not finite and positive, or ``angle_samples``
        is negative.
    SimulationError
        If the measurement count exceeds ``max_measurements`` or one batch
        entry alone exceeds the dense tensor bound.
    """
    _check_tolerance(tolerance)
    if angle_samples < 0:
        raise ValueError(f"angle_samples must be >= 0, got {angle_samples}")
    _runnable_or_raise(p, max_measurements)
    _check_dense_bytes(1, len(p.vertices), len(p.inputs))
    base_angles = p.measure_angles()
    rng = np.random.default_rng(seed)
    angle_sets: list[Mapping[int, float]] = [base_angles]
    for _ in range(angle_samples):
        angle_sets.append(
            {q: float(rng.uniform(0.0, 2.0 * math.pi)) for q in base_angles}
        )
    chunk = _max_batch(len(p.vertices), len(p.inputs))

    def sample_verdicts() -> Iterator[tuple[Classification, Witness | None]]:
        for start in range(0, len(angle_sets), chunk):
            eng = _run_branches(p, angle_sets[start : start + chunk])
            for b in range(eng.batch):
                yield _classify_maps(eng.maps(b, p.outputs), tolerance)

    verdicts = sample_verdicts()
    classification, witness = next(verdicts)
    uniform = classification.is_deterministic and all(
        c.is_deterministic for c, _ in verdicts
    )
    return DeterminismVerdict(
        classification, uniform, witness, angle_samples, seed, tolerance
    )


def rescale_branch_map(report_or_map, n_measurements: int) -> np.ndarray:
    """Scale a branch map by 2^{n/2}.

    For a strongly deterministic pattern this turns any branch map into
    the realized isometry; raw branch maps are reported unscaled because
    the factor is meaningless without strong determinism.
    """
    m = report_or_map.branch_map if isinstance(report_or_map, BranchReport) else report_or_map
    return m * (2.0 ** (n_measurements / 2.0))


def _bfs_rank(g: OpenGraphState) -> dict[int, int]:
    """Rank of each vertex by its BFS distance from the inputs, ties broken
    by label; each component without an input follows, searched from its
    least label."""
    rank: dict[int, int] = {}
    for seeds in [g.inputs, *((q,) for q in g.vertices)]:
        layer = [q for q in seeds if q not in rank]
        while layer:
            rank.update((q, len(rank) + k) for k, q in enumerate(layer))
            layer = sorted({n for q in layer for n in g._adjacency[q]} - rank.keys())
    return rank


def realized_embedding(
    g: OpenGraphState,
    meas_angles: Mapping[int, float],
    prep_angles: Mapping[int, float] | None = None,
) -> np.ndarray:
    """Correction-free projection map of a geometry, rescaled by 2^{n/2}.

    Prepares every non-input qubit, applies all entanglers, and projects
    each measured qubit onto its outcome-0 bra.  On geometries with flow
    this equals every rescaled branch map of the synthesized pattern and
    is an isometry.  Preparation angles default to 0.  Raises PatternError
    on a missing or non-finite angle, SimulationError over the tensor bound.
    Entanglers run in the order of :func:`_bfs_rank`, by the later endpoint
    first, so the qubits in flight do not depend on the vertex labels; each
    qubit is prepared just before its first entangler and projected, if
    measured, right after its last one.  The byte budget is checked on the
    most qubits in flight, before allocating.
    """
    check = validate_graph(g)
    if not check.ok:
        raise PatternError("invalid graph: " + "; ".join(check.violations))
    _check_angles("measurement", g.measured, meas_angles)
    preps = {q: 0.0 for q in g.prepared} | dict(prep_angles or {})
    _check_angles("preparation", g.prepared, preps)
    measured = set(g.measured)
    rank = _bfs_rank(g)
    # one step per qubit in no entangler, then one per entangler
    steps = [(q,) for q in g.vertices if not g._adjacency[q]] + sorted(
        g.edges, key=lambda e: sorted((rank[e[0]], rank[e[1]]), reverse=True)
    )
    last_step = {q: k for k, step in enumerate(steps) for q in step}
    live, peak, leaving = set(g.inputs), len(g.inputs), []
    for k, step in enumerate(steps):
        live.update(step)
        peak = max(peak, len(live))
        leaving.append([q for q in step if q in measured and last_step[q] == k])
        live.difference_update(leaving[-1])
    _check_dense_bytes(1, peak, len(g.inputs))
    eng = _TensorEngine(g.inputs, batch=1)
    for step, done in zip(steps, leaving):
        for q in step:
            if q not in eng.axis_of:
                eng.add_qubit(q, plus_ket(preps[q]))
        if len(step) == 2:
            eng.apply_cz(*step)
        for q in done:
            eng.contract_bra(q, meas_angles[q])
    matrix = eng.maps(0, g.outputs)[0]
    return matrix * (2.0 ** (len(g.measured) / 2.0))


def simulate_circuit(c: Circuit, max_wires: int = 16) -> np.ndarray:
    """Matrix of a circuit from its input wires to its output wires.

    Ancilla wires enter as plus states and are contracted into the map;
    the returned matrix has one output-space axis ordered by the circuit's
    declared output wires and one input axis per input wire in declaration
    order.  Runs on :class:`_TensorEngine`, one wire per axis.
    """
    n_wires = len(c.wires)
    if n_wires > max_wires:
        raise SimulationError(f"{n_wires} wires exceed the bound {max_wires}")
    eng = _TensorEngine([w.id for w in c.wires if w.source == "input"], batch=1)
    for w in c.wires:
        if w.source == "plus":
            eng.add_qubit(w.id, plus_ket(0.0))
    for gate in c.gates:
        if isinstance(gate, CZGate):
            eng.apply_cz(gate.a, gate.b)
        elif isinstance(gate, PhaseGate):
            eng.phase(gate.wire, cmath.exp(1j * gate.theta))
        else:
            eng.butterfly(gate.wire)
    return eng.maps(0, c.outputs)[0]


def max_deviation_up_to_phase(a: np.ndarray, b: np.ndarray) -> float:
    """Entrywise distance between ``a`` and the best phase-aligned ``b``."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    overlap = np.vdot(b, a)
    if abs(overlap) < 1e-30:
        return float(max(np.max(np.abs(a)), np.max(np.abs(b))))
    phase = overlap / abs(overlap)
    return float(np.max(np.abs(a - phase * b)))


@dataclass(frozen=True)
class IdentityCheck:
    """Max deviation observed for one rewrite identity."""

    name: str
    max_deviation: float
    worst_angle: float
    passed: bool


@dataclass(frozen=True)
class IdentityReport:
    checks: tuple[IdentityCheck, ...]
    tolerance: float

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "ok": self.ok,
            "checks": [
                {
                    "name": c.name,
                    "max_deviation": c.max_deviation,
                    "worst_angle": c.worst_angle,
                    "passed": c.passed,
                }
                for c in self.checks
            ],
        }


def _identity_deviations(alpha: float) -> dict[str, float]:
    """Deviations of every rewrite identity at one angle, worst case over s."""
    eye2 = np.eye(2, dtype=complex)
    bras = measurement_bras(alpha)
    plus = plus_ket(0.0)
    plus_alpha = plus_ket(alpha)
    xa = x_phase_gate(alpha)
    devs: dict[str, float] = {}

    def dev(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.max(np.abs(a - b)))

    # Anachronical Z on the measured qubit turns both outcome bras into the
    # outcome-0 bra: bra_s Z^s == bra_0 for s in {0, 1}.
    devs["anachronical-z-fuses-into-measurement"] = max(
        dev(bras[0], bras[0]), dev(bras[1] @ PAULI_Z, bras[0])
    )

    for s, tag in ((0, "s0"), (1, "s1")):
        xs = PAULI_X if s else eye2
        zs = PAULI_Z if s else eye2
        xas = xa if s else eye2
        zi = np.kron(zs, eye2)
        zj = np.kron(eye2, zs)
        xi = np.kron(xs, eye2)
        xj = np.kron(eye2, xs)
        xaj = np.kron(eye2, xas)
        xai = np.kron(xas, eye2)
        devs[f"z-conjugates-to-x-pair-through-cz-{tag}"] = dev(
            zi @ CZ_MATRIX, xj @ CZ_MATRIX @ xj
        )
        devs[f"x-through-cz-leaves-z-{tag}"] = dev(
            xi @ CZ_MATRIX, CZ_MATRIX @ zj @ xi
        )
        devs[f"z-commutes-with-cz-{tag}"] = dev(zi @ CZ_MATRIX, CZ_MATRIX @ zi)
        devs[f"x-fixes-plus-preparation-{tag}"] = dev(xs @ plus, plus)
        devs[f"phase-x-pair-through-cz-{tag}"] = dev(
            zi @ CZ_MATRIX, xaj @ CZ_MATRIX @ xaj
        )
        devs[f"phase-x-through-cz-leaves-z-{tag}"] = dev(
            xai @ CZ_MATRIX, CZ_MATRIX @ zj @ xai
        )
        devs[f"phase-x-fixes-matching-preparation-{tag}"] = dev(
            xas @ plus_alpha if s else plus_alpha, plus_alpha
        )
    return devs


def _pauli_identity_deviations() -> dict[str, float]:
    """Pauli special cases, checked at the projector level.

    An X before a right-angle measurement relabels outcomes exactly like a
    Z does, and an X before a zero-angle measurement is invisible.  The
    outcome bras themselves pick up unit phases under these rewrites, so
    the exact statement is about the measurement operators
    K K^dag-style, i.e. the projectors of each outcome.
    """
    devs: dict[str, float] = {}
    for s in (0, 1):
        xs = PAULI_X if s else np.eye(2, dtype=complex)
        zs = PAULI_Z if s else np.eye(2, dtype=complex)
        worst_y = 0.0
        worst_x = 0.0
        for outcome in (0, 1):
            bra_y = measurement_bras(math.pi / 2.0)[outcome]
            proj_y = np.outer(bra_y.conj(), bra_y)
            worst_y = max(
                worst_y,
                float(np.max(np.abs(xs @ proj_y @ xs - zs @ proj_y @ zs))),
            )
            bra_x = measurement_bras(0.0)[outcome]
            proj_x = np.outer(bra_x.conj(), bra_x)
            worst_x = max(
                worst_x, float(np.max(np.abs(xs @ proj_x @ xs - proj_x)))
            )
        devs[f"y-measurement-x-equals-z-s{s}"] = worst_y
        devs[f"x-measurement-absorbs-x-s{s}"] = worst_x
    return devs


def check_rewrite_identities(
    tolerance: float = EXACT_TOLERANCE,
    grid_points: int = 16,
    n_random: int = 50,
    seed: int = 7,
) -> IdentityReport:
    """Verify the correction-rewrite identities as matrix equalities.

    Sweeps a uniform angle grid plus random angles for the
    angle-parameterized identities, both signal values each, and checks
    the Pauli special cases at their exact (projector) level.  Failures
    are reported per identity with the offending angle.
    """
    rng = np.random.default_rng(seed)
    angles = [2.0 * math.pi * k / grid_points for k in range(grid_points)]
    angles += [float(a) for a in rng.uniform(0.0, 2.0 * math.pi, size=n_random)]

    worst: dict[str, tuple[float, float]] = {}
    for alpha in angles:
        for name, deviation in _identity_deviations(alpha).items():
            if name not in worst or deviation > worst[name][0]:
                worst[name] = (deviation, alpha)
    for name, deviation in _pauli_identity_deviations().items():
        worst[name] = (deviation, 0.0)

    checks = tuple(
        IdentityCheck(name, dev, angle, dev < tolerance)
        for name, (dev, angle) in sorted(worst.items())
    )
    return IdentityReport(checks, tolerance)
