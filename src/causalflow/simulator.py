"""Exact branch simulation of measurement patterns.

The engine is a dense complex state tensor over the currently live qubits.
Two routes are provided on purpose: :func:`run_branch` evaluates a single
outcome string column by column with 2x2 gate matrices (the simple
reference), while :func:`enumerate_branches` runs one tensor pass in which
measured qubits are rotated into their measurement basis and kept as
branch indices, so every branch map falls out of a single contraction.
The two agree to rounding and are cross-checked in the test suite.

A pass builds a pattern's leading preparations and entanglers (all of the
open graph state in standard form) in one step, with the measured qubits
on the outer axes in measurement order, so that gates act on long
contiguous runs and the branch maps are read out without a transpose.  The
tensor pass applies no matrices.  A pattern only ever needs X, Z, the
phase-conjugated X, diagonal phases, the Hadamard and equatorial
measurement bras, and each of these is an in-place operation on the
0-half and the 1-half of one axis: multiply the 1-half by a phase, swap
the halves, or the butterfly (a + b, a - b)/sqrt(2).  A dependent
correction is the same operation restricted to the slice where its
signal's branch bit is 1.  Every dense simulation fits one byte budget,
checked before anything is allocated: at most 23 qubits plus inputs per
angle vector (a circuit's wires plus input wires, :func:`run_branch`'s live
qubits); the classifier splits its angle samples into batches that fit.
After each pass it runs the strong-equality test (every branch map equal
to the reference branch's) on all of the batch's entries in a few numpy
reductions, and falls back to the entry-by-entry proportionality test and
witness search only for the entries that fail it.

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
from dataclasses import asdict, dataclass
from enum import Enum
from itertools import takewhile
from typing import Mapping, Sequence

import numpy as np

from .circuit_extract import Circuit, CZGate, PhaseGate
from .graph_model import OpenGraphState
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
    """Determinism classes, weakest first; strong implies plain determinism."""

    NOT_DETERMINISTIC = "not-deterministic"
    DETERMINISTIC = "deterministic"
    STRONGLY_DETERMINISTIC = "strongly-deterministic"

    @property
    def is_deterministic(self) -> bool:
        return self is not Classification.NOT_DETERMINISTIC


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
    """Measurement count of ``p``, once its walk has found it runnable and,
    when ``max_measurements`` is given, within that branch bound."""
    if p._walk.violations:
        raise PatternError("pattern is not runnable: " + "; ".join(p._walk.violations))
    n = p.n_measurements
    if max_measurements is not None and n > max_measurements:
        raise SimulationError(
            f"{n} measurements exceed the branch bound {max_measurements}"
        )
    return n


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
    SimulationError
        If the most qubits live at once (inputs, plus preparations, minus
        measurements so far) number more than the dense tensor bound, 23.
    """
    _runnable_or_raise(p)
    order = p.measurement_order
    if len(outcomes) != len(order) or any(c not in "01" for c in outcomes):
        raise PatternError(
            f"outcome string {outcomes!r} does not match {len(order)} measurements"
        )
    _check_dense_bytes(1, p._walk.live_peak, 0)
    outcome_of = {q: int(bit) for q, bit in zip(order, outcomes)}
    n_in = len(p.inputs)
    n_out = len(p.outputs)
    result = np.zeros((1 << n_out, 1 << n_in), dtype=complex)
    basis = (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex))

    for col in range(1 << n_in):
        tensor = np.array(1.0, dtype=complex)
        axis_of: dict[int, int] = {}
        for q, bit in zip(p.inputs, format(col, f"0{n_in}b")):
            axis_of[q] = tensor.ndim
            tensor = np.multiply.outer(tensor, basis[int(bit)])

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

    Axis 0 is the batch (one entry per measurement-angle vector), then one
    axis per qubit in the order of ``layout`` (a pattern's measured qubits
    in measurement order, then its outputs), then one domain axis per
    input.  The constructor builds the graph state of ``prefix`` (commands
    that prepare and entangle) on one entry: the plus states multiplied in
    preparation order, times the identity from each input's axis to its
    domain axis, bit for bit a command-by-command build.  A qubit prepared
    later (:meth:`add_qubit`) gets a new last axis.  A measurement keeps
    its qubit's axis as a branch index.

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
    slice, at most half the tensor.  The constructor checks the dense byte
    budget for ``batch`` entries over ``qubits``, the most qubit axes the
    engine will hold, and the domain axes, before it allocates.  The
    butterflies' 1/sqrt(2) factors collect in :attr:`scale` and are applied
    when :meth:`maps` reads the result, or earlier, once ``scale`` falls
    below :data:`_MIN_SCALE`, so that a long gate sequence keeps entries and
    ``scale`` normal floats.
    """

    def __init__(
        self,
        inputs: Sequence[int],
        batch: int,
        qubits: int,
        prefix: Sequence[Prepare | Entangle] = (),
        layout: Sequence[int] = (),
    ) -> None:
        n_in = len(inputs)
        if batch < 1:
            raise ValueError("batch must be positive")
        _check_dense_bytes(batch, qubits, n_in)
        held = list(inputs)
        graph = np.ones((2,) * n_in, dtype=complex)
        for cmd in prefix:
            if isinstance(cmd, Prepare):
                held.append(cmd.qubit)
                graph = np.multiply.outer(graph, plus_ket(cmd.angle))
            else:
                idx: list = [slice(None)] * graph.ndim
                idx[held.index(cmd.a)] = idx[held.index(cmd.b)] = 1
                graph[tuple(idx)] *= -1.0
        layout = [q for q in layout if q in held] + [q for q in held if q not in layout]
        self.axis_of = {q: 1 + k for k, q in enumerate(layout)}
        self.domain_axes = [*range(1 + len(layout), 1 + len(layout) + n_in)]
        graph = graph.transpose([held.index(q) for q in layout])[(...,) + (None,) * n_in]
        eye = np.eye(1 << n_in, dtype=complex).reshape((2,) * (2 * n_in))
        perm = [inputs.index(q) for q in layout if q in inputs] + [*range(n_in, 2 * n_in)]
        eye = eye.transpose(perm).reshape([2 if q in inputs else 1 for q in layout] + [2] * n_in)
        self.t = np.empty((batch,) + (2,) * (len(layout) + n_in), dtype=complex)
        np.multiply(graph, eye, out=self.t[:1])
        self.t[1:] = self.t[:1]
        self.batch = batch
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
        return self.entry_maps(b, b + 1, outputs)[0]

    def entry_maps(self, start: int, stop: int, outputs: Sequence[int]) -> np.ndarray:
        """Branch maps of batch entries ``start`` to ``stop`` as (entries,
        branches, output space, input space), a new array of their size."""
        live = self.axis_of.keys() - set(self.branch_order)
        if live != set(outputs):
            raise SimulationError(f"live qubits {sorted(live)} differ from outputs")
        perm = [0] + [self.axis_of[q] for q in self.branch_order]
        perm += [self.axis_of[q] for q in outputs]
        perm += self.domain_axes
        shape = (
            stop - start,
            1 << len(self.branch_order),
            1 << len(outputs),
            1 << len(self.domain_axes),
        )
        entries = self.t[start:stop].transpose(perm)
        out = np.empty(entries.shape, dtype=complex)
        np.multiply(entries, self.scale, out=out)
        return out.reshape(shape)


# Bytes one dense pass may hold at once, checked before it allocates: every
# tensor of up to 23 qubit and input axes fits at batch 1 (see _max_batch).
_MAX_DENSE_BYTES = 512 * 2**20
# Three np.getbufsize() buffers of complex entries: during a pass, the two
# that numpy's ufunc iteration allocates for a strided operand, as the
# kernel's halves are, and small objects; after it, a classifier group's
# temporaries (see _classifier_group).
_BUFFER_RESERVE = 3 * np.getbufsize() * np.dtype(complex).itemsize


def _max_batch(n_qubits: int, n_inputs: int) -> int:
    """Largest batch whose dense pass fits :data:`_MAX_DENSE_BYTES`; 0 if none.

    A batch entry is a complex tensor over every qubit and input axis, of
    ``sample`` bytes.  A pass holds the ``batch`` entries plus the larger of
    half of them with :data:`_BUFFER_RESERVE` and three entries: the
    kernel's scratch with numpy's iteration buffers during the pass, then a
    classifier group's temporaries after it (see :func:`_classifier_group`).
    """
    sample = np.dtype(complex).itemsize << (n_qubits + n_inputs)
    half = 2 * (_MAX_DENSE_BYTES - _BUFFER_RESERVE) // (3 * sample)
    return max(0, min(half, _MAX_DENSE_BYTES // sample - 3))


def _check_dense_bytes(batch: int, n_qubits: int, n_inputs: int) -> None:
    """Raise, before allocating, for a dense pass over the byte budget."""
    if batch > _max_batch(n_qubits, n_inputs):
        raise SimulationError(
            f"{n_qubits} qubits with {n_inputs} inputs at batch {batch} exceed "
            f"the dense tensor bound of {_MAX_DENSE_BYTES} bytes"
        )


def _classifier_group(entry_size: int) -> int:
    """Batch entries of ``entry_size`` amplitudes the classifier reads at once.

    A group holds as many amplitudes as one numpy iteration buffer, or one
    entry when that alone has more: past that, numpy's per-call cost is
    paid off and a larger group only works farther out of cache.  Its
    temporaries in :func:`_strong_test` come to at most three times its
    size, so they fit :data:`_BUFFER_RESERVE`, or three entries for a group
    of one; :func:`_max_batch` charges both.
    """
    return max(1, np.getbufsize() // entry_size)


def _base_angles(p: Pattern) -> np.ndarray:
    """The pattern's own measurement angles as one row, in measurement order."""
    return np.array([list(p.measure_angles().values())], dtype=float)


def _run_branches(p: Pattern, angles: np.ndarray) -> _TensorEngine:
    """One dense pass over every branch, for each row of ``angles``: one
    batch entry per row, and column k holds the k-th measurement's angles."""
    prefix = [*takewhile(lambda cmd: isinstance(cmd, (Prepare, Entangle)), p.commands)]
    layout = (*p.measurement_order, *p.outputs)
    eng = _TensorEngine(p.inputs, len(angles), len(p.vertices), prefix, layout)
    columns = iter(angles.T)
    for cmd in p.commands[len(prefix) :]:
        if isinstance(cmd, Prepare):
            eng.add_qubit(cmd.qubit, plus_ket(cmd.angle))
        elif isinstance(cmd, Entangle):
            eng.apply_cz(cmd.a, cmd.b)
        elif isinstance(cmd, Measure):
            eng.measure_keep_branch(cmd.qubit, next(columns))
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
        If ``tolerance`` is not finite and positive, or ``input_state`` is
        not a vector of 2^|I| finite amplitudes; both are checked before
        any simulation.
    SimulationError
        If the measurement count exceeds ``max_measurements``, the pattern
        exceeds the dense tensor bound, or the branch family fails the
        trace-preservation check.
    """
    _check_tolerance(tolerance)
    n = _runnable_or_raise(p, max_measurements)
    if input_state is not None:
        input_state = np.asarray(input_state, dtype=complex)
        dim = 1 << len(p.inputs)
        if input_state.shape != (dim,) or not np.isfinite(input_state).all():
            raise ValueError(f"input state must be a finite vector of length {dim}")
    maps = _run_branches(p, _base_angles(p)).maps(0, p.outputs)
    _check_trace_preserving(maps, tolerance)
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
    k = int(_first_near_max(defects))
    if defects[k] <= tolerance:
        return None
    return float(defects[k]), probes[k] / np.linalg.norm(probes[k])


def _first_near_max(values: np.ndarray) -> np.ndarray:
    """Index of the first of ``values`` (non-negative) within a relative
    1e-12 of the largest, along the last axis.  Values equal in exact
    arithmetic, as branch norms and probe defects often are, then give the
    same index whichever rounding the arithmetic that produced them took."""
    top = values.max(axis=-1, keepdims=True)
    return (values >= top * (1.0 - 1e-12)).argmax(axis=-1)


def _outcome_label(branch: int, n_branches: int) -> str:
    """Outcome string of a branch index, first measurement leftmost."""
    n = n_branches.bit_length() - 1
    return format(branch, f"0{n}b") if n else ""


def _strong_test(
    maps: np.ndarray, tolerance: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The strong-equality test on several entries' branch maps at once.

    ``maps`` is (entries, branches, output space, input space).  Returns,
    per entry, whether every branch is within ``tolerance`` of the
    reference branch entrywise, the branch norms, and the reference: the
    first branch of largest norm, by :func:`_first_near_max`.  Temporaries
    are a work array of the size of ``maps``, its moduli and the norms: with
    ``maps``, at most three times its size (see :func:`_classifier_group`).
    """
    entries, n_branches = maps.shape[:2]
    flat = maps.reshape(entries, n_branches, -1)
    work = np.conjugate(flat)
    np.multiply(work, flat, out=work)
    # the sums np.linalg.norm forms, so each entry's norms are bit for bit its
    norms = np.add.reduce(work.real, axis=-1)
    np.sqrt(norms, out=norms)
    refs = _first_near_max(norms)
    np.subtract(flat, flat[np.arange(entries), refs][:, np.newaxis], out=work)
    strong = np.abs(work).max(axis=(1, 2)) < tolerance
    return strong, norms, refs


def _classify_maps(
    maps: np.ndarray, tolerance: float, norms: np.ndarray, ref: int
) -> tuple[Classification, Witness | None]:
    """Verdict and witness for one batch entry's branch maps that failed
    :func:`_strong_test`, given the branch norms and the reference branch it
    found: deterministic, or not, with a witness."""
    n_branches = maps.shape[0]
    flat = maps.reshape(n_branches, -1)
    scale = float(np.abs(maps).max()) or 1.0
    products = norms[ref] * norms
    overlaps = np.abs(np.einsum("bk,k->b", flat, flat[ref].conj()))
    live = norms > tolerance * scale
    live[ref] = False
    hs_defects = (products - overlaps) / np.where(live, products, np.inf)
    for s in np.flatnonzero(hs_defects > tolerance):
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


def _classify_batch(
    eng: _TensorEngine, outputs: Sequence[int], tolerance: float
) -> tuple[tuple[Classification, Witness | None], bool]:
    """Verdict of the engine's first batch entry, and whether every entry is
    deterministic; stops at the first entry that is not."""
    group = _classifier_group(eng.t.size // eng.batch)
    first = Classification.STRONGLY_DETERMINISTIC, None
    for start in range(0, eng.batch, group):
        maps = eng.entry_maps(start, min(start + group, eng.batch), outputs)
        strong, norms, refs = _strong_test(maps, tolerance)
        for k in np.flatnonzero(~strong):
            verdict = _classify_maps(maps[k], tolerance, norms[k], int(refs[k]))
            if start + k == 0:
                first = verdict
            if not verdict[0].is_deterministic:
                return first, False
    return first, True


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
    corrections, drawn in one call and evaluated in batched passes as
    large as the dense byte budget allows.  After each pass the strong
    test (:func:`_strong_test`) runs on groups of entries
    (:func:`_classifier_group`); only an entry that fails it is classified
    further, and the first one that is not deterministic ends the run.  The
    verdict is that of the pattern's own angles.

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
    n = _runnable_or_raise(p, max_measurements)
    _check_dense_bytes(1, len(p.vertices), len(p.inputs))
    if n == 0:
        # one branch, and no measurement angle to vary
        return DeterminismVerdict(
            Classification.STRONGLY_DETERMINISTIC, True, None, angle_samples, seed, tolerance
        )
    base = _base_angles(p)
    rng = np.random.default_rng(seed)
    samples = rng.uniform(0.0, 2.0 * math.pi, size=(angle_samples, base.shape[1]))
    angles = np.concatenate([base, samples])
    chunk = _max_batch(len(p.vertices), len(p.inputs))
    verdict = None
    for start in range(0, len(angles), chunk):
        first, uniform = _classify_batch(
            _run_branches(p, angles[start : start + chunk]), p.outputs, tolerance
        )
        verdict = verdict or first
        if not uniform:
            break
    classification, witness = verdict
    return DeterminismVerdict(
        classification, uniform, witness, angle_samples, seed, tolerance
    )


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
    on a missing or non-finite angle, SimulationError when the most qubits
    in flight exceed the dense tensor bound.  Entanglers run in the order of
    :func:`_bfs_rank`, by the later endpoint first, so the qubits in flight
    do not depend on the vertex labels; each qubit is prepared just before
    its first entangler and projected, if measured, right after its last one.
    """
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
    eng = _TensorEngine(g.inputs, 1, peak)
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


def simulate_circuit(c: Circuit) -> np.ndarray:
    """Matrix of a circuit from its input wires to its output wires.

    Ancilla wires enter as plus states and are contracted into the map;
    the returned matrix has one output-space axis ordered by the circuit's
    declared output wires and one input axis per input wire in declaration
    order.  Runs on :class:`_TensorEngine`, one wire per axis, so it
    raises SimulationError, before allocating, unless the wires plus the
    input wires number at most 23 (the dense byte budget).
    """
    eng = _TensorEngine([w.id for w in c.wires if w.source == "input"], 1, len(c.wires))
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
            "checks": [asdict(c) for c in self.checks],
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
    are reported per identity with the offending angle.  Raises ValueError
    when ``grid_points + n_random`` is 0, which would leave the
    angle-parameterized identities unchecked.
    """
    if grid_points + n_random == 0:
        raise ValueError("no angles to check: grid_points + n_random is 0")
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
