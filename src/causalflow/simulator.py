"""Exact branch simulation of measurement patterns.

The engine (:class:`_TensorEngine`) is a dense complex tensor over the live
qubits.  Two routes are kept on purpose: :func:`run_branch` evaluates one
outcome string column by column with 2x2 gate matrices (the simple
reference), while :func:`enumerate_branches` and the dense route of
``classify_determinism`` run one tensor pass in which each measured qubit is
rotated into its measurement basis and kept as a branch index, so every
branch map falls out of one pass.  The two agree to rounding and are
cross-checked in the test suite.

A pass runs the pattern's plan (:attr:`Pattern._plan`, lowered on its first
pass): the commands as integer opcodes, in a lazy order that defers each
preparation and entangler until a command needs it.  A pass applies no
matrices: every gate is an in-place phase, swap or butterfly on the halves
of one axis, restricted for a dependent correction to the slice where its
signal's branch bit is 1.  Every dense simulation fits one byte budget,
checked before anything is allocated: at most 23 qubits plus inputs per
angle vector.  ``classify_determinism`` (:mod:`causalflow.verdict`) first
asks the Pauli-frame certificate, in pure Python, and calls
:func:`_classify_dense` only for a pattern it declines.  The same engine
gives a geometry's :func:`realized_embedding` and the map of an extracted
circuit (:func:`simulate_circuit`).  Verdicts do not depend on enumeration
order.

This is the package's only module that imports numpy.  The package loads it
on the first use of one of its names, and ``classify_determinism`` on the
first pattern the certificate declines.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .graph_model import OpenGraphState
from .pattern import (
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
    _MEASURE,
    _X,
    _XA,
    _Z,
)
from .verdict import Classification, DeterminismVerdict, Witness, _check_tolerance, _runnable_or_raise

if TYPE_CHECKING:
    from .circuit_extract import Circuit

_SQRT2_INV = 1.0 / math.sqrt(2.0)
# Each butterfly grows the engine's entries by up to sqrt(2) and shrinks its
# deferred scale by as much; at this scale the two are multiplied together.
_MIN_SCALE = 2.0**-500
# The index of a whole axis.
_ALL = slice(None)

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


@dataclass(frozen=True, eq=False, slots=True)
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
    :func:`enumerate_branches`, :func:`_classify_dense`,
    :func:`realized_embedding` and the circuit simulator.

    :attr:`t` is the tensor in memory order: axis 0 is the batch (one entry
    per measurement-angle vector), then one axis per qubit, named by
    :attr:`axis_of`, then one domain axis per input, always the last axes.
    The constructor checks the byte budget for ``batch`` entries over
    ``qubits`` and the domain axes, allocates a zero row per entry with
    room for them, and writes the graph state of ``prefix`` (preparations
    and entanglers) into every entry's input diagonal, where each input's
    qubit axis equals its domain axis, with its qubits in the order of
    ``layout``.  Each plus state is (1, e^{i theta}), multiplied in
    preparation order, its 1/sqrt(2) deferred to :attr:`scale`.  A
    measurement keeps its qubit's axis as a branch index.  A qubit prepared
    later takes axis 1: :meth:`add_qubit` makes a new tensor for it, and
    :meth:`grow` adds a run in place.

    Every gate acts in place on the 0-half and the 1-half of one qubit's
    axis, restricted, when a control is given, to the slice where the
    control's axis (a branch bit, or a live qubit for controlled-Z) reads
    1: :meth:`phase` multiplies the 1-half by a factor (Z, CZ, P(theta));
    :meth:`flip` swaps the halves (X, and between two phases the
    phase-conjugated X); :meth:`butterfly` maps them to (a + f b, a - f b)
    /sqrt(2) with one factor f per entry (the Hadamard, and the measurement
    at alpha with f = e^{-i alpha}).  Scratch is at most half the tensor.
    The butterflies' 1/sqrt(2) collect in :attr:`scale` too, applied when
    :meth:`maps` reads the result, or once ``scale`` falls below
    :data:`_MIN_SCALE`, so entries and ``scale`` stay normal floats.
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
        _check_dense_bytes(batch, qubits, n_in)
        self.batch = batch
        self.branch_order: list[int] = []
        self.scale = 1.0
        held = {q: k for k, q in enumerate(inputs)}
        graph = self._graph(held, prefix, n_in)
        order = [q for q in layout if q in held]
        order += [q for q in held if q not in order]
        self.axis_of = {q: k for k, q in enumerate(order, 1)}
        self._rows = np.zeros((batch, 1 << (qubits + n_in)), dtype=complex)
        self.t = self._rows[:, : 1 << (len(order) + n_in)].reshape(
            (batch,) + (2,) * (len(order) + n_in)
        )
        axes = [*range(len(order) + 1)]
        # einsum's diagonal over repeated labels is a writable view of self.t
        diagonal = np.einsum(self.t, axes + [self.axis_of[q] for q in inputs], axes)
        diagonal[...] = graph.transpose([held[q] for q in order])

    def _graph(
        self, held: dict[int, int], run: Sequence[Prepare | Entangle], n_axes: int
    ) -> np.ndarray:
        """The plus states of ``run``'s preparations, multiplied in order
        after ``n_axes`` axes of ones, with the -1 of each of ``run``'s
        entanglers whose two qubits ``held`` gives axes; adds each prepared
        qubit's axis to ``held``."""
        graph = np.ones((2,) * n_axes, dtype=complex)
        plus = {}
        for cmd in run:
            if isinstance(cmd, Prepare):
                if cmd.angle not in plus:
                    plus[cmd.angle] = np.array([1.0, cmath.exp(1j * cmd.angle)])
                held[cmd.qubit] = graph.ndim
                graph = np.multiply.outer(graph, plus[cmd.angle])
                # the next _shrink_scale folds scale if it gets small;
                # the constructor has no tensor to fold into yet
                self.scale *= _SQRT2_INV
            elif cmd.a in held and cmd.b in held:
                idx: list = [slice(None)] * graph.ndim
                idx[held[cmd.a]] = idx[held[cmd.b]] = 1
                graph[tuple(idx)] *= -1.0
        return graph

    def grow(self, run: Sequence[Prepare | Entangle]) -> None:
        """Add a run of preparations and entanglers, in place.  The run's
        qubits take axes 1 onwards, in preparation order, outermost in each
        entry's row, so the tensor as it stands is their 0-half and one
        outer product with the run's graph state writes the rest.  Then each
        entangler with an older qubit is applied.  The tensor must still be
        the constructor's allocation."""
        new: dict[int, int] = {}
        graph = self._graph(new, run, 0)
        size = self.t[0].size
        rows = self._rows[:, : size * graph.size]
        out = rows[:, size:].reshape(self.batch, -1, size)
        np.multiply(rows[:, np.newaxis, :size], graph.reshape(-1, 1)[1:], out=out)
        self.t = rows.reshape((self.batch,) + graph.shape + self.t.shape[1:])
        self.axis_of = {q: a + len(new) for q, a in self.axis_of.items()}
        self.axis_of.update((q, 1 + k) for q, k in new.items())
        for cmd in run:
            if type(cmd) is Entangle and not (cmd.a in new and cmd.b in new):
                self.phase(cmd.b, -1.0, cmd.a)

    def add_qubit(self, q: int, state: np.ndarray) -> None:
        """Prepare ``q`` in ``state`` on axis 1, in a new tensor."""
        self.axis_of = {key: a + 1 for key, a in self.axis_of.items()}
        self.axis_of[q] = 1
        self.t = self.t[:, np.newaxis] * state.reshape((2,) + (1,) * (self.t.ndim - 1))

    def _half(self, q: int, bit: int, control: int | None = None) -> np.ndarray:
        ax = self.axis_of[q]
        if control is None:
            return self.t[(_ALL,) * ax + (bit,)]
        c = self.axis_of[control]
        idx = [_ALL] * (max(ax, c) + 1)
        idx[ax] = bit
        idx[c] = 1
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

    def contract_bra(self, q: int, alpha: float) -> None:
        """Project ``q`` onto the outcome-0 bra of the measurement at ``alpha``."""
        self.phase(q, cmath.exp(-1j * alpha))
        self.t = np.add(self._half(q, 0), self._half(q, 1))
        self._shrink_scale()
        ax = self.axis_of.pop(q)
        self.axis_of = {key: a - (a > ax) for key, a in self.axis_of.items()}

    def maps(self, b: int, outputs: Sequence[int]) -> np.ndarray:
        """Branch maps of batch entry ``b`` as (branches, output space, input
        space), a new array of one batch entry's size."""
        live = self.axis_of.keys() - set(self.branch_order)
        if live != set(outputs):
            raise SimulationError(f"live qubits {sorted(live)} differ from outputs")
        perm = [self.axis_of[q] - 1 for q in self.branch_order]
        perm += [self.axis_of[q] - 1 for q in outputs]
        # the domain axes, after every qubit's
        perm += range(len(self.axis_of), self.t.ndim - 1)
        entry = self.t[b].transpose(perm)
        out = np.empty(entry.shape, dtype=complex)
        np.multiply(entry, self.scale, out=out)
        return out.reshape(1 << len(self.branch_order), 1 << len(outputs), -1)


# Bytes one dense pass may hold at once, checked before it allocates: every
# tensor of up to 23 qubit and input axes fits at batch 1 (see _pass_bytes).
_MAX_DENSE_BYTES = 512 * 2**20
# Three np.getbufsize() buffers of complex entries: the two that numpy's
# ufunc iteration allocates for a strided operand, as the kernel's halves
# are, and small objects.
_BUFFER_RESERVE = 3 * np.getbufsize() * np.dtype(complex).itemsize
# Bytes of one of enumerate_branches' BranchReport records beside its map:
# the record, its outcome string and the map's view (254 on CPython 3.11).
_RECORD_BYTES = 320


def _entry_bytes(n_qubits: int, n_inputs: int) -> tuple[int, int]:
    """Bytes of one batch entry, a complex tensor over every qubit and input
    axis, and those a running pass holds per entry beside it: half an entry
    of kernel scratch and the entry's angles and factors (at most a float
    and a complex per qubit)."""
    entry = np.dtype(complex).itemsize << (n_qubits + n_inputs)
    return entry, entry // 2 + 24 * n_qubits


def _pass_bytes(batch: int, n_qubits: int, n_inputs: int) -> int:
    """Bytes a dense pass of ``batch`` entries is charged.

    A pass holds the ``batch`` entries plus the larger of two charges: while
    it runs, what it holds per entry beside it (:func:`_entry_bytes`) with
    :data:`_BUFFER_RESERVE` for numpy's iteration buffers; after it, three
    entries, the classifier's temporaries on one entry, the witness's
    probes included (see :func:`_classify_entry` and :func:`_pair_witness`).
    """
    entry, held = _entry_bytes(n_qubits, n_inputs)
    return batch * entry + max(batch * held + _BUFFER_RESERVE, 3 * entry)


def _max_batch(n_qubits: int, n_inputs: int) -> int:
    """Largest batch whose :func:`_pass_bytes` fit :data:`_MAX_DENSE_BYTES`;
    0 if none."""
    entry, held = _entry_bytes(n_qubits, n_inputs)
    running = (_MAX_DENSE_BYTES - _BUFFER_RESERVE) // (entry + held)
    return max(0, min(running, _MAX_DENSE_BYTES // entry - 3))


def _check_dense_bytes(batch: int, n_qubits: int, n_inputs: int) -> None:
    """Raise, before allocating, for a dense pass over the byte budget."""
    if _pass_bytes(batch, n_qubits, n_inputs) > _MAX_DENSE_BYTES:
        raise SimulationError(
            f"{n_qubits} qubits with {n_inputs} inputs at batch {batch} exceed "
            f"the dense tensor bound of {_MAX_DENSE_BYTES} bytes"
        )


def _base_angles(p: Pattern) -> np.ndarray:
    """The pattern's own measurement angles as one row, in measurement order."""
    return np.array([list(p.measure_angles().values())], dtype=float)


def _run_branches(p: Pattern, angles: np.ndarray) -> _TensorEngine:
    """One dense pass over every branch, for each row of ``angles``: one
    batch entry per row, and column k holds the k-th measurement's angles.
    It runs the pattern's plan (:attr:`Pattern._plan`, lowered on the
    pattern's first pass): its prefix, then its steps, in an allocation with
    room for every qubit, and keeps every measured qubit's axis as a branch
    index."""
    plan = p._plan
    # before the engine allocates, so that its temporary never meets the tensor
    factors = np.exp(-1j * angles.T)
    # measured qubits in measurement order, then the outputs: the
    # constructor's axis order, which the branch maps read unmoved
    layout = (*p.measurement_order, *p.outputs)
    eng = _TensorEngine(p.inputs, len(angles), len(p.vertices), plan.prefix, layout)
    for op, q, arg, signals in plan.steps:
        if op == _MEASURE:
            eng.butterfly(q, factors[arg])
            eng.branch_order.append(q)
        elif op == _X:
            for s in signals:
                eng.flip(q, s)
        elif op == _Z:
            for s in signals:
                eng.phase(q, -1.0, s)
        elif op == _XA:
            for s in signals:
                eng.phase(q, arg.conjugate(), s)
                eng.flip(q, s)
                eng.phase(q, arg, s)
        else:
            eng.grow(arg)
    return eng


def _check_trace_preserving(maps: np.ndarray, tolerance: float) -> None:
    """Raise unless sum_s A_s^dag A_s, one product of the stacked maps, is
    within ``tolerance`` of the identity."""
    flat = maps.reshape(-1, maps.shape[-1])
    total = flat.conj().T @ flat
    dev = float(np.max(np.abs(total - np.eye(total.shape[0]))))
    if dev > tolerance:
        raise SimulationError(
            f"branch maps violate trace preservation (deviation {dev:.3e})"
        )


def enumerate_branches(
    p: Pattern,
    input_state: np.ndarray | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[BranchReport]:
    """All 2^n branch maps of a runnable pattern.

    Verifies trace preservation of the family before returning.  When
    ``input_state`` (a normalized vector over the input space) is given,
    each report also carries that branch's probability.  The 2^n records,
    :data:`_RECORD_BYTES` each beside the maps, are charged to the dense
    byte budget on top of the pass at batch 1, before the pass.

    Raises
    ------
    ValueError
        If ``tolerance`` is not finite and positive, or ``input_state`` is
        not a vector of 2^|I| finite amplitudes; both are checked before
        any simulation.
    SimulationError
        If the pass and its records exceed the dense tensor bound, or the
        branch family fails the trace-preservation check.
    """
    _check_tolerance(tolerance)
    n = _runnable_or_raise(p)
    if input_state is not None:
        input_state = np.asarray(input_state, dtype=complex)
        dim = 1 << len(p.inputs)
        if input_state.shape != (dim,) or not np.isfinite(input_state).all():
            raise ValueError(f"input state must be a finite vector of length {dim}")
    records = _RECORD_BYTES << n
    if _pass_bytes(1, len(p.vertices), len(p.inputs)) + records > _MAX_DENSE_BYTES:
        raise SimulationError(
            f"{1 << n} branch records and their pass exceed the dense tensor "
            f"bound of {_MAX_DENSE_BYTES} bytes"
        )
    maps = _run_branches(p, _base_angles(p)).maps(0, p.outputs)
    _check_trace_preserving(maps, tolerance)
    probabilities = [None] * len(maps)
    if input_state is not None:
        amplitudes = maps @ input_state
        probabilities = np.einsum("so,so->s", amplitudes.conj(), amplitudes).real.tolist()
    return [
        BranchReport(_outcome_label(s, len(maps)), m, probability)
        for s, (m, probability) in enumerate(zip(maps, probabilities))
    ]


def _probe_defects(images: np.ndarray, tolerance: float, scale: float) -> np.ndarray:
    """The relative defect (|u| |v| - |<u, v>|) / (|u| |v|) of each probe,
    from its images u and v under two maps, stacked as (2, output space,
    probes): 0 when they are parallel, and taken as 0 when either norm is at
    most ``tolerance * scale``."""
    norms = np.sqrt(
        np.einsum("aij,aij->aj", images.real, images.real)
        + np.einsum("aij,aij->aj", images.imag, images.imag)
    )
    products = norms[0] * norms[1]
    overlaps = np.abs(np.einsum("ij,ij->j", images[0].conj(), images[1]))
    live = norms.min(axis=0) > tolerance * scale
    return (products - overlaps) / np.where(live, products, np.inf)


def _pair_witness(
    maps: np.ndarray, r: int, s: int, tolerance: float, scale: float
) -> tuple[float, np.ndarray] | None:
    """Probe input states on branches ``r`` and ``s`` of one entry's maps;
    return (defect, probe) for the worst failure, the first probe of largest
    defect up to rounding.

    Probing the basis states plus their pairwise real and imaginary
    combinations decides proportionality of the action on every input, the
    sense in which branch maps must agree for a deterministic pattern.
    Rank-one maps with a common range pass even though they may differ as
    matrices.  The probes are e_k, then e_k + e_l and e_k + i e_l for each
    pair k < l in turn; their images are formed from the maps' columns, and
    only the winning probe is built as a vector.  The pairs go in groups of
    len(maps) // 16 rows k.  A row has fewer pairs than the input space has
    dimensions, d, and a pair's images, their temporaries and its indices
    take at most nine vectors of the output space, so a group takes under
    9/16 of an entry.  With the d^2 defects, at most half an entry, and
    ``maps``, that is within the three entries that :func:`_pass_bytes`
    charges.
    """
    pair = maps[[r, s]]
    d = pair.shape[2]
    defects = np.empty(d * d)
    defects[:d] = _probe_defects(pair, tolerance, scale)
    rows = max(1, len(maps) // 16)
    for start in range(0, d - 1, rows):
        k, l = np.nonzero(np.arange(start, min(start + rows, d))[:, None] < np.arange(d))
        k += start
        columns = pair[:, :, k]
        images = np.empty(columns.shape + (2,), dtype=complex)
        np.add(columns, pair[:, :, l], out=images[..., 0])
        np.multiply(pair[:, :, l], 1j, out=images[..., 1])
        images[..., 1] += columns
        # 2 probes for each of the start * (2d - start - 1) / 2 earlier pairs
        first = d + start * (2 * d - start - 1)
        defects[first : first + 2 * len(k)] = _probe_defects(
            images.reshape(*pair.shape[:2], -1), tolerance, scale
        )
    best = _first_near_max(defects)
    if defects[best] <= tolerance:
        return None
    probe = np.zeros(d, dtype=complex)
    if best < d:
        probe[best] = 1.0
    else:
        index, imaginary = divmod(best - d, 2)
        k, l = next(itertools.islice(itertools.combinations(range(d), 2), index, None))
        probe[k] = 1.0
        probe[l] = 1j if imaginary else 1.0
    return float(defects[best]), probe / np.linalg.norm(probe)


def _first_near_max(values: np.ndarray) -> int:
    """Index of the first of ``values`` (non-negative) within a relative
    1e-12 of the largest.  Values equal in exact arithmetic, as branch norms
    and probe defects often are, then give the same index whichever
    rounding the arithmetic that produced them took."""
    return int((values >= values.max() * (1.0 - 1e-12)).argmax())


def _outcome_label(branch: int, n_branches: int) -> str:
    """Outcome string of a branch index, first measurement leftmost."""
    n = n_branches.bit_length() - 1
    return format(branch, f"0{n}b") if n else ""


def _classify_entry(
    maps: np.ndarray, tolerance: float
) -> tuple[Classification, Witness | None]:
    """Verdict and witness of one batch entry's branch maps, (branches,
    output space, input space).

    The reference is the first branch of largest norm, by
    :func:`_first_near_max`.  Strongly deterministic when every branch is
    within ``tolerance`` of it entrywise.  A modulus lies between the
    larger of its real and imaginary parts and sqrt(2) times it, so the
    largest part decides the test below ``tolerance / 2`` (below
    ``tolerance / sqrt(2)`` with room for rounding) and at ``tolerance`` or
    above; the moduli are taken only in between.  Else each branch whose
    Hilbert-Schmidt overlap with the reference, one matrix-vector product,
    falls short of proportional is probed (:func:`_pair_witness`):
    deterministic, or not, with a witness.  Norms at most ``tolerance``
    times the entry's largest modulus count as zero.  No quantity here
    depends on the order of the output basis.
    Temporaries are a work array of the size of ``maps``, freed before the
    probes, and moduli of half its size: with ``maps``, within the three
    entries that :func:`_pass_bytes` charges beside the pass's tensor.
    """
    n_branches = maps.shape[0]
    flat = maps.reshape(n_branches, -1)
    work = np.conjugate(flat, order="C")
    np.multiply(work, flat, out=work)
    # the sums np.linalg.norm forms, so the norms are bit for bit its
    norms = np.add.reduce(work.real, axis=-1)
    np.sqrt(norms, out=norms)
    # the imaginary parts are zero, or rounding far below the real parts
    parts = work.view(float)
    scale = math.sqrt(parts.max()) or 1.0
    ref = _first_near_max(norms)
    np.subtract(flat, flat[ref], out=work)
    largest = max(parts.max(), -parts.min())
    strong = largest < tolerance / 2 or (
        largest < tolerance and np.abs(work).max() < tolerance
    )
    del work, parts
    if strong:
        return Classification.STRONGLY_DETERMINISTIC, None
    products = norms[ref] * norms
    # einsum, not BLAS: a threaded matrix-vector product costs more here
    overlaps = np.abs(np.einsum("bk,k->b", flat, flat[ref].conj()))
    live = norms > tolerance * scale
    live[ref] = False
    hs_defects = (products - overlaps) / np.where(live, products, np.inf)
    for s in np.flatnonzero(hs_defects > tolerance):
        failure = _pair_witness(maps, ref, s, tolerance, scale)
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
    deterministic; classifies the entries in turn and stops at the first
    that is not.  Each entry's maps are read with ``outputs`` in the order
    of their axes, the cheapest read, since the verdict and witness of
    :func:`_classify_entry` do not depend on the order of the output
    basis."""
    outputs = sorted(outputs, key=eng.axis_of.__getitem__)
    first = None
    for b in range(eng.batch):
        verdict = _classify_entry(eng.maps(b, outputs), tolerance)
        first = first or verdict
        if not verdict[0].is_deterministic:
            return first, False
    return first, True


def _classify_dense(p: Pattern, angle_samples: int, seed: int, tolerance: float) -> DeterminismVerdict:
    """The verdict of a runnable pattern with measurements that the
    certificate declined: after the byte budget for one entry, one full pass
    per batch as large as the budget allows (:func:`_run_branches`), whose
    entries are classified in turn (:func:`_classify_entry`) until one is not
    deterministic.  The verdict is that of the pattern's own angles, the
    first entry; the samples follow, each pass's drawn as it starts."""
    _check_dense_bytes(1, len(p.vertices), len(p.inputs))
    rng = np.random.default_rng(seed)
    chunk = _max_batch(len(p.vertices), len(p.inputs))
    verdict = None
    for start in range(0, angle_samples + 1, chunk):
        # the base angles, then the samples, each pass's drawn as it starts
        rows = min(chunk, angle_samples + 1 - start)
        angles = rng.uniform(0.0, 2.0 * math.pi, size=(rows - (start == 0), p.n_measurements))
        if start == 0:
            angles = np.concatenate([_base_angles(p), angles])
        eng = _run_branches(p, angles)
        first, uniform = _classify_batch(eng, p.outputs, tolerance)
        del eng  # the batch's tensor, before the next pass allocates
        verdict = verdict or first
        if not uniform:
            break
    classification, witness = verdict
    return DeterminismVerdict(classification, uniform, witness, angle_samples, seed, tolerance)


def _bfs_rank(g: OpenGraphState) -> dict[int, int]:
    """Rank of each vertex from a breadth-first walk from the inputs, each
    layer sorted by label; each component without an input follows, walked
    from its least label.  The k-th vertex of a layer ranks len(rank) + 2k,
    not len(rank) + k, so layers can interleave and two vertices can share
    a rank: the oracle's contraction order, and so its matrices' bytes,
    follow these ranks."""
    rank: dict[int, int] = {}

    def search(layer: list[int]) -> None:
        while layer:
            base = len(rank)
            for k, q in enumerate(layer):
                rank[q] = base + 2 * k
            near: set[int] = set()
            for q in layer:
                near.update(g._adjacency[q])
            layer = sorted(near.difference(rank))

    search(list(g.inputs))
    for q in g.vertices:
        if q not in rank:
            search([q])
    return rank


def realized_embedding(
    g: OpenGraphState,
    meas_angles: Mapping[int, float],
    prep_angles: Mapping[int, float] | None = None,
) -> np.ndarray:
    """Correction-free projection map of a geometry, rescaled by 2^{n/2}.

    Prepares every non-input qubit, applies all entanglers, and projects
    each measured qubit onto its outcome-0 bra times sqrt(2), so the
    rescaling is exact at any n and no factor 2^{n/2} is ever formed.  On
    geometries with flow this equals every rescaled branch map of the
    synthesized pattern and is an isometry.  Preparation angles default to
    0.  Raises PatternError on a missing or non-finite angle,
    SimulationError when the most qubits in flight exceed the dense tensor
    bound.  Entanglers run in the order of
    :func:`_bfs_rank`, by the later endpoint first, so the qubits in flight
    do not depend on the vertex labels; each qubit is prepared just before
    its first entangler and projected, if measured, right after its last one.
    """
    _check_angles("measurement", g.measured, meas_angles)
    preps = dict.fromkeys(g.prepared, 0.0)
    if prep_angles:
        preps.update(prep_angles)
        _check_angles("preparation", g.prepared, preps)
    rank = _bfs_rank(g)

    def later_first(edge: tuple[int, int]) -> tuple[int, int]:
        a, b = rank[edge[0]], rank[edge[1]]
        return (a, b) if a > b else (b, a)

    # one step per qubit in no entangler, then one per entangler
    steps = [(q,) for q in g.vertices if not g._adjacency[q]]
    steps += sorted(g.edges, key=later_first)
    last_step = {q: k for k, step in enumerate(steps) for q in step}
    # the measured qubits that leave after each step, in step order (both
    # g.measured and each edge are ascending), and the most in flight
    leaving: list[list[int]] = [[] for _ in steps]
    for q in g.measured:
        leaving[last_step[q]].append(q)
    seen, peak = set(g.inputs), len(g.inputs)
    live = peak
    for step, done in zip(steps, leaving):
        for q in step:
            if q not in seen:
                seen.add(q)
                live += 1
        peak = max(peak, live)
        live -= len(done)
    _check_dense_bytes(1, peak, len(g.inputs))
    eng = _TensorEngine(g.inputs, 1, len(g.inputs))
    for step, done in zip(steps, leaving):
        for q in step:
            if q not in eng.axis_of:
                eng.add_qubit(q, plus_ket(preps[q]))
        if len(step) == 2:
            eng.phase(step[1], -1.0, step[0])
        for q in done:
            eng.contract_bra(q, meas_angles[q])
            # the bra's 1/sqrt(2), cancelled as it is applied; scale was 1
            eng.scale = 1.0
    return eng.maps(0, g.outputs)[0]


def simulate_circuit(c: Circuit) -> np.ndarray:
    """Matrix of a circuit from its input wires to its output wires.

    Ancilla wires enter as plus states and are contracted into the map;
    the returned matrix has one output-space axis ordered by the circuit's
    declared output wires and one input axis per input wire in declaration
    order.  Runs on :class:`_TensorEngine`, one wire per axis, so it
    raises SimulationError, before allocating, unless the wires plus the
    input wires number at most 23 (the dense byte budget).
    """
    from .circuit_extract import CZGate, PhaseGate

    inputs = [w.id for w in c.wires if w.source == "input"]
    _check_dense_bytes(1, len(c.wires), len(inputs))
    eng = _TensorEngine(inputs, 1, len(inputs))
    for w in c.wires:
        if w.source == "plus":
            eng.add_qubit(w.id, plus_ket(0.0))
    for gate in c.gates:
        if isinstance(gate, CZGate):
            eng.phase(gate.b, -1.0, gate.a)
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
