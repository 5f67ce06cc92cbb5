"""Exact branch simulation of measurement patterns.

The engine (:class:`_TensorEngine`) is a dense complex tensor over the live
qubits.  Two routes are kept on purpose: :func:`run_branch` evaluates one
outcome string column by column with 2x2 gate matrices (the simple
reference), while :func:`enumerate_branches` and the dense route of
``classify_determinism`` run one tensor pass per angle vector, with no batch
axis, in which each measured qubit is rotated into its measurement basis
and kept as a branch index, so every branch map at that vector falls out of
one pass.  The two agree to rounding and are
cross-checked in the test suite.

A pass runs the pattern's plan (:attr:`Pattern._plan`, lowered on its first
pass): the commands as integer opcodes, in a lazy order that defers each
preparation and entangler until a command needs it.  A pass applies no
matrices: a preparation is one in-place product that adds its qubit's axis
(:meth:`_TensorEngine.prepare`, the engine's one way to add a qubit), and
every gate is an in-place phase, swap or butterfly on the halves of one
axis, restricted for a dependent correction to the slice where its
signal's branch bit is 1.  Every dense simulation fits one byte budget,
checked before anything is allocated: at most 23 qubits plus inputs.
``classify_determinism`` (:mod:`causalflow.verdict`) first asks the
Pauli-frame certificate, in pure Python, and calls :func:`_classify_dense`
only for a pattern it declines; that runs one pass per angle vector and
stops at the first that is not deterministic.  The same engine
gives a geometry's :func:`realized_embedding` and the map of an extracted
circuit (:func:`simulate_circuit`).  Verdicts do not depend on enumeration
order.

This is the package's only module that imports numpy; the rewrite rules and
their identity checks are in :mod:`causalflow.rewrite_rules`, without it.
The package loads this module on the first use of one of its names, and
``classify_determinism`` on the first pattern the certificate declines.
"""

from __future__ import annotations

import cmath
import itertools
import math
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .graph_model import OpenGraphState, _Frozen
from .pattern import (
    DEFAULT_TOLERANCE,
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
    _ENTANGLE,
    _MEASURE,
    _PREPARE,
    _X,
    _Z,
)
from .verdict import Classification, DeterminismVerdict, Witness, _check_tolerance, _runnable_or_raise

if TYPE_CHECKING:
    from .circuit_extract import Circuit

_SQRT2_INV = 1.0 / math.sqrt(2.0)
# Each preparation and each butterfly shrinks the engine's deferred scale by
# sqrt(2), and can grow its amplitudes by as much; at this scale the two are
# multiplied together.
_MIN_SCALE = 2.0**-500
# The index of the first k whole axes, for every k up to the budget's 23 axes.
_LEADING = [(slice(None),) * k for k in range(24)]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


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


class BranchReport(_Frozen):
    """One branch: its outcome string, linear map, and optional probability.

    ``outcomes`` orders bits by measurement occurrence (first measurement
    is the leftmost character).  ``branch_map`` maps the input space to the
    output space with bases ordered by the sorted input/output vertex
    lists.  ``probability`` is filled when an input state was supplied.
    Reports compare by identity.
    """

    __slots__ = ("outcomes", "branch_map", "probability")
    outcomes: str
    branch_map: np.ndarray
    probability: float | None

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self, outcomes: str, branch_map: np.ndarray, probability: float | None = None
    ) -> None:
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "branch_map", branch_map)
        object.__setattr__(self, "probability", probability)


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
    _check_dense_bytes(p._walk.live_peak, 0)
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
    """All-branches tensor engine, one angle vector per pass: the one kernel
    under :func:`enumerate_branches`, :func:`_classify_dense`,
    :func:`realized_embedding` and the circuit simulator.

    :attr:`t` is the tensor in memory order: one axis per qubit, named by
    :attr:`axis_of`, then one domain axis per input, always the last axes.
    It starts one row: the constructor checks the byte budget for ``qubits``
    (the most held at once) and the domain axes, allocates a zero row with
    room for them, and writes ones on the input diagonal, where each input's
    qubit axis equals its domain axis: the identity on the inputs, in their
    order.  :meth:`prepare` adds every other qubit on axis 0, outermost in
    the row, in place; a measurement keeps its axis as a branch index, and
    :meth:`contract_bra` projects a qubit out into a second row.

    Every gate acts in place on the 0-half and the 1-half of one qubit's
    axis, restricted, when a control is given, to the slice where the
    control's axis (a branch bit, or a live qubit for controlled-Z) reads
    1: :meth:`phase` multiplies the 1-half by a factor (Z, CZ, P(theta));
    :meth:`flip` swaps the halves (X, and between two phases the
    phase-conjugated X); :meth:`butterfly` maps them to (a + f b, a - f b)
    /sqrt(2) (the Hadamard at f = 1, and the measurement at alpha with
    f = e^{-i alpha}).  Their scratch is at most half the tensor.  The
    1/sqrt(2) of each plus state and each butterfly collect in :attr:`scale`,
    applied when :meth:`maps` reads the result, or once ``scale`` falls
    below :data:`_MIN_SCALE`, so amplitudes and ``scale`` stay normal floats.
    """

    def __init__(self, inputs: Sequence[int], qubits: int) -> None:
        n_in = len(inputs)
        _check_dense_bytes(qubits, n_in)
        self.branch_order: list[int] = []
        self.scale = 1.0
        self.axis_of = {q: k for k, q in enumerate(inputs)}
        self._row = np.zeros(1 << (qubits + n_in), dtype=complex)
        self._spare: np.ndarray | None = None
        self.t = self._row[: 1 << 2 * n_in].reshape((2,) * (2 * n_in))
        # the input diagonal: a view of the row, each input's axis striding
        # over both its qubit axis and its domain axis
        strides = [a + b for a, b in zip(self.t.strides, self.t.strides[n_in:])]
        np.ndarray((2,) * n_in, complex, self._row, strides=strides)[...] = 1.0

    def prepare(self, q: int, phase: complex) -> None:
        """Prepare ``q`` in (|0> + ``phase`` |1>)/sqrt(2) on axis 0, in place:
        the tensor as it stands is the new 0-half, one product writes the
        1-half after it in the row, and the 1/sqrt(2) goes to :attr:`scale`."""
        size = self.t.size
        np.multiply(self._row[:size], phase, self._row[size : 2 * size])
        self.t = self._row[: 2 * size].reshape((2,) * (self.t.ndim + 1))
        self.axis_of = {key: a + 1 for key, a in self.axis_of.items()}
        self.axis_of[q] = 0
        self._shrink_scale()

    def _half(self, q: int, bit: int, control: int | None = None) -> np.ndarray:
        """The ``bit``-half of ``q`` where ``control``, if given, reads 1: a
        view, by the ``...``, even when it indexes every axis."""
        ax = self.axis_of[q]
        if control is None:
            return self.t[_LEADING[ax] + (bit, ...)]
        c = self.axis_of[control]
        if ax < c:
            return self.t[_LEADING[ax] + (bit,) + _LEADING[c - ax - 1] + (1, ...)]
        return self.t[_LEADING[c] + (1,) + _LEADING[ax - c - 1] + (bit, ...)]

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

    def butterfly(self, q: int, factor: complex | None = None) -> None:
        """Map the halves (a, b) of ``q`` to (a + f b, a - f b)/sqrt(2), with
        f = ``factor`` (1 when omitted): :meth:`phase` by f followed by the
        Hadamard, in one pass."""
        zero = self._half(q, 0)
        one = self._half(q, 1)
        scratch = one.copy() if factor is None else one * factor
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
        """Project ``q`` onto sqrt(2) times the outcome-0 bra of the
        measurement at ``alpha``, (1, e^{-i alpha}).  The halves' sum goes to a
        second row of the same size, and the rows trade places: no overlap."""
        self.phase(q, cmath.exp(-1j * alpha))
        zero, one = self._half(q, 0), self._half(q, 1)
        if self._spare is None:
            self._spare = np.empty(self._row.size, dtype=complex)
        self._row, self._spare = self._spare, self._row
        self.t = np.add(zero, one, self._row[: zero.size].reshape(zero.shape))
        ax = self.axis_of.pop(q)
        self.axis_of = {key: a - (a > ax) for key, a in self.axis_of.items()}

    def maps(self, outputs: Sequence[int]) -> np.ndarray:
        """Branch maps as (branches, output space, input space), a new array
        of the tensor's size."""
        live = self.axis_of.keys() - set(self.branch_order)
        if live != set(outputs):
            raise SimulationError(f"live qubits {sorted(live)} differ from outputs")
        perm = [self.axis_of[q] for q in (*self.branch_order, *outputs)]
        # the domain axes, after every qubit's
        perm += range(len(self.axis_of), self.t.ndim)
        out = np.multiply(self.t.transpose(perm), self.scale, order="C")
        return out.reshape(1 << len(self.branch_order), 1 << len(outputs), -1)


# Bytes one dense pass may hold at once, checked before it allocates: every
# tensor of up to 23 qubit and input axes fits (see _pass_bytes).
_MAX_DENSE_BYTES = 512 * 2**20
_COMPLEX_BYTES = np.dtype(complex).itemsize
# Three np.getbufsize() buffers of complex entries: the two that numpy's
# ufunc iteration allocates for a strided operand, as the kernel's halves
# are, and small objects.
_BUFFER_RESERVE = 3 * np.getbufsize() * _COMPLEX_BYTES
# Bytes of one of enumerate_branches' BranchReport records beside its map:
# the record, its outcome string and the map's view (254 on CPython 3.11).
_RECORD_BYTES = 320


def _pass_bytes(n_qubits: int, n_inputs: int) -> int:
    """Bytes a dense pass over ``n_qubits`` and ``n_inputs`` is charged: its
    tensor, a complex amplitude per basis state of those axes, plus the
    larger of what it holds while it runs (half a tensor of kernel scratch,
    a float and a complex of angle and factor per qubit, and
    :data:`_BUFFER_RESERVE` for numpy's iteration buffers) and what the
    classifier holds after it (three tensors, the witness's probes included:
    see :func:`_classify_entry` and :func:`_pair_witness`), which also hold
    the second row of :meth:`_TensorEngine.contract_bra` and its map."""
    tensor = _COMPLEX_BYTES << (n_qubits + n_inputs)
    return tensor + max(tensor // 2 + 24 * n_qubits + _BUFFER_RESERVE, 3 * tensor)


def _check_dense_bytes(n_qubits: int, n_inputs: int) -> None:
    """Raise, before allocating, for a dense pass over the byte budget."""
    if _pass_bytes(n_qubits, n_inputs) > _MAX_DENSE_BYTES:
        raise SimulationError(
            f"{n_qubits} qubits with {n_inputs} inputs exceed "
            f"the dense tensor bound of {_MAX_DENSE_BYTES} bytes"
        )


def _run_branches(p: Pattern, angles: Sequence[float]) -> _TensorEngine:
    """One dense pass over every branch at one angle vector, ``angles[k]``
    the k-th measurement's angle.  It runs the pattern's steps
    (:attr:`Pattern._plan`, lowered on the pattern's first pass) in an
    allocation with room for every qubit, and keeps every measured qubit's
    axis as a branch index."""
    factors = np.exp(-1j * np.asarray(angles, dtype=float))
    eng = _TensorEngine(p.inputs, len(p.vertices))
    for op, q, arg, signals in p._plan:
        if op == _PREPARE:
            eng.prepare(q, arg)
        elif op == _ENTANGLE:
            eng.phase(q, -1.0, arg)
        elif op == _MEASURE:
            eng.butterfly(q, factors[arg])
            eng.branch_order.append(q)
        elif op == _X:
            for s in signals:
                eng.flip(q, s)
        elif op == _Z:
            for s in signals:
                eng.phase(q, -1.0, s)
        else:
            for s in signals:
                eng.phase(q, arg.conjugate(), s)
                eng.flip(q, s)
                eng.phase(q, arg, s)
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
    byte budget on top of the pass, before the pass.

    Raises
    ------
    ValueError
        If ``tolerance`` is not finite and positive, or ``input_state`` is
        not a vector of 2^|I| finite amplitudes whose norm is 1 within
        ``tolerance``; both are checked before any simulation.
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
        norm = float(np.linalg.norm(input_state))
        if abs(norm - 1.0) > tolerance:
            raise ValueError(f"input state has norm {norm!r}, not 1 within {tolerance!r}")
    records = _RECORD_BYTES << n
    if _pass_bytes(len(p.vertices), len(p.inputs)) + records > _MAX_DENSE_BYTES:
        raise SimulationError(
            f"{1 << n} branch records and their pass exceed the dense tensor "
            f"bound of {_MAX_DENSE_BYTES} bytes"
        )
    maps = _run_branches(p, list(p.measure_angles().values())).maps(p.outputs)
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
    """Probe input states on branches ``r`` and ``s`` of one pass's maps;
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
    9/16 of the maps' size.  With the d^2 defects, at most half that size,
    and ``maps``, that is within the three tensors that :func:`_pass_bytes`
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
    """Verdict and witness of one pass's branch maps, (branches, output
    space, input space).

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
    times the maps' largest modulus count as zero.  No quantity here
    depends on the order of the output basis.
    Temporaries are a work array of the size of ``maps``, freed before the
    probes, and moduli of half its size: with ``maps``, within the three
    tensors that :func:`_pass_bytes` charges beside the pass's own.
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


def _classify_dense(p: Pattern, angle_samples: int, seed: int, tolerance: float) -> DeterminismVerdict:
    """The verdict of a runnable pattern with measurements that the
    certificate declined: one full pass (:func:`_run_branches`) per angle
    vector, the pattern's own and then each sample as it is drawn, each
    classified (:func:`_classify_entry`) until one is not deterministic; the
    verdict is the first pass's.  The maps are read with the outputs in the
    order of their axes, the cheapest read: nothing the classifier computes
    depends on the order of the output basis."""
    rng = np.random.default_rng(seed)
    angles = list(p.measure_angles().values())
    first = None
    for sample in range(angle_samples + 1):
        if sample:
            angles = rng.uniform(0.0, 2.0 * math.pi, size=p.n_measurements)
        eng = _run_branches(p, angles)
        maps = eng.maps(sorted(p.outputs, key=eng.axis_of.__getitem__))
        del eng  # the pass's tensor, before the classifier's temporaries
        verdict = _classify_entry(maps, tolerance)
        first = first or verdict
        if not verdict[0].is_deterministic:
            break
    uniform = verdict[0].is_deterministic
    return DeterminismVerdict(first[0], uniform, first[1], angle_samples, seed, tolerance)


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
    eng = _TensorEngine(g.inputs, peak)
    for step, done in zip(steps, leaving):
        for q in step:
            if q not in eng.axis_of:
                eng.prepare(q, cmath.exp(1j * preps[q]))
        if len(step) == 2:
            eng.phase(step[1], -1.0, step[0])
        for q in done:
            eng.contract_bra(q, meas_angles[q])
    return eng.maps(g.outputs)[0]


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
    eng = _TensorEngine(inputs, len(c.wires))
    for w in c.wires:
        if w.source == "plus":
            eng.prepare(w.id, 1.0)
    for gate in c.gates:
        if isinstance(gate, CZGate):
            eng.phase(gate.b, -1.0, gate.a)
        elif isinstance(gate, PhaseGate):
            eng.phase(gate.wire, cmath.exp(1j * gate.theta))
        else:
            eng.butterfly(gate.wire)
    return eng.maps(c.outputs)[0]


def max_deviation_up_to_phase(a: np.ndarray, b: np.ndarray) -> float:
    """Entrywise distance between ``a`` and the best phase-aligned ``b``;
    ValueError unless the two have one shape."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shapes {a.shape} and {b.shape} differ")
    overlap = np.vdot(b, a)
    if abs(overlap) < 1e-30:
        return float(max(np.max(np.abs(a)), np.max(np.abs(b))))
    phase = overlap / abs(overlap)
    return float(np.max(np.abs(a - phase * b)))
