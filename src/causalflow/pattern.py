"""Measurement-calculus command sequences.

A pattern is an ordered list of preparation, entanglement, measurement and
dependent-correction commands over declared qubits, together with input and
output subsets.  Commands are stored left-to-right in execution order.
Each command kind has one row in a table of its text token and field
names, from which printing, parsing and relabelling are derived.

Patterns are immutable values and synthesis is a pure function.  What the
runnability check, the measurement accessors and the certificate need to
know about a pattern's commands comes from one walk over them, made on first
use and kept with the pattern; the dense pass's plan, from a second.

:func:`certify_strong` decides strong, uniform determinism without numbers:
one backward sweep pulls each outcome's Pauli operator back through the
commands, as the proof of the source paper's Theorem 1 does.
``classify_determinism`` asks it first, so a certified pattern is strong at
any size, with no plan made and no numpy loaded; only the patterns the
certificate declines take the simulator's dense pass, within the byte budget.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from functools import cached_property
from typing import Callable, Iterable, Mapping, Union

from .graph_model import Flow, OpenGraphState, ValidationResult, _Frozen, _text_id, validate_flow

TWO_PI = 2.0 * math.pi
_ANGLE_EPS = 1e-12


def normalize_angle(angle: float) -> float:
    """Map an angle into [0, 2*pi); a non-finite angle raises PatternError."""
    a = float(angle)
    if not math.isfinite(a):
        raise PatternError(f"angle {a!r} is not finite")
    a = math.fmod(a, TWO_PI)
    if a < 0.0:
        a += TWO_PI
    if a >= TWO_PI or a == 0.0:  # 2*pi after rounding, or fmod's -0.0
        a = 0.0
    return a


def _is_zero_angle(angle: float) -> bool:
    """The one exact-angle rule: ``angle`` is 0 mod 2*pi within 1e-12."""
    a = normalize_angle(angle)
    return a < _ANGLE_EPS or TWO_PI - a < _ANGLE_EPS


def drop_x_corrections(p: Pattern) -> Pattern:
    """Remove X corrections aimed at qubits measured at angle exactly zero.

    The Pauli-X special case: such a correction commutes into the
    measurement without changing any outcome statistics, each branch map
    moving at most by a sign, so the realized channel is untouched.  Zero
    means within 1e-12 (:func:`_is_zero_angle`), and the angle is the one
    the pattern's own measurement command records.  Corrections into
    outputs and phase-conjugated corrections are kept.
    """
    droppable = {q for q, a in p.measure_angles().items() if _is_zero_angle(a)}
    kept = tuple(
        c
        for c in p.commands
        if not (isinstance(c, CorrectX) and c.qubit in droppable)
    )
    return Pattern(p.vertices, p.inputs, p.outputs, kept)


class Prepare(_Frozen):
    """Prepare ``qubit`` in the equatorial state with the given phase."""

    qubit: int
    angle: float

    def __init__(self, qubit: int, angle: float = 0.0) -> None:
        d = self.__dict__
        d["qubit"] = qubit
        d["angle"] = normalize_angle(angle)


class Entangle(_Frozen):
    """Apply controlled-Z between two qubits (order irrelevant)."""

    a: int
    b: int

    def __init__(self, a: int, b: int) -> None:
        d = self.__dict__
        d["a"], d["b"] = (b, a) if a > b else (a, b)


class Measure(_Frozen):
    """Destructive equatorial measurement of ``qubit`` at ``angle``."""

    qubit: int
    angle: float

    def __init__(self, qubit: int, angle: float = 0.0) -> None:
        d = self.__dict__
        d["qubit"] = qubit
        d["angle"] = normalize_angle(angle)


class CorrectX(_Frozen):
    """Pauli-X on ``qubit`` iff the XOR of the listed outcomes is 1."""

    qubit: int
    signals: frozenset[int]

    def __init__(self, qubit: int, signals: Iterable[int] = frozenset()) -> None:
        d = self.__dict__
        d["qubit"] = qubit
        d["signals"] = frozenset(signals)


class CorrectZ(_Frozen):
    """Pauli-Z on ``qubit`` iff the XOR of the listed outcomes is 1."""

    qubit: int
    signals: frozenset[int]

    def __init__(self, qubit: int, signals: Iterable[int] = frozenset()) -> None:
        d = self.__dict__
        d["qubit"] = qubit
        d["signals"] = frozenset(signals)


class CorrectXPhase(_Frozen):
    """Phase-conjugated X correction: Z(angle) X Z(-angle), signal gated.

    Absorbed exactly by a preparation with the same phase, which is what
    synthesis uses it for when the corrected qubit has a nonzero
    preparation angle.
    """

    qubit: int
    angle: float
    signals: frozenset[int]

    def __init__(self, qubit: int, angle: float, signals: Iterable[int] = frozenset()) -> None:
        d = self.__dict__
        d["qubit"] = qubit
        d["angle"] = normalize_angle(angle)
        d["signals"] = frozenset(signals)


Command = Union[Prepare, Entangle, Measure, CorrectX, CorrectZ, CorrectXPhase]
_CORRECTIONS = (CorrectX, CorrectZ, CorrectXPhase)


class PatternError(ValueError):
    """Raised for ill-formed patterns or synthesis preconditions."""


class PatternFormatError(PatternError):
    """Raised when pattern text cannot be parsed."""


class SimulationError(RuntimeError):
    """Raised when a simulation would exceed the byte budget or fails a check."""


# The simulator's default tolerances, kept here so that callers which only
# name them (the command line) need not load the simulator and numpy.  Its
# one resource bound is a byte budget, not a count of measurements.
DEFAULT_TOLERANCE = 1e-9
EXACT_TOLERANCE = 1e-12


# What one pass over a pattern's commands finds: the runnability violations
# (see check_runnable), the measurements as (qubit, angle) in command order,
# and the most qubits live at once (inputs plus preparations less measurements).
_Walk = namedtuple("_Walk", "violations measures live_peak")


class Pattern(_Frozen):
    """Command sequence with declared qubits, inputs and outputs.

    ``commands`` run left to right.  Input qubits hold arbitrary states
    from the start; every non-input must be prepared and every non-output
    measured for the pattern to be runnable.  A pattern never changes, so
    what its commands say is computed once, on first use, and cached: the
    runnability violations, measurements and live-qubit peak (:attr:`_walk`)
    and the commands in the dense pass's order (:attr:`_plan`).
    """

    vertices: tuple[int, ...]
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    commands: tuple[Command, ...]

    def __init__(
        self,
        vertices: Iterable[int],
        inputs: Iterable[int],
        outputs: Iterable[int],
        commands: Iterable[Command] = (),
    ) -> None:
        d = self.__dict__
        d["vertices"] = tuple(sorted(set(vertices)))
        d["inputs"] = tuple(sorted(set(inputs)))
        d["outputs"] = tuple(sorted(set(outputs)))
        d["commands"] = tuple(commands)

    @cached_property
    def _walk(self) -> _Walk:
        """The one pass over the commands that every reader shares, made on
        first use: the violations, the measurements and the live peak."""
        declared = set(self.vertices)
        iset = set(self.inputs)
        oset = set(self.outputs)
        violations = [f"R2: input qubit {q} not declared" for q in self.inputs if q not in declared]
        violations += [f"R2: output qubit {q} not declared" for q in self.outputs if q not in declared]
        available = set(iset)
        measured: set[int] = set()
        measures: list[tuple[int, float]] = []
        live = peak = len(iset)
        for idx, cmd in enumerate(self.commands):
            kind = type(cmd)
            if kind is Entangle:
                # the constructor orders the two ends
                targets = (cmd.a,) if cmd.a == cmd.b else (cmd.a, cmd.b)
            else:
                q = cmd.qubit
                targets = (q,)
            for t in targets:
                if t not in declared:
                    violations.append(f"R1: command {idx} acts on undeclared qubit {t}")
            if kind is Prepare:
                live += 1
                peak = max(peak, live)
                if q in iset:
                    violations.append(f"R2: input qubit {q} prepared")
                if q in measured:
                    violations.append(f"R1: measured qubit {q} prepared")
                elif q in available:
                    violations.append(f"R1: qubit {q} prepared twice")
                else:
                    available.add(q)
                continue
            if kind is Entangle:
                if cmd.a == cmd.b:
                    violations.append(f"R1: command {idx} entangles qubit {cmd.a} with itself")
            elif kind is not Measure:
                late = sorted(cmd.signals - measured)
                if late:
                    violations.append(f"R0: command {idx} depends on unmeasured outcomes {late}")
            for t in targets:
                if t not in declared:
                    continue
                if t in measured:
                    violations.append(f"R1: command {idx} acts on measured qubit {t}")
                elif t not in available:
                    violations.append(f"R1: command {idx} acts on unprepared qubit {t}")
            if kind is Measure:
                live -= 1
                measures.append((q, cmd.angle))
                if q in oset:
                    violations.append(f"R2: output qubit {q} measured")
                measured.add(q)
        for q in sorted(declared - oset - measured):
            violations.append(f"R2: non-output qubit {q} never measured")
        for q in sorted(declared - available):
            violations.append(f"R2: non-input qubit {q} never prepared")
        return _Walk(tuple(violations), tuple(measures), peak)

    @cached_property
    def _plan(self) -> tuple[Command, ...]:
        """The commands in the dense pass's lazy order, made on the first
        dense pass over the pattern: each ``N`` just before the first command
        on its qubit, each ``E`` just before the first measurement or X/XA
        correction on either endpoint (it commutes with ``Z`` and with other
        ``E``s), and those never needed at the end, in their own order.  No
        command moves earlier and no gate moves, so the plan is a permutation
        of :attr:`commands` with the same maps, and early gates act on the few
        qubits prepared so far.  It is made for any pattern, runnable or not.
        """
        cmds = self.commands
        plan: list[Command] = []
        placed = bytearray(len(cmds))
        # the deferred preparations and entanglers, by qubit
        prep: dict[int, int] = {}
        ents: dict[int, list[int]] = {}

        def place(j: int) -> None:
            placed[j] = 1
            plan.append(cmds[j])

        for idx, cmd in enumerate(cmds):
            kind = type(cmd)
            if kind is Prepare:
                prep[cmd.qubit] = idx
                continue
            if kind is Entangle:
                ents.setdefault(cmd.a, []).append(idx)
                ents.setdefault(cmd.b, []).append(idx)
                continue
            # a gate: place the deferred commands it needs, then the gate
            q = cmd.qubit
            if kind is not CorrectZ and q in ents:
                for e in ents.pop(q):
                    if not placed[e]:
                        for r in (cmds[e].a, cmds[e].b):
                            if r in prep:
                                place(prep.pop(r))
                        place(e)
            if q in prep:
                place(prep.pop(q))
            place(idx)
        # the leftovers, which no gate needs, in their own order
        plan += (cmd for cmd, flag in zip(cmds, placed) if not flag)
        return tuple(plan)

    @property
    def measurement_order(self) -> tuple[int, ...]:
        """Measured qubits in the order their measurements appear."""
        return tuple(q for q, _ in self._walk.measures)

    @property
    def n_measurements(self) -> int:
        return len(self._walk.measures)

    def measure_angles(self) -> dict[int, float]:
        return dict(self._walk.measures)

    def prep_angles(self) -> dict[int, float]:
        return {c.qubit: c.angle for c in self.commands if isinstance(c, Prepare)}

    def geometry(self) -> OpenGraphState:
        """The underlying open graph state (entanglement edges plus I/O);
        GraphFormatError when they do not form a valid open graph, as when
        an entangler repeats or joins a qubit to itself."""
        edges = [(c.a, c.b) for c in self.commands if isinstance(c, Entangle)]
        return OpenGraphState(self.vertices, edges, self.inputs, self.outputs)

    def without_corrections(self) -> Pattern:
        """Strip all dependent corrections (for determinism sanity checks)."""
        kept = tuple(c for c in self.commands if not isinstance(c, _CORRECTIONS))
        return Pattern(self.vertices, self.inputs, self.outputs, kept)


def check_runnable(p: Pattern) -> ValidationResult:
    """The runnability violations that the pattern's walk found.

    Violation codes: R0 (a command depends on an outcome not yet
    measured), R1 (a command acts on an undeclared, measured or unprepared
    non-input qubit, or entangles a qubit with itself), R2 (undeclared
    inputs or outputs, or measured/prepared sets that do not match the
    declared outputs/inputs).  Undeclared inputs, then outputs, come first,
    ascending; then command order; then the never-measured and the
    never-prepared qubits.  The walk runs once per pattern, so repeated
    checks cost nothing.
    """
    return ValidationResult(p._walk.violations)


def _xor(a: frozenset[int] | None, b: frozenset[int]) -> frozenset[int]:
    """The symmetric difference of two outcome sets, or the one set itself
    when the other is empty or None: the sweep shares the commands' sets."""
    return b if not a else a if not b else a ^ b


def certify_strong(p: Pattern) -> bool:
    """Whether a Pauli-frame certificate proves every branch map of ``p``
    equal at every measurement-angle vector: True means strongly and
    uniformly deterministic; False proves nothing.

    The argument, the proof of the source paper's Theorem 1 run on the
    commands.  Outcome 1 of a measurement is its outcome-0 bra after a Z
    (<-_a| = <+_a| Z), and a correction whose signal reads 1 is its Pauli,
    so the branch map of an outcome string s is the all-zero branch map
    with one Pauli operator P_k inserted per signal k with s_k = 1.  Each
    qubit is read in the Z(theta) frame of its preparation angle theta
    (an input's is 0): Z and the entanglers commute with Z(theta), the
    preparation becomes |+>, and an ``XA`` correction at theta becomes a
    plain X, as does an ``X`` at theta zero; an X-type correction that does
    not match its qubit's frame under the one exact-angle rule
    (:func:`_is_zero_angle` of the difference) declines.  Measurement angles
    never enter, so a certificate holds at every angle.

    One backward sweep pulls every P_k back to the start.  The sets
    ``x[q]`` and ``z[q]`` hold the signals k (measured qubits' ids, as in
    ``signals``) whose P_k has an X or a Z on qubit q; the product over the
    signals set in s is a sign times X^x(s) Z^z(s), and the sign is (-1) to
    the quadratic form s^T F s over GF(2), whose row k is the set
    ``form[k]``.  Walking backwards, with ^ the symmetric difference:

    - ``M q`` puts Z on q for its own signal; nothing later may act on q.
    - ``Z q [S]`` toggles Z on q for each signal in S: z[q] ^= S.
    - An X on q for the signals in S moves right of Z^z(s): form[k] ^= z[q]
      for each k in S, then x[q] ^= S.
    - ``E a b`` conjugates X_a to X_a Z_b and X_b to Z_a X_b; reordering
      the two when both are present costs -1, the form's x[a] x[b] term.
    - ``N q`` absorbs X, which fixes |+>; a Z left on q would turn it into
      |->, so the sweep declines.

    At the start only inputs remain: every P_k must act trivially on them,
    and the form must have a zero diagonal and be symmetric, so that
    s^T F s is 0 for every s.  Then every branch map equals the all-zero
    one, at every angle.  Loop patterns decline, since their ``XA(pi/2)``
    does not match a zero preparation.  A pattern that is not runnable
    declines; no pattern raises.
    """
    if p._walk.violations:
        return False
    theta = p.prep_angles()
    none: frozenset[int] = frozenset()
    x: dict[int, frozenset[int]] = {}
    z: dict[int, frozenset[int]] = {}
    form: dict[int, frozenset[int]] = {}
    for cmd in reversed(p.commands):
        kind = type(cmd)
        if kind is Entangle:
            xa, xb = x.get(cmd.a, none), x.get(cmd.b, none)
            if xb:
                for k in xa:
                    form[k] = _xor(form.get(k), xb)
            z[cmd.a] = _xor(z.get(cmd.a), xb)
            z[cmd.b] = _xor(z.get(cmd.b), xa)
            continue
        q = cmd.qubit
        if kind is Measure:
            # nothing acts on q after it is measured (the walk found no violation)
            z[q] = frozenset((q,))
        elif kind is Prepare:
            if z.pop(q, none):
                return False
            x.pop(q, None)
        else:
            signals = cmd.signals
            if kind is CorrectZ:
                z[q] = _xor(z.get(q), signals)
                continue
            angle = cmd.angle if kind is CorrectXPhase else 0.0
            if not _is_zero_angle(angle - theta.get(q, 0.0)):
                return False
            zq = z.get(q, none)
            if zq:
                for k in signals:
                    form[k] = _xor(form.get(k), zq)
            x[q] = _xor(x.get(q), signals)
    if any(x.values()) or any(z.values()):
        return False
    return all(
        k not in row and all(k in form.get(l, none) for l in row) for k, row in form.items()
    )


def _measured_in_flow_order(g: OpenGraphState, fl: Flow) -> list[int]:
    """Measured qubits by flow level, then id: synthesis's and extraction's order."""
    return sorted(g.measured, key=lambda i: (fl.levels[i], i))


def _check_angles(
    kind: str, qubits: Iterable[int], angles: Mapping[int, float]
) -> None:
    """Raise PatternError unless every qubit has a finite ``kind`` angle."""
    try:
        if all(math.isfinite(angles[q]) for q in qubits):
            return
    except KeyError:
        pass
    missing = sorted(set(qubits) - set(angles))
    if missing:
        raise PatternError(f"{kind} angles missing for {missing}")
    bad = sorted(q for q in qubits if not math.isfinite(angles[q]))
    if bad:
        raise PatternError(f"{kind} angles not finite for {bad}")


def _check_synthesis_inputs(
    g: OpenGraphState,
    fl: Flow,
    meas_angles: Mapping[int, float],
    prep_angles: Mapping[int, float] | None,
) -> dict[int, float]:
    check = validate_flow(g, fl, allow_loops=bool(fl.loops))
    if not check.ok:
        raise PatternError(f"invalid flow: {'; '.join(check.violations)}")
    _check_angles("measurement", g.measured, meas_angles)
    preps = {q: 0.0 for q in g.prepared}
    if prep_angles is not None:
        _check_angles("preparation", g.prepared, prep_angles)
        preps.update({q: normalize_angle(a) for q, a in prep_angles.items()})
    for i in fl.loops:
        if not _is_zero_angle(preps.get(i, 0.0)):
            raise PatternError(
                f"loop vertex {i} requires zero preparation angle"
            )
    return preps


def _loop_correction_block(g: OpenGraphState, i: int) -> list[Command]:
    """Dependent corrections for a loop vertex.

    The stabilizer of the loop vertex, with its own-qubit factor fused
    into the measurement, leaves Z corrections on every neighbor.  Plain Z
    on all neighbors equalizes the branch maps only up to a quarter-turn
    phase per outcome, so the Z on the lowest-id neighbor is emitted in
    the phase-exact form X then X-phase(pi/2) (their product is -iZ),
    which makes the branch maps literally equal at a right-angle
    measurement.
    """
    nbrs = sorted(g._adjacency[i])
    if not nbrs:
        return []
    j0 = nbrs[0]
    block: list[Command] = [
        CorrectX(j0, {i}),
        CorrectXPhase(j0, math.pi / 2.0, {i}),
    ]
    block.extend(CorrectZ(k, {i}) for k in nbrs[1:])
    return block


def _prologue(
    g: OpenGraphState, preps: Mapping[int, float]
) -> list[Command]:
    cmds: list[Command] = [Prepare(q, preps[q]) for q in g.prepared]
    cmds.extend(Entangle(u, v) for u, v in sorted(g.edges))
    return cmds


def _x_correction(target: int, angle: float, signal: int) -> Command:
    if _is_zero_angle(angle):
        return CorrectX(target, {signal})
    return CorrectXPhase(target, angle, {signal})


def synthesize(
    g: OpenGraphState,
    fl: Flow,
    meas_angles: Mapping[int, float],
    prep_angles: Mapping[int, float] | None = None,
) -> Pattern:
    """Build the deterministic correction pattern for a flow geometry.

    Emits, in execution order: preparations for every non-input qubit,
    all entanglers, then for each measured qubit ``i`` (by ascending
    level, ties by id) its measurement followed by an X correction on
    ``f(i)`` and Z corrections on the other neighbors of ``f(i)``, each
    gated on the outcome of ``i``.  The X correction carries the phase of
    the corrected qubit's preparation when that is nonzero.  A loop vertex
    (the Pauli-Y relaxation, ``find_flow(g, loop_candidates=...)``) gets
    the stabilizer block of :func:`_loop_correction_block`; its pattern is
    strongly deterministic only at exactly pi/2, so never strongly
    deterministic at every angle.  It can still be deterministic at every
    angle: when no loop vertex has a neighbour, each branch map is a
    scalar multiple of the others.

    The result passes :func:`check_runnable`; without loops, all of its
    branch maps are equal for every choice of angles.

    Raises
    ------
    PatternError
        If the flow does not validate or an angle map is not total.
    """
    return _synthesize(g, fl, meas_angles, prep_angles, z_first=False)


def synthesize_stabilizer_form(
    g: OpenGraphState, fl: Flow, meas_angles: Mapping[int, float]
) -> Pattern:
    """Deterministic pattern via the dependent graph-stabilizer route.

    For each measured qubit ``i`` the corrections are read off the
    stabilizer of ``f(i)`` (X there, Z on all its neighbors), gated on the
    outcome of ``i``.  The stabilizer's Z factor on ``i`` itself cancels
    against the anachronical Z that converts the measurement into a fixed
    projection, so neither is emitted and the pattern stays runnable.  The
    surviving corrections act on pairwise distinct qubits and commute, so
    this realizes exactly the same branch maps as :func:`synthesize`; only
    the within-block command order differs (Z before X).

    Preparation angles must all be zero in this form.
    """
    return _synthesize(g, fl, meas_angles, None, z_first=True)


def _synthesize(
    g: OpenGraphState,
    fl: Flow,
    meas_angles: Mapping[int, float],
    prep_angles: Mapping[int, float] | None,
    z_first: bool,
) -> Pattern:
    preps = _check_synthesis_inputs(g, fl, meas_angles, prep_angles)
    cmds = _prologue(g, preps)
    adjacency = g._adjacency
    for i in _measured_in_flow_order(g, fl):
        cmds.append(Measure(i, meas_angles[i]))
        if i in fl.loops:
            cmds.extend(_loop_correction_block(g, i))
            continue
        j = fl.f[i]
        x = [_x_correction(j, preps.get(j, 0.0), i)]
        zs = [CorrectZ(k, {i}) for k in sorted(adjacency[j] - {i})]
        cmds.extend(zs + x if z_first else x + zs)
    pattern = Pattern(g.vertices, g.inputs, g.outputs, cmds)
    check = check_runnable(pattern)
    if not check.ok:
        raise AssertionError(f"synthesized pattern not runnable: {check.violations}")
    return pattern


def adjoint(p: Pattern, reverse: Flow) -> Pattern:
    """Adjoint pattern under a reverse flow.

    Swaps the roles of inputs and outputs and exchanges the preparation
    and measurement angle vectors: former preparations become measurements
    at the same angle and vice versa.  On bi-flow geometries the result
    realizes the adjoint of the original pattern's unitary.

    Raises
    ------
    GraphFormatError
        If the pattern's geometry is not a valid open graph, for instance
        when it repeats an entangler (:meth:`Pattern.geometry`).
    PatternError
        If ``reverse`` is not a valid flow on the role-swapped geometry.
    """
    g = p.geometry()
    meas = p.measure_angles()
    preps = p.prep_angles()
    return synthesize(
        g.reversed(), reverse, meas_angles=preps, prep_angles=meas
    )


def _format_signals(signals: frozenset[int]) -> str:
    return "[" + ",".join(str(s) for s in sorted(signals)) + "]"


_SIGNAL_RE = re.compile(r"^\[([0-9,\s]*)\]$")


def _parse_signals(token: str) -> frozenset[int]:
    match = _SIGNAL_RE.match(token)
    if not match:
        raise PatternFormatError(f"bad signal set {token!r}")
    ids = [_text_id(s) for s in match.group(1).replace(",", " ").split()]
    if len(set(ids)) < len(ids):
        # [1,1] fires on s1 XOR s1, never: it is not the set {1}
        repeated = next(s for s in ids if ids.count(s) > 1)
        raise PatternFormatError(f"signal set {token!r} repeats outcome {repeated}")
    return frozenset(ids)


def _parse_angle(token: str) -> float:
    """An angle read from text: what ``float`` reads, less the underscores
    and non-ASCII digits it would also accept."""
    if "_" in token or not token.isascii():
        raise ValueError(f"bad angle {token!r}")
    return float(token)


# The one per-kind table: each command class with its text token and, in
# constructor order, each field's name with how the text format writes and
# reads it.  Fields named ``angle`` are floats, ``signals`` outcome sets,
# and every other field is a qubit id.
_FIELD_CODECS = {"angle": (repr, _parse_angle), "signals": (_format_signals, _parse_signals)}
_COMMANDS: dict[type, tuple[str, tuple[tuple[str, Callable, Callable], ...]]] = {
    cls: (
        token,
        tuple((name, *_FIELD_CODECS.get(name, (str, _text_id))) for name in cls._fields),
    )
    for cls, token in [(Prepare, "N"), (Entangle, "E"), (Measure, "M"),
                       (CorrectX, "X"), (CorrectZ, "Z"), (CorrectXPhase, "XA")]
}
_COMMAND_OF_TOKEN = {token: (cls, fs) for cls, (token, fs) in _COMMANDS.items()}


def relabel(p: Pattern, mapping: Mapping[int, int]) -> Pattern:
    """Rename qubits throughout a pattern via a bijective id map; ids the
    map leaves out keep their names.  PatternError, naming the ids, when
    it sends two of the pattern's qubits to one id."""
    # each new id, by the first qubit renamed to it
    source: dict[int, int] = {}

    def m(q: int) -> int:
        new = mapping.get(q, q)
        if source.setdefault(new, q) != q:
            raise PatternError(f"relabel sends qubits {source[new]} and {q} to one id, {new}")
        return new

    def renamed(name: str, value):
        if name == "signals":
            return {m(s) for s in value}
        return value if name == "angle" else m(value)

    def relabel_cmd(cmd: Command) -> Command:
        cls = type(cmd)
        return cls(*[renamed(n, getattr(cmd, n)) for n, _, _ in _COMMANDS[cls][1]])

    return Pattern(
        (m(v) for v in p.vertices),
        (m(v) for v in p.inputs),
        (m(v) for v in p.outputs),
        tuple(relabel_cmd(c) for c in p.commands),
    )


def print_pattern(p: Pattern) -> str:
    """Render a pattern in the line-based text format.

    Header lines declare the qubits and the input/output sets; each
    following line is one command in execution order.  Angles are printed
    with full float round-trip precision.
    """
    lines = [
        "V: " + " ".join(str(v) for v in p.vertices),
        "I: " + " ".join(str(v) for v in p.inputs),
        "O: " + " ".join(str(v) for v in p.outputs),
    ]
    for cmd in p.commands:
        token, fs = _COMMANDS[type(cmd)]
        parts = [token]
        for name, write, _ in fs:
            parts.append(write(getattr(cmd, name)))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_pattern(text: str) -> Pattern:
    """Parse the text format produced by :func:`print_pattern`; ``#``
    starts a comment, and each command takes exactly its own tokens."""
    vertices: list[int] = []
    inputs: list[int] = []
    outputs: list[int] = []
    commands: list[Command] = []
    seen_headers: set[str] = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith(("V:", "I:", "O:")):
            key = line[0]
            seen_headers.add(key)
            try:
                ids = [_text_id(t) for t in line[2:].split()]
            except ValueError as exc:
                raise PatternFormatError(f"bad header line {line!r}") from exc
            {"V": vertices, "I": inputs, "O": outputs}[key].extend(ids)
            continue
        parts = line.split()
        cls, fs = _COMMAND_OF_TOKEN.get(parts[0], (None, ()))
        if cls is None or len(parts) != 1 + len(fs):
            raise PatternFormatError(f"bad command line {line!r}")
        try:
            args = []
            for (_, _, read), token in zip(fs, parts[1:]):
                args.append(read(token))
            commands.append(cls(*args))
        except ValueError as exc:
            if isinstance(exc, PatternFormatError):
                raise
            raise PatternFormatError(f"bad command line {line!r}") from exc
    if "V" not in seen_headers:
        raise PatternFormatError("missing V: header")
    return Pattern(vertices, inputs, outputs, commands)
