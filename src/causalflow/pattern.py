"""Measurement-calculus command sequences.

A pattern is an ordered list of preparation, entanglement, measurement and
dependent-correction commands over declared qubits, together with input and
output subsets.  Commands are stored left-to-right in execution order.
Each command kind has one row in a table of its text token and field
names, from which printing, parsing and relabelling are derived.

Patterns are immutable values and synthesis is a pure function.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Mapping, Union

from .graph_model import Flow, OpenGraphState, ValidationResult, validate_flow

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
    if a >= TWO_PI:
        a = 0.0
    return a


def _is_zero_angle(angle: float) -> bool:
    """The one exact-angle rule: ``angle`` is 0 mod 2*pi within 1e-12."""
    a = normalize_angle(angle)
    return a < _ANGLE_EPS or TWO_PI - a < _ANGLE_EPS


def drop_x_corrections(
    p: Pattern, meas_angles: Mapping[int, float] | None = None
) -> Pattern:
    """Remove X corrections aimed at qubits measured at angle exactly zero.

    The Pauli-X special case: such a correction commutes into the
    measurement without changing any outcome statistics, each branch map
    moving at most by a sign, so the realized channel is untouched.  Zero
    means within 1e-12 (:func:`_is_zero_angle`).  Corrections into outputs
    and phase-conjugated corrections are kept.  ``meas_angles`` overrides
    the angles recorded in the pattern, for callers that carry them
    separately.
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


@dataclass(frozen=True)
class Prepare:
    """Prepare ``qubit`` in the equatorial state with the given phase."""

    qubit: int
    angle: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "angle", normalize_angle(self.angle))


@dataclass(frozen=True)
class Entangle:
    """Apply controlled-Z between two qubits (order irrelevant)."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a > self.b:
            a, b = self.a, self.b
            object.__setattr__(self, "a", b)
            object.__setattr__(self, "b", a)


@dataclass(frozen=True)
class Measure:
    """Destructive equatorial measurement of ``qubit`` at ``angle``."""

    qubit: int
    angle: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "angle", normalize_angle(self.angle))


@dataclass(frozen=True)
class CorrectX:
    """Pauli-X on ``qubit`` iff the XOR of the listed outcomes is 1."""

    qubit: int
    signals: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "signals", frozenset(self.signals))


@dataclass(frozen=True)
class CorrectZ:
    """Pauli-Z on ``qubit`` iff the XOR of the listed outcomes is 1."""

    qubit: int
    signals: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "signals", frozenset(self.signals))


@dataclass(frozen=True)
class CorrectXPhase:
    """Phase-conjugated X correction: Z(angle) X Z(-angle), signal gated.

    Absorbed exactly by a preparation with the same phase, which is what
    synthesis uses it for when the corrected qubit has a nonzero
    preparation angle.
    """

    qubit: int
    angle: float
    signals: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "angle", normalize_angle(self.angle))
        object.__setattr__(self, "signals", frozenset(self.signals))


Command = Union[Prepare, Entangle, Measure, CorrectX, CorrectZ, CorrectXPhase]
_CORRECTIONS = (CorrectX, CorrectZ, CorrectXPhase)


class PatternError(ValueError):
    """Raised for ill-formed patterns or synthesis preconditions."""


class PatternFormatError(PatternError):
    """Raised when pattern text cannot be parsed."""


class SimulationError(RuntimeError):
    """Raised when a pattern cannot be simulated within configured bounds."""


# The simulator's defaults, kept here so that callers which only name them
# (the command line) need not load the simulator and numpy.
DEFAULT_TOLERANCE = 1e-9
EXACT_TOLERANCE = 1e-12
DEFAULT_MAX_MEASUREMENTS = 12


@dataclass(frozen=True)
class Pattern:
    """Command sequence with declared qubits, inputs and outputs.

    ``commands`` run left to right.  Input qubits hold arbitrary states
    from the start; every non-input must be prepared and every non-output
    measured for the pattern to be runnable.
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
        object.__setattr__(self, "vertices", tuple(sorted(set(vertices))))
        object.__setattr__(self, "inputs", tuple(sorted(set(inputs))))
        object.__setattr__(self, "outputs", tuple(sorted(set(outputs))))
        object.__setattr__(self, "commands", tuple(commands))

    @property
    def measurement_order(self) -> tuple[int, ...]:
        """Measured qubits in the order their measurements appear."""
        return tuple(c.qubit for c in self.commands if isinstance(c, Measure))

    @property
    def n_measurements(self) -> int:
        return len(self.measurement_order)

    def measure_angles(self) -> dict[int, float]:
        return {c.qubit: c.angle for c in self.commands if isinstance(c, Measure)}

    def prep_angles(self) -> dict[int, float]:
        return {c.qubit: c.angle for c in self.commands if isinstance(c, Prepare)}

    def geometry(self) -> OpenGraphState:
        """The underlying open graph state (entanglement edges plus I/O)."""
        edges = [(c.a, c.b) for c in self.commands if isinstance(c, Entangle)]
        return OpenGraphState(self.vertices, edges, self.inputs, self.outputs)

    def without_corrections(self) -> Pattern:
        """Strip all dependent corrections (for determinism sanity checks)."""
        kept = tuple(c for c in self.commands if not isinstance(c, _CORRECTIONS))
        return Pattern(self.vertices, self.inputs, self.outputs, kept)


def check_runnable(p: Pattern) -> ValidationResult:
    """Scan the command sequence for runnability violations.

    Violation codes: R0 (a command depends on an outcome not yet
    measured), R1 (a command acts on a measured qubit or an unprepared
    non-input), R2 (measured/prepared sets do not match the declared
    outputs/inputs).
    """
    violations: list[str] = []
    declared = set(p.vertices)
    iset = set(p.inputs)
    oset = set(p.outputs)
    available = set(iset)
    measured: set[int] = set()

    def targets(cmd: Command) -> tuple[int, ...]:
        if isinstance(cmd, Entangle):
            return (cmd.a, cmd.b)
        return (cmd.qubit,)

    for idx, cmd in enumerate(p.commands):
        for q in targets(cmd):
            if q not in declared:
                violations.append(f"R1: command {idx} acts on undeclared qubit {q}")
        if isinstance(cmd, _CORRECTIONS):
            late = sorted(set(cmd.signals) - measured)
            if late:
                violations.append(
                    f"R0: command {idx} depends on unmeasured outcomes {late}"
                )
        if isinstance(cmd, Prepare):
            if cmd.qubit in iset:
                violations.append(f"R2: input qubit {cmd.qubit} prepared")
            if cmd.qubit in measured:
                violations.append(f"R1: measured qubit {cmd.qubit} prepared")
            elif cmd.qubit in available:
                violations.append(f"R1: qubit {cmd.qubit} prepared twice")
            else:
                available.add(cmd.qubit)
            continue
        for q in targets(cmd):
            if q not in declared:
                continue
            if q in measured:
                violations.append(f"R1: command {idx} acts on measured qubit {q}")
            elif q not in available:
                violations.append(f"R1: command {idx} acts on unprepared qubit {q}")
        if isinstance(cmd, Measure):
            if cmd.qubit in oset:
                violations.append(f"R2: output qubit {cmd.qubit} measured")
            if cmd.qubit not in measured:
                measured.add(cmd.qubit)

    for q in sorted(declared - oset - measured):
        violations.append(f"R2: non-output qubit {q} never measured")
    for q in sorted(declared - iset - (available - iset)):
        violations.append(f"R2: non-input qubit {q} never prepared")
    return ValidationResult(tuple(violations))


def _measured_in_flow_order(g: OpenGraphState, fl: Flow) -> list[int]:
    return sorted(g.measured, key=lambda i: (fl.levels[i], i))


def _check_angles(
    kind: str, qubits: Iterable[int], angles: Mapping[int, float]
) -> None:
    """Raise PatternError unless every qubit has a finite ``kind`` angle."""
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
    cmds.extend(Entangle(u, v) for u, v in sorted(set(g.edges)))
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
    deterministic only at exactly pi/2, so it is never uniform.

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
    body = match.group(1).strip()
    if not body:
        return frozenset()
    return frozenset(int(s) for s in body.replace(",", " ").split())


# The one per-kind table: each command class with its text token and, in
# constructor order, each field's name with how the text format writes and
# reads it.  Fields named ``angle`` are floats, ``signals`` outcome sets,
# and every other field is a qubit id.
_FIELD_CODECS = {"angle": (repr, float), "signals": (_format_signals, _parse_signals)}
_COMMANDS: dict[type, tuple[str, tuple[tuple[str, Callable, Callable], ...]]] = {
    cls: (token, tuple((f.name, *_FIELD_CODECS.get(f.name, (str, int))) for f in fields(cls)))
    for cls, token in [(Prepare, "N"), (Entangle, "E"), (Measure, "M"),
                       (CorrectX, "X"), (CorrectZ, "Z"), (CorrectXPhase, "XA")]
}
_COMMAND_OF_TOKEN = {token: (cls, fs) for cls, (token, fs) in _COMMANDS.items()}


def relabel(p: Pattern, mapping: Mapping[int, int]) -> Pattern:
    """Rename qubits throughout a pattern via a bijective id map."""

    def m(q: int) -> int:
        return mapping.get(q, q)

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
                ids = [int(t) for t in line[2:].split()]
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
