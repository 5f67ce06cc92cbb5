"""The rewrite rules behind the dependent corrections, as one table.

The corrections that :func:`causalflow.pattern.synthesize` emits, and the
Pauli-frame certificate (:func:`causalflow.pattern.certify_strong`) that
proves them, rest on a few rules of the measurement calculus (Danos,
Kashefi & Panangaden, J. ACM 2007): a Z fuses into a measurement, X and Z
move through CZ, X fixes |+>.  Each row of :data:`RULES` states one rule
once, and :func:`check_rewrite_identities` evaluates the rows with
pure-Python complex arithmetic, so this module loads no numpy.
"""

from __future__ import annotations

import cmath
import math
import random
from operator import mul
from typing import Callable, NamedTuple

from .graph_model import _Frozen
from .pattern import EXACT_TOLERANCE
from .verdict import _check_count, _check_tolerance

# A matrix is a tuple of rows; on two qubits, a is the high bit.
Matrix = tuple[tuple[complex, ...], ...]

_SQRT2_INV = 1.0 / math.sqrt(2.0)
_I = ((1, 0), (0, 1))
_X = ((0, 1), (1, 0))
_Z = ((1, 0), (0, -1))
_CZ = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1))


def _mul(*factors: Matrix) -> Matrix:
    """The product of ``factors``, left to right."""
    out = factors[0]
    for b in factors[1:]:
        columns = tuple(zip(*b))
        out = tuple(tuple(sum(map(mul, row, col)) for col in columns) for row in out)
    return out


def _pair(a: Matrix, b: Matrix, s: int) -> Matrix:
    """(a on qubit a, b on qubit b)^s for a signal s in {0, 1}."""
    if not s:
        a = b = _I
    return tuple(tuple(x * y for x in ra for y in rb) for ra in a for rb in b)


def _xa(alpha: float) -> Matrix:
    """The phase-conjugated X of an ``XA`` correction: Z(alpha) X Z(-alpha)."""
    return ((0, cmath.exp(-1j * alpha)), (cmath.exp(1j * alpha), 0))


def _plus(alpha: float) -> Matrix:
    """The state of a preparation ``N`` at alpha, as a column."""
    return ((_SQRT2_INV,), (cmath.exp(1j * alpha) * _SQRT2_INV,))


def _bra(alpha: float, outcome: int) -> Matrix:
    """The outcome's bra of a measurement ``M`` at alpha, as a row."""
    e = cmath.exp(-1j * alpha) * _SQRT2_INV
    return ((_SQRT2_INV, -e if outcome else e),)


class Rule(NamedTuple):
    """A rewrite rule: ``lhs(alpha, s) == rhs(alpha, s)`` for signals s = 0, 1.
    ``updates`` names the steps of :func:`causalflow.pattern.certify_strong`
    that rest on it, by the command they sweep.  Checked at every angle of
    the sweep, or at ``angle`` alone (0.0 for a rule without one); one check
    per signal value, named ``-s0`` and ``-s1``, unless not ``per_signal``:
    then the worse of the two."""

    name: str
    updates: tuple[str, ...]
    statement: str
    lhs: Callable[[float, int], Matrix]
    rhs: Callable[[float, int], Matrix]
    angle: float | None = None
    per_signal: bool = True


# A correction's Pauli is raised to the signal s; a command's own gate, bra or
# state is not.
RULES = (
    Rule("anachronical-z-fuses-into-measurement", ("M",), "M q puts Z on q for its own signal",
         lambda t, s: _mul(_bra(t, s), _Z if s else _I), lambda t, s: _bra(t, 0), per_signal=False),
    Rule("z-conjugates-to-x-pair-through-cz", ("E",), "E a b maps X_b to Z_a X_b",
         lambda t, s: _mul(_pair(_Z, _I, s), _CZ, _pair(_I, _X, s)),
         lambda t, s: _mul(_pair(_I, _X, s), _CZ), 0.0),
    Rule("x-through-cz-leaves-z", ("E",), "E a b maps X_a to X_a Z_b",
         lambda t, s: _mul(_pair(_X, _I, s), _CZ),
         lambda t, s: _mul(_CZ, _pair(_I, _Z, s), _pair(_X, _I, s)), 0.0),
    Rule("z-commutes-with-cz", ("Z", "E"), "E a b maps Z_a to Z_a",
         lambda t, s: _mul(_pair(_Z, _I, s), _CZ), lambda t, s: _mul(_CZ, _pair(_Z, _I, s)), 0.0),
    Rule("x-fixes-plus-preparation", ("X", "N"), "N q at 0 absorbs an X on q",
         lambda t, s: _mul(_X if s else _I, _plus(0.0)), lambda t, s: _plus(0.0), 0.0),
    Rule("phase-x-pair-through-cz", ("XA",), "E a b maps XA(alpha)_b to Z_a XA(alpha)_b",
         lambda t, s: _mul(_pair(_Z, _I, s), _CZ, _pair(_I, _xa(t), s)),
         lambda t, s: _mul(_pair(_I, _xa(t), s), _CZ)),
    Rule("phase-x-through-cz-leaves-z", ("XA",), "E a b maps XA(alpha)_a to XA(alpha)_a Z_b",
         lambda t, s: _mul(_pair(_xa(t), _I, s), _CZ),
         lambda t, s: _mul(_CZ, _pair(_I, _Z, s), _pair(_xa(t), _I, s))),
    Rule("phase-x-fixes-matching-preparation", ("XA", "N"),
         "N q at alpha absorbs an XA(alpha) on q",
         lambda t, s: _mul(_xa(t) if s else _I, _plus(t)), lambda t, s: _plus(t)),
    # M q at alpha projects onto the eigenvectors of its observable XA(alpha),
    # so a rule for the observable holds for both outcomes' projectors, but not
    # for their bras, as the certificate would need
    Rule("y-measurement-x-equals-z", (),
         "M q at pi/2 relabels its outcomes under X as under Z, up to a phase per bra",
         lambda t, s: _mul(_X if s else _I, _xa(t), _X if s else _I),
         lambda t, s: _mul(_Z if s else _I, _xa(t), _Z if s else _I), math.pi / 2.0),
    Rule("x-measurement-absorbs-x", (),
         "M q at 0 keeps its outcomes under X, up to the sign of the outcome-1 bra",
         lambda t, s: _mul(_X if s else _I, _xa(t), _X if s else _I), lambda t, s: _xa(t), 0.0),
)


class IdentityCheck(_Frozen):
    """Max deviation observed for one rewrite identity."""

    name: str
    max_deviation: float
    worst_angle: float
    passed: bool

    def __init__(self, name: str, max_deviation: float, worst_angle: float, passed: bool) -> None:
        d = self.__dict__
        d["name"] = name
        d["max_deviation"] = max_deviation
        d["worst_angle"] = worst_angle
        d["passed"] = passed


class IdentityReport(_Frozen):
    checks: tuple[IdentityCheck, ...]
    tolerance: float

    def __init__(self, checks: tuple[IdentityCheck, ...], tolerance: float) -> None:
        d = self.__dict__
        d["checks"] = checks
        d["tolerance"] = tolerance

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        checks = [{name: getattr(c, name) for name in c._fields} for c in self.checks]
        return {"tolerance": self.tolerance, "ok": self.ok, "checks": checks}


def check_rewrite_identities(
    tolerance: float = EXACT_TOLERANCE,
    grid_points: int = 16,
    n_random: int = 50,
    seed: int = 7,
) -> IdentityReport:
    """Check every rule of :data:`RULES` at ``grid_points`` uniform angles and
    ``n_random`` drawn from ``random.Random(seed)``, reporting each check's
    largest entrywise deviation and the first angle it was found at.  Raises
    TypeError unless the counts are integers, and ValueError for a tolerance
    that is not finite and positive, a negative count, or no angles at all.
    """
    _check_tolerance(tolerance)
    grid_points = _check_count("grid_points", grid_points)
    n_random = _check_count("n_random", n_random)
    rng = random.Random(_check_count("seed", seed))
    if grid_points + n_random == 0:
        raise ValueError("no angles to check: grid_points + n_random is 0")
    swept = [2.0 * math.pi * k / grid_points for k in range(grid_points)]
    swept += [rng.uniform(0.0, 2.0 * math.pi) for _ in range(n_random)]
    worst: dict[str, tuple[float, float]] = {}
    for rule in RULES:
        for alpha in swept if rule.angle is None else (rule.angle,):
            for s in (0, 1):
                pairs = zip(rule.lhs(alpha, s), rule.rhs(alpha, s))
                deviation = float(max(abs(x - y) for a, b in pairs for x, y in zip(a, b)))
                name = f"{rule.name}-s{s}" if rule.per_signal else rule.name
                if name not in worst or deviation > worst[name][0]:
                    worst[name] = (deviation, alpha)
    checks = tuple(
        IdentityCheck(name, deviation, angle, deviation < tolerance)
        for name, (deviation, angle) in sorted(worst.items())
    )
    return IdentityReport(checks, tolerance)
