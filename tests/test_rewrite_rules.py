"""Tests for the table of rewrite rules: the identity checks' arguments and
angles, their import route, and the tie between each row and the steps of
the Pauli-frame certificate that rest on it."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import causalflow
from causalflow import check_rewrite_identities, classify_determinism, parse_pattern
from causalflow import verdict as front
from causalflow.pattern import certify_strong
from causalflow.rewrite_rules import RULES, _CZ, _I, _X, _Z, _bra, _mul, _pair, _plus

# The steps of certify_strong's backward sweep, by the command they sweep.
CERTIFICATE_STEPS = {"M", "Z", "X", "XA", "E", "N"}

_PATH2 = "V: 1 2\nI: 1\nO: 2\nN 2 {prep}\nE 1 2\nM 1 0.7\n"
_PATH3 = "V: 1 2 3\nI: 1\nO: 3\nN 2 0.0\nN 3 0.0\nE 1 2\nE 2 3\nM 1 0.7\nX 2 [1]\n"
_FORK = "V: 1 2 3\nI: 1\nO: 2 3\nN 2 0.0\nN 3 0.0\nE 1 2\nE 2 3\nM 1 0.7\nX 2 [1]\n"

# For each step, a pattern that the certificate proves through the step's
# rules and a twin on which they do not apply, which it must decline.
STEP_PATTERNS = {
    # the outcome-1 bra is the outcome-0 bra after Z: without the X, the Z
    # that M 1 puts on its own signal reaches the input
    "M": (_PATH2.format(prep=0.0) + "X 2 [1]\n", _PATH2.format(prep=0.0)),
    # the Z on 3 passes E 1 2 and cancels the one that X 2 leaves at E 2 3
    "Z": (_PATH3 + "Z 3 [1]\nM 2 1.1\nX 3 [2]\n", _PATH3 + "M 2 1.1\nX 3 [2]\n"),
    # a plain X is absorbed by a preparation at 0 only, not by the twin's at 0.5
    "X": (_PATH2.format(prep=0.0) + "X 2 [1]\n", _PATH2.format(prep=0.5) + "X 2 [1]\n"),
    # an XA is absorbed by a preparation at its own angle only
    "XA": (
        _PATH2.format(prep=0.5) + "XA 2 0.5 [1]\n",
        _PATH2.format(prep=0.5) + "XA 2 0.500001 [1]\n",
    ),
    # E 2 3 maps X_2 X_3 to -X_2 X_3 Z_2 Z_3: the -1 on one signal is a sign
    # no later step cancels
    "E": (_FORK + "Z 3 [1]\n", _FORK + "X 3 [1]\nZ 2 [1]\nZ 3 [1]\n"),
    # N absorbs an X; a Z would turn |+> into |->
    "N": (_PATH2.format(prep=0.0) + "X 2 [1]\n", _PATH2.format(prep=0.0) + "X 2 [1]\nZ 2 [1]\n"),
}


def _check_names(rule) -> list[str]:
    return [f"{rule.name}-s{s}" for s in (0, 1)] if rule.per_signal else [rule.name]


def _deviation(a, b) -> float:
    return max(abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


class TestCertificateRows:
    """Each step of certify_strong against the rows of RULES that state it."""

    def test_every_step_has_a_verified_row_and_every_row_a_use(self):
        """Every certificate step is named by a row whose checks pass, and
        every row names a certificate step, but the two that hold only for
        the outcome projectors, which no step may use."""
        checks = {c.name: c for c in check_rewrite_identities().checks}
        assert sorted(checks) == sorted(n for rule in RULES for n in _check_names(rule))
        for step in CERTIFICATE_STEPS:
            rows = [rule for rule in RULES if step in rule.updates]
            assert rows, step
            assert all(checks[n].passed for rule in rows for n in _check_names(rule)), step
        assert {u for rule in RULES for u in rule.updates} == CERTIFICATE_STEPS
        unused = {rule.name for rule in RULES if not rule.updates}
        assert unused == {"y-measurement-x-equals-z", "x-measurement-absorbs-x"}

    @pytest.mark.parametrize("step", sorted(STEP_PATTERNS))
    def test_each_step_certifies_where_its_rows_apply(self, monkeypatch, step):
        """The step's pattern is certified and its twin declined, and the
        dense route, with the certificate off, agrees: strong and uniform,
        and not."""
        certified, declined = (parse_pattern(text) for text in STEP_PATTERNS[step])
        assert certify_strong(certified) is True
        assert certify_strong(declined) is False
        monkeypatch.setattr(front, "certify_strong", lambda p: False)
        verdict = classify_determinism(certified, angle_samples=5)
        assert verdict.is_strong and verdict.uniform
        verdict = classify_determinism(declined, angle_samples=5)
        assert not (verdict.is_strong and verdict.uniform)

    def test_signs_the_form_records(self):
        """The two -1s of the sweep's sign form: an X moved right of a Z
        (the X-type step), and X_a X_b through E a b, which gives
        -X_a X_b Z_a Z_b (the E step)."""

        def minus(m):
            return tuple(tuple(-x for x in row) for row in m)

        assert _deviation(_mul(_X, _Z), minus(_mul(_Z, _X))) == 0
        both = _pair(_X, _X, 1)
        assert _deviation(_mul(_CZ, both, _CZ), minus(_mul(both, _pair(_Z, _Z, 1)))) == 0
        assert _deviation(_mul(_CZ, both, _CZ), _mul(both, _pair(_Z, _Z, 1))) == 2

    def test_a_z_is_not_absorbed(self):
        """N absorbs an X but not a Z, and M absorbs neither in its bras: an
        X before a zero-angle M flips the outcome-1 bra's sign, which the
        projector rows do not see."""
        assert _deviation(_mul(_X, _plus(0.0)), _plus(0.0)) == 0
        assert _deviation(_mul(_Z, _plus(0.0)), _plus(0.0)) == pytest.approx(math.sqrt(2))
        assert _deviation(_mul(_bra(0.0, 1), _X), _bra(0.0, 1)) == pytest.approx(math.sqrt(2))
        assert _deviation(_mul(_bra(0.0, 0), _I), _bra(0.0, 0)) == 0


class TestCheckArguments:
    @pytest.mark.parametrize("tolerance", [math.nan, -1.0, 0.0, math.inf])
    def test_bad_tolerance_rejected(self, tolerance):
        """A nan or negative tolerance used to give a report of failures."""
        with pytest.raises(ValueError, match="tolerance must be finite and > 0"):
            check_rewrite_identities(tolerance=tolerance)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"grid_points": -3, "n_random": 3}, "grid_points"),
            ({"n_random": -2}, "n_random"),
            ({"grid_points": 0, "n_random": -1}, "n_random"),
            ({"seed": -1}, "seed"),
        ],
    )
    def test_negative_count_names_its_argument(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= 0"):
            check_rewrite_identities(**kwargs)

    @pytest.mark.parametrize("kwargs", [{"grid_points": 2.5}, {"n_random": "3"}, {"seed": 1.0}])
    def test_non_integer_count_rejected(self, kwargs):
        with pytest.raises(TypeError, match="must be an integer"):
            check_rewrite_identities(**kwargs)

    def test_no_angles_keeps_its_error(self):
        with pytest.raises(ValueError, match="no angles to check"):
            check_rewrite_identities(grid_points=0, n_random=0)


def test_seed_reproduces_every_worst_angle():
    """With no grid, the worst angle of every check of a swept rule is one
    of the angles ``random.Random(seed)`` draws, and every other check's is
    its rule's own; a second run with the same seed gives every worst angle
    again."""
    first = check_rewrite_identities(grid_points=0, n_random=20, seed=11)
    again = check_rewrite_identities(grid_points=0, n_random=20, seed=11)
    assert [c.worst_angle for c in first.checks] == [c.worst_angle for c in again.checks]
    rng = random.Random(11)
    drawn = {rng.uniform(0.0, 2.0 * math.pi) for _ in range(20)}
    own = {n: rule.angle for rule in RULES for n in _check_names(rule)}
    assert sum(angle is None for angle in own.values()) == 7
    for check in first.checks:
        angle = own[check.name]
        assert check.worst_angle in (drawn if angle is None else {angle}), check.name


def test_check_loads_no_numpy():
    """Importing the table's module and running the default check, in a
    fresh interpreter, leaves numpy out of ``sys.modules``."""
    code = (
        "import sys\n"
        "from causalflow.rewrite_rules import check_rewrite_identities\n"
        "assert check_rewrite_identities().ok\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(causalflow.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
