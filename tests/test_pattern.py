"""Tests for pattern runnability, synthesis, adjoints, and the text format."""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import causalflow
from causalflow import (
    CorrectX,
    CorrectXPhase,
    CorrectZ,
    Entangle,
    Flow,
    GraphFormatError,
    Measure,
    OpenGraphState,
    Pattern,
    PatternError,
    PatternFormatError,
    Prepare,
    adjoint,
    check_runnable,
    find_biflow,
    find_flow,
    parse_pattern,
    print_pattern,
    relabel,
    synthesize,
    synthesize_stabilizer_form,
)
from causalflow.pattern import normalize_angle
from conftest import hadamard_geometry, path_state, random_angles, random_open_graph

H_TEXT = "V: 1 2\nI: 1\nO: 2\nN 2 0.0\nE 1 2\nM 1 0.0\nX 2 [1]\n"


def hadamard_pattern() -> Pattern:
    return Pattern(
        [1, 2],
        [1],
        [2],
        [Prepare(2, 0.0), Entangle(1, 2), Measure(1, 0.0), CorrectX(2, {1})],
    )


class TestRunnability:
    def test_hadamard_pattern_ok(self):
        assert check_runnable(hadamard_pattern()).ok

    def test_anachronical_correction_violates_r0(self):
        p = Pattern(
            [1, 2],
            [1],
            [2],
            [Prepare(2), Entangle(1, 2), CorrectZ(2, {1}), Measure(1)],
        )
        result = check_runnable(p)
        assert any(v.startswith("R0") for v in result.violations)

    def test_measuring_output_violates_r2(self):
        p = Pattern(
            [1, 2],
            [1],
            [2],
            [Prepare(2), Entangle(1, 2), Measure(2), Measure(1)],
        )
        assert any(
            v.startswith("R2") and "output" in v
            for v in check_runnable(p).violations
        )

    def test_acting_on_unprepared_violates_r1(self):
        p = Pattern([1, 2], [1], [2], [Entangle(1, 2), Measure(1), Prepare(2)])
        assert any(
            v.startswith("R1") and "unprepared" in v
            for v in check_runnable(p).violations
        )

    def test_acting_on_measured_violates_r1(self):
        p = Pattern(
            [1, 2],
            [1],
            [2],
            [Prepare(2), Entangle(1, 2), Measure(1), CorrectX(1, {1})],
        )
        assert any(
            v.startswith("R1") and "measured" in v
            for v in check_runnable(p).violations
        )

    def test_missing_preparation_and_measurement(self):
        p = Pattern([1, 2, 3], [1], [3], [Prepare(2)])
        result = check_runnable(p)
        assert any("never measured" in v for v in result.violations)
        assert any("never prepared" in v for v in result.violations)

    def test_preparing_twice(self):
        p = Pattern([1, 2], [1], [1, 2], [Prepare(2), Prepare(2)])
        assert any("twice" in v for v in check_runnable(p).violations)

    def test_preparing_input(self):
        p = Pattern([1], [1], [1], [Prepare(1)])
        assert any(
            v.startswith("R2") and "input" in v
            for v in check_runnable(p).violations
        )

    def test_undeclared_io_and_self_entangler(self):
        """Undeclared inputs, then undeclared outputs, each ascending, come
        before the command violations; a self-entangler is one of those."""
        cmds = [Prepare(2), Entangle(1, 9), Entangle(2, 2), Measure(1)]
        assert check_runnable(Pattern([1, 2], [4, 3], [5, 2], cmds)).violations == (
            "R2: input qubit 3 not declared",
            "R2: input qubit 4 not declared",
            "R2: output qubit 5 not declared",
            "R1: command 1 acts on undeclared qubit 9",
            "R1: command 1 acts on unprepared qubit 1",
            "R1: command 2 entangles qubit 2 with itself",
            "R1: command 3 acts on unprepared qubit 1",
            "R2: non-input qubit 1 never prepared",
        )

    def test_self_entangler_lists_each_violation_once(self):
        """``E 4 4`` has one target: before ``N 4`` it acts on an unprepared
        qubit once, after its self-entangler line."""
        p = Pattern([4], [], [4], [Entangle(4, 4), Prepare(4)])
        assert check_runnable(p).violations == (
            "R1: command 0 entangles qubit 4 with itself",
            "R1: command 0 acts on unprepared qubit 4",
        )

    def test_walk_matches_golden_file(self):
        """Violations, measurement order and measurement angles on the verify
        corpus and its seeded non-runnable mutants, byte for byte as recorded
        (tests/data/make_runnable_golden.py writes the file)."""
        cases = json.loads(
            (Path(__file__).parent / "data" / "runnable_golden.json").read_text(encoding="utf-8")
        )
        assert len(cases) >= 300
        assert sum(bool(case["violations"]) for case in cases) >= 200
        for case in cases:
            p = parse_pattern(case["pattern"])
            got = {
                "violations": list(check_runnable(p).violations),
                "measurement_order": list(p.measurement_order),
                "measure_angles": [[q, a] for q, a in p.measure_angles().items()],
            }
            want = {key: case[key] for key in got}
            assert json.dumps(got) == json.dumps(want), case["pattern"]


class TestSynthesize:
    def test_hadamard_geometry(self):
        g = hadamard_geometry()
        fl = find_flow(g).flow
        p = synthesize(g, fl, {1: 0.0})
        assert p == hadamard_pattern()

    def test_path_three_command_order(self):
        g = path_state(3, [1], [3])
        fl = find_flow(g).flow
        p = synthesize(g, fl, {1: 0.4, 2: 1.3})
        assert p.commands == (
            Prepare(2, 0.0),
            Prepare(3, 0.0),
            Entangle(1, 2),
            Entangle(2, 3),
            Measure(1, 0.4),
            CorrectX(2, {1}),
            CorrectZ(3, {1}),
            Measure(2, 1.3),
            CorrectX(3, {2}),
        )

    def test_no_measured_qubits_gives_entanglers_only(self):
        g = OpenGraphState([1, 2, 3], [(1, 2), (2, 3)], [1, 2, 3], [1, 2, 3])
        p = synthesize(g, find_flow(g).flow, {})
        assert p.commands == (Entangle(1, 2), Entangle(2, 3))

    def test_nonzero_prep_angle_uses_phase_correction(self):
        g = path_state(3, [1], [3])
        fl = find_flow(g).flow
        p = synthesize(g, fl, {1: 0.4, 2: 1.3}, {2: 0.9, 3: 0.0})
        assert CorrectXPhase(2, 0.9, {1}) in p.commands
        assert CorrectX(3, {2}) in p.commands

    def test_missing_angle_rejected(self):
        g = path_state(3, [1], [3])
        fl = find_flow(g).flow
        with pytest.raises(PatternError, match="angles missing"):
            synthesize(g, fl, {1: 0.4})
        with pytest.raises(PatternError, match="angles missing"):
            synthesize(g, fl, {1: 0.4, 2: 0.0}, {2: 0.1})

    def test_invalid_flow_rejected(self):
        g = hadamard_geometry()
        with pytest.raises(PatternError, match="invalid flow"):
            synthesize(g, Flow({1: 2}, {1: 1, 2: 0}), {1: 0.0})

    def test_synthesized_patterns_are_runnable(self):
        rng = random.Random(13)
        arng = np.random.default_rng(13)
        built = 0
        while built < 30:
            g = random_open_graph(rng)
            result = find_flow(g)
            if not result.found:
                continue
            p = synthesize(
                g,
                result.flow,
                random_angles(arng, g.measured),
                random_angles(arng, g.prepared),
            )
            assert check_runnable(p).ok
            built += 1

    def test_signal_discipline(self):
        rng = random.Random(17)
        arng = np.random.default_rng(17)
        built = 0
        while built < 20:
            g = random_open_graph(rng)
            result = find_flow(g)
            if not result.found:
                continue
            fl = result.flow
            p = synthesize(g, fl, random_angles(arng, g.measured))
            for cmd in p.commands:
                if isinstance(cmd, (CorrectX, CorrectZ, CorrectXPhase)):
                    assert len(cmd.signals) == 1
                    (signal,) = cmd.signals
                    assert fl.levels[cmd.qubit] > fl.levels[signal]
            built += 1


class TestStabilizerForm:
    def test_same_corrections_stabilizer_order(self):
        g = path_state(3, [1], [3])
        fl = find_flow(g).flow
        p = synthesize_stabilizer_form(g, fl, {1: 0.4, 2: 1.3})
        assert p.commands == (
            Prepare(2, 0.0),
            Prepare(3, 0.0),
            Entangle(1, 2),
            Entangle(2, 3),
            Measure(1, 0.4),
            CorrectZ(3, {1}),
            CorrectX(2, {1}),
            Measure(2, 1.3),
            CorrectX(3, {2}),
        )

    def test_same_command_multiset_as_plain_synthesis(self):
        rng = random.Random(29)
        arng = np.random.default_rng(29)
        built = 0
        while built < 20:
            g = random_open_graph(rng)
            result = find_flow(g)
            if not result.found:
                continue
            angles = random_angles(arng, g.measured)
            a = synthesize(g, result.flow, angles)
            b = synthesize_stabilizer_form(g, result.flow, angles)
            assert sorted(map(repr, a.commands)) == sorted(map(repr, b.commands))
            assert check_runnable(b).ok
            built += 1

    def test_empty_measured_set_identical(self):
        g = OpenGraphState([1, 2], [(1, 2)], [1, 2], [1, 2])
        fl = find_flow(g).flow
        assert synthesize_stabilizer_form(g, fl, {}) == synthesize(g, fl, {})


class TestAdjoint:
    def test_hadamard_is_self_adjoint(self):
        g = hadamard_geometry()
        forward, reverse = find_biflow(g)
        p = synthesize(g, forward.flow, {1: 0.0})
        dagger = adjoint(p, reverse.flow)
        assert relabel(dagger, {1: 2, 2: 1}) == p

    def test_adjoint_swaps_angle_vectors(self):
        g = path_state(3, [1], [3])
        forward, reverse = find_biflow(g)
        p = synthesize(g, forward.flow, {1: 0.4, 2: 1.3})
        dagger = adjoint(p, reverse.flow)
        assert dagger.inputs == (3,)
        assert dagger.outputs == (1,)
        assert dagger.measure_angles() == {2: 0.0, 3: 0.0}
        assert dagger.prep_angles() == {1: 0.4, 2: 1.3}

    def test_double_adjoint_restores_angles_and_geometry(self):
        g = path_state(3, [1], [3])
        forward, reverse = find_biflow(g)
        p = synthesize(g, forward.flow, {1: 0.4, 2: 1.3})
        twice = adjoint(adjoint(p, reverse.flow), forward.flow)
        assert twice.geometry() == p.geometry()
        assert twice.measure_angles() == p.measure_angles()
        assert twice.prep_angles() == p.prep_angles()

    def test_trivial_pattern_is_its_own_adjoint(self):
        g = OpenGraphState([1, 2], [(1, 2)], [1, 2], [1, 2])
        forward, reverse = find_biflow(g)
        p = synthesize(g, forward.flow, {})
        assert adjoint(p, reverse.flow) == p

    def test_repeated_entangler_has_no_geometry(self):
        """The two CZs of a runnable pattern cancel, so it has no open graph
        and no adjoint; the adjoint of one entangler would be wrong."""
        p = parse_pattern("V: 1 2\nI: 1\nO: 2\nN 2 0.0\nE 1 2\nE 1 2\nM 1 0.0\nX 2 [1]\n")
        assert check_runnable(p).ok
        reverse = find_biflow(hadamard_geometry())[1].flow
        with pytest.raises(GraphFormatError, match=r"invalid open graph: duplicate edge \[1, 2\]$"):
            adjoint(p, reverse)

    def test_invalid_reverse_flow_rejected(self):
        g = path_state(3, [1], [3])
        p = synthesize(g, find_flow(g).flow, {1: 0.0, 2: 0.0})
        with pytest.raises(PatternError, match="invalid flow"):
            adjoint(p, Flow({3: 1}, {1: 1, 2: 0, 3: 0}))


class TestRelabelAndNotation:
    def test_relabel_renames_every_correction_kind(self):
        p = Pattern(
            [1, 2, 3],
            [1],
            [3],
            [
                Prepare(2, 0.25),
                Prepare(3),
                Entangle(1, 2),
                Entangle(2, 3),
                Measure(1, 0.75),
                CorrectX(2, {1}),
                Measure(2),
                CorrectZ(3, {1, 2}),
                CorrectXPhase(3, 0.5, {2}),
            ],
        )
        q = relabel(p, {1: 9, 2: 8, 3: 7})
        assert (q.vertices, q.inputs, q.outputs) == ((7, 8, 9), (9,), (7,))
        assert q.commands == (
            Prepare(8, 0.25),
            Prepare(7),
            Entangle(8, 9),
            Entangle(7, 8),
            Measure(9, 0.75),
            CorrectX(8, {9}),
            Measure(8),
            CorrectZ(7, {8, 9}),
            CorrectXPhase(7, 0.5, {8}),
        )
        # Entangle(1, 2) became Entangle(9, 8), stored with its ends in order
        assert [(c.a, c.b) for c in q.commands[2:4]] == [(8, 9), (7, 8)]
        assert relabel(q, {9: 1, 8: 2, 7: 3}) == p

    def test_relabel_rejects_two_qubits_on_one_id(self):
        """On the 1-2-3 path, a map that sends 1 onto 3 (which it leaves
        out), and one that sends 1 and 2 both to 5, raise PatternError
        naming the two qubits, in the order met, and the shared id; a swap
        is fine."""
        g = path_state(3, [1], [3])
        p = synthesize(g, find_flow(g).flow, {1: 0.1, 2: 0.2})
        with pytest.raises(PatternError, match="qubits (1 and 3|3 and 1) to one id, 3"):
            relabel(p, {1: 3})
        with pytest.raises(PatternError, match="qubits (1 and 2|2 and 1) to one id, 5"):
            relabel(p, {1: 5, 2: 5})
        assert check_runnable(relabel(p, {1: 3, 3: 1})).ok


class TestTextFormat:
    def test_hadamard_exact_text(self):
        g = hadamard_geometry()
        p = synthesize(g, find_flow(g).flow, {1: 0.0})
        assert print_pattern(p) == H_TEXT

    def test_round_trip_synthesized(self):
        rng = random.Random(41)
        arng = np.random.default_rng(41)
        built = 0
        while built < 25:
            g = random_open_graph(rng)
            result = find_flow(g)
            if not result.found:
                continue
            p = synthesize(
                g,
                result.flow,
                random_angles(arng, g.measured),
                random_angles(arng, g.prepared),
            )
            assert parse_pattern(print_pattern(p)) == p
            built += 1

    def test_round_trip_multi_signal_sets(self):
        p = Pattern(
            [1, 2, 3],
            [1],
            [3],
            [
                Prepare(2, 1.25),
                Prepare(3),
                Entangle(1, 2),
                Entangle(2, 3),
                Measure(1, math.pi),
                Measure(2, 0.0),
                CorrectX(3, {1, 2}),
                CorrectXPhase(3, 0.5, {1}),
                CorrectZ(3, frozenset()),
            ],
        )
        assert parse_pattern(print_pattern(p)) == p

    def test_parser_tolerates_blanks_and_comments(self):
        text = "V: 1 2\nI: 1\nO: 2\n\n# comment\nN 2 0.0\nE 1 2\nM 1 0.0\nX 2 [1]\n"
        assert parse_pattern(text) == hadamard_pattern()

    def test_parser_rejects_garbage(self):
        with pytest.raises(PatternFormatError):
            parse_pattern("V: 1\nI: 1\nO: 1\nQ 1 0.0\n")
        with pytest.raises(PatternFormatError):
            parse_pattern("V: 1\nI: 1\nO: 1\nX 1 {1}\n")
        with pytest.raises(PatternFormatError):
            parse_pattern("N 1 0.0\n")
        with pytest.raises(PatternFormatError):
            parse_pattern("V: 1\nI: 1\nO: 1\nM 1\n")

    def test_parser_strips_inline_comments(self):
        text = (
            "V: 1 2  # qubits\nI: 1\nO: 2\n"
            "N 2 0.0      # prepare qubit 2 at phase 0\n"
            "E 1 2        # controlled-Z\n"
            "M 1 0.0      # measure qubit 1 at angle 0\n"
            "X 2 [1]      # X on qubit 2 iff outcome of qubit 1 is 1\n"
        )
        assert parse_pattern(text) == hadamard_pattern()

    @pytest.mark.parametrize(
        "line",
        ["X 2 [1] [9]", "M 1 0.5 extra", "E 1 2 3", "Z 2 [1] 0", "XA 2 0.5 [1] x", "N 2"],
    )
    def test_parser_requires_exact_token_count(self, line):
        with pytest.raises(PatternFormatError, match="bad command line"):
            parse_pattern(f"V: 1 2\nI: 1\nO: 2\n{line}\n")

    def test_parser_rejects_non_integer_header(self):
        with pytest.raises(PatternFormatError, match="bad header line"):
            parse_pattern("V: 1 x\nI: 1\nO: 1\n")

    @pytest.mark.parametrize(
        "line",
        ["M 1_0 0.5", "M +1 0.5", "M 01 0.5", "E 1 \uff12", "X 2 [01]", "XA 2 0.5 [1,02]"]
        + ["M 1 0_5", "N 2 1_0.0", "M 1 \u0661.5", "XA 2 \uff10.5 [1]"],
    )
    def test_parser_rejects_coerced_tokens(self, line):
        """A qubit or signal that int() would coerce, or an angle with an
        underscore or a non-ASCII digit that float() would read, is not read."""
        with pytest.raises(PatternFormatError, match="bad command line"):
            parse_pattern(f"V: 1 2\nI: 1\nO: 2\n{line}\n")

    @pytest.mark.parametrize(
        "headers", ["V: 1 02\nI: 1\nO: 2", "V: 1 +2", "V: 1 2\nI: 0_1", "V: 1 2\nO: \u0662"]
    )
    def test_parser_rejects_coerced_header_ids(self, headers):
        with pytest.raises(PatternFormatError, match="bad header line"):
            parse_pattern(headers + "\n")

    def test_parser_rejects_non_finite_angles(self):
        for line in ("M 1 nan", "N 2 inf", "XA 2 -inf [1]"):
            with pytest.raises(PatternFormatError):
                parse_pattern(f"V: 1 2\nI: 1\nO: 2\n{line}\n")


class TestAngles:
    def test_normalized_into_range(self):
        assert Measure(1, -0.5).angle == pytest.approx(2 * math.pi - 0.5)
        assert Prepare(1, 2 * math.pi).angle == 0.0
        assert CorrectXPhase(1, 7.0, {2}).angle == pytest.approx(7.0 - 2 * math.pi)

    def test_non_finite_angles_rejected(self):
        for angle in (math.nan, math.inf, -math.inf, float("1e400")):
            with pytest.raises(PatternError, match="not finite"):
                normalize_angle(angle)
        with pytest.raises(PatternError, match="not finite"):
            Measure(1, math.nan)
        g = hadamard_geometry()
        with pytest.raises(PatternError, match="measurement angles not finite"):
            synthesize(g, find_flow(g).flow, {1: math.inf})
        with pytest.raises(PatternError, match="preparation angles not finite"):
            synthesize(g, find_flow(g).flow, {1: 0.1}, {2: math.nan})

    def test_entangle_normalizes_orientation(self):
        assert Entangle(2, 1) == Entangle(1, 2)


# Certifies a synthesized pattern with a preparation phase in a fresh
# interpreter, then asserts that numpy never loaded.
_CERTIFICATE_PROBE = """
import sys
from causalflow import OpenGraphState, find_flow, synthesize
from causalflow.pattern import certify_strong
g = OpenGraphState([1, 2, 3], [(1, 2), (2, 3)], [1], [3])
p = synthesize(g, find_flow(g).flow, {1: 0.3, 2: 1.1}, {2: 0.7, 3: 0.2})
assert certify_strong(p) is True
assert certify_strong(p.without_corrections()) is False
assert "numpy" not in sys.modules
"""


def test_certificate_loads_no_numpy():
    src = str(Path(causalflow.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _CERTIFICATE_PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
