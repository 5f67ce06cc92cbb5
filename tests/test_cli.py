"""Tests for the command-line front end."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import causalflow
from causalflow import (
    Flow,
    OpenGraphState,
    graph_from_json_dict,
    max_deviation_up_to_phase,
    parse_pattern,
    realized_embedding,
    enumerate_branches,
    find_flow,
    print_pattern,
    synthesize,
    validate_flow,
)
from causalflow.cli import main
from conftest import cluster_grid, hadamard_geometry, loop_geometry, no_flow_geometry, path_state

H_TEXT = "V: 1 2\nI: 1\nO: 2\nN 2 0.0\nE 1 2\nM 1 0.0\nX 2 [1]\n"


@pytest.fixture
def write(tmp_path):
    def _write(name, content):
        path = tmp_path / name
        if not isinstance(content, str):
            content = json.dumps(content)
        path.write_text(content, encoding="utf-8")
        return str(path)

    return _write


def graph_file(write, g, name="graph.json", extra=None):
    doc = g.to_json_dict()
    if extra:
        doc.update(extra)
    return write(name, doc)


class TestFlowCommand:
    def test_flow_found(self, write, capsys):
        path = graph_file(write, path_state(3, [1], [3]))
        assert main(["flow", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["found"] is True
        g = path_state(3, [1], [3])
        fl = Flow(
            {int(i): j for i, j in doc["flow"]["f"].items()},
            {int(v): l for v, l in doc["flow"]["levels"].items()},
        )
        assert validate_flow(g, fl).ok
        assert doc["depth"] == 3

    def test_no_flow_exit_code(self, write, capsys):
        path = graph_file(write, no_flow_geometry())
        assert main(["flow", path]) == 1
        assert json.loads(capsys.readouterr().out) == {"found": False}

    def test_missing_file(self, capsys):
        assert main(["flow", "/nonexistent/graph.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_json(self, write, capsys):
        path = write("bad.json", "{not json")
        assert main(["flow", path]) == 2

    def test_invalid_graph(self, write, capsys):
        path = write(
            "bad.json",
            {"vertices": [1], "edges": [[1, 1]], "inputs": [], "outputs": [1]},
        )
        assert main(["flow", path]) == 2
        assert "self-edge" in capsys.readouterr().err

    def test_invalid_graph_error_names_the_file(self, write, capsys):
        path = write(
            "self.json",
            {"vertices": [1, 2], "edges": [[1, 2], [2, 2]], "inputs": [1], "outputs": [2]},
        )
        assert main(["flow", path]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {path}: invalid open graph: self-edge at vertex 2\n"

    def test_loops_via_flag(self, write, capsys):
        path = graph_file(write, loop_geometry())
        assert main(["flow", path]) == 1
        capsys.readouterr()
        assert main(["flow", path, "--y-measured", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["flow"]["loops"] == [2]

    def test_loops_flag_allows_every_measured_qubit(self, write, capsys):
        path = graph_file(write, loop_geometry())
        assert main(["flow", path, "--loops"]) == 0
        assert json.loads(capsys.readouterr().out)["flow"]["loops"] == [2]

    def test_non_integer_y_measured_flag(self, write, capsys):
        path = graph_file(write, loop_geometry())
        assert main(["flow", path, "--y-measured", "2,x"]) == 2
        assert "error: --y-measured" in capsys.readouterr().err

    def test_non_integer_y_measured_field(self, write, capsys):
        path = graph_file(write, loop_geometry(), extra={"y_measured": ["two"]})
        assert main(["flow", path]) == 2
        assert "bad y_measured entry" in capsys.readouterr().err

    def test_loops_via_json_field(self, write, capsys):
        path = graph_file(write, loop_geometry(), extra={"y_measured": [2]})
        assert main(["flow", path]) == 0
        assert json.loads(capsys.readouterr().out)["found"] is True

    def test_bidirectional(self, write, capsys):
        path = graph_file(write, path_state(3, [1], [3]))
        assert main(["flow", path, "--bidirectional"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["forward"]["found"] and doc["reverse"]["found"]
        one_way = graph_file(write, path_state(2, [1], [1, 2]), "oneway.json")
        assert main(["flow", one_way, "--bidirectional"]) == 1

    @pytest.mark.parametrize(
        "flags", [["--loops"], ["--y-measured", "2"], ["--y-measured", "abc"]]
    )
    def test_bidirectional_takes_no_loop_flags(self, capsys, flags):
        """Rejected before any file is read: the graph file here does not exist."""
        assert main(["flow", "/nonexistent/g.json", "--bidirectional", *flags]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {flags[0]} cannot be combined with --bidirectional\n"


class TestSynthCommand:
    def test_hadamard_text(self, write, capsys):
        path = graph_file(write, hadamard_geometry())
        assert main(["synth", path]) == 0
        assert capsys.readouterr().out == H_TEXT

    def test_round_trips_through_parser(self, write, capsys):
        path = graph_file(write, path_state(3, [1], [3]))
        angles = write("angles.json", {"1": 0.25})  # qubit 2 defaults to zero
        assert main(["synth", path, "--angles", angles]) == 0
        pattern = parse_pattern(capsys.readouterr().out)
        assert pattern.measure_angles() == {1: 0.25, 2: 0.0}

    def test_no_flow(self, write, capsys):
        path = graph_file(write, no_flow_geometry())
        assert main(["synth", path]) == 1

    def test_entanglers_only(self, write, capsys):
        g = OpenGraphState([1, 2], [(1, 2)], [1, 2], [1, 2])
        assert main(["synth", graph_file(write, g)]) == 0
        assert capsys.readouterr().out == "V: 1 2\nI: 1 2\nO: 1 2\nE 1 2\n"

    def test_stabilizer_form(self, write, capsys):
        path = graph_file(write, path_state(3, [1], [3]))
        assert main(["synth", path, "--stabilizer-form"]) == 0
        pattern = parse_pattern(capsys.readouterr().out)
        kinds = [type(c).__name__ for c in pattern.commands]
        assert kinds.index("CorrectZ") < kinds.index("CorrectX")

    def test_stabilizer_form_takes_no_prep_angles(self, write, capsys):
        """Rejected before any file is read: neither file here exists."""
        argv = ["synth", "/nonexistent/g.json", "--stabilizer-form"]
        assert main([*argv, "--prep-angles", "/nonexistent/p.json"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: --prep-angles cannot be combined with --stabilizer-form\n"

    @pytest.mark.parametrize("doc", [{"1": "north"}, {"one": 0.5}, {"1": None}])
    def test_malformed_angle_entry(self, write, capsys, doc):
        path = graph_file(write, hadamard_geometry())
        angles = write("angles.json", doc)
        assert main(["synth", path, "--angles", angles]) == 2
        assert "bad angle entry" in capsys.readouterr().err

    def test_angle_file_must_be_an_object(self, write, capsys):
        path = graph_file(write, hadamard_geometry())
        angles = write("angles.json", [0.1, 0.2])
        assert main(["synth", path, "--angles", angles]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {angles}: expected a JSON object of vertex -> radians\n"

    def test_overflowing_angle(self, write, capsys):
        path = graph_file(write, hadamard_geometry())
        angles = write("angles.json", '{"1": 1e400}')
        assert main(["synth", path, "--angles", angles]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not finite" in err

    def test_prep_angles(self, write, capsys):
        path = graph_file(write, path_state(3, [1], [3]))
        preps = write("preps.json", {"2": 0.5})
        assert main(["synth", path, "--prep-angles", preps]) == 0
        pattern = parse_pattern(capsys.readouterr().out)
        assert pattern.prep_angles() == {2: 0.5, 3: 0.0}


class TestVerifyCommand:
    def test_strong_pattern_exit_zero(self, write, capsys):
        path = write("h.pat", H_TEXT)
        assert main(["verify", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classification"] == "strongly-deterministic"
        assert doc["uniform"] is True

    def test_deterministic_only_exit_one(self, write, capsys):
        text = "V: 1 2\nI: 1\nO: 1\nN 2 0.0\nE 1 2\nM 2 0.0\nX 1 [2]\n"
        path = write("proj.pat", text)
        assert main(["verify", path, "--samples", "20"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["classification"] == "deterministic"
        assert doc["uniform"] is False

    def test_runnability_violation_exit_two(self, write, capsys):
        text = "V: 1 2\nI: 1\nO: 2\nN 2 0.0\nE 1 2\nZ 2 [1]\nM 1 0.0\nX 2 [1]\n"
        path = write("bad.pat", text)
        assert main(["verify", path]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["runnable"] is False
        assert any(v.startswith("R0") for v in doc["violations"])

    def test_self_entangler_is_not_runnable(self, write, capsys):
        path = write("self.pat", H_TEXT.replace("E 1 2\n", "E 1 2\nE 2 2\n"))
        assert main(["verify", path]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "runnable": False,
            "violations": ["R1: command 2 entangles qubit 2 with itself"],
        }

    def test_nan_angle_rejected(self, write, capsys):
        path = write("nan.pat", H_TEXT.replace("M 1 0.0", "M 1 nan"))
        assert main(["verify", path]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:")

    def test_missing_pattern_file(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "missing.pat")]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith(f"error: cannot read {tmp_path}")

    def test_non_integer_header(self, write, capsys):
        path = write("hdr.pat", H_TEXT.replace("V: 1 2", "V: 1 x"))
        assert main(["verify", path]) == 2
        assert "bad header line" in capsys.readouterr().err

    def test_default_tolerance(self, write, capsys):
        assert main(["verify", write("h.pat", H_TEXT)]) == 0
        assert json.loads(capsys.readouterr().out)["tolerance"] == 1e-9

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1", "0"])
    def test_tolerance_must_be_finite_and_positive(self, write, capsys, tolerance):
        path = write("h.pat", H_TEXT)
        with pytest.raises(SystemExit) as exit_info:
            main(["--tolerance", tolerance, "verify", path])
        assert exit_info.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "error:" in out.err

    def test_byte_budget_is_the_only_bound(self, write, capsys):
        """The dense byte budget alone bounds a pattern that the certificate
        declines, not its number of measurements: the stripped 1x14 path's
        13 measurements classify, while the stripped 1x24 path, 24 qubits
        and an input, is a named error.  The strong 1x24 path is certified,
        so it gets its verdict above the budget."""
        g = path_state(14, [1], [14])
        pattern = synthesize(g, find_flow(g).flow, {q: 0.0 for q in g.measured})
        assert main(["verify", write("path14.pat", print_pattern(pattern.without_corrections()))]) == 1
        out = capsys.readouterr()
        assert json.loads(out.out)["classification"] == "not-deterministic"
        g = path_state(24, [1], [24])
        pattern = synthesize(g, find_flow(g).flow, {q: 0.0 for q in g.measured})
        assert main(["verify", write("path24.pat", print_pattern(pattern.without_corrections()))]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: 24 qubits with 1 inputs") and "dense tensor bound" in out.err
        assert main(["verify", write("path24-strong.pat", print_pattern(pattern))]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["classification"] == "strongly-deterministic" and verdict["uniform"]

    def test_seeded_determinism(self, write, capsys):
        path = write("h.pat", H_TEXT)
        main(["--seed", "11", "verify", path])
        first = capsys.readouterr().out
        main(["--seed", "11", "verify", path])
        assert capsys.readouterr().out == first


class TestExtractCommand:
    def test_hadamard_circuit(self, write, capsys):
        path = graph_file(write, hadamard_geometry())
        assert main(["extract", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gates"] == [
            {"g": "P", "w": 0, "theta": -0.0},
            {"g": "H", "w": 0},
        ]

    def test_check_reports_deviation(self, write, capsys):
        path = graph_file(write, path_state(3, [1], [3]))
        angles = write("angles.json", {"1": 0.4, "2": 1.2})
        assert main(["extract", path, "--angles", angles, "--check"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["max_deviation"] < 1e-9

    def test_no_flow(self, write):
        assert main(["extract", graph_file(write, no_flow_geometry())]) == 1

    def test_check_past_2048_measurements(self, write, capsys):
        """A 1x2100 path: 2^(2099/2) overflows a float, and the check still
        reports the realized map equal to the circuit's."""
        path = graph_file(write, path_state(2100, [1], [2100]))
        assert main(["extract", path, "--check"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["max_deviation"] <= 1e-9

    def test_check_over_budget_is_a_named_error(self, write, capsys):
        """16 disjoint input-output edges extract to 16 input wires, 32 axes
        in all: the check stops before it allocates, with a named error."""
        g = OpenGraphState(
            range(1, 33),
            [(k, k + 1) for k in range(1, 33, 2)],
            range(1, 33, 2),
            range(2, 33, 2),
        )
        assert main(["extract", graph_file(write, g), "--check"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:")
        assert "dense tensor bound" in out.err and "Traceback" not in out.err


class TestAdjointCommand:
    def test_adjoint_realizes_dagger(self, write, capsys):
        g = path_state(3, [1], [3])
        path = graph_file(write, g)
        angles = write("angles.json", {"1": 0.4, "2": 1.2})
        assert main(["adjoint", path, "--angles", angles]) == 0
        pattern = parse_pattern(capsys.readouterr().out)
        realized = enumerate_branches(pattern)[0].branch_map * 2.0 ** (
            pattern.n_measurements / 2
        )
        target = realized_embedding(g, {1: 0.4, 2: 1.2}).conj().T
        assert max_deviation_up_to_phase(realized, target) < 1e-9

    def test_requires_biflow(self, write):
        assert main(["adjoint", graph_file(write, path_state(2, [1], [1, 2]))]) == 1


class TestIdentitiesCommand:
    def test_default_run_passes(self, capsys):
        assert main(["identities"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert all(c["passed"] for c in doc["checks"])

    def test_custom_grid(self, capsys):
        assert main(["identities", "--angles-grid", "64", "--random", "5"]) == 0

    def test_no_angles_is_an_input_error(self, capsys):
        assert main(["identities", "--angles-grid", "0", "--random", "0"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: --angles-grid and --random are both 0: no angles to check\n"
        for flags in (["--angles-grid", "0"], ["--random", "0"]):
            assert main(["identities", *flags]) == 0
            assert len(json.loads(capsys.readouterr().out)["checks"]) == 19

    def test_default_and_abbreviated_tolerance(self, capsys):
        main(["identities"])
        assert json.loads(capsys.readouterr().out)["tolerance"] == 1e-12
        assert main(["--tol", "0.5", "identities"]) == 0
        assert json.loads(capsys.readouterr().out)["tolerance"] == 0.5

    def test_absurd_tolerance_reports_residuals(self, capsys):
        code = main(["--tolerance", "1e-30", "identities"])
        doc = json.loads(capsys.readouterr().out)
        if code == 1:
            assert any(not c["passed"] for c in doc["checks"])
        else:
            assert doc["ok"] is True


def test_graph_round_trip_through_cli_format(write):
    g = no_flow_geometry()
    assert graph_from_json_dict(g.to_json_dict()) == g


@pytest.mark.parametrize(
    "doc, error",
    [
        ('{"vertices": [1, 2, 1e400], "edges": [[1, 2]]}', "malformed graph document"),
        ('{"vertices": [1, 2], "edges": [[1, 1e400]]}', "malformed graph document"),
        (
            '{"vertices": [1, 2], "edges": [[1, 2]], "inputs": [1], "outputs": [2],'
            ' "y_measured": [1e400]}',
            "bad y_measured entry",
        ),
    ],
    ids=["vertex", "edge", "y-measured"],
)
@pytest.mark.parametrize(
    "command",
    [["flow"], ["synth"], ["extract", "--check"], ["adjoint"]],
    ids=["flow", "synth", "extract-check", "adjoint"],
)
def test_infinite_id_is_a_named_error(write, capsys, doc, error, command):
    """JSON reads 1e400 as an infinite float, which no integer id equals."""
    path = write("inf.json", doc)
    assert main([command[0], path, *command[1:]]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {path}: {error}: cannot convert float infinity to integer\n"


_PATH3 = '"edges": [[1, 2], [2, 3]], "inputs": [1], "outputs": [3]'


@pytest.mark.parametrize(
    "doc, error",
    [
        (
            '{"vertices": [1, 2.7, true], "edges": [[1, 2]], "inputs": [1], "outputs": [2]}',
            "malformed graph document: id 2.7 is not an integer",
        ),
        ('{"vertices": [1, 2, true], ' + _PATH3 + "}", "malformed graph document: id true is not an integer"),
        ('{"vertices": [1, 2, "3"], ' + _PATH3 + "}", 'malformed graph document: id "3" is not an integer'),
        (
            '{"vertices": [1, 2, 3], "edges": [[1, 2], [2, 3.0]], "inputs": [1], "outputs": [3]}',
            "malformed graph document: id 3.0 is not an integer",
        ),
        (
            '{"vertices": [1, 2, 3], "edges": [[1, 2], [2, 3]], "inputs": [true], "outputs": [3]}',
            "malformed graph document: id true is not an integer",
        ),
        (
            '{"vertices": [1, 2, 3], "edges": [[1, 2], [2, 3]], "inputs": [1], "outputs": [3.0]}',
            "malformed graph document: id 3.0 is not an integer",
        ),
        ('{"vertices": [1, 2, 3], ' + _PATH3 + ', "y_measured": [2.0]}', "bad y_measured entry: id 2.0 is not an integer"),
        ('{"vertices": "12", ' + _PATH3 + "}", "malformed graph document: vertices must be a JSON array, got str"),
        (
            '{"vertices": [1, 2, 3], "edges": {"1": 2}, "inputs": [1], "outputs": [3]}',
            "malformed graph document: edges must be a JSON array, got dict",
        ),
        (
            '{"vertices": [1, 2, 3], "edges": [[1, 2], "23"], "inputs": [1], "outputs": [3]}',
            "malformed graph document: each edge must be a JSON array, got str",
        ),
        (
            '{"vertices": [1, 2, 3], "edges": [[1, 2], [2, 3]], "inputs": 1, "outputs": [3]}',
            "malformed graph document: inputs must be a JSON array, got int",
        ),
        (
            '{"vertices": [1, 2, 3], "edges": [[1, 2], [2, 3]], "inputs": [1], "outputs": "3"}',
            "malformed graph document: outputs must be a JSON array, got str",
        ),
        ('{"vertices": [1, 2, 3], ' + _PATH3 + ', "y_measured": {"1": 2}}', "y_measured must be a JSON array, got dict"),
        ('{"vertices": [1, 2, 3], ' + _PATH3 + ', "y_measured": "2"}', "y_measured must be a JSON array, got str"),
    ],
    ids=[
        "float-vertex", "bool-vertex", "string-vertex", "edge", "input", "output", "y-measured",
        "vertices-field", "edges-field", "edge-field", "inputs-field", "outputs-field",
        "y-measured-field", "y-measured-string",
    ],
)
@pytest.mark.parametrize(
    "command",
    [["flow"], ["flow", "--bidirectional"], ["synth"], ["extract", "--check"], ["adjoint"]],
    ids=["flow", "flow-bidirectional", "synth", "extract-check", "adjoint"],
)
def test_coerced_id_is_a_named_error(write, capsys, doc, error, command):
    """An id that int() would coerce (a float, a bool, a numeric string) is
    not read as a vertex, and a field or an edge that is not a JSON array is
    named rather than an item read from it: the call exits 2 and names it."""
    path = write("coerced.json", doc)
    assert main([command[0], path, *command[1:]]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {path}: {error}\n"


@pytest.mark.parametrize("value, shown", [("true", "true"), ("false", "false"), ('"1.5"', '"1.5"')])
@pytest.mark.parametrize("flag", ["--angles", "--prep-angles"])
def test_coerced_angle_is_a_named_error(write, capsys, value, shown, flag):
    """An angle that float() would coerce (a bool, a numeric string) is not
    read as radians: ``synth`` exits 2 and names it."""
    graph = write("p3.json", '{"vertices": [1, 2, 3], ' + _PATH3 + "}")
    angles = write("a.json", '{"2": ' + value + "}")
    assert main(["synth", graph, flag, angles]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {angles}: bad angle entry '2': {shown} is not a number\n"


@pytest.mark.parametrize("key", [" 2", "+2", "02", "0_2", "-0", "\uff12", "\u0662"])
@pytest.mark.parametrize("flag", ["--angles", "--prep-angles"])
def test_coerced_angle_key_is_a_named_error(write, capsys, key, flag):
    """An angle-file key that int() would coerce (a space, a sign, a leading
    zero, an underscore, a non-ASCII digit) names no qubit: ``synth`` exits
    2 and names it."""
    graph = write("p3.json", '{"vertices": [1, 2, 3], ' + _PATH3 + "}")
    angles = write("a.json", json.dumps({"3": 0.25, key: 0.5}))
    assert main(["synth", graph, flag, angles]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        f"error: {angles}: bad angle entry {key!r}: {key!r} is not written as a plain integer\n"
    )


@pytest.mark.parametrize("items, bad", [("0_2", "0_2"), ("+2", "+2"), ("1, 02", "02")])
def test_coerced_y_measured_is_a_named_error(write, capsys, items, bad):
    """A ``--y-measured`` item that int() would coerce is not read as a qubit."""
    graph = write("p3.json", '{"vertices": [1, 2, 3], ' + _PATH3 + "}")
    assert main(["synth", graph, "--y-measured", items]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: --y-measured: {bad!r} is not written as a plain integer\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "PATTERN", "--samples", "-3"],
        ["--seed", "-1", "verify", "PATTERN"],
        ["identities", "--random", "-5"],
        ["identities", "--angles-grid", "-3"],
    ],
)
def test_negative_counts_rejected(write, capsys, argv):
    path = write("h.pat", H_TEXT)
    with pytest.raises(SystemExit) as exit_info:
        main([path if a == "PATTERN" else a for a in argv])
    assert exit_info.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "error:" in out.err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["--seed", "x", "verify", "PATTERN"], "--seed"),
        (["identities", "--random", "x"], "--random"),
        (["verify", "PATTERN", "--samples", "2.5"], "--samples"),
        (["--tolerance", "x", "verify", "PATTERN"], "--tolerance"),
        # spellings that int() or float() would coerce
        (["identities", "--random", "\u0663"], "--random"),
        (["identities", "--angles-grid", "+4"], "--angles-grid"),
        (["verify", "PATTERN", "--samples", "02"], "--samples"),
        (["--seed", "\uff13", "verify", "PATTERN"], "--seed"),
        (["--tolerance", "1_0e-3", "verify", "PATTERN"], "--tolerance"),
        (["--tolerance", "\u0661e-3", "verify", "PATTERN"], "--tolerance"),
    ],
)
def test_malformed_numbers_rejected_readably(write, capsys, argv, option):
    path = write("h.pat", H_TEXT)
    with pytest.raises(SystemExit) as exit_info:
        main([path if a == "PATTERN" else a for a in argv])
    assert exit_info.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"argument {option}: not a" in out.err
    assert repr(argv[argv.index(option) + 1]) in out.err
    assert "invalid _" not in out.err


@pytest.mark.parametrize("argv", [["flow", "BAD"], ["verify", "BAD"], ["synth", "GRAPH", "--angles", "BAD"]])
def test_file_that_is_not_utf8_is_a_named_error(write, tmp_path, capsys, argv):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff" + H_TEXT.encode("utf-8"))
    files = {"BAD": str(bad), "GRAPH": write("p3.json", '{"vertices": [1, 2, 3], ' + _PATH3 + "}")}
    assert main([files.get(a, a) for a in argv]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: {bad}: not UTF-8 text: ")


_DEEP = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["flow", "DEEP"], _DEEP),
        (["flow", "DEEP"], '{"vertices": ' + _DEEP + "}"),
        (["synth", "GRAPH", "--angles", "DEEP"], _DEEP),
        (["synth", "GRAPH", "--prep-angles", "DEEP"], '{"3": ' + _DEEP + "}"),
    ],
    ids=["graph", "graph-field", "angles", "prep-angles"],
)
def test_deeply_nested_json_is_a_named_error(write, capsys, argv, doc):
    files = {"DEEP": write("deep.json", doc), "GRAPH": graph_file(write, path_state(3, [1], [3]))}
    assert main([files.get(a, a) for a in argv]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {files['DEEP']}: invalid JSON: nested too deeply\n"


@pytest.mark.parametrize("command", [["synth"], ["extract"]])
def test_angle_beyond_float_range_is_a_named_error(write, capsys, command):
    graph = write("p3.json", '{"vertices": [1, 2, 3], ' + _PATH3 + "}")
    angles = write("a.json", '{"1": 1' + "0" * 400 + "}")
    assert main([command[0], graph, "--angles", angles]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {angles}: bad angle entry '1': int too large to convert to float\n"


@pytest.mark.parametrize(
    "argv, error",
    [
        (["--max-qubits", "1", "verify", "PATTERN"], "unrecognized arguments: --max-qubits\n"),
        (["--seed", "3", "--max-qubits", "1", "verify"], "unrecognized arguments: --max-qubits\n"),
        (["--bogus", "x", "verify", "PATTERN", "--seed"], "unrecognized arguments: --bogus\n"),
        (["bogus", "PATTERN"], "argument command: invalid choice: 'bogus'"),
    ],
)
def test_unknown_flag_before_the_subcommand_is_named(write, capsys, argv, error):
    """argparse reads the value of an unknown flag as the subcommand; the
    error names the flag instead, and a bad subcommand is still named."""
    path = write("h.pat", H_TEXT)
    with pytest.raises(SystemExit) as exit_info:
        main([path if a == "PATTERN" else a for a in argv])
    assert exit_info.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"causalflow: error: {error}" in out.err


def _chorded_grid_without_flow(rows: int, cols: int, rng: random.Random) -> OpenGraphState:
    """A cluster grid plus three random chords, drawn until it has no flow."""
    base = cluster_grid(rows, cols)
    while True:
        chords = set()
        while len(chords) < 3:
            u, v = sorted(rng.sample(base.vertices, 2))
            if (u, v) not in base.edges:
                chords.add((u, v))
        g = OpenGraphState(base.vertices, base.edges + tuple(sorted(chords)), base.inputs, base.outputs)
        if not find_flow(g).found:
            return g


# Sizes no other test reaches: three flow geometries past 2048 measured
# qubits, a 20x50 grid and a chorded grid of 1100 vertices without flow.
# Each size names the calls that meet the dense bound: the 20x50 grid's
# realized map holds its 20 input axes beside the qubits in flight, so
# ``extract --check`` is over the budget there.
LADDER = {
    "path-1x2100": (lambda: path_state(2100, [1], [2100]), ()),
    "path-1x3000": (lambda: path_state(3000, [1], [3000]), ()),
    "grid-4x600": (lambda: cluster_grid(4, 600), ()),
    "grid-20x50": (lambda: cluster_grid(20, 50), ("--check",)),
    "chorded-20x55": (lambda: _chorded_grid_without_flow(20, 55, random.Random(55)), ()),
}


@pytest.mark.parametrize("size", LADDER)
def test_size_ladder_answers_or_names_an_error(write, capsys, size):
    """Every subcommand on a large, legal input exits 0, 1 or 2 and raises
    nothing; an exit 2 prints a dense-bound ``error:`` line and no output,
    on the calls the size names.  With a flow, every other command exits
    0, ``verify`` on the synthesized pattern with a strong and uniform
    verdict, and ``extract --check`` finds the circuit equal to the
    realized map; without one, every other command exits 1."""
    build, over_budget = LADDER[size]
    g = build()
    graph = graph_file(write, g)
    calls = [
        ["flow", graph],
        ["flow", graph, "--bidirectional"],
        ["synth", graph],
        ["synth", graph, "--stabilizer-form"],
        ["extract", graph],
        ["extract", graph, "--check"],
        ["adjoint", graph],
    ]
    found = find_flow(g).found
    for argv in calls:
        code = main(argv)
        out = capsys.readouterr()
        if argv[-1] in over_budget:
            assert code == 2, argv
            assert out.out == "" and out.err.startswith("error:"), argv
            assert "dense tensor bound" in out.err, argv
            continue
        assert code == (0 if found else 1), argv
        if argv[0] == "synth" and len(argv) == 2 and code == 0:
            pattern = write("synth.pat", out.out)
        elif argv[-1] == "--check" and code == 0:
            assert json.loads(out.out)["max_deviation"] <= 1e-9
    if found:
        assert main(["verify", pattern]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["classification"] == "strongly-deterministic" and verdict["uniform"]


def test_output_matches_golden_file(tmp_path, capsys):
    """Exit code, stdout and stderr of every recorded command line, byte for
    byte, with ``<DIR>`` standing for the directory of the input files
    (tests/data/make_cli_golden.py writes the file)."""
    golden = json.loads(
        (Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8")
    )
    for name, text in golden["files"].items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert len(golden["calls"]) >= 200
    for call in golden["calls"]:
        code = main([a.replace("<DIR>", str(tmp_path)) for a in call["argv"]])
        out = capsys.readouterr()
        got = {
            "argv": call["argv"],
            "exit": code,
            "stdout": out.out.replace(str(tmp_path), "<DIR>"),
            "stderr": out.err.replace(str(tmp_path), "<DIR>"),
        }
        assert got == call


# Runs the CLI in a fresh interpreter and reports on stderr whether the
# pattern module, numpy, the simulator, circuit_extract, flow_finder,
# dataclasses and inspect got loaded; the package import loads no module of
# the package, and neither it, dir() nor the CLI import loads numpy.
_NUMPY_PROBE = """
import sys
import causalflow
assert "numpy" not in sys.modules, "import causalflow"
assert [m for m in sys.modules if m.startswith("causalflow")] == ["causalflow"]
missing = set(causalflow.__all__) - set(dir(causalflow))
assert not missing, f"dir(causalflow) lacks {sorted(missing)}"
assert "numpy" not in sys.modules, "dir(causalflow)"
from causalflow.cli import main
assert "numpy" not in sys.modules, "import causalflow.cli"
code = main(sys.argv[1:])
sys.stderr.write(f"pattern loaded: {'causalflow.pattern' in sys.modules}\\n")
sys.stderr.write(f"numpy loaded: {'numpy' in sys.modules}\\n")
sys.stderr.write(f"simulator loaded: {'causalflow.simulator' in sys.modules}\\n")
sys.stderr.write(f"circuit_extract loaded: {'causalflow.circuit_extract' in sys.modules}\\n")
sys.stderr.write(f"flow_finder loaded: {'causalflow.flow_finder' in sys.modules}\\n")
sys.stderr.write(f"dataclasses loaded: {'dataclasses' in sys.modules}\\n")
sys.stderr.write(f"inspect loaded: {'inspect' in sys.modules}\\n")
sys.exit(code)
"""


@pytest.mark.parametrize(
    "argv, loads_pattern, loads_numpy, loads_circuit, loads_flow",
    [
        (["flow", "GRAPH"], False, False, False, True),
        (["flow", "--bidirectional", "GRAPH"], False, False, False, True),
        (["synth", "GRAPH", "--angles", "ANGLES"], True, False, False, True),
        (["adjoint", "GRAPH", "--angles", "ANGLES"], True, False, False, True),
        (["extract", "GRAPH", "--angles", "ANGLES"], True, False, True, True),
        (["verify", "PATTERN"], True, False, False, False),
        (["verify", "STRIPPED"], True, True, False, False),
        (["identities"], True, False, False, False),
    ],
    ids=[
        "flow", "flow-bidirectional", "synth", "adjoint", "extract", "verify",
        "verify-declined", "identities",
    ],
)
def test_only_simulating_commands_load_numpy(
    write, argv, loads_pattern, loads_numpy, loads_circuit, loads_flow
):
    """Only the commands that simulate load the simulator, and numpy with it:
    ``verify`` on the certified Hadamard pattern loads neither, and on its
    stripped pattern, which the certificate declines, loads both (and exits
    1, not deterministic).  ``identities`` checks its table of rules in pure
    Python and loads neither.  Only the commands that search for a flow load
    the flow search.  No command loads ``dataclasses``, and only those that
    load numpy load ``inspect``, which numpy imports."""
    files = {
        "GRAPH": graph_file(write, path_state(3, [1], [3])),
        "ANGLES": write("angles.json", {"1": 0.4, "2": 1.1}),
        "PATTERN": write("h.pat", H_TEXT),
        "STRIPPED": write("stripped.pat", H_TEXT.replace("X 2 [1]\n", "")),
    }
    src = str(Path(causalflow.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, *(files.get(a, a) for a in argv)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == (1 if "STRIPPED" in argv else 0), proc.stderr
    assert proc.stderr.splitlines()[-7:] == [
        f"pattern loaded: {loads_pattern}",
        f"numpy loaded: {loads_numpy}",
        f"simulator loaded: {loads_numpy}",
        f"circuit_extract loaded: {loads_circuit}",
        f"flow_finder loaded: {loads_flow}",
        "dataclasses loaded: False",
        f"inspect loaded: {loads_numpy}",
    ]
