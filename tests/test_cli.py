"""Tests for the command-line front end."""

import json
import os
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
from causalflow.simulator import DEFAULT_MAX_MEASUREMENTS
from conftest import hadamard_geometry, loop_geometry, no_flow_geometry, path_state

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

    def test_max_qubits_defaults_to_library_bound(self, write, capsys):
        n = DEFAULT_MAX_MEASUREMENTS + 2
        g = path_state(n, [1], [n])
        pattern = synthesize(g, find_flow(g).flow, {q: 0.0 for q in g.measured})
        assert main(["verify", write("long.pat", print_pattern(pattern))]) == 2
        assert f"branch bound {DEFAULT_MAX_MEASUREMENTS}" in capsys.readouterr().err

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
    "argv",
    [
        ["verify", "PATTERN", "--samples", "-3"],
        ["--seed", "-1", "verify", "PATTERN"],
        ["identities", "--random", "-5"],
        ["identities", "--angles-grid", "-3"],
        ["--max-qubits=-1", "verify", "PATTERN"],
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
        (["--max-qubits", "x", "verify", "PATTERN"], "--max-qubits"),
        (["verify", "PATTERN", "--samples", "2.5"], "--samples"),
        (["--tolerance", "x", "verify", "PATTERN"], "--tolerance"),
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
    assert "invalid _" not in out.err


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


# Runs the CLI in a fresh interpreter and reports on stderr whether numpy
# got loaded; the package import, dir() and the CLI import must not load it.
_NUMPY_PROBE = """
import sys
import causalflow
assert "numpy" not in sys.modules, "import causalflow"
missing = set(causalflow.__all__) - set(dir(causalflow))
assert not missing, f"dir(causalflow) lacks {sorted(missing)}"
assert "numpy" not in sys.modules, "dir(causalflow)"
from causalflow.cli import main
assert "numpy" not in sys.modules, "import causalflow.cli"
code = main(sys.argv[1:])
sys.stderr.write(f"numpy loaded: {'numpy' in sys.modules}\\n")
sys.exit(code)
"""


@pytest.mark.parametrize(
    "argv, loads_numpy",
    [
        (["flow", "GRAPH"], False),
        (["flow", "--bidirectional", "GRAPH"], False),
        (["synth", "GRAPH", "--angles", "ANGLES"], False),
        (["adjoint", "GRAPH", "--angles", "ANGLES"], False),
        (["extract", "GRAPH", "--angles", "ANGLES"], False),
        (["verify", "PATTERN"], True),
    ],
    ids=["flow", "flow-bidirectional", "synth", "adjoint", "extract", "verify"],
)
def test_only_simulating_commands_load_numpy(write, argv, loads_numpy):
    files = {
        "GRAPH": graph_file(write, path_state(3, [1], [3])),
        "ANGLES": write("angles.json", {"1": 0.4, "2": 1.1}),
        "PATTERN": write("h.pat", H_TEXT),
    }
    src = str(Path(causalflow.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, *(files.get(a, a) for a in argv)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == f"numpy loaded: {loads_numpy}"
