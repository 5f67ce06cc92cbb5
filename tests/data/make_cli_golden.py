"""Write ``cli_golden.json``: command lines and what ``causalflow`` prints.

The file holds a set of input files (graph documents, angle maps and pattern
texts) and, for each of several hundred command lines over them, the exit
code, stdout and stderr of one in-process ``causalflow.cli.main`` call.
Input files are named ``<DIR>/name`` in the command lines, and the directory
they were written to reads ``<DIR>`` in the recorded output as well.

The calls cover every subcommand and every flag on valid graphs (paths,
grids, loop geometries, graphs without flow and seeded random graphs), and
the input errors: malformed JSON, graph documents of the wrong shape, ids
that are not JSON integers, each open-graph violation, angle files that are
not objects, hold something other than a finite JSON number or key a qubit
in another spelling than the plain integer, missing files, pattern text
that does not parse (ids and angles spelled in ways ``int`` or ``float``
would still read among it), a ``--y-measured`` item in such a spelling,
the loop flags that ``flow --bidirectional`` does not take and patterns that
are not runnable; and a strong pattern over the dense byte budget, which the
certificate decides.
Usage errors that argparse reports itself are left to ``tests/test_cli.py``:
their text belongs to the Python version.

``tests/test_cli.py`` checks the command line against the file byte for
byte, so the file is regenerated only when a change to the output is
intended:

    PYTHONPATH=src python tests/data/make_cli_golden.py

With ``--diff`` it writes nothing.  It lists the input files and the calls
that a regeneration would add, remove or change, and exits 1 if an input
file or the output of a call already in the file would change, else 0:

    PYTHONPATH=src python tests/data/make_cli_golden.py --diff
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import sys
import tempfile
from pathlib import Path

from causalflow import OpenGraphState, cli, find_flow, print_pattern, synthesize
from make_verify_golden import _grid, _random_graph

OUT = Path(__file__).with_name("cli_golden.json")
DIR = "<DIR>"


def _path(n: int, inputs, outputs) -> OpenGraphState:
    return OpenGraphState(range(1, n + 1), [(k, k + 1) for k in range(1, n)], inputs, outputs)


def valid_graphs() -> dict[str, dict]:
    """Graph documents that are valid open graphs, by file name."""
    loop = _path(3, [1, 3], [1, 3])
    graphs = {
        "path3": _path(3, [1], [3]),
        "hadamard": _path(2, [1], [2]),
        "no-flow": OpenGraphState([1, 2, 3, 4], [(1, 3), (2, 3), (3, 4)], [1, 2], [3, 4]),
        "loop": loop,
        "entanglers-only": OpenGraphState([1, 2], [(1, 2)], [1, 2], [1, 2]),
        "one-way": _path(2, [1], [1, 2]),
        "grid-2x3": _grid(2, 3),
        "isolated": OpenGraphState([1, 2, 3], [(1, 2)], [1], [2, 3]),
        "empty": OpenGraphState([], [], [], []),
        "wide": OpenGraphState(
            range(1, 33), [(k, k + 1) for k in range(1, 33, 2)], range(1, 33, 2), range(2, 33, 2)
        ),
    }
    rng = random.Random(2026)
    graphs.update((f"random-{k}", _random_graph(rng, 5)) for k in range(10))
    docs = {f"{name}.json": g.to_json_dict() for name, g in graphs.items()}
    docs["loop-y.json"] = {**loop.to_json_dict(), "y_measured": [2]}
    docs["loop-y-input.json"] = {**loop.to_json_dict(), "y_measured": [1]}
    docs["loop-y-word.json"] = {**loop.to_json_dict(), "y_measured": ["two"]}
    docs["loop-y-float.json"] = {**loop.to_json_dict(), "y_measured": [2.0]}
    docs["loop-y-bool.json"] = {**loop.to_json_dict(), "y_measured": [True]}
    docs["reversed-edges.json"] = {"vertices": [1, 2, 3], "edges": [[2, 1], [3, 2]], "inputs": [1], "outputs": [3]}
    return docs


def _doc(edges, inputs=(1,), outputs=(2,), vertices=(1, 2)) -> str:
    return json.dumps(
        {"vertices": list(vertices), "edges": [list(e) for e in edges],
         "inputs": list(inputs), "outputs": list(outputs)}
    )


# Graph files that are not valid open graphs: one per violation, one with
# several, and documents that are not graph documents at all.
BAD_GRAPHS = {
    "self-edge.json": _doc([(1, 2), (2, 2)]),
    "self-edge-outputs.json": _doc([(1, 2), (1, 1)], inputs=(1, 2), outputs=(1, 2)),
    "dangling.json": _doc([(1, 2), (2, 3)]),
    "duplicate.json": _doc([(1, 2), (1, 2)]),
    "duplicate-reversed.json": _doc([(1, 2), (2, 1)]),
    "undeclared-input.json": _doc([(1, 2)], inputs=(9,)),
    "undeclared-output.json": _doc([(1, 2)], outputs=(7,)),
    "several.json": _doc([(1, 1), (1, 3), (1, 2), (2, 1)], inputs=(9,), outputs=(7,)),
    "not-json.json": "{not json",
    "empty-file.json": "",
    "list.json": "[1, 2]",
    "no-edges.json": '{"vertices": [1]}',
    "word-vertex.json": '{"vertices": ["a"], "edges": []}',
    "triple-edge.json": '{"vertices": [1, 2], "edges": [[1, 2, 3]]}',
    # ids that int() would coerce: each is named, none is read as a vertex
    "float-vertex.json": '{"vertices": [1, 2.7, true], "edges": [[1, 2]], "inputs": [1], "outputs": [2]}',
    "bool-vertex.json": '{"vertices": [1, true], "edges": [], "inputs": [1], "outputs": [1]}',
    "string-vertex.json": '{"vertices": [1, "2"], "edges": [[1, 2]], "inputs": [1], "outputs": [2]}',
    "float-edge.json": '{"vertices": [1, 2], "edges": [[1, 2.0]], "inputs": [1], "outputs": [2]}',
    "bool-input.json": '{"vertices": [1, 2], "edges": [[1, 2]], "inputs": [true], "outputs": [2]}',
    "float-output.json": '{"vertices": [1, 2], "edges": [[1, 2]], "inputs": [1], "outputs": [2.5]}',
}

ANGLES = {
    "angles.json": json.dumps({str(q): round(0.4 + 0.7 * q, 3) for q in range(1, 33)}),
    "preps.json": json.dumps({"2": 0.5, "3": 0.25, "4": 1.5}),
    "right.json": json.dumps({"2": math.pi / 2}),
}
BAD_ANGLES = {
    "angles-list.json": "[0.1, 0.2]",
    "angles-number.json": "3",
    "angles-word.json": '{"1": "north"}',
    "angles-null.json": '{"1": null}',
    "angles-key.json": '{"one": 0.5}',
    "angles-nan.json": '{"1": NaN}',
    "angles-huge.json": '{"1": 1e400}',
    "angles-not-json.json": "{",
    "angles-bool.json": '{"1": true}',
    "angles-string-number.json": '{"1": "1.5"}',
    # keys that int() would coerce: each is named, none is read as a qubit
    "angles-key-space.json": '{" 2": 0.5, "+1": 0.25}',
    "angles-key-underscore.json": '{"1_0": 0.5}',
    "angles-key-zero.json": '{"02": 0.5}',
}

H_TEXT = "V: 1 2\nI: 1\nO: 2\nN 2 0.0\nE 1 2\nM 1 0.0\nX 2 [1]\n"


def patterns() -> dict[str, str]:
    """Pattern texts, by file name: runnable ones of each verdict, ones that
    are not runnable, and text that does not parse."""
    path3 = _path(3, [1], [3])
    loop = _path(3, [1, 3], [1, 3])
    long = _path(14, [1], [14])
    huge = _path(24, [1], [24])
    return {
        "h.pat": H_TEXT,
        "path3.pat": print_pattern(synthesize(path3, find_flow(path3).flow, {1: 0.4, 2: 1.2}, {2: 0.3, 3: 0.0})),
        "projector.pat": "V: 1 2\nI: 1\nO: 1\nN 2 0.0\nE 1 2\nM 2 0.0\nX 1 [2]\n",
        "stripped.pat": "V: 1 2 3\nI: 1\nO: 3\nN 2 0.0\nN 3 0.0\nE 1 2\nE 2 3\nM 1 0.7\nM 2 0.2\n",
        "loop.pat": print_pattern(
            synthesize(loop, find_flow(loop, loop_candidates=loop.measured).flow, {2: math.pi / 2})
        ),
        "loop-off.pat": print_pattern(
            synthesize(loop, find_flow(loop, loop_candidates=loop.measured).flow, {2: 0.3})
        ),
        "long.pat": print_pattern(synthesize(long, find_flow(long).flow, {q: 0.0 for q in long.measured})),
        # 24 qubits and an input: over the dense byte budget, and certified
        "huge.pat": print_pattern(synthesize(huge, find_flow(huge).flow, {q: 0.0 for q in huge.measured})),
        "early.pat": "V: 1 2\nI: 1\nO: 2\nN 2 0.0\nE 1 2\nZ 2 [1]\nM 1 0.0\nX 2 [1]\n",
        "self-entangler.pat": H_TEXT.replace("E 1 2\n", "E 1 2\nE 2 2\n"),
        "undeclared-io.pat": H_TEXT.replace("I: 1", "I: 1 5").replace("O: 2", "O: 2 6"),
        "unprepared.pat": "V: 1 2\nI: 1\nO: 2\nE 1 2\nM 1 0.0\nX 2 [1]\n",
        "bad-header.pat": H_TEXT.replace("V: 1 2", "V: 1 x"),
        "bad-command.pat": H_TEXT + "Q 1\n",
        "bad-signals.pat": H_TEXT.replace("X 2 [1]", "X 2 1"),
        "no-header.pat": H_TEXT.replace("V: 1 2\n", ""),
        "nan.pat": H_TEXT.replace("M 1 0.0", "M 1 nan"),
        "empty.pat": "",
        # ids and angles that int() or float() would coerce
        "coerced-ids.pat": H_TEXT.replace("M 1 0.0", "M 1_0 0_5"),
        "coerced-angle.pat": H_TEXT.replace("M 1 0.0", "M 1 0_5"),
        "coerced-header.pat": H_TEXT.replace("V: 1 2", "V: 1 02"),
        "coerced-signal.pat": H_TEXT.replace("X 2 [1]", "X 2 [01]"),
        "non-ascii.pat": H_TEXT.replace("N 2 0.0", "N \uff12 0.0"),
    }


def files() -> dict[str, str]:
    """Every input file, by name, as text."""
    out = {name: json.dumps(doc) for name, doc in valid_graphs().items()}
    return out | BAD_GRAPHS | ANGLES | BAD_ANGLES | patterns()


GRAPH_CALLS = [
    ["flow", "G"],
    ["flow", "G", "--loops"],
    ["flow", "G", "--y-measured", "2"],
    ["flow", "G", "--bidirectional"],
    ["synth", "G"],
    ["synth", "G", "--angles", "<DIR>/angles.json"],
    ["synth", "G", "--prep-angles", "<DIR>/preps.json"],
    ["synth", "G", "--stabilizer-form", "--angles", "<DIR>/angles.json"],
    ["synth", "G", "--loops", "--angles", "<DIR>/right.json"],
    ["synth", "G", "--y-measured", "2,3"],
    ["extract", "G"],
    ["extract", "G", "--angles", "<DIR>/angles.json"],
    ["extract", "G", "--check", "--angles", "<DIR>/angles.json"],
    ["adjoint", "G"],
    ["adjoint", "G", "--angles", "<DIR>/angles.json", "--prep-angles", "<DIR>/preps.json"],
]
BAD_GRAPH_CALLS = [
    ["flow", "G"],
    ["flow", "G", "--bidirectional"],
    ["synth", "G", "--loops"],
    ["extract", "G", "--check"],
    ["adjoint", "G"],
]
ANGLE_CALLS = [
    ["synth", "<DIR>/path3.json", "--angles", "A"],
    ["synth", "<DIR>/path3.json", "--prep-angles", "A"],
    ["extract", "<DIR>/path3.json", "--check", "--angles", "A"],
    ["adjoint", "<DIR>/path3.json", "--prep-angles", "A"],
]
VERIFY_CALLS = [
    ["verify", "P"],
    ["verify", "P", "--samples", "0"],
    ["--seed", "3", "verify", "P", "--samples", "4"],
    ["--tolerance", "1e-3", "verify", "P", "--samples", "2"],
]


def calls() -> list[list[str]]:
    """Every command line, naming input files as ``<DIR>/name``."""
    out = []

    def each(templates, slot, names):
        for name in names:
            out.extend([f"{DIR}/{name}" if a == slot else a for a in t] for t in templates)

    each(GRAPH_CALLS, "G", valid_graphs())
    each(BAD_GRAPH_CALLS, "G", BAD_GRAPHS)
    each(ANGLE_CALLS, "A", BAD_ANGLES)
    each(VERIFY_CALLS, "P", patterns())
    out += [
        ["flow", f"{DIR}/missing.json"],
        ["synth", f"{DIR}/path3.json", "--angles", f"{DIR}/missing.json"],
        ["verify", f"{DIR}/missing.pat"],
        ["flow", f"{DIR}/path3.json", "--y-measured", "2,x"],
        ["synth", f"{DIR}/path3.json", "--y-measured", "0_2"],
        ["flow", f"{DIR}/path3.json", "--y-measured", "+2"],
        # loop candidates are not searched in the reversed state
        ["flow", f"{DIR}/loop.json", "--bidirectional", "--loops"],
        ["flow", f"{DIR}/loop.json", "--bidirectional", "--y-measured", "2"],
        ["flow", f"{DIR}/path3.json", "--bidirectional", "--y-measured", "abc"],
        ["identities", "--random", "3", "--angles-grid", "4"],
        ["--seed", "5", "--tolerance", "1e-6", "identities", "--random", "2", "--angles-grid", "2"],
        ["--tolerance", "1e-30", "identities", "--random", "1", "--angles-grid", "2"],
    ]
    return out


def run(argv: list[str], directory: str) -> dict:
    """One in-process ``cli.main`` call with ``<DIR>`` standing for ``directory``
    in its arguments and its output."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([a.replace(DIR, directory) for a in argv])
    return {
        "argv": argv,
        "exit": code,
        "stdout": stdout.getvalue().replace(directory, DIR),
        "stderr": stderr.getvalue().replace(directory, DIR),
    }


def record() -> tuple[dict[str, str], list[dict]]:
    """Every input file, and every call's record."""
    inputs = files()
    with tempfile.TemporaryDirectory() as directory:
        for name, text in inputs.items():
            Path(directory, name).write_text(text, encoding="utf-8")
        entries = [run(argv, directory) for argv in calls()]
    return inputs, entries


def _listed(kind: str, old: dict, new: dict, note=lambda a, b: "") -> int:
    """Print the added, removed and changed items of one kind, each with
    ``note(old item or None, new item)``; return the number changed."""
    print(f"{kind}: {len(old)} -> {len(new)}")
    changed = 0
    for key in new:
        if key not in old:
            print(f"  added {key}{note(None, new[key])}")
    for key in old:
        if key not in new:
            print(f"  removed {key}")
        elif old[key] != new[key]:
            print(f"  changed {key}{note(old[key], new[key])}")
            changed += 1
    return changed


def _call_note(old: dict | None, new: dict) -> str:
    if old is None:
        return f": exit {new['exit']}"
    return ": " + ", ".join(f for f in ("exit", "stdout", "stderr") if old[f] != new[f])


def diff() -> int:
    """Print how a regeneration would change the file; 1 if an input file or
    an existing call's output changes."""
    old = json.loads(OUT.read_text(encoding="utf-8"))
    inputs, entries = record()

    def by_argv(entries: list[dict]) -> dict[str, dict]:
        return {json.dumps(e["argv"]): e for e in entries}

    changed = _listed("files", old["files"], inputs)
    changed += _listed("calls", by_argv(old["calls"]), by_argv(entries), _call_note)
    return 1 if changed else 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--diff", action="store_true", help="list the changes, write nothing")
    if parser.parse_args().diff:
        sys.exit(diff())
    inputs, entries = record()
    lines = ",\n".join(json.dumps(e, separators=(",", ":")) for e in entries)
    OUT.write_text(
        '{"files":' + json.dumps(inputs, indent=0) + ',\n"calls":[\n' + lines + "\n]}\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    main()
