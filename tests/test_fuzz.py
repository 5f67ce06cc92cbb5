"""A seeded fuzz gate on the command line's inputs.

Mutants of the graph, angle and pattern files that ``cli_golden.json``
holds go through an in-process ``main()``.  Every call must exit with 0, 1
or 2 (returned, or raised as argparse's ``SystemExit`` for a bad flag) and
raise nothing else; an id, an angle-file key or a numeric flag spelled in a
way that ``int()`` or ``float()`` would still read (``+2``, ``02``, ``0_2``,
``2.0``, ``1_0e-3``, ...) must exit 2, and so must a file that is not
UTF-8.  Every pattern mutant that parses goes through ``check_runnable``,
whose walk must raise on none of them, and through ``certify_strong``,
which must return a bool; and every runnable one of at most 8 measurements
must give dense branch maps equal to ``run_branch``'s within 1e-12, from
the lazy order of the dense pass's plan (``Pattern._plan`` states the
order), and equal to each other within 1e-12 when the certificate
certifies it.
"""

import contextlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from causalflow import PatternError, check_runnable, parse_pattern, run_branch, simulator
from causalflow.cli import main
from causalflow.pattern import certify_strong

FILES = json.loads(
    (Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8")
)["files"]
PATTERNS = [text for name, text in FILES.items() if name.endswith(".pat")]
DOCUMENTS = [text for name, text in FILES.items() if name.endswith(".json")]
GRAPH = FILES["path3.json"]
ANGLES = [json.loads(FILES[name]) for name in ("angles.json", "preps.json", "right.json")]
GRAPH_CALLS = [
    ["flow", "G"],
    ["flow", "G", "--bidirectional"],
    ["flow", "G", "--loops"],
    ["synth", "G", "--loops"],
    ["extract", "G", "--check"],
    ["adjoint", "G"],
]
ANGLE_CALLS = [
    ["synth", "G", "--angles", "A"],
    ["extract", "G", "--check", "--angles", "A"],
    ["adjoint", "G", "--prep-angles", "A"],
]
# values a mutant puts where an id, an angle or a whole list was
ODD_VALUES = [None, True, False, 0, -1, 2.5, 3.0, 99, 1e300, 10**400, math.inf, math.nan]
ODD_VALUES += ["2", "x", "", [], {}]
ODD_TOKENS = ["x", "-1", "0", "99", "nan", "inf", "1e400", "[]", "[1,2]", "[9]", "2.5", "{1}", ""]
FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
# the numeric flags, each with a value for "{}"
FLAG_CALLS = [
    ["verify", "P", "--samples", "{}"],
    ["--seed", "{}", "verify", "P"],
    ["identities", "--angles-grid", "{}"],
    ["identities", "--random", "{}"],
]


def _respelled(q: int, rng: random.Random) -> str:
    """A spelling of ``q`` that ``int()`` reads as ``q``, but not ``str(q)``."""
    sign = "-" if q < 0 else rng.choice(["", "+"])
    digits = str(abs(q))
    spelled = sign + rng.choice(
        [
            "0" + digits,
            "0_" + digits,
            digits,
            digits.translate(FULLWIDTH),
            digits.translate(ARABIC_INDIC),
        ]
    )
    return sign + "0" + digits if spelled == str(q) else spelled


def _respelled_number(rng: random.Random) -> str:
    """A positive number that ``float()`` reads, spelled with an underscore
    or non-ASCII digits."""
    text = rng.choice(["1e-10", "0.25", "125e-4"])
    if rng.random() < 0.5:
        return text.translate(rng.choice([FULLWIDTH, ARABIC_INDIC]))
    k = rng.choice([k for k in range(1, len(text)) if text[k - 1 : k + 1].isdigit()])
    return text[:k] + "_" + text[k:]


def _not_utf8(text: str, rng: random.Random) -> bytes:
    """``text`` in UTF-8 with one byte that no UTF-8 text holds there put in."""
    data = text.encode("utf-8")
    k = rng.randrange(len(data) + 1)
    return data[:k] + rng.choice([b"\xff", b"\x80", b"\xc3"]) + data[k:]


def _call(argv: list[str], files: dict[str, str | bytes], tmp_path: Path) -> int:
    """``main(argv)`` with ``G``, ``A`` and ``P`` naming files written from
    ``files``, text as UTF-8; fails the test unless it exits with 0, 1 or 2."""
    for name, text in files.items():
        data = text if isinstance(text, bytes) else text.encode("utf-8")
        (tmp_path / name).write_bytes(data)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            # argparse's exit on a flag it cannot read
            code = exc.code
    assert code in (0, 1, 2), (argv, files)
    return code


def _mutate_json(value, rng: random.Random):
    """``value`` with one element, key or list entry changed, dropped or doubled."""
    if isinstance(value, dict) and value and rng.random() < 0.8:
        key = rng.choice(list(value))
        out = dict(value)
        move = rng.randrange(3)
        if move == 0:
            del out[key]
        elif move == 1:
            out[key] = _mutate_json(out[key], rng)
        else:
            out[rng.choice(["y_measured", "inputs", "9", "-1", "x"])] = rng.choice(ODD_VALUES)
        return out
    if isinstance(value, list) and value and rng.random() < 0.8:
        out = list(value)
        k = rng.randrange(len(out))
        move = rng.randrange(3)
        if move == 0:
            del out[k]
        elif move == 1:
            out[k] = _mutate_json(out[k], rng)
        else:
            out.insert(k, out[k])
        return out
    return rng.choice(ODD_VALUES)


def _respell_json_id(doc: dict, rng: random.Random) -> dict | None:
    """``doc`` with one integer id written as a float, a string or a bool."""
    spots = [
        (key, k) for key in ("vertices", "inputs", "outputs", "y_measured")
        for k, q in enumerate(doc.get(key, [])) if type(q) is int
    ]
    if not spots:
        return None
    key, k = rng.choice(spots)
    q = doc[key][k]
    spellings = [float(q), str(q)] + ([bool(q)] if q in (0, 1) else [])
    return {**doc, key: [*doc[key][:k], rng.choice(spellings), *doc[key][k + 1 :]]}


def _mutate_text(text: str, rng: random.Random) -> str:
    """``text`` with one line dropped, doubled, swapped or added, or one
    token replaced."""
    lines = text.splitlines() or [""]
    k = rng.randrange(len(lines))
    move = rng.randrange(5)
    if move == 0:
        del lines[k]
    elif move == 1:
        lines.insert(k, lines[k])
    elif move == 2:
        j = rng.randrange(len(lines))
        lines[k], lines[j] = lines[j], lines[k]
    elif move == 3:
        q, r = rng.randint(1, 5), rng.randint(1, 5)
        angle = rng.choice(["0.0", "0.5", "3.14"])
        commands = [f"N {q} {angle}", f"E {q} {r}", f"M {q} {angle}"]
        commands += [f"X {q} [{r}]", f"Z {q} [{r}]", f"XA {q} {angle} [{r}]"]
        lines.insert(k, rng.choice(commands))
    else:
        tokens = lines[k].split() or [""]
        j = rng.randrange(len(tokens))
        tokens[j] = rng.choice(ODD_TOKENS + tokens)
        lines[k] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _respell_text_id(text: str, rng: random.Random) -> str | None:
    """``text`` with one header id, qubit or signal respelled, or None if it
    holds none."""
    lines = text.splitlines()
    spots = []
    for k, line in enumerate(lines):
        tokens = line.split()
        # header ids, the qubit of each command, the second qubit of E, signals
        for j, token in enumerate(tokens):
            is_id = tokens[0] in ("V:", "I:", "O:") or j == 1 or (j == 2 and tokens[0] == "E")
            if (is_id and token.lstrip("-").isdigit()) or (token.startswith("[") and token != "[]"):
                spots.append((k, j))
    if not spots:
        return None
    k, j = rng.choice(spots)
    tokens = lines[k].split()
    token = tokens[j]
    if token.startswith("["):
        signals = token[1:-1].split(",")
        s = rng.randrange(len(signals))
        # the signal syntax admits digits alone
        signals[s] = "0" + signals[s]
        tokens[j] = "[" + ",".join(signals) + "]"
    else:
        tokens[j] = _respelled(int(token), rng)
    lines[k] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _assert_dense_equals_run_branch(text: str) -> int:
    """Compare the dense maps with run_branch's on a runnable pattern of at
    most 8 measurements, and with each other if the certificate certifies
    it; returns 1 if it compared, else 0."""
    try:
        p = parse_pattern(text)
    except PatternError:
        return 0
    certified = certify_strong(p)
    assert type(certified) is bool
    if not check_runnable(p).ok or p.n_measurements > 8 or len(p.vertices) + len(p.inputs) > 16:
        return 0
    maps = simulator._run_branches(p, list(p.measure_angles().values())).maps(p.outputs)
    for s, m in enumerate(maps):
        label = simulator._outcome_label(s, len(maps))
        np.testing.assert_allclose(m, run_branch(p, label), atol=1e-12, err_msg=text)
        if certified:
            np.testing.assert_allclose(m, maps[0], atol=1e-12, err_msg=text)
    return 1


@pytest.mark.parametrize("seed", [0, 1])
def test_mutated_inputs(tmp_path, seed):
    rng = random.Random(seed)
    compared = respelled = 0
    for _ in range(60):
        doc = rng.choice(DOCUMENTS)
        try:
            parsed = json.loads(doc)
        except json.JSONDecodeError:
            parsed = None
        if parsed is None:
            mutant = doc[: rng.randrange(len(doc) + 1)]
        else:
            mutant = json.dumps(_mutate_json(parsed, rng))
        for argv in rng.sample(GRAPH_CALLS, 2):
            _call(argv, {"G": mutant}, tmp_path)
        _call(rng.choice(ANGLE_CALLS), {"G": GRAPH, "A": mutant}, tmp_path)
        assert _call(rng.choice(GRAPH_CALLS), {"G": _not_utf8(mutant, rng)}, tmp_path) == 2
        files = {"G": GRAPH, "A": _not_utf8(mutant, rng)}
        assert _call(rng.choice(ANGLE_CALLS), files, tmp_path) == 2
        if isinstance(parsed, dict) and "vertices" in parsed:
            spelled = _respell_json_id(parsed, rng)
            if spelled is not None:
                assert _call(rng.choice(GRAPH_CALLS), {"G": json.dumps(spelled)}, tmp_path) == 2
                respelled += 1
        key = rng.choice([1, 2, 3])
        angles = {k: v for k, v in rng.choice(ANGLES).items() if k != str(key)}
        angles[_respelled(key, rng)] = 0.5
        assert _call(rng.choice(ANGLE_CALLS), {"G": GRAPH, "A": json.dumps(angles)}, tmp_path) == 2
        respelled += 1
    for _ in range(200):
        text = rng.choice(PATTERNS)
        mutant = _mutate_text(text, rng)
        _call(["verify", "P", "--samples", "2"], {"P": mutant}, tmp_path)
        compared += _assert_dense_equals_run_branch(mutant)
        assert _call(["verify", "P", "--samples", "0"], {"P": _not_utf8(mutant, rng)}, tmp_path) == 2
        spelled = _respell_text_id(text, rng)
        if spelled is not None:
            assert _call(["verify", "P", "--samples", "0"], {"P": spelled}, tmp_path) == 2
            respelled += 1
    y = _respelled(rng.choice([1, 2, 3]), rng)
    assert _call(["synth", "G", "--y-measured", f"2,{y}"], {"G": GRAPH}, tmp_path) == 2
    pattern = {"P": rng.choice(PATTERNS)}
    for _ in range(20):
        argv = [a.format(_respelled(rng.randint(0, 30), rng)) for a in rng.choice(FLAG_CALLS)]
        assert _call(argv, pattern, tmp_path) == 2
        argv = ["--tolerance", _respelled_number(rng), "verify", "P", "--samples", "0"]
        assert _call(argv, pattern, tmp_path) == 2
        respelled += 2
    # the draw reaches each kind of check
    assert compared >= 20 and respelled >= 240
