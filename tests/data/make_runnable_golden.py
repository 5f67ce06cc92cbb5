"""Write ``runnable_golden.json``: pattern texts and what one walk over their
commands finds.

The corpus is every pattern of at most five qubits in the verify corpus
(``make_verify_golden.py``) plus, three times over, a seeded mutant of each
for every way a pattern file can break runnability: a command dropped,
duplicated, or swapped with its neighbour; a command retargeted to an
undeclared, an input or an output qubit; a correction moved before the
measurement of its signal; and a qubit measured again.  After those, once
per pattern, come a mutant with a qubit entangled with itself and one with
an input or output outside the declared qubits; they are drawn last, so the
earlier mutants stay as they were.  Each entry records the pattern's
``check_runnable`` violations, its ``measurement_order`` and its
``measure_angles`` items, one entry per line, in under 160 KB.

``tests/test_pattern.py`` checks the library against the file byte for
byte, so the file is regenerated only when a change to the runnability
rules or their texts is intended:

    PYTHONPATH=src python tests/data/make_runnable_golden.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from causalflow import (
    CorrectX,
    CorrectXPhase,
    CorrectZ,
    Entangle,
    Measure,
    Pattern,
    check_runnable,
    print_pattern,
)
from make_verify_golden import corpus

OUT = Path(__file__).with_name("runnable_golden.json")
CORRECTIONS = (CorrectX, CorrectXPhase, CorrectZ)
MAX_QUBITS = 5
DRAWS = 3


def _with(p: Pattern, commands) -> Pattern:
    return Pattern(p.vertices, p.inputs, p.outputs, commands)


def _drop(p: Pattern, rng: random.Random) -> Pattern:
    k = rng.randrange(len(p.commands))
    return _with(p, p.commands[:k] + p.commands[k + 1 :])


def _duplicate(p: Pattern, rng: random.Random) -> Pattern:
    k = rng.randrange(len(p.commands))
    return _with(p, p.commands[: k + 1] + p.commands[k:])


def _swap(p: Pattern, rng: random.Random) -> Pattern:
    k = rng.randrange(len(p.commands) - 1)
    cmds = list(p.commands)
    cmds[k], cmds[k + 1] = cmds[k + 1], cmds[k]
    return _with(p, cmds)


def _retarget(p: Pattern, rng: random.Random, where: str) -> Pattern:
    """One command's qubit (one endpoint of an entangler) moved to an
    undeclared, an input or an output qubit; to an undeclared one when the
    pattern has no qubit of the asked kind."""
    pool = {
        "undeclared": [max(p.vertices) + 1, 0],
        "input": list(p.inputs),
        "output": list(p.outputs),
    }[where]
    if not pool:
        pool = [max(p.vertices) + 1]
    k = rng.randrange(len(p.commands))
    cmd = p.commands[k]
    name = rng.choice("ab") if isinstance(cmd, Entangle) else "qubit"
    fields = {field: getattr(cmd, field) for field in type(cmd)._fields}
    fields[name] = rng.choice(pool)
    moved = type(cmd)(**fields)
    return _with(p, p.commands[:k] + (moved,) + p.commands[k + 1 :])


def _early_correction(p: Pattern, rng: random.Random) -> Pattern:
    """A correction moved to just before the measurement of one of its signals."""
    spots = [k for k, c in enumerate(p.commands) if isinstance(c, CORRECTIONS) and c.signals]
    k = rng.choice(spots)
    cmd = p.commands[k]
    signal = rng.choice(sorted(cmd.signals))
    rest = p.commands[:k] + p.commands[k + 1 :]
    m = next(j for j, c in enumerate(rest) if isinstance(c, Measure) and c.qubit == signal)
    return _with(p, rest[:m] + (cmd,) + rest[m:])


def _measure_again(p: Pattern, rng: random.Random) -> Pattern:
    """A measured qubit measured once more, at a new angle, somewhere later."""
    spots = [k for k, c in enumerate(p.commands) if isinstance(c, Measure)]
    k = rng.choice(spots)
    again = Measure(p.commands[k].qubit, rng.uniform(0.0, 6.0))
    at = rng.randint(k + 1, len(p.commands))
    return _with(p, p.commands[:at] + (again,) + p.commands[at:])


def _self_entangle(p: Pattern, rng: random.Random) -> Pattern:
    """An entangler of a declared qubit with itself, inserted anywhere."""
    at = rng.randint(0, len(p.commands))
    cmd = Entangle(*[rng.choice(p.vertices)] * 2)
    return _with(p, p.commands[:at] + (cmd,) + p.commands[at:])


def _undeclared_io(p: Pattern, rng: random.Random) -> Pattern:
    """An input or an output added outside the declared qubits."""
    q = max(p.vertices) + rng.randint(1, 3)
    if rng.random() < 0.5:
        return Pattern(p.vertices, p.inputs + (q,), p.outputs, p.commands)
    return Pattern(p.vertices, p.inputs, p.outputs + (q,), p.commands)


MUTATIONS = {
    "drop": _drop,
    "duplicate": _duplicate,
    "swap": _swap,
    "undeclared": lambda p, rng: _retarget(p, rng, "undeclared"),
    "input": lambda p, rng: _retarget(p, rng, "input"),
    "output": lambda p, rng: _retarget(p, rng, "output"),
    "early-correction": _early_correction,
    "measure-again": _measure_again,
}
LATER_MUTATIONS = {"self-entangle": _self_entangle, "undeclared-io": _undeclared_io}


def cases() -> list[tuple[str, Pattern]]:
    rng = random.Random(2025)
    small = [(kind, p) for kind, p in corpus() if len(p.vertices) <= MAX_QUBITS]
    out = []
    for kind, p in small:
        out.append((kind, p))
        has_signal = any(isinstance(c, CORRECTIONS) and c.signals for c in p.commands)
        for _ in range(DRAWS):
            for name, mutate in MUTATIONS.items():
                if name != "early-correction" or has_signal:
                    out.append((name, mutate(p, rng)))
    for _, p in small:
        for name, mutate in LATER_MUTATIONS.items():
            out.append((name, mutate(p, rng)))
    return out


def main() -> None:
    entries = []
    for kind, p in cases():
        entries.append(
            {
                "kind": kind,
                "pattern": print_pattern(p),
                "violations": list(check_runnable(p).violations),
                "measurement_order": list(p.measurement_order),
                "measure_angles": [[q, a] for q, a in p.measure_angles().items()],
            }
        )
    lines = ",\n".join(json.dumps(e, separators=(",", ":")) for e in entries)
    OUT.write_text("[\n" + lines + "\n]\n", encoding="utf-8")


if __name__ == "__main__":
    main()
