"""Write ``verify_golden.json``: pattern texts and their ``verify`` verdicts.

The corpus covers every verdict the classifier gives: synthesized (strongly
deterministic) patterns, patterns with their corrections stripped (not
deterministic, with a witness), X-dropped patterns, loop patterns at and
off pi/2, seeded mutants with one correction dropped or swapped, and a
pattern whose branch of largest norm is not the first.  Each
pattern is classified at 0 and 20 angle samples under two seeds.

``tests/test_simulator.py`` checks the library's verdicts against the file
byte for byte, so the file is regenerated only when a change to the
verdicts is intended:

    PYTHONPATH=src python tests/data/make_verify_golden.py

With ``--diff`` it writes nothing.  It prints each entry whose verdict
would change, with the fields that change and the relative change of
``witness.deviation``, and exits 1 if any classification, ``uniform`` flag,
branch pair or probe would change (or the corpus itself), else 0:

    PYTHONPATH=src python tests/data/make_verify_golden.py --diff
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import sys
from pathlib import Path

import numpy as np

from causalflow import (
    CorrectX,
    CorrectXPhase,
    CorrectZ,
    Entangle,
    Measure,
    OpenGraphState,
    Pattern,
    Prepare,
    classify_determinism,
    drop_x_corrections,
    find_flow,
    print_pattern,
    synthesize,
)

OUT = Path(__file__).with_name("verify_golden.json")
SAMPLES = (0, 20)
SEEDS = (0, 9)
KINDS = ("strong", "stripped", "x-dropped", "mutant")


def _random_graph(rng: random.Random, max_vertices: int) -> OpenGraphState:
    n = rng.randint(2, max_vertices)
    vs = list(range(1, n + 1))
    edges = [e for e in itertools.combinations(vs, 2) if rng.random() < 0.5]
    inputs = [v for v in vs if rng.random() < 0.4]
    outputs = [v for v in vs if rng.random() < 0.5]
    return OpenGraphState(vs, edges, inputs, outputs)


def _grid(rows: int, cols: int) -> OpenGraphState:
    vid = {(r, c): cols * r + c + 1 for r in range(rows) for c in range(cols)}
    edges = [(vid[r, c], vid[r, c + 1]) for r in range(rows) for c in range(cols - 1)]
    edges += [(vid[r, c], vid[r + 1, c]) for r in range(rows - 1) for c in range(cols)]
    return OpenGraphState(
        vid.values(), edges, [vid[r, 0] for r in range(rows)], [vid[r, cols - 1] for r in range(rows)]
    )


def _angles(rng: np.random.Generator, qubits) -> dict[int, float]:
    return {q: float(rng.uniform(0.0, 2.0 * math.pi)) for q in qubits}


def _mutant(p: Pattern, rng: random.Random) -> Pattern:
    """``p`` with one correction dropped, or with its X and Z swapped."""
    spots = [
        k for k, c in enumerate(p.commands) if isinstance(c, (CorrectX, CorrectXPhase, CorrectZ))
    ]
    k = rng.choice(spots)
    cmd = p.commands[k]
    if rng.random() < 0.5:
        middle = []
    elif isinstance(cmd, CorrectZ):
        middle = [CorrectX(cmd.qubit, cmd.signals)]
    else:
        middle = [CorrectZ(cmd.qubit, cmd.signals)]
    commands = list(p.commands[:k]) + middle + list(p.commands[k + 1 :])
    return Pattern(p.vertices, p.inputs, p.outputs, commands)


def corpus() -> list[tuple[str, Pattern]]:
    rng = random.Random(2024)
    arng = np.random.default_rng(2024)
    flows = []
    while len(flows) < 16:
        g = _random_graph(rng, 6)
        found = find_flow(g)
        if found.found and len(g.measured) >= 2:
            flows.append((g, found.flow))
    for rows, cols in ((2, 3), (2, 4), (3, 3)):
        g = _grid(rows, cols)
        flows.append((g, find_flow(g).flow))

    cases = []
    for k, (g, fl) in enumerate(flows):
        p = synthesize(g, fl, _angles(arng, g.measured), _angles(arng, g.prepared))
        # one kind per random geometry in turn, every kind on the grids
        kinds = KINDS if k >= 16 else KINDS[k % 4 : k % 4 + 1]
        if "strong" in kinds:
            cases.append(("strong", p))
        if "stripped" in kinds:
            cases.append(("stripped", p.without_corrections()))
        if "x-dropped" in kinds:
            zero = synthesize(g, fl, {q: 0.0 for q in g.measured})
            cases.append(("x-dropped", drop_x_corrections(zero)))
        if "mutant" in kinds:
            cases += [("mutant", _mutant(p, rng)) for _ in range(2)]
    loop = OpenGraphState([1, 2, 3], [(1, 2), (2, 3)], [1, 3], [1, 3])
    loop_flow = find_flow(loop, loop_candidates=loop.measured).flow
    for alpha in (math.pi / 2, 0.3):
        cases.append(("loop", synthesize(loop, loop_flow, {2: alpha})))
    # deterministic, not strongly: measure an ancilla, correct the input
    projector = [Prepare(2, 0.0), Entangle(1, 2), Measure(2, 0.0), CorrectX(1, {2})]
    cases.append(("projector", Pattern([1, 2], [1], [1], projector)))
    # an uncorrected Hadamard next to an unentangled ancilla, whose outcome 1
    # is the likelier at 2.5: the largest branch is not the first
    weighted = [Prepare(2, 0.0), Entangle(1, 2), Measure(1, 0.7), Prepare(3, 0.0), Measure(3, 2.5)]
    cases.append(("weighted", Pattern([1, 2, 3], [1], [2], weighted)))
    return cases


def entries() -> list[dict]:
    out = []
    for kind, p in corpus():
        text = print_pattern(p)
        for samples, seed in itertools.product(SAMPLES, SEEDS):
            verdict = classify_determinism(p, angle_samples=samples, seed=seed)
            out.append(
                {
                    "kind": kind,
                    "pattern": text,
                    "samples": samples,
                    "seed": seed,
                    "verdict": verdict.to_json_dict(),
                }
            )
    return out


def _changes(old: dict, new: dict) -> tuple[list[str], bool]:
    """Lines describing how one entry's verdict changes, and whether any of
    the changes is more than a witness's deviation."""
    lines, verdict_changed = [], False
    if {k: old[k] for k in ("kind", "pattern", "samples", "seed")} != {
        k: new[k] for k in ("kind", "pattern", "samples", "seed")
    }:
        return ["corpus entry differs"], True
    a, b = old["verdict"], new["verdict"]
    for field in a.keys() | b.keys():
        if field != "witness" and a.get(field) != b.get(field):
            lines.append(f"{field}: {a.get(field)!r} -> {b.get(field)!r}")
            verdict_changed = True
    wa, wb = a.get("witness"), b.get("witness")
    if (wa is None) != (wb is None):
        lines.append(f"witness: {wa!r} -> {wb!r}")
        return lines, True
    if wa is not None:
        for field in wa.keys() | wb.keys():
            if field == "deviation" or wa.get(field) == wb.get(field):
                continue
            lines.append(f"witness.{field}: {wa.get(field)!r} -> {wb.get(field)!r}")
            verdict_changed = True
        if wa["deviation"] != wb["deviation"]:
            rel = (wb["deviation"] - wa["deviation"]) / wa["deviation"]
            lines.append(
                f"witness.deviation: {wa['deviation']!r} -> {wb['deviation']!r} "
                f"(relative {rel:+.2e})"
            )
    return lines, verdict_changed


def diff() -> int:
    """Print how a regeneration would change the file; 1 on a verdict change."""
    old = json.loads(OUT.read_text(encoding="utf-8"))
    new = entries()
    status = 0
    if len(old) != len(new):
        print(f"entry count: {len(old)} -> {len(new)}")
        status = 1
    changed = 0
    for k, (a, b) in enumerate(zip(old, new)):
        lines, verdict_changed = _changes(a, b)
        if lines:
            changed += 1
            print(f"entry {k} ({b['kind']}, samples {b['samples']}, seed {b['seed']}):")
            for line in lines:
                print("  " + line)
        status |= verdict_changed
    print(f"{changed} of {len(new)} entries change")
    return status


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--diff", action="store_true", help="print the changes, write nothing")
    if parser.parse_args().diff:
        sys.exit(diff())
    OUT.write_text(json.dumps(entries(), indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
