"""Spans around the benchmark's calls into the program.

Workload operations reach the program only through a ``call(name, fn,
*args, **kwargs)`` function, so one operation body serves three kinds of
pass:

* :func:`untraced_call` only calls; the end-to-end metrics come from
  passes that use it.
* :class:`Tracer` records a span per call (name, start, end, parent
  operation) and the counters of :data:`COUNTERS`, kept in memory and
  written out at the end of the run.
* :class:`PeakProbe` records the tracemalloc peak of the calls named in
  :data:`PEAK_CALLS`.  It runs in a pass of its own, because tracemalloc
  slows every allocation and would distort the spans.
"""

from __future__ import annotations

import json
import time
import tracemalloc

BYTES_PER_AMPLITUDE = 16


def _classify_counts(verdict, args, kwargs) -> dict:
    pattern = args[0]
    batch = verdict.angle_samples + 1
    n = pattern.n_measurements
    return {
        "branch_maps": batch * 2**n,
        # the engine's batch tensor: one axis per qubit and per input
        "tensor_mb_computed": batch
        * 2 ** (len(pattern.vertices) + len(pattern.inputs))
        * BYTES_PER_AMPLITUDE
        / 2**20,
    }


COUNTERS = {
    "pattern.synthesize": lambda r, a, k: {"commands": len(r.commands)},
    "simulator.classify_determinism": _classify_counts,
    "circuit_extract.extract_circuit": lambda r, a, k: {"gates": len(r.gates)},
}

PEAK_CALLS = frozenset({"simulator.classify_determinism"})


def untraced_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._parent: int | None = None

    def _span(self, name: str, start: float, end: float, parent) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": parent,
            "start": start,
            "end": end,
        }
        self.spans.append(span)
        return span

    def operation(self, label: str, kind: str, body):
        """Run one benchmark operation ``body(call)`` inside a parent span."""
        span = self._span("op." + label, time.perf_counter(), None, None)
        span["kind"] = kind
        self._parent = span["id"]
        try:
            return body(self.call)
        finally:
            span["end"] = time.perf_counter()
            self._parent = None

    def call(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named after the program function."""
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span = self._span(name, start, time.perf_counter(), self._parent)
        if name in COUNTERS:
            span.update(COUNTERS[name](result, args, kwargs))
        return result

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


class PeakProbe:
    """Largest tracemalloc peak seen inside the calls of :data:`PEAK_CALLS`."""

    def __init__(self) -> None:
        self.peak_mb = 0.0

    def call(self, name, fn, *args, **kwargs):
        if name not in PEAK_CALLS:
            return fn(*args, **kwargs)
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            self.peak_mb = max(self.peak_mb, peak)
