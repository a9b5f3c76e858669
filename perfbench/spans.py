"""Span recorder for the traced run.

A span is (name, start, end, parent span, operation id).  Spans are kept
in memory in flat arrays while the run is timed and written out once at
the end.  The untraced run uses NullRecorder, whose spans do nothing,
so the two runs execute the same benchmark code.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    traced = False
    op_id = -1

    def span(self, name: str):
        return _NULL_SPAN

    def sample(self, name: str, value: float) -> None:
        pass


class _Span:
    __slots__ = ("rec", "name", "index")

    def __init__(self, rec, name):
        self.rec = rec
        self.name = name

    def __enter__(self):
        rec = self.rec
        ids = rec._name_ids
        nid = ids.get(self.name)
        if nid is None:
            nid = ids[self.name] = len(rec.names)
            rec.names.append(self.name)
        self.index = len(rec.start)
        rec.name.append(nid)
        rec.parent.append(rec._stack[-1])
        rec.op.append(rec.op_id)
        rec.end.append(0.0)
        rec._stack.append(self.index)
        rec.start.append(perf_counter())
        return self

    def __exit__(self, *exc):
        rec = self.rec
        rec.end[self.index] = perf_counter()
        rec._stack.pop()
        return False


class Recorder:
    traced = True

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self._stack = [-1]
        self.samples: dict[str, list[float]] = {}

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def sample(self, name: str, value: float) -> None:
        """Record a measurement that is not a span, such as a difference."""
        self.samples.setdefault(name, []).append(value)

    def self_times(self) -> array:
        """Each span's duration minus the time its child spans cover.

        Spans nest strictly (one thread, context managers), so the
        children of a span never overlap and their durations add."""
        out = array("d", (e - s for s, e in zip(self.start, self.end)))
        for i, par in enumerate(self.parent):
            if par >= 0:
                out[par] -= self.end[i] - self.start[i]
        return out

    def summary(self) -> dict:
        """Per span name: calls, total self time and all durations."""
        selfs = self.self_times()
        out = {name: {"calls": 0, "self_s": 0.0, "durations": []} for name in self.names}
        for i, nid in enumerate(self.name):
            entry = out[self.names[nid]]
            entry["calls"] += 1
            entry["self_s"] += selfs[i]
            entry["durations"].append(self.end[i] - self.start[i])
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, nid in enumerate(self.name):
                fh.write(
                    json.dumps(
                        [self.names[nid], self.start[i], self.end[i], self.parent[i], self.op[i]]
                    )
                    + "\n"
                )
