"""The closed measurement loop shared by every workload.

One client, no threads: an operation starts only after the previous one
has finished and been checked.  Only the library call is timed; input
generation happens before the loop and checking after each call, and
both are reported as harness time so that they are never read as
library time.

Times are reported at a nominal host speed.  The shared host this was
written on changes speed by up to a fifth within seconds and by more
over minutes, which no run length averages away, and the cost of
starting a process and loading compiled packages moves on its own, by
a quarter in steps that leave the speed of computing and of starting a
bare interpreter unchanged.  So the loop also times a ``Reference``, a
fixed piece of benchmark-owned work of the same nature as the
operations, every so often, and each operation's wall time is
multiplied by the reference's nominal time over its local time.
In-process workloads use ``CPU_REFERENCE`` (interpreted loops,
Fractions, big integers mod p^N, what the library spends its time on);
workloads whose operations are new processes use ``START_REFERENCE`` (a
fresh interpreter that imports numpy, a large compiled package the
library does not own), and so does set-up time.  A change to the
library moves the scaled times as it moves the raw ones; a change in
host speed moves the reference with them and cancels.  The raw wall
times are kept and reported too.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from array import array
from fractions import Fraction
from time import perf_counter

_LOCAL = 2  # local speed: median of the reference times this many either side
_MODULUS = 7**600


class Reference:
    """``time()`` runs a fixed piece of work that calls nothing in the
    library and returns its wall time.  Scaled times read as if it took
    ``nominal_s``, about its median on the 2-core Xeon host the benchmark
    was written on.  The loop times it again after any operation that
    ends ``every_s`` or more after the last timing."""

    __slots__ = ("time", "nominal_s", "every_s")

    def __init__(self, time, nominal_s, every_s):
        self.time = time
        self.nominal_s = nominal_s
        self.every_s = every_s

    def factor(self, times) -> float:
        """nominal_s over the median of some of its times."""
        return self.nominal_s / statistics.median(times)


def _compute() -> float:
    t0 = perf_counter()
    s = 0
    for i in range(8000):
        s += i * i % 7
    x = Fraction(1, 3)
    for i in range(1, 80):
        x = x * Fraction(i, 7) + Fraction(1, i + 1)
    a = 3**900
    for _ in range(140):
        a = a * a % _MODULUS
    return perf_counter() - t0


def _start() -> float:
    # with pipes, run() waits on them, not by polling the child every
    # few tens of milliseconds as it does without them
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True, check=True, timeout=60)
    return perf_counter() - t0


CPU_REFERENCE = Reference(_compute, 0.0025, 0.1)
START_REFERENCE = Reference(_start, 0.18, 1.0)


class Kind:
    """One kind of operation.

    ``run(rec, inp)`` makes the library call(s) and returns the output;
    ``check(rec, inp, out)`` returns whether the output is correct.  A
    kind with ``expect`` set is fed inputs built to be invalid: raising
    that error class is its correct result, and ``check`` is not used.
    ``layer`` is the module a failure of this kind is charged to.
    """

    __slots__ = ("name", "layer", "run", "check", "expect")

    def __init__(self, name, layer, run, check=None, expect=None):
        self.name = name
        self.layer = layer
        self.run = run
        self.check = check
        self.expect = expect


class LoopStats:
    """Per operation, in order: latency, kind, whether it was verified and
    the index of the last reference time taken before it."""

    def __init__(self, reference):
        self.reference = reference
        self.latencies = array("d")
        self.segments = array("I")
        self.references = array("d")
        self.kinds = array("H")
        self.verified = array("b")
        self.kind_names: list[str] = []
        self.failed_by_layer: dict[str, int] = {}
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.verified)

    @property
    def failed(self) -> int:
        return len(self.verified) - sum(self.verified)

    def scaled_latencies(self) -> list[float]:
        """Each latency scaled by the reference times taken nearest it, up
        to _LOCAL either side."""
        refs = self.references
        factors = [self.reference.factor(refs[max(0, k - _LOCAL) : k + _LOCAL + 1]) for k in range(len(refs))]
        return [t * factors[k] for t, k in zip(self.latencies, self.segments)]

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "latencies": list(self.latencies),
            "scaled_latencies": self.scaled_latencies(),
            "references": list(self.references),
            "factor": self.reference.factor(self.references),
            "kinds": list(self.kinds),
            "verified": list(self.verified),
            "kind_names": self.kind_names,
            "failed_by_layer": self.failed_by_layer,
            "failures": self.failures,
        }


def _verify(rec, kind, inp, out) -> bool:
    if kind.expect is not None:
        return isinstance(out, kind.expect)
    if isinstance(out, Exception):
        return False
    return bool(kind.check(rec, inp, out))


def run_loop(cycles, rec, budget_s: float, reference: Reference = CPU_REFERENCE) -> LoopStats:
    """Run the cycles round-robin until ``budget_s`` seconds of wall time
    have passed.  The deadline is checked only between cycles, so a run
    executes whole cycles, the same mix of operation kinds every time; at
    least one cycle always runs.  The reference is timed before the first
    operation and then as often as it asks."""
    stats = LoopStats(reference)
    kind_ids: dict[str, int] = {}
    stats.references.append(reference.time())
    calibrated = perf_counter()
    deadline = calibrated + budget_s
    index = 0
    while True:
        for kind, inp in cycles[index % len(cycles)]:
            rec.op_id += 1
            with rec.span("op"):
                t0 = perf_counter()
                try:
                    out = kind.run(rec, inp)
                except Exception as exc:  # counted as a failure, the run goes on
                    out = exc
                t1 = perf_counter()
                with rec.span("harness.verify"):
                    try:
                        ok = _verify(rec, kind, inp, out)
                    except Exception as exc:  # a check that cannot parse the output fails it
                        ok, out = False, exc
            kid = kind_ids.get(kind.name)
            if kid is None:
                kid = kind_ids[kind.name] = len(stats.kind_names)
                stats.kind_names.append(kind.name)
            stats.latencies.append(t1 - t0)
            stats.segments.append(len(stats.references) - 1)
            stats.kinds.append(kid)
            stats.verified.append(ok)
            if not ok:
                stats.failed_by_layer[kind.layer] = stats.failed_by_layer.get(kind.layer, 0) + 1
                if len(stats.failures) < 5:
                    stats.failures.append(f"{kind.name}: {out!r:.300}")
            if perf_counter() - calibrated >= reference.every_s:
                stats.references.append(reference.time())
                calibrated = perf_counter()
        index += 1
        if perf_counter() >= deadline:
            return stats


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence, 0 < q <= 100."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    return count - max(1, math.ceil(q / 100 * count))
