"""One benchmark worker: a fresh interpreter that imports localarith,
generates its inputs from the seed and runs the measurement loop.

run.py starts several of these one after another and passes the
monotonic time at which it launched each one, so that set-up time
(interpreter start, ``import localarith``, input generation) is measured
from outside the worker; it is scaled to the nominal speed by
START_REFERENCE timings taken right after it (see harness.py).  The worker prints one JSON
object on stdout.
With ``--trace 1`` it runs an untraced and a traced phase of equal
length, alternating their order between shards.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REFERENCES = 3


def _cache_info():
    from localarith.finitefield import FiniteField

    info = FiniteField.cache_info()
    return info.hits, info.misses


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--shard", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--launched", type=float, required=True, help="time.monotonic() at launch")
    parser.add_argument("--spans", default=None, help="file to write the traced phase's spans to")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    os.environ.pop("PADIC_PREC", None)
    import localarith

    if Path(localarith.__file__).resolve().parent != SRC / "localarith":
        print(f"localarith was imported from {localarith.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from harness import CPU_REFERENCE, START_REFERENCE, run_loop
    from spans import NullRecorder, Recorder

    workload = importlib.import_module(args.workload)
    t0 = time.perf_counter()
    cycles = workload.generate(random.Random(f"{args.workload}:{args.seed}:{args.shard}"))
    gen_s = time.perf_counter() - t0
    # the inputs live for the whole run: keep them out of the collector's
    # full passes, which would otherwise land inside random timed calls
    gc.collect()
    gc.freeze()
    setup_s = time.monotonic() - args.launched
    factor = START_REFERENCE.factor([START_REFERENCE.time() for _ in range(SETUP_REFERENCES)])
    reference = getattr(workload, "REFERENCE", CPU_REFERENCE)

    phases = ["untraced", "traced"] if args.trace else ["untraced"]
    if args.shard % 2:
        phases.reverse()
    result = {
        "setup_s": setup_s * factor,
        "setup_raw_s": setup_s,
        "gen_s": gen_s,
        "phases": {},
    }
    for phase in phases:
        rec = Recorder() if phase == "traced" else NullRecorder()
        before = _cache_info()
        stats = run_loop(cycles, rec, args.seconds / len(phases), reference)
        after = _cache_info()
        entry = stats.as_dict()
        entry["cache_hits"] = after[0] - before[0]
        entry["cache_misses"] = after[1] - before[1]
        if rec.traced:
            entry["spans"] = rec.summary()
            entry["samples"] = rec.samples
            if args.spans:
                rec.write(args.spans)
        result["phases"][phase] = entry

    usage = resource.RUSAGE_CHILDREN if getattr(workload, "RSS_OF_CHILDREN", False) else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
