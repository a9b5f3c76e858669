"""The localarith benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The library is used from ``src`` as it
stands; nothing is installed.  Workloads (see each module's docstring
for why it was chosen and which layers it exercises):

    cli_session    fresh ``python -m localarith.cli`` processes, one at a time
    lifting        high-precision p-adic and polynomial lifting, N in {128, 512}
    groups_fields  cyclotomic ramification groups and GF(q)[T] factoring
    small_ops      many cheap calls at N <= 32

The run starts fresh worker interpreters one after another, each
measuring a share of ``--seconds``; the load is one process at a time
with one thread, a closed loop.  Every operation's output is checked.
With ``--trace 0`` four workers run untraced and the last line carries
the end-to-end metrics.  With ``--trace 1`` two workers each run an
untraced and a traced phase and the last line carries the per-layer
metrics.  Every time is scaled to a nominal host speed by a reference
piece of work timed alongside (see harness.py); the raw wall times are
printed on the report lines.  Earlier lines describe the machine and
each metric in words; a summary and the recorded spans go to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from harness import percentile, samples_beyond

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("cli_session", "lifting", "groups_fields", "small_ops")
WORKERS = 4  # untraced runs: four start-ups give set-up time a median
TRACED_WORKERS = 2  # one worker runs its traced phase first, the other second
IMPORT_REPEATS = 5
# Tail percentile per workload: a high percentile with at least ten
# samples beyond it at --seconds 20.  Runs execute whole cycles, so the
# share of each operation kind is fixed, and each percentile is chosen to
# fall inside one kind's group of latencies however many cycles a run
# gets, not on the edge between two groups, where it would jump between
# them from run to run.  lifting: the slope factorization of exp7.
# groups_fields: the middle of the two 10+10 factorizations of each
# cycle, below its one order-512 group.  small_ops: p99.95, about 60
# samples beyond; the ~120k calls would allow p99.99, but its dozen
# samples are the calls a host pause happened to hit, and over ten seeds
# it spread by 0.31 of its median, more than any bound allows.
TAIL = {
    "cli_session": 88.0,
    "lifting": 96.0,
    "groups_fields": 98.0,
    "small_ops": 99.95,
}

LAYERS = ("padic", "polynomials", "ramification", "finitefield", "valuations", "extensions", "bernoulli")
P50 = (
    ("padic.newton_lift", "ms"),
    ("padic.sqrt", "ms"),
    ("padic.teichmuller", "ms"),
    ("padic.arith", "us"),
    ("polynomials.resultant", "ms"),
    ("polynomials.hensel_lift_factors", "ms"),
    ("polynomials.refine_factorization", "ms"),
    ("polynomials.slope_factorization", "ms"),
    ("polynomials.weierstrass_prepare", "ms"),
    ("polynomials.newton_polygon", "ms"),
    ("ramification.cyclotomic_group", "ms"),
    ("ramification.different_discriminant", "ms"),
    ("ramification.herbrand_functions", "ms"),
    ("ramification.upper_numbering", "ms"),
    ("ramification.quotient_filtration", "ms"),
    ("finitefield.factor_monic", "ms"),
    ("finitefield.is_irreducible", "ms"),
    ("valuations.vp_rational", "us"),
    ("valuations.product_formula_report", "ms"),
    ("valuations.sum_formula_check", "ms"),
    ("extensions.count_tame_extensions", "ms"),
    ("bernoulli.bernoulli", "ms"),
)
RECENT = (  # per-call time at the sizes of the first baseline, untraced
    "padic.sqrt.recent",
    "polynomials.hensel_lift_factors.recent",
    "polynomials.slope_factorization.recent",
    "polynomials.resultant.recent",
    "ramification.cyclotomic_group.recent",
    "finitefield.factor_monic.recent",
)
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def _child_env():
    env = dict(os.environ)
    env.pop("PADIC_PREC", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _commit(),
        "load": "one worker process at a time, one thread, closed loop",
        "isolation": "none: no CPU pinning and no kernel or cgroup settings",
    }


def _commit() -> str:
    """HEAD of the checkout, if the checkout is itself a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unavailable"
    return lines[1]


# -- workers ------------------------------------------------------------------------------


def run_workers(workload: str, seed: int, seconds: int, trace: int) -> list[dict]:
    out = []
    count = TRACED_WORKERS if trace else WORKERS
    for shard in range(count):
        command = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", workload, "--seed", str(seed), "--shard", str(shard),
            "--seconds", str(seconds / count), "--trace", str(trace),
            "--spans", str(RESULTS / f"spans-{workload}-{shard}.jsonl") if trace else "",
        ]
        launched = time.monotonic()
        proc = subprocess.run(
            command + ["--launched", repr(launched)],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode:
            raise RuntimeError(f"worker {shard} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def _phases(workers, name):
    return [w["phases"][name] for w in workers]


def _latencies(phases, key="scaled_latencies") -> list[float]:
    return sorted(x for ph in phases for x in ph[key])


def _ops_per_s(phases, key="scaled_latencies") -> float:
    """Verified operations per second of timed library calls."""
    verified = sum(ph["attempted"] - ph["failed"] for ph in phases)
    return verified / sum(sum(ph[key]) for ph in phases)


# -- end-to-end metrics ---------------------------------------------------------------------


def end_to_end(workload: str, workers: list[dict]) -> tuple[dict, list[str]]:
    phases = _phases(workers, "untraced")
    lat = _latencies(phases)
    attempted = sum(ph["attempted"] for ph in phases)
    failed = sum(ph["failed"] for ph in phases)
    q = TAIL[workload]
    setups = [w["setup_s"] for w in workers]
    peaks = [w["peak_rss_mb"] for w in workers]
    raw = _latencies(phases, "latencies")
    references = [r for ph in phases for r in ph["references"]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (_ops_per_s(phases), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (percentile(lat, q) * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(peaks), "MB"),
    }
    beyond = samples_beyond(len(lat), q)
    notes = [
        f"setup_s          median of {len(setups)} worker start-ups: "
        + ", ".join(f"{s:.4f}" for s in setups)
        + f"; raw {statistics.median(w['setup_raw_s'] for w in workers):.4f} s",
        f"ops_per_s        {attempted - failed} verified operations over "
        f"{sum(lat):.4f} s of timed library calls; raw {_ops_per_s(phases, 'latencies'):.6g} 1/s",
        f"raw wall times   p50 {statistics.median(raw) * 1e3:.6g} ms, p{q:g} {percentile(raw, q) * 1e3:.6g} ms; "
        f"reference median {statistics.median(references) * 1e3:.4g} ms over {len(references)} timings",
        f"latency_tail_ms  p{q:g}: {beyond} of {len(lat)} samples beyond it"
        + ("" if beyond >= 10 else "  (fewer than ten: run longer)"),
        f"failed_ratio     {failed / attempted:.6g} ratio ({failed} of {attempted} attempted)",
        "peak_rss_mb      median over the workers of each one's peak"
        + (" (its largest CLI child process)" if workload == "cli_session" else "")
        + ": " + ", ".join(f"{m:.1f}" for m in peaks)
        + "; the largest moves by up to 14 MB with the seed's inputs",
    ]
    return metrics, notes


# -- per-layer metrics ------------------------------------------------------------------------


def _import_breakdown() -> dict:
    """Median wall time of a bare interpreter, and `-X importtime` figures
    for ``import localarith`` (self and cumulative, microseconds)."""
    bare, rows = [], []
    env = _child_env()
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, capture_output=True, check=True, timeout=60)
        bare.append(time.perf_counter() - t0)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import localarith"],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        rows.append(_parse_importtime(proc.stderr))

    def med(name, column):
        return statistics.median(r.get(name, (0, 0))[column] for r in rows) / 1e3

    return {
        "import.interpreter_ms": statistics.median(bare) * 1e3,
        "import.localarith_ms": med("localarith", 1),
        "import.numpy_ms": med("numpy", 1),
        "import.ramification_self_ms": med("localarith.ramification", 0),
    }


def _parse_importtime(text: str) -> dict[str, tuple[int, int]]:
    """{module: (self us, cumulative us)} from `python -X importtime`."""
    out = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = [f.strip() for f in line.split(":", 1)[1].split("|")]
        if fields[0].isdigit():
            out[fields[2]] = (int(fields[0]), int(fields[1]))
    return out


def per_layer(workload: str, workers: list[dict]) -> tuple[dict, list[str]]:
    """Span times are scaled by each traced phase's median reference time
    (on cli_session START_REFERENCE, in-process cli.main included);
    the import breakdown is raw, and import.interpreter_ms shows the
    host's speed of starting processes."""
    traced, untraced = _phases(workers, "traced"), _phases(workers, "untraced")
    spans: dict[str, dict] = {}
    for ph in traced:
        factor = ph["factor"]
        for name, entry in ph["spans"].items():
            merged = spans.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": []})
            merged["calls"] += entry["calls"]
            merged["self_s"] += entry["self_s"] * factor
            merged["durations"] += [d * factor for d in entry["durations"]]

    def median_of(values):
        return statistics.median(values) if values else 0.0

    m: dict[str, tuple[float, str]] = {}
    for name, value in _import_breakdown().items():
        m[name] = (value, "ms")
    startup = [x * ph["factor"] for ph in traced for x in ph["samples"].get("cli.startup_ms", [])]
    m["cli.startup_ms"] = (median_of(startup), "ms")
    main = spans.get("cli.main", {"calls": 0, "self_s": 0.0})
    m["cli.main.busy_s"] = (main["self_s"], "s")
    m["cli.main.calls"] = (main["calls"], "count")
    for layer in LAYERS:
        mine = [e for name, e in spans.items() if name.startswith(layer + ".")]
        m[f"{layer}.calls"] = (sum(e["calls"] for e in mine), "count")
        m[f"{layer}.busy_s"] = (sum(e["self_s"] for e in mine), "s")
        m[f"{layer}.failed"] = (sum(ph["failed_by_layer"].get(layer, 0) for ph in traced), "count")
    for name, unit in P50:
        durations = spans.get(name, {}).get("durations", [])
        m[f"{name}.p50_{unit}"] = (median_of(durations) * SCALE[unit], unit)
    for kind in RECENT:
        values = [
            x
            for ph in untraced
            for x, k in zip(ph["scaled_latencies"], ph["kinds"])
            if ph["kind_names"][k] == kind
        ]
        m[f"{kind}_ms"] = (median_of(values) * 1e3, "ms")
    hits = sum(ph["cache_hits"] for ph in traced)
    lookups = hits + sum(ph["cache_misses"] for ph in traced)
    m["finitefield.field_cache_hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    m["finitefield.field_cache_lookups"] = (lookups, "count")
    m["harness.gen.busy_s"] = (sum(w["gen_s"] for w in workers), "s")
    m["harness.verify.busy_s"] = (spans.get("harness.verify", {}).get("self_s", 0.0), "s")
    attempted = sum(ph["attempted"] for ph in traced)
    m["failed_ratio"] = (sum(ph["failed"] for ph in traced) / attempted, "ratio")
    m["trace.overhead_ratio"] = (_ops_per_s(traced) / _ops_per_s(untraced), "ratio")
    notes = [
        f"trace.overhead_ratio  traced ops/s {_ops_per_s(traced):.6g} over untraced {_ops_per_s(untraced):.6g}",
        f"finitefield.field_cache_hit_ratio  base: {lookups} FiniteField lookups in the traced phase",
        "p50 and busy figures come from spans recorded around calls into the library; "
        "a metric of 0 with 0 calls means this workload does not call that function",
    ]
    return m, notes


# -- main ---------------------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    needed = [ROOT / "src" / "localarith" / "cli.py", ROOT / "tests" / "golden" / "reproduce_all.txt"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"not a localarith checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    env = environment()
    try:
        workers = run_workers(args.workload, args.seed, args.seconds, args.trace)
        metrics, notes = (per_layer if args.trace else end_to_end)(args.workload, workers)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    phases = [ph for w in workers for ph in w["phases"].values()]
    attempted = sum(ph["attempted"] for ph in phases)
    failed = sum(ph["failed"] for ph in phases)
    failures = [f for ph in phases for f in ph["failures"]]

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:.6g} {unit}")
    for note in notes:
        print("  " + note)
    for failure in failures:
        print("  FAILED " + failure)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    summary = dict(result, environment=env, notes=notes, failures=failures, seed=args.seed)
    (RESULTS / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
