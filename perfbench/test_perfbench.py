"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Each workload runs at the shortest length (--seconds 1).  The tests
check that every metric BENCHMARK.json names is printed with its unit,
that no operation fails at this commit, that a corrupted result is
counted as a failure, that times are scaled by the reference times taken
nearest them, and that the benchmark refuses to run without the library
next to it.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import spans  # noqa: E402


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _check_output(proc, metric_specs):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    units = {m["name"]: m["unit"] for m in metric_specs}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines[:-1]), name
    return lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed_and_nothing_fails(workload):
    lines = _check_output(_run(workload, 0), SPEC["end_to_end"])
    assert any(line.split()[:3] == ["failed_ratio", "0", "ratio"] for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_are_printed(workload):
    _check_output(_run(workload, 1), SPEC["per_layer"])


def _corrupt(kind, wrong):
    return harness.Kind(kind.name, kind.layer, lambda rec, inp: wrong(kind.run(rec, inp)), kind.check)


def _wrong_stdout(out):
    proc, wall = out
    proc.stdout = "x" + proc.stdout
    return proc, wall


@pytest.mark.parametrize(
    "module, kind, wrong",
    [
        ("lifting", "LIFT", lambda root: root + 1),
        ("lifting", "HENSEL", lambda gh: (gh[1], gh[0])),
        ("groups_fields", "FACTOR", lambda factors: {f: m + 1 for f, m in factors.items()}),
        ("groups_fields", "DIFFERENT", lambda report: dataclasses.replace(report, different_exponent=0)),
        ("small_ops", "ARITH", lambda out: (out[1], out[0]) + out[2:]),
        ("small_ops", "VP", lambda v: v + 1),
        ("cli_session", "CLI", _wrong_stdout),
    ],
)
def test_corrupted_result_is_counted_as_failure(module, kind, wrong):
    workload = __import__(module)
    real = getattr(workload, kind)
    items = workload.generate(random.Random("corrupt"))[0]
    if module == "groups_fields" and kind == "DIFFERENT":
        group = next(i for i, (k, _) in enumerate(items) if k is workload.GROUP)
        items = items[group : group + 2]  # the group it reads, then different_discriminant
    else:
        items = [(k, inp) for k, inp in items if k is real]
    assert items

    honest = harness.run_loop([items], spans.NullRecorder(), 0)
    assert honest.failed == 0 and honest.attempted == len(items)

    corrupted = [(_corrupt(k, wrong) if k is real else k, inp) for k, inp in items]
    stats = harness.run_loop([corrupted], spans.NullRecorder(), 0)
    expected = sum(1 for k, _ in items if k is real)
    assert stats.attempted == len(items)
    assert stats.failed == expected and len(stats.failures) == min(expected, 5)
    assert stats.failed_by_layer == {real.layer: expected}


def test_latencies_are_scaled_by_the_nearest_reference_times():
    nominal = harness.CPU_REFERENCE.nominal_s
    stats = harness.LoopStats(harness.CPU_REFERENCE)
    stats.references.extend([2 * nominal] * 5 + [nominal / 2] * 5)
    stats.latencies.extend([1.0, 1.0, 1.0])
    stats.segments.extend([0, 5, 9])
    # segment 5 sees references 3..7: two slow ones and three fast ones
    assert stats.scaled_latencies() == [0.5, 2.0, 2.0]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("small_ops", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
