#!/usr/bin/env python3
"""Seconds-scale self-test of the benchmark itself.

Run from the repository root: ``python3 perfbench/selftest.py``.  Checks
that

* ``BENCHMARK.json`` lists exactly the metrics, units and workloads the
  code prints;
* the tail-percentile rule leaves at least 10 samples beyond the tail;
* every workload, run twice with ``--tiny``, prints every end-to-end
  metric by name and unit and the same digest both times, and its traced
  run prints every per-layer metric;
* without the program under test the benchmark exits nonzero and prints
  no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.metrics import (  # noqa: E402
    END_TO_END,
    per_layer_names,
    percentile,
    tail_percentile,
)
from perfbench.run import WORKLOADS  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_manifest() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    check(
        [w["name"] for w in manifest["workloads"]] == list(WORKLOADS),
        "BENCHMARK.json workloads differ from run.py",
    )
    check(
        [(m["name"], m["unit"]) for m in manifest["end_to_end"]]
        == list(END_TO_END),
        "BENCHMARK.json end_to_end differs from metrics.END_TO_END",
    )
    check(
        [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]]
        == per_layer_names(),
        "BENCHMARK.json per_layer differs from metrics.per_layer_names()",
    )


def check_tail_rule() -> None:
    for n in range(20, 3000, 7):
        samples = [float(i) for i in range(n)]
        q = tail_percentile(n)
        beyond = sum(v > percentile(samples, q) for v in samples)
        check(beyond >= 10, f"p{q} of {n} samples leaves {beyond} beyond")
        above = sum(v > percentile(samples, q + 1) for v in samples)
        check(above < 10 or q + 1 >= 100, f"p{q + 1} also qualifies for n={n}")


def result_of(proc: subprocess.CompletedProcess, what: str) -> dict:
    check(proc.returncode == 0, f"{what} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(
        sorted(result) == ["attempted", "correct", "failed", "metrics"],
        f"{what}: result keys {sorted(result)}",
    )
    check(result["correct"] and result["failed"] == 0, f"{what}: {result}")
    return result


def digest_line(proc: subprocess.CompletedProcess) -> str:
    lines = [line for line in proc.stdout.splitlines() if line.startswith("digest:")]
    check(len(lines) == 1, "one digest line per run")
    return lines[0].split()[3]


def check_workload(workload: str) -> None:
    args = ["--workload", workload, "--seed", "7", "--seconds", "1", "--tiny"]
    first = bench(*args, "--trace", "0")
    second = bench(*args, "--trace", "0")
    for proc in (first, second):
        metrics = result_of(proc, workload)["metrics"]
        check(
            [(k, v["unit"]) for k, v in metrics.items()] == list(END_TO_END),
            f"{workload}: end-to-end metrics {list(metrics)}",
        )
        for name, unit in END_TO_END:
            check(
                any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                    for line in proc.stdout.splitlines()),
                f"{workload}: {name} not printed with its unit",
            )
            check(metrics[name]["value"] != 0, f"{workload}: {name} is 0")
    check(digest_line(first) == digest_line(second), f"{workload}: digests differ")
    traced = bench(*args, "--trace", "1")
    metrics = result_of(traced, f"{workload} traced")["metrics"]
    check(
        [(k, v["unit"]) for k, v in metrics.items()]
        == [(n, u) for n, u, _ in per_layer_names()],
        f"{workload}: per-layer metrics differ",
    )
    check(digest_line(traced) == digest_line(first), f"{workload}: traced digest differs")
    print(f"selftest: {workload} ok ({digest_line(first)[:12]})")


def check_without_program() -> None:
    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            os.path.join(ROOT, "perfbench"),
            os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        check(proc.returncode != 0, "runs without the program under test")
        check('"metrics"' not in proc.stdout, "prints a result without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_manifest()
    check_tail_rule()
    check_without_program()
    for workload in WORKLOADS:
        check_workload(workload)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
