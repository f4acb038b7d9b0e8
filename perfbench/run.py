#!/usr/bin/env python3
"""Repository benchmark: one workload, every end-to-end or per-layer metric.

Run from the repository root::

    python3 perfbench/run.py --workload train_chiron --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/workload.py``): ``train_chiron`` (a Chiron
training episode, Algorithm 1), ``fl_real`` (a federated round on the
numpy CNN) and ``tournament_w2`` (a tournament cell over a 2-worker
pool).  ``--seed`` makes the inputs; ``--seconds`` sets the count of timed
units of the first two (the tournament always times its whole grid).

``--trace 0`` starts ``SETUP_PROBES`` set-up-only processes and one
measured process, each fresh, and prints the end-to-end metrics.
``--trace 1`` runs the workload untraced and then traced, each in a fresh
process, and prints the per-layer metrics; the two runs must produce the
same digest.  Every run checks its digest against the one recorded for
the same source tree, workload, seed and seconds under ``.perfbench/``
in the checkout, and counts a mismatch as a failure.

Before the result, the run prints the host fingerprint, a fixed-size
calibration probe (before and after the workload, to tell a slow host
from a slow program), the digest, the tail percentile rule and one
``name value unit`` line per metric.  The last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Exit codes: 0 with a result; 2 when the program under test is missing
(no ``src/repro``); 1 when a workload process fails without samples.
"""

from __future__ import annotations

import os

THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)  # before numpy loads, here and in children

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.metrics import end_to_end, per_layer  # noqa: E402

WORKLOADS = ("train_chiron", "fl_real", "tournament_w2")
SETUP_PROBES = 5
#: A run, every process it starts included, must end within 180 s.
DEADLINE_S = 170.0
RECORD_DIR = os.path.join(ROOT, ".perfbench", "digests")


class BenchError(RuntimeError):
    """A workload process failed or overran; the run prints no result."""


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("PERFBENCH_TRACE", None)
    return env


def run_child(
    args, deadline: float, *, setup_only: bool = False, trace: bool = False
) -> Tuple[float, Optional[dict]]:
    """Start one fresh workload process; returns (set-up seconds, result).

    Set-up time runs from just before the process starts to its
    ``setup-done`` line: interpreter start, ``import repro``, environment
    and mechanism build, grid lowering.
    """
    cmd = [
        sys.executable, "-m", "perfbench.workload",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "1" if trace else "0",
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True
    )
    setup_s = None
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("setup-done") and setup_s is None:
                setup_s = time.perf_counter() - start
            elif line.startswith("result "):
                result = json.loads(line[len("result "):])
            if time.monotonic() > deadline:
                raise BenchError("workload process overran the run deadline")
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or setup_s is None or (result is None and not setup_only):
        raise BenchError(f"workload process exited with code {code}")
    return setup_s, result


def source_hash() -> str:
    """SHA-256 over the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for folder, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()


def check_record(args, digest: str) -> str:
    """Compare ``digest`` with this tree's record; returns the verdict."""
    folder = os.path.join(RECORD_DIR, source_hash()[:16])
    name = f"{args.workload}-seed{args.seed}-s{args.seconds:g}{'-tiny' if args.tiny else ''}"
    path = os.path.join(folder, name)
    if os.path.exists(path):
        with open(path) as handle:
            recorded = handle.read().strip()
        return "match" if recorded == digest else f"MISMATCH (recorded {recorded})"
    os.makedirs(folder, exist_ok=True)
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w") as handle:
        handle.write(digest + "\n")
    os.replace(tmp, path)
    return "new"


def host_fingerprint() -> dict:
    import numpy as np

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def calibrate() -> dict:
    """Fixed-size host probe: a pure-Python loop and a numpy matmul."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i
    python_ms = (time.perf_counter() - start) * 1000
    a = np.random.default_rng(0).random((256, 256))
    start = time.perf_counter()
    for _ in range(40):
        a = a @ a
        a /= np.abs(a).max()
    matmul_ms = (time.perf_counter() - start) * 1000
    return {"python_loop_ms": round(python_ms, 2), "matmul_ms": round(matmul_ms, 2)}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="seconds-scale runs (self-test)"
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program under test (src/repro)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    host = host_fingerprint()
    calibration = {"before": calibrate()}
    try:
        if args.trace:
            _, base = run_child(args, deadline)
            _, traced = run_child(args, deadline, trace=True)
            results = [base, traced]
            metrics, notes = per_layer(base, traced)
        else:
            setups = [
                run_child(args, deadline, setup_only=True)[0]
                for _ in range(SETUP_PROBES)
            ]
            setup_s, result = run_child(args, deadline)
            results = [result]
            metrics, notes = end_to_end(result, setups + [setup_s])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    calibration["after"] = calibrate()

    digests = {r.get("digest") for r in results}
    digest = results[0].get("digest")
    failed = sum(r["failed"] for r in results)
    if None in digests or len(digests) != 1:
        verdict = f"MISMATCH: missing or differing digests {sorted(map(str, digests))}"
    else:
        verdict = check_record(args, digest)
    if verdict.startswith("MISMATCH"):
        failed += 1
    attempted = sum(r["attempted"] for r in results)

    print("host: " + json.dumps(host, sort_keys=True))
    print("calibration: " + json.dumps(calibration, sort_keys=True))
    print(f"digest: {args.workload} seed={args.seed} {digest} ({verdict})")
    for r in results:
        if r.get("error"):
            print(f"error: {r['error']}")
    for note in notes:
        print(note)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
