"""Pool-worker entry point for the tournament workload.

``run_items`` resolves ``fn_path="perfbench.cell:execute"`` in each
worker.  It runs ``repro.parallel.items:execute`` unchanged and attaches
the worker-side timing under ``BENCH_KEY``; the parent's ``on_result``
removes that key before the sweep sees the result, so the fingerprint is
the one plain execution gives.

``PERFBENCH_TRACE=1`` in the environment (workers inherit it) installs
the layer tracer in the worker and ships each item's layer record back.
"""

from __future__ import annotations

import os
import time

# Warm-up: cells import these lazily.  Importing them when the pool
# starts the worker keeps the one-time import out of the time of the
# first cell of each kind a worker runs; pool start-up still pays it.
import repro.baselines  # noqa: F401
import repro.core.builder  # noqa: F401
import repro.core.chiron  # noqa: F401
import repro.experiments.runner  # noqa: F401
import repro.zoo  # noqa: F401
from repro.parallel.items import execute as _execute

from perfbench import tracer as _tracer_mod

BENCH_KEY = "_perfbench"

#: This worker's tracer, installed by the first traced item.
_tracer = None


def execute(payload):
    global _tracer
    if _tracer is None and os.environ.get("PERFBENCH_TRACE") == "1":
        _tracer = _tracer_mod.install()
    if _tracer is not None:
        _tracer.reset()
    start = time.monotonic()
    result = _execute(payload)
    end = time.monotonic()
    result[BENCH_KEY] = {
        "start": start,
        "end": end,
        "pid": os.getpid(),
        "trace": _tracer.snapshot() if _tracer is not None else None,
    }
    return result
