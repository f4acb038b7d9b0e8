"""Turn a workload process's raw samples into the benchmark's metrics.

Names and units here are the ones ``BENCHMARK.json`` lists.
``LAYER_MOVES`` records, before any measurement, which end-to-end metric
each layer should move on which workload; a trace run prints it next to
the measured shares.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Tuple

from perfbench.tracer import COUNTERS, layer_names
from perfbench.workload import POOL_WORKERS

#: (name, unit) of every end-to-end metric, in print order.
END_TO_END = (
    ("units_per_s", "1/s"),
    ("unit_ms_p50", "ms"),
    ("unit_ms_tail", "ms"),
    ("cpu_ms_per_unit", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("accuracy_final", "fraction"),
    ("reward_exterior_mean", "reward"),
)

TOURNAMENT_POPULATIONS = ("paper_n5", "clustered_n1000")
TOURNAMENT_MECHANISMS = (
    "stackelberg", "fmore", "bara", "ding", "greedy", "fixed_price",
    "chiron", "drl_single", "random",
)

#: Layer -> (end-to-end metrics it should move, on which workloads).
LAYER_MOVES = {
    "rl.update": "units_per_s, cpu_ms_per_unit on train_chiron; fl_real via SGD.step/backward; not tournament_w2",
    "nn.optim_step": "units_per_s, cpu_ms_per_unit on train_chiron; units_per_s on fl_real (SGD.step)",
    "autograd.backward": "units_per_s, cpu_ms_per_unit on train_chiron; units_per_s on fl_real",
    "rl.act": "units_per_s on train_chiron; slightly tournament_w2 (eval inference)",
    "rl.observe": "units_per_s on train_chiron; slightly tournament_w2",
    "core.env_step": "units_per_s on tournament_w2 (N=1000 cells); barely train_chiron",
    "core.build": "units_per_s on tournament_w2 (each cell rebuilds its environment)",
    "mechanism.make": "units_per_s on tournament_w2 (each cell builds its mechanism)",
    "mechanism.propose": "units_per_s, unit_ms_tail on tournament_w2 (zoo and static pricing, Ding at N=1000)",
    "fl.learning_step": "units_per_s on tournament_w2 (N=1000 cells); barely train_chiron",
    "population.respond": "units_per_s on tournament_w2 (N=1000 cells); barely train_chiron",
    "fl.local_update": "units_per_s, unit_ms_p50 on fl_real only",
    "fl.aggregate": "units_per_s, unit_ms_p50 on fl_real only",
    "fl.evaluate": "units_per_s, unit_ms_p50 on fl_real only",
    "parallel": "units_per_s, unit_ms_tail on tournament_w2 only",
}


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of ``n`` samples beyond it.

    With :func:`percentile`'s interpolation, percentile ``q`` of ``n``
    distinct samples has at least 10 beyond it while
    ``(n - 1) * q / 100 < n - 10``.  Below 20 samples that rule picks a
    percentile under the median, so the median stands in (and the
    printed note says how many samples lie beyond it).
    """
    if n < 20:
        return 50
    return math.ceil(100.0 * (n - 10) / (n - 1)) - 1


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default rule)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def throughput(result: dict) -> float:
    """Timed units per second of wall time."""
    return len(result["unit_s"]) / result["wall_s"]


def unit_tail(unit_ms: List[float], groups: List[int]) -> Tuple[float, str]:
    """The tail unit time and a note saying how it was taken.

    Each group of consecutive units (train_chiron: one agent's episodes)
    gets its highest percentile with at least 10 units beyond it, and the
    median over groups is the tail.  A stall of the shared host then
    lifts the tail of the group it hits, not the run's.  A run without
    groups is one group.
    """
    tails, start = [], 0
    for size in groups:
        group = unit_ms[start:start + size]
        tails.append(percentile(group, tail_percentile(size)))
        start += size
    q = tail_percentile(groups[0])
    return statistics.median(tails), (
        f"unit_ms_tail: median over {len(groups)} group(s) of p{q} of "
        f"{groups[0]} units each (n={len(unit_ms)})"
    )


def end_to_end(result: dict, setups: List[float]) -> Tuple[Dict[str, dict], List[str]]:
    """End-to-end metrics of one untraced run plus its set-up samples."""
    unit_ms = [s * 1000.0 for s in result["unit_s"]]
    n = len(unit_ms)
    tail, tail_note = unit_tail(unit_ms, result.get("groups") or [n])
    values = {
        "units_per_s": throughput(result),
        "unit_ms_p50": percentile(unit_ms, 50),
        "unit_ms_tail": tail,
        "cpu_ms_per_unit": result["cpu_s"] * 1000.0 / n,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "accuracy_final": result["accuracy_final"],
        "reward_exterior_mean": result["reward_exterior_mean"],
    }
    notes = [
        tail_note,
        "setup_s: median of " + ", ".join(f"{s:.4f}" for s in setups),
    ]
    return {name: _metric(values[name], unit) for name, unit in END_TO_END}, notes


def per_layer_names() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    names: List[Tuple[str, str, str]] = []
    for layer in layer_names():
        names += [
            (f"{layer}_ms", "ms", "lower"),
            (f"{layer}_calls_per_unit", "count", "lower"),
            (f"{layer}_share", "fraction", "lower"),
        ]
    names += [(f"{count}_per_unit", "count", "lower") for count in COUNTERS]
    names += [
        ("parallel.exec_ms", "ms", "lower"),
        ("parallel.return_ms", "ms", "lower"),
        ("parallel.spawn_s", "s", "lower"),
        ("parallel.idle_share", "fraction", "lower"),
        ("parallel.bytes_in", "bytes", "lower"),
        ("parallel.bytes_out", "bytes", "lower"),
        ("parallel.retries", "count", "lower"),
        ("parallel.respawns", "count", "lower"),
        ("parallel.quarantined", "count", "lower"),
    ]
    names += [
        (f"tournament.cell_ms.{group}", "ms", "lower")
        for group in TOURNAMENT_POPULATIONS + TOURNAMENT_MECHANISMS
    ]
    names += [
        ("trace.attributed_share", "fraction", "higher"),
        ("trace.overhead", "ratio", "higher"),
    ]
    return names


def _p50_ms(values: List[float]) -> float:
    return percentile(values, 50) * 1000.0 if values else 0.0


def per_layer(base: dict, traced: dict) -> Tuple[Dict[str, dict], List[str]]:
    """Per-layer metrics of a traced run, against its untraced twin."""
    trace = traced["trace"]
    units = len(traced["unit_s"])
    unit_wall = sum(traced["unit_s"])
    values: Dict[str, float] = {}
    for layer in layer_names():
        durations = trace["durations"][layer]
        values[f"{layer}_ms"] = _p50_ms(durations)
        values[f"{layer}_calls_per_unit"] = len(durations) / units
        values[f"{layer}_share"] = trace["self_time"][layer] / unit_wall
    for count, total in trace["counts"].items():
        values[f"{count}_per_unit"] = total / units
    pool = traced.get("pool", {})
    if "wall_s" in pool:
        values.update(
            {
                "parallel.exec_ms": _p50_ms(traced["unit_s"]),
                "parallel.return_ms": _p50_ms(pool["return_s"]),
                "parallel.spawn_s": pool["spawn_s"],
                "parallel.idle_share": 1.0
                - unit_wall / (POOL_WORKERS * pool["wall_s"]),
                "parallel.bytes_in": pool["bytes_in"],
                "parallel.bytes_out": pool["bytes_out"],
                "parallel.retries": pool["retries"],
                "parallel.respawns": pool["respawns"],
                "parallel.quarantined": pool["quarantined"],
            }
        )
    cells: Dict[str, List[float]] = {}
    for cell in traced.get("cells", []):
        for group in (cell["population"], cell["mechanism"]):
            cells.setdefault(group, []).append(cell["exec_s"])
    for group in TOURNAMENT_POPULATIONS + TOURNAMENT_MECHANISMS:
        values[f"tournament.cell_ms.{group}"] = _p50_ms(cells.get(group, []))
    values["trace.attributed_share"] = sum(trace["self_time"].values()) / unit_wall
    values["trace.overhead"] = throughput(traced) / throughput(base)
    notes = [f"layer moves: {layer} -> {moves}" for layer, moves in LAYER_MOVES.items()]
    notes += [
        f"inclusive share: {layer} {sum(trace['durations'][layer]) / unit_wall:.3f}"
        for layer in layer_names()
    ]
    notes += [
        f"cell time share: {group} {sum(cells[group]) / unit_wall:.3f}"
        for group in TOURNAMENT_POPULATIONS
        if group in cells
    ]
    metrics = {
        name: _metric(values.get(name, 0.0), unit)
        for name, unit, _better in per_layer_names()
    }
    return metrics, notes
