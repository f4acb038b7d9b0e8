"""One workload run, in a fresh process.

``python3 -m perfbench.workload --workload <name> --seed <n> --seconds <s>``
sets the workload up, prints ``setup-done``, runs untimed warm-up units,
collects garbage, times a fixed count of units and prints one line
``result <json>`` with the raw samples.  ``run.py`` starts this process,
times it and turns the samples into metrics.  ``--setup-only`` stops
after set-up (the set-up probes); ``--trace 1`` installs the layer tracer
first; ``--tiny`` shrinks every workload to seconds (self-test only).

Workloads (the unit each one times):

* ``train_chiron`` — one training episode of Algorithm 1: Chiron, paper
  tier, MNIST surrogate accuracy, N=5, budget 60, max_rounds 300, the
  sequential ``train_mechanism`` path; ``TRAIN_AGENTS`` agents per run.
* ``fl_real`` — one federated round (``env.step``) of Chiron driving the
  numpy McMahan CNN: σ=5 local epochs, batch 10, N=5, 30 samples per
  node, 200 test samples; ``FL_AGENTS`` agents per run, one short
  episode each.
* ``tournament_w2`` — one cell of the quick tournament grid
  (``default_grid(seed=0)`` with 1 training and 2 evaluation episodes,
  120 cells) run by ``run_tournament(grid, workers=2)``.

The N=5 fleet of the first two workloads is the fixed paper fleet (build
seed ``FLEET_SEED``); ``--seed`` drives the agents' policy initialisation
and exploration and the environment's episode streams.  In the
tournament it sets the order in which cells are dispatched to the pool.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import pickle
import random
import resource
import sys
import time
from typing import Callable, Dict, List, Optional

FLEET_SEED = 0
GRID_SEED = 0
POOL_WORKERS = 2
CELL_FN_PATH = "perfbench.cell:execute"

#: Timed units per ``--seconds`` and untimed warm-up units.  On a 2-vCPU
#: host the train_chiron window lasts about ``--seconds``; fl_real's
#: rounds vary most in cost (1 to 5 nodes train), so it times about a
#: third longer.  The tournament always times its whole grid.
TRAIN_EPISODES_PER_SECOND = 24
TRAIN_AGENTS = 8
TRAIN_WARMUP = 1  # per agent
FL_ROUNDS_PER_SECOND = 1.8
FL_AGENTS = 12
FL_WARMUP = 2  # rounds, of the first agent's episode


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _digest(rows) -> str:
    blob = json.dumps(rows, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class Window:
    """The timed window: wall and CPU stamps of every unit.

    With ``traced`` the layer tracer is installed in this process; it
    records only while a timed unit runs, so warm-up units and the work
    between units stay out of the per-layer figures.
    """

    def __init__(self, traced: bool):
        self.tracer = None
        if traced:
            from perfbench import tracer as tracer_mod

            self.tracer = tracer_mod.install()
            self.tracer.active = False
        self.stamps: List[tuple] = []
        self.wall0 = self.cpu0 = None

    def open(self) -> None:
        """Collect garbage, then start the window's clocks."""
        gc.collect()
        self.wall0 = time.perf_counter()
        self.cpu0 = time.process_time()

    def timed(self, fn: Callable) -> Callable:
        """``fn`` with each call timed as one unit."""

        def wrapper(*args, **kwargs):
            if self.tracer is not None:
                self.tracer.active = True
            start = (time.perf_counter(), time.process_time())
            try:
                return fn(*args, **kwargs)
            finally:
                self.stamps.append(
                    start + (time.perf_counter(), time.process_time())
                )
                if self.tracer is not None:
                    self.tracer.active = False

        return wrapper

    def unit_s(self) -> List[float]:
        return [end - start for start, _, end, _ in self.stamps]

    def totals(self) -> tuple:
        """(wall s, CPU s) from the window's opening to the last unit's end."""
        _, _, wall, cpu = self.stamps[-1]
        return wall - self.wall0, cpu - self.cpu0


# ---------------------------------------------------------------------------
# train_chiron
# ---------------------------------------------------------------------------


def _fleet(**build):
    """An environment on the fixed N=5 paper fleet."""
    from repro.core.builder import build_environment

    return build_environment(
        task_name="mnist", n_nodes=5, budget=60.0, seed=FLEET_SEED, **build
    ).env


def _chiron(env, seed: int, agent: int):
    """A paper-tier Chiron agent seeded by (seed, agent)."""
    from repro.experiments.mechanisms import make_mechanism
    from repro.utils.rng import SeedSequenceFactory

    rng = SeedSequenceFactory(seed).generator(f"mechanism/{agent}")
    return make_mechanism("chiron", env, rng=rng, tier="paper")


def _rebase(env, seed: int, agent: int) -> None:
    """Rebase ``env``'s episode streams on (seed, agent)."""
    from repro.utils.rng import SeedSequenceFactory

    env.reset(seed=int(SeedSequenceFactory(seed).integers(f"episodes/{agent}", 1)[0]))


class TrainChiron:
    """``TRAIN_AGENTS`` independent Chiron agents trained one after another.

    Episode length, and so the cost of an episode, depends on the policy
    an agent starts from; several agents per run keep that from making
    one seed's run much heavier than another's.
    """

    def __init__(self, seed: int, seconds: float, tiny: bool):
        self.seed = seed
        self.agents = 2 if tiny else TRAIN_AGENTS
        per_agent = 2 if tiny else round(seconds * TRAIN_EPISODES_PER_SECOND / TRAIN_AGENTS)
        self.episodes = max(1, per_agent)

    def setup(self) -> None:
        self.pairs = []
        for agent in range(self.agents):
            env = _fleet(accuracy_mode="surrogate", max_rounds=300)
            self.pairs.append((env, _chiron(env, self.seed, agent)))
            _rebase(env, self.seed, agent)

    def run(self, traced: bool) -> dict:
        from repro.experiments import runner
        from repro.parallel.training import training_fingerprint

        histories = [
            runner.train_mechanism(env, mechanism, TRAIN_WARMUP)
            for env, mechanism in self.pairs
        ]
        window = Window(traced)
        plain = runner.run_episode
        runner.run_episode = window.timed(plain)
        try:
            window.open()
            timed = [
                runner.train_mechanism(env, mechanism, self.episodes)
                for env, mechanism in self.pairs
            ]
        finally:
            runner.run_episode = plain
        for history, more in zip(histories, timed):
            for episode, diag in zip(more.episodes, more.diagnostics):
                history.append(episode, diag)
        episodes = [e for history in timed for e in history.episodes]
        return {
            "window": window,
            "groups": [self.episodes] * self.agents,
            "attempted": self.agents * (TRAIN_WARMUP + self.episodes),
            "digest": _digest([training_fingerprint(h) for h in histories]),
            "accuracy_final": sum(e.final_accuracy for e in episodes) / len(episodes),
            "reward_exterior_mean": sum(e.reward_exterior for e in episodes)
            / len(episodes),
        }


# ---------------------------------------------------------------------------
# fl_real
# ---------------------------------------------------------------------------


class FLReal:
    """``FL_AGENTS`` Chiron agents, one episode of real rounds each.

    A round's cost grows with the nodes the prices recruit (1 to 5), and
    that mix depends on the policy an agent starts from; several agents
    per run keep it from differing much between seeds.  The agents share
    one environment: each episode restarts from the initial global model.
    The first ``FL_WARMUP`` rounds are untimed.
    """

    def __init__(self, seed: int, seconds: float, tiny: bool):
        self.seed = seed
        self.warmup = 1 if tiny else FL_WARMUP
        self.agents = 2 if tiny else FL_AGENTS
        per_agent = 2 if tiny else round(seconds * FL_ROUNDS_PER_SECOND / FL_AGENTS)
        self.rounds = max(1, per_agent)

    def setup(self) -> None:
        # max_rounds ends each episode; budget 60 outlasts it (a round
        # spends about 1).
        self.env = _fleet(
            accuracy_mode="real",
            max_rounds=self.rounds,
            samples_per_node=30,
            test_size=200,
        )
        self.mechanisms = [
            _chiron(self.env, self.seed, agent) for agent in range(self.agents)
        ]

    def run(self, traced: bool) -> dict:
        from repro.experiments import runner

        env = self.env
        window = Window(traced)
        rounds: List[dict] = []
        plain = env.step
        timed_step = window.timed(plain)

        def step(prices):
            if len(rounds) < self.warmup:
                out = plain(prices)
            else:
                if len(rounds) == self.warmup:
                    window.open()
                out = timed_step(prices)
            result = out[4]["step_result"]
            rounds.append(
                {
                    "accuracy": result.accuracy,
                    "participants": list(result.participants),
                    "delivered": list(result.delivered),
                    "reward_exterior": result.reward_exterior,
                }
            )
            return out

        env.step = step
        episodes = []
        try:
            for agent, mechanism in enumerate(self.mechanisms):
                _rebase(env, self.seed, agent)
                episodes += runner.train_mechanism(env, mechanism, 1).episodes
        finally:
            del env.step
        planned = self.agents * self.rounds
        return {
            "window": window,
            "attempted": planned,
            "failed": planned - len(rounds),
            "digest": _digest(rounds),
            "accuracy_final": sum(e.final_accuracy for e in episodes) / len(episodes),
            # Episode totals of the Eqn 14 reward: per-round rewards swing
            # with each round's accuracy gain, an episode's sum much less.
            "reward_exterior_mean": sum(e.reward_exterior for e in episodes)
            / len(episodes),
        }


# ---------------------------------------------------------------------------
# tournament_w2
# ---------------------------------------------------------------------------


class TournamentW2:
    """The fixed quick grid; ``--seed`` sets the order cells are dispatched.

    The grid is ``default_grid(seed=0)``, whose fingerprint is known, so
    every seed must reproduce one digest.  A grid seed would also change
    the cells' episodes, and the cell-time median sits where short paper
    fleet cells give way to long N=1000 ones, so it would swing with the
    seed.  The dispatch order changes which worker runs what and when,
    which is the pool's input, and leaves every cell's result unchanged.
    """

    def __init__(self, seed: int, seconds: float, tiny: bool):
        self.seed = seed
        self.tiny = tiny

    def setup(self) -> None:
        from repro.tournament.grid import default_grid, smoke_grid

        if self.tiny:
            self.grid = smoke_grid(seed=GRID_SEED)
        else:
            self.grid = dataclasses.replace(
                default_grid(seed=GRID_SEED), train_episodes=1, eval_episodes=2
            )
        self.cells = len(self.grid.items())
        self.order = list(range(self.cells))
        random.Random(self.seed).shuffle(self.order)

    def run(self, traced: bool) -> dict:
        from repro.parallel import engine
        from repro.tournament.runner import run_tournament

        from perfbench.cell import BENCH_KEY

        records: Dict[int, dict] = {}
        pool: dict = {"quarantined": 0}
        plain = engine.run_items

        def on_result(index, value):
            record = value.pop(BENCH_KEY)
            record["arrived"] = time.monotonic()
            record["value"] = value
            if traced:
                record["bytes_out"] = len(pickle.dumps(value))
            records[index] = record

        def on_quarantine(failure):
            pool["quarantined"] += 1

        # run_tournament lowers the grid and calls run_sweep, which calls
        # run_items; the benchmark's run_items adds the timed worker entry
        # point and the settle callbacks, and changes nothing else.
        def run_items(payloads, config=None, should_stop=None):
            order = self.order
            if traced:
                pool["bytes_in"] = sum(len(pickle.dumps(p)) for p in payloads)
            pool["start"] = time.monotonic()
            report = plain(
                [payloads[i] for i in order],
                fn_path=CELL_FN_PATH,
                config=config,
                on_result=lambda j, value: on_result(order[j], value),
                on_quarantine=on_quarantine,
                should_stop=should_stop,
            )
            pool["wall"] = time.monotonic() - pool["start"]
            results = [None] * len(order)
            for j, value in enumerate(report.results):
                results[order[j]] = value
            report.results = results
            for failure in report.quarantined:
                failure.index = order[failure.index]
            return report

        if traced:
            os.environ["PERFBENCH_TRACE"] = "1"
        gc.collect()
        engine.run_items = run_items
        wall0 = time.perf_counter()
        cpu0 = _cpu_s(resource.RUSAGE_SELF) + _cpu_s(resource.RUSAGE_CHILDREN)
        error = None
        try:
            result = run_tournament(self.grid, workers=POOL_WORKERS)
        except RuntimeError as exc:  # quarantined cells
            result, error = None, str(exc)
        finally:
            engine.run_items = plain
        wall = time.perf_counter() - wall0
        cpu = _cpu_s(resource.RUSAGE_SELF) + _cpu_s(resource.RUSAGE_CHILDREN) - cpu0

        ordered = [records[i] for i in sorted(records)]
        episodes = [e for r in ordered for e in r["value"]["eval_episodes"]]
        out = {
            "unit_s": [r["end"] - r["start"] for r in ordered],
            "wall_s": wall,
            "cpu_s": cpu,
            "attempted": self.cells,
            "failed": self.cells - len(records),
            "error": error,
            # A quarantined cell leaves no fingerprint, which fails the run.
            "digest": result.fingerprint() if result is not None else None,
            "accuracy_final": sum(e["final_accuracy"] for e in episodes)
            / len(episodes),
            "reward_exterior_mean": sum(e["reward_exterior"] for e in episodes)
            / len(episodes),
            "peak_rss_mb": max(
                _rss_mb(resource.RUSAGE_SELF), _rss_mb(resource.RUSAGE_CHILDREN)
            ),
            "pool": {
                "retries": result.sweep.retries if result is not None else 0,
                "respawns": result.sweep.respawns if result is not None else 0,
            },
            "cells": [
                {
                    "mechanism": r["value"]["key"]["mechanism"],
                    "population": r["value"]["key"]["population"],
                    "exec_s": r["end"] - r["start"],
                }
                for r in ordered
            ],
        }
        if traced:
            from perfbench import tracer as tracer_mod

            first_start: Dict[int, float] = {}
            for r in ordered:
                first_start[r["pid"]] = min(
                    first_start.get(r["pid"], r["start"]), r["start"]
                )
            out["pool"].update(
                {
                    "quarantined": pool["quarantined"],
                    "wall_s": pool["wall"],
                    "spawn_s": max(first_start.values()) - pool["start"],
                    "return_s": [r["arrived"] - r["end"] for r in ordered],
                    "bytes_in": pool["bytes_in"],
                    "bytes_out": sum(r["bytes_out"] for r in ordered),
                }
            )
            out["trace"] = tracer_mod.merge([r["trace"] for r in ordered])
        return out


WORKLOADS = {
    "train_chiron": TrainChiron,
    "fl_real": FLReal,
    "tournament_w2": TournamentW2,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.seconds, args.tiny)
    workload.setup()
    print("setup-done", flush=True)
    if args.setup_only:
        return 0
    out = workload.run(bool(args.trace))
    window = out.pop("window", None)
    if window is not None:
        out["unit_s"] = window.unit_s()
        out["wall_s"], out["cpu_s"] = window.totals()
        if window.tracer is not None:
            out["trace"] = window.tracer.snapshot()
    out.setdefault("failed", 0)
    out.setdefault("peak_rss_mb", _rss_mb(resource.RUSAGE_SELF))
    print("result " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
