"""Layer tracer: times calls into each layer's public functions.

The benchmark does not instrument the program.  :func:`install` replaces
a fixed list of methods and functions (``LAYERS``) with timing wrappers
for the life of the process, so the traced run measures the same code the
untraced run executes, plus the wrapper cost that ``trace.overhead``
reports.

Self time follows the usual rule: a call's duration minus the time its
nested traced calls took.  Self times never double count, so their sum
over all layers, divided by unit wall time, is the share of the unit the
wrappers attribute (``trace.attributed_share``).
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, module, owner, attribute, count name or None).  The owner is
#: a class, or ``None`` for a module-level function.  A count entry adds
#: ``COUNTERS[count](args)`` to that counter on every call.
_PROPOSE = "propose_prices"
LAYERS: Tuple[Tuple[str, str, Optional[str], str, Optional[str]], ...] = (
    ("rl.update", "repro.rl.ppo", "PPOAgent", "update", "rl.update_transitions"),
    ("rl.act", "repro.core.chiron", "ChironAgent", _PROPOSE, None),
    ("rl.act", "repro.baselines.drl_single", "DRLSingleAgent", _PROPOSE, None),
    ("rl.observe", "repro.core.chiron", "ChironAgent", "observe", None),
    ("rl.observe", "repro.baselines.drl_single", "DRLSingleAgent", "observe", None),
    ("nn.optim_step", "repro.nn.optim", "Adam", "step", None),
    ("nn.optim_step", "repro.nn.optim", "SGD", "step", "fl.sgd_steps"),
    ("autograd.backward", "repro.autograd.tensor", "Tensor", "backward", None),
    ("core.env_step", "repro.core.env", "EdgeLearningEnv", "step", None),
    ("core.build", "repro.core.builder", "BuildConfig", "build", None),
    ("mechanism.make", "repro.experiments.mechanisms", None, "make_mechanism", None),
    ("mechanism.propose", "repro.zoo.stackelberg", "StackelbergMechanism", _PROPOSE, None),
    ("mechanism.propose", "repro.zoo.fmore", "FMoreAuctionMechanism", _PROPOSE, None),
    ("mechanism.propose", "repro.zoo.bara", "BARAMechanism", _PROPOSE, None),
    ("mechanism.propose", "repro.zoo.ding", "DingJointPricingMechanism", _PROPOSE, None),
    ("mechanism.propose", "repro.baselines.greedy", "GreedyMechanism", _PROPOSE, None),
    ("mechanism.propose", "repro.baselines.fixed_price", "FixedPriceMechanism", _PROPOSE, None),
    ("mechanism.propose", "repro.baselines.random_policy", "RandomMechanism", _PROPOSE, None),
    ("fl.learning_step", "repro.fl.accuracy", "SurrogateAccuracy", "step", None),
    ("fl.learning_step", "repro.fl.accuracy", "RealTrainingAccuracy", "step", None),
    ("population.respond", "repro.population.soa", "SoAPopulation", "respond", None),
    ("population.respond", "repro.population.object_backend", "ObjectPopulation", "respond", None),
    ("fl.local_update", "repro.fl.node", "EdgeNode", "local_update", None),
    ("fl.aggregate", "repro.fl.server", "ParameterServer", "aggregate", None),
    ("fl.evaluate", "repro.fl.server", "ParameterServer", "evaluate", None),
)

#: How each counter measures one call, from the call's positional args.
COUNTERS: Dict[str, Callable[[tuple], int]] = {
    "rl.update_transitions": lambda args: len(args[0].buffer),
    "fl.sgd_steps": lambda args: 1,
}


def layer_names() -> List[str]:
    """Distinct layer names in ``LAYERS`` order."""
    return list(dict.fromkeys(entry[0] for entry in LAYERS))


class Tracer:
    """Per-layer call durations, self times and counters."""

    def __init__(self):
        self._stack: List[float] = []
        #: Calls made while inactive run untimed (between timed units).
        self.active = True
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far (a pool worker's previous item)."""
        self.durations: Dict[str, List[float]] = {n: [] for n in layer_names()}
        self.self_time: Dict[str, float] = {n: 0.0 for n in layer_names()}
        self.counts: Dict[str, int] = {n: 0 for n in COUNTERS}

    def wrap(self, layer: str, fn, count: Optional[str]):
        stack = self._stack
        clock = time.perf_counter
        counter = COUNTERS[count] if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if counter is not None:
                self.counts[count] += counter(args)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.durations[layer].append(elapsed)
                self.self_time[layer] += elapsed - nested

        return traced

    def snapshot(self) -> dict:
        """Plain-data copy, picklable across the pool's pipes."""
        return {
            "durations": {k: list(v) for k, v in self.durations.items()},
            "self_time": dict(self.self_time),
            "counts": dict(self.counts),
        }


def merge(snapshots: List[dict]) -> dict:
    """Sum several :meth:`Tracer.snapshot` results (one per pool item)."""
    merged = Tracer().snapshot()
    for snap in snapshots:
        for layer, values in snap["durations"].items():
            merged["durations"][layer].extend(values)
        for layer, value in snap["self_time"].items():
            merged["self_time"][layer] += value
        for name, value in snap["counts"].items():
            merged["counts"][name] += value
    return merged


def install() -> Tracer:
    """Wrap every ``LAYERS`` method in this process; returns the tracer."""
    tracer = Tracer()
    for layer, module_name, owner_name, attr, count in LAYERS:
        owner = importlib.import_module(module_name)
        if owner_name is not None:
            owner = getattr(owner, owner_name)
        setattr(owner, attr, tracer.wrap(layer, vars(owner)[attr], count))
    return tracer
