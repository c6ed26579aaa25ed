"""The three workloads: their instances and the ops run on them.

A workload is a fixed list of instances.  Each instance has
``VARIANTS`` seeded variants, and a workload seed picks one variant per
instance and the order of all ops.  The reference outputs in
``reference/`` cover every variant, so any seed can be checked.
``BENCHMARK.json`` says why each workload exists.

What an op's cost hinges on (sizes, rule structure, target positions,
kernel supports) is drawn from ``shape`` and fixed per instance, so
that different seeds cost the same to within the benchmark's bounds;
layered minds are generated to a narrow family-size band so instances of
one kind cost alike.  Variants change only cost-neutral details: priors,
kernel weights, query targets and starts, episode seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import gen

VARIANTS = 4


@dataclass
class Op:
    """One benchmark op: a CLI call, or for ``tree-audit`` the equivalent API sequence."""

    label: str
    family: str
    command: str
    params: dict
    expect: dict = field(default_factory=dict)
    kernel: Optional[Callable] = None  # the randomized strategy of a ``tree-audit`` op
    key: str = ""

    def argv(self) -> list[str]:
        out = [self.command]
        for flag, value in self.params.items():
            if value is True:
                out.append(f"--{flag}")
            else:
                out += [f"--{flag}", str(value)]
        return out

    @property
    def fmt(self) -> str:
        if self.command == "broadcast-min" or self.params.get("format") == "csv":
            return "text"
        return "json"


@dataclass
class Instance:
    name: str
    variant: int
    files: dict  # "mind" / "scenario" -> JSON document
    ops: list


MIND, SCENARIO = "@mind", "@scenario"


def _op(label, family, command, expect=None, **params) -> Op:
    return Op(label, family, command, params, expect or {})


# --- lattice -------------------------------------------------------------

def _antichain(n):
    def make(shape, vary):
        mind = gen.antichain_mind(n)
        xs = mind["concepts"][1:]
        ops = [
            _op("reach-json", "reach-json", "reach", {"antichain": n}, mind=MIND, format="json"),
            _op("reach-csv", "reach-csv", "reach", {"antichain": n}, mind=MIND, format="csv"),
            _op("closure", "closure", "closure", mind=MIND),
            _op("closure-start", "closure", "closure", mind=MIND,
                start=",".join(vary.sample(xs, 2))),
        ]
        for j, x in enumerate(vary.sample(xs, 2)):
            ops.append(_op(f"distance-{j}", "distance", "distance", mind=MIND, target=x))
        for j, x in enumerate(vary.sample(xs, 2)):
            ops.append(_op(f"derive-{j}", "derive", "derive", mind=MIND, target=x))
        return {"mind": mind}, ops
    return make


def _layered_small(depth):
    def make(shape, vary):
        mind = gen.layered_mind_sized(shape, 4, depth, 120, 150)
        order = gen.topological_order(mind)
        return {"mind": mind}, [
            _op("reach-json", "reach-json", "reach", mind=MIND, format="json"),
            _op("distance", "distance", "distance", mind=MIND, target=vary.choice(order)),
            _op("derive", "derive", "derive", mind=MIND, target=vary.choice(order)),
        ]
    return make


def _layered_large(shape, vary):
    mind = gen.layered_mind_sized(shape, 5, 5, 1800, 2200)
    order = gen.topological_order(mind)
    scenario = gen.layered_scenario(vary, vary, mind, "scripted", len(order) + 1)
    half = mind["axioms"] + order[: len(order) // 2]
    return {"mind": mind, "scenario": scenario}, [
        _op("reach-csv", "reach-csv", "reach", mind=MIND, format="csv"),
        _op("capacity", "capacity", "capacity", scenario=SCENARIO),
        _op("capacity-state", "capacity", "capacity", scenario=SCENARIO, state=",".join(half)),
        _op("distance", "distance", "distance", mind=MIND, target=order[-1]),
        _op("derive", "derive", "derive", mind=MIND, target=vary.choice(order)),
        _op("closure", "closure", "closure", mind=MIND,
            start=",".join(mind["axioms"] + vary.sample(order, 3))),
    ]


# --- teach ---------------------------------------------------------------

def _simulate(label, horizon, episodes, fmt, vary, expect=None):
    return _op(label, f"simulate-{fmt}", "simulate", expect, scenario=SCENARIO,
               seed=vary.randrange(1000), horizon=horizon, episodes=episodes, format=fmt)


def _layered_teach(kind):
    def make(shape, vary):
        mind = gen.layered_mind(shape, 4, 3)
        horizon = len(gen.topological_order(mind)) + 2
        scenario = gen.layered_scenario(shape, vary, mind, kind, horizon)
        return {"scenario": scenario}, [
            _simulate("simulate-json", horizon, 2, "json", vary),
            _simulate("simulate-csv", horizon, 2, "csv", vary),
            _op("value", "value", "value", scenario=SCENARIO, horizon=vary.randint(1, horizon)),
        ]
    return make


def _chain_short(depth, episodes=2, formats=("json", "csv")):
    """BFS-bound chain ops: value, and simulations too short to leave the chain's start."""
    def make(shape, vary):
        scenario = gen.chain_scenario(shape, vary, depth)
        ops = [_op("value", "value", "value", scenario=SCENARIO,
                   horizon=vary.randint(depth // 5, depth))]
        ops += [_simulate(f"simulate-{fmt}", 12, episodes, fmt, vary) for fmt in formats]
        return {"scenario": scenario}, ops
    return make


def _chain_long(depth):
    """Episode-bound chain ops: every target completes within the horizon.

    Targets sit in the deep half of the chain, so an episode's cost
    hardly depends on which target the seed draws.
    """
    def make(shape, vary):
        scenario = gen.chain_scenario(shape, vary, depth, start=depth // 2)
        return {"scenario": scenario}, [
            _simulate("simulate-long", depth + 1, 2, "json", vary, {"chain_tau": scenario["targets"]})
        ]
    return make


# --- exhaustive ----------------------------------------------------------

def _tiny(horizons):
    def make(shape, vary):
        scenario = gen.tiny_scenario(shape, vary)
        return {"scenario": scenario}, [
            _op(f"value-exact-{t}", "value-exact", "value", {"exact_in_bounds": True},
                scenario=SCENARIO, horizon=t, exact=True)
            for t in horizons
        ]
    return make


def _broadcast(k, depth):
    def make(shape, vary):
        return {}, [_op("broadcast-min", "broadcast-min", "broadcast-min",
                        {"broadcast": [k, depth]}, k=k, L=depth)]
    return make


def _antichain_audit(n):
    def make(shape, vary):
        scenario = gen.antichain_scenario(vary, n, 4)
        return {"scenario": scenario}, [
            _op("audit", "audit-antichain", "audit", {"passed": True}, scenario=SCENARIO, horizon=2)
        ]
    return make


def _chain_audit(depth):
    def make(shape, vary):
        scenario = gen.chain_scenario(shape, vary, depth)
        return {"scenario": scenario}, [
            _op("audit", "audit-chain", "audit", {"passed": True}, scenario=SCENARIO, horizon=depth + 1)
        ]
    return make


def _tree_audit(width):
    """Stochastic-kernel history tree of 3000-5000 nodes, built and audited through the API."""
    horizon = 5

    def make(shape, vary):
        while True:
            mind = gen.layered_mind(shape, width, 2)
            scenario = gen.layered_scenario(shape, vary, mind, "scripted", horizon, n_targets=4)
            supports = gen.kernel_supports(shape, scenario, horizon, support=5)
            if 3000 <= gen.history_tree_size(scenario, supports, horizon) <= 5000:
                break
        op = _op("tree-audit", "tree-audit", "tree-audit", {"passed": True}, scenario=SCENARIO, horizon=horizon)
        op.kernel = gen.stochastic_kernel(vary, supports)
        return {"scenario": scenario}, [op]
    return make


# Instances are listed cheapest first: setup warms up on the first op of
# each family in this order.
SPECS = {
    "lattice": (
        [(f"ac{n}", _antichain(n)) for n in range(6, 10)]
        + [(f"small{i:02d}", _layered_small(4 + i % 2)) for i in range(20)]
        + [(f"large{i}", _layered_large) for i in range(6)]
    ),
    "teach": (
        [(f"lay{i:02d}", _layered_teach(("scripted", "broadcast")[i % 2])) for i in range(14)]
        + [(f"chain100_{i:02d}", _chain_short(100)) for i in range(15)]
        + [(f"long110_{i:02d}", _chain_long(110)) for i in range(12)]
        + [("deep400", _chain_short(400, 1, ("json",)))]
    ),
    "exhaustive": (
        [(f"tiny{i:02d}", _tiny((2, 3) if i % 6 == 0 else (2,))) for i in range(72)]
        + [(f"bmin{k}x{d}", _broadcast(k, d)) for k in (3, 4, 5) for d in (3, 4, 5)]
        + [(f"acaudit{n}", _antichain_audit(n)) for n in range(12, 17)]
        + [(f"chainaudit{d}", _chain_audit(d)) for d in (40, 60)]
        + [(f"tree{i}", _tree_audit((5, 6)[i % 2])) for i in range(4)]
    ),
}


def instance(workload: str, name: str, variant: int) -> Instance:
    make = dict(SPECS[workload])[name]
    shape = random.Random(f"{workload}/{name}")
    vary = random.Random(f"{workload}/{name}/{variant}")
    files, ops = make(shape, vary)
    for op in ops:
        op.key = f"{workload}/{name}/{variant}/{op.label}"
    return Instance(name, variant, files, ops)


def all_instances(workload: str):
    """Every variant of every instance: what the reference covers."""
    for name, _ in SPECS[workload]:
        for variant in range(VARIANTS):
            yield instance(workload, name, variant)


def choose(workload: str, seed: int) -> tuple[list[Instance], list[Op]]:
    """The instances a seed selects, and its op list in run order."""
    rng = random.Random(f"{workload}:{seed}")
    instances = [instance(workload, name, rng.randrange(VARIANTS)) for name, _ in SPECS[workload]]
    ops = [op for inst in instances for op in inst.ops]
    rng.shuffle(ops)
    return instances, ops
