"""Seeded input generators for the benchmark.

Every generator is a pure function of its arguments and returns plain
JSON-ready dicts in the mind/scenario file formats, so the program under
test only ever sees files and argv.  Nothing here imports the package or
its tests: a test edit can never change a workload.

Generators that take two generators split the input in two: ``shape``
fixes what the cost depends on (sizes, rule structure, kernel supports),
``vary`` draws what it does not (priors, kernel weights, query targets).
"""

from __future__ import annotations

import random
from collections import deque
from functools import lru_cache


def _rules(pairs):
    return [{"prereqs": list(prereqs), "target": target} for prereqs, target in pairs]


def token(concept: str) -> str:
    return f"z_{concept}"


def prior(rng: random.Random, n: int) -> list[int]:
    """Unnormalized integer weights; the loader normalizes them."""
    return [rng.randint(1, 4) for _ in range(n)]


def antichain_mind(n: int) -> dict:
    """One axiom ``a`` and ``n`` independent concepts, each unlocked by ``a``.

    Its reachable family is every subset of the ``n`` concepts: 2**n states.
    """
    xs = [f"x{i}" for i in range(1, n + 1)]
    return {"concepts": ["a"] + xs, "axioms": ["a"], "rules": _rules((["a"], x) for x in xs)}


def chain_mind(depth: int) -> dict:
    """``c0 -> c1 -> ... -> c<depth>``; concept ``c<i>`` sits at distance ``i``."""
    cs = [f"c{i}" for i in range(depth + 1)]
    return {
        "concepts": cs,
        "axioms": ["c0"],
        "rules": _rules(([cs[i - 1]], cs[i]) for i in range(1, depth + 1)),
    }


def layered_mind(rng: random.Random, width: int, depth: int, fan_in: int = 2) -> dict:
    """Layers of up to ``width`` concepts, each gated by the layer below.

    Layer 0 holds the axioms.  A concept of layer ``k`` gets one rule with
    1..``fan_in`` prerequisites from layer ``k - 1`` and, now and then, an
    alternative rule, so families mix conjunctive and disjunctive gates.
    """
    layers = [[f"L0_{j}" for j in range(rng.randint(1, 2))]]
    for k in range(1, depth + 1):
        layers.append([f"L{k}_{j}" for j in range(rng.randint(max(2, width - 2), width))])
    pairs = []
    for k in range(1, depth + 1):
        below = layers[k - 1]
        for concept in layers[k]:
            for _ in range(1 + (rng.random() < 0.25)):
                size = rng.randint(1, min(fan_in, len(below)))
                pairs.append((tuple(sorted(rng.sample(below, size))), concept))
    concepts = [c for layer in layers for c in layer]
    return {"concepts": concepts, "axioms": list(layers[0]), "rules": _rules(dict.fromkeys(pairs))}


class _Masks:
    """Bit-mask view of a mind dict, for the generators' own counting."""

    def __init__(self, mind: dict):
        self.index = {c: i for i, c in enumerate(mind["concepts"])}
        self.rules = [(self.mask(r["prereqs"]), self.bit(r["target"])) for r in mind["rules"]]
        self.start = self.mask(mind["axioms"])

    def bit(self, concept: str) -> int:
        return 1 << self.index[concept]

    def mask(self, concepts) -> int:
        return sum(self.bit(c) for c in concepts)

    def expand(self, state: int) -> int:
        out = state
        for prereqs, bit in self.rules:
            if prereqs & ~state == 0:
                out |= bit
        return out


def family_size(mind: dict, cap: int) -> int:
    """States reachable from the axioms one unlockable concept at a time.

    An independent count used to steer generation; returns ``cap + 1``
    as soon as the family is known to exceed ``cap``.
    """
    m = _Masks(mind)
    seen = {m.start}
    queue = deque([m.start])
    while queue:
        state = queue.popleft()
        for prereqs, bit in m.rules:
            if prereqs & ~state == 0 and state | bit not in seen:
                seen.add(state | bit)
                if len(seen) > cap:
                    return cap + 1
                queue.append(state | bit)
    return len(seen)


def layered_mind_sized(rng: random.Random, width: int, depth: int, lo: int, hi: int) -> dict:
    """A layered mind whose reachable family has between ``lo`` and ``hi`` states."""
    while True:
        mind = layered_mind(rng, width, depth)
        if lo <= family_size(mind, hi) <= hi:
            return mind


def topological_order(mind: dict) -> list[str]:
    """Non-axiom horizon concepts in an order where each can be acquired in turn."""
    known = set(mind["axioms"])
    order = []
    changed = True
    while changed:
        changed = False
        for rule in mind["rules"]:
            if rule["target"] not in known and set(rule["prereqs"]) <= known:
                known.add(rule["target"])
                order.append(rule["target"])
                changed = True
    return order


def chain_scenario(shape: random.Random, vary: random.Random, depth: int, n_targets: int = 8,
                   start: int = 0) -> dict:
    """Chain of ``depth``, one token per concept, direct strategy, and
    ``n_targets`` targets spread over the chain past ``start``."""
    mind = chain_mind(depth)
    step = (depth - start) // n_targets
    positions = [start + step * (j + 1) - shape.randrange(step // 2 + 1) for j in range(n_targets)]
    return {
        **mind,
        "signals": [{"token": token(c), "target": c} for c in mind["concepts"][1:]],
        "targets": [f"c{p}" for p in positions],
        "prior": prior(vary, n_targets),
        "strategy": {"kind": "direct"},
    }


def antichain_scenario(vary: random.Random, n: int, n_targets: int) -> dict:
    """Antichain with one token per concept and ``n_targets`` direct targets."""
    mind = antichain_mind(n)
    xs = mind["concepts"][1:]
    return {
        **mind,
        "signals": [{"token": token(x), "target": x} for x in xs],
        "targets": sorted(vary.sample(xs, n_targets), key=xs.index),
        "prior": prior(vary, n_targets),
        "strategy": {"kind": "direct"},
    }


def layered_scenario(shape: random.Random, vary: random.Random, mind: dict, kind: str, horizon: int,
                     n_targets: int = 3) -> dict:
    """A layered mind taught by ``scripted`` rows or one ``broadcast`` row.

    Rows walk a topological order of the mind up to each target, name the
    target, then pad with random tokens up to ``horizon``.
    """
    order = topological_order(mind)
    tokens = [token(c) for c in order]
    deep = order[len(order) // 2:]
    targets = sorted(shape.sample(deep, min(n_targets, len(deep))), key=order.index)

    def row(walk: list[str]) -> list[str]:
        out = [token(c) for c in walk][:horizon]
        return out + [vary.choice(tokens) for _ in range(horizon - len(out))]

    scenario = {
        **mind,
        "signals": [{"token": t, "target": c} for t, c in zip(tokens, order)],
        "targets": targets,
        "prior": prior(vary, len(targets)),
    }
    if kind == "scripted":
        rows = {t: row(order[: order.index(t) + 1] + [t]) for t in targets}
        scenario["strategy"] = {"kind": "scripted", "rows": rows}
    else:
        scenario["strategy"] = {"kind": "broadcast", "row": row(order)}
    return scenario


def tiny_scenario(shape: random.Random, vary: random.Random) -> dict:
    """Three targets and three tokens over a 4-5 concept mind."""
    n = shape.randint(4, 5)
    cs = [f"k{i}" for i in range(n)]
    pairs = [([cs[0]], cs[1])]
    for i in range(2, n):
        pairs.append((sorted(shape.sample(cs[:i], shape.randint(1, 2))), cs[i]))
    mind = {"concepts": cs, "axioms": [cs[0]], "rules": _rules(pairs)}
    targets = sorted(shape.sample(cs[1:], 3), key=cs.index)
    signals = [{"token": token(c), "target": c} for c in targets]
    return {**mind, "signals": signals, "targets": targets, "prior": prior(vary, 3)}


def kernel_supports(shape: random.Random, scenario: dict, horizon: int, support: int = 3) -> dict:
    """Which tokens a randomized strategy may emit, per target, round, and last outcome."""
    tokens = [s["token"] for s in scenario["signals"]]
    return {
        (target, t, after_null): tuple(shape.sample(tokens, min(support, len(tokens))))
        for target in scenario["targets"]
        for t in range(horizon)
        for after_null in (False, True)
    }


def stochastic_kernel(vary: random.Random, supports: dict):
    """A seeded randomized strategy for the history-tree API.

    The emission distribution depends on the target, the round and
    whether the last observation was null, so the kernel reads the
    history, not only its length.  Weights never vanish on the support.
    """
    tables = {}
    for key, tokens in supports.items():
        weights = [vary.randint(1, 4) for _ in tokens]
        total = sum(weights)
        tables[key] = {tok: w / total for tok, w in zip(tokens, weights)}

    def kernel(target: str, history: tuple) -> dict:
        return tables[target, len(history), bool(history) and history[-1] is None]

    return kernel


def history_tree_size(scenario: dict, supports: dict, horizon: int) -> int:
    """Nodes of the exhaustive parsed-history tree under a kernel with these supports.

    Counted independently of the package; the count depends only on
    which tokens have positive probability, never on the weights.
    """
    m = _Masks(scenario)
    concept_bit = {s["token"]: m.bit(s["target"]) for s in scenario["signals"]}
    targets = scenario["targets"]

    @lru_cache(maxsize=None)
    def count(state: int, live: frozenset, depth: int, after_null: bool) -> int:
        if depth == horizon:
            return 1
        ordered = m.expand(state)
        children: dict = {}
        for i in live:
            for tok in supports[targets[i], depth, after_null]:
                parsed = tok if ordered & concept_bit[tok] else None
                children.setdefault(parsed, set()).add(i)
        total = 1
        for parsed, sub in children.items():
            child = state if parsed is None else state | concept_bit[parsed]
            total += count(child, frozenset(sub), depth + 1, parsed is None)
        return total

    return count(m.start, frozenset(range(len(targets))), 0, False)
