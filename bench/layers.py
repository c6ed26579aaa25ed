"""Span recorder for the traced run, and the one op the CLI cannot express.

The traced run does not change the package.  For the length of one op
it replaces each public function in ``LAYERS`` where the CLI handlers
look it up (a module attribute, or a method on its class) with a
wrapper that opens a span named ``<module>.<function>`` around the
original call, and then runs the op through ``run_cli`` as usual.  So
the spans time whatever calls the handlers make today.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import noesis.cli as cli
from noesis import fileio, planner
from noesis.reachability import ReachableFamily
from noesis.teaching import StrategySpec

# Span name -> (where the handlers look the function up, attribute name).
LAYERS = {
    "fileio.load_mind": (fileio, "load_mind"),
    "fileio.load_scenario_bundle": (fileio, "load_scenario_bundle"),
    "fileio.dump_json": (fileio, "dump_json"),
    "fileio.trace_to_dict": (fileio, "trace_to_dict"),
    "fileio.trace_to_csv": (fileio, "trace_to_csv"),
    "reachability.enumerate_reachable": (cli, "enumerate_reachable"),
    "reachability.ReachableFamily.states": (ReachableFamily, "states"),
    "reachability.check_learning_space": (cli, "check_learning_space"),
    "reachability.structural_distance": (cli, "structural_distance"),
    "reachability.shortest_chain": (cli, "shortest_chain"),
    "mind.closure_iterates": (cli, "closure_iterates"),
    "derivation.derive": (cli, "derive"),
    "derivation.curriculum_from_derivation": (cli, "curriculum_from_derivation"),
    "signals.capacity": (cli, "capacity"),
    "signals.max_capacity": (cli, "max_capacity"),
    "teaching.StrategySpec.build": (StrategySpec, "build"),
    "teaching.run_episode": (cli, "run_episode"),
    "planner.value_upper": (planner, "value_upper"),
    "planner.value_lower": (planner, "value_lower"),
    "planner.exact_value_tiny": (planner, "exact_value_tiny"),
    "planner.broadcast_construct": (cli, "broadcast_construct"),
    "planner.broadcast_min_length": (cli, "broadcast_min_length"),
    "audit.build_history_tree": (cli, "build_history_tree"),
    "audit.audit_all": (cli, "audit_all"),
}

# Layers whose return values the count metrics are taken from.
KEPT = {"reachability.ReachableFamily.states", "teaching.run_episode", "audit.build_history_tree"}
DEPTH_BUCKETS = 6  # audit.tree_nodes.d0 .. d5, then d6plus


class Spans:
    """In-memory spans: ``[name, start, end, parent index, op id]``.

    Spans are written out after the run, never during it.  ``kept``
    holds the return values of the ``KEPT`` layers until they are counted.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op_id = None
        self.kept: list[tuple] = []

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else None
        self._open.append(len(self.spans))
        self.spans.append([name, perf_counter(), None, parent, self.op_id])

    def end(self) -> None:
        self.spans[self._open.pop()][2] = perf_counter()

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = []
        for i, (name, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(i, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append(end - start - covered)
        return out


def _wrap(spans: Spans, name: str, fn):
    keep = name in KEPT

    def spanned(*args, **kwargs):
        spans.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            spans.end()
        if keep:
            spans.kept.append((name, result))
        return result

    return spanned


def missing() -> list[str]:
    """Layers the program no longer has under their name: they are not traced, and report no calls."""
    return [name for name, (owner, attr) in LAYERS.items() if attr not in vars(owner)]


@contextmanager
def traced(spans: Spans):
    """Route every ``LAYERS`` function through a span while the block runs."""
    found = {
        name: (owner, attr, vars(owner)[attr])
        for name, (owner, attr) in LAYERS.items()
        if attr in vars(owner)
    }
    try:
        for name, (owner, attr, fn) in found.items():
            setattr(owner, attr, _wrap(spans, name, fn))
        yield
    finally:
        for owner, attr, fn in found.values():
            setattr(owner, attr, fn)


def count_kept(spans: Spans, counts: Counter) -> None:
    """Add the states, rounds and tree nodes the kept return values hold, then drop them."""
    for name, result in spans.kept:
        if name == "reachability.ReachableFamily.states":
            counts["reachability.states"] += len(result)
        elif name == "teaching.run_episode":
            counts["teaching.rounds"] += len(result.rounds)
            counts["teaching.parsed"] += sum(r.parsed is not None for r in result.rounds)
        else:
            counts["audit.tree_nodes"] += result.node_count
            for node in result.iter_nodes():
                counts[depth_bucket(node.depth)] += 1
    spans.kept.clear()


def depth_bucket(depth: int) -> str:
    return f"audit.tree_nodes.d{depth}" if depth < DEPTH_BUCKETS else f"audit.tree_nodes.d{DEPTH_BUCKETS}plus"


def tree_audit(op) -> str:
    """A ``tree-audit`` op: the ``audit`` handler's calls, with a stochastic kernel as the strategy.

    The CLI has no way to take a kernel, so this runs the handler's
    sequence itself, through the same names, and prints what it prints.
    """
    scenario = cli.fileio.load_scenario_bundle(op.params["scenario"]).scenario
    tree = cli.build_history_tree(scenario, op.kernel, op.params["horizon"])
    report = cli.audit_all(tree)
    return cli.fileio.dump_json({
        "horizon": op.params["horizon"],
        "nodes": tree.node_count,
        "passed": report.passed,
        "laws": [
            {
                "law": v.law,
                "verdict": v.verdict,
                "worst_violation": v.worst_violation,
                "witness": list(map(str, v.witness)) if v.witness else None,
            }
            for v in report.verdicts
        ],
    })
