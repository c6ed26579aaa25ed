"""Command-line front end.

Subcommands cover closure and derivation queries, reachable-family
export, structural distance, capacity, episode simulation, the
information-law audit, value bounds, budget allocation, and the
broadcast constructions.  Exit codes: 0 success, 1 validation or usage
error, 2 enumeration cap exceeded or input nested too deep.  Only the
command line reads the ``NOESIS_NODE_CAP`` environment variable.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import fileio
# ``build_history_tree`` and ``audit_all`` are not called here: the benchmark's
# tree-audit op (``bench/layers.py``) looks them up on this module.
from .audit import DEFAULT_NODE_CAP, audit_all, audit_history, build_history_tree  # noqa: F401
from .derivation import _distinct_nodes, curriculum_from_derivation, derive
from .errors import CapExceededError, NoesisError, UnreachableConceptError
from .mind import Mind, closure_iterates
from .planner import (
    allocate,
    broadcast_check,
    broadcast_construct,
    broadcast_min_length,
    value_envelope,
)
from .reachability import DEFAULT_STATE_CAP, enumerate_reachable
from .reachability import shortest_chain
from .signals import capacity, max_capacity
from .teaching import run_episode

__all__ = ["run_cli", "main"]


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); bad usage is exit 1 here
        raise _CliError(message)


# The cap each --cap command pays: family states, tree nodes, product states.
_CAP_DEFAULTS = {
    "reach": DEFAULT_STATE_CAP, "audit": DEFAULT_NODE_CAP, "broadcast-min": DEFAULT_STATE_CAP
}


def _capped(call, *args, **kwargs):
    """Run the one call that pays a command's cap; its cap error names the knobs that raise it."""
    try:
        return call(*args, **kwargs)
    except CapExceededError as exc:
        raise CapExceededError(f"{exc}; raise the cap with --cap or NOESIS_NODE_CAP") from None


def _cap_value(raw: str, name: str = "--cap") -> int:
    """A cap as ``--cap`` or NOESIS_NODE_CAP gives it: a non-negative decimal integer."""
    if not (raw.isascii() and raw.isdigit()):
        raise _CliError(f"{name} must be a non-negative integer, got {raw!r}")
    return int(raw)


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="noesis", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", type=Path, default=None, help="write output here instead of stdout")
        return p

    p = add("closure", "closure of a concept set under a mind's rules")
    p.add_argument("--mind", type=Path, required=True)
    p.add_argument("--start", default=None, help="comma-separated concepts; default: the axioms")

    p = add("derive", "derivation tree and extracted curriculum for a concept")
    p.add_argument("--mind", type=Path, required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--start", default=None)

    p = add("reach", "enumerate the reachable state family")
    p.add_argument("--mind", type=Path, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--cap", type=_cap_value, default=None)

    p = add("distance", "structural distance and a shortest chain to a concept")
    p.add_argument("--mind", type=Path, required=True)
    p.add_argument("--target", required=True)

    p = add("capacity", "per-state and maximal parsed-observation capacity")
    p.add_argument("--scenario", type=Path, required=True)
    p.add_argument("--state", default=None, help="comma-separated concepts; default: the axioms")

    p = add("simulate", "run teaching episodes and export traces")
    p.add_argument("--scenario", type=Path, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--episodes", type=int, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = add("audit", "build the history tree and check the information laws")
    p.add_argument("--scenario", type=Path, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--cap", type=_cap_value, default=None)

    p = add("value", "upper and lower success-probability bounds at a horizon")
    p.add_argument("--scenario", type=Path, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--exact", action="store_true", help="also run the exhaustive tiny-instance search")

    p = add("allocate", "concentrated versus even allocation of a round budget")
    p.add_argument("--N", type=int, required=True, help="number of learners")
    p.add_argument("--B", type=int, required=True, help="total budget in rounds")
    p.add_argument("--L", type=int, required=True, help="rounds each learner needs")

    p = add("broadcast-gen", "construct the incompatible-minds broadcast instance")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--L", type=int, required=True)

    p = add("broadcast-min", "minimal length of a shared sequence teaching every mind")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--cap", type=_cap_value, default=None)

    return parser


def _concepts(text: Optional[str], mind: Mind) -> frozenset[str]:
    """The concepts a ``--start`` or ``--state`` flag lists, comma-separated; without it, the mind's axioms."""
    if text is None:
        return mind.axioms
    return frozenset(part for part in (s.strip() for s in text.split(",")) if part)


def _emit(text: str, out: Optional[Path]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        out.write_text(text)
    except OSError as exc:
        raise _CliError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _cmd_closure(args) -> str:
    mind = fileio.load_mind(args.mind)
    start_set = _concepts(args.start, mind)
    iterates = closure_iterates(mind, start_set)
    return fileio.dump_json(
        {
            "start": sorted(start_set),
            "closure": sorted(iterates[-1]),
            "iterates": [sorted(step) for step in iterates],
        }
    )


def _tree_to_dict(tree) -> dict:
    """The derivation as nested dicts, built children first; a shared node's dict is shared too."""
    built: dict[int, dict] = {}
    for node in _distinct_nodes(tree):
        if node.rule is None:
            built[id(node)] = {"concept": node.concept, "base": True}
        else:
            built[id(node)] = {
                "concept": node.concept,
                "rule": {"prereqs": sorted(node.rule.prereqs), "target": node.rule.target},
                "children": [built[id(child)] for child in node.children],
            }
    return built[id(tree)]


def _cmd_derive(args) -> str:
    mind = fileio.load_mind(args.mind)
    start_set = _concepts(args.start, mind)
    tree = derive(mind, start_set, args.target)
    if tree is None:
        return fileio.dump_json({"target": args.target, "derivable": False})
    curriculum = curriculum_from_derivation(tree)
    return fileio.dump_json(
        {
            "target": args.target,
            "derivable": True,
            "tree": _tree_to_dict(tree),
            "curriculum": [
                {"prereqs": sorted(step.prereqs), "target": step.target} for step in curriculum
            ],
        }
    )


def _states_csv(states: list[tuple[str, ...]], labels: tuple[str, ...]) -> str:
    """The states as a one-column CSV, labels joined by ``|``, as ``csv.writer`` writes it.

    Labels hold no whitespace, so only a row with ``,`` or ``"`` is quoted
    (its quotes doubled), and one scan of the labels per mind finds out
    whether any row can need it.  A label holding ``|``, which would make
    two states one row, is refused first, as the trace export refuses it.
    The empty state is written ``""`` so that it reads back as one empty
    field.
    """
    fileio._refuse_bar_label(labels)
    text = " ".join(labels)
    rows = ["|".join(s) for s in states]
    if "," in text or '"' in text:
        rows = ['"' + r.replace('"', '""') + '"' if "," in r or '"' in r else r for r in rows]
    if rows and not rows[0]:  # the empty state sorts first
        rows[0] = '""'
    return "\n".join(["state", *rows]) + "\n"


def _cmd_reach(args) -> str:
    mind = fileio.load_mind(args.mind)
    family = _capped(enumerate_reachable, mind, cap=args.cap)
    states = family.sorted_label_tuples()
    if args.format == "csv":
        return _states_csv(states, mind.space.concepts)
    return fileio.dump_json(
        {
            "states": states,
            "minimum": sorted(family.minimum),
            "maximum": sorted(family.maximum),
            "count": len(family),
            # True by theorem for every reachable family; see enumerate_reachable.
            "learning_space": {
                "has_axiom_floor": True,
                "accessible": True,
                "union_closed": True,
                "shifted_antimatroid": True,
            },
        }
    )


def _cmd_distance(args) -> str:
    mind = fileio.load_mind(args.mind)
    try:
        chain = shortest_chain(mind, args.target)
    except UnreachableConceptError:
        return fileio.dump_json({"target": args.target, "reachable": False})
    return fileio.dump_json(
        {
            "target": args.target,
            "reachable": True,
            "distance": len(chain) - 1,
            "chain": [sorted(s) for s in chain],
        }
    )


def _cmd_capacity(args) -> str:
    bundle = fileio.load_scenario_bundle(args.scenario)
    scenario = bundle.scenario
    state_set = _concepts(args.state, scenario.mind)
    return fileio.dump_json(
        {
            "state": sorted(state_set),
            "capacity_bits": capacity(scenario.mind, scenario.system, state_set),
            "max_capacity_bits": max_capacity(scenario.mind, scenario.system),
        }
    )


# An episode records every round up to its horizon, and no knob raises this cap.
_SIMULATE_ROUND_CAP = 1_000_000


def _cmd_simulate(args) -> str:
    if args.episodes < 1:
        raise _CliError("--episodes must be at least 1")
    rounds = max(args.horizon, 1) * args.episodes  # an episode of horizon 0 still costs a trace
    if rounds > _SIMULATE_ROUND_CAP:
        raise CapExceededError(f"simulate caps recorded rounds at {_SIMULATE_ROUND_CAP}; asked for {rounds}")
    bundle = fileio.load_scenario_bundle(args.scenario)
    for note in bundle.notes:
        print(f"note: {note}", file=sys.stderr)
    scenario = bundle.scenario
    strategy = bundle.strategy.build(scenario)
    traces = [
        run_episode(scenario, strategy, args.horizon, seed=args.seed + i)
        for i in range(args.episodes)
    ]
    if args.format == "csv":
        return fileio.trace_to_csv(traces)
    return fileio.dump_traces(traces[0] if args.episodes == 1 else traces, bundle.digest)


def _cmd_audit(args) -> str:
    bundle = fileio.load_scenario_bundle(args.scenario)
    scenario = bundle.scenario
    strategy = bundle.strategy.build(scenario)
    nodes, report = _capped(audit_history, scenario, strategy, args.horizon, node_cap=args.cap)
    return fileio.dump_json(
        {
            "horizon": args.horizon,
            "nodes": nodes,
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
        }
    )


def _cmd_value(args) -> str:
    scenario = fileio.load_scenario(args.scenario)
    envelope = value_envelope(scenario, args.horizon, exact=args.exact)
    return fileio.dump_json(
        {
            "t": envelope.t,
            "upper": envelope.upper,
            "lower": envelope.lower,
            "exact": envelope.exact,
        }
    )


def _cmd_allocate(args) -> str:
    plan = allocate(args.N, args.B, args.L)
    return fileio.dump_json(
        {
            "learners": plan.learners,
            "budget": plan.budget,
            "depth": plan.depth,
            "rounds": list(plan.rounds),
            "completed": plan.completed,
            "even_split_rounds": plan.even_split_rounds,
            "even_split_completed": plan.even_split_completed,
        }
    )


def _cmd_broadcast_gen(args) -> str:
    instance = broadcast_construct(args.k, args.L)
    per_mind = []
    for mind in instance.minds:
        per_mind.append(
            [{"prereqs": sorted(r.prereqs), "target": r.target} for r in mind.effective_rules]
        )
    return fileio.dump_json(
        {
            "k": instance.k,
            "L": instance.depth,
            "concepts": list(instance.space.concepts),
            "axioms": sorted(instance.axioms),
            "target": instance.target,
            "minds": per_mind,
            "signals": [
                {"token": t, "target": c}
                for t, c in zip(instance.system.tokens, instance.system.targets)
            ],
            "tight_sequence": list(instance.tight_sequence),
            "tight_sequence_succeeds": all(
                broadcast_check(instance, instance.tight_sequence)
            ),
        }
    )


def _cmd_broadcast_min(args) -> str:
    instance = broadcast_construct(args.k, args.L)
    length = _capped(broadcast_min_length, instance, cap=args.cap)
    return ("not-found" if length is None else str(length)) + "\n"


_COMMANDS = {
    "closure": _cmd_closure,
    "derive": _cmd_derive,
    "reach": _cmd_reach,
    "distance": _cmd_distance,
    "capacity": _cmd_capacity,
    "simulate": _cmd_simulate,
    "audit": _cmd_audit,
    "value": _cmd_value,
    "allocate": _cmd_allocate,
    "broadcast-gen": _cmd_broadcast_gen,
    "broadcast-min": _cmd_broadcast_min,
}


def run_cli(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        if args.command in _CAP_DEFAULTS and args.cap is None:  # NOESIS_NODE_CAP's one reader
            raw = os.environ.get("NOESIS_NODE_CAP")
            args.cap = _cap_value(raw, "NOESIS_NODE_CAP") if raw else _CAP_DEFAULTS[args.command]
        text = _COMMANDS[args.command](args)
        _emit(text, args.out)
        return 0
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nests too deep for this command (recursion limit)", file=sys.stderr)
        return 2
    except (_CliError, NoesisError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    return run_cli(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
