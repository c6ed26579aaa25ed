"""Command-line front end.

Subcommands cover closure and derivation queries, reachable-family
export, structural distance, capacity, episode simulation, the
information-law audit, value bounds, budget allocation, and the
broadcast constructions.  Exit codes: 0 success, 1 validation or usage
error, 2 enumeration cap exceeded or input nested too deep.  Only the
command line reads the ``NOESIS_NODE_CAP`` environment variable.

Every command is one row of ``_COMMANDS``: its handler, help text, cap
default and flags.  ``run_cli`` reads the common argv form, the command
and then full flag names each followed by its value as its own token,
straight from that table.  Any other argv goes to an argparse parser
built from the same table on first need; argparse writes the help and
every usage error, and reads abbreviations, ``--flag=value`` and ``--``.
"""

from __future__ import annotations

import functools
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple, Optional, Sequence

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


class _Flag(NamedTuple):
    """One flag of one command, as the direct reader and argparse both read it."""

    name: str
    convert: Optional[Callable[[str], Any]] = None  # None keeps the text
    required: bool = False
    default: Any = None
    choices: Optional[tuple[str, ...]] = None
    store_true: bool = False
    help: Optional[str] = None

    @property
    def dest(self) -> str:
        return self.name[2:]


class _Command(NamedTuple):
    """One subcommand: its handler, its help line, its flags by full name and its cap default."""

    handler: Callable[[Any], str]
    help: str
    flags: dict[str, _Flag]
    cap_default: Optional[int]


def _command(handler, help_text: str, *flags: _Flag, cap_default: Optional[int] = None) -> _Command:
    """A table row; every command takes ``--out`` first, and a command with a cap default takes ``--cap`` last."""
    every = [_Flag("--out", Path, help="write output here instead of stdout"), *flags]
    if cap_default is not None:
        every.append(_Flag("--cap", _cap_value))
    return _Command(handler, help_text, {flag.name: flag for flag in every}, cap_default)


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
        out.write_bytes(text.encode("utf-8"))  # encoded first, so a text UTF-8 cannot spell opens no file
    except (OSError, UnicodeEncodeError) as exc:
        raise _CliError(f"cannot write {out}: {getattr(exc, 'strerror', None) or exc}") from exc


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


def _cmd_reach(args) -> str:
    mind = fileio.load_mind(args.mind)
    family = _capped(enumerate_reachable, mind, cap=args.cap)
    states = family.sorted_label_tuples()
    if args.format == "csv":
        return fileio.states_to_csv(states, mind.space.concepts)
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


_MIND = _Flag("--mind", Path, required=True)
_SCENARIO = _Flag("--scenario", Path, required=True)
_HORIZON = _Flag("--horizon", int, required=True)
_FORMAT = _Flag("--format", choices=("json", "csv"), default="json")

# The cap each --cap command pays: family states (reach), tree nodes (audit), product states (broadcast-min).
_COMMANDS = {
    "closure": _command(
        _cmd_closure, "closure of a concept set under a mind's rules",
        _MIND, _Flag("--start", help="comma-separated concepts; default: the axioms"),
    ),
    "derive": _command(
        _cmd_derive, "derivation tree and extracted curriculum for a concept",
        _MIND, _Flag("--target", required=True), _Flag("--start"),
    ),
    "reach": _command(
        _cmd_reach, "enumerate the reachable state family",
        _MIND, _FORMAT, cap_default=DEFAULT_STATE_CAP,
    ),
    "distance": _command(
        _cmd_distance, "structural distance and a shortest chain to a concept",
        _MIND, _Flag("--target", required=True),
    ),
    "capacity": _command(
        _cmd_capacity, "per-state and maximal parsed-observation capacity",
        _SCENARIO, _Flag("--state", help="comma-separated concepts; default: the axioms"),
    ),
    "simulate": _command(
        _cmd_simulate, "run teaching episodes and export traces",
        _SCENARIO, _Flag("--seed", int, default=0), _HORIZON, _Flag("--episodes", int, default=1), _FORMAT,
    ),
    "audit": _command(
        _cmd_audit, "build the history tree and check the information laws",
        _SCENARIO, _HORIZON, cap_default=DEFAULT_NODE_CAP,
    ),
    "value": _command(
        _cmd_value, "upper and lower success-probability bounds at a horizon",
        _SCENARIO, _HORIZON,
        _Flag("--exact", default=False, store_true=True, help="also run the exhaustive tiny-instance search"),
    ),
    "allocate": _command(
        _cmd_allocate, "concentrated versus even allocation of a round budget",
        _Flag("--N", int, required=True, help="number of learners"),
        _Flag("--B", int, required=True, help="total budget in rounds"),
        _Flag("--L", int, required=True, help="rounds each learner needs"),
    ),
    "broadcast-gen": _command(
        _cmd_broadcast_gen, "construct the incompatible-minds broadcast instance",
        _Flag("--k", int, required=True), _Flag("--L", int, required=True),
    ),
    "broadcast-min": _command(
        _cmd_broadcast_min, "minimal length of a shared sequence teaching every mind",
        _Flag("--k", int, required=True), _Flag("--L", int, required=True), cap_default=DEFAULT_STATE_CAP,
    ),
}


def _read_argv(argv: list[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse gives ``argv`` when it is in the common form, else None; never raises.

    The common form is a command name, then only full flag names of that
    command, each value its own token not starting with ``-``, with every
    value converting and among its choices and every required flag given.
    A repeated flag keeps its last value, as in argparse.  Every other argv
    is argparse's to read or to refuse, so no usage error is worded here.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    values: dict[str, Any] = {}
    i, n = 1, len(argv)
    while i < n:
        flag = command.flags.get(argv[i])
        if flag is None:
            return None
        if flag.store_true:
            values[flag.dest] = True
            i += 1
            continue
        if i + 1 == n or argv[i + 1].startswith("-"):
            return None
        value = argv[i + 1]
        if flag.convert is not None:
            try:
                value = flag.convert(value)
            except (ValueError, TypeError, _CliError):  # argparse refuses the first two; _cap_value's passes through it
                return None
        if flag.choices is not None and value not in flag.choices:
            return None
        values[flag.dest] = value
        i += 2
    for flag in command.flags.values():
        if flag.dest not in values:
            if flag.required:
                return None
            values[flag.dest] = flag.default
    return SimpleNamespace(command=argv[0], **values)


@functools.cache
def _build_parser():
    """The argparse parser of ``_COMMANDS``, built once per process and only for argv the reader declines."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message: str):  # argparse would exit(2); bad usage is exit 1 here
            raise _CliError(message)

    # The help shows the module docstring's first two paragraphs; the third is about this parser.
    parser = _Parser(prog="noesis", description="\n\n".join(__doc__.split("\n\n")[:2]) if __doc__ else None)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in command.flags.values():
            kind = {"action": "store_true"} if flag.store_true else {"type": flag.convert, "choices": flag.choices}
            p.add_argument(flag.name, required=flag.required, default=flag.default, help=flag.help, **kind)
    return parser


def run_cli(argv: Sequence[str]) -> int:
    argv = list(argv)
    try:
        args = _read_argv(argv)
        if args is None:
            args = _build_parser().parse_args(argv)
        command = _COMMANDS[args.command]
        if command.cap_default is not None and args.cap is None:  # NOESIS_NODE_CAP's one reader
            raw = os.environ.get("NOESIS_NODE_CAP")
            args.cap = _cap_value(raw, "NOESIS_NODE_CAP") if raw else command.cap_default
        _emit(command.handler(args), args.out)
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
