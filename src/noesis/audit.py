"""Exact history-tree computation and verification of the information laws.

The tree enumerates every positive-probability parsed history up to a
horizon, carrying exact joint probabilities with the latent target, the
deterministic acquired state, the filtered belief, and its entropy.  On
top of it, :func:`audit_all` verifies, node by node, the package's
information laws: the entropy-drop identity, the supermartingale
property of posterior entropy, the per-state capacity bound, the
erasure/informative dichotomy of parsing, the futility of rephrasing
unordered concepts, the total-information identity at identification,
the trajectory capacity budget, and the global floor on expected
completion time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .errors import CapExceededError, InformationLawError
from .information import entropy_bits, mutual_information_bits
from .mind import understanding_horizon
from .signals import ParsedSignal, capacity, capacity_from_count
from .teaching import Scenario, StrategyKernel, emission_laws

__all__ = [
    "AUDIT_TOL",
    "DEFAULT_NODE_CAP",
    "HistoryNode",
    "HistoryTree",
    "AuditReport",
    "LawVerdict",
    "build_history_tree",
    "entropy_bits",
    "round_mutual_info",
    "round_mutual_info_from_joint",
    "audit_all",
]

AUDIT_TOL = 1e-9
# Point-mass detection inside the tree; deterministic kernels produce
# exact 0/1 beliefs, so this is far tighter than the audit tolerance.
_EXACT_TOL = 1e-12

DEFAULT_NODE_CAP = 200_000


@dataclass(eq=False)
class HistoryNode:
    """One positive-probability parsed history.

    ``joint[i]`` is the absolute probability of target ``i`` occurring
    together with this history; ``emission[i][j]`` is the conditional
    probability, given the history, of target ``i`` and the teacher
    emitting token ``j`` next (None at the horizon).
    """

    history: tuple[ParsedSignal, ...]
    prob: float
    state: frozenset[str]
    joint: tuple[float, ...]
    belief: tuple[float, ...]
    entropy_bits: float
    emission: Optional[tuple[tuple[float, ...], ...]]
    children: dict[ParsedSignal, "HistoryNode"] = field(default_factory=dict)

    @property
    def depth(self) -> int:
        return len(self.history)

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(eq=False)
class HistoryTree:
    """The exhaustive tree of parsed histories for one scenario and strategy."""

    scenario: Scenario
    horizon: int
    root: HistoryNode
    node_count: int

    def iter_nodes(self) -> Iterator[HistoryNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(list(node.children.values())))

    def internal_nodes(self) -> Iterator[HistoryNode]:
        return (n for n in self.iter_nodes() if n.children)

    def leaves(self) -> Iterator[HistoryNode]:
        return (n for n in self.iter_nodes() if not n.children)


def build_history_tree(
    scenario: Scenario,
    strategy: StrategyKernel,
    horizon: int,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
) -> HistoryTree:
    """Enumerate every positive-probability parsed history up to ``horizon``.

    Joint probabilities are propagated exactly; only outcomes with
    positive probability become children.  Raises
    :class:`CapExceededError` when the tree would exceed ``node_cap``.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    tokens = scenario.system.tokens
    outcome_order = (*tokens, None)
    zero_row = (0.0,) * len(tokens)
    states: dict[int, frozenset[str]] = {}  # one label set per distinct state
    count = 0

    def make_node(history: tuple[ParsedSignal, ...], mask: int, joint: list[float]) -> HistoryNode:
        nonlocal count
        count += 1
        if count > node_cap:
            raise CapExceededError(f"history tree exceeds {node_cap} nodes")
        prob = sum(joint)
        belief = tuple(j / prob for j in joint)
        state = states.get(mask)
        if state is None:
            state = states[mask] = scenario.mind.space.labels(mask)
        node = HistoryNode(
            history=history,
            prob=prob,
            state=state,
            joint=tuple(joint),
            belief=belief,
            entropy_bits=entropy_bits(belief),
            emission=None,
        )
        if len(history) == horizon:
            return node
        laws = emission_laws(scenario, strategy, history, joint)
        node.emission = tuple(
            zero_row if law is None else tuple(b * law.get(tok, 0.0) for tok in tokens)
            for b, law in zip(belief, laws)
        )
        outcomes = scenario.step(mask, laws, joint)
        for parsed in outcome_order:
            if parsed in outcomes:
                child_mask, child_joint = outcomes[parsed]
                node.children[parsed] = make_node(history + (parsed,), child_mask, child_joint)
        return node

    root = make_node((), scenario.mind.axiom_mask, list(scenario.prior))
    return HistoryTree(scenario=scenario, horizon=horizon, root=root, node_count=count)


def _mi_entropy_drop(node: HistoryNode) -> float:
    expected_child = sum(
        (child.prob / node.prob) * child.entropy_bits for child in node.children.values()
    )
    return node.entropy_bits - expected_child


def _ordered_cols(scenario: Scenario, state: frozenset[str]) -> list[int]:
    """Alphabet positions of the tokens that parse at ``state``."""
    ordered = scenario.ordered_tokens(scenario.mind.space.mask(state))
    return [j for j, tok in enumerate(scenario.system.tokens) if tok in ordered]


def _parsed_joint_table(node: HistoryNode, ordered_cols: list[int]) -> list[list[float]]:
    """Conditional joint of (target, next parsed observation) at a node.

    Pushes the raw emission through the parser: an ordered token keeps
    its column and every other token lands in the null column, the last.
    """
    assert node.emission is not None
    table = []
    for row in node.emission:
        out = [0.0] * (len(row) + 1)
        for j, p in enumerate(row):
            if p > 0.0:
                out[j if j in ordered_cols else -1] += p
        table.append(out)
    return table


def round_mutual_info_from_joint(tree: HistoryTree, node: HistoryNode) -> float:
    """Next-round information about the target, from the joint table."""
    if node.is_leaf:
        raise ValueError("leaf node has no next round")
    return mutual_information_bits(
        _parsed_joint_table(node, _ordered_cols(tree.scenario, node.state))
    )


def round_mutual_info(tree: HistoryTree, node: HistoryNode) -> float:
    """Next-round information about the target, as the expected entropy drop.

    Cross-checked against the joint-table route; the two must agree
    within :data:`AUDIT_TOL`.
    """
    if node.is_leaf:
        raise ValueError("leaf node has no next round")
    drop = _mi_entropy_drop(node)
    alt = round_mutual_info_from_joint(tree, node)
    if abs(drop - alt) > AUDIT_TOL:
        raise InformationLawError(
            f"entropy-drop and joint-table information disagree at {node.history!r}: "
            f"{drop!r} vs {alt!r}"
        )
    return drop


@dataclass(frozen=True)
class LawVerdict:
    law: str
    verdict: str  # "pass" | "fail" | "not applicable"
    worst_violation: float
    witness: Optional[tuple[ParsedSignal, ...]]

    @property
    def failed(self) -> bool:
        return self.verdict == "fail"


@dataclass(frozen=True)
class AuditReport:
    """Per-law verdicts with the worst violation found and its history."""

    verdicts: tuple[LawVerdict, ...]

    @property
    def passed(self) -> bool:
        return not any(v.failed for v in self.verdicts)

    def __getitem__(self, law: str) -> LawVerdict:
        for v in self.verdicts:
            if v.law == law:
                return v
        raise KeyError(law)

    def lines(self) -> list[str]:
        return [
            f"{v.law}: {v.verdict} (worst violation {v.worst_violation:.3e})"
            + (f" at {v.witness!r}" if v.witness is not None and v.failed else "")
            for v in self.verdicts
        ]


def _verdict(law: str, worst: float, witness) -> LawVerdict:
    if worst > AUDIT_TOL:
        return LawVerdict(law, "fail", worst, witness)
    return LawVerdict(law, "pass", worst, None)


def _restricted_mi(table: list[list[float]], keep_cols: list[int]) -> float:
    """Mutual information of a joint table restricted to columns and renormalized."""
    sub = [[row[j] for j in keep_cols] for row in table]
    mass = sum(sum(row) for row in sub)
    if mass <= 0.0:
        return 0.0
    return mutual_information_bits([[p / mass for p in row] for row in sub])


def audit_all(tree: HistoryTree, scenario: Optional[Scenario] = None) -> AuditReport:
    """Run all eight information-law checks over a built history tree."""
    scenario = tree.scenario if scenario is None else scenario
    system = scenario.system
    n_tokens = len(system.tokens)

    worst_drop = (0.0, None)
    worst_super = (0.0, None)
    worst_cap = (0.0, None)
    worst_rel = (0.0, None)
    worst_reph = (0.0, None)
    chain_sum = 0.0
    budget_sum = 0.0

    for node in tree.internal_nodes():
        ordered_cols = _ordered_cols(scenario, node.state)
        state_capacity = capacity_from_count(len(ordered_cols), n_tokens)
        drop = _mi_entropy_drop(node)
        table = _parsed_joint_table(node, ordered_cols)
        mi = mutual_information_bits(table)

        gap = abs(drop - mi)
        if gap > worst_drop[0]:
            worst_drop = (gap, node.history)

        over = -drop  # expected child entropy above the node entropy
        if over > worst_super[0]:
            worst_super = (over, node.history)

        excess = mi - state_capacity
        if excess > worst_cap[0]:
            worst_cap = (excess, node.history)

        # Erasure versus informativeness, split on whether the emitted
        # token's concept is currently ordered.  The unparseable event is
        # exactly the null column of the parsed table, so restricting to
        # it conditions on the event; within it the observation is
        # constant and must carry nothing.  On the parseable event the
        # parser is the identity, so parsed and raw information agree.
        assert node.emission is not None
        mi_erased = _restricted_mi(table, [n_tokens])
        if mi_erased > worst_rel[0]:
            worst_rel = (mi_erased, node.history)
        mi_y = _restricted_mi(table, ordered_cols)
        mi_z = _restricted_mi(node.emission, ordered_cols)
        gap = abs(mi_y - mi_z)
        if gap > worst_rel[0]:
            worst_rel = (gap, node.history)

        support = {j for row in node.emission for j, p in enumerate(row) if p > 0.0}
        if len({system.targets[j] for j in support}) == 1:
            # Every emitted token teaches the same concept, so any one of
            # them tells whether that concept is ordered.
            if next(iter(support)) not in ordered_cols and mi > worst_reph[0]:
                worst_reph = (mi, node.history)

        if node.entropy_bits > _EXACT_TOL:
            chain_sum += node.prob * mi
            budget_sum += node.prob * state_capacity

    identified_everywhere = all(leaf.entropy_bits <= _EXACT_TOL for leaf in tree.leaves())

    verdicts = [
        _verdict("entropy_drop", *worst_drop),
        _verdict("supermartingale", *worst_super),
        _verdict("statewise_bound", *worst_cap),
        _verdict("relativity", *worst_rel),
        _verdict("rephrasing", *worst_reph),
    ]

    prior_entropy = entropy_bits(scenario.prior)
    if identified_everywhere:
        verdicts.append(
            _verdict("chain_identity", abs(chain_sum - prior_entropy), None)
        )
        verdicts.append(
            _verdict("trajectory_budget", prior_entropy - budget_sum, None)
        )
    else:
        verdicts.append(LawVerdict("chain_identity", "not applicable", 0.0, None))
        verdicts.append(LawVerdict("trajectory_budget", "not applicable", 0.0, None))

    verdicts.append(_global_bound_verdict(tree, scenario))
    return AuditReport(tuple(verdicts))


def _expected_completion_time(tree: HistoryTree, scenario: Scenario) -> Optional[float]:
    """Exact expected completion time, or None when some path never completes."""
    total = 0.0
    incomplete = False

    def walk(node: HistoryNode, alive: list[int]) -> None:
        nonlocal total, incomplete
        if incomplete:
            return
        still = []
        for i in alive:
            if node.joint[i] <= 0.0:
                continue
            done = (
                scenario.targets[i] in node.state
                and node.joint[i] >= node.prob * (1.0 - _EXACT_TOL)
            )
            if done:
                total += node.joint[i] * node.depth
            else:
                still.append(i)
        if not still:
            return
        if node.is_leaf:
            incomplete = True
            return
        for child in node.children.values():
            walk(child, still)

    walk(tree.root, list(range(len(scenario.targets))))
    return None if incomplete else total


def _global_bound_verdict(tree: HistoryTree, scenario: Scenario) -> LawVerdict:
    expected_tau = _expected_completion_time(tree, scenario)
    if expected_tau is None:
        return LawVerdict("global_bound", "not applicable", 0.0, None)
    chains = scenario.target_chains
    expected_depth = 0.0
    for target, weight in zip(scenario.targets, scenario.prior):
        if weight > 0.0:
            expected_depth += weight * (len(chains[target]) - 1)
    # Capacity is monotone in the state, so its maximum sits at the horizon.
    cap_max = capacity(scenario.mind, scenario.system, understanding_horizon(scenario.mind))
    floor = expected_depth
    if cap_max > 0.0:
        floor = max(floor, entropy_bits(scenario.prior) / cap_max)
    return _verdict("global_bound", floor - expected_tau, None)
