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

Both walks use an explicit stack, so a tree's depth is bounded by its
node cap alone.  The audit reads each node's joint tables from their
nonzero cells only.  A table is then a list of rows, each row a list of
``(column, p)`` cells in column order; the dense sums skip only zero
cells, which add nothing exactly, so every float equals the one the
dense table gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, count
from typing import Iterator, Optional, Sequence

from .errors import CapExceededError, InformationLawError
from .information import entropy_bits, mutual_information_cells
from .signals import ParsedSignal, capacity_from_count, max_capacity, ordered_signals
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

_Cells = list[list[tuple[int, float]]]  # per row, its nonzero (column, p) in column order


@dataclass(eq=False, slots=True)
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
    positive probability become children.  Nodes are made depth first,
    children in alphabet order with the null observation last.  Raises
    :class:`CapExceededError` when the tree would exceed ``node_cap``.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    tokens = scenario.system.tokens
    column = {tok: j for j, tok in enumerate(tokens)}
    null_column = len(tokens)
    zero_row = (0.0,) * len(tokens)
    labels = scenario.mind.space.labels
    states: dict[int, frozenset[str]] = {}  # one label set per distinct state
    root = None
    made = 0
    # (parent, parsed outcome, history, state mask, joint), popped in pre-order
    stack: list = [(None, None, (), scenario.mind.axiom_mask, list(scenario.prior))]
    while stack:
        parent, parsed, history, mask, joint = stack.pop()
        made += 1
        if made > node_cap:
            raise CapExceededError(f"history tree exceeds {node_cap} nodes")
        prob = sum(joint)
        belief = tuple([j / prob for j in joint])
        state = states.get(mask)
        if state is None:
            state = states[mask] = labels(mask)
        node = HistoryNode(
            history=history,
            prob=prob,
            state=state,
            joint=tuple(joint),
            belief=belief,
            entropy_bits=entropy_bits(belief),
            emission=None,
        )
        if parent is None:
            root = node
        else:
            parent.children[parsed] = node
        if len(history) == horizon:
            continue
        laws = emission_laws(scenario, strategy, history, joint)
        node.emission = tuple([
            zero_row if law is None else _emission_row(b, law, column, zero_row)
            for b, law in zip(belief, laws)
        ])
        outcomes = scenario.step(mask, laws, joint)
        for y in sorted(outcomes, key=lambda y: column.get(y, null_column), reverse=True):
            child_mask, child_joint = outcomes[y]
            stack.append((node, y, history + (y,), child_mask, child_joint))
    return HistoryTree(scenario=scenario, horizon=horizon, root=root, node_count=made)


def _emission_row(b: float, law, column: dict[str, int], zero_row: tuple) -> tuple[float, ...]:
    """``b * law[token]`` in alphabet order; tokens outside the alphabet are left to the step."""
    row = list(zero_row)
    for tok, p in law.items():
        j = column.get(tok)
        if j is not None:
            row[j] = b * p
    return tuple(row)


def _mi_entropy_drop(node: HistoryNode) -> float:
    expected_child = sum(
        (child.prob / node.prob) * child.entropy_bits for child in node.children.values()
    )
    return node.entropy_bits - expected_child


def _state_columns(scenario: Scenario, state: frozenset[str]) -> tuple[bytes, float]:
    """Which parsed columns keep their token at ``state``, and the state's capacity.

    ``ordered[j]`` is 1 when token ``j`` parses at ``state``; the null
    column, last, is 0.  One byte per column keeps a long chain's
    per-state cache small.
    """
    parses = ordered_signals(scenario.mind, scenario.system, state)
    tokens = scenario.system.tokens
    ordered = bytes([tok in parses for tok in tokens] + [False])
    return ordered, capacity_from_count(ordered.count(1), len(tokens))


def _emission_cells(emission: Sequence[Sequence[float]]) -> _Cells:
    """Each emission row's nonzero cells ``(column, p)``, in column order."""
    return [list(zip(compress(count(), row), compress(row, row))) for row in emission]


def _parsed_cells(cells: _Cells, ordered: bytes) -> _Cells:
    """Conditional joint of (target, next parsed observation) at a node.

    Pushes the raw emission through the parser: an ordered token keeps
    its column and every other token lands in the null column, the last.
    Only positive cells are pushed.
    """
    table = []
    for row in cells:
        out = []
        null = 0.0
        for j, p in row:
            if p > 0.0:
                if ordered[j]:
                    out.append((j, p))
                else:
                    null += p
        if null > 0.0:
            out.append((len(ordered) - 1, null))
        table.append(out)
    return table


def _restricted_mi(table: _Cells, keep: bytes) -> float:
    """Mutual information of a joint table restricted to the columns ``j`` with ``keep[j]``, renormalized."""
    sub = [[(j, p) for j, p in row if keep[j]] for row in table]
    mass = sum([sum([p for _, p in row]) for row in sub])
    if mass <= 0.0:
        return 0.0
    return mutual_information_cells([[(j, p / mass) for j, p in row] for row in sub])


def round_mutual_info_from_joint(tree: HistoryTree, node: HistoryNode) -> float:
    """Next-round information about the target, from the joint table."""
    if node.is_leaf:
        raise ValueError("leaf node has no next round")
    ordered, _ = _state_columns(tree.scenario, node.state)
    table = _parsed_cells(_emission_cells(node.emission), ordered)
    return mutual_information_cells(table)


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


def audit_all(tree: HistoryTree) -> AuditReport:
    """Run all eight information-law checks over a built history tree.

    One depth-first pass visits every node once, in the order of
    :meth:`HistoryTree.iter_nodes`, and also walks the expected
    completion time.  Each distinct state's ordered columns and capacity
    are computed once.  Past one scan of the node's dense emission rows
    for their nonzero cells, the work per node is linear in those cells.
    """
    scenario = tree.scenario
    system = scenario.system
    n_tokens = len(system.tokens)
    targets = scenario.targets
    null_only = bytes(n_tokens) + b"\x01"  # keeps the null column alone
    columns: dict[frozenset[str], tuple[bytes, float]] = {}

    worst_drop = (0.0, None)
    worst_super = (0.0, None)
    worst_cap = (0.0, None)
    worst_rel = (0.0, None)
    worst_reph = (0.0, None)
    chain_sum = 0.0
    budget_sum = 0.0
    identified_everywhere = True
    # Expected completion time: each target adds its mass times the depth
    # at the first node where it is known and believed; a target still
    # alive at a leaf never completes.
    expected_tau = 0.0
    incomplete = False

    stack = [(tree.root, list(range(len(targets))))]
    while stack:
        node, alive = stack.pop()
        if alive and not incomplete:
            still = []
            for i in alive:
                if node.joint[i] <= 0.0:
                    continue
                done = (
                    targets[i] in node.state
                    and node.joint[i] >= node.prob * (1.0 - _EXACT_TOL)
                )
                if done:
                    expected_tau += node.joint[i] * node.depth
                else:
                    still.append(i)
            if still and node.is_leaf:
                incomplete = True
            alive = still

        if not node.children:
            if node.entropy_bits > _EXACT_TOL:
                identified_everywhere = False
            continue
        stack.extend((child, alive) for child in reversed(node.children.values()))

        state_columns = columns.get(node.state)
        if state_columns is None:
            state_columns = columns[node.state] = _state_columns(scenario, node.state)
        ordered, state_capacity = state_columns
        drop = _mi_entropy_drop(node)
        assert node.emission is not None
        cells = _emission_cells(node.emission)
        table = _parsed_cells(cells, ordered)
        mi = mutual_information_cells(table)

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
        mi_erased = _restricted_mi(table, null_only)
        if mi_erased > worst_rel[0]:
            worst_rel = (mi_erased, node.history)
        # The parsed table keeps the emission's positive cells at ordered
        # columns as they are, so the two restrictions to the ordered
        # columns are one table and agree exactly; only a negative or NaN
        # emission cell can separate them.
        positive = [(j, p) for row in cells for j, p in row if p > 0.0]
        if len(positive) != sum(map(len, cells)):
            gap = abs(_restricted_mi(table, ordered) - _restricted_mi(cells, ordered))
            if gap > worst_rel[0]:
                worst_rel = (gap, node.history)

        if len({system.targets[j] for j, _ in positive}) == 1:
            # Every emitted token teaches the same concept, so any one of
            # them tells whether that concept is ordered.
            if not ordered[positive[0][0]] and mi > worst_reph[0]:
                worst_reph = (mi, node.history)

        if node.entropy_bits > _EXACT_TOL:
            chain_sum += node.prob * mi
            budget_sum += node.prob * state_capacity

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

    verdicts.append(_global_bound_verdict(None if incomplete else expected_tau, scenario))
    return AuditReport(tuple(verdicts))


def _global_bound_verdict(expected_tau: Optional[float], scenario: Scenario) -> LawVerdict:
    if expected_tau is None:
        return LawVerdict("global_bound", "not applicable", 0.0, None)
    chains = scenario.target_chains
    expected_depth = 0.0
    for target, weight in zip(scenario.targets, scenario.prior):
        if weight > 0.0:
            expected_depth += weight * (len(chains[target]) - 1)
    cap_max = max_capacity(scenario.mind, scenario.system)
    floor = expected_depth
    if cap_max > 0.0:
        floor = max(floor, entropy_bits(scenario.prior) / cap_max)
    return _verdict("global_bound", floor - expected_tau, None)
