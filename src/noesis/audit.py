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

Both :func:`build_history_tree` and :func:`audit_history` read one
walk of the tree, :func:`_walk`: one explicit stack popped in pre-order,
one node count and cap check.  It parses each node's emissions through
the node's learner view, kept in one table with one view per distinct
state, and grows a view from it (:meth:`Scenario.grow_view`) for each
new child state that will itself be expanded, so the walk never reads
the rules per node.

:func:`audit_history` gives the same node count and report without
building the tree: it checks each node's laws as the walk yields it,
and the walk keeps only the pending children on its stack, each with
its history tuple, and its view table, so a chain audit's law work per
node does not grow with the chain.  These, not the tree, are its memory;
a view's state mask and expansion hold up to one bit per concept each,
so on a long chain the views, not the history tuples, are most of it.
Both audits feed one per-node law routine, :meth:`_Checks.node`, in the
same pre-order, so their floats agree: it runs the expected-completion
walk and then the leaf check or the per-node laws, and each audit only
turns its own node (a built tree's or the walk's) into that routine's
record.

Every walk uses an explicit stack, so a tree's depth is bounded by its
node cap alone.  The audit reads each node's joint tables from their
nonzero cells only.  A table is then a list of rows, each row a list of
``(column, p)`` cells in column order; the dense sums skip only zero
cells, which add nothing exactly, so every float equals the one the
dense table gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .errors import CapExceededError, InformationLawError
from .information import entropy_bits, mutual_information_cells
from .signals import ParsedSignal, max_capacity
from .teaching import LearnerView, Scenario, StrategyKernel, emission_laws

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
    "audit_history",
]

AUDIT_TOL = 1e-9
# Point-mass detection inside the tree; deterministic kernels produce
# exact 0/1 beliefs, so this is far tighter than the audit tolerance.
_EXACT_TOL = 1e-12

DEFAULT_NODE_CAP = 200_000

_Cells = list[list[tuple[int, float]]]  # per nonzero row, its nonzero (column, p) in column order


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
            if node.children:  # most nodes are leaves
                stack.extend(reversed(node.children.values()))

    def internal_nodes(self) -> Iterator[HistoryNode]:
        return (n for n in self.iter_nodes() if n.children)

    def leaves(self) -> Iterator[HistoryNode]:
        return (n for n in self.iter_nodes() if not n.children)


def _children(outcomes: dict, column: dict[str, int]) -> list[tuple]:
    """Outcomes ``{parsed: (mask, joint)}`` as children in alphabet order, the null observation last.

    Each child is ``(outcome, state mask, joint, prob, belief, entropy)``.
    The root is the one outcome, ``None``, of no round at all.
    """
    null_column = len(column)
    children = []
    for y in sorted(outcomes, key=lambda y: column.get(y, null_column)):
        mask, joint = outcomes[y]
        prob = sum(joint)
        belief = tuple([j / prob for j in joint])
        children.append((y, mask, joint, prob, belief, entropy_bits(belief)))
    return children


def _walk(scenario: Scenario, strategy: StrategyKernel, horizon: int, node_cap: int) -> Iterator[tuple]:
    """Every node of the history tree to ``horizon``, in pre-order, children in :func:`_children` order.

    Yields ``(history, mask, joint, prob, belief, entropy, expansion)``
    per node; ``expansion`` is None at the horizon, and otherwise the
    node's kernel laws, its learner view and its children (see
    :func:`_children`).  A node is counted when it is popped, and the one
    past ``node_cap`` raises :class:`CapExceededError` there, before its
    kernel is read.  One table holds a learner view per distinct state;
    a child that will itself be expanded gets its state's view grown
    from its parent's, so the walk never reads the rules per node.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    column = {tok: j for j, tok in enumerate(scenario.system.tokens)}
    axioms = scenario.mind.axiom_mask
    views = {axioms: scenario.view(axioms)}
    made = 0
    # (history, (outcome, mask, joint, prob, belief, entropy)), popped in pre-order
    stack = [((), _children({None: (axioms, list(scenario.prior))}, column)[0])]
    while stack:
        history, (_, mask, joint, prob, belief, entropy) = stack.pop()
        made += 1
        if made > node_cap:
            raise CapExceededError(f"history tree exceeds {node_cap} nodes")
        if len(history) == horizon:
            yield history, mask, joint, prob, belief, entropy, None
            continue
        laws = emission_laws(scenario, strategy, history, joint)
        view = views[mask]
        children = _children(scenario.step(mask, view[0], laws, joint), column)
        if len(history) + 1 < horizon:
            for child in children:
                if child[1] not in views:
                    views[child[1]] = scenario.grow_view(view, mask, child[1] ^ mask)
        yield history, mask, joint, prob, belief, entropy, (laws, view, children)
        stack.extend([(history + (child[0],), child) for child in reversed(children)])


def build_history_tree(
    scenario: Scenario,
    strategy: StrategyKernel,
    horizon: int,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
) -> HistoryTree:
    """Enumerate every positive-probability parsed history up to ``horizon``.

    Joint probabilities are propagated exactly; only outcomes with
    positive probability become children.  Nodes are made in
    :func:`_walk`'s order: depth first, children in alphabet order with
    the null observation last.  Raises :class:`CapExceededError` when the
    tree would exceed ``node_cap``.
    """
    column = {tok: j for j, tok in enumerate(scenario.system.tokens)}
    zero_row = (0.0,) * len(column)
    labels = scenario.mind.space.labels
    states: dict[int, frozenset[str]] = {}  # one label set per distinct state
    path: list[HistoryNode] = []  # the last node made at each depth: a new node's parent is one up
    walk = _walk(scenario, strategy, horizon, node_cap)
    for count, (history, mask, joint, prob, belief, entropy, expansion) in enumerate(walk, 1):
        state = states.get(mask)
        if state is None:
            state = states[mask] = labels(mask)
        # Positional, in field order: keyword arguments cost about 6% of the build.
        node = HistoryNode(history, prob, state, tuple(joint), belief, entropy, None)
        depth = len(history)
        if depth:
            path[depth - 1].children[history[-1]] = node
        path[depth:] = [node]
        if expansion is not None:
            node.emission = tuple([
                zero_row if law is None else _emission_row(b, law, column, zero_row)
                for b, law in zip(belief, expansion[0])
            ])
    return HistoryTree(scenario=scenario, horizon=horizon, root=path[0], node_count=count)


def _emission_row(b: float, law, column: dict[str, int], zero_row: tuple) -> tuple[float, ...]:
    """``b * law[token]`` in alphabet order; the step has already rejected any other token."""
    row = list(zero_row)
    for tok, p in law.items():
        row[column[tok]] = b * p
    return tuple(row)


def _law_cells(belief: Sequence[float], laws, column: dict[str, int]) -> _Cells:
    """The nonzero cells of the rows :func:`_emission_row` fills, read straight from the laws.

    Every token of a law is in the alphabet here: the step has already
    rejected any other.
    """
    cells = []
    for b, law in zip(belief, laws):
        if law is not None:
            row = [(column[tok], v) for tok, p in law.items() if (v := b * p)]
            if len(row) > 1:
                row.sort()
            if row:
                cells.append(row)
    return cells


def _entropy_drop(prob: float, entropy: float, children: Sequence[tuple[float, float]]) -> float:
    """A node's entropy less its children's expected entropy; ``children`` lists (prob, entropy)."""
    return entropy - sum([(p / prob) * h for p, h in children])


def _mi_entropy_drop(node: HistoryNode) -> float:
    return _entropy_drop(
        node.prob, node.entropy_bits, [(c.prob, c.entropy_bits) for c in node.children.values()]
    )


def _emission_cells(emission: Sequence[Sequence[float]]) -> _Cells:
    """The nonzero cells ``(column, p)`` of each nonzero emission row, in column order.

    A row of zeros adds nothing exactly to any sum of the audit, so it is
    left out.
    """
    return [[(j, p) for j, p in enumerate(row) if p] for row in emission if any(row)]


def _parsed_cells(cells: _Cells, expanded: int, column_bits: Sequence[int]):
    """Conditional joint of (target, next parsed observation) at a node, in one pass over its cells.

    Pushes the raw emission through the parser: a token whose concept bit
    is in ``expanded`` keeps its column and every other token lands in
    the null column, the last.  Only positive cells are pushed.

    Returns the parsed table, less its empty rows; each row's null cell
    (the last in its row), in row order; whether some cell was not
    positive; and the concept bit every positive cell teaches, or 0 when
    they teach several or none.
    """
    null_column = len(column_bits)
    table = []
    nulls = []
    nonpositive = False
    concept = 0
    mixed = False
    for row in cells:
        out = []
        null = 0.0
        for j, p in row:
            if p > 0.0:
                bit = column_bits[j]
                if expanded & bit:
                    out.append((j, p))
                else:
                    null += p
                if bit != concept:
                    if concept:
                        mixed = True
                    else:
                        concept = bit
            else:
                nonpositive = True
        if null > 0.0:
            out.append((null_column, null))
            nulls.append(null)
        if out:
            table.append(out)
    return table, nulls, nonpositive, 0 if mixed else concept


def _restricted_mi(table: _Cells, keep: bytes) -> float:
    """Mutual information of a joint table restricted to the columns ``j`` with ``keep[j]``, renormalized."""
    sub = [[(j, p) for j, p in row if keep[j]] for row in table]
    mass = sum([sum([p for _, p in row]) for row in sub])
    if mass <= 0.0:
        return 0.0
    return mutual_information_cells([[(j, p / mass) for j, p in row] for row in sub])


def _erased_mi(nulls: Sequence[float]) -> float:
    """:func:`_restricted_mi` of a parsed table to its null column, from the rows' null cells.

    Rows without a null cell drop out of every sum, and a row with one
    has that cell as its marginal, so the floats are those of the
    general routine: the same sums over the same lists, and the same
    quotients and logarithms.
    """
    mass = sum(nulls)
    if mass <= 0.0:
        return 0.0
    return mutual_information_cells([[(0, p / mass)] for p in nulls])


def round_mutual_info_from_joint(tree: HistoryTree, node: HistoryNode) -> float:
    """Next-round information about the target, from the joint table."""
    if node.is_leaf:
        raise ValueError("leaf node has no next round")
    scenario = tree.scenario
    expanded = scenario.view(scenario.mind.space.mask(node.state))[0]
    column_bits = list(scenario.token_bits.values())
    table = _parsed_cells(_emission_cells(node.emission), expanded, column_bits)[0]
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


_LAWS = ("entropy_drop", "supermartingale", "statewise_bound", "relativity", "rephrasing")  # the per-node laws
_DROP, _SUPER, _CAP, _REL, _REPH = range(len(_LAWS))


class _Checks:
    """The one per-node consumer of both audits: the eight laws' running state.

    :meth:`node` takes every node of one history tree in pre-order, from
    :func:`audit_all`'s built tree or :func:`audit_history`'s walk, and
    runs the expected-completion walk, then the leaf check or the
    per-node laws.  ``worst[k]`` is law ``_LAWS[k]``'s worst violation
    and the first history that reached it.
    """

    __slots__ = (
        "scenario", "target_bits", "column_bits", "alive_at", "expected_tau", "incomplete",
        "identified_everywhere", "chain_sum", "budget_sum", "worst",
    )

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        space = scenario.mind.space
        self.target_bits = [space.bit(t) for t in scenario.targets]
        self.column_bits = list(scenario.token_bits.values())
        # Expected completion time: each target adds its mass times the
        # depth at the first node where it is known and believed; a target
        # still alive at a leaf never completes.
        self.alive_at = [list(range(len(scenario.targets)))]  # [d]: the targets alive at depth d of the path
        self.expected_tau = 0.0
        self.incomplete = False
        self.identified_everywhere = True
        self.chain_sum = 0.0
        self.budget_sum = 0.0
        self.worst: list[tuple[float, Optional[tuple]]] = [(0.0, None)] * len(_LAWS)

    def _keep(self, law: int, value: float, history: tuple) -> None:
        """Make ``value`` at ``history`` the law's worst violation if it is strictly larger."""
        if value > self.worst[law][0]:
            self.worst[law] = (value, history)

    def node(
        self, history: tuple, mask: int, joint: Sequence[float], prob: float, entropy: float,
        internal: Optional[tuple[Sequence[tuple[float, float]], _Cells, int, float]],
    ) -> None:
        """Check one node.  ``internal`` is None at a leaf; otherwise it is
        ``(children, cells, expanded, capacity)``: the children's (prob,
        entropy), the emission's nonzero cells, and the node's expansion
        and capacity.
        """
        depth = len(history)
        alive = self.alive_at[depth]
        if alive and not self.incomplete:
            still = []
            bits = self.target_bits
            for i in alive:
                w = joint[i]
                if w <= 0.0:
                    continue
                if mask & bits[i] and w >= prob * (1.0 - _EXACT_TOL):
                    self.expected_tau += w * depth
                else:
                    still.append(i)
            if still and internal is None:
                self.incomplete = True
            alive = still
        if internal is None:
            if entropy > _EXACT_TOL:
                self.identified_everywhere = False
            return
        self.alive_at[depth + 1:] = [alive]
        children, cells, expanded, capacity = internal
        drop = _entropy_drop(prob, entropy, children)
        table, nulls, nonpositive, concept = _parsed_cells(cells, expanded, self.column_bits)
        mi = mutual_information_cells(table)
        self._keep(_DROP, abs(drop - mi), history)
        self._keep(_SUPER, -drop, history)  # expected child entropy above the node entropy
        self._keep(_CAP, mi - capacity, history)

        # Erasure versus informativeness, split on whether the emitted
        # token's concept is currently ordered.  The unparseable event is
        # exactly the null column of the parsed table, so restricting to
        # it conditions on the event; within it the observation is
        # constant and must carry nothing.  On the parseable event the
        # parser is the identity, so parsed and raw information agree.
        self._keep(_REL, _erased_mi(nulls), history)
        # The parsed table keeps the emission's positive cells at ordered
        # columns as they are, so the two restrictions to the ordered
        # columns are one table and agree exactly; only a negative or NaN
        # emission cell can separate them.
        if nonpositive:
            ordered = bytes([expanded & bit != 0 for bit in self.column_bits] + [False])
            self._keep(_REL, abs(_restricted_mi(table, ordered) - _restricted_mi(cells, ordered)), history)

        # When every emitted token teaches the same concept, any one of
        # them tells whether that concept is ordered.
        if concept and not expanded & concept:
            self._keep(_REPH, mi, history)

        if entropy > _EXACT_TOL:
            self.chain_sum += prob * mi
            self.budget_sum += prob * capacity

    def report(self) -> AuditReport:
        scenario = self.scenario
        verdicts = [_verdict(law, *worst) for law, worst in zip(_LAWS, self.worst)]
        prior_entropy = entropy_bits(scenario.prior)
        if self.identified_everywhere:
            verdicts.append(_verdict("chain_identity", abs(self.chain_sum - prior_entropy), None))
            verdicts.append(_verdict("trajectory_budget", prior_entropy - self.budget_sum, None))
        else:
            verdicts.append(LawVerdict("chain_identity", "not applicable", 0.0, None))
            verdicts.append(LawVerdict("trajectory_budget", "not applicable", 0.0, None))
        verdicts.append(_global_bound_verdict(None if self.incomplete else self.expected_tau, scenario))
        return AuditReport(tuple(verdicts))


def audit_all(tree: HistoryTree) -> AuditReport:
    """Run all eight information-law checks over a built history tree.

    One depth-first pass visits every node once, in the order of
    :meth:`HistoryTree.iter_nodes`, and also walks the expected
    completion time.  It reads the tree it is handed (each node's
    ``state``, ``joint``, ``prob``, ``entropy_bits``, ``emission`` and
    ``children``).  Each distinct state's view (:meth:`Scenario.view`) is
    computed once.  Past one scan of the node's dense emission rows for
    their nonzero cells, the work per node is linear in those cells.
    """
    scenario = tree.scenario
    space_mask = scenario.mind.space.mask
    checks = _Checks(scenario)
    masks: dict[frozenset[str], int] = {}
    views: dict[int, LearnerView] = {}
    for node in tree.iter_nodes():
        mask = masks.get(node.state)
        if mask is None:
            mask = masks[node.state] = space_mask(node.state)
        internal = None
        if node.children:
            view = views.get(mask)
            if view is None:
                view = views[mask] = scenario.view(mask)
            assert node.emission is not None
            children = [(c.prob, c.entropy_bits) for c in node.children.values()]
            internal = (children, _emission_cells(node.emission), view[0], view[2])
        checks.node(node.history, mask, node.joint, node.prob, node.entropy_bits, internal)
    return checks.report()


def audit_history(
    scenario: Scenario,
    strategy: StrategyKernel,
    horizon: int,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
) -> tuple[int, AuditReport]:
    """``(tree.node_count, audit_all(tree))`` for :func:`build_history_tree`'s tree, never built.

    It reads the walk :func:`build_history_tree` reads, :func:`_walk`, so
    the nodes come in the tree's pre-order and the cap error and any
    kernel error are raised exactly where the tree raises them.  A node's
    laws are checked when it is expanded, from its children's
    probabilities and entropies and from emission cells read straight off
    the kernel laws.  Its memory is the walk's pending children, each
    with its history tuple, the walk's view table, one entry per distinct
    state expanded, and the alive targets along the current path, one
    list per depth.
    """
    column = {tok: j for j, tok in enumerate(scenario.system.tokens)}
    checks = _Checks(scenario)
    walk = _walk(scenario, strategy, horizon, node_cap)
    for count, (history, mask, joint, prob, belief, entropy, expansion) in enumerate(walk, 1):
        internal = None
        if expansion is not None and expansion[2]:
            laws, view, children = expansion
            internal = ([(c[3], c[5]) for c in children], _law_cells(belief, laws, column), view[0], view[2])
        checks.node(history, mask, joint, prob, entropy, internal)
    return count, checks.report()


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
