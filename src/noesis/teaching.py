"""Teaching scenarios, strategies, the Bayesian learner, and episode simulation.

A scenario fixes the learner's mind, the signal system, the candidate
target concepts, and the prior over them.  A strategy maps the realized
target and the parsed history to a distribution over the next raw token.
Episodes interleave teacher emission, prerequisite-gated parsing, the
one-concept acquisition update, and exact Bayesian filtering of the
belief; they record completion (target acquired and identified) and
identification (belief a point mass) times.

A round of an episode or a posterior is one call of one of two
functions with one argument list and one result: :func:`_point_round`
for a :class:`PointKernel`, :func:`_law_round` for any other kernel.
:func:`run_episode` and :func:`posterior_after` choose it once, before
their one loop.  :meth:`Scenario.step` groups a round's outcomes on
state masks for :func:`_law_round` and the history-tree walk
(``audit._walk``); it parses through the caller's learner view (a token
parses when its concept is in the view's expansion) and reads no rule.
:meth:`Scenario.view` computes a state's
view (expansion, parsed-token count, capacity) and
:meth:`Scenario.grow_view` grows it by one acquired concept; episodes,
posteriors and both audits call ``view`` once, at the root, and
``grow_view`` once per new state.  The exact search reads each search
node's outcomes from one view and never steps.
Shortest acquisition chains to the targets are computed once per
scenario, by one breadth-first search that grows each state's expansion
from its parent's in the same way (about 1 ms on a 400-concept chain,
CPython 3.11 on one core of a Xeon server), and cached as
:attr:`Scenario.target_chains`; the direct strategy, the value bounds
and the audit's global bound read them from there.

An episode round queries the strategy kernel once per live target (one
of positive belief), and once for the realized target whatever its
belief: the law it samples from is the law the filter reads.  The
round's random substream is built only when that law puts positive mass
on more than one token; a one-token law emits its token whatever the
draw, and every round has its own substream, so skipping the draw
changes no trace.

Every strategy a scenario file can name (``direct``, ``scripted``,
``broadcast``) is deterministic and built as a :class:`PointKernel`: it
names one token per target and round.  Episodes and posteriors read such
a kernel's tokens directly, with no law dict and no history tuple, and
filter by parse: a live target keeps its weight when its token parses the
way the observation did and drops to 0.0 otherwise, which is the exact
Bayesian update, since ``w * 1.0 == w`` and the sums keep target order.
Any other kernel goes through its law dicts in :func:`_law_round`;
called as a kernel, a point kernel gives the law ``{token: 1.0}``, and
both rounds give the same floats and raise the same errors in the same
order.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import (
    MissingSignalError,
    ScenarioError,
    StrategyError,
    UnknownConceptError,
    ZeroProbabilityError,
)
from .information import entropy_bits
from .mind import Mind, _frozen, iter_bits, understanding_horizon
from .reachability import _added_concepts, _first_hit_chains
from .signals import ParsedSignal, SignalSystem, capacity_from_count

__all__ = [
    "POINT_MASS_TOL",
    "Scenario",
    "PointKernel",
    "StrategyKernel",
    "StrategySpec",
    "Round",
    "EpisodeTrace",
    "knowledge_update",
    "state_after",
    "posterior_after",
    "direct_strategy",
    "scripted_strategy",
    "broadcast_strategy",
    "run_episode",
]

# A belief entry this close to one counts as a point mass; completion and
# identification are float events, so exact equality is not usable.
POINT_MASS_TOL = 1e-9

_PRIOR_SUM_TOL = 1e-12
_KERNEL_SUM_TOL = 1e-9

StrategyKernel = Callable[[str, tuple[ParsedSignal, ...]], Mapping[str, float]]
LearnerView = tuple[int, int, float]  # a state's expansion, parsed-token count and capacity in bits


class PointKernel:
    """A deterministic strategy kernel: one token, with mass 1, per target and round.

    ``token(target, t)`` is the token emitted to ``target`` in round
    ``t + 1``, after ``t`` observations; it may raise
    :class:`StrategyError`.  Called as a :data:`StrategyKernel`, the kernel
    gives the point law ``{token(target, len(history)): 1.0}``.
    """

    __slots__ = ("token",)

    def __init__(self, token: Callable[[str, int], str]) -> None:
        self.token = token

    def __call__(self, target: str, history: tuple[ParsedSignal, ...]) -> Mapping[str, float]:
        return {self.token(target, len(history)): 1.0}


@dataclass(frozen=True)
class Scenario:
    """A teaching problem: mind, signal system, candidate targets, prior."""

    mind: Mind
    system: SignalSystem
    targets: tuple[str, ...]
    prior: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "prior", tuple(float(p) for p in self.prior))
        if not self.targets:
            raise ScenarioError("targets: must be non-empty")
        if len(set(self.targets)) != len(self.targets):
            raise ScenarioError("targets: duplicates are not allowed")
        for t in self.targets:
            if t not in self.mind.space:
                raise ScenarioError(f"targets: {t!r} is not in the concept space")
            if not self.mind.horizon_mask & self.mind.space.bit(t):
                raise ScenarioError(f"targets: {t!r} lies outside the understanding horizon")
            if t not in self.system.image:
                raise ScenarioError(f"targets: no signal token teaches {t!r}")
        if len(self.prior) != len(self.targets):
            raise ScenarioError("prior: must have one weight per target")
        # Both tests are written so that a NaN weight, for which every comparison is false, fails.
        if not all(p >= 0.0 for p in self.prior):
            raise ScenarioError("prior: weights must be nonnegative")
        if not abs(sum(self.prior) - 1.0) <= _PRIOR_SUM_TOL:
            raise ScenarioError(f"prior: sums to {sum(self.prior)!r}, not 1")

    @cached_property
    def target_index(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.targets)}

    def prior_of(self, target: str) -> float:
        return self.prior[self.target_index[target]]

    @cached_property
    def token_bits(self) -> dict[str, int]:
        """The concept bit each token teaches, in alphabet order."""
        return {tok: self.mind.space.bit(c) for tok, c in zip(self.system.tokens, self.system.targets)}

    @cached_property
    def target_chains(self) -> dict[str, tuple[int, ...]]:
        """Each target's shortest acquisition chain as state masks, axioms first.

        One breadth-first search serves every target.  The chains are
        built once and never changed, so a scenario shared across threads
        needs no lock.
        """
        space = self.mind.space
        chains = _first_hit_chains(self.mind, space.mask(self.targets))
        return {t: chains[space.bit(t)] for t in self.targets}

    @cached_property
    def _tokens_at(self) -> Counter[int]:
        """The number of tokens teaching each concept, by concept position."""
        return Counter(bit.bit_length() - 1 for bit in self.token_bits.values())

    def view(self, mask: int) -> LearnerView:
        """The learner's view at state ``mask``: its expansion, parsed-token count and capacity.

        A token parses when its concept bit is in the expansion.
        """
        expanded = self.mind.expand_mask(mask)
        n_parsed = sum(1 for bit in self.token_bits.values() if expanded & bit)
        return expanded, n_parsed, capacity_from_count(n_parsed, len(self.token_bits))

    def grow_view(self, view: LearnerView, mask: int, bit: int) -> LearnerView:
        """``self.view(mask | bit)`` from ``view == self.view(mask)``, through :meth:`Mind.expand_add`."""
        expanded, n_parsed, _ = view
        grown = self.mind.expand_add(expanded, mask, bit)
        n_parsed += sum(self._tokens_at[b.bit_length() - 1] for b in iter_bits(grown & ~expanded))
        return grown, n_parsed, capacity_from_count(n_parsed, len(self.token_bits))

    def step(
        self, state_mask: int, expanded: int, laws: Sequence[Optional[Mapping[str, float]]],
        weights: Sequence[float],
    ) -> dict[ParsedSignal, tuple[int, list[float]]]:
        """One teaching round on masks: parse every emission and group by outcome.

        ``expanded`` is the expansion of ``state_mask``, the first entry of
        its learner view; a token parses when its concept bit is in it.

        ``laws[i]`` is target ``i``'s next-token law; it is never read when
        ``weights[i]`` is 0.  Maps each parsed outcome of positive mass to
        the next state and the weights ``weights[i] * P(outcome | target i)``,
        in order of first occurrence.
        """
        bits = self.token_bits
        out: dict[ParsedSignal, tuple[int, list[float]]] = {}
        for i, w in enumerate(weights):
            if w <= 0.0:
                continue
            for tok, p in laws[i].items():
                bit = bits.get(tok)
                if bit is None:
                    raise UnknownConceptError(f"unknown signal token {tok!r}")
                parsed = tok if expanded & bit else None
                entry = out.get(parsed)
                if entry is None:
                    entry = out[parsed] = (state_mask | bit if parsed else state_mask, [0.0] * len(weights))
                entry[1][i] += w * p
        return {y: e for y, e in out.items() if sum(e[1]) > 0.0}


def knowledge_update(
    mind: Mind, system: SignalSystem, state: Iterable[str], parsed: ParsedSignal
) -> frozenset[str]:
    """Acquire the parsed token's concept; the null observation changes nothing."""
    current = frozenset(state)
    if parsed is None:
        return current
    return current | {system.concept_of(parsed)}


def state_after(scenario: Scenario, history: Sequence[ParsedSignal]) -> frozenset[str]:
    """The acquired set reached from the axioms along a parsed history."""
    state = frozenset(scenario.mind.axioms)
    for parsed in history:
        state = knowledge_update(scenario.mind, scenario.system, state, parsed)
    return state


def emission_distribution(
    strategy: StrategyKernel, target: str, history: tuple[ParsedSignal, ...]
) -> Mapping[str, float]:
    dist = strategy(target, history)
    total = sum(dist.values())
    # A NaN probability makes the sum NaN, which fails the first test; an
    # empty law fails it too, before ``min`` would see no values.
    if not abs(total - 1.0) <= _KERNEL_SUM_TOL or not min(dist.values()) >= 0.0:
        raise StrategyError(
            f"kernel for target {target!r} at round {len(history) + 1} is not a distribution"
        )
    return dist


def emission_laws(
    scenario: Scenario, strategy: StrategyKernel, history: tuple, weights: Sequence[float]
) -> list[Optional[Mapping[str, float]]]:
    """Each target's next-token law, or None where its weight is 0."""
    return [
        emission_distribution(strategy, t, history) if w > 0.0 else None
        for t, w in zip(scenario.targets, weights)
    ]


def _point_round(
    scenario: Scenario, kernel: PointKernel, t: int, mask: int, view: LearnerView,
    belief: Sequence[float], theta: Optional[int], parsed: ParsedSignal,
    prefix: Callable[[], tuple[ParsedSignal, ...]],
) -> tuple[Optional[str], ParsedSignal, int, LearnerView, list[float]]:
    """Round ``t + 1`` under a point kernel; returns (emitted, parsed, state mask, view, belief).

    With ``theta`` a target index, that target's token is the emission and
    its parse the observation; with ``theta`` None, ``parsed`` is observed
    and the emission is None.  Every live target's token is read, in target
    order (``theta``'s once), and checked against the alphabet; a target
    keeps its weight where its token parses to the observation.  The
    errors come in the order of :func:`_law_round`: ``theta``'s kernel
    error, its unknown token, the other kernel errors, the other unknown
    tokens, then :class:`ZeroProbabilityError`, whose message spells the
    history ``prefix()`` returns.
    """
    targets, bits, token = scenario.targets, scenario.token_bits, kernel.token
    expanded = view[0]
    emitted = None
    if theta is not None:
        emitted = token(targets[theta], t)
        if emitted not in bits:
            raise UnknownConceptError(f"unknown signal token {emitted!r}")
        parsed = emitted if expanded & bits[emitted] else None
    tokens = [
        emitted if i == theta else token(target, t) if w > 0.0 else None
        for i, (target, w) in enumerate(zip(targets, belief))
    ]
    unknown = set(tokens).difference(bits)
    unknown.discard(None)
    if unknown:
        tok = next(tok for tok in tokens if tok in unknown)
        raise UnknownConceptError(f"unknown signal token {tok!r}")
    if parsed is None:
        joint = [0.0 if tok is None or expanded & bits[tok] else w for tok, w in zip(tokens, belief)]
    elif expanded & bits.get(parsed, 0):
        joint = [w if tok == parsed else 0.0 for tok, w in zip(tokens, belief)]
    else:
        joint = [0.0] * len(tokens)
    total = sum(joint)
    if not total > 0.0:
        raise ZeroProbabilityError(f"history {prefix() + (parsed,)} has probability zero")
    if parsed is not None:
        bit = bits[parsed]
        if not mask & bit:
            view = scenario.grow_view(view, mask, bit)
            mask |= bit
    return emitted, parsed, mask, view, [j / total for j in joint]


def _law_round(
    seed: Optional[int], scenario: Scenario, kernel: StrategyKernel, t: int, mask: int, view: LearnerView,
    belief: Sequence[float], theta: Optional[int], parsed: ParsedSignal,
    prefix: Callable[[], tuple[ParsedSignal, ...]],
) -> tuple[Optional[str], ParsedSignal, int, LearnerView, list[float]]:
    """Round ``t + 1`` under a law-dict kernel, as :func:`_point_round` computes it for a point kernel.

    The kernel is called on the parsed history ``prefix()``: for
    ``theta`` first, whose law is the emission's and is drawn from
    ``Random(f"{seed}:round:{t + 1}")`` only when it has more than one
    positive token, then for every other live target in target order.
    :meth:`Scenario.step` groups the outcomes; the observation's weights,
    normalized, are the new belief.  ``seed`` is read only with ``theta``.
    """
    history = prefix()
    bits, targets = scenario.token_bits, scenario.targets
    emitted = dist = None
    if theta is not None:
        dist = emission_distribution(kernel, targets[theta], history)
        tokens = [tok for tok, p in dist.items() if p > 0.0]
        if len(tokens) == 1:
            emitted = tokens[0]
        else:
            emitted = _sample(random.Random(f"{seed}:round:{t + 1}"), tokens, [dist[tok] for tok in tokens])
        if emitted not in bits:
            raise UnknownConceptError(f"unknown signal token {emitted!r}")
        parsed = emitted if view[0] & bits[emitted] else None
    laws = [
        dist if i == theta else emission_distribution(kernel, target, history) if w > 0.0 else None
        for i, (target, w) in enumerate(zip(targets, belief))
    ]
    outcomes = scenario.step(mask, view[0], laws, belief)
    if parsed not in outcomes:
        raise ZeroProbabilityError(f"history {history + (parsed,)} has probability zero")
    child_mask, joint = outcomes[parsed]
    if child_mask != mask:
        view = scenario.grow_view(view, mask, child_mask ^ mask)
    total = sum(joint)
    return emitted, parsed, child_mask, view, [j / total for j in joint]


def posterior_after(
    scenario: Scenario, strategy: StrategyKernel, history: Sequence[ParsedSignal]
) -> tuple[float, ...]:
    """Exact filtering of the belief along a parsed history.

    Each round is one call of :func:`_point_round` for a
    :class:`PointKernel` and of :func:`_law_round` for any other kernel,
    chosen once; both give the same floats.
    """
    history = tuple(history)
    belief = list(scenario.prior)
    mask = scenario.mind.axiom_mask
    view = scenario.view(mask)  # grown one acquired concept at a time
    play = _point_round if isinstance(strategy, PointKernel) else partial(_law_round, None)
    for t, parsed in enumerate(history):
        _, _, mask, view, belief = play(
            scenario, strategy, t, mask, view, belief, None, parsed, lambda: history[:t]
        )
    return tuple(belief)


def direct_strategy(scenario: Scenario) -> PointKernel:
    """Walk each target's shortest acquisition chain, then name the target.

    For every target the plan emits one token per chain concept (the
    first token of that concept's fiber) followed by the target's fixed
    representative token, which identifies it in one extra round.  Every
    non-axiom concept in the understanding horizon must carry at least
    one token; axioms are never taught, so they need none.
    """
    fibers = scenario.system.fibers
    # Axioms are never acquired along a chain, so they need no token.
    for concept in sorted(understanding_horizon(scenario.mind) - scenario.mind.axioms):
        if concept not in fibers:
            raise MissingSignalError(f"no signal token teaches horizon concept {concept!r}")
    space = scenario.mind.space
    plans: dict[str, tuple[str, ...]] = {}
    for target, chain in scenario.target_chains.items():
        added = _added_concepts(space, chain)
        plans[target] = tuple(fibers[c][0] for c in added) + (fibers[target][0],)

    def token(target: str, t: int) -> str:
        plan = plans[target]
        return plan[t] if t < len(plan) else plan[-1]

    return PointKernel(token)


def scripted_strategy(rows: Mapping[str, Sequence[str]]) -> PointKernel:
    """Play a fixed token row per target, ignoring the history content."""
    fixed = {t: tuple(row) for t, row in rows.items()}

    def token(target: str, t: int) -> str:
        try:
            row = fixed[target]
        except KeyError:
            raise StrategyError(f"no script row for target {target!r}") from None
        if t >= len(row):
            raise StrategyError(f"script row for {target!r} exhausted at round {t + 1}")
        return row[t]

    return PointKernel(token)


def broadcast_strategy(row: Sequence[str]) -> PointKernel:
    """Play one shared token row regardless of the target."""
    shared = tuple(row)

    def token(target: str, t: int) -> str:
        if t >= len(shared):
            raise StrategyError(f"broadcast row exhausted at round {t + 1}")
        return shared[t]

    return PointKernel(token)


@dataclass(frozen=True)
class StrategySpec:
    """Declarative strategy description, as it appears in scenario files."""

    kind: str  # "direct" | "scripted" | "broadcast"
    rows: Optional[Mapping[str, tuple[str, ...]]] = None
    row: Optional[tuple[str, ...]] = None

    def build(self, scenario: Scenario) -> PointKernel:
        if self.kind == "direct":
            return direct_strategy(scenario)
        if self.kind == "scripted":
            if self.rows is None:
                raise StrategyError("scripted strategy needs per-target rows")
            return scripted_strategy(self.rows)
        if self.kind == "broadcast":
            if self.row is None:
                raise StrategyError("broadcast strategy needs a shared row")
            return broadcast_strategy(self.row)
        raise StrategyError(f"unknown strategy kind {self.kind!r}")


@dataclass(frozen=True)
class Round:
    """One simulated round: emission, parse, and the updated learning state."""

    t: int
    emitted: str
    parsed: ParsedSignal
    state: frozenset[str]
    belief: tuple[float, ...]
    entropy_bits: float
    capacity_bits: float


@dataclass(frozen=True)
class EpisodeTrace:
    """A full simulated episode, reproducible from its seed."""

    theta: str
    seed: int
    horizon: int
    rounds: tuple[Round, ...]
    tau: Optional[int]
    tau_id: Optional[int]


def _sample(rng: random.Random, items: Sequence, probs: Sequence[float]):
    u = rng.random()
    acc = 0.0
    for item, p in zip(items, probs):
        acc += p
        if u < acc:
            return item
    return items[-1]


def run_episode(
    scenario: Scenario,
    strategy: StrategyKernel,
    horizon: int,
    seed: int,
    *,
    theta: Optional[str] = None,
) -> EpisodeTrace:
    """Simulate one teaching episode for ``horizon`` rounds.

    Randomness is split into named substreams so traces are bit-exact
    reproducible: the target is drawn from ``Random(f"{seed}:theta")`` and
    round ``t`` from ``Random(f"{seed}:round:{t}")``; that substream is
    built only when round ``t``'s law has more than one positive token.
    Pass ``theta`` to pin the target instead of sampling it.  The belief is
    filtered exactly, never estimated.

    Each round asks ``strategy`` once for ``theta``, then once for every
    other target of positive belief, in target order; ``theta``'s answer
    serves both the emission and the filter.  A round is one call of
    :func:`_point_round` for a :class:`PointKernel`, which is asked for
    tokens (:meth:`PointKernel.token`) with no law dict and no history
    tuple, and of :func:`_law_round`, with ``seed`` bound, for any other
    kernel, which is called on the parsed history.  Both give the same
    trace.  ``tau`` and ``tau_id`` are read after every round and before
    the first.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if theta is None:
        theta = _sample(random.Random(f"{seed}:theta"), scenario.targets, scenario.prior)
    elif theta not in scenario.target_index:
        raise ScenarioError(f"pinned target {theta!r} is not among the scenario targets")

    theta_idx = scenario.target_index[theta]
    concepts = scenario.mind.space.concepts
    mask = scenario.mind.axiom_mask
    state = scenario.mind.space.labels(mask)
    view = scenario.view(mask)  # grown one acquired concept at a time
    belief = list(scenario.prior)
    tau: Optional[int] = None
    tau_id: Optional[int] = None
    rounds: list[Round] = []
    play = _point_round if isinstance(strategy, PointKernel) else partial(_law_round, seed)

    def parsed_history() -> tuple[ParsedSignal, ...]:
        return tuple(r.parsed for r in rounds)

    for t in range(horizon + 1):  # the checks at t read the state after t rounds
        if tau_id is None and max(belief) >= 1.0 - POINT_MASS_TOL:
            tau_id = t
        if tau is None and theta in state and belief[theta_idx] >= 1.0 - POINT_MASS_TOL:
            tau = t
        if t == horizon:
            break
        emitted, parsed, child_mask, view, belief = play(
            scenario, strategy, t, mask, view, belief, theta_idx, None, parsed_history
        )
        if child_mask != mask:
            state = state | {concepts[(child_mask ^ mask).bit_length() - 1]}
            mask = child_mask
        rounds.append(
            _frozen(
                Round,
                t=t + 1,
                emitted=emitted,
                parsed=parsed,
                state=state,
                belief=tuple(belief),
                entropy_bits=entropy_bits(belief),
                capacity_bits=view[2],
            )
        )

    return EpisodeTrace(
        theta=theta,
        seed=seed,
        horizon=horizon,
        rounds=tuple(rounds),
        tau=tau,
        tau_id=tau_id,
    )
