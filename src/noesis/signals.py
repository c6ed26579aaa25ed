"""Signal systems, prerequisite-gated parsing, and channel capacity.

Raw teaching signals are tokens, each pointing at the concept it teaches.
A learner parses a token only when that concept is currently unlockable
(or already known); otherwise the observation collapses to the null
observation, represented here as ``None``.  The per-state capacity is the
largest entropy a parsed observation can carry, and growing the learner's
state can only refine the induced experiment (checked explicitly through
the garbling construction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .errors import InvalidMindError, UnknownConceptError
from .mind import Mind, _plain_tokens, is_ordered, understanding_horizon

__all__ = [
    "ParsedSignal",
    "SignalSystem",
    "ExperimentMatrix",
    "parse",
    "ordered_signals",
    "capacity",
    "max_capacity",
    "garbling_map",
    "experiment_matrix",
    "check_blackwell",
    "BLACKWELL_TOL",
]

ParsedSignal = Optional[str]  # a raw token, or None for the null observation

BLACKWELL_TOL = 1e-9
_ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class SignalSystem:
    """A finite token alphabet plus the concept each token teaches.

    ``tokens`` and ``targets`` are parallel: ``targets[i]`` is the concept
    taught by ``tokens[i]``.  Several tokens may target the same concept
    (rephrasings); the fiber order follows the alphabet order.
    """

    tokens: tuple[str, ...]
    targets: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "targets", tuple(self.targets))
        if not self.tokens:
            raise InvalidMindError("signal alphabet must be non-empty")
        if len(self.tokens) != len(self.targets):
            raise InvalidMindError("tokens and targets must have equal length")
        if _plain_tokens(self.tokens):
            return
        seen: set[str] = set()
        for tok in self.tokens:
            if not tok or any(map(str.isspace, tok)):
                raise InvalidMindError(f"bad signal token {tok!r}")
            if tok in seen:
                raise InvalidMindError(f"duplicate signal token {tok!r}")
            seen.add(tok)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str]]) -> "SignalSystem":
        pairs = list(pairs)
        return cls(tuple(tok for tok, _ in pairs), tuple(tgt for _, tgt in pairs))

    @cached_property
    def target_of(self) -> dict[str, str]:
        return dict(zip(self.tokens, self.targets))

    @cached_property
    def image(self) -> frozenset[str]:
        return frozenset(self.targets)

    def concept_of(self, token: str) -> str:
        try:
            return self.target_of[token]
        except KeyError:
            raise UnknownConceptError(f"unknown signal token {token!r}") from None

    @cached_property
    def fibers(self) -> dict[str, tuple[str, ...]]:
        """Concept -> every token teaching it, in alphabet order; built once."""
        out: dict[str, list[str]] = {}
        for tok, concept in zip(self.tokens, self.targets):
            out.setdefault(concept, []).append(tok)
        return {concept: tuple(toks) for concept, toks in out.items()}

    def fiber(self, concept: str) -> tuple[str, ...]:
        """All tokens teaching ``concept``, in alphabet order."""
        return self.fibers.get(concept, ())


def parse(mind: Mind, system: SignalSystem, token: str, state: Iterable[str]) -> ParsedSignal:
    """The token itself when its concept is ordered at ``state``, else None."""
    return token if is_ordered(mind, state, system.concept_of(token)) else None


def ordered_signals(mind: Mind, system: SignalSystem, state: Iterable[str]) -> frozenset[str]:
    """The tokens whose target concept is ordered at ``state``."""
    mask = mind.space.mask(state)
    expanded = mind.expand_mask(mask)
    return frozenset(
        t for t, c in zip(system.tokens, system.targets) if expanded & mind.space.bit(c)
    )


def capacity_from_count(n_ordered: int, n_tokens: int) -> float:
    if n_ordered < n_tokens:
        return math.log2(n_ordered + 1)
    return math.log2(n_tokens)


def capacity(mind: Mind, system: SignalSystem, state: Iterable[str]) -> float:
    """Largest entropy, in bits, of a one-round parsed observation at ``state``.

    Equals ``log2(ordered + 1)`` when some token is unparseable (the null
    observation is then a live outcome) and ``log2(|alphabet|)`` when
    every token parses.
    """
    return capacity_from_count(
        len(ordered_signals(mind, system, state)), len(system.tokens)
    )


def max_capacity(mind: Mind, system: SignalSystem) -> float:
    """Largest per-state capacity across the mind's reachable family.

    Capacity is monotone in the state (a larger state only refines the
    experiment, see :func:`garbling_map`), so the maximum is read at the
    family's maximum, the understanding horizon.  The tests check this
    against a scan of every state of the family.
    """
    return capacity(mind, system, understanding_horizon(mind))


def garbling_map(
    mind: Mind,
    system: SignalSystem,
    state: Iterable[str],
    larger_state: Iterable[str],
) -> dict[ParsedSignal, ParsedSignal]:
    """The deterministic post-processing that degrades the larger state's view.

    Fixes every token ordered at ``state`` and sends everything else to
    the null observation; composing it after parsing at ``larger_state``
    reproduces parsing at ``state`` token by token.
    """
    small = frozenset(state)
    large = frozenset(larger_state)
    if not small <= large:
        raise ValueError("first state must be contained in the second")
    keep = ordered_signals(mind, system, small)
    out: dict[ParsedSignal, ParsedSignal] = {None: None}
    for tok in system.tokens:
        out[tok] = tok if tok in keep else None
    return out


@dataclass(frozen=True)
class ExperimentMatrix:
    """Conditional law of the parsed observation, one row per candidate target.

    Columns span the full parsed range (every token plus the null
    observation) so that garbling sums are always well defined.
    """

    targets: tuple[str, ...]
    outcomes: tuple[ParsedSignal, ...]
    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if len(self.rows) != len(self.targets):
            raise ValueError("one row per target required")
        for target, row in zip(self.targets, self.rows):
            if len(row) != len(self.outcomes):
                raise ValueError(f"row for {target!r} has wrong length")
            if any(p < -_ROW_SUM_TOL or p > 1 + _ROW_SUM_TOL for p in row):
                raise ValueError(f"row for {target!r} has entries outside [0, 1]")
            if abs(sum(row) - 1.0) > _ROW_SUM_TOL:
                raise ValueError(f"row for {target!r} sums to {sum(row)!r}, not 1")

    def prob(self, target: str, outcome: ParsedSignal) -> float:
        return self.rows[self.targets.index(target)][self.outcomes.index(outcome)]


def experiment_matrix(
    mind: Mind,
    system: SignalSystem,
    state: Iterable[str],
    raw_laws: Mapping[str, Mapping[str, float]],
    targets: Sequence[str] | None = None,
) -> ExperimentMatrix:
    """Push per-target raw-signal laws through the parser at ``state``.

    The state is expanded once, when the first token is parsed.
    """
    order = tuple(targets) if targets is not None else tuple(raw_laws)
    outcomes: tuple[ParsedSignal, ...] = tuple(system.tokens) + (None,)
    col = {y: i for i, y in enumerate(outcomes)}
    expanded = None
    rows: list[tuple[float, ...]] = []
    for target in order:
        row = [0.0] * len(outcomes)
        for token, p in raw_laws[target].items():
            concept = system.concept_of(token)
            if expanded is None:
                expanded = mind.expand_mask(mind.space.mask(state))
            row[col[token] if expanded & mind.space.bit(concept) else -1] += p
        rows.append(tuple(row))
    return ExperimentMatrix(order, outcomes, tuple(rows))


def check_blackwell(
    small: ExperimentMatrix,
    big: ExperimentMatrix,
    garbling: Mapping[ParsedSignal, ParsedSignal],
    *,
    tol: float = BLACKWELL_TOL,
) -> bool:
    """True iff garbling the richer experiment reproduces the poorer one.

    Checks, entry by entry, that each poorer-experiment probability equals
    the total richer-experiment probability of its garbling preimage.
    """
    if small.targets != big.targets:
        raise ValueError("experiments must share the target index")
    for missing in (y for y in big.outcomes if y not in garbling):
        raise ValueError(f"garbling map does not cover outcome {missing!r}")
    for si, _ in enumerate(small.targets):
        for yi, y in enumerate(small.outcomes):
            pushed = sum(
                big.rows[si][yj]
                for yj, y_big in enumerate(big.outcomes)
                if garbling[y_big] == y
            )
            if abs(small.rows[si][yi] - pushed) > tol:
                return False
    return True
