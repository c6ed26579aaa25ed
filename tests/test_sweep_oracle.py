"""Differential tests: the level-by-level knowledge-state sweep against the
queue-and-generator search it replaced.

Run to exhaustion, the sweep must find the same states with the same
parent pointers, in the same order.  Stopped by a wanted mask, it must
record the same first hit per wanted bit, and so give the same chains,
expanding the same states on the way.  The minds are random ones and
layered ones with alternative rules, like the benchmark's large lattice
minds.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracle
from noesis import Mind
from noesis.mind import iter_bits
from noesis.reachability import _breadth_first, _first_hit_chains


def _mind(rng: random.Random) -> Mind:
    if rng.random() < 0.5:
        return helpers.random_mind(rng, max_concepts=8)
    return helpers.layered_mind(rng, width=rng.randint(2, 4), depth=rng.randint(1, 4))


def _wanted(rng: random.Random, mind: Mind) -> int:
    """A random mask, often with an axiom bit and a bit outside the horizon in it."""
    wanted = sum(b for b in iter_bits(mind.space.full_mask) if rng.random() < 0.3)
    for pool in (mind.axiom_mask, mind.space.full_mask & ~mind.horizon_mask):
        bits = list(iter_bits(pool))
        if bits and rng.random() < 0.6:
            wanted |= rng.choice(bits)
    return wanted


class _Expansions:
    """Records each expansion as the state it expands, in full or grown from the parent's."""

    def __init__(self) -> None:
        self.calls: list[int] = []

    def __enter__(self) -> list[int]:
        self.saved = Mind.expand_mask, Mind.expand_add
        original_full, original_add = self.saved
        calls = self.calls

        def counted_full(mind, mask):
            calls.append(mask)
            return original_full(mind, mask)

        def counted_add(mind, expanded, mask, bit):
            calls.append(mask | bit)
            return original_add(mind, expanded, mask, bit)

        Mind.expand_mask, Mind.expand_add = counted_full, counted_add
        return calls

    def __exit__(self, *exc) -> None:
        Mind.expand_mask, Mind.expand_add = self.saved


@given(st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_exhaustive_sweep_matches_the_queue(rng):
    mind = _mind(rng)
    with _Expansions() as got_calls:
        parent, first = _breadth_first(mind)
    want: dict[int, int] = {}
    with _Expansions() as want_calls:
        for _ in oracle.breadth_first(mind, want):
            pass
    assert list(parent.items()) == list(want.items())
    assert first == {}
    assert got_calls == want_calls


@given(st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_first_hits_and_chains_match_the_queue(rng):
    mind = _mind(rng)
    for _ in range(3):
        wanted = _wanted(rng, mind)
        with _Expansions() as got_calls:
            _, first = _breadth_first(mind, wanted)
        with _Expansions() as want_calls:
            want_first, want_chains = oracle.first_hit_chains(mind, wanted)
        assert first == want_first
        assert set(first) == set(iter_bits(wanted & mind.horizon_mask))
        assert got_calls == want_calls
        assert _first_hit_chains(mind, wanted) == want_chains


def test_a_wanted_mask_of_axioms_expands_nothing():
    mind = helpers.layered_mind(random.Random(3))
    wanted = mind.axiom_mask
    with _Expansions() as calls:
        assert _first_hit_chains(mind, wanted) == {b: (wanted,) for b in iter_bits(wanted)}
    assert calls == []
