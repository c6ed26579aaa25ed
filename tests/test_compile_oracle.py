"""Differential tests: ``Mind._compiled``, which validates while it builds, against ``oracle.compiled``.

Random minds get faults injected: an unknown prerequisite, an unknown
target, an axiom outside the space, a degenerate rule, a duplicate rule,
or several at once.  A faulty mind must be rejected with exactly
:func:`validate_mind`'s summary; an accepted mind must compile to the
oracle's masks and index without :func:`validate_mind` being called.
"""

from __future__ import annotations

import dataclasses
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracle
from noesis import ExpansionRule, InvalidMindError, Mind, validate_mind

_FAULTS = ("unknown prereq", "unknown target", "stray axiom", "degenerate", "duplicate")


def _insert(rng: random.Random, rules: list, rule: ExpansionRule) -> None:
    rules.insert(rng.randint(0, len(rules)), rule)


def _with_fault(rng: random.Random, mind: Mind, fault: str) -> Mind:
    labels = list(mind.space.concepts)
    rules = list(mind.rules)
    axioms = set(mind.axioms)
    some = rng.sample(labels, rng.randint(0, min(2, len(labels))))
    if fault == "unknown prereq":
        _insert(rng, rules, ExpansionRule(frozenset(some + [f"x{rng.randint(0, 2)}"]), rng.choice(labels)))
    elif fault == "unknown target":
        _insert(rng, rules, ExpansionRule(frozenset(some), f"x{rng.randint(0, 2)}"))
    elif fault == "stray axiom":
        axioms.add(f"x{rng.randint(0, 2)}")
    elif fault == "degenerate":
        target = rng.choice(labels)
        _insert(rng, rules, ExpansionRule(frozenset(some + [target]), target))
    else:
        rule = rng.choice(rules) if rules else ExpansionRule(frozenset(some), rng.choice(labels))
        if not rules:
            _insert(rng, rules, rule)
        _insert(rng, rules, ExpansionRule(rule.prereqs, rule.target))
    return dataclasses.replace(mind, axioms=frozenset(axioms), rules=tuple(rules))


@given(st.randoms(use_true_random=False))
@settings(max_examples=400, deadline=None)
def test_faulty_minds_are_rejected_with_the_validation_summary(rng):
    mind = helpers.random_mind(rng, max_concepts=6, max_rules=12)
    faults = rng.sample(_FAULTS, rng.randint(1, 3)) if rng.random() < 0.4 else [rng.choice(_FAULTS)]
    for fault in faults:
        mind = _with_fault(rng, mind, fault)
    report = validate_mind(mind)
    assert not report.accepted
    want = f"mind rejected by validation: {report.summary()}"
    with pytest.raises(InvalidMindError) as exc:
        mind._compiled
    assert str(exc.value) == want
    with pytest.raises(InvalidMindError) as exc:
        oracle.compiled(mind)
    assert str(exc.value) == want


@given(st.randoms(use_true_random=False))
@settings(max_examples=400, deadline=None)
def test_accepted_minds_compile_as_the_oracle_without_validation(rng):
    mind = helpers.random_mind(rng, max_concepts=8, max_rules=16)
    want = oracle.compiled(mind)
    calls = []
    with mock.patch("noesis.mind.validate_mind", side_effect=lambda m: calls.append(m) or validate_mind(m)):
        got = mind._compiled
    assert got == want
    assert calls == []

