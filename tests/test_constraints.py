"""Constraint families: plan evaluation, pattern checks, partial checks."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import constraints_for
from wspsolve import AtLeast, AtMost, BindingOfDuty, Never, NotEquals
from wspsolve.pattern import Pattern, encode


def test_invalid_construction_rejected():
    with pytest.raises(ValueError):
        NotEquals(2, 2)
    with pytest.raises(ValueError):
        BindingOfDuty(0, 0)
    with pytest.raises(ValueError):
        AtMost(0, frozenset({0, 1}))
    with pytest.raises(ValueError):
        AtMost(3, frozenset({0, 1}))
    with pytest.raises(ValueError):
        AtLeast(1, frozenset({4}))
    with pytest.raises(ValueError):
        AtLeast(6, frozenset({0, 1, 2, 3, 4}))
    with pytest.raises(ValueError):
        Never(frozenset())


def test_scopes():
    assert NotEquals(3, 1).scope == {1, 3}
    assert BindingOfDuty(0, 2).scope == {0, 2}
    assert AtMost(3, frozenset({0, 1, 2, 3, 4})).scope == {0, 1, 2, 3, 4}


def test_satisfied_by_pairwise():
    plan = {0: 7, 1: 7, 2: 9}
    assert not NotEquals(0, 1).satisfied_by(plan)
    assert NotEquals(1, 2).satisfied_by(plan)
    assert BindingOfDuty(0, 1).satisfied_by(plan)
    assert not BindingOfDuty(1, 2).satisfied_by(plan)


def test_satisfied_by_counting():
    scope = frozenset(range(5))
    three_users = {0: 1, 1: 2, 2: 3, 3: 1, 4: 1}
    five_users = {0: 1, 1: 2, 2: 3, 3: 4, 4: 5}
    assert AtMost(3, scope).satisfied_by(three_users)
    assert not AtMost(3, scope).satisfied_by(five_users)
    assert AtLeast(3, scope).satisfied_by(three_users)
    assert not AtLeast(3, scope).satisfied_by({s: 0 for s in scope})


def test_check_complete_counting_examples():
    scope = frozenset(range(5))
    assert AtMost(3, scope).satisfied_by((1, 2, 3, 1, 1))
    assert not AtMost(3, scope).satisfied_by((1, 2, 3, 4, 5))
    assert AtLeast(3, scope).satisfied_by((1, 1, 2, 2, 3))
    assert not AtLeast(3, scope).satisfied_by((1, 1, 1, 1, 2))


def test_check_partial_not_equals():
    c = NotEquals(0, 1)
    assert c.check_partial((0, 0))  # nothing assigned yet
    assert c.check_partial((1, 0))  # one endpoint open
    assert c.check_partial((1, 2))
    assert not c.check_partial((2, 2))


def test_check_partial_at_most():
    c = AtMost(3, frozenset(range(5)))
    # Three distinct labels among four assigned steps: still repairable.
    assert c.check_partial((1, 2, 3, 1, 0))
    # Four distinct labels can never shrink back to three.
    assert not c.check_partial((1, 2, 3, 4, 0))


def test_check_partial_at_least():
    c = AtLeast(3, frozenset(range(5)))
    # Four steps on one user, one step open: at best 2 distinct users.
    assert not c.check_partial((1, 1, 1, 1, 0))
    # Two open steps could still bring in two fresh users.
    assert c.check_partial((1, 1, 1, 0, 0))
    assert c.check_partial((0, 0, 0, 0, 0))


def test_never_rejects_everything():
    c = Never(frozenset({0}), "test marker")
    assert not c.satisfied_by({0: 0, 1: 1})
    assert not c.satisfied_by((1, 2))
    assert not c.check_partial((0, 0))


def _complete_extensions(entries: list[int], k: int):
    """All complete patterns reachable from a partial one by extensions."""
    unassigned = [s for s in range(k) if entries[s] == 0]

    def walk(i: int, current: list[int]):
        if i == len(unassigned):
            yield tuple(current)
            return
        s = unassigned[i]
        top = max(current, default=0)
        for label in range(1, top + 2):
            current[s] = label
            yield from walk(i + 1, current)
        current[s] = 0

    yield from walk(0, list(entries))


@given(st.data())
def test_check_partial_sound_and_exact_when_scope_full(data):
    """Dead partial patterns really have no satisfying completion, and a
    fully assigned scope is decided exactly."""
    k = data.draw(st.integers(2, 5))
    c = data.draw(constraints_for(k).filter(lambda c: not isinstance(c, BindingOfDuty)))
    entries = [data.draw(st.integers(0, 3)) for _ in range(k)]
    entries = list(encode({s: x for s, x in enumerate(entries) if x}, k))
    partial_ok = c.check_partial(entries)
    completions = list(_complete_extensions(entries, k))
    any_satisfied = any(c.satisfied_by(p) for p in completions)
    if not partial_ok:
        assert not any_satisfied
    if all(entries[s] != 0 for s in c.scope):
        assert partial_ok == any(c.satisfied_by(p) for p in completions)
        # With the scope fully assigned the verdict is already final.
        assert partial_ok == all(c.satisfied_by(p) for p in completions)


@given(st.data())
def test_check_partial_monotone_under_extension(data):
    """Once dead, a pattern stays dead along any chain of extensions."""
    k = data.draw(st.integers(2, 5))
    c = data.draw(constraints_for(k).filter(lambda c: not isinstance(c, BindingOfDuty)))
    pat = Pattern(k, [1] * k)
    dead_seen = False
    order = data.draw(st.permutations(range(k)))
    for s in order:
        label = data.draw(st.integers(1, pat.max_label + 1))
        pat.extend(s, label)
        ok = c.check_partial(pat.entries)
        if dead_seen:
            assert not ok
        dead_seen = dead_seen or not ok
    assert c.check_partial(pat.entries) == c.satisfied_by(pat.entries)


@given(st.data())
def test_check_complete_agrees_with_plan_evaluation(data):
    """A plan and its pattern get the same satisfied_by verdict."""
    k = data.draw(st.integers(2, 5))
    c = data.draw(constraints_for(k))
    plan = {s: data.draw(st.integers(0, 4)) for s in range(k)}
    assert c.satisfied_by(plan) == c.satisfied_by(encode(plan, k))


@given(st.data())
def test_satisfaction_is_user_independent(data):
    """Renaming users never changes satisfaction."""
    k = data.draw(st.integers(2, 5))
    c = data.draw(constraints_for(k))
    plan = {s: data.draw(st.integers(0, 4)) for s in range(k)}
    perm = data.draw(st.permutations(range(5)))
    renamed = {s: perm[u] for s, u in plan.items()}
    assert c.satisfied_by(plan) == c.satisfied_by(renamed)


def test_check_partial_exhaustive_agreement_on_complete():
    """On complete patterns the partial check equals satisfied_by."""
    scope = frozenset(range(4))
    cs = [
        AtMost(2, scope),
        AtLeast(3, scope),
        NotEquals(0, 3),
    ]
    for labels in itertools.product(range(1, 5), repeat=4):
        for c in cs:
            assert c.check_partial(labels) == c.satisfied_by(labels)
