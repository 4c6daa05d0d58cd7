"""The backtracking solver: heuristics, prunes, verdicts, determinism."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import functools
import itertools
import operator
import os
import random
import signal
import threading
import time
import tracemalloc
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_no_child_process, bell_numbers, instances
from wspsolve import (
    SAT,
    TIMEOUT,
    UNSAT,
    AtLeast,
    AtMost,
    AuthorisationLists,
    BindingOfDuty,
    GeneratorConfig,
    Never,
    NotEquals,
    SearchState,
    Valid,
    WorkflowInstance,
    canonicalize,
    density_to_e,
    encode,
    generate,
    oracle_solve,
    preprocess,
    solve,
    solve_enumerating,
    validate_plan,
)
from wspsolve import solver
from wspsolve.solver import TIMEOUT_CHECK_INTERVAL


def make_instance(k, n, step_users, constraints=()):
    return WorkflowInstance(
        k,
        n,
        AuthorisationLists.from_step_users(n, [frozenset(s) for s in step_users]),
        tuple(constraints),
    )


def full_auth(k, n, constraints=()):
    return make_instance(k, n, [range(n)] * k, constraints)


# --- golden example ---------------------------------------------------------


def test_solve_golden(golden_instance):
    pre = preprocess(golden_instance)
    out = solve(pre.instance)
    assert out.status == SAT and out.is_sat
    expanded = pre.expand_plan(out.plan)
    assert validate_plan(golden_instance, expanded) == Valid()
    assert out.stats.nodes >= 1
    assert out.stats.matchings_full == 1
    assert out.stats.wall_time > 0


def test_solver_requires_preprocessing(golden_instance):
    with pytest.raises(ValueError):
        solve(golden_instance)  # still has a binding-of-duty pair


# --- step selection heuristic -----------------------------------------------


def test_rho_counts_not_equals():
    inst = full_auth(3, 3, [NotEquals(0, 1), NotEquals(0, 2)])
    state = SearchState(inst)
    assert state.score[0] == 2
    assert state.score[1] == 1
    assert state.score[2] == 1
    assert state.select_step() == 0


def test_rho_weights_at_most_by_remaining_budget():
    inst = full_auth(6, 6, [AtMost(3, frozenset({0, 1, 2, 3, 4}))])
    state = SearchState(inst)
    # Nothing assigned: three distinct users still allowed, no pressure.
    assert state.score[0] == 0
    state.extend(0, 1)
    # One distinct label, two left in the budget.
    assert state.score[1] == 1.0
    state.extend(1, 2)
    # Two distinct, one left.
    assert state.score[2] == 2.0
    state.extend(2, 3)
    # Budget exhausted: remaining scope steps must reuse labels.
    assert state.score[3] == state.score[4] == 100.0
    assert state.score[5] == 0  # outside the scope
    assert state.select_step() == 3  # ties break to the lowest index
    state.retract()
    assert state.score[3] == 2.0
    state.retract()
    state.retract()
    assert state.score[3] == 0


def test_rho_reusing_labels_adds_no_pressure():
    inst = full_auth(5, 5, [AtMost(2, frozenset({0, 1, 2, 3}))])
    state = SearchState(inst)
    state.extend(0, 1)
    state.extend(1, 1)  # same block: still one distinct user
    assert state.score[2] == 2.0
    state.extend(2, 1)
    assert state.score[3] == 2.0


def test_at_least_contributes_no_selection_pressure():
    inst = full_auth(5, 5, [AtLeast(3, frozenset({0, 1, 2, 3, 4}))])
    state = SearchState(inst)
    state.extend(0, 1)
    state.extend(1, 2)
    assert all(state.score[s] == 0 for s in range(2, 5))


def test_select_step_requires_unassigned():
    state = SearchState(full_auth(2, 2))
    state.extend(0, 1)
    state.extend(1, 1)
    with pytest.raises(ValueError, match="pattern is complete"):
        state.select_step()
    state.weight = None  # the static order has a branch of its own
    with pytest.raises(ValueError, match="pattern is complete"):
        state.select_step()


def test_search_state_rejects_a_step_out_of_range():
    # Step -1 would index step k-1 and step k past the end; both are
    # refused before the pattern or a counter changes.
    inst = full_auth(3, 3, [NotEquals(0, 2), AtMost(1, frozenset({1, 2}))])
    state = SearchState(inst)
    before = (list(state.entries), state.domain, state.ct_room, state.score)
    for step in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            state.extend(step, 1)
    assert (state.entries, state.domain, state.ct_room, state.score) == before


def test_search_state_retract_on_an_empty_trail_is_a_value_error():
    state = SearchState(full_auth(2, 2, [NotEquals(0, 1)]))
    with pytest.raises(ValueError, match="nothing to retract"):
        state.retract()
    state.extend(0, 1)
    state.retract()
    with pytest.raises(ValueError, match="nothing to retract"):
        state.retract()
    state.extend(1, 1)  # the state is still usable
    assert state.entries == [0, 1] and state.domain[0] == -2 ^ 2


def test_select_step_divides_by_the_labels_left():
    # Each step starts weighted by its not-equals and counting constraints.
    inst = full_auth(4, 4, [NotEquals(0, 1), NotEquals(0, 2), AtMost(1, frozenset({2, 3}))])
    state = SearchState(inst)
    assert state.start_weight == (2, 1, 2, 1) and state.weight == [2, 1, 2, 1]
    # Scores 2, 1, 3, 2: step 2 has the largest score plus weight.
    assert state.select_step() == 2
    # Step 1 takes label 1, which step 0 loses: 4 / 1 beats step 2's 5 / 2.
    state.extend(1, 1)
    assert state.select_step() == 0
    state.weight[2] = 5  # 8 / 2 ties 4 / 1 and loses to the lower index
    assert state.select_step() == 0
    state.weight[2] = 6
    assert state.select_step() == 2


def test_a_step_with_no_label_left_is_selected_without_dividing_by_zero():
    # Step 0 spends the at-most scope's one label, which its not-equals
    # neighbour 2 may not take: step 2's domain is empty, and without
    # prunes no forward check cuts the branch before the next selection.
    inst = full_auth(3, 3, [AtMost(1, frozenset({0, 1, 2})), NotEquals(0, 2)])
    state = SearchState(inst)
    assert state.select_step() == 0
    state.extend(0, 1)
    assert state.domain[2] == 0
    assert state.select_step() == 2
    out = solve(inst, prune=False)
    assert out.status == UNSAT == oracle_solve(inst).status


def test_cause_of_a_cut_is_a_not_equals_neighbour():
    state = SearchState(full_auth(3, 3, [NotEquals(0, 1), AtMost(1, frozenset({1, 2}))]))
    state.extend(0, 1)
    assert state.cause(1, 1) == (1, 0)
    assert state.cause(1, 2) is None
    assert not state.extension_eligible(1, 1)


def test_cause_of_a_cut_is_a_full_at_most_scope_offered_a_fresh_label():
    state = SearchState(full_auth(4, 4, [AtMost(2, frozenset({0, 1, 2}))]))
    state.extend(0, 1)
    state.extend(1, 2)
    assert state.ct_room == [0]
    assert state.cause(2, 3) == (0, 1, 2)
    assert state.cause(2, 2) is None
    assert state.cause(3, 3) is None  # outside the scope
    assert not state.extension_eligible(2, 3)


def test_cause_of_a_cut_is_a_full_at_least_scope_offered_a_reused_label():
    state = SearchState(full_auth(3, 3, [AtLeast(2, frozenset({0, 1}))]))
    state.extend(0, 1)
    assert state.ct_room == [0]
    assert state.cause(1, 1) == (0, 1)
    assert state.cause(1, 2) is None
    assert not state.extension_eligible(1, 1)


def test_cause_of_a_generic_constraints_cut_is_none():
    state = SearchState(full_auth(2, 2, [Never(frozenset({1}), "test marker")]))
    state.extend(0, 1)
    assert not state.extension_eligible(1, 1)
    assert state.cause(1, 1) is None


# --- extension eligibility (peek) vs the constraint API ----------------------


def assert_eligibility_matches(state, inst, step):
    for label in range(1, state.max_label + 2):
        probe = list(state.entries)
        probe[step] = label
        expect = all(
            c.check_partial(probe) for c in inst.constraints if step in c.scope
        )
        assert state.extension_eligible(step, label) == expect, (step, label)


# Each op: (step pick, label pick, child step pick, retract instead).
_OPS = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 5), st.integers(0, 4), st.booleans()),
    max_size=12,
)


@given(instances(max_steps=5, max_users=5, allow_bod=False), _OPS)
# Steps 0 and 1 take two labels, so the at-most scope is already over its
# budget of one: step 2 may then take no label at all.
@example(
    full_auth(3, 3, [AtMost(1, frozenset({0, 1, 2}))]),
    [(0, 0, 0, False), (0, 1, 0, False), (0, 0, 0, False)],
)
# Steps 0 and 1 share a label, which uses up the at-least scope's room:
# step 2 must then take a label the scope does not use yet.
@example(
    full_auth(3, 3, [AtLeast(2, frozenset({0, 1, 2}))]),
    [(0, 0, 0, False), (0, 0, 0, False), (0, 0, 0, False)],
)
# The same reuse leaves an at-least bound of three short: step 2 may then
# take no label at all.
@example(
    full_auth(3, 3, [AtLeast(3, frozenset({0, 1, 2}))]),
    [(0, 0, 0, False), (0, 0, 0, False), (0, 0, 0, False)],
)
# Step 0 brings a fresh label into an at-least scope with no room to
# reuse one, and step 1 another: the room stays at 0 while the domain of
# step 2 loses each label in turn.
@example(
    full_auth(4, 3, [AtLeast(3, frozenset({0, 1, 2}))]),
    [(0, 0, 0, False), (0, 1, 0, False), (0, 0, 0, False)],
)
@settings(max_examples=80)
def test_extension_eligible_matches_constraint_checks(inst, ops):
    state = SearchState(inst)
    k = inst.step_count
    for pick, lab, child_pick, back in ops:
        unassigned = [s for s in range(k) if state.entries[s] == 0]
        if back or not unassigned:
            if state.entries.count(0) < k:
                state.retract()
            continue
        for s in unassigned:
            assert_eligibility_matches(state, inst, s)
        step = unassigned[pick % len(unassigned)]
        rest = [s for s in unassigned if s != step]
        if rest:
            # Ask one child step under every label of ``step`` in turn, so
            # an answer kept from a sibling subtree shows up as a mismatch,
            # then ask ``step`` again after the child's extend/retract.
            child = rest[child_pick % len(rest)]
            for label in range(1, state.max_label + 2):
                state.extend(step, label)
                assert_eligibility_matches(state, inst, child)
                state.retract()
            assert_eligibility_matches(state, inst, step)
        state.extend(step, 1 + lab % (state.max_label + 1))


@given(instances(max_steps=5, max_users=5, allow_bod=False), st.data())
@settings(max_examples=60)
def test_search_state_counters_survive_retract(inst, data):
    state = SearchState(inst)

    def snapshot():
        return (
            list(state.ct_labels),
            list(state.ct_room),
            list(state.score),
            list(state.domain),
            list(state.entries),
            list(state.block_masks),
            state.max_label,
        )

    baseline = snapshot()
    k = inst.step_count
    depth = 0
    for _ in range(data.draw(st.integers(0, 2 * k))):
        unassigned = [s for s in range(k) if state.entries[s] == 0]
        if unassigned and (depth == 0 or data.draw(st.booleans())):
            step = data.draw(st.sampled_from(unassigned))
            state.extend(step, data.draw(st.integers(1, state.max_label + 1)))
            depth += 1
        elif depth:
            state.retract()
            depth -= 1
    for _ in range(depth):
        state.retract()
    assert snapshot() == baseline


# Each op: (step pick, label pick, retract instead).
_WALK = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 5), st.booleans()), max_size=14)


@given(instances(max_steps=5, max_users=5, allow_bod=False), _WALK)
# Steps 0 and 4 lie in no counting scope and step 3 only in the at-least
# one: a list shared with the trail must come back as it was left.
@example(
    full_auth(
        5,
        3,
        [AtMost(1, frozenset({1, 2})), AtLeast(2, frozenset({1, 3})), NotEquals(0, 2)],
    ),
    [(0, 0, False), (2, 0, False), (0, 0, True), (0, 1, False), (3, 0, False),
     (2, 0, False), (0, 0, True), (0, 0, True), (2, 1, False), (0, 0, True)],
)
@settings(max_examples=80)
def test_search_state_depends_only_on_the_surviving_extensions(inst, walk):
    state = SearchState(inst)
    k = inst.step_count
    path = []
    for pick, lab, back in walk:
        unassigned = [s for s in range(k) if state.entries[s] == 0]
        if unassigned and not (back and path):
            step = unassigned[pick % len(unassigned)]
            label = 1 + lab % (state.max_label + 1)
            state.extend(step, label)
            path.append((step, label))
        elif path:
            state.retract()
            path.pop()
        replay = SearchState(inst)
        for step, label in path:
            replay.extend(step, label)
        for name in ("score", "domain", "ct_labels", "ct_room"):
            assert getattr(state, name) == getattr(replay, name), (name, path)


# --- whole-instance shortcuts -----------------------------------------------


def test_unstaffable_step_is_unsat_without_search():
    inst = make_instance(3, 3, [{0, 1}, set(), {2}])
    out = solve(inst)
    assert out.status == UNSAT
    assert out.plan is None
    assert out.stats.nodes == 0


def test_contradiction_marker_is_unsat_without_search():
    inst = full_auth(2, 2, [Never(frozenset({0}), "test marker")])
    out = solve(inst)
    assert out.status == UNSAT
    assert out.stats.nodes == 0


# --- verdicts against the oracle ---------------------------------------------


@given(instances(max_steps=5, max_users=6))
@settings(max_examples=100)
def test_solve_agrees_with_oracle(inst):
    pre = preprocess(inst)
    out = solve(pre.instance)
    ref = oracle_solve(inst)
    assert out.status == ref.status
    if out.is_sat:
        expanded = pre.expand_plan(out.plan)
        assert validate_plan(inst, expanded) == Valid()


@given(instances(max_steps=5, max_users=6, allow_bod=False))
@settings(max_examples=80)
def test_enumeration_finds_exactly_the_oracle_patterns(inst):
    ref = oracle_solve(inst)
    out = solve_enumerating(inst)
    assert not out.timed_out
    assert len(out.patterns) == len(set(out.patterns))  # no duplicates
    assert set(out.patterns) == set(ref.valid_patterns)
    for pat, plan in zip(out.patterns, out.plans):
        assert encode(plan, inst.step_count) == pat
        assert validate_plan(inst, plan) == Valid()


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8, 10])
def test_unconstrained_enumeration_reaches_every_partition(k):
    out = solve_enumerating(full_auth(k, k))
    assert out.count == bell_numbers(k)[-1]
    assert out.stats.nodes <= 2 * out.count
    assert out.stats.matchings == out.count
    assert len(set(out.patterns)) == out.count
    # Complete and canonical: first step is block 1, labels never jump.
    assert all(0 not in p and canonicalize(p) == p for p in out.patterns)
    if k <= 6:
        # Unpruned, every leaf is decided by the constraints and a
        # matching from scratch, and reaches the same partitions.
        assert set(solve_enumerating(full_auth(k, k), prune=False).patterns) == set(out.patterns)
    if k == 5:
        # Exactly the encodings of all k-user plans.
        from_plans = {
            encode(dict(enumerate(combo)), k)
            for combo in itertools.product(range(k), repeat=k)
        }
        assert set(out.patterns) == from_plans


# --- pruning is verdict-preserving -------------------------------------------


@given(instances(max_steps=5, max_users=6, allow_bod=False))
@example(full_auth(3, 3, [NotEquals(0, 1)]))
# Fewer users than steps, so the held block/user matching cuts branches:
# a third block finds no user left.
@example(full_auth(4, 2, [NotEquals(0, 1)]))
# Step 1 opens a block whose only user block 1 holds; an augmenting path
# moves block 1 to user 1.  Step 2 then shows the cut of a failing path.
@example(make_instance(3, 2, [{0, 1}, {0}, {1}], [NotEquals(0, 1)]))
# Step 1 joins block 1 without its user, so the block gives user 0 back
# for user 1, and a fresh block for step 2 can then take user 0.
@example(make_instance(3, 2, [{0, 1}, {1}, {0, 1}]))
# Steps 0 and 1 must differ but share their only user: unsat.
@example(make_instance(4, 3, [{0}, {0}, {1, 2}, {1, 2}], [NotEquals(0, 1)]))
# Five steps need four distinct users out of three.
@example(full_auth(5, 3, [AtLeast(4, frozenset(range(5)))]))
@settings(max_examples=60)
def test_disabling_prunes_changes_nothing_but_work(inst):
    gated = solve(inst)
    ungated = solve(inst, prune=False)
    assert gated.status == ungated.status
    assert ungated.stats.nodes >= gated.stats.nodes
    assert ungated.stats.prunes == 0
    # Every leaf the pruned search reaches has a covering matching.
    assert gated.stats.matchings_full == gated.stats.matchings
    if gated.is_sat:
        assert validate_plan(inst, gated.plan) == Valid()
        assert validate_plan(inst, ungated.plan) == Valid()
    both = solve_enumerating(inst), solve_enumerating(inst, prune=False)
    assert set(both[0].patterns) == set(both[1].patterns)
    assert both[0].stats.matchings_full == both[0].stats.matchings
    assert both[1].stats.prunes == 0
    for plan in [*both[0].plans, *both[1].plans]:
        assert validate_plan(inst, plan) == Valid()


def test_matching_prune_decides_one_user_instance_at_once():
    # One user, so only the single-block pattern is realisable, but a
    # not-equals pair forbids it: the second block finds no user.
    out = solve(full_auth(14, 1, [NotEquals(0, 1)]))
    assert out.status == UNSAT
    assert out.stats.matching_prunes >= 1
    assert out.stats.nodes <= 4


# --- forward checking ----------------------------------------------------------


def test_forward_check_cuts_a_starved_step():
    # Step 0 spends the scope's one label; step 1 may then take only that
    # label, which its not-equals pair forbids.
    out = solve(full_auth(3, 3, [AtMost(1, frozenset({0, 1, 2})), NotEquals(0, 1)]))
    assert out.status == UNSAT
    assert out.stats.forward_prunes >= 1


def test_domains_narrow_only_where_an_extension_can_starve():
    state = SearchState(
        full_auth(5, 3, [NotEquals(0, 1), NotEquals(1, 2), AtMost(1, frozenset({2, 3}))])
    )
    every = -2  # every label from 1 up
    assert state.domain == [every] * 5
    # Step 0's neighbour 1 lies in no at-most scope: it loses label 1 but
    # keeps the fresh label, so it is not starved.
    state.extend(0, 1)
    assert state.domain == [every, every & ~0b10, every, every, every]
    assert state.starved(0) is None
    # Step 4 touches no constraint, so no domain narrows.
    state.extend(4, 2)
    assert state.domain == [every, every & ~0b10, every, every, every]
    assert state.starved(4) is None
    state.retract()
    # Step 3 spends the at-most scope's one label: step 2 may only join
    # its block, which still has users.
    state.extend(3, 2)
    assert state.domain == [every, every & ~0b10, 0b100, every, every]
    assert state.starved(3) is None
    # Step 1 takes that label, so its neighbour 2 has none left.
    state.extend(1, 2)
    assert state.domain == [every, every & ~0b10, 0, every, every]
    assert state.starved(1) == 2
    state.retract()
    state.retract()
    # Step 2 spends the scope's label the other way round: step 3 may
    # only join its block, and the neighbour 1 loses label 2 as well.
    state.extend(2, 2)
    assert state.domain == [every, every & ~0b110, every, 0b100, every]
    assert state.starved(2) is None
    state.retract()
    state.retract()
    assert state.domain == [every] * 5


def test_forward_check_sees_an_at_least_scope_starve_a_step():
    # Step 2 spends the at-most scope's one label, so step 1 may only join
    # block 1.  Step 0 lies in no at-most scope; it takes label 1 into the
    # at-least scope, which has no room to reuse it, so step 1 has no
    # label left.
    state = SearchState(
        full_auth(3, 3, [AtMost(1, frozenset({1, 2})), AtLeast(2, frozenset({0, 1}))])
    )
    state.extend(2, 1)
    assert state.domain[1] == 0b10
    state.extend(0, 1)
    assert state.domain[1] == 0
    assert state.starved(0) == 1


def test_forward_check_sees_a_block_narrow_under_a_full_scope():
    # Step 0 spends the at-most scope's one label; step 1 joins its block,
    # which narrows no domain but keeps only user 0, while step 2's one
    # user is 1.
    state = SearchState(
        make_instance(3, 2, [{0, 1}, {0}, {1}], [AtMost(1, frozenset({0, 1, 2}))])
    )
    state.extend(0, 1)
    assert state.starved(0) is None
    state.extend(1, 1)
    assert state.domain[2] == 0b10
    assert state.starved(1) == 2


def test_forward_check_reads_the_narrowing_of_the_current_node():
    # Step 0 spends the at-most scope's one label, so step 1 may only join
    # block 1.  Step 2, in no scope, joins it and leaves it user 0 alone,
    # whom step 1 may not have; step 2 narrowed no domain, so its check
    # does not look at step 1.  Step 3 takes label 1 from its not-equals
    # neighbour 1, whose check does.  Once step 3 is retracted, the check
    # of step 2 must again see only what step 2 narrowed.
    state = SearchState(
        make_instance(
            4,
            2,
            [{0, 1}, {1}, {0}, {0, 1}],
            [AtMost(1, frozenset({0, 1})), NotEquals(1, 3)],
        )
    )
    state.extend(0, 1)
    state.extend(2, 1)
    assert state.starved(2) is None
    state.extend(3, 1)
    assert state.starved(3) == 1
    state.retract()
    assert state.starved(2) is None


@st.composite
def saturated_instances(draw):
    """Instances whose counting scopes fill up: at-most r of 1 or 2 over 2
    to 4 steps, and at-least scopes with room for at most one reuse."""
    k = draw(st.integers(2, 6))
    n = draw(st.integers(2, 6))
    steps = st.integers(0, k - 1)
    step_users = [draw(st.frozensets(st.integers(0, n - 1), min_size=1)) for _ in range(k)]
    constraints = []
    for _ in range(draw(st.integers(1, 3))):
        scope = draw(st.frozensets(steps, min_size=2, max_size=4))
        constraints.append(AtMost(draw(st.integers(1, 2)), scope))
    for _ in range(draw(st.integers(0, 2))):
        scope = draw(st.frozensets(steps, min_size=2, max_size=4))
        constraints.append(AtLeast(draw(st.integers(len(scope) - 1, len(scope))), scope))
    for _ in range(draw(st.integers(0, 4))):
        s, t = draw(st.lists(steps, min_size=2, max_size=2, unique=True))
        constraints.append(draw(st.sampled_from([NotEquals, BindingOfDuty]))(s, t))
    return make_instance(k, n, step_users, constraints)


@given(saturated_instances())
@example(full_auth(3, 3, [AtMost(1, frozenset({0, 1, 2})), NotEquals(0, 1)]))
# Step 0 spends the scope's one label, and step 1 joins its block, which
# keeps only user 0: step 2, whose one user is 1, has no label left.
@example(make_instance(3, 2, [{0, 1}, {0}, {1}], [AtMost(1, frozenset({0, 1, 2}))]))
# Step 0 goes first and takes label 1; its neighbour 1 lies in a scope
# with room left, so it keeps the fresh label and is not starved.
@example(full_auth(3, 2, [NotEquals(0, 1), NotEquals(0, 2), AtMost(2, frozenset({1, 2}))]))
# Step 0 takes label 1 into an at-least scope with no room for a reuse.
# Once step 3 opens block 2 both at-most scopes are full, so steps 1 and 2
# may take only label 2.  Step 1 taking it starves step 2 through the
# at-least scope, though step 2 lies in none of step 1's at-most scopes.
@example(
    full_auth(
        4,
        3,
        [
            AtMost(2, frozenset({0, 2, 3})),
            AtMost(2, frozenset({0, 1, 3})),
            AtLeast(3, frozenset({0, 1, 2})),
        ],
    )
)
@settings(max_examples=150)
def test_forward_check_changes_nothing_but_work(inst):
    pre = preprocess(inst)
    checked = solve_enumerating(pre.instance)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SearchState, "starved", lambda self, step: None)
        unchecked = solve_enumerating(pre.instance)
    ungated = solve_enumerating(pre.instance, prune=False)
    assert set(checked.patterns) == set(unchecked.patterns) == set(ungated.patterns)
    assert unchecked.stats.forward_prunes == 0
    assert checked.stats.nodes <= unchecked.stats.nodes
    for plan in checked.plans:
        assert validate_plan(inst, pre.expand_plan(plan)) == Valid()


def test_enumerated_plans_are_a_sequence_of_fresh_dicts():
    k = 6
    inst = generate(GeneratorConfig(k, density_to_e(k, 20), 0, 0, users=6))
    out = solve_enumerating(inst)
    plans = out.plans
    listed = list(plans)
    n = out.count
    assert isinstance(plans, Sequence)
    assert n > 2 and len(plans) == len(listed) == n
    # The first witness is the one solve returns from the same search.
    assert plans[0] == solve(inst).plan
    for i, plan in enumerate(listed):
        assert type(plan) is dict and list(plan) == list(range(k))
        assert plans[i] == plans[i - n] == plan
        assert encode(plan, k) == out.patterns[i]
        assert validate_plan(inst, plan) == Valid()
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            plans[index]
    for index in (slice(1, 3), slice(None, None, -1), slice(-2, None)):
        got = plans[index]
        assert type(got) is list and got == listed[index]
        assert all(type(plan) is dict for plan in got)
        assert got[0] is not plans[index][0]
    # Each access builds a new dict, so editing one leaves the view as it was.
    plans[0][0] = -1
    assert plans[0] == listed[0]
    plans[-2:][0][0] = -1
    assert plans[-2:] == listed[-2:]


@pytest.mark.parametrize("split", [False, True], ids=["default", "split"])
def test_enumeration_retains_little_per_pattern(split):
    # 7,491 patterns; one dict witness each kept about 490 bytes per pattern.
    # Split, nothing of the helper's transfer or the merge stays behind.
    inst = generate(GeneratorConfig(10, density_to_e(10, 20), 0, 0, users=24))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with forced_split(4) if split else contextlib.nullcontext():
            out = solve_enumerating(inst)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.count == 7491
    assert retained <= 300 * out.count
    if split:
        assert out.stats.processes == 2


# --- determinism -------------------------------------------------------------


def test_repeat_solves_are_identical():
    inst = preprocess(generate(GeneratorConfig(10, 9, 3, seed=5))).instance
    a = solve(inst)
    b = solve(inst)
    assert a.status == b.status
    assert a.plan == b.plan
    assert (a.stats.nodes, a.stats.matchings, a.stats.prunes) == (
        b.stats.nodes,
        b.stats.matchings,
        b.stats.prunes,
    )


def test_the_search_does_not_depend_on_the_order_of_the_constraints():
    # A cut names its cause, and the forward check its starved step, in
    # step and scope order: a file's constraint lines, reordered, and its
    # not-equals pairs, turned round, give the same walk.
    inst = preprocess(generate(GeneratorConfig(24, density_to_e(24, 10), 28, 1))).instance
    want = solve(inst)
    for seed in range(3):
        rng = random.Random(seed)
        constraints = [
            NotEquals(c.t, c.s) if isinstance(c, NotEquals) and rng.random() < 0.5 else c
            for c in inst.constraints
        ]
        rng.shuffle(constraints)
        got = solve(WorkflowInstance(inst.step_count, inst.user_count, inst.auth, tuple(constraints)))
        assert (got.status, search_counters(got)) == (want.status, search_counters(want))


@pytest.mark.parametrize(
    "counting, expected",
    [
        (30, (SAT, 1482, 1055, 2756, 491, 0, 1)),
        (36, (SAT, 2253, 1504, 4679, 655, 2, 1)),
        (42, (UNSAT, 13470, 5973, 29160, 3932, 1, 0)),
    ],
)
def test_paper_k30_search_counters_are_pinned(counting, expected):
    # A change meant only to speed the search up must leave the search
    # itself alone: every node, every prune and every leaf matching.
    inst = preprocess(generate(GeneratorConfig(30, density_to_e(30, 10), counting, 0)))
    out = solve(inst.instance, 60)
    s = out.stats
    assert (
        out.status,
        s.nodes,
        s.auth_prunes,
        s.eligibility_prunes,
        s.forward_prunes,
        s.matching_prunes,
        s.matchings,
    ) == expected


@pytest.mark.parametrize(
    "seed, expected",
    [
        (2, (5989, 11069, 20879, 8246, 0, 5090, 5989, 5989)),
        (6, (0, 78, 300, 97, 0, 73, 0, 0)),
    ],
)
def test_scarce_users_enumeration_counters_are_pinned(seed, expected):
    # Nine users for 16 steps: thousands of extensions re-match a block
    # by an augmenting path or are cut for want of one, and the walk
    # backtracks across every re-matched block, so a wrong restore of
    # the held matching moves some count here.
    config = GeneratorConfig(16, density_to_e(16, 40), 0, seed, users=9)
    out = solve_enumerating(preprocess(generate(config)).instance, 60)
    s = out.stats
    assert (
        out.count,
        s.nodes,
        s.auth_prunes,
        s.eligibility_prunes,
        s.forward_prunes,
        s.matching_prunes,
        s.matchings,
        s.matchings_full,
    ) == expected


@pytest.mark.parametrize(
    "k, prune, count, digest",
    [
        (10, True, 7491, "f0d2cf555325f075d0d65a1cda6df84cd2df55fd1b188fd1723a24d064d43b3f"),
        (8, False, 663, "fa0811602849823c4671060fffa60e493e8f9062ec37376ba0d8bd35ca879b8e"),
    ],
)
def test_enumeration_output_is_pinned(k, prune, count, digest):
    # Pattern order and witnesses byte for byte: a change to how the
    # leaves are decided must not move either, pruned or not.
    config = GeneratorConfig(k, density_to_e(k, 20), 0, 0, users=24)
    out = solve_enumerating(preprocess(generate(config)).instance, 60, prune=prune)
    assert out.count == count
    text = repr((out.patterns, list(out.plans)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# --- timeouts ----------------------------------------------------------------


def hard_unsat_instance(k: int) -> WorkflowInstance:
    # Seven users, but the steps must use at least eight of them.  The
    # eligibility prune forces fresh blocks only once the scope's room is
    # spent and the matching prune cuts only the eighth block, so the
    # search still walks the many patterns of at most seven blocks.
    return full_auth(k, 7, [AtLeast(8, frozenset(range(k)))])


def test_zero_time_limit_times_out_immediately():
    out = solve(full_auth(3, 3), time_limit=0)
    assert out.status == TIMEOUT
    assert out.plan is None
    assert out.stats.nodes == 0
    enum = solve_enumerating(full_auth(3, 3), time_limit=0)
    assert enum.timed_out and enum.count == 0


def test_nan_time_limit_is_rejected():
    with pytest.raises(ValueError):
        solve(full_auth(3, 3), time_limit=float("nan"))
    with pytest.raises(ValueError):
        solve_enumerating(full_auth(3, 3), time_limit=float("nan"))


def test_deadline_interrupts_search():
    out = solve(hard_unsat_instance(14), time_limit=0.05)
    assert out.status == TIMEOUT
    assert out.plan is None
    assert out.stats.wall_time < 5
    # The deadline is read on the nodes numbered 1 mod the interval, and
    # the stats count every node up to the one that noticed it.
    assert out.stats.nodes % TIMEOUT_CHECK_INTERVAL == 1
    enum = solve_enumerating(hard_unsat_instance(14), time_limit=0.05)
    assert enum.timed_out
    assert enum.count == 0
    assert enum.stats.wall_time < 5
    assert enum.stats.nodes % TIMEOUT_CHECK_INTERVAL == 1


@pytest.mark.parametrize("k", [1100, 3000])
def test_deep_search_needs_no_recursion(k):
    # One user for every step: the search walks straight down to the
    # single-block pattern, one node per depth.
    out = solve(full_auth(k, 1))
    assert out.status == SAT
    assert out.stats.nodes == k + 1
    assert out.plan == dict.fromkeys(range(k), 0)


def test_generous_deadline_does_not_interfere(golden_instance):
    pre = preprocess(golden_instance)
    out = solve(pre.instance, time_limit=60)
    assert out.status == SAT


# --- stats -------------------------------------------------------------------


def test_stats_accounting(golden_instance):
    out = solve(preprocess(golden_instance).instance)
    s = out.stats
    assert s.prunes == (
        s.auth_prunes + s.eligibility_prunes + s.forward_prunes + s.matching_prunes
    )
    assert 0 <= s.matchings_full <= s.matchings
    assert s.matchings <= s.nodes


def test_unsat_instance_reports_no_plan():
    # Two steps must differ but only one user exists.
    out = solve(full_auth(2, 1, [NotEquals(0, 1)]))
    assert out.status == UNSAT
    assert out.plan is None
    assert out.stats.matchings_full == 0


# --- the split search ----------------------------------------------------------

#: Generator instances (k, c, seed; d=10) whose searches run past the
#: first deadline check, so that a split forced at 0 s happens: sat and
#: unsat, each with at-most scopes, of 1,400 to 10,000 nodes at every
#: task depth.
SPLIT_CASES = [
    (20, 28, 1),
    (20, 30, 1),
    (22, 26, 3),
    (24, 32, 3),
    (22, 30, 3),
    (24, 28, 1),
    (24, 30, 2),
    (24, 33, 0),
]


def split_case(k, c, seed):
    return preprocess(generate(GeneratorConfig(k, density_to_e(k, 10), c, seed))).instance


def search_counters(out):
    return tuple(getattr(out.stats, name) for name in solver.COUNTERS)


def one_process(instance, depth, **kwargs):
    """The search in one process, its weights reset down to ``depth``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_may_fork", lambda: False)
        mp.setattr(solver, "SPLIT_DEPTH", depth)
        return solve(instance, **kwargs)


@contextlib.contextmanager
def forced_split(depth):
    """Split at the first deadline check, over tasks at ``depth``, which
    is also where a decision's walk resets its weights."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_may_fork", lambda: True)
        mp.setattr(solver, "SPLIT_AFTER", 0.0)
        mp.setattr(solver, "SPLIT_DEPTH", depth)
        mp.setattr(solver, "ENUM_SPLIT_DEPTH", depth)
        yield mp


def parity_claim(split):
    """A fixed schedule for ``_Split.claim``: of the tasks after the fork's,
    the helper holds every other one, from the next on."""
    t = max(split.task - 1, split.first + 1)
    if (t - split.first) & 1 != split.side:
        t += 1
    return t, t


def record_own_runs(mp, record):
    """Wrap ``_Split.end_run`` to call ``record(pattern, users)`` for each
    pattern of this process's (side 0's) runs as the run ends."""
    end_run = solver._Split.end_run

    def recording(split, counts):
        if split.side == 0:
            k, witnesses = split.instance.step_count, split.witnesses
            for i, pattern in enumerate(split.patterns):
                record(pattern, list(witnesses[i * k : i * k + k]))
        end_run(split, counts)

    mp.setattr(solver._Split, "end_run", recording)


def striding_claims(seed):
    """A ``_Split.claim`` that takes 1 to 4 tasks at once off the shared
    counter, each side drawing its counts from its own generator."""
    strides = [random.Random(2 * seed + side) for side in (0, 1)]

    def claim(split):
        t = split.take()
        n = strides[split.side].randint(1, 4)
        os.write(split.claim_fds[1], (t + n).to_bytes(8, "little"))
        return t, t + n - 1

    return claim


@given(case=st.sampled_from(SPLIT_CASES), depth=st.integers(0, 30))
@settings(max_examples=30)
def test_split_search_is_the_one_process_walk(case, depth):
    # Depths past the last step stand for the last: its labels are leaves.
    inst = split_case(*case)
    want = one_process(inst, depth)
    with forced_split(depth):
        got = solve(inst)
    assert got.stats.processes == 2
    assert (got.status, got.plan, search_counters(got)) == (
        want.status,
        want.plan,
        search_counters(want),
    )


@given(
    case=st.sampled_from(SPLIT_CASES),
    depth=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
# Tasks at depth 0 are the root's one label; at 2 and 4 a side walks the
# depths above the tasks between tasks it skipped, and starts a task
# after one the other side walked.
@example(case=(22, 30, 3), depth=0, seed=0)
@example(case=(22, 30, 3), depth=2, seed=0)
@example(case=(22, 30, 3), depth=4, seed=0)
@settings(max_examples=20)
def test_any_claim_schedule_gives_the_one_process_walk(case, depth, seed):
    # However the two sides' claims interleave, and however many tasks
    # each takes at once, every task has one owner and the runs alternate.
    # Each side learns weights only within a task, so it walks every task
    # as the one process does.
    inst = split_case(*case)
    want = one_process(inst, depth)
    with forced_split(depth) as mp:
        mp.setattr(solver._Split, "claim", striding_claims(seed))
        got = solve(inst)
    assert got.stats.processes == 2
    assert (got.status, got.plan, search_counters(got)) == (
        want.status,
        want.plan,
        search_counters(want),
    )


@pytest.mark.parametrize("depth", [2, 5, 7])
def test_split_search_without_prunes_is_the_one_process_walk(depth):
    inst = hard_unsat_instance(8)
    want = one_process(inst, depth, prune=False)
    with forced_split(depth):
        got = solve(inst, prune=False)
    assert got.stats.processes == 2
    assert (got.status, search_counters(got)) == (UNSAT, search_counters(want))


@pytest.mark.parametrize(
    "case, depth, parent_found",
    [((20, 28, 1), 4, True), ((22, 26, 3), 4, False)],
)
def test_no_helper_outlives_a_sat_answer(case, depth, parent_found):
    inst = split_case(*case)
    want = one_process(inst, depth)
    found = []  # the solutions this process's own walk recorded
    with forced_split(depth) as mp:
        record_own_runs(mp, lambda *item: found.append(item))
        mp.setattr(solver._Split, "claim", parity_claim)  # who finds the solution
        got = solve(inst)
    assert_no_child_process()
    assert (got.status, got.plan) == (SAT, want.plan)
    assert bool(found and dict(enumerate(found[0][1])) == got.plan) == parent_found


@pytest.mark.parametrize("case", [(20, 28, 1), (22, 26, 3), (24, 30, 2), (24, 32, 3), (24, 33, 0)])
def test_a_parent_solution_is_settled_without_the_helper(case):
    # At depth 0 the one task is the parent's, so its solution is settled
    # at once, though the helper never reports.
    inst = split_case(*case)
    want = one_process(inst, 0)
    with forced_split(0) as mp:
        mp.setattr(solver, "_helper", lambda split: solver._readable(split.alive_fd, None))
        got = solve(inst, time_limit=3)
    assert (got.status, got.plan, got.stats.processes) == (SAT, want.plan, 2)
    assert search_counters(got) == search_counters(want)
    assert got.stats.wall_time < 1.5


def test_no_helper_outlives_an_unsat_answer():
    with forced_split(6):
        out = solve(split_case(24, 28, 1))
    assert_no_child_process()
    assert (out.status, out.stats.processes) == (UNSAT, 2)


def test_no_helper_outlives_a_timeout():
    with forced_split(6):
        out = solve(hard_unsat_instance(14), time_limit=0.3)
    assert_no_child_process()
    assert (out.status, out.stats.processes) == (TIMEOUT, 2)


def test_no_helper_outlives_an_error_in_the_walk():
    calls = itertools.count()
    select_step = SearchState.select_step

    def failing(state):
        # Well past the split at the first deadline check, node 65.
        if next(calls) == 3000 and os.getpid() == parent:
            raise RuntimeError("select_step failed")
        return select_step(state)

    parent = os.getpid()
    with forced_split(6) as mp:
        mp.setattr(SearchState, "select_step", failing)
        with pytest.raises(RuntimeError, match="select_step failed"):
            solve(split_case(30, 42, 0))
    assert_no_child_process()


@pytest.mark.parametrize("case", [(24, 33, 0), (24, 28, 1)])
def test_a_lost_helper_leaves_the_one_process_answer(case, capfd):
    inst = split_case(*case)
    want = one_process(inst, 4)
    with forced_split(4) as mp:
        mp.setattr(solver, "_helper", lambda *args: os._exit(1))
        got = solve(inst)
    assert_no_child_process()
    assert (got.status, got.plan, search_counters(got)) == (
        want.status,
        want.plan,
        search_counters(want),
    )
    assert got.stats.processes == 1
    assert capfd.readouterr().err == ""


def helper_lost_at_message(n):
    """A ``_send`` with which the helper exits at its ``n``-th message."""
    send = solver._send
    sent = itertools.count(1)

    def failing(fd, message):
        if next(sent) == n:
            os._exit(1)
        send(fd, message)

    return failing


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("case", SPLIT_CASES)
def test_a_helper_lost_after_reporting_leaves_the_one_process_answer(case, n, capfd):
    # Lost after its first message, the helper may have settled the answer
    # already (two processes) or not (a rerun in one); either is the walk.
    inst = split_case(*case)
    want = one_process(inst, 4)
    with forced_split(4) as mp:
        mp.setattr(solver, "_send", helper_lost_at_message(n))
        got = solve(inst)
    assert_no_child_process()
    assert (got.status, got.plan, search_counters(got)) == (
        want.status,
        want.plan,
        search_counters(want),
    )
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_a_helper_lost_holding_the_counter_leaves_the_one_process_answer(case, capfd):
    # The helper takes the counter at its first claim and never puts it
    # back, so side 0's next claim waits until the helper's reports end.
    inst = split_case(*case)
    want = one_process(inst, 4)
    claim = solver._Split.claim

    def lost_holding(split):
        if split.side:
            split.take()
            os._exit(1)
        return claim(split)

    def hung(*args):
        raise AssertionError("the search waits on a lost helper")

    old = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 30)
    try:
        with forced_split(4) as mp:
            mp.setattr(solver._Split, "claim", lost_holding)
            got = solve(inst)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert_no_child_process()
    assert (got.status, got.plan, search_counters(got)) == (
        want.status,
        want.plan,
        search_counters(want),
    )
    assert capfd.readouterr().err == ""


def test_a_split_search_timed_out_past_a_settled_solution_is_sat():
    # The parent reads nothing at its first 48 checks after the fork, so
    # it walks past the task of the helper's solution (from the 35th on,
    # here); at the next it takes in that solution and its deadline
    # passes.  Every task before the solution has then been walked, so the
    # answer is settled.
    inst = split_case(24, 32, 4)
    want = one_process(inst, 4)
    tick = solver._Split.tick
    checks = itertools.count()
    passed = []  # whether the parent had walked past the helper's solution

    def late(split):
        if split.pid:  # the parent, once forked
            if next(checks) < 48:
                return time.perf_counter()
            while not split.done:
                solver._readable(split.reports_fd, None)
                split.receive()
            passed.append(split.found < split.task)
            split.deadline = 0.0
        return tick(split)

    with forced_split(4) as mp:
        mp.setattr(solver._Split, "tick", late)
        mp.setattr(solver._Split, "claim", parity_claim)  # the helper finds the solution
        got = solve(inst)
    assert passed == [True]
    assert (got.status, got.plan, got.stats.processes) == (SAT, want.plan, 2)
    assert search_counters(got) == search_counters(want)


def test_the_fork_comes_within_a_few_checks_of_split_after(monkeypatch):
    # A clock that reads 1 ms later at every call, so that SPLIT_AFTER
    # passes after a fixed number of deadline checks on any machine.  The
    # fork ends the walk as a timeout does, so the stats count the nodes
    # walked when it came.
    class Clock:
        now = 0.0

        def perf_counter(self):
            self.now += 0.001
            return self.now

    def fork(split):
        raise solver._Timeout

    inst = split_case(24, 33, 0)
    assert one_process(inst, solver.SPLIT_DEPTH).stats.nodes >= 2000
    monkeypatch.setattr(solver, "time", Clock())
    monkeypatch.setattr(solver, "_may_fork", lambda: True)
    monkeypatch.setattr(solver._Split, "_fork", fork)
    out = solve(inst)
    assert out.status == TIMEOUT
    assert out.stats.nodes < 1024


def test_no_split_where_a_helper_is_unsafe():
    # SIGCHLD ignored, a second thread, a pool worker.
    old = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert not solver._may_fork()
    finally:
        signal.signal(signal.SIGCHLD, old)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert not solver._may_fork()
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    with ProcessPoolExecutor(max_workers=1) as pool:
        assert pool.submit(solver._may_fork).result(timeout=60) is False


# --- the split enumeration -----------------------------------------------------

#: Enumerations (k, generator seed, users, density, prune) that run past
#: the first deadline check, so that a split forced at 0 s happens: 24
#: users at k=8..12, pruned and not, and a scarce-user k=16 one whose
#: walk re-matches blocks by augmenting paths.
ENUM_SPLIT_CASES = [
    (8, 0, 24, 20, False),
    (9, 0, 24, 20, False),
    (10, 0, 24, 20, True),
    (11, 0, 24, 20, True),
    (12, 0, 24, 20, True),
    (16, 2, 9, 40, True),
]


def enum_case(k, seed, users, density, prune):
    config = GeneratorConfig(k, density_to_e(k, density), 0, seed, users=users)
    return preprocess(generate(config)).instance


@functools.cache
def one_process_enumeration(case):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_may_fork", lambda: False)
        return solve_enumerating(enum_case(*case), prune=case[-1])


def assert_same_enumeration(got, want):
    assert got.patterns == want.patterns
    # Plan by plan: a list of every plan dict at once would take tens of MB.
    assert len(got.plans) == len(want.plans)
    assert all(map(operator.eq, got.plans, want.plans))
    assert search_counters(got) == search_counters(want)


@given(case=st.sampled_from(ENUM_SPLIT_CASES), data=st.data())
@settings(max_examples=32)
def test_split_enumeration_is_the_one_process_walk(case, data):
    depth = data.draw(st.integers(0, case[0]), label="depth")
    want = one_process_enumeration(case)
    with forced_split(depth):
        got = solve_enumerating(enum_case(*case), prune=case[-1])
    assert (got.stats.processes, got.timed_out) == (2, False)
    assert_same_enumeration(got, want)


@given(
    case=st.sampled_from(ENUM_SPLIT_CASES),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=16)
def test_any_claim_schedule_gives_the_one_process_enumeration(case, data, seed):
    depth = data.draw(st.integers(0, case[0]), label="depth")
    want = one_process_enumeration(case)
    with forced_split(depth) as mp:
        mp.setattr(solver._Split, "claim", striding_claims(seed))
        got = solve_enumerating(enum_case(*case), prune=case[-1])
    assert (got.stats.processes, got.timed_out) == (2, False)
    assert_same_enumeration(got, want)


def test_no_helper_outlives_an_enumeration():
    with forced_split(6):
        out = solve_enumerating(enum_case(*ENUM_SPLIT_CASES[3]))
    assert_no_child_process()
    assert (out.count, out.stats.processes) == (33159, 2)


@pytest.mark.parametrize("n, code", [(256, "B"), (257, "H")])
def test_witnesses_hold_the_highest_user_id(n, code):
    # Only the last user may do step 0, so every witness names it: user
    # 255 fills one byte, user 256 needs two.  The split sends its
    # witnesses as the array's bytes, so both sides take one typecode.
    inst = make_instance(8, n, [[n - 1]] + [range(n)] * 7)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_may_fork", lambda: False)
        want = solve_enumerating(inst)
    with forced_split(4):
        got = solve_enumerating(inst)
    assert (want.count, want.stats.processes, got.stats.processes) == (bell_numbers(8)[-1], 1, 2)
    assert want.plans._users.typecode == code
    assert all(plan[0] == n - 1 for plan in want.plans)
    assert_same_enumeration(got, want)


@pytest.mark.parametrize("depth", [4, 6, 8])
def test_a_timed_out_split_enumeration_is_a_prefix_of_the_walk(depth):
    # The deeper the tasks, the more of them the helper has reported,
    # each run with its patterns, when the deadline passes.
    case = ENUM_SPLIT_CASES[4]
    inst = enum_case(*case)
    want = one_process_enumeration(case)
    with forced_split(depth):
        got = solve_enumerating(inst, time_limit=0.2)
    assert_no_child_process()
    assert (got.timed_out, got.stats.processes) == (True, 2)
    assert 0 < got.count < want.count
    assert got.patterns == want.patterns[: got.count]
    for i, plan in enumerate(got.plans):
        assert encode(plan, inst.step_count) == got.patterns[i]
        assert validate_plan(inst, plan) == Valid()


def test_a_timed_out_split_enumeration_keeps_the_helpers_reported_patterns():
    case = ENUM_SPLIT_CASES[4]
    inst = enum_case(*case)
    want = one_process_enumeration(case)
    found = set()  # the patterns this process's own walk recorded
    with forced_split(solver.ENUM_SPLIT_DEPTH) as mp:
        record_own_runs(mp, lambda pattern, users: found.add(pattern))
        got = solve_enumerating(inst, time_limit=0.25)
    assert (got.timed_out, got.stats.processes) == (True, 2)
    assert got.patterns == want.patterns[: got.count]
    assert len(set(got.patterns) - found) > 0  # some are the helper's
    for i, plan in enumerate(got.plans):
        assert encode(plan, inst.step_count) == got.patterns[i]
        assert validate_plan(inst, plan) == Valid()


def test_no_helper_outlives_an_error_in_an_enumeration():
    calls = itertools.count()
    select_step = SearchState.select_step

    def failing(state):
        # Well past the split at the first deadline check, node 65.
        if next(calls) == 3000 and os.getpid() == parent:
            raise RuntimeError("select_step failed")
        return select_step(state)

    parent = os.getpid()
    with forced_split(6) as mp:
        mp.setattr(SearchState, "select_step", failing)
        with pytest.raises(RuntimeError, match="select_step failed"):
            solve_enumerating(enum_case(*ENUM_SPLIT_CASES[3]))
    assert_no_child_process()


def test_a_lost_helper_leaves_the_one_process_enumeration(capfd):
    case = ENUM_SPLIT_CASES[3]
    want = one_process_enumeration(case)
    with forced_split(4) as mp:
        mp.setattr(solver, "_helper", lambda *args: os._exit(1))
        got = solve_enumerating(enum_case(*case), prune=case[-1])
    assert_no_child_process()
    assert_same_enumeration(got, want)
    assert got.stats.processes == 1
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("n", [1, 2])
def test_a_helper_lost_after_reporting_leaves_the_one_process_enumeration(n, capfd):
    case = ENUM_SPLIT_CASES[3]
    want = one_process_enumeration(case)
    with forced_split(4) as mp:
        mp.setattr(solver, "_send", helper_lost_at_message(n))
        got = solve_enumerating(enum_case(*case), prune=case[-1])
    assert_no_child_process()
    assert_same_enumeration(got, want)
    assert capfd.readouterr().err == ""
