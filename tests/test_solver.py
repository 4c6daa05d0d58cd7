"""The backtracking solver: heuristics, prunes, verdicts, determinism."""

from __future__ import annotations

import gc
import itertools
import tracemalloc
from collections.abc import Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bell_numbers, instances
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
    with pytest.raises(ValueError):
        state.select_step()


# --- extension eligibility (peek) vs the constraint API ----------------------


def assert_eligibility_matches(state, inst, step):
    for label in range(1, state.pattern.max_label + 2):
        probe = list(state.pattern.entries)
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
        unassigned = [s for s in range(k) if state.pattern.entries[s] == 0]
        if back or not unassigned:
            if state.pattern.assigned_count:
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
            for label in range(1, state.pattern.max_label + 2):
                state.extend(step, label)
                assert_eligibility_matches(state, inst, child)
                state.retract()
            assert_eligibility_matches(state, inst, step)
        state.extend(step, 1 + lab % (state.pattern.max_label + 1))


@given(instances(max_steps=5, max_users=5, allow_bod=False), st.data())
@settings(max_examples=60)
def test_search_state_counters_survive_retract(inst, data):
    state = SearchState(inst)
    pattern = state.pattern

    def snapshot():
        return (
            list(state.ct_labels),
            list(state.ct_room),
            list(state.score),
            list(state.domain),
            list(pattern.entries),
            list(pattern.block_masks),
            pattern.max_label,
        )

    baseline = snapshot()
    k = inst.step_count
    depth = 0
    for _ in range(data.draw(st.integers(0, 2 * k))):
        unassigned = [s for s in range(k) if state.pattern.entries[s] == 0]
        if unassigned and (depth == 0 or data.draw(st.booleans())):
            step = data.draw(st.sampled_from(unassigned))
            state.extend(step, data.draw(st.integers(1, state.pattern.max_label + 1)))
            depth += 1
        elif depth:
            state.retract()
            depth -= 1
    for _ in range(depth):
        state.retract()
    assert snapshot() == baseline


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
    assert not state.starved(0)
    # Step 4 touches no constraint, so no domain narrows.
    state.extend(4, 2)
    assert state.domain == [every, every & ~0b10, every, every, every]
    assert not state.starved(4)
    state.retract()
    # Step 3 spends the at-most scope's one label: step 2 may only join
    # its block, which still has users.
    state.extend(3, 2)
    assert state.domain == [every, every & ~0b10, 0b100, every, every]
    assert not state.starved(3)
    # Step 1 takes that label, so its neighbour 2 has none left.
    state.extend(1, 2)
    assert state.domain == [every, every & ~0b10, 0, every, every]
    assert state.starved(1)
    state.retract()
    state.retract()
    # Step 2 spends the scope's label the other way round: step 3 may
    # only join its block, and the neighbour 1 loses label 2 as well.
    state.extend(2, 2)
    assert state.domain == [every, every & ~0b110, every, 0b100, every]
    assert not state.starved(2)
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
    assert state.starved(0)


def test_forward_check_sees_a_block_narrow_under_a_full_scope():
    # Step 0 spends the at-most scope's one label; step 1 joins its block,
    # which narrows no domain but keeps only user 0, while step 2's one
    # user is 1.
    state = SearchState(
        make_instance(3, 2, [{0, 1}, {0}, {1}], [AtMost(1, frozenset({0, 1, 2}))])
    )
    state.extend(0, 1)
    assert not state.starved(0)
    state.extend(1, 1)
    assert state.domain[2] == 0b10
    assert state.starved(1)


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
        patch.setattr(SearchState, "starved", lambda self, step: False)
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
    # Each access builds a new dict, so editing one leaves the view as it was.
    plans[0][0] = -1
    assert plans[0] == listed[0]


def test_enumeration_retains_little_per_pattern():
    # 7,491 patterns; one dict witness each kept about 490 bytes per pattern.
    inst = generate(GeneratorConfig(10, density_to_e(10, 20), 0, 0, users=24))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = solve_enumerating(inst)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.count == 7491
    assert retained <= 300 * out.count


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
