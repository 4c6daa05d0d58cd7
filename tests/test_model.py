"""Instance model: parsing, serialization, plan validation, preprocessing."""

from __future__ import annotations

import itertools
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import GOLDEN_PLAN, GOLDEN_TEXT, all_complete_plans, complete_plans, instances
from wspsolve import (
    AtLeast,
    AtMost,
    AuthorisationLists,
    BindingOfDuty,
    Never,
    NotAuthorised,
    NotEquals,
    ParseError,
    Valid,
    Violates,
    WorkflowInstance,
    format_solution,
    parse_instance,
    parse_solution,
    preprocess,
    serialize_instance,
    validate_plan,
)


def make_instance(k, n, auth, constraints=()):
    return WorkflowInstance(
        k, n, AuthorisationLists.from_user_steps(k, auth), tuple(constraints)
    )


def bits_reference(mask):
    """Indices of the set bits of ``mask``, ascending: the per-character
    walk of ``bin(mask)`` that the writer's byte grid replaced."""
    return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def auth_lines_reference(auth):
    """The auth lines of ``serialize_instance``, one mask bit at a time."""
    steps_of = [[] for _ in range(auth.user_count)]
    for s, mask in enumerate(auth.step_user_masks):
        for u in bits_reference(mask):
            steps_of[u].append(s)
    return [" ".join(["auth", str(u), *map(str, steps)]) for u, steps in enumerate(steps_of)]


def per_entry_masks(k, user_steps):
    """Reference builder: OR each user's bit into each of its steps' masks."""
    masks = [0] * k
    for u, steps in enumerate(user_steps):
        for s in steps:
            masks[s] |= 1 << u
    return tuple(masks)


# --- parsing ----------------------------------------------------------------


def test_parse_golden(golden_instance):
    inst = golden_instance
    assert inst.step_count == 4
    assert inst.user_count == 5
    assert inst.auth.user_steps[0] == {0, 1, 2, 3}
    assert inst.auth.user_steps[1] == {0}
    assert inst.auth.step_users[0] == {0, 1}
    assert inst.auth.step_users[2] == {0, 3, 4}
    assert inst.constraints == (
        BindingOfDuty(0, 1),
        NotEquals(1, 2),
        NotEquals(2, 3),
        NotEquals(3, 0),
    )


def test_parse_comments_and_blank_lines():
    text = "# header comment\n\nwsp 2 1  # trailing\n\nauth 0 0 1\nne 0 1 # pair\n"
    inst = parse_instance(text)
    assert inst.step_count == 2
    assert inst.constraints == (NotEquals(0, 1),)


def test_auth_line_may_be_empty():
    inst = parse_instance("wsp 2 2\nauth 0 0 1\nauth 1\n")
    assert inst.auth.user_steps[1] == frozenset()
    assert inst.auth.step_users[0] == {0}


@pytest.mark.parametrize(
    "text, line_no, fragment",
    [
        ("auth 0 0\n", 1, "header"),
        ("wsp 2 1\nwsp 2 1\n", 2, "duplicate header"),
        ("wsp 2 1\nauth 0 0\nfoo 1 2\n", 3, "unknown tag"),
        ("wsp 2 1\nauth 0 2\n", 2, "out of range"),
        ("wsp 2 1\nauth 0 0\nne 0 2\n", 3, "out of range"),
        ("wsp 2 1\nauth 0 x\n", 2, "integer"),
        ("wsp 2 1\nauth 0 0\nauth 0 1\n", 3, "duplicate auth"),
        ("wsp 2 2\nauth 0 0\n", 2, "missing auth line for user 1"),
        ("wsp 2 1\nauth 0 0\nne 1 1\n", 3, "differ"),
        ("wsp 2 1\nauth 0 0\nbd 1 1\n", 3, "differ"),
        ("wsp 5 1\nauth 0 0\natmost 4 0 1 2\n", 3, "1 <= r"),
        ("wsp 5 1\nauth 0 0\natleast 1 2\n", 3, "at least two"),
        ("wsp 0 1\n", 1, "positive"),
        ("", 1, "missing wsp header"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line_no, fragment):
    with pytest.raises(ParseError) as exc:
        parse_instance(text)
    assert exc.value.line_no == line_no
    assert fragment in str(exc.value)


def test_missing_auth_line_is_found_without_listing_users():
    # Three million users, one auth line: the error names the first
    # missing user without building a list of all of them.
    text = "wsp 1 3000000\nauth 0 0\n"
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "missing auth line for user 1" in str(exc.value)
    assert exc.value.line_no == 2
    assert peak < 5 * 2**20


def test_absurd_user_index_is_rejected_before_any_mask_is_built():
    # A user index near 10**18 would need an exabit mask: the reader
    # finds user 0's line missing before it builds any mask.
    text = "wsp 1 1000000000000000000\nauth 999999999999999999 0\n"
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "missing auth line for user 0" in str(exc.value)
    assert peak < 5 * 2**20


# Each text's instance, as its users' step lists, or its first error's
# line and message.  The step tokens of an erroneous line were all read
# on an earlier line, so the cached path meets the error first.
READER_CASES = {
    "comment_and_tabs": (
        "wsp 3 3\nauth 0 0 2\nauth\t1\t0 # 1 2\nauth 2 2\t0#1\n",
        [[0, 2], [0], [2, 0]],
    ),
    "plus_and_leading_zero": (
        "wsp 4 3\nauth 0 3 1\nauth 1 +3 03\nauth +2 03 1\n",
        [[3, 1], [3], [3, 1]],
    ),
    "repeated_step": ("wsp 3 2\nauth 0 1 1 2 1\nauth 1 2 1 2 2\n", [[1, 2], [1, 2]]),
    # The fast path's sum 1 + 1 + 2 carries into bit 2, inside the step
    # count: only the count of set bits tells the repeat apart.
    "repeated_step_carries": ("wsp 3 1\nauth 0 0 0 1\n", [[0, 1]]),
    "user_without_steps": (
        "wsp 2 6\nauth 0 0\nauth 1 0 1\nauth 2\nauth 3 1\nauth 4 0\nauth 5\n",
        [[0], [0, 1], [], [1], [0], []],
    ),
    "bare_auth": ("wsp 2 2\nauth 0 0 1\nauth\nauth 1 0\n", (3, "auth line needs a user index")),
    "negative_step": ("wsp 2 2\nauth 0 0 1\nauth 1 0 -1\n", (3, "step index -1 out of range 0..1")),
    "step_equal_to_k": ("wsp 2 2\nauth 0 0 1\nauth 1 1 2\n", (3, "step index 2 out of range 0..1")),
    "non_integer_step": (
        "wsp 2 2\nauth 0 0 1\nauth 1 0 1.0\n",
        (3, "expected an integer step index, got '1.0'"),
    ),
    "user_out_of_range": ("wsp 2 2\nauth 0 0 1\nauth 2 0 1\n", (3, "user index 2 out of range 0..1")),
    "negative_user": ("wsp 2 2\nauth 0 0 1\nauth -1 0 1\n", (3, "user index -1 out of range 0..1")),
    "duplicate_user": (
        "wsp 2 2\nauth 0 0 1\nauth 0 1\nauth 1 0\n",
        (3, "duplicate auth line for user 0"),
    ),
    "mixed_small_and_large_steps": (
        "wsp 130 3\nauth 0 1 65 3 129 64 63\nauth 1 63 129 0\nauth 2 64 1 63\n",
        [[1, 65, 3, 129, 64, 63], [63, 129, 0], [64, 1, 63]],
    ),
    "large_step_out_of_range": (
        "wsp 130 2\nauth 0 1 65\nauth 1 1 65 130\n",
        (3, "step index 130 out of range 0..129"),
    ),
}


@pytest.mark.parametrize("text, expected", READER_CASES.values(), ids=READER_CASES.keys())
def test_reader_cases(text, expected):
    if isinstance(expected, list):
        k, n = map(int, text.split()[1:3])
        auth = AuthorisationLists(n, per_entry_masks(k, expected))
        assert parse_instance(text) == WorkflowInstance(k, n, auth, ())
    else:
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert (exc.value.line_no, str(exc.value)) == (expected[0], f"line {expected[0]}: {expected[1]}")


def test_reading_a_long_auth_line_stays_small():
    # One user on every other step of 200,000.  The bound is twice the
    # 14,489,684 bytes measured on Python 3.11 for the earlier reader,
    # which ORed each entry into its step's mask.  Caching 1 << s for
    # every step read would hold about k * k / 16 bytes, 1.2 GB here.
    k = 200_000
    text = f"wsp {k} 1\nauth 0 " + " ".join(map(str, range(0, k, 2))) + "\n"
    tracemalloc.start()
    try:
        inst = parse_instance(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.auth.step_user_masks == (1, 0) * (k // 2)
    assert peak <= 2 * 14_489_684


def test_serialize_golden_round_trips(golden_instance):
    assert serialize_instance(golden_instance) == GOLDEN_TEXT
    assert parse_instance(serialize_instance(golden_instance)) == golden_instance


@given(instances(max_steps=6, max_users=7))
def test_serialize_parse_round_trip(inst):
    assert parse_instance(serialize_instance(inst)) == inst


@given(instances(max_steps=6, max_users=7))
def test_commented_text_reads_as_the_plain_one(inst):
    # A file with a "#" takes the reader's comment-stripping path, every
    # line kind included.
    text = serialize_instance(inst).replace("\n", " # c\n") + "# only a comment\n"
    assert parse_instance(text) == inst


@given(st.data())
@settings(max_examples=60)
def test_reader_and_builder_match_per_entry_masks(data):
    """Steps on both sides of a byte (8) and of a machine word (64), in
    any order and repeated, on auth lines in any order."""
    k = data.draw(st.integers(1, 130), label="k")
    n = data.draw(st.integers(1, 200), label="n")
    steps = st.lists(st.integers(0, k - 1), max_size=10)
    raw = data.draw(st.lists(steps, min_size=n, max_size=n), label="raw")
    order = data.draw(st.permutations(range(n)), label="order")
    inst = WorkflowInstance(k, n, AuthorisationLists(n, per_entry_masks(k, raw)), ())
    assert AuthorisationLists.from_user_steps(k, raw) == inst.auth
    text = f"wsp {k} {n}\n" + "".join(" ".join(["auth", str(u), *map(str, raw[u])]) + "\n" for u in order)
    assert parse_instance(text) == inst
    assert parse_instance(serialize_instance(inst)) == inst


@st.composite
def auth_matrices(draw):
    """Masks on both sides of a byte and of a machine word, with the top
    user's bit set on some step and some user on no step."""
    k = draw(st.one_of(st.sampled_from([1, 8, 9, 65]), st.integers(1, 70)), label="k")
    n = draw(st.one_of(st.just(1), st.integers(1, 150)), label="n")
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=k, max_size=k), label="masks")
    if draw(st.booleans(), label="top bit"):
        masks[draw(st.integers(0, k - 1))] |= 1 << (n - 1)
    if draw(st.booleans(), label="idle user"):
        idle = draw(st.integers(0, n - 1))
        masks = [m & ~(1 << idle) for m in masks]
    return AuthorisationLists(n, tuple(masks))


@given(auth_matrices())
@example(AuthorisationLists(1, (0,)))  # a bare "auth 0" line
@example(AuthorisationLists(1, (1,) * 65))
@example(AuthorisationLists(9, (1 << 8, 0, (1 << 9) - 1, 0, 0, 0, 0, 0, 1 << 8)))
@example(AuthorisationLists(64, ((1 << 64) - 1, 1 << 63, 0, 1, 5, 0, 0, 1 << 63)))
def test_writer_matches_the_bit_walk(auth):
    k, n = len(auth.step_user_masks), auth.user_count
    inst = WorkflowInstance(k, n, auth, ())
    ref_lines = auth_lines_reference(auth)
    assert auth.step_users == tuple(frozenset(bits_reference(m)) for m in auth.step_user_masks)
    assert auth.user_steps == tuple(frozenset(map(int, line.split()[2:])) for line in ref_lines)
    text = serialize_instance(inst)
    assert text == "\n".join([f"wsp {k} {n}", *ref_lines]) + "\n"
    assert parse_instance(text) == inst


def test_set_views_of_an_empty_relation():
    assert AuthorisationLists(3, ()).user_steps == (frozenset(),) * 3
    assert AuthorisationLists(0, (0, 0)).step_users == (frozenset(), frozenset())
    assert AuthorisationLists(0, (0, 0)).user_steps == ()


def test_serialize_rejects_never():
    inst = make_instance(2, 1, [{0, 1}], [Never(frozenset({0}), "x")])
    with pytest.raises(ValueError):
        serialize_instance(inst)


# --- authorisation lists ----------------------------------------------------


def test_authorisation_duality_and_masks():
    auth = AuthorisationLists.from_user_steps(3, [{0, 2}, {1}, set()])
    assert auth.step_users == (frozenset({0}), frozenset({1}), frozenset({0}))
    assert auth.step_user_masks == (0b001, 0b010, 0b001)
    flipped = AuthorisationLists.from_step_users(3, auth.step_users)
    assert flipped == auth


@given(st.data())
def test_masks_match_raw_user_lists(data):
    """The masks are checked against the raw per-user lists, not against
    another view: plan validation, the oracle and the solver all read
    the masks, so a builder bug would pass them all alike."""
    k = data.draw(st.integers(1, 8), label="k")
    n = data.draw(st.integers(1, 200), label="n")
    steps = st.lists(st.integers(0, k - 1), max_size=k)  # duplicates allowed
    raw = data.draw(st.lists(steps, min_size=n - 1, max_size=n - 1), label="raw") + [[]]
    auth = AuthorisationLists.from_user_steps(k, raw)
    assert auth.user_count == n
    assert len(auth.step_user_masks) == k
    for u, steps_of_u in enumerate(raw):
        for s in range(k):
            assert (auth.step_user_masks[s] >> u & 1) == (s in steps_of_u)
    assert AuthorisationLists.from_step_users(n, auth.step_users) == auth
    assert AuthorisationLists.from_user_steps(k, auth.user_steps) == auth
    s = data.draw(st.integers(0, k - 1), label="s")
    high_bit = 1 << data.draw(st.integers(n, n + 70), label="bit")
    for bad in (-1, auth.step_user_masks[s] | high_bit):
        masks = list(auth.step_user_masks)
        masks[s] = bad
        with pytest.raises(ValueError):
            AuthorisationLists(n, tuple(masks))


def test_instance_needs_a_step_and_a_user():
    with pytest.raises(ValueError, match=r"^need at least one step and one user$"):
        WorkflowInstance(0, 1, AuthorisationLists(1, ()), ())
    with pytest.raises(ValueError, match=r"^need at least one step and one user$"):
        WorkflowInstance(1, 0, AuthorisationLists(0, (0,)), ())


def test_authorisation_rejects_out_of_range():
    with pytest.raises(ValueError):
        AuthorisationLists.from_user_steps(2, [{0, 5}])
    with pytest.raises(ValueError):
        make_instance(2, 1, [{0}], [NotEquals(0, 1), AtMost(1, frozenset({0, 5}))])


@given(st.data())
def test_from_step_users_matches_per_entry_masks(data):
    n = data.draw(st.integers(1, 200), label="n")
    k = data.draw(st.integers(1, 12), label="k")
    users = st.lists(st.integers(0, n - 1), max_size=12)  # duplicates allowed
    step_users = data.draw(st.lists(users, min_size=k, max_size=k), label="step_users")
    masks = []
    for us in step_users:
        mask = 0
        for u in us:
            mask |= 1 << u
        masks.append(mask)
    assert AuthorisationLists.from_step_users(n, step_users).step_user_masks == tuple(masks)


def test_builders_name_the_first_index_out_of_range():
    with pytest.raises(ValueError, match=r"^user index 5 out of range$"):
        AuthorisationLists.from_step_users(2, [[0], [1, 5, -1]])
    with pytest.raises(ValueError, match=r"^user index -1 out of range$"):
        AuthorisationLists.from_step_users(2, [[-1, 5]])
    with pytest.raises(ValueError, match=r"^step index -1 out of range$"):
        AuthorisationLists.from_user_steps(2, [[1], [0, -1, 2]])


@pytest.mark.parametrize(
    "bad, text",
    [
        (-1, "-1"),
        (1 << 3, "8"),
        (2.0, "2.0"),
        ("1", "'1'"),
        (None, "None"),
    ],
    ids=["negative", "oversize", "float", "str", "none"],
)
def test_mask_check_names_the_first_bad_mask(bad, text):
    # The bad mask sits between good ones, and a second bad one follows
    # it, so the message must name the first, not the extreme one.
    masks = (0b101, bad, 0b111, -(1 << 70), 1 << 70)
    with pytest.raises(ValueError, match=rf"^{re.escape(text)} is not a mask over 3 users$"):
        AuthorisationLists(3, masks)


def test_mask_check_takes_int_subclasses():
    class Mask(int):
        pass

    masks = (Mask(5), 1, Mask(0))
    assert AuthorisationLists(3, masks).step_user_masks == masks
    with pytest.raises(ValueError, match=r"^8 is not a mask over 3 users$"):
        AuthorisationLists(3, (Mask(1), Mask(8)))


def test_mask_check_takes_bools_as_ints():
    # bool is an int: True is the mask of user 0, as it always was.
    assert AuthorisationLists(1, (True, False, 1)).step_user_masks == (True, False, 1)
    with pytest.raises(ValueError, match=r"^True is not a mask over 0 users$"):
        AuthorisationLists(0, (0, True))
    assert AuthorisationLists(0, ()).step_user_masks == ()


# --- plan validation --------------------------------------------------------


def test_validate_plan_golden(golden_instance):
    assert validate_plan(golden_instance, GOLDEN_PLAN) == Valid()


def test_validate_plan_reports_first_unauthorised_step(golden_instance):
    # User 2 may only perform step 1, so step 0 fails first.
    verdict = validate_plan(golden_instance, {0: 2, 1: 2, 2: 3, 3: 4})
    assert verdict == NotAuthorised(0)


def test_validate_plan_reports_violated_constraint(golden_instance):
    # Steps 2 and 3 share user 3, breaking their not-equals pair.
    verdict = validate_plan(golden_instance, {0: 0, 1: 0, 2: 3, 3: 3})
    assert verdict == Violates(NotEquals(2, 3))


def test_validate_plan_rejects_incomplete(golden_instance):
    with pytest.raises(ValueError):
        validate_plan(golden_instance, {0: 0, 1: 0})
    with pytest.raises(ValueError):
        validate_plan(golden_instance, {0: 0, 1: 0, 2: 3, 5: 4})


# --- solution files ---------------------------------------------------------


def test_solution_round_trip():
    text = format_solution("sat", {1: 4, 0: 2})
    assert text == "sat\nassign 0 2\nassign 1 4\n"
    assert parse_solution(text) == ("sat", {0: 2, 1: 4})
    assert parse_solution(format_solution("unsat", None)) == ("unsat", None)
    assert parse_solution(format_solution("timeout", None)) == ("timeout", None)
    with pytest.raises(ValueError):
        format_solution("sat", None)
    with pytest.raises(ValueError):
        parse_solution("maybe\n")
    # A contradiction or a negative id is an error naming its line.
    with pytest.raises(ValueError, match="twice.*'assign 0 2'"):
        parse_solution("sat\nassign 0 1\nassign 0 2\n")
    for line in ("assign -1 5", "assign 0 -3"):
        with pytest.raises(ValueError, match=f"negative.*{line!r}"):
            parse_solution(f"sat\n{line}\n")


# --- preprocessing ----------------------------------------------------------


def test_preprocess_golden(golden_instance):
    pre = preprocess(golden_instance)
    assert pre.instance.step_count == 3
    assert pre.step_map == (0, 0, 1, 2)
    # The merged step keeps only users authorised for both halves.
    assert pre.instance.auth.step_users[0] == {0}
    assert pre.instance.constraints == (
        NotEquals(0, 1),
        NotEquals(1, 2),
        NotEquals(2, 0),
    )
    expanded = pre.expand_plan({0: 0, 1: 3, 2: 4})
    assert expanded == {0: 0, 1: 0, 2: 3, 3: 4}
    assert validate_plan(golden_instance, expanded) == Valid()


def test_preprocess_identity_without_binding_of_duty():
    inst = make_instance(3, 2, [{0, 1}, {1, 2}], [NotEquals(2, 0), AtMost(2, frozenset({0, 1}))])
    pre = preprocess(inst)
    assert pre.instance is inst
    assert pre.step_map == (0, 1, 2)
    assert pre.expand_plan({0: 0, 1: 1, 2: 1}) == {0: 0, 1: 1, 2: 1}


@given(instances(max_steps=6, max_users=4), st.data())
def test_expand_plan_is_a_new_dict_equal_to_the_step_map_lift(inst, data):
    pre = preprocess(inst)
    plan = data.draw(complete_plans(pre.instance), label="plan")
    expanded = pre.expand_plan(plan)
    assert expanded == {s: plan[x] for s, x in enumerate(pre.step_map) if x in plan}
    assert expanded is not plan
    expanded[0] = -1
    assert plan[pre.step_map[0]] != -1


def test_preprocess_merges_chains():
    inst = make_instance(
        4,
        3,
        [{0, 1, 2, 3}, {0, 1, 2}, {1, 2, 3}],
        [BindingOfDuty(0, 1), BindingOfDuty(1, 2), NotEquals(0, 3)],
    )
    pre = preprocess(inst)
    assert pre.instance.step_count == 2
    assert pre.step_map == (0, 0, 0, 1)
    # Intersection over the three merged steps.
    assert pre.instance.auth.step_users[0] == {0, 1} & {0, 1, 2} & {0, 1, 2}
    assert pre.instance.constraints == (NotEquals(0, 1),)


def test_preprocess_contradictory_pair_becomes_never():
    inst = make_instance(
        2, 2, [{0, 1}, {0, 1}], [BindingOfDuty(0, 1), NotEquals(0, 1)]
    )
    pre = preprocess(inst)
    assert pre.instance.step_count == 1
    (marker,) = pre.instance.constraints
    assert isinstance(marker, Never)
    # Every expanded plan is invalid on both sides.
    for u in range(2):
        assert validate_plan(pre.instance, {0: u}) != Valid()
        assert validate_plan(inst, pre.expand_plan({0: u})) != Valid()


def test_preprocess_at_least_outgrowing_scope_becomes_never():
    inst = make_instance(
        3,
        3,
        [{0, 1, 2}] * 3,
        [BindingOfDuty(0, 1), AtLeast(3, frozenset({0, 1, 2}))],
    )
    pre = preprocess(inst)
    assert any(isinstance(c, Never) for c in pre.instance.constraints)


def test_preprocess_drops_trivialised_constraints():
    inst = make_instance(
        3,
        3,
        [{0, 1, 2}] * 3,
        [
            BindingOfDuty(0, 1),
            AtMost(2, frozenset({0, 1, 2})),  # shrinks to 2 steps, bound 2
            AtLeast(1, frozenset({0, 1, 2})),  # at-least-1 is vacuous once rewritten
        ],
    )
    pre = preprocess(inst)
    assert pre.instance.step_count == 2
    assert pre.instance.constraints == ()


def test_preprocess_deduplicates_repeats():
    inst = make_instance(
        3,
        2,
        [{0, 1, 2}, {0, 1, 2}],
        [NotEquals(0, 1), NotEquals(1, 0), NotEquals(0, 1), BindingOfDuty(1, 2)],
    )
    pre = preprocess(inst)
    assert pre.instance.constraints == (NotEquals(0, 1),)


def test_preprocess_empty_intersection_is_allowed():
    inst = make_instance(2, 2, [{0}, {1}], [BindingOfDuty(0, 1)])
    pre = preprocess(inst)
    assert pre.instance.step_count == 1
    assert pre.instance.auth.step_users[0] == frozenset()


@st.composite
def _masks_and_pairs(draw):
    k = draw(st.integers(1, 8))
    n = draw(st.integers(1, 6))
    masks = draw(st.lists(st.integers(0, 2**n - 1), min_size=k, max_size=k))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)).filter(
                lambda p: p[0] != p[1]
            ),
            max_size=10,
        )
        if k >= 2
        else st.just([])
    )
    return n, masks, pairs


@given(_masks_and_pairs())
@example((3, [0b111, 0b110, 0b011, 0b101], [(3, 1), (1, 0)]))  # a chain, larger index first
def test_preprocess_merges_like_repeated_closure(case):
    """step_map numbers the binding-of-duty classes by smallest member and
    each merged mask is the AND of its members', against components
    found by closing each step's class under the pairs until it stops
    growing."""
    n, masks, pairs = case
    k = len(masks)
    inst = WorkflowInstance(
        k, n, AuthorisationLists(n, tuple(masks)), tuple(BindingOfDuty(s, t) for s, t in pairs)
    )
    classes = set()
    for s in range(k):
        members = {s}
        grown = True
        while grown:
            grown = False
            for a, b in pairs:
                if (a in members) != (b in members):
                    members |= {a, b}
                    grown = True
        classes.add(frozenset(members))
    ordered = sorted(classes, key=min)
    pre = preprocess(inst)
    assert pre.step_map == tuple(
        next(x for x, members in enumerate(ordered) if s in members) for s in range(k)
    )
    expected = []
    for members in ordered:
        mask = 2**n - 1
        for s in members:
            mask &= masks[s]
        expected.append(mask)
    assert pre.instance.auth.step_user_masks == tuple(expected)
    assert pre.instance.constraints == ()
    if not pairs:
        assert pre.instance is inst


@given(instances(max_steps=4, max_users=4))
@settings(max_examples=60)
def test_preprocess_preserves_validity_of_expanded_plans(inst):
    """A merged-instance plan expands to a valid original plan exactly
    when it was valid on the merged instance."""
    pre = preprocess(inst)
    for plan in all_complete_plans(pre.instance):
        merged_ok = isinstance(validate_plan(pre.instance, plan), Valid)
        original_ok = isinstance(
            validate_plan(inst, pre.expand_plan(plan)), Valid
        )
        assert merged_ok == original_ok


@given(instances(max_steps=4, max_users=4))
@settings(max_examples=40)
def test_preprocess_preserves_satisfiability(inst):
    """Merging never creates or destroys solutions overall."""
    pre = preprocess(inst)
    original_sat = any(
        isinstance(validate_plan(inst, p), Valid) for p in all_complete_plans(inst)
    )
    merged_sat = any(
        isinstance(validate_plan(pre.instance, p), Valid)
        for p in all_complete_plans(pre.instance)
    )
    assert original_sat == merged_sat
