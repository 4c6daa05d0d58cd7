"""Shared fixtures, independent reference oracles and hypothesis strategies."""

from __future__ import annotations

import itertools
import os

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from wspsolve import (
    AtLeast,
    AtMost,
    AuthorisationLists,
    BindingOfDuty,
    NotEquals,
    Valid,
    WorkflowInstance,
    parse_instance,
    validate_plan,
)
from wspsolve.pattern import encode

settings.register_profile(
    "wspsolve", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("wspsolve")


def assert_no_child_process() -> None:
    """Fail if this process has a child, whether running or exited unreaped."""
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process is left: {f'pid {pid}, exited' if pid else 'still running'}")


def open_fds() -> dict[int, str] | None:
    """This process's open file descriptors and what each refers to, or
    None without ``/proc`` to read them from."""
    try:
        names = os.listdir("/proc/self/fd")
    except OSError:
        return None
    fds = {}
    for name in names:
        try:
            fds[int(name)] = os.readlink(f"/proc/self/fd/{name}")
        except OSError:  # the listing's own descriptor, closed by now
            pass
    return fds


@pytest.fixture(autouse=True)
def no_child_process_left():
    # A split search forks a helper, which must never outlive the solve,
    # and opens pipes to it, which the solve must close on every path.
    fds = open_fds()
    yield
    assert_no_child_process()
    assert open_fds() == fds


# One fully worked 4-step, 5-user instance used across the suite: the
# first two steps must share a user, the remaining pairs around the
# cycle must differ, and only user 0 may perform both of the first two.
GOLDEN_TEXT = """\
wsp 4 5
auth 0 0 1 2 3
auth 1 0
auth 2 1
auth 3 2 3
auth 4 2 3
bd 0 1
ne 1 2
ne 2 3
ne 3 0
"""

GOLDEN_PLAN = {0: 0, 1: 0, 2: 3, 3: 4}


@pytest.fixture
def golden_instance() -> WorkflowInstance:
    return parse_instance(GOLDEN_TEXT)


# --- independent reference computations ------------------------------------


def bell_numbers(limit: int) -> list[int]:
    """B_1..B_limit via the Bell triangle (each row starts with the
    previous row's last entry; entries add the entry above)."""
    out = [1]
    row = [1]
    for _ in range(limit - 1):
        new = [row[-1]]
        for x in row:
            new.append(new[-1] + x)
        row = new
        out.append(row[-1])
    return out


def reference_max_matching(adjacency: list[set[int]]) -> int:
    """Maximum bipartite matching size by plain augmenting paths.

    Processes left vertices in index order and never gives up early;
    deliberately shares no code with the package matcher.
    """
    match_user: dict[int, int] = {}

    def try_augment(i: int, seen: set[int]) -> bool:
        for u in sorted(adjacency[i]):
            if u in seen:
                continue
            seen.add(u)
            if u not in match_user or try_augment(match_user[u], seen):
                match_user[u] = i
                return True
        return False

    return sum(1 for i in range(len(adjacency)) if try_augment(i, set()))


def all_complete_plans(instance: WorkflowInstance):
    """Every plan step->user, in odometer order."""
    k, n = instance.step_count, instance.user_count
    for combo in itertools.product(range(n), repeat=k):
        yield dict(enumerate(combo))


def valid_plans(instance: WorkflowInstance) -> list[dict[int, int]]:
    return [
        p for p in all_complete_plans(instance) if isinstance(validate_plan(instance, p), Valid)
    ]


def authorised_patterns(instance: WorkflowInstance) -> set[tuple[int, ...]]:
    """Canonical patterns of all fully authorised plans (constraints ignored)."""
    step_users = instance.auth.step_users
    out = set()
    for plan in all_complete_plans(instance):
        if all(u in step_users[s] for s, u in plan.items()):
            out.add(encode(plan, instance.step_count))
    return out


# --- hypothesis strategies --------------------------------------------------


@st.composite
def constraints_for(draw, k: int):
    kinds = ["ne", "bd", "atmost", "atleast"]
    kind = draw(st.sampled_from(kinds))
    if kind in ("ne", "bd"):
        s = draw(st.integers(0, k - 1))
        t = draw(st.integers(0, k - 1).filter(lambda x: x != s))
        return NotEquals(s, t) if kind == "ne" else BindingOfDuty(s, t)
    scope = frozenset(
        draw(st.sets(st.integers(0, k - 1), min_size=2, max_size=min(k, 5)))
    )
    r = draw(st.integers(1, len(scope)))
    return AtMost(r, scope) if kind == "atmost" else AtLeast(r, scope)


@st.composite
def instances(
    draw,
    max_steps: int = 5,
    max_users: int = 6,
    allow_bod: bool = True,
    max_constraints: int = 6,
):
    k = draw(st.integers(1, max_steps))
    n = draw(st.integers(1, max_users))
    auth = [
        draw(st.frozensets(st.integers(0, k - 1), max_size=k)) for _ in range(n)
    ]
    constraints = []
    if k >= 2:
        count = draw(st.integers(0, max_constraints))
        for _ in range(count):
            c = draw(constraints_for(k))
            if not allow_bod and isinstance(c, BindingOfDuty):
                continue
            constraints.append(c)
    return WorkflowInstance(
        k, n, AuthorisationLists.from_user_steps(k, auth), tuple(constraints)
    )


@st.composite
def complete_plans(draw, instance: WorkflowInstance):
    return {
        s: draw(st.integers(0, instance.user_count - 1))
        for s in range(instance.step_count)
    }
