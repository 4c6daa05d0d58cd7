"""Core data model: workflow instances, plans, file formats, preprocessing.

An instance is a set of steps ``0..k-1``, a set of users ``0..n-1``, an
authorisation relation (which users may perform which steps), and a list
of constraints.  A plan maps steps to users; it is valid when every step
is assigned an authorised user and no constraint is violated.

Instance file format (UTF-8, line oriented, ``#`` starts a comment):

    wsp <k> <n>
    auth <user> <step>...      one line per user, steps may be empty
    ne <s> <t>                 different users on s and t
    bd <s> <t>                 same user on s and t
    atmost <r> <s1> ... <sm>   at most r distinct users on the scope
    atleast <r> <s1> ... <sm>  at least r distinct users on the scope

Solution file format: ``sat`` followed by one ``assign <step> <user>``
line per step, or a single ``unsat`` / ``timeout`` line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .constraints import (
    AtLeast,
    AtMost,
    BindingOfDuty,
    Never,
    NotEquals,
    UserIndependentConstraint,
)

StepId = int
UserId = int

# A plan maps step index -> user index; partial plans simply omit steps.
Plan = dict[StepId, UserId]


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


@dataclass(frozen=True)
class AuthorisationLists:
    """Authorisation relation: one bitmask over users per step.

    Bit u of ``step_user_masks[s]`` is set when user u may perform step
    s.  The masks are the relation; the search, the matcher, plan
    validation and preprocessing all read them.  ``step_users`` and
    ``user_steps`` are set views computed from the masks on every
    access, so a caller in a loop should read them once.
    """

    user_count: int
    step_user_masks: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.user_count
        for mask in self.step_user_masks:
            if not (isinstance(mask, int) and mask >= 0 and mask.bit_length() <= n):
                raise ValueError(f"{mask!r} is not a mask over {n} users")

    @property
    def step_users(self) -> tuple[frozenset[UserId], ...]:
        return tuple(frozenset(_bits(m)) for m in self.step_user_masks)

    @property
    def user_steps(self) -> tuple[frozenset[StepId], ...]:
        return tuple(map(frozenset, self._user_step_lists()))

    def _user_step_lists(self) -> list[list[StepId]]:
        """Each user's steps in ascending order, from one pass over the masks."""
        steps_of: list[list[StepId]] = [[] for _ in range(self.user_count)]
        for s, mask in enumerate(self.step_user_masks):
            for u in _bits(mask):
                steps_of[u].append(s)
        return steps_of

    @classmethod
    def from_user_steps(
        cls, step_count: int, user_steps: Iterable[Iterable[StepId]]
    ) -> "AuthorisationLists":
        by_user = list(user_steps)
        masks = [0] * step_count
        for u, steps in enumerate(by_user):
            bit = 1 << u
            for s in steps:
                if not 0 <= s < step_count:
                    raise ValueError(f"step index {s} out of range")
                masks[s] |= bit
        return cls(len(by_user), tuple(masks))

    @classmethod
    def from_step_users(
        cls, user_count: int, step_users: Iterable[Iterable[UserId]]
    ) -> "AuthorisationLists":
        masks = []
        for users in step_users:
            mask = 0
            for u in users:
                if not 0 <= u < user_count:
                    raise ValueError(f"user index {u} out of range")
                mask |= 1 << u
            masks.append(mask)
        return cls(user_count, tuple(masks))


@dataclass(frozen=True)
class WorkflowInstance:
    step_count: int
    user_count: int
    auth: AuthorisationLists
    constraints: tuple[UserIndependentConstraint, ...]

    def __post_init__(self) -> None:
        if self.step_count < 1 or self.user_count < 1:
            raise ValueError("need at least one step and one user")
        if self.auth.user_count != self.user_count:
            raise ValueError("authorisation lists disagree with user count")
        if len(self.auth.step_user_masks) != self.step_count:
            raise ValueError("authorisation lists disagree with step count")
        for c in self.constraints:
            for s in c.scope:
                if not 0 <= s < self.step_count:
                    raise ValueError(f"constraint scope step {s} out of range")


# --- plan validation -------------------------------------------------------


@dataclass(frozen=True)
class Valid:
    pass


@dataclass(frozen=True)
class NotAuthorised:
    step: StepId


@dataclass(frozen=True)
class Violates:
    constraint: UserIndependentConstraint


PlanVerdict = Valid | NotAuthorised | Violates


def validate_plan(instance: WorkflowInstance, plan: Mapping[StepId, UserId]) -> PlanVerdict:
    """Check a complete plan; reports the first failure found.

    Authorisation is checked step by step in index order, then the
    constraints in instance order.  Incomplete plans are rejected.
    """
    if len(plan) != instance.step_count:
        raise ValueError("plan is incomplete")
    masks = instance.auth.step_user_masks
    for s in range(instance.step_count):
        u = plan.get(s)
        if u is None:
            raise ValueError("plan is incomplete")
        if not 0 <= u < instance.user_count:
            raise ValueError(f"user index {u} out of range")
        if not masks[s] >> u & 1:
            return NotAuthorised(s)
    for c in instance.constraints:
        if not c.satisfied_by(plan):
            return Violates(c)
    return Valid()


# --- solver outcome types --------------------------------------------------


@dataclass
class SearchStats:
    """Counters and timing reported by a solver run."""

    nodes: int = 0
    auth_prunes: int = 0
    eligibility_prunes: int = 0
    matching_prunes: int = 0
    matchings: int = 0
    matchings_full: int = 0
    wall_time: float = 0.0

    @property
    def prunes(self) -> int:
        return self.auth_prunes + self.eligibility_prunes + self.matching_prunes


SAT = "sat"
UNSAT = "unsat"
TIMEOUT = "timeout"


@dataclass(frozen=True)
class SolveOutcome:
    status: str  # one of SAT, UNSAT, TIMEOUT
    plan: Plan | None
    stats: SearchStats

    @property
    def is_sat(self) -> bool:
        return self.status == SAT


# --- instance file format --------------------------------------------------


class ParseError(ValueError):
    """Input file error, carrying the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _parse_int(tok: str, line_no: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(line_no, f"expected an integer {what}, got {tok!r}") from None


def parse_instance(text: str) -> WorkflowInstance:
    """Parse the instance file format; raises ParseError with a line number."""
    step_count = user_count = header_line = -1
    steps_of: dict[UserId, list[StepId]] = {}
    constraints: list[UserIndependentConstraint] = []

    def check_step(value: int, line_no: int) -> int:
        if not 0 <= value < step_count:
            raise ParseError(line_no, f"step index {value} out of range 0..{step_count - 1}")
        return value

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        tag, args = toks[0], toks[1:]
        if tag == "wsp":
            if step_count != -1:
                raise ParseError(line_no, "duplicate header")
            if len(args) != 2:
                raise ParseError(line_no, "header must be: wsp <steps> <users>")
            step_count = _parse_int(args[0], line_no, "step count")
            user_count = _parse_int(args[1], line_no, "user count")
            header_line = line_no
            if step_count < 1 or user_count < 1:
                raise ParseError(line_no, "step and user counts must be positive")
            continue
        if step_count == -1:
            raise ParseError(line_no, "expected the wsp header first")
        if tag == "auth":
            if not args:
                raise ParseError(line_no, "auth line needs a user index")
            u = _parse_int(args[0], line_no, "user index")
            if not 0 <= u < user_count:
                raise ParseError(line_no, f"user index {u} out of range 0..{user_count - 1}")
            if u in steps_of:
                raise ParseError(line_no, f"duplicate auth line for user {u}")
            steps_of[u] = [check_step(_parse_int(t, line_no, "step index"), line_no) for t in args[1:]]
        elif tag in ("ne", "bd"):
            if len(args) != 2:
                raise ParseError(line_no, f"{tag} needs exactly two step indices")
            s = check_step(_parse_int(args[0], line_no, "step index"), line_no)
            t = check_step(_parse_int(args[1], line_no, "step index"), line_no)
            try:
                constraints.append(NotEquals(s, t) if tag == "ne" else BindingOfDuty(s, t))
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from None
        elif tag in ("atmost", "atleast"):
            if len(args) < 3:
                raise ParseError(line_no, f"{tag} needs a bound and at least two steps")
            r = _parse_int(args[0], line_no, "bound")
            scope = frozenset(
                check_step(_parse_int(t, line_no, "step index"), line_no) for t in args[1:]
            )
            try:
                constraints.append(AtMost(r, scope) if tag == "atmost" else AtLeast(r, scope))
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from None
        else:
            raise ParseError(line_no, f"unknown tag {tag!r}")

    if step_count == -1:
        raise ParseError(1, "missing wsp header")
    # Checked before any mask is built: user u's bit costs memory up to u.
    if len(steps_of) < user_count:
        missing = next(u for u in range(user_count) if u not in steps_of)
        raise ParseError(len(text.splitlines()) or 1, f"missing auth line for user {missing}")
    try:
        auth = AuthorisationLists.from_user_steps(step_count, (steps_of[u] for u in range(user_count)))
    except (MemoryError, OverflowError):
        # One mask per step: the steps need no line of their own, so only
        # the allocation can tell that the count is too large.
        raise ParseError(header_line, f"step count {step_count} is too large") from None
    return WorkflowInstance(step_count, user_count, auth, tuple(constraints))


def serialize_instance(instance: WorkflowInstance) -> str:
    """Inverse of parse_instance: parse(serialize(x)) == x field for field."""
    out = [f"wsp {instance.step_count} {instance.user_count}"]
    for u, steps in enumerate(instance.auth._user_step_lists()):
        out.append(" ".join(["auth", str(u), *map(str, steps)]))
    for c in instance.constraints:
        if isinstance(c, NotEquals):
            out.append(f"ne {c.s} {c.t}")
        elif isinstance(c, BindingOfDuty):
            out.append(f"bd {c.s} {c.t}")
        elif isinstance(c, AtMost):
            out.append(" ".join(["atmost", str(c.r), *map(str, sorted(c.scope))]))
        elif isinstance(c, AtLeast):
            out.append(" ".join(["atleast", str(c.r), *map(str, sorted(c.scope))]))
        else:
            raise ValueError(f"constraint {c!r} has no file format tag")
    return "\n".join(out) + "\n"


# --- solution file format ---------------------------------------------------


def format_solution(status: str, plan: Mapping[StepId, UserId] | None) -> str:
    if status == SAT:
        if plan is None:
            raise ValueError("sat solution needs a plan")
        lines = ["sat"] + [f"assign {s} {plan[s]}" for s in sorted(plan)]
        return "\n".join(lines) + "\n"
    if status in (UNSAT, TIMEOUT):
        return status + "\n"
    raise ValueError(f"unknown status {status!r}")


def parse_solution(text: str) -> tuple[str, Plan | None]:
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError("empty solution")
    head = lines[0]
    if head in (UNSAT, TIMEOUT):
        return head, None
    if head != SAT:
        raise ValueError(f"unknown solution status {head!r}")
    plan: Plan = {}
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 3 or toks[0] != "assign":
            raise ValueError(f"bad assign line {ln!r}")
        plan[int(toks[1])] = int(toks[2])
    return SAT, plan


# --- preprocessing ----------------------------------------------------------


@dataclass(frozen=True)
class PreprocessResult:
    """Outcome of binding-of-duty elimination.

    ``instance`` has one step per merged equivalence class and no
    binding-of-duty constraints.  ``step_map[s]`` gives the new index of
    original step s, so the original steps merged into new step x are
    those s with ``step_map[s] == x``.  ``expand_plan`` lifts a plan on
    the merged instance back to the original steps.
    """

    instance: WorkflowInstance
    step_map: tuple[int, ...]

    def expand_plan(self, plan: Mapping[int, int]) -> Plan:
        return {
            s: plan[x]
            for s, x in enumerate(self.step_map)
            if x in plan
        }


def preprocess(instance: WorkflowInstance) -> PreprocessResult:
    """Eliminate binding-of-duty constraints by merging their steps.

    Steps connected by binding-of-duty are merged into one step whose
    authorised users are the intersection over the class (possibly
    empty, which simply makes the instance unsatisfiable).  Remaining
    constraints are rewritten onto the merged steps; rewritten
    constraints that become trivially true are dropped, ones that become
    unsatisfiable are replaced by a contradiction marker, and exact
    duplicates are removed.  Returns the original instance object
    unchanged when nothing merges and nothing is rewritten.
    """
    k = instance.step_count

    parent = list(range(k))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for c in instance.constraints:
        if isinstance(c, BindingOfDuty):
            ra, rb = find(c.s), find(c.t)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

    # A class's root is its smallest member, so an ascending pass numbers
    # the classes by smallest member and meets each root before the rest.
    masks = instance.auth.step_user_masks
    new_index: list[int] = []
    merged_masks: list[int] = []
    for s in range(k):
        root = find(s)
        if root == s:
            new_index.append(len(merged_masks))
            merged_masks.append(masks[s])
        else:
            new_index.append(new_index[root])
            merged_masks[new_index[root]] &= masks[s]
    step_map = tuple(new_index)

    rewritten: list[UserIndependentConstraint] = []
    seen: set = set()

    def emit(c: UserIndependentConstraint, key: object) -> None:
        if key not in seen:
            seen.add(key)
            rewritten.append(c)

    for c in instance.constraints:
        if isinstance(c, BindingOfDuty):
            continue  # realised by the merge itself
        if isinstance(c, NotEquals):
            s, t = step_map[c.s], step_map[c.t]
            if s == t:
                emit(
                    Never(frozenset((s,)), "not-equals pair merged into one step"),
                    ("never-ne", s),
                )
            else:
                emit(NotEquals(s, t), ("ne", frozenset((s, t))))
        elif isinstance(c, AtMost):
            scope = frozenset(step_map[q] for q in c.scope)
            if scope == c.scope:
                emit(c, ("atmost", c.r, scope))
            elif len(scope) > c.r:
                # Scope shrank or shifted; rewritten bounds that can no
                # longer be exceeded are dropped.
                emit(AtMost(c.r, scope), ("atmost", c.r, scope))
        elif isinstance(c, AtLeast):
            scope = frozenset(step_map[q] for q in c.scope)
            if scope == c.scope:
                emit(c, ("atleast", c.r, scope))
            elif c.r > len(scope):
                emit(
                    Never(scope, "at-least bound exceeds merged scope"),
                    ("never-atleast", c.r, scope),
                )
            elif c.r > 1:
                emit(AtLeast(c.r, scope), ("atleast", c.r, scope))
        elif isinstance(c, Never):
            scope = frozenset(step_map[q] for q in c.scope)
            emit(c if scope == c.scope else Never(scope, c.reason), ("never", scope))
        else:
            scope = frozenset(step_map[q] for q in c.scope)
            if scope != c.scope:
                raise ValueError(
                    f"cannot rewrite custom constraint {c!r} across merged steps"
                )
            emit(c, ("other", c))

    new_constraints = tuple(rewritten)
    if len(merged_masks) == k and new_constraints == instance.constraints:
        return PreprocessResult(instance, step_map)

    auth = AuthorisationLists(instance.user_count, tuple(merged_masks))
    merged = WorkflowInstance(len(merged_masks), instance.user_count, auth, new_constraints)
    return PreprocessResult(merged, step_map)
