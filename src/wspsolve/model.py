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

Reading and writing are both linear in the size of the file, with one
kernel each way between the per-step user masks and the per-user rows.
Each auth line becomes its user's row, a bitmask over the steps; the
rows are laid out as one byte grid, and ``_columns`` reads each step's
user mask off the grid with a few C calls.  OR-ing each user's bit into
its steps' masks would copy an n-bit int per entry, quadratic in the
user count n.  ``AuthorisationLists.from_user_steps`` builds the same
grid from its step lists.  The writer's ``_rows`` is the inverse: it
spreads each step's mask, one bit per byte, into a strided slice of one
n-by-k cell grid and slices each user's row off it, so
``serialize_instance`` and the ``user_steps`` view never walk a mask
bit by bit.

A common auth line, its steps distinct and below 64, costs one
``str.split``, one ``int`` and one C-level ``sum`` of the steps' bits,
with no Python work per token.  A repeated step makes the sum carry, so
the row is kept only when its count of set bits equals the count of
steps; any other auth line is read token by token.  A comment is split
off each line only when the file has a ``#``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator, Mapping, Sequence

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


# Map a cell byte, 0 or 1, to its ASCII digit, and back.
_CELL_DIGITS = bytes.maketrans(b"\0\1", b"01")
_DIGIT_CELLS = bytes.maketrans(b"01", b"\0\1")


def _from_cells(cells: bytearray) -> int:
    """The number whose bit i is ``cells[i]``, each cell 0 or 1.

    Filling a cell is one byte store, where OR-ing ``1 << i`` into an
    int would copy the whole number; the cells are then read as binary
    digits by C calls linear in their count.
    """
    return int(cells.translate(_CELL_DIGITS)[::-1] or b"0", 2)


def _cells(mask: int) -> bytes:
    """The inverse of ``_from_cells``: byte i is bit i of ``mask``, up to
    its highest set bit (one 0 byte for 0)."""
    return bin(mask)[:1:-1].encode().translate(_DIGIT_CELLS)


def _mask(indices: Iterable[int], limit: int, what: str) -> int:
    """The bitmask with bit i set for each i in ``indices``, in time linear
    in the count plus the largest index.  Raises ValueError, naming
    ``what``, for the first index outside ``0..limit-1``."""
    indices = list(indices)
    if indices and (min(indices) < 0 or max(indices) >= limit):
        bad = next(i for i in indices if not 0 <= i < limit)
        raise ValueError(f"{what} index {bad} out of range")
    cells = bytearray(max(indices, default=0) + 1)
    for i in indices:
        cells[i] = 1
    return _from_cells(cells)


# _DIGITS[j] maps each byte to the ASCII digit of its bit j.
_DIGITS = tuple(bytes(0x30 | b >> j & 1 for b in range(256)) for j in range(8))


def _columns(grid: bytes, width: int) -> list[int]:
    """The column masks of a bit matrix held as a byte grid.

    Row r of the matrix is the little-endian number in bytes
    ``[r * w, (r + 1) * w)`` of ``grid``, with ``w = ceil(width / 8)``.
    Bit r of the returned column c is bit c of row r.  The strided slice
    ``grid[c >> 3 :: w]`` holds column c's byte of every row; reversed,
    translated to the ASCII digits of bit ``c & 7`` and read in base 2,
    it is the column.  That is a few C calls over one byte per row for
    each column, so the time is linear in the grid's size.  Equal byte
    slices, common when there are far more columns than rows, are
    converted once.
    """
    if not grid:
        return [0] * width
    w = (width + 7) >> 3
    masks: list[int] = []
    seen: dict[bytes, list[int]] = {}
    for j in range(w):
        column = grid[j::w][::-1]
        eight = seen.get(column)
        if eight is None:
            eight = seen[column] = [int(column.translate(t), 2) for t in _DIGITS]
        masks += eight
    del masks[width:]
    return masks


def _rows(columns: Sequence[int], height: int) -> Iterator[bytearray]:
    """The rows of the bit matrix whose column c is ``columns[c]``, the
    inverse of ``_columns``.

    Byte c of row r is bit r of column c.  Each column's bits, spread
    one to a byte by ``_cells``, fill a strided slice of one
    ``height * width`` cell grid, and each row is then a slice of the
    grid: a few C calls per column and one per row, linear in the
    grid's size.  Every column needs at most ``height`` bits.  The rows
    are sliced off as the caller reads them.
    """
    width = len(columns)
    grid = bytearray(height * width)
    for c, mask in enumerate(columns):
        if mask:
            cells = _cells(mask)
            grid[c : len(cells) * width : width] = cells
    return (grid[r * width : (r + 1) * width] for r in range(height))


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
        users = range(self.user_count)
        return tuple(frozenset(compress(users, _cells(m))) for m in self.step_user_masks)

    @property
    def user_steps(self) -> tuple[frozenset[StepId], ...]:
        steps = range(len(self.step_user_masks))
        return tuple(
            frozenset(compress(steps, row))
            for row in _rows(self.step_user_masks, self.user_count)
        )

    @classmethod
    def from_user_steps(
        cls, step_count: int, user_steps: Iterable[Iterable[StepId]]
    ) -> "AuthorisationLists":
        by_user = list(user_steps)
        w = (step_count + 7) >> 3
        # One cell per bit of the byte grid that _columns reads: user u's
        # row holds 8 * w cells, step s at cell s.
        cells = bytearray(len(by_user) * 8 * w)
        for u, steps in enumerate(by_user):
            base = u * 8 * w
            for s in steps:
                if not 0 <= s < step_count:
                    raise ValueError(f"step index {s} out of range")
                cells[base + s] = 1
        grid = _from_cells(cells).to_bytes(len(by_user) * w, "little")
        return cls(len(by_user), tuple(_columns(grid, step_count)))

    @classmethod
    def from_step_users(
        cls, user_count: int, step_users: Iterable[Iterable[UserId]]
    ) -> "AuthorisationLists":
        return cls(user_count, tuple(_mask(users, user_count, "user") for users in step_users))


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
    """Counters and timing reported by a solver run.

    nodes: search nodes, the root and each label that passes the prunes,
        the last step's too, which is decided at the leaf without an extension.
    auth_prunes: extensions cut as no user may do every step of the block.
    eligibility_prunes: extensions cut as some constraint cannot be met.
    forward_prunes: extensions cut as some unassigned step has no label left.
    matching_prunes: extensions cut as no matching covers all the blocks.
    matchings: leaves decided by a matching; with the prunes on, each one succeeds.
    matchings_full: leaf matchings that cover every block, one per pattern found.
    processes: processes that searched, 2 when ``solve`` or
        ``solve_enumerating`` split its search over a helper process.  It
        depends on timing; the counters above are those of the
        one-process walk either way, unless the search timed out.
    wall_time: seconds the run took.
    """

    nodes: int = 0
    auth_prunes: int = 0
    eligibility_prunes: int = 0
    forward_prunes: int = 0
    matching_prunes: int = 0
    matchings: int = 0
    matchings_full: int = 0
    processes: int = 1
    wall_time: float = 0.0

    @property
    def prunes(self) -> int:
        return (
            self.auth_prunes + self.eligibility_prunes + self.forward_prunes + self.matching_prunes
        )


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


# 1 << s under the decimal token of each step s below 64.  An auth line
# of these tokens needs no Python work per token; the bits of larger
# steps would cost O(k) each to hold and to add.
_STEP_BIT = {str(s): 1 << s for s in range(64)}


def parse_instance(text: str) -> WorkflowInstance:
    """Parse the instance file format; raises ParseError with a line number."""
    step_count = user_count = header_line = -1
    # Each user's steps as a bitmask (its row), or, for a line read token
    # by token, as a list, whose row is built once every line is read:
    # its size is bounded only by the step count.
    row_of: dict[UserId, int | list[StepId]] = {}
    constraints: list[UserIndependentConstraint] = []

    def check_step(value: int, line_no: int) -> int:
        if not 0 <= value < step_count:
            raise ParseError(line_no, f"step index {value} out of range 0..{step_count - 1}")
        return value

    # A comment is split off only in a file that has one; str.split()
    # skips the line's leading and trailing whitespace itself.
    comments = "#" in text
    for line_no, line in enumerate(text.splitlines(), start=1):
        if comments:
            line = line.split("#", 1)[0]
        toks = line.split()
        if not toks:
            continue
        tag = toks[0]
        if tag == "auth":
            # Fast path: the user new and in range, each step a distinct
            # decimal token below 64 and below the step count.  A repeated
            # step makes the sum carry, which the bit count catches.
            try:
                u = int(toks[1])
                row = sum(map(_STEP_BIT.__getitem__, toks[2:]))
            except (IndexError, KeyError, ValueError):
                pass
            else:
                if (
                    0 <= u < user_count
                    and u not in row_of
                    and row.bit_length() <= step_count
                    and row.bit_count() == len(toks) - 2
                ):
                    row_of[u] = row
                    continue
        args = toks[1:]
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
            # Token by token, to report the first error or to set a
            # repeated step's bit once.
            if not args:
                raise ParseError(line_no, "auth line needs a user index")
            u = _parse_int(args[0], line_no, "user index")
            if not 0 <= u < user_count:
                raise ParseError(line_no, f"user index {u} out of range 0..{user_count - 1}")
            if u in row_of:
                raise ParseError(line_no, f"duplicate auth line for user {u}")
            row_of[u] = [check_step(_parse_int(t, line_no, "step index"), line_no) for t in args[1:]]
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
    if len(row_of) < user_count:
        missing = next(u for u in range(user_count) if u not in row_of)
        raise ParseError(len(text.splitlines()) or 1, f"missing auth line for user {missing}")
    try:
        w = (step_count + 7) >> 3
        grid = b"".join([
            (r if isinstance(r, int) else _mask(r, step_count, "step")).to_bytes(w, "little")
            for r in map(row_of.__getitem__, range(user_count))
        ])
        auth = AuthorisationLists(user_count, tuple(_columns(grid, step_count)))
    except (MemoryError, OverflowError):
        # One mask per step: the steps need no line of their own, so only
        # the allocation can tell that the count is too large.
        raise ParseError(header_line, f"step count {step_count} is too large") from None
    return WorkflowInstance(step_count, user_count, auth, tuple(constraints))


def serialize_instance(instance: WorkflowInstance) -> str:
    """Inverse of parse_instance: parse(serialize(x)) == x field for field."""
    out = [f"wsp {instance.step_count} {instance.user_count}"]
    names = list(map(str, range(instance.step_count)))
    for u, row in enumerate(_rows(instance.auth.step_user_masks, instance.user_count)):
        out.append(" ".join(["auth", str(u), *compress(names, row)]))
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
        step, user = int(toks[1]), int(toks[2])
        if step < 0 or user < 0:
            raise ValueError(f"negative step or user in line {ln!r}")
        if step in plan:
            raise ValueError(f"step {step} assigned twice, again in line {ln!r}")
        plan[step] = user
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
        if self.instance.step_count == len(self.step_map):
            return dict(plan)  # nothing merged: step_map is the identity
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
