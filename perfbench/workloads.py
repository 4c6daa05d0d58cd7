"""The benchmark's workloads: instance texts generated from a seed.

Each workload is a list of ``(instance id, instance text)`` pairs.  The
texts are what the solver is timed on: the timed region starts from the
text, so parsing is part of what a user waits for.

Every workload draws a fixed set of generator instances (the paper's
suite uses generator seeds 0..9) and the benchmark's ``--seed`` renames
their users and reorders their constraint lines.  Constraints are
user-independent, so renaming users changes neither the verdict nor the
pattern search: node and prune counts, leaf matchings and pattern
counts are the same under every seed, and only the witnesses' user ids
differ.  Shifting the generator seeds instead would make the work
itself change from seed to seed: one paper-suite seed takes 0.5 s and
another 4 s, more than the run-to-run bound allows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from wspsolve import (
    GeneratorConfig,
    NotEquals,
    SplitMix64,
    density_to_e,
    generate,
    serialize_instance,
)

# Salts for the benchmark's own draws, so they do not repeat the
# generator's stream for the same seed.
_RENAME_SALT = 0x5EED_0E1A
_BD_SALT = 0x5EED_B1D0


@dataclass(frozen=True)
class Workload:
    """``build(seed, scale)`` returns the instance texts; ``scale`` above 1
    shrinks the workload for the harness self-test."""

    name: str
    enumerate: bool
    build: Callable[[int, int], list[tuple[str, str]]]


def renamed(text: str, seed: int) -> str:
    """The same instance text with users renamed and constraint lines shuffled."""
    rng = SplitMix64(seed ^ _RENAME_SALT)
    header, *lines = text.splitlines()
    auth = [line.split(" ", 2) for line in lines if line.startswith("auth ")]
    rest = [line for line in lines if not line.startswith("auth ")]
    new_name = rng.take(list(range(len(auth))), len(auth))
    for parts in auth:
        parts[1] = str(new_name[int(parts[1])])
    rest = rng.take(rest, len(rest))
    return "\n".join([header, *map(" ".join, auth), *rest]) + "\n"


def _paper_k30(seed: int, scale: int) -> list[tuple[str, str]]:
    # The paper's suite k=30 d=10 c=1.0k,1.2k,1.4k, ten instance seeds.
    e = density_to_e(30, 10)
    out = []
    for s in range(max(1, 10 // scale)):
        for c in (30, 36, 42):
            text = serialize_instance(generate(GeneratorConfig(30, e, c, s)))
            out.append((f"k30-c{c}-s{s}", renamed(text, seed)))
    return out


def _scarce_users(seed: int, scale: int) -> list[tuple[str, str]]:
    # Seeds in which some step has no authorised user are decided before
    # the search starts, so they are skipped rather than counted.
    e = density_to_e(16, 40)
    want = max(1, 20 // scale)
    out = []
    s = 0
    while len(out) < want:
        inst = generate(GeneratorConfig(16, e, 0, s, users=9))
        if all(inst.auth.step_users):
            out.append((f"k16-u9-s{s}", renamed(serialize_instance(inst), seed)))
        s += 1
    return out


def _enumerate(seed: int, scale: int) -> list[tuple[str, str]]:
    k = 12 if scale == 1 else 8
    e = density_to_e(k, 20)
    return [
        (f"k{k}-u24-s{s}",
         renamed(serialize_instance(generate(GeneratorConfig(k, e, 0, s, users=24))), seed))
        for s in range(3)
    ]


def bd_pairs(instance, seed: int, count: int) -> list[tuple[int, int]]:
    """``count`` disjoint step pairs that are not already not-equals pairs."""
    rng = SplitMix64(seed ^ _BD_SALT)
    ne = {frozenset((c.s, c.t)) for c in instance.constraints if isinstance(c, NotEquals)}
    free = list(range(instance.step_count))
    pairs: list[tuple[int, int]] = []
    while len(pairs) < count:
        a, b = rng.take(free, 2)
        if frozenset((a, b)) in ne:
            continue
        pairs.append((min(a, b), max(a, b)))
        free.remove(a)
        free.remove(b)
    return pairs


def _wide_users(seed: int, scale: int) -> list[tuple[str, str]]:
    # Five disjoint binding-of-duty pairs make preprocessing merge
    # 30 steps into 25 and rebuild every user's authorisation list.
    e = density_to_e(30, 10)
    users = 20000 // scale
    out = []
    for s in range(max(1, 10 // scale)):
        inst = generate(GeneratorConfig(30, e, 30, s, users=users))
        bd = "".join(f"bd {a} {b}\n" for a, b in bd_pairs(inst, s, 5))
        out.append((f"k30-u{users}-s{s}", renamed(serialize_instance(inst) + bd, seed)))
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-k30", False, _paper_k30),
        Workload("scarce-users", False, _scarce_users),
        Workload("enumerate", True, _enumerate),
        Workload("wide-users", False, _wide_users),
    )
}
