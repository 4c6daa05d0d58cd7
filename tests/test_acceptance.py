"""Acceptance gate: seven end-to-end criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Budgets are wall-clock seconds on commodity hardware and deliberately
generous; the point is catching order-of-magnitude regressions.
"""

from __future__ import annotations

import random
import time

import pytest

from conftest import (
    GOLDEN_TEXT,
    authorised_patterns,
    bell_numbers,
    reference_max_matching,
)
from wspsolve import (
    SAT,
    TIMEOUT,
    AuthorisationLists,
    GeneratorConfig,
    Valid,
    WorkflowInstance,
    density_to_e,
    encode,
    generate,
    match_blocks,
    oracle_solve,
    parse_instance,
    preprocess,
    solve,
    solve_enumerating,
    validate_plan,
)


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {tag}: {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


# --- shared corpora -----------------------------------------------------------

#: Verification corpus: every cell small enough for the exhaustive
#: oracle, covering all densities and both counting-constraint levels.
#: User counts shrink as k grows to keep users**k enumerable.
CORPUS_USERS = {3: 30, 4: 15, 5: 10, 6: 6, 7: 4}


def corpus_configs() -> list[GeneratorConfig]:
    cells = []
    for k in (3, 4, 5, 6, 7):
        for d in (0, 10, 30):
            for c in (0,) if k < 5 else (0, k):
                cells.append((k, d, c))
    assert len(cells) == 24
    configs = [
        GeneratorConfig(k, density_to_e(k, d), c, seed, users=CORPUS_USERS[k])
        for seed in range(8)
        for (k, d, c) in cells
    ]
    configs += [
        GeneratorConfig(k, density_to_e(k, d), c, 8, users=CORPUS_USERS[k])
        for (k, d, c) in cells[:8]
    ]
    assert len(configs) == 200
    return configs


@pytest.fixture(scope="module")
def corpus_results():
    """Solve the 200-instance corpus once; reused by criteria 2 and 6."""
    start = time.perf_counter()
    entries = []
    for config in corpus_configs():
        instance = generate(config)
        pre = preprocess(instance)
        entries.append((config, instance, pre, solve(pre.instance)))
    return entries, time.perf_counter() - start


SUITE_CONFIGS = [
    GeneratorConfig(30, density_to_e(30, 10), c, seed)
    for seed in range(10)
    for c in (30, 36, 42)
]


def run_suite():
    return [
        (config, solve(preprocess(generate(config)).instance, time_limit=60.0))
        for config in SUITE_CONFIGS
    ]


@pytest.fixture(scope="module")
def suite_results():
    """Solve the 30-instance stress suite once; reused by criteria 5 and 7."""
    start = time.perf_counter()
    outcomes = run_suite()
    return outcomes, time.perf_counter() - start


# --- criteria -----------------------------------------------------------------


def test_criterion_1_golden_example():
    start = time.perf_counter()
    instance = parse_instance(GOLDEN_TEXT)
    pre = preprocess(instance)
    outcome = solve(pre.instance)
    expanded = pre.expand_plan(outcome.plan) if outcome.plan else None
    ref = oracle_solve(instance)
    elapsed = time.perf_counter() - start
    ok = (
        outcome.status == SAT
        and expanded is not None
        and validate_plan(instance, expanded) == Valid()
        and ref.valid_patterns == ((1, 1, 2, 3),)
        and encode(expanded, instance.step_count) in ref.valid_patterns
        and elapsed < 1.0
    )
    _report(
        1,
        "golden example solves, validates and matches the oracle in under 1s",
        ok,
        f"{elapsed * 1000:.0f} ms",
    )


def test_criterion_2_solver_matches_oracle_on_200_instances(corpus_results):
    entries, elapsed = corpus_results
    start = time.perf_counter()
    failures = []
    sat = 0
    for config, instance, pre, outcome in entries:
        ref = oracle_solve(instance)
        if outcome.status != ref.status:
            failures.append(f"{config}: solver {outcome.status} vs oracle {ref.status}")
            continue
        if outcome.status == SAT:
            sat += 1
            expanded = pre.expand_plan(outcome.plan)
            if validate_plan(instance, expanded) != Valid():
                failures.append(f"{config}: witness does not validate")
    elapsed += time.perf_counter() - start
    detail = (
        "; ".join(failures[:3])
        if failures
        else f"200 instances, {sat} sat / {200 - sat} unsat, {elapsed:.1f}s"
    )
    _report(
        2,
        "verdicts and witnesses agree with the exhaustive oracle"
        " across 200 generated instances in under 5 minutes",
        not failures and elapsed < 300,
        detail,
    )


def test_criterion_3_enumeration_counts_are_bell_numbers():
    start = time.perf_counter()
    bells = bell_numbers(8)
    failures = []
    for k in range(1, 9):
        # k steps that k users may all perform, and no constraint: every
        # complete pattern is realisable, so without prunes the search
        # walks the whole pattern space and matches every leaf.
        everyone = [frozenset(range(k))] * k
        inst = WorkflowInstance(
            k, k, AuthorisationLists.from_step_users(k, everyone), ()
        )
        out = solve_enumerating(inst, prune=False)
        if out.count != bells[k - 1]:
            failures.append(f"k={k}: {out.count} != {bells[k - 1]}")
        if out.stats.nodes > 2 * bells[k - 1]:
            failures.append(f"k={k}: {out.stats.nodes} nodes > 2*B_k")
        if out.stats.matchings != bells[k - 1]:
            failures.append(f"k={k}: {out.stats.matchings} leaf matchings")
    elapsed = time.perf_counter() - start
    _report(
        3,
        "complete-pattern counts equal the Bell numbers for k=1..8"
        " within twice B_k nodes, in under 10s",
        not failures and elapsed < 10,
        "; ".join(failures) if failures else f"B_8={bells[-1]}, {elapsed:.2f}s",
    )


def test_criterion_4_matching_is_trustworthy():
    start = time.perf_counter()
    failures = []

    # Against an independent maximum-matching implementation.
    rnd = random.Random(0xB1507)
    for i in range(1000):
        k = rnd.randint(1, 10)
        n = rnd.randint(1, 100)
        adjacency = tuple(rnd.getrandbits(n) for _ in range(k))
        got = match_blocks(adjacency)
        ref_size = reference_max_matching(
            [{u for u in range(n) if m >> u & 1} for m in adjacency]
        )
        if (got is not None) != (ref_size == k):
            failures.append(f"graph {i}: early-exit disagrees with reference")
            break
        if got is not None and (
            len(set(got)) != k
            or not all(adjacency[j] >> u & 1 for j, u in enumerate(got))
        ):
            failures.append(f"graph {i}: produced matching is invalid")
            break

    # Both directions against a plan sweep: a pattern has a covering
    # matching exactly when some authorised plan realises it.
    rnd = random.Random(0x7EA1)
    shapes = [(6, 9), (5, 12), (4, 12), (6, 6), (3, 8), (2, 12)]
    shapes += [(rnd.randint(1, 4), rnd.randint(1, 8)) for _ in range(6)]
    for k, n in shapes:
        step_users = [
            frozenset(u for u in range(n) if rnd.random() < 0.5) for _ in range(k)
        ]
        inst = WorkflowInstance(
            k, n, AuthorisationLists.from_step_users(n, step_users), ()
        )
        # Without prunes the solver sends every complete pattern through
        # its leaf matching; the realisable ones come back with witnesses.
        out = solve_enumerating(inst, prune=False)
        if out.stats.matchings != bell_numbers(k)[-1]:
            failures.append(f"k={k},n={n}: {out.stats.matchings} leaf matchings")
        if set(out.patterns) != authorised_patterns(inst):
            failures.append(f"k={k},n={n}: realisable patterns differ")
        step_users = inst.auth.step_users
        for pat, plan in zip(out.patterns, out.plans):
            if encode(plan, k) != pat or not all(
                u in step_users[s] for s, u in plan.items()
            ):
                failures.append(f"k={k}: witness broken for {pat}")

    elapsed = time.perf_counter() - start
    _report(
        4,
        "matching test agrees with a reference matcher on 1000 graphs"
        " and decides realisability both ways, in under 30s",
        not failures and elapsed < 30,
        "; ".join(failures[:3]) if failures else f"{elapsed:.1f}s",
    )


def test_criterion_5_stress_suite_within_budget(suite_results):
    outcomes, elapsed = suite_results
    failures = []
    slowest = 0.0
    for config, outcome in outcomes:
        slowest = max(slowest, outcome.stats.wall_time)
        if outcome.status == TIMEOUT or outcome.stats.wall_time >= 60:
            failures.append(
                f"k{config.step_count}-c{config.counting}-s{config.seed}:"
                f" {outcome.status} after {outcome.stats.wall_time:.1f}s"
            )
    _report(
        5,
        "every k=30 d=10 c in {1.0k,1.2k,1.4k} seeds 0..9 instance"
        " solves within 60 seconds",
        not failures,
        "; ".join(failures[:3])
        if failures
        else f"30 instances in {elapsed:.1f}s, slowest {slowest:.2f}s",
    )


def test_criterion_6_pruning_preserves_verdicts(corpus_results):
    entries, _ = corpus_results
    start = time.perf_counter()
    failures = []
    gated_nodes = ungated_nodes = 0
    for config, instance, pre, outcome in entries:
        ungated = solve(pre.instance, prune=False)
        gated_nodes += outcome.stats.nodes
        ungated_nodes += ungated.stats.nodes
        if ungated.status != outcome.status:
            failures.append(
                f"{config}: gated {outcome.status} vs ungated {ungated.status}"
            )
        elif ungated.stats.nodes < outcome.stats.nodes:
            failures.append(f"{config}: pruning increased the node count")
        elif ungated.is_sat and validate_plan(
            instance, pre.expand_plan(ungated.plan)
        ) != Valid():
            failures.append(f"{config}: ungated witness does not validate")
    elapsed = time.perf_counter() - start
    _report(
        6,
        "disabling the prunes changes no verdict on the 200-instance corpus"
        " and never shrinks the search",
        not failures,
        "; ".join(failures[:3])
        if failures
        else f"nodes {gated_nodes} gated vs {ungated_nodes} ungated, {elapsed:.1f}s",
    )


def test_criterion_7_stress_suite_is_deterministic(suite_results):
    outcomes, _ = suite_results
    rerun = run_suite()
    failures = []
    for (config, first), (_, second) in zip(outcomes, rerun):
        same = (
            first.status == second.status
            and first.plan == second.plan
            and first.stats.nodes == second.stats.nodes
            and first.stats.matchings == second.stats.matchings
        )
        if not same:
            failures.append(f"k{config.step_count}-c{config.counting}-s{config.seed}")
    _report(
        7,
        "rerunning the stress suite reproduces every verdict, plan and node count",
        not failures,
        "; ".join(failures[:3]) if failures else "30/30 identical",
    )
