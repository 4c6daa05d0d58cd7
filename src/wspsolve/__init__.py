"""Workflow satisfiability: assign authorised users to steps under
user-independent constraints, by backtracking over patterns with a
bipartite matching test."""

from .constraints import (
    AtLeast,
    AtMost,
    BindingOfDuty,
    Never,
    NotEquals,
    UserIndependentConstraint,
)
from .generator import GeneratorConfig, SplitMix64, density_to_e, generate
from .matching import match_blocks
from .model import (
    SAT,
    TIMEOUT,
    UNSAT,
    AuthorisationLists,
    NotAuthorised,
    ParseError,
    Plan,
    PlanVerdict,
    PreprocessResult,
    SearchStats,
    SolveOutcome,
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
from .oracle import BudgetExceededError, OracleResult, oracle_solve
from .pattern import Pattern, canonicalize, encode
from .solver import EnumerationOutcome, SearchState, solve, solve_enumerating

__version__ = "0.1.0"

__all__ = [
    "AtLeast",
    "AtMost",
    "AuthorisationLists",
    "BindingOfDuty",
    "BudgetExceededError",
    "EnumerationOutcome",
    "GeneratorConfig",
    "Never",
    "NotAuthorised",
    "NotEquals",
    "OracleResult",
    "ParseError",
    "Pattern",
    "Plan",
    "PlanVerdict",
    "PreprocessResult",
    "SAT",
    "SearchState",
    "SearchStats",
    "SolveOutcome",
    "SplitMix64",
    "TIMEOUT",
    "UNSAT",
    "UserIndependentConstraint",
    "Valid",
    "Violates",
    "WorkflowInstance",
    "canonicalize",
    "density_to_e",
    "encode",
    "format_solution",
    "generate",
    "match_blocks",
    "oracle_solve",
    "parse_instance",
    "parse_solution",
    "preprocess",
    "serialize_instance",
    "solve",
    "solve_enumerating",
    "validate_plan",
]
