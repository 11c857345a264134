"""Certified approximate equilibria for Bayesian games with nested information.

The pipeline replaces each player's information with a finite belief
hierarchy, in which beliefs within delta of a common centre merge,
solves the resulting coarse game in agent form, lifts the profile back,
and certifies its exact regret.  Games with compact box actions and
polynomial payoffs are first discretized with an explicit sup-norm
certificate.
"""

from .discretize import (
    CompactGameSpec,
    DiscretizedGame,
    GapCertificate,
    ProbeAudit,
    build_hat_game,
    certify_sup_gap,
    eta_net,
    floor_to_multiple,
    probe_harsanyi_regret,
    truncate_states,
)
from .game import (
    GameFormatError,
    InformationPartition,
    InvalidGameError,
    NestedGame,
    PayoffTensor,
    StateSpace,
    StrategyProfile,
    conditional_payoff,
    expected_payoff,
    from_type_space,
    payoff_bound,
    payoff_classes,
    validate_game,
    validate_profile,
)
from .gamefile import SchemaError, load_game, load_profile
from .hierarchy import (
    Hierarchy,
    build_hierarchy,
    check_properties,
    expectation_gap,
)
from .pipeline import Solution, solve
from .regret import (
    ConsistencyError,
    RegretReport,
    bayesian_regret,
    brute_force_check,
    certify,
    coarse_best_response_gap,
)
from .solver import (
    AuxGame,
    SolveResult,
    SolverConfig,
    build_auxiliary_game,
    lift_strategy,
    solve_nash,
    to_agent_form,
)

__version__ = "0.1.0"

__all__ = [
    "AuxGame",
    "CompactGameSpec",
    "ConsistencyError",
    "DiscretizedGame",
    "GameFormatError",
    "GapCertificate",
    "Hierarchy",
    "InformationPartition",
    "InvalidGameError",
    "NestedGame",
    "PayoffTensor",
    "ProbeAudit",
    "RegretReport",
    "SchemaError",
    "Solution",
    "SolveResult",
    "SolverConfig",
    "StateSpace",
    "StrategyProfile",
    "bayesian_regret",
    "brute_force_check",
    "build_auxiliary_game",
    "build_hat_game",
    "build_hierarchy",
    "certify",
    "certify_sup_gap",
    "check_properties",
    "coarse_best_response_gap",
    "conditional_payoff",
    "eta_net",
    "expectation_gap",
    "expected_payoff",
    "floor_to_multiple",
    "from_type_space",
    "lift_strategy",
    "load_game",
    "load_profile",
    "payoff_bound",
    "payoff_classes",
    "probe_harsanyi_regret",
    "solve",
    "solve_nash",
    "to_agent_form",
    "truncate_states",
    "validate_game",
    "validate_profile",
    "__version__",
]
