"""Certified approximate equilibria for Bayesian games with nested information.

The pipeline replaces each player's information with a finite belief
hierarchy, in which beliefs within delta of a common centre merge,
solves the resulting coarse game in agent form, lifts the profile back,
and certifies its exact regret.  Games with compact box actions and
polynomial payoffs are first discretized with an explicit sup-norm
certificate.
"""

from .discretize import (
    BoxCertificate,
    CompactGameSpec,
    DiscretizedGame,
    GapCertificate,
    ProbeAudit,
    build_hat_game,
    certify_box,
    certify_sup_gap,
    coarse_to_fine,
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
from .hierarchy import Hierarchy, build_hierarchy, check_properties
from .pipeline import Solution, solve
from .regret import ConsistencyError, RegretReport, bayesian_regret, certify
from .solver import (
    SolveResult,
    build_auxiliary_game,
    lift_strategy,
    solve_nash,
    to_agent_form,
)

__version__ = "0.1.0"

__all__ = [
    "BoxCertificate",
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
    "StateSpace",
    "StrategyProfile",
    "bayesian_regret",
    "build_auxiliary_game",
    "build_hat_game",
    "build_hierarchy",
    "certify",
    "certify_box",
    "certify_sup_gap",
    "check_properties",
    "coarse_to_fine",
    "conditional_payoff",
    "eta_net",
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
