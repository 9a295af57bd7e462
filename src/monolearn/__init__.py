"""Anchored optimistic gradient learning in smooth monotone games.

A library plus experiment CLI for no-regret learning dynamics (gradient
descent, optimistic gradient, extragradient and its anchored variant, and
the anchored optimistic gradient with optional step-size adaptation),
equilibrium-gap metrics, potential-function certificates, and numeric
proposition checkers.
"""

from .games import (
    GameOracle,
    make_appendix_e_instance,
    make_bilinear_saddle,
    make_game,
    make_random_linear_monotone,
)
from .geometry import (
    Ball,
    Box,
    FeasibleSet,
    ProductSet,
    Unconstrained,
    symmetric_box,
)
from .harness import (
    ExperimentConfig,
    fit_loglog_slope,
    load_config,
    run_adversarial,
    run_self_play,
)
from .learners import make_learner, play
from .metrics import (
    Trajectory,
    dynamic_regret,
    external_regret,
    measure_equilibrium,
    potential,
    second_order_variation,
)
from .verify import (
    IdentityInstance,
    check_descent_identity,
    check_sequence_bound,
    run_eag_adversary,
)

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "Box",
    "ExperimentConfig",
    "FeasibleSet",
    "GameOracle",
    "IdentityInstance",
    "ProductSet",
    "Trajectory",
    "Unconstrained",
    "check_descent_identity",
    "check_sequence_bound",
    "dynamic_regret",
    "external_regret",
    "fit_loglog_slope",
    "load_config",
    "make_appendix_e_instance",
    "make_bilinear_saddle",
    "make_game",
    "make_learner",
    "make_random_linear_monotone",
    "measure_equilibrium",
    "play",
    "potential",
    "run_adversarial",
    "run_eag_adversary",
    "run_self_play",
    "second_order_variation",
    "symmetric_box",
]
