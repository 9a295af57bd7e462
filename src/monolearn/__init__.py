"""Anchored optimistic gradient learning in smooth monotone games.

A library plus experiment CLI for no-regret learning dynamics (gradient
descent, optimistic gradient, extragradient and its anchored variant, and
the anchored optimistic gradient with optional step-size adaptation). One
round loop makes every iterate; the self-play runner and the one online
driver, :func:`play_rows`, drive it. An :class:`Oblivious` gradient
source hands the online driver every round's gradient before round 1.
The runners measure equilibrium gaps, regrets and the potential-function
certificate with the row formulas of ``metrics``, and numeric checkers
test the proof's propositions. The package raises its own errors as one
class, :class:`MonolearnError`, a ValueError.
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
    MonolearnError,
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
from .learners import Oblivious, make_learner, play_rows
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
    "MonolearnError",
    "Oblivious",
    "ProductSet",
    "Unconstrained",
    "check_descent_identity",
    "check_sequence_bound",
    "fit_loglog_slope",
    "load_config",
    "make_appendix_e_instance",
    "make_bilinear_saddle",
    "make_game",
    "make_learner",
    "make_random_linear_monotone",
    "play_rows",
    "run_adversarial",
    "run_eag_adversary",
    "run_self_play",
    "symmetric_box",
]
