import math

import numpy as np
import pytest
from hypothesis import settings

from monolearn.games import make_game
from monolearn.geometry import row_norms
from monolearn.harness import ExperimentConfig, _build_learners, run_self_play
from monolearn.learners import dynamics
from monolearn.metrics import anchored_potential, normal_element

# Tier-1 is a function of the tree: each @given test draws its examples
# from a hash of the test, the same on every run, and its settings build on
# hypothesis' "default" profile, not on the "ci" one that hypothesis loads
# where the CI variable is set. The randomized profile (pytest
# --hypothesis-profile randomized) draws fresh examples each run.
settings.register_profile("tier1", parent=settings.get_profile("default"), derandomize=True)
settings.register_profile("randomized", derandomize=False)
settings.load_profile("tier1")

# The three bounded instances used by the rate-certificate acceptance runs.
RATE_INSTANCES = {
    "bilinear_1d": ("bilinear", {"dims": (1, 1)}),
    "bilinear_2d": ("bilinear", {"dims": (2, 2)}),
    "banded_quadratic_n20": ("appendix_e", {"n": 20}),
}


def rate_config(name):
    """Fixed-step anchored self-play at eta = 1/(sqrt(6) L), T = 10^4."""
    gid, params = RATE_INSTANCES[name]
    return ExperimentConfig(game=gid, game_params=params, algo="aog", T=10_000,
                            stride=1, record_potential=True)


@pytest.fixture(scope="session")
def rate_runs():
    """The column table of each rate run."""
    return {name: run_self_play(rate_config(name)) for name in RATE_INSTANCES}


def box_points(box, rng, k):  # k uniform points of a Box, one per row
    return rng.uniform(box.lower, box.upper, (k, box.dim))


def run_kernel(players, feasible_set, x1, gradient, rounds):
    """(base, half, grad, etas): the rows of ``rounds`` rounds of the
    ``learners.dynamics`` kernel built with ``gradient``, in one
    ``advance`` call. ``etas`` starts as the players' step sizes, tiled, as
    in ``harness._self_play``."""
    base, half, grad, base_grad = np.empty((4, rounds, x1.size))
    etas = np.tile([p.eta for p in players], (rounds, 1))
    dynamics(players, feasible_set, x1, gradient)(base, half, grad, base_grad, etas)
    return base, half, grad, etas


def kernel_run(config, rounds=None):
    """(game, players, x1, steps): the kernel that ``harness._self_play``
    runs, from the same builders, on the bare oracle. ``steps`` lists
    (x_t, x_{t+1/2}, V(x_{t+1/2}), step sizes of round t) for rounds
    1..``rounds`` (default T)."""
    game = make_game(config.game, **config.game_params)
    players, _, x1 = _build_learners(config, game)
    rows = run_kernel(players, game.joint_set, x1, game.gradient_fn, rounds or config.T)
    return game, players, x1, list(zip(*rows))


def replay_potential(config, columns):
    """(game, x1, eta, run, residual, drift) of a fixed-step anchored run at
    stride 1: ``run`` is its :func:`kernel_run` steps, and ``residual`` and
    ``drift`` hold ||eta (V(x_t) + c_t)|| and ||eta (V(x_t) - V(x_{t-1/2}))||
    of rounds 2..T. They are replayed from the steps through
    ``metrics.normal_element``, and the P_t that ``metrics.anchored_potential``
    takes from them must equal the run's ``potential`` column, ``columns``,
    to rel 1e-12."""
    game, players, x1, run = kernel_run(config)
    eta = players[0].eta
    ts = np.arange(2, config.T + 1)
    base = np.array([step[0] for step in run])
    x_prev, x_t = base[:-1], base[1:]
    g_prev = np.array([step[2] for step in run[:-1]])
    c = normal_element(x_prev, g_prev, x_t, x1, eta, ts)
    v_t = np.array([game.gradient_fn(x) for x in x_t])
    potential = anchored_potential(c, v_t, g_prev, x_t, x1, eta, ts)
    assert columns["t"] == list(range(1, config.T + 1)) and columns["potential"][0] is None
    np.testing.assert_allclose(columns["potential"][1:], potential, rtol=1e-12, atol=0.0)
    return game, x1, eta, run, row_norms(eta * (v_t + c)), row_norms(eta * (v_t - g_prev))


@pytest.fixture(scope="session")
def rate_replays(rate_runs):
    """:func:`replay_potential` of each rate run."""
    return {name: replay_potential(rate_config(name), columns)
            for name, columns in rate_runs.items()}


def trace_window(run, t):
    """The steps of rounds t-1, t and t+1 of a :func:`kernel_run` list, the
    input of ``verify.identity_instance_from_trace``."""
    return run[t - 2:t + 1]


# Rounds of each rate run at which criterion 8 substitutes the trace.
TRACE_ROUNDS = np.linspace(2, 10_000 - 1, 34, dtype=int)


@pytest.fixture(scope="session")
def trace_windows(rate_replays):
    """Criterion 8's step windows of the three rate instances."""
    return {name: (game, x1, eta, {int(t): trace_window(run, t) for t in TRACE_ROUNDS})
            for name, (game, x1, eta, run, *_) in rate_replays.items()}


def run_eta(columns):
    """Common fixed step size of a self-play run's table."""
    etas = {e for name, cells in columns.items() if name.startswith("eta_") for e in cells}
    assert len(etas) == 1
    return etas.pop()


def theory_constants(config):
    """L and the finite diameter D of the game of ``config``."""
    game = make_game(config.game, **config.game_params)
    D = game.joint_set.diameter()
    assert math.isfinite(D)
    return game.lipschitz_bound, D
