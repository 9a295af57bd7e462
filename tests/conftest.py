import math

import numpy as np
import pytest

from monolearn.games import make_game
from monolearn.harness import ExperimentConfig, _build_learners, _steps, run_self_play

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
    return {name: run_self_play(rate_config(name)) for name in RATE_INSTANCES}


def box_points(box, rng, k):  # k uniform points of a Box, one per row
    return rng.uniform(box.lower, box.upper, (k, box.dim))


def kernel_steps(config):
    """(game, players, x1, steps): the steps ``harness._self_play`` runs,
    from the same builders."""
    game = make_game(config.game, **config.game_params)
    players, _, x1 = _build_learners(config, game)
    return game, players, x1, _steps(game, players, x1)


def kernel_run(config):
    """:func:`kernel_steps` with the steps of rounds 1..T in a list."""
    game, players, x1, steps = kernel_steps(config)
    return game, players, x1, [step for _, step in zip(range(config.T), steps)]


def step_windows(config, ts):
    """(game, x1, eta, windows) of a fixed-step run: ``windows[t]`` holds the
    steps of rounds t-1, t and t+1, the input of
    ``verify.identity_instance_from_trace``; no other step is kept."""
    game, players, x1, steps = kernel_steps(config)
    wanted = {int(t) for t in ts}
    windows, last = {}, max(wanted) + 1
    for t, step in zip(range(1, last + 1), steps):
        for centre in (t - 1, t, t + 1):
            if centre in wanted:
                windows.setdefault(centre, []).append(step)
    return game, x1, players[0].eta, windows


# Rounds of each rate run at which criterion 8 substitutes the trace.
TRACE_ROUNDS = np.linspace(2, 10_000 - 1, 34, dtype=int)


@pytest.fixture(scope="session")
def trace_windows():
    """Criterion 8's step windows of the three rate instances."""
    return {name: step_windows(rate_config(name), TRACE_ROUNDS) for name in RATE_INSTANCES}


def run_eta(result):
    """Common fixed step size of a self-play run."""
    etas = set(result.eta)
    assert len(etas) == 1
    return etas.pop()


def theory_constants(result):
    game = result.game
    L = game.lipschitz_bound
    D = game.diameter()
    assert math.isfinite(D)
    return L, D
