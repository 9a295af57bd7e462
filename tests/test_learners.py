import math

import numpy as np
import pytest

from monolearn.games import make_game
from monolearn.geometry import MonolearnError, Unconstrained, symmetric_box
from monolearn.learners import (
    default_step_size,
    make_learner,
    play_rows,
)

from conftest import run_kernel

RNG = np.random.default_rng(2024)


def scripted_steps(learner, grads):
    """The kernel's rows for one learner without a base predictor, as
    (x_t, x_{t+1/2}, V(x_{t+1/2}), step sizes of round t) per round: the
    played point of round t gets the gradient ``grads[t - 1]``."""
    played = (np.atleast_1d(g) for g in grads)
    rows = run_kernel([learner], learner.set, learner.x1, lambda z: next(played), len(grads))
    return list(zip(*rows))


def test_first_anchored_proposal_is_start_point():
    box = symmetric_box(1.0, 2)
    x1 = np.array([0.3, -0.7])
    learner = make_learner("aog", box, x1, eta=0.2)
    (action,), _ = play_rows(learner, lambda t, a: np.zeros(2), 1)
    assert np.array_equal(action, x1)


@pytest.mark.parametrize("rounds", [-1, 2.5, True])
def test_play_rows_checks_rounds(rounds):
    # the one check of T for every online run: a negative count is not an
    # allocation failure, a fraction no TypeError, and True no single round
    learner = make_learner("aog", symmetric_box(1.0, 1), np.zeros(1), eta=0.1)
    with pytest.raises(MonolearnError, match=r"^T: must be an integer"):
        play_rows(learner, lambda t, a: np.zeros(1), rounds)


def test_anchored_half_step_arithmetic():
    # From x1 = 0, gradients 0 and -8 lead to x_3 = 0.8, and the gradient
    # 1 to x_4 = 0.8 - 0.1 + (0 - 0.8)/4 = 0.5; then at t = 4 with g_prev = 1:
    learner = make_learner("aog", symmetric_box(1.0, 1), np.zeros(1), eta=0.1)
    *_, (x_4, half, _, _) = scripted_steps(learner, [0.0, -8.0, 1.0, 0.0])
    assert math.isclose(float(x_4[0]), 0.5, abs_tol=1e-15)
    # 0.5 - 0.1*1 + (0 - 0.5)/5 = 0.3
    assert math.isclose(float(half[0]), 0.3, abs_tol=1e-15)


def test_plain_optimistic_half_step_arithmetic():
    # x_4 = 0.6 - 0.1 * 1 = 0.5 and g_prev = 1 at t = 4: no anchor term
    learner = make_learner("og", symmetric_box(1.0, 1), np.array([0.6]), eta=0.1)
    *_, (_, half, _, _) = scripted_steps(learner, [0.0, 0.0, 1.0, 0.0])
    assert math.isclose(float(half[0]), 0.4, abs_tol=1e-15)


def test_anchored_full_step_arithmetic():
    learner = make_learner("aog", Unconstrained(1), np.zeros(1), eta=0.1)
    # x_3 is the base point of the step after x_2's
    *_, (x_2, _, _, _), (x_3, *_) = scripted_steps(learner, [0.0, 1.0, 0.0])
    assert float(x_2[0]) == 0.0
    # 0 - 0.1*1 + (0 - 0)/3 = -0.1
    assert math.isclose(float(x_3[0]), -0.1, abs_tol=1e-15)


def test_default_step_sizes():
    assert math.isclose(default_step_size("aog", 1.0), 1.0 / math.sqrt(6.0))
    assert math.isclose(default_step_size("og", 1.0), 1.0 / 3.0)
    adaptive = make_learner("aog_adaptive", symmetric_box(1.0, 1), np.zeros(1), L=1.0, D=2.0)
    assert math.isclose(adaptive.eta, 1.0 / 3.0)


def test_adaptive_threshold_latch():
    learner = make_learner("aog_adaptive", symmetric_box(1.0, 1), np.zeros(1), L=0.01, D=0.1)
    eta0 = learner.eta
    # threshold 4500*pi*D^2*L^2 ~ 1.41e-3; a gradient swing of 2 trips it
    grads = [1.0, -1.0, 1.0]
    # the step sizes of rounds 1..5: round t + 1 plays the one set after round t
    etas = [float(row[-1][0]) for row in scripted_steps(learner, grads + [1.0, 0.0])]
    assert etas[:2] == [eta0, eta0]
    S = float(np.sum(np.diff(grads) ** 2))
    assert S > learner.threshold
    assert etas[3] != eta0
    assert math.isclose(etas[3], 1.0 / math.sqrt(1.0 + S))
    # latched: even a quiet round (round 4) keeps the adaptive branch active
    assert etas[4] != eta0
    assert math.isclose(etas[4], 1.0 / math.sqrt(1.0 + S))


def hair_trigger_adaptive():
    """aog_adaptive with eta = 1/3 and a latch threshold of ~1.4e-296, far
    below any nonzero S of the gradients below: its step size leaves 1/3
    exactly when the kernel's S leaves 0, and is then 1/sqrt(1+S)."""
    return make_learner("aog_adaptive", symmetric_box(1.0, 1), np.zeros(1), L=1.0, D=1e-150)


def test_adaptive_stays_constant_under_constant_gradients():
    learner = hair_trigger_adaptive()
    etas = [float(etas[0]) for *_, etas in scripted_steps(learner, [0.7] * 50)]
    assert 0.0 < learner.threshold < 1e-295
    # S == 0.0 after every round: the latch never trips
    assert set(etas) == {learner.eta}
    assert math.isclose(etas[-1], 1.0 / 3.0)


def test_variation_sum_skips_first_round():
    learner = hair_trigger_adaptive()
    # t = 1: not counted against g_prev = 0, so S == 0.0 after it
    _, (first,), (second,) = (etas for *_, etas in scripted_steps(learner, [5.0, 4.0, 0.0]))
    assert first == learner.eta
    # then S = (4 - 5)^2 = 1, read back from eta = 1/sqrt(1+S)
    assert math.isclose(1.0 / second**2 - 1.0, 1.0)


def test_adaptive_step_sizes_follow_each_players_variation():
    # Two adaptive players around a fixed-step one, on a joint vector of
    # dims (1, 3, 2). Each adaptive step size is eta0 until that player's S
    # passes the threshold and 1/sqrt(1+S) from then on, with S the
    # second-order variation of the player's own gradient slice: bit for
    # bit, as the measurement pass's S column computes it.
    game = make_game("random_linear_monotone", dims=(1, 3, 2), bounded=1.0, seed=5)
    noise = 0.3 * np.random.default_rng(1).standard_normal((202, game.dim))
    tags = ["aog_adaptive", "og", "aog_adaptive"]
    players = [make_learner(tag, fset, game.start[s], L=1.0, D=0.03)
               for tag, fset, s in zip(tags, game.player_sets, game.slices())]
    x1 = np.concatenate([p.x1 for p in players])
    rounds = iter(range(1, 202))
    _, _, grads, etas_rows = run_kernel(players, game.joint_set, x1,
                                        lambda z: game.gradient_fn(z) + noise[next(rounds)], 201)
    grads = grads[:200]
    eta0 = [p.eta for p in players]
    for i, s in enumerate(game.slices()):
        # the step sizes set after rounds 1..200, played in rounds 2..201
        etas = etas_rows[1:, i].tolist()
        if tags[i] == "og":
            assert set(etas) == {eta0[i]}
            continue
        # S after each round, summed in round order as the kernel sums it
        d = np.diff(grads[:, s], axis=0)
        S = np.concatenate([[0.0], np.cumsum(np.vecdot(d, d))]).tolist()
        latched = [S_t > players[i].threshold for S_t in S]
        first = latched.index(True)
        assert 10 < first < 150  # the latch trips mid-run
        assert etas[:first] == [eta0[i]] * first
        assert etas[first:] == [1.0 / math.sqrt(1.0 + S_t) for S_t in S[first:]]


def test_half_and_full_steps_stay_close():
    box = symmetric_box(1.0, 2)
    learner = make_learner("aog", box, np.array([0.5, -0.5]), eta=0.2)
    grads = RNG.normal(size=(300, 2))
    g_prev = np.zeros(2)
    steps = scripted_steps(learner, grads)
    for (_, half, g, _), (x_next, *_) in zip(steps, steps[1:]):
        # both points come from the same prox center, so projection
        # non-expansiveness bounds their distance by eta * ||g - g_prev||
        gap = np.linalg.norm(half - x_next)
        assert gap <= learner.eta * np.linalg.norm(g - g_prev) + 1e-10
        assert box.contains(half) and box.contains(x_next)
        g_prev = g


def test_extragradient_one_iteration():
    learner = make_learner("eg", Unconstrained(1), np.array([1.0]), eta=0.5)
    # V(x) = x: the base iterate 1, the probe point 1 - 0.5*1, then the next
    # base iterate 1 - 0.5*0.5
    plays, grads = play_rows(learner, lambda t, a: a.copy(), 3)
    assert float(grads[0, 0]) == 1.0
    assert math.isclose(float(plays[1, 0]), 0.5)
    assert math.isclose(float(plays[2, 0]), 0.75)


def test_two_phase_driver_plays_both_points():
    box = symmetric_box(1.0, 1)
    learner = make_learner("eag", box, np.zeros(1), eta=0.5)
    calls = []
    plays, grads = play_rows(learner, lambda t, a: calls.append(t) or np.array([1.0]), 6)
    assert plays.shape == grads.shape == (6, 1)
    assert calls == [1, 2, 3, 4, 5, 6]
    # odd rounds replay the base iterate, even rounds the probe point
    assert float(plays[0, 0]) == 0.0
    assert float(plays[1, 0]) == -0.5 + (0.0 - 0.0) / 2.0


def test_infeasible_start_rejected():
    # x1 is checked once, by the learner: outside the set, of the wrong size
    # or not finite (projection does not check its input)
    for x1 in ([2.0, 0.0], [0.0, 0.0, 0.0], [0.0, np.nan]):
        with pytest.raises(MonolearnError, match="^x1: "):
            make_learner("gd", symmetric_box(1.0, 2), np.array(x1), eta=0.1)


def test_make_learner_argument_validation():
    box = symmetric_box(1.0, 1)
    with pytest.raises(ValueError):
        make_learner("nope", box, np.zeros(1), eta=0.1)
    with pytest.raises(ValueError):
        make_learner("og", box, np.zeros(1))  # neither eta nor L
    with pytest.raises(ValueError):
        make_learner("aog_adaptive", box, np.zeros(1), L=1.0, D=None)
    # eta, L and D pass the one rule for numbers: finite and > 0
    for bad in (math.inf, math.nan, 0.0, 10**400):
        with pytest.raises(ValueError, match="^eta: "):
            make_learner("gd", box, np.zeros(1), eta=bad)
        with pytest.raises(ValueError, match="^L: "):
            make_learner("aog", box, np.zeros(1), L=bad)
        with pytest.raises(ValueError, match="^D: "):
            make_learner("aog_adaptive", box, np.zeros(1), L=1.0, D=bad)


def test_deterministic_replay():
    def run():
        learner = make_learner("aog", symmetric_box(1.0, 2), np.array([0.5, 0.5]), eta=0.3)
        rng = np.random.default_rng(11)
        return play_rows(learner, lambda t, a: rng.normal(size=2), 100)[0]

    assert np.array_equal(run(), run())


def test_every_run_of_a_learner_starts_at_x1():
    learner = make_learner("eag", symmetric_box(1.0, 2), np.array([0.5, -0.5]), eta=0.3)
    runs = [np.stack(play_rows(learner, lambda t, a: np.array([t, -1.0]) + a, 9))
            for _ in range(2)]
    assert runs[0].tobytes() == runs[1].tobytes()
    assert np.array_equal(learner.x1, [0.5, -0.5])
