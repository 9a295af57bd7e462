import math

import numpy as np
import pytest

from monolearn.geometry import GeometryError, Unconstrained, symmetric_box
from monolearn.learners import (
    default_step_size,
    dynamics,
    make_learner,
    play,
)
from monolearn.metrics import second_order_variation

RNG = np.random.default_rng(2024)


def scripted_steps(learner, grads):
    """The round loop's per-step output for one learner: the played point
    of step t gets the gradient ``grads[t - 1]``, the base point V(x) = x."""
    def gradient(z, t, point):
        return z.copy() if point == "base point" else np.atleast_1d(grads[t - 1])

    steps = dynamics([learner], learner.set, learner.x1, gradient)
    return [next(steps) for _ in grads]


def test_first_anchored_proposal_is_start_point():
    box = symmetric_box(1.0, 2)
    x1 = np.array([0.3, -0.7])
    learner = make_learner("aog", box, x1, eta=0.2)
    (_, action, _), = play(learner, lambda t, a: np.zeros(2), 1)
    assert np.array_equal(action, x1)


def test_anchored_half_step_arithmetic():
    # From x1 = 0, gradients 0 and -8 lead to x_3 = 0.8, and the gradient
    # 1 to x_4 = 0.8 - 0.1 + (0 - 0.8)/4 = 0.5; then at t = 4 with g_prev = 1:
    learner = make_learner("aog", symmetric_box(1.0, 1), np.zeros(1), eta=0.1)
    *_, (x_4, half, _, _, _, _) = scripted_steps(learner, [0.0, -8.0, 1.0, 0.0])
    assert math.isclose(float(x_4[0]), 0.5, abs_tol=1e-15)
    # 0.5 - 0.1*1 + (0 - 0.5)/5 = 0.3
    assert math.isclose(float(half[0]), 0.3, abs_tol=1e-15)


def test_plain_optimistic_half_step_arithmetic():
    # x_4 = 0.6 - 0.1 * 1 = 0.5 and g_prev = 1 at t = 4: no anchor term
    learner = make_learner("og", symmetric_box(1.0, 1), np.array([0.6]), eta=0.1)
    *_, (_, half, _, _, _, _) = scripted_steps(learner, [0.0, 0.0, 1.0, 0.0])
    assert math.isclose(float(half[0]), 0.4, abs_tol=1e-15)


def test_anchored_full_step_arithmetic():
    learner = make_learner("aog", Unconstrained(1), np.zeros(1), eta=0.1)
    *_, (x_2, _, _, _, x_3, _) = scripted_steps(learner, [0.0, 1.0])
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
    steps = scripted_steps(learner, grads)
    assert steps[0][-1] == (eta0,)
    S = second_order_variation(grads)
    assert S > learner.threshold
    (eta,) = steps[-1][-1]
    assert eta != eta0
    assert math.isclose(eta, 1.0 / math.sqrt(1.0 + S))
    # latched: even a quiet round keeps the adaptive branch active
    (eta,) = scripted_steps(learner, grads + [1.0])[-1][-1]
    assert eta != eta0
    assert math.isclose(eta, 1.0 / math.sqrt(1.0 + S))


def hair_trigger_adaptive():
    """aog_adaptive with eta = 1/3 and a latch threshold of ~1.4e-296, far
    below any nonzero S of the gradients below: its step size leaves 1/3
    exactly when the kernel's S leaves 0, and is then 1/sqrt(1+S)."""
    return make_learner("aog_adaptive", symmetric_box(1.0, 1), np.zeros(1), L=1.0, D=1e-150)


def test_adaptive_stays_constant_under_constant_gradients():
    learner = hair_trigger_adaptive()
    etas = [etas for *_, etas in scripted_steps(learner, [0.7] * 50)]
    assert 0.0 < learner.threshold < 1e-295
    # S == 0.0 after every round: the latch never trips
    assert set(etas) == {(learner.eta,)}
    assert math.isclose(etas[-1][0], 1.0 / 3.0)


def test_variation_sum_skips_first_round():
    learner = hair_trigger_adaptive()
    # t = 1: not counted against g_prev = 0, so S == 0.0 after it
    (first,), (second,) = (etas for *_, etas in scripted_steps(learner, [5.0, 4.0]))
    assert first == learner.eta
    # then S = (4 - 5)^2 = 1, read back from eta = 1/sqrt(1+S)
    assert math.isclose(1.0 / second**2 - 1.0, 1.0)


def test_half_and_full_steps_stay_close():
    box = symmetric_box(1.0, 2)
    learner = make_learner("aog", box, np.array([0.5, -0.5]), eta=0.2)
    grads = RNG.normal(size=(300, 2))
    g_prev = np.zeros(2)
    for _, half, g, _, x_next, _ in scripted_steps(learner, grads):
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
    played = list(play(learner, lambda t, a: a.copy(), 3))
    assert float(played[0][2][0]) == 1.0
    assert math.isclose(float(played[1][1][0]), 0.5)
    assert math.isclose(float(played[2][1][0]), 0.75)


def test_two_phase_driver_plays_both_points():
    box = symmetric_box(1.0, 1)
    learner = make_learner("eag", box, np.zeros(1), eta=0.5)
    played = list(play(learner, lambda t, a: np.array([1.0]), 6))
    assert len(played) == 6
    assert [t for t, _, _ in played] == [1, 2, 3, 4, 5, 6]
    # odd rounds replay the base iterate, even rounds the probe point
    assert float(played[0][1][0]) == 0.0
    assert float(played[1][1][0]) == -0.5 + (0.0 - 0.0) / 2.0


def test_infeasible_start_rejected():
    with pytest.raises(GeometryError):
        make_learner("gd", symmetric_box(1.0, 1), np.array([2.0]), eta=0.1)


def test_make_learner_argument_validation():
    box = symmetric_box(1.0, 1)
    with pytest.raises(ValueError):
        make_learner("nope", box, np.zeros(1), eta=0.1)
    with pytest.raises(ValueError):
        make_learner("og", box, np.zeros(1))  # neither eta nor L
    with pytest.raises(ValueError):
        make_learner("aog_adaptive", box, np.zeros(1), L=1.0, D=None)


def test_deterministic_replay():
    def run():
        learner = make_learner("aog", symmetric_box(1.0, 2), np.array([0.5, 0.5]), eta=0.3)
        rng = np.random.default_rng(11)
        return np.array([a for _, a, _ in play(learner, lambda t, a: rng.normal(size=2), 100)])

    assert np.array_equal(run(), run())


def test_every_run_of_a_learner_starts_at_x1():
    learner = make_learner("eag", symmetric_box(1.0, 2), np.array([0.5, -0.5]), eta=0.3)
    runs = [[(t, a.tobytes(), g.tobytes())
             for t, a, g in play(learner, lambda t, a: np.array([t, -1.0]) + a, 9)]
            for _ in range(2)]
    assert runs[0] == runs[1]
    assert np.array_equal(learner.x1, [0.5, -0.5])
