import math

import numpy as np
import pytest

from monolearn.geometry import GeometryError, Unconstrained, symmetric_box
from monolearn.learners import (
    LearnerError,
    default_step_size,
    make_learner,
    play,
)

RNG = np.random.default_rng(2024)


def seeded_anchored(x_t, g_prev, t, eta=0.1, x1=0.0):
    """An anchored learner with its mid-run state set explicitly."""
    learner = make_learner("aog", symmetric_box(1.0, 1), np.array([x1]), eta=eta)
    learner.x = np.array([x_t])
    learner.g_prev = np.array([g_prev])
    learner.t = t
    return learner


def test_first_anchored_proposal_is_start_point():
    box = symmetric_box(1.0, 2)
    x1 = np.array([0.3, -0.7])
    learner = make_learner("aog", box, x1, eta=0.2)
    assert np.array_equal(learner.propose(), x1)


def test_anchored_half_step_arithmetic():
    learner = seeded_anchored(x_t=0.5, g_prev=1.0, t=4)
    # 0.5 - 0.1*1 + (0 - 0.5)/5 = 0.3
    assert math.isclose(float(learner.propose()[0]), 0.3, abs_tol=1e-15)


def test_plain_optimistic_half_step_arithmetic():
    learner = make_learner("og", symmetric_box(1.0, 1), np.zeros(1), eta=0.1)
    learner.x = np.array([0.5])
    learner.g_prev = np.array([1.0])
    learner.t = 4
    assert math.isclose(float(learner.propose()[0]), 0.4, abs_tol=1e-15)


def test_anchored_full_step_arithmetic():
    learner = make_learner("aog", Unconstrained(1), np.zeros(1), eta=0.1)
    learner.t = 2
    learner.propose()
    learner.update(np.array([1.0]))
    # 0 - 0.1*1 + (0 - 0)/3 = -0.1
    assert math.isclose(float(learner.x[0]), -0.1, abs_tol=1e-15)


def test_default_step_sizes():
    assert math.isclose(default_step_size("aog", 1.0), 1.0 / math.sqrt(6.0))
    assert math.isclose(default_step_size("og", 1.0), 1.0 / 3.0)
    adaptive = make_learner("aog_adaptive", symmetric_box(1.0, 1), np.zeros(1), L=1.0, D=2.0)
    assert math.isclose(adaptive.eta, 1.0 / 3.0)


def test_adaptive_threshold_latch():
    learner = make_learner("aog_adaptive", symmetric_box(1.0, 1), np.zeros(1), L=0.01, D=0.1)
    # threshold 4500*pi*D^2*L^2 ~ 1.41e-3; a gradient swing of 2 trips it
    assert not learner.adaptive
    for g in (1.0, -1.0, 1.0):
        learner.propose()
        learner.update(np.array([g]))
    assert learner.S > learner.threshold
    assert learner.adaptive
    assert math.isclose(learner.eta, 1.0 / math.sqrt(1.0 + learner.S))
    # latched: even a quiet round keeps the adaptive branch active
    learner.propose()
    learner.update(learner.g_prev.copy())
    assert learner.adaptive


def test_adaptive_stays_constant_under_constant_gradients():
    learner = make_learner("aog_adaptive", symmetric_box(1.0, 1), np.zeros(1), L=1.0, D=2.0)
    for _ in range(50):
        learner.propose()
        learner.update(np.array([0.7]))
    assert learner.S == 0.0
    assert math.isclose(learner.eta, 1.0 / 3.0)
    assert not learner.adaptive


def test_variation_sum_skips_first_round():
    learner = make_learner("aog_adaptive", symmetric_box(1.0, 1), np.zeros(1), L=1.0, D=2.0)
    learner.propose()
    learner.update(np.array([5.0]))  # t = 1: not counted against g_prev = 0
    assert learner.S == 0.0
    learner.propose()
    learner.update(np.array([4.0]))
    assert math.isclose(learner.S, 1.0)


def test_half_and_full_steps_stay_close():
    box = symmetric_box(1.0, 2)
    learner = make_learner("aog", box, np.array([0.5, -0.5]), eta=0.2)
    for _ in range(300):
        half = learner.propose()
        g_prev = learner.g_prev.copy()
        g = RNG.normal(size=2)
        learner.update(g)
        # both points come from the same prox center, so projection
        # non-expansiveness bounds their distance by eta * ||g - g_prev||
        gap = np.linalg.norm(half - learner.x)
        assert gap <= learner.eta * np.linalg.norm(g - g_prev) + 1e-10
        assert box.contains(half) and box.contains(learner.x)


def test_extragradient_one_iteration():
    learner = make_learner("eg", Unconstrained(1), np.array([1.0]), eta=0.5)
    learner.observe_base(np.array([1.0]))  # V(x) = x at x_t = 1
    half = learner.propose()
    assert math.isclose(float(half[0]), 0.5)
    learner.update(np.array([0.5]))  # V at the probe point
    assert math.isclose(float(learner.x[0]), 0.75)


def test_two_phase_driver_plays_both_points():
    box = symmetric_box(1.0, 1)
    learner = make_learner("eag", box, np.zeros(1), eta=0.5)
    played = list(play(learner, lambda t, a: np.array([1.0]), 6))
    assert len(played) == 6
    assert [t for t, _, _ in played] == [1, 2, 3, 4, 5, 6]
    # odd rounds replay the base iterate, even rounds the probe point
    assert float(played[0][1][0]) == 0.0
    assert float(played[1][1][0]) == -0.5 + (0.0 - 0.0) / 2.0


def test_round_protocol_misuse():
    learner = make_learner("aog", symmetric_box(1.0, 1), np.zeros(1), eta=0.1)
    with pytest.raises(LearnerError):
        learner.update(np.zeros(1))
    learner.propose()
    with pytest.raises(LearnerError):
        learner.propose()
    eg = make_learner("eg", symmetric_box(1.0, 1), np.zeros(1), eta=0.1)
    with pytest.raises(LearnerError):
        eg.propose()  # probe gradient not observed yet


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
        out = []
        for _ in range(100):
            out.append(learner.propose().copy())
            learner.update(rng.normal(size=2))
        return np.array(out)

    assert np.array_equal(run(), run())
