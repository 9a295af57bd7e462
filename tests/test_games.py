import math

import numpy as np
import pytest

from monolearn.games import (
    GameError,
    GameOracle,
    banded_coupling_matrix,
    make_appendix_d_toy,
    make_appendix_e_instance,
    make_bilinear_saddle,
    make_game,
    make_random_linear_monotone,
)
from monolearn.geometry import Ball, Box, ProductSet, Unconstrained, symmetric_box

RNG = np.random.default_rng(777)


def central_difference_gradient(loss, z, step=1e-5):
    g = np.zeros_like(z)
    for j in range(z.size):
        hi, lo = z.copy(), z.copy()
        hi[j] += step
        lo[j] -= step
        g[j] = (loss(hi) - loss(lo)) / (2.0 * step)
    return g


def power_iteration_norm(M, iters=500):
    v = np.ones(M.shape[1]) / math.sqrt(M.shape[1])
    G = M.T @ M
    for _ in range(iters):
        v = G @ v
        v /= np.linalg.norm(v)
    return math.sqrt(float(v @ G @ v))


def test_bilinear_gradient_example():
    game = make_bilinear_saddle(1.0, 1.0, (1, 1))
    g = game.gradient(np.array([0.5, 0.3]))
    assert np.allclose(g, [0.3, -0.5], atol=1e-15)
    assert np.array_equal(game.gradient(np.zeros(2)), np.zeros(2))


def test_bilinear_zero_sum_losses():
    game = make_bilinear_saddle(2.0, 1.0, (2, 2))
    for _ in range(20):
        z = game.joint_set.sample(RNG)
        assert abs(game.loss(0, z) + game.loss(1, z)) <= 1e-12


def test_bilinear_lipschitz_is_operator_norm():
    game = make_bilinear_saddle(2.0, 1.0, (2, 2))
    dim = game.dim
    M = np.column_stack(
        [game.gradient_fn(e) for e in np.eye(dim)]
    )
    assert math.isclose(power_iteration_norm(M), 2.0, rel_tol=1e-9)
    assert game.lipschitz_bound == 2.0


def test_bilinear_best_responses():
    game = make_bilinear_saddle(1.0, 1.0, (1, 1))
    a, v = game.best_response(0, np.array([0.0, 0.5]))
    assert np.array_equal(a, [-1.0]) and v == -0.5
    a, v = game.best_response(0, np.array([0.0, -1.0]))
    assert np.array_equal(a, [1.0]) and v == -1.0
    # zero objective for player 2: tie broken to the lower bound
    a, v = game.best_response(1, np.array([0.0, 0.3]))
    assert np.array_equal(a, [-1.0]) and v == 0.0


def test_gradients_match_finite_differences():
    cases = [
        make_bilinear_saddle(1.5, 1.0, (2, 2)),
        make_appendix_e_instance(4, box_half_width=5.0),
    ]
    for game in cases:
        slices = game.slices()
        for _ in range(10):
            z = game.joint_set.sample(RNG)
            v = game.gradient(z)
            for i, s in enumerate(slices):
                full = central_difference_gradient(lambda w: game.loss(i, w), z)
                got, want = v[s], full[s]
                denom = max(1.0, float(np.linalg.norm(want)))
                assert np.linalg.norm(got - want) <= 1e-5 * denom


def test_banded_matrix_pattern():
    A = banded_coupling_matrix(2)
    assert np.array_equal(4.0 * A, np.array([[0.0, 1.0], [-1.0, 1.0]]))
    A5 = banded_coupling_matrix(5)
    assert A5[0, 4] == 0.25
    for i in range(1, 5):
        assert A5[i, 4 - i] == -0.25
        assert A5[i, 5 - i] == 0.25
    assert np.count_nonzero(A5) == 9


def test_banded_instance_norms_and_smoothness():
    for n in (2, 5, 20):
        game = make_appendix_e_instance(n, box_half_width=1.0)
        A, H = game.metadata["A"], game.metadata["H"]
        assert power_iteration_norm(A) <= 0.5 + 1e-9
        assert power_iteration_norm(H) <= 0.5 + 1e-9
        assert np.allclose(H, H.T)
        assert np.min(np.linalg.eigvalsh(H)) >= -1e-12
        assert game.lipschitz_bound == 1.0


def test_banded_instance_gradient_at_zero():
    game = make_appendix_e_instance(3, box_half_width=1.0)
    h, b = game.metadata["h"], game.metadata["b"]
    v = game.gradient(np.zeros(6))
    # player 1 sees -h; player 2's slice is the monotone-operator block
    # A x - b, which is -b at the origin
    assert np.allclose(v[:3], -h)
    assert np.allclose(v[3:], -b)


def test_skew_operator_monotonicity_is_exact():
    game = make_random_linear_monotone((2, 2), skew_scale=1.0, psd_diag=0.0, seed=5)
    for _ in range(50):
        x = RNG.normal(size=4)
        y = RNG.normal(size=4)
        dg = game.gradient_fn(x) - game.gradient_fn(y)
        assert abs(float(dg @ (x - y))) <= 1e-12


def test_random_linear_rejects_negative_diagonal():
    # The symmetric part of M is exactly psd_diag * I, so psd_diag < 0 is
    # non-monotone; it is rejected bounded or not.
    for bounded in (None, 1.0):
        with pytest.raises(GameError, match="psd_diag"):
            make_random_linear_monotone((2, 2), psd_diag=-1.0, bounded=bounded)
    M = make_random_linear_monotone((2, 2), psd_diag=0.25, seed=3).metadata["M"]
    assert np.array_equal((M + M.T) / 2.0, 0.25 * np.eye(4))


def test_joint_set_is_built_once_per_game():
    boxes = make_appendix_e_instance(4, validate=False)
    joint = boxes.joint_set
    assert isinstance(joint, Box) and joint is boxes.joint_set
    assert np.array_equal(joint.lower, np.full(8, -200.0))
    free = make_random_linear_monotone((2, 3)).joint_set
    assert isinstance(free, Unconstrained) and free.dim == 5
    mixed = GameOracle([symmetric_box(1.0, 2), Ball(np.zeros(2), 1.0)], 1.0, lambda z: z)
    assert isinstance(mixed.joint_set, ProductSet)
    # a box over concatenated bounds samples the same stream as the product
    product = ProductSet(tuple(boxes.player_sets))
    rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(1)
    assert np.array_equal(joint.sample(rng_a), product.sample(rng_b))


def test_random_linear_nash_is_zero_of_operator():
    game = make_random_linear_monotone((1, 1), seed=9)
    assert np.linalg.norm(game.gradient_fn(game.nash)) <= 1e-10


def test_validation_probes_pass_for_builtins():
    make_bilinear_saddle(1.0, 1.0, (2, 2)).validate(pairs=200)
    make_appendix_e_instance(10, box_half_width=2.0).validate(pairs=200)
    make_random_linear_monotone((1, 1), bounded=1.0, seed=2).validate(pairs=200)


def test_validation_rejects_non_monotone_operator():
    from monolearn.games import GameOracle
    from monolearn.geometry import symmetric_box

    bad = GameOracle(
        player_sets=[symmetric_box(1.0, 1)],
        lipschitz_bound=1.0,
        gradient_fn=lambda z: -z,
        name="bad",
    )
    with pytest.raises(GameError):
        bad.validate(pairs=50)


def test_infeasible_profile_rejected():
    game = make_bilinear_saddle(1.0, 1.0, (1, 1))
    with pytest.raises(GameError):
        game.gradient(np.array([2.0, 0.0]))


def test_make_game_registry():
    assert make_game("appendix_d_toy").name == "appendix_d_toy"
    with pytest.raises(GameError):
        make_game("nope")
    with pytest.raises(GameError):
        make_appendix_e_instance(1)


def test_game_start_points():
    toy = make_appendix_d_toy()
    assert np.array_equal(toy.start, [0.5, 0.5])
    banded = make_game("appendix_e", n=4, box_half_width=1.0)
    assert np.allclose(banded.start, np.full(8, 0.25))


def test_start_is_projected_onto_the_joint_set():
    # the built-in start of random_linear_monotone is all ones, outside a
    # box of half-width 0.5; the oracle's start is its projection
    game = make_random_linear_monotone((2, 1), bounded=0.5, seed=1)
    assert np.array_equal(game.start, np.full(3, 0.5))
    custom = GameOracle([symmetric_box(1.0, 2), Box(np.array([1.0]), np.array([2.0]))],
                        1.0, lambda z: z)
    assert np.array_equal(custom.start, [0.0, 0.0, 1.0])


def test_bounded_random_linear_runs_from_game_start():
    from monolearn.harness import ExperimentConfig, run_self_play

    cfg = ExperimentConfig(game="random_linear_monotone",
                           game_params={"dims": (2, 2), "bounded": 0.5}, T=50, stride=10)
    result = run_self_play(cfg)
    assert result.records[-1].gap is not None


def test_make_game_rejects_unknown_params():
    with pytest.raises(GameError, match="bogus"):
        make_game("bilinear", bogus=1)
