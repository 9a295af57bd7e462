import math

import numpy as np
import pytest

from monolearn.games import GameError, GameOracle, make_bilinear_saddle, make_game
from monolearn.geometry import symmetric_box
from monolearn.harness import ExperimentConfig, HarnessError, run_self_play
from monolearn.metrics import (
    best_response_gaps,
    csv_cells,
    csv_header,
    csv_row,
    gradient_variation,
    linearized_gaps,
    regret_rows,
    regret_terms,
    running_sums,
)

from conftest import box_points, kernel_run, rate_config, replay_potential, theory_constants

RNG = np.random.default_rng(31)


def small_config(game_id="bilinear", T=50, x1=None, **game_params):
    return ExperimentConfig(
        game=game_id,
        game_params=game_params,
        algo="aog",
        T=T,
        stride=1,
        record_potential=True,
        x1=x1,
    )


def measures(game, z):
    """(r_tan, linearized gap, exact total gap) at the profile z, from the
    row formulas on one row: the linearized gap treats the joint set as one
    player, and the total gap is the Python sum of the players' gaps, as the
    CSV's ``tgap_exact`` cell is."""
    joint, v = game.joint_set, game.gradient_fn(z)
    gap = linearized_gaps(*regret_terms(joint, z[None], v[None], [slice(None)]))[0, 0]
    tgap = sum(best_response_gaps(game, z[None])[0].tolist())
    return float(joint.tangent_residual(z, v)), float(gap), tgap


def test_measures_at_nash_are_zero():
    game = make_bilinear_saddle(1.0, 1.0, (1, 1))
    assert measures(game, np.zeros(2)) == (0.0, 0.0, 0.0)


def test_measures_at_corner():
    game = make_bilinear_saddle(1.0, 1.0, (1, 1))
    _, gap, _ = measures(game, np.array([1.0, 1.0]))
    # V(1,1) = (1,-1); realized value 0, support minimum -2 at (-1,1)
    assert math.isclose(gap, 2.0, abs_tol=1e-12)
    corners = [np.array([sx, sy]) for sx in (-1, 1) for sy in (-1, 1)]
    v = np.array([1.0, -1.0])
    brute = max(float(v @ (np.array([1.0, 1.0]) - c)) for c in corners)
    assert math.isclose(gap, brute, abs_tol=1e-12)


def test_gap_ordering_chain():
    game = make_bilinear_saddle(1.0, 1.0, (2, 2))
    D = game.diameter()
    for z in box_points(game.joint_set, RNG, 100):
        r_tan, gap, tgap = measures(game, z)
        assert tgap <= gap + 1e-9
        assert gap <= D * r_tan + 1e-9


def test_gap_ordering_chain_on_every_rate_run_row(rate_runs):
    # The block pass's own columns, row by row: the exact total gap is at
    # most the linearized gap, which is at most D times the tangent residual.
    for name in ("bilinear_1d", "bilinear_2d"):
        _, D = theory_constants(rate_config(name))
        rows = list(zip(*(rate_runs[name][c] for c in ("r_tan", "gap", "tgap_exact"))))
        assert len(rows) == 10_000
        for r_tan, gap, tgap in rows:
            assert tgap <= gap + 1e-9 and gap <= D * r_tan + 1e-9, name


@pytest.mark.parametrize("game, params", [
    ("bilinear", {"dims": (1, 1)}),
    ("appendix_e", {"n": 5}),
    ("random_linear_monotone", {"dims": (2, 3), "bounded": 1.0, "seed": 3}),
])
def test_gap_is_at_most_diameter_times_tangent_residual(game, params):
    # Both columns are taken at x_{t+1/2} with V = V(x_{t+1/2}): for c in
    # the normal cone there and y in the set, <V, x - y> <= <V + c, x - y>
    # <= ||V + c|| D, and r_tan is the least ||V + c||.
    config = ExperimentConfig(game=game, game_params=params, algo="aog", T=400)
    D = make_game(game, **params).diameter()
    columns = run_self_play(config)
    assert columns["t"] == list(range(1, 401))
    for r_tan, gap in zip(columns["r_tan"], columns["gap"], strict=True):
        assert gap <= D * r_tan * (1.0 + 1e-9) + 1e-12


def test_external_regret_examples():
    box = symmetric_box(1.0, 1)
    plays = np.zeros((3, 1))
    grads = np.array([[1.0], [-1.0], [1.0]])
    # prefixes of 1, 2 and 3 rounds: the best fixed action is -1, 1, -1
    assert np.allclose(regret_rows(plays, grads, box, np.arange(3)), [1.0, 0.0, 1.0],
                       rtol=0.0, atol=1e-12)
    # constant gradient played at its own support minimizer: zero regret
    g = np.array([0.7])
    minimizer, _ = box.support_min(g)
    assert regret_rows(np.tile(minimizer, (5, 1)), np.tile(g, (5, 1)), box, -1) == 0.0


def test_dynamic_regret_examples():
    # the per-round dynamic regret terms of an exact game: each player's
    # loss minus its best-response value
    game = make_bilinear_saddle(1.0, 1.0, (1, 1))
    assert math.isclose(best_response_gaps(game, np.ones((1, 2)))[0, 0], 2.0, abs_tol=1e-12)
    assert np.array_equal(best_response_gaps(game, np.zeros((4, 2))), np.zeros((4, 2)))


def test_dynamic_regret_fallback_is_linearized_gap():
    # without an exact best response, a round's term is each player's
    # linearized gap, from one support pass of the joint set: the same as
    # <g_i, z_i> - min over the player's own set of <g_i, x>, clipped at 0
    game = make_game("appendix_e", n=4, box_half_width=1.0)
    Z = box_points(game.joint_set, RNG, 5)
    G = np.array([game.gradient_fn(z) for z in Z])
    got = linearized_gaps(*regret_terms(game.joint_set, Z, G, game.slices()))
    for z, v, row in zip(Z, G, got):
        for i, s in enumerate(game.slices()):
            want = max(float(z[s] @ v[s]) - game.player_sets[i].support_min(v[s])[1], 0.0)
            assert math.isclose(row[i], want, abs_tol=1e-12)


def one_row_gaps(game, z):
    """Each player's loss minus best-response value, from the row oracle on
    the one row z."""
    return [float(game.losses[i](z[None])[0] - game.best_response_fn(i, z[None])[1][0])
            for i in range(game.num_players)]


@pytest.mark.parametrize("d", [1, 3])
def test_best_response_gaps_rows_equal_one_row_calls(d):
    game = make_bilinear_saddle(1.5, 1.0, (d, d))
    Z = box_points(game.joint_set, RNG, 9)
    Z[0] = 0.0
    gaps = best_response_gaps(game, Z)
    assert gaps.shape == (9, 2)
    for row, z in zip(gaps, Z):
        want = np.array(one_row_gaps(game, z))
        assert np.array_equal(row.view(np.int64), want.view(np.int64))


def test_exact_total_gap_is_the_one_row_sum():
    game = make_bilinear_saddle(3.0, 1.0, (2, 2))
    for z in [*box_points(game.joint_set, RNG, 20), np.zeros(4)]:
        want = sum(one_row_gaps(game, z))
        got = measures(game, z)[2]
        assert type(got) is float and got.hex() == want.hex()


def custom_exact_game(losses, values):
    """A 1+1 bilinear operator whose exact oracle gives both players the
    losses ``losses(Z)`` and best-response values ``values(Z)``."""
    M = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return GameOracle([symmetric_box(1.0, 1)] * 2, 1.0, affine=(M, np.zeros(2)),
                      losses=[losses] * 2,
                      best_response_fn=lambda player, Z: (-np.ones((len(Z), 1)), values(Z)))


def test_best_response_gaps_reject_a_non_finite_row(monkeypatch):
    # The gaps pass through the run's block check, which names the round of
    # the first non-finite row: the fourth row of the first block.
    def values(Z):
        return np.where(np.arange(len(Z)) == 3, np.nan, -1.0)

    game = custom_exact_game(lambda Z: Z[:, 0] * Z[:, 1], values)
    assert np.isnan(best_response_gaps(game, np.zeros((6, 2)))[3]).all()
    monkeypatch.setattr("monolearn.harness.make_game", lambda *a, **k: game)
    with pytest.raises(HarnessError, match="^round 4: a measured value overflowed$"):
        run_self_play(ExperimentConfig(game="custom", T=20))
    # a misshaped result is the oracle's error
    game.losses = [lambda Z: np.zeros((len(Z), 2))] * 2
    game.best_response_fn = lambda player, Z: (Z[:, :1], np.zeros((len(Z), 2)))
    with pytest.raises(GameError, match="misshaped"):
        best_response_gaps(game, np.zeros((6, 2)))


def test_exact_total_gap_of_negative_zeros_is_positive_zero():
    # per-player gaps (-0.0, -0.0): Python's sum starts from int 0, so the
    # total is 0.0, as the CSV has always had it
    game = custom_exact_game(lambda Z: np.full(len(Z), -0.0), lambda Z: np.zeros(len(Z)))
    z = np.zeros(2)
    assert [g.hex() for g in best_response_gaps(game, z[None])[0]] == ["-0x0.0p+0"] * 2
    assert measures(game, z)[2].hex() == "0x0.0p+0"


def test_second_order_variation():
    # S = sum_{t>=2} ||g_t - g_{t-1}||^2: running sums of the increments
    def S(grads):
        g = np.array(grads, dtype=float)
        return float(running_sums(0.0, gradient_variation(g[1:], g[:-1]))[-1])

    assert S([np.ones(2)] * 5) == 0.0
    assert S([[1.0, 0.0], [0.0, 1.0]]) == 2.0
    assert S([[1.0, 0.0], [0.0, 1.0], [0.0, 3.0]]) == 6.0


def test_learner_variation_matches_metric():
    cfg = small_config(T=60, dims=(1, 1))
    g = np.array([g_half[0:1] for _, _, g_half, _ in kernel_run(cfg)[3]])
    want = float(np.sum(np.diff(g, axis=0) ** 2))
    got = run_self_play(cfg)["S_1"][-1]
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)


def test_potential_dual_path_recomputation():
    cfg = small_config(T=30, dims=(1, 1))
    potential = run_self_play(cfg)["potential"]  # stride 1: row t - 1 is round t
    game, players, x1, steps = kernel_run(cfg)
    eta = players[0].eta
    for t in (2, 3, 17):
        # independent re-derivation from the kernel's vectors
        x_prev, _, g_prev = steps[t - 2][:3]
        x_t = steps[t - 1][0]
        c = (x_prev - eta * g_prev + (x1 - x_prev) / t - x_t) / eta
        v = game.gradient_fn(x_t)
        r = eta * (v + c)
        d = eta * (v - g_prev)
        p = t * (t + 1) / 2.0 * (float(r @ r) + float(d @ d)) + t * float(r @ (x_t - x1))
        # and the runner's column agrees
        assert abs(potential[t - 1] - p) <= 1e-10 * max(1.0, abs(p))


def test_potential_requires_second_round():
    columns = run_self_play(small_config(T=10, dims=(1, 1)))
    assert columns["t"][:2] == [1, 2]
    assert columns["potential"][0] is None
    assert all(p is not None for p in columns["potential"][1:])


def test_stationary_nash_run_is_flat():
    cfg = small_config(T=20, dims=(1, 1), x1=[0.0, 0.0])
    for x_t, half, *_ in kernel_run(cfg)[3]:
        assert np.array_equal(x_t, np.zeros(2))
        assert np.array_equal(half, np.zeros(2))
    columns = run_self_play(cfg)
    assert all(p == 0.0 for p in columns["potential"][1:])
    *_, residual_norm, _ = replay_potential(cfg, columns)
    assert all(r == 0.0 for r in residual_norm)
    assert all(r_tan == 0.0 for r_tan in columns["r_tan"])


def test_csv_header_matches_schema():
    assert csv_header(2) == (
        "t,r_tan,gap,tgap_exact,potential,"
        "eta_1,eta_2,S_1,S_2,extreg_1,extreg_2,dynreg_1,dynreg_2,"
        "dist_half,dist_anchor"
    )
    assert csv_header(1).count(",") == 10


def test_csv_row_formatting():
    row = csv_row((3, 0.5, None, None, 1.25, 0.1, 0.0, None, 2.0, 0.0, 1.0))
    assert row == "3,0.5,,,1.25,0.1,0.0,,2.0,0.0,1.0"
    # repr round-trips floats exactly
    third = 1.0 / 3.0
    assert float(csv_row((third,))) == third
    # a column of one repeated float is formatted once; zeros keep their sign
    assert csv_cells([third] * 3) == [repr(third)] * 3
    assert csv_cells([0.0, -0.0, 0.0]) == ["0.0", "-0.0", "0.0"]
    assert csv_cells([2.0, 2.0, None]) == ["2.0", "2.0", ""]
    assert csv_cells([]) == []
