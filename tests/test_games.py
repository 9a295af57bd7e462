import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from monolearn.games import (
    GameOracle,
    banded_coupling_matrix,
    make_appendix_d_toy,
    make_appendix_e_instance,
    make_bilinear_saddle,
    make_game,
    make_random_linear_monotone,
    spectral_norm,
)
from monolearn.geometry import Ball, Box, MonolearnError, ProductSet, Unconstrained, symmetric_box

from conftest import box_points

RNG = np.random.default_rng(777)


def paper_appendix_e(n):
    """A, b, h and H of the Appendix E instance from the paper's definitions:
    the banded A, b = 1/4, h = e_n/4 and H = 2 A^T A."""
    A = banded_coupling_matrix(n)
    h = np.zeros(n)
    h[-1] = 0.25
    return A, np.full(n, 0.25), h, 2.0 * A.T @ A


def central_difference_gradient(loss, z, step=1e-5):
    g = np.zeros_like(z)
    for j in range(z.size):
        hi, lo = z.copy(), z.copy()
        hi[j] += step
        lo[j] -= step
        g[j] = (loss(hi) - loss(lo)) / (2.0 * step)
    return g


def bilinear_loss(scale, player, z):
    """``player``'s loss at the profile ``z`` = (x, y) of the bilinear game,
    from f(x, y) = scale * <x, y>: player 1 minimizes f, player 2 -f."""
    x, y = np.split(np.asarray(z, dtype=float), 2)
    return (1 - 2 * player) * scale * float(x @ y)


def bilinear_best_response(scale, w, player, z):
    """The (argmin, min) of ``player``'s loss over its box [-w, w]^d at the
    profile ``z``, written out: each own coordinate goes to the bound that
    makes its term of the loss negative, and to -w where the term is 0."""
    x, y = np.split(np.asarray(z, dtype=float), 2)
    coeff = scale * y if player == 0 else -scale * x
    action = np.where(coeff < 0, w, -w)
    return action, -w * float(np.abs(coeff).sum())


def derived_best_response(game, player, Z):
    """What the runs take as ``player``'s best responses to the rows ``Z``:
    the support minimum of its block of V over its own set."""
    s = game.slices()[player]
    return game.player_sets[player].support_min((Z @ game.affine[0].T + game.affine[1])[:, s])


def power_iteration_norm(M, iters=500):
    v = np.ones(M.shape[1]) / math.sqrt(M.shape[1])
    G = M.T @ M
    for _ in range(iters):
        v = G @ v
        v /= np.linalg.norm(v)
    return math.sqrt(float(v @ G @ v))


def test_bilinear_gradient_example():
    game = make_bilinear_saddle(1.0, 1.0, (1, 1))
    g = game.gradient_fn(np.array([0.5, 0.3]))
    assert np.allclose(g, [0.3, -0.5], atol=1e-15)
    assert np.array_equal(game.gradient_fn(np.zeros(2)), np.zeros(2))


def test_bilinear_zero_sum_losses():
    # each loss is linear in the own action, <V_i(z), z_i>, and the two add
    # to 0: the operator is that of the zero-sum game
    game = make_bilinear_saddle(2.0, 1.0, (2, 2))
    for z in box_points(game.joint_set, RNG, 20):
        v = game.gradient_fn(z)
        own = [float(v[s] @ z[s]) for s in game.slices()]
        assert own == pytest.approx([bilinear_loss(2.0, i, z) for i in range(2)], abs=1e-12)
        assert abs(own[0] + own[1]) <= 1e-12


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
    # the last case is a zero objective for player 2: the tie goes to the
    # lower bound
    cases = ((0, [0.0, 0.5], -1.0, -0.5), (0, [0.0, -1.0], 1.0, -1.0), (1, [0.0, 0.3], -1.0, 0.0))
    for player, z, action, value in cases:
        a, v = bilinear_best_response(1.0, 1.0, player, z)
        assert np.array_equal(a, [action]) and v == value
        (a,), (v,) = derived_best_response(game, player, np.array([z]))
        assert np.array_equal(a, [action]) and v == value


def appendix_e_loss(n, player, z):
    """``player``'s loss at the profile ``z`` of the Appendix E game, from
    the paper's f(x, y) = x'Hx/2 - h'x - <Ax - b, y>: player 1 minimizes f,
    player 2 maximizes it."""
    A, b, h, H = paper_appendix_e(n)
    x, y = z[:n], z[n:]
    f = 0.5 * x @ H @ x - h @ x - (A @ x - b) @ y
    return f if player == 0 else -f


def test_gradients_match_finite_differences():
    cases = [
        (make_bilinear_saddle(1.5, 1.0, (2, 2)), None),
        (make_appendix_e_instance(4, box_half_width=5.0), 4),
    ]
    for game, n in cases:
        slices = game.slices()
        for z in box_points(game.joint_set, RNG, 10):
            v = game.gradient_fn(z)
            for i, s in enumerate(slices):
                loss = (lambda w: bilinear_loss(1.5, i, w)) if n is None else (
                    lambda w: appendix_e_loss(n, i, w))
                full = central_difference_gradient(loss, z)
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
        A, _, _, H = paper_appendix_e(n)
        assert np.array_equal(game.affine[0][:n, :n], H)
        assert np.array_equal(game.affine[0][n:, :n], A)
        assert power_iteration_norm(A) <= 0.5 + 1e-9
        assert power_iteration_norm(H) <= 0.5 + 1e-9
        assert np.allclose(H, H.T)
        assert np.min(np.linalg.eigvalsh(H)) >= -1e-12
        assert game.lipschitz_bound == 1.0


def test_banded_instance_gradient_at_zero():
    game = make_appendix_e_instance(3, box_half_width=1.0)
    _, b, h, _ = paper_appendix_e(3)
    v = game.gradient_fn(np.zeros(6))
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
        with pytest.raises(MonolearnError, match="psd_diag"):
            make_random_linear_monotone((2, 2), psd_diag=-1.0, bounded=bounded)
    M = make_random_linear_monotone((2, 2), psd_diag=0.25, seed=3).affine[0]
    assert np.array_equal((M + M.T) / 2.0, 0.25 * np.eye(4))


def test_joint_set_is_built_once_per_game():
    boxes = make_appendix_e_instance(4)
    joint = boxes.joint_set
    assert isinstance(joint, Box) and joint is boxes.joint_set
    assert np.array_equal(joint.lower, np.full(8, -200.0))
    free = make_random_linear_monotone((2, 3)).joint_set
    # a free player is the box with infinite bounds, and so is a product of them
    assert isinstance(free, Box) and free.dim == 5 and not free.is_bounded
    assert np.array_equal(free.lower, np.full(5, -np.inf))
    assert np.array_equal(free.upper, np.full(5, np.inf))
    mixed = GameOracle([symmetric_box(1.0, 2), Ball(np.zeros(2), 1.0)], 1.0,
                       affine=(np.eye(4), np.zeros(4)))
    assert isinstance(mixed.joint_set, ProductSet)


@pytest.mark.parametrize("bounded", [None, 1.0])
@pytest.mark.parametrize("seed", [0, 1])
def test_random_linear_odd_skew_game_builds_and_plays(seed, bounded):
    # psd_diag = 0 and an odd dimension make M skew-symmetric and singular:
    # a valid monotone game with no unique zero of V.
    from monolearn.harness import ExperimentConfig, run_self_play

    params = {"dims": [1, 2], "psd_diag": 0.0, "seed": seed, "bounded": bounded}
    game = make_random_linear_monotone(**params)
    assert abs(np.linalg.det(game.affine[0])) <= 1e-12
    assert game.validate() is game
    result = run_self_play(ExperimentConfig(game="random_linear_monotone", game_params=params,
                                            algo="aog", T=50, stride=1))
    assert result["t"] == list(range(1, 51))
    assert all(math.isfinite(v) for v in result["r_tan"])


# Random square matrices (n = 1..40), the zero matrix, rank-1 matrices and
# skew + c*I, each optionally scaled by 2^900 or 2^-900.
ENTRIES = st.floats(-10.0, 10.0, allow_subnormal=False)


@st.composite
def norm_cases(draw):
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["random", "zero", "rank1", "skew"]))
    if kind == "random":
        M = draw(arrays(np.float64, (n, n), elements=ENTRIES))
    elif kind == "zero":
        M = np.zeros((n, n))
    elif kind == "rank1":
        u, v = (draw(arrays(np.float64, n, elements=ENTRIES)) for _ in range(2))
        M = np.outer(u, v)
    else:
        B = draw(arrays(np.float64, (n, n), elements=ENTRIES))
        M = (B - B.T) / 2.0 + draw(ENTRIES) * np.eye(n)
    return np.ldexp(M, draw(st.sampled_from([0, 900, -900])))


@settings(max_examples=200, deadline=None)
@given(norm_cases())
def test_spectral_norm_matches_svd(M):
    want = float(np.linalg.norm(M, 2))
    got = spectral_norm(M)
    if not M.any():
        assert got == 0.0
    else:
        assert math.isclose(got, want, rel_tol=1e-12)


def test_spectral_norm_rejects_non_finite_entries():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(MonolearnError, match="non-finite"):
            spectral_norm(np.array([[1.0, bad], [0.0, 1.0]]))


def test_make_game_registry():
    assert make_game("appendix_d_toy").name == "appendix_d_toy"
    with pytest.raises(MonolearnError):
        make_game("nope")
    with pytest.raises(MonolearnError):
        make_appendix_e_instance(1)


@pytest.mark.parametrize("start", [[0.0, math.nan], [0.0, 0.0, 0.0]])
def test_start_must_be_finite_and_of_the_joint_size(start):
    # the oracle checks its start itself: projection does not check input
    with pytest.raises(MonolearnError):
        GameOracle([symmetric_box(1.0, 1)] * 2, 1.0, affine=(np.eye(2), np.zeros(2)),
                   start=start)


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
                        1.0, affine=(np.eye(3), np.zeros(3)))
    assert np.array_equal(custom.start, [0.0, 0.0, 1.0])


def test_bounded_random_linear_runs_from_game_start():
    from monolearn.harness import ExperimentConfig, run_self_play

    cfg = ExperimentConfig(game="random_linear_monotone",
                           game_params={"dims": (2, 2), "bounded": 0.5}, T=50, stride=10)
    result = run_self_play(cfg)
    assert result["gap"][-1] is not None


def test_make_game_rejects_unknown_params():
    with pytest.raises(MonolearnError, match="bogus"):
        make_game("bilinear", bogus=1)


def assert_exact_certificate(game):
    M, r = game.affine
    assert r.shape == (game.dim,)
    sym_min = np.linalg.eigvalsh((M + M.T) / 2.0)[0]
    assert sym_min >= -1e-10 * max(1.0, game.lipschitz_bound)
    assert np.linalg.norm(M, 2) <= game.lipschitz_bound + 1e-8
    assert game.validate() is game
    z = game.start
    assert np.array_equal(game.gradient_fn(z), M @ z + r)


@pytest.mark.parametrize("scale", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_bilinear_certificate_is_exact(scale, d):
    game = make_bilinear_saddle(scale, 1.0, (d, d))
    assert_exact_certificate(game)
    assert np.array_equal((game.affine[0] + game.affine[0].T) / 2.0, np.zeros((2 * d, 2 * d)))
    assert math.isclose(np.linalg.norm(game.affine[0], 2), scale, rel_tol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 10, 100])
def test_appendix_e_certificate_is_exact(n):
    game = make_appendix_e_instance(n)
    assert_exact_certificate(game)
    M, r = game.affine
    A, b, h, H = paper_appendix_e(n)
    assert np.array_equal(M, np.block([[H, -A.T], [A, np.zeros((n, n))]]))
    assert np.array_equal(r, np.concatenate([-h, -b]))


@pytest.mark.parametrize("bounded", [None, 0.5])
def test_random_linear_certificate_is_exact(bounded):
    game = make_random_linear_monotone((3, 2), psd_diag=0.1, seed=4, bounded=bounded)
    assert_exact_certificate(game)
    assert game.lipschitz_bound == np.linalg.norm(game.affine[0], 2)


@pytest.mark.parametrize("L", [0.0, -1.0, math.nan, math.inf])
def test_oracle_rejects_a_non_finite_or_non_positive_lipschitz_bound(L):
    with pytest.raises(MonolearnError,
                       match="^lipschitz_bound: must be a finite number > 0, got "):
        GameOracle([symmetric_box(1.0, 2)], L, affine=(np.eye(2), np.zeros(2)))


@pytest.mark.parametrize("M, r", [
    (np.eye(3), np.zeros(3)),
    (np.eye(2), np.zeros(3)),
    (np.zeros(2), np.zeros(2)),
    (np.array([[0.0, np.nan], [0.0, 0.0]]), np.zeros(2)),
    (np.zeros((2, 2)), np.array([0.0, np.inf])),
])
def test_oracle_rejects_an_operator_of_the_wrong_shape_or_non_finite(M, r):
    with pytest.raises(MonolearnError,
                       match=r"^affine: need a finite \(2, 2\) M and a finite \(2,\) r"):
        GameOracle(player_sets=[symmetric_box(1.0, 1)] * 2, lipschitz_bound=1.0, affine=(M, r))


def test_affine_validation_rejects_with_the_failing_value():
    box = [symmetric_box(1.0, 2)]
    with pytest.raises(MonolearnError,
                       match=r"not monotone: lambda_min\(\(M \+ M\^T\)/2\) = -1\.0"):
        GameOracle(box, 1.0, affine=(-np.eye(2), np.zeros(2))).validate()
    with pytest.raises(MonolearnError, match=r"\|\|M\|\|_2 = 2\.0 > L = 1\.5"):
        GameOracle(box, 1.5, affine=(2.0 * np.eye(2), np.zeros(2))).validate()


def test_builtin_builds_make_no_eigen_solve(monkeypatch):
    # bilinear and appendix_e meet the Gershgorin and Schur bounds exactly,
    # so validate returns before eigvalsh (which spectral_norm also calls)
    def refuse(*args, **kwargs):
        raise AssertionError("a built-in game build ran an eigen-solve")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for d in (1, 3):
        for scale in (0.5, 3.0):
            make_game("bilinear", payoff_scale=scale, dims=(d, d))
    make_game("appendix_d_toy")
    for n in (2, 3, 10, 100):
        make_game("appendix_e", n=n)


@st.composite
def certificate_cases(draw):
    """An affine operator M (random, skew + c*I, PSD, non-monotone or
    diagonal) and an L below or above ||M||_2."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["random", "skew", "psd", "non_monotone", "diagonal"]))
    B = draw(arrays(np.float64, (n, n), elements=ENTRIES))
    if kind == "random":
        M = B
    elif kind == "skew":
        M = (B - B.T) / 2.0 + draw(st.floats(-1.0, 1.0)) * np.eye(n)
    elif kind == "psd":
        M = B.T @ B
    elif kind == "non_monotone":
        M = (B - B.T) / 2.0 - B.T @ B - np.eye(n)
    else:
        M = np.diag(np.diagonal(B))
    norm = spectral_norm(M)
    return M, draw(st.floats(0.25, 4.0)) * (norm if norm > 0 else 1.0)


def far_from(value, threshold):
    return abs(value - threshold) > 1e-9 * max(abs(value), abs(threshold))


@settings(max_examples=300, deadline=None)
@given(certificate_cases())
@example((np.array([[5e-324]]), 0.0))
def test_affine_validation_agrees_with_the_eigen_certificate(case):
    M, L = case
    if not L > 0:  # the drawn factor times a subnormal ||M||_2 underflows to 0
        with pytest.raises(MonolearnError,
                           match="^lipschitz_bound: must be a finite number > 0, got "):
            GameOracle([Unconstrained(M.shape[0])], L, affine=(M, np.zeros(M.shape[0])))
        return
    low = float(np.linalg.eigvalsh((M + M.T) / 2.0)[0])
    norm = spectral_norm(M)
    floor, cap = -1e-10 * max(1.0, L), L + 1e-8
    assume(far_from(low, floor) and far_from(norm, cap))
    game = GameOracle([Unconstrained(M.shape[0])], L, affine=(M, np.zeros(M.shape[0])))
    if low >= floor and norm <= cap:
        assert game.validate() is game
    else:
        with pytest.raises(MonolearnError):
            game.validate()


def test_make_game_rejects_validate_key():
    with pytest.raises(MonolearnError, match="validate"):
        make_game("bilinear", validate=False)


@pytest.mark.parametrize("scale", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_bilinear_gradient_and_best_responses_are_closed_forms(scale, d):
    # Profile rows, with exact zeros so ties and signed zeros are covered:
    # the gradient is the closed form bit for bit, and the best responses
    # the runs derive from it, as rows, are the closed forms too.
    game = make_bilinear_saddle(scale, 1.0, (d, d))
    rng = np.random.default_rng(d)
    Z = box_points(game.joint_set, rng, 20)
    Z[:4, :d] = 0.0
    Z[2:6, d:] = 0.0
    rows = [derived_best_response(game, i, Z) for i in range(2)]
    for actions, values in rows:
        assert values.shape == (20,) and actions.shape == (20, d)
    for k, z in enumerate(Z):
        x, y = z[:d], z[d:]
        assert np.array_equal(game.gradient_fn(z), np.concatenate([scale * y, -scale * x]))
        for player in range(2):
            actions, values = rows[player]
            action, value = bilinear_best_response(scale, 1.0, player, z)
            assert np.array_equal(actions[k], action)
            assert math.isclose(values[k], value, rel_tol=1e-15)
