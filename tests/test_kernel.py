"""The joint-state self-play round against a per-player reference loop.

``reference_self_play`` drives one learner object per player through the
propose / observe_base / update protocol and measures every round per
player, on the product of the players' sets. ``run_self_play`` must
reproduce its iterates bit for bit and its recorded rows to 1e-12.
"""

import math

import numpy as np
import pytest

from monolearn.games import make_game
from monolearn.geometry import ProductSet
from monolearn.harness import (
    BLOCK_ROWS,
    ExperimentConfig,
    HarnessError,
    _build_learners,
    _recorded_rounds,
    run_self_play,
)
from monolearn.learners import ADAPTATION_FACTOR

ROW_FIELDS = ("r_tan", "gap", "tgap_exact", "potential", "dist_half", "dist_anchor")
TUPLE_FIELDS = ("eta", "S", "extreg", "dynreg")


def reference_self_play(config):
    """Per-player self-play loop: (rows, bases, halves, grads, final etas)."""
    game = make_game(config.game, **config.game_params)
    players, _, x1 = _build_learners(config, game)
    slices = game.slices()
    N = game.num_players
    joint = ProductSet(tuple(game.player_sets))
    bounded = joint.is_bounded
    exact = game.has_best_response and game.losses is not None
    needs_base = config.record_potential or any(p.needs_base_gradient for p in players)
    eta = players[0].eta
    recorded = _recorded_rounds(config.T, config.stride)

    sum_g = [np.zeros(s.dim) for s in game.player_sets]
    sum_gx, dynreg, s_var = [0.0] * N, [0.0] * N, [0.0] * N
    rows, bases, halves, grads = [], [], [], []
    prev_base = prev_g = None
    for t in range(1, config.T + 1):
        base = np.concatenate([p.x for p in players])
        g_base = game.gradient_fn(base) if needs_base else None
        for p, s in zip(players, slices):
            if p.needs_base_gradient:
                p.observe_base(g_base[s])
        etas = tuple(p.eta for p in players)
        half = np.concatenate([p.propose() for p in players])
        g_half = game.gradient_fn(half)
        for i, (p, s) in enumerate(zip(players, slices)):
            gi = g_half[s]
            if t >= 2:
                d = gi - prev_g[s]
                s_var[i] += float(d @ d)
            sum_g[i] += gi
            sum_gx[i] += float(gi @ half[s])
            if exact:
                dynreg[i] += game.loss(i, half) - game.best_response(i, half)[1]
            elif bounded:
                dynreg[i] += game.player_sets[i].linearized_gap(half[s], gi)
            p.update(gi)
        pot = None
        if config.record_potential and t >= 2:
            c_t = (prev_base - eta * prev_g + (x1 - prev_base) / t - base) / eta
            resid = eta * (g_base + c_t)
            drift = eta * (g_base - prev_g)
            pot = (t * (t + 1) / 2.0 * (float(resid @ resid) + float(drift @ drift))
                   + t * float(resid @ (base - x1)))
        if t in recorded:
            rows.append(dict(
                t=t,
                r_tan=joint.tangent_residual(half, g_half),
                gap=joint.linearized_gap(half, g_half) if bounded else None,
                tgap_exact=sum(game.loss(i, half) - game.best_response(i, half)[1]
                               for i in range(N)) if exact else None,
                potential=pot,
                eta=etas,
                S=tuple(s_var),
                extreg=tuple(sum_gx[i] - game.player_sets[i].support_min(sum_g[i])[1]
                             for i in range(N)) if bounded else (None,) * N,
                dynreg=tuple(dynreg) if bounded or exact else (None,) * N,
                dist_half=float(np.linalg.norm(half - base)),
                dist_anchor=float(np.linalg.norm(x1 - base)),
            ))
        bases.append(base)
        halves.append(half)
        grads.append(g_half)
        prev_base, prev_g = base, g_half
    bases.append(np.concatenate([p.x for p in players]))
    return rows, bases, halves, grads, [p.eta for p in players]


def close(a, b, rel=1e-12):
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= rel * max(abs(a), abs(b)) or a == b


def assert_equivalent(config):
    config.keep_trajectory = True
    result = run_self_play(config)
    rows, bases, halves, grads, etas = reference_self_play(config)
    traj = result.trajectory
    for name, want, got in (("base", bases, traj.base[1:]), ("half", halves, traj.half[1:]),
                            ("grad", grads, traj.grad_half[1:])):
        assert len(want) == len(got)
        for k, (w, g) in enumerate(zip(want, got)):
            assert np.array_equal(w, g), f"{name} differs at round {k + 1}"
    assert result.eta == etas
    assert len(result.records) == len(rows)
    for rec, row in zip(result.records, rows):
        assert rec.t == row["t"]
        for name in ROW_FIELDS:
            assert close(getattr(rec, name), row[name]), (rec.t, name)
        for name in TUPLE_FIELDS:
            got, want = getattr(rec, name), row[name]
            assert len(got) == len(want)
            assert all(close(a, b) for a, b in zip(got, want)), (rec.t, name)
    return result


@pytest.mark.parametrize("tag", ["gd", "og", "eg", "eag", "aog", "aog_adaptive"])
def test_each_learner_matches_reference(tag):
    assert_equivalent(ExperimentConfig(game="bilinear", game_params={"dims": (2, 2)},
                                       algo=tag, T=150, stride=7, eta=0.2, L=1.0, D=4.0))


@pytest.mark.parametrize("tags", [["og", "eag"], ["gd", "aog"], ["eg", "aog_adaptive"]])
def test_mixed_learners_match_reference(tags):
    assert_equivalent(ExperimentConfig(game="appendix_e", game_params={"n": 5},
                                       algo=tags, T=200, stride=3, L=1.0, D=30.0))


def test_exact_bilinear_with_potential_matches_reference():
    result = assert_equivalent(ExperimentConfig(game="bilinear", game_params={"dims": (2, 2)},
                                                algo="aog", T=300, record_potential=True))
    assert all(r.tgap_exact is not None for r in result.records)


def test_appendix_e_matches_reference():
    assert_equivalent(ExperimentConfig(game="appendix_e", game_params={"n": 5},
                                       algo="aog", eta=0.3, T=400, stride=11))


def test_unbounded_random_linear_matches_reference():
    for tag in ("aog", "eag"):
        assert_equivalent(ExperimentConfig(game="random_linear_monotone",
                                           game_params={"dims": (3, 2), "seed": 4},
                                           algo=tag, T=200, stride=9))


def test_adaptive_switch_mid_run_matches_reference():
    # L * D small enough that each player's variation threshold trips
    # partway through the run, at a different round per player.
    config = ExperimentConfig(game="appendix_e", game_params={"n": 5},
                              algo="aog_adaptive", T=300, L=1.0, D=8e-4, eta=0.3)
    result = assert_equivalent(config)
    switched = [next(k for k, r in enumerate(result.records) if r.eta[i] != 0.3)
                for i in range(2)]
    assert 1 < min(switched) < max(switched) < len(result.records) - 1
    last, prev = result.records[-1], result.records[-2]
    for i in range(2):
        assert last.eta[i] == 1.0 / math.sqrt(1.0 + prev.S[i])


# -- block boundaries of the measurement pass ----------------------------------

B = BLOCK_ROWS


@pytest.mark.parametrize("T", [2 * B - 1, 2 * B, 2 * B + 1])
def test_horizon_around_block_multiples_matches_reference(T):
    result = assert_equivalent(ExperimentConfig(game="bilinear", game_params={"dims": (2, 2)},
                                                algo="aog", T=T, record_potential=True))
    assert [r.t for r in result.records] == list(range(1, T + 1))
    assert len(result.certificates["t"]) == T
    assert_equivalent(ExperimentConfig(game="appendix_e", game_params={"n": 5},
                                       algo="og", eta=0.3, T=T, stride=5))


@pytest.mark.parametrize("game, params", [("appendix_e", {"n": 5}),
                                          ("bilinear", {"dims": (2, 2)})])
def test_stride_longer_than_a_block_matches_reference(game, params):
    # Rounds B+1..2B and 3B+1..4B form blocks without a recorded row.
    result = assert_equivalent(ExperimentConfig(game=game, game_params=params, algo="aog",
                                                eta=0.3, T=5 * B + 3, stride=2 * B + 1))
    assert [r.t for r in result.records] == [1, 2 * B + 2, 4 * B + 3, 5 * B + 3]


@pytest.mark.parametrize("latch_round", [B, B + 1, B + B // 2])
def test_adaptive_switch_at_block_positions_matches_reference(latch_round):
    # Both players share one threshold. It sits halfway between the larger
    # player S of a fixed-step run at latch_round - 1 and at latch_round, so
    # the first latch trips on latch_round and the adapted step is first
    # played on the round after: the first round of the second block, its
    # second round, or the middle of it.
    base = dict(game="appendix_e", game_params={"n": 5}, algo="aog_adaptive",
                T=2 * B + 10, eta=0.3, L=1.0)
    fixed = run_self_play(ExperimentConfig(**base, D=1e6))
    top = [max(r.S) for r in fixed.records]
    assert top[latch_round - 2] < top[latch_round - 1]
    threshold = (top[latch_round - 2] + top[latch_round - 1]) / 2.0
    result = assert_equivalent(ExperimentConfig(
        **base, D=math.sqrt(threshold / ADAPTATION_FACTOR)))
    etas = [r.eta for r in result.records]
    assert all(e == (0.3, 0.3) for e in etas[:latch_round])
    switched = [i for i in range(2) if etas[latch_round][i] != 0.3]
    assert switched
    for i in switched:
        assert etas[latch_round][i] == 1.0 / math.sqrt(1.0 + result.records[latch_round - 1].S[i])


def test_mixed_tags_with_mid_run_latch_across_blocks_match_reference():
    # With this D the aog_adaptive player first plays its adapted step at
    # round 148, inside the second block.
    result = assert_equivalent(ExperimentConfig(
        game="appendix_e", game_params={"n": 5}, algo=["eag", "aog_adaptive"],
        T=2 * B + 3, stride=3, L=1.0, D=6.9e-4, eta=0.3))
    assert result.records[0].eta[1] == 0.3 != result.records[-1].eta[1]


@pytest.mark.parametrize("game, params", [("bilinear", {"dims": (2, 2)}),
                                          ("random_linear_monotone", {"dims": (3, 2)})])
def test_kept_and_dropped_trajectory_give_identical_records(game, params):
    results = [run_self_play(ExperimentConfig(game=game, game_params=params, algo="aog",
                                              T=2 * B + 9, stride=4, record_potential=True,
                                              keep_trajectory=keep))
               for keep in (True, False)]
    assert results[0].trajectory is not None and results[1].trajectory is None
    assert results[0].records == results[1].records
    assert results[0].certificates == results[1].certificates


def test_non_finite_gradient_mid_block_raises_and_leaves_no_csv(tmp_path, monkeypatch):
    game = make_game("bilinear", dims=(1, 1))
    grad, calls = game.gradient_fn, []

    def gradient_fn(z):
        calls.append(z)
        # aog calls the oracle once per round
        return np.array([np.nan, 0.0]) if len(calls) == B + 17 else grad(z)

    game.gradient_fn = gradient_fn
    monkeypatch.setattr("monolearn.harness.make_game", lambda *a, **k: game)
    out = tmp_path / "run.csv"
    with pytest.raises(HarnessError, match=rf"round {B + 17}: non-finite"):
        run_self_play(ExperimentConfig(game="bilinear", T=3 * B, out=str(out)))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("game, params", [("bilinear", {"dims": (2, 2)}),
                                          ("appendix_e", {"n": 5})])
def test_strided_rows_equal_stride_one_rows(game, params):
    runs = [run_self_play(ExperimentConfig(game=game, game_params=params, algo="aog",
                                           eta=0.3, T=2 * B + 7, stride=stride))
            for stride in (1, B // 3)]
    by_round = {r.t: r for r in runs[0].records}
    assert all(r == by_round[r.t] for r in runs[1].records)
