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
from monolearn.harness import ExperimentConfig, _build_learners, _recorded_rounds, run_self_play

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
