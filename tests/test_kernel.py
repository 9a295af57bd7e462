"""The joint round loop against a per-player reference loop.

``RefPlayer`` is one player's rule written out on its own state, from the
shared update-rule functions (``RULES``, ``step``, ``anchor_pull``) and
nothing of the round loop; it keeps its own latch of the adaptive step
size, so it checks the loops' latch-free rule independently. ``reference_self_play``
steps one per player and measures every round per player, on the product of
the players' sets, with r_tan written out per coordinate
(``box_tangent_residual``), not taken from ``geometry``. The
``learners.dynamics`` kernel, on the oracle that ``run_self_play`` hands
it, must reproduce its iterates bit for bit, and ``run_self_play`` its
recorded rows to 1e-12. ``reference_play`` charges one learner's
phase points as online rounds, as ``learners.play_rows`` must.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monolearn.games import make_game
from monolearn.geometry import Ball, Box, MonolearnError, ProductSet, Unconstrained, symmetric_box
from monolearn.harness import (
    BLOCK_ROWS,
    ExperimentConfig,
    _build_learners,
    block_rows,
    make_adversary,
    run_self_play,
)
from monolearn.learners import (
    ADAPTATION_FACTOR,
    RULES,
    anchor_pull,
    Oblivious,
    make_learner,
    play_rows,
    step,
)

from conftest import kernel_run

TAGS = sorted(RULES)


class RefPlayer:
    """One player's iterate x, previous gradient, round t, variation S and
    latch, stepped on the player's own set."""

    def __init__(self, learner):
        self.rule = learner
        self.predictor, self.anchored = RULES[learner.tag]
        self.x = learner.x1.copy()
        self.g_prev = np.zeros(learner.set.dim)
        self.t, self.S, self.eta, self.latched = 1, 0.0, learner.eta, False

    def pull(self):
        if self.anchored:
            return anchor_pull(self.rule.x1, self.x, 1.0 / (self.t + 1.0))
        return None

    def propose(self, g_base=None):
        if self.predictor == "none":
            return self.x.copy()
        g_hat = self.g_prev if self.predictor == "last" else g_base
        return step(self.rule.set, self.x, self.eta * g_hat, self.pull())

    def update(self, g):
        x_next = step(self.rule.set, self.x, self.eta * g, self.pull())
        if self.t >= 2:
            d = g - self.g_prev
            self.S += float(d @ d)
        threshold = self.rule.threshold
        if threshold is not None and (self.latched or self.S > threshold):
            self.eta, self.latched = 1.0 / math.sqrt(1.0 + self.S), True
        self.x, self.g_prev, self.t = x_next, g, self.t + 1


def reference_self_play(config):
    """Per-player self-play loop: (rows, bases, halves, grads, final etas),
    each row a dict from CSV column name to cell."""
    game = make_game(config.game, **config.game_params)
    learners, _, x1 = _build_learners(config, game)
    players = [RefPlayer(p) for p in learners]
    slices = game.slices()
    N = game.num_players
    joint = ProductSet(tuple(game.player_sets))
    bounded = joint.is_bounded
    # the bilinear games' exact gaps, from their losses +-s<x, y> on the box
    # [-w, w]^d, written out here and not read from the run's formula
    exact = config.game in ("bilinear", "appendix_d_toy")
    scale, w = (config.game_params.get(k, 1.0) for k in ("payoff_scale", "box_radius"))
    needs_base = config.record_potential or any(p.predictor == "base" for p in players)
    eta = players[0].eta
    recorded = set(range(1, config.T + 1, config.stride)) | {config.T}

    sum_g = [np.zeros(s.dim) for s in game.player_sets]
    sum_gx, dynreg = [0.0] * N, [0.0] * N
    rows, bases, halves, grads = [], [], [], []
    prev_base = prev_g = None

    def lin_gap(fset, p, g):  # <g, p> - min over the set of <g, x>, clipped at 0
        return max(float(p @ g) - float(fset.support_min(g)[1]), 0.0)

    def exact_gap(i, z):  # player i's loss minus its minimum over its own box
        x, y = np.split(z, 2)
        other = y if i == 0 else x
        return (1 - 2 * i) * scale * float(x @ y) + w * scale * float(np.abs(other).sum())

    for t in range(1, config.T + 1):
        base = np.concatenate([p.x for p in players])
        g_base = game.gradient_fn(base) if needs_base else None
        etas = tuple(p.eta for p in players)
        half = np.concatenate([p.propose(None if g_base is None else g_base[s])
                               for p, s in zip(players, slices)])
        g_half = game.gradient_fn(half)
        for i, (p, s) in enumerate(zip(players, slices)):
            gi = g_half[s]
            sum_g[i] += gi
            sum_gx[i] += float(gi @ half[s])
            if exact:
                dynreg[i] += exact_gap(i, half)
            elif bounded:
                dynreg[i] += lin_gap(game.player_sets[i], half[s], gi)
            p.update(gi)
        pot = None
        if config.record_potential and t >= 2:
            c_t = (prev_base - eta * prev_g + (x1 - prev_base) / t - base) / eta
            resid = eta * (g_base + c_t)
            drift = eta * (g_base - prev_g)
            pot = (t * (t + 1) / 2.0 * (float(resid @ resid) + float(drift @ drift))
                   + t * float(resid @ (base - x1)))
        if t in recorded:
            row = dict(
                t=t,
                r_tan=box_tangent_residual(game.player_sets, half, g_half),
                gap=lin_gap(joint, half, g_half) if bounded else None,
                tgap_exact=sum(exact_gap(i, half) for i in range(N)) if exact else None,
                potential=pot,
                dist_half=float(np.linalg.norm(half - base)),
                dist_anchor=float(np.linalg.norm(x1 - base)),
            )
            for i, p in enumerate(players):
                row[f"eta_{i + 1}"] = etas[i]
                row[f"S_{i + 1}"] = p.S
                row[f"extreg_{i + 1}"] = (
                    sum_gx[i] - float(game.player_sets[i].support_min(sum_g[i])[1])
                    if bounded else None)
                row[f"dynreg_{i + 1}"] = dynreg[i] if bounded or exact else None
            rows.append(row)
        bases.append(base)
        halves.append(half)
        grads.append(g_half)
        prev_base, prev_g = base, g_half
    bases.append(np.concatenate([p.x for p in players]))
    return rows, bases, halves, grads, [p.eta for p in players]


def box_tangent_residual(boxes, p, g):
    """r_tan at the joint point ``p`` on the players' boxes, written out per
    coordinate and not read from ``geometry``: a coordinate inside its
    bounds adds g_j^2, so a free player (bounds -inf and inf) adds ||g_i||^2;
    one on its lower (upper) bound adds only the part of g_j below (above)
    0, which the normal cone there cannot cancel."""
    lower = np.concatenate([b.lower for b in boxes])
    upper = np.concatenate([b.upper for b in boxes])
    total = 0.0
    for pj, gj, lo, hi in zip(p.tolist(), g.tolist(), lower.tolist(), upper.tolist()):
        if pj == lo:
            gj = min(gj, 0.0)
        if pj == hi:
            gj = max(gj, 0.0)
        total += gj * gj
    return math.sqrt(total)


def reference_play(learner, gradient_source, rounds):
    """The online rounds of one learner as (t, action, g): an eg/eag learner
    plays its base iterate and then its probe point, one round each, and an
    odd horizon ends after a base iterate."""
    p, out, t = RefPlayer(learner), [], 0
    while t < rounds:
        t += 1
        g_base = None
        if p.predictor == "base":
            base = p.x.copy()
            g_base = np.asarray(gradient_source(t, base), dtype=float)
            out.append((t, base, g_base))
            if t == rounds:
                break
            t += 1
        action = p.propose(g_base)
        g = np.asarray(gradient_source(t, action), dtype=float)
        out.append((t, action, g))
        p.update(g)
    return out


def close(a, b, rel=1e-12, floor=0.0):
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), floor) or a == b


def assert_equivalent(config, floor=0.0):
    result = run_self_play(config)
    rows, bases, halves, grads, etas = reference_self_play(config)
    # T + 1 rounds: x_{T+1} is the base point of round T + 1
    *_, run = kernel_run(config, config.T + 1)
    for name, want, got in (("base", bases, [s[0] for s in run]),
                            ("half", halves, [s[1] for s in run[:-1]]),
                            ("grad", grads, [s[2] for s in run[:-1]])):
        assert len(want) == len(got)
        for k, (w, g) in enumerate(zip(want, got)):
            assert np.array_equal(w, g), f"{name} differs at round {k + 1}"
    # the step sizes after round T, which no CSV row holds
    assert list(run[config.T][3]) == etas
    ts = result["t"]
    assert ts == [row["t"] for row in rows]
    assert sorted(result) == sorted(rows[0])
    for name, cells in result.items():
        for t, got, row in zip(ts, cells, rows, strict=True):
            assert close(got, row[name], floor=floor), (t, name)
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
    assert None not in result["tgap_exact"]


def test_appendix_e_matches_reference():
    assert_equivalent(ExperimentConfig(game="appendix_e", game_params={"n": 5},
                                       algo="aog", eta=0.3, T=400, stride=11))


def test_unbounded_random_linear_matches_reference():
    for tag in ("aog", "eag"):
        assert_equivalent(ExperimentConfig(game="random_linear_monotone",
                                           game_params={"dims": (3, 2), "seed": 4},
                                           algo=tag, T=200, stride=9))


@pytest.mark.parametrize("bounded", [None, 1.0])
@pytest.mark.parametrize("tag", TAGS)
def test_one_coordinate_self_play_matches_reference(tag, bounded):
    # one player of one coordinate, on the array loop like all self-play.
    # D = 1e-4 latches aog_adaptive's step size in the first recorded rows of
    # the unconstrained game.
    assert_equivalent(ExperimentConfig(game="random_linear_monotone",
                                       game_params={"dims": [1], "seed": 2, "bounded": bounded},
                                       algo=tag, T=300, stride=7, L=1.0, D=1e-4))


def test_adaptive_switch_mid_run_matches_reference():
    # L * D small enough that each player's variation threshold trips
    # partway through the run, at a different round per player.
    config = ExperimentConfig(game="appendix_e", game_params={"n": 5},
                              algo="aog_adaptive", T=300, L=1.0, D=8e-4, eta=0.3)
    result = assert_equivalent(config)
    switched = [next(k for k, e in enumerate(result[f"eta_{i}"]) if e != 0.3)
                for i in (1, 2)]
    assert 1 < min(switched) < max(switched) < len(result["t"]) - 1
    for i in (1, 2):
        assert result[f"eta_{i}"][-1] == 1.0 / math.sqrt(1.0 + result[f"S_{i}"][-2])


# -- block boundaries of the measurement pass ----------------------------------
# A run's blocks are block_rows(dim) rounds: 1024 at dimension 4 and 409 at
# dimension 10. The tests whose parameters name rounds of B = BLOCK_ROWS
# take the block_budget fixture, which sets the budget to 0, so that
# block_rows gives BLOCK_ROWS at every dimension; the rest take the real
# row count from block_rows.

B = BLOCK_ROWS


@pytest.fixture
def block_budget(monkeypatch):
    monkeypatch.setattr("monolearn.harness.ROW_BUDGET", 0)
    assert block_rows(4) == block_rows(10) == B


@pytest.mark.parametrize("T", [2 * B - 1, 2 * B, 2 * B + 1])
def test_horizon_around_block_multiples_matches_reference(T, block_budget):
    result = assert_equivalent(ExperimentConfig(game="bilinear", game_params={"dims": (2, 2)},
                                                algo="aog", T=T, record_potential=True))
    assert result["t"] == list(range(1, T + 1))
    assert_equivalent(ExperimentConfig(game="appendix_e", game_params={"n": 5},
                                       algo="og", eta=0.3, T=T, stride=5))


@pytest.mark.parametrize("game, params", [("appendix_e", {"n": 5}),
                                          ("bilinear", {"dims": (2, 2)})])
def test_stride_longer_than_a_block_matches_reference(game, params):
    # Rounds R+1..2R and 3R+1..4R form blocks without a recorded row.
    R = block_rows(make_game(game, **params).dim)
    result = assert_equivalent(ExperimentConfig(game=game, game_params=params, algo="aog",
                                                eta=0.3, T=5 * R + 3, stride=2 * R + 1))
    assert result["t"] == [1, 2 * R + 2, 4 * R + 3, 5 * R + 3]


@pytest.mark.parametrize("latch_round", [B, B + 1, B + B // 2])
def test_adaptive_switch_at_block_positions_matches_reference(latch_round, block_budget):
    # Both players share one threshold. It sits halfway between the larger
    # player S of a fixed-step run at latch_round - 1 and at latch_round, so
    # the first latch trips on latch_round and the adapted step is first
    # played on the round after: the first round of the second block, its
    # second round, or the middle of it.
    base = dict(game="appendix_e", game_params={"n": 5}, algo="aog_adaptive",
                T=2 * B + 10, eta=0.3, L=1.0)
    fixed = run_self_play(ExperimentConfig(**base, D=1e6))
    top = [max(s) for s in zip(fixed["S_1"], fixed["S_2"])]
    assert top[latch_round - 2] < top[latch_round - 1]
    threshold = (top[latch_round - 2] + top[latch_round - 1]) / 2.0
    result = assert_equivalent(ExperimentConfig(
        **base, D=math.sqrt(threshold / ADAPTATION_FACTOR)))
    etas = list(zip(result["eta_1"], result["eta_2"]))
    assert all(e == (0.3, 0.3) for e in etas[:latch_round])
    switched = [i for i in range(2) if etas[latch_round][i] != 0.3]
    assert switched
    for i in switched:
        S = result[f"S_{i + 1}"]
        assert etas[latch_round][i] == 1.0 / math.sqrt(1.0 + S[latch_round - 1])


def test_mixed_tags_with_mid_run_latch_across_blocks_match_reference(block_budget):
    # With this D the aog_adaptive player first plays its adapted step at
    # round 148, inside the second block.
    result = assert_equivalent(ExperimentConfig(
        game="appendix_e", game_params={"n": 5}, algo=["eag", "aog_adaptive"],
        T=2 * B + 3, stride=3, L=1.0, D=6.9e-4, eta=0.3))
    eta_2 = result["eta_2"]
    assert eta_2[0] == 0.3 != eta_2[-1]


def test_non_finite_gradient_mid_block_raises_and_leaves_no_csv(tmp_path, monkeypatch):
    game = make_game("bilinear", dims=(1, 1))
    grad, calls = game.gradient_fn, []
    R = block_rows(game.dim)

    def gradient_fn(z):
        calls.append(z)
        # aog calls the oracle once per round
        return np.array([np.nan, 0.0]) if len(calls) == R + 17 else grad(z)

    game.gradient_fn = gradient_fn
    monkeypatch.setattr("monolearn.harness.make_game", lambda *a, **k: game)
    out = tmp_path / "run.csv"
    with pytest.raises(MonolearnError, match=rf"^round {R + 17}: non-finite gradient from the "
                                           rf"oracle at the played point$"):
        run_self_play(ExperimentConfig(game="bilinear", T=3 * R, out=str(out)))
    assert list(tmp_path.iterdir()) == []
    # the block is checked before it is measured: the oracle ran to its end
    assert len(calls) == 2 * R


@pytest.mark.parametrize("game, params", [("bilinear", {"dims": (2, 2)}),
                                          ("appendix_e", {"n": 5})])
def test_strided_rows_equal_stride_one_rows(game, params):
    R = block_rows(make_game(game, **params).dim)
    runs = [run_self_play(ExperimentConfig(game=game, game_params=params, algo="aog",
                                           eta=0.3, T=2 * R + 7, stride=stride))
            for stride in (1, R // 3)]
    every, strided = runs
    assert every["t"] == list(range(1, 2 * R + 8))
    for name, cells in strided.items():
        assert cells == [every[name][t - 1] for t in strided["t"]], name


# -- property tests: random tag mixes, and online play ------------------------


@settings(max_examples=25, deadline=None)
@given(tags=st.lists(st.sampled_from(TAGS), min_size=1, max_size=3), data=st.data())
def test_random_tag_mixes_match_reference(tags, data):
    # A small D puts the adaptive latch inside the run; T straddles the
    # first block of the game's block_rows rounds.
    # Iterates must match bit for bit. A column that cancels to zero, such
    # as the gap of a profile at a corner of the box, keeps a few ulps of
    # its O(1) terms, and the per-player and joint sums order them
    # differently: rows get an absolute floor of 1e-12.
    dims = data.draw(st.lists(st.integers(1, 3), min_size=len(tags), max_size=len(tags)))
    params = {"dims": dims, "seed": data.draw(st.integers(0, 2**16)),
              "bounded": data.draw(st.sampled_from([None, 0.5, 2.0]))}
    R = block_rows(sum(dims))
    assert_equivalent(ExperimentConfig(
        game="random_linear_monotone", game_params=params, algo=tags,
        T=data.draw(st.integers(R - 2, R + 2)),
        stride=data.draw(st.sampled_from([1, 7, R + 1])),
        D=data.draw(st.sampled_from([1e-3, 1e-2, 30.0]))), floor=1e-12)


# Action sets of the online reference runs. An oblivious source against a
# learner on a one-coordinate Box, bounded or free (Unconstrained, the box
# with infinite bounds), runs the float loop; every other run, and every
# adaptive source, runs the array loop.
ONLINE_SETS = {
    "box": lambda dim: Box(-np.ones(dim), 2.0 * np.ones(dim)),
    "unconstrained": lambda dim: Unconstrained(dim),
    "ball": lambda dim: Ball(np.full(dim, 0.5), 1.5),
}


@pytest.mark.parametrize("tag", TAGS)
@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(sorted(ONLINE_SETS)), dim=st.integers(1, 3),
       T=st.integers(1, 2 * B + 3), seed=st.integers(0, 2**16),
       D=st.sampled_from([1e-3, 1e-2, 2.0]))
def test_play_matches_reference(tag, kind, dim, T, seed, D):
    if kind != "box":
        dim = 1
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((dim, dim))
    b = rng.standard_normal((T + 1, dim))
    calls = []

    def source(t, action):
        calls.append(t)
        return A @ action + b[t]

    def fill(rows):  # the oblivious source of the rows b[1..T]
        rows[:] = b[1:]

    learner = make_learner(tag, ONLINE_SETS[kind](dim), rng.uniform(-1.0, 2.0, dim),
                           eta=0.3, L=1.0, D=D)
    # chunks of 64 rounds: a float run crosses chunk boundaries
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("monolearn.learners.SCALAR_CHUNK", 64)
        runs = [(play_rows(learner, source, T), source),
                (play_rows(learner, Oblivious(dim, fill), T), lambda t, action: b[t])]
    assert calls == list(range(1, T + 1))
    for (plays, grads), ref_source in runs:
        want = reference_play(learner, ref_source, T)
        assert len(plays) == len(grads) == len(want) == T
        for t, action, g, (t_ref, action_ref, g_ref) in zip(range(1, T + 1), plays, grads,
                                                            want):
            assert t == t_ref
            assert np.array_equal(action, action_ref), (tag, t)
            assert np.array_equal(g, g_ref), (tag, t)


@pytest.mark.parametrize("T, dim", [
    pytest.param(T, dim, id=f"dim1-{T}" if dim == 1 else str(T))
    for dim in (2, 1) for T in (2 * BLOCK_ROWS + 5, 2 * BLOCK_ROWS + 6)])
@pytest.mark.parametrize("tag", TAGS)
def test_oblivious_rows_match_the_adaptive_call_path(tag, dim, T, monkeypatch):
    # play_rows reads an oblivious source's filled rows in the kernel; a
    # callable that returns the same rows goes through the per-round call
    # path, whether it returns a fresh array each round or one array that
    # it overwrites. D = 0.1 latches aog_adaptive's step size inside the
    # run, so its S must read each round's gradient by value. At dim 1 the
    # oblivious run is on floats, in chunks of 100 rounds, and the
    # callables on arrays.
    monkeypatch.setattr("monolearn.learners.SCALAR_CHUNK", 100)
    rows = np.empty((T, dim))
    make_adversary("random_box", dim, seed=5).fill(rows)
    buffer = np.empty(dim)

    def reused(t, action):
        buffer[:] = rows[t - 1]
        return buffer

    learner = make_learner(tag, symmetric_box(1.0, dim), [0.5, -0.5][:dim], eta=0.3,
                           L=1.0, D=0.1)
    filled = play_rows(learner, make_adversary("random_box", dim, seed=5), T)
    for source in (lambda t, action: rows[t - 1].copy(), reused):
        called = play_rows(learner, source, T)
        for got, want in zip(filled, called, strict=True):
            assert got.tobytes() == want.tobytes()


def float_and_array_runs(tag, fset, rows, eta):
    """(plays, grads) of the float loop on ``fset``, then of the array loop
    on ``fset`` as the one factor of a ProductSet, against the oblivious
    source of ``rows``."""

    def fill(out):
        out[:] = rows

    runs = []
    for joint in (fset, ProductSet((fset,))):
        learner = make_learner(tag, joint, [0.0], eta=eta, L=1.0, D=0.1)
        runs.extend(play_rows(learner, Oblivious(1, fill), len(rows)))
    return runs


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("fset", [Box([-1.0], [2.0]), Box([-0.0], [0.0]), Box([0.0], [-0.0]),
                                  Box([0.0], [1.0]), Box([-0.0], [1.0]), Box([-1.0], [-0.0]),
                                  Unconstrained(1), Box([-math.inf], [1.0])],
                         ids=["box", "zero_box", "flipped_zero_box", "zero_lower",
                              "minus_zero_lower", "zero_upper", "free", "half_free"])
def test_float_kernel_matches_the_array_loop(tag, fset):
    # An oblivious source against a one-coordinate Box runs the float loop;
    # the same set as the one factor of a ProductSet runs the array loop on
    # the same rows. Gradients of +-0, and bounds at +-0, make projection
    # ties whose result is a signed zero (a point of +0 at a lower bound of
    # -0 projects to -0).
    T = 2 * BLOCK_ROWS + 7
    rng = np.random.default_rng(3)
    rows = rng.choice([-1.0, -1.0, -0.0, 0.0, 0.25, 1.0], size=(T, 1))
    plays, grads, want_plays, want_grads = float_and_array_runs(tag, fset, rows, eta=0.5)
    assert plays.tobytes() == want_plays.tobytes()
    assert grads.tobytes() == want_grads.tobytes()


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("fset", [Unconstrained(1), Box([-math.inf], [1.0])],
                         ids=["free", "half_free"])
def test_float_kernel_matches_the_array_loop_past_the_float_range(tag, fset):
    # On an infinite bound the iterate can overflow to inf, and an inf step
    # meeting an inf of the other sign makes a NaN: the float loop's clamp
    # keeps it, as numpy's minimum and maximum do.
    rows = np.where(np.arange(40) % 3 == 0, 1e10, -1e10)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        plays, grads, want_plays, want_grads = float_and_array_runs(tag, fset, rows, eta=1e300)
    assert np.isnan(plays).any()
    assert plays.tobytes() == want_plays.tobytes()
    assert grads.tobytes() == want_grads.tobytes()


@pytest.mark.parametrize("tag, rows, chunk, switch", [
    # S passes the threshold at round 2, by its first increment; round 1's
    # gradient alone, 20^2 = 400, would pass it too
    ("aog_adaptive", [20.0, 1.0, 0.5, -1.0, 0.5], 4, 2),
    # in the first round of the second chunk, from the last gradient of the first
    ("aog_adaptive", [1.0, 1.0, 1.0, 1.0, 21.0, 1.0, -1.0], 4, 5),
    ("aog_adaptive", [1.0], 4, None),
    ("eag", [1.0], 4, None),
    ("gd", [1.0], 4, None),
    # an odd horizon ends on a base point; its probe point is never played
    ("eag", [0.5, -1.0, 0.25, 1.0, -0.5, 0.75, -0.25], 2, None),
], ids=["switch_at_round_2", "switch_at_a_chunk_start", "one_round_aog_adaptive",
        "one_round_eag", "one_round_gd", "odd_eag_horizon"])
@pytest.mark.parametrize("fset", [Box([-50.0], [50.0]), Unconstrained(1)], ids=["box", "free"])
def test_float_kernel_matches_the_array_loop_at_the_edges_of_s(tag, rows, chunk, switch, fset,
                                                                 monkeypatch):
    # The float loop adds round 1's S increment as 0.0 * 0.0 and keeps the
    # last gradient across chunks; with D = 0.1 the threshold is about 141.
    monkeypatch.setattr("monolearn.learners.SCALAR_CHUNK", chunk)
    rows = np.array(rows)[:, None]
    plays, grads, want_plays, want_grads = float_and_array_runs(tag, fset, rows, eta=0.5)
    assert plays.tobytes() == want_plays.tobytes()
    assert grads.tobytes() == want_grads.tobytes()
    if switch is not None:  # eta moves in round ``switch``: the next play leaves aog's
        fixed = float_and_array_runs("aog", fset, rows, eta=0.5)[0]
        assert np.flatnonzero(plays != fixed)[0] == switch
