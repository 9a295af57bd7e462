import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from monolearn.harness import (
    ADVERSARIES,
    BLOCK_ROWS,
    ExperimentConfig,
    _BlockMeasure,
    build_parser,
    build_single_learner,
    emit_csv,
    fit_loglog_slope,
    load_config,
    main,
    make_adversary,
    run_adversarial,
    run_self_play,
)
from monolearn.games import make_game
from monolearn.learners import Oblivious, make_learner, play_rows
from monolearn.geometry import MonolearnError, symmetric_box
from monolearn.metrics import csv_header

from conftest import kernel_run


def write_config(tmp_path, name="cfg.json", **data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


BILINEAR = dict(game="bilinear", game_params={"dims": [1, 1]}, algo="aog", T=200, stride=7)
RANDOM_LINEAR = dict(game="random_linear_monotone", algo="aog", T=20)
APPENDIX_E = dict(game="appendix_e", algo="aog", T=20)
HUGE_BILINEAR = dict(game="bilinear", T=20, game_params={"payoff_scale": 1e200})
# an integer past the float range (and past int64): every number is refused by name
BIG = 10**400


# -- configuration --------------------------------------------------------


def test_config_round_trip(tmp_path):
    path = write_config(tmp_path, **BILINEAR)
    cfg = load_config(path)
    assert cfg.game == "bilinear" and cfg.T == 200 and cfg.stride == 7


def test_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, **BILINEAR, bogus=1)
    with pytest.raises(MonolearnError, match="bogus"):
        load_config(path)


def test_config_requires_core_fields(tmp_path):
    path = write_config(tmp_path, game="bilinear")
    with pytest.raises(MonolearnError, match="T"):
        load_config(path)


def test_keep_trajectory_is_accepted_only_as_false():
    assert ExperimentConfig(game="bilinear", T=20, keep_trajectory=False).keep_trajectory is False
    with pytest.raises(MonolearnError, match="keep_trajectory"):
        ExperimentConfig(game="bilinear", T=20, keep_trajectory=True)


def test_config_field_validation():
    with pytest.raises(MonolearnError, match="T"):
        ExperimentConfig(game="bilinear", T=1)
    with pytest.raises(MonolearnError, match="stride"):
        ExperimentConfig(game="bilinear", T=10, stride=0)
    with pytest.raises(MonolearnError, match="eta"):
        ExperimentConfig(game="bilinear", T=10, eta=-0.1)


def test_config_parse_error_has_line_context(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"game": "bilinear",\n  "T": }')
    with pytest.raises(MonolearnError, match="line 2"):
        load_config(str(path))


# -- self-play runner -----------------------------------------------------


def test_recorded_rounds_follow_stride():
    cfg = ExperimentConfig(**{**BILINEAR, "game_params": {"dims": (1, 1)}})
    result = run_self_play(cfg)
    want = sorted(set(range(1, 201, 7)) | {200})
    assert result["t"] == want


def test_zero_sum_conservation_along_run():
    cfg = ExperimentConfig(
        game="bilinear",
        game_params={"dims": (2, 2)},
        algo="aog",
        T=300,
        stride=10,
    )
    result = run_self_play(cfg)
    game, _, _, run = kernel_run(cfg)
    Z = np.array([run[t - 1][1] for t in result["t"]])  # x_{t+1/2}
    # the losses <x, y> and -<x, y> add to 0, so the players' minima over
    # [-1, 1]^2, -||y||_1 and -||x||_1, leave a total exact gap of
    # ||x||_1 + ||y||_1
    assert result["tgap_exact"] == pytest.approx(np.abs(Z).sum(axis=1), rel=1e-12)
    # the two per-player exact gap terms each upper-bound zero
    assert all(v >= 0.0 for name in ("dynreg_1", "dynreg_2") for v in result[name])


SKEW_GAME = {"dims": [1, 1, 1], "psd_diag": 0.0, "bounded": 1.0, "seed": 5}


def test_exact_gap_is_filled_when_every_own_block_is_zero():
    # psd_diag 0 and one coordinate per player: M is skew, so each player's
    # own block is 0 and its loss is V_i(z) z_i plus a term free of z_i. The
    # exact gap is brute-forced from that loss over the box's two endpoints,
    # with V taken at each candidate profile.
    cfg = ExperimentConfig(game="random_linear_monotone", game_params=SKEW_GAME, algo="aog",
                           T=300, stride=7)
    result = run_self_play(cfg)
    game, _, _, run = kernel_run(cfg)
    assert None not in result["tgap_exact"]

    def loss(i, z, zi):
        w = z.copy()
        w[i] = zi
        return float(game.gradient_fn(w)[i] * zi)

    for t, cell in zip(result["t"], result["tgap_exact"], strict=True):
        z = run[t - 1][1]  # x_{t+1/2}
        want = sum(loss(i, z, z[i]) - min(loss(i, z, -1.0), loss(i, z, 1.0)) for i in range(3))
        assert cell == pytest.approx(want, rel=1e-12), t


@pytest.mark.parametrize("game, params", [
    ("random_linear_monotone", {**SKEW_GAME, "psd_diag": 0.1}),
    ("appendix_e", {"n": 4}),
])
def test_exact_gap_is_empty_when_an_own_block_is_not_zero(game, params):
    cfg = ExperimentConfig(game=game, game_params=params, algo="aog", T=50)
    assert set(run_self_play(cfg)["tgap_exact"]) == {None}


def test_heterogeneous_algos_supported():
    cfg = ExperimentConfig(
        game="bilinear",
        game_params={"dims": (1, 1)},
        algo=["aog", "og"],
        T=100,
    )
    result = run_self_play(cfg)
    assert len(result["t"]) == 100


def test_potential_tracking_requires_uniform_fixed_step():
    cfg = ExperimentConfig(
        game="bilinear",
        game_params={"dims": (1, 1)},
        algo=["aog", "og"],
        T=50,
        record_potential=True,
    )
    with pytest.raises(MonolearnError, match="record_potential"):
        run_self_play(cfg)


def test_measurement_pass_checks_the_potential_witness_membership():
    cfg = ExperimentConfig(game="bilinear", game_params={"dims": (1, 1)}, algo="aog",
                           T=20, record_potential=True)
    game, players, x1, run = kernel_run(cfg)
    base, half, grad = (np.array([s[k] for s in run]) for k in (0, 1, 2))
    etas = np.tile([p.eta for p in players], (cfg.T, 1))

    def measure(base_rows):
        _BlockMeasure(game, x1, cfg.T, 1, True)(1, base_rows, half, grad, None, etas)

    measure(base)
    # round 8's base point moves off the run, strictly inside the box: c_8
    # no longer lies in the normal cone at x_8
    moved = base.copy()
    assert np.all(np.abs(moved[7]) < 1.0 - 1e-2)
    moved[7] += 1e-3
    with pytest.raises(MonolearnError, match="^round 8: .*normal cone"):
        measure(moved)


@pytest.mark.parametrize("params", [{"payoff_scale": 1e9}, {"box_radius": 1e9},
                                    {"payoff_scale": 1e-9}, {"box_radius": 1e-9}])
def test_witness_membership_check_holds_on_scaled_games(params):
    # The witness c_t is a difference of points over eta; its rounding grows
    # with the payoff scale and the box, and the check must not read it as a miss.
    cfg = ExperimentConfig(game="bilinear", game_params={"dims": (2, 2), **params},
                           algo="aog", T=1000, stride=1, record_potential=True)
    potential = run_self_play(cfg)["potential"]
    assert len(potential) == cfg.T and potential[0] is None
    assert all(np.isfinite(potential[1:]))


def test_witness_check_reports_a_miss_when_the_squares_overflow(monkeypatch):
    # eta = 1e160 on an unbounded game, and a witness moved by 1e40 per
    # coordinate at round 2, where the true c_2 is 0: ||eta c_t|| ~ 1.4e200
    # is finite but its square is not, and the miss is as large. A tolerance
    # scaled by an overflowed square would be inf and pass the miss.
    from monolearn import harness

    normal_element = harness.normal_element
    monkeypatch.setattr(harness, "normal_element", lambda *a: normal_element(*a) + 1e40)
    cfg = ExperimentConfig(game="random_linear_monotone", game_params={"dims": (1, 1)},
                           algo="aog", eta=1e160, T=2, record_potential=True)
    with pytest.raises(MonolearnError, match=r"^round 2: .*normal cone .*= 1\.414e\+200\)$"):
        run_self_play(cfg)


def test_unbounded_run_reports_residual_only():
    cfg = ExperimentConfig(
        game="random_linear_monotone",
        game_params={"dims": (1, 1), "seed": 0},
        algo="aog",
        T=100,
        stride=10,
    )
    result = run_self_play(cfg)
    last = {name: cells[-1] for name, cells in result.items()}
    assert last["gap"] is None
    assert (last["extreg_1"], last["extreg_2"]) == (None, None)
    assert last["r_tan"] >= 0.0


@pytest.mark.parametrize("config", [
    dict(APPENDIX_E, game_params={"n": 4, "box_half_width": 1e200}),
    dict(BILINEAR, algo="aog_adaptive", game_params={"box_radius": 1e-200}),
])
@pytest.mark.filterwarnings("error")
def test_extreme_box_widths_run_as_bounded_games(config):
    # The squares of the widths overflow or underflow, but the diameters are
    # finite and positive: the game is bounded and its gap columns are written.
    columns = run_self_play(ExperimentConfig(**config))
    assert all(columns[name][-1] is not None for name in ("gap", "extreg_1", "dynreg_2"))


def test_two_phase_learners_in_self_play():
    cfg = ExperimentConfig(
        game="bilinear",
        game_params={"dims": (1, 1)},
        algo="eg",
        T=100,
    )
    result = run_self_play(cfg)
    assert result["r_tan"][-1] < 1.0


def test_non_finite_base_gradient_aborts_with_round(monkeypatch):
    # The oracle is finite everywhere except at the base point of round 3.
    game = make_game("bilinear", dims=(1, 1))
    grad, calls = game.gradient_fn, []

    def gradient_fn(z):
        calls.append(z)
        g = grad(z)
        return np.full_like(g, np.nan) if len(calls) == 5 else g

    game.gradient_fn = gradient_fn
    monkeypatch.setattr("monolearn.harness.make_game", lambda *a, **k: game)
    cfg = ExperimentConfig(game="bilinear", algo="eg", T=10)
    with pytest.raises(MonolearnError, match=r"round 3: .*base point"):
        run_self_play(cfg)


def test_inf_base_gradient_clipped_on_a_box_aborts_with_round(monkeypatch):
    # An inf base gradient at round 4 sends eg's half step to a corner of the
    # box: a finite point, with a finite played gradient. The block's check
    # of the base gradient rows still names the round and the point.
    game = make_game("bilinear", dims=(1, 1))
    grad, calls = game.gradient_fn, []

    def gradient_fn(z):
        calls.append(z.copy())
        g = grad(z)
        return np.full_like(g, np.inf) if len(calls) == 7 else g

    game.gradient_fn = gradient_fn
    monkeypatch.setattr("monolearn.harness.make_game", lambda *a, **k: game)
    with pytest.raises(MonolearnError, match=r"^round 4: non-finite gradient from the oracle "
                                           r"at the base point$"):
        run_self_play(ExperimentConfig(game="bilinear", algo="eg", T=10))
    # round 4's played point is a finite corner, and every later point is finite
    assert np.array_equal(np.abs(calls[7]), [1.0, 1.0])
    assert np.isfinite(calls).all()


def test_non_finite_potential_gradient_aborts_with_round(monkeypatch):
    # The measurement pass takes the potential's V(x_t) from game.affine, which
    # is replaced after the build: row 0 is 1e308 * -x_t[0] + 1.58e308, finite
    # while -x_t[0] stays below 0.2177 (rounds 1 to 5 reach 0.2141) and inf at
    # round 6 (0.2220), the second round of the second block of four. The
    # squares of the finite rows overflow the first block's potential cells.
    game = make_game("bilinear", dims=(1, 1))
    game.affine = (np.array([[-1e308, 0.0], [0.0, 0.0]]), np.array([1.58e308, 0.0]))
    monkeypatch.setattr("monolearn.harness.make_game", lambda *a, **k: game)
    monkeypatch.setattr("monolearn.harness.BLOCK_ROWS", 4)
    cfg = ExperimentConfig(game="bilinear", algo="aog", T=10, record_potential=True)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            MonolearnError, match=r"^round 6: non-finite gradient from the oracle at the base point$"):
        run_self_play(cfg)


def test_potential_base_gradient_is_checked_with_the_played_ones(monkeypatch):
    # One check per block covers the potential's V(x_t), formed from
    # game.affine, and the played gradients: V(x_1) is inf through r, and
    # the oracle's 5th call (round 5's played point) is NaN. The earlier
    # round is named, not the played point.
    game = make_game("bilinear", dims=(1, 1))
    M, _ = game.affine
    game.affine = (M, np.array([np.inf, 0.0]))
    grad, calls = game.gradient_fn, []

    def gradient_fn(z):
        calls.append(z)
        return np.full(2, np.nan) if len(calls) == 5 else grad(z)

    game.gradient_fn = gradient_fn
    monkeypatch.setattr("monolearn.harness.make_game", lambda *a, **k: game)
    cfg = ExperimentConfig(game="bilinear", algo="aog", T=10, record_potential=True)
    with pytest.raises(MonolearnError, match=r"^round 1: .*base point$"):
        run_self_play(cfg)
    assert len(calls) == cfg.T


@pytest.mark.parametrize("config", [
    dict(game="appendix_e", game_params={"n": 5}, algo=["og", "aog"], T=2 * BLOCK_ROWS + 5,
         stride=3),
    dict(game="bilinear", game_params={"dims": [1, 1]}, T=2 * BLOCK_ROWS + 5, stride=1,
         record_potential=True),
])
def test_columns_follow_the_header_and_match_the_csv(tmp_path, config):
    out = tmp_path / "run.csv"
    result = run_self_play(ExperimentConfig(**config, out=str(out)))
    header = csv_header(2).split(",")
    assert list(result) == header
    lines = out.read_text().splitlines()
    assert lines[0].split(",") == header
    for name, cells in zip(header, zip(*(line.split(",") for line in lines[1:])), strict=True):
        parse = int if name == "t" else float
        assert result[name] == [None if c == "" else parse(c) for c in cells], name
    # a column of another length is not written
    short = {**result, "dist_anchor": result["dist_anchor"][:-1]}
    with pytest.raises(ValueError):
        emit_csv(short, io.StringIO())


def test_bad_x1_dimension_rejected():
    cfg = ExperimentConfig(
        game="bilinear", game_params={"dims": (1, 1)}, T=10, x1=[0.0, 0.0, 0.0]
    )
    with pytest.raises(MonolearnError, match="x1"):
        run_self_play(cfg)


# -- adversarial runner ---------------------------------------------------


def test_zero_adversary_zero_regret():
    learner = make_learner("aog", symmetric_box(1.0, 1), np.zeros(1), eta=0.2)
    res = run_adversarial(learner, make_adversary("zero", 1), 50)
    assert res.final_regret == 0.0


def test_random_adversary_recorded_prefixes():
    learner = make_learner("og", symmetric_box(1.0, 2), np.zeros(2), eta=0.2)
    res = run_adversarial(learner, make_adversary("random_box", 2, seed=1), 100,
                          record_at=[10, 50])
    assert set(res.regret_at) == {10, 50, 100}
    assert len(res.plays) == 100


@pytest.mark.parametrize("tag", ["aog_adaptive", "eag"])
def test_recorded_regrets_equal_a_per_round_accumulator(tag):
    learner = make_learner(tag, symmetric_box(1.0, 2), np.array([0.5, -0.5]), eta=0.3,
                           L=1.0, D=2.0)
    T = 2 * 128 + 5
    res = run_adversarial(learner, make_adversary("random_box", 2, seed=4), T,
                          record_at=range(3, T, 7))
    plays, grads = play_rows(learner, make_adversary("random_box", 2, seed=4), T)
    assert np.array_equal(res.plays, plays)
    assert np.array_equal(res.grads, grads)
    sum_g, sum_gx, want = np.zeros(2), 0.0, {}
    for t, action, g in zip(range(1, T + 1), plays, grads):
        sum_g += g
        sum_gx += float(g @ action)
        if t % 7 == 3 or t == T:
            want[t] = sum_gx - learner.set.support_min(sum_g)[1]
    assert res.regret_at == want


def test_adversary_non_finite_gradient_aborts():
    learner = make_learner("og", symmetric_box(1.0, 1), np.zeros(1), eta=0.2)
    with pytest.raises(MonolearnError):
        run_adversarial(learner, lambda t, a: np.array([float("nan")]), 5)


def bad_at(k, value):
    """A one-dimensional adversary that returns ``value`` at round k and
    zeros before it, and records each round it is called for."""
    calls = []

    def adversary(t, action):
        calls.append(t)
        return np.asarray(value, dtype=float) if t == k else np.zeros(1)

    return adversary, calls


BAD_GRADIENTS = {"nan": [float("nan")], "inf": [float("inf")], "size": [0.5, 0.5]}


@pytest.mark.parametrize("bad", sorted(BAD_GRADIENTS))
@pytest.mark.parametrize("tag", ["aog_adaptive", "eag"])
def test_adversary_gradient_checked_once_at_its_round(bad, tag):
    # play_rows' check is the only one: the bad gradient of round k stops the
    # run before any later round is asked for, and the error names round k
    k = 7
    learner = make_learner(tag, symmetric_box(1.0, 1), np.zeros(1), eta=0.2, L=1.0, D=2.0)
    adversary, calls = bad_at(k, BAD_GRADIENTS[bad])
    with pytest.raises(MonolearnError, match=f"^round {k}: "):
        run_adversarial(learner, adversary, 20)
    assert calls == list(range(1, k + 1))


@pytest.mark.parametrize("dim", [1, 3])
def test_random_box_stream_is_one_uniform_draw(dim):
    # one in-place draw into all the rows, the same doubles as uniform(-1, 1)
    T = 2 * BLOCK_ROWS + 5
    want = np.random.default_rng(11).uniform(-1.0, 1.0, (2 * T, dim))
    adversary = make_adversary("random_box", dim, seed=11)
    assert adversary.dim == dim
    rows = np.empty((T, dim))
    adversary.fill(rows)
    assert np.array_equal(rows, want[:T])
    # a second fill continues the stream
    adversary.fill(rows)
    assert np.array_equal(rows, want[T:])


def test_adversary_ids_are_one_list():
    # the CLI's --adversary choices are the ids that make_adversary builds
    parser = build_parser()
    for name in ADVERSARIES:
        args = parser.parse_args(["adversarial", "--config", "c.json", "--adversary", name])
        assert args.adversary == name
        assert make_adversary(name, 1).dim == 1
    with pytest.raises(MonolearnError, match="^unknown adversary 'x'; known: appendix_d, "
                                           "random_box, zero$"):
        make_adversary("x", 1)


@pytest.mark.parametrize("bad", ["inf", "nan"])
@pytest.mark.parametrize("tag", ["aog_adaptive", "eag"])
def test_oblivious_gradients_checked_once_before_round_one(monkeypatch, bad, tag):
    # the rows are asked for once, and a bad one stops the run, naming its
    # round, before the kernel is built
    k, fills, kernels = 7, [], []

    def fill(rows):
        fills.append(len(rows))
        rows[:] = 0.0
        rows[k - 1] = BAD_GRADIENTS[bad]

    # either loop: this one-coordinate box would run the float loop
    for kernel in ("dynamics", "_scalar_dynamics"):
        monkeypatch.setattr(f"monolearn.learners.{kernel}", lambda *a: kernels.append(a))
    learner = make_learner(tag, symmetric_box(1.0, 1), np.zeros(1), eta=0.2, L=1.0, D=2.0)
    with pytest.raises(MonolearnError, match=fr"^round {k}: gradient from the source: must be "
                                           fr"a list of finite numbers, got array\(\[{bad}\]\)$"):
        run_adversarial(learner, Oblivious(1, fill), 20)
    assert fills == [20]
    assert kernels == []


def test_oblivious_source_of_the_wrong_width_is_never_filled():
    # the width is the source's, so every round's gradient has it: round 1
    # is named, and no row is asked for
    fills = []
    learner = make_learner("og", symmetric_box(1.0, 1), np.zeros(1), eta=0.2)
    with pytest.raises(MonolearnError, match="^round 1: gradient from the source: "
                                           "expected dimension 1, got 2$"):
        run_adversarial(learner, Oblivious(2, fills.append), 20)
    assert fills == []


def test_odd_eag_horizon_fills_T_rows_and_charges_zero_to_the_probe():
    T = 2 * BLOCK_ROWS + 5
    adversary, fills = make_adversary("random_box", 2, seed=3), []

    def fill(rows):
        fills.append(len(rows))
        adversary.fill(rows)

    learner = make_learner("eag", symmetric_box(1.0, 2), np.zeros(2), eta=0.3)
    plays, grads = play_rows(learner, Oblivious(2, fill), T)
    assert fills == [T]
    assert len(plays) == len(grads) == T
    # grads are the first T gradient rows of the kernel's (plays, grads)
    # arrays; the row after them is the unplayed probe point's
    kernel_rows = grads.base
    assert kernel_rows.shape == (2, T + 1, 2)
    assert np.array_equal(kernel_rows[1, T], [0.0, 0.0])


def test_unbounded_adversarial_run_rejected_before_first_round():
    game = make_game("random_linear_monotone", dims=(2, 2))
    learner = build_single_learner(ExperimentConfig(game="random_linear_monotone", T=10), game)
    calls = []

    def adversary(t, action):
        calls.append(t)
        return np.zeros(2)

    with pytest.raises(MonolearnError, match="bounded"):
        run_adversarial(learner, adversary, 10)
    assert calls == []


def test_build_single_learner_uses_first_player_set():
    cfg = ExperimentConfig(game="appendix_d_toy", T=10, algo="aog_adaptive",
                           L=1.0, D=2.0, x1=[0.0, 0.0])
    game = make_game("appendix_d_toy")
    learner = build_single_learner(cfg, game)
    assert learner.set.dim == 1
    assert learner.tag == "aog_adaptive"


# -- slope fitting --------------------------------------------------------


def test_slope_fit_exact_power_laws():
    ts = np.arange(1, 2001)
    fit = fit_loglog_slope(ts, 7.0 / ts, window=(100, 2000))
    assert abs(fit.slope + 1.0) <= 1e-6
    assert fit.r2 > 0.999999
    fit = fit_loglog_slope(ts, 3.0 / np.sqrt(ts), window=(100, 2000))
    assert abs(fit.slope + 0.5) <= 1e-6


def test_slope_fit_drops_nonpositive_rows():
    ts = np.arange(1, 101)
    vals = 5.0 / ts
    vals[10:15] = 0.0
    fit = fit_loglog_slope(ts, vals, window=(1, 100))
    assert abs(fit.slope + 1.0) <= 1e-6


def test_slope_fit_needs_enough_rows():
    with pytest.raises(MonolearnError):
        fit_loglog_slope(np.arange(1, 6), np.ones(5), window=(1, 5))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ts, values, needle", [
    (np.arange(1.0, 13.0), [1.0] * 11 + [np.inf], "non-finite t or value"),
    (np.append(np.arange(1.0, 12.0), np.inf), np.ones(12), "non-finite t or value"),
    (np.arange(-1.0, 11.0), np.ones(12), "t = -1; a log-log fit needs t > 0"),
    (np.full(12, 3.0), np.arange(1.0, 13.0), "t = 3; a fit needs two distinct t"),
])
def test_slope_fit_rejects_a_degenerate_window(ts, values, needle):
    # each is one error, with no numpy warning and no fit of NaN
    with pytest.raises(MonolearnError, match=needle):
        fit_loglog_slope(ts, values, window=(-10.0, np.inf))


# -- CLI ------------------------------------------------------------------


def test_cli_selfplay_writes_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, **BILINEAR)
    out = tmp_path / "run.csv"
    code = main(["selfplay", "--config", cfg, "--out", str(out), "--T", "50"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("t,r_tan,gap,tgap_exact,potential,")
    assert lines[1].split(",")[0] == "1"


def test_failed_run_keeps_earlier_csv(tmp_path, monkeypatch):
    game = make_game("bilinear", dims=(1, 1))
    grad = game.gradient_fn
    game.gradient_fn = lambda z: np.array([np.inf, 0.0]) if z[0] < -0.5 else grad(z)
    monkeypatch.setattr("monolearn.harness.make_game", lambda *a, **k: game)
    out = tmp_path / "run.csv"
    out.write_text("earlier\n")
    # from (-1, -1) the first oracle call is at x1 itself
    with pytest.raises(MonolearnError, match="round 1: non-finite"):
        run_self_play(ExperimentConfig(game="bilinear", T=50, x1=[-1.0, -1.0], out=str(out)))
    assert out.read_text() == "earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]
    run_self_play(ExperimentConfig(game="bilinear", T=50, out=str(out)))
    assert out.read_text().startswith("t,r_tan,")
    assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]
    # a path that is not a regular file is written in place, never replaced
    run_self_play(ExperimentConfig(game="bilinear", T=50, out=os.devnull))
    assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)


def test_cli_reproducible_csv(tmp_path):
    cfg = write_config(tmp_path, **BILINEAR)
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["selfplay", "--config", cfg, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_bad_config_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, game="nope", T=10)
    assert main(["selfplay", "--config", cfg]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, field", [("--T", "0", "T"), ("--T", "1", "T"),
                                               ("--stride", "0", "stride"),
                                               ("--stride", str(10**23), "stride")])
def test_cli_overrides_are_validated(capsys, flag, value, field):
    cfg = str(Path(__file__).resolve().parent.parent / "configs" / "bilinear_selfplay.json")
    assert main(["selfplay", "--config", cfg, flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {field}:")


def test_cli_harness_errors_exit_one(tmp_path, capsys):
    trace = tmp_path / "short.csv"
    trace.write_text("t,r_tan\n1,1.0\n2,0.5\n")
    assert main(["slope", "--trace", str(trace)]) == 1
    assert capsys.readouterr().err.startswith("error: fewer than 10 usable rows")


def test_cli_verify_passes(capsys):
    assert main(["verify", "--T", "100"]) == 0
    out = capsys.readouterr().out
    assert "identity" in out and "eag_regret" in out


def test_cli_adversarial_and_slope(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        game="appendix_d_toy",
        algo="aog_adaptive",
        T=500,
        L=1.0,
        D=2.0,
        x1=[0.0, 0.0],
    )
    assert main(["adversarial", "--config", cfg, "--adversary", "appendix_d"]) == 0

    run_cfg = write_config(tmp_path, name="run.json", **BILINEAR)
    out = tmp_path / "trace.csv"
    assert main(["selfplay", "--config", run_cfg, "--out", str(out),
                 "--T", "2000", "--stride", "1"]) == 0
    capsys.readouterr()
    assert main(["slope", "--trace", str(out), "--column", "r_tan",
                 "--t-min", "100"]) == 0
    printed = capsys.readouterr().out
    slope = float(printed.split("slope=")[1].split()[0])
    assert -1.5 < slope < -0.5


def assert_one_error_line(capsys, *needles):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    for needle in needles:
        assert needle in lines[0]


@pytest.mark.parametrize("data, needle", [
    ({**BILINEAR, "game_params": {"bogus": 1}}, "bogus"),
    ({**BILINEAR, "T": "50"}, "T:"),
    ({**BILINEAR, "stride": 2.5}, "stride:"),
    ({**BILINEAR, "seed": None}, "seed:"),
    ({**BILINEAR, "game_params": [1, 1]}, "game_params:"),
    ({**BILINEAR, "eta": "0.3"}, "eta:"),
    ({**BILINEAR, "L": "1"}, "L:"),
    ({**BILINEAR, "D": True}, "D:"),
    ({**BILINEAR, "eta": 0}, "eta:"),
    ({**BILINEAR, "D": -2.0}, "D:"),
    ({**BILINEAR, "L": float("inf")}, "L:"),
    ({**BILINEAR, "eta": float("nan")}, "eta:"),
    ({**BILINEAR, "keep_trajectory": "false"}, "keep_trajectory:"),
    ({**BILINEAR, "record_potential": 1}, "record_potential:"),
    ({**BILINEAR, "algo": 5}, "algo:"),
    ({**BILINEAR, "game": []}, "game:"),
    ({**BILINEAR, "x1": {"a": 1}}, "x1:"),
    ({**BILINEAR, "out": 5}, "out:"),
    ({**BILINEAR, "game_params": {"payoff_scale": "x"}}, "game_params:"),
    ({**BILINEAR, "game": "appendix_e", "game_params": {"n": 2.5}}, "game_params:"),
    ({**RANDOM_LINEAR, "game_params": {"skew_scale": float("nan")}}, "skew_scale:"),
    ({**RANDOM_LINEAR, "game_params": {"psd_diag": float("inf")}}, "psd_diag:"),
    ({**RANDOM_LINEAR, "game_params": {"dims": []}}, "dims:"),
    ({**RANDOM_LINEAR, "game_params": {"dims": [2, 0]}}, "dims:"),
    ({**RANDOM_LINEAR, "game_params": {"skew_scale": 1.7e308, "dims": [3, 3]}}, "skew_scale:"),
    ({"game": "bilinear", "T": 20, "game_params": {"dims": [0, 0]}}, "dims:"),
    ({"game": "bilinear", "T": 20, "game_params": {"dims": [1]}}, "dims:"),
    ({"game": "bilinear", "T": 20, "keep_trajectory": True}, "keep_trajectory"),
    ({**BILINEAR, "game_params": {"box_radius": float("nan")}}, "box_radius"),
    ({**BILINEAR, "game_params": {"box_radius": float("inf")}}, "box_radius"),
    ({**BILINEAR, "game_params": {"box_radius": True}}, "box_radius"),
    ({**BILINEAR, "game_params": {"payoff_scale": float("nan")}}, "payoff_scale"),
    ({**APPENDIX_E, "game_params": {"box_half_width": float("nan")}}, "box_half_width"),
    ({**APPENDIX_E, "game_params": {"box_half_width": -1}}, "box_half_width"),
    ({**APPENDIX_E, "game_params": {"box_half_width": True}}, "box_half_width"),
    ({**APPENDIX_E, "game_params": {"n": True}}, "game_params: n:"),
    ({**RANDOM_LINEAR, "game_params": {"bounded": -1.0}}, "bounded"),
    ({**RANDOM_LINEAR, "game_params": {"dims": [True, 1]}}, "dims"),
    ({**RANDOM_LINEAR, "game_params": {"skew_scale": True}}, "game_params: skew_scale:"),
    ({**RANDOM_LINEAR, "game_params": {"skew_scale": "x"}}, "game_params: skew_scale:"),
    ({**RANDOM_LINEAR, "game_params": {"psd_diag": True}}, "game_params: psd_diag:"),
    ({**RANDOM_LINEAR, "game_params": {"seed": True}}, "game_params: seed:"),
    ({**RANDOM_LINEAR, "game_params": {"seed": -1}}, "game_params: seed:"),
    ({**RANDOM_LINEAR, "game_params": {"seed": 1.5}}, "game_params: seed:"),
    ({**BILINEAR, "game_params": {"dims": 5}}, "game_params: dims: must be a non-empty list"),
    ({**BILINEAR, "game_params": {"dims": None}}, "game_params: dims: must be a non-empty list"),
    ({**BILINEAR, "game_params": {"dims": "ab"}}, "game_params: dims: must be a non-empty list"),
    ({**RANDOM_LINEAR, "game_params": {"dims": 5}}, "game_params: dims: must be a non-empty list"),
    ({**RANDOM_LINEAR, "game_params": {"dims": None}},
     "game_params: dims: must be a non-empty list"),
    ({**RANDOM_LINEAR, "game_params": {"dims": "ab"}},
     "game_params: dims: must be a non-empty list"),
    # squares of the gradients overflow: the first round with a non-finite
    # measured value, not a CSV of inf
    (HUGE_BILINEAR, "round 1: a measured value overflowed"),
    ({**HUGE_BILINEAR, "record_potential": True}, "round 1: a measured value overflowed"),
    ({**HUGE_BILINEAR, "algo": "aog_adaptive"}, "round 1: a measured value overflowed"),
    # the potential's squares overflow though every CSV measure is finite
    ({"game": "bilinear", "T": 20, "eta": 1e160, "record_potential": True},
     "round 2: a measured value overflowed"),
    # a box whose diameter is past the float range: one error naming the key
    ({**BILINEAR, "game_params": {"box_radius": 1e308}}, "game_params: box_radius:"),
    ({**APPENDIX_E, "game_params": {"n": 4, "box_half_width": 1e308}},
     "game_params: box_half_width:"),
    ({**RANDOM_LINEAR, "game_params": {"bounded": 1e308}}, "game_params: bounded:"),
    # a finite diameter, but <V, x> overflows in the gap columns, and the
    # block's finite check names the round
    ({**BILINEAR, "game_params": {"box_radius": 1e200}},
     "round 1: a measured value overflowed"),
    # 1/(sqrt(6) L) rounds to 0
    ({"game": "bilinear", "T": 20, "game_params": {"payoff_scale": 1.7e308}},
     "eta: the default step size of aog is 0 at L = 1.7e+308"),
    # a finite M whose ||M||_2 is past the float range: one error naming the key
    ({"game": "random_linear_monotone", "T": 20,
      "game_params": {"dims": [50, 50], "skew_scale": 2e307}}, "game_params: skew_scale:"),
    # the base gradient of round 1 overflows and eta 1e-300 keeps the half
    # step finite: the per-block check names the round and the point
    ({"game": "random_linear_monotone", "T": 20, "algo": "eg", "eta": 1e-300,
      "game_params": {"dims": [50, 50], "skew_scale": 1e307}},
     "round 1: non-finite gradient from the oracle at the base point"),
    # a number past the float range, or an integer past int64, is refused by
    # the one rule of geometry.check_param, which names the key
    ({**BILINEAR, "game_params": {"box_radius": BIG}}, "game_params: box_radius:"),
    ({**BILINEAR, "game_params": {"payoff_scale": BIG}}, "game_params: payoff_scale:"),
    ({**APPENDIX_E, "game_params": {"box_half_width": BIG}}, "game_params: box_half_width:"),
    ({**APPENDIX_E, "game_params": {"n": BIG}}, "game_params: n:"),
    ({**RANDOM_LINEAR, "game_params": {"bounded": BIG}}, "game_params: bounded:"),
    ({**RANDOM_LINEAR, "game_params": {"skew_scale": BIG}}, "game_params: skew_scale:"),
    ({**RANDOM_LINEAR, "game_params": {"psd_diag": BIG}}, "game_params: psd_diag:"),
    ({**RANDOM_LINEAR, "game_params": {"dims": [BIG, 1]}}, "game_params: dims:"),
    ({**BILINEAR, "game_params": {"dims": [BIG, BIG]}}, "game_params: dims:"),
    ({**BILINEAR, "eta": BIG}, "eta:"),
    ({**BILINEAR, "L": BIG}, "L:"),
    ({**BILINEAR, "D": BIG}, "D:"),
    ({**BILINEAR, "x1": [BIG, 0.0]}, "x1:"),
    ({**BILINEAR, "stride": BIG}, "stride:"),
    ({**BILINEAR, "stride": 2**63}, "stride:"),
    ({**BILINEAR, "x1": [float("nan"), 0.0]}, "x1:"),
    # only x1 takes a list; a bool is no number, in a list too
    ({**BILINEAR, "eta": [0.3]}, "eta:"),
    ({**BILINEAR, "x1": [True, 0.0]}, "x1:"),
    ({**BILINEAR, "x1": [[0.0], [0.0, 1.0]]}, "x1:"),
    # in the range of the rule, but numpy refuses to size the arrays (2**62
    # floats are past its byte limit, so nothing is allocated)
    ({**RANDOM_LINEAR, "game_params": {"dims": [2**62, 1]}},
     "game_params: dims: [4611686018427387904, 1] is too large to allocate"),
    ({**APPENDIX_E, "game_params": {"n": 2**62}},
     "game_params: n: 4611686018427387904 is too large to allocate"),
    ({**BILINEAR, "game_params": {"dims": [2**62, 2**62]}},
     "game_params: dims: [4611686018427387904, 4611686018427387904] is too large"),
    # an empty path would run and write nothing
    ({**BILINEAR, "out": ""}, "out: must be a non-empty file path string, got ''"),
])
# a warning (numpy's overflow RuntimeWarning, say) would be a second stderr line
@pytest.mark.filterwarnings("error")
def test_cli_bad_config_values_exit_one(tmp_path, capsys, data, needle):
    assert main(["selfplay", "--config", write_config(tmp_path, **data)]) == 1
    assert_one_error_line(capsys, needle)


def test_cli_missing_files_exit_one(tmp_path, capsys, monkeypatch):
    missing = str(tmp_path / "missing.json")
    assert main(["selfplay", "--config", missing]) == 1
    assert_one_error_line(capsys, missing)
    assert main(["slope", "--trace", missing]) == 1
    assert_one_error_line(capsys, missing)
    # An unwritable --out fails before the first round: no oracle call
    # after the game is built.
    game, calls = make_game("bilinear", dims=(1, 1)), []
    grad = game.gradient_fn
    game.gradient_fn = lambda z: calls.append(z) or grad(z)
    monkeypatch.setattr("monolearn.harness.make_game", lambda *a, **k: game)
    cfg = write_config(tmp_path, **{**BILINEAR, "T": 20})
    out = str(tmp_path / "no_such_dir" / "run.csv")
    assert main(["selfplay", "--config", cfg, "--out", out]) == 1
    assert_one_error_line(capsys, out)
    assert calls == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args", [["selfplay", "--config"], ["adversarial", "--config"],
                                  ["slope", "--trace"]])
def test_cli_non_utf8_file_exits_one(tmp_path, capsys, args):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"\xff" + json.dumps(BILINEAR).encode())
    assert main([*args, str(path)]) == 1
    assert_one_error_line(capsys, f"{path}: not UTF-8 text")


@pytest.mark.parametrize("args, needle", [
    (["--T", "0"], "T:"),
    (["--T", "-3", "--checks", "eag_regret"], "T:"),
    (["--checks", "bogus"], "identity, sequence, eag_regret"),
    (["--checks", "identity,nope"], "nope"),
    (["--seed", "-1"], "seed:"),
])
@pytest.mark.filterwarnings("error")
def test_cli_verify_rejects_bad_arguments(capsys, args, needle):
    assert main(["verify", *args]) == 1
    assert_one_error_line(capsys, needle)



def test_cli_slope_unknown_column_exits_one(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("t,r_tan,gap\n" + "".join(f"{t},{1.0 / t},1.0\n" for t in range(1, 300)))
    assert main(["slope", "--trace", str(trace), "--column", "r_tna"]) == 1
    assert_one_error_line(capsys, "'r_tna'", "t, r_tan, gap")


@pytest.mark.filterwarnings("error")
def test_cli_slope_trace_without_t_column_exits_one(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("x,foo\n1,2\n2,3\n")
    assert main(["slope", "--trace", str(trace), "--column", "foo"]) == 1
    assert_one_error_line(capsys, "'t'")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, needle", [
    ("t,r_tan\n1,0.5\nx,0.25\n", "'t'"),
    ("t,r_tan\n1,0.5\n2,x\n", "'r_tan'"),
])
def test_cli_slope_non_numeric_cell_exits_one(tmp_path, capsys, text, needle):
    trace = tmp_path / "trace.csv"
    trace.write_text(text)
    assert main(["slope", "--trace", str(trace)]) == 1
    assert_one_error_line(capsys, str(trace), "line 3", needle)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows, t_min, needle", [
    # a t <= 0 row inside the window
    ([(t, 1.0 / (t + 1)) for t in range(30)], "0", "t: the fit window holds t = 0; "),
    # every row of the window at one t; at t = 1 the log t column is all zeros
    ([(5, 1.0 / k) for k in range(1, 31)], "1", "every row in the fit window has t = 5"),
    ([(1, 1.0 / k) for k in range(1, 31)], "1", "every row in the fit window has t = 1"),
    # inf parses as a float, but no fit takes it
    ([(t, "inf") for t in range(1, 12)], "1", "line 2: column 'r_tan' holds 'inf', "
                                              "not a finite number"),
])
def test_cli_slope_degenerate_window_exits_one(tmp_path, capfd, rows, t_min, needle):
    # capfd: LAPACK writes its own complaints to the stderr descriptor
    trace = tmp_path / "trace.csv"
    trace.write_text("t,r_tan\n" + "".join(f"{t},{v}\n" for t, v in rows))
    assert main(["slope", "--trace", str(trace), "--t-min", t_min]) == 1
    assert_one_error_line(capfd, needle)


@pytest.mark.parametrize("flags, needle", [
    (["--t-min=nan"], "t-min: must be a finite number, got nan"),
    (["--t-max=nan"], "t-max: must be a finite number, got nan"),
    (["--t-min=inf"], "t-min: must be a finite number, got inf"),
    (["--t-min=500", "--t-max=100"], "t-max: must be >= t-min, got 100.0 < 500.0"),
])
def test_cli_slope_bad_window_flag_exits_one(tmp_path, capsys, flags, needle):
    # each once read "fewer than 10 usable rows in the fit window"
    trace = tmp_path / "trace.csv"
    trace.write_text("t,r_tan\n" + "".join(f"{t},{1.0 / t}\n" for t in range(1, 2001)))
    assert main(["slope", "--trace", str(trace), *flags]) == 1
    assert_one_error_line(capsys, needle)


def test_cli_slope_skips_the_missing_cells_of_a_short_row(tmp_path, capsys):
    # csv.DictReader fills the cells missing from a short row with None
    trace = tmp_path / "trace.csv"
    trace.write_text("t,r_tan,gap\n1,1.0,2\n2,0.5\n")
    assert main(["slope", "--trace", str(trace), "--column", "gap", "--t-min", "1"]) == 1
    assert_one_error_line(capsys, "fewer than 10 usable rows")
    trace.write_text("t,r_tan,gap\n" + "".join(f"{t},1.0,{2.0 / t}\n" for t in range(1, 30))
                     + "30,0.5\n")
    assert main(["slope", "--trace", str(trace), "--column", "gap", "--t-min", "1"]) == 0
    assert capsys.readouterr().out.startswith("slope=-1.0000 ")


ADVERSARIAL = dict(game="appendix_d_toy", algo="aog_adaptive", T=50, L=1.0, D=2.0,
                   x1=[0.0, 0.0])


@pytest.mark.parametrize("x1", [[0.5], [0.1, 0.2, 0.3]])
def test_cli_adversarial_bad_x1_length_exits_one(tmp_path, capsys, x1):
    cfg = write_config(tmp_path, **{**ADVERSARIAL, "x1": x1})
    assert main(["adversarial", "--config", cfg]) == 1
    assert_one_error_line(capsys, "x1: ", f"got {len(x1)}")


@pytest.mark.parametrize("command, data", [("selfplay", BILINEAR), ("adversarial", ADVERSARIAL)])
def test_cli_empty_out_exits_one(tmp_path, capsys, command, data):
    # refused before the run: no summary line and no file
    cfg = write_config(tmp_path, **data)
    assert main([command, "--config", cfg, "--out", ""]) == 1
    assert_one_error_line(capsys, "out: must be a non-empty file path string")
    assert list(tmp_path.iterdir()) == [Path(cfg)]


@pytest.mark.filterwarnings("error")
def test_cli_adversarial_negative_seed_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, **ADVERSARIAL)
    assert main(["adversarial", "--config", cfg, "--seed", "-1"]) == 1
    assert_one_error_line(capsys, "seed: ", "-1")


def test_cli_adversarial_bad_algo_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, **{**ADVERSARIAL, "algo": 5})
    assert main(["adversarial", "--config", cfg]) == 1
    assert_one_error_line(capsys, "algo:")


@pytest.mark.parametrize("seed", [0, 1, 999])
def test_cli_selfplay_config_seed_exits_one(tmp_path, capsys, seed):
    # self-play reads no seed, so a config that sets one is an error
    out = tmp_path / "run.csv"
    cfg = write_config(tmp_path, **{**BILINEAR, "seed": seed})
    assert main(["selfplay", "--config", cfg, "--out", str(out)]) == 1
    assert_one_error_line(capsys, "seed: ", repr(seed))
    assert not out.exists()
    with pytest.raises(MonolearnError, match="^seed: "):
        run_self_play(ExperimentConfig(**BILINEAR, seed=seed))


def test_cli_adversarial_reads_config_seed(tmp_path, capsys):
    def regret_csv(name, **data):
        out = tmp_path / f"{name}.csv"
        cfg = write_config(tmp_path, name=f"{name}.json", **{**ADVERSARIAL, **data})
        assert main(["adversarial", "--config", cfg, "--out", str(out)]) == 0
        return out.read_bytes()

    unset, zero, three = regret_csv("unset"), regret_csv("zero", seed=0), regret_csv("three", seed=3)
    assert unset == zero  # no seed: the random_box stream of seed 0
    assert three != zero
    capsys.readouterr()


def test_cli_selfplay_has_no_seed_option(tmp_path, capsys):
    # self-play is deterministic: no part of it reads config.seed
    with pytest.raises(SystemExit) as exc:
        main(["selfplay", "--config", write_config(tmp_path, **BILINEAR), "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_cli_adversarial_out_is_opened_before_the_run(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("monolearn.harness.run_adversarial",
                        lambda *a, **k: calls.append(a) or run_adversarial(*a, **k))
    cfg = write_config(tmp_path, **ADVERSARIAL)
    out = str(tmp_path / "no_such_dir" / "regret.csv")
    assert main(["adversarial", "--config", cfg, "--out", out]) == 1
    assert_one_error_line(capsys, out)
    assert calls == []


def test_cli_adversarial_failed_run_keeps_earlier_csv(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, **ADVERSARIAL)
    out = tmp_path / "regret.csv"
    assert main(["adversarial", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("T=50 regret=")
    earlier = out.read_bytes()
    assert earlier.startswith(b"t,regret\n")

    def fail(*args, **kwargs):
        raise MonolearnError("round 3: adversary produced a non-finite gradient")

    monkeypatch.setattr("monolearn.harness.run_adversarial", fail)
    assert main(["adversarial", "--config", cfg, "--out", str(out)]) == 1
    assert_one_error_line(capsys, "round 3")
    assert out.read_bytes() == earlier
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "regret.csv"]


@pytest.mark.parametrize("command", ["adversarial", "verify"])
def test_cli_T_too_large_to_allocate_exits_one(tmp_path, capsys, command):
    # 2**62 rounds pass check_param, but their arrays have more bytes than
    # numpy can size, so nothing is allocated
    T = 2**62
    argv = (["adversarial", "--config", write_config(tmp_path, **ADVERSARIAL)]
            if command == "adversarial" else ["verify", "--checks", "eag_regret"])
    assert main([*argv, "--T", str(T)]) == 1
    assert_one_error_line(capsys, f"error: T: {T} rounds of dimension 1 are too many")


@pytest.mark.parametrize("bad", sorted(BAD_GRADIENTS))
def test_cli_adversary_bad_gradient_exits_one(tmp_path, capsys, monkeypatch, bad):
    adversary, calls = bad_at(4, BAD_GRADIENTS[bad])
    monkeypatch.setattr("monolearn.harness.make_adversary", lambda *a, **k: adversary)
    out = tmp_path / "regret.csv"
    cfg = write_config(tmp_path, **ADVERSARIAL)
    assert main(["adversarial", "--config", cfg, "--out", str(out)]) == 1
    assert_one_error_line(capsys, "round 4: ")
    assert calls == [1, 2, 3, 4]
    assert not out.exists()
