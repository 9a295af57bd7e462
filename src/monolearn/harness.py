"""Experiment runner and command-line interface.

Self-play runs are synchronous simultaneous-move rounds: every player
proposes before any gradient is revealed, the oracle evaluates the joint
gradient once, and everyone updates. Cumulative quantities (regrets,
gradient variation) are accumulated every round even when only strided
snapshots are written, so recorded rows are exact.

Players are built and validated through ``make_learner``, one per player.
Every iterate comes from the one round loop, :func:`learners.dynamics`,
which this module runs in two ways. Self-play feeds it the oracle's joint
gradient and writes each round's points and gradients into a block
of ``BLOCK_ROWS`` rows. After each block, the measurement pass computes
every column of the block's rounds with whole-block array operations on
the joint vectors, per player where a column is per player. The
adversarial runner drives the same loop with one player through
:func:`learners.play` and takes the external regret of every recorded
round from the same row formulas, in one pass after the run. Validation
happens at the boundary: the config (also after CLI overrides) and every
gradient the oracle or adversary returns, checked for size and
finiteness. The geometry cores the run calls do not re-check.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from . import verify as verify_mod
from .games import GameOracle, make_game
from .geometry import row_norms
from .learners import dynamics, make_learner, play
from .metrics import (
    RunRecord,
    Trajectory,
    anchored_potential,
    best_response_gaps,
    csv_header,
    csv_row,
    external_regrets,
    gradient_variation,
    linearized_gaps,
    normal_element,
    regret_rows,
    regret_terms,
    running_sums,
)

DEFAULT_SLOPE_T_MIN = 100
# Rounds per measurement block: at 256 coordinates a block's buffers take
# about 1 MiB, so the measurement pass reads them from cache.
BLOCK_ROWS = 128


class ConfigError(ValueError):
    pass


class HarnessError(RuntimeError):
    pass


@dataclass
class ExperimentConfig:
    game: str
    T: int
    algo: object = "aog"  # tag, or list of per-player tags
    game_params: dict = field(default_factory=dict)
    eta: float = None
    seed: int = 0
    stride: int = 1
    out: str = None
    record_potential: bool = False
    keep_trajectory: bool = False
    x1: list = None
    L: float = None
    D: float = None

    def __post_init__(self):
        for name in ("T", "stride", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name}: must be an integer, got {value!r}")
        for name in ("record_potential", "keep_trajectory"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ConfigError(f"{name}: must be true or false, got {value!r}")
        if not isinstance(self.game_params, dict):
            raise ConfigError(f"game_params: must be an object, got {self.game_params!r}")
        if self.T < 2:
            raise ConfigError("T: horizon must be at least 2")
        if self.stride < 1:
            raise ConfigError("stride: must be at least 1")
        for name in ("eta", "L", "D"):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, numbers.Real)
                                      or not (math.isfinite(value) and value > 0)):
                raise ConfigError(f"{name}: must be a finite positive number, got {value!r}")

    @staticmethod
    def from_dict(data):
        known = {f.name for f in fields(ExperimentConfig)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "game" not in data or "T" not in data:
            raise ConfigError("config requires at least 'game' and 'T'")
        return ExperimentConfig(**data)


def load_config(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return ExperimentConfig.from_dict(data)


@dataclass
class RunResult:
    config: ExperimentConfig
    game: GameOracle
    records: list
    eta: list  # final per-player step sizes
    trajectory: object = None
    certificates: dict = None  # per-round series when potential tracking is on

    @property
    def num_players(self):
        return self.game.num_players

    def column(self, name):
        return np.array([getattr(r, name) for r in self.records], dtype=float)

    @property
    def ts(self):
        return np.array([r.t for r in self.records], dtype=int)


def _recorded_rounds(T, stride):
    return set(range(1, T + 1, stride)) | {T}


def _build_learners(config, game):
    tags = config.algo
    if isinstance(tags, str):
        tags = [tags] * game.num_players
    if len(tags) != game.num_players:
        raise ConfigError("algo: need one tag per player")
    L = config.L if config.L is not None else game.lipschitz_bound
    D = config.D
    if D is None:
        D = game.diameter()
        if not math.isfinite(D):
            D = None
    x1 = np.asarray(config.x1, dtype=float) if config.x1 is not None else game.start
    if x1.size != game.dim:
        raise ConfigError(f"x1: expected dimension {game.dim}, got {x1.size}")
    out = []
    for tag, s in zip(tags, game.slices()):
        out.append(
            make_learner(tag, game.player_sets[len(out)], x1[s], eta=config.eta, L=L, D=D)
        )
    x1 = np.concatenate([p.x1 for p in out])
    return out, tags, x1


def _oracle_gradient(game, dim, z, t, point):
    """The oracle's joint gradient at z, checked for size and finiteness.

    This is the validation boundary of a round: everything the round loop
    passes to the unchecked geometry cores is built from these values.
    """
    g = np.asarray(game.gradient_fn(z), dtype=float)
    if g.shape != (dim,):
        raise HarnessError(
            f"round {t}: oracle gradient at the {point} has shape {g.shape}, "
            f"expected ({dim},)"
        )
    if not np.isfinite(g).all():
        raise HarnessError(f"round {t}: non-finite gradient from the oracle at the {point}")
    return g


def _previous_rows(rows, carry):
    """The rows of the round before each row: ``carry`` (the last row of the
    block before; at round 1, the first row itself) followed by rows[:-1]."""
    return np.concatenate([rows[:1] if carry is None else carry[None], rows[:-1]])


class _BlockMeasure:
    """The measurement pass: every CSV column and certificate of a block of
    rounds, from the block's iterates and the state carried from the block
    before (previous base point and gradient, and the running sums).

    Each column comes from the per-round formulas in :mod:`metrics`, on all
    rows of the block at once; only exact best responses and losses are
    evaluated row by row. Cumulative columns add their increments in round
    order, so every recorded row is exact whatever the stride.
    """

    def __init__(self, game, x1, recorded, track_potential):
        self.game, self.x1, self.recorded = game, x1, recorded
        self.joint = game.joint_set
        self.slices = game.slices()
        self.bounded = self.joint.is_bounded
        self.exact = game.has_best_response and game.losses is not None
        N = game.num_players
        self.x_prev = self.g_prev = None
        self.S, self.sum_gx, self.dynreg = np.zeros(N), np.zeros(N), np.zeros(N)
        self.sum_g = np.zeros(game.dim)
        self.records = []
        self.certs = (
            {"t": [], "potential": [], "residual_norm": [], "drift_norm": [],
             "r_tan_half": [], "dist_half": []}
            if track_potential else None
        )

    def __call__(self, t0, base, half, grad, etas, base_grad=None):
        """Measure rounds t0, t0+1, ...: ``base``, ``half``, ``grad`` and
        ``etas`` hold x_t, x_{t+1/2}, V(x_{t+1/2}) and the players' step
        sizes one row per round, and ``base_grad`` V(x_t) when the potential
        is tracked."""
        game, slices, N = self.game, self.slices, self.game.num_players
        n = len(grad)
        ts = np.arange(t0, t0 + n)
        g_prev = _previous_rows(grad, self.g_prev)
        S = running_sums(self.S, gradient_variation(grad, g_prev, slices))
        rec = np.flatnonzero([t in self.recorded for t in range(t0, t0 + n)])

        extreg = dynreg = [(None,) * N] * len(rec)
        gap, tgap, regret_incs = [None] * len(rec), [None] * n, None
        if self.bounded:
            gx, lows = regret_terms(self.joint, half, grad, slices)
            sum_gx = running_sums(self.sum_gx, gx)
            sum_g = running_sums(self.sum_g, grad)
            extreg = external_regrets(self.joint, sum_gx[rec], sum_g[rec], slices).tolist()
            gap = np.maximum(gx[rec].sum(axis=1) - lows[rec].sum(axis=1), 0.0).tolist()
            regret_incs = linearized_gaps(gx, lows)
            self.sum_gx, self.sum_g = sum_gx[-1], sum_g[-1]
        if self.exact:
            regret_incs = [best_response_gaps(game, h) for h in half]
            tgap = [sum(row) for row in regret_incs]
        if regret_incs is not None:
            dynreg = running_sums(self.dynreg, regret_incs)
            self.dynreg = dynreg[-1]
            dynreg = dynreg[rec].tolist()

        # r_tan and dist_half on recorded rows, or on every row for the
        # per-round certificates.
        at = slice(None) if self.certs is not None else rec
        r_tan = self.joint._tangent_residual(half[at], grad[at]).tolist()
        dist_half = row_norms(half[at] - base[at]).tolist()
        pot = [None] * n
        if self.certs is not None:
            x_prev = _previous_rows(base, self.x_prev)
            eta = etas[0, 0]  # one common fixed step
            c = normal_element(x_prev, g_prev, base, self.x1, eta, ts)
            wit = anchored_potential(c, base_grad, g_prev, base, self.x1, eta, ts)
            pot = wit.value.tolist()
            res, drift = np.sqrt(wit.sq_residual).tolist(), np.sqrt(wit.sq_drift).tolist()
            if t0 == 1:  # P_t needs t >= 2
                pot[0] = res[0] = drift[0] = None
            self.certs["t"].extend(ts.tolist())
            self.certs["potential"].extend(pot)
            self.certs["residual_norm"].extend(res)
            self.certs["drift_norm"].extend(drift)
            self.certs["r_tan_half"].extend(r_tan)
            self.certs["dist_half"].extend(dist_half)
            r_tan, dist_half = [r_tan[k] for k in rec], [dist_half[k] for k in rec]

        dist_anchor = row_norms(self.x1 - base[rec]).tolist()
        S_rec, eta_rec = S[rec].tolist(), etas[rec].tolist()
        for j, k in enumerate(rec.tolist()):
            self.records.append(RunRecord(
                t=t0 + k,
                r_tan=r_tan[j],
                gap=gap[j],
                tgap_exact=tgap[k],
                potential=pot[k],
                eta=tuple(eta_rec[j]),
                S=tuple(S_rec[j]),
                extreg=tuple(extreg[j]),
                dynreg=tuple(dynreg[j]),
                dist_half=dist_half[j],
                dist_anchor=dist_anchor[j],
            ))
        self.S = S[-1]
        self.x_prev, self.g_prev = base[-1].copy(), grad[-1].copy()


def run_self_play(config: ExperimentConfig):
    """Run one synchronous self-play experiment and collect metric rows.

    With ``config.out`` the CSV is written through :func:`_output_file`,
    opened before the first round.
    """
    game = make_game(config.game, **config.game_params)
    players, tags, x1 = _build_learners(config, game)
    if config.record_potential and (
            any(t != "aog" for t in tags) or len({p.eta for p in players}) != 1):
        raise ConfigError(
            "record_potential: potential tracking assumes every player runs "
            "fixed-step aog with a common step size"
        )
    if not config.out:
        return _self_play(config, game, players, x1)
    with _output_file(config.out) as fh:
        result = _self_play(config, game, players, x1)
        emit_csv(result, fh)
    return result


@contextmanager
def _output_file(path):
    """A text file that becomes ``path`` only when the block completes.

    It is a new file beside ``path``, so a missing directory fails at once,
    and it is renamed onto ``path`` at the end. If the block raises, only
    that new file is removed: no truncated CSV is left, and an earlier file
    at ``path`` is kept. A ``path`` that exists but is not a regular file
    (a pipe or a terminal) is written in place.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", newline="") as fh:
            yield fh
        return
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "x", newline="")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def _self_play(config, game, players, x1):
    """Self-play through :func:`learners.dynamics`: the oracle gives
    the joint gradients, and each step's x_t, x_{t+1/2} and V(x_{t+1/2})
    (and V(x_t) for the potential) go into the rows of a block; a full block
    goes to the measurement pass. With a kept trajectory the blocks are
    views of it, so it is filled in place."""
    dim, T = game.dim, config.T
    track_potential = config.record_potential
    keep = config.keep_trajectory
    steps = dynamics(players, game.joint_set, x1, partial(_oracle_gradient, game, dim),
                     base_gradient=track_potential)
    etas = tuple(p.eta for p in players)
    adaptive = any(p.threshold is not None for p in players)

    rows = min(BLOCK_ROWS, T)
    trajectory = Trajectory.allocate(T, dim) if keep else None
    if not keep:
        block_base, block_half, block_grad = np.empty((3, rows, dim))
    base_grads = np.empty((rows, dim)) if track_potential else None
    block_etas = np.tile(etas, (rows, 1))
    measure = _BlockMeasure(game, x1, _recorded_rounds(T, config.stride), track_potential)

    for t0 in range(1, T + 1, rows):
        n = min(rows, T + 1 - t0)
        if keep:
            base_rows = trajectory.base[t0:t0 + n]
            half_rows = trajectory.half[t0:t0 + n]
            grad_rows = trajectory.grad_half[t0:t0 + n]
        else:
            base_rows, half_rows, grad_rows = block_base[:n], block_half[:n], block_grad[:n]
        # range first: zip stops before it asks the loop for a step too many
        for k, (x, half, g_half, g_base, x_next, etas_next) in zip(range(n), steps):
            base_rows[k] = x
            half_rows[k] = half
            grad_rows[k] = g_half
            if track_potential:
                base_grads[k] = g_base
            if adaptive:
                block_etas[k] = etas
            etas = etas_next
        measure(t0, base_rows, half_rows, grad_rows, block_etas[:n],
                base_grads[:n] if track_potential else None)

    if keep:
        trajectory.base[T + 1] = x_next
    return RunResult(
        config=config,
        game=game,
        records=measure.records,
        eta=list(etas),
        trajectory=trajectory,
        certificates=measure.certs,
    )


# -- adversarial runs -----------------------------------------------------


def make_adversary(name, dim, seed=0):
    """Scripted gradient sources addressable by id."""
    if name == "appendix_d":
        if dim != 1:
            raise ConfigError("the alternating adversary is one-dimensional")
        return verify_mod.alternating_adversary
    if name == "random_box":
        rng = np.random.default_rng(seed)
        return lambda t, action: rng.uniform(-1.0, 1.0, dim)
    if name == "zero":
        return lambda t, action: np.zeros(dim)
    raise ConfigError(f"unknown adversary {name!r}")


@dataclass
class AdversarialResult:
    plays: np.ndarray  # (T, dim): the action of round t in row t - 1
    grads: np.ndarray  # (T, dim): its gradient
    regret_at: dict  # recorded round -> external regret of the play prefix

    @property
    def final_regret(self):
        return self.regret_at[max(self.regret_at)]


def run_adversarial(learner, adversary, T, record_at=None):
    """Single-agent run over :func:`learners.play`: every played action is
    charged, both phase points of eg/eag included. ``record_at`` lists rounds
    at which the external regret of the play so far is recorded (the final
    round is always included); the regret needs a bounded action set. Each
    gradient is checked for finiteness before the learner uses it.
    """
    if T < 1:
        raise ConfigError("T: need at least one round")
    fset = learner.set
    if not fset.is_bounded:
        raise ConfigError("adversarial runs need a bounded action set: the "
                          "external-regret comparator is unbounded")

    def checked(t, action):
        g = np.asarray(adversary(t, action), dtype=float)
        if not np.all(np.isfinite(g)):
            raise HarnessError(f"round {t}: adversary produced a non-finite gradient")
        return g

    plays, grads = np.empty((2, T, fset.dim))
    for t, action, g in play(learner, checked, T):
        plays[t - 1], grads[t - 1] = action, g
    wanted = set(record_at or ()) | {T}
    rounds = [t for t in range(1, T + 1) if t in wanted]
    regrets = regret_rows(plays, grads, fset, np.subtract(rounds, 1))
    return AdversarialResult(plays=plays, grads=grads,
                             regret_at=dict(zip(rounds, regrets.tolist())))


# -- slope fitting --------------------------------------------------------


@dataclass
class SlopeFit:
    slope: float
    intercept: float
    r2: float
    window: tuple


def fit_loglog_slope(ts, values, window=None):
    """Ordinary least squares of ln(value) on ln(t) inside a round window.

    Rows with nonpositive values are dropped; fewer than 10 usable rows is
    an error.
    """
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    if ts.shape != values.shape:
        raise HarnessError("t and value columns must align")
    t_min, t_max = window if window is not None else (DEFAULT_SLOPE_T_MIN, float("inf"))
    mask = (ts >= t_min) & (ts <= t_max) & (values > 0)
    if int(mask.sum()) < 10:
        raise HarnessError("fewer than 10 usable rows in the fit window")
    x, y = np.log(ts[mask]), np.log(values[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return SlopeFit(float(slope), float(intercept), r2, (float(t_min), float(t_max)))


# -- CSV ------------------------------------------------------------------


def emit_csv(result: RunResult, fh):
    """Write the run's CSV to the open text file ``fh``."""
    n = result.num_players
    lines = [csv_header(n)]
    lines.extend(csv_row(r, n) for r in result.records)
    fh.write("\n".join(lines) + "\n")


# -- CLI ------------------------------------------------------------------


def _apply_overrides(config, args):
    """A copy of ``config`` with the CLI overrides, validated like any config."""
    changes = {}
    for name in ("out", "seed", "stride", "T", "algo"):
        value = getattr(args, name, None)
        if value is not None:
            changes[name] = value
    return replace(config, **changes)


def _cmd_selfplay(args):
    config = _apply_overrides(load_config(args.config), args)
    result = run_self_play(config)
    last = result.records[-1]
    print(f"T={last.t} r_tan={last.r_tan:.6g}"
          + (f" gap={last.gap:.6g}" if last.gap is not None else ""))
    return 0


def build_single_learner(config, game, player=0):
    """A lone learner on one player's action set, for adversarial runs."""
    tag = config.algo if isinstance(config.algo, str) else config.algo[player]
    fset = game.player_sets[player]
    L = config.L if config.L is not None else game.lipschitz_bound
    D = config.D if config.D is not None else fset.diameter()
    s = game.slices()[player]
    x1 = np.asarray(config.x1, dtype=float)[s] if config.x1 is not None else game.start[s]
    return make_learner(tag, fset, x1, eta=config.eta, L=L, D=D)


def _cmd_adversarial(args):
    config = _apply_overrides(load_config(args.config), args)
    game = make_game(config.game, **config.game_params)
    learner = build_single_learner(config, game)
    adversary = make_adversary(args.adversary, game.player_dims[0], seed=config.seed)
    with _output_file(config.out) if config.out else nullcontext() as fh:
        result = run_adversarial(learner, adversary, config.T)
        if fh is not None:
            fh.write("t,regret\n")
            for t in sorted(result.regret_at):
                fh.write(f"{t},{result.regret_at[t]!r}\n")
    print(f"T={config.T} regret={result.final_regret:.6g}")
    return 0


VERIFY_CHECKS = ("identity", "sequence", "eag_regret")


def _cmd_verify(args):
    failures = 0
    checks = args.checks.split(",") if args.checks else list(VERIFY_CHECKS)
    unknown = sorted(set(checks) - set(VERIFY_CHECKS))
    if unknown:
        raise ConfigError(f"checks: unknown {unknown}; known: {', '.join(VERIFY_CHECKS)}")
    T = 1000 if args.T is None else args.T
    if T < 1:
        raise ConfigError("T: need at least one round")
    rng = np.random.default_rng(args.seed)
    if "identity" in checks:
        worst = 0.0
        for d in (1, 2, 5, 20):
            for t in (1, 2, 10, 1000):
                for q in (0.01, 0.1, 0.2):
                    inst = verify_mod.IdentityInstance.random(rng, d, t, q)
                    _, _, rel = verify_mod.check_descent_identity(inst)
                    worst = max(worst, rel)
        ok = worst <= 1e-9
        failures += not ok
        print(f"identity: worst relative error {worst:.3e} [{'ok' if ok else 'FAIL'}]")
    if "sequence" in checks:
        ks = np.arange(2, 500)
        report = verify_mod.check_sequence_bound(4.0 / ks**2, c1=1.0, p=0.25)
        failures += not bool(report)
        print(f"sequence: hypothesis={report.hypothesis_holds} "
              f"conclusion={report.conclusion_holds} "
              f"[{'ok' if report else 'FAIL'}]")
    if "eag_regret" in checks:
        regret, _ = verify_mod.run_eag_adversary(T, eta=0.5)
        ok = regret >= T / 2.0
        failures += not ok
        print(f"eag_regret: T={T} regret={regret:.1f} (>= {T/2:.1f}) "
              f"[{'ok' if ok else 'FAIL'}]")
    return 2 if failures else 0


def _cmd_slope(args):
    import csv as csv_lib

    with open(args.trace) as fh:
        reader = csv_lib.DictReader(fh)
        if args.column not in (reader.fieldnames or ()):
            raise ConfigError(f"column: unknown {args.column!r}; the trace has "
                              f"{', '.join(reader.fieldnames or ())}")
        ts, vals = [], []
        for row in reader:
            cell = row.get(args.column)
            if cell is None or cell == "":  # a short row has None cells
                continue
            ts.append(float(row["t"]))
            vals.append(float(cell))
    window = (args.t_min, args.t_max if args.t_max is not None else float("inf"))
    fit = fit_loglog_slope(ts, vals, window)
    print(f"slope={fit.slope:.4f} intercept={fit.intercept:.4f} r2={fit.r2:.6f}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="monolearn",
        description="Self-play and adversarial experiments for anchored "
        "optimistic gradient learning in monotone games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("selfplay", help="run a self-play experiment from a config")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--stride", type=int)
    sp.add_argument("--T", type=int)
    sp.add_argument("--algo")
    sp.set_defaults(func=_cmd_selfplay)

    ad = sub.add_parser("adversarial", help="run a single learner against a scripted adversary")
    ad.add_argument("--config", required=True)
    ad.add_argument("--adversary", default="random_box",
                    choices=["appendix_d", "random_box", "zero"])
    ad.add_argument("--out")
    ad.add_argument("--seed", type=int)
    ad.add_argument("--T", type=int)
    ad.add_argument("--algo")
    ad.set_defaults(func=_cmd_adversarial)

    ver = sub.add_parser("verify", help="run the numeric proposition checkers")
    ver.add_argument("--checks", help=f"comma list: {','.join(VERIFY_CHECKS)}")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--T", type=int)
    ver.set_defaults(func=_cmd_verify)

    sl = sub.add_parser("slope", help="fit a log-log slope on a trace column")
    sl.add_argument("--trace", required=True)
    sl.add_argument("--column", default="r_tan")
    sl.add_argument("--t-min", type=float, default=DEFAULT_SLOPE_T_MIN)
    sl.add_argument("--t-max", type=float, default=None)
    sl.set_defaults(func=_cmd_slope)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, HarnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
