"""Experiment runner and command-line interface.

Self-play runs are synchronous simultaneous-move rounds: every player
proposes before any gradient is revealed, the oracle evaluates the joint
gradient once, and everyone updates. Cumulative quantities (regrets,
gradient variation) are accumulated every round even when only strided
snapshots are written, so recorded rows are exact.

Players are built and validated through ``make_learner``, one per player.
Self-play runs the array round loop, the block kernel of
:func:`learners.dynamics`: it builds it with the oracle's joint gradient,
and the kernel writes each round's points and gradients straight into the
rows of a block, of :func:`block_rows` rounds: more rounds for smaller
games. After each block, the measurement pass computes every column of
the block's rounds with whole-block array operations on the joint
vectors, per player where a column is per player, into the one table of
the run: the CSV columns that ``run_self_play`` returns and ``emit_csv``
writes. The adversarial runner plays one learner through
:func:`learners.play_rows`, the one online driver, and takes the external
regret of every recorded round from the same row formulas, in one pass
over its arrays after the run. Validation happens at the boundary: the
config (also after CLI overrides), every number and vector by
:func:`geometry.check_param`; the oracle's gradients, checked for
finiteness in one place, at the start of each block's measurement pass
(their shape is fixed by the checked (M, r) of ``game.affine``); every
adversary gradient, checked for size and finiteness before the learner
uses it, once per run for an oblivious adversary and once per call for an
adaptive one; and each measured cell, checked for overflow. Geometry
methods do not re-check.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import verify as verify_mod
from .games import make_game
from .geometry import MonolearnError, check_param, row_norms, scaled_row_norms
from .learners import Oblivious, dynamics, make_learner, play_rows
from .metrics import (
    anchored_potential,
    csv_cells,
    csv_header,
    csv_row,  # unused here; the benchmark's outside-in tracer looks it up by name
    external_regrets,
    gradient_variation,
    linearized_gaps,
    normal_element,
    regret_rows,
    regret_terms,
    running_sums,
)

DEFAULT_SLOPE_T_MIN = 100
# Rounds per measurement block: at least BLOCK_ROWS, and ROW_BUDGET floats
# per buffer (see block_rows). Small games get long blocks, over which the
# measurement pass spreads its fixed per-block calls; from 32 coordinates
# on, a block is BLOCK_ROWS rounds, and at 256 its buffers take about
# 1 MiB, so the measurement pass reads them from cache.
BLOCK_ROWS = 128
ROW_BUDGET = 4096
# Membership tolerance for the normal-cone witness c_t of the potential.
WITNESS_TOL = 1e-9


@dataclass
class ExperimentConfig:
    game: str
    T: int
    algo: object = "aog"  # tag, or list of per-player tags
    game_params: dict = field(default_factory=dict)
    eta: float = None
    seed: int = None  # seed of the random_box adversary (None: 0); self-play takes none
    stride: int = 1
    out: str = None
    record_potential: bool = False
    keep_trajectory: bool = False  # accepted only as false: no run keeps its iterates
    x1: list = None
    L: float = None
    D: float = None

    def __post_init__(self):
        if not isinstance(self.game, str):
            raise MonolearnError(f"game: must be a game id string, got {self.game!r}")
        tags = [self.algo] if isinstance(self.algo, str) else self.algo
        if not isinstance(tags, (list, tuple)) or not all(isinstance(t, str) for t in tags):
            raise MonolearnError(f"algo: must be a tag or a list of tags, got {self.algo!r}")
        if self.out is not None and not (isinstance(self.out, str) and self.out):
            raise MonolearnError(f"out: must be a non-empty file path string, got {self.out!r}")
        if not isinstance(self.record_potential, bool):
            raise MonolearnError(f"record_potential: must be true or false, "
                                 f"got {self.record_potential!r}")
        if self.keep_trajectory is not False:
            raise MonolearnError(f"keep_trajectory: must be false, got "
                                 f"{self.keep_trajectory!r}; runs keep no iterates, "
                                 f"only the measured rows")
        if not isinstance(self.game_params, dict):
            raise MonolearnError(f"game_params: must be an object, got {self.game_params!r}")
        check_param("T", self.T, 2)
        check_param("stride", self.stride, 1)
        for name, least in (("seed", 0), ("eta", None), ("L", None), ("D", None)):
            if getattr(self, name) is not None:
                check_param(name, getattr(self, name), least)
        if self.x1 is not None:
            check_param("x1", self.x1, vector=True)

    @staticmethod
    def from_dict(data):
        known = {f.name for f in fields(ExperimentConfig)}
        unknown = set(data) - known
        if unknown:
            raise MonolearnError(f"unknown config keys: {sorted(unknown)}")
        if "game" not in data or "T" not in data:
            raise MonolearnError("config requires at least 'game' and 'T'")
        # a given seed must be an integer: null does not read as "unset" here
        if "seed" in data:
            check_param("seed", data["seed"], 0)
        return ExperimentConfig(**data)


def _read_text(path):
    """The text of the file at ``path``; bytes that are not UTF-8 raise one
    :class:`MonolearnError` that starts with the path."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise MonolearnError(f"{path}: not UTF-8 text") from None


def load_config(path):
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise MonolearnError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise MonolearnError(f"{path}: config must be a JSON object")
    return ExperimentConfig.from_dict(data)


def _learner_inputs(config, game, fset):
    """The per-player tags, L, D and joint start x1 of a run: the config's,
    else the game's; D defaults to the diameter of ``fset``, and an
    unbounded ``fset`` gives no D."""
    tags = config.algo
    if isinstance(tags, str):
        tags = [tags] * game.num_players
    if len(tags) != game.num_players:
        raise MonolearnError("algo: need one tag per player")
    L = config.L if config.L is not None else game.lipschitz_bound
    D = config.D if config.D is not None else fset.diameter()
    x1 = game.start if config.x1 is None else check_param("x1", config.x1, vector=game.dim)
    return tags, L, D if math.isfinite(D) else None, x1


def _build_learners(config, game):
    tags, L, D, x1 = _learner_inputs(config, game, game.joint_set)
    out = [make_learner(tag, fset, x1[s], eta=config.eta, L=L, D=D)
           for tag, fset, s in zip(tags, game.player_sets, game.slices())]
    return out, tags, np.concatenate([p.x1 for p in out])


def _check_gradients(t0, base_grad, grad):
    """Raise :class:`MonolearnError` naming the first round, from round t0 on,
    and point whose oracle gradient row is not finite: ``base_grad`` (or
    None) holds V(x_t) and ``grad`` V(x_{t+1/2}), one row per round, and a
    round's base point comes before its played point. This is the one
    check of the oracle, at the start of each block's measurement pass:
    everything the run hands to the geometry methods comes from these rows."""
    bad = ~np.isfinite(grad).all(axis=1)
    bad_base = np.zeros_like(bad) if base_grad is None else ~np.isfinite(base_grad).all(axis=1)
    bad |= bad_base
    if bad.any():
        k = bad.argmax()
        point = "base point" if bad_base[k] else "played point"
        raise MonolearnError(f"round {t0 + k}: non-finite gradient from the oracle at the "
                             f"{point}")


def _check_finite(ts, columns):
    """Raise :class:`MonolearnError` naming the first round of ``ts`` at which
    one of ``columns`` (one row of cells per round, or None) is not finite."""
    bad = ~np.isfinite(np.column_stack([c for c in columns if c is not None])).all(axis=1)
    if bad.any():
        raise MonolearnError(f"round {ts[bad.argmax()]}: a measured value overflowed")


def _previous_rows(rows, carry):
    """The rows of the round before each row: ``carry`` (the last row of the
    block before; at round 1, the first row itself) followed by rows[:-1]."""
    return np.concatenate([rows[:1] if carry is None else carry[None], rows[:-1]])


class _BlockMeasure:
    """The measurement pass: every CSV column of a block of rounds, from the
    block's iterates and the state carried from the block before (previous
    base point and gradient, and the running sums). The recorded rows,
    rounds 1, 1 + stride, 1 + 2 stride, ... and T, go into ``columns``, a
    dict from each name of :func:`metrics.csv_header`, in header order, to
    that column's cells.

    Each column comes from the per-round formulas in :mod:`metrics`, on all
    rows of the block at once. Cumulative columns add their increments in
    round order, so every recorded row is exact whatever the stride. The
    rest, P_t included, are computed on the recorded rows only. ``dynreg_i``
    sums player i's linearized gaps, and ``tgap_exact`` is their row sum
    when every player's own block of M is zero, which makes them exact.

    The pass starts with :func:`_check_gradients` on the block's gradient
    rows. When the potential is tracked, every player runs ``aog``, whose
    kernel takes no V(x_t), so the pass first forms V(x_t) of all base
    rows, ``base @ M.T + r`` with ``(M, r) = game.affine``, and checks it
    with the played gradients. It checks the certificate's hypothesis on
    every round t >= 2: the witness c_t lies in the normal cone at x_t.
    The cone is closed under positive scaling, so the test takes the step
    residual eta c_t, whose rounding is a few ulps of the points whatever
    the game's scale: ||P(x_t + eta c_t) - x_t|| <=
    ``WITNESS_TOL`` * max(1, ||x_{t-1}||, ||x_t||, ||x_1||, ||eta c_t||),
    with one projection of the block's rows. The norms are
    :func:`geometry.scaled_row_norms`, so the test keeps its signal when
    their squares pass the float range. The first round that fails
    raises :class:`MonolearnError` naming it.
    """

    def __init__(self, game, x1, T, stride, track_potential):
        self.game, self.x1, self.T, self.stride = game, x1, T, stride
        self.track_potential = track_potential
        self.joint = game.joint_set
        self.slices = game.slices()
        self.bounded = self.joint.is_bounded
        # A zero own block M_ii makes loss i <V_i(z), z_i> plus a term free
        # of z_i, so its linearized gap is exact. Unbounded games read no block.
        M = game.affine[0]
        self.exact = self.bounded and not any(M[s, s].any() for s in self.slices)
        N = game.num_players
        self.x_prev = self.g_prev = None
        self.S, self.sum_gx, self.dynreg = np.zeros(N), np.zeros(N), np.zeros(N)
        self.sum_g = np.zeros(game.dim)
        self.columns = {name: [] for name in csv_header(N).split(",")}

    def __call__(self, t0, base, half, grad, base_grad, etas):
        """Measure rounds t0, t0+1, ...: ``base``, ``half``, ``grad``,
        ``base_grad`` and ``etas`` hold x_t, x_{t+1/2}, V(x_{t+1/2}), V(x_t)
        (None unless a player's predictor is "base") and the players' step
        sizes, one row per round."""
        game, slices, N = self.game, self.slices, self.game.num_players
        if self.track_potential:
            M, r = game.affine
            base_grad = base @ M.T + r
        _check_gradients(t0, base_grad, grad)
        n = len(grad)
        ts = np.arange(t0, t0 + n)
        g_prev = _previous_rows(grad, self.g_prev)
        S = running_sums(self.S, gradient_variation(grad, g_prev, slices))
        rec = np.flatnonzero(((ts - 1) % self.stride == 0) | (ts == self.T))

        extreg = dynreg = gap = tgap = None
        pot = [None] * len(rec)
        if self.bounded:
            gx, lows = regret_terms(self.joint, half, grad, slices)
            sum_gx = running_sums(self.sum_gx, gx)
            sum_g = running_sums(self.sum_g, grad)
            extreg = external_regrets(self.joint, sum_gx[rec], sum_g[rec], slices)
            gap = np.maximum(gx[rec].sum(axis=1) - lows[rec].sum(axis=1), 0.0)
            gaps = linearized_gaps(gx, lows)
            dynreg = running_sums(self.dynreg, gaps)
            self.sum_gx, self.sum_g, self.dynreg = sum_gx[-1], sum_g[-1], dynreg[-1]
            dynreg = dynreg[rec]
            if self.exact:
                # Python's sum of each row, as the CSV has always had it: the
                # players' gaps added left to right (numpy's pairwise sum
                # would regroup them from 8 players on)
                tgap = sum(gaps[rec].T)

        if self.track_potential:
            x_prev = _previous_rows(base, self.x_prev)
            eta = etas[0, 0]  # one common fixed step
            c = normal_element(x_prev, g_prev, base, self.x1, eta, ts)
            step = eta * c
            # power-of-two scaled norms: a square past the float range must
            # not make the tolerance inf
            miss = scaled_row_norms(self.joint.project(base + step) - base)
            scale = scaled_row_norms(np.stack([x_prev, base, step])).max(axis=0)
            scale = np.maximum(scale, max(1.0, scaled_row_norms(self.x1)))
            bad = np.flatnonzero((miss > WITNESS_TOL * scale) & (ts >= 2))  # c_t needs t >= 2
            if bad.size:
                k = bad[0]
                raise MonolearnError(f"round {ts[k]}: the potential's witness c_t is not in "
                                     f"the normal cone at x_t (||P(x_t + eta c_t) - x_t|| = "
                                     f"{miss[k]:.3e})")
            pot = anchored_potential(c[rec], base_grad[rec], g_prev[rec], base[rec],
                                     self.x1, eta, ts[rec]).tolist()
            if t0 == 1:  # round 1 is always recorded, and P_t needs t >= 2
                pot[0] = None

        r_tan = self.joint.tangent_residual(half[rec], grad[rec])
        dist_half = row_norms(half[rec] - base[rec])
        dist_anchor = row_norms(self.x1 - base[rec])
        _check_finite(ts[rec], (r_tan, gap, tgap, S[rec], extreg, dynreg, dist_half,
                                dist_anchor))
        cols = self.columns
        cols["potential"].extend(pot)
        for name, cells in (("t", ts[rec]), ("r_tan", r_tan), ("gap", gap),
                            ("tgap_exact", tgap), ("dist_half", dist_half),
                            ("dist_anchor", dist_anchor)):
            cols[name].extend([None] * len(rec) if cells is None else cells.tolist())
        for name, table in (("eta", etas[rec]), ("S", S[rec]),
                            ("extreg", extreg), ("dynreg", dynreg)):
            per_player = [[None] * len(rec)] * N if table is None else table.T.tolist()
            for i, cells in enumerate(per_player, 1):
                cols[f"{name}_{i}"].extend(cells)
        self.S = S[-1]
        self.x_prev, self.g_prev = base[-1].copy(), grad[-1].copy()


def run_self_play(config: ExperimentConfig):
    """Run one synchronous self-play experiment; return its table, a dict from
    each CSV column name, in header order, to its cells (None: an empty cell).

    With ``config.out`` the CSV is written through :func:`_output_file`,
    opened before the first round.
    """
    if config.seed is not None:
        raise MonolearnError(f"seed: self-play is deterministic and reads no seed, "
                             f"got {config.seed!r}; only adversarial runs take one")
    game = make_game(config.game, **config.game_params)
    players, tags, x1 = _build_learners(config, game)
    if config.record_potential and (
            any(t != "aog" for t in tags) or len({p.eta for p in players}) != 1):
        raise MonolearnError(
            "record_potential: potential tracking assumes every player runs "
            "fixed-step aog with a common step size"
        )
    with _output_file(config.out) if config.out else nullcontext() as fh:
        columns = _self_play(config, game, players, x1)
        if fh is not None:
            emit_csv(columns, fh)
    return columns


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


def block_rows(dim):
    """Rounds per measurement block of a game of joint dimension ``dim``: as
    many as fit ``ROW_BUDGET`` floats in one (rounds, dim) buffer, and never
    fewer than ``BLOCK_ROWS``."""
    return max(BLOCK_ROWS, ROW_BUDGET // dim)


def _self_play(config, game, players, x1):
    """Self-play through the :func:`learners.dynamics` kernel, built with
    the oracle's gradient: it writes each round's x_t, x_{t+1/2} and
    V(x_{t+1/2}) (and V(x_t) for a "base" predictor, and the step sizes
    when a player is adaptive) into the rows of block buffers, reused from
    block to block. A full block goes to the measurement pass, which checks
    its rows first. The buffers are the only place the run's iterates reach."""
    dim, T = game.dim, config.T
    rows = min(block_rows(dim), T)
    needs_base = any(p.predictor == "base" for p in players)
    block_base, block_half, block_grad = np.empty((3, rows, dim))
    block_base_grad = np.empty((rows, dim)) if needs_base else None
    block_etas = np.tile([p.eta for p in players], (rows, 1))
    advance = dynamics(players, game.joint_set, x1, game.gradient_fn)
    measure = _BlockMeasure(game, x1, T, config.stride, config.record_potential)

    with np.errstate(over="ignore", invalid="ignore"):  # the block checks report
        for t0 in range(1, T + 1, rows):
            n = min(rows, T + 1 - t0)
            base, half, grad, etas = (a[:n] for a in (block_base, block_half, block_grad,
                                                      block_etas))
            base_grad = None if block_base_grad is None else block_base_grad[:n]
            advance(base, half, grad, base_grad, etas)
            measure(t0, base, half, grad, base_grad, etas)
    if config.record_potential:  # after the run: a bad V(x_t) is named, not its P_t
        _check_finite(measure.columns["t"][1:], (measure.columns["potential"][1:],))
    return measure.columns


# -- adversarial runs -----------------------------------------------------


ADVERSARIES = ("appendix_d", "random_box", "zero")  # also the CLI's choices


def make_adversary(name, dim, seed=0):
    """Scripted gradient sources by id, each an oblivious
    :class:`learners.Oblivious` of width ``dim``: ``play_rows`` has it fill
    every round's gradient before round 1 and checks them once.

    ``random_box`` plays gradients drawn uniformly from [-1, 1]^dim by
    ``default_rng(seed)``, in place into the contiguous rows it fills, as
    2u - 1 from one ``random`` draw u: the rows of one ``uniform(-1, 1,
    (T, dim))`` draw, bit for bit; a second fill continues the stream.
    ``appendix_d`` is :data:`verify.ALTERNATING`, and ``zero`` plays zeros.
    """
    if name == "appendix_d":
        if dim != 1:
            raise MonolearnError("the alternating adversary is one-dimensional")
        return verify_mod.ALTERNATING
    if name == "random_box":
        rng = np.random.default_rng(seed)

        def fill(rows):
            rng.random(out=rows)
            rows *= 2.0
            rows -= 1.0

        return Oblivious(dim, fill)
    if name == "zero":
        return Oblivious(dim, lambda rows: rows.fill(0.0))
    raise MonolearnError(f"unknown adversary {name!r}; known: {', '.join(ADVERSARIES)}")


@dataclass
class AdversarialResult:
    plays: np.ndarray  # (T, dim): the action of round t in row t - 1
    grads: np.ndarray  # (T, dim): its gradient
    regret_at: dict  # recorded round -> external regret of the play prefix

    @property
    def final_regret(self):
        return self.regret_at[max(self.regret_at)]


def run_adversarial(learner, adversary, T, record_at=None):
    """Single-agent run over :func:`learners.play_rows`: every played
    action is charged, both phase points of eg/eag included. ``record_at``,
    integers in [1, T] (a list, range or ndarray), each checked once after
    the run, lists rounds at which the external regret of the play so far
    is recorded (and at T); the regret needs a bounded action set. The
    gradients are checked by ``play_rows`` before the learner uses them: an
    oblivious adversary's once per run, an adaptive callable's once per
    call; a wrong-size or non-finite one raises :class:`MonolearnError`
    naming its round.
    """
    fset = learner.set
    if not fset.is_bounded:
        raise MonolearnError("adversarial runs need a bounded action set: the "
                             "external-regret comparator is unbounded")
    plays, grads = play_rows(learner, adversary, T)  # checks T
    wanted = () if record_at is None else record_at
    rounds = sorted({int(check_param("record_at", t, 1)) for t in wanted} | {int(T)})
    if rounds[-1] > T:
        raise MonolearnError(f"record_at: must be an integer in [1, {T}], got {rounds[-1]}")
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
    """Ordinary least squares of ln(value) on ln(t) in the round window
    (t_min, t_max): a finite t_min and a t_max >= t_min, finite or inf.

    Rows with nonpositive values are dropped. Fewer than 10 usable rows is
    an error, and so is a window that holds a non-finite t or value, a t <=
    0, or only one log t."""
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    if ts.shape != values.shape:
        raise MonolearnError("t and value columns must align")
    t_min, t_max = window if window is not None else (DEFAULT_SLOPE_T_MIN, math.inf)
    check_param("window t_min", t_min, -math.inf)
    if t_max != math.inf:
        check_param("window t_max", t_max, -math.inf)
    if t_max < t_min:
        raise MonolearnError(f"window: t_max must be >= t_min, got {t_max!r} < {t_min!r}")
    mask = (ts >= t_min) & (ts <= t_max) & (values > 0)
    if int(mask.sum()) < 10:
        raise MonolearnError("fewer than 10 usable rows in the fit window")
    ts, values = ts[mask], values[mask]
    if not (np.isfinite(ts).all() and np.isfinite(values).all()):
        raise MonolearnError("the fit window holds a non-finite t or value")
    if ts.min() <= 0:
        raise MonolearnError(f"t: the fit window holds t = {ts.min():g}; a log-log fit "
                             "needs t > 0")
    x, y = np.log(ts), np.log(values)
    if x.min() == x.max():
        raise MonolearnError(f"t: every row in the fit window has t = {ts[0]:g}; a fit "
                             "needs two distinct t")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return SlopeFit(float(slope), float(intercept), r2, (float(t_min), float(t_max)))


# -- CSV ------------------------------------------------------------------


def emit_csv(columns, fh):
    """Write the table ``columns`` (name -> cells, all of one length, else
    ValueError) as CSV to the open text file ``fh``, header line first. The
    cells are formatted a column at a time, by :func:`metrics.csv_cells`."""
    text = [csv_cells(cells) for cells in columns.values()]
    lines = [",".join(columns), *map(",".join, zip(*text, strict=True))]
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
    columns = run_self_play(config)
    t, r_tan, gap = (columns[name][-1] for name in ("t", "r_tan", "gap"))
    print(f"T={t} r_tan={r_tan:.6g}" + (f" gap={gap:.6g}" if gap is not None else ""))
    return 0


def build_single_learner(config, game):
    """A lone learner on player 0's action set, for adversarial runs; its
    default D is the diameter of that set."""
    fset = game.player_sets[0]
    tags, L, D, x1 = _learner_inputs(config, game, fset)
    return make_learner(tags[0], fset, x1[:fset.dim], eta=config.eta, L=L, D=D)


def _cmd_adversarial(args):
    config = _apply_overrides(load_config(args.config), args)
    game = make_game(config.game, **config.game_params)
    learner = build_single_learner(config, game)
    adversary = make_adversary(args.adversary, game.player_dims[0], seed=config.seed or 0)
    with _output_file(config.out) if config.out else nullcontext() as fh:
        result = run_adversarial(learner, adversary, config.T,
                                 record_at=range(1, config.T + 1, config.stride))
        if fh is not None:
            emit_csv({"t": [*result.regret_at], "regret": [*result.regret_at.values()]}, fh)
    print(f"T={config.T} regret={result.final_regret:.6g}")
    return 0


VERIFY_CHECKS = ("identity", "sequence", "eag_regret")


def _cmd_verify(args):
    failures = 0
    checks = args.checks.split(",") if args.checks else list(VERIFY_CHECKS)
    unknown = sorted(set(checks) - set(VERIFY_CHECKS))
    if unknown:
        raise MonolearnError(f"checks: unknown {unknown}; known: {', '.join(VERIFY_CHECKS)}")
    T = check_param("T", 1000 if args.T is None else args.T, 1)
    rng = np.random.default_rng(check_param("seed", args.seed, 0))
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

    t_min = check_param("t-min", args.t_min, -math.inf)
    t_max = math.inf if args.t_max is None else check_param("t-max", args.t_max, -math.inf)
    if t_max < t_min:
        raise MonolearnError(f"t-max: must be >= t-min, got {t_max!r} < {t_min!r}")
    reader = csv_lib.DictReader(io.StringIO(_read_text(args.trace)))
    if args.column not in (reader.fieldnames or ()):
        raise MonolearnError(f"column: unknown {args.column!r}; the trace has "
                             f"{', '.join(reader.fieldnames or ())}")
    if "t" not in reader.fieldnames:
        raise MonolearnError(f"trace: {args.trace} has no 't' column to fit against")
    ts, vals = [], []
    for row in reader:
        cell = row.get(args.column)
        if cell is None or cell == "":  # a short row has None cells
            continue
        for name, out in (("t", ts), (args.column, vals)):
            try:
                value = float(row[name])
            except (TypeError, ValueError):
                value = math.nan
            if not math.isfinite(value):
                raise MonolearnError(f"trace: {args.trace} line {reader.line_num}: column "
                                     f"{name!r} holds {row[name]!r}, not a finite number")
            out.append(value)
    fit = fit_loglog_slope(ts, vals, (t_min, t_max))
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
    sp.add_argument("--stride", type=int)
    sp.add_argument("--T", type=int)
    sp.add_argument("--algo")
    sp.set_defaults(func=_cmd_selfplay)

    ad = sub.add_parser("adversarial", help="run a single learner against a scripted adversary")
    ad.add_argument("--config", required=True)
    ad.add_argument("--adversary", default="random_box", choices=ADVERSARIES)
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
