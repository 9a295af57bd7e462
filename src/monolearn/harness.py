"""Experiment runner and command-line interface.

Self-play runs are synchronous simultaneous-move rounds: every player
proposes before any gradient is revealed, the oracle evaluates the joint
gradient once, and everyone updates. Cumulative quantities (regrets,
gradient variation) are accumulated every round even when only strided
snapshots are written, so recorded rows are exact.

Players are built and validated through ``make_learner``, one per player.
The round loop then advances one joint state: the iterate, the previous
gradient, a per-coordinate step size, and each player's predictor, anchor
and adaptive latch. Each round applies the learners' update rule
x+ = P(x - eta * g + w_t * (x1 - x)) once to the joint vector, on the joint
set of the game (one ``Box`` when every player has a box), and measures
the round once on the joint vector, summing per player where a column is
per player. Validation happens at the boundary: the config (also after CLI
overrides) and every gradient the oracle returns, checked for size and
finiteness. The geometry cores the loop calls do not re-check.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import verify as verify_mod
from .games import GameOracle, make_game, default_start
from .learners import (
    AdaptiveAOG,
    LearnerError,
    adapted_step_size,
    anchor_pull,
    make_learner,
    step,
)
from .metrics import (
    RunRecord,
    csv_header,
    csv_row,
    trajectory_from_selfplay,
)

DEFAULT_SLOPE_T_MIN = 100
# Full trajectories are kept only while they stay comfortably in memory.
TRAJECTORY_FLOAT_BUDGET = 20_000_000


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
    keep_trajectory: bool = None  # None: decide from memory budget
    x1: list = None
    L: float = None
    D: float = None

    def __post_init__(self):
        if self.T < 2:
            raise ConfigError("T: horizon must be at least 2")
        if self.stride < 1:
            raise ConfigError("stride: must be at least 1")
        if self.eta is not None and not self.eta > 0:
            raise ConfigError("eta: step size must be positive")

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
    rounds = set(range(1, T + 1, stride))
    rounds.add(T)
    return rounds


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
    x1 = np.asarray(config.x1, dtype=float) if config.x1 is not None else default_start(game)
    if x1.size != game.dim:
        raise ConfigError(f"x1: expected dimension {game.dim}, got {x1.size}")
    out = []
    for tag, s in zip(tags, game.slices()):
        out.append(
            make_learner(tag, game.player_sets[len(out)], x1[s], eta=config.eta, L=L, D=D)
        )
    x1 = np.concatenate([p.x1 for p in out])
    return out, tags, x1


def _joint_rule(players, dims, x1):
    """Lay the players' update rule out over the joint vector.

    Returns ``predict(g_prev, g_base)``, the half-step predictor (None when
    every player plays its base iterate), and ``pull(x, t)``, the anchor term
    of round t (None when no player is anchored). Both follow the per-player
    choices of the learner classes, coordinate by coordinate.
    """
    preds = {p.predictor for p in players}
    anchors = {p.anchor for p in players}

    def mask(test):
        return np.repeat([bool(test(p)) for p in players], dims)

    if preds == {"none"}:
        predict = lambda g_prev, g_base: None
    elif preds == {"last"}:
        predict = lambda g_prev, g_base: g_prev
    elif preds == {"base"}:
        predict = lambda g_prev, g_base: g_base
    else:
        use_base = mask(lambda p: p.predictor == "base")
        use_none = mask(lambda p: p.predictor == "none")

        def predict(g_prev, g_base):
            g_hat = g_prev if g_base is None else np.where(use_base, g_base, g_prev)
            return np.where(use_none, 0.0, g_hat)

    if anchors == {None}:
        pull = lambda x, t: None
    elif anchors == {"weight"}:
        pull = lambda x, t: anchor_pull(x1, x, weight=1.0 / (t + 1.0))
    elif anchors == {"divide"}:
        pull = lambda x, t: anchor_pull(x1, x, divisor=t + 1.0)
    else:
        # weight 1/(t+1) on "weight" coordinates, 1 on "divide" ones, 0 on
        # the rest; divisor t+1 on "divide" coordinates and 1 elsewhere.
        weighted = mask(lambda p: p.anchor == "weight").astype(float)
        divided = mask(lambda p: p.anchor == "divide").astype(float)

        def pull(x, t):
            return anchor_pull(x1, x, weighted * (1.0 / (t + 1.0)) + divided,
                               1.0 + divided * t)

    return predict, pull


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


def run_self_play(config: ExperimentConfig):
    """Run one synchronous self-play experiment and collect metric rows."""
    game = make_game(config.game, **config.game_params)
    players, tags, x1 = _build_learners(config, game)
    slices = game.slices()
    N = game.num_players
    dim = game.dim
    T = config.T
    joint = game.joint_set
    bounded = joint.is_bounded
    exact_game = game.has_best_response and game.losses is not None

    track_potential = config.record_potential
    if track_potential and (any(t != "aog" for t in tags) or len({p.eta for p in players}) != 1):
        raise ConfigError(
            "record_potential: potential tracking assumes every player runs "
            "fixed-step aog with a common step size"
        )

    keep = config.keep_trajectory
    if keep is None:
        keep = (T + 1) * dim * 3 <= TRAJECTORY_FLOAT_BUDGET
    needs_base_grad = track_potential or any(p.needs_base_gradient for p in players)

    recorded = _recorded_rounds(T, config.stride)
    records = []
    bases, halves, grads = [], [], []
    certs = (
        {"t": [], "potential": [], "residual_norm": [], "drift_norm": [],
         "r_tan_half": [], "dist_half": []}
        if track_potential
        else None
    )

    # Joint state: iterate, previous gradient, per-coordinate step size, and
    # per-player step size and adaptive latch.
    predict, pull_of = _joint_rule(players, game.player_dims, x1)
    etas = [p.eta for p in players]
    eta = np.repeat(etas, game.player_dims)
    adaptive = [i for i, p in enumerate(players) if isinstance(p, AdaptiveAOG)]
    latched = [getattr(p, "adaptive", False) for p in players]
    x = x1
    g_prev = np.zeros(dim)

    sum_g = np.zeros(dim)
    sum_gx = [0.0] * N
    dynreg = [0.0] * N
    s_var = [0.0] * N
    prev_base = None

    for t in range(1, T + 1):
        record = t in recorded
        g_base = _oracle_gradient(game, dim, x, t, "base point") if needs_base_grad else None
        pull = pull_of(x, t)
        g_hat = predict(g_prev, g_base)
        half = x if g_hat is None else step(joint, x, eta, g_hat, pull)
        g_half = _oracle_gradient(game, dim, half, t, "played point")
        x_next = step(joint, x, eta, g_half, pull)

        if t >= 2:
            d = g_half - g_prev
            for i, s in enumerate(slices):
                ds = d[s]
                s_var[i] += float(ds.dot(ds))
        if bounded:
            # Per-player <g, x> and min <g, x'> over the player's set (one
            # support pass): the regret sums and the linearized gaps.
            sum_g += g_half
            gx = [float(g_half[s].dot(half[s])) for s in slices]
            for i in range(N):
                sum_gx[i] += gx[i]
            if record or not exact_game:
                x_min, _ = joint._support_min(g_half)
                lows = [float(x_min[s].dot(g_half[s])) for s in slices]
        tgap = None
        if exact_game:
            tgap = 0.0
            for i in range(N):
                _, best = game.best_response(i, half)
                inc = game.loss(i, half) - best
                dynreg[i] += inc
                tgap += inc
        elif bounded:
            for i in range(N):
                dynreg[i] += max(gx[i] - lows[i], 0.0)

        pot = None
        if track_potential and t >= 2:
            eta0 = etas[0]
            c_t = (prev_base - eta0 * g_prev + (x1 - prev_base) / t - x) / eta0
            resid = eta0 * (g_base + c_t)
            drift = eta0 * (g_base - g_prev)
            sq_r, sq_d = float(resid.dot(resid)), float(drift.dot(drift))
            pot = t * (t + 1) / 2.0 * (sq_r + sq_d) + t * float(resid.dot(x - x1))

        if record or certs is not None:
            dist_half = float(np.linalg.norm(half - x))
            r_tan = joint._tangent_residual(half, g_half)
        if certs is not None:
            certs["t"].append(t)
            certs["potential"].append(pot)
            certs["residual_norm"].append(math.sqrt(sq_r) if pot is not None else None)
            certs["drift_norm"].append(math.sqrt(sq_d) if pot is not None else None)
            certs["r_tan_half"].append(r_tan)
            certs["dist_half"].append(dist_half)

        if record:
            if bounded:
                x_min, _ = joint._support_min(sum_g)
                extreg = tuple(
                    sum_gx[i] - float(x_min[s].dot(sum_g[s])) for i, s in enumerate(slices)
                )
                dynreg_out = tuple(dynreg)
            else:
                extreg = (None,) * N
                dynreg_out = tuple(dynreg) if exact_game else (None,) * N
            records.append(
                RunRecord(
                    t=t,
                    r_tan=r_tan,
                    gap=max(sum(gx) - sum(lows), 0.0) if bounded else None,
                    tgap_exact=tgap,
                    potential=pot,
                    eta=tuple(etas),
                    S=tuple(s_var),
                    extreg=extreg,
                    dynreg=dynreg_out,
                    dist_half=dist_half,
                    dist_anchor=float(np.linalg.norm(x1 - x)),
                )
            )

        for i in adaptive:
            etas[i], latched[i] = adapted_step_size(
                etas[i], s_var[i], players[i].threshold, latched[i])
            eta[slices[i]] = etas[i]

        if keep:
            bases.append(x)
            halves.append(half)
            grads.append(g_half)
        prev_base = x
        x, g_prev = x_next, g_half

    trajectory = None
    if keep:
        bases.append(x)  # x_{T+1}
        trajectory = trajectory_from_selfplay(bases, halves, grads)
    result = RunResult(
        config=config,
        game=game,
        records=records,
        eta=etas,
        trajectory=trajectory,
        certificates=certs,
    )
    if config.out:
        emit_csv(result, config.out)
    return result


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
    plays: list
    grads: list
    regret_at: dict  # recorded round -> external regret of the play prefix

    @property
    def final_regret(self):
        return self.regret_at[max(self.regret_at)]


def run_adversarial(learner, adversary, T, record_at=None):
    """Single-agent loop: propose, receive a gradient, update.

    Two-phase learners (eg/eag) play both their phase points; every played
    action is charged. ``record_at`` lists rounds at which the running
    external regret is snapshotted (the final round is always included).
    """
    if T < 1:
        raise ConfigError("T: need at least one round")
    record_at = set(record_at or ()) | {T}
    fset = learner.set
    plays, grads = [], []
    sum_g = np.zeros(fset.dim)
    sum_gx = 0.0
    regret_at = {}

    def charge(t, action, g):
        nonlocal sum_gx
        if not np.all(np.isfinite(g)):
            raise HarnessError(f"round {t}: adversary produced a non-finite gradient")
        plays.append(action)
        grads.append(g)
        sum_g[:] += g
        sum_gx += float(g @ action)
        if t in record_at:
            regret_at[t] = sum_gx - fset.support_min(sum_g)[1]

    if learner.needs_base_gradient:
        t = 0
        while t < T:
            base = learner.base_point()
            g = np.asarray(adversary(t + 1, base), dtype=float)
            charge(t + 1, base, g)
            t += 1
            if t >= T:
                break
            learner.observe_base(g)
            half = learner.propose()
            g2 = np.asarray(adversary(t + 1, half), dtype=float)
            charge(t + 1, half, g2)
            t += 1
            learner.update(g2)
    else:
        for t in range(1, T + 1):
            action = learner.propose()
            g = np.asarray(adversary(t, action), dtype=float)
            charge(t, action, g)
            learner.update(g)
    return AdversarialResult(plays=plays, grads=grads, regret_at=regret_at)


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


def emit_csv(result: RunResult, path):
    n = result.num_players
    lines = [csv_header(n)]
    lines.extend(csv_row(r, n) for r in result.records)
    with open(path, "w", newline="") as fh:
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
    x1 = (
        np.asarray(config.x1, dtype=float)[s]
        if config.x1 is not None
        else default_start(game)[s]
    )
    return make_learner(tag, fset, x1, eta=config.eta, L=L, D=D)


def _cmd_adversarial(args):
    config = _apply_overrides(load_config(args.config), args)
    game = make_game(config.game, **config.game_params)
    learner = build_single_learner(config, game)
    adversary = make_adversary(args.adversary, game.player_dims[0], seed=config.seed)
    result = run_adversarial(learner, adversary, config.T)
    print(f"T={config.T} regret={result.final_regret:.6g}")
    if config.out:
        with open(config.out, "w") as fh:
            fh.write("t,regret\n")
            for t in sorted(result.regret_at):
                fh.write(f"{t},{result.regret_at[t]!r}\n")
    return 0


def _cmd_verify(args):
    failures = 0
    checks = args.checks.split(",") if args.checks else ["identity", "sequence", "eag_regret"]
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
        T = args.T or 1000
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
        ts, vals = [], []
        for row in reader:
            cell = row.get(args.column, "")
            if cell == "":
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
    ver.add_argument("--checks", help="comma list: identity,sequence,eag_regret")
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
    except (ValueError, HarnessError, LearnerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
