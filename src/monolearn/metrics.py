"""Per-round measurement: residuals, gaps, regrets, and the potential.

Functions here are pure over stored trajectories. Each per-round formula
(per-player dot products, gradient variation, linearized and exact
best-response gaps, external regret from running sums, c_t and P_t) takes
rows over a leading axis, and :func:`running_sums` turns per-round
increments into cumulative columns in round order. The experiment runner
measures blocks of rounds, and the adversarial runner whole runs, with the
same functions, so a column has one formula whichever path computes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GeometryError, _as_vector
from .games import GameOracle

# Membership tolerance for the explicit normal-cone witness c_t.
WITNESS_TOL = 1e-9

CSV_BASE_COLUMNS = ("t", "r_tan", "gap", "tgap_exact", "potential")
CSV_TAIL_COLUMNS = ("dist_half", "dist_anchor")


class MetricError(ValueError):
    pass


@dataclass
class Trajectory:
    """Self-play iterates of a fixed-step run, 1-indexed by round.

    ``base[t]`` is x_t (t = 1..T+1), ``half[t]`` is x_{t+1/2} and
    ``grad_half[t]`` its joint gradient (t = 1..T), rows of 2-D arrays.
    Row 0 is NaN padding so round indices match the algebra.
    """

    base: np.ndarray
    half: np.ndarray
    grad_half: np.ndarray

    @staticmethod
    def allocate(rounds, dim):
        """An unfilled trajectory of ``rounds`` rounds, for the runner to write."""
        traj = Trajectory(np.empty((rounds + 2, dim)), np.empty((rounds + 1, dim)),
                          np.empty((rounds + 1, dim)))
        for rows in (traj.base, traj.half, traj.grad_half):
            rows[0] = np.nan
        return traj

    @property
    def x1(self):
        return self.base[1]

    @property
    def rounds(self):
        return len(self.half) - 1


# -- per-round formulas over a leading row axis ------------------------------


def player_dots(a, b, slices):
    """Per-player <a, b> over the last axis: shape ``a.shape[:-1] + (N,)``.

    ``np.vecdot`` rounds each row exactly as ``a.dot(b)`` of that row does.
    """
    return np.stack([np.vecdot(a[..., s], b[..., s]) for s in slices], axis=-1)


def running_sums(carry, increments):
    """Cumulative sums over the leading axis, starting from ``carry`` and
    adding one row at a time in round order, as a streaming ``+=`` does."""
    out = np.array(increments, dtype=float)
    out[0] += carry
    return np.cumsum(out, axis=0, out=out)


def gradient_variation(g, g_prev, slices=None):
    """Per-player ||g - g_prev||^2: the increments of S. With ``slices``
    None, the increment of one learner over the whole vector."""
    d = g - g_prev
    if slices is None:
        return np.vecdot(d, d)
    return player_dots(d, d, slices)


def regret_terms(feasible_set, x, g, slices):
    """Per-player <g, x> and min over the player's set of <g, x'>, from one
    support pass of the joint set: the parts of regrets and linearized gaps."""
    x_min, _ = feasible_set._support_min(g)
    return player_dots(g, x, slices), player_dots(x_min, g, slices)


def linearized_gaps(gx, lows):
    """Per-player linearized gaps from :func:`regret_terms`, clipped at 0."""
    return np.maximum(gx - lows, 0.0)


def best_response_gaps(game: GameOracle, x):
    """Per-player loss minus exact best-response value at one profile."""
    return [game.loss(i, x) - game.best_response(i, x)[1] for i in range(game.num_players)]


@dataclass
class EquilibriumMeasures:
    r_tan: float
    gap: float = None  # absent on unbounded sets
    tgap_exact: float = None  # absent unless every player has an exact best response


def measure_equilibrium(game: GameOracle, profile):
    """Tangent residual, linearized gap, and (when available) exact total gap."""
    x = game.joint_set.project(_as_vector(profile, game.dim))
    v = game.gradient(x)
    joint = game.joint_set
    r_tan = joint.tangent_residual(x, v)
    gap = joint.linearized_gap(x, v) if joint.is_bounded else None
    tgap = None
    if game.has_best_response and game.losses is not None:
        tgap = sum(best_response_gaps(game, x))
    return EquilibriumMeasures(r_tan=r_tan, gap=gap, tgap_exact=tgap)


def external_regrets(feasible_set, sum_gx, sum_g, slices=None):
    """External regret against the best fixed comparator, from the running
    sums of <g, x> and of g: sum_gx - min over the set of <sum_g, x>, row by
    row. With ``slices``, per player, each against its own factor of the
    set; with None, one learner over the whole vector."""
    x_min, low = feasible_set._support_min(sum_g)
    return sum_gx - (low if slices is None else player_dots(x_min, sum_g, slices))


def external_regret(plays, grads, feasible_set):
    """Linearized external regret of a played sequence against the best fixed
    comparator: max over x of sum_t <g_t, x_t - x>, in closed form."""
    if not feasible_set.is_bounded:
        raise GeometryError("external regret comparator needs a bounded set")
    if len(plays) != len(grads):
        raise MetricError("plays and gradients must align")
    if not len(plays):
        return 0.0
    dim = feasible_set.dim
    plays, grads = (_as_vector(v, len(v) * dim).reshape(-1, dim) for v in (plays, grads))
    return float(regret_rows(plays, grads, feasible_set, -1))


def regret_rows(plays, grads, feasible_set, rows):
    """External regret of the play up to each of ``rows`` (0-based round
    indices, one or an array) of the (T, dim) arrays ``plays`` and ``grads``."""
    sum_gx = running_sums(0.0, np.vecdot(grads, plays))[rows]
    return external_regrets(feasible_set, sum_gx, running_sums(0.0, grads)[rows])


@dataclass
class DynamicRegretResult:
    per_round: np.ndarray  # shape (T, N) nonnegative gap terms
    exact: bool

    @property
    def totals(self):
        return self.per_round.sum(axis=0)


def dynamic_regret(profiles, game: GameOracle):
    """Per-player dynamic regret terms along a sequence of played profiles.

    Exact mode (every player has an exact best response): the term is the
    player's loss minus its best-response value. Otherwise falls back to the
    per-player linearized gap, an upper bound by convexity. Mixed reporting
    is not done: one mode applies to all players of a run.
    """
    exact = game.has_best_response and game.losses is not None
    if exact:
        rows = [best_response_gaps(game, _as_vector(prof, game.dim)) for prof in profiles]
    else:
        # _clean rejects an infeasible profile and snaps a near-feasible one
        # onto the set before the gap is taken.
        joint, slices = game.joint_set, game.slices()
        xs = [joint._clean(prof) for prof in profiles]
        rows = [linearized_gaps(*regret_terms(joint, x, game.gradient(x), slices)) for x in xs]
    per_round = np.asarray(rows, dtype=float).reshape(len(rows), game.num_players)
    return DynamicRegretResult(per_round=per_round, exact=exact)


def second_order_variation(grads):
    """sum_{t=2}^{T} ||g_t - g_{t-1}||^2 over a player's gradient sequence."""
    grads = [np.asarray(g, dtype=float).reshape(-1) for g in grads]
    if len({g.shape for g in grads}) > 1:
        raise MetricError("gradient dimensions differ along the trace")
    if len(grads) < 2:
        return 0.0
    g = np.stack(grads)
    return float(running_sums(0.0, gradient_variation(g[1:], g[:-1]))[-1])


def normal_element(x_prev, g_prev, x_t, x1, eta, t):
    """c_t = (x_{t-1} - eta V(x_{t-1/2}) + (x_1 - x_{t-1})/t - x_t) / eta.

    The explicit normal-cone element implied by the anchored update: the
    residual of the projection that produced x_t one round earlier (anchor
    coefficient 1/((t-1)+1) = 1/t), with ``g_prev`` = V(x_{t-1/2}). Rows
    over a leading axis take one round ``t`` each.
    """
    t = np.asarray(t)[..., None]
    return (x_prev - eta * g_prev + (x1 - x_prev) / t - x_t) / eta


def anchored_normal_element(traj: Trajectory, eta, t):
    """:func:`normal_element` c_t of a stored trajectory; defined for t >= 2."""
    if t < 2:
        raise MetricError("normal-cone witness needs t >= 2")
    return normal_element(traj.base[t - 1], traj.grad_half[t - 1], traj.base[t],
                          traj.x1, eta, t)


@dataclass
class PotentialWitness:
    """P_t and its parts: floats for one round, arrays for rows of rounds."""

    c: np.ndarray
    value: float
    sq_residual: float  # ||eta V + eta c||^2
    sq_drift: float  # ||eta V(x_t) - eta V(x_{t-1/2})||^2
    cross: float  # t * <eta V + eta c, x_t - x_1>


def anchored_potential(c, v_t, g_prev, x_t, x1, eta, t):
    """Anchored potential at round t >= 2 from c_t, V(x_t) and g_prev = V(x_{t-1/2}):

        P_t = t(t+1)/2 * (||eta V(x_t) + eta c_t||^2
                          + ||eta V(x_t) - eta V(x_{t-1/2})||^2)
              + t * <eta V(x_t) + eta c_t, x_t - x_1>.

    Rows over a leading axis take one round ``t`` each.
    """
    resid = eta * (v_t + c)
    drift = eta * (v_t - g_prev)
    sq_residual = np.vecdot(resid, resid)
    sq_drift = np.vecdot(drift, drift)
    cross = t * np.vecdot(resid, x_t - x1)
    value = t * (t + 1) / 2.0 * (sq_residual + sq_drift) + cross
    return PotentialWitness(c, value, sq_residual, sq_drift, cross)


def potential(traj: Trajectory, game: GameOracle, eta, t):
    """:func:`anchored_potential` at round t >= 2 of a stored fixed-step
    anchored run. Raises if the witness c_t fails its normal-cone
    membership check.
    """
    c = anchored_normal_element(traj, eta, t)
    x_t = traj.base[t]
    # per-player membership: projecting x_t + c_t must return x_t
    back = game.joint_set.project(x_t + c)
    err = float(np.linalg.norm(back - x_t))
    if err > WITNESS_TOL * max(1.0, float(np.linalg.norm(c))):
        raise MetricError(f"normal-cone witness failed membership ({err:.3e})")
    return anchored_potential(c, game.gradient(x_t), traj.grad_half[t - 1], x_t,
                              traj.x1, eta, t)


# -- CSV schema -----------------------------------------------------------


@dataclass
class RunRecord:
    t: int
    r_tan: float
    gap: float = None
    tgap_exact: float = None
    potential: float = None
    eta: tuple = ()
    S: tuple = ()
    extreg: tuple = ()
    dynreg: tuple = ()
    dist_half: float = None
    dist_anchor: float = None


def csv_header(num_players):
    cols = list(CSV_BASE_COLUMNS)
    for name in ("eta", "S", "extreg", "dynreg"):
        cols.extend(f"{name}_{i + 1}" for i in range(num_players))
    cols.extend(CSV_TAIL_COLUMNS)
    return ",".join(cols)


def _fmt(value):
    if type(value) is float:  # most cells: skip the checks below
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def csv_row(record: RunRecord, num_players):
    per_player = (record.eta, record.S, record.extreg, record.dynreg)
    for name, values in zip(("eta", "S", "extreg", "dynreg"), per_player):
        if len(values) != num_players:
            raise MetricError(f"record field {name} does not match player count")
    return ",".join([_fmt(v) for v in (
        record.t, record.r_tan, record.gap, record.tgap_exact, record.potential,
        *record.eta, *record.S, *record.extreg, *record.dynreg,
        record.dist_half, record.dist_anchor)])
