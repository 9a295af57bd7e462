"""Per-round measurement: residuals, gaps, regrets, and the potential.

Functions here are pure over stored trajectories; the experiment runner
keeps streaming accumulators for the cumulative quantities and calls into
the same closed forms.
"""

from __future__ import annotations

import math
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
    ``grad_half[t]`` its joint gradient (t = 1..T). Index 0 is unused
    padding so round indices match the algebra.
    """

    base: list
    half: list
    grad_half: list

    @property
    def x1(self):
        return self.base[1]

    @property
    def rounds(self):
        return len(self.half) - 1


def trajectory_from_selfplay(base, half, grad_half):
    pad = [None]
    return Trajectory(pad + list(base), pad + list(half), pad + list(grad_half))


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
        tgap = 0.0
        for i in range(game.num_players):
            _, best = game.best_response(i, x)
            tgap += game.loss(i, x) - best
    return EquilibriumMeasures(r_tan=r_tan, gap=gap, tgap_exact=tgap)


def external_regret(plays, grads, feasible_set):
    """Linearized external regret of a played sequence against the best fixed
    comparator: max over x of sum_t <g_t, x_t - x>, in closed form."""
    if not feasible_set.is_bounded:
        raise GeometryError("external regret comparator needs a bounded set")
    plays = [_as_vector(p, feasible_set.dim) for p in plays]
    grads = [_as_vector(g, feasible_set.dim) for g in grads]
    if len(plays) != len(grads):
        raise MetricError("plays and gradients must align")
    g_sum = np.zeros(feasible_set.dim)
    realized = 0.0
    for p, g in zip(plays, grads):
        g_sum += g
        realized += float(g @ p)
    _, comparator_value = feasible_set.support_min(g_sum)
    return realized - comparator_value


@dataclass
class DynamicRegretResult:
    per_round: np.ndarray  # shape (T, N) nonnegative gap terms
    exact: bool

    @property
    def cumulative(self):
        return np.cumsum(self.per_round, axis=0)

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
    slices = game.slices()
    exact = game.has_best_response and game.losses is not None
    rows = []
    for prof in profiles:
        x = _as_vector(prof, game.dim)
        row = []
        if exact:
            for i in range(game.num_players):
                _, best = game.best_response(i, x)
                row.append(game.loss(i, x) - best)
        else:
            v = game.gradient(x)
            for i, s in enumerate(slices):
                row.append(game.player_sets[i].linearized_gap(x[s], v[s]))
        rows.append(row)
    return DynamicRegretResult(per_round=np.asarray(rows, dtype=float), exact=exact)


def second_order_variation(grads):
    """sum_{t=2}^{T} ||g_t - g_{t-1}||^2 over a player's gradient sequence."""
    grads = [np.asarray(g, dtype=float) for g in grads]
    total = 0.0
    for prev, cur in zip(grads, grads[1:]):
        if prev.shape != cur.shape:
            raise MetricError("gradient dimensions differ along the trace")
        d = cur - prev
        total += float(d @ d)
    return total


def normal_element(x_prev, g_prev, x_t, x1, eta, t):
    """c_t = (x_{t-1} - eta V(x_{t-1/2}) + (x_1 - x_{t-1})/t - x_t) / eta.

    The explicit normal-cone element implied by the anchored update: the
    residual of the projection that produced x_t one round earlier (anchor
    coefficient 1/((t-1)+1) = 1/t), with ``g_prev`` = V(x_{t-1/2}).
    """
    return (x_prev - eta * g_prev + (x1 - x_prev) / t - x_t) / eta


def anchored_normal_element(traj: Trajectory, eta, t):
    """:func:`normal_element` c_t of a stored trajectory; defined for t >= 2."""
    if t < 2:
        raise MetricError("normal-cone witness needs t >= 2")
    return normal_element(traj.base[t - 1], traj.grad_half[t - 1], traj.base[t],
                          traj.x1, eta, t)


@dataclass
class PotentialWitness:
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
    """
    resid = eta * (v_t + c)
    drift = eta * (v_t - g_prev)
    sq_residual = float(resid.dot(resid))
    sq_drift = float(drift.dot(drift))
    cross = t * float(resid.dot(x_t - x1))
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
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def csv_row(record: RunRecord, num_players):
    for name in ("eta", "S", "extreg", "dynreg"):
        if len(getattr(record, name)) != num_players:
            raise MetricError(f"record field {name} does not match player count")
    cells = [str(record.t), _fmt(record.r_tan), _fmt(record.gap),
             _fmt(record.tgap_exact), _fmt(record.potential)]
    for name in ("eta", "S", "extreg", "dynreg"):
        cells.extend(_fmt(v) for v in getattr(record, name))
    cells.append(_fmt(record.dist_half))
    cells.append(_fmt(record.dist_anchor))
    return ",".join(cells)
