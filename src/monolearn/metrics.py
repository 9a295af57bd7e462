"""Per-round measurement: residuals, gaps, regrets, and the potential.

Functions here are pure row formulas: they keep no iterates and know no
game. Each per-round formula (per-player dot products, gradient variation,
linearized gaps, external regret from running sums, c_t and P_t) takes
rows over a leading axis, and :func:`running_sums` turns per-round
increments into cumulative columns in round order. The experiment runner
measures blocks of rounds, and the adversarial runner whole runs, with the
same functions, so a column has one formula whichever path computes it.
The package keeps no second copy: the independent per-player reference
measurements are the test suite's (``tests/test_kernel.py``).
"""

from __future__ import annotations

import numpy as np


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


def gradient_variation(g, g_prev, slices):
    """Per-player ||g - g_prev||^2: the increments of S."""
    d = g - g_prev
    return player_dots(d, d, slices)


def regret_terms(feasible_set, x, g, slices):
    """Per-player <g, x> and min over the player's set of <g, x'>, from one
    support pass of the joint set: the parts of regrets and linearized gaps."""
    x_min, _ = feasible_set.support_min(g)
    return player_dots(g, x, slices), player_dots(x_min, g, slices)


def linearized_gaps(gx, lows):
    """Per-player linearized gaps from :func:`regret_terms`, clipped at 0: the
    exact gaps of players whose losses are linear in their own actions."""
    return np.maximum(gx - lows, 0.0)


def external_regrets(feasible_set, sum_gx, sum_g, slices=None):
    """External regret against the best fixed comparator, from the running
    sums of <g, x> and of g: sum_gx - min over the set of <sum_g, x>, row by
    row. With ``slices``, per player, each against its own factor of the
    set; with None, one learner over the whole vector."""
    x_min, low = feasible_set.support_min(sum_g)
    return sum_gx - (low if slices is None else player_dots(x_min, sum_g, slices))


def regret_rows(plays, grads, feasible_set, rows):
    """External regret of the play up to each of ``rows`` (0-based round
    indices, one or an array) of the (T, dim) arrays ``plays`` and ``grads``."""
    sum_gx = running_sums(0.0, np.vecdot(grads, plays))[rows]
    return external_regrets(feasible_set, sum_gx, running_sums(0.0, grads)[rows])


def normal_element(x_prev, g_prev, x_t, x1, eta, t):
    """c_t = (x_{t-1} - eta V(x_{t-1/2}) + (x_1 - x_{t-1})/t - x_t) / eta.

    The explicit normal-cone element implied by the anchored update: the
    residual of the projection that produced x_t one round earlier (anchor
    coefficient 1/((t-1)+1) = 1/t), with ``g_prev`` = V(x_{t-1/2}). Rows
    over a leading axis take one round ``t`` each.
    """
    t = np.asarray(t)[..., None]
    return (x_prev - eta * g_prev + (x1 - x_prev) / t - x_t) / eta


def anchored_potential(c, v_t, g_prev, x_t, x1, eta, t):
    """Anchored potential at round t >= 2 from c_t, V(x_t) and g_prev = V(x_{t-1/2}):

        P_t = t(t+1)/2 * (||eta V(x_t) + eta c_t||^2
                          + ||eta V(x_t) - eta V(x_{t-1/2})||^2)
              + t * <eta V(x_t) + eta c_t, x_t - x_1>.

    Returns P_t alone; rows over a leading axis take one round ``t`` each.
    """
    resid = eta * (v_t + c)
    drift = eta * (v_t - g_prev)
    return (t * (t + 1) / 2.0 * (np.vecdot(resid, resid) + np.vecdot(drift, drift))
            + t * np.vecdot(resid, x_t - x1))


# -- CSV schema -----------------------------------------------------------


def csv_header(num_players):
    """The self-play CSV's column names in order, comma-separated: the one
    place the schema is spelled."""
    per_player = [f"{name}_{i + 1}" for name in ("eta", "S", "extreg", "dynreg")
                  for i in range(num_players)]
    return ",".join(["t", "r_tan", "gap", "tgap_exact", "potential", *per_player,
                     "dist_half", "dist_anchor"])


def csv_cells(cells):
    """The CSV text of each of ``cells``, Python ints and floats: ``repr``
    round-trips a float exactly, and None is an empty cell. Cells that all
    hold one nonzero float, as the column of a fixed step size does, share
    one ``repr``: equal nonzero floats have equal bits."""
    first = cells[0] if len(cells) else None
    if isinstance(first, float) and first != 0.0 and all(v == first for v in cells):
        return [repr(first)] * len(cells)
    if None in cells:
        return ["" if v is None else repr(v) for v in cells]
    return list(map(repr, cells))


def csv_row(cells):
    """One CSV line from a row's cells (see :func:`csv_cells`)."""
    return ",".join(csv_cells(cells))
