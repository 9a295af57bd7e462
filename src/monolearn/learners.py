"""Online learning dynamics: one update rule and one round loop.

All six algorithms are one :class:`Learner`, a per-player rule with no run
state; the tag picks the predictor and whether the player is anchored from
:data:`RULES`, and every step is :func:`step` with the one anchor term
:func:`anchor_pull` and the latch of :func:`adapted_step_size`. The
anchored learners (``eag``, ``aog``, ``aog_adaptive``) share the weight
1/(t+1). :func:`dynamics` is the one round loop: it runs the rules of
several players on their joint vector, and every iterate in the package
comes from it. The self-play runner (``harness``) feeds it the game
oracle's gradients, and :func:`play_rows`, the one online driver, runs a
single learner through it against a gradient source, writing each charged
action and its checked gradient into arrays; the extragradient-style
learners (``eg``, ``eag``) charge both phase points.

Tags: ``gd``, ``og``, ``eg``, ``eag``, ``aog``, ``aog_adaptive``.
"""

from __future__ import annotations

import math

import numpy as np

from .games import player_slices
from .geometry import FeasibleSet, GeometryError, _as_vector

# Step-size adaptation switches to 1/sqrt(1+S) once the accumulated
# second-order gradient variation S exceeds ADAPTATION_FACTOR * D^2 * L^2.
ADAPTATION_FACTOR = 4500.0 * math.pi


# -- the update rule ---------------------------------------------------------
# Every learner takes projected steps x+ = P(x - eta * g + w_t * (x1 - x)).
# They differ in the half-step predictor, in the anchor weight w_t (0, or
# 1/(t+1) when anchored), and in whether eta is latched-adaptive.

# tag -> (predictor, anchored). Predictor "none" plays x itself, "last"
# predicts with the previous gradient, "base" with the gradient observed at
# x. An anchored player pulls toward x1 with weight 1/(t+1).
RULES = {
    "gd": ("none", False),
    "og": ("last", False),
    "eg": ("base", False),
    "eag": ("base", True),
    "aog": ("last", True),
    "aog_adaptive": ("last", True),
}


def anchor_pull(x1, x, weight):
    """The anchor term (x1 - x) * weight; the weight is a scalar or a
    per-coordinate vector."""
    return (x1 - x) * weight


def step(feasible_set, x, eta, g, pull=None):
    """One projected step P(x - eta * g + pull) on finite, sized vectors.

    ``eta`` is a scalar or a per-coordinate vector; ``pull`` is the anchor
    term from :func:`anchor_pull`, or None for no anchor.
    """
    y = x - eta * g
    if pull is not None:
        y += pull
    return feasible_set.project(y)


def adapted_step_size(eta, S, threshold, latched):
    """(eta, latched) after a round of the latched adaptive rule: once S
    exceeds the threshold, eta = 1/sqrt(1+S) from then on."""
    if latched or S > threshold:
        return 1.0 / math.sqrt(1.0 + S), True
    return eta, False


# -- the learner ---------------------------------------------------------------


class Learner:
    """One player's rule, with no run state: the tag, the (predictor,
    anchored) pair that ``RULES`` gives it, the action set, the validated
    start x1, the step size eta and, for ``aog_adaptive``, the latch
    threshold.

    With a ``threshold`` the step size is latched-adaptive: it stays eta
    while the second-order gradient variation S is at most the threshold,
    and is 1/sqrt(1+S) from the first round S exceeds it on. Every run of a
    learner, through :func:`dynamics`, starts at x1.
    """

    def __init__(self, tag, feasible_set: FeasibleSet, x1, eta, threshold=None):
        self.tag = tag
        self.predictor, self.anchored = RULES[tag]
        self.set = feasible_set
        x1 = _as_vector(x1, feasible_set.dim)
        if not feasible_set.contains(x1):
            raise GeometryError("initial point is infeasible")
        self.x1 = feasible_set.project(x1)
        if not (eta > 0):
            raise ValueError("step size must be positive")
        self.eta = float(eta)
        self.threshold = threshold


# The benchmark's outside-in tracer looks this name up; a Learner has no
# per-round method, so the tracer wraps nothing on it.
_TwoPhase = Learner


def default_step_size(tag, L):
    """Default step sizes: 1/(sqrt(6) L) for fixed-step anchored optimism
    (the largest step its convergence guarantee covers), 1/(3L) otherwise."""
    if tag == "aog":
        return 1.0 / (math.sqrt(6.0) * L)
    return 1.0 / (3.0 * L)


def make_learner(tag, feasible_set, x1, eta=None, L=None, D=None):
    """Instantiate a learner by tag.

    ``eta`` overrides the default step size. ``aog_adaptive`` requires both
    ``L`` and ``D``; the others require ``eta`` or ``L``.
    """
    if tag not in RULES:
        raise ValueError(f"unknown algorithm tag {tag!r}; known: {sorted(RULES)}")
    threshold = None
    if tag == "aog_adaptive":
        if L is None or D is None or not (L > 0 and D > 0):
            raise ValueError("adaptation needs positive L and D")
        L, D = float(L), float(D)
        threshold = ADAPTATION_FACTOR * D * D * L * L
    if eta is None:
        if L is None:
            raise ValueError(f"{tag} needs eta or L")
        eta = default_step_size(tag, L)
    return Learner(tag, feasible_set, x1, eta, threshold)


# -- the round loop ------------------------------------------------------------


def _joint_rule(players, dims, x1):
    """Lay the players' update rule out over the joint vector.

    Returns ``predict(g_prev, g_base)``, the half-step predictor (None when
    every player plays its base iterate), and ``pull(x, t)``, the anchor term
    of round t (None when no player is anchored). Both follow each player's
    (predictor, anchored) from ``RULES``, coordinate by coordinate.
    """
    preds = {p.predictor for p in players}

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

    anchored = [p.anchored for p in players]
    if not any(anchored):
        return predict, lambda x, t: None
    # weight 1/(t+1) on anchored coordinates, 0 on the rest
    w = 1.0 if all(anchored) else np.repeat(anchored, dims).astype(float)
    return predict, lambda x, t: anchor_pull(x1, x, w * (1.0 / (t + 1.0)))


def dynamics(players, feasible_set, x1, gradient):
    """The round loop: every iterate of a run, self-play or online, comes
    from this generator.

    It advances the players' joint state from x1, their start points
    concatenated, on ``feasible_set``, the joint set. Step t asks
    ``gradient(z, t, point)`` for the joint gradient at the "base point" x_t
    (only when a player's predictor is "base", as for eg and eag) and at
    the "played point" x_{t+1/2}, and yields the tuple

        x_t, x_{t+1/2}, V(x_{t+1/2}), etas

    where ``etas`` are the players' step sizes for step t+1 (an adaptive
    player's changes from the round its S passes its threshold); x_{t+1} is
    the next step's x_t. Yielded arrays are never written to afterwards. A
    "last" predictor's first half step is x1 exactly: its gradient estimate
    starts at zero, and the anchor displacement vanishes at t = 1.
    """
    dims = [p.set.dim for p in players]
    slices = list(player_slices(dims))
    predict, pull_of = _joint_rule(players, dims, x1)
    needs_base = any(p.predictor == "base" for p in players)
    etas = [p.eta for p in players]
    eta = np.repeat(etas, dims)
    # (player, slice, threshold) of each adaptive player
    adaptive = [(i, slices[i], p.threshold) for i, p in enumerate(players)
                if p.threshold is not None]
    latched, s_var = [False] * len(players), [0.0] * len(players)
    x, g_prev, g_base = x1, np.zeros(x1.size), None
    t = 0
    while True:
        t += 1
        if needs_base:
            g_base = gradient(x, t, "base point")
        pull = pull_of(x, t)
        g_hat = predict(g_prev, g_base)
        half = x if g_hat is None else step(feasible_set, x, eta, g_hat, pull)
        g_half = gradient(half, t, "played point")
        x_next = step(feasible_set, x, eta, g_half, pull)
        if adaptive and t >= 2:
            d = g_half - g_prev
            for i, s, threshold in adaptive:
                # player i's increment of S: the np.vecdot of its slice that
                # metrics.player_dots takes, so S is the measured S bit for bit
                s_var[i] += np.vecdot(d[s], d[s])
                # eta can move only once S passes the threshold
                if latched[i] or s_var[i] > threshold:
                    etas[i], latched[i] = adapted_step_size(
                        etas[i], s_var[i], threshold, latched[i])
                    eta[s] = etas[i]
        yield x, half, g_half, tuple(etas)
        x, g_prev = x_next, g_half


def play_rows(learner, gradient_source, rounds):
    """Drive a learner online for ``rounds`` rounds; rounds count from 1.
    Returns (plays, grads), each (rounds, dim), with the action of round t
    and its gradient in row t - 1.

    This is :func:`dynamics` with one player and ``gradient_source(t,
    action)`` in place of the oracle. An eg/eag learner plays both phase
    points, each charged as one round: its base iterate, whose gradient it
    predicts with, and then its probe point. With an odd ``rounds`` its run
    ends after a base iterate.

    This is the one check of an online gradient: each is checked for size
    and finiteness before the learner uses it, and a bad one raises
    :class:`GeometryError` naming its round, after which the source is not
    called again. A source that raises stops the run before its gradient is
    used.
    """
    dim, t = learner.set.dim, 0
    plays, grads = np.empty((2, rounds, dim))

    def gradient(point, _step, _point):
        nonlocal t
        if t == rounds:  # an odd horizon's last probe point: never played
            return np.zeros(dim)
        t += 1
        # the source gets the charged row, never the loop's own iterate
        plays[t - 1] = point
        g = gradient_source(t, plays[t - 1])
        try:
            g = _as_vector(g, dim)
        except GeometryError as exc:
            raise GeometryError(f"round {t}: gradient from the source: {exc}") from None
        grads[t - 1] = g
        return g

    steps = dynamics([learner], learner.set, learner.x1, gradient)
    while t < rounds:
        next(steps)
    return plays, grads
