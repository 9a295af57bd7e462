"""Online learning dynamics: one update rule and one round loop.

All six algorithms are one :class:`Learner`, a per-player rule with no run
state; the tag picks the predictor and whether the player is anchored from
:data:`RULES`, and every step is :func:`step` with the one anchor term
:func:`anchor_pull` and the latch of :func:`adapted_step_size`. The
anchored learners (``eag``, ``aog``, ``aog_adaptive``) share the weight
1/(t+1). :func:`dynamics` is the one round loop, a block kernel: it runs
the rules of several players on their joint vector and writes each
round's points and gradients into the caller's rows, and every iterate in
the package comes from it. The self-play runner (``harness``) feeds it
the game oracle's gradients, and :func:`play_rows`, the one online
driver, runs a single learner through it against a gradient source, into
the arrays of each charged action and its checked gradient; the
extragradient-style learners (``eg``, ``eag``) charge both phase points.

Tags: ``gd``, ``og``, ``eg``, ``eag``, ``aog``, ``aog_adaptive``.
"""

from __future__ import annotations

import math

import numpy as np

from .games import check_param, player_slices
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


def step(feasible_set, x, move, pull=None):
    """One projected step P(x - move + pull) on finite, sized vectors.

    ``move`` is the gradient term eta * g of the step, with ``eta`` a scalar
    or a per-coordinate vector; ``pull`` is the anchor term from
    :func:`anchor_pull`, or None for no anchor.
    """
    y = x - move
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
        self.eta = float(check_param("eta", eta))
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
    ``L`` and ``D``; the others require ``eta`` or ``L``. Each one used is
    checked by :func:`games.check_param`."""
    if tag not in RULES:
        raise ValueError(f"unknown algorithm tag {tag!r}; known: {sorted(RULES)}")
    threshold = None
    if tag == "aog_adaptive":
        if L is None or D is None:
            raise ValueError("adaptation needs L and D")
        L, D = float(check_param("L", L)), float(check_param("D", D))
        threshold = ADAPTATION_FACTOR * D * D * L * L
    if eta is None:
        if L is None:
            raise ValueError(f"{tag} needs eta or L")
        eta = default_step_size(tag, check_param("L", L))
        if not eta > 0:
            raise ValueError(f"eta: the default step size of {tag} is 0 at L = {L!r}; give eta")
    return Learner(tag, feasible_set, x1, eta, threshold)


# -- the round loop ------------------------------------------------------------


def _joint_rule(players, dims):
    """Lay the players' update rule out over the joint vector.

    Returns ``predict(move_prev, move_base)``, the gradient term of the half
    step from the last round's term eta * V(x_{t-1/2}) and this round's
    eta * V(x_t) (None when every player plays its base iterate), and the
    anchor mask: None when no player is anchored, else the weight of the
    anchor term per coordinate, 1.0 when every player is anchored. Both
    follow each player's (predictor, anchored) from ``RULES``, coordinate
    by coordinate.
    """
    preds = {p.predictor for p in players}

    def mask(test):
        return np.repeat([bool(test(p)) for p in players], dims)

    if preds == {"none"}:
        predict = lambda move_prev, move_base: None
    elif preds == {"last"}:
        predict = lambda move_prev, move_base: move_prev
    elif preds == {"base"}:
        predict = lambda move_prev, move_base: move_base
    else:
        use_base = mask(lambda p: p.predictor == "base")
        use_none = mask(lambda p: p.predictor == "none")

        def predict(move_prev, move_base):
            move = move_prev if move_base is None else np.where(use_base, move_base, move_prev)
            return np.where(use_none, 0.0, move)

    anchored = [p.anchored for p in players]
    if not any(anchored):
        return predict, None
    return predict, 1.0 if all(anchored) else np.repeat(anchored, dims).astype(float)


def dynamics(players, feasible_set, x1):
    """The round loop: every iterate of a run, self-play or online, comes
    from the block kernel this returns.

    The kernel advances the players' joint state from x1, their start
    points concatenated, on ``feasible_set``, the joint set, and keeps it
    from call to call. ``advance(gradient, base, half, grad, base_grad=None,
    etas=None)`` runs the next ``len(base)`` rounds and writes round t's
    x_t, x_{t+1/2} and V(x_{t+1/2}) into the next row of ``base``, ``half``
    and ``grad``. ``gradient(z)`` is the joint gradient at a row ``z``: at
    the "base point" x_t, into ``base_grad``, only when a player's predictor
    is "base" (as for eg and eag), and then at the "played point"
    x_{t+1/2}. When a player is adaptive, ``etas`` gets the players' step
    sizes of each round; it is not written otherwise. x_{t+1} is the next
    round's x_t. ``gradient`` is called with the written row, never with
    the kernel's own iterate, and is not checked here: each caller checks
    what it trusts less. A "last" predictor's first half step is x1 exactly:
    its gradient estimate starts at zero, and the anchor displacement
    vanishes at t = 1.
    """
    dims = [p.set.dim for p in players]
    slices = list(player_slices(dims))
    predict, anchor_mask = _joint_rule(players, dims)
    needs_base = any(p.predictor == "base" for p in players)
    etas_now = np.array([p.eta for p in players])
    eta = np.repeat(etas_now, dims)
    # (player, slice, threshold) of each adaptive player
    adaptive = [(i, slices[i], p.threshold) for i, p in enumerate(players)
                if p.threshold is not None]
    latched, s_var = [False] * len(players), [0.0] * len(players)
    # the step's gradient term eta * V(x_{t-1/2}) of the last round, with
    # this round's eta: a "last" predictor's half step reuses it
    x, g_prev, move_prev, t = x1, np.zeros(x1.size), np.zeros(x1.size), 0

    def advance(gradient, base, half, grad, base_grad=None, etas=None):
        nonlocal x, g_prev, move_prev, t
        write_etas = bool(adaptive) and etas is not None
        # each round's anchor weight 1/(t+1), on the anchored coordinates
        weights = None if anchor_mask is None else (
            anchor_mask * (1.0 / (np.arange(t + 1, t + len(base) + 1) + 1.0))[:, None])
        pull = move_base = None
        for k in range(len(base)):
            t += 1
            base[k] = x
            if write_etas:
                etas[k] = etas_now
            if needs_base:
                g_base = gradient(base[k])
                base_grad[k] = g_base
                move_base = eta * g_base
            if weights is not None:
                pull = anchor_pull(x1, x, weights[k])
            move_hat = predict(move_prev, move_base)
            half[k] = x if move_hat is None else step(feasible_set, x, move_hat, pull)
            g = gradient(half[k])
            grad[k] = g
            move_prev = eta * g
            x = step(feasible_set, x, move_prev, pull)
            if adaptive and t >= 2:
                d = g - g_prev
                for i, s, threshold in adaptive:
                    # player i's increment of S: the np.vecdot of its slice that
                    # metrics.player_dots takes, so S is the measured S bit for bit
                    s_var[i] += np.vecdot(d[s], d[s])
                    # eta can move only once S passes the threshold
                    if latched[i] or s_var[i] > threshold:
                        etas_now[i], latched[i] = adapted_step_size(
                            etas_now[i], s_var[i], threshold, latched[i])
                        eta[s] = etas_now[i]
                if any(latched):  # the next round predicts with the new eta
                    move_prev = eta * g
            g_prev = g

    return advance


def play_rows(learner, gradient_source, rounds):
    """Drive a learner online for ``rounds`` rounds; rounds count from 1.
    Returns (plays, grads), each (rounds, dim), with the action of round t
    and its gradient in row t - 1.

    This is the :func:`dynamics` kernel with one player and
    ``gradient_source(t, action)`` in place of the oracle, writing straight
    into the two arrays. An eg/eag learner plays both phase points, each
    charged as one round: its base iterate, whose gradient it predicts
    with, and then its probe point. With an odd ``rounds`` its run ends
    after a base iterate.

    This is the one check of an online gradient: each is checked for size
    and finiteness before the learner uses it, and a bad one raises
    :class:`GeometryError` naming its round, after which the source is not
    called again. A source that raises stops the run before its gradient is
    used.
    """
    dim, t = learner.set.dim, 0
    two_phase = learner.predictor == "base"
    steps = -(-rounds // 2) if two_phase else rounds
    plays, grads = np.empty((2, steps * (1 + two_phase), dim))

    def gradient(point):
        nonlocal t
        if t == rounds:  # an odd horizon's last probe point: never played
            return np.zeros(dim)
        t += 1
        # ``point`` is the charged row of ``plays``
        g = gradient_source(t, point)
        try:
            return _as_vector(g, dim)
        except GeometryError as exc:
            raise GeometryError(f"round {t}: gradient from the source: {exc}") from None

    advance = dynamics([learner], learner.set, learner.x1)
    if two_phase:
        advance(gradient, plays[0::2], plays[1::2], grads[1::2], base_grad=grads[0::2])
    else:  # x_t is not played: the kernel writes it first, and x_{t+1/2} over it
        advance(gradient, plays, plays, grads)
    return plays[:rounds], grads[:rounds]
