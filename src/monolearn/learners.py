"""Online learning dynamics: one update rule and one round loop.

All six algorithms are one :class:`Learner`, a per-player rule with no run
state; the tag picks the predictor and whether the player is anchored from
:data:`RULES`, and every step is :func:`step` with the one anchor term
:func:`anchor_pull` and the step size of :func:`adapted_step_size`. The
anchored learners (``eag``, ``aog``, ``aog_adaptive``) share the weight
1/(t+1).

Every iterate comes from one of two loops, each built with its gradient
source and advanced by the same ``advance(base, half, grad, base_grad)``.
:func:`dynamics`, the array loop, is a block kernel: it runs the rules of
several players on their joint vector, calls its gradient at each point it
writes into the caller's rows, and runs all self-play, where the runner
(``harness``) builds it with the game oracle's gradient, and every online
run but one kind. :func:`play_rows`, the one online driver, runs a single
learner against a gradient source, into the arrays of each charged action
and its checked gradient; the extragradient-style learners (``eg``,
``eag``) charge both phase points. An :class:`Oblivious` source writes all
its gradients before round 1 and is checked once per run; an adaptive
source, a callable of the round and the action, is called and checked once
per round. An oblivious source against a learner on a one-coordinate box,
a free coordinate (infinite bounds) included, runs the float loop,
:func:`_scalar_dynamics`, which reads the filled rows on Python floats
with the same IEEE double operations in the same order as the array loop,
so the two write the same bytes; it clamps to the box by comparisons, not
builtin calls, for speed.

Tags: ``gd``, ``og``, ``eg``, ``eag``, ``aog``, ``aog_adaptive``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .geometry import Box, FeasibleSet, MonolearnError, check_param, player_slices

# Step-size adaptation switches to 1/sqrt(1+S) once the accumulated
# second-order gradient variation S exceeds ADAPTATION_FACTOR * D^2 * L^2.
ADAPTATION_FACTOR = 4500.0 * math.pi

# Rounds of a one-coordinate run that move between the caller's rows and
# Python floats at a time: a bounded list per chunk, not one per run.
SCALAR_CHUNK = 2048


# -- the update rule ---------------------------------------------------------
# Every learner takes projected steps x+ = P(x - eta * g + w_t * (x1 - x)).
# They differ in the half-step predictor, in the anchor weight w_t (0, or
# 1/(t+1) when anchored), and in whether eta is adaptive.

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


def adapted_step_size(eta, S, threshold):
    """The step size after a round of the adaptive rule: 1/sqrt(1+S) once S
    exceeds the threshold, else ``eta``. S is a running sum of squares, so
    once past the threshold it stays past it."""
    return 1.0 / math.sqrt(1.0 + S) if S > threshold else eta


# -- the learner ---------------------------------------------------------------


class Learner:
    """One player's rule, with no run state: the tag, the (predictor,
    anchored) pair that ``RULES`` gives it, the action set, the validated
    start x1, the step size eta and, for ``aog_adaptive``, the adaptation
    threshold.

    With a ``threshold`` the step size is adaptive: it stays eta
    while the second-order gradient variation S is at most the threshold,
    and is 1/sqrt(1+S) from the first round S exceeds it on. Every run of a
    learner, through :func:`dynamics`, starts at x1.
    """

    def __init__(self, tag, feasible_set: FeasibleSet, x1, eta, threshold=None):
        self.tag = tag
        self.predictor, self.anchored = RULES[tag]
        self.set = feasible_set
        x1 = check_param("x1", x1, vector=feasible_set.dim)
        if not feasible_set.contains(x1):
            raise MonolearnError("x1: the initial point is outside the action set")
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
    checked by :func:`geometry.check_param`."""
    if tag not in RULES:
        raise MonolearnError(f"unknown algorithm tag {tag!r}; known: {sorted(RULES)}")
    threshold = None
    if tag == "aog_adaptive":
        if L is None or D is None:
            raise MonolearnError("adaptation needs L and D")
        L, D = float(check_param("L", L)), float(check_param("D", D))
        threshold = ADAPTATION_FACTOR * D * D * L * L
    if eta is None:
        if L is None:
            raise MonolearnError(f"{tag} needs eta or L")
        eta = default_step_size(tag, check_param("L", L))
        if not eta > 0:
            raise MonolearnError(f"eta: the default step size of {tag} is 0 at L = {L!r}; "
                                 f"give eta")
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


def dynamics(players, feasible_set, x1, gradient):
    """The array round loop: the block kernel of every self-play run and of
    every online run but an oblivious one on a one-coordinate box.

    The kernel advances the players' joint state from x1, their start
    points concatenated, on ``feasible_set``, the joint set, and keeps it
    from call to call. ``gradient(z)``, given once here, is the joint
    gradient at a row ``z``. ``advance(base, half, grad, base_grad=None,
    etas=None)`` runs the next ``len(base)`` rounds and writes round t's
    x_t, x_{t+1/2} and V(x_{t+1/2}) into the next row of ``base``, ``half``
    and ``grad``. The gradient is taken at the "base point" x_t, into
    ``base_grad``, only when a player's predictor is "base" (as for eg and
    eag), and then at the "played point" x_{t+1/2}. When a player is
    adaptive, ``etas`` gets the players' step sizes of each round; it is
    not written otherwise. x_{t+1} is the next round's x_t. ``gradient`` is
    called with the written row, never with the kernel's own iterate, and
    is not checked here: each caller checks what it trusts less. A "last"
    predictor's first half step is x1 exactly: its gradient estimate
    starts at zero, and the anchor displacement vanishes at t = 1.
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
    s_var = [0.0] * len(players)
    # the step's gradient term eta * V(x_{t-1/2}) of the last round, with
    # this round's eta: a "last" predictor's half step reuses it
    x, g_prev, move_prev, t = x1, np.zeros(x1.size), np.zeros(x1.size), 0

    def advance(base, half, grad, base_grad=None, etas=None):
        nonlocal x, move_prev, t
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
                g_base = base_grad[k] = gradient(base[k])
                move_base = eta * g_base
            if weights is not None:
                pull = anchor_pull(x1, x, weights[k])
            move_hat = predict(move_prev, move_base)
            half[k] = x if move_hat is None else step(feasible_set, x, move_hat, pull)
            g = grad[k] = gradient(half[k])
            move_prev = eta * g
            x = step(feasible_set, x, move_prev, pull)
            if adaptive:
                if t >= 2:
                    d, moved = g - g_prev, False
                    for i, s, threshold in adaptive:
                        # player i's increment of S: the np.vecdot of its slice that
                        # metrics.player_dots takes, so S is the measured S bit for bit
                        s_var[i] += np.vecdot(d[s], d[s])
                        if s_var[i] > threshold:  # eta can move only once S passes it
                            eta[s] = etas_now[i] = adapted_step_size(
                                etas_now[i], s_var[i], threshold)
                            moved = True
                    if moved:  # the next round predicts with the new eta
                        move_prev = eta * g
                # by value: a source may return one buffer that it overwrites
                g_prev[:] = g

    return advance


def _scalar_dynamics(learner):
    """The float loop: :func:`dynamics`' kernel for one learner on a
    one-coordinate :class:`Box`, whose gradient source is the rows
    themselves. ``advance(base, half, grad, base_grad=None)``, the array
    loop's call with no ``etas``, runs the next ``len(base)`` rounds, reads
    V(x_{t+1/2}) from ``grad`` (and V(x_t) from ``base_grad`` for a "base"
    predictor) and writes x_t and x_{t+1/2} into ``base`` and ``half``. x,
    x1, eta, the step terms, the last gradient and S are Python floats, and
    each is computed by the operations of the array loop, in its order: the
    anchor weight 1/(t+1), (x1 - x) * w, (x - move) + pull, eta * g, the S
    increment d * d (np.vecdot of one entry) and :func:`adapted_step_size`,
    so the two loops write the same bytes. The
    box projects by ``y = lo if y <= lo else y``, then ``y = hi if y >= hi
    else y``: the semantics of the array loop's ``np.minimum(np.maximum(y,
    lo), hi)``, written out by comparisons because builtin calls cost about
    half of a round. The bound is returned on a tie, as numpy's minimum and
    maximum return their second argument, so signed zeros match; and a NaN
    y stays NaN, as numpy's do. A NaN can arise only on an infinite bound:
    there x can overflow to inf, and an inf step term or pull then meets an
    inf of the other sign.

    Rows move in chunks of ``SCALAR_CHUNK`` rounds: a gradient chunk is one
    ``tolist()``, and the chunk's points fill lists preallocated per chunk,
    one slice assignment each at its end.
    """
    use_base, use_last = learner.predictor == "base", learner.predictor == "last"
    anchored, threshold = learner.anchored, learner.threshold
    lo, hi = float(learner.set.lower[0]), float(learner.set.upper[0])
    x1 = float(learner.x1[0])
    x, eta, g_prev, move_prev, t, S = x1, learner.eta, 0.0, 0.0, 0, 0.0

    def advance(base, half, grad, base_grad=None):
        nonlocal x, eta, g_prev, move_prev, t, S
        for start in range(0, len(base), SCALAR_CHUNK):
            end = min(start + SCALAR_CHUNK, len(base))
            gs = grad[start:end, 0].tolist()
            g_bases = base_grad[start:end, 0].tolist() if use_base else None
            m = end - start
            xs, hs = [0.0] * m, [0.0] * m
            for i in range(m):
                t += 1
                xs[i] = x
                move_hat = move_prev if use_last else None
                if use_base:
                    move_hat = eta * g_bases[i]
                if anchored:
                    pull = (x1 - x) * (1.0 / (t + 1.0))
                h = x
                if move_hat is not None:
                    h = x - move_hat
                    if anchored:
                        h += pull
                    h = lo if h <= lo else h
                    h = hi if h >= hi else h
                hs[i] = h
                g = gs[i]
                move_prev = eta * g
                x -= move_prev
                if anchored:
                    x += pull
                x = lo if x <= lo else x
                x = hi if x >= hi else x
                if threshold is not None and t >= 2:
                    d = g - g_prev
                    S += d * d
                    if S > threshold:  # the next round predicts with the new eta
                        eta = adapted_step_size(eta, S, threshold)
                        move_prev = eta * g
                g_prev = g
            base[start:end, 0] = xs  # before ``half``: the two may be one array
            half[start:end, 0] = hs

    return advance


class Oblivious(NamedTuple):
    """An oblivious gradient source of width ``dim``: its gradient at round t
    ignores the action, so ``fill(rows)`` writes the gradients of rounds
    1..T into the (T, dim) array ``rows``, round t's in row t - 1."""

    dim: int
    fill: Callable


def _fill_checked(source, rows):
    """Fill ``rows`` from the oblivious ``source``, then check every row once
    for size and finiteness; the first bad round is named."""
    dim = rows.shape[1]
    if source.dim != dim:  # every row has the source's width
        raise MonolearnError("round 1: gradient from the source: "
                             f"expected dimension {dim}, got {source.dim}")
    source.fill(rows)
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        check_param(f"round {bad[0] + 1}: gradient from the source", rows[bad[0]], vector=dim)


def play_rows(learner, gradient_source, rounds):
    """Drive a learner online for ``rounds`` rounds; rounds count from 1.
    Returns (plays, grads), each (rounds, dim), with the action of round t
    and its gradient in row t - 1.

    A round loop with one player and the source's gradients in place of
    the oracle writes straight into the two arrays. An :class:`Oblivious`
    source against a learner on a one-coordinate :class:`Box`, bounded or
    free (:func:`geometry.Unconstrained`), runs the float loop,
    :func:`_scalar_dynamics`, which reads the filled rows. Every
    other run takes the array loop, :func:`dynamics`: it calls an adaptive
    source through its check, and reads an oblivious source's rows one per
    call, in fill order, which is the order it asks for them. An eg/eag
    learner plays both phase points, each charged as one round: its base
    iterate, whose gradient it predicts with, and then its probe point. With
    an odd ``rounds`` its run ends after a base iterate, and the probe point
    after it is charged a zero gradient.

    This is the one check of an online gradient, in one of two forms. An
    :class:`Oblivious` source fills all ``rounds`` rows once, before round
    1; the rows are checked once, for size and finiteness, and the loop
    then reads them with no per-round check. Any other source is
    adaptive, a callable ``gradient_source(t, action)``: it is called once
    a round, and each gradient is checked before the learner uses it.
    Either way a bad gradient raises :class:`MonolearnError` naming its
    round before the learner uses it, and an adaptive source is not called
    again. A source that raises stops the run before its gradient is
    used. ``rounds`` is checked here, once, for every online run: one that
    is not an integer >= 1, or too large to allocate the arrays for, is one
    :class:`MonolearnError` naming T.
    """
    check_param("T", rounds, 1)
    dim = learner.set.dim
    two_phase = learner.predictor == "base"
    steps = -(-rounds // 2) if two_phase else rounds
    try:
        plays, grads = np.empty((2, steps * (1 + two_phase), dim))
    except (ValueError, MemoryError):  # numpy's "array is too big", or no memory
        raise MonolearnError(f"T: {rounds} rounds of dimension {dim} are too many "
                             "to allocate") from None

    oblivious = isinstance(gradient_source, Oblivious)
    if oblivious:
        _fill_checked(gradient_source, grads[:rounds])
        grads[rounds:] = 0.0  # an odd horizon's last probe point: never played
        filled = iter(grads)  # the array loop asks for the rows in fill order
        gradient = lambda point: next(filled)
    else:
        t = 0

        def gradient(point):
            nonlocal t
            if t == rounds:  # an odd horizon's last probe point: never played
                return np.zeros(dim)
            t += 1
            # ``point`` is the charged row of ``plays``
            g = gradient_source(t, point)
            try:  # the round is formatted only on failure
                return check_param("gradient from the source", g, vector=dim)
            except MonolearnError as exc:
                raise MonolearnError(f"round {t}: {exc}") from None

    if oblivious and dim == 1 and isinstance(learner.set, Box):
        advance = _scalar_dynamics(learner)  # reads the rows itself
    else:
        advance = dynamics([learner], learner.set, learner.x1, gradient)
    if two_phase:
        advance(plays[0::2], plays[1::2], grads[1::2], grads[0::2])
    else:  # x_t is not played: the kernel writes it first, and x_{t+1/2} over it
        advance(plays, plays, grads)
    return plays[:rounds], grads[:rounds]
