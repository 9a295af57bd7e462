"""Online learning dynamics behind a propose / feedback / update interface.

Each learner keeps its own iterate state and interacts with the world one
round at a time: ``propose()`` returns the action played this round,
``update(g)`` consumes the gradient observed at that action. The
extragradient-style learners (``eg``, ``eag``) additionally observe the
gradient at their base iterate through ``observe_base()`` before proposing;
:func:`play` drives any learner online and plays both of their phase points.

All six algorithms are one :class:`Learner` with one update rule
(:func:`step`, :func:`anchor_pull`, :func:`adapted_step_size`); the tag
picks the predictor and anchor from :data:`RULES`. The self-play round loop
applies the same functions to the joint vector of all players.

Tags: ``gd``, ``og``, ``eg``, ``eag``, ``aog``, ``aog_adaptive``.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import FeasibleSet, GeometryError, _as_vector
from .metrics import gradient_variation

# Step-size adaptation switches to 1/sqrt(1+S) once the accumulated
# second-order gradient variation S exceeds ADAPTATION_FACTOR * D^2 * L^2.
ADAPTATION_FACTOR = 4500.0 * math.pi


class LearnerError(RuntimeError):
    pass


# -- the update rule ---------------------------------------------------------
# Every learner takes projected steps x+ = P(x - eta * g + w_t * (x1 - x)).
# They differ in the half-step predictor, in the anchor weight w_t (0 or
# 1/(t+1)), and in whether eta is latched-adaptive.

# tag -> (predictor, anchor). Predictor "none" plays x itself, "last"
# predicts with the previous gradient, "base" with the gradient observed at
# x. Anchor None, "weight" or "divide": see :func:`anchor_pull`.
RULES = {
    "gd": ("none", None),
    "og": ("last", None),
    "eg": ("base", None),
    "eag": ("base", "divide"),
    "aog": ("last", "weight"),
    "aog_adaptive": ("last", "weight"),
}


def anchor_pull(x1, x, weight=None, divisor=None):
    """The anchor term w_t * (x1 - x), as (x1 - x) * weight / divisor.

    ``aog`` multiplies by the weight 1/(t+1) and ``eag`` divides by t+1.
    The two round differently, so both forms are kept and every learner's
    iterates stay reproducible bit for bit. Either factor may be a scalar
    or a per-coordinate vector.
    """
    pull = x1 - x
    if weight is not None:
        pull *= weight
    if divisor is not None:
        pull /= divisor
    return pull


def step(feasible_set, x, eta, g, pull=None):
    """One projected step P(x - eta * g + pull) on finite, sized vectors.

    ``eta`` is a scalar or a per-coordinate vector; ``pull`` is the anchor
    term from :func:`anchor_pull`, or None for no anchor.
    """
    y = x - eta * g
    if pull is not None:
        y += pull
    return feasible_set._project(y)


def adapted_step_size(eta, S, threshold, latched):
    """(eta, latched) after a round of the latched adaptive rule: once S
    exceeds the threshold, eta = 1/sqrt(1+S) from then on."""
    if latched or S > threshold:
        return 1.0 / math.sqrt(1.0 + S), True
    return eta, False


# -- the learner ---------------------------------------------------------------


class Learner:
    """One learner of any tag: anchor x1, base iterate x, previous gradient,
    round t, and the (predictor, anchor) pair that ``RULES`` gives its tag.

    With a ``threshold`` the step size is latched-adaptive (``aog_adaptive``):
    it stays fixed while the second-order gradient variation S is at most
    the threshold, and is 1/sqrt(1+S) from the first round S exceeds it on.
    The first anchored proposal equals x1 exactly: the initial gradient
    estimate is zero and the anchor displacement vanishes at t = 1.
    """

    def __init__(self, tag, feasible_set: FeasibleSet, x1, eta, threshold=None):
        self.tag = tag
        self.predictor, self.anchor = RULES[tag]
        self.needs_base_gradient = self.predictor == "base"
        self.set = feasible_set
        x1 = _as_vector(x1, feasible_set.dim)
        if not feasible_set.contains(x1):
            raise GeometryError("initial point is infeasible")
        self.x1 = feasible_set.project(x1)
        self.x = self.x1.copy()
        self.x_half = None
        self.g_prev = np.zeros(feasible_set.dim)
        self.t = 1
        if not (eta > 0):
            raise ValueError("step size must be positive")
        self.eta = float(eta)
        self.S = 0.0
        self.threshold = threshold
        self.adaptive = False
        self._g_base = None
        self._proposed = False

    # -- round protocol -----------------------------------------------------
    def observe_base(self, g):
        """Consume the gradient at the base iterate x (eg/eag only)."""
        self._g_base = _as_vector(g, self.set.dim)

    def propose(self):
        """Action x_{t+1/2} played this round (always feasible)."""
        if self._proposed:
            raise LearnerError("propose called twice in one round")
        if self.predictor == "none":
            self.x_half = self.x.copy()
        else:
            g_hat = self.g_prev if self.predictor == "last" else self._require_base()
            self.x_half = step(self.set, self.x, self.eta, g_hat, self._pull())
        self._proposed = True
        return self.x_half.copy()

    def update(self, g):
        """Consume the gradient observed at the played action."""
        if not self._proposed:
            raise LearnerError("update called before propose")
        g = _as_vector(g, self.set.dim)
        x_next = step(self.set, self.x, self.eta, g, self._pull())
        if self.t >= 2:
            self.S += float(gradient_variation(g, self.g_prev))
        if self.threshold is not None:
            self.eta, self.adaptive = adapted_step_size(
                self.eta, self.S, self.threshold, self.adaptive)
        self.x = x_next
        self.g_prev = g
        self.t += 1
        self._g_base = None
        self._proposed = False

    def _require_base(self):
        if self._g_base is None:
            raise LearnerError(f"{self.tag} needs observe_base before propose")
        return self._g_base

    def _pull(self):
        if self.anchor == "weight":
            return anchor_pull(self.x1, self.x, weight=1.0 / (self.t + 1.0))
        if self.anchor == "divide":
            return anchor_pull(self.x1, self.x, divisor=self.t + 1.0)
        return None


# The benchmark's outside-in tracer looks this name up; it folds the doubly
# wrapped ``update`` into one span, so the alias changes no count.
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


def play(learner, gradient_source, rounds):
    """Drive a learner online for ``rounds`` rounds, yielding (t, action, g).

    ``gradient_source(t, action)`` maps each played action to its gradient;
    rounds count from 1. An eg/eag learner plays both phase points, each
    charged as one round: its base iterate, whose gradient it observes, and
    then its probe point. The caller sees each gradient before the learner
    does, so it can reject one.
    """
    t = 0
    while t < rounds:
        t += 1
        if learner.needs_base_gradient:
            base = learner.x.copy()
            g = np.asarray(gradient_source(t, base), dtype=float)
            yield t, base, g
            if t >= rounds:
                return
            learner.observe_base(g)
            t += 1
        action = learner.propose()
        g = np.asarray(gradient_source(t, action), dtype=float)
        yield t, action, g
        learner.update(g)
