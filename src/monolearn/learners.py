"""Online learning dynamics behind a propose / feedback / update interface.

Each learner keeps its own iterate state and interacts with the world one
round at a time: ``propose()`` returns the action played this round,
``update(g)`` consumes the gradient observed at that action. The
extragradient-style learners (``eg``, ``eag``) additionally query a
gradient at their base iterate through ``base_point()`` /
``observe_base()`` before proposing.

All six learners share one update rule (:func:`step`, :func:`anchor_pull`,
:func:`adapted_step_size`); each class only names its predictor and anchor.
The self-play round loop applies the same functions to the joint vector of
all players.

Tags: ``gd``, ``og``, ``eg``, ``eag``, ``aog``, ``aog_adaptive``.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import FeasibleSet, GeometryError, _as_vector

# Step-size adaptation switches to 1/sqrt(1+S) once the accumulated
# second-order gradient variation S exceeds ADAPTATION_FACTOR * D^2 * L^2.
ADAPTATION_FACTOR = 4500.0 * math.pi


class LearnerError(RuntimeError):
    pass


# -- the update rule ---------------------------------------------------------
# Every learner takes projected steps x+ = P(x - eta * g + w_t * (x1 - x)).
# They differ in the half-step predictor, in the anchor weight w_t (0 or
# 1/(t+1)), and in whether eta is latched-adaptive.


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


# -- learners ------------------------------------------------------------------


class Learner:
    """Common state: anchor x1, base iterate x, previous gradient, round t.

    Subclasses choose the half-step ``predictor`` ("none": play x itself,
    "last": the previous gradient, "base": the gradient observed at x) and
    the ``anchor`` form (None, "weight" or "divide"; see :func:`anchor_pull`).
    """

    tag = None
    predictor = "last"
    anchor = None
    needs_base_gradient = False

    def __init__(self, feasible_set: FeasibleSet, x1, eta):
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
        self._proposed = False

    # -- round protocol -----------------------------------------------------
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
            d = g - self.g_prev
            self.S += float(d.dot(d))
        self._adapt_step()
        self.x = x_next
        self.g_prev = g
        self.t += 1
        self._proposed = False

    # -- per-algorithm pieces ----------------------------------------------
    def _pull(self):
        if self.anchor == "weight":
            return anchor_pull(self.x1, self.x, weight=self._anchor_weight(self.t))
        if self.anchor == "divide":
            return anchor_pull(self.x1, self.x, divisor=self.t + 1.0)
        return None

    @staticmethod
    def _anchor_weight(t):
        return 1.0 / (t + 1.0)

    def _adapt_step(self):
        pass


class GradientDescent(Learner):
    """Online gradient descent; plays the base iterate itself."""

    tag = "gd"
    predictor = "none"


class OptimisticGradient(Learner):
    """Optimistic gradient: predicts this round's gradient by the last one."""

    tag = "og"


class AcceleratedOptimisticGradient(Learner):
    """Optimistic gradient with a 1/(t+1) anchor pull toward the start point.

    The first proposal equals x1 exactly: the initial gradient estimate is
    zero and the anchor displacement vanishes at t = 1.
    """

    tag = "aog"
    anchor = "weight"

    def __init__(self, feasible_set, x1, eta, anchor_weight_fn=None):
        super().__init__(feasible_set, x1, eta)
        # Overriding the anchor schedule with 0 recovers plain OG; used by
        # equivalence tests, not part of the public surface.
        if anchor_weight_fn is not None:
            self._anchor_weight = anchor_weight_fn


class AdaptiveAOG(AcceleratedOptimisticGradient):
    """Anchored optimistic gradient with step-size adaptation.

    Runs at the constant step 1/(3L) while the second-order gradient
    variation S stays under the threshold; afterwards eta_t = 1/sqrt(1+S_t).
    The switch is latched: S is nondecreasing, so once tripped the adaptive
    branch stays active.
    """

    tag = "aog_adaptive"

    def __init__(self, feasible_set, x1, L, D, eta=None):
        if L is None or D is None or not (L > 0 and D > 0):
            raise ValueError("adaptation needs positive L and D")
        super().__init__(feasible_set, x1, eta if eta is not None else 1.0 / (3.0 * L))
        self.L = float(L)
        self.D = float(D)
        self.threshold = ADAPTATION_FACTOR * self.D * self.D * self.L * self.L
        self.adaptive = False

    def _adapt_step(self):
        self.eta, self.adaptive = adapted_step_size(
            self.eta, self.S, self.threshold, self.adaptive)


class _TwoPhase(Learner):
    """Base for learners that also need the gradient at the base iterate."""

    predictor = "base"
    needs_base_gradient = True

    def __init__(self, feasible_set, x1, eta):
        super().__init__(feasible_set, x1, eta)
        self._g_base = None

    def base_point(self):
        """The base iterate x_t; in online play this point is played too."""
        return self.x.copy()

    def observe_base(self, g):
        self._g_base = _as_vector(g, self.set.dim)

    def _require_base(self):
        if self._g_base is None:
            raise LearnerError(f"{self.tag} needs observe_base before propose")
        return self._g_base

    def update(self, g):
        super().update(g)
        self._g_base = None


class Extragradient(_TwoPhase):
    """Classical extragradient: probe at x_t, step with the probed gradient."""

    tag = "eg"


class ExtraAnchoredGradient(_TwoPhase):
    """Extragradient with the 1/(t+1) anchor pull toward the start point."""

    tag = "eag"
    anchor = "divide"


LEARNERS = {
    cls.tag: cls
    for cls in (
        GradientDescent,
        OptimisticGradient,
        Extragradient,
        ExtraAnchoredGradient,
        AcceleratedOptimisticGradient,
        AdaptiveAOG,
    )
}


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
    if tag not in LEARNERS:
        raise ValueError(f"unknown algorithm tag {tag!r}; known: {sorted(LEARNERS)}")
    if tag == "aog_adaptive":
        return AdaptiveAOG(feasible_set, x1, L=L, D=D, eta=eta)
    if eta is None:
        if L is None:
            raise ValueError(f"{tag} needs eta or L")
        eta = default_step_size(tag, L)
    return LEARNERS[tag](feasible_set, x1, eta)


def run_two_phase(learner, gradient_source, rounds):
    """Drive an eg/eag learner in online mode, playing both phase points.

    Each inner iteration is charged as two online rounds: the base iterate
    and the probe point are both played, and ``gradient_source(round, action)``
    maps each played action to its gradient (rounds count from 1). Returns
    the list of (action, gradient) pairs in play order.
    """
    if not learner.needs_base_gradient:
        raise LearnerError("two-phase driver is for eg/eag learners")
    played = []
    t = 0
    while t < rounds:
        base = learner.base_point()
        g_base = _as_vector(gradient_source(t + 1, base), learner.set.dim)
        played.append((base, g_base))
        t += 1
        if t >= rounds:
            break
        learner.observe_base(g_base)
        half = learner.propose()
        g_half = _as_vector(gradient_source(t + 1, half), learner.set.dim)
        played.append((half, g_half))
        t += 1
        learner.update(g_half)
    return played
