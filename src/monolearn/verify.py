"""Numeric checkers for the algebraic machinery behind the convergence proof.

Three independent checks: the exact descent identity that powers the
potential argument, the quadratic-decay sequence bound, and the scripted
adversary that forces linear regret on the anchored extragradient learner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import learners
from .games import check_param
from .geometry import symmetric_box
from .metrics import anchored_potential, normal_element, regret_rows

REL_TOL = 1e-9
ABS_FLOOR = 1e-12


class VerifyError(ValueError):
    pass


@dataclass
class IdentityInstance:
    """Vector/scalar inputs of the descent identity.

    ``a4`` is derived from the constraint a4 = a2 - b3 + (a0 - a2)/(t+1) - u4,
    which mirrors how the anchored update produces the next base iterate.
    """

    a0: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    b3: np.ndarray
    b4: np.ndarray
    u2: np.ndarray
    u4: np.ndarray
    t: float
    q: float

    def __post_init__(self):
        if self.t < 1:
            raise VerifyError("identity requires t >= 1")
        if self.q <= 0:
            raise VerifyError("identity requires q > 0")
        self.a4 = self.a2 - self.b3 + (self.a0 - self.a2) / (self.t + 1.0) - self.u4

    @staticmethod
    def random(rng, dim, t, q, scale=1.0):
        vecs = [scale * rng.standard_normal(dim) for _ in range(9)]
        return IdentityInstance(*vecs, t=float(t), q=float(q))


def _sq(v):
    return float(v @ v)


def check_descent_identity(inst: IdentityInstance):
    """Evaluate both sides of the descent identity term by term.

    Returns (lhs, rhs, relative_error); the identity is exact in real
    arithmetic, so the relative error is floating-point noise. P_t and
    P_{t+1} are :func:`metrics.anchored_potential` with unit step, the
    formula the runs record.
    """
    t, q = inst.t, inst.q
    a0, a2, a3, a4 = inst.a0, inst.a2, inst.a3, inst.a4
    b1, b2, b3, b4 = inst.b1, inst.b2, inst.b3, inst.b4
    u2, u4 = inst.u2, inst.u4
    ip = lambda x, y: float(x @ y)

    p_now = float(anchored_potential(u2, b2, b1, a2, a0, 1.0, t))
    p_next = float(anchored_potential(u4, b4, b3, a4, a0, 1.0, t + 1.0))
    lhs = (
        p_now
        - p_next
        - t * (t + 1.0) * ip(b4 - b2, a4 - a2)
        - t * (t + 1.0) / (4.0 * q) * (q * _sq(a4 - a3) - _sq(b4 - b3))
        - t * (t + 1.0) * ip(u4, a4 - a2)
        - t * (t + 1.0) / 2.0 * (
            ip(u2, a2 - a3)
            + ip(u2, a2 - a4)
            + ip(a2 - b1 + (a0 - a2) / (t + 1.0) - a3, a3 - a4)
        )
    )
    rhs = (
        t * (t + 1.0) / 2.0 * _sq((a3 - a4) / 2.0 + b1 - b2)
        + t * (t + 1.0) / 2.0 * _sq((a3 + a4) / 2.0 - a2 + b2 + u2 - (a0 - a2) / (t + 1.0))
        + ((1.0 - 4.0 * q) * t - 4.0 * q) / (4.0 * q) * (t + 1.0) * _sq(b3 - b4)
        + (t + 1.0) * ip(b3 - b4, b4 + u4)
    )
    rel = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
    return lhs, rhs, rel


def identity_instance_from_trace(game, x1, eta, t, steps):
    """Substitute round t of a fixed-step anchored run of ``game`` into the identity.

    ``steps`` are rounds t-1, t and t+1 of the :func:`learners.dynamics`
    kernel, each as (x_t, x_{t+1/2}, V(x_{t+1/2}), step sizes): x_{t-1},
    x_t, x_{t+1/2}, x_{t+1} and V at the half points. V(x_t) and V(x_{t+1}) are ``game.gradient_fn`` there.
    Maps x_1 -> a0, x_{t-1+k/2} -> a_k (k = 2, 3), eta V(x_{t-1+k/2}) -> b_k,
    eta c_t -> u2, eta c_{t+1} -> u4, and q = (eta L)^2 with the game's L.
    The derived a4 reproduces x_{t+1} exactly: u4 comes from the same update.
    """
    if t < 2:
        raise VerifyError("trace substitution needs t >= 2")
    (x_prev, _, g_prev, _), (x_t, half, g_half, _), (x_next, *_) = steps
    return IdentityInstance(
        a0=x1,
        a2=x_t,
        a3=half,
        b1=eta * g_prev,
        b2=eta * game.gradient_fn(x_t),
        b3=eta * g_half,
        b4=eta * game.gradient_fn(x_next),
        u2=eta * normal_element(x_prev, g_prev, x_t, x1, eta, t),
        u4=eta * normal_element(x_t, g_half, x_next, x1, eta, t + 1),
        t=float(t),
        q=(eta * game.lipschitz_bound) ** 2,
    )


@dataclass
class SequenceBoundReport:
    hypothesis_holds: bool
    conclusion_holds: bool
    worst_hypothesis_slack: float
    worst_conclusion_slack: float

    def __bool__(self):
        return self.hypothesis_holds and self.conclusion_holds


def check_sequence_bound(a, c1, p, rel_tol=REL_TOL):
    """Check the quadratic-decay sequence proposition on concrete data.

    ``a`` is indexed from k = 2. Hypothesis: (k^2/4) a_k <= C1 +
    p/(1-p) * sum_{t=2}^{k-1} a_t for all k. Conclusion: a_k <=
    4 C1 / ((1-3p) k^2). Both checks are reported separately so a
    hypothesis failure is distinguishable from a bound violation.
    """
    if not (0.0 < p < 1.0 / 3.0):
        raise VerifyError("p must lie in (0, 1/3)")
    if c1 < 0:
        raise VerifyError("C1 must be nonnegative")
    a = [float(v) for v in a]
    if any(v < 0 for v in a):
        raise VerifyError("sequence entries must be nonnegative")
    ratio = p / (1.0 - p)
    bound_c = 4.0 * c1 / (1.0 - 3.0 * p)
    partial = 0.0
    hyp_ok = con_ok = True
    hyp_slack = con_slack = 0.0
    for offset, ak in enumerate(a):
        k = offset + 2
        hyp_rhs = c1 + ratio * partial
        lhs = k * k / 4.0 * ak
        slack = lhs - hyp_rhs
        hyp_slack = max(hyp_slack, slack)
        if slack > rel_tol * max(ABS_FLOOR, abs(hyp_rhs), abs(lhs)):
            hyp_ok = False
        con_rhs = bound_c / (k * k)
        cslack = ak - con_rhs
        con_slack = max(con_slack, cslack)
        if cslack > rel_tol * max(ABS_FLOOR, con_rhs, ak):
            con_ok = False
        partial += ak
    return SequenceBoundReport(hyp_ok, con_ok, hyp_slack, con_slack)


def alternating_adversary(t, action):
    """Scripted opponent of the 1x1 bilinear toy game: plays 1 on odd
    rounds and 0 on even rounds, so the learner's gradient is that value."""
    return np.array([1.0 if t % 2 == 1 else 0.0])


def run_eag_adversary(T, eta):
    """Replay the linear-regret construction against the online anchored
    extragradient learner and return (regret, play trace).

    The learner starts at 0 on [-1, 1]; the scripted opponent forces its
    played points to 0 (odd rounds) and max(-eta, -1) (even rounds), and
    the comparator -1 earns at most -T/2, so the regret is at least T/2.
    The play trace is a (T, 2, 1) array whose row t - 1 is the action of
    round t and its gradient, so it iterates as (action, g) pairs.
    """
    check_param("T", T, 1)
    box = symmetric_box(1.0, 1)
    learner = learners.make_learner("eag", box, np.zeros(1), eta=eta)
    plays, grads = learners.play_rows(learner, alternating_adversary, T)
    want = np.where(np.arange(1, T + 1) % 2 == 1, 0.0, max(-eta, -1.0))
    off = np.flatnonzero(np.abs(plays[:, 0] - want) > 1e-12)
    if off.size:
        raise VerifyError(f"unexpected iterate at round {off[0] + 1}")
    regret = float(regret_rows(plays, grads, box, -1))
    return regret, np.stack((plays, grads), axis=1)
