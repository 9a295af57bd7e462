"""Numeric checkers for the algebraic machinery behind the convergence proof.

Three independent checks: the exact descent identity that powers the
potential argument, the quadratic-decay sequence bound, and the scripted
adversary that forces linear regret on the anchored extragradient learner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import learners
from .geometry import symmetric_box
from .metrics import external_regret

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

    @property
    def degenerate_downstream(self):
        """(1-4q)t - 4q <= 0: the identity still holds, but the downstream
        sequence bound cannot use this instance."""
        return (1.0 - 4.0 * self.q) * self.t - 4.0 * self.q <= 0.0

    @staticmethod
    def random(rng, dim, t, q, scale=1.0):
        vecs = [scale * rng.standard_normal(dim) for _ in range(9)]
        return IdentityInstance(*vecs, t=float(t), q=float(q))


def _sq(v):
    return float(v @ v)


def _potential_expr(t, b, u, a, a0, coeff_t):
    return t * (t + 1.0) / 2.0 * (_sq(b[1] + u) + _sq(b[1] - b[0])) + coeff_t * float(
        (b[1] + u) @ (a - a0)
    )


def check_descent_identity(inst: IdentityInstance):
    """Evaluate both sides of the descent identity term by term.

    Returns (lhs, rhs, relative_error); the identity is exact in real
    arithmetic, so the relative error is floating-point noise.
    """
    t, q = inst.t, inst.q
    a0, a2, a3, a4 = inst.a0, inst.a2, inst.a3, inst.a4
    b1, b2, b3, b4 = inst.b1, inst.b2, inst.b3, inst.b4
    u2, u4 = inst.u2, inst.u4
    ip = lambda x, y: float(x @ y)

    p_now = _potential_expr(t, (b1, b2), u2, a2, a0, t)
    p_next = _potential_expr(t + 1.0, (b3, b4), u4, a4, a0, t + 1.0)
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


def identity_instance_from_trace(traj, game, eta, t):
    """Substitute one round of a fixed-step anchored run into the identity.

    Maps x_1 -> a0, x_{t-1+k/2} -> a_k (k = 2, 3), eta V(x_{t-1+k/2}) -> b_k,
    eta c_t -> u2, eta c_{t+1} -> u4, and q = (eta L)^2. The derived a4
    reproduces x_{t+1} exactly because u4 is defined from the same update.
    """
    from .metrics import anchored_normal_element

    if t < 2 or t + 1 > traj.rounds + 1:
        raise VerifyError("trace substitution needs 2 <= t <= T")
    q = (eta * game.lipschitz_bound) ** 2
    c_t = anchored_normal_element(traj, eta, t)
    c_next = anchored_normal_element(traj, eta, t + 1)
    return IdentityInstance(
        a0=traj.x1,
        a2=traj.base[t],
        a3=traj.half[t],
        b1=eta * traj.grad_half[t - 1],
        b2=eta * game.gradient(traj.base[t]),
        b3=eta * traj.grad_half[t],
        b4=eta * game.gradient(traj.base[t + 1]),
        u2=eta * c_t,
        u4=eta * c_next,
        t=float(t),
        q=q,
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
    """
    if T < 1:
        raise VerifyError("need at least one round")
    box = symmetric_box(1.0, 1)
    learner = learners.make_learner("eag", box, np.zeros(1), eta=eta)
    played = [(action, g) for _, action, g in learners.play(learner, alternating_adversary, T)]
    clamped = max(-eta, -1.0)
    for t, (action, _g) in enumerate(played, start=1):
        want = 0.0 if t % 2 == 1 else clamped
        if abs(float(action[0]) - want) > 1e-12:
            raise VerifyError(f"unexpected iterate at round {t}")
    regret = external_regret(*zip(*played), box)
    return regret, played
