import math

import numpy as np
import pytest

from monolearn.harness import ExperimentConfig, run_self_play
from monolearn.learners import make_learner
from monolearn.geometry import MonolearnError, symmetric_box
from monolearn.verify import (
    IdentityInstance,
    check_descent_identity,
    check_sequence_bound,
    identity_instance_from_trace,
    run_eag_adversary,
)

from conftest import kernel_run, replay_potential, trace_window


def test_identity_all_zero():
    zeros = [np.zeros(3) for _ in range(9)]
    inst = IdentityInstance(*zeros, t=5.0, q=0.1)
    lhs, rhs, rel = check_descent_identity(inst)
    assert lhs == 0.0 and rhs == 0.0 and rel == 0.0


def test_identity_random_instances():
    rng = np.random.default_rng(0)
    worst = 0.0
    for d in (1, 2, 5, 20):
        for t in (1, 2, 10, 1000):
            for q in (0.01, 0.1, 0.2):
                for _ in range(5):
                    inst = IdentityInstance.random(rng, d, t, q)
                    _, _, rel = check_descent_identity(inst)
                    worst = max(worst, rel)
    assert worst <= 1e-9


def test_identity_scale_invariance():
    rng = np.random.default_rng(4)
    for scale in (1e-3, 1.0, 1e3):
        inst = IdentityInstance.random(rng, 3, 7, 0.05, scale=scale)
        _, _, rel = check_descent_identity(inst)
        assert rel <= 1e-9


def test_identity_symbolically_in_every_dimension():
    """Both sides of check_descent_identity are polynomials in the pairwise
    inner products of its nine free vectors (a4 is derived from them).

    Each vector is a formal symbol and each inner product <x, y> of two
    linear combinations expands into one symbol per pair. The two sides then
    cancel as rational functions of those symbols, t and q, with no relation
    among the inner products assumed: the identity holds in every dimension.
    The same expansion, evaluated at a numeric instance, reproduces the
    function's own lhs and rhs, so it transcribes the code's two sides.
    """
    sympy = pytest.importorskip("sympy")
    names = ["a0", "a2", "a3", "b1", "b2", "b3", "b4", "u2", "u4"]
    basis = sympy.symbols(names)
    a0, a2, a3, b1, b2, b3, b4, u2, u4 = basis
    t, q = sympy.symbols("t q", positive=True)
    pair = {(i, j): sympy.Symbol(f"<{names[i]},{names[j]}>")
            for i in range(9) for j in range(i, 9)}

    def ip(x, y):
        poly = sympy.Poly(sympy.expand(x * y), *basis)
        return sum(c * pair[tuple(k for k, e in enumerate(m) for _ in range(e))]
                   for m, c in poly.terms())

    def pot(tt, b_prev, b_cur, u, a):  # metrics.anchored_potential, unit step
        resid = b_cur + u
        return tt * (tt + 1) / 2 * (ip(resid, resid) + ip(b_cur - b_prev, b_cur - b_prev)) \
            + tt * ip(resid, a - a0)

    a4 = a2 - b3 + (a0 - a2) / (t + 1) - u4
    lhs = (
        pot(t, b1, b2, u2, a2)
        - pot(t + 1, b3, b4, u4, a4)
        - t * (t + 1) * ip(b4 - b2, a4 - a2)
        - t * (t + 1) / (4 * q) * (q * ip(a4 - a3, a4 - a3) - ip(b4 - b3, b4 - b3))
        - t * (t + 1) * ip(u4, a4 - a2)
        - t * (t + 1) / 2 * (
            ip(u2, a2 - a3)
            + ip(u2, a2 - a4)
            + ip(a2 - b1 + (a0 - a2) / (t + 1) - a3, a3 - a4)
        )
    )
    w1 = (a3 - a4) / 2 + b1 - b2
    w2 = (a3 + a4) / 2 - a2 + b2 + u2 - (a0 - a2) / (t + 1)
    rhs = (
        t * (t + 1) / 2 * ip(w1, w1)
        + t * (t + 1) / 2 * ip(w2, w2)
        + ((1 - 4 * q) * t - 4 * q) / (4 * q) * (t + 1) * ip(b3 - b4, b3 - b4)
        + (t + 1) * ip(b3 - b4, b4 + u4)
    )
    assert sympy.cancel(lhs - rhs) == 0

    inst = IdentityInstance.random(np.random.default_rng(11), 4, t=7, q=0.05)
    vecs = [getattr(inst, name) for name in names]
    values = {t: inst.t, q: inst.q}
    values.update({s: float(vecs[i] @ vecs[j]) for (i, j), s in pair.items()})
    want_lhs, want_rhs, _ = check_descent_identity(inst)
    assert math.isclose(float(lhs.subs(values)), want_lhs, rel_tol=1e-9)
    assert math.isclose(float(rhs.subs(values)), want_rhs, rel_tol=1e-9)


def test_identity_from_run_trace():
    cfg = ExperimentConfig(
        game="bilinear",
        game_params={"dims": (2, 2)},
        algo="aog",
        T=40,
        record_potential=True,
    )
    game, players, x1, run = kernel_run(cfg)
    eta = players[0].eta
    windows = {t: trace_window(run, t) for t in (2, 3, 10, 39)}
    for t, steps in windows.items():
        inst = identity_instance_from_trace(game, x1, eta, t, steps)
        # the derived a4 must reproduce the actual next base iterate
        assert np.linalg.norm(inst.a4 - steps[2][0]) <= 1e-9
        _, _, rel = check_descent_identity(inst)
        assert rel <= 1e-9
    with pytest.raises(MonolearnError, match="t >= 2"):
        identity_instance_from_trace(game, x1, eta, 1, windows[2])


def test_identity_holds_on_degenerate_instances():
    # (1-4q)t - 4q <= 0 at t = 1, q = 0.2: the sequence bound cannot use
    # such an instance, but the identity itself still holds
    rng = np.random.default_rng(3)
    for t, q in ((1.0, 0.2), (1.0, 0.25), (3.0, 0.24)):
        assert (1.0 - 4.0 * q) * t - 4.0 * q <= 0.0
        assert check_descent_identity(IdentityInstance.random(rng, 3, t, q))[2] <= 1e-9
    zeros = [np.zeros(1) for _ in range(9)]
    with pytest.raises(MonolearnError):
        IdentityInstance(*zeros, t=0.0, q=0.1)
    with pytest.raises(MonolearnError):
        IdentityInstance(*zeros, t=2.0, q=0.0)


def test_sequence_bound_saturating_example():
    ks = np.arange(2, 300)
    report = check_sequence_bound(4.0 / ks**2, c1=1.0, p=0.05)
    assert report.hypothesis_holds and report.conclusion_holds
    assert bool(report)


def test_sequence_bound_zero_sequence():
    assert bool(check_sequence_bound(np.zeros(50), c1=0.0, p=0.1))


def test_sequence_bound_detects_violations():
    ks = np.arange(2, 100)
    # a hypothesis-satisfying sequence still fails the conclusion if scaled up
    big = 100.0 / ks**2
    report = check_sequence_bound(big, c1=1.0, p=0.25)
    assert not report.hypothesis_holds
    # constant sequence: hypothesis fails for large k
    report = check_sequence_bound(np.ones(200), c1=1.0, p=0.25)
    assert not bool(report)


def test_sequence_bound_argument_validation():
    with pytest.raises(MonolearnError):
        check_sequence_bound([0.0], c1=1.0, p=0.4)
    with pytest.raises(MonolearnError):
        check_sequence_bound([0.0], c1=-1.0, p=0.1)
    with pytest.raises(MonolearnError):
        check_sequence_bound([-1.0], c1=1.0, p=0.1)


@pytest.mark.parametrize("a, c1, p, key", [
    ([1.0, 0.5, 0.1], math.nan, 0.25, "c1"),
    ([1.0, math.nan, 0.1], 1.0, 0.25, "a"),
    ([1.0, math.inf, 0.1], 1.0, 0.25, "a"),
    ([0.0], 1.0, "0.1", "p"),
    ([0.0], 1.0, 0.5, "p"),
    ([1.0, -0.5, 0.1], 1.0, 0.25, "a"),
    # no term to check: both checks would pass vacuously
    ([], 1.0, 0.1, "a"),
])
def test_sequence_bound_checks_its_numbers(a, c1, p, key):
    # every comparison with NaN is False: unchecked, a NaN reads as a pass
    with pytest.raises(MonolearnError, match=f"^{key}: must be "):
        check_sequence_bound(a, c1=c1, p=p)


@pytest.mark.parametrize("t, q, key", [(math.nan, 0.1, "t"), (math.inf, 0.1, "t"),
                                       (2.0, math.nan, "q")])
def test_identity_instance_rejects_non_finite_t_and_q(t, q, key):
    zeros = [np.zeros(1) for _ in range(9)]
    with pytest.raises(MonolearnError, match=f"^{key}: must be a finite number"):
        IdentityInstance(*zeros, t=t, q=q)


def test_sequence_bound_on_run_residuals():
    cfg = ExperimentConfig(
        game="bilinear",
        game_params={"dims": (1, 1)},
        algo="aog",
        T=500,
        record_potential=True,
    )
    game, *_, residual_norm, drift_norm = replay_potential(cfg, run_self_play(cfg))
    D = game.joint_set.diameter()
    a = [r * r + 2.0 * d * d for r, d in zip(residual_norm, drift_norm)]  # rounds 2..T
    report = check_sequence_bound(a, c1=10.0 * D * D, p=0.25)
    assert bool(report)


def test_eag_adversary_regret():
    regret, played = run_eag_adversary(10, eta=0.5)
    assert regret >= 5.0
    assert len(played) == 10
    regret1, _ = run_eag_adversary(1, eta=0.5)
    assert regret1 >= 0.5


def test_eag_adversary_iterate_pattern():
    _, played = run_eag_adversary(20, eta=0.3)
    for idx, (action, grad) in enumerate(played):
        t = idx + 1
        want = 0.0 if t % 2 == 1 else -0.3
        assert abs(float(action[0]) - want) <= 1e-12
        assert float(grad[0]) == (1.0 if t % 2 == 1 else 0.0)


def test_same_adversary_is_sublinear_for_adaptive_learner():
    from monolearn.harness import make_adversary, run_adversarial

    def regret(T):
        learner = make_learner("aog_adaptive", symmetric_box(1.0, 1), np.zeros(1), L=1.0, D=2.0)
        res = run_adversarial(learner, make_adversary("appendix_d", 1), T)
        return res.final_regret

    r1, r2 = regret(2000), regret(4000)
    assert r2 / max(r1, 1e-12) < 2.0
