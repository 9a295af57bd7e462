"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
The heavyweight shared runs live in session fixtures so each experiment is
executed the minimum number of times.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from monolearn.games import make_random_linear_monotone
from monolearn.geometry import symmetric_box
from monolearn.harness import (
    fit_loglog_slope,
    load_config,
    main,
    make_adversary,
    run_adversarial,
    run_self_play,
)
from monolearn.learners import make_learner
from monolearn.metrics import linearized_gaps, regret_terms
from monolearn.verify import (
    IdentityInstance,
    check_descent_identity,
    identity_instance_from_trace,
    run_eag_adversary,
)

from conftest import rate_config, run_eta, theory_constants
from test_geometry import box_gap_oracle, box_residual_oracle

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SELFPLAY_CONFIGS = (
    "bilinear_selfplay",
    "appendix_e_n20_aog",
    "appendix_e_n20_og",
    "appendix_e_full",
)


def report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def shipped_runs(tmp_path_factory):
    """Each shipped self-play config, run twice, with CSV output kept."""
    base = tmp_path_factory.mktemp("shipped")
    out = {}
    for name in SELFPLAY_CONFIGS:
        entries = []
        for rep in (1, 2):
            cfg = load_config(str(CONFIG_DIR / f"{name}.json"))
            cfg.out = str(base / f"{name}_{rep}.csv")
            start = time.monotonic()
            result = run_self_play(cfg)
            entries.append((result, cfg.out, time.monotonic() - start))
        out[name] = entries
    return out


@pytest.fixture(scope="session")
def adversarial_csvs(tmp_path_factory):
    base = tmp_path_factory.mktemp("adv")
    paths = []
    for rep in (1, 2):
        out = base / f"adversarial_{rep}.csv"
        code = main([
            "adversarial",
            "--config", str(CONFIG_DIR / "adversarial_toy.json"),
            "--adversary", "random_box",
            "--out", str(out),
        ])
        assert code == 0
        paths.append(out)
    return paths


@pytest.fixture(scope="session")
def adaptive_runs(rate_runs):
    """Algorithm-1 self-play on the criterion-1 instances."""
    runs = {}
    for name in rate_runs:
        cfg = rate_config(name)
        adaptive_cfg = type(cfg)(
            game=cfg.game,
            game_params=cfg.game_params,
            algo="aog_adaptive",
            T=cfg.T,
            stride=cfg.stride,
        )
        runs[name] = run_self_play(adaptive_cfg)
    return runs


def adaptive_regret_over_root_t(adversary_name, horizons, seed=3):
    values = []
    for T in horizons:
        learner = make_learner("aog_adaptive", symmetric_box(1.0, 1), np.zeros(1), L=1.0, D=2.0)
        adversary = make_adversary(adversary_name, 1, seed=seed)
        res = run_adversarial(learner, adversary, T)
        values.append(res.final_regret / math.sqrt(T))
    return values


def test_criterion_1_last_iterate_rate_certificate(rate_runs):
    worst = ("", 0.0)
    for name, columns in rate_runs.items():
        L, D = theory_constants(rate_config(name))
        eta = run_eta(columns)
        assert math.isclose(eta, 1.0 / (math.sqrt(6.0) * L))
        assert columns["t"] == list(range(1, 10_001))  # stride 1: every round
        for t, r in zip(columns["t"], columns["r_tan"]):
            if t < 2:
                continue
            bound = 55.0 * D / (eta * t)
            if r / bound > worst[1]:
                worst = (f"{name}@t={t}", r / bound)
            assert r <= bound, f"{name}: r_tan at t={t} is {r} > {bound}"
    report(1, True, f"r_tan <= 55D/(eta*T) on all rounds of 3 instances "
                    f"(tightest ratio {worst[1]:.3f} at {worst[0]})")


def test_criterion_2_lemma_bounds(rate_runs, rate_replays):
    for name, columns in rate_runs.items():
        L, D = theory_constants(rate_config(name))
        eta = run_eta(columns)
        q = (eta * L) ** 2
        coeff = 3.0 * q / (2.0 * (1.0 - 4.0 * q))
        *_, residual_norm, drift_norm = rate_replays[name]
        prev_pot = None
        for i, t in enumerate(columns["t"]):
            dist = columns["dist_half"][i]
            assert dist <= 27.0 * D / t, f"{name}: half-step distance at t={t}"
            if t < 2:
                continue
            # the replayed norms carry the eta factor; row i - 1 is round t
            resid = residual_norm[i - 1] / eta
            drift = drift_norm[i - 1] / eta
            assert resid <= 13.0 * D / (eta * t), f"{name}: residual at t={t}"
            assert drift <= 13.0 * D / (eta * t), f"{name}: drift at t={t}"
            pot = columns["potential"][i]
            if t == 2:
                assert pot <= 9.0 * D * D, f"{name}: P_2 = {pot} > 9 D^2"
            if prev_pot is not None:
                allowed = prev_pot + coeff * residual_norm[i - 1] ** 2
                tol = 1e-8 * max(1.0, abs(prev_pot))
                assert pot <= allowed + tol, f"{name}: potential ascent at t={t}"
            prev_pot = pot
    report(2, True, "residual/drift/step-distance/potential descent hold on 3 instances")


def test_criterion_3_rate_separation(shipped_runs):
    aog = shipped_runs["appendix_e_n20_aog"][0][0]
    og = shipped_runs["appendix_e_n20_og"][0][0]
    full, _, full_secs = shipped_runs["appendix_e_full"][0]

    fits = {}
    for tag, result in (("aog", aog), ("og", og), ("full", full)):
        fits[tag] = fit_loglog_slope(result["t"], result["r_tan"],
                                     window=(100, result["t"][-1]))
    ok = (
        -1.15 <= fits["aog"].slope <= -0.85
        and -0.65 <= fits["og"].slope <= -0.35
        and -1.15 <= fits["full"].slope <= -0.85
        and aog["r_tan"][-1] < og["r_tan"][-1]
        and full_secs < 600.0
    )
    report(3, ok,
           f"slopes aog={fits['aog'].slope:.3f} og={fits['og'].slope:.3f} "
           f"full={fits['full'].slope:.3f}; final r_tan aog={aog['r_tan'][-1]:.4g} "
           f"< og={og['r_tan'][-1]:.4g}; full run {full_secs:.0f}s")


def test_criterion_4_adaptive_step_never_trips(adaptive_runs):
    margins = []
    for name, result in adaptive_runs.items():
        L, D = theory_constants(rate_config(name))
        threshold = 4500.0 * math.pi * D * D * L * L
        eta0 = 1.0 / (3.0 * L)
        s_max = 0.0
        for i in (1, 2):
            S, eta = result[f"S_{i}"], result[f"eta_{i}"]
            s_max = max(s_max, max(S))
            for t, s, e in zip(result["t"], S, eta):
                assert s <= threshold, f"{name}: S_{i} tripped at t={t}"
                assert e == eta0, f"{name}: eta_{i} moved at t={t}"
        margins.append(f"{name}: S_max/threshold={s_max / threshold:.2e}")
    report(4, True, "step size constant at 1/(3L) on all instances (" + "; ".join(margins) + ")")


def test_criterion_5_eag_linear_regret():
    details = []
    ok = True
    for T in (10, 10**3, 10**5):
        regret, _ = run_eag_adversary(T, eta=1.0 / 3.0)
        ok &= regret >= T / 2.0
        details.append(f"T={T}: regret={regret:.1f} >= {T / 2:.1f}")
    report(5, ok, "; ".join(details))


def test_criterion_6_adaptive_regret_non_exploding():
    horizons = (10**3, 10**4, 10**5)
    details, ok = [], True
    for adversary in ("appendix_d", "random_box"):
        vals = adaptive_regret_over_root_t(adversary, horizons)
        # non-explosion: each horizon-decade step grows the normalized
        # regret by less than a factor of 3
        growth = [vals[i + 1] / max(vals[i], 1e-12) for i in range(len(vals) - 1)]
        ok &= all(g < 3.0 for g in growth)
        details.append(
            f"{adversary}: regret/sqrt(T)={['%.3f' % v for v in vals]} "
            f"growth={['%.2f' % g for g in growth]}"
        )
    report(6, ok, "; ".join(details))


def test_criterion_7_dynamic_regret_log_growth(rate_runs):
    details, ok = [], True
    for name in ("bilinear_1d", "bilinear_2d"):
        result = rate_runs[name]
        for player in range(2):
            dynreg = dict(zip(result["t"], result[f"dynreg_{player + 1}"]))
            d2, d3, d4 = dynreg[100], dynreg[1000], dynreg[10000]
            lhs = d4 - d3
            rhs = 1.2 * (math.log(1e4) - math.log(1e3)) / (
                math.log(1e3) - math.log(1e2)
            ) * (d3 - d2)
            ok &= lhs <= rhs
            details.append(f"{name} p{player + 1}: {lhs:.3f} <= {rhs:.3f}")
    report(7, ok, "log-consistent increments: " + "; ".join(details))


def test_criterion_8_descent_identity(trace_windows):
    start = time.monotonic()
    rng = np.random.default_rng(2718)
    count, worst = 0, 0.0
    while count < 1000:
        for d in (1, 2, 5, 20):
            for t in (1, 2, 10, 1000):
                for q in (0.01, 0.1, 0.2):
                    inst = IdentityInstance.random(rng, d, t, q)
                    _, _, rel = check_descent_identity(inst)
                    worst = max(worst, rel)
                    count += 1
    trace_worst, trace_count = 0.0, 0
    for game, x1, eta, windows in trace_windows.values():
        for t, steps in windows.items():
            inst = identity_instance_from_trace(game, x1, eta, t, steps)
            _, _, rel = check_descent_identity(inst)
            trace_worst = max(trace_worst, rel)
            trace_count += 1
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and trace_worst <= 1e-9 and trace_count >= 100 and elapsed < 5.0
    report(8, ok,
           f"{count} random (worst rel err {worst:.2e}) + {trace_count} trace "
           f"(worst {trace_worst:.2e}) in {elapsed:.2f}s")


def test_criterion_9_geometry_oracles():
    rng = np.random.default_rng(55)
    from monolearn.geometry import Box

    boxes = [symmetric_box(1.0, 1), Box([-1.0, -0.5], [2.0, 1.5])]
    worst_res, worst_gap = 0.0, 0.0
    for box in boxes:
        for _ in range(40):
            p = box.project(rng.uniform(-2.0, 2.5, box.dim))
            g = rng.normal(scale=2.0, size=box.dim)
            worst_res = max(worst_res, abs(box.tangent_residual(p, g)
                                           - box_residual_oracle(box, p, g)))
            gap = linearized_gaps(*regret_terms(box, p[None], g[None], [slice(None)]))[0, 0]
            worst_gap = max(worst_gap, abs(gap - box_gap_oracle(box, p, g)))
    proj_ok = True
    for _ in range(1000):
        box = boxes[1]
        a, b = rng.normal(size=2, scale=3.0), rng.normal(size=2, scale=3.0)
        pa, pb = box.project(a), box.project(b)
        proj_ok &= float(np.linalg.norm(box.project(pa) - pa)) <= 1e-12
        proj_ok &= float(np.linalg.norm(pa - pb)) <= float(np.linalg.norm(a - b)) + 1e-12
    ok = worst_res <= 1e-6 and worst_gap <= 1e-3 and proj_ok
    report(9, ok,
           f"residual oracle gap {worst_res:.2e} <= 1e-6, gap oracle gap "
           f"{worst_gap:.2e} <= 1e-3, projection properties over 1000 pairs")


def test_criterion_10_unbounded_domain_rate():
    game = make_random_linear_monotone((1, 1), skew_scale=1.0, psd_diag=0.1, seed=0)
    from monolearn.harness import ExperimentConfig

    cfg = ExperimentConfig(
        game="random_linear_monotone",
        game_params={"dims": (1, 1), "skew_scale": 1.0, "psd_diag": 0.1, "seed": 0},
        algo="aog",
        T=10**4,
        stride=10,
    )
    result = run_self_play(cfg)
    eta = run_eta(result)
    x1 = np.ones(2)
    r1 = float(np.linalg.norm(game.gradient_fn(x1)))
    M, r = game.affine
    z_star = np.linalg.solve(M, -r)  # psd_diag > 0: M is nonsingular
    H = max(eta * r1, float(np.linalg.norm(x1 - z_star)))
    worst = 0.0
    for t, r_tan in zip(result["t"], result["r_tan"]):
        if t < 2:
            continue
        bound = 1430.0 * H / (eta * t)
        worst = max(worst, r_tan / bound)
        assert r_tan <= bound, f"unbounded rate violated at t={t}"
    report(10, True, f"r_tan <= 1430H/(eta*T) on all recorded rounds "
                     f"(tightest ratio {worst:.2e}, H={H:.3f})")


def test_criterion_11_determinism(shipped_runs, adversarial_csvs):
    names = []
    ok = True
    for name, entries in shipped_runs.items():
        (_, csv1, _), (_, csv2, _) = entries
        same = Path(csv1).read_bytes() == Path(csv2).read_bytes()
        ok &= same
        names.append(f"{name}: {'identical' if same else 'DIFFER'}")
    same = adversarial_csvs[0].read_bytes() == adversarial_csvs[1].read_bytes()
    ok &= same
    names.append(f"adversarial_toy: {'identical' if same else 'DIFFER'}")
    report(11, ok, "; ".join(names))
