"""One benchmark repetition, run in a fresh process.

Usage: python3 child.py '<job json>'

The job names the workload kind, its generated inputs, the CSV path and
whether to trace. The parent sets PYTHONPATH to the library's source tree
and pins BLAS to one thread before this process starts. The last line of
standard output is a JSON object with the repetition's timings.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _modules():
    from monolearn import games, geometry, harness, learners, verify

    return {"games": games, "geometry": geometry, "harness": harness,
            "learners": learners, "verify": verify}


def _selfplay(job, harness, clock):
    """Self-play through ``run_self_play``; setup ends when the last learner
    is built, the run ends when the CSV is on disk."""
    stamps = []
    make_learner = harness.make_learner

    def stamped(*args, **kwargs):
        learner = make_learner(*args, **kwargs)
        stamps.append(clock())
        return learner

    harness.make_learner = stamped
    config = harness.ExperimentConfig(**job["config"], out=job["csv"])
    start = clock()
    harness.run_self_play(config)
    end = clock()
    return {"setup_s": stamps[-1] - start, "wall_s": end - start}


def _adversarial(job, harness, verify, clock):
    """One adaptive learner against the seeded ``random_box`` adversary, then
    the scripted linear-regret construction against ``eag`` at the same T."""
    spec = job["adversarial"]
    T = spec["T"]
    start = clock()
    config = harness.ExperimentConfig(**job["config"])
    game = harness.make_game(config.game, **config.game_params)
    learner = harness.build_single_learner(config, game)
    adversary = harness.make_adversary("random_box", game.player_dims[0],
                                       seed=spec["adversary_seed"])
    setup_end = clock()
    result = harness.run_adversarial(
        learner, adversary, T, record_at=range(1, T + 1, spec["stride"]))
    with open(job["csv"], "w") as fh:
        fh.write("t,regret\n")
        for t in sorted(result.regret_at):
            fh.write(f"{t},{result.regret_at[t]!r}\n")
    eag_regret, _ = verify.run_eag_adversary(T, eta=spec["eag_eta"])
    end = clock()
    return {"setup_s": setup_end - start, "wall_s": end - start,
            "eag_regret": float(eag_regret)}


def run(job):
    modules = _modules()
    tracer = None
    if job["trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer, modules)
    clock = time.perf_counter
    if job["kind"] == "selfplay":
        out = _selfplay(job, modules["harness"], clock)
    else:
        out = _adversarial(job, modules["harness"], modules["verify"], clock)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["spans"] = tracer.rows()
    return out


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
