"""Benchmark of the monolearn library: end-to-end run cost per workload, and
per-layer spans from a separate traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-reference

Each repetition runs in a fresh single-threaded process (BLAS pinned to one
thread) that imports the library from ``src/``. Repetitions repeat until
``--seconds`` have passed; the reported value of each metric is the median
over the repetitions. With ``--trace 0`` every repetition is untraced and the
end-to-end metrics are printed. With ``--trace 1`` untraced and traced
repetitions alternate, and the per-layer metrics are printed. Every
repetition's output is checked; a repetition that raises or fails a check
counts as failed. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. A record with the
environment and every repetition is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import check_adversarial, check_selfplay, parse_csv

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT_DIR = BENCH_DIR / "out"
REFERENCE_PATH = BENCH_DIR / "reference.json"
DEFAULT_SEED = 0
CHILD_TIMEOUT_S = 150
# The determinism check compares repetitions, so a run makes at least two
# of each kind it reports.
MIN_REPS = 2
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


# -- workloads ------------------------------------------------------------
# Each function below turns a seeded generator and a horizon T into the
# inputs the library receives. The seed picks the start point x1, and also
# the instance (unbounded_eag_d800) or the adversary stream
# (online_adversarial).


def _bilinear_exact_s1(rng, T):
    # The shipped bilinear_selfplay shape at stride 1: dimension 2, so the
    # time goes to per-call overhead, exact best responses and recording.
    return {
        "kind": "selfplay",
        "players": 2,
        "rate_D": 2.0 * math.sqrt(2.0),  # diameter of [-1, 1]^2
        "config": {"game": "bilinear", "game_params": {"dims": [1, 1]},
                   "algo": "aog", "T": T, "stride": 1, "record_potential": True,
                   "x1": rng.uniform(-1.0, 1.0, 2).tolist()},
    }


def _appendix_e_n100_s100(rng, T):
    # The shipped appendix_e_full shape at a shorter T: box geometry dominates.
    return {
        "kind": "selfplay",
        "players": 2,
        "config": {"game": "appendix_e",
                   "game_params": {"n": 100, "box_half_width": 200.0},
                   "algo": "aog", "eta": 0.3, "T": T, "stride": 100,
                   "keep_trajectory": False,
                   "x1": rng.uniform(-1.0, 1.0, 200).tolist()},
    }


def _unbounded_eag_d800(rng, T):
    # Two dense 800x800 matvecs per round, no geometry cost, no gap or regret.
    return {
        "kind": "selfplay",
        "players": 2,
        "config": {"game": "random_linear_monotone",
                   "game_params": {"dims": [400, 400],
                                   "seed": int(rng.integers(2**31))},
                   "algo": "eag", "T": T, "stride": 100,
                   "x1": rng.uniform(-1.0, 1.0, 800).tolist()},
    }


def _online_adversarial(rng, T):
    # The single-agent path: adaptive learner against a random adversary,
    # then the eag linear-regret construction, each for T online rounds.
    return {
        "kind": "adversarial",
        "config": {"game": "appendix_d_toy", "algo": "aog_adaptive", "T": T,
                   "L": 1.0, "D": 2.0, "x1": rng.uniform(-1.0, 1.0, 2).tolist()},
        "adversarial": {"T": T, "stride": 100, "eag_eta": 1.0 / 3.0,
                        "adversary_seed": int(rng.integers(2**31))},
    }


# name -> (input function, T, online rounds per unit of T)
WORKLOADS = {
    "bilinear_exact_s1": (_bilinear_exact_s1, 6000, 1),
    "appendix_e_n100_s100": (_appendix_e_n100_s100, 10000, 1),
    "unbounded_eag_d800": (_unbounded_eag_d800, 5000, 1),
    "online_adversarial": (_online_adversarial, 40000, 2),
}


def make_spec(name, seed, T=None):
    """The generated inputs of one workload; the same seed gives the same inputs."""
    make_inputs, default_T, per_T = WORKLOADS[name]
    T = default_T if T is None else T
    spec = make_inputs(np.random.default_rng(seed), T)
    spec.update(workload=name, seed=seed, T=T, rounds=per_T * T,
                stride=spec.get("adversarial", spec["config"]).get("stride"))
    return spec


# -- metrics --------------------------------------------------------------

END_TO_END = {
    "rounds_per_s": "rounds/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# Spans reported as calls per round and self time per round.
ROUND_SPANS = (
    "geometry.project", "geometry.tangent_residual", "geometry.linearized_gap",
    "geometry.support_min", "games.gradient", "games.best_response", "games.loss",
    "learners.propose", "learners.update", "learners.observe_base", "metrics.csv_row",
)
# Round loops reported as self time per round only.
LOOP_SPANS = ("harness.run_self_play", "harness.run_adversarial",
              "verify.run_eag_adversary")
# Spans reported as total self time per run.
ONCE_SPANS = ("harness.emit_csv", "games.validate", "games.make_game",
              "learners.make_learner")


def per_layer_units():
    units = {}
    for name in ROUND_SPANS:
        units[f"{name}.calls_per_round"] = "calls/round"
        units[f"{name}.self_us_per_round"] = "us/round"
    for name in LOOP_SPANS:
        units[f"{name}.self_us_per_round"] = "us/round"
    for name in ONCE_SPANS:
        units[f"{name}.self_s"] = "s"
    units["harness.csv_bytes"] = "bytes"
    units["trace.overhead_frac"] = "fraction"
    return units


def _median(values):
    return statistics.median(values) if values else None


def end_to_end_metrics(reps, rounds):
    good = [r for r in reps if not r["problems"] and not r["traced"]]
    values = {
        "rounds_per_s": [rounds / (r["wall_s"] - r["setup_s"]) for r in good],
        "wall_s": [r["wall_s"] for r in good],
        "setup_s": [r["setup_s"] for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
    }
    return {k: _median(v) for k, v in values.items()}


def span_totals(rows):
    """{span name: (calls, self_ns)} summed over parents."""
    totals = {}
    for row in rows:
        calls, self_ns = totals.get(row["name"], (0, 0))
        totals[row["name"]] = (calls + row["calls"], self_ns + row["self_ns"])
    return totals


def layer_values(rows, rounds, csv_bytes):
    """Per-layer metrics of one traced repetition."""
    totals = span_totals(rows)
    out = {}
    for name in ROUND_SPANS:
        calls, self_ns = totals.get(name, (0, 0))
        out[f"{name}.calls_per_round"] = calls / rounds
        out[f"{name}.self_us_per_round"] = self_ns / 1e3 / rounds
    for name in LOOP_SPANS:
        out[f"{name}.self_us_per_round"] = totals.get(name, (0, 0))[1] / 1e3 / rounds
    for name in ONCE_SPANS:
        out[f"{name}.self_s"] = totals.get(name, (0, 0))[1] / 1e9
    out["harness.csv_bytes"] = csv_bytes
    return out


def per_layer_metrics(reps, rounds):
    good = [r for r in reps if not r["problems"]]
    traced = [layer_values(r["spans"], rounds, r["csv_bytes"]) for r in good if r["traced"]]
    out = {name: _median([v[name] for v in traced]) for name in per_layer_units()
           if name != "trace.overhead_frac"}
    walls_traced = [r["wall_s"] for r in good if r["traced"]]
    walls_plain = [r["wall_s"] for r in good if not r["traced"]]
    out["trace.overhead_frac"] = (
        _median(walls_traced) / _median(walls_plain) - 1.0
        if walls_traced and walls_plain else None)
    return out


# -- repetitions ----------------------------------------------------------


class RepError(RuntimeError):
    """A repetition's process failed or produced no result."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def run_rep(job):
    """Run one repetition in a fresh process and return its result."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(job)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RepError(f"repetition exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RepError(f"repetition exited {proc.returncode}: {tail[0]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise RepError("repetition printed no result") from None


def check_output(spec, data, result, reference, first_digest):
    """Problems with one repetition's CSV bytes and result (see checks.py);
    ``first_digest`` is the digest of the run's first CSV, or None."""
    text = data.decode()
    if spec["kind"] == "adversarial":
        problems = check_adversarial(text, spec["T"], spec["stride"],
                                     result["eag_regret"], reference)
    else:
        from monolearn.metrics import csv_header

        problems = check_selfplay(text, csv_header(spec["players"]), spec["T"],
                                  spec["stride"], spec.get("rate_D"), reference)
    if first_digest is not None and hashlib.sha256(data).hexdigest() != first_digest:
        problems.append("CSV bytes differ from the first repetition of this seed")
    return problems


def load_reference(spec):
    """Stored final values for the default seed, or None for other seeds."""
    if spec["seed"] != DEFAULT_SEED:
        return None
    stored = json.loads(REFERENCE_PATH.read_text())[spec["workload"]]
    if stored["T"] != spec["T"]:
        raise ValueError(f"reference.json holds T={stored['T']}, the workload runs "
                       f"T={spec['T']}; rerun with --write-reference")
    return stored["final"]


def measure(spec, seconds, trace, reference=None):
    """Repeat until ``seconds`` have passed; with ``trace``, untraced and
    traced repetitions alternate. Returns one record per repetition."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    csv_path = OUT_DIR / f"{spec['workload']}.csv"
    reps, first_digest = [], None
    start = time.monotonic()
    while len(reps) < MIN_REPS * (1 + trace) or time.monotonic() - start < seconds:
        rep = {"traced": bool(trace) and len(reps) % 2 == 1, "problems": []}
        job = dict(spec, trace=rep["traced"], csv=str(csv_path))
        try:
            rep.update(run_rep(job))
            data = csv_path.read_bytes()
            rep["csv_bytes"] = len(data)
            rep["problems"] = check_output(spec, data, rep, reference, first_digest)
            first_digest = first_digest or hashlib.sha256(data).hexdigest()
        except (RepError, OSError, UnicodeDecodeError) as exc:
            rep["problems"].append(str(exc))
        finally:
            csv_path.unlink(missing_ok=True)
        reps.append(rep)
    return reps


# -- environment and output -----------------------------------------------


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    env = child_env()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
        "git_sha": git_sha(),
        "fresh_process_per_repetition": True,
        "platform": platform.platform(),
    }


def final_values(spec, text, result):
    """The values the reference stores: the last CSV row, plus the eag regret."""
    rows, _ = parse_csv(text, text.split("\n", 1)[0])
    final = rows[-1]
    if spec["kind"] == "adversarial":
        final = {"regret": final["regret"], "eag_regret": result["eag_regret"]}
    return final


def write_reference():
    """Store the final values of every workload on the default seed."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stored = {}
    for name in WORKLOADS:
        spec = make_spec(name, DEFAULT_SEED)
        csv_path = OUT_DIR / f"{name}.csv"
        result = run_rep(dict(spec, trace=False, csv=str(csv_path)))
        text = csv_path.read_text()
        csv_path.unlink()
        stored[name] = {"T": spec["T"], "final": final_values(spec, text, result)}
        print(f"{name}: {stored[name]['final']}")
    REFERENCE_PATH.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store the default seed's final values and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "monolearn" / "__init__.py").is_file():
        print(f"error: no monolearn source tree under {ROOT / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    spec = make_spec(args.workload, args.seed)
    try:
        reference = load_reference(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reps = measure(spec, args.seconds, args.trace, reference)
    if args.trace:
        values, units = per_layer_metrics(reps, spec["rounds"]), per_layer_units()
    else:
        values, units = end_to_end_metrics(reps, spec["rounds"]), END_TO_END
    failed = sum(1 for r in reps if r["problems"])
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(),
              "metrics": values, "repetitions": reps}
    (OUT_DIR / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    for i, rep in enumerate(reps):
        status = "; ".join(rep["problems"]) or "ok"
        timing = (f"wall {rep['wall_s']:.4f} s setup {rep['setup_s']:.4f} s"
                  if "wall_s" in rep else "no result")
        print(f"rep {i} {'traced' if rep['traced'] else 'plain '} {timing}: {status}")
    missing = [name for name in units if values.get(name) is None]
    result = {
        "correct": failed == 0 and not missing,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name not in missing},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
