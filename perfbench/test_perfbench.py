"""Tests of the benchmark's own code: tracer arithmetic, output checks,
failure counting and the repeatability of traced call counts.

Run from the repository root: python3 -m pytest perfbench
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


@pytest.fixture
def bench(monkeypatch, tmp_path):
    """run.py pointed at this checkout, writing into a temporary directory."""
    monkeypatch.setattr(run, "ROOT", ROOT)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    return run


def run_once(bench, spec, trace=False):
    csv_path = bench.OUT_DIR / f"{spec['workload']}.csv"
    result = bench.run_rep(dict(spec, trace=trace, csv=str(csv_path)))
    return result, csv_path.read_bytes()


# -- tracer ---------------------------------------------------------------


def test_self_time_of_nested_spans():
    # outer [0, 20] holds a [2, 7] (which holds b [3, 5]) and a second a [9, 10]
    tracer = Tracer(clock=FakeClock(0, 2, 3, 5, 7, 9, 10, 20))
    tracer.enter("outer")
    tracer.enter("a")
    tracer.enter("b")
    tracer.exit()
    tracer.exit()
    tracer.enter("a")
    tracer.exit()
    tracer.exit()
    assert tracer.spans == {
        ("b", "a"): [1, 2, 2],
        ("a", "outer"): [2, 6, 4],
        ("outer", None): [1, 20, 14],
    }
    assert run.span_totals(tracer.rows()) == {"outer": (1, 14), "a": (2, 4), "b": (1, 2)}


def test_reentry_on_same_object_folds_into_one_span():
    tracer = Tracer(clock=FakeClock(*range(100)))

    class Base:
        def update(self):
            return "base"

    class Derived(Base):
        def update(self):
            return super().update()

    Base.update = tracer.method("update", Base.update)
    Derived.update = tracer.method("update", Derived.update)
    assert Derived().update() == "base"
    assert run.span_totals(tracer.rows())["update"][0] == 1

    class Outer:
        def __init__(self, inner):
            self.inner = inner

        def update(self):
            return self.inner.update()

    Outer.update = tracer.method("update", Outer.update)
    Outer(Derived()).update()
    assert run.span_totals(tracer.rows())["update"][0] == 3  # distinct objects nest


# -- output checks --------------------------------------------------------


def _alter_cell(data, line, column, value):
    lines = data.decode().split("\n")
    cells = lines[line].split(",")
    cells[column] = value
    lines[line] = ",".join(cells)
    return "\n".join(lines).encode()


def test_checker_accepts_a_run_and_rejects_one_altered_cell(bench):
    spec = bench.make_spec("bilinear_exact_s1", 7, T=60)
    result, data = run_once(bench, spec)
    reference = bench.final_values(spec, data.decode(), result)
    digest = hashlib.sha256(data).hexdigest()
    assert bench.check_output(spec, data, result, reference, digest) == []

    last = len(data.decode().split("\n")) - 2
    altered_final = _alter_cell(data, last, 3, repr(1.0001 * reference["tgap_exact"]))
    problems = bench.check_output(spec, altered_final, result, reference, None)
    assert any("tgap_exact" in p for p in problems)

    altered_middle = _alter_cell(data, 30, 1, "0.5")  # r_tan is column 1
    problems = bench.check_output(spec, altered_middle, result, None, digest)
    assert any("differ" in p for p in problems)

    over_bound = _alter_cell(data, 30, 1, "1e9")
    assert any("55 D" in p for p in bench.check_output(spec, over_bound, result, None, None))

    header = data.replace(b"r_tan", b"r_tan_", 1)
    assert any("header" in p for p in bench.check_output(spec, header, result, None, None))


def test_adversarial_checker_enforces_linear_eag_regret():
    text = "t,regret\n" + "".join(f"{t},1.0\n" for t in checks.recorded_rounds(300, 100))
    assert checks.check_adversarial(text, 300, 100, eag_regret=150.0) == []
    assert checks.check_adversarial(text, 300, 100, eag_regret=149.0)
    assert checks.check_adversarial(text, 301, 100, eag_regret=151.0)  # rows miss T


def test_a_run_that_raises_is_counted_as_failed(bench):
    spec = bench.make_spec("bilinear_exact_s1", 0, T=10)
    spec["config"]["game"] = "no_such_game"
    reps = bench.measure(spec, seconds=0, trace=0)
    assert len(reps) == bench.MIN_REPS
    assert all(any("exited" in p for p in r["problems"]) for r in reps)


# -- traced runs ----------------------------------------------------------


@pytest.mark.parametrize("workload, T", [("bilinear_exact_s1", 80),
                                         ("online_adversarial", 400)])
def test_calls_per_round_repeat_across_traced_runs(bench, workload, T):
    spec = bench.make_spec(workload, 3, T=T)
    counts = []
    for _ in range(2):
        result, data = run_once(bench, spec, trace=True)
        values = bench.layer_values(result["spans"], spec["rounds"], len(data))
        counts.append({k: v for k, v in values.items() if k.endswith("calls_per_round")})
    assert counts[0] == counts[1]
    if workload == "bilinear_exact_s1":
        # dynreg every round plus tgap on every row (stride 1): 2 + 2
        assert counts[0]["games.best_response.calls_per_round"] == 4.0
        assert counts[0]["metrics.csv_row.calls_per_round"] == 1.0
    else:
        assert counts[0]["games.gradient.calls_per_round"] == 0.0


def test_same_seed_gives_same_inputs():
    for name in run.WORKLOADS:
        assert run.make_spec(name, 5) == run.make_spec(name, 5)
        assert run.make_spec(name, 5) != run.make_spec(name, 6)


def test_benchmark_json_names_what_run_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
