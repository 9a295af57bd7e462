"""Outside-in span tracer for the monolearn benchmark.

The tracer wraps public functions of the library from outside (no library
file is edited) and aggregates spans in memory per (name, parent name).
A span's self time is its duration minus the durations of its direct child
spans; children nest inside their parent in time, so their durations sum to
the part of the parent's interval that they cover.

A call that re-enters the same span name on the same object (a subclass
method calling ``super()``, as ``_TwoPhase.update`` does into
``Learner.update``) is folded into the open span, so it counts once.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    """Span aggregator: (name, parent) -> [calls, total_ns, self_ns]."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self._stack = []  # open spans: [name, owner, start_ns, child_ns]
        self.spans = {}

    def enter(self, name, owner=None):
        """Open a span; returns False when folded into the open span."""
        if self._stack:
            top = self._stack[-1]
            if owner is not None and top[0] == name and top[1] is owner:
                return False
        self._stack.append([name, owner, self.clock(), 0])
        return True

    def exit(self):
        end = self.clock()
        name, _, start, child = self._stack.pop()
        duration = end - start
        parent = None
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        row = self.spans.setdefault((name, parent), [0, 0, 0])
        row[0] += 1
        row[1] += duration
        row[2] += duration - child

    def function(self, name, fn):
        """Wrap a plain callable."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    def method(self, name, fn):
        """Wrap an unbound method; re-entry on the same instance folds."""

        @functools.wraps(fn)
        def traced(obj, *args, **kwargs):
            if not self.enter(name, obj):
                return fn(obj, *args, **kwargs)
            try:
                return fn(obj, *args, **kwargs)
            finally:
                self.exit()

        return traced

    def rows(self):
        """The aggregated spans as JSON-ready rows."""
        return [
            {"name": name, "parent": parent, "calls": calls,
             "total_ns": total, "self_ns": self_ns}
            for (name, parent), (calls, total, self_ns) in sorted(
                self.spans.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))
        ]


# Methods wrapped on the library's classes: (module, class, method, span name).
CLASS_METHODS = (
    [("geometry", cls, m, f"geometry.{m}")
     for cls in ("FeasibleSet", "Box", "Ball", "Unconstrained", "ProductSet")
     for m in ("project", "tangent_residual", "linearized_gap", "support_min")]
    + [("games", "GameOracle", m, f"games.{m}")
       for m in ("validate", "best_response", "loss")]
    + [("learners", "Learner", "propose", "learners.propose"),
       ("learners", "Learner", "update", "learners.update"),
       ("learners", "_TwoPhase", "update", "learners.update"),
       ("learners", "_TwoPhase", "observe_base", "learners.observe_base")]
)

# Names patched where ``harness`` imports or defines them: (name, span name).
HARNESS_NAMES = (
    ("make_learner", "learners.make_learner"),
    ("csv_row", "metrics.csv_row"),
    ("emit_csv", "harness.emit_csv"),
    ("run_self_play", "harness.run_self_play"),
    ("run_adversarial", "harness.run_adversarial"),
)


def install(tracer, modules):
    """Wrap the library's layer boundaries. ``modules`` maps the short names
    geometry, games, learners, harness and verify to the imported modules.

    Only a class's own definition of a method is wrapped, so an inherited
    method is traced once, on the class that defines it.
    """
    for mod, cls_name, meth, span in CLASS_METHODS:
        cls = getattr(modules[mod], cls_name)
        if meth in vars(cls):
            setattr(cls, meth, tracer.method(span, vars(cls)[meth]))
    harness = modules["harness"]
    for attr, span in HARNESS_NAMES:
        setattr(harness, attr, tracer.function(span, getattr(harness, attr)))

    make_game = harness.make_game

    def traced_make_game(*args, **kwargs):
        tracer.enter("games.make_game")
        try:
            game = make_game(*args, **kwargs)
        finally:
            tracer.exit()
        # gradient_fn is an instance attribute, so it is wrapped per oracle.
        game.gradient_fn = tracer.function("games.gradient", game.gradient_fn)
        return game

    harness.make_game = traced_make_game
    verify = modules["verify"]
    verify.run_eag_adversary = tracer.function(
        "verify.run_eag_adversary", verify.run_eag_adversary)
