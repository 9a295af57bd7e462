import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import monolearn
from monolearn import MonolearnError, make_learner, symmetric_box

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_exported_name_resolves():
    missing = [name for name in monolearn.__all__ if not hasattr(monolearn, name)]
    assert missing == []
    assert len(set(monolearn.__all__)) == len(monolearn.__all__)


def test_monolearn_error_is_the_one_exception_class():
    modules = [importlib.import_module(f"monolearn.{m.name}")
               for m in pkgutil.iter_modules(monolearn.__path__)]
    defined = {obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__.startswith("monolearn")}
    assert defined == {MonolearnError}
    assert issubclass(MonolearnError, ValueError)
    box, x1 = symmetric_box(1.0, 1), np.zeros(1)
    with pytest.raises(MonolearnError, match="^unknown algorithm tag 'nope'"):
        make_learner("nope", box, x1, eta=0.1)
    with pytest.raises(MonolearnError, match="^adaptation needs L and D$"):
        make_learner("aog_adaptive", box, x1, L=1.0)


def test_python_dash_m_monolearn_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "monolearn",
         "verify", "--checks", "sequence"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.startswith("sequence: ")


def test_the_runtime_imports_only_the_standard_library_and_numpy():
    # the package's one runtime dependency is numpy: every module it imports,
    # at any depth of a source file, is the standard library's, numpy's or
    # its own
    allowed = set(sys.stdlib_module_names) | {"numpy", "monolearn"}
    sources = sorted((SRC / "monolearn").glob("*.py"))
    assert sources
    found = {}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # a relative import is the package's own
                continue
            for name in names:
                found.setdefault(name.partition(".")[0], path.name)
    assert {top: where for top, where in found.items() if top not in allowed} == {}
    assert "numpy" in found


def test_metrics_imports_no_package_module_but_geometry():
    # metrics holds pure row formulas: it may read the geometry of a set,
    # but no game, learner or runner
    tree = ast.parse((SRC / "monolearn" / "metrics.py").read_text())
    own = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            own |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("monolearn"):
            own.add(node.module.partition(".")[2] or "monolearn")
        elif isinstance(node, ast.Import):
            own |= {a.name.partition(".")[2] for a in node.names
                    if a.name.startswith("monolearn")}
    assert own <= {"geometry"}


def test_every_name_the_benchmark_looks_up_resolves():
    # perfbench/tracer.py wraps classes and harness names that it looks up by
    # string, and perfbench/child.py calls harness and verify names on the
    # imported modules: a name removed from the package fails only the
    # benchmark's traced runs, so it is held here. The tracer is read from
    # its file, not installed.
    bench = SRC.parent / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", bench / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wanted = {(module, name) for module, name, *_ in tracer.CLASS_METHODS}
    wanted |= {("harness", name) for name, _ in tracer.HARNESS_NAMES}
    wanted |= {("harness", "make_game"), ("verify", "run_eag_adversary")}  # install() wraps
    modules = {"games", "geometry", "harness", "learners", "verify"}
    for path in sorted(bench.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            # child.py names each module it is handed after the module
            if (path.name == "child.py" and isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name) and node.value.id in modules):
                wanted.add((node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("monolearn."):
                wanted |= {(node.module.partition(".")[2], a.name) for a in node.names}
    assert ("harness", "run_adversarial") in wanted and ("geometry", "Unconstrained") in wanted
    missing = sorted((module, name) for module, name in wanted
                     if not hasattr(importlib.import_module(f"monolearn.{module}"), name))
    assert missing == []
