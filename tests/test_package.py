import os
import subprocess
import sys
from pathlib import Path

import monolearn

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_exported_name_resolves():
    missing = [name for name in monolearn.__all__ if not hasattr(monolearn, name)]
    assert missing == []
    assert len(set(monolearn.__all__)) == len(monolearn.__all__)


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
