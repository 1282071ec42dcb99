"""The notebooks 01-05 run to completion against the package.

Each runs as its own process with ``src`` on ``PYTHONPATH``, as README
describes, so a change to the public API fails here instead of breaking a
walkthrough silently. Notebook 05 (ablation grid and gamma sweep) takes a
few seconds, like the others.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
NOTEBOOKS = sorted(p.name for p in (ROOT / "notebooks").glob("0[1-5]_*.py"))


def package_env():
    """The environment of a child process that imports the package from
    this checkout: ``src`` ahead of any ``PYTHONPATH`` already set."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_all_five_found():
    assert len(NOTEBOOKS) == 5


@pytest.mark.parametrize("name", NOTEBOOKS)
def test_notebook_runs(name, tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "notebooks" / name)],
                          cwd=tmp_path, env=package_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
