"""The example scripts run end to end on the current API.

Each script runs in a fresh interpreter with its artifact cache, ``HOME``
and working directory on empty temp directories, so a warm cache cannot
hide a broken preparation path and nothing lands outside them.
"""

import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
EXAMPLES = os.path.join(os.path.dirname(SRC), "examples")


@pytest.mark.parametrize(
    "script",
    ["quickstart.py", "defense_comparison.py", "spectre_demo.py", "branch_analysis_tour.py"],
)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env["HOME"] = str(tmp_path / "home")
    completed = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, script)],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(tmp_path),
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip()
