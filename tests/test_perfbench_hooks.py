"""Every name the ``perfbench`` tracer patches still exists in ``src/``.

``perfbench/traced.py`` wraps the program's layer entry points by name; a
rename or removal in ``src/`` breaks the benchmark's traced runs without
failing anything else.  This installs the tracer in a fresh interpreter
(without writing bytecode into ``perfbench/``) and fails on the first
missing name.
"""

import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
PERFBENCH = os.path.join(os.path.dirname(SRC), "perfbench")


def test_perfbench_tracer_installs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([PERFBENCH, SRC])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    code = "import spans, traced; traced.import_layers(); traced.install(spans.Recorder(), {})"
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
