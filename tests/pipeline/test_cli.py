"""The ``python -m repro`` CLI over the shared simulation service."""

import json

import pytest

import repro.experiments.runner as runner_module
from repro.cli import main


def test_list_experiments(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in ("table1", "table2", "figure7", "figure8", "figure9",
                 "trace-runtime", "cassandra-lite", "interrupts"):
        assert name in out


def test_list_experiments_json(capsys):
    """--list honors --format json: a machine-readable registry dump."""
    assert main(["--list", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    by_name = {row["name"]: row for row in payload}
    assert "figure7" in by_name
    assert by_name["figure7"]["title"].startswith("Figure 7")
    assert by_name["figure7"]["matrix"]["designs"] == [
        "unsafe-baseline", "cassandra", "cassandra+stl", "spt"
    ]
    assert by_name["table2"]["needs_artifacts"] is False
    # The interrupt study's flush override shows up as an extend block.
    assert by_name["interrupts"]["matrix"]["extend"][0]["flush_intervals"] == [2000]
    # Figure 8 pins its own (synthetic) workload axis.
    assert by_name["figure8"]["matrix"]["workloads"] != "pipeline-default"


def test_unknown_experiment_errors(capsys):
    assert main(["figure99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_unknown_experiment_suggests_close_match(capsys):
    """A typo exits 2 with a did-you-mean drawn from the registry."""
    assert main(["figur7"]) == 2
    err = capsys.readouterr().err
    assert "did you mean 'figure7'?" in err
    assert main(["tabel1"]) == 2
    assert "did you mean 'table1'?" in capsys.readouterr().err


def test_version_flag(capsys):
    from repro import __version__

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert f"repro {__version__}" in capsys.readouterr().out


def test_remote_backend_requires_connect(capsys):
    assert main(["table2", "--backend", "remote"]) == 2
    assert "--connect" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, env",
    [(["--usage-window", "0"], None), (["--usage-window", "-60"], None), ([], "0")],
    ids=["flag-zero", "flag-negative", "env-zero"],
)
def test_gateway_rejects_a_non_positive_usage_window(
    capsys, tmp_path, monkeypatch, flags, env
):
    """A window of zero or less would match no ledger rows and so quietly
    switch the points-per-day quota off; ``REPRO_GATEWAY_USAGE_WINDOW=0``
    must not become the one-day default either.  Both exit 2 with one line
    before touching the state dir."""
    if env is not None:
        monkeypatch.setenv("REPRO_GATEWAY_USAGE_WINDOW", env)
    state_dir = tmp_path / "state"
    assert main(["gateway", "--state-dir", str(state_dir), *flags]) == 2
    err = capsys.readouterr().err
    assert "usage window must be positive" in err and len(err.splitlines()) == 1
    assert not state_dir.exists()


def test_unknown_experiment_errors_even_with_all(capsys):
    """A typo must not vanish silently into the 'all' selection."""
    assert main(["all", "figure99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_unknown_backend_errors():
    with pytest.raises(SystemExit):
        main(["table2", "--backend", "teleport"])


def test_deleted_engine_tier_is_rejected(capsys):
    """``--engine-tier columns`` names the deleted NumPy tier: usage error."""
    with pytest.raises(SystemExit) as excinfo:
        main(["--engine-tier", "columns"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'columns'" in capsys.readouterr().err


def test_direct_module_invocation_still_works():
    """python -m repro.experiments.table2 re-registers its spec (idempotent)."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, "-m", "repro.experiments.table2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr
    assert "BR1 -> R1" in completed.stdout


def test_unknown_workload_errors(capsys):
    assert main(["table1", "--workloads", "NoSuchKernel"]) == 2
    assert "unknown workload" in capsys.readouterr().err


@pytest.mark.parametrize("selector", ["", ",", " , "])
def test_empty_workload_selection_errors(capsys, selector):
    """An empty selection is a usage error, not a table over no workloads."""
    assert main(["figure7", "--workloads", selector]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:")


def test_repeated_workload_names_collapse():
    from repro.crypto.workloads import resolve_workload_names

    assert resolve_workload_names("SHA-256,SHA-256") == ["SHA-256"]
    assert resolve_workload_names("SHA-256, ChaCha20_ct,SHA-256") == ["SHA-256", "ChaCha20_ct"]


def test_table2_json_output(capsys):
    assert main(["table2", "--format", "json", "--no-cache"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["experiments"]["table2"]) == 8
    assert all("leaks_cassandra" in row for row in payload["experiments"]["table2"])
    assert payload["stats"]["points_simulated"] == 0


@pytest.fixture()
def trace_counter(monkeypatch):
    """Counts how many times trace generation actually runs."""
    calls = []
    original = runner_module.generate_trace_bundle

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(runner_module, "generate_trace_bundle", counting)
    return calls


def test_multi_experiment_run_prepares_each_workload_once(capsys, trace_counter):
    """Three artifact-consuming experiments share one preparation pass."""
    code = main([
        "table1", "trace-runtime", "figure9",
        "--workloads", "ChaCha20_ct",
        "--no-cache", "--jobs", "1", "--format", "json",
    ])
    assert code == 0
    assert len(trace_counter) == 1  # sequential execution + tracing ran once
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["experiments"]) == {"table1", "trace-runtime", "figure9"}
    assert payload["stats"]["prepared"] == 1
    # figure9 needed unsafe-baseline + cassandra on the single workload.
    assert payload["stats"]["points_simulated"] == 2


def test_overlapping_experiments_simulate_shared_points_once(capsys, trace_counter):
    """figure7 ⊇ figure9 ∪ cassandra-lite designs: the union dedups them.

    figure7 (4 designs), figure9 (2 of them), and cassandra-lite (the same
    2 plus cassandra-lite) overlap heavily; the prefetch union must
    simulate each distinct (workload × design) point exactly once — 5
    points, not 4 + 2 + 3.
    """
    code = main([
        "figure7", "figure9", "cassandra-lite",
        "--workloads", "ChaCha20_ct",
        "--no-cache", "--jobs", "1", "--format", "json",
    ])
    assert code == 0
    assert len(trace_counter) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["stats"]["points_simulated"] == 5


def test_backend_flag_smoke(capsys):
    """Every backend answers the same experiment with the same table."""
    outputs = {}
    for backend in ("serial", "fork", "shard"):
        code = main([
            "figure9",
            "--workloads", "ChaCha20_ct",
            "--no-cache", "--jobs", "2", "--backend", backend,
        ])
        assert code == 0
        outputs[backend] = capsys.readouterr().out
    assert outputs["serial"] == outputs["fork"] == outputs["shard"]


def test_warm_cache_run_skips_all_heavy_work(capsys, tmp_path, trace_counter):
    cache_dir = str(tmp_path / "cli-cache")
    argv = [
        "trace-runtime", "figure9",
        "--workloads", "ChaCha20_ct",
        "--cache-dir", cache_dir, "--jobs", "1",
    ]
    assert main(argv) == 0
    cold_out = capsys.readouterr().out
    assert len(trace_counter) == 1

    assert main(argv) == 0
    warm_out = capsys.readouterr().out
    assert len(trace_counter) == 1  # nothing re-traced on the warm run
    assert warm_out == cold_out  # identical reproduced tables


def test_python_tier_run_starts_no_compiler(capsys, monkeypatch):
    """Neither the run nor its --stats line probes a C compiler."""
    from repro.engine import native
    from repro.engine.kernels import TIER_ENV

    probes = []
    monkeypatch.setenv(TIER_ENV, "python")
    monkeypatch.setattr(native, "_TOOLCHAINS", {})
    monkeypatch.setattr(native, "_probe_compiler", lambda path: probes.append(path))
    argv = ["--workloads", "Poly1305_ctmul", "--no-cache", "--jobs", "1"]
    assert main(["all", *argv, "--stats"]) == 0
    assert "points simulated" in capsys.readouterr().err
    assert main(["figure9", *argv, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["stats"]["native_compiler"] is None
    assert probes == []


def test_quick_suite_writes_only_into_its_cache_dir(tmp_path):
    """A cold and then a warm ``repro all --workloads quick`` on the fork
    backend write nothing outside ``$REPRO_CACHE_DIR``: HOME, TMPDIR and the
    working directory, each an empty directory, stay empty after each run."""
    import os
    import subprocess
    import sys

    import repro

    dirs = {name: tmp_path / name for name in ("home", "tmp", "work", "cache")}
    for path in dirs.values():
        path.mkdir()
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    # No inherited REPRO_* setting (tier, fault plan, cache) may steer the run.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        HOME=str(dirs["home"]),
        TMPDIR=str(dirs["tmp"]),
        REPRO_CACHE_DIR=str(dirs["cache"]),
        PYTHONPATH=os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        ),
    )
    argv = [sys.executable, "-m", "repro", "all", "--workloads", "quick",
            "--backend", "fork", "--jobs", "2"]
    for run in ("cold", "warm"):
        completed = subprocess.run(
            argv, cwd=dirs["work"], env=env, capture_output=True, text=True
        )
        assert completed.returncode == 0, (run, completed.stderr)
        assert {
            name: sorted(os.listdir(path)) for name, path in dirs.items() if name != "cache"
        } == {"home": [], "tmp": [], "work": []}, run
        assert os.listdir(dirs["cache"]), run
