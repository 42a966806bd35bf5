"""Static analysis + compilability of the generated C kernel sources.

Mirrors ``test_kernel_codegen.py`` for the native tier's emitter:

* **golden snapshots** — the same eight representative corners rendered to C
  and pinned byte-for-byte (``tests/engine/golden/<name>.c.txt``; regenerate
  with ``PYTHONPATH=src:tests python -m engine.golden_cases``);
* **full-product emit** — every variant of the policy family × config ×
  flush × residency × elide × stats product must render (this leg needs no
  compiler, so it also guards the stdlib-only environments);
* **full-product syntax sweep** — the unique translation units of that
  product must pass ``cc -fsyntax-only`` (the parity suite exercises real
  compiles; this pins the long tail of variants no fuzz case selects);
* the **degraded path** (an unresolvable ``REPRO_NATIVE_CC`` must disable
  the tier without raising) and the ``clear_kernel_cache`` chain;
* the **kernel index** — warm lookups never render, a code edit re-renders
  without recompiling, stale and corrupt entries recover, concurrent
  writers merge, and native artifacts land under the service's
  ``cache_dir``.
"""

import os
import subprocess
import sys

import pytest

from engine.golden_cases import GOLDEN_CASES, GOLDEN_DIR, render_c_case
from engine.test_kernel_codegen import CONFIGS, SPECS, _variants
from repro.engine import native
from repro.engine.emit import c as emit_c
from repro.engine.emit.c import ARG, c_kernel_source, source_digest
from repro.engine.batch import BatchStats, PointSpec, simulate_batch
from repro.engine.kernels import TIER_ENV, clear_kernel_cache, get_kernel
from repro.experiments.runner import DESIGN_BUILDERS
from repro.pipeline import hashing
from repro.pipeline.artifacts import CACHE_DIR_ENV
from repro.uarch.config import GOLDEN_COVE_LIKE

needs_compiler = pytest.mark.skipif(
    not native.compiler_available(), reason="no working C toolchain"
)


def _render(spec, config, flush, ic, dc, elide, stats):
    return c_kernel_source(
        spec,
        config,
        flush_active=flush,
        icache_resident=ic,
        dcache_resident=dc,
        btu_elide=elide,
        collect_stats=not stats,
    )


def test_every_variant_renders():
    count = 0
    for sname, spec, cname, config, flush, ic, dc, elide, stats in _variants():
        source = _render(spec, config, flush, ic, dc, elide, stats)
        label = f"{sname}/{cname} flush={flush} ic={ic} dc={dc} elide={elide}"
        assert "int64_t kernel(int64_t *a)" in source, label
        assert source.count("int64_t kernel") == 1, label
        count += 1
    # Same coverage claim as the python sweep: a silent shrink of the
    # variant product should fail loudly.
    assert count == (3 * 24 + 4 * 16) * len(CONFIGS)


@needs_compiler
def test_every_variant_syntax_checks(tmp_path):
    # Distinct variants can fold to identical translation units (e.g. the
    # flush axis is forced off for non-traced specs), so the compiler only
    # sees each unique source once.
    unique = {}
    for _sname, spec, _cname, config, flush, ic, dc, elide, stats in _variants():
        source = _render(spec, config, flush, ic, dc, elide, stats)
        unique.setdefault(source_digest(source), source)
    paths = []
    for i, source in enumerate(unique.values()):
        path = tmp_path / f"k{i}.c"
        path.write_text(source)
        paths.append(str(path))
    toolchain = native.find_toolchain()
    for start in range(0, len(paths), 64):
        chunk = paths[start : start + 64]
        proc = subprocess.run(
            [toolchain.path, "-fsyntax-only", "-w", *chunk],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("sname", ["unsafe", "spt", "prospect", "cassandra-lite"])
def test_dead_policy_code_is_absent(sname):
    spec = SPECS[sname]
    source = c_kernel_source(spec, GOLDEN_COVE_LIKE, flush_active=False)
    if spec.kind == "bpu":
        for needle in ("plan_cls", "btu_pos", "n_integrity"):
            assert needle not in source, (sname, needle)
    if spec.lite:
        assert "tgt_off" not in source
        assert "tgt_data" not in source
    if not spec.gate_mask:
        assert "window_resolve_cycle > ready" not in source
    if spec.allow_store_forwarding:
        assert "n_stl_blocked" not in source
    else:
        assert "n_forwards" not in source


def test_residency_deletes_cache_models():
    spec = SPECS["unsafe"]
    full = c_kernel_source(spec, GOLDEN_COVE_LIKE, flush_active=False)
    resident = c_kernel_source(
        spec,
        GOLDEN_COVE_LIKE,
        flush_active=False,
        icache_resident=True,
        dcache_resident=True,
    )
    for needle in ("seg_find(l1i", "seg_find(l1d", "l2_set", "l3_set"):
        assert needle in full
        assert needle not in resident
    # The residency-proved variants still zero their miss counter slots.
    assert f"a[{ARG['counter_l1i_miss']}] = 0;" in resident
    assert f"a[{ARG['counter_l1d_miss']}] = 0;" in resident


def test_warm_variant_drops_counter_writes():
    warm = c_kernel_source(
        SPECS["cassandra"], GOLDEN_COVE_LIKE, flush_active=False, collect_stats=False
    )
    stats = c_kernel_source(SPECS["cassandra"], GOLDEN_COVE_LIKE, flush_active=False)
    for name in ("counter_cycles", "counter_squash_cycles", "counter_btu_misses"):
        slot = f"a[{ARG[name]}] ="
        assert slot in stats, name
        assert slot not in warm, name
    # ... but keeps the persistent-state writebacks the next pass chains on.
    for name in ("history", "btb_head", "rsb_head", "loop_n"):
        assert f"a[{ARG[name]}] =" in warm, name


def test_source_digest_tracks_abi_and_content():
    a = c_kernel_source(SPECS["unsafe"], GOLDEN_COVE_LIKE, flush_active=False)
    b = c_kernel_source(SPECS["cassandra"], GOLDEN_COVE_LIKE, flush_active=False)
    assert source_digest(a) == source_digest(a)
    assert source_digest(a) != source_digest(b)


def test_degraded_path_without_compiler(monkeypatch):
    monkeypatch.setenv(native.TOOLCHAIN_ENV, "/nonexistent/cc")
    assert native.find_toolchain() is None
    assert not native.compiler_available()
    kernel = native.get_native_kernel(
        SPECS["unsafe"], GOLDEN_COVE_LIKE, flush_active=False
    )
    assert kernel is None
    assert native.last_error


@needs_compiler
def test_native_kernel_memo_and_artifact_cache(tmp_path, monkeypatch):
    clear_kernel_cache()
    before = native.compile_count
    first = native.get_native_kernel(
        SPECS["unsafe"], GOLDEN_COVE_LIKE, flush_active=False, cache_dir=str(tmp_path)
    )
    assert first is not None
    assert native.compile_count == before + 1
    # Same point again: served from the in-process memo, no new compile.
    again = native.get_native_kernel(
        SPECS["unsafe"], GOLDEN_COVE_LIKE, flush_active=False, cache_dir=str(tmp_path)
    )
    assert again is first
    assert native.compile_count == before + 1
    # Memo cleared but the .so bytes are still content-addressed on disk:
    # the reload counts as a cache hit, not a compile.
    hits = native.cache_hits
    native.clear_native_memo()
    warm = native.get_native_kernel(
        SPECS["unsafe"], GOLDEN_COVE_LIKE, flush_active=False, cache_dir=str(tmp_path)
    )
    assert warm is not None
    assert native.compile_count == before + 1
    assert native.cache_hits == hits + 1


def test_clear_kernel_cache_chains_every_layer():
    from repro.engine import ir, kernels

    get_kernel(SPECS["unsafe"], GOLDEN_COVE_LIKE, flush_active=False)
    emit_c.build_c_kernel_ir(SPECS["unsafe"], GOLDEN_COVE_LIKE)
    native._KERNEL_MEMO[("sentinel",)] = None
    native._INDEX[("sentinel-root", "sentinel-digest")] = {}
    assert kernels._KERNEL_CACHE and ir._IR_CACHE and emit_c._C_IR_CACHE
    clear_kernel_cache()
    assert not kernels._KERNEL_CACHE
    assert not ir._IR_CACHE
    assert not emit_c._C_IR_CACHE
    assert not native._KERNEL_MEMO
    assert not native._INDEX


# --------------------------------------------------------------------------- #
# The kernel index
# --------------------------------------------------------------------------- #
def _fresh_process(monkeypatch):
    """Forget every in-process native layer, as a new process would."""
    native.clear_native_memo()
    monkeypatch.setattr(native, "_LOADED", {})
    monkeypatch.setattr(native, "_LIBS", {})
    monkeypatch.setattr(native, "_ARTIFACTS", {})


@pytest.fixture()
def native_cache(tmp_path, monkeypatch):
    """The kernel directory of an empty artifact cache, seen from a fresh
    process.  Lookups name its root; ``$REPRO_CACHE_DIR`` must stay unused."""
    root = tmp_path / "cache"
    ambient = tmp_path / "ambient"
    monkeypatch.setenv(CACHE_DIR_ENV, str(ambient))
    _fresh_process(monkeypatch)
    yield root / "v1" / native.ARTIFACT_KIND
    native.clear_native_memo()
    assert not ambient.exists()


def _cache_root(kernel_dir):
    return str(kernel_dir.parent.parent)


def _index_files(kernel_dir):
    return sorted(
        p for p in kernel_dir.iterdir()
        if p.name.startswith(native.INDEX_NAME + "-") and p.suffix == ".pkl"
    )


def _so_files(kernel_dir):
    return sorted(
        p for p in kernel_dir.iterdir()
        if not p.name.startswith(native.INDEX_NAME + "-") and p.suffix == ".pkl"
    )


def _lookup(kernel_dir):
    return native.get_native_kernel(
        SPECS["unsafe"], GOLDEN_COVE_LIKE, flush_active=False,
        cache_dir=_cache_root(kernel_dir),
    )


def _counts():
    return native.render_count, native.compile_count


def _run_native(execution, bundle, monkeypatch, kernel_dir):
    """Every design on the toy program, natively; returns per-point stats."""
    points = [PointSpec(policy=build(bundle)) for build in DESIGN_BUILDERS.values()]
    monkeypatch.setenv(TIER_ENV, "native")
    stats = BatchStats()
    results = simulate_batch(
        execution, bundle, points, batch_stats=stats, cache_dir=_cache_root(kernel_dir)
    )
    assert stats.native_points == len(points), native.last_error
    return [sim.stats.as_dict() for sim in results]


def _run_python(execution, bundle, monkeypatch):
    points = [PointSpec(policy=build(bundle)) for build in DESIGN_BUILDERS.values()]
    monkeypatch.setenv(TIER_ENV, "python")
    return [sim.stats.as_dict() for sim in simulate_batch(execution, bundle, points)]


@needs_compiler
def test_warm_lookup_never_renders(native_cache, monkeypatch, toy_execution, toy_bundle):
    cold = _run_native(toy_execution, toy_bundle, monkeypatch, native_cache)
    assert len(_index_files(native_cache)) == 1
    _fresh_process(monkeypatch)

    def no_render(*args, **kwargs):
        raise AssertionError("a warm kernel lookup rendered C")

    monkeypatch.setattr(native, "c_kernel_source", no_render)
    before, hits = _counts(), native.cache_hits
    warm = _run_native(toy_execution, toy_bundle, monkeypatch, native_cache)
    assert _counts() == before
    assert native.cache_hits > hits
    assert warm == cold == _run_python(toy_execution, toy_bundle, monkeypatch)


@needs_compiler
def test_code_edit_rerenders_without_recompiling(native_cache, monkeypatch):
    assert _lookup(native_cache) is not None
    renders, compiles = _counts()
    _fresh_process(monkeypatch)
    monkeypatch.setattr(hashing, "code_fingerprint", lambda: "edited-source-tree")
    hits = native.cache_hits
    assert _lookup(native_cache) is not None
    assert _counts() == (renders + 1, compiles)
    assert native.cache_hits == hits + 1
    # One index per code fingerprint; the .so stays content-addressed.
    assert len(_index_files(native_cache)) == 2
    assert len(_so_files(native_cache)) == 1


@needs_compiler
def test_index_entry_for_missing_so_recompiles(
    native_cache, monkeypatch, toy_execution, toy_bundle
):
    _run_native(toy_execution, toy_bundle, monkeypatch, native_cache)
    for path in _so_files(native_cache):
        path.unlink()
    _fresh_process(monkeypatch)
    renders, compiles = _counts()
    native_stats = _run_native(toy_execution, toy_bundle, monkeypatch, native_cache)
    assert native.render_count > renders
    assert native.compile_count > compiles
    assert native_stats == _run_python(toy_execution, toy_bundle, monkeypatch)


@needs_compiler
def test_corrupt_index_is_quarantined(native_cache, monkeypatch):
    assert _lookup(native_cache) is not None
    (index,) = _index_files(native_cache)
    index.write_bytes(b"not a pickle")
    _fresh_process(monkeypatch)
    renders, compiles = _counts()
    kernel = _lookup(native_cache)
    assert kernel is not None
    assert _counts() == (renders + 1, compiles)
    assert index.with_name(index.name + ".corrupt").exists()
    # The re-render rewrote a readable index: the next process skips it.
    _fresh_process(monkeypatch)
    assert _lookup(native_cache).digest == kernel.digest
    assert _counts() == (renders + 1, compiles)


_WRITER = """
import sys
from repro.engine import native
artifacts = native._artifact_cache(sys.argv[1])
for i in range(int(sys.argv[3])):
    native._record_index(artifacts, "merge-test", (sys.argv[2], i), f"{sys.argv[2]}{i}")
"""


def test_concurrent_index_writers_merge(tmp_path):
    root = str(tmp_path)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    writers = [
        subprocess.Popen([sys.executable, "-c", _WRITER, root, name, "40"], env=env)
        for name in ("a", "b")
    ]
    assert [writer.wait() for writer in writers] == [0, 0]
    native.clear_native_memo()
    merged = native._read_index(native._artifact_cache(root), "merge-test")
    assert merged == {
        (name, i): f"{name}{i}" for name in ("a", "b") for i in range(40)
    }


@needs_compiler
@pytest.mark.parametrize("backend", ["serial", "fork", "shard"])
def test_native_artifacts_honour_cache_dir(tmp_path, monkeypatch, backend):
    from repro.api import ScenarioMatrix, build_service

    chosen, ambient = tmp_path / "chosen", tmp_path / "ambient"
    monkeypatch.setenv(CACHE_DIR_ENV, str(ambient))
    monkeypatch.setenv(TIER_ENV, "native")
    _fresh_process(monkeypatch)
    try:
        with build_service(
            workloads="ChaCha20_ct", cache_dir=str(chosen), backend=backend, jobs=2
        ) as service:
            service.run(ScenarioMatrix(designs=("cassandra", "spt")))
    finally:
        native.clear_native_memo()
    kernel_dir = chosen / "v1" / native.ARTIFACT_KIND
    assert _index_files(kernel_dir) and _so_files(kernel_dir)
    assert not ambient.exists()


@needs_compiler
def test_no_cache_run_writes_no_native_kernel(tmp_path):
    """``--no-cache`` keeps compiled kernels in memory: neither the default
    cache root nor ``$HOME`` gains a file."""
    home, root, scratch = tmp_path / "home", tmp_path / "cache", tmp_path / "tmp"
    for directory in (home, root, scratch):
        directory.mkdir()
    env = dict(
        os.environ,
        HOME=str(home),
        TMPDIR=str(scratch),
        PYTHONPATH=os.pathsep.join(sys.path),
        **{CACHE_DIR_ENV: str(root)},
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "figure7", "--workloads", "Poly1305_ctmul",
         "--no-cache", "--engine-tier", "native", "--stats"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    # The kernels were compiled and loaded (from the process's temp dir).
    assert list(scratch.rglob("*.so"))
    assert list(home.rglob("*")) == []
    assert list(root.rglob("*")) == []


# --------------------------------------------------------------------------- #
# Golden snapshots
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_c_golden_snapshot(name):
    path = GOLDEN_DIR / f"{name}.c.txt"
    assert path.exists(), (
        f"missing snapshot {path}; regenerate with "
        "PYTHONPATH=src:tests python -m engine.golden_cases"
    )
    assert render_c_case(name) == path.read_text(), (
        f"C kernel codegen drifted for {name!r}; if intentional, regenerate "
        "snapshots with PYTHONPATH=src:tests python -m engine.golden_cases"
    )
