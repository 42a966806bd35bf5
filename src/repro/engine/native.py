"""The native execution tier: compiled C kernels behind the python-kernel ABI.

This module owns everything between :mod:`repro.engine.emit.c` (which renders
one self-contained C translation unit per specialization point) and the batch
layer's kernel call sites:

* **Toolchain discovery** — ``$REPRO_NATIVE_CC`` if set, else the first of
  ``cc`` / ``gcc`` / ``clang`` that can actually produce a loadable shared
  object (probed once per environment value with a trivial test kernel).  No
  working compiler means :func:`get_native_kernel` returns ``None`` and the
  batch layer silently stays on the python kernels.
* **Compiled-artifact caching** — each kernel's ``.so`` bytes are
  content-addressed in the pipeline's :class:`~repro.pipeline.artifacts
  .ArtifactCache` under kind ``native-kernel``, keyed on (source digest ×
  toolchain fingerprint × compiler flags).  Finding that digest would mean
  rendering the C unit, so lookups go through a *kernel index* first: one
  entry per (C ABI × :func:`~repro.pipeline.hashing.code_fingerprint` ×
  toolchain × flags), next to the ``.so`` files, mapping each render key —
  the plain values :func:`~repro.engine.emit.c.c_kernel_source` depends on
  — to its artifact digest.  An index hit loads the ``.so`` with no
  render; only a miss renders, digests, loads or compiles, and merges its
  entry into the on-disk index.  Warm runs neither render nor compile:
  the bytes are materialized into a per-process directory and
  ``dlopen``-ed.  :data:`compile_count` / :data:`compile_seconds` /
  :data:`cache_hits` / :data:`render_count` expose the split to the batch
  stats and benchmarks.  The cache root is the ``cache_dir`` the caller
  passes (the pipeline's, for ``--cache-dir``); without one (``--no-cache``)
  kernels live in a memory-only cache for the life of the process.
* **The session bridge** — a compiled kernel is one call
  ``int64_t kernel(int64_t *a)`` over machine addresses
  (:data:`repro.engine.emit.c.ARG_SLOTS`).  :class:`NativeKernel` presents
  the exact python-kernel calling convention
  ``kernel(trace, state, rows, crypto_pcs, plan_cls, plan_stp, interval)``:
  the first call on a :class:`~repro.engine.state.FlatState` packs its
  containers into C-friendly buffers (a *session*, parked on
  ``state.native_session``), warm-up calls chain over the same session
  without any Python-side round trip (the kernels write their persistent
  scalars back into the argument vector), and the stats call unpacks
  everything into the state's dicts/lists, returns the
  :data:`~repro.engine.kernels.DYNAMIC_COUNTERS` dict, and closes the
  session.  ``ReplayMismatchError`` comes back as a nonzero return code and
  is re-raised with byte-identical messages.

Per-trace immutable payloads (columns converted to ``array('q')``, the
flattened BTU replay tables, dense per-PC plan tables) are memoized per
``LoweredTrace`` identity with a ``weakref.finalize`` cleanup, and the large
garbage-tolerant scratch buffers (L2/L3 way tables, the issue-port hash) are
pooled across sessions, so per-point setup cost is proportional to occupied
state, not geometry.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import time
import weakref
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine.emit.c import (
    ARG,
    ARG_SLOTS,
    C_ABI_VERSION,
    C_FLAGS,
    c_kernel_source,
    source_digest,
)
from repro.engine.kernels import DYNAMIC_COUNTERS
from repro.uarch.config import CoreConfig
from repro.uarch.defenses.base import EnginePolicySpec
from repro.uarch.defenses.cassandra import ReplayMismatchError

#: Overrides toolchain discovery with an explicit compiler path/name.  An
#: unresolvable value (``REPRO_NATIVE_CC=/nonexistent``) disables the tier —
#: which is exactly how the degraded-path tests simulate "no compiler".
TOOLCHAIN_ENV = "REPRO_NATIVE_CC"

#: ArtifactCache kind under which compiled ``.so`` bytes are stored.
ARTIFACT_KIND = "native-kernel"

#: Compilers probed, in order, when ``REPRO_NATIVE_CC`` is unset.
DEFAULT_COMPILERS = ("cc", "gcc", "clang")

#: ArtifactCache name of the kernel index entries (see the module docstring).
INDEX_NAME = "index"

#: Kernels compiled (not served from the artifact cache) by this process.
compile_count = 0
#: C units rendered by this process — kernel-index misses only.
render_count = 0
#: Wall-clock seconds spent inside the C compiler by this process.
compile_seconds = 0.0
#: Compiled kernels served warm — from the artifact cache or the in-process
#: loaded-library table — without invoking the compiler.
cache_hits = 0

#: The last toolchain/compile failure, for operators debugging a silent
#: fallback (``repro.engine.native.last_error``).
last_error: Optional[str] = None

_PROBE_SOURCE = """\
#include <stdint.h>
int64_t kernel(int64_t *a) { return a[0]; }
"""


class NativeCompileError(RuntimeError):
    """A toolchain invocation failed (callers observe ``None``, not this)."""


# --------------------------------------------------------------------------- #
# Toolchain discovery
# --------------------------------------------------------------------------- #
class Toolchain:
    """One probed, working C compiler."""

    __slots__ = ("path", "fingerprint")

    def __init__(self, path: str, fingerprint: str) -> None:
        self.path = path
        self.fingerprint = fingerprint


#: Probe results keyed by the ``REPRO_NATIVE_CC`` value in effect (``""`` for
#: unset), so tests can flip the environment without clearing caches.
_TOOLCHAINS: Dict[str, Optional[Toolchain]] = {}


def _probe_compiler(path: str) -> Optional[Toolchain]:
    """Compile + load a trivial kernel; return a fingerprint on success."""
    global last_error
    tmpdir = tempfile.mkdtemp(prefix="repro-native-probe-")
    try:
        c_path = os.path.join(tmpdir, "probe.c")
        so_path = os.path.join(tmpdir, "probe.so")
        with open(c_path, "w") as handle:
            handle.write(_PROBE_SOURCE)
        proc = subprocess.run(
            [path, *C_FLAGS, "-o", so_path, c_path],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        if proc.returncode != 0:
            last_error = (
                f"probe compile failed for {path!r}: "
                + proc.stderr.decode(errors="replace").strip()
            )
            return None
        lib = ctypes.CDLL(so_path)
        lib.kernel  # the symbol must resolve
        version = subprocess.run(
            [path, "--version"], stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        first_line = version.stdout.decode(errors="replace").splitlines()
        fingerprint = f"{os.path.realpath(path)}|{first_line[0] if first_line else ''}"
        return Toolchain(path, fingerprint)
    except OSError as exc:
        last_error = f"probe failed for {path!r}: {exc}"
        return None
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def find_toolchain() -> Optional[Toolchain]:
    """The working compiler for the current environment, probed once."""
    global last_error
    env = os.environ.get(TOOLCHAIN_ENV, "").strip()
    if env in _TOOLCHAINS:
        return _TOOLCHAINS[env]
    toolchain: Optional[Toolchain] = None
    candidates = (env,) if env else DEFAULT_COMPILERS
    probed = False
    for candidate in candidates:
        path = shutil.which(candidate)
        if path is None:
            continue
        probed = True
        toolchain = _probe_compiler(path)
        if toolchain is not None:
            break
    if toolchain is None and not probed:
        last_error = f"no C compiler resolves (candidates: {', '.join(candidates)})"
    _TOOLCHAINS[env] = toolchain
    return toolchain


def compiler_available() -> bool:
    """Whether the native tier can run here (a probed, working compiler)."""
    return find_toolchain() is not None


def probed_compiler() -> Optional[bool]:
    """:func:`compiler_available` as far as this process already probed it
    for the current environment; ``None`` if it has not (nothing is run)."""
    env = os.environ.get(TOOLCHAIN_ENV, "").strip()
    if env not in _TOOLCHAINS:
        return None
    return _TOOLCHAINS[env] is not None


# --------------------------------------------------------------------------- #
# Compile + artifact cache + load
# --------------------------------------------------------------------------- #
#: Artifact caches by root directory (``None``: the memory-only cache).
_ARTIFACTS: Dict[Optional[str], Any] = {}

#: Loaded kernel entry points by artifact digest (the ``CDLL`` objects are
#: pinned in ``_LIBS`` — a collected library would leave dangling pointers).
_LOADED: Dict[str, Callable] = {}
_LIBS: Dict[str, ctypes.CDLL] = {}
_SO_DIR: Optional[str] = None

#: ``NativeKernel`` instances (or ``None`` for a memoized failure) keyed on
#: the render key plus the toolchain fingerprint.
_KERNEL_MEMO: Dict[Tuple, Optional["NativeKernel"]] = {}

#: Kernel-index entries (render key → artifact digest) as this process last
#: read or wrote them, by (cache root, index digest).
_INDEX: Dict[Tuple[Optional[str], str], Dict[Tuple, str]] = {}


def _artifact_cache(root: Optional[str] = None):
    """The kernel cache under ``root``; memory-only when ``root`` is None,
    so a run without an artifact cache leaves no kernel on disk."""
    # Imported lazily: repro.pipeline pulls in the experiment runner, which
    # imports the batch layer, which imports this module.
    from repro.pipeline.artifacts import ArtifactCache

    cache = _ARTIFACTS.get(root)
    if cache is None:
        cache = _ARTIFACTS[root] = ArtifactCache(root=root)
    return cache


def _artifact_digest(source: str, toolchain: Toolchain) -> str:
    h = hashlib.sha256()
    h.update(source_digest(source).encode())
    h.update(b"\x00")
    h.update(toolchain.fingerprint.encode())
    h.update(b"\x00")
    h.update(" ".join(C_FLAGS).encode())
    return h.hexdigest()


# --------------------------------------------------------------------------- #
# The kernel index: render key → artifact digest, without rendering
# --------------------------------------------------------------------------- #
def _index_digest(toolchain: Toolchain) -> str:
    """One index per (C ABI × code fingerprint × toolchain × flags).

    The code fingerprint covers the emitter and the IR, so any ``.py`` edit
    starts a fresh index: one re-render per kernel, but no recompile while
    the rendered unit (and so its ``.so`` digest) is unchanged.
    """
    from repro.pipeline import hashing

    return hashing.stable_digest(
        C_ABI_VERSION, hashing.code_fingerprint(), toolchain.fingerprint, C_FLAGS
    )


def _read_index(artifacts, digest: str) -> Dict[Tuple, str]:
    # A corrupt entry is quarantined by the cache and reads as a miss.
    entries = artifacts.reload(ARTIFACT_KIND, INDEX_NAME, digest)
    return dict(entries) if isinstance(entries, dict) else {}


def _index(artifacts, digest: str) -> Dict[Tuple, str]:
    key = (artifacts.root, digest)
    entries = _INDEX.get(key)
    if entries is None:
        entries = _INDEX[key] = _read_index(artifacts, digest)
    return entries


@contextlib.contextmanager
def _index_lock(artifacts, digest: str):
    """Serialize read-merge-write of one index across processes."""
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX: merges may race
        yield
        return
    path = artifacts.path_for(ARTIFACT_KIND, INDEX_NAME, digest) + ".lock"
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "a") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        yield


def _record_index(artifacts, digest: str, render_key: Tuple, artifact: str) -> None:
    """Merge one entry into the on-disk index and write it back atomically.

    Best effort: an unwritable cache only costs later processes a render.
    """
    entries = _index(artifacts, digest)
    entries[render_key] = artifact
    if artifacts.root is None:
        return
    try:
        with _index_lock(artifacts, digest):
            merged = _read_index(artifacts, digest)
            merged.update(entries)
            artifacts.put(ARTIFACT_KIND, INDEX_NAME, digest, merged)
    except OSError:
        return
    _INDEX[(artifacts.root, digest)] = dict(merged)


# --------------------------------------------------------------------------- #
# Compile + load
# --------------------------------------------------------------------------- #
def _compile_so(source: str, toolchain: Toolchain) -> bytes:
    tmpdir = tempfile.mkdtemp(prefix="repro-native-cc-")
    try:
        c_path = os.path.join(tmpdir, "kernel.c")
        so_path = os.path.join(tmpdir, "kernel.so")
        with open(c_path, "w") as handle:
            handle.write(source)
        proc = subprocess.run(
            [toolchain.path, *C_FLAGS, "-o", so_path, c_path],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        if proc.returncode != 0:
            raise NativeCompileError(
                proc.stderr.decode(errors="replace").strip() or "compiler failed"
            )
        with open(so_path, "rb") as handle:
            return handle.read()
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _so_dir() -> str:
    global _SO_DIR
    if _SO_DIR is None:
        _SO_DIR = tempfile.mkdtemp(prefix="repro-native-so-")
    return _SO_DIR


def _load_kernel(digest: str, so_bytes: bytes) -> Callable:
    path = os.path.join(_so_dir(), digest + ".so")
    if not os.path.exists(path):
        temp_path = f"{path}.{os.getpid()}.tmp"
        with open(temp_path, "wb") as handle:
            handle.write(so_bytes)
        os.replace(temp_path, path)
    lib = ctypes.CDLL(path)
    fn = lib.kernel
    fn.restype = ctypes.c_int64
    fn.argtypes = (ctypes.c_void_p,)
    _LIBS[digest] = lib
    _LOADED[digest] = fn
    return fn


def _load_cached(artifacts, kind: str, digest: str) -> Optional[Callable]:
    """The kernel for one artifact digest if already loaded or cached."""
    global cache_hits
    fn = _LOADED.get(digest)
    if fn is None:
        so_bytes = artifacts.get(ARTIFACT_KIND, kind, digest)
        if so_bytes is None:
            return None
        fn = _load_kernel(digest, so_bytes)
    cache_hits += 1
    return fn


def get_native_kernel(
    spec: EnginePolicySpec,
    config: CoreConfig,
    flush_active: bool,
    icache_resident: bool = False,
    dcache_resident: bool = False,
    btu_elide: bool = False,
    collect_stats: bool = True,
    cache_dir: Optional[str] = None,
) -> Optional["NativeKernel"]:
    """The compiled native kernel for one specialization point, or ``None``.

    ``None`` (memoized, so a point retries nothing) means the tier cannot
    serve this point — no working compiler, or the toolchain rejected the
    unit — and the caller should fall back to :func:`repro.engine.kernels
    .get_kernel`.  Warm process restarts pay one kernel-index lookup and one
    artifact-cache read per kernel, never a render or a compile.
    ``cache_dir`` is the artifact-cache root; ``None`` keeps the kernel
    in a memory-only cache, so nothing is written to disk.
    """
    global compile_count, compile_seconds, render_count, last_error
    toolchain = find_toolchain()
    if toolchain is None:
        return None
    render_key = (
        spec.kind,
        spec.gate_mask,
        bool(spec.allow_store_forwarding),
        bool(spec.lite),
        config.digest(),
        bool(flush_active),
        bool(icache_resident),
        bool(dcache_resident),
        bool(btu_elide),
        bool(collect_stats),
    )
    key = (render_key, toolchain.fingerprint)
    if key in _KERNEL_MEMO:
        return _KERNEL_MEMO[key]
    kernel: Optional[NativeKernel] = None
    try:
        artifacts = _artifact_cache(cache_dir)
        index = _index_digest(toolchain)
        digest = _index(artifacts, index).get(render_key)
        fn = None if digest is None else _load_cached(artifacts, spec.kind, digest)
        if fn is None:
            source = c_kernel_source(
                spec,
                config,
                flush_active,
                icache_resident=icache_resident,
                dcache_resident=dcache_resident,
                btu_elide=btu_elide,
                collect_stats=collect_stats,
            )
            render_count += 1
            digest = _artifact_digest(source, toolchain)
            fn = _load_cached(artifacts, spec.kind, digest)
            if fn is None:
                start = time.perf_counter()
                so_bytes = _compile_so(source, toolchain)
                compile_seconds += time.perf_counter() - start
                compile_count += 1
                artifacts.put(ARTIFACT_KIND, spec.kind, digest, so_bytes)
                fn = _load_kernel(digest, so_bytes)
            _record_index(artifacts, index, render_key, digest)
        kernel = NativeKernel(fn, spec, config, bool(collect_stats), digest)
    except (NativeCompileError, OSError) as exc:
        last_error = f"native kernel unavailable for {spec.kind}: {exc}"
        kernel = None
    _KERNEL_MEMO[key] = kernel
    return kernel


def counters_snapshot() -> Tuple[int, float, int]:
    """``(compile_count, compile_seconds, cache_hits)`` — for delta readers."""
    return (compile_count, compile_seconds, cache_hits)


def clear_native_memo() -> None:
    """Drop the per-process kernel memo, kernel-index memo, trace payloads,
    and scratch pools.

    Chained from :func:`repro.engine.kernels.clear_kernel_cache` so bench
    per-repetition timing exercises the whole pipeline.  Loaded libraries
    stay mapped (unloading shared objects is unsafe); re-resolving one counts
    as a :data:`cache_hits` warm hit, exactly like an artifact-cache read.
    """
    _KERNEL_MEMO.clear()
    _INDEX.clear()
    _TRACE_PAYLOADS.clear()
    _SCRATCH.clear()


# --------------------------------------------------------------------------- #
# Address helpers
# --------------------------------------------------------------------------- #
def _addr_of_array(arr: "array") -> int:
    return arr.buffer_info()[0]


def _addr_of_bytes(data: bytes) -> int:
    if not data:
        return 0
    return ctypes.cast(ctypes.c_char_p(data), ctypes.c_void_p).value or 0


def _addr_of_bytearray(data: bytearray, keep: List[Any]) -> int:
    if not data:
        return 0
    view = (ctypes.c_char * len(data)).from_buffer(data)
    keep.append(view)
    return ctypes.addressof(view)


# --------------------------------------------------------------------------- #
# Scratch pool (garbage-tolerant int64 buffers only)
# --------------------------------------------------------------------------- #
_SCRATCH: Dict[int, List["array"]] = {}
_SCRATCH_KEEP = 4


def _scratch_acquire(count: int) -> "array":
    count = max(count, 1)
    pool = _SCRATCH.get(count)
    if pool:
        return pool.pop()
    return array("q", bytes(8 * count))


def _scratch_release(arr: "array") -> None:
    pool = _SCRATCH.setdefault(len(arr), [])
    if len(pool) < _SCRATCH_KEEP:
        pool.append(arr)


# --------------------------------------------------------------------------- #
# Per-trace immutable payloads
# --------------------------------------------------------------------------- #
class _ReplayTables:
    """The flattened BTU replay payload for one ``btu_targets`` family."""

    __slots__ = (
        "targets",  # strong ref — keeps the id() key valid
        "tgt_off",
        "tgt_len",
        "tgt_data",
        "eid_data",
        "btu_long",
        "traced_pcs",
    )


class _TracePayload:
    """Everything immutable the sessions of one ``LoweredTrace`` share."""

    __slots__ = ("n", "num_regs", "max_pc", "cols", "plans", "replays", "ib_mask")


_TRACE_PAYLOADS: Dict[int, _TracePayload] = {}

#: Trace column name → argument-slot name.
_COLUMN_SLOTS = (
    ("pcs", "pcs"),
    ("next_pcs", "npcs"),
    ("mem", "mem"),
    ("bclass", "bcs"),
    ("dst", "dst"),
    ("src0", "src0"),
    ("src1", "src1"),
    ("src2", "src2"),
    ("flags", "flags"),
    ("lat_class", "lat_cls"),
)


def _trace_payload(trace) -> _TracePayload:
    key = id(trace)
    payload = _TRACE_PAYLOADS.get(key)
    if payload is not None:
        return payload
    payload = _TracePayload()
    payload.n = trace.n
    payload.num_regs = trace.num_regs
    payload.max_pc = trace.max_pc
    payload.cols = {
        slot: array("q", getattr(trace, attr)) for attr, slot in _COLUMN_SLOTS
    }
    # Open-addressed issue-port hash sized to load factor ≤ ½ (at most one
    # distinct issue cycle per instruction).
    limit = 2 * (trace.n + 2)
    payload.ib_mask = (1 << (limit - 1).bit_length()) - 1
    payload.plans = {}
    payload.replays = {}
    _TRACE_PAYLOADS[key] = payload
    weakref.finalize(trace, _TRACE_PAYLOADS.pop, key, None)
    return payload


def _plan_tables(
    payload: _TracePayload, plan_cls: bytes, plan_stp: Dict[int, int]
) -> Tuple[bytes, "array"]:
    """Dense single-target table for one (plan_cls, plan_stp) pair."""
    key = (id(plan_cls), id(plan_stp))
    entry = payload.plans.get(key)
    if entry is None:
        dense = array("q", b"\xff" * (8 * (payload.max_pc + 2)))
        for pc, stp in plan_stp.items():
            dense[pc] = stp
        # Strong refs keep both id() keys valid for the payload's lifetime.
        entry = (plan_cls, plan_stp, dense)
        payload.plans[key] = entry
    return entry[0], entry[2]


def _replay_tables(payload: _TracePayload, state) -> _ReplayTables:
    targets = state.btu_targets
    key = id(targets)
    tables = payload.replays.get(key)
    if tables is not None:
        return tables
    eids, long_flags = state.btu_eids, state.btu_long
    size = payload.max_pc + 2
    tables = _ReplayTables()
    tables.targets = targets
    tables.tgt_off = array("q", bytes(8 * size))
    tables.tgt_len = array("q", bytes(8 * size))
    tables.btu_long = bytearray(size)
    tables.traced_pcs = array("q", list(targets))
    data: List[int] = []
    edata: List[int] = []
    for pc, tgts in targets.items():
        tables.tgt_off[pc] = len(data)
        tables.tgt_len[pc] = len(tgts)
        data.extend(tgts)
        if long_flags.get(pc):
            tables.btu_long[pc] = 1
            edata.extend(eids[pc][: len(tgts)])
        else:
            edata.extend([0] * len(tgts))
    tables.tgt_data = array("q", data)
    tables.eid_data = array("q", edata)
    payload.replays[key] = tables
    return tables


# --------------------------------------------------------------------------- #
# The per-point session
# --------------------------------------------------------------------------- #
class _Session:
    """Live C views over one :class:`FlatState`, reused warm → measured."""

    __slots__ = (
        "trace",
        "a",
        "address",
        "keep",
        "traced",
        "btb_cap",
        "rsb_cap",
        "btb_val",
        "btb_fifo",
        "rsb_buf",
        "loop_run",
        "loop_trip",
        "loop_conf",
        "loop_keys",
        "loop_seeded",
        "btu_dense",
        "res_buf",
        "l2_geom",
        "l3_geom",
        "l2_cnt",
        "l2_data",
        "l2_occ",
        "l2_seeded",
        "l3_cnt",
        "l3_data",
        "l3_occ",
        "l3_seeded",
        "scratch",
    )

    # ------------------------------------------------------------------ #
    # Teardown
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        for arr in self.scratch:
            _scratch_release(arr)
        self.scratch = []
        self.keep = []

    def unpack(self, state) -> None:
        """Write every kernel-visible mutation back into ``state``."""
        a = self.a
        state.history = a[ARG["history"]]
        # BTB: the FIFO ring holds exactly the live keys in insertion order,
        # which is the dict order the python kernels maintain.
        btb: Dict[int, int] = {}
        cap = self.btb_cap
        if cap:
            head = a[ARG["btb_head"]]
            val, fifo = self.btb_val, self.btb_fifo
            for k in range(a[ARG["btb_count"]]):
                pc = fifo[(head + k) % cap]
                btb[pc] = val[pc]
        state.btb = btb
        rsb: List[int] = []
        cap = self.rsb_cap
        if cap:
            head = a[ARG["rsb_head"]]
            buf = self.rsb_buf
            for k in range(a[ARG["rsb_len"]]):
                rsb.append(buf[(head + k) % cap])
        state.rsb = rsb
        # Loop predictor: seeded entries keep their insertion order, new
        # entries come from the creation journal — no dense-table scan.
        run, trip, conf = self.loop_run, self.loop_trip, self.loop_conf
        loops: Dict[int, List[int]] = {}
        for pc in self.loop_seeded:
            loops[pc] = [run[pc], trip[pc], conf[pc]]
        keys = self.loop_keys
        for k in range(a[ARG["loop_n"]]):
            pc = keys[k]
            loops[pc] = [run[pc], trip[pc], conf[pc]]
        state.loops = loops
        if self.traced:
            dense = self.btu_dense
            state.btu_pos = {pc: dense[pc] for pc in state.btu_pos}
            res = self.res_buf
            state.btu_resident = [res[k] for k in range(a[ARG["res_len"]])]
        state.l2 = self._unpack_level(
            self.l2_seeded, self.l2_cnt, self.l2_data, self.l2_occ,
            a[ARG["l2_occ_n"]], self.l2_geom[1],
        )
        state.l3 = self._unpack_level(
            self.l3_seeded, self.l3_cnt, self.l3_data, self.l3_occ,
            a[ARG["l3_occ_n"]], self.l3_geom[1],
        )

    @staticmethod
    def _unpack_level(seeded, cnt, data, occ, occ_n, assoc) -> Dict[int, List[int]]:
        # Seeded sets can never re-enter the journal (way counts only grow),
        # so the two passes are disjoint and the order — seeded first, then
        # creation order — is the python dict's insertion order.
        sets: Dict[int, List[int]] = {}
        for index in seeded:
            base = index * assoc
            sets[index] = list(data[base : base + cnt[index]])
        for k in range(occ_n):
            index = occ[k]
            base = index * assoc
            sets[index] = list(data[base : base + cnt[index]])
        return sets


def _open_session(
    kernel: "NativeKernel",
    trace,
    state,
    crypto_pcs: bytes,
    plan_cls: bytes,
    plan_stp: Dict[int, int],
    flush_interval: Optional[int],
) -> _Session:
    payload = _trace_payload(trace)
    config = kernel.config
    spec = kernel.spec
    size = payload.max_pc + 2
    cassandra = spec.kind == "cassandra"
    traced = cassandra and not spec.lite

    session = _Session()
    session.trace = trace
    session.traced = traced
    session.keep = []
    session.scratch = []
    keep = session.keep
    a = array("q", bytes(8 * len(ARG_SLOTS)))
    session.a = a
    session.address = _addr_of_array(a)
    keep.append(state)

    def scratch(count: int) -> "array":
        arr = _scratch_acquire(count)
        session.scratch.append(arr)
        return arr

    # ----------------------------- scalars ----------------------------- #
    a[ARG["n"]] = payload.n
    a[ARG["num_regs"]] = payload.num_regs
    a[ARG["flush_interval"]] = flush_interval or 0
    a[ARG["history"]] = state.history
    a[ARG["crypto_pcs_len"]] = len(crypto_pcs)
    a[ARG["btb_count"]] = len(state.btb)
    a[ARG["rsb_len"]] = len(state.rsb)
    a[ARG["ib_mask"]] = payload.ib_mask

    # -------------------------- trace columns -------------------------- #
    for slot, col in payload.cols.items():
        a[ARG[slot]] = _addr_of_array(col)
    keep.append(payload)

    # ---------------------- per-workload tables ------------------------ #
    if cassandra:
        a[ARG["crypto_pcs"]] = _addr_of_bytes(crypto_pcs)
        a[ARG["plan_cls"]] = _addr_of_bytes(plan_cls)
        keep.append(crypto_pcs)
        keep.append(plan_cls)
        if not spec.lite:
            _, stp_dense = _plan_tables(payload, plan_cls, plan_stp)
            a[ARG["plan_stp"]] = _addr_of_array(stp_dense)
    if traced:
        tables = _replay_tables(payload, state)
        a[ARG["traced_pcs"]] = _addr_of_array(tables.traced_pcs)
        a[ARG["n_traced"]] = len(tables.traced_pcs)
        a[ARG["tgt_off"]] = _addr_of_array(tables.tgt_off)
        a[ARG["tgt_len"]] = _addr_of_array(tables.tgt_len)
        a[ARG["tgt_data"]] = _addr_of_array(tables.tgt_data)
        a[ARG["eid_data"]] = _addr_of_array(tables.eid_data)
        a[ARG["btu_long"]] = _addr_of_bytearray(tables.btu_long, keep)
        keep.append(tables)

    # ------------------------ mutable state ----------------------------- #
    # L1I / L1D / PHT are the state's own array('q') buffers, mutated in
    # place — no pack, no unpack.
    a[ARG["l1i"]] = _addr_of_array(state.l1i)
    a[ARG["l1d"]] = _addr_of_array(state.l1d)
    a[ARG["pht"]] = _addr_of_array(state.pht)

    session.btb_cap = config.btb_entries
    btb_val = array("q", b"\xff" * (8 * size))
    btb_fifo = scratch(config.btb_entries)
    for slot, (pc, target) in enumerate(state.btb.items()):
        btb_val[pc] = target
        btb_fifo[slot] = pc
    session.btb_val = btb_val
    session.btb_fifo = btb_fifo
    a[ARG["btb_val"]] = _addr_of_array(btb_val)
    a[ARG["btb_fifo"]] = _addr_of_array(btb_fifo)
    keep.append(btb_val)

    session.rsb_cap = config.rsb_entries
    rsb_buf = scratch(config.rsb_entries)
    for slot, value in enumerate(state.rsb):
        rsb_buf[slot] = value
    session.rsb_buf = rsb_buf
    a[ARG["rsb_buf"]] = _addr_of_array(rsb_buf)

    loop_run = scratch(size)
    loop_trip = scratch(size)
    loop_conf = scratch(size)
    loop_keys = scratch(size)
    loop_present = bytearray(size)
    for pc, row in state.loops.items():
        loop_present[pc] = 1
        loop_run[pc], loop_trip[pc], loop_conf[pc] = row
    session.loop_run = loop_run
    session.loop_trip = loop_trip
    session.loop_conf = loop_conf
    session.loop_keys = loop_keys
    session.loop_seeded = list(state.loops)
    a[ARG["loop_run"]] = _addr_of_array(loop_run)
    a[ARG["loop_trip"]] = _addr_of_array(loop_trip)
    a[ARG["loop_conf"]] = _addr_of_array(loop_conf)
    a[ARG["loop_keys"]] = _addr_of_array(loop_keys)
    a[ARG["loop_present"]] = _addr_of_bytearray(loop_present, keep)
    keep.append(loop_present)

    if traced:
        btu_dense = scratch(size)
        for pc, position in state.btu_pos.items():
            btu_dense[pc] = position
        session.btu_dense = btu_dense
        a[ARG["btu_pos"]] = _addr_of_array(btu_dense)
        res_buf = scratch(config.btu.entries)
        for slot, pc in enumerate(state.btu_resident):
            res_buf[slot] = pc
        a[ARG["res_len"]] = len(state.btu_resident)
        session.res_buf = res_buf
        a[ARG["res_buf"]] = _addr_of_array(res_buf)
    else:
        session.btu_dense = None
        session.res_buf = None

    for level, cfg, sparse in (
        ("l2", config.l2, state.l2),
        ("l3", config.l3, state.l3),
    ):
        assoc = cfg.associativity
        cnt = array("q", bytes(8 * cfg.num_sets))
        data = scratch(cfg.num_sets * assoc)
        occ = scratch(cfg.num_sets)
        for index, ways in sparse.items():
            cnt[index] = len(ways)
            base = index * assoc
            data[base : base + len(ways)] = array("q", ways)
        setattr(session, f"{level}_geom", (cfg.num_sets, assoc))
        setattr(session, f"{level}_cnt", cnt)
        setattr(session, f"{level}_data", data)
        setattr(session, f"{level}_occ", occ)
        setattr(session, f"{level}_seeded", list(sparse))
        a[ARG[f"{level}_cnt"]] = _addr_of_array(cnt)
        a[ARG[f"{level}_data"]] = _addr_of_array(data)
        a[ARG[f"{level}_occ"]] = _addr_of_array(occ)
        keep.append(cnt)

    # --------------------------- scratch ------------------------------- #
    a[ARG["reg_ready"]] = _addr_of_array(scratch(payload.num_regs + 2))
    a[ARG["ib_keys"]] = _addr_of_array(scratch(payload.ib_mask + 1))
    a[ARG["ib_vals"]] = _addr_of_array(scratch(payload.ib_mask + 1))
    return session


# --------------------------------------------------------------------------- #
# The callable
# --------------------------------------------------------------------------- #
class NativeKernel:
    """One compiled kernel behind the python-kernel calling convention.

    ``rows`` is accepted and ignored — the flag premask is compiled into the
    C loop, so native points skip the batch layer's pre-zipped row tuples
    entirely.
    """

    __slots__ = ("fn", "spec", "config", "collect_stats", "digest")

    def __init__(self, fn, spec, config, collect_stats, digest) -> None:
        self.fn = fn
        self.spec = spec
        self.config = config
        self.collect_stats = collect_stats
        self.digest = digest

    def __call__(
        self,
        trace,
        state,
        rows,
        crypto_pcs: bytes,
        plan_cls: bytes,
        plan_stp: Dict[int, int],
        btu_flush_interval: Optional[int],
    ) -> Optional[Dict[str, int]]:
        session = state.native_session
        if session is None or session.trace is not trace:
            session = _open_session(
                self, trace, state, crypto_pcs, plan_cls, plan_stp,
                btu_flush_interval,
            )
            state.native_session = session
        code = self.fn(session.address)
        if code:
            state.native_session = None
            a = session.a
            err_pc, err_b, err_c = a[ARG["err_a"]], a[ARG["err_b"]], a[ARG["err_c"]]
            session.close()
            if code == 1:
                raise ReplayMismatchError(
                    "single-target hint for PC %d points at %r but "
                    "execution went to %d" % (err_pc, err_b, err_c)
                )
            raise ReplayMismatchError(
                "BTU replay for PC %d produced target %d but the "
                "sequential execution went to %d" % (err_pc, err_b, err_c)
            )
        if not self.collect_stats:
            return None
        a = session.a
        counters = {
            name: a[ARG["counter_" + name]] for name in DYNAMIC_COUNTERS
        }
        session.unpack(state)
        state.native_session = None
        session.close()
        return counters
