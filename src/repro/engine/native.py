"""The native execution tier: compiled C kernels behind the python-kernel ABI.

This module owns everything between :mod:`repro.engine.emit.c` (which renders
one self-contained C translation unit per specialization point) and the batch
layer's kernel call sites:

* **Toolchain discovery** — ``$REPRO_NATIVE_CC`` if set, else the first of
  ``cc`` / ``gcc`` / ``clang`` that answers ``--version`` (resolved once per
  environment value; the first ``--version`` line is the toolchain
  fingerprint).  Whether the compiler can actually produce a loadable
  shared object is probed with a trivial test kernel only just before this
  process's first real compile, so a warm run never starts the compiler.
  No compiler, or one that fails the probe, means :func:`get_native_kernel`
  returns ``None`` and the batch layer silently stays on the python kernels.
* **Kernel acquisition** — the chain *memo → render → digest → load or
  compile*.  The per-process memo is keyed on the kernel shape (spec ×
  :class:`~repro.engine.ir.KernelFeatures`) and the toolchain fingerprint;
  a miss renders the C unit, and each ``.so`` is content-addressed in the
  pipeline's :class:`~repro.pipeline.artifacts.ArtifactCache` under kind
  ``native-kernel``, keyed on (source digest × toolchain fingerprint ×
  compiler flags), and stored as a plain ``.so`` file.  A fresh process
  therefore renders each shape it uses once (a few milliseconds a unit)
  and compiles nothing while that unit's ``.so`` is cached: each ``.so`` is
  ``dlopen``-ed in place, from its cache file, after a check that the file
  holds every byte its ELF headers point at (a torn entry would otherwise
  die of ``SIGBUS``; one that fails is quarantined and recompiled).
  :data:`compile_count` / :data:`compile_seconds` / :data:`cache_hits` /
  :data:`render_count` expose the split to the batch stats and benchmarks.
  The cache root is the ``cache_dir`` the caller passes (the pipeline's,
  for ``--cache-dir``); without one (``--no-cache``) a compiled kernel is
  written to a temp file, ``dlopen``-ed and unlinked at once, so the
  process leaves no file behind.
* **The session bridge** — a compiled kernel is one call
  ``int64_t kernel(int64_t *a)`` over machine addresses
  (:data:`repro.engine.emit.c.ARG_SLOTS`).  :class:`NativeKernel` presents
  the exact python-kernel calling convention
  ``kernel(trace, state, rows, crypto_pcs, plan_cls, plan_stp, interval)``:
  the first call on a :class:`~repro.engine.state.FlatState` packs its
  containers into C-friendly buffers (a *session*, parked on
  ``state.native_session``), warm-up calls chain over the same session
  without any Python-side round trip (the kernels write their persistent
  scalars back into the argument vector), and the stats call reads the
  :data:`~repro.engine.kernels.DYNAMIC_COUNTERS` out of the vector and
  closes the session.  Nothing is written back into the state's
  dicts/lists: the measured pass is a point's last, and the batch layer
  drops the state after it.  ``ReplayMismatchError`` comes back as a
  nonzero return code and is re-raised with byte-identical messages.

The per-trace inputs every session reads (the columns as ``array('q')``;
for trace-replaying specs also the dense single-target table and the
flattened BTU replay tables) come from two plain builders,
:func:`trace_inputs` and :func:`replay_inputs`.  The batch layer keeps their
results in its per-trace setup, which lives exactly as long as the trace,
and hands them to each kernel call as ``rows``.  The large garbage-tolerant
scratch buffers (L2/L3 way tables, the issue-port hash) are pooled across
sessions process-wide, so per-point setup cost is proportional to occupied
state, not geometry.
"""

from __future__ import annotations

import copy
import ctypes
import hashlib
import os
import shutil
import struct
import subprocess
import tempfile
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine.emit.c import (
    ARG,
    ARG_SLOTS,
    C_FLAGS,
    c_kernel_source,
    source_digest,
)
from repro.engine.ir import KernelFeatures
from repro.engine.kernels import DYNAMIC_COUNTERS
from repro.engine.state import TABLE_SLOT, BtuReplayData
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

#: Kernels compiled (not served from the artifact cache) by this process.
compile_count = 0
#: C units rendered by this process — one per kernel-memo miss.
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
    """One resolved C compiler.

    ``works`` is ``None`` until the probe compile ran (just before the first
    real compile), then whether it built and loaded a trivial kernel.
    """

    __slots__ = ("path", "fingerprint", "works")

    def __init__(self, path: str, fingerprint: str) -> None:
        self.path = path
        self.fingerprint = fingerprint
        self.works: Optional[bool] = None


#: Resolved toolchains keyed by the ``REPRO_NATIVE_CC`` value in effect
#: (``""`` for unset), so tests can flip the environment without clearing
#: caches.
_TOOLCHAINS: Dict[str, Optional[Toolchain]] = {}


def _identify(path: str) -> Optional[Toolchain]:
    """The toolchain at ``path``, fingerprinted by its ``--version``."""
    global last_error
    try:
        version = subprocess.run(
            [path, "--version"], stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
    except OSError as exc:
        last_error = f"{path!r} --version failed: {exc}"
        return None
    if version.returncode != 0:
        last_error = f"{path!r} --version exited {version.returncode}"
        return None
    first_line = version.stdout.decode(errors="replace").splitlines()
    fingerprint = f"{os.path.realpath(path)}|{first_line[0] if first_line else ''}"
    return Toolchain(path, fingerprint)


def _probe_compiler(path: str) -> bool:
    """Compile + load a trivial kernel: whether ``path`` can build one."""
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
            return False
        lib = ctypes.CDLL(so_path)
        lib.kernel  # the symbol must resolve
        return True
    except OSError as exc:
        last_error = f"probe failed for {path!r}: {exc}"
        return False
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _check_works(toolchain: Toolchain) -> None:
    """Probe ``toolchain`` once, before its first compile in this process."""
    if toolchain.works is None:
        toolchain.works = _probe_compiler(toolchain.path)
    if not toolchain.works:
        raise NativeCompileError(last_error or f"{toolchain.path!r} fails its probe")


def find_toolchain() -> Optional[Toolchain]:
    """The compiler for the current environment, resolved once (no compile)."""
    global last_error
    env = os.environ.get(TOOLCHAIN_ENV, "").strip()
    if env in _TOOLCHAINS:
        return _TOOLCHAINS[env]
    toolchain: Optional[Toolchain] = None
    candidates = (env,) if env else DEFAULT_COMPILERS
    resolved = False
    for candidate in candidates:
        path = shutil.which(candidate)
        if path is None:
            continue
        resolved = True
        toolchain = _identify(path)
        if toolchain is not None:
            break
    if toolchain is None and not resolved:
        last_error = f"no C compiler resolves (candidates: {', '.join(candidates)})"
    _TOOLCHAINS[env] = toolchain
    return toolchain


def compiler_available() -> bool:
    """Whether the native tier can compile here (a probed, working compiler)."""
    toolchain = find_toolchain()
    if toolchain is None:
        return False
    try:
        _check_works(toolchain)
    except NativeCompileError:
        return False
    return True


def probed_compiler() -> Optional[bool]:
    """Whether this process resolved a usable compiler for the current
    environment (false once it failed its probe); ``None`` if it has not
    looked (nothing is run)."""
    env = os.environ.get(TOOLCHAIN_ENV, "").strip()
    if env not in _TOOLCHAINS:
        return None
    toolchain = _TOOLCHAINS[env]
    return toolchain is not None and toolchain.works is not False


# --------------------------------------------------------------------------- #
# Compile + artifact cache + load
# --------------------------------------------------------------------------- #
#: Loaded kernel entry points by artifact digest (the ``CDLL`` objects are
#: pinned in ``_LIBS`` — a collected library would leave dangling pointers).
_LOADED: Dict[str, Callable] = {}
_LIBS: Dict[str, ctypes.CDLL] = {}

#: ``NativeKernel`` instances (or ``None`` for a memoized failure) keyed on
#: the kernel shape plus the toolchain fingerprint.
_KERNEL_MEMO: Dict[Tuple, Optional["NativeKernel"]] = {}


def _artifact_digest(source: str, toolchain: Toolchain) -> str:
    h = hashlib.sha256()
    h.update(source_digest(source).encode())
    h.update(b"\x00")
    h.update(toolchain.fingerprint.encode())
    h.update(b"\x00")
    h.update(" ".join(C_FLAGS).encode())
    return h.hexdigest()


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


def _elf_intact(path: str) -> bool:
    """Whether ``path`` holds every byte its ELF headers point at.

    ``dlopen`` maps a truncated shared object without complaint, and the
    process then dies of ``SIGBUS`` on the first touch of a missing page, so
    a torn cache entry must be refused before it is loaded.
    """
    with open(path, "rb") as handle:
        head = handle.read(4096)
        size = os.fstat(handle.fileno()).st_size
    if len(head) < 52 or head[:4] != b"\x7fELF" or head[4] not in (1, 2):
        return False
    order = "<" if head[5] == 1 else ">"
    if head[4] == 2:  # ELFCLASS64
        phoff, shoff = struct.unpack_from(order + "QQ", head, 32)
        phentsize, phnum, shentsize, shnum = struct.unpack_from(order + "HHHH", head, 54)
        segment = order + "I4xQ16xQ"  # p_type, p_offset, p_filesz
    else:
        phoff, shoff = struct.unpack_from(order + "II", head, 28)
        phentsize, phnum, shentsize, shnum = struct.unpack_from(order + "HHHH", head, 42)
        segment = order + "II8xI"
    end = max(shoff + shnum * shentsize, phoff + phnum * phentsize)
    if phoff + phnum * phentsize > len(head):
        return False
    for index in range(phnum):
        p_type, offset, filesz = struct.unpack_from(segment, head, phoff + index * phentsize)
        if p_type == 1:  # PT_LOAD
            end = max(end, offset + filesz)
    return end <= size


def _dlopen(digest: str, path: str) -> Callable:
    if not _elf_intact(path):
        raise OSError(f"{path}: not a complete shared object")
    lib = ctypes.CDLL(path)
    fn = lib.kernel
    fn.restype = ctypes.c_int64
    fn.argtypes = (ctypes.c_void_p,)
    _LIBS[digest] = lib
    _LOADED[digest] = fn
    return fn


def _load_entry(artifacts, digest: str, path: str) -> Optional[Callable]:
    """``dlopen`` a cached ``.so`` in place; a rejected file is quarantined."""
    try:
        return _dlopen(digest, path)
    except OSError as exc:
        artifacts.quarantine(path, exc)
        return None


def _load_bytes(digest: str, so_bytes: bytes) -> Callable:
    """``dlopen`` a kernel held only in memory: through a temp file that is
    unlinked as soon as it is mapped."""
    fd, path = tempfile.mkstemp(prefix="repro-native-", suffix=".so")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(so_bytes)
        return _dlopen(digest, path)
    finally:
        os.unlink(path)


def _load_cached(artifacts, kind: str, digest: str) -> Optional[Callable]:
    """The kernel for one artifact digest if already loaded or cached."""
    global cache_hits
    fn = _LOADED.get(digest)
    if fn is None:
        path = artifacts.entry_file(ARTIFACT_KIND, kind, digest)
        fn = None if path is None else _load_entry(artifacts, digest, path)
        if fn is None:
            return None
    cache_hits += 1
    return fn


def _store_and_load(artifacts, kind: str, digest: str, so_bytes: bytes) -> Callable:
    """Cache a freshly compiled ``.so`` and load it from its cache file (or,
    without a disk cache or after a rejected store, from memory)."""
    artifacts.put(ARTIFACT_KIND, kind, digest, so_bytes)
    path = artifacts.entry_file(ARTIFACT_KIND, kind, digest)
    fn = None if path is None else _load_entry(artifacts, digest, path)
    return fn if fn is not None else _load_bytes(digest, so_bytes)


def get_native_kernel(
    spec: EnginePolicySpec,
    flush_active: bool,
    icache_resident: bool = False,
    dcache_resident: bool = False,
    collect_stats: bool = True,
    cache_dir: Optional[str] = None,
) -> Optional["NativeKernel"]:
    """The compiled native kernel for one kernel shape, or ``None``.

    ``None`` (memoized, so a point retries nothing) means the tier cannot
    serve this point — no working compiler, or the toolchain rejected the
    unit — and the caller should fall back to :func:`repro.engine.kernels
    .get_kernel`.  A memo miss renders the C unit through the module-global
    :func:`c_kernel_source`, digests it, and ``dlopen``-s the cached ``.so``
    in place, compiling only when no intact one is cached; a warm process
    restart thus pays one render and one load per kernel, never a compile.
    ``cache_dir`` is the artifact-cache root; ``None`` keeps the kernel
    in memory only, so no file outlives the load.
    """
    global compile_count, compile_seconds, render_count, last_error
    # Imported lazily: repro.pipeline pulls in the experiment runner, which
    # imports the batch layer, which imports this module.
    from repro.pipeline.artifacts import ArtifactCache

    toolchain = find_toolchain()
    if toolchain is None:
        return None
    features = KernelFeatures.derive(
        spec,
        flush_active,
        icache_resident=icache_resident,
        dcache_resident=dcache_resident,
        collect_stats=collect_stats,
    )
    key = (spec, features, toolchain.fingerprint)
    if key in _KERNEL_MEMO:
        return _KERNEL_MEMO[key]
    kernel: Optional[NativeKernel] = None
    try:
        source = c_kernel_source(
            spec,
            flush_active,
            icache_resident=icache_resident,
            dcache_resident=dcache_resident,
            collect_stats=collect_stats,
        )
        render_count += 1
        digest = _artifact_digest(source, toolchain)
        artifacts = ArtifactCache(root=cache_dir)
        fn = _load_cached(artifacts, spec.kind, digest)
        if fn is None:
            _check_works(toolchain)
            start = time.perf_counter()
            so_bytes = _compile_so(source, toolchain)
            compile_seconds += time.perf_counter() - start
            compile_count += 1
            fn = _store_and_load(artifacts, spec.kind, digest, so_bytes)
        kernel = NativeKernel(fn, spec, bool(collect_stats), digest)
    except (NativeCompileError, OSError) as exc:
        last_error = f"native kernel unavailable for {spec.kind}: {exc}"
        kernel = None
    _KERNEL_MEMO[key] = kernel
    return kernel


def counters_snapshot() -> Tuple[int, float, int]:
    """``(compile_count, compile_seconds, cache_hits)`` — for delta readers."""
    return (compile_count, compile_seconds, cache_hits)


def clear_native_memo() -> None:
    """Drop the per-process kernel memo and scratch pools.

    Chained from :func:`repro.engine.kernels.clear_kernel_cache` so bench
    per-repetition timing exercises the whole pipeline.  Loaded libraries
    stay mapped (unloading shared objects is unsafe); re-resolving one counts
    as a :data:`cache_hits` warm hit, exactly like an artifact-cache read.
    """
    _KERNEL_MEMO.clear()
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
    try:
        # One atomic pop: threads batching at once never share a buffer,
        # and one that finds the pool empty allocates.
        return _SCRATCH[count].pop()
    except (KeyError, IndexError):
        return array("q", bytes(8 * count))


def _scratch_release(arr: "array") -> None:
    pool = _SCRATCH.setdefault(len(arr), [])
    if len(pool) < _SCRATCH_KEEP:
        pool.append(arr)


# --------------------------------------------------------------------------- #
# Per-trace inputs (kept by the batch layer for the trace's lifetime)
# --------------------------------------------------------------------------- #
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


class TraceInputs:
    """What every native session over one trace reads and none writes
    (filled by :func:`trace_inputs` and :func:`replay_inputs`)."""


def trace_inputs(trace) -> TraceInputs:
    """The trace's columns as ``array('q')`` keyed by argument slot, and
    their sizes."""
    inputs = TraceInputs()
    inputs.n = trace.n
    inputs.num_regs = trace.num_regs
    inputs.max_pc = trace.max_pc
    inputs.cols = {slot: array("q", getattr(trace, attr)) for attr, slot in _COLUMN_SLOTS}
    # Open-addressed issue-port hash sized to load factor ≤ ½ (at most one
    # distinct issue cycle per instruction).
    limit = 2 * (trace.n + 2)
    inputs.ib_mask = (1 << (limit - 1).bit_length()) - 1
    return inputs


def replay_inputs(
    base: TraceInputs, plan_stp: Dict[int, int], btu_data: BtuReplayData
) -> TraceInputs:
    """``base`` (whose columns it shares) plus what only trace-replaying
    specs read: the dense single-target table of ``plan_stp`` and the
    flattened BTU replay payload."""
    inputs = copy.copy(base)
    size = base.max_pc + 2
    inputs.stp_dense = array("q", b"\xff" * (8 * size))
    for pc, stp in plan_stp.items():
        inputs.stp_dense[pc] = stp
    targets, eids, long_flags = btu_data
    inputs.tgt_off = array("q", bytes(8 * size))
    inputs.tgt_len = array("q", bytes(8 * size))
    inputs.btu_long = array("B", bytes(size))
    data: List[int] = []
    edata: List[int] = []
    for pc, tgts in targets.items():
        inputs.tgt_off[pc] = len(data)
        inputs.tgt_len[pc] = len(tgts)
        data.extend(tgts)
        if long_flags.get(pc):
            inputs.btu_long[pc] = 1
            edata.extend(eids[pc][: len(tgts)])
        else:
            edata.extend([0] * len(tgts))
    inputs.tgt_data = array("q", data)
    inputs.eid_data = array("q", edata)
    return inputs


# --------------------------------------------------------------------------- #
# The per-point session
# --------------------------------------------------------------------------- #
class _Session:
    """Live C views over one :class:`FlatState`, reused warm → measured."""

    __slots__ = ("trace", "a", "address", "keep", "scratch")

    def close(self) -> None:
        for arr in self.scratch:
            _scratch_release(arr)
        self.scratch = []
        self.keep = []


def _open_session(
    kernel: "NativeKernel",
    trace,
    inputs: TraceInputs,
    state,
    crypto_pcs: bytes,
    plan_cls: bytes,
    flush_interval: Optional[int],
) -> _Session:
    spec = kernel.spec
    table = array("q", state.table)

    def sized(name: str) -> int:
        return table[TABLE_SLOT[name]]

    size = inputs.max_pc + 2
    cassandra = spec.kind == "cassandra"
    traced = cassandra and not spec.lite

    session = _Session()
    session.trace = trace
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
    a[ARG["n"]] = inputs.n
    a[ARG["num_regs"]] = inputs.num_regs
    a[ARG["flush_interval"]] = flush_interval or 0
    a[ARG["history"]] = state.history
    a[ARG["crypto_pcs_len"]] = len(crypto_pcs)
    a[ARG["btb_count"]] = len(state.btb)
    a[ARG["rsb_len"]] = len(state.rsb)
    a[ARG["ib_mask"]] = inputs.ib_mask
    a[ARG["table"]] = _addr_of_array(table)
    keep.append(table)

    # -------------------------- trace columns -------------------------- #
    for slot, col in inputs.cols.items():
        a[ARG[slot]] = _addr_of_array(col)
    keep.append(inputs)

    # ---------------------- per-workload tables ------------------------ #
    if cassandra:
        a[ARG["crypto_pcs"]] = _addr_of_bytes(crypto_pcs)
        a[ARG["plan_cls"]] = _addr_of_bytes(plan_cls)
        keep.append(crypto_pcs)
        keep.append(plan_cls)
    if traced:
        a[ARG["plan_stp"]] = _addr_of_array(inputs.stp_dense)
        a[ARG["tgt_off"]] = _addr_of_array(inputs.tgt_off)
        a[ARG["tgt_len"]] = _addr_of_array(inputs.tgt_len)
        a[ARG["tgt_data"]] = _addr_of_array(inputs.tgt_data)
        a[ARG["eid_data"]] = _addr_of_array(inputs.eid_data)
        a[ARG["btu_long"]] = _addr_of_array(inputs.btu_long)

    # ------------------------ mutable state ----------------------------- #
    # L1I / L1D / PHT are the state's own array('q') buffers, mutated in
    # place; everything else is packed here and never read back — the
    # measured pass returns only its counters.
    a[ARG["l1i"]] = _addr_of_array(state.l1i)
    a[ARG["l1d"]] = _addr_of_array(state.l1d)
    a[ARG["pht"]] = _addr_of_array(state.pht)

    btb_val = array("q", b"\xff" * (8 * size))
    btb_fifo = scratch(sized("btb_entries"))
    for slot, (pc, target) in enumerate(state.btb.items()):
        btb_val[pc] = target
        btb_fifo[slot] = pc
    a[ARG["btb_val"]] = _addr_of_array(btb_val)
    a[ARG["btb_fifo"]] = _addr_of_array(btb_fifo)
    keep.append(btb_val)

    rsb_buf = scratch(sized("rsb_entries"))
    for slot, value in enumerate(state.rsb):
        rsb_buf[slot] = value
    a[ARG["rsb_buf"]] = _addr_of_array(rsb_buf)

    loop_run = scratch(size)
    loop_trip = scratch(size)
    loop_conf = scratch(size)
    loop_present = bytearray(size)
    for pc, row in state.loops.items():
        loop_present[pc] = 1
        loop_run[pc], loop_trip[pc], loop_conf[pc] = row
    a[ARG["loop_run"]] = _addr_of_array(loop_run)
    a[ARG["loop_trip"]] = _addr_of_array(loop_trip)
    a[ARG["loop_conf"]] = _addr_of_array(loop_conf)
    a[ARG["loop_present"]] = _addr_of_bytearray(loop_present, keep)
    keep.append(loop_present)

    if traced:
        btu_dense = scratch(size)
        for pc, position in state.btu_pos.items():
            btu_dense[pc] = position
        a[ARG["btu_pos"]] = _addr_of_array(btu_dense)
        res_buf = scratch(sized("btu_entries"))
        for slot, pc in enumerate(state.btu_resident):
            res_buf[slot] = pc
        a[ARG["res_len"]] = len(state.btu_resident)
        a[ARG["res_buf"]] = _addr_of_array(res_buf)

    for level, sparse in (("l2", state.l2), ("l3", state.l3)):
        num_sets = sized(f"{level}_num_sets")
        assoc = sized(f"{level}_associativity")
        cnt = array("q", bytes(8 * num_sets))
        data = scratch(num_sets * assoc)
        for index, ways in sparse.items():
            cnt[index] = len(ways)
            base = index * assoc
            data[base : base + len(ways)] = array("q", ways)
        a[ARG[f"{level}_cnt"]] = _addr_of_array(cnt)
        a[ARG[f"{level}_data"]] = _addr_of_array(data)
        keep.append(cnt)

    # --------------------------- scratch ------------------------------- #
    a[ARG["reg_ready"]] = _addr_of_array(scratch(inputs.num_regs + 2))
    a[ARG["commit_ring"]] = _addr_of_array(scratch(sized("rob_size")))
    a[ARG["si_buf"]] = _addr_of_array(scratch(3 * (sized("sq_size") + 1)))
    a[ARG["ib_keys"]] = _addr_of_array(scratch(inputs.ib_mask + 1))
    a[ARG["ib_vals"]] = _addr_of_array(scratch(inputs.ib_mask + 1))
    return session


# --------------------------------------------------------------------------- #
# The callable
# --------------------------------------------------------------------------- #
class NativeKernel:
    """One compiled kernel behind the python-kernel calling convention.

    ``rows`` is the trace's :class:`TraceInputs` (from :func:`replay_inputs`
    for a trace-replaying spec, else :func:`trace_inputs`), which the batch
    layer keeps for the trace's lifetime; ``plan_stp`` is ignored, its dense
    table being part of those inputs.  The flag premask is compiled into the
    C loop, so native points skip the python kernels' pre-zipped row tuples
    entirely.
    """

    __slots__ = ("fn", "spec", "collect_stats", "digest")

    def __init__(self, fn, spec, collect_stats, digest) -> None:
        self.fn = fn
        self.spec = spec
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
                self, trace, rows, state, crypto_pcs, plan_cls, btu_flush_interval
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
        state.native_session = None
        session.close()
        return counters
