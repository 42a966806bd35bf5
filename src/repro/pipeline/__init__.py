"""Disk-cached workload artifacts and the parallel batch fan-out.

The layer under :class:`~repro.api.service.SimulationService` that every
experiment, benchmark, and test reaches through :mod:`repro.api`:

* :mod:`repro.pipeline.hashing` — stable content fingerprints for programs,
  input sets, and configurations (cache-key material).
* :mod:`repro.pipeline.artifacts` — the content-addressed on-disk cache (with
  in-memory memoization) persisting ``ExecutionResult``/``TraceBundle``
  pairs across processes.
* :mod:`repro.pipeline.parallel` — multiprocessing fan-out for workload
  preparation (over :class:`~repro.api.request.WorkloadRef`\\ s) and for
  independent :class:`~repro.api.request.SimulationRequest`\\ s.
"""

from repro.pipeline.artifacts import (
    CACHE_DIR_ENV,
    CACHE_FORMAT_VERSION,
    ArtifactCache,
    CacheStats,
    default_cache_dir,
)
from repro.pipeline.hashing import (
    inputs_fingerprint,
    program_fingerprint,
    stable_digest,
)
from repro.pipeline.parallel import (
    default_jobs,
    prepare_kernels_parallel,
    simulate_points,
)

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "CACHE_DIR_ENV",
    "CACHE_FORMAT_VERSION",
    "default_cache_dir",
    "default_jobs",
    "stable_digest",
    "program_fingerprint",
    "inputs_fingerprint",
    "prepare_kernels_parallel",
    "simulate_points",
]
