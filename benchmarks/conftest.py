"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures on a reduced
but representative workload set (one or two workloads per suite), so the full
``pytest benchmarks/ --benchmark-only`` run completes in minutes.  The
benchmark bodies call the same experiment entry points a user would — every
one takes the uniform :class:`~repro.api.service.ExperimentContext` — and
the printed tables are the reproduced artefacts.
"""

from __future__ import annotations

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.api import SimulationService  # noqa: E402
from repro.pipeline import ArtifactCache, default_jobs  # noqa: E402

#: Workloads used by the benchmark harness: a slice of each suite.
BENCH_WORKLOADS = [
    "ChaCha20_ct",
    "SHA-256",
    "Poly1305_ctmul",
    "EC_c25519_i31",
    "DES_ct",
    "sha256",
    "sphincs-sha2-128s",
    "sphincs-haraka-128s",
]


@pytest.fixture(scope="session")
def bench_service():
    """The simulation service shared by all benchmarks (built once per session).

    Preparation goes through the service: fan-out across CPU cores,
    and — when ``REPRO_CACHE_DIR`` points at a directory — the on-disk
    artifact cache, so repeated benchmark sessions skip straight to the
    timed experiment bodies.
    """
    cache_root = os.environ.get("REPRO_CACHE_DIR")
    cache = ArtifactCache(root=cache_root) if cache_root else None
    return SimulationService(names=BENCH_WORKLOADS, cache=cache, jobs=default_jobs())


@pytest.fixture(scope="session")
def bench_context(bench_service):
    """The uniform experiment context every benchmark body receives."""
    return bench_service.context()


@pytest.fixture(scope="session")
def bench_artifacts(bench_service):
    """Prepared workload artefacts, for benchmarks that read them directly."""
    return bench_service.artifacts()
