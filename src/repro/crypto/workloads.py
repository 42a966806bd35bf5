"""Named workload registry matching the paper's evaluation suites.

The registry exposes the 22 workloads of Table 1 / Figure 7, grouped into the
BearSSL, OpenSSL, and post-quantum (PQC) suites.  Workloads are built lazily
and cached, since constructing a kernel builds and verifies an ISA program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from repro.crypto.programs.aes import build_aes_ctr, build_cbc_ct
from repro.crypto.programs.chacha20 import build_chacha20, build_openssl_chacha20
from repro.crypto.programs.common import KernelProgram
from repro.crypto.programs.des import build_des
from repro.crypto.programs.ec import build_ecdsa, build_montgomery_ladder, build_openssl_curve25519
from repro.crypto.programs.keccak import build_shake
from repro.crypto.programs.kyber import build_kyber512, build_kyber768
from repro.crypto.programs.modexp import build_modpow_i31, build_mul, build_rsa_i62
from repro.crypto.programs.poly1305 import build_poly1305
from repro.crypto.programs.sha256 import (
    build_multihash,
    build_openssl_sha256,
    build_sha256,
    build_tls_prf,
)
from repro.crypto.programs.sphincs import (
    build_sphincs_haraka,
    build_sphincs_sha2,
    build_sphincs_shake,
)


@dataclass
class Workload:
    """A lazily built benchmark workload."""

    name: str
    suite: str
    builder: Callable[[], KernelProgram]
    _kernel: Optional[KernelProgram] = field(default=None, repr=False)

    def kernel(self) -> KernelProgram:
        if self._kernel is None:
            self._kernel = self.builder()
        return self._kernel


@dataclass
class WorkloadSuite:
    """A named group of workloads (BearSSL / OpenSSL / PQC)."""

    name: str
    workloads: List[Workload]

    def __iter__(self) -> Iterator[Workload]:
        return iter(self.workloads)

    def names(self) -> List[str]:
        return [workload.name for workload in self.workloads]


_REGISTRY: Dict[str, Workload] = {}


def _register(name: str, suite: str, builder: Callable[[], KernelProgram]) -> None:
    _REGISTRY[name] = Workload(name=name, suite=suite, builder=builder)


# --------------------------------------------------------------------------- #
# BearSSL suite
# --------------------------------------------------------------------------- #
_register("AES_CTR", "bearssl", build_aes_ctr)
_register("CBC_ct", "bearssl", build_cbc_ct)
_register("ChaCha20_ct", "bearssl", build_chacha20)
_register("DES_ct", "bearssl", build_des)
_register("EC_c25519_i31", "bearssl", build_montgomery_ladder)
_register("ECDSA_i31", "bearssl", build_ecdsa)
_register("ModPow_i31", "bearssl", build_modpow_i31)
_register("MultiHash", "bearssl", build_multihash)
_register("Poly1305_ctmul", "bearssl", build_poly1305)
_register("mul", "bearssl", build_mul)
_register("RSA_i62", "bearssl", build_rsa_i62)
_register("SHA-256", "bearssl", build_sha256)
_register("SHAKE", "bearssl", build_shake)
_register("TLS PRF", "bearssl", build_tls_prf)

# --------------------------------------------------------------------------- #
# OpenSSL suite
# --------------------------------------------------------------------------- #
_register("chacha20", "openssl", build_openssl_chacha20)
_register("curve25519", "openssl", build_openssl_curve25519)
_register("sha256", "openssl", build_openssl_sha256)

# --------------------------------------------------------------------------- #
# Post-quantum suite
# --------------------------------------------------------------------------- #
_register("kyber512", "pqc", build_kyber512)
_register("kyber768", "pqc", build_kyber768)
_register("sphincs-haraka-128s", "pqc", build_sphincs_haraka)
_register("sphincs-sha2-128s", "pqc", build_sphincs_sha2)
_register("sphincs-shake-128s", "pqc", build_sphincs_shake)


def workload_names(suite: Optional[str] = None) -> List[str]:
    """All registered workload names, optionally filtered by suite."""
    return [
        name
        for name, workload in _REGISTRY.items()
        if suite is None or workload.suite == suite
    ]


#: A small representative subset used by the quick benchmarks and tests.
QUICK_WORKLOADS: List[str] = [
    "ChaCha20_ct",
    "SHA-256",
    "Poly1305_ctmul",
    "EC_c25519_i31",
    "ModPow_i31",
    "sphincs-sha2-128s",
]


def resolve_workload_names(selector: Optional[str]) -> List[str]:
    """Map a CLI-style selector to workload names.

    ``None``/``"all"``/``"full"`` → the full 22-workload suite;
    ``"quick"`` → the representative quick subset; anything else is a
    comma-separated list of registry names, repeats dropped.  An unknown
    name or an empty selection raises :class:`KeyError`.
    """
    if selector is None or selector in ("all", "full"):
        return workload_names()
    if selector == "quick":
        return list(QUICK_WORKLOADS)
    chosen = list(dict.fromkeys(name.strip() for name in selector.split(",") if name.strip()))
    if not chosen:
        raise KeyError(f"no workloads selected by {selector!r}")
    unknown = [name for name in chosen if name not in _REGISTRY]
    if unknown:
        raise KeyError(f"unknown workload(s): {unknown!r}; known: {sorted(_REGISTRY)!r}")
    return chosen


def get_workload(name: str) -> Workload:
    """Look up a workload by its paper name."""
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown workload {name!r}; known workloads: {sorted(_REGISTRY)}"
        ) from exc


def iter_workloads(suite: Optional[str] = None) -> Iterator[Workload]:
    """Iterate over workloads, optionally restricted to one suite."""
    for workload in _REGISTRY.values():
        if suite is None or workload.suite == suite:
            yield workload


def suites() -> List[WorkloadSuite]:
    """The three benchmark suites in the paper's presentation order."""
    return [
        WorkloadSuite("pqc", [w for w in _REGISTRY.values() if w.suite == "pqc"]),
        WorkloadSuite("openssl", [w for w in _REGISTRY.values() if w.suite == "openssl"]),
        WorkloadSuite("bearssl", [w for w in _REGISTRY.values() if w.suite == "bearssl"]),
    ]
