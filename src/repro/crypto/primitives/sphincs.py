"""A reduced SPHINCS+-style hash-based signature (WOTS+ chains + Merkle tree).

SPHINCS+ signing is dominated by very regular hash-chain loops, which is why
the paper's three ``sphincs-*-128s`` workloads compress so well.  This module
implements the two components that generate that control flow — Winternitz
one-time signatures (WOTS+) and a Merkle authentication tree — parameterised
by the tweakable hash function (SHA-256-, SHAKE-, or Haraka-style), mirroring
the three benchmark variants.

Reduced parameters (16-byte hashes, small trees) keep the matching ISA
kernels simulable; the signing/verification logic is otherwise standard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.crypto.primitives.keccak import shake256
from repro.crypto.primitives.sha256 import sha256

HashFn = Callable[[bytes], bytes]

#: Output size of the tweakable hash (bytes).
N = 16


def sha2_hash(data: bytes) -> bytes:
    """SHA-256-based tweakable hash (sphincs-sha2 variant)."""
    return sha256(data)[:N]


def shake_hash(data: bytes) -> bytes:
    """SHAKE-based tweakable hash (sphincs-shake variant)."""
    return shake256(data, N)


def haraka_hash(data: bytes) -> bytes:
    """A Haraka-style short-input permutation hash (sphincs-haraka variant).

    Haraka512 is an AES-round-based permutation for short inputs; we model it
    with a small ARX permutation over four 32-bit words, keeping the "short
    input, fixed rounds" structure.
    """
    words = [0x9E3779B9, 0x243F6A88, 0xB7E15162, 0x5BE0CD19]
    padded = data + b"\x00" * ((-len(data)) % 16)
    for offset in range(0, len(padded), 16):
        for i in range(4):
            words[i] ^= int.from_bytes(padded[offset + 4 * i : offset + 4 * i + 4], "little")
        for _round in range(5):
            for i in range(4):
                words[i] = (words[i] + words[(i + 1) % 4]) & 0xFFFFFFFF
                words[(i + 2) % 4] ^= ((words[i] << 7) | (words[i] >> 25)) & 0xFFFFFFFF
    return b"".join(w.to_bytes(4, "little") for w in words)


HASH_VARIANTS = {
    "sha2": sha2_hash,
    "shake": shake_hash,
    "haraka": haraka_hash,
}


@dataclass(frozen=True)
class SphincsParams:
    """Reduced SPHINCS-style parameters."""

    winternitz: int = 16  # chain length parameter w
    chains: int = 8  # number of WOTS chains (len)
    tree_height: int = 3
    variant: str = "sha2"
    name: str = "sphincs-sha2-128s-reduced"

    @property
    def hash_fn(self) -> HashFn:
        return HASH_VARIANTS[self.variant]


SPHINCS_SHA2 = SphincsParams(variant="sha2", name="sphincs-sha2-128s-reduced")
SPHINCS_SHAKE = SphincsParams(variant="shake", name="sphincs-shake-128s-reduced")
SPHINCS_HARAKA = SphincsParams(variant="haraka", name="sphincs-haraka-128s-reduced")


def chain(value: bytes, start: int, steps: int, params: SphincsParams) -> bytes:
    """Apply the WOTS chaining function ``steps`` times starting at ``start``."""
    out = value
    hash_fn = params.hash_fn
    for i in range(start, start + steps):
        out = hash_fn(bytes([i]) + out)
    return out


def message_to_digits(digest: bytes, params: SphincsParams) -> List[int]:
    """Split a message digest into base-w digits, one per chain."""
    digits: List[int] = []
    bits_per_digit = params.winternitz.bit_length() - 1
    bit_buffer = int.from_bytes(digest, "big")
    total_bits = len(digest) * 8
    for i in range(params.chains):
        shift = total_bits - bits_per_digit * (i + 1)
        digits.append((bit_buffer >> max(shift, 0)) & (params.winternitz - 1))
    return digits


def wots_keygen(seed: bytes, params: SphincsParams) -> Tuple[List[bytes], bytes]:
    """Generate WOTS secret chain heads and the compressed public key."""
    hash_fn = params.hash_fn
    secrets = [hash_fn(seed + bytes([i])) for i in range(params.chains)]
    publics = [chain(secret, 0, params.winternitz - 1, params) for secret in secrets]
    return secrets, hash_fn(b"".join(publics))


def wots_sign(digest: bytes, seed: bytes, params: SphincsParams) -> List[bytes]:
    """Sign a digest: advance each chain by its message digit."""
    secrets, _public = wots_keygen(seed, params)
    digits = message_to_digits(digest, params)
    return [chain(secret, 0, digit, params) for secret, digit in zip(secrets, digits)]


def merkle_tree(leaves: Sequence[bytes], params: SphincsParams) -> List[List[bytes]]:
    """Build a full Merkle tree; ``levels[0]`` is the leaf level."""
    hash_fn = params.hash_fn
    levels = [list(leaves)]
    while len(levels[-1]) > 1:
        level = levels[-1]
        levels.append(
            [hash_fn(level[i] + level[i + 1]) for i in range(0, len(level), 2)]
        )
    return levels


def merkle_auth_path(levels: Sequence[Sequence[bytes]], leaf_index: int) -> List[bytes]:
    """The authentication path for ``leaf_index``."""
    path = []
    index = leaf_index
    for level in levels[:-1]:
        sibling = index ^ 1
        path.append(level[sibling])
        index //= 2
    return path


def merkle_root_from_path(leaf: bytes, leaf_index: int, path: Sequence[bytes], params: SphincsParams) -> bytes:
    """Recompute the root from a leaf and its authentication path."""
    hash_fn = params.hash_fn
    node = leaf
    index = leaf_index
    for sibling in path:
        if index % 2 == 0:
            node = hash_fn(node + sibling)
        else:
            node = hash_fn(sibling + node)
        index //= 2
    return node


@dataclass
class SphincsSignature:
    wots_signature: List[bytes]
    leaf_index: int
    auth_path: List[bytes]


@dataclass
class SphincsKeyPair:
    seed: bytes
    root: bytes
    params: SphincsParams


def keygen(seed: bytes, params: SphincsParams = SPHINCS_SHA2) -> SphincsKeyPair:
    """Generate a key pair: one WOTS instance per Merkle leaf."""
    leaf_count = 1 << params.tree_height
    leaves = []
    for leaf_index in range(leaf_count):
        _secrets, public = wots_keygen(seed + bytes([leaf_index]), params)
        leaves.append(public)
    levels = merkle_tree(leaves, params)
    return SphincsKeyPair(seed=seed, root=levels[-1][0], params=params)


def sign(message: bytes, keypair: SphincsKeyPair, leaf_index: int = 0) -> SphincsSignature:
    """Sign ``message`` with the WOTS instance at ``leaf_index``."""
    params = keypair.params
    digest = params.hash_fn(message)
    wots_sig = wots_sign(digest, keypair.seed + bytes([leaf_index]), params)
    leaf_count = 1 << params.tree_height
    leaves = []
    for index in range(leaf_count):
        _secrets, public = wots_keygen(keypair.seed + bytes([index]), params)
        leaves.append(public)
    levels = merkle_tree(leaves, params)
    return SphincsSignature(
        wots_signature=wots_sig,
        leaf_index=leaf_index,
        auth_path=merkle_auth_path(levels, leaf_index),
    )


def verify(message: bytes, signature: SphincsSignature, root: bytes, params: SphincsParams) -> bool:
    """Verify a signature against the Merkle root."""
    digest = params.hash_fn(message)
    digits = message_to_digits(digest, params)
    completed = [
        chain(sig, digit, params.winternitz - 1 - digit, params)
        for sig, digit in zip(signature.wots_signature, digits)
    ]
    leaf = params.hash_fn(b"".join(completed))
    return merkle_root_from_path(leaf, signature.leaf_index, signature.auth_path, params) == root
