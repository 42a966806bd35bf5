"""A reduced-parameter Kyber-style lattice KEM (IND-CPA core).

The scheme follows the structure of CRYSTALS-Kyber's reference
implementation: a public matrix ``A`` expanded from a seed by *rejection
sampling* over SHAKE128 output, secrets/noise from a centred binomial
distribution (CBD), and encryption/decryption via module-LWE arithmetic in
R_q = Z_q[x]/(x^n + 1).  Polynomial products use the schoolbook negacyclic
convolution (the structure of the reference C implementation's loops, without
the NTT optimisation).

Parameters are reduced (``n`` configurable, default 64 instead of 256) so the
matching ISA kernels stay within simulable instruction counts; the module
exposes the same parameter sets the kernels use, and the kernels are verified
against this model.

Note: this is a *workload substrate*, not a secure KEM — reduced parameters
offer no cryptographic security margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.crypto.primitives.keccak import shake128, shake256

Q = 3329


@dataclass(frozen=True)
class KyberParams:
    """Parameter set for the reduced Kyber-style scheme."""

    n: int = 64
    k: int = 2
    eta: int = 2
    name: str = "kyber512-reduced"


#: Reduced analogues of the two parameter sets the paper benchmarks.
KYBER512 = KyberParams(n=64, k=2, eta=2, name="kyber512-reduced")
KYBER768 = KyberParams(n=64, k=3, eta=2, name="kyber768-reduced")

Poly = List[int]
PolyVec = List[Poly]


def poly_zero(params: KyberParams) -> Poly:
    return [0] * params.n


def poly_add(a: Poly, b: Poly) -> Poly:
    return [(x + y) % Q for x, y in zip(a, b)]


def poly_sub(a: Poly, b: Poly) -> Poly:
    return [(x - y) % Q for x, y in zip(a, b)]


def poly_mul(a: Poly, b: Poly, params: KyberParams) -> Poly:
    """Negacyclic schoolbook product in Z_q[x]/(x^n + 1)."""
    n = params.n
    out = [0] * n
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            index = i + j
            product = ai * bj
            if index >= n:
                out[index - n] = (out[index - n] - product) % Q
            else:
                out[index] = (out[index] + product) % Q
    return out


def rejection_sample(stream: bytes, count: int) -> Tuple[Poly, int]:
    """Sample ``count`` coefficients uniform mod q by rejection.

    Consumes 12-bit candidates from ``stream`` (pairs of candidates per three
    bytes, as in the Kyber reference ``rej_uniform``).  Returns the
    coefficients and the number of bytes consumed; raises if the stream is
    too short.  The data-dependent accept/reject branch is the paper's
    example of an input-dependent branch (its trace varies between runs).
    """
    coefficients: List[int] = []
    offset = 0
    while len(coefficients) < count:
        if offset + 3 > len(stream):
            raise ValueError("rejection sampling exhausted the XOF stream")
        b0, b1, b2 = stream[offset], stream[offset + 1], stream[offset + 2]
        offset += 3
        candidate_a = b0 | ((b1 & 0x0F) << 8)
        candidate_b = (b1 >> 4) | (b2 << 4)
        if candidate_a < Q:
            coefficients.append(candidate_a)
        if len(coefficients) < count and candidate_b < Q:
            coefficients.append(candidate_b)
    return coefficients, offset


def cbd(buf: bytes, params: KyberParams) -> Poly:
    """Centred binomial distribution with parameter eta=2 (as in Kyber)."""
    if params.eta != 2:
        raise NotImplementedError("only eta=2 is supported")
    coefficients: List[int] = []
    bit_index = 0
    for _ in range(params.n):
        total_a = 0
        total_b = 0
        for _ in range(params.eta):
            byte = buf[bit_index // 8]
            total_a += (byte >> (bit_index % 8)) & 1
            bit_index += 1
        for _ in range(params.eta):
            byte = buf[bit_index // 8]
            total_b += (byte >> (bit_index % 8)) & 1
            bit_index += 1
        coefficients.append((total_a - total_b) % Q)
    return coefficients


def expand_matrix(seed: bytes, params: KyberParams) -> List[List[Poly]]:
    """Expand the public matrix A from ``seed`` by rejection sampling."""
    matrix: List[List[Poly]] = []
    for i in range(params.k):
        row: List[Poly] = []
        for j in range(params.k):
            stream = shake128(seed + bytes([i, j]), 3 * params.n + 96)
            poly, _consumed = rejection_sample(stream, params.n)
            row.append(poly)
        matrix.append(row)
    return matrix


def sample_noise_vector(seed: bytes, nonce: int, params: KyberParams) -> PolyVec:
    """Sample a vector of k CBD polynomials."""
    vector: PolyVec = []
    for i in range(params.k):
        buf = shake256(seed + bytes([nonce + i]), params.n)
        vector.append(cbd(buf, params))
    return vector


def matrix_vector_mul(matrix: Sequence[Sequence[Poly]], vector: PolyVec, params: KyberParams) -> PolyVec:
    out: PolyVec = []
    for row in matrix:
        acc = poly_zero(params)
        for a, v in zip(row, vector):
            acc = poly_add(acc, poly_mul(a, v, params))
        out.append(acc)
    return out


def inner_product(a: PolyVec, b: PolyVec, params: KyberParams) -> Poly:
    acc = poly_zero(params)
    for x, y in zip(a, b):
        acc = poly_add(acc, poly_mul(x, y, params))
    return acc


def compress_message(poly: Poly) -> List[int]:
    """Decode a polynomial back to message bits (round to nearest multiple of q/2)."""
    bits = []
    for coefficient in poly:
        distance = min(coefficient, Q - coefficient)
        bits.append(1 if distance > Q // 4 else 0)
    return bits


def decompress_message(bits: Sequence[int], params: KyberParams) -> Poly:
    """Encode message bits as 0 / q/2 coefficients."""
    if len(bits) != params.n:
        raise ValueError("message length must equal n")
    return [(Q // 2) * bit for bit in bits]


@dataclass
class KeyPair:
    public_seed: bytes
    t: PolyVec
    s: PolyVec
    params: KyberParams


def keygen(seed: bytes, params: KyberParams = KYBER512) -> KeyPair:
    """Generate an (IND-CPA) key pair from a 32-byte seed."""
    public_seed = shake128(seed + b"rho", 32)
    noise_seed = shake256(seed + b"sigma", 32)
    matrix = expand_matrix(public_seed, params)
    s = sample_noise_vector(noise_seed, 0, params)
    e = sample_noise_vector(noise_seed, params.k, params)
    t = [poly_add(row, err) for row, err in zip(matrix_vector_mul(matrix, s, params), e)]
    return KeyPair(public_seed=public_seed, t=t, s=s, params=params)


def encrypt(keypair: KeyPair, message_bits: Sequence[int], coins: bytes) -> Tuple[PolyVec, Poly]:
    """Encrypt n message bits under the public key."""
    params = keypair.params
    matrix = expand_matrix(keypair.public_seed, params)
    r = sample_noise_vector(coins, 0, params)
    e1 = sample_noise_vector(coins, params.k, params)
    e2 = cbd(shake256(coins + bytes([2 * params.k]), params.n), params)
    # u = A^T r + e1
    transposed = [[matrix[j][i] for j in range(params.k)] for i in range(params.k)]
    u = [poly_add(row, err) for row, err in zip(matrix_vector_mul(transposed, r, params), e1)]
    v = poly_add(
        poly_add(inner_product(keypair.t, r, params), e2),
        decompress_message(message_bits, params),
    )
    return u, v


def decrypt(keypair: KeyPair, ciphertext: Tuple[PolyVec, Poly]) -> List[int]:
    """Decrypt a ciphertext back to message bits."""
    u, v = ciphertext
    params = keypair.params
    return compress_message(poly_sub(v, inner_product(keypair.s, u, params)))
