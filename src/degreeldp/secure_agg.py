"""Pairwise-masked secure aggregation over a prime-order multiplicative group.

A protocol run (one theta selection) starts with key agreement: every
party draws one key pair and derives a Diffie-Hellman shared key with
every other party.  Each round of the run then hashes every shared key
together with the round index into Z_q (Bonawitz et al., CCS 2017) and
adds the scalars with a sign that depends on the party ordering.  Summed
over all parties the masks telescope to zero, so the collector recovers
the exact plaintext sum while any single masked value is uniformly
distributed.  Keys live for one run only; the next run agrees new ones.

This is a protocol simulation for experiments, not hardened
cryptography: group sizes are small (default 61-bit modulus), there is
no authentication, and all parties run in one process.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

## Fixed published groups, keyed by modulus bit length.  Moduli are the
## Mersenne primes 2^lam - 1 (65521, the largest 16-bit prime, fills the
## lam=16 slot).  Generators are the smallest primitive roots; the prime
## factors of q-1 let tests verify generator order independently.
_GROUPS: dict[int, tuple[int, int, tuple[int, ...]]] = {
    16: (65521, 17, (2, 3, 5, 7, 13)),
    17: (2**17 - 1, 3, (2, 3, 5, 17, 257)),
    19: (2**19 - 1, 3, (2, 3, 7, 19, 73)),
    31: (2**31 - 1, 7, (2, 3, 7, 11, 31, 151, 331)),
    61: (2**61 - 1, 37, (2, 3, 5, 7, 11, 13, 31, 41, 61, 151, 331, 1321)),
    89: (2**89 - 1, 3, (2, 3, 5, 17, 23, 89, 353, 397, 683, 2113, 2931542417)),
    107: (2**107 - 1, 3, (2, 3, 107, 6361, 69431, 20394401, 28059810762433)),
    127: (2**127 - 1, 43, (2, 3, 7, 19, 43, 73, 127, 337, 5419, 92737, 649657, 77158673929)),
}

DEFAULT_BITS = 61

FIXED_POINT_SCALE = 10**6


@dataclass(frozen=True)
class GroupParams:
    q: int
    g: int
    bits: int
    subgroup_factors: tuple[int, ...] = ()


@dataclass(frozen=True)
class KeyPair:
    sk: int
    pk: int


@dataclass(frozen=True)
class MaskedValue:
    value: int


def ka_param(bits: int = DEFAULT_BITS) -> GroupParams:
    """Fixed published group for the requested modulus bit length."""
    if bits < 16:
        raise ValueError(f"modulus bit length must be at least 16, got {bits}")
    if bits not in _GROUPS:
        raise ValueError(f"unsupported modulus bit length {bits}; supported: {sorted(_GROUPS)}")
    q, g, factors = _GROUPS[bits]
    return GroupParams(q=q, g=g, bits=bits, subgroup_factors=factors)


def _rand_below(rng: np.random.Generator, bound: int) -> int:
    """Uniform integer in [0, bound) by rejection on raw random bytes."""
    nbits = bound.bit_length()
    nbytes = (nbits + 7) // 8
    mask = (1 << nbits) - 1
    while True:
        x = int.from_bytes(rng.bytes(nbytes), "big") & mask
        if x < bound:
            return x


def ka_gen(params: GroupParams, rng: np.random.Generator) -> KeyPair:
    """Fresh key pair: random secret in Z_q, public key g^sk mod q."""
    sk = _rand_below(rng, params.q)
    return KeyPair(sk=sk, pk=pow(params.g, sk, params.q))


def ka_agree(sk: int, pk: int, params: GroupParams) -> int:
    """Shared key pk^sk mod q; symmetric in the two parties."""
    if not 0 <= sk < params.q:
        raise ValueError(f"secret key out of range for q={params.q}")
    if not 1 <= pk < params.q:
        raise ValueError(f"public key out of range for q={params.q}")
    return pow(pk, sk, params.q)


def agree_keys(n: int, params: GroupParams, rng: np.random.Generator) -> np.ndarray:
    """Key agreement for one protocol run of n parties, before its first round.

    Every party draws one key pair, then derives its shared key with every
    other party from its own secret key and the other's public key:
    keys[i, j] is party i's copy, keys[j, i] party j's, and the two are
    equal.  The diagonal is unused.  Keys are uint64 for moduli below
    2^64 and Python ints for the wider groups.
    """
    if n < 2:
        raise ValueError(f"masking needs at least 2 parties, got {n}")
    pairs = [ka_gen(params, rng) for _ in range(n)]
    keys = np.zeros((n, n), dtype=np.uint64 if params.q < 2**64 else object)
    for i, own in enumerate(pairs):
        keys[i] = [0 if j == i else ka_agree(own.sk, other.pk, params) for j, other in enumerate(pairs)]
    return keys


def mask_scalar(shared_key: int, params: GroupParams, round_index: int = 0) -> int:
    """Fixed public derivation of round round_index's Z_q mask scalar from a shared group key."""
    data = (
        b"mask-kdf\x00"
        + params.q.to_bytes(16, "big")
        + round_index.to_bytes(8, "big")
        + shared_key.to_bytes(16, "big")
    )
    digest = hashlib.sha256(data).digest()
    return int.from_bytes(digest, "big") % params.q


def compute_mask(i: int, shared_keys: Mapping[int, int], params: GroupParams, round_index: int = 0) -> int:
    """Party i's additive mask in round round_index from its shared keys with every other party.

    Keys with higher-indexed parties enter positively, lower-indexed
    negatively, so the masks cancel when all parties are summed.
    shared_keys must cover exactly the other parties 0..n-1.
    """
    n = len(shared_keys) + 1
    expected = set(range(n)) - {i}
    if set(shared_keys) != expected:
        missing = sorted(expected - set(shared_keys))
        raise ValueError(f"party {i}: missing pairwise keys for parties {missing}")
    m = 0
    for j, key in shared_keys.items():
        s = mask_scalar(key, params, round_index)
        m = (m + s) % params.q if j > i else (m - s) % params.q
    return m


def mask_value(x: int, mask: int, params: GroupParams) -> MaskedValue:
    if not 0 <= x < params.q:
        raise ValueError(f"value {x} outside [0, {params.q})")
    return MaskedValue((x + mask) % params.q)


def aggregate(values: Sequence[MaskedValue], params: GroupParams) -> int:
    """Sum of masked values mod q; exact when the plaintext sum is below q."""
    total = 0
    for v in values:
        total = (total + v.value) % params.q
    return total


def encode_fixed(x: float) -> int:
    """Fixed-point encoding of a nonnegative real at 1e-6 resolution."""
    if x < 0:
        raise ValueError(f"fixed-point encoding expects nonnegative values, got {x}")
    return int(round(x * FIXED_POINT_SCALE))


def decode_fixed(v: int) -> float:
    return v / FIXED_POINT_SCALE


def masked_sum_round(
    values: Sequence[int],
    params: GroupParams,
    rng: np.random.Generator,
    masked: bool = True,
    round_log: list | None = None,
    keys: np.ndarray | None = None,
    round_index: int = 0,
) -> int:
    """One aggregation round: every party masks its value, the collector sums.

    keys are the run's pairwise keys from agree_keys and round_index the
    round's place in that run; each party hashes its keys with the round
    index into its mask.  Without keys the call is a run of one round and
    agrees its own keys from rng.  With masked=False the plaintext values
    are summed directly; the result is bit-identical because the masks
    cancel exactly.  round_log, when given, receives one record per round
    (the per-party payloads in party order).

    Masking needs at least 2 parties, and the round is refused when
    n * max(values) reaches q, since the sum could then wrap mod q.
    """
    values = [int(v) for v in values]
    n = len(values)
    for v in values:
        if not 0 <= v < params.q:
            raise ValueError(f"value {v} outside [0, {params.q})")
    if values and n * max(values) >= params.q:
        raise ValueError(f"{n} values up to {max(values)} could sum past q={params.q}")
    if not masked:
        total = sum(values) % params.q
        if round_log is not None:
            round_log.append(("plain", tuple(values)))
        return total

    if keys is None:
        keys = agree_keys(n, params, rng)
    elif keys.shape != (n, n):
        raise ValueError(f"keys have shape {keys.shape}, expected ({n}, {n})")
    masked_vals: list[MaskedValue] = []
    for i in range(n):
        shared = {j: key for j, key in enumerate(keys[i].tolist()) if j != i}
        m_i = compute_mask(i, shared, params, round_index)
        masked_vals.append(mask_value(values[i], m_i, params))
    if round_log is not None:
        round_log.append(("masked", tuple(mv.value for mv in masked_vals)))
    return aggregate(masked_vals, params)
