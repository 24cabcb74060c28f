"""Pairwise-masked secure aggregation over a prime-order multiplicative group.

A protocol run (one theta selection) starts with key agreement
(``agree_keys``): every party draws one key pair (sk, pk) and derives a
Diffie-Hellman shared key with every other party.  Each round of the
run (``masked_sum_round``) then hashes every shared key together with
the round index into Z_q (Bonawitz et al., CCS 2017) and adds the
scalars with a sign that depends on the party ordering.  Summed
over all parties the masks telescope to zero, so the collector recovers
the exact plaintext sum while any single masked value is uniformly
distributed.  Keys live for one run only; the next run agrees new ones.

This is a protocol simulation for experiments, not hardened
cryptography: group sizes are small (moduli of at most 127 bits), there is
no authentication, and all parties run in one process.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

## Fixed published groups, keyed by modulus bit length: (q, g).  Moduli
## are the Mersenne primes 2^lam - 1 (65521, the largest 16-bit prime,
## fills the lam=16 slot).  Generators are the smallest primitive roots;
## tests/test_secure_agg.py checks their order against the factors of q-1.
_GROUPS: dict[int, tuple[int, int]] = {
    16: (65521, 17),
    17: (2**17 - 1, 3),
    19: (2**19 - 1, 3),
    31: (2**31 - 1, 7),
    61: (2**61 - 1, 37),
    89: (2**89 - 1, 3),
    107: (2**107 - 1, 3),
    127: (2**127 - 1, 43),
}

DEFAULT_BITS = 61


@dataclass(frozen=True)
class GroupParams:
    q: int
    g: int


def ka_param(bits: int = DEFAULT_BITS) -> GroupParams:
    """Fixed published group for the requested modulus bit length."""
    if bits not in _GROUPS:
        raise ValueError(f"unsupported modulus bit length {bits}; supported: {sorted(_GROUPS)}")
    return GroupParams(*_GROUPS[bits])


def _rand_below(rng: np.random.Generator, bound: int) -> int:
    """Uniform integer in [0, bound) by rejection on raw random bytes."""
    nbits = bound.bit_length()
    nbytes = (nbits + 7) // 8
    mask = (1 << nbits) - 1
    while True:
        x = int.from_bytes(rng.bytes(nbytes), "big") & mask
        if x < bound:
            return x


def ka_gen(params: GroupParams, rng: np.random.Generator) -> tuple[int, int]:
    """Fresh key pair (sk, pk): random secret in Z_q, public key g^sk mod q."""
    sk = _rand_below(rng, params.q)
    return sk, pow(params.g, sk, params.q)


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
    for i, (sk, _) in enumerate(pairs):
        keys[i] = [0 if j == i else ka_agree(sk, pk, params) for j, (_, pk) in enumerate(pairs)]
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


def compute_mask(i: int, key_row: np.ndarray, params: GroupParams, round_index: int = 0) -> int:
    """Party i's additive mask in round round_index from its row of the run's keys.

    key_row is keys[i] from agree_keys.  Keys with higher-indexed parties
    enter positively, lower-indexed negatively, so the masks cancel when
    all parties are summed.
    """
    m = 0
    for j, key in enumerate(key_row.tolist()):
        if j != i:
            s = mask_scalar(key, params, round_index)
            m += s if j > i else -s
    return m % params.q


def aggregate(values: Sequence[int], params: GroupParams) -> int:
    """Sum of masked values mod q; exact when the plaintext sum is below q."""
    return sum(values) % params.q


def masked_sum_round(
    values: Sequence[int],
    params: GroupParams,
    masked: bool = True,
    round_log: list | None = None,
    keys: np.ndarray | None = None,
    round_index: int = 0,
) -> int:
    """One aggregation round: every party masks its value, the collector sums.

    keys are the run's pairwise keys from agree_keys and round_index the
    round's place in that run; each party hashes its keys with the round
    index into its mask.  With masked=False the plaintext values are
    summed directly and keys are not needed; the result is bit-identical
    because the masks cancel exactly.  round_log, when given, receives one
    record per round (the per-party payloads in party order).

    Masking needs at least 2 parties and the run's keys, and the round is
    refused when n * max(values) reaches q, since the sum could then wrap
    mod q.
    """
    values = [int(v) for v in values]
    n = len(values)
    for v in values:
        if not 0 <= v < params.q:
            raise ValueError(f"value {v} outside [0, {params.q})")
    if values and n * max(values) >= params.q:
        raise ValueError(f"{n} values up to {max(values)} could sum past q={params.q}")
    if not masked:
        if round_log is not None:
            round_log.append(("plain", tuple(values)))
        return sum(values) % params.q

    if n < 2:
        raise ValueError(f"masking needs at least 2 parties, got {n}")
    if keys is None:
        raise ValueError("a masked round needs the run's keys from agree_keys")
    if keys.shape != (n, n):
        raise ValueError(f"keys have shape {keys.shape}, expected ({n}, {n})")
    payloads = tuple((values[i] + compute_mask(i, keys[i], params, round_index)) % params.q for i in range(n))
    if round_log is not None:
        round_log.append(("masked", payloads))
    return aggregate(payloads, params)
