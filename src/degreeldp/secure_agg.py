"""Pairwise-masked secure aggregation over a prime-order multiplicative group.

A protocol run (one theta selection) starts with key agreement
(``agree_keys``): every party draws one key pair (sk, pk) and derives a
Diffie-Hellman shared key with every other party.  Each party then
expands every shared key once into one SHAKE-256 stream of 32 bytes per
round of the run (``round_masks``); round r's scalar for a pair is chunk
r of its stream, reduced into Z_q (Bonawitz et al., CCS 2017), and a
party's mask for the round adds the scalars with a sign that depends on
the party ordering.  Summed over all parties the masks telescope to
zero, so the collector of a round (``masked_sum_round``) recovers the
exact plaintext sum while any single masked value is uniformly
distributed.  Keys and masks live for one run only; the next run agrees
new ones.

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


## one round's chunk of a pair's mask stream, summed as 32-bit big-endian
## lanes in int64: exact for fewer than 2^31 parties
_CHUNK_BYTES = 32
_LANES = _CHUNK_BYTES // 4


def mask_scalar(shared_key: int, params: GroupParams, rounds: int) -> bytes:
    """A pair's mask stream for a run of rounds rounds: one SHAKE-256 output of 32 bytes per round.

    Round r's Z_q scalar is the big-endian chunk r (bytes 32r to 32r+32)
    reduced mod q; 256 bits keep it within q / 2^256 of uniform.  The
    stream is prefix-stable: deriving more rounds never changes an
    earlier round's chunk.
    """
    data = b"mask-kdf\x00" + params.q.to_bytes(16, "big") + shared_key.to_bytes(16, "big")
    return hashlib.shake_256(data).digest(_CHUNK_BYTES * rounds)


def compute_mask(i: int, key_row: np.ndarray, params: GroupParams, rounds: int) -> list[int]:
    """Party i's additive masks for rounds 0..rounds-1 from its row of the run's keys.

    key_row is keys[i] from agree_keys.  Streams of keys with
    higher-indexed parties enter positively, lower-indexed negatively, so
    each round's masks cancel when all parties are summed.  The chunks
    are summed unreduced, lane by lane, and each round reduces mod q
    once, which is the same value mod q as summing the reduced scalars.
    """
    keys = key_row.tolist()

    def lane_sums(parties: range) -> np.ndarray:
        stream = b"".join(mask_scalar(keys[j], params, rounds) for j in parties)
        return np.frombuffer(stream, dtype=">u4").reshape(-1, rounds * _LANES).sum(axis=0, dtype=np.int64)

    lanes = lane_sums(range(i + 1, len(keys))) - lane_sums(range(i))
    masks = []
    for chunk in lanes.reshape(rounds, _LANES).tolist():
        m = 0
        for lane in chunk:
            m = (m << 32) + lane
        masks.append(m % params.q)
    return masks


def round_masks(keys: np.ndarray, params: GroupParams, rounds: int) -> list[tuple[int, ...]]:
    """Every party's masks for rounds 0..rounds-1 of the run whose keys came from agree_keys.

    Entry r holds round r's masks in party order, ready for
    masked_sum_round; a run with more rounds than derived has no masks
    for them.
    """
    return list(zip(*(compute_mask(i, keys[i], params, rounds) for i in range(keys.shape[0]))))


def aggregate(values: Sequence[int], params: GroupParams) -> int:
    """Sum of masked values mod q; exact when the plaintext sum is below q."""
    return sum(values) % params.q


def masked_sum_round(
    values: Sequence[int],
    params: GroupParams,
    masked: bool = True,
    round_log: list | None = None,
    masks: Sequence[int] | None = None,
) -> int:
    """One aggregation round: every party masks its value, the collector sums.

    masks are the round's per-party masks, entry r of round_masks for
    round r of a run.  With masked=False the plaintext values are summed
    directly and masks are not needed; the result is bit-identical
    because the masks cancel exactly.  round_log, when given, receives
    one record per round (the per-party payloads in party order).

    Masking needs at least 2 parties and one mask per party, and the
    round is refused when n * max(values) reaches q, since the sum could
    then wrap mod q.
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
    if masks is None:
        raise ValueError("a masked round needs its masks from round_masks")
    if len(masks) != n:
        raise ValueError(f"{len(masks)} masks for {n} parties")
    payloads = tuple((v + m) % params.q for v, m in zip(values, masks))
    if round_log is not None:
        round_log.append(("masked", payloads))
    return aggregate(payloads, params)
