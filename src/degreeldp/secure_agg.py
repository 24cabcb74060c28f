"""Pairwise-masked secure aggregation over a prime-order multiplicative group.

A protocol run (one theta selection) starts with key agreement
(``agree_keys``): every party draws one key pair (sk, pk), and the
collector draws a uniform permutation of the parties, the order of one
Harary ring.  The n key pairs come from one batch (``ka_gen``) that
takes the same draws as n party-by-party rejection loops.  Ring position
p masks with positions p +- 1, ..., p +- h (mod n),
h = min(ceil(log2 n), floor(n / 2)), so every party has
k = min(2h, n - 1) peers (Bell et al., CCS 2020): 18 at n = 300, 32 at
n = 40,000, and every other party up to n = 7.  Each party derives its
shared key with each of its peers from its own secret key and the
peer's public key; the n x k key table is one windowed array
exponentiation, one row per party from its own secret key: in uint64
for the groups of at most 61 bits (the default), in Python ints for the
89- to 127-bit groups.  Each party then expands each of its keys once
into one SHAKE-256 stream of 32 bytes per round of the run
(``round_masks``); round r's scalar for a pair is chunk r of its
stream, reduced into Z_q (Bonawitz et al., CCS 2017), and a party's mask
for the round adds the scalars with a sign that depends on the party
ordering.  The masks are derived in blocks of parties whose streams fit
in about 0.5 MB, and each party's come from its own rows alone.  Summed
over all parties the masks telescope to zero, so the collector of a
round (``masked_sum_round``) recovers the exact plaintext sum while any
single masked value is uniformly distributed.  The collector learns the
sum over a set S of parties only if every peer of S outside S colludes
with it: for one party, all k of its peers.  Keys, ring and masks live
for one run only; the next run agrees new ones.

This is a protocol simulation for experiments, not hardened
cryptography: group sizes are small (moduli of at most 127 bits), there is
no authentication, and all parties run in one process.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import repeat
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


def ka_gen(params: GroupParams, rng: np.random.Generator, n: int) -> tuple[list[int], list[int]]:
    """n fresh key pairs (sks, pks) in party order: secrets uniform in [1, q - 2], so pk = g^sk mod q is never 1.

    g has order q - 1.  Each party's secret is 1 plus the first accepted
    draw of a rejection loop: rng.bytes(nbytes) read big-endian, masked to
    the bit length of q - 2, is accepted below q - 2.  rng.bytes(nbytes)
    takes ceil(nbytes / 4) whole uint32s from the stream, so one rng.bytes
    call over n slots of that many uint32s draws what n single calls
    draw, and each rejected slot is replaced by a further batch the size
    of the shortfall: the secrets and the generator's end state are those
    of n party-by-party loops.  The public keys are one 4-bit fixed-base
    window exponentiation of g over all n secrets.
    """
    q = params.q
    bound = q - 2
    nbits = bound.bit_length()
    nbytes = (nbits + 7) // 8
    slot = -(-nbytes // 4) * 4
    dtype = _dtype(q)
    sks = np.empty(0, dtype=dtype)
    while sks.size < n:
        raw = np.frombuffer(rng.bytes((n - sks.size) * slot), dtype=np.uint8).reshape(-1, slot)[:, :nbytes]
        draws = np.zeros(len(raw), dtype=dtype)
        for column in raw.T.astype(dtype):
            draws = draws << 8 | column
        draws &= (1 << nbits) - 1
        sks = np.concatenate([sks, draws[draws < bound]])
    sks += 1
    windows = -(-q.bit_length() // 4)
    ## table[w, d] = g^(d * 16^w), one row per 4-bit window of the exponent
    table = np.empty((windows, 16), dtype=dtype)
    base = params.g
    for w in range(windows):
        table[w] = [pow(base, d, q) for d in range(16)]
        base = pow(base, 16, q)
    pks = np.ones(n, dtype=dtype)
    for w, digits in enumerate(_digits(sks, windows).T):
        pks = _mulmod(pks, table[w, digits], q)
    return sks.tolist(), pks.tolist()


_M61 = 2**61 - 1
## rows of the key table exponentiated at once: temporaries stay O(_ROWS * k)
_ROWS = 1024
## entries of the window tables held at once: all 16 windows of the default group up to n = 1024
_TABLE = 1 << 18


def ka_agree(sks: Sequence[int], pks: Sequence[int], params: GroupParams, peers: np.ndarray) -> np.ndarray:
    """Each party's keys with its peers: entry [i, c] is pks[peers[i, c]]^sks[i] mod q, so row i is sks[i]'s alone.

    For key pairs (sks[i], pks[i]) both ends of an edge hold the same key;
    one _pow_rows call for every group, uint64 up to 61 bits and Python
    ints above.  Secrets outside [1, q - 2] and the public key 1 are
    refused: each makes its keys 1.
    """
    q = params.q
    if not all(0 < s < q - 1 for s in sks):
        raise ValueError(f"secret key out of range for q={q}")
    if not all(1 < p < q for p in pks):
        raise ValueError(f"public key out of range for q={q}")
    return _pow_rows(sks, pks, peers, q)


def _mulmod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """a * b mod q elementwise on arrays of residues: uint64 for q < 2^32 or q = 2^61 - 1, else Python ints.

    Below 2^32 the uint64 product fits, and Python ints never overflow.
    For 2^61 - 1 each factor is split into 32-bit halves, a = ah*2^32 + al,
    and the 122-bit product ah*bh*2^64 + mid*2^32 + al*bl is folded with
    2^61 = 1 (mod q), so 2^64 = 8: every term stays below 2^61 and their
    sum below 2^63.  Sums are taken in place, to keep few temporaries.
    """
    if q != _M61:
        return a * b % q
    ah, al, bh, bl = a >> 32, a & 0xFFFFFFFF, b >> 32, b & 0xFFFFFFFF
    mid = ah * bl
    mid += al * bh  # < 2^62
    s = ah * bh
    s <<= 3
    ## mid*2^32 = (mid >> 29)*2^61 + (mid mod 2^29)*2^32
    s += mid >> 29
    mid &= 2**29 - 1
    mid <<= 32
    s += mid
    low = al * bl  # < 2^64
    s += low >> 61
    low &= _M61
    s += low
    low = s >> 61
    s &= _M61
    s += low  # <= 2^61 + 2
    ## s - q wraps past 2^64 when s < q, so the minimum is s mod q
    return np.minimum(s, s - _M61, out=s)


def _dtype(q: int):
    """Residues mod q as uint64 up to q = 2^61 - 1 and Python ints above."""
    return np.uint64 if q <= _M61 else object


def _digits(exponents: np.ndarray, windows: int) -> np.ndarray:
    """The 4-bit digits of each exponent, least significant first: one row of windows digits per exponent."""
    shifts = np.arange(0, 4 * windows, 4, dtype=exponents.dtype)
    return (exponents[:, None] >> shifts & 15).astype(np.intp)


def _pow_rows(sk: Sequence[int], pk: Sequence[int], peers: np.ndarray, q: int) -> np.ndarray:
    """keys[i, c] = pk[peers[i, c]]^sk[i] mod q, uint64 up to q = 2^61 - 1 and Python ints above, by a 4-bit window.

    Window w of the exponent contributes pk^(d * 16^w) for its digit d, so
    one 16-entry table per window, built from the n public keys, turns
    each entry into a product of one table entry per window: per window,
    a gather and a _mulmod over the n x k entries, _ROWS rows at a time.
    The tables are built for as many windows at once as fit in _TABLE
    entries.
    """
    n = len(pk)
    dtype = _dtype(q)
    windows = -(-q.bit_length() // 4)
    digits = _digits(np.array(sk, dtype=dtype), windows)
    keys = np.ones(peers.shape, dtype=dtype)
    group = max(1, _TABLE // (16 * n))
    ## square = pk^(2^(4 * first)) at the start of each group of windows
    square = np.array(pk, dtype=dtype)
    for first in range(0, windows, group):
        stop = min(first + group, windows)
        ## squares[k] = pk^(2^(4 * first + k)), one squaring of the n public keys at a time
        squares = np.empty((4 * (stop - first), n), dtype=dtype)
        for k in range(len(squares)):
            squares[k] = square
            square = _mulmod(square, square, q)
        ## tables[w - first, d] = pk^(d * 16^w): entries 2^b..2^(b+1)-1 of every
        ## window are entries 0..2^b-1 times pk^(2^(4w+b))
        tables = np.empty((stop - first, 16, n), dtype=dtype)
        tables[:, 0] = 1
        for b in range(4):
            tables[:, 1 << b:2 << b] = _mulmod(tables[:, :1 << b], squares[b::4, None], q)
        for w in range(first, stop):
            for start in range(0, len(sk), _ROWS):
                rows = slice(start, start + _ROWS)
                keys[rows] = _mulmod(keys[rows], tables[w - first, digits[rows, w, None], peers[rows]], q)
    return keys


def _ring_peers(ring: np.ndarray) -> np.ndarray:
    """Each party's peers, ascending, on the Harary ring that visits the parties in the order ring.

    Position p's peers are positions p +- 1, ..., p +- h (mod n) with
    h = min(ceil(log2 n), floor(n / 2)): k = min(2h, n - 1) distinct
    parties, and the relation is symmetric.  Up to n = 7 that is every
    other party.
    """
    n = ring.size
    h = min((n - 1).bit_length(), n // 2)  # (n - 1).bit_length() = ceil(log2 n)
    offsets = np.array(sorted({d % n for d in range(-h, h + 1)} - {0}))
    position = np.empty(n, dtype=np.intp)
    position[ring] = np.arange(n)
    peers = ring[(position[:, None] + offsets) % n]
    peers.sort(axis=1)
    return peers


def agree_keys(n: int, params: GroupParams, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Key agreement for one protocol run of n parties, before its first round: the (peers, keys) tables.

    Every party draws one key pair, in party order; then the collector
    draws a uniform permutation of the parties, the order of the run's
    Harary ring.  Row i of peers lists party i's k peers ascending, and
    keys[i, c] is party i's key with peers[i, c], computed from party i's
    secret key alone, all rows in one ka_agree call.  Both ends of an edge
    hold the same key.
    """
    if n < 2:
        raise ValueError(f"masking needs at least 2 parties, got {n}")
    sks, pks = ka_gen(params, rng, n)
    peers = _ring_peers(rng.permutation(n))
    return peers, ka_agree(sks, pks, params, peers)


## one round's chunk of a pair's mask stream, summed as 32-bit big-endian
## lanes in int64: exact for fewer than 2^31 peers
_CHUNK_BYTES = 32
_LANES = _CHUNK_BYTES // 4
_LANE_WEIGHTS = np.array([1 << 32 * (_LANES - 1 - k) for k in range(_LANES)], dtype=object)
## a block of round_masks: its streams and their int64 copy fill at most this many bytes
_MASK_BYTES = 1 << 19


def mask_scalar(shared_key: int, params: GroupParams, rounds: int) -> bytes:
    """A pair's mask stream for a run of rounds rounds: one SHAKE-256 output of 32 bytes per round.

    Round r's Z_q scalar is the big-endian chunk r (bytes 32r to 32r+32)
    reduced mod q; 256 bits keep it within q / 2^256 of uniform.  The
    stream is prefix-stable: deriving more rounds never changes an
    earlier round's chunk.
    """
    data = b"mask-kdf\x00" + params.q.to_bytes(16, "big") + shared_key.to_bytes(16, "big")
    return hashlib.shake_256(data).digest(_CHUNK_BYTES * rounds)


def compute_mask(first: int, peers: np.ndarray, keys: np.ndarray, params: GroupParams, rounds: int) -> list[list[int]]:
    """Additive masks of parties first, first + 1, ... for rounds 0..rounds-1, from their own rows of the tables.

    peers and keys hold those parties' rows of the tables from agree_keys,
    and row b's masks come from row b alone.  Streams of keys with
    higher-id peers enter positively, lower-id negatively, so each round's
    masks cancel when all parties are summed.  One batched matmul sums
    every party's signed chunks unreduced, lane by lane, and each round
    reduces mod q once, which is the same value mod q as summing the
    reduced scalars.
    """
    streams = b"".join(map(mask_scalar, keys.ravel().tolist(), repeat(params), repeat(rounds)))
    chunks = np.frombuffer(streams, dtype=">u4").reshape(*peers.shape, rounds * _LANES)
    signs = np.where(peers > np.arange(first, first + len(peers))[:, None], 1, -1)
    lanes = (signs[:, None] @ chunks).reshape(len(peers), rounds, _LANES)
    return (lanes.astype(object) @ _LANE_WEIGHTS % params.q).tolist()


def round_masks(peers: np.ndarray, keys: np.ndarray, params: GroupParams, rounds: int) -> list[tuple[int, ...]]:
    """Every party's masks for rounds 0..rounds-1 of the run whose tables came from agree_keys.

    Entry r holds round r's masks in party order, ready for
    masked_sum_round; a run with more rounds than derived has no masks
    for them.  The parties are taken in blocks whose streams, with their
    int64 copy, fill at most _MASK_BYTES.
    """
    block = max(1, _MASK_BYTES // (3 * peers.shape[1] * rounds * _CHUNK_BYTES))
    masks = []
    for first in range(0, len(peers), block):
        rows = slice(first, first + block)
        masks += compute_mask(first, peers[rows], keys[rows], params, rounds)
    return list(zip(*masks))


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
    values = list(map(int, values))
    n = len(values)
    top = max(values, default=0)
    if top >= params.q or min(values, default=0) < 0:
        bad = next(v for v in values if not 0 <= v < params.q)
        raise ValueError(f"value {bad} outside [0, {params.q})")
    if n * top >= params.q:
        raise ValueError(f"{n} values up to {top} could sum past q={params.q}")
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
