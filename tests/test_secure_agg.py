import hashlib
import math
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from scipy import stats as sstats

from degreeldp import secure_agg
from degreeldp.graph import Graph, degree_sequence
from degreeldp.harness import load_dataset
from degreeldp.secure_agg import (
    GROUP,
    _mulmod,
    aggregate,
    agree_keys,
    compute_mask,
    ka_agree,
    ka_gen,
    ka_param,
    mask_scalar,
    masked_sum_round,
    round_masks,
)
from degreeldp.theta import ThetaSearchConfig, theta_by_deviation, theta_by_sum

Q = GROUP.q
## prime factors of q - 1, so that the generator's order is checked independently of the package
SUBGROUP_FACTORS = (2, 3, 5, 7, 11, 13, 31, 41, 61, 151, 331, 1321)


def run_masks(values, seed):
    """Masks of a one-round run over len(values) parties."""
    return round_masks(*agree_keys(len(values), np.random.default_rng(seed)), 1)[0]


def reference_key_pairs(rng, n):
    """n key pairs drawn as ka_gen draws them: one rng.integers call for the secrets in [1, q - 2], then pow."""
    return [(sk, pow(GROUP.g, sk, Q)) for sk in rng.integers(1, Q - 1, size=n, dtype=np.uint64).tolist()]


class BoundedDraw:
    """A stand-in generator whose integers() returns the given secrets and records the bounds it was asked for."""

    def __init__(self, secrets):
        self.secrets = secrets
        self.requests = []

    def integers(self, low, high, size, dtype):
        self.requests.append((low, high, size, dtype))
        return np.array(self.secrets, dtype=dtype)


def complete_peers(n):
    """Every other party, ascending: the peer table of the complete masking graph."""
    return np.array([[j for j in range(n) if j != i] for i in range(n)], dtype=np.intp)


def key_matrix(peers, keys):
    """The n x n matrix holding party i's key with party j at [i, j], and 0 where they are not peers."""
    dense = np.zeros((len(peers), len(peers)), dtype=object)
    for i, (row, key_row) in enumerate(zip(peers, keys)):
        dense[i, row] = key_row.tolist()
    return dense


class TestGroupTable:
    def test_default_group(self):
        assert GROUP.q == 2**61 - 1
        assert GROUP.g == 37
        assert ka_param(61) is ka_param() is GROUP

    def test_modulus_is_prime_with_declared_bit_length(self):
        assert sympy.isprime(Q)
        assert Q.bit_length() == 61

    def test_generator_has_full_order(self):
        ## g is a primitive root iff g^((q-1)/f) != 1 for every prime f | q-1
        for f in SUBGROUP_FACTORS:
            assert (Q - 1) % f == 0
            assert pow(GROUP.g, (Q - 1) // f, Q) != 1

    def test_declared_factors_are_complete(self):
        assert tuple(sorted(sympy.factorint(Q - 1))) == SUBGROUP_FACTORS

    @pytest.mark.parametrize("bits", [8, 15, -1])
    def test_too_small_rejected(self, bits):
        with pytest.raises(ValueError):
            ka_param(bits)

    def test_unsupported_size_rejected(self):
        with pytest.raises(ValueError, match="unsupported"):
            ka_param(20)


class TestKeyAgreement:
    @pytest.mark.parametrize("seed", range(10))
    def test_shared_key_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        (a_sk, b_sk), (a_pk, b_pk) = ka_gen(rng, 2)
        keys = ka_agree([a_sk, b_sk], [a_pk, b_pk], complete_peers(2))
        assert keys[0, 0] == keys[1, 0] == pow(b_pk, a_sk, Q)

    def test_public_key_in_group(self):
        ## the extremes of [1, q - 1): sk = 0 and sk = q - 1 would both give pk = 1
        for secrets in ([1], [Q - 2], [1, Q - 2]):
            stub = BoundedDraw(secrets)
            sks, pks = ka_gen(stub, len(secrets))
            assert sks == secrets and stub.requests == [(1, Q - 1, len(secrets), np.uint64)]
            for sk, pk in zip(sks, pks):
                assert pk == pow(GROUP.g, sk, Q) != 1

    def test_out_of_range_rejected(self):
        peers = complete_peers(1)
        with pytest.raises(ValueError):
            ka_agree([0], [0], peers)  # pk = 0 is not a group element
        with pytest.raises(ValueError):
            ka_agree([Q], [2], peers)
        with pytest.raises(ValueError):
            ka_agree([-1], [2], peers)

    def test_mask_scalar_deterministic(self):
        stream = mask_scalar(123456789, 3)
        assert stream == mask_scalar(123456789, 3)
        assert len(stream) == 3 * 32
        assert stream != mask_scalar(123456788, 3)
        ## the KDF input names q in 16 bytes; every seeded mask stream, and so every masked golden, rests on it
        kdf_input = b"mask-kdf\x00" + Q.to_bytes(16, "big") + (123456789).to_bytes(16, "big")
        assert stream == hashlib.shake_256(kdf_input).digest(3 * 32)


def ring_reach(n):
    """h = min(ceil(log2 n), floor(n / 2)): ring position p masks with positions p ± 1, ..., p ± h."""
    return min(math.ceil(math.log2(n)), n // 2)


def ring_degree(n):
    """k = min(2h, n - 1) peers per party."""
    return min(2 * ring_reach(n), n - 1)


def check_tables(peers, keys, seed):
    """The tables of agree_keys(n, default_rng(seed)): ring peers, and every key is pow of the peer's pk."""
    n = len(peers)
    k, h = ring_degree(n), ring_reach(n)
    ## the same draws as agree_keys: one key pair per party, in party order, then the ring
    rng = np.random.default_rng(seed)
    pairs = reference_key_pairs(rng, n)
    ring = rng.permutation(n)
    assert peers.shape == keys.shape == (n, k)
    position = {int(party): pos for pos, party in enumerate(ring)}
    for i in range(n):
        row = peers[i].tolist()
        assert row == sorted(set(row)) and i not in row
        ## ring positions p +- 1, ..., p +- h
        assert {(position[j] - position[i]) % n for j in row} <= set(range(1, h + 1)) | set(range(n - h, n))
        for c, j in enumerate(row):
            assert int(keys[i, c]) == pow(pairs[j][1], pairs[i][0], Q)
    ## the peer relation is symmetric, and both ends of an edge hold the same key
    dense = key_matrix(peers, keys)
    assert np.array_equal(dense, dense.T)


class TestArrayKeyAgreement:
    """The key table from one array ka_agree call equals pow on every edge of the ring."""

    @given(n=st.integers(2, 40), seed=st.integers(0, 2**63))
    @settings(max_examples=60, deadline=None)
    def test_agree_keys_matches_pow(self, n, seed):
        peers, keys = agree_keys(n, np.random.default_rng(seed))
        check_tables(peers, keys, seed)

    def test_mulmod_boundaries(self):
        edges = [0, 1, 2**32 - 1, 2**32, Q - 1]
        a, b = (np.array(x, dtype=np.uint64) for x in zip(*[(x, y) for x in edges for y in edges]))
        assert _mulmod(a, b).tolist() == [x * y % Q for x, y in zip(a.tolist(), b.tolist())]

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_mulmod_matches_python_ints(self, data):
        ## uint64 residues, as ka_agree holds them, with the edge residues 0, 1 and q - 1 among the draws
        residue = st.one_of(st.sampled_from([0, 1, Q - 1]), st.integers(0, Q - 1))
        xs = data.draw(st.lists(st.tuples(residue, residue), min_size=1, max_size=20))
        a, b = (np.array(x, dtype=np.uint64) for x in zip(*xs))
        assert _mulmod(a, b).tolist() == [x * y % Q for x, y in xs]

    def test_one_out_of_range_entry_rejected(self):
        rng = np.random.default_rng(0)
        sks, pks = ka_gen(rng, 5)
        peers = complete_peers(5)
        assert ka_agree(sks, pks, peers).shape == (5, 4)
        with pytest.raises(ValueError, match="public key"):
            ka_agree(sks, pks[:3] + [0] + pks[4:], peers)
        ## pk = 1 is a group element, but every key agreed with it is 1
        with pytest.raises(ValueError, match="public key out of range"):
            ka_agree(sks, pks[:3] + [1] + pks[4:], peers)
        with pytest.raises(ValueError, match="secret key"):
            ka_agree(sks[:3] + [Q] + sks[4:], pks, peers)
        with pytest.raises(ValueError, match="secret key"):
            ka_agree([-1] + sks[1:], pks, peers)
        ## the secrets 0 and q - 1 make every key of their row 1, as pk = 1 does its column
        for weak in (0, Q - 1):
            with pytest.raises(ValueError, match="secret key out of range"):
                ka_agree([weak] + sks[1:], pks, peers)


class TestMasking:
    def _masks(self, n, seed):
        rng = np.random.default_rng(seed)
        keys = reference_key_pairs(rng, n)
        peers = secure_agg._ring_peers(rng.permutation(n))
        masks = []
        for i in range(n):
            row = np.array([pow(keys[j][1], keys[i][0], Q) for j in peers[i]], dtype=np.uint64)
            masks.append(compute_mask(i, peers[i:i + 1], row[None], 1)[0][0])
        return masks

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (5, 2), (8, 3), (12, 4)])
    def test_masks_telescope_to_zero(self, n, seed):
        masks = self._masks(n, seed)
        assert sum(masks) % Q == 0

    def test_missing_pairwise_key_rejected(self):
        ## a round without party 2's mask: masks cover 2 parties, values 3
        masks = round_masks(*agree_keys(2, np.random.default_rng(0)), 1)[0]
        with pytest.raises(ValueError, match="2 masks for 3 parties"):
            masked_sum_round([1, 2, 3], masks=masks)
        with pytest.raises(ValueError, match="1 masks for 2 parties"):
            masked_sum_round([1, 2], masks=masks[:1])

    def test_mask_value_range_checks(self):
        masks = run_masks([0, 0], 0)
        with pytest.raises(ValueError, match="outside"):
            masked_sum_round([-1, 0], masks=masks)
        with pytest.raises(ValueError, match="outside"):
            masked_sum_round([Q, 0], masks=masks)

    def test_aggregate_recovers_sum(self):
        masks = self._masks(3, 7)
        vals = [10, 20, 12]
        assert aggregate([(v + m) % Q for v, m in zip(vals, masks)]) == 42

    def test_single_masked_value_is_not_plaintext(self):
        log: list = []
        masked_sum_round([5, 1, 9], masks=run_masks([5, 1, 9], 11), round_log=log)
        assert log[0][1][0] != 5


class TestMaskedSumRound:
    @given(
        values=st.lists(st.integers(0, 10**9), min_size=2, max_size=8),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_plaintext_sum(self, values, seed):
        assert masked_sum_round(values, masks=run_masks(values, seed)) == sum(values)

    def test_one_party_masked_round_rejected(self):
        ## a lone party's "mask" would be zero and its value would go out in the clear
        with pytest.raises(ValueError, match="at least 2 parties"):
            masked_sum_round([42], masks=(0,))
        with pytest.raises(ValueError, match="at least 2 parties"):
            masked_sum_round([])
        with pytest.raises(ValueError, match="at least 2 parties"):
            agree_keys(1, np.random.default_rng(0))
        assert masked_sum_round([42], masked=False) == 42

    def test_masked_round_needs_run_keys(self):
        with pytest.raises(ValueError, match="round_masks"):
            masked_sum_round([1, 2])

    @pytest.mark.parametrize("masked", [True, False])
    def test_sum_that_could_wrap_rejected(self, masked):
        masks = run_masks([0, 0], 0) if masked else None
        for values in ([Q - 1, 5], [Q - 1, 1], [(Q + 1) // 2, 0]):
            with pytest.raises(ValueError, match="sum past q"):
                masked_sum_round(values, masked=masked, masks=masks)
        ## n * max just below q is still exact
        half = (Q - 1) // 2
        assert masked_sum_round([half, half], masked=masked, masks=masks) == Q - 1

    def test_bypass_is_bit_identical(self):
        vals = [3, 1, 4, 1, 5]
        m = masked_sum_round(vals, masked=True, masks=run_masks(vals, 0))
        b = masked_sum_round(vals, masked=False)
        assert m == b == 14

    def test_value_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            masked_sum_round([Q], masked=False)

    @pytest.mark.parametrize("bad", [[-2], [Q, -2], [-2, Q]])
    def test_first_bad_value_named_after_good_ones(self, bad):
        ## builtin min and max find a bad value anywhere; the error names the first
        with pytest.raises(ValueError, match=rf"^value {bad[0]} outside \[0, {Q}\)$"):
            masked_sum_round([1] * 3999 + bad, masked=False)

    def test_range_ends_at_q_minus_one(self):
        assert masked_sum_round([Q - 1], masked=False) == Q - 1
        with pytest.raises(ValueError, match=rf"^value {Q} outside \[0, {Q}\)$"):
            masked_sum_round([Q], masked=False)

    def test_round_log_records_payloads(self):
        log: list = []
        masked_sum_round([1, 2], round_log=log, masks=run_masks([1, 2], 0))
        masked_sum_round([1, 2], masked=False, round_log=log)
        assert len(log) == 2
        assert log[0][0] == "masked" and log[1][0] == "plain"
        assert log[1][1] == (1, 2)

    def test_masked_marginal_looks_uniform(self):
        ## chi-square on the first party's masked value over re-keyed rounds
        rng = np.random.default_rng(2024)
        buckets = np.zeros(16, dtype=int)
        rounds = 4000
        for _ in range(rounds):
            log: list = []
            masked_sum_round([7, 130, 55], round_log=log, masks=round_masks(*agree_keys(3, rng), 1)[0])
            first = log[0][1][0]
            buckets[first * 16 // Q] += 1
        _, pvalue = sstats.chisquare(buckets)
        assert pvalue > 0.01


def chunk_scalar(stream, r):
    """Round r's Z_q scalar: chunk r of a pair's mask stream, mod q."""
    return int.from_bytes(stream[32 * r:32 * (r + 1)], "big") % Q


def reference_masks(peers, keys, rounds):
    """Plain per-pair masks: round r's scalar is chunk r of the pair's stream mod q, signed by party order."""
    out = []
    for r in range(rounds):
        row = []
        for i in range(len(peers)):
            m = 0
            for j, key in zip(peers[i], keys[i]):
                s = chunk_scalar(mask_scalar(int(key), rounds), r)
                m += s if j > i else -s
            row.append(m % Q)
        out.append(tuple(row))
    return out


class TestKeyReuse:
    """One run agrees its keys once and expands each pair's key once into every round's masks."""

    def test_every_round_telescopes_to_zero(self):
        peers, keys = agree_keys(6, np.random.default_rng(61))
        ## up to 7 parties the ring is the complete graph
        assert np.array_equal(peers, complete_peers(6))
        dense = key_matrix(peers, keys)
        assert np.array_equal(dense, dense.T)
        masks = round_masks(peers, keys, 20)
        assert len(masks) == 20
        for r in range(20):
            assert len(masks[r]) == 6
            assert sum(masks[r]) % Q == 0

    def test_rounds_of_one_run_recover_sums(self):
        rng = np.random.default_rng(9)
        masks = round_masks(*agree_keys(5, rng), 10)
        for r in range(10):
            values = [int(v) for v in rng.integers(0, 10**6, 5)]
            assert masked_sum_round(values, masks=masks[r]) == sum(values)

    def test_keys_must_match_party_count(self):
        masks = round_masks(*agree_keys(3, np.random.default_rng(0)), 1)[0]
        with pytest.raises(ValueError, match="3 masks for 2 parties"):
            masked_sum_round([1, 2], masks=masks)

    def test_pair_mask_changes_between_rounds(self):
        peers, keys = agree_keys(2, np.random.default_rng(4))
        stream = mask_scalar(int(keys[0, 0]), 50)
        scalars = [chunk_scalar(stream, r) for r in range(50)]
        assert len(set(scalars)) == 50
        masks = round_masks(peers, keys, 2)
        assert masks[0] != masks[1]

    def test_payloads_across_rounds_look_uniform(self):
        ## chi-square on the first party's masked value over the rounds of one run
        rounds = 4000
        masks = round_masks(*agree_keys(3, np.random.default_rng(2024)), rounds)
        buckets = np.zeros(16, dtype=int)
        log: list = []
        for r in range(rounds):
            masked_sum_round([7, 130, 55], round_log=log, masks=masks[r])
        for _, payloads in log:
            buckets[payloads[0] * 16 // Q] += 1
        _, pvalue = sstats.chisquare(buckets)
        assert pvalue > 0.01

    @given(n=st.integers(2, 12), rounds=st.integers(1, 20), seed=st.integers(0, 2**31))
    ## complete rings up to 7 parties, sparse ones above
    @settings(max_examples=80, deadline=None)
    def test_compute_mask_matches_per_pair_reference(self, n, rounds, seed):
        peers, keys = agree_keys(n, np.random.default_rng(seed))
        expected = reference_masks(peers, keys, rounds)
        ## a block of any size gives each of its parties the masks of its own rows
        for size in (1, 3, n):
            for first in range(0, n, size):
                rows = slice(first, first + size)
                assert compute_mask(first, peers[rows], keys[rows], rounds) == [
                    [expected[r][i] for r in range(rounds)] for i in range(first, min(first + size, n))]
        assert round_masks(peers, keys, rounds) == expected

    def test_derivation_is_prefix_stable(self):
        ## deriving a longer run never changes an earlier round's masks
        peers, keys = agree_keys(5, np.random.default_rng(6))
        assert mask_scalar(int(keys[0, 0]), 7)[:6 * 32] == mask_scalar(int(keys[0, 0]), 6)
        assert round_masks(peers, keys, 7)[:6] == round_masks(peers, keys, 6)
        assert [masks[:6] for masks in compute_mask(0, peers, keys, 7)] == compute_mask(0, peers, keys, 6)

    @pytest.fixture
    def key_calls(self, monkeypatch):
        calls = {"ka_gen": 0, "ka_agree": 0, "mask_scalar": 0}
        for name in calls:
            original = getattr(secure_agg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(secure_agg, name, counted)
        return calls

    @pytest.mark.parametrize("masked", [True, False])
    def test_deviation_agrees_once_per_run(self, key_calls, masked):
        degrees = list(range(1, 41))
        cfg = ThetaSearchConfig(K=40, epsilon=2.0)
        log: list = []
        theta_by_deviation(degrees, cfg, np.random.default_rng(0), masked=masked, round_log=log)
        n = len(degrees)
        assert len(log) > 1
        ## one ka_gen call for every key pair, one ka_agree call for the whole key table, one stream per party and
        ## peer: n·k = 40·12, where the complete graph took n(n−1) = 1,560
        assert ring_degree(n) == 12
        assert key_calls == ({"ka_gen": 1, "ka_agree": 1, "mask_scalar": n * ring_degree(n)} if masked
                             else {"ka_gen": 0, "ka_agree": 0, "mask_scalar": 0})

    @pytest.mark.parametrize("masked", [True, False])
    def test_sum_agrees_once_per_run(self, key_calls, masked):
        g = Graph(8, [(0, i) for i in range(1, 8)] + [(1, 2), (3, 4)])
        cfg = ThetaSearchConfig(K=7, epsilon=1.0, method="sum")
        log: list = []
        theta_by_sum(g, degree_sequence(g), cfg, np.random.default_rng(0), masked=masked, round_log=log)
        assert len(log) == 7
        ## n·k = 8·6: at 8 parties the ring first leaves out a pair
        assert key_calls == ({"ka_gen": 1, "ka_agree": 1, "mask_scalar": 8 * 6} if masked
                             else {"ka_gen": 0, "ka_agree": 0, "mask_scalar": 0})



class TestMaskBlocks:
    """round_masks derives the masks block by block, each block's streams and lanes in about 0.5 MB."""

    @pytest.mark.parametrize("n,rounds", [(300, 7), (300, 64), (9, 3000)])
    def test_blocks_cover_the_parties_in_bounded_memory(self, n, rounds, monkeypatch):
        peers, keys = agree_keys(n, np.random.default_rng(n))
        blocks, peaks = [], []
        original = secure_agg.compute_mask

        def spy(first, block_peers, block_keys, r):
            blocks.append((first, len(block_peers)))
            assert np.array_equal(block_peers, peers[first:first + len(block_peers)])
            current = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = original(first, block_peers, block_keys, r)
            peaks.append(tracemalloc.get_traced_memory()[1] - current)
            return out

        monkeypatch.setattr(secure_agg, "compute_mask", spy)
        tracemalloc.start()
        try:
            masks = round_masks(peers, keys, rounds)
        finally:
            tracemalloc.stop()
        assert len(masks) == rounds and all(len(row) == n and sum(row) % Q == 0 for row in masks)
        ## consecutive blocks, in party order, every party once
        assert [first for first, _ in blocks] == [sum(size for _, size in blocks[:b]) for b in range(len(blocks))]
        assert sum(size for _, size in blocks) == n
        ## a block holds several parties only while its streams and their int64 copy fit _MASK_BYTES:
        ## 43 parties at 7 rounds, 4 at 64; one party's 8 streams of 3,000 chunks alone exceed it
        party_bytes = 3 * peers.shape[1] * rounds * 32
        assert {size for _, size in blocks[:-1]} == {max(1, secure_agg._MASK_BYTES // party_bytes)}
        if blocks[0][1] > 1:
            assert max(peaks) < 750_000
        else:
            assert party_bytes > secure_agg._MASK_BYTES


SPARSE_SIZES = (2, 3, 7, 8, 9, 60, 300)
## eight key draws per ring size: a case's seed is n * 1000 + salt (tables), n + salt (sums) or 7n + salt (payloads)
SPARSE_SALTS = (16, 17, 19, 31, 61, 89, 107, 127)


class TestSparseRing:
    """Masking runs over the Harary ring: k peers per party, n·k keys and streams, exact sums."""

    @pytest.mark.parametrize("salt", SPARSE_SALTS)
    @pytest.mark.parametrize("n", SPARSE_SIZES)
    def test_tables_are_the_ring(self, n, salt):
        peers, keys = agree_keys(n, np.random.default_rng(n * 1000 + salt))
        check_tables(peers, keys, n * 1000 + salt)

    def test_ring_degree(self):
        ## the complete graph up to 7 parties, then 2 ceil(log2 n)
        assert [ring_degree(n) for n in SPARSE_SIZES] == [1, 2, 6, 6, 8, 12, 18]
        assert [ring_degree(n) for n in (4000, 40000)] == [24, 32]

    @pytest.mark.parametrize("salt", SPARSE_SALTS)
    @pytest.mark.parametrize("n", SPARSE_SIZES)
    def test_masks_telescope_and_sums_are_exact(self, n, salt):
        rng = np.random.default_rng(n + salt)
        masks = round_masks(*agree_keys(n, rng), 5)
        assert len(masks) == 5
        top = (Q - 1) // n
        for r in range(5):
            assert len(masks[r]) == n and sum(masks[r]) % Q == 0
            ## up to floor((q - 1) / n) each, so the sum stays below q
            values = [int.from_bytes(rng.bytes(16), "big") % (top + 1) for _ in range(n)]
            assert masked_sum_round(values, masks=masks[r]) == sum(values)

    @pytest.mark.parametrize("salt", SPARSE_SALTS)
    @pytest.mark.parametrize("n", SPARSE_SIZES)
    def test_party_zero_payloads_look_uniform(self, n, salt):
        ## chi-square on party 0's payloads over 2,000 rounds of one run, from its own rows of the tables;
        ## 56 cases, so each must pass at 1e-4 (a family-wise level of about 0.006)
        rounds = 2000
        peers, keys = agree_keys(n, np.random.default_rng(7 * n + salt))
        payloads = [(1 + m) % Q for m in compute_mask(0, peers[:1], keys[:1], rounds)[0]]
        buckets = np.bincount([x * 16 // Q for x in payloads], minlength=16)
        _, pvalue = sstats.chisquare(buckets)
        assert pvalue > 1e-4


@pytest.mark.parametrize("epsilon", [1.0, 3.0])
@pytest.mark.parametrize("token,method", [
    ("synthetic:300:11:1", "deviation"),
    ("synthetic:2000:11:1", "deviation"),
    ("synthetic:4000:11:1", "deviation"),
    ("synthetic:300:11:1", "sum"),
])
def test_sparse_masked_theta_equals_unmasked(token, method, epsilon):
    g, _ = load_dataset(token)
    degs = degree_sequence(g)
    cfg = ThetaSearchConfig(K=max(degs), epsilon=epsilon, method=method)

    def select(masked, log=None):
        rng = np.random.default_rng(3)
        if method == "sum":
            return theta_by_sum(g, degs, cfg, rng, masked=masked, round_log=log)
        return theta_by_deviation(degs, cfg, rng, masked=masked, round_log=log)

    log: list = []
    assert select(True, log) == select(False)
    assert log and all(kind == "masked" for kind, _ in log)
