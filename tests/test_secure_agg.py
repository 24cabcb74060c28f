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
    _GROUPS,
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

## prime factors of q - 1 for each group in secure_agg._GROUPS, so that
## generator order is checked independently of the package
SUBGROUP_FACTORS = {
    16: (2, 3, 5, 7, 13),
    17: (2, 3, 5, 17, 257),
    19: (2, 3, 7, 19, 73),
    31: (2, 3, 7, 11, 31, 151, 331),
    61: (2, 3, 5, 7, 11, 13, 31, 41, 61, 151, 331, 1321),
    89: (2, 3, 5, 17, 23, 89, 353, 397, 683, 2113, 2931542417),
    107: (2, 3, 107, 6361, 69431, 20394401, 28059810762433),
    127: (2, 3, 7, 19, 43, 73, 127, 337, 5419, 92737, 649657, 77158673929),
}


def run_masks(values, p, seed):
    """Masks of a one-round run over len(values) parties."""
    return round_masks(*agree_keys(len(values), p, np.random.default_rng(seed)), p, 1)[0]


def reference_key_pairs(p, rng, n):
    """n key pairs drawn party by party, as ka_gen draws them: a rejection loop of rng.bytes(nbytes) each, then pow.

    Returns the pairs and the number of rejected draws.
    """
    bound = p.q - 2
    nbits = bound.bit_length()
    pairs, rejected = [], 0
    while len(pairs) < n:
        x = int.from_bytes(rng.bytes((nbits + 7) // 8), "big") & (1 << nbits) - 1
        if x < bound:
            pairs.append((1 + x, pow(p.g, 1 + x, p.q)))
        else:
            rejected += 1
    return pairs, rejected


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
        p = ka_param(61)
        assert p.q == 2**61 - 1
        assert p.g == 37

    @pytest.mark.parametrize("bits", sorted(_GROUPS))
    def test_moduli_are_prime_with_declared_bit_length(self, bits):
        p = ka_param(bits)
        assert sympy.isprime(p.q)
        assert p.q.bit_length() == bits

    @pytest.mark.parametrize("bits", sorted(_GROUPS))
    def test_generator_has_full_order(self, bits):
        ## g is a primitive root iff g^((q-1)/f) != 1 for every prime f | q-1
        p = ka_param(bits)
        assert SUBGROUP_FACTORS.keys() == _GROUPS.keys()
        for f in SUBGROUP_FACTORS[bits]:
            assert (p.q - 1) % f == 0
            assert pow(p.g, (p.q - 1) // f, p.q) != 1

    @pytest.mark.parametrize("bits", [16, 61])
    def test_declared_factors_are_complete(self, bits):
        p = ka_param(bits)
        assert tuple(sorted(sympy.factorint(p.q - 1))) == SUBGROUP_FACTORS[bits]

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
        p = ka_param(61)
        rng = np.random.default_rng(seed)
        (a_sk, b_sk), (a_pk, b_pk) = ka_gen(p, rng, 2)
        keys = ka_agree([a_sk, b_sk], [a_pk, b_pk], p, complete_peers(2))
        assert keys[0, 0] == keys[1, 0] == pow(b_pk, a_sk, p.q)

    def test_public_key_in_group(self):
        ## at 16 bits, seeds 55834 and 48182 drew sk = 0 and sk = q - 1 from [0, q): both give pk = 1
        cases = [(ka_param(17), seed) for seed in range(20)] + [(ka_param(16), 55834), (ka_param(16), 48182)]
        for p, seed in cases:
            (sk,), (pk,) = ka_gen(p, np.random.default_rng(seed), 1)
            assert 1 <= sk <= p.q - 2
            assert pk == pow(p.g, sk, p.q) != 1

    @pytest.mark.parametrize("bits", sorted(_GROUPS))
    def test_batched_key_pairs_are_the_sequential_draws(self, bits):
        ## one rng.bytes batch, topped up by the shortfall, gives the party-by-party secrets, public keys and end state
        p = ka_param(bits)
        rejected = 0
        for n in (2, 300, 4000):
            batch, sequential = np.random.default_rng([1, n]), np.random.default_rng([1, n])
            sks, pks = ka_gen(p, batch, n)
            pairs, r = reference_key_pairs(p, sequential, n)
            assert list(zip(sks, pks)) == pairs
            assert batch.bit_generator.state == sequential.bit_generator.state
            rejected += r
        ## at 16 bits a draw is rejected with chance 17/65536: the seeds make the top-up batch run
        if bits == 16:
            assert rejected > 0

    def test_out_of_range_rejected(self):
        p = ka_param(61)
        peers = complete_peers(1)
        with pytest.raises(ValueError):
            ka_agree([0], [0], p, peers)  # pk = 0 is not a group element
        with pytest.raises(ValueError):
            ka_agree([p.q], [2], p, peers)
        with pytest.raises(ValueError):
            ka_agree([-1], [2], p, peers)

    def test_mask_scalar_deterministic(self):
        p = ka_param(61)
        stream = mask_scalar(123456789, p, 3)
        assert stream == mask_scalar(123456789, p, 3)
        assert len(stream) == 3 * 32
        assert stream != mask_scalar(123456788, p, 3)
        assert stream != mask_scalar(123456789, ka_param(127), 3)


@pytest.mark.parametrize("slot", [4, 8, 12, 16])
@pytest.mark.parametrize("buffered", [False, True])
def test_batched_bytes_are_the_split_draws(slot, buffered):
    ## ka_gen draws n secrets as one rng.bytes(n * slot); that matches n calls of rng.bytes(slot) only if
    ## the bytes and the final state agree, from a fresh state and from one holding a buffered uint32 half
    split, batch = np.random.default_rng(5), np.random.default_rng(5)
    if buffered:
        split.bytes(4), batch.bytes(4)
    assert split.bit_generator.state["has_uint32"] == buffered
    assert b"".join(split.bytes(slot) for _ in range(7)) == batch.bytes(7 * slot)
    assert split.bit_generator.state == batch.bit_generator.state


@pytest.mark.parametrize("nbytes", [2, 3, 14])
def test_short_bytes_request_uses_a_whole_slot(nbytes):
    ## the 16-bit group's 2-byte secrets, the 17- and 19-bit groups' 3 bytes and the 107-bit group's 14 bytes
    ## each take whole uint32s: the slot is the request rounded up to 4 bytes
    short, whole = np.random.default_rng(5), np.random.default_rng(5)
    assert short.bytes(nbytes) == whole.bytes(-(-nbytes // 4) * 4)[:nbytes]
    assert short.bit_generator.state == whole.bit_generator.state


def ring_reach(n):
    """h = min(ceil(log2 n), floor(n / 2)): ring position p masks with positions p ± 1, ..., p ± h."""
    return min(math.ceil(math.log2(n)), n // 2)


def ring_degree(n):
    """k = min(2h, n - 1) peers per party."""
    return min(2 * ring_reach(n), n - 1)


def check_tables(peers, keys, p, seed):
    """The tables of agree_keys(n, p, default_rng(seed)): ring peers, and every key is pow of the peer's pk."""
    n = len(peers)
    k, h = ring_degree(n), ring_reach(n)
    ## the same draws as agree_keys: one key pair per party, in party order, then the ring
    rng = np.random.default_rng(seed)
    pairs, _ = reference_key_pairs(p, rng, n)
    ring = rng.permutation(n)
    assert peers.shape == keys.shape == (n, k)
    position = {int(party): pos for pos, party in enumerate(ring)}
    for i in range(n):
        row = peers[i].tolist()
        assert row == sorted(set(row)) and i not in row
        ## ring positions p +- 1, ..., p +- h
        assert {(position[j] - position[i]) % n for j in row} <= set(range(1, h + 1)) | set(range(n - h, n))
        for c, j in enumerate(row):
            assert int(keys[i, c]) == pow(pairs[j][1], pairs[i][0], p.q)
    ## the peer relation is symmetric, and both ends of an edge hold the same key
    dense = key_matrix(peers, keys)
    assert np.array_equal(dense, dense.T)


class TestArrayKeyAgreement:
    """The key table from one array ka_agree call equals pow on every edge of the ring."""

    @given(n=st.integers(2, 40), bits=st.sampled_from(sorted(_GROUPS)), seed=st.integers(0, 2**63))
    @settings(max_examples=60, deadline=None)
    def test_agree_keys_matches_pow(self, n, bits, seed):
        p = ka_param(bits)
        peers, keys = agree_keys(n, p, np.random.default_rng(seed))
        check_tables(peers, keys, p, seed)

    def test_mulmod_boundaries(self):
        q = 2**61 - 1
        edges = [0, 1, 2**32 - 1, 2**32, q - 1]
        a, b = (np.array(x, dtype=np.uint64) for x in zip(*[(x, y) for x in edges for y in edges]))
        assert _mulmod(a, b, q).tolist() == [x * y % q for x, y in zip(a.tolist(), b.tolist())]

    @given(bits=st.sampled_from(sorted(_GROUPS)), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_mulmod_matches_python_ints(self, bits, data):
        ## uint64 up to 61 bits, object arrays of Python ints above, as _pow_matrix holds them
        q = ka_param(bits).q
        xs = data.draw(st.lists(st.tuples(st.integers(0, q - 1), st.integers(0, q - 1)), min_size=1, max_size=20))
        a, b = (np.array(x, dtype=np.uint64 if bits <= 61 else object) for x in zip(*xs))
        assert _mulmod(a, b, q).tolist() == [x * y % q for x, y in xs]

    @pytest.mark.parametrize("bits", [16, 61, 127])
    def test_one_out_of_range_entry_rejected(self, bits):
        p = ka_param(bits)
        rng = np.random.default_rng(0)
        sks, pks = ka_gen(p, rng, 5)
        peers = complete_peers(5)
        assert ka_agree(sks, pks, p, peers).shape == (5, 4)
        with pytest.raises(ValueError, match="public key"):
            ka_agree(sks, pks[:3] + [0] + pks[4:], p, peers)
        ## pk = 1 is a group element, but every key agreed with it is 1
        with pytest.raises(ValueError, match="public key out of range"):
            ka_agree(sks, pks[:3] + [1] + pks[4:], p, peers)
        with pytest.raises(ValueError, match="secret key"):
            ka_agree(sks[:3] + [p.q] + sks[4:], pks, p, peers)
        with pytest.raises(ValueError, match="secret key"):
            ka_agree([-1] + sks[1:], pks, p, peers)
        ## the secrets 0 and q - 1 make every key of their row 1, as pk = 1 does its column
        for weak in (0, p.q - 1):
            with pytest.raises(ValueError, match="secret key out of range"):
                ka_agree([weak] + sks[1:], pks, p, peers)


class TestMasking:
    def _masks(self, n, seed, bits=61):
        p = ka_param(bits)
        rng = np.random.default_rng(seed)
        keys, _ = reference_key_pairs(p, rng, n)
        peers = secure_agg._ring_peers(rng.permutation(n))
        masks = []
        for i in range(n):
            row = np.array([pow(keys[j][1], keys[i][0], p.q) for j in peers[i]], dtype=np.uint64)
            masks.append(compute_mask(i, peers[i:i + 1], row[None], p, 1)[0][0])
        return p, masks

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (5, 2), (8, 3), (12, 4)])
    def test_masks_telescope_to_zero(self, n, seed):
        p, masks = self._masks(n, seed)
        assert sum(masks) % p.q == 0

    def test_missing_pairwise_key_rejected(self):
        ## a round without party 2's mask: masks cover 2 parties, values 3
        p = ka_param(61)
        masks = round_masks(*agree_keys(2, p, np.random.default_rng(0)), p, 1)[0]
        with pytest.raises(ValueError, match="2 masks for 3 parties"):
            masked_sum_round([1, 2, 3], p, masks=masks)
        with pytest.raises(ValueError, match="1 masks for 2 parties"):
            masked_sum_round([1, 2], p, masks=masks[:1])

    def test_mask_value_range_checks(self):
        p = ka_param(16)
        masks = run_masks([0, 0], p, 0)
        with pytest.raises(ValueError, match="outside"):
            masked_sum_round([-1, 0], p, masks=masks)
        with pytest.raises(ValueError, match="outside"):
            masked_sum_round([p.q, 0], p, masks=masks)

    def test_aggregate_recovers_sum(self):
        p, masks = self._masks(3, 7)
        vals = [10, 20, 12]
        assert aggregate([(v + m) % p.q for v, m in zip(vals, masks)], p) == 42

    def test_single_masked_value_is_not_plaintext(self):
        p = ka_param(61)
        log: list = []
        masked_sum_round([5, 1, 9], p, masks=run_masks([5, 1, 9], p, 11), round_log=log)
        assert log[0][1][0] != 5


class TestMaskedSumRound:
    @given(
        values=st.lists(st.integers(0, 10**9), min_size=2, max_size=8),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_plaintext_sum(self, values, seed):
        p = ka_param(61)
        assert masked_sum_round(values, p, masks=run_masks(values, p, seed)) == sum(values)

    def test_one_party_masked_round_rejected(self):
        ## a lone party's "mask" would be zero and its value would go out in the clear
        p = ka_param(61)
        with pytest.raises(ValueError, match="at least 2 parties"):
            masked_sum_round([42], p, masks=(0,))
        with pytest.raises(ValueError, match="at least 2 parties"):
            masked_sum_round([], p)
        with pytest.raises(ValueError, match="at least 2 parties"):
            agree_keys(1, p, np.random.default_rng(0))
        assert masked_sum_round([42], p, masked=False) == 42

    def test_masked_round_needs_run_keys(self):
        p = ka_param(61)
        with pytest.raises(ValueError, match="round_masks"):
            masked_sum_round([1, 2], p)

    @pytest.mark.parametrize("masked", [True, False])
    def test_sum_that_could_wrap_rejected(self, masked):
        p = ka_param(16)
        masks = run_masks([0, 0], p, 0) if masked else None
        with pytest.raises(ValueError, match="sum past q"):
            masked_sum_round([p.q - 1, 5], p, masked=masked, masks=masks)
        with pytest.raises(ValueError, match="sum past q"):
            masked_sum_round([(p.q + 1) // 2, 0], p, masked=masked, masks=masks)
        ## n * max just below q is still exact
        half = (p.q - 1) // 2
        assert masked_sum_round([half, half], p, masked=masked, masks=masks) == p.q - 1

    def test_bypass_is_bit_identical(self):
        p = ka_param(61)
        vals = [3, 1, 4, 1, 5]
        m = masked_sum_round(vals, p, masked=True, masks=run_masks(vals, p, 0))
        b = masked_sum_round(vals, p, masked=False)
        assert m == b == 14

    def test_value_out_of_range_rejected(self):
        p = ka_param(16)
        with pytest.raises(ValueError):
            masked_sum_round([p.q], p, masked=False)

    @pytest.mark.parametrize("bad", [[-2], [70000, -2], [-2, 70000]])
    def test_first_bad_value_named_after_good_ones(self, bad):
        ## builtin min and max find a bad value anywhere; the error names the first
        p = ka_param(16)
        assert p.q < 70000
        with pytest.raises(ValueError, match=rf"^value {bad[0]} outside \[0, {p.q}\)$"):
            masked_sum_round([1] * 3999 + bad, p, masked=False)

    def test_range_ends_at_q_minus_one(self):
        p = ka_param(61)
        assert masked_sum_round([p.q - 1], p, masked=False) == p.q - 1
        with pytest.raises(ValueError, match=rf"^value {p.q} outside \[0, {p.q}\)$"):
            masked_sum_round([p.q], p, masked=False)

    def test_round_log_records_payloads(self):
        p = ka_param(61)
        log: list = []
        masked_sum_round([1, 2], p, round_log=log, masks=run_masks([1, 2], p, 0))
        masked_sum_round([1, 2], p, masked=False, round_log=log)
        assert len(log) == 2
        assert log[0][0] == "masked" and log[1][0] == "plain"
        assert log[1][1] == (1, 2)

    def test_masked_marginal_looks_uniform(self):
        ## chi-square on the first party's masked value over re-keyed rounds
        p = ka_param(61)
        rng = np.random.default_rng(2024)
        buckets = np.zeros(16, dtype=int)
        rounds = 4000
        for _ in range(rounds):
            log: list = []
            masked_sum_round([7, 130, 55], p, round_log=log, masks=round_masks(*agree_keys(3, p, rng), p, 1)[0])
            first = log[0][1][0]
            buckets[first * 16 // p.q] += 1
        _, pvalue = sstats.chisquare(buckets)
        assert pvalue > 0.01


def chunk_scalar(stream, r, p):
    """Round r's Z_q scalar: chunk r of a pair's mask stream, mod q."""
    return int.from_bytes(stream[32 * r:32 * (r + 1)], "big") % p.q


def reference_masks(peers, keys, p, rounds):
    """Plain per-pair masks: round r's scalar is chunk r of the pair's stream mod q, signed by party order."""
    out = []
    for r in range(rounds):
        row = []
        for i in range(len(peers)):
            m = 0
            for j, key in zip(peers[i], keys[i]):
                s = chunk_scalar(mask_scalar(int(key), p, rounds), r, p)
                m += s if j > i else -s
            row.append(m % p.q)
        out.append(tuple(row))
    return out


class TestKeyReuse:
    """One run agrees its keys once and expands each pair's key once into every round's masks."""

    @pytest.mark.parametrize("bits", [16, 61, 127])
    def test_every_round_telescopes_to_zero(self, bits):
        p = ka_param(bits)
        peers, keys = agree_keys(6, p, np.random.default_rng(bits))
        ## up to 7 parties the ring is the complete graph
        assert np.array_equal(peers, complete_peers(6))
        dense = key_matrix(peers, keys)
        assert np.array_equal(dense, dense.T)
        masks = round_masks(peers, keys, p, 20)
        assert len(masks) == 20
        for r in range(20):
            assert len(masks[r]) == 6
            assert sum(masks[r]) % p.q == 0

    def test_rounds_of_one_run_recover_sums(self):
        p = ka_param(61)
        rng = np.random.default_rng(9)
        masks = round_masks(*agree_keys(5, p, rng), p, 10)
        for r in range(10):
            values = [int(v) for v in rng.integers(0, 10**6, 5)]
            assert masked_sum_round(values, p, masks=masks[r]) == sum(values)

    def test_keys_must_match_party_count(self):
        p = ka_param(61)
        masks = round_masks(*agree_keys(3, p, np.random.default_rng(0)), p, 1)[0]
        with pytest.raises(ValueError, match="3 masks for 2 parties"):
            masked_sum_round([1, 2], p, masks=masks)

    def test_pair_mask_changes_between_rounds(self):
        p = ka_param(61)
        peers, keys = agree_keys(2, p, np.random.default_rng(4))
        stream = mask_scalar(int(keys[0, 0]), p, 50)
        scalars = [chunk_scalar(stream, r, p) for r in range(50)]
        assert len(set(scalars)) == 50
        masks = round_masks(peers, keys, p, 2)
        assert masks[0] != masks[1]

    def test_payloads_across_rounds_look_uniform(self):
        ## chi-square on the first party's masked value over the rounds of one run
        p = ka_param(61)
        rounds = 4000
        masks = round_masks(*agree_keys(3, p, np.random.default_rng(2024)), p, rounds)
        buckets = np.zeros(16, dtype=int)
        log: list = []
        for r in range(rounds):
            masked_sum_round([7, 130, 55], p, round_log=log, masks=masks[r])
        for _, payloads in log:
            buckets[payloads[0] * 16 // p.q] += 1
        _, pvalue = sstats.chisquare(buckets)
        assert pvalue > 0.01

    @given(n=st.integers(2, 12), bits=st.sampled_from(sorted(_GROUPS)), rounds=st.integers(1, 20),
           seed=st.integers(0, 2**31))
    ## 80 examples over the 8 groups: uint64 keys up to 61 bits, Python ints above; complete and sparse rings
    @settings(max_examples=80, deadline=None)
    def test_compute_mask_matches_per_pair_reference(self, n, bits, rounds, seed):
        p = ka_param(bits)
        peers, keys = agree_keys(n, p, np.random.default_rng(seed))
        expected = reference_masks(peers, keys, p, rounds)
        ## a block of any size gives each of its parties the masks of its own rows
        for size in (1, 3, n):
            for first in range(0, n, size):
                rows = slice(first, first + size)
                assert compute_mask(first, peers[rows], keys[rows], p, rounds) == [
                    [expected[r][i] for r in range(rounds)] for i in range(first, min(first + size, n))]
        assert round_masks(peers, keys, p, rounds) == expected

    def test_derivation_is_prefix_stable(self):
        ## deriving a longer run never changes an earlier round's masks
        p = ka_param(61)
        peers, keys = agree_keys(5, p, np.random.default_rng(6))
        assert mask_scalar(int(keys[0, 0]), p, 7)[:6 * 32] == mask_scalar(int(keys[0, 0]), p, 6)
        assert round_masks(peers, keys, p, 7)[:6] == round_masks(peers, keys, p, 6)
        assert [masks[:6] for masks in compute_mask(0, peers, keys, p, 7)] == compute_mask(0, peers, keys, p, 6)

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
        p = ka_param(61)
        peers, keys = agree_keys(n, p, np.random.default_rng(n))
        blocks, peaks = [], []
        original = secure_agg.compute_mask

        def spy(first, block_peers, block_keys, params, r):
            blocks.append((first, len(block_peers)))
            assert np.array_equal(block_peers, peers[first:first + len(block_peers)])
            current = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = original(first, block_peers, block_keys, params, r)
            peaks.append(tracemalloc.get_traced_memory()[1] - current)
            return out

        monkeypatch.setattr(secure_agg, "compute_mask", spy)
        tracemalloc.start()
        try:
            masks = round_masks(peers, keys, p, rounds)
        finally:
            tracemalloc.stop()
        assert len(masks) == rounds and all(len(row) == n and sum(row) % p.q == 0 for row in masks)
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


class TestSparseRing:
    """Every group masks over the Harary ring: k peers per party, n·k keys and streams, exact sums."""

    @pytest.mark.parametrize("bits", sorted(_GROUPS))
    @pytest.mark.parametrize("n", SPARSE_SIZES)
    def test_tables_are_the_ring(self, n, bits):
        p = ka_param(bits)
        peers, keys = agree_keys(n, p, np.random.default_rng(n * 1000 + bits))
        check_tables(peers, keys, p, n * 1000 + bits)

    def test_ring_degree(self):
        ## the complete graph up to 7 parties, then 2 ceil(log2 n)
        assert [ring_degree(n) for n in SPARSE_SIZES] == [1, 2, 6, 6, 8, 12, 18]
        assert [ring_degree(n) for n in (4000, 40000)] == [24, 32]

    @pytest.mark.parametrize("bits", sorted(_GROUPS))
    @pytest.mark.parametrize("n", SPARSE_SIZES)
    def test_masks_telescope_and_sums_are_exact(self, n, bits):
        p = ka_param(bits)
        rng = np.random.default_rng(n + bits)
        masks = round_masks(*agree_keys(n, p, rng), p, 5)
        assert len(masks) == 5
        top = (p.q - 1) // n
        for r in range(5):
            assert len(masks[r]) == n and sum(masks[r]) % p.q == 0
            ## up to floor((q - 1) / n) each, so the sum stays below q
            values = [int.from_bytes(rng.bytes(16), "big") % (top + 1) for _ in range(n)]
            assert masked_sum_round(values, p, masks=masks[r]) == sum(values)

    @pytest.mark.parametrize("bits", sorted(_GROUPS))
    @pytest.mark.parametrize("n", SPARSE_SIZES)
    def test_party_zero_payloads_look_uniform(self, n, bits):
        ## chi-square on party 0's payloads over 2,000 rounds of one run, from its own rows of the tables;
        ## 56 cases, so each must pass at 1e-4 (a family-wise level of about 0.006)
        p = ka_param(bits)
        rounds = 2000
        peers, keys = agree_keys(n, p, np.random.default_rng(7 * n + bits))
        payloads = [(1 + m) % p.q for m in compute_mask(0, peers[:1], keys[:1], p, rounds)[0]]
        buckets = np.bincount([x * 16 // p.q for x in payloads], minlength=16)
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
