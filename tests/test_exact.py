"""The enumeration kernel's own checks: exact weights, and seeded runs that draw what NumPy code draws."""

from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from exact import Coin, Shuffle, distribution, run


def shuffled(items):
    return (yield Shuffle(items))


def coins(rate, k):
    sides = []
    for _ in range(k):
        sides.append((yield Coin(rate)))
    return tuple(sides)


def test_exact_weights():
    assert distribution(shuffled, (0, 1, 2)) == {p: Fraction(1, 6) for p in permutations((0, 1, 2))}
    assert distribution(coins, Fraction(3, 4), 2) == {
        (True, True): Fraction(9, 16), (True, False): Fraction(3, 16), (False, True): Fraction(3, 16), (False, False): Fraction(1, 16)
    }


@pytest.mark.parametrize("k", [0, 1, 7, 300])
def test_seeded_coins_are_one_batch(k):
    ## the rate read from a float decides as the float does, so these are rng.random(k) < 0.3
    seeded, batch = np.random.default_rng(k), np.random.default_rng(k)
    assert run(seeded, coins, Fraction(0.3), k) == tuple((batch.random(k) < 0.3).tolist())
    assert seeded.bit_generator.state == batch.bit_generator.state


def test_seeded_shuffle_is_one_permutation():
    seeded, batch = np.random.default_rng(5), np.random.default_rng(5)
    assert run(seeded, shuffled, "abcdef") == tuple("abcdef"[k] for k in batch.permutation(6))
    assert seeded.bit_generator.state == batch.bit_generator.state
