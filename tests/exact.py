"""Exact and seeded runs of small finite random processes, for the tests.

A process is a generator function: it yields choices, is sent back each
option taken, and returns its outcome, deterministically given those
options.  Pick(options) takes one option uniformly (a uniform k-subset is a
Pick of combinations), Shuffle(items) the items in a uniform order as a
tuple, Coin(rate) True with Fraction probability rate, and Run(process,
*args) the outcome of a sub-process.

distribution(process, *args) replays the process once per branch and
returns {outcome: Fraction}.  uniform_turns(n, turn, state) lets n nodes
take turns in a uniform order and merges equal (nodes left, state) pairs
after each turn, so its cost grows with the states, not the paths.  Within
one call of either, a Run is enumerated once per distinct args, its equal
outcomes merged.  run(rng, process, *args) takes one branch with NumPy's draws:
rng.integers(len(options)) for Pick, which draws nothing for one option,
rng.permutation(len(items)) for Shuffle and rng.random() < rate for Coin,
so k coins draw the doubles and leave the state that rng.random(k) does.
"""

import math
from collections import defaultdict
from fractions import Fraction
from itertools import permutations
from typing import NamedTuple, Sequence

import numpy as np

from conftest import random_graph
from degreeldp.graph import degree_sequence


class Pick(NamedTuple):
    options: Sequence

    def branches(self, cache):
        return [(o, 1, len(self.options)) for o in self.options]

    def draw(self, rng):
        return self.options[rng.integers(len(self.options))]


class Shuffle(NamedTuple):
    items: Sequence

    def branches(self, cache):
        return [(p, 1, math.factorial(len(self.items))) for p in permutations(self.items)]

    def draw(self, rng):
        return tuple(self.items[k] for k in rng.permutation(len(self.items)).tolist())


class Coin(NamedTuple):
    rate: Fraction

    def branches(self, cache):
        yes, total = self.rate.numerator, self.rate.denominator
        return [(side, w, total) for side, w in ((True, yes), (False, total - yes)) if w]

    def draw(self, rng):
        ## a float compares exactly with a Fraction, so a rate read from a float decides as the float does
        return rng.random() < self.rate


class Run:
    def __init__(self, process, *args):
        self.process, self.args = process, args

    def branches(self, cache):
        key = (self.process, self.args)
        if key not in cache:
            cache[key] = _expand(self.process, self.args, cache)
        return cache[key]

    def draw(self, rng):
        return run(rng, self.process, *self.args)


def _expand(process, args, cache) -> list:
    """(outcome, numerator, denominator) of each outcome of process(*args), replaying it once per branch."""
    ## the last branch pushed reuses the generator that stands at its choice
    weight: dict = defaultdict(int)
    paths = [((), 1, 1, None)]
    while paths:
        taken, num, den, gen = paths.pop()
        try:
            if gen is None:
                gen = process(*args)
                choice = gen.send(None)
                for option in taken:
                    choice = gen.send(option)
            else:
                choice = gen.send(taken[-1])
        except StopIteration as done:
            weight[done.value, den] += num
            continue
        branches = choice.branches(cache)
        paths += [(taken + (o,), num * a, den * b, None) for o, a, b in branches[1:]]
        o, a, b = branches[0]
        paths.append((taken + (o,), num * a, den * b, gen))
    return _merge(weight)


def _merge(weight: dict) -> list:
    """(outcome, numerator, denominator) from integer weights keyed by (outcome, denominator), equal outcomes summed."""
    ## integers over one common denominator, not Fractions, keep the sums cheap
    common = math.lcm(*{den for _, den in weight})
    total: dict = defaultdict(int)
    for (outcome, den), num in weight.items():
        total[outcome] += num * (common // den)
    merged = []
    for outcome, num in total.items():
        g = math.gcd(num, common)
        merged.append((outcome, num // g, common // g))
    return merged


def distribution(process, *args) -> dict:
    """{outcome: probability} over every branch of process(*args)."""
    return {o: Fraction(num, den) for o, num, den in _expand(process, args, {})}


def uniform_turns(n: int, turn, state) -> dict:
    """{state: probability} once each of n nodes has taken a turn, the next uniform among those yet to go.

    turn(i, left, state) is node i's turn as a choice, left the nodes that go after it.
    """
    cache: dict = {}
    states = [((frozenset(range(n)), state), 1, 1)]
    for _ in range(n):
        weight: dict = defaultdict(int)
        for (left, now), num, den in states:
            for i in left:
                rest = left - {i}
                for after, a, b in turn(i, rest, now).branches(cache):
                    weight[(rest, after), den * b * len(left)] += num * a
        states = _merge(weight)
    return {now: Fraction(num, den) for (_, now), num, den in states}


def run(rng: np.random.Generator, process, *args):
    """One branch of process(*args), each choice drawn from rng."""
    gen, option = process(*args), None
    while True:
        try:
            choice = gen.send(option)
        except StopIteration as done:
            return done.value
        option = choice.draw(rng)


def by_id(items) -> Pick:
    """The one order by node id, as a choice."""
    return Pick([sorted(items)])


def agree_on_small_cases(reference, model) -> None:
    """model(g, theta, asking=Shuffle) has the distribution reference(g, theta) on each small case.

    asking is the choice of the order within a turn.  The 80 (graph,
    theta) cases have 3 to 5 nodes and a degree above theta.  The
    enumeration tells orders apart: with asking=by_id, one case at least
    gives another distribution.
    """
    rng = np.random.default_rng(0)
    cases, differs = 0, False
    while cases < 80:
        g = random_graph(rng, int(rng.integers(3, 6)), float(rng.uniform(0.3, 0.9)))
        for theta in [t for t in (1, 2) if max(degree_sequence(g)) > t][: 80 - cases]:
            want = reference(g, theta)
            assert sum(want.values()) == 1
            assert model(g, theta, asking=Shuffle) == want, (g.pairs.tolist(), theta)
            differs = differs or model(g, theta, asking=by_id) != want
            cases += 1
    assert differs
