"""Seeded input generators.  Standard library only: nothing here imports
freeprob, so the draws cannot depend on the program under test.

Every workload's job list is a fixed cycle of job kinds and sizes (a
"round"); the seed only chooses the values.  That keeps the load of a run
nearly the same from seed to seed while the inputs differ.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction


def rational(rng, num=9, den=9):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def positive_rational(rng, num=5, den=4):
    return Fraction(rng.randint(1, num), rng.randint(1, den))


def words_upto(k, order):
    for n in range(1, order + 1):
        yield from itertools.product(range(1, k + 1), repeat=n)


def random_table(rng, k, order):
    """Dense table of random small rationals on every word up to order."""
    return {w: rational(rng) for w in words_upto(k, order)}


def _symmetric_int_matrix(rng, d, bound=3):
    m = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            m[i][j] = m[j][i] = rng.randint(-bound, bound)
    return m


def _matmul(a, b):
    d = len(a)
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def tracial_state(rng, k, d, order):
    """phi(w) = (1/d) tr(X_w1 ... X_wn) for random rational symmetric d x d
    matrices X_i = A_i / D with integer A_i.  Products are taken over the
    integers and shared along word prefixes, so each word costs one
    integer matrix product."""
    den = rng.randint(1, 3)
    mats = [_symmetric_int_matrix(rng, d) for _ in range(k)]
    prods = {(): [[int(i == j) for j in range(d)] for i in range(d)]}
    table = {}
    for n in range(1, order + 1):
        scale = d * den**n
        for w in itertools.product(range(1, k + 1), repeat=n):
            p = _matmul(prods[w[:-1]], mats[w[-1] - 1])
            if n < order:
                prods[w] = p
            table[w] = Fraction(sum(p[i][i] for i in range(d)), scale)
    return table


def random_nc_blocks(rng, n, join_prob=0.35):
    """A random non-crossing partition of {1..n} as canonical blocks,
    drawn by the first-block recursion: each later point joins the block
    of the first point with probability join_prob, and every gap the block
    leaves is filled independently."""
    out = []

    def fill(points):
        if not points:
            return
        block = [points[0]] + [x for x in points[1:] if rng.random() < join_prob]
        out.append(tuple(block))
        ends = block + [points[-1] + 1]
        for a, b in zip(ends, ends[1:]):
            fill([x for x in points if a < x < b])

    fill(list(range(1, n + 1)))
    return tuple(sorted(out))


def seeded(seed, workload):
    """Independent random stream per (seed, workload)."""
    return random.Random("%s/%d" % (workload, seed))


def random_refinement(rng, q, join_prob):
    """A random non-crossing refinement of the non-crossing partition q:
    each block is split by its own random non-crossing partition."""
    out = []
    for big in q:
        for sub in random_nc_blocks(rng, len(big), join_prob):
            out.append(tuple(big[i - 1] for i in sub))
    return tuple(sorted(out))
