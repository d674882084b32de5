"""Independent checks of job outputs.  Standard library only.

Each check recomputes a fact from definitions or closed forms that the
program does not use: Catalan counts from binomials, the Mobius function
from the Kreweras complement (the program inverts the zeta function),
lattice sums over set partitions filtered for crossings (the program uses
the first-block recursion), and freeness from its defining property on
centred alternating products (the program uses vanishing cumulants).
A failed check raises Reject.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb


class Reject(Exception):
    """The output of a job is wrong."""


def require(condition, message):
    if not condition:
        raise Reject(message)


def catalan(m):
    return comb(2 * m, m) // (m + 1)


def signed_catalan(m):
    """Mobius value of the m-element lattice interval [0, 1]."""
    return (-1) ** (m - 1) * catalan(m - 1)


# -- partitions as tuples of blocks ------------------------------------------


def _crossing(a, b):
    """Two disjoint blocks cross when their merged label sequence, with
    runs collapsed, reads ABAB or longer."""
    labels = [lab for _, lab in sorted([(x, 0) for x in a] + [(x, 1) for x in b])]
    runs = 1 + sum(1 for u, v in zip(labels, labels[1:]) if u != v)
    return runs >= 4


def is_nc_partition(blocks, n):
    flat = sorted(x for b in blocks for x in b)
    if flat != list(range(1, n + 1)):
        return False
    return not any(_crossing(a, b) for a, b in itertools.combinations(blocks, 2))


def leq(p, q):
    owner = {x: i for i, b in enumerate(q) for x in b}
    return all(len({owner[x] for x in b}) == 1 for b in p)


def meet(p, q):
    """Blockwise intersection."""
    owner = {x: j for j, b in enumerate(q) for x in b}
    out = {}
    for b in p:
        for x in b:
            out.setdefault((b[0], owner[x]), []).append(x)
    return tuple(sorted(tuple(c) for c in out.values()))


def max_inner(p, q):
    """Largest number of blocks of p inside one block of q (p <= q)."""
    owner = {x: j for j, b in enumerate(q) for x in b}
    counts = {}
    for b in p:
        counts[owner[b[0]]] = counts.get(owner[b[0]], 0) + 1
    return max(counts.values())


def _kreweras_sizes(blocks, n):
    """Block sizes of the Kreweras complement: cycle type of pi^-1 gamma,
    with pi the block permutation and gamma = (1 2 ... n)."""
    inv = {}
    for b in blocks:
        for x, y in zip(b, b[1:] + b[:1]):
            inv[y] = x
    seen = set()
    sizes = []
    for start in range(1, n + 1):
        if start in seen:
            continue
        size, x = 0, start
        while x not in seen:
            seen.add(x)
            size += 1
            x = inv[x % n + 1]
        sizes.append(size)
    return sizes


def mobius_to_top(blocks, n):
    out = 1
    for size in _kreweras_sizes(blocks, n):
        out *= signed_catalan(size)
    return out


def _restrictions(p, q):
    """For each block of q: p restricted to it, relabeled to 1..m, and m."""
    for big in q:
        relabel = {x: i + 1 for i, x in enumerate(big)}
        yield [tuple(relabel[x] for x in b) for b in p if b[0] in relabel], len(big)


def mobius(p, q):
    """mu(p, q) as the product over blocks of q of mu(p restricted, top),
    each from the Kreweras complement."""
    require(leq(p, q), "mobius oracle called off the order")
    out = 1
    for sub, m in _restrictions(p, q):
        out *= mobius_to_top(sub, m)
    return out


def interval_size(p, q):
    """|[p, q]| as the product over blocks of q of |[p restricted, top]|;
    [pi, top] is isomorphic to [bottom, K(pi)], a product of Catalan
    numbers over the Kreweras blocks."""
    out = 1
    for sub, m in _restrictions(p, q):
        for size in _kreweras_sizes(sub, m):
            out *= catalan(size)
    return out


def _set_partitions(n):
    """Restricted growth strings of length n, as block tuples."""
    def grow(prefix, top):
        if len(prefix) == n:
            blocks = [[] for _ in range(top + 1)]
            for x, lab in enumerate(prefix, start=1):
                blocks[lab].append(x)
            yield tuple(tuple(b) for b in blocks)
            return
        for lab in range(top + 2):
            yield from grow(prefix + [lab], max(top, lab))

    yield from grow([0], 0)


@lru_cache(maxsize=None)
def nc_partitions(n):
    """NC(n) as set partitions without a crossing pair of blocks.
    Exponential (Bell numbers); meant for n <= 8."""
    return tuple(
        p for p in _set_partitions(n)
        if not any(_crossing(a, b) for a, b in itertools.combinations(p, 2))
    )


def lattice_cumulant(moment, word):
    """kappa(w) = sum over NC(n) of mu(pi, top) times block moments."""
    n = len(word)
    acc = Fraction(0)
    for p in nc_partitions(n):
        term = Fraction(mobius_to_top(p, n))
        for b in p:
            term *= moment(tuple(word[i - 1] for i in b))
        acc += term
    return acc


def lattice_moment(cumulant, word):
    """phi(w) = sum over NC(n) of block cumulant products."""
    acc = Fraction(0)
    for p in nc_partitions(len(word)):
        term = Fraction(1)
        for b in p:
            term *= cumulant(tuple(word[i - 1] for i in b))
        acc += term
    return acc


# -- freeness ------------------------------------------------------------------


def runs_of(word, family_of):
    runs = []
    for c in word:
        if runs and family_of[runs[-1][-1]] == family_of[c]:
            runs[-1].append(c)
        else:
            runs.append([c])
    return [tuple(r) for r in runs]


def centred_product(moment, word, family_of):
    """phi of the product of the centred runs of a mixed word.  Freeness
    of the families means this is zero for every word whose consecutive
    runs come from different families."""
    runs = runs_of(word, family_of)
    means = [moment(r) for r in runs]
    acc = Fraction(0)
    for keep in itertools.product((0, 1), repeat=len(runs)):
        sub = tuple(c for flag, r in zip(keep, runs) if flag for c in r)
        term = moment(sub) if sub else Fraction(1)
        for flag, mean in zip(keep, means):
            if not flag:
                term *= -mean
        acc += term
    return acc


# -- closed forms of the standard laws --------------------------------------


def free_poisson_moment(rate, jump, n):
    """Narayana polynomial: sum_k N(n, k) rate^k jump^n."""
    return sum(
        Fraction(comb(n, k) * comb(n, k - 1), n) * rate**k for k in range(1, n + 1)
    ) * jump**n


def semicircle_moment(variance, n):
    if n % 2:
        return Fraction(0)
    return catalan(n // 2) * variance ** (n // 2)


def bernoulli_moment(trace, up, down, n):
    return trace * up**n + (1 - trace) * down**n

