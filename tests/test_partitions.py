import itertools
import random
import time
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeprob import partitions
from freeprob.errors import CapacityError, DomainError, StructuralError, ValidationError
from freeprob.partitions import (
    NcPartition,
    catalan_number,
    enumerate_nc,
    full,
    interval,
    is_noncrossing,
    join,
    leq,
    meet,
    mobius,
    singletons,
)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]


def test_catalan_number():
    for m, want in enumerate(CATALAN):
        assert catalan_number(m) == want
    assert catalan_number(12) == 208012
    with pytest.raises(DomainError):
        catalan_number(-1)


def test_enumeration_counts():
    for n in range(1, 9):
        assert len(enumerate_nc(n)) == CATALAN[n]


def test_enumeration_is_sorted_and_unique():
    for n in range(1, 7):
        parts = enumerate_nc(n)
        assert len(set(parts)) == len(parts)
        assert list(parts) == sorted(parts)


def test_canonical_form():
    p = NcPartition(5, [(3, 2), (5,), (4,), (1,)])
    assert p.blocks == ((1,), (2, 3), (4,), (5,))
    assert str(p) == "1|2 3|4|5"


def test_rejects_crossing_and_malformed():
    with pytest.raises(StructuralError):
        NcPartition(4, [(1, 3), (2, 4)])
    with pytest.raises(StructuralError):
        NcPartition(3, [(1, 2)])  # 3 uncovered
    with pytest.raises(StructuralError):
        NcPartition(3, [(1, 2), (2, 3)])  # overlap
    with pytest.raises(StructuralError):
        NcPartition(3, [(1, 2), (3, 4)])  # out of range
    assert is_noncrossing([(1, 4), (2, 3)])
    assert not is_noncrossing([(1, 3), (2, 4)])


def test_crossing_detection_on_larger_ground():
    # interleaved pair far apart
    assert not is_noncrossing([(1, 5), (2, 8), (3,), (4,), (6,), (7,)])
    # nesting is fine
    assert is_noncrossing([(1, 8), (2, 5), (3, 4), (6, 7)])


def _set_partitions(n):
    """Every set partition of {1..n}, from restricted growth strings."""

    def grow(labels):
        if len(labels) == n:
            blocks = {}
            for x, label in enumerate(labels, start=1):
                blocks.setdefault(label, []).append(x)
            yield list(blocks.values())
            return
        for label in range(max(labels, default=-1) + 2):
            yield from grow(labels + [label])

    return grow([])


def _crosses(blocks):
    # the definition: a < b < c < d with a, c in one block, b, d in another
    owner = {x: i for i, block in enumerate(blocks) for x in block}
    return any(
        owner[a] == owner[c] != owner[b] == owner[d]
        for a, b, c, d in itertools.combinations(sorted(owner), 4)
    )


def test_crossing_scan_matches_four_point_definition():
    for n in range(1, 8):
        accepted = set()
        for blocks in _set_partitions(n):
            noncrossing = not _crosses(blocks)
            assert is_noncrossing(blocks) == noncrossing, blocks
            if noncrossing:
                accepted.add(NcPartition(n, blocks))
            else:
                with pytest.raises(StructuralError, match="crossing"):
                    NcPartition(n, blocks)
        assert len(accepted) == catalan_number(n)
        assert accepted == set(enumerate_nc(n))


def test_immutable_and_hashable():
    p = full(3)
    with pytest.raises(AttributeError):
        p.n = 5
    assert len({full(3), full(3), singletons(3)}) == 2


def test_leq_basic():
    bot, top = singletons(4), full(4)
    for p in enumerate_nc(4):
        assert leq(bot, p) and leq(p, top) and leq(p, p)
    a = NcPartition(4, [(1, 2), (3,), (4,)])
    b = NcPartition(4, [(1, 2), (3, 4)])
    assert leq(a, b) and not leq(b, a)
    with pytest.raises(StructuralError):
        leq(full(3), full(4))


def brute_join(p, q):
    cands = [r for r in enumerate_nc(p.n) if leq(p, r) and leq(q, r)]
    least = [r for r in cands if all(leq(r, s) for s in cands)]
    assert len(least) == 1
    return least[0]


def brute_meet(p, q):
    cands = [r for r in enumerate_nc(p.n) if leq(r, p) and leq(r, q)]
    greatest = [r for r in cands if all(leq(s, r) for s in cands)]
    assert len(greatest) == 1
    return greatest[0]


def test_join_meet_against_brute_force():
    rng = random.Random(7)
    for n in (3, 4, 5):
        parts = enumerate_nc(n)
        pairs = [(rng.choice(parts), rng.choice(parts)) for _ in range(40)]
        for p, q in pairs:
            assert join(p, q) == brute_join(p, q)
            assert meet(p, q) == brute_meet(p, q)


def test_join_merges_crossing_closure():
    # set-theoretic union of blocks crosses; lattice join must close it up
    p = NcPartition(4, [(1, 3), (2,), (4,)])
    q = NcPartition(4, [(1,), (3,), (2, 4)])
    assert join(p, q) == full(4)


def test_lattice_laws_sampled():
    rng = random.Random(11)
    parts = enumerate_nc(5)
    for _ in range(60):
        p, q, r = (rng.choice(parts) for _ in range(3))
        assert join(p, q) == join(q, p)
        assert meet(p, q) == meet(q, p)
        assert join(p, join(q, r)) == join(join(p, q), r)
        assert meet(p, meet(q, r)) == meet(meet(p, q), r)
        assert join(p, meet(p, q)) == p
        assert meet(p, join(p, q)) == p


def test_interval():
    bot, top = singletons(4), full(4)
    assert len(interval(bot, top)) == 14
    assert interval(top, top) == [top]
    a = NcPartition(4, [(1, 2), (3,), (4,)])
    chain = interval(a, top)
    assert a in chain and top in chain
    assert all(leq(a, r) and leq(r, top) for r in chain)
    with pytest.raises(DomainError):
        interval(top, bot)


def test_mobius_diagonal_and_covers():
    for n in (1, 2, 3, 4):
        for p in enumerate_nc(n):
            assert mobius(p, p) == 1
    # merging exactly two singletons is a cover: mu = -1
    a = NcPartition(3, [(1, 2), (3,)])
    assert mobius(singletons(3), a) == -1


def test_mobius_bottom_to_top():
    # alternating signed Catalan values on the full interval
    for n in range(1, 8):
        want = (-1) ** (n - 1) * catalan_number(n - 1)
        assert mobius(singletons(n), full(n)) == want


def test_mobius_incomparable_is_domain_error():
    p = NcPartition(3, [(1, 2), (3,)])
    q = NcPartition(3, [(1,), (2, 3)])
    with pytest.raises(DomainError):
        mobius(p, q)
    with pytest.raises(DomainError):
        mobius(full(3), singletons(3))


def test_mobius_convolution_small():
    # sum over rho in [pi, sigma] of mu(pi, rho) is the delta; n <= 4 here,
    # the acceptance suite pushes the same identity to n = 6
    for n in (2, 3, 4):
        parts = enumerate_nc(n)
        for pi in parts:
            for sigma in parts:
                if not leq(pi, sigma):
                    continue
                total = sum(mobius(pi, rho) for rho in interval(pi, sigma))
                assert total == (1 if pi == sigma else 0), (pi, sigma)


def test_order_cap():
    with pytest.raises(CapacityError):
        enumerate_nc(16)


def test_interval_and_mobius_are_capped_before_they_list(monkeypatch):
    def no_listing(*args):
        raise AssertionError("listed before the cap was checked")

    bot, top = singletons(16), full(16)
    # three blocks of 8 points: at most Catalan(8)^3 merges, beyond the cap
    thirds = NcPartition(24, [range(1, 9), range(9, 17), range(17, 25)])
    monkeypatch.setattr(partitions, "_coarsenings", no_listing)
    with pytest.raises(CapacityError, match="cap"):
        interval(bot, top)
    with pytest.raises(CapacityError):
        interval(singletons(24), thirds)
    # mobius lists nothing, so it needs no cap: both answers come with the
    # merge search gone
    assert mobius(bot, top) == signed_catalan(16)
    assert mobius(singletons(24), thirds) == signed_catalan(8) ** 3


def test_upper_intervals_within_the_catalan_bound():
    # the cap's argument: b blocks have at most Catalan(b) non-crossing merges
    for n in range(1, 8):
        for p in enumerate_nc(n):
            assert len(interval(p, full(n))) <= catalan_number(p.num_blocks())


@pytest.mark.parametrize("bad", [True, False, 2.0, "3", None])
def test_order_must_be_an_int(bad):
    for make in (enumerate_nc, singletons, full, lambda n: NcPartition(n, [(1,)])):
        with pytest.raises(ValidationError, match="integer"):
            make(bad)


def test_bool_order_does_not_reach_the_stored_listing():
    with pytest.raises(ValidationError):
        enumerate_nc(True)
    (only,) = enumerate_nc(1)
    assert type(only.n) is int and only.n == 1
    with pytest.raises(DomainError):
        enumerate_nc(0)


def test_listing_is_the_callers_to_change():
    first = enumerate_nc(6)
    first.reverse()
    del first[:10]
    again = enumerate_nc(6)
    assert len(again) == catalan_number(6)
    assert again == sorted(again) and again is not first


# -- properties against test-only oracles -------------------------------------


@lru_cache(maxsize=None)
def nc_by_definition(n):
    """NC(n) without the merge search: every set partition of {1..n} with
    no a < b < c < d, a and c in one block, b and d in another, sorted."""
    return tuple(
        sorted(NcPartition(n, b) for b in _set_partitions(n) if not _crosses(b))
    )


def test_enumeration_matches_the_definition():
    for n in range(1, 10):
        want = list(nc_by_definition(n))
        got = enumerate_nc(n)
        assert got == want
        assert repr(got) == repr(want)


def filtered_interval(p, q):
    """The interval by definition: NC(n) filtered through leq."""
    return [r for r in nc_by_definition(p.n) if leq(p, r) and leq(r, q)]


def signed_catalan(m):
    return (-1) ** (m - 1) * catalan_number(m - 1)


def kreweras_mobius(p, q):
    """mu(p, q) as the product of signed Catalan numbers over the blocks of
    the relative Kreweras complement of p in q.  Inside each block W of q,
    the complement of p restricted to W is the cycle structure of
    P^-1 * gamma, with P the blocks of p as increasing cycles and gamma
    the cycle (1 2 ... |W|)."""
    result = 1
    for w in q.blocks:
        where = {x: i for i, x in enumerate(w)}
        succ = {}
        for b in p.blocks:
            if b[0] in where:
                cyc = [where[x] for x in b]
                for a, c in zip(cyc, cyc[1:] + cyc[:1]):
                    succ[a] = c
        pred = {c: a for a, c in succ.items()}
        seen = set()
        for start in range(len(w)):
            length, x = 0, start
            while x not in seen:
                seen.add(x)
                length += 1
                x = pred[(x + 1) % len(w)]
            if length:
                result *= signed_catalan(length)
    return result


def restrict_relabel(blocks, members):
    """Blocks of a partition restricted to the set ``members`` (which is a
    union of whole blocks), relabeled to {1..len(members)} canonically."""
    relabel = {x: i + 1 for i, x in enumerate(sorted(members))}
    sub = [tuple(relabel[x] for x in b) for b in blocks if b[0] in members]
    sub.sort(key=lambda b: b[0])
    return tuple(sub)


@lru_cache(maxsize=None)
def zeta_mu_to_top(blocks):
    """mu(tau, top) for a canonical non-crossing tau of {1..m}, from
    sum_{tau <= rho <= top} mu(tau, rho) = 0 whenever tau < top."""
    if len(blocks) == 1:
        return 1
    n = max(b[-1] for b in blocks)
    acc = 0
    mu = {}  # the same block of rho recurs across many rho
    for rho in interval(NcPartition(n, blocks), full(n)):
        if rho.num_blocks() == 1:  # the top
            continue
        term = 1
        for block in rho.blocks:
            if block not in mu:
                mu[block] = zeta_mu_to_top(restrict_relabel(blocks, set(block)))
            term *= mu[block]
        acc += term
    return -acc


def zeta_inversion_mobius(p, q):
    """mu(p, q) by inverting the zeta function over the listed intervals:
    multiplicative over the blocks of q, each factor a relabeled mu(tau,
    top) summed over the upper interval of tau.  Independent of the
    Kreweras complement, and exponential in the blocks of p."""
    assert leq(p, q)
    result = 1
    for block in q.blocks:
        result *= zeta_mu_to_top(restrict_relabel(p.blocks, set(block)))
    return result


def nc_partitions(n):
    return st.integers(0, catalan_number(n) - 1).map(lambda i: enumerate_nc(n)[i])


@st.composite
def ordered_pairs(draw, max_n=9):
    """p <= q in NC(n): q drawn from the listing or the maximum, and p a
    blockwise refinement of q, the minimum, or q itself."""
    n = draw(st.integers(1, max_n))
    q = draw(st.one_of(st.just(full(n)), nc_partitions(n)))
    shape = draw(st.sampled_from(["refine", "refine", "refine", "bottom", "equal"]))
    if shape == "bottom":
        return singletons(n), q
    if shape == "equal":
        return q, q
    blocks = []
    for w in q.blocks:
        sub = draw(nc_partitions(len(w)))
        blocks += [tuple(w[i - 1] for i in b) for b in sub.blocks]
    return NcPartition(n, blocks), q


@settings(max_examples=150, deadline=None)
@given(ordered_pairs())
def test_interval_matches_filter_property(pair):
    p, q = pair
    got = interval(p, q)
    want = filtered_interval(p, q)
    assert got == want
    assert repr(got) == repr(want)


@settings(max_examples=200, deadline=None)
@given(ordered_pairs(max_n=10))
def test_mobius_matches_kreweras_property(pair):
    p, q = pair
    value = mobius(p, q)
    assert value == kreweras_mobius(p, q)
    assert value == zeta_inversion_mobius(p, q)


def test_mobius_past_the_old_cap():
    # q = {1..20, 30} | {21..29}; its first block holds 16 blocks of p,
    # which the zeta inversion could not take (it would list NC(16) merges)
    q = NcPartition(30, [tuple(range(1, 21)) + (30,), range(21, 30)])
    p = NcPartition(
        30,
        [(1, 10, 20, 30), (2, 5), (3,), (4,), (6,), (7,), (8,), (9,), (11, 12)]
        + [(x,) for x in range(13, 20)]
        + [(21, 29), (22, 23, 24)] + [(x,) for x in range(25, 29)],
    )
    assert leq(p, q)
    assert sum(b[0] in q.blocks[0] for b in p.blocks) > partitions.ORDER_CAP
    assert mobius(p, q) == kreweras_mobius(p, q) != 0


def test_kreweras_oracle_on_known_values():
    for n in range(1, 8):
        assert kreweras_mobius(singletons(n), full(n)) == signed_catalan(n)
        assert kreweras_mobius(full(n), full(n)) == 1
    assert kreweras_mobius(singletons(3), NcPartition(3, [(1, 2), (3,)])) == -1


@st.composite
def triples(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    return tuple(draw(nc_partitions(n)) for _ in range(3))


@settings(max_examples=200, deadline=None)
@given(triples())
def test_lattice_laws_property(t):
    p, q, r = t
    j, m = join(p, q), meet(p, q)
    assert j == join(q, p) and m == meet(q, p)
    assert join(p, p) == p and meet(p, p) == p
    assert join(p, join(q, r)) == join(j, r)
    assert meet(p, meet(q, r)) == meet(m, r)
    assert join(p, m) == p and meet(p, j) == p
    assert leq(p, j) and leq(q, j) and leq(m, p) and leq(m, q)
    assert leq(p, q) == (j == q) == (m == p)
    # the join is the least upper bound among the upper bounds drawn
    if leq(p, r) and leq(q, r):
        assert leq(j, r)
    if leq(r, p) and leq(r, q):
        assert leq(r, m)


def test_extremes_of_nc_zero_and_negative_orders():
    assert singletons(0) == full(0) == NcPartition(0, ())
    assert full(0).blocks == () and full(0).num_blocks() == 0
    assert leq(full(0), singletons(0)) and leq(singletons(0), full(0))
    for make in (singletons, full, lambda n: NcPartition(n, ())):
        with pytest.raises(DomainError, match=">= 0"):
            make(-2)


def test_a_partition_missing_almost_every_element_is_refused_at_once():
    message = r"^not a partition of 1\.\.1000000000: 999999999 missing, the first 2$"
    start = time.perf_counter()
    with pytest.raises(StructuralError, match=message):
        NcPartition(10**9, [[1]])
    assert time.perf_counter() - start < 1
    with pytest.raises(StructuralError, match=r": 1 missing, the first 3$"):
        NcPartition(5, [[1, 4], [2], [5]])
    with pytest.raises(StructuralError, match=r": 2 missing, the first 2$"):
        NcPartition(5, [[1, 4], [5]])
