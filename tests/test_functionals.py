import functools
import math
import random
import struct
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freeprob.errors import (
    CapacityError,
    DomainError,
    StructuralError,
    ValidationError,
)
from freeprob.freeness import FreenessReport, _normalize_grouping, check_freeness, free_product
from freeprob.functionals import (
    CumulantFunctional,
    MomentFunctional,
    _transform,
    as_scalar,
    block_cumulant_product,
    block_moment_product,
    cumulant_mobius_sum,
    cumulants_to_moments,
    iter_words,
    iter_words_upto,
    moment_lattice_sum,
    moments_to_cumulants,
)
from freeprob.limits import dilate
from freeprob.models import _constants_law, compound_free_poisson_cumulants, projection_family
from freeprob.partitions import NcPartition, full, singletons


def random_moments(k, order, seed, span=6):
    rng = random.Random(seed)
    table = {
        w: F(rng.randint(-span, span), rng.randint(1, 4))
        for w in iter_words_upto(k, order)
    }
    return MomentFunctional(tuple("abcd"[:k]), order, table)


def test_as_scalar():
    assert as_scalar("3/2") == F(3, 2)
    assert as_scalar(-7) == F(-7)
    assert as_scalar(0.25) == F(1, 4)
    # floats promote to their exact binary value, not a decimal reading
    assert as_scalar(0.1) == F(3602879701896397, 36028797018963968)
    with pytest.raises(ValidationError):
        as_scalar(True)
    with pytest.raises(ValidationError):
        as_scalar("x/y")
    with pytest.raises(ValidationError):
        as_scalar(None)


def test_table_must_be_total():
    with pytest.raises(ValidationError):
        MomentFunctional(("a",), 2, {(1,): F(0)})
    with pytest.raises(ValidationError, match="1 entries, need at least 2361183241434822606848"):
        MomentFunctional(("a", "b"), 2**71, {(1,): F(0)})  # refused in O(len(table))
    with pytest.raises(StructuralError):
        MomentFunctional(("a",), 1, {(1,): F(0), (2,): F(1)})
    with pytest.raises(StructuralError):
        MomentFunctional(("a",), 1, {(1,): F(0), (1, 1): F(1)})
    with pytest.raises(StructuralError):
        MomentFunctional(("a", "a"), 1, {(1,): F(0), (2,): F(0)})
    with pytest.raises(StructuralError):
        MomentFunctional(("a b",), 1, {(1,): F(0)})


@pytest.mark.parametrize("order", [True, False, 2.0, "2", None])
def test_order_must_be_an_int(order):
    with pytest.raises(ValidationError):
        MomentFunctional(("x",), order, {(1,): 1, (1, 1): 1})
    mf = random_moments(2, 3, seed=1)
    with pytest.raises(ValidationError):
        mf.truncate(order)


@pytest.mark.parametrize("letter", [1.0, True, "1", None])
def test_letters_must_be_ints(letter):
    with pytest.raises(StructuralError):
        MomentFunctional(("x",), 1, {(letter,): 1})
    with pytest.raises(StructuralError):
        MomentFunctional(("x",), 2, {(1,): 1, (1, letter): 1})
    mf = random_moments(2, 3, seed=1)
    with pytest.raises(StructuralError):
        mf.restrict((letter,))
    with pytest.raises(StructuralError):
        mf.restrict((2, letter))


def test_lookup_and_caps():
    mf = random_moments(2, 3, seed=1)
    assert mf.moment(()) == 1
    with pytest.raises(CapacityError):
        mf.moment((1,) * 4)
    with pytest.raises(StructuralError):
        mf.moment((3,))
    cf = moments_to_cumulants(mf)
    with pytest.raises(DomainError):
        cf.cumulant(())


def test_words_enumeration_order():
    mf = random_moments(2, 2, seed=2)
    assert list(mf.words()) == [(1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]


def test_roundtrip_exact():
    for seed in range(5):
        mf = random_moments(2, 6, seed=seed)
        assert cumulants_to_moments(moments_to_cumulants(mf)) == mf
    mf3 = random_moments(3, 4, seed=99)
    assert cumulants_to_moments(moments_to_cumulants(mf3)) == mf3


def test_reverse_roundtrip_exact():
    rng = random.Random(42)
    table = {
        w: F(rng.randint(-5, 5), rng.randint(1, 3))
        for w in iter_words_upto(2, 5)
    }
    cf = CumulantFunctional(("a", "b"), 5, table)
    assert moments_to_cumulants(cumulants_to_moments(cf)) == cf


def test_production_route_matches_lattice_sums():
    # the fast first-block recursion against the literal NC sums
    mf = random_moments(2, 5, seed=17)
    cf = moments_to_cumulants(mf)
    for w in mf.words():
        assert cumulant_mobius_sum(mf, w) == cf.cumulant(w), w
        assert moment_lattice_sum(cf, w) == mf.moment(w), w


def test_single_variable_known_values():
    # standard semicircle: kappa = (0, 1, 0, 0, ...) gives Catalan moments
    order = 8
    kappa = {(1,) * n: F(1) if n == 2 else F(0) for n in range(1, order + 1)}
    mf = cumulants_to_moments(CumulantFunctional(("s",), order, kappa))
    assert [mf.moment((1,) * n) for n in range(1, 9)] == [0, 1, 0, 2, 0, 5, 0, 14]

    # all cumulants 1: moments are the Catalan numbers shifted by one
    kappa1 = {(1,) * n: F(1) for n in range(1, 7)}
    mf1 = cumulants_to_moments(CumulantFunctional(("x",), 6, kappa1))
    assert [mf1.moment((1,) * n) for n in range(1, 7)] == [1, 2, 5, 14, 42, 132]


def test_block_products():
    mf = random_moments(2, 4, seed=3)
    w = (1, 2, 2, 1)
    p = NcPartition(4, [(1, 4), (2, 3)])
    assert block_moment_product(mf, w, p) == mf.moment((1, 1)) * mf.moment((2, 2))
    cf = moments_to_cumulants(mf)
    assert block_cumulant_product(cf, w, full(4)) == cf.cumulant(w)
    assert block_cumulant_product(cf, w, singletons(4)) == (
        cf.cumulant((1,)) ** 2 * cf.cumulant((2,)) ** 2
    )
    with pytest.raises(StructuralError):
        block_moment_product(mf, w, full(3))


def test_restrict_relabel_truncate():
    mf = random_moments(3, 3, seed=4)
    sub = mf.restrict((3, 1))
    assert sub.alphabet == ("c", "a")
    assert sub.moment((1, 2)) == mf.moment((3, 1))
    ren = mf.relabel(("x", "y", "z"))
    assert ren.moment((2, 1)) == mf.moment((2, 1))
    cut = mf.truncate(2)
    assert cut.order == 2
    assert cut.moment((1, 2)) == mf.moment((1, 2))
    with pytest.raises(ValidationError):
        mf.truncate(5)
    with pytest.raises(StructuralError):
        mf.restrict((1, 1))


def test_scale_letters():
    mf = random_moments(2, 3, seed=5)
    scaled = mf.scale_letters([F(2), F(-1, 3)])
    assert scaled.moment((1, 2, 1)) == mf.moment((1, 2, 1)) * 4 * F(-1, 3)
    # scaling commutes with the transform, letterwise
    a = moments_to_cumulants(scaled)
    b = moments_to_cumulants(mf).scale_letters([F(2), F(-1, 3)])
    assert a == b


def test_tensor_factorizes():
    a = random_moments(2, 3, seed=6)
    b = random_moments(2, 3, seed=7)
    t = a.tensor(b)
    for w in t.words():
        assert t.moment(w) == a.moment(w) * b.moment(w)
    with pytest.raises(StructuralError):
        a.tensor(random_moments(3, 3, seed=8))


def test_symmetry_and_traciality_flags():
    sym = {(1,): F(1), (2,): F(2), (1, 1): F(1), (1, 2): F(5), (2, 1): F(5), (2, 2): F(0)}
    mf = MomentFunctional(("a", "b"), 2, sym)
    assert mf.is_symmetric() and mf.is_tracial()
    asym = dict(sym)
    asym[(1, 2)] = F(3)
    mf2 = MomentFunctional(("a", "b"), 2, asym)
    assert not mf2.is_symmetric() and not mf2.is_tracial()


@st.composite
def small_moment_tables(draw):
    k = draw(st.integers(min_value=1, max_value=2))
    order = draw(st.integers(min_value=1, max_value=4))
    numer = st.integers(min_value=-8, max_value=8)
    denom = st.integers(min_value=1, max_value=5)
    table = {
        w: F(draw(numer), draw(denom)) for w in iter_words_upto(k, order)
    }
    return MomentFunctional(tuple("ab"[:k]), order, table)


@settings(max_examples=60, deadline=None)
@given(small_moment_tables())
def test_roundtrip_property(mf):
    cf = moments_to_cumulants(mf)
    assert cumulants_to_moments(cf) == mf


@settings(max_examples=25, deadline=None)
@given(small_moment_tables())
def test_first_word_cumulant_matches_lattice_sum_property(mf):
    cf = moments_to_cumulants(mf)
    w = next(iter(mf.words(mf.order)))
    assert cumulant_mobius_sum(mf, w) == cf.cumulant(w)


# Denominator families for the transform kernel: small denominators,
# shared powers of one base (as in tracial states built from matrices),
# pairwise-coprime primes, and float-derived binary fractions down to
# 2**-1000; every family mixes in zero entries.
PRIMES = [p for p in range(2, 2000) if all(p % q for q in range(2, int(p**0.5) + 1))]


@st.composite
def family_tables(draw):
    k = draw(st.integers(min_value=1, max_value=3))
    order = draw(st.integers(min_value=1, max_value=5))
    base = draw(st.integers(min_value=2, max_value=6))
    numer = st.integers(-9, 9)
    family = draw(
        st.sampled_from(
            [
                st.builds(F, numer, st.integers(1, 9)),
                st.builds(lambda a, e: F(a, base**e), numer, st.integers(0, 6)),
                st.builds(F, numer, st.sampled_from(PRIMES)),
                st.builds(
                    lambda m, e: F(m, 2**e),
                    st.integers(-(2**53), 2**53),
                    st.integers(0, 1000),
                ),
            ]
        )
    )
    values = st.one_of(st.just(F(0)), family)
    table = {w: draw(values) for w in iter_words_upto(k, order)}
    return k, order, table


@settings(max_examples=40, deadline=None)
@given(family_tables())
def test_moments_to_cumulants_matches_mobius_sums_property(data):
    k, order, table = data
    mf = MomentFunctional(tuple("abc"[:k]), order, table)
    cf = moments_to_cumulants(mf)
    for w in mf.words():
        assert cf.cumulant(w) == cumulant_mobius_sum(mf, w), w


@settings(max_examples=40, deadline=None)
@given(family_tables())
def test_cumulants_to_moments_matches_lattice_sums_property(data):
    k, order, table = data
    cf = CumulantFunctional(tuple("abc"[:k]), order, table)
    mf = cumulants_to_moments(cf)
    for w in cf.words():
        assert mf.moment(w) == moment_lattice_sum(cf, w), w



@settings(max_examples=40, deadline=None)
@given(family_tables())
def test_transform_outputs_pass_the_public_constructor_property(data):
    # the transforms build their results without re-validation; the public
    # constructor must accept them unchanged
    k, order, table = data
    names = tuple("abc"[:k])
    for out in (
        moments_to_cumulants(MomentFunctional(names, order, table)),
        cumulants_to_moments(CumulantFunctional(names, order, table)),
    ):
        assert out.alphabet == names and out.order == order
        assert list(out._table) == list(iter_words_upto(k, order))
        assert all(type(v) is F for v in out._table.values())
        assert type(out)(names, order, dict(out.items())) == out


# -- the first-block split oracle ---------------------------------------------
# The transform kernel as it was before the pending-block recursion: level n
# sums over all 2**(n-1) first blocks, each split a broadcast product of its
# block's cumulant level and its gaps' moment levels.  Kept verbatim as the
# oracle for the raw (integers, denominator) pairs of ``_transform``; the
# lattice-sum properties above stay the independent check of the values.


@functools.lru_cache(maxsize=None)
def first_block_splits(n):
    """Every subset of positions {0..n-1} containing 0, with the contiguous
    gaps it leaves.  Summing over these splits is summing over NC(n)
    grouped by the block of the first position."""
    splits = []
    for mask in range(2 ** (n - 1)):
        block = [0]
        for j in range(1, n):
            if mask >> (j - 1) & 1:
                block.append(j)
        ext = block + [n]
        gaps = tuple((a + 1, b) for a, b in zip(ext, ext[1:]) if b - a > 1)
        splits.append((tuple(block), gaps))
    return tuple(splits)


def split_spread(level, axes, n, k):
    """A level laid along the given axes of an n-axis array, size 1 on
    the others, so that factors on disjoint axes multiply by
    broadcasting into one word level."""
    if k == 1:
        return level
    shape = [1] * n
    for i in axes:
        shape[i] = k
    return level.reshape(shape)


def first_block_split_transform(table, to_cumulants):
    """The first-block recursion in either direction, a word level at a
    time, on integers graded by one denominator per level.

    ``table`` is the given side: moments when ``to_cumulants``, else
    cumulants.  Yields the other side's levels as (integers, denominator)
    pairs, n = 1..order.
    """
    k, order = table.arity, table.order
    # an all-zero level is None; with one letter a level is its int
    given = [None] + [
        (lv.item() if k == 1 else lv) if lv.any() else None for lv in table._nums[1:]
    ]
    given_den = table._dens
    derived, derived_den = [None], [1]
    # the block of a split is a cumulant, each gap a moment
    blocks, gaps = (derived, given) if to_cumulants else (given, derived)
    block_den, gap_den = (
        (derived_den, given_den) if to_cumulants else (given_den, derived_den)
    )
    for n in range(1, order + 1):
        terms = []
        for block, split_gaps in first_block_splits(n):
            if len(block) == n:
                continue  # the given entry itself
            lengths = [b - a for a, b in split_gaps]
            if blocks[len(block)] is None or any(gaps[m] is None for m in lengths):
                continue
            den = block_den[len(block)]
            for m in lengths:
                den *= gap_den[m]
            terms.append((block, split_gaps, den))
        d = math.lcm(given_den[n], *(den for _, _, den in terms))
        level = 0 if given[n] is None else given[n] * (d // given_den[n])
        for block, split_gaps, den in terms:
            block_level = blocks[len(block)]
            if den != d:
                block_level = block_level * (d // den)
            term = split_spread(block_level, block, n, k)
            for a, b in split_gaps:
                term = term * split_spread(gaps[b - a], range(a, b), n, k)
            if to_cumulants:
                level -= term
            else:
                level += term
        nonzero = level.any() if isinstance(level, np.ndarray) else level != 0
        derived.append(level if nonzero else None)
        derived_den.append(d)
    for n, level in enumerate(derived[1:], 1):
        if level is None or k == 1:
            level = np.full((k,) * n, level or 0, dtype=object)
        yield level, derived_den[n]


def assert_same_raw_pairs(table, to_cumulants):
    got = list(_transform(table, to_cumulants))
    want = list(first_block_split_transform(table, to_cumulants))
    assert len(got) == len(want) == table.order
    for n, ((nums, d), (want_nums, want_d)) in enumerate(zip(got, want), 1):
        assert d == want_d, (n, d, want_d)
        assert nums.shape == (table.arity,) * n and nums.dtype == object
        assert np.array_equal(nums, want_nums), n


# the kernel's reach: k = 1 to the DSL's order cap, deeper orders for fewer letters
KERNEL_ORDERS = {1: 12, 2: 8, 3: 6}


@st.composite
def kernel_tables(draw):
    """(kind, names, order, table): random values with zeros, tracial states,
    sparse tables with only length-2 entries (the cumulants of a
    semicircle family), or one prime denominator per word length, the
    primes pairwise coprime.  Values come from a drawn seed, so that a
    table of 1,092 words costs one draw."""
    # sampled_from draws orders evenly, where integers() favours small ones
    k = draw(st.sampled_from([1, 2, 3]))
    order = draw(st.sampled_from(range(1, KERNEL_ORDERS[k] + 1)))
    kind = draw(st.sampled_from(["random", "tracial", "sparse", "coprime"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    primes = rng.sample(PRIMES[:40], order)

    def value(w):
        if kind == "sparse":
            return F(rng.randint(-4, 4), rng.randint(1, 3)) if len(w) == 2 else F(0)
        if kind == "coprime":
            return F(rng.randint(-9, 9), primes[len(w) - 1])
        if rng.random() < 0.2:
            return F(0)
        return F(rng.randint(-9, 9), rng.choice(COPRIME))

    table = {}
    for w in iter_words_upto(k, order):
        if kind == "tracial":
            # one value per rotation class, read at its least rotation
            w0 = min(w[i:] + w[:i] for i in range(len(w)))
            table[w] = value(w) if w0 == w else table[w0]
        else:
            table[w] = value(w)
    return kind, tuple("abc"[:k]), order, table


# A semicircle with kappa_2 = 3/2 at order 12: a state held over its
# level's d_n instead of its own gives d_12 = 64 for the m->kappa run on
# its moments, where the split sum gives 32.
SEMICIRCLE_3_2 = {w: F(3, 2) if len(w) == 2 else F(0) for w in iter_words_upto(1, 12)}


@settings(max_examples=150, deadline=None)
@given(kernel_tables())
@example(("sparse", ("a",), 12, SEMICIRCLE_3_2))
def test_transform_matches_the_first_block_split_oracle_property(data):
    kind, names, order, table = data
    cf = CumulantFunctional(names, order, table)
    assert_same_raw_pairs(MomentFunctional(names, order, table), True)
    assert_same_raw_pairs(cf, False)
    if kind == "sparse":
        # moments with only length-2 cumulants, as for a semicircle family:
        # every odd level is zero, and so is every cumulant level beyond 2
        assert_same_raw_pairs(cumulants_to_moments(cf), True)


# -- float levels -----------------------------------------------------------


def float_bits(x):
    return struct.pack("<d", x)


def test_float_levels_round_as_fraction_float():
    # int / int over the level's common denominator is correctly rounded,
    # as Fraction.__float__ is on the reduced pair: the same bits, signed
    # zeros and subnormals included
    values = [
        F(2**53 + 1, 3), F(2**53 + 1), F(-(2**60) + 7, 2**70), F(3**200, 2**300),
        F(1, 2**1070), F(-1, 2**1100), F(-5, 2**1074), F(0), F(-7, 9),
    ]
    k = 3
    table = {w: values[i % len(values)] for i, w in enumerate(iter_words_upto(k, 2))}
    for cls in (MomentFunctional, CumulantFunctional):
        tbl = cls(("a", "b", "c"), 2, table)
        for n in (1, 2):
            got = [float_bits(x) for x in tbl._float_level(n).ravel().tolist()]
            want = [float_bits(float(table[w])) for w in iter_words(k, n)]
            assert got == want


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.builds(
            F,
            st.integers(-(10**300), 10**300),
            st.one_of(
                st.integers(1, 1100).map(lambda e: 2**e),
                st.integers(1, 200).map(lambda e: 3**e),
            ),
        ),
        min_size=2,
        max_size=2,
    )
)
def test_float_levels_round_as_fraction_float_property(values):
    tbl = CumulantFunctional(("a", "b"), 1, {(1,): values[0], (2,): values[1]})
    got = [float_bits(x) for x in tbl._float_level(1).tolist()]
    assert got == [float_bits(float(v)) for v in values]


# -- the dict oracle ----------------------------------------------------------
#
# The word -> Fraction dict implementations of the table operations, kept
# verbatim from before tables were stored as graded levels (``self._table``
# is now a read-only view, so they read it unchanged); every level
# operation must return the very same table.


def _map_values(self, fn):
    return {w: fn(w, v) for w, v in self._table.items()}


def oracle_relabel(self, alphabet):
    """Same table under new variable names."""
    return type(self)(alphabet, self.order, self._table)


def oracle_truncate(self, order):
    """Drop words longer than ``order``."""
    if order > self.order:
        raise ValidationError("cannot truncate %d up to %d" % (self.order, order))
    table = {w: v for w, v in self._table.items() if len(w) <= order}
    return type(self)(self.alphabet, order, table)


def oracle_restrict(self, letters):
    """Sub-table on a subset of letters (1-based indices), which become
    letters 1..len(letters) of the result in the given order."""
    letters = tuple(letters)
    if len(set(letters)) != len(letters):
        raise StructuralError("repeated letter in restriction")
    if any(not 1 <= c <= self.arity for c in letters):
        raise StructuralError("restriction letter outside 1..%d" % self.arity)
    names = tuple(self.alphabet[c - 1] for c in letters)
    table = {}
    for w in iter_words_upto(len(letters), self.order):
        table[w] = self._table[tuple(letters[c - 1] for c in w)]
    return type(self)(names, self.order, table)


def oracle_scale_letters(self, factors):
    """Rescale variable i by factors[i-1]: each word picks up the
    product of the factors of its letters."""
    fs = [as_scalar(f) for f in factors]
    if len(fs) != self.arity:
        raise ValidationError("need %d factors" % self.arity)

    def scaled(w, v):
        out = v
        for c in w:
            out *= fs[c - 1]
        return out

    return type(self)(self.alphabet, self.order, _map_values(self, scaled))


def oracle_is_symmetric(self):
    return all(v == self._table[w[::-1]] for w, v in self._table.items())


def oracle_is_tracial(self):
    for w, v in self._table.items():
        for r in range(1, len(w)):
            if self._table[w[r:] + w[:r]] != v:
                return False
    return True


def oracle_tensor(self, other, alphabet=None):
    """Letterwise product state: variable i of the result pairs
    variable i of self with variable i of other, and every joint
    moment factors as the product of the two coordinate moments."""
    if not isinstance(other, MomentFunctional):
        raise StructuralError("tensor needs a MomentFunctional")
    if other.arity != self.arity:
        raise StructuralError("tensor factors must have equal arity")
    order = min(self.order, other.order)
    if alphabet is None:
        alphabet = tuple(
            "%s*%s" % (a, b) for a, b in zip(self.alphabet, other.alphabet)
        )
    table = {
        w: self._table[w] * other._table[w]
        for w in iter_words_upto(self.arity, order)
    }
    return MomentFunctional(alphabet, order, table)


def oracle_dilate(cf, t):
    factor = as_scalar(t)
    return CumulantFunctional(
        cf.alphabet, cf.order, _map_values(cf, lambda w, v: factor * v)
    )


def oracle_compound_free_poisson_cumulants(rate, base, order=None):
    lam = as_scalar(rate)
    if order is None:
        order = base.order
    table = {w: lam * base.moment(w) for w in iter_words_upto(base.arity, order)}
    return CumulantFunctional(base.alphabet, order, table)


def oracle_constants_law(values, order, names):
    table = {}
    for w in iter_words_upto(len(values), order):
        table[w] = table.get(w[:-1], F(1)) * values[w[-1] - 1]
    return MomentFunctional(names, order, table)


def oracle_projection_family(traces, order, model, names):
    """The equal and orthogonal couplings, from the traces."""
    k = len(traces)
    zero = F(0)
    if model == "equal":
        t = traces[0]
        table = {w: t for w in iter_words_upto(k, order)}
        return MomentFunctional(names, order, table)
    table = {}
    for w in iter_words_upto(k, order):
        pure = all(c == w[0] for c in w)
        table[w] = traces[w[0] - 1] if pure else zero
    return MomentFunctional(names, order, table)


def oracle_free_product(families, order):
    names = []
    for mf in families:
        names.extend(mf.alphabet)

    owner = []  # letter index in the union -> (family position, local letter)
    for fam, mf in enumerate(families):
        for c in range(1, mf.arity + 1):
            owner.append((fam, c))

    kappas = [moments_to_cumulants(oracle_truncate(mf, order)) for mf in families]

    zero = F(0)
    table = {}
    for w in iter_words_upto(len(names), order):
        fam0, c0 = owner[w[0] - 1]
        local = [c0]
        pure = True
        for letter in w[1:]:
            fam, c = owner[letter - 1]
            if fam != fam0:
                pure = False
                break
            local.append(c)
        table[w] = kappas[fam0].cumulant(tuple(local)) if pure else zero
    joint = CumulantFunctional(tuple(names), order, table)
    return cumulants_to_moments(joint)


def oracle_check_freeness(mf, grouping, order, tolerance=0):
    groups = _normalize_grouping(mf, grouping)
    tol = abs(as_scalar(tolerance))

    family_of = {}
    for fam, members in enumerate(groups):
        for c in members:
            family_of[c] = fam

    cf = moments_to_cumulants(oracle_truncate(mf, order))
    violations = []
    checked = 0
    for w in cf.words():
        fam0 = family_of[w[0]]
        if all(family_of[c] == fam0 for c in w[1:]):
            continue
        checked += 1
        value = cf.cumulant(w)
        if abs(value) > tol:
            violations.append((w, value))
    return FreenessReport(
        order=order,
        tolerance=tol,
        groups=groups,
        checked_words=checked,
        violations=tuple(violations),
    )


# Pairwise-coprime denominators, so that no two entries share a factor
# and the lcm of a level is the product of the denominators it uses.
COPRIME = [1, 2, 3, 5, 7, 11, 13]


@st.composite
def level_tables(draw, cls=MomentFunctional, k=None, max_order=5):
    """A table with k in 1..3, order <= 5, negative values and, with
    probability 1/3, an all-zero level."""
    k = draw(st.integers(1, 3)) if k is None else k
    order = draw(st.integers(1, max_order))
    value = st.builds(F, st.integers(-9, 9), st.sampled_from(COPRIME))
    table = {}
    for n in range(1, order + 1):
        zero = draw(st.integers(0, 2)) == 0
        for w in iter_words(k, n):
            table[w] = F(0) if zero else draw(value)
    return cls(tuple("abc"[:k]), order, table)


rationals = st.builds(F, st.integers(-9, 9), st.sampled_from(COPRIME))
nonzero = rationals.filter(bool)


def word_level(t, n):
    """Level n from the per-word values, shape (k,)*n in word order."""
    values = [t._values[w] for w in iter_words(t.arity, n)]
    return np.array(values, dtype=object).reshape((t.arity,) * n)


def assert_graded(t):
    """Stored form: level n is a read-only integer array of shape (k,)*n
    over the lcm of its entries' reduced denominators."""
    for n in range(1, t.order + 1):
        values = word_level(t, n)
        assert values.shape == t._nums[n].shape == (t.arity,) * n
        assert all(type(v) is F for v in values.flat)
        assert t._dens[n] == math.lcm(*(v.denominator for v in values.flat))
        assert not t._nums[n].flags.writeable
        assert all(type(v) is int for v in t._nums[n].flat)


def assert_same(got, want):
    assert_graded(got)
    assert got == want and want == got
    assert repr(got) == repr(want)
    assert list(got.items()) == list(want.items())
    assert [w for w, _ in got.items()] == list(iter_words_upto(got.arity, got.order))
    assert len(got._table) == len(want._table) == len(list(want.items()))
    for n in range(1, got.order + 1):
        assert np.array_equal(word_level(got, n), word_level(want, n))
        assert np.array_equal(got._float_level(n), word_level(want, n).astype(float))


@settings(max_examples=40, deadline=None)
@given(level_tables(), st.data())
def test_level_operations_match_the_dict_oracle_property(mf, data):
    k = mf.arity
    assert_graded(mf)
    order = data.draw(st.integers(1, mf.order))
    assert_same(mf.truncate(order), oracle_truncate(mf, order))
    assert mf.truncate(mf.order) is mf
    assert_same(mf.relabel(("x", "y", "z")[:k]), oracle_relabel(mf, ("x", "y", "z")[:k]))
    letters = data.draw(st.permutations(range(1, k + 1)))
    letters = letters[: data.draw(st.integers(1, k))]
    assert_same(mf.restrict(letters), oracle_restrict(mf, letters))
    factors = data.draw(st.lists(rationals, min_size=k, max_size=k))
    assert_same(mf.scale_letters(factors), oracle_scale_letters(mf, factors))
    assert mf.is_symmetric() == oracle_is_symmetric(mf)
    assert mf.is_tracial() == oracle_is_tracial(mf)
    other = data.draw(level_tables(k=k))
    assert_same(mf.tensor(other), oracle_tensor(mf, other))
    assert_same(
        mf.tensor(other, alphabet=("p", "q", "r")[:k]),
        oracle_tensor(mf, other, alphabet=("p", "q", "r")[:k]),
    )
    t = data.draw(nonzero.map(abs))
    cf = data.draw(level_tables(cls=CumulantFunctional, k=k))
    assert_same(dilate(cf, t), oracle_dilate(cf, t))
    assert_same(
        compound_free_poisson_cumulants(t, mf),
        oracle_compound_free_poisson_cumulants(t, mf),
    )
    assert_same(
        compound_free_poisson_cumulants(t, mf, order),
        oracle_compound_free_poisson_cumulants(t, mf, order),
    )


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_constant_and_projection_laws_match_the_dict_oracle_property(data):
    k = data.draw(st.integers(1, 3))
    order = data.draw(st.integers(1, 5))
    names = ("x", "y", "z")[:k]
    values = data.draw(st.lists(rationals, min_size=k, max_size=k))
    assert_same(_constants_law(values, order, names), oracle_constants_law(values, order, names))
    rates = data.draw(st.lists(st.integers(1, 5).map(F), min_size=k, max_size=k))
    size_n = data.draw(st.integers(sum(rates), 20))
    traces = [r / size_n for r in rates]
    assert_same(
        projection_family(rates, size_n, order, "orthogonal", names),
        oracle_projection_family(traces, order, "orthogonal", names),
    )
    same = [rates[0]] * k
    assert_same(
        projection_family(same, size_n, order, "equal", names),
        oracle_projection_family([traces[0]] * k, order, "equal", names),
    )


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_free_product_and_freeness_match_the_dict_oracle_property(data):
    ka = data.draw(st.integers(1, 2))
    a = data.draw(level_tables(k=ka, max_order=4))
    b = data.draw(level_tables(k=3 - ka, max_order=4)).relabel(("p", "q")[: 3 - ka])
    order = data.draw(st.integers(1, min(a.order, b.order)))
    joint = free_product([a, b], order)
    assert_same(joint, oracle_free_product([a, b], order))
    # a random table, so that mixed cumulants exist, under every tolerance
    mf = data.draw(level_tables(k=3, max_order=4))
    grouping = data.draw(st.sampled_from([[(1,), (2, 3)], [(1, 3), (2,)], [(1,), (2,), (3,)]]))
    tol = data.draw(st.one_of(st.just(0), nonzero.map(abs)))
    for table in (joint, mf):
        got = check_freeness(table, grouping, table.order, tol)
        want = oracle_check_freeness(table, grouping, table.order, tol)
        assert got == want and repr(got) == repr(want)
        assert type(got.checked_words) is int
