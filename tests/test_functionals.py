import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeprob.errors import (
    CapacityError,
    DomainError,
    StructuralError,
    ValidationError,
)
from freeprob.functionals import (
    CumulantFunctional,
    MomentFunctional,
    as_scalar,
    block_cumulant_product,
    block_moment_product,
    cumulant_mobius_sum,
    cumulants_to_moments,
    iter_words_upto,
    moment_lattice_sum,
    moments_to_cumulants,
)
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
    with pytest.raises(StructuralError):
        MomentFunctional(("a",), 1, {(1,): F(0), (2,): F(1)})
    with pytest.raises(StructuralError):
        MomentFunctional(("a",), 1, {(1,): F(0), (1, 1): F(1)})
    with pytest.raises(StructuralError):
        MomentFunctional(("a", "a"), 1, {(1,): F(0), (2,): F(0)})
    with pytest.raises(StructuralError):
        MomentFunctional(("a b",), 1, {(1,): F(0)})


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
