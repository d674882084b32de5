from fractions import Fraction as F

import pytest

from freeprob.errors import StructuralError, ValidationError
from freeprob.freeness import check_freeness, free_product
from freeprob.functionals import (
    MAX_ORDER,
    MomentFunctional,
    iter_words_upto,
    moments_to_cumulants,
)
from freeprob.limits import poisson_limit_check
from freeprob.models import (
    CovarianceMatrix,
    PoissonSpec,
    bernoulli,
    compound_free_poisson,
    compound_free_poisson_cumulants,
    free_poisson,
    projection_family,
    projection_functional,
    sandwich_cumulants,
    semicircle,
    semicircle_family,
)

CATALAN = [1, 1, 2, 5, 14]


def test_covariance_matrix():
    c = CovarianceMatrix.from_rows([[1, "1/2"], ["1/2", 2]], names=("u", "v"))
    assert c.value(1, 2) == F(1, 2)
    assert c.is_psd()
    assert not CovarianceMatrix.from_rows([[1, 2], [2, 1]]).is_psd()
    with pytest.raises(StructuralError):
        CovarianceMatrix.from_rows([[1, 0], [1, 1]])
    with pytest.raises(StructuralError):
        CovarianceMatrix.from_rows([[1, 0]])


def test_semicircle_moments():
    s = semicircle(2, 8)
    for n in range(1, 9):
        want = F(0) if n % 2 else F(CATALAN[n // 2])
        assert s.moment((1,) * n) == want
    # radius r scales moments by (r/2)^n
    s3 = semicircle(3, 4)
    assert s3.moment((1, 1)) == F(9, 4)
    assert s3.moment((1, 1, 1, 1)) == 2 * F(9, 4) ** 2
    with pytest.raises(ValidationError):
        semicircle(0, 4)


def test_semicircle_family_covariance():
    cov = [[F(1), F(1, 2)], [F(1, 2), F(2)]]
    fam = semicircle_family(cov, 4, names=("u", "v"))
    cf = moments_to_cumulants(fam)
    for i in (1, 2):
        for j in (1, 2):
            assert cf.cumulant((i, j)) == cov[i - 1][j - 1]
    for w in cf.words():
        if len(w) != 2:
            assert cf.cumulant(w) == 0
    # fourth moments: sum over the two non-crossing pairings of 1..4
    for w in iter_words_upto(2, 4):
        if len(w) != 4:
            continue
        want = F(0)
        for pairing in (((0, 1), (2, 3)), ((0, 3), (1, 2))):
            term = F(1)
            for i, j in pairing:
                term *= cov[w[i] - 1][w[j] - 1]
            want += term
        assert fam.moment(w) == want, w
    assert fam.moment((1, 2, 1)) == 0


def test_free_poisson_cumulants_and_moments():
    lam, alpha = F(3, 2), F(1, 2)
    x = free_poisson(lam, alpha, 5)
    cf = moments_to_cumulants(x)
    for n in range(1, 6):
        assert cf.cumulant((1,) * n) == lam * alpha**n
    std = free_poisson(1, 1, 4)
    assert [std.moment((1,) * n) for n in range(1, 5)] == [1, 2, 5, 14]
    with pytest.raises(ValidationError):
        free_poisson(0, 1, 3)
    with pytest.raises(ValidationError):
        free_poisson(1, 0, 3)


def test_compound_free_poisson_point_mass_reduces():
    # base = a single point at alpha: phi(x^n) = alpha^n
    alpha = F(2, 3)
    table = {(1,) * n: alpha**n for n in range(1, 6)}
    base = MomentFunctional(("x",), 5, table)
    compound = compound_free_poisson(F(2), base)
    direct = free_poisson(F(2), alpha, 5, name="x")
    assert compound == direct


def test_compound_free_poisson_cumulants_scale_base_moments():
    base = semicircle_family([[F(1), F(1, 3)], [F(1, 3), F(1)]], 4)
    cf = compound_free_poisson_cumulants(F(5, 2), base)
    for w in base.words():
        assert cf.cumulant(w) == F(5, 2) * base.moment(w)
    cut = compound_free_poisson_cumulants(F(5, 2), base, order=2)
    assert cut.order == 2
    with pytest.raises(ValidationError):
        compound_free_poisson_cumulants(F(5, 2), base, order=9)


def test_projection_functional():
    p = projection_functional(F(1, 3), 5)
    for n in range(1, 6):
        assert p.moment((1,) * n) == F(1, 3)
    with pytest.raises(ValidationError):
        projection_functional(F(3, 2), 3)


def test_projection_family_equal():
    fam = projection_family([F(2), F(2)], 10, 3, "equal")
    for w in fam.words():
        assert fam.moment(w) == F(1, 5)
    with pytest.raises(ValidationError):
        projection_family([F(1), F(2)], 10, 3, "equal")


def test_projection_family_orthogonal():
    fam = projection_family([F(1), F(2)], 10, 3, "orthogonal")
    assert fam.moment((1, 1)) == F(1, 10)
    assert fam.moment((2, 2, 2)) == F(1, 5)
    assert fam.moment((1, 2)) == 0
    assert fam.moment((2, 1, 2)) == 0
    with pytest.raises(ValidationError):
        projection_family([F(6), F(6)], 10, 3, "orthogonal")


def test_projection_family_free():
    fam = projection_family([F(1), F(2)], 10, 4, "free")
    rep = check_freeness(fam, [(1,), (2,)])
    assert rep.passed
    assert fam.moment((1, 1)) == F(1, 10)
    # free projections: phi(p q) = phi(p) phi(q)
    assert fam.moment((1, 2)) == F(1, 10) * F(1, 5)


def test_projection_family_validation():
    with pytest.raises(ValidationError):
        projection_family([F(3)], 2, 3, "free")  # N below sup rate
    with pytest.raises(ValidationError):
        projection_family([F(1)], 4, 3, "diagonal")
    with pytest.raises(ValidationError):
        projection_family([], 4, 3, "free")


def test_poisson_spec():
    spec = PoissonSpec.of([1, "3/2"], [2, -1])
    assert spec.size == 2
    assert spec.sup_rate == F(3, 2)
    assert PoissonSpec.of([1]).jumps == (F(1),)
    with pytest.raises(ValidationError):
        PoissonSpec.of([1], [0])
    with pytest.raises(ValidationError):
        PoissonSpec.of([-1])
    with pytest.raises(ValidationError):
        PoissonSpec.of([1, 1], [1])


def test_bernoulli_two_point_law():
    b = bernoulli(F(1, 4), 3, -2, 4)
    for n in range(1, 5):
        want = F(1, 4) * 3**n + F(3, 4) * (-2) ** n
        assert b.moment((1,) * n) == want
    sym = bernoulli(F(1, 2), 1, -1, 6)
    for n in range(1, 7):
        assert sym.moment((1,) * n) == (0 if n % 2 else 1)
    with pytest.raises(ValidationError):
        bernoulli(F(5, 4), 1, -1, 3)


def sandwich_brute_force(cov, base, order):
    # materialize s_i a_i s_i inside the free product of the semicircular
    # family and the base, then read its joint moments back off
    k = base.arity
    s = semicircle_family(cov, 3 * order, names=tuple("s%d" % i for i in range(k)))
    a = base.relabel(tuple("a%d" % i for i in range(k)))
    # pad the base to order 3n; the expanded words read below contain at
    # most ``order`` base letters, so padded entries never reach them
    pad = {
        w: (a.moment(w) if len(w) <= a.order else F(0))
        for w in iter_words_upto(k, 3 * order)
    }
    joint = free_product([s, MomentFunctional(a.alphabet, 3 * order, pad)])
    table = {}
    for w in iter_words_upto(k, order):
        expanded = []
        for c in w:
            expanded.extend((c, k + c, c))  # s_i a_i s_i
        table[w] = joint.moment(tuple(expanded))
    mf = MomentFunctional(tuple("b%d" % i for i in range(k)), order, table)
    return moments_to_cumulants(mf)


def test_sandwich_against_construction_small():
    # the closed cyclic-product formula versus the literal free-product
    # realization; the acceptance suite repeats this at order 4
    cov = [[F(1), F(1, 2)], [F(1, 2), F(2)]]
    base = semicircle_family([[F(2), F(1)], [F(1), F(1)]], 6, names=("a1", "a2"))
    got = sandwich_cumulants(cov, base, 2)
    want = sandwich_brute_force(cov, base, 2)
    for w in got.words():
        assert got.cumulant(w) == want.cumulant(w), w


def test_sandwich_single_letter_and_validation():
    base = free_poisson(1, 1, 4, name="a")
    cf = sandwich_cumulants([[F(3)]], base, 4)
    assert cf.cumulant((1,)) == 3 * base.moment((1,))
    assert cf.cumulant((1, 1)) == 9 * base.moment((1, 1))
    with pytest.raises(StructuralError):
        sandwich_cumulants([[F(1), F(0)], [F(0), F(1)]], base, 3)
    with pytest.raises(ValidationError):
        sandwich_cumulants([[F(1)]], base, 9)


def test_sandwich_is_compound_poisson_when_cov_is_flat():
    # rank-one all-ones covariance turns the sandwich into the compound
    # Poisson cumulants with rate 1
    base = semicircle_family([[F(1), F(1, 2)], [F(1, 2), F(1)]], 4)
    cov = [[F(1), F(1)], [F(1), F(1)]]
    got = sandwich_cumulants(cov, base, 4)
    want = compound_free_poisson_cumulants(F(1), base)
    assert got == want.relabel(got.alphabet)


@pytest.mark.parametrize("order", [33, 65, 10**8])
def test_orders_past_numpy_axis_limit_are_refused_before_any_word(order):
    # a level of length n is an array with n axes; numpy iterates at most 32
    assert MAX_ORDER == 32
    message = r"^order must be in 1\.\.32, got %d$" % order
    constructors = [
        lambda: semicircle(order=order),
        lambda: semicircle_family([[1, 0], [0, 1]], order),
        lambda: free_poisson(1, 1, order),
        lambda: projection_functional(F(1, 2), order),
        lambda: projection_family([1, 2], 4, order, "free"),
        lambda: bernoulli(F(1, 2), order=order),
        lambda: poisson_limit_check(1, 1, [10], order),
    ]
    for build in constructors:
        with pytest.raises(ValidationError, match=message):
            build()


def test_the_largest_order_still_builds():
    law = semicircle(order=MAX_ORDER)
    assert law.moment((1,) * 32) == 35357670  # the Catalan number C_16
    assert moments_to_cumulants(law).cumulant((1, 1)) == 1
