from fractions import Fraction as F
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeprob.errors import StructuralError, ValidationError
from freeprob.functionals import (
    CumulantFunctional,
    MomentFunctional,
    cumulants_to_moments,
    iter_words_upto,
    moments_to_cumulants,
)
from freeprob.limits import (
    _build_report,
    _check_schedule,
    array_cumulants,
    compound_limit_check,
    dilate,
    free_sum_moments,
    multi_poisson_limit_check,
    poisson_approximation,
    poisson_limit_check,
    sequence_limit_check,
)
from freeprob.models import (
    PROJECTION_MODELS,
    PoissonSpec,
    free_poisson,
    projection_family,
    projection_functional,
    semicircle,
    semicircle_family,
)


def test_dilate_scales_cumulants():
    cf = moments_to_cumulants(free_poisson(1, 1, 4))
    half = dilate(cf, F(1, 2))
    for w in cf.words():
        assert half.cumulant(w) == cf.cumulant(w) / 2
    # semigroup property
    assert dilate(half, 2) == cf
    with pytest.raises(ValidationError):
        dilate(cf, 0)
    with pytest.raises(StructuralError):
        dilate(free_poisson(1, 1, 3), 2)


def test_array_cumulants_against_free_sum_brute_force():
    # N free copies summed, the long way and the short way
    row = projection_functional(F(1, 4), 4).scale_letters([F(3, 2)])
    for n in (1, 2, 3):
        shortcut = cumulants_to_moments(array_cumulants(row, n))
        brute = free_sum_moments(row, n)
        assert shortcut == brute


def test_array_cumulants_two_variable_row():
    row = semicircle_family([[F(1), F(1, 2)], [F(1, 2), F(1)]], 3)
    assert cumulants_to_moments(array_cumulants(row, 2)) == free_sum_moments(row, 2)


def test_poisson_limit_exact_errors():
    report = poisson_limit_check(1, 1, [10, 100, 1000], 3)
    r1 = report.row((1,))
    assert r1.errors == (0, 0, 0)
    r2 = report.row((1, 1))
    # kappa_2 of the finite sum misses the limit by exactly lambda^2/N
    assert r2.errors == (F(1, 10), F(1, 100), F(1, 1000))
    assert abs(r2.decay_exponent - 1.0) < 1e-9
    r3 = report.row((1, 1, 1))
    assert r3.errors[0] / r3.errors[1] > 8
    assert report.max_error() == report.row((1, 1, 1)).errors[-1]


def test_poisson_limit_schedule_validation():
    with pytest.raises(ValidationError):
        poisson_limit_check(F(5), 1, [4, 10], 2)  # N below ceil(rate)
    with pytest.raises(ValidationError):
        poisson_limit_check(1, 1, [], 2)


def test_multi_poisson_orthogonal_targets():
    spec = PoissonSpec.of([1, 2], [1, "1/2"])
    report = multi_poisson_limit_check(spec, "orthogonal", [10, 100], 3)
    assert report.row((1, 2)).target == 0
    assert report.row((2, 1, 2)).target == 0
    assert report.row((1, 1, 1)).target == 1
    assert report.row((2, 2)).target == 2 * F(1, 4)
    assert report.max_error(-1) < report.max_error(0)


def test_multi_poisson_equal_targets():
    spec = PoissonSpec.of([2, 2], [1, "1/2"])
    report = multi_poisson_limit_check(spec, "equal", [10, 100], 3)
    # rate times the product of the jumps along the word
    assert report.row((1, 2)).target == 2 * F(1, 2)
    assert report.row((1, 2, 2)).target == 2 * F(1, 4)
    assert report.row((1, 1)).target == 2


def test_multi_poisson_free_coupling_matches_free_product_of_limits():
    spec = PoissonSpec.of([1, 2])
    report = multi_poisson_limit_check(spec, "free", [10, 100], 3)
    for w in [(1, 2), (2, 1, 1), (1, 2, 1)]:
        assert report.row(w).target == 0
    assert report.row((2, 2, 2)).target == 2


def test_compound_limit_rows_factor_and_converge():
    base = semicircle_family([[F(1), F(1, 2)], [F(1, 2), F(1)]], 4)
    spec = PoissonSpec.of([1, 1])
    report = compound_limit_check(base, spec, "equal", [10, 100], 4)
    for row in report.rows:
        assert row.target == base.moment(row.word)
        assert row.errors[-1] <= row.errors[0]
    with pytest.raises(ValidationError):
        compound_limit_check(base, PoissonSpec.of([1, 1], [2, 1]), "equal", [10], 3)
    with pytest.raises(StructuralError):
        compound_limit_check(base, PoissonSpec.of([1]), "equal", [10], 3)


def test_sequence_limit_check():
    target = moments_to_cumulants(semicircle(2, 4))
    tables = [
        ("j=%d" % j, dilate(target, F(j, j + 1))) for j in (1, 2, 4)
    ]
    report = sequence_limit_check(tables, target)
    row = report.row((1, 1))
    assert row.errors == (F(1, 2), F(1, 3), F(1, 5))
    with pytest.raises(ValidationError):
        sequence_limit_check([], target)


def test_poisson_approximation_semicircle():
    target = moments_to_cumulants(semicircle(2, 6))
    approx = poisson_approximation(target, [1, 2, 4], order=6)
    # length-one words are matched exactly at every j
    assert approx.report.row((1,)).errors == (0, 0, 0)
    assert approx.report.row((1, 1)).errors == (0, 0, 0)
    # kappa_4 error is exactly 2/j, kappa_6 exactly 5/j^2
    assert approx.report.row((1, 1, 1, 1)).errors == (2, 1, F(1, 2))
    assert approx.report.row((1,) * 6).errors == (5, F(5, 4), F(5, 16))
    assert approx.base_gram_psd == (True, True, True)


def test_poisson_approximation_free_poisson_target():
    target = moments_to_cumulants(free_poisson(1, 1, 4))
    approx = poisson_approximation(target, [1, 10], order=4)
    assert approx.report.row((1,)).errors == (0, 0)
    # kappa_2 approximant is 1 + 1/j
    assert approx.report.row((1, 1)).errors == (1, F(1, 10))
    for tab, j in zip(approx.approximants, (1, 10)):
        assert tab.cumulant((1,)) == target.cumulant((1,))
    # at order 1 the base Gram is the 1 x 1 Gram of the empty word
    first = poisson_approximation(target, [1, 10], order=1)
    assert first.report.row((1,)).errors == (0, 0)
    assert first.base_gram_psd == (True, True)


def test_poisson_base_gram_includes_the_empty_word():
    # kappa(x) = 1, kappa(x x) = -1: at j = 1 the base has moments 1 and 0,
    # so its moment Gram [[1, 1], [1, 0]] is not PSD, while the Gram
    # without the empty word, [[0]], is
    target = CumulantFunctional(("x",), 2, {(1,): 1, (1, 1): -1})
    approx = poisson_approximation(target, [1, 2, 4])
    assert approx.base_gram_psd == (False, False, False)


def test_poisson_approximation_flags_nonpositive_base():
    # dilating a two-point law out of positivity must be flagged, not refused
    from freeprob.models import bernoulli

    target = moments_to_cumulants(bernoulli(F(1, 2), 1, -1, 4))
    approx = poisson_approximation(target, [1, 4], order=4)
    assert approx.base_gram_psd[0] is True
    assert approx.base_gram_psd[1] is False
    with pytest.raises(ValidationError):
        poisson_approximation(target, [])
    with pytest.raises(ValidationError):
        poisson_approximation(target, [1], order=9)


def test_poisson_approximation_names_an_asymmetric_base_by_its_words():
    # every moment equal to its length except phi(x y) = 7: the base at j = 1
    # is the target's law, whose moment Gram pairs the empty word with x y
    table = {w: F(len(w)) for w in iter_words_upto(2, 4)}
    table[(1, 2)] = F(7)
    target = moments_to_cumulants(MomentFunctional(("x", "y"), 4, table))
    message = r"^Gram matrix not symmetric: phi\(y x\) != phi\(x y\)$"
    with pytest.raises(StructuralError, match=message):
        poisson_approximation(target, [1, 2])


# -- the projection route the compound route replaced, kept as its oracle


def projection_route_report(kind, spec, model, schedule, order, names):
    """Rows of projections scaled by the jumps, against the jump-weighted
    closed-form limits."""
    sched = _check_schedule(schedule, spec, model)
    tables = []
    for n in sched:
        row = projection_family(spec.rates, n, order, model, names=names)
        tables.append(array_cumulants(row.scale_letters(spec.jumps), n, order))

    def target(w):
        if model == "equal":
            out = spec.rates[0]
            for c in w:
                out *= spec.jumps[c - 1]
            return out
        if all(c == w[0] for c in w):
            return spec.rates[w[0] - 1] * spec.jumps[w[0] - 1] ** len(w)
        return F(0)

    return _build_report(
        kind, sched, order, spec.size, tables, target, tables[0].word_name
    )


rationals = st.builds(F, st.integers(1, 7), st.integers(1, 4))
signed = st.builds(lambda q, neg: -q if neg else q, rationals, st.booleans())


@st.composite
def poisson_cases(draw, max_k=3):
    k = draw(st.integers(1, max_k))
    model = draw(st.sampled_from(PROJECTION_MODELS))
    if model == "equal":
        rates = [draw(rationals)] * k
    else:
        rates = draw(st.lists(rationals, min_size=k, max_size=k))
    jumps = draw(st.lists(signed, min_size=k, max_size=k))
    spec = PoissonSpec.of(rates, jumps)
    lower = ceil(sum(rates)) if model == "orthogonal" else ceil(max(rates))
    offsets = draw(st.lists(st.integers(0, 200), min_size=1, max_size=3, unique=True))
    schedule = sorted(lower + d for d in offsets)
    return spec, model, schedule, draw(st.integers(1, 5))


@settings(max_examples=40, deadline=None)
@given(poisson_cases(max_k=1))
def test_poisson_limit_check_matches_the_projection_route(case):
    spec, _, schedule, order = case
    report = poisson_limit_check(spec.rates[0], spec.jumps[0], schedule, order)
    oracle = projection_route_report(
        "poisson", spec, "equal", schedule, order, ("x",)
    )
    # rows compare word, word name, values, target, errors, decay exponent
    assert report == oracle


@settings(max_examples=100, deadline=None)
@given(poisson_cases())
def test_multi_poisson_limit_check_matches_the_projection_route(case):
    spec, model, schedule, order = case
    report = multi_poisson_limit_check(spec, model, schedule, order)
    oracle = projection_route_report(
        "multi_poisson[%s]" % model, spec, model, schedule, order, None
    )
    # rows compare word, word name, values, target, errors, decay exponent
    assert report == oracle


@settings(max_examples=40, deadline=None)
@given(rationals, signed, st.integers(1, 8))
def test_free_poisson_is_the_direct_cumulant_table(rate, jump, order):
    table = {(1,) * n: rate * jump**n for n in range(1, order + 1)}
    direct = cumulants_to_moments(CumulantFunctional(("y",), order, table))
    assert free_poisson(rate, jump, order, name="y") == direct
