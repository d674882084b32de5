import itertools
import math
import random
from fractions import Fraction
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeprob.errors import StructuralError, ValidationError
from freeprob.freeness import free_product
from freeprob.functionals import (
    CumulantFunctional,
    MomentFunctional,
    cumulants_to_moments,
    moments_to_cumulants,
)
from freeprob.fock import DEFAULT_PIVOT_TOLERANCE, PolySpace
from freeprob.functionals import as_scalar, iter_words, iter_words_upto
from freeprob.infdiv import (
    GramMatrix,
    InfdivVerdict,
    PivotedDecomposition,
    check_infdiv,
    gram_matrix,
    is_psd,
    kappa_functional_checks,
    monomial_basis,
    psd_certificate,
)
from freeprob.limits import dilate, poisson_approximation
from freeprob.models import (
    bernoulli,
    compound_free_poisson,
    free_poisson,
    semicircle,
    semicircle_family,
)


def test_monomial_basis_order():
    assert monomial_basis(2, 2) == (
        (1,),
        (2,),
        (1, 1),
        (1, 2),
        (2, 1),
        (2, 2),
    )
    with pytest.raises(ValidationError):
        monomial_basis(2, 0)


def test_gram_entries_pair_words_with_reversal():
    fam = semicircle_family([[F(1), F(1, 2)], [F(1, 2), F(1)]], 4)
    cf = moments_to_cumulants(fam)
    g = gram_matrix(cf, degree=2)
    words = g.words
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            assert g.entries[i][j] == cf.cumulant(u + v[::-1])
    assert g.dimension == 6
    with pytest.raises(ValidationError):
        gram_matrix(cf, degree=3)  # needs order 6
    with pytest.raises(ValidationError):
        gram_matrix(cf, k=5, degree=1)

    # three letters, all words of a length valued differently (a word and
    # its reversal too), so a misplaced axis shows; cut on the first k
    # letters, from cumulants and from moments
    coded = CumulantFunctional.from_function(
        ("x", "y", "z"), 4, lambda w: F(sum(c * 4**i for i, c in enumerate(w)), len(w) + 1)
    )
    for table in (coded, cumulants_to_moments(coded)):
        for k in (1, 2, 3):
            g = gram_matrix(table, k=k, degree=2)
            assert g.alphabet == ("x", "y", "z")[:k]
            assert g.words == monomial_basis(k, 2)
            assert [len(row) for row in g.entries] == [g.dimension] * g.dimension
            for i, u in enumerate(g.words):
                for j, v in enumerate(g.words):
                    assert g.entries[i][j] == coded.cumulant(u + v[::-1])


def test_psd_certificate_known_matrices():
    assert psd_certificate([[F(0)]]).psd
    assert psd_certificate([[F(2)]]).psd
    assert not psd_certificate([[F(-1)]]).psd
    assert psd_certificate([[1, 1], [1, 1]]).rank == 1
    assert not psd_certificate([[1, 2], [2, 1]]).psd
    assert not psd_certificate([[0, 1], [1, 0]]).psd
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    cert = psd_certificate(ident)
    assert cert.psd and cert.rank == 3
    with pytest.raises(StructuralError):
        psd_certificate([[0, 1], [2, 0]])
    with pytest.raises(StructuralError):
        psd_certificate([[1, 2]])


def test_psd_certificate_witness_is_exact():
    rng = random.Random(5)
    for trial in range(20):
        d = rng.randint(2, 5)
        a = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(d)] for _ in range(d)]
        # A^T A is always psd; subtracting on the diagonal can break it
        g = [
            [sum(a[k][i] * a[k][j] for k in range(d)) for j in range(d)]
            for i in range(d)
        ]
        if trial % 2:
            g[d - 1][d - 1] -= F(rng.randint(1, 4))
        cert = psd_certificate(g)
        if cert.psd:
            continue
        value = F(0)
        for i, vi in enumerate(cert.witness):
            for j, vj in enumerate(cert.witness):
                value += vi * g[i][j] * vj
        assert value == cert.witness_value
        assert value < 0


def test_psd_certificate_tolerance():
    g = [[F(1), F(0)], [F(0), F(-1, 1000)]]
    assert not psd_certificate(g).psd
    assert psd_certificate(g, tolerance=F(1, 100)).psd
    strict = psd_certificate(g, tolerance=F(1, 10000))
    assert not strict.psd
    assert strict.witness_value < -F(1, 10000)


def test_psd_certificate_tries_the_pair_after_one_at_minus_tolerance():
    # budget: 10 ms.  At tolerance 1 the pair search meets a pair of value
    # exactly -1 (not below -tol) before the failing pair of value -33/20
    g = [[F(4, 5), F(6, 5), F(7, 5)], [F(6, 5), F(4, 5), F(0)], [F(7, 5), F(0), F(4, 5)]]
    cert = psd_certificate(g, 1)
    assert not cert.psd
    assert cert.witness == (F(-7, 4), F(0), F(1))
    assert cert.witness_value == F(-33, 20)
    value = sum(vi * g[i][j] * vj for i, vi in enumerate(cert.witness)
                for j, vj in enumerate(cert.witness))
    assert value == F(-33, 20)


def test_is_psd_accepts_gram_wrapper():
    cf = moments_to_cumulants(semicircle(2, 4))
    assert is_psd(gram_matrix(cf, degree=2))


def test_semicircle_passes():
    v = check_infdiv(semicircle(2, 8), degree=4)
    assert v.passed
    assert v.rank == 1  # only the linear monomial survives
    assert v.witness is None


def test_free_poisson_passes_with_rank_one_gram():
    v = check_infdiv(free_poisson(1, 1, 6), degree=3)
    assert v.passed
    assert v.rank == 1
    assert v.dimension == 3


def test_compound_free_poisson_passes():
    base = semicircle_family([[F(1), F(1, 2)], [F(1, 2), F(1)]], 4)
    law = compound_free_poisson(F(2), base)
    v = check_infdiv(law, degree=2)
    assert v.passed


def test_free_product_of_divisible_laws_passes():
    j = free_product(
        [free_poisson(1, 1, 4, name="x"), free_poisson(2, 1, 4, name="y")]
    )
    v = check_infdiv(j, degree=2)
    assert v.passed


def test_symmetric_bernoulli_fails_with_exact_witness():
    law = bernoulli(F(1, 2), 1, -1, 4)
    v = check_infdiv(law, degree=2)
    assert v.verdict == "FAIL"
    assert v.witness_value == -1
    assert v.witness == (("b b", F(1)),)
    # the witness really evaluates to its claimed form value
    cf = moments_to_cumulants(law)
    g = gram_matrix(cf, degree=2)
    coeffs = {w: c for w, c in v.witness}
    vec = []
    for u in g.words:
        name = " ".join(g.alphabet[c - 1] for c in u)
        vec.append(coeffs.get(name, F(0)))
    assert g.quadratic_form(vec) == -1


def test_biased_bernoulli_also_fails():
    v = check_infdiv(bernoulli(F(1, 3), 1, 0, 4), degree=2)
    assert v.verdict == "FAIL"
    assert v.witness_value < 0


def test_verdict_json_shape():
    v = check_infdiv(bernoulli(F(1, 2), 1, -1, 4), degree=2)
    d = v.to_json_dict()
    assert d["verdict"] == "FAIL"
    assert d["witness"]["form_value"] == "-1"
    v2 = check_infdiv(semicircle(2, 4), degree=2)
    assert v2.to_json_dict()["witness"] is None


def test_kappa_checks_on_tracial_law():
    cf = moments_to_cumulants(free_poisson(1, 1, 5))
    rep = kappa_functional_checks(cf)
    assert rep.passed and rep.moment_tracial


def test_kappa_checks_flag_nontracial_table():
    table = {
        (1,): F(0),
        (2,): F(0),
        (1, 1): F(1),
        (1, 2): F(1),
        (2, 1): F(0),
        (2, 2): F(1),
    }
    cf = moments_to_cumulants(MomentFunctional(("a", "b"), 2, table))
    rep = kappa_functional_checks(cf)
    assert not rep.passed
    assert not rep.moment_tracial
    assert rep.cyclic_violations


# -- the rational oracle ------------------------------------------------------
#
# The pivoted elimination on Fraction objects that psd_certificate ran
# before it became fraction-free, kept verbatim: the integer elimination
# must return the very same PivotedDecomposition.


def _as_symmetric_rows(rows):
    """The rows as Fractions, checked square and symmetric."""
    S = [[as_scalar(x) for x in row] for row in rows]
    assert all(len(row) == len(S) for row in S)
    assert S == [list(column) for column in zip(*S)]
    return S


def rational_psd_certificate(rows, tolerance=0):
    """Exact pivoted LDL-style elimination of a symmetric rational matrix.

    At every step the largest remaining diagonal entry is the pivot.  A
    remaining diagonal below -tolerance, or an off-diagonal coupling that
    admits a vector of negative form value, stops the elimination with an
    exact witness.  Tolerance is applied inside rational arithmetic; 0
    gives the crisp PSD decision.
    """
    S = _as_symmetric_rows(rows)
    n = len(S)
    tol = abs(as_scalar(tolerance))
    vecs = [
        [Fraction(1) if j == i else Fraction(0) for j in range(n)] for i in range(n)
    ]
    active = list(range(n))
    pivots = []
    basis = []

    def fail(vector, value):
        return PivotedDecomposition(
            psd=False,
            pivots=tuple(pivots),
            basis=tuple(basis),
            witness=tuple(vector),
            witness_value=value,
            dimension=n,
        )

    while active:
        p = max(active, key=lambda i: S[i][i])
        d = S[p][p]
        if d > tol:
            pivots.append((p, d))
            basis.append((p, tuple(vecs[p]), d))
            active.remove(p)
            vp = vecs[p]
            col = {i: S[i][p] for i in active}
            for i in active:
                ci = col[i]
                if ci:
                    c = ci / d
                    vecs[i] = [a - c * b for a, b in zip(vecs[i], vp)]
                    Si = S[i]
                    for j in active:
                        cj = col[j]
                        if cj:
                            Si[j] -= ci * cj / d
            continue
        # every remaining diagonal is <= tol
        neg = min(active, key=lambda i: S[i][i])
        if S[neg][neg] < -tol:
            return fail(vecs[neg], S[neg][neg])
        found = None
        for i, j in itertools.combinations(active, 2):
            b = S[i][j]
            if abs(b) <= tol:
                continue
            # diagonals are pinned near zero but the coupling b is not:
            # a suitable combination t*v_i + v_j goes negative.
            sii, sjj = S[i][i], S[j][j]
            if sii > 0 and sjj > 0:
                for a_, b_, saa, sbb in ((i, j, sii, sjj), (j, i, sjj, sii)):
                    t = -S[a_][b_] / saa
                    value = sbb - S[a_][b_] ** 2 / saa
                    if value < -tol:
                        vec = [
                            t * x + y for x, y in zip(vecs[a_], vecs[b_])
                        ]
                        found = (vec, value)
                        break
                if found:
                    break
                continue
            lead, other = (i, j) if sii <= 0 else (j, i)
            sll = S[lead][lead]
            soo = S[other][other]
            t = max(Fraction(1), (soo + 1 + tol) / (2 * abs(b)))
            if b > 0:
                t = -t
            value = t * t * sll + 2 * t * b + soo
            vec = [t * x + y for x, y in zip(vecs[lead], vecs[other])]
            found = (vec, value)
            break
        if found is not None:
            vec, value = found
            if value < -tol:
                return fail(vec, value)
        # remaining block is zero within tolerance: PSD
        break
    return PivotedDecomposition(
        psd=True,
        pivots=tuple(pivots),
        basis=tuple(basis),
        witness=None,
        witness_value=None,
        dimension=n,
    )


PRIMES = [p for p in range(2, 2000) if all(p % q for q in range(2, int(p**0.5) + 1))]
TOLERANCES = (F(0), F(1, 10**10), F(1, 3))


@st.composite
def symmetric_matrices(draw, max_n=7):
    """B B^T of random rank, the same with one perturbed entry, with zero
    rows and columns, or with pairwise-coprime prime denominators below
    2000 in B, so the lcm of the entries' denominators is large."""
    n = draw(st.integers(1, max_n))
    r = draw(st.integers(0, n))
    kind = draw(st.sampled_from(("rank", "perturbed", "zero rows", "coprime")))
    if kind == "coprime":
        primes = iter(draw(st.lists(
            st.sampled_from(PRIMES), min_size=n * r, max_size=n * r, unique=True
        )))
        b = [
            [F(draw(st.integers(-9, 9)), next(primes)) for _ in range(r)]
            for _ in range(n)
        ]
    else:
        b = [
            [F(draw(st.integers(-4, 4)), draw(st.integers(1, 6))) for _ in range(r)]
            for _ in range(n)
        ]
    g = [
        [sum((b[i][t] * b[j][t] for t in range(r)), F(0)) for j in range(n)]
        for i in range(n)
    ]
    if kind in ("perturbed", "coprime"):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        delta = F(draw(st.integers(-3, 3)), draw(st.integers(1, 4)))
        g[i][j] += delta
        if i != j:
            g[j][i] += delta
    if kind == "zero rows":
        for z in draw(st.sets(st.integers(0, n - 1))):
            for t in range(n):
                g[z][t] = g[t][z] = F(0)
    return g


def exact_rank(rows):
    m = [list(row) for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                c = m[r][col] / m[rank][col]
                m[r] = [x - c * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def determinant(rows):
    m = [list(row) for row in rows]
    det = F(1)
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if m[r][col]), None)
        if pivot is None:
            return F(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            c = m[r][col] / m[col][col]
            m[r] = [x - c * y for x, y in zip(m[r], m[col])]
    return det


def assert_checkable(g, tolerance, cert):
    """A tolerance-0 PASS diagonalizes G exactly over its basis and has
    G's rank; a FAIL's witness has its claimed form value, below -tol."""
    n = len(g)
    if not cert.psd:
        # quadratic_form reads only the entries and the dimension
        gram = GramMatrix((), 1, tuple(range(n)), tuple(map(tuple, g)))
        assert gram.quadratic_form(cert.witness) == cert.witness_value
        assert cert.witness_value < -tolerance
        return
    if tolerance:
        return
    u = [vector for _, vector, _ in cert.basis]
    ug = [[sum(x * g[i][j] for i, x in enumerate(row)) for j in range(n)] for row in u]
    product = [[sum(x * y for x, y in zip(a, b)) for b in u] for a in ug]
    pivots = [value for _, value in cert.pivots]
    assert product == [
        [pivots[a] if a == b else 0 for b in range(len(u))] for a in range(len(u))
    ]
    assert [value for _, _, value in cert.basis] == pivots
    assert cert.rank == exact_rank(g)


def assert_matches_oracle(g, tolerance):
    cert = psd_certificate(g, tolerance)
    oracle = rational_psd_certificate(g, tolerance)
    assert cert == oracle
    assert repr(cert) == repr(oracle)
    assert_checkable(g, tolerance, cert)


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices(), st.sampled_from(TOLERANCES))
def test_psd_certificate_matches_rational_oracle_property(g, tolerance):
    assert_matches_oracle(g, tolerance)


@settings(max_examples=150, deadline=None)
@given(symmetric_matrices(max_n=5))
def test_psd_verdict_matches_principal_minors_property(g):
    n = len(g)
    minors_nonnegative = all(
        determinant([[g[i][j] for j in subset] for i in subset]) >= 0
        for size in range(1, n + 1)
        for subset in itertools.combinations(range(n), size)
    )
    assert psd_certificate(g).psd == minors_nonnegative


def test_psd_certificate_matches_oracle_on_model_grams():
    family = semicircle_family([[F(1), F(1, 2)], [F(1, 2), F(1)]], 4)
    cases = [
        (semicircle(2, 8), 4),
        (free_poisson(1, 1, 6), 3),
        (compound_free_poisson(F(2), family), 2),
        (
            free_product(
                [free_poisson(1, 1, 4, name="x"), free_poisson(2, 1, 4, name="y")]
            ),
            2,
        ),
        (bernoulli(F(1, 2), 1, -1, 4), 2),
        (bernoulli(F(1, 3), 1, 0, 4), 2),
        (family, 2),
    ]
    for law, degree in cases:
        rows = gram_matrix(law, degree=degree).row_lists()
        for tolerance in (0, DEFAULT_PIVOT_TOLERANCE):
            assert_matches_oracle(rows, tolerance)


def test_asymmetric_matrix_names_its_first_pair():
    rng = random.Random(3)
    values = [0, 1, -2, F(1, 2), F(-3, 7), F(5, 6)]
    for _ in range(300):
        n = rng.randint(1, 6)
        S = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                S[i][j] = S[j][i] = rng.choice(values)
        for _ in range(rng.randint(0, 2)):
            S[rng.randrange(n)][rng.randrange(n)] = rng.choice(values)
        # equal values written differently are still symmetric
        rows = [[str(x) if rng.random() < 0.3 else x for x in row] for row in S]
        first = next(
            ((i, j) for i in range(n) for j in range(i + 1, n) if S[i][j] != S[j][i]),
            None,
        )
        if first is None:
            assert psd_certificate(rows) == rational_psd_certificate(rows)
        else:
            with pytest.raises(StructuralError, match=r"not symmetric at \(%d, %d\)$" % first):
                psd_certificate(rows)
    with pytest.raises(StructuralError, match="not square"):
        psd_certificate([[1, 2], [2]])


def asymmetric_law(order, word):
    """Moments constant on each length, so tracial and reversal-symmetric,
    except at ``word``, whose reversal keeps the constant."""
    table = {w: F(len(w), 2) for w in iter_words_upto(2, order)}
    table[word] = F(7)
    return MomentFunctional(("x", "y"), order, table)


def test_asymmetric_table_names_the_two_words():
    # entry (0, 1) of the degree-2 Gram reads kappa(x y), its mirror kappa(y x)
    message = r"^Gram matrix not symmetric: kappa\(x y\) != kappa\(y x\)$"
    with pytest.raises(StructuralError, match=message):
        check_infdiv(asymmetric_law(4, (1, 2)), degree=2)
    # first in row order: (x) against the reversal of (y x)
    message = r"^Gram matrix not symmetric: kappa\(x x y\) != kappa\(y x x\)$"
    law = asymmetric_law(5, (1, 1, 2))
    with pytest.raises(StructuralError, match=message):
        check_infdiv(law, degree=2)
    with pytest.raises(StructuralError, match=message):
        PolySpace(moments_to_cumulants(law), 2)


# -- the integer Gram path against Grams built one entry at a time -------------

COPRIME_BY_LENGTH = (2, 3, 5, 7, 11)


@st.composite
def coprime_tables(draw):
    """(k, order, table): k in 1..3, a reversal-symmetric table whose
    lengths have pairwise-coprime denominators, with zero entries and,
    with probability 1/4, an all-zero level."""
    k = draw(st.integers(1, 3))
    order = draw(st.integers(2, 4 if k == 3 else 5))
    primes = draw(st.permutations(COPRIME_BY_LENGTH))
    rng = random.Random(draw(st.integers(0, 2**32)))
    table = {}
    for n in range(1, order + 1):
        zero = rng.random() < 0.25
        for w in iter_words(k, n):
            value = 0 if zero else F(rng.randint(-3, 3), primes[n - 1])
            table[w] = table.get(w[::-1], value)
    return k, order, table


def per_entry_gram(value, words):
    return [[value(u + v[::-1]) for v in words] for u in words]


def verdict_from(cert, cf, k, degree, tolerance):
    names = [cf.word_name(w) for w in monomial_basis(k, degree)]
    witness = None
    if cert.witness is not None:
        witness = tuple((names[i], c) for i, c in enumerate(cert.witness) if c)
    return InfdivVerdict(
        verdict="PASS" if cert.psd else "FAIL",
        alphabet=cf.alphabet[:k],
        degree=degree,
        dimension=cert.dimension,
        rank=cert.rank,
        tolerance=abs(F(tolerance)),
        pivot_trace=tuple((names[i], v) for i, v in cert.pivots),
        witness=witness,
        witness_value=cert.witness_value,
    )


@settings(max_examples=60, deadline=None)
@given(coprime_tables(), st.booleans(), st.sampled_from((0, F(1, 10))))
def test_integer_gram_path_matches_per_entry_grams_property(drawn, moments, tolerance):
    k, order, table = drawn
    given_table = (MomentFunctional if moments else CumulantFunctional)(
        ("x", "y", "z")[:k], order, table
    )
    cf = moments_to_cumulants(given_table) if moments else given_table
    degree = order // 2
    for vars_ in range(1, k + 1):
        gram = per_entry_gram(cf.cumulant, monomial_basis(vars_, degree))
        want = verdict_from(psd_certificate(gram, tolerance), cf, vars_, degree, tolerance)
        assert check_infdiv(given_table, vars_, degree, tolerance) == want
    d_H = (order - 1) // 2
    if d_H:
        gram = per_entry_gram(cf.cumulant, monomial_basis(k, d_H))
        cert = psd_certificate(gram, DEFAULT_PIVOT_TOLERANCE)
        if cert.psd:
            ps = PolySpace(cf, d_H)
            assert ps.pivot_values == tuple(v for _, v in cert.pivots)
            basis = [
                np.array(vector, dtype=float) * (1.0 / math.sqrt(float(v)))
                for _, vector, v in cert.basis
            ]
            assert np.array_equal(ps.basis, np.array(basis).reshape(ps.basis.shape))
        else:
            with pytest.raises(ValidationError, match="not positive semidefinite"):
                PolySpace(cf, d_H)
    # the base moment Grams with phi(empty word) = 1
    schedule = (1, 3)
    words = ((),) + tuple(iter_words_upto(k, order // 2))
    flags = tuple(
        psd_certificate(per_entry_gram(base.moment, words)).psd
        for base in (cumulants_to_moments(dilate(cf, F(1, j))) for j in schedule)
    )
    assert poisson_approximation(cf, schedule).base_gram_psd == flags
