import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeprob.errors import CapacityError, DomainError, StructuralError, ValidationError
from freeprob.fock import (
    MAX_DENSE_BYTES,
    TOL_FREENESS,
    TOL_MOMENTS,
    TOL_STATIONARITY,
    FockModel,
    FockOperator,
    LevyAxiomSection,
    LevyReport,
    PolySpace,
    TimeComponent,
    build_fock_model,
    build_poly_space,
    levy_n_max,
    verify_levy_axioms,
)
from freeprob.freeness import free_product
from freeprob.functionals import (
    CumulantFunctional,
    MomentFunctional,
    cumulants_to_moments,
    moments_to_cumulants,
)
from freeprob.infdiv import gram_matrix
from freeprob.models import (
    compound_free_poisson_cumulants,
    free_poisson,
    semicircle,
    semicircle_family,
)


def sc_cf(order):
    return moments_to_cumulants(semicircle(2, order))


def fp_cf(order):
    return moments_to_cumulants(free_poisson(1, 1, order))


def pair_cf(order):
    fam = semicircle_family([[F(1), F(1, 2)], [F(1, 2), F(1)]], order)
    return moments_to_cumulants(fam)


def test_poly_space_semicircle_is_a_line():
    ps = PolySpace(sc_cf(5), 2)
    assert ps.dim == 1
    assert ps.kernel_dim == 1
    assert ps.monomials == ((1,), (1, 1))
    assert ps.pivot_values == (F(1),)
    x = ps.project_word((1,))
    assert x.shape == (1,)
    assert abs(x[0] - 1.0) < 1e-12
    # the quadratic monomial is in the kernel of the form
    assert abs(ps.project_word((1, 1))[0]) < 1e-12
    assert abs(ps.var_tables[0][0, 0]) < 1e-12  # kappa_3 = 0
    assert ps.first_cumulants == (0.0,)
    with pytest.raises(ValidationError):
        ps.project_word((1, 1, 1))


def test_poly_space_free_poisson_gauge_entry():
    ps = PolySpace(fp_cf(5), 2)
    assert ps.dim == 1
    # compressed left multiplication by X on the unit vector X itself
    # picks up kappa_3 = 1
    assert abs(ps.var_tables[0][0, 0] - 1.0) < 1e-12
    assert ps.first_cumulants == (1.0,)


def test_poly_space_orthonormal_basis():
    ps = PolySpace(pair_cf(5), 2)
    assert ps.dim == 2
    assert ps.kernel_dim == 4
    gram = gram_matrix(ps.cf, ps.arity, ps.d_H)
    gram_f = np.array([[float(x) for x in row] for row in gram.entries])
    eye = ps.basis @ gram_f @ ps.basis.T
    assert np.abs(eye - np.eye(2)).max() < 1e-12


def test_poly_space_input_validation():
    with pytest.raises(StructuralError):
        PolySpace(semicircle(2, 5), 2)  # moments, not cumulants
    with pytest.raises(ValidationError):
        PolySpace(sc_cf(5), 0)
    with pytest.raises(ValidationError):
        PolySpace(sc_cf(4), 2)  # needs cumulants to order 5


def test_poly_space_refuses_indefinite_form_with_witness():
    bad = CumulantFunctional(
        ("x",), 3, {(1,): F(0), (1, 1): F(-1), (1, 1, 1): F(0)}
    )
    with pytest.raises(ValidationError, match="witness"):
        PolySpace(bad, 1)


def test_time_component_basics():
    tc = TimeComponent((0, F(1, 2), 2))
    assert tc.breakpoints == (F(0), F(1, 2), F(2))
    assert tc.lengths == (F(1, 2), F(3, 2))
    assert tc.n_elem == 2
    ind = tc.indicator_coeffs(0, 2)
    assert abs(ind[0] - math.sqrt(0.5)) < 1e-15
    assert abs(ind[1] - math.sqrt(1.5)) < 1e-15
    assert abs(ind @ ind - 2.0) < 1e-12  # norm^2 is the length
    assert tc.indicator_coeffs(F(1, 2), F(1, 2)) @ ind == 0.0
    assert list(tc.multiplier_diag(0, F(1, 2))) == [1.0, 0.0]
    assert list(tc.multiplier_diag(F(1, 2), 2)) == [0.0, 1.0]

    merged = TimeComponent.from_endpoints((1, 0, 1, F(1, 2)))
    assert merged.breakpoints == (F(0), F(1, 2), F(1))


def test_time_component_validation():
    with pytest.raises(ValidationError):
        TimeComponent((0,))
    with pytest.raises(ValidationError):
        TimeComponent((-1, 1))
    with pytest.raises(ValidationError):
        TimeComponent((0, 1, 1))
    tc = TimeComponent((0, 1))
    with pytest.raises(ValidationError):
        tc.indicator_coeffs(0, F(1, 2))  # unregistered endpoint
    with pytest.raises(ValidationError):
        tc.indicator_coeffs(1, 0)


def test_fock_model_shapes_and_summary():
    poly = PolySpace(pair_cf(5), 2)
    model = FockModel(poly, TimeComponent((0, 1, 2)), 2)
    assert model.hat_dim == 4
    assert model.level_dims == (1, 4, 16)
    assert model.level_offsets == (0, 1, 5)
    assert model.dim == 21
    words = list(model.basis_words())
    assert words[0] == ()
    assert len(words) == 21
    info = model.summary()
    assert info["k"] == 2
    assert info["d_H"] == 2
    assert info["n_max"] == 2
    assert info["dim_H"] == 4
    assert info["dim_poly"] == 2
    assert info["dim_fock"] == 21
    assert info["breakpoints"] == ["0", "1", "2"]


def test_fock_model_capacity_and_structure():
    poly = PolySpace(pair_cf(5), 2)
    with pytest.raises(CapacityError, match="335923"):
        # D = 6: 1 + 6 + ... + 6**7 = 335,923 > MAX_FOCK_DIM, refused
        # from the dimensions alone, before anything is allocated
        FockModel(poly, TimeComponent((0, 1, 2, 3)), 7)
    with pytest.raises(StructuralError):
        FockModel("poly", TimeComponent((0, 1)), 1)
    with pytest.raises(StructuralError):
        FockModel(poly, (0, 1), 1)
    with pytest.raises(ValidationError):
        FockModel(poly, TimeComponent((0, 1)), 0)


def test_creation_annihilation_adjoint_pair():
    model = build_fock_model(sc_cf(5), 2, 2)
    x = model.hat_vector(1, 0, 1)
    cre = model.creation(x)
    ann = model.annihilation(x)
    assert np.array_equal(ann.matrix, cre.matrix.T)
    assert np.array_equal(cre.adjoint().matrix, ann.matrix)

    rng = np.random.default_rng(7)
    v = rng.normal(size=model.dim)
    w = rng.normal(size=model.dim)
    assert abs((cre.apply(v) @ w) - (v @ ann.apply(w))) < 1e-10

    assert np.all(ann.apply(model.vacuum()) == 0.0)
    top = np.zeros(model.dim)
    top[-1] = 1.0  # already at n_max particles
    assert np.all(cre.apply(top) == 0.0)


def test_gauge_operator_forms():
    poly = PolySpace(pair_cf(5), 2)
    model = FockModel(poly, TimeComponent((0, 1, 2)), 2)
    t_part = np.diag([1.0, 0.0])
    direct = model.gauge(np.kron(t_part, poly.var_tables[0]))
    paired = model.gauge((t_part, poly.var_tables[0]))
    assert np.array_equal(direct.matrix, paired.matrix)
    assert np.all(direct.apply(model.vacuum()) == 0.0)
    with pytest.raises(StructuralError):
        model.gauge(np.eye(3))
    with pytest.raises(ValidationError):
        model.hat_vector(3, 0, 1)


def test_levy_increment_shape():
    model = build_fock_model(fp_cf(5), 2, 2)
    a = model.levy_increment(1, 0, 1)
    assert a.selfadjoint_defect() == 0.0
    assert model.vacuum_moment([a]) == 1.0  # first cumulant times length
    assert model.vacuum_moment([]) == 1.0
    zero = model.levy_increment(1, 1, 1)
    assert np.all(zero.matrix == 0.0)
    with pytest.raises(ValidationError):
        model.levy_increment(2, 0, 1)


def test_semicircle_chain_moments():
    # one interval, one-dimensional poly space: the increment is the
    # free shift plus its adjoint, so moments are the Catalan numbers
    model = build_fock_model(sc_cf(9), 4, 4)
    assert model.dim == 5
    a = model.levy_increment(1, 0, 1)
    table = model.moment_table([a], ("s",), 4)
    assert table.moment((1,)) == 0
    assert table.moment((1, 1)) == 1
    assert table.moment((1, 1, 1)) == 0
    assert table.moment((1, 1, 1, 1)) == 2
    assert model.vacuum_moment([a, a, a, a]) == 2.0


def test_free_poisson_moments_to_order_four():
    model = build_fock_model(fp_cf(9), 4, 4)
    a = model.levy_increment(1, 0, 1)
    table = model.moment_table([a], ("x",), 4)
    want = {1: F(1), 2: F(2), 3: F(5), 4: F(14)}
    for n, value in want.items():
        assert table.moment((1,) * n) == value


def test_moment_table_matches_vacuum_moment():
    model = build_fock_model(pair_cf(7), 3, 3)
    ops = [model.levy_increment(i, 0, 1) for i in (1, 2)]
    table = model.moment_table(ops, ("u", "v"), 3)
    for w in table.words():
        direct = model.vacuum_moment([ops[c - 1] for c in w])
        assert table.moment(w) == F(direct)
    with pytest.raises(StructuralError):
        model.moment_table(ops, ("u",), 2)


def test_levy_axioms_semicircle():
    model = build_fock_model(sc_cf(5), 2, 2)
    rep = verify_levy_axioms(model, 2)
    assert rep.passed
    assert [s.name for s in rep.sections] == [
        "marginal moments",
        "stationarity",
        "free increments",
        "semigroup in t",
    ]
    assert rep.section("stationarity").max_error <= 1e-12
    with pytest.raises(KeyError):
        rep.section("nonsense")
    assert "[PASS]" in rep.to_text()
    payload = rep.to_json_dict()
    assert payload["passed"] is True
    assert len(payload["sections"]) == 4
    assert payload["summary"]["dim_fock"] == model.dim


def test_levy_axioms_free_poisson_order_three():
    model = build_fock_model(fp_cf(7), 3, 3)
    rep = verify_levy_axioms(model, 3)
    assert rep.passed
    assert rep.section("marginal moments").max_error <= 1e-9


def test_levy_axioms_correlated_pair():
    model = build_fock_model(pair_cf(5), 2, 2)
    rep = verify_levy_axioms(model, 2)
    assert rep.passed


def test_levy_axioms_validation():
    model = build_fock_model(sc_cf(5), 2, 2)
    with pytest.raises(ValidationError):
        verify_levy_axioms(model, 3)  # beyond d_H
    deep = build_fock_model(sc_cf(5), 2, 3)
    with pytest.raises(ValidationError):
        verify_levy_axioms(deep, 3)  # n_max fine, d_H too small
    with pytest.raises(StructuralError):
        verify_levy_axioms("model", 2)


def test_build_helpers():
    ps = build_poly_space(sc_cf(5), 2)
    assert isinstance(ps, PolySpace)
    model = build_fock_model(sc_cf(5), 2, 2, endpoints=(1, 0, F(1, 2), 1))
    assert model.time.breakpoints == (F(0), F(1, 2), F(1))


# -- the dense construction, kept as the oracle for the matrix-free operators


def dense_creation(model, x):
    M = np.zeros((model.dim, model.dim))
    D = model.hat_dim
    for m in range(model.n_max):
        r0 = model.level_offsets[m + 1]
        c0 = model.level_offsets[m]
        block = np.kron(x.reshape(D, 1), np.eye(D**m))
        M[r0 : r0 + D ** (m + 1), c0 : c0 + D**m] = block
    return M


def dense_gauge(model, T):
    M = np.zeros((model.dim, model.dim))
    D = model.hat_dim
    for m in range(1, model.n_max + 1):
        o = model.level_offsets[m]
        M[o : o + D**m, o : o + D**m] = np.kron(T, np.eye(D ** (m - 1)))
    return M


def dense_levy_increment(model, var, s, t):
    x = model.hat_vector(var, s, t)
    drift = float(F(t) - F(s)) * model.poly.first_cumulants[var - 1]
    cre = dense_creation(model, x)
    T = np.kron(
        np.diag(model.time.multiplier_diag(s, t)),
        model.poly.var_tables[var - 1],
    )
    return drift * np.eye(model.dim) + cre + cre.T + dense_gauge(model, T)


def mixed_model(n_max, n_elem):
    """A semicircle free from a free Poisson law (drift and gauge both
    nonzero), over n_elem elementary time intervals."""
    mf = free_product([semicircle(2, 3), free_poisson(1, 1, 3)], 3)
    poly = PolySpace(moments_to_cumulants(mf), 1)
    breakpoints = [F(j, 2) for j in range(n_elem + 1)]
    return FockModel(poly, TimeComponent(breakpoints), n_max)


def model_operators(model):
    """Every operator builder's output, paired with its dense oracle."""
    rng = np.random.default_rng(model.dim)
    D = model.hat_dim
    x = rng.normal(size=D)
    t_part = rng.normal(size=(model.time.n_elem,) * 2)
    p_part = rng.normal(size=(model.poly.dim,) * 2)  # not symmetric
    T = np.kron(t_part, p_part)
    end = model.time.breakpoints[-1]
    inc = model.levy_increment(2, 0, end)
    yield model.creation(x), dense_creation(model, x)
    yield model.annihilation(x), dense_creation(model, x).T
    yield model.gauge(T), dense_gauge(model, T)
    yield model.gauge((t_part, p_part)), dense_gauge(model, T)
    yield inc, dense_levy_increment(model, 2, 0, end)
    half = F(1, 2)
    yield model.levy_increment(1, half, end), dense_levy_increment(model, 1, half, end)
    yield inc.adjoint(), dense_levy_increment(model, 2, 0, end).T
    yield model.gauge(T).adjoint(), dense_gauge(model, T).T


SHAPES = [(n_max, n_elem) for n_max in (1, 2, 3, 4) for n_elem in (1, 2, 3)]


@pytest.mark.parametrize("n_max, n_elem", SHAPES)
def test_matrix_free_operators_match_the_dense_oracle(n_max, n_elem):
    model = mixed_model(n_max, n_elem)
    rng = np.random.default_rng(n_max * 10 + n_elem)
    v = rng.normal(size=model.dim)
    for op, dense in model_operators(model):
        assert np.array_equal(op.matrix, dense), op.label
        assert np.abs(op.apply(v) - dense @ v).max() <= 1e-12, op.label
        defect = float(np.abs(dense - dense.T).max())
        assert op.selfadjoint_defect() == defect, op.label
    symmetric = model.gauge(np.kron(np.eye(n_elem), np.ones((2, 2))))
    assert symmetric.selfadjoint_defect() == 0.0


@pytest.mark.parametrize("n_max, n_elem", [(2, 2), (3, 3), (4, 1)])
def test_moment_table_matches_matrix_products(n_max, n_elem):
    model = mixed_model(n_max, n_elem)
    end = model.time.breakpoints[-1]
    ops = [model.levy_increment(1, 0, end), model.levy_increment(2, F(1, 2), end)]
    mats = [op.matrix for op in ops]
    table = model.moment_table(ops, ("u", "v"), n_max)
    for w in table.words():
        v = model.vacuum()
        for c in reversed(w):
            v = mats[c - 1] @ v
        assert abs(float(table.moment(w)) - v[0]) <= 1e-12
        assert abs(model.vacuum_moment([ops[c - 1] for c in w]) - v[0]) <= 1e-12


def test_apply_refuses_a_vector_of_the_wrong_length():
    model = mixed_model(2, 1)
    with pytest.raises(StructuralError):
        model.levy_increment(1, 0, F(1, 2)).apply(np.zeros(model.dim + 1))


def test_large_model_moments_without_dense_matrices():
    # D = 6 elements x 2 poly dims = 12, dimension 22,621: a dense matrix
    # would take 4.1 GB, so only .matrix may refuse the model
    poly = PolySpace(pair_cf(9), 4)
    model = FockModel(poly, TimeComponent(range(7)), 4)
    assert model.hat_dim == 12 and model.dim == 22621
    assert model.dim**2 * 8 > MAX_DENSE_BYTES
    ops = [model.levy_increment(i, 2, 5) for i in (1, 2)]
    table = model.moment_table(ops, ("u", "v"), 4)
    cf = poly.cf.truncate(4)
    dilated = CumulantFunctional(
        cf.alphabet, 4, {w: 3 * cf.cumulant(w) for w in cf.words()}
    )
    want = cumulants_to_moments(dilated)
    for w in want.words():
        assert abs(float(table.moment(w) - want.moment(w))) <= 1e-9

    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="22621"):
            ops[0].matrix
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


# -- light cone: moment tables against full-length states


def full_state_moments(model, ops, order):
    """Vacuum moments of every word up to ``order``, each operator applied
    to full-length state vectors, suffix states shared."""
    states = {(): model.vacuum()}
    out = {}
    for n in range(1, order + 1):
        for w in itertools.product(range(1, len(ops) + 1), repeat=n):
            states[w] = ops[w[0] - 1].apply(states[w[1:]])
            out[w] = states[w][0]
    return out


def generic_operator(model, seed):
    """Distinct random creation and annihilation vectors, a non-symmetric
    gauge and a drift: every term of a step is exercised."""
    rng = np.random.default_rng(seed)
    D = model.hat_dim
    x, y, T = rng.normal(size=D), rng.normal(size=D), rng.normal(size=(D, D))
    return FockOperator(model.levels, float(rng.normal()), x, y, T, "generic")


def level_loop_apply(op, v):
    """The full-length level loop: drift v, then per level pair the
    annihilation into the lower level and creation + gauge into the
    upper one."""
    x, y, T = op.creation, op.annihilation, op.gauge
    out = op.drift * v
    for below, here in zip(op.levels, op.levels[1:]):
        block = v[here].reshape(len(x), -1)
        out[below] += y @ block
        out[here] += (x[:, None] * v[below] + T @ block).ravel()
    return out


@pytest.mark.parametrize("n_max, n_elem", [(1, 3), (2, 2), (3, 3), (4, 1)])
def test_apply_matches_the_level_loop_bit_for_bit(n_max, n_elem):
    model = mixed_model(n_max, n_elem)
    v = np.random.default_rng(n_max + n_elem).normal(size=model.dim)
    ops = [op for op, _ in model_operators(model)]
    ops.append(generic_operator(model, n_max))
    for op in ops:
        assert np.array_equal(op.apply(v), level_loop_apply(op, v)), op.label


# (n_max, n_elem, order): order below, at and above n_max, up to 2 n_max + 1
LIGHT_CONE = [
    (1, 2, 1),
    (1, 3, 3),
    (2, 1, 1),
    (2, 3, 2),
    (2, 2, 5),
    (3, 2, 2),
    (3, 1, 3),
    (3, 3, 7),
    (4, 1, 4),
    (4, 2, 6),
]


@pytest.mark.parametrize("n_max, n_elem, order", LIGHT_CONE)
def test_light_cone_moment_table_is_bit_identical(n_max, n_elem, order):
    model = mixed_model(n_max, n_elem)
    end = model.time.breakpoints[-1]
    generic = generic_operator(model, 10 * n_max + order)
    ops = [generic, model.levy_increment(1, F(1, 2), end), generic.adjoint()]
    want = full_state_moments(model, ops, order)
    table = model.moment_table(ops, ("g", "a", "h"), order)
    assert dict(table.items()) == {w: F(v) for w, v in want.items()}
    for w in itertools.islice(table.words(), 0, None, 7):
        assert model.vacuum_moment([ops[c - 1] for c in w]) == want[w], w


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(LIGHT_CONE), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_stacked_apply_matches_the_per_vector_step_property(case, rows, seed):
    # every (prefix, top) pair that a word of length r <= order meets on
    # its light cone, prefix min(j - 1, r - j + 1, n_max) levels before
    # step j and top min(j, r - j, n_max) after it
    n_max, n_elem, order = case
    model = mixed_model(n_max, n_elem)
    generic = generic_operator(model, seed)
    rng = np.random.default_rng(seed)
    cone = {
        (min(j - 1, r - j + 1, n_max), min(j, r - j, n_max))
        for r in range(1, order + 1)
        for j in range(1, r + 1)
    }
    for op in (generic, generic.adjoint()):
        for have, top in sorted(cone):
            v = rng.normal(size=(rows, model.levels[have].stop))
            got = op._apply(v, top)
            assert got.shape == (rows, model.levels[top].stop)
            for row, prefix in zip(got, v):
                assert np.array_equal(row, per_vector_apply(op, prefix, top))


def test_moment_table_names_a_nan_in_the_middle_of_a_level():
    # b's annihilation vector holds a NaN, which only a word b w with w
    # nonempty reads: level 1 is finite, and level 2 reads a a, a b, a c,
    # then b a, the first bad word, with more words after it
    model = mixed_model(2, 2)
    a = generic_operator(model, 1)
    y = a.annihilation.copy()
    y[1] = np.nan
    b = FockOperator(model.levels, a.drift, a.creation, y, a.gauge, "b")
    ops = [a, b, a.adjoint()]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^vacuum moment of b a is nan$"):
            model.moment_table(ops, ("a", "b", "c"), 2)
        assert model.moment_table(ops, ("a", "b", "c"), 1).moment((2,)) == F(a.drift)
        assert math.isnan(model.vacuum_moment([b, a]))


def test_moment_table_refuses_operators_of_another_model():
    small, big = mixed_model(2, 1), mixed_model(3, 1)
    op = big.levy_increment(1, 0, F(1, 2))
    with pytest.raises(StructuralError):
        small.moment_table([op], ("a",), 2)
    with pytest.raises(StructuralError):
        small.vacuum_moment([op.matrix])
    own = small.levy_increment(1, 0, F(1, 2)).matrix  # a dense matrix of the right size
    with pytest.raises(StructuralError):
        small.moment_table([own], ("a",), 2)


# -- PolySpace float tables against the per-entry construction


def oracle_poly_tables(ps):
    """gram_f, then var_embeddings, var_tables and first_cumulants, one
    float(kappa(...)) per entry."""
    kappa = ps.cf.cumulant
    n_mono = len(ps.monomials)
    gram = gram_matrix(ps.cf, ps.arity, ps.d_H)
    gram_f = np.array([[float(x) for x in row] for row in gram.entries])
    embeddings, tables = [], []
    for i in range(1, ps.arity + 1):
        row = gram_f[ps.monomials.index((i,))]
        embeddings.append(ps.basis @ row)
        lifted = np.zeros((n_mono, n_mono))
        for a, w in enumerate(ps.monomials):
            for b, v in enumerate(ps.monomials):
                lifted[a, b] = float(kappa((i,) + v + w[::-1]))
        tables.append(ps.basis @ lifted @ ps.basis.T)
    firsts = tuple(float(kappa((i,))) for i in range(1, ps.arity + 1))
    return gram_f, embeddings, tables, firsts


def matrix_state(mats, den, order, tracial=True):
    """phi(w) = (1/d) tr(X_w1 ... X_wn), or the vector state
    <X_w1 ... X_wn e_1, e_1> when not ``tracial``, with X_i = mats[i] / den
    for integer symmetric d x d matrices; products shared along prefixes."""
    d = len(mats[0])
    mats = [np.array(m, dtype=object) for m in mats]
    prods = {(): np.eye(d, dtype=int).astype(object)}
    table = {}
    for n in range(1, order + 1):
        for w in itertools.product(range(1, len(mats) + 1), repeat=n):
            prods[w] = prods[w[:-1]].dot(mats[w[-1] - 1])
            if tracial:
                table[w] = F(int(np.trace(prods[w])), d * den**n)
            else:
                table[w] = F(int(prods[w][0, 0]), den**n)
    return MomentFunctional(tuple("xyz"[: len(mats)]), order, table)


MATS_2X2 = ([[1, 2], [2, -1]], [[0, 1], [1, 3]], [[-2, 1], [1, 1]])


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("d_H", [1, 2, 3, 4])
def test_poly_space_tables_match_the_per_entry_oracle(k, d_H):
    # the vector state is not tracial, so kappa(i v reverse(w)) and
    # kappa(i w reverse(v)) differ there
    laws = [
        compound_free_poisson_cumulants(
            F(3, 2), matrix_state(MATS_2X2[:k], 2, 2 * d_H + 1, tracial)
        )
        for tracial in (True, False)
    ]
    if k == 1:
        laws += [sc_cf(2 * d_H + 1), fp_cf(2 * d_H + 1)]
    if k == 2:
        laws.append(pair_cf(2 * d_H + 1))
    for cf in laws:
        ps = PolySpace(cf, d_H)
        gram_f, embeddings, tables, firsts = oracle_poly_tables(ps)
        assert all(np.array_equal(a, b) for a, b in zip(ps.var_tables, tables))
        assert all(np.array_equal(a, b) for a, b in zip(ps.var_embeddings, embeddings))
        assert len(ps.var_tables) == len(ps.var_embeddings) == k
        assert ps.first_cumulants == firsts
        assert all(type(c) is float for c in ps.first_cumulants)
        for i, w in enumerate(ps.monomials):
            assert np.array_equal(ps.project_word(w), ps.basis @ gram_f[i])


def test_levy_axioms_at_order_four_over_a_3x3_state():
    # k = 3 compound free Poisson law, rate 2, over a 3 x 3 tracial state:
    # the user's model has dimension 7,381, while section models at
    # n_max = order would need 551,881 > the 60,000 cap
    mats = (
        [[-1, 2, -1], [2, 3, 2], [-1, 2, 3]],
        [[2, 2, 1], [2, -3, 3], [1, 3, 0]],
        [[3, -2, 2], [-2, -3, -2], [2, -2, -3]],
    )
    cf = compound_free_poisson_cumulants(2, matrix_state(mats, 3, 9))
    poly = PolySpace(cf, 4)
    model = FockModel(poly, TimeComponent((0, 1)), 4)
    assert poly.dim == 9 and model.dim == 7381
    rep = assert_same_report(model, 4)
    assert rep.passed, rep.to_text()
    assert rep.summary == model.summary()


def test_levy_check_reads_no_n_max_of_the_model():
    # k = 2 compound free Poisson law, rate 3, over the tracial state of two
    # 4 x 4 matrices: poly dimension 16, so a model at n_max = order = 4
    # would need 69,905 > the 60,000 cap, and the check refused any model
    # with n_max < order although its section models stop at levy_n_max
    mats = (
        [[1, 2, 0, -1], [2, -1, 1, 0], [0, 1, 2, 1], [-1, 0, 1, -2]],
        [[0, 1, -1, 2], [1, 3, 0, 1], [-1, 0, -2, 1], [2, 1, 1, 0]],
    )
    poly = PolySpace(compound_free_poisson_cumulants(3, matrix_state(mats, 2, 9)), 4)
    assert poly.dim == 16
    with pytest.raises(CapacityError):
        FockModel(poly, TimeComponent((0, 1)), 4)
    assert [levy_n_max(order) for order in (1, 2, 3, 4, 5)] == [1, 1, 1, 2, 2]
    reports = []
    for n_max in (1, levy_n_max(4)):
        model = FockModel(poly, TimeComponent((0, 1)), n_max)
        rep = verify_levy_axioms(model, 4)
        assert rep.passed, rep.to_text()
        assert rep.summary == model.summary()
        reports.append(rep)
    assert reports[0].sections == reports[1].sections


# -- the per-word Levy check, kept as the oracle for the level-native one


def kron_levy_increment(model, var, s, t):
    """The increment with its one-particle data built by np.kron."""
    s_, t_ = F(s), F(t)
    x = np.kron(model.time.indicator_coeffs(s_, t_), model.poly.var_embeddings[var - 1])
    T = np.kron(
        np.diag(model.time.multiplier_diag(s_, t_)),
        model.poly.var_tables[var - 1],
    )
    drift = float(t_ - s_) * model.poly.first_cumulants[var - 1]
    return FockOperator(model.levels, drift, x, x, T, "a[%d](%s,%s)" % (var, s_, t_))


def per_vector_apply(op, v, top):
    """The light-cone step on one level prefix v: levels 0..top of op
    applied to v, an absent level counting as zero, each level's terms in
    the order drift, creation + gauge, annihilation."""
    levels = op.levels
    x, y, T = op.creation, op.annihilation, op.gauge
    have = len(v)
    out = np.zeros(levels[top].stop)
    n = min(have, len(out))
    out[:n] = op.drift * v[:n]
    for below, here in zip(levels[:top], levels[1 : top + 1]):
        if here.stop > have:  # v ends below this level: creation only
            out[here] = (x[:, None] * v[below]).ravel()
            break
        block = v[here].reshape(len(x), -1)
        out[below] += y @ block
        out[here] += (x[:, None] * v[below] + T @ block).ravel()
    if have > len(out):  # v holds level top + 1
        out[levels[top]] += y @ v[levels[top + 1]].reshape(len(x), -1)
    return out


def per_word_moment_table(model, ops, names, order):
    """Vacuum moments as a word -> Fraction(float) dict through the public
    constructor, suffix states shared, one step per word."""
    states = {(): np.ones(1)}
    table = {}
    for n in range(1, order + 1):
        top = min(n, order - n, model.n_max)
        for w in itertools.product(range(1, len(ops) + 1), repeat=n):
            states[w] = per_vector_apply(ops[w[0] - 1], states[w[1:]], top)
            table[w] = F(float(states[w][0]))
    return MomentFunctional(tuple(names), order, table)


def per_word_section(name, errors, tolerance):
    worst = sorted(errors, key=lambda pair: -pair[1])[:3]
    max_err = worst[0][1] if worst else 0.0
    return LevyAxiomSection(
        name=name,
        max_error=max_err,
        tolerance=tolerance,
        passed=max_err <= tolerance,
        detail=tuple(worst),
    )


def per_word_levy_report(model, order):
    """verify_levy_axioms with one Fraction subtraction and one name per
    word, np.kron increments and dict-built moment tables."""
    poly = model.poly
    k = poly.arity
    n_sect = levy_n_max(order)
    target_cf = poly.cf.truncate(order)
    target_mf = cumulants_to_moments(target_cf)
    sections = []

    def increment_moments(breakpoints, intervals, names=target_mf.alphabet):
        m = FockModel(poly, TimeComponent(breakpoints), n_sect)
        ops = [kron_levy_increment(m, i, s, t) for s, t in intervals for i in range(1, k + 1)]
        return per_word_moment_table(m, ops, names, order)

    unit = increment_moments((0, 1), [(0, 1)])
    errors = [
        (target_mf.word_name(w), abs(float(unit.moment(w) - target_mf.moment(w))))
        for w in unit.words()
    ]
    sections.append(per_word_section("marginal moments", errors, TOL_MOMENTS))

    t01 = increment_moments((0, 1, 2, 3), [(0, 1)])
    t23 = increment_moments((0, 1, 2, 3), [(2, 3)])
    errors = [
        (t01.word_name(w), abs(float(t01.moment(w) - t23.moment(w))))
        for w in t01.words()
    ]
    sections.append(per_word_section("stationarity", errors, TOL_STATIONARITY))

    names = ["a%d.early" % i for i in range(1, k + 1)]
    names += ["a%d.late" % i for i in range(1, k + 1)]
    joint = increment_moments((0, 1, 2), [(0, 1), (1, 2)], names)
    joint_cf = moments_to_cumulants(joint)
    errors = []
    for w in joint_cf.words():
        early = any(c <= k for c in w)
        late = any(c > k for c in w)
        if early and late:
            errors.append(
                (joint_cf.word_name(w), abs(float(joint_cf.cumulant(w))))
            )
    sections.append(per_word_section("free increments", errors, TOL_FREENESS))

    errors = []
    m_unit = FockModel(poly, TimeComponent((0, 1)), n_sect)
    for i in range(1, k + 1):
        zero = kron_levy_increment(m_unit, i, 0, 0)
        data = (zero.drift, zero.creation, zero.annihilation, zero.gauge)
        errors.append(("a[%d](0,0)" % i, float(max(np.abs(a).max() for a in data))))
    for t in (F(1), F(1, 2), F(1, 4), F(1, 8)):
        tab = unit if t == 1 else increment_moments((0, t), [(0, t)])
        cf_t = moments_to_cumulants(tab)
        for w in cf_t.words():
            want = t * target_cf.cumulant(w)
            errors.append(
                (
                    "t=%s %s" % (t, cf_t.word_name(w)),
                    abs(float(cf_t.cumulant(w) - want)),
                )
            )
    sections.append(per_word_section("semigroup in t", errors, TOL_MOMENTS))

    return LevyReport(order=order, summary=model.summary(), sections=tuple(sections))


def assert_same_report(model, order):
    got, want = verify_levy_axioms(model, order), per_word_levy_report(model, order)
    assert got.to_json_dict() == want.to_json_dict()
    assert got.to_text() == want.to_text()
    return got


@st.composite
def levy_laws(draw):
    """(cumulants to order 2 order + 1, order): compound free Poisson over a
    random 2 x 2 or 3 x 3 tracial state, a semicircle family or a free
    Poisson law."""
    order = draw(st.integers(2, 4))
    shape = draw(st.sampled_from(["matrix", "semicircle", "poisson"]))
    if shape == "matrix":
        k, d = draw(st.integers(2, 3)), draw(st.integers(2, 3))
        if k * d == 9:
            order = min(order, 3)  # the 3 x 3, k = 3 law at order 4 is its own test
        entry = st.integers(-3, 3)
        mats = []
        for _ in range(k):
            m = [[0] * d for _ in range(d)]
            for i in range(d):
                for j in range(i, d):
                    m[i][j] = m[j][i] = draw(entry)
            m[0][0] = m[0][0] or 1  # no zero matrix, so the one-particle space is not zero
            mats.append(m)
        rate = F(draw(st.integers(1, 5)), draw(st.integers(1, 3)))
        base = matrix_state(mats, draw(st.integers(1, 3)), 2 * order + 1)
        return compound_free_poisson_cumulants(rate, base), order
    if shape == "semicircle":
        a, b = (F(draw(st.integers(1, 9)), draw(st.integers(1, 4))) for _ in "ab")
        c = F(draw(st.integers(-3, 3)), 4) * min(a, b)
        return moments_to_cumulants(semicircle_family([[a, c], [c, b]], 2 * order + 1)), order
    rate, jump = (F(draw(st.integers(1, 9)), draw(st.integers(1, 4))) for _ in "rj")
    return moments_to_cumulants(free_poisson(rate, jump, 2 * order + 1)), order


@settings(max_examples=40, deadline=None)
@given(levy_laws())
def test_levy_report_matches_the_per_word_oracle_property(law):
    cf, order = law
    poly = PolySpace(cf, order)
    assert_same_report(FockModel(poly, TimeComponent((0, 1)), levy_n_max(order)), order)


def test_levy_report_ties_go_to_the_earlier_word():
    # at order 1 every error is exactly 0, the drift being float(t) times a
    # dyadic kappa_1: each section's worst three are its first three cases
    kappa = {(1,): F(1, 2), (2,): F(-1, 4), (1, 1): F(1), (2, 2): F(1)}
    exact = CumulantFunctional.from_function(("u", "v"), 3, lambda w: kappa.get(w, 0))
    rep = assert_same_report(FockModel(PolySpace(exact, 1), TimeComponent((0, 1)), 1), 1)
    assert all(s.max_error == 0.0 for s in rep.sections)
    assert rep.section("marginal moments").detail == (("u", 0.0), ("v", 0.0))
    assert rep.section("stationarity").detail == (("u", 0.0), ("v", 0.0))
    assert rep.section("free increments").detail == ()  # no mixed word of length 1
    cases = [case for case, _ in rep.section("semigroup in t").detail]
    assert cases == ["a[1](0,0)", "a[2](0,0)", "t=1 u"]

    # two free standard semicircles at order 3: the first three sections
    # are exactly 0 on every word, mixed words included
    indep = moments_to_cumulants(semicircle_family([[F(1), F(0)], [F(0), F(1)]], 7))
    rep = assert_same_report(FockModel(PolySpace(indep, 3), TimeComponent((0, 1)), 1), 3)
    words = ["s1", "s2", "s1 s1"]
    for name in ("marginal moments", "stationarity"):
        assert rep.section(name).detail == tuple((w, 0.0) for w in words)
    mixed = ["a1.early a1.late", "a1.early a2.late", "a2.early a1.late"]
    assert rep.section("free increments").detail == tuple((w, 0.0) for w in mixed)


@pytest.mark.parametrize("n_max, n_elem", [(1, 3), (2, 2), (3, 1)])
def test_moment_table_levels_match_the_public_constructor(n_max, n_elem):
    model = mixed_model(n_max, n_elem)
    end = model.time.breakpoints[-1]
    generic = generic_operator(model, n_max)
    ops = [generic, model.levy_increment(1, F(1, 2), end), model.levy_increment(2, 0, end)]
    order = 2 * n_max + 1
    table = model.moment_table(ops, ("g", "a", "b"), order)
    want = per_word_moment_table(model, ops, ("g", "a", "b"), order)
    assert table == want
    assert table._dens == want._dens
    assert dict(table.items()) == dict(want.items())


def test_increments_match_the_kron_construction_bit_for_bit():
    model = mixed_model(2, 3)
    half, end = F(1, 2), model.time.breakpoints[-1]
    for var in (1, 2):
        for s, t in [(0, end), (half, end), (0, half), (half, half), (half, 1)]:
            got, want = model.levy_increment(var, s, t), kron_levy_increment(model, var, s, t)
            assert np.array_equal(got.creation, want.creation)
            assert np.array_equal(got.gauge, want.gauge)
            assert got.drift == want.drift and got.label == want.label
            assert np.array_equal(model.hat_vector(var, s, t), want.creation)


# -- laws outside the float range


def huge_law(order=5):
    """kappa_n = 10**(100 n) in one variable: the Gram pivot of x x is
    10**400, beyond the largest float."""
    return CumulantFunctional(("x",), order, {(1,) * n: 10 ** (100 * n) for n in range(1, order + 1)})


def test_laws_outside_the_float_range_raise_domain_error():
    with pytest.raises(DomainError, match="Gram pivot at x x"):
        PolySpace(huge_law(), 2)
    # kappa_3 = 10**400 is no pivot but is read by the multiplication table
    cube = CumulantFunctional(("x",), 3, {(1,): 0, (1, 1): 1, (1, 1, 1): 10**400})
    with pytest.raises(DomainError, match="level 3"):
        PolySpace(cube, 1)
    # variance 10**200 is a float, its fourth moment 2 * 10**400 is not
    wide = CumulantFunctional(("x",), 9, {(1,) * n: int(n == 2) * 10**200 for n in range(1, 10)})
    model = build_fock_model(wide, 4, 2)
    a = model.levy_increment(1, 0, 1)
    with np.errstate(over="ignore"):
        table = model.moment_table([a], ("s",), 3)
        assert table.moment((1, 1)) == F(float(10**200))
        with pytest.raises(DomainError, match="vacuum moment of s s s s is inf"):
            model.moment_table([a], ("s",), 4)
