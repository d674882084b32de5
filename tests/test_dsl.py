import random
from fractions import Fraction as F

import pytest

from freeprob.dsl import (
    Arg,
    DslEvalError,
    DslSyntaxError,
    FreeStmt,
    KappaQuery,
    LetStmt,
    LimitQuery,
    NamedQuery,
    PhiQuery,
    Program,
    RatVal,
    RefVal,
    Session,
    Term,
    TupVal,
    evaluate,
    parse,
    pretty,
    run_source,
    tokenize,
)
from freeprob.errors import ValidationError


# -- tokens -----------------------------------------------------------------


def test_tokenize_kinds_and_positions():
    toks = tokenize("let s = semicircle(2)")
    kinds = [t.kind for t in toks]
    assert kinds == [
        "IDENT",
        "IDENT",
        "EQUALS",
        "IDENT",
        "LPAREN",
        "INT",
        "RPAREN",
        "SEP",
        "EOF",
    ]
    assert toks[0].text == "let" and toks[0].col == 1
    assert toks[1].text == "s" and toks[1].col == 5
    assert toks[3].text == "semicircle" and toks[3].col == 9


def test_tokenize_comments_and_separators():
    toks = tokenize("phi(s) # a comment\nkappa(s)")
    texts = [t.text for t in toks if t.kind == "IDENT"]
    assert texts == ["phi", "s", "kappa", "s"]


def test_tokenize_rejects_stray_characters():
    with pytest.raises(DslSyntaxError) as info:
        tokenize("phi(s) $")
    assert info.value.line == 1
    assert info.value.col == 8


# -- parsing ----------------------------------------------------------------


def test_parse_let_statement():
    prog = parse("let x = free_poisson(lambda=1, alpha=1/2)")
    assert prog == Program(
        (
            LetStmt(
                names=("x",),
                ctor="free_poisson",
                args=(
                    Arg(name="lambda", value=RatVal(F(1))),
                    Arg(name="alpha", value=RatVal(F(1, 2))),
                ),
            ),
        )
    )


def test_parse_tuple_and_reference_values():
    prog = parse("let u, v = semicircle_family(cov=((1, 1/2), (1/2, 1)))")
    stmt = prog.statements[0]
    assert stmt.names == ("u", "v")
    (cov,) = stmt.args
    assert cov.name == "cov"
    assert cov.value == TupVal(
        (
            TupVal((RatVal(F(1)), RatVal(F(1, 2)))),
            TupVal((RatVal(F(1, 2)), RatVal(F(1)))),
        )
    )
    prog = parse("let y = compound_free_poisson(lambda=2, base=s)")
    assert prog.statements[0].args[1].value == RefVal("s")


def test_parse_phi_distributes_products():
    prog = parse("phi((s + x)*(s - x))")
    assert prog.statements[0] == PhiQuery(
        terms=(
            Term(F(1), ("s", "s")),
            Term(F(-1), ("s", "x")),
            Term(F(1), ("x", "s")),
            Term(F(-1), ("x", "x")),
        )
    )


def test_parse_phi_folds_scalars():
    prog = parse("phi(2*s*x + 1/2*x - s + 3)")
    assert prog.statements[0] == PhiQuery(
        terms=(
            Term(F(2), ("s", "x")),
            Term(F(1, 2), ("x",)),
            Term(F(-1), ("s",)),
            Term(F(3), ()),
        )
    )


def test_parse_phi_signs_and_juxtaposition():
    assert parse("phi(-s x)").statements[0] == PhiQuery(
        terms=(Term(F(-1), ("s", "x")),)
    )
    assert parse("phi(-2 s)").statements[0] == PhiQuery(
        terms=(Term(F(-2), ("s",)),)
    )
    # rational factors may appear anywhere in the product
    assert parse("phi(s * 3 * x)").statements[0] == PhiQuery(
        terms=(Term(F(3), ("s", "x")),)
    )


def test_parse_queries():
    prog = parse(
        "free(s, x); kappa(s, x, s)\n"
        "moments(s, order=4)\n"
        "infdiv(x, degree=2)\n"
        "levy_check(s, order=2)\n"
        "limit(poisson, lambda=1, schedule=(10, 100), order=4)"
    )
    s = prog.statements
    assert s[0] == FreeStmt(names=("s", "x"))
    assert s[1] == KappaQuery(word=("s", "x", "s"))
    assert s[2] == NamedQuery(
        kind="moments", names=("s",), args=(Arg("order", RatVal(F(4))),)
    )
    assert s[3].kind == "infdiv"
    assert s[4].kind == "levy_check"
    assert s[5] == LimitQuery(
        kind="poisson",
        args=(
            Arg("lambda", RatVal(F(1))),
            Arg("schedule", TupVal((RatVal(F(10)), RatVal(F(100))))),
            Arg("order", RatVal(F(4))),
        ),
    )


def test_parse_error_positions():
    with pytest.raises(DslSyntaxError) as info:
        parse("phi(s +)")
    err = info.value
    assert (err.line, err.col) == (1, 8)
    assert "a rational" in err.expected
    assert err.found == "')'"

    with pytest.raises(DslSyntaxError) as info:
        parse("let x")
    assert info.value.expected == ("'='",)
    assert info.value.found == "'end of line'"

    with pytest.raises(DslSyntaxError) as info:
        parse("phi(s")
    assert info.value.expected == ("')'",)

    with pytest.raises(DslSyntaxError) as info:
        parse("bogus(1)")
    assert "'let'" in info.value.expected

    with pytest.raises(DslSyntaxError) as info:
        parse("kappa(s) kappa(x)")  # missing separator
    assert info.value.expected == ("end of statement",)

    with pytest.raises(DslSyntaxError):
        parse("phi(1/0*s)")


# -- printing ---------------------------------------------------------------


def test_pretty_canonical_text():
    src = "let s=semicircle( 2 );phi( 2*s*s - s + 1/2 )"
    prog = parse(src)
    assert pretty(prog) == "let s = semicircle(2)\nphi(2*s*s - s + 1/2)"
    assert parse(pretty(prog)) == prog


CORPUS = [
    "let s = semicircle(2)",
    "let x = free_poisson(lambda=1, alpha=1)",
    "let u, v = semicircle_family(cov=((1, 1/2), (1/2, 1)))",
    "let p = projection(t=1/3)",
    "let b = bernoulli(1/2, 1, -1)",
    "free(s, x)\nphi(s*x*s*x)",
    "phi(-s + 2*x - 1/3)",
    "kappa(x, x, x, x)",
    "moments(u, v, order=4)",
    "infdiv(b, degree=2)",
    "levy_check(s, order=2)",
    "limit(poisson, lambda=1, alpha=1, schedule=(10, 100, 1000), order=6)",
]


@pytest.mark.parametrize("src", CORPUS)
def test_pretty_parse_fixpoint_on_corpus(src):
    prog = parse(src)
    assert parse(pretty(prog)) == prog
    # printing is idempotent
    assert pretty(parse(pretty(prog))) == pretty(prog)


NAMES = ("s", "x", "y", "w", "p2", "q_r")
RATS = (F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 4), F(7, 3), F(5))


def _rand_value(rng, depth=0):
    roll = rng.random()
    if depth < 2 and roll < 0.25:
        return TupVal(
            tuple(_rand_value(rng, depth + 1) for _ in range(rng.randint(1, 3)))
        )
    if roll < 0.55:
        return RefVal(rng.choice(NAMES))
    return RatVal(rng.choice(RATS))


def _rand_term(rng):
    word = tuple(rng.choice(NAMES) for _ in range(rng.randint(0, 3)))
    return Term(rng.choice(RATS), word)


def _rand_statement(rng):
    roll = rng.randint(0, 5)
    if roll == 0:
        args = tuple(
            Arg(
                rng.choice(("lambda", "alpha", None)),
                _rand_value(rng),
            )
            for _ in range(rng.randint(0, 2))
        )
        # positional arguments must precede named ones to survive a
        # round trip through keyword-free printing, so sort them first
        args = tuple(sorted(args, key=lambda a: a.name is not None))
        return LetStmt(
            names=tuple(rng.sample(NAMES, rng.randint(1, 2))),
            ctor=rng.choice(("semicircle", "free_poisson", "mystery")),
            args=args,
        )
    if roll == 1:
        return FreeStmt(names=tuple(rng.sample(NAMES, rng.randint(1, 3))))
    if roll == 2:
        return PhiQuery(
            terms=tuple(_rand_term(rng) for _ in range(rng.randint(1, 3)))
        )
    if roll == 3:
        return KappaQuery(
            word=tuple(rng.choice(NAMES) for _ in range(rng.randint(1, 4)))
        )
    if roll == 4:
        return NamedQuery(
            kind=rng.choice(("moments", "infdiv", "levy_check")),
            names=tuple(rng.sample(NAMES, rng.randint(1, 2))),
            args=tuple(
                Arg(rng.choice(("order", "degree")), RatVal(rng.choice(RATS)))
                for _ in range(rng.randint(0, 1))
            ),
        )
    return LimitQuery(
        kind="poisson",
        args=tuple(
            Arg(rng.choice(("lambda", "schedule")), _rand_value(rng))
            for _ in range(rng.randint(0, 2))
        ),
    )


def test_pretty_parse_fixpoint_random_programs():
    rng = random.Random(20240817)
    for _ in range(100):
        prog = Program(
            tuple(_rand_statement(rng) for _ in range(rng.randint(1, 5)))
        )
        text = pretty(prog)
        assert parse(text) == prog, text


# -- evaluation -------------------------------------------------------------


def test_session_order_cap(monkeypatch):
    monkeypatch.delenv("FREEPROB_ORDER_CAP", raising=False)
    assert Session().order == 6
    monkeypatch.setenv("FREEPROB_ORDER_CAP", "4")
    assert Session().order == 4
    monkeypatch.setenv("FREEPROB_ORDER_CAP", "abc")
    with pytest.raises(ValidationError, match="FREEPROB_ORDER_CAP"):
        Session()
    with pytest.raises(ValidationError):
        Session(order=0)
    with pytest.raises(ValidationError):
        Session(order=13)


def test_semicircle_moments():
    results = run_source(
        "let s = semicircle()\nphi(s*s)\nphi(s*s*s*s)", Session(order=4)
    )
    assert results[0].kind == "let"
    assert results[1].value == 1
    assert results[2].value == 2


def test_free_poisson_cumulants_and_moments():
    results = run_source(
        "let x = free_poisson(lambda=1, alpha=1)\n"
        "kappa(x, x, x)\n"
        "phi(x*x*x*x)",
        Session(order=4),
    )
    assert results[1].value == 1
    assert results[2].value == 14


def test_polynomial_queries_take_linear_combinations():
    results = run_source(
        "let s = semicircle()\nphi(2*s*s - s + 1/2)", Session(order=4)
    )
    assert results[1].value == F(5, 2)


def test_mixed_words_need_a_free_declaration():
    session = Session(order=4)
    run_source("let s = semicircle()\nlet x = free_poisson()", session)
    with pytest.raises(DslEvalError, match="joint law"):
        run_source("phi(s*x)", session)
    run_source("free(s, x)", session)
    results = run_source(
        "phi(s*x*s*x)\nphi(s*s*x*x)\nkappa(s, x)", session
    )
    assert results[0].value == 1  # phi(s^2) phi(x)^2 with phi(s) = 0
    assert results[1].value == 2
    assert results[2].value == 0


def test_free_merge_is_transitive():
    session = Session(order=2)
    run_source(
        "let s = semicircle()\nlet x = free_poisson()\nlet p = projection(t=1/2)\n"
        "free(s, x)\nfree(x, p)",
        session,
    )
    # all three now share one group, so any mixed word is legal
    results = run_source("phi(s*p)", session)
    assert results[0].value == 0


def test_binding_errors():
    session = Session(order=3)
    run_source("let s = semicircle()", session)
    with pytest.raises(DslEvalError, match="already bound"):
        run_source("let s = semicircle()", session)
    with pytest.raises(DslEvalError, match="unbound"):
        run_source("phi(z)", session)
    with pytest.raises(DslEvalError, match="unknown constructor"):
        run_source("let q = mystery()", session)
    with pytest.raises(DslEvalError, match="binds 1"):
        run_source("let a, b = semicircle()", session)
    with pytest.raises(DslEvalError, match="unknown argument"):
        run_source("let t = semicircle(foo=1)", session)
    with pytest.raises(DslEvalError, match="duplicate argument"):
        run_source("let r = semicircle(2, radius=3)", session)
    with pytest.raises(DslEvalError, match="already share"):
        run_source("free(s)", session)
    with pytest.raises(DslEvalError, match="repeated name"):
        run_source("free(s, s)", session)
    for source, message in BAD_CONSTRUCTOR_VALUES:
        with pytest.raises(DslEvalError, match=r"^let .*: " + message):
            run_source(source, session)
        assert source.split()[1] not in session.bindings


# One-variable constructors with values their model rejects: the error
# must come at the let, before any query builds the table.
BAD_CONSTRUCTOR_VALUES = (
    ("let p = projection(2)", "trace must lie in"),
    ("let x = free_poisson(lambda=-1)", "rate must be positive"),
    ("let s2 = semicircle(0)", "radius must be positive"),
    ("let b = bernoulli(t=2)", "trace must lie in"),
)


def test_word_length_capped_by_session_order():
    session = Session(order=2)
    run_source("let s = semicircle()", session)
    with pytest.raises(DslEvalError, match="session order"):
        run_source("phi(s*s*s)", session)
    with pytest.raises(DslEvalError, match="session order"):
        run_source("kappa(s, s, s)", session)


def test_moments_query_returns_restricted_table():
    session = Session(order=2)
    run_source(
        "let u, v = semicircle_family(cov=((1, 1/2), (1/2, 1)))", session
    )
    (res,) = run_source("moments(u, v, order=2)", session)
    mf = res.value
    assert mf.alphabet == ("u", "v")
    assert mf.order == 2
    assert mf.moment((1, 2)) == F(1, 2)
    assert "phi(u v) = 1/2" in res.text
    (single,) = run_source("moments(u)", session)
    assert single.value.alphabet == ("u",)


def test_infdiv_query_verdicts():
    session = Session(order=4)
    run_source(
        "let s = semicircle()\nlet b = bernoulli(1/2, 1, -1)", session
    )
    (ok,) = run_source("infdiv(s, degree=2)", session)
    assert ok.value.verdict == "PASS"
    (bad,) = run_source("infdiv(b, degree=2)", session)
    assert bad.value.verdict == "FAIL"
    assert "FAIL" in bad.text


def test_levy_check_query():
    session = Session(order=4)
    run_source("let s = semicircle()", session)
    (res,) = run_source("levy_check(s, order=2)", session)
    assert res.value.passed
    assert res.value.summary["n_max"] == 1  # the one level order 2 reads
    assert "PASS" in res.text
    with pytest.raises(DslEvalError, match="1..4"):
        run_source("levy_check(s, order=5)", session)


def test_limit_query():
    session = Session(order=3)
    (res,) = run_source(
        "limit(poisson, lambda=1, alpha=1, schedule=(10, 100), order=3)",
        session,
    )
    rep = res.value
    assert rep.schedule == (10, 100)
    assert rep.max_error() < rep.max_error(0)  # errors shrink with N
    with pytest.raises(DslEvalError, match="not available"):
        run_source("limit(multi)", session)


def test_compound_constructor_reads_base_from_session():
    session = Session(order=4)
    results = run_source(
        "let s = semicircle()\n"
        "let y = compound_free_poisson(lambda=1, base=s)\n"
        "kappa(y, y)\n"
        "kappa(y, y, y, y)",
        session,
    )
    assert results[2].value == 1  # second moment of the semicircle
    assert results[3].value == 2  # fourth moment


def test_projection_and_bernoulli_defaults():
    results = run_source(
        "let p = projection(t=1/3)\nphi(p*p*p)\n"
        "let b = bernoulli()\nphi(b*b)",
        Session(order=3),
    )
    assert results[1].value == F(1, 3)
    assert results[3].value == 1


def test_eval_result_json_shape():
    (res,) = run_source("phi(1/2)", Session(order=2))
    payload = res.to_json_dict()
    assert payload == {
        "statement": "phi(1/2)",
        "kind": "phi",
        "result": "1/2",
    }


def test_evaluate_wraps_errors_with_statement_text():
    session = Session(order=3)
    with pytest.raises(DslEvalError, match=r"phi\(z\)"):
        evaluate(parse("phi(z)"), session)
    with pytest.raises(DslEvalError):
        session.execute("not a statement")
