"""The command line and the session language share one constructor table
and one Levy-check policy; every mutated functional document sent through
the command handlers ends in a FreeprobError, never another exception."""

import contextlib
import io
import json
import re
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeprob import cli
from freeprob.dsl import Session, run_source
from freeprob.errors import FreeprobError
from freeprob.jsonio import dumps_canonical, functional_from_dict, functional_to_dict

ONE_VARIABLE = [c for c, (_, var, _) in cli.CONSTRUCTORS.items() if var]


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def session_moments(source, names="v", order=4):
    source += "\nmoments(%s, order=%d)" % (names, order)
    return functional_to_dict(run_source(source, Session())[-1].value)


def test_the_table_keeps_both_spellings_of_every_constructor():
    spellings = {
        c: [(flag, key, default) for flag, key, default in params]
        for c, (_, _, params) in cli.CONSTRUCTORS.items()
    }
    assert spellings == {
        "semicircle": [("radius", "radius", "2")],
        "semicircle_family": [],
        "free_poisson": [("rate", "lambda", "1"), ("jump", "alpha", "1")],
        "compound_free_poisson": [("rate", "lambda", "1")],
        "projection": [("trace", "t", "1/2")],
        "bernoulli": [("trace", "t", "1/2"), ("up", "alpha", "1"), ("down", "beta", "-1")],
    }


@pytest.mark.parametrize("ctor", ONE_VARIABLE)
def test_model_and_let_give_one_table_for_one_variable_laws(ctor):
    _, _, params = cli.CONSTRUCTORS[ctor]
    # two thirds of each default: a valid law for every constructor
    values = [(flag, key, F(default) * F(2, 3)) for flag, key, default in params]
    argv = ["model", ctor, "--order", "4", "--name", "v", "--json"]
    for flag, _, value in values:
        argv.append("--%s=%s" % (flag, value))
    code, out, _ = run_cli(*argv)
    assert code == 0
    keywords = ", ".join("%s=%s" % (key, value) for _, key, value in values)
    assert json.loads(out) == session_moments("let v = %s(%s)" % (ctor, keywords))

    code, out, _ = run_cli("model", ctor, "--order", "4", "--name", "v", "--json")
    assert code == 0
    assert json.loads(out) == session_moments("let v = %s()" % ctor)


def test_model_and_let_give_one_table_for_the_other_two(tmp_path):
    family = ("model", "semicircle_family", "--cov", "2,1;1,3", "--names", "u,v")
    code, out, _ = run_cli(*family, "--order", "4", "--json")
    assert code == 0
    family = "let u, v = semicircle_family(cov=((2, 1), (1, 3)))"
    assert json.loads(out) == session_moments(family, "u, v")

    base = tmp_path / "base.json"
    run_cli("model", "free_poisson", "--order", "4", "--name", "v", "--out", base)
    for flags, args in (([], ""), (["--rate", "3/2"], "lambda=3/2, ")):
        code, out, _ = run_cli("model", "compound_free_poisson", "--base", base, *flags, "--json")
        assert code == 0
        source = "let b = free_poisson()\nlet v = compound_free_poisson(%sbase=b)" % args
        assert json.loads(out) == session_moments(source)


@pytest.mark.parametrize("ctor", list(cli.CONSTRUCTORS))
def test_model_help_names_exactly_the_tables_flags(ctor, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["model", ctor, "--help"])
    assert exc.value.code == 0
    flags = set(re.findall(r"--\w+", capsys.readouterr().out))
    fixed = {"--help", "--order", "--json", "--out", "--name", "--names", "--cov", "--base"}
    _, _, params = cli.CONSTRUCTORS[ctor]
    assert flags - fixed == {"--" + flag for flag, _, _ in params}


def test_fock_verify_refuses_a_bad_order_before_reading_its_file(tmp_path):
    code, out, err = run_cli("fock", "verify", "--in", tmp_path / "missing.json", "--order", "0")
    assert (code, out, err) == (1, "", "error: order must be >= 1, got 0\n")


def test_fock_verify_and_levy_check_give_one_report(tmp_path):
    law = tmp_path / "law.json"
    family = ("model", "semicircle_family", "--cov", "2,1;1,3", "--names", "u,v")
    run_cli(*family, "--order", "5", "--out", law)
    code, out, _ = run_cli("fock", "verify", "--in", law, "--order", "2", "--json")
    assert code == 0
    source = "let u, v = semicircle_family(cov=((2, 1), (1, 3)))\nlevy_check(u, v, order=2)"
    report = run_source(source, Session())[-1].value
    assert out == dumps_canonical(report.to_json_dict())
    assert json.loads(out)["passed"] is True


# -- a fuzz property over functional documents -------------------------------

LAWS = [
    run_cli(*argv, "--json")[1]
    for argv in (
        ("model", "semicircle", "--order", "5"),
        ("model", "bernoulli", "--order", "4"),
        ("model", "semicircle_family", "--cov", "2,1;1,3", "--order", "5"),
    )
]
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**80), 2**80),
    st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.text(max_size=3), max_size=2),
)
ORDERS = st.sampled_from([0, -1, -7, 33, 10**9, 2**70])
BAD_WORDS = st.sampled_from(["", " ", "z", "x z", "s1  z", "s1\ts2", "s1 s1 s1 s1 s1 s1"])
BAD_VALUES = st.one_of(
    st.sampled_from(["1.5", "1/0", "", "abc", "-0/3", "1e9", "9" * 400, "-" + "7" * 300]),
    JSON_VALUES,
)


@st.composite
def mutation(draw, doc):
    what = draw(st.sampled_from(["field", "order", "drop", "word", "value", "entry"]))
    fields = ["format", "kind", "vars", "order", "table"]
    if what == "field":
        doc[draw(st.sampled_from(fields))] = draw(JSON_VALUES)
    elif what == "order":
        doc["order"] = draw(ORDERS)
    elif what == "drop":
        doc.pop(draw(st.sampled_from(fields)), None)
    elif isinstance(doc.get("table"), dict) and doc["table"]:
        key = draw(st.sampled_from(sorted(doc["table"])))
        if what == "word":
            doc["table"][draw(BAD_WORDS)] = doc["table"].pop(key)
        elif what == "value":
            doc["table"][key] = draw(BAD_VALUES)
        else:
            doc["table"].pop(key)


@st.composite
def documents(draw):
    """A valid moment or cumulant document of a small law, mutated one to
    three times."""
    doc = json.loads(draw(st.sampled_from(LAWS)))
    if draw(st.booleans()):
        doc["kind"] = "cumulants"
    for _ in range(draw(st.integers(1, 3))):
        draw(mutation(doc))
    return doc


def assert_done_or_one_error_line(code, err):
    assert code in (0, 1, 2)
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err


@settings(max_examples=40, deadline=None)
@given(
    doc=documents(),
    degree=st.sampled_from([-1, 0, 1, 2]),
    order=st.sampled_from([-1, 0, 1, 2]),
)
def test_mutated_documents_are_refused_only_with_freeprob_errors(doc, degree, order):
    try:
        functional_from_dict(doc)
    except FreeprobError:
        pass
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "law.json"
        path.write_text(json.dumps(doc))
        for argv in (
            ("transform", "m2c", "--in", path),
            ("transform", "c2m", "--in", path),
            ("infdiv", "check", "--in", path, "--degree", degree),
            ("fock", "verify", "--in", path, "--order", order),
            ("approx", "--target", path, "--j", "1,3", "--order", max(order, 1)),
        ):
            code, _, err = run_cli(*argv)
            assert_done_or_one_error_line(code, err)
