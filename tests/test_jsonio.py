import json
from fractions import Fraction as F

import jsonschema
import pytest

from freeprob.errors import ParseError
from freeprob.fock import build_fock_model, verify_levy_axioms
from freeprob.functionals import moments_to_cumulants
from freeprob.infdiv import check_infdiv
from freeprob.jsonio import (
    FORMAT_TAG,
    dumps_canonical,
    functional_from_dict,
    functional_to_dict,
    kind_of,
    load_schema,
    read_functional,
    write_functional,
)
from freeprob.limits import poisson_limit_check
from freeprob.models import bernoulli, free_poisson, semicircle_family


def family():
    return semicircle_family([[F(1), F(1, 2)], [F(1, 2), F(1)]], 3, names=("s", "x"))


def test_roundtrip_moments():
    mf = family()
    data = functional_to_dict(mf)
    assert data["format"] == FORMAT_TAG
    assert data["vars"] == ["s", "x"]
    assert data["kind"] == "moments"
    back = functional_from_dict(data)
    assert back == mf


def test_roundtrip_cumulants():
    cf = moments_to_cumulants(free_poisson(1, 1, 4))
    data = functional_to_dict(cf)
    assert data["kind"] == "cumulants"
    assert functional_from_dict(data) == cf


def test_word_keys_in_canonical_order():
    data = functional_to_dict(family())
    keys = list(data["table"])
    assert keys[:6] == ["s", "x", "s s", "s x", "x s", "x x"]
    assert all(len(k.split()) == 3 for k in keys[6:])
    assert data["table"]["s x"] == "1/2"


def test_dumps_canonical_is_deterministic():
    data = functional_to_dict(family())
    one = dumps_canonical(data)
    two = dumps_canonical(functional_to_dict(family()))
    assert one == two
    assert one.endswith("\n")
    assert json.loads(one) == data


def test_file_roundtrip(tmp_path):
    path = tmp_path / "fam.json"
    mf = family()
    write_functional(path, mf)
    assert read_functional(path) == mf
    # identical content on rewrite
    text = path.read_text()
    write_functional(path, mf)
    assert path.read_text() == text


def test_read_errors(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        read_functional(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError, match="not valid JSON"):
        read_functional(bad)


def good_payload():
    return functional_to_dict(family())


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.pop("format"), "format tag"),
        (lambda d: d.update(kind="laws"), "kind"),
        (lambda d: d.update(kind=[]), "kind must be one of"),
        (lambda d: d.update(vars=[]), "vars"),
        (lambda d: d.update(vars=["s", "s"]), "repeated"),
        (lambda d: d.update(vars=["s", "a b"]), "bad variable name"),
        (lambda d: d.update(order="3"), "order"),
        (lambda d: d.update(order=True), "positive integer"),
        (lambda d: d.update(table=[]), "table"),
        (lambda d: d["table"].update({"s z": "1"}), "unknown variable"),
        (lambda d: d["table"].update({"s": "1.5"}), "not a rational"),
        (lambda d: d["table"].update({"s": 2}), "rational string"),
        (lambda d: d["table"].update({" ": "1"}), "empty word"),
        (lambda d: d["table"].pop("s"), "not total"),
        (lambda d: d.update(order=2**70), "need at least"),  # refused before any sum over 2**70 levels
        (lambda d: d["table"].update({"s": "1/0"}), "not a rational"),
    ],
)
def test_malformed_dicts_raise_parse_error(mutate, message):
    data = good_payload()
    mutate(data)
    with pytest.raises(ParseError, match=message):
        functional_from_dict(data)


def test_non_dict_input():
    with pytest.raises(ParseError):
        functional_from_dict([1, 2])
    with pytest.raises(ParseError):
        kind_of({"table": {}})


def test_schemas_load_and_accept_real_payloads():
    schema = load_schema("functional")
    assert schema["$schema"].endswith("2020-12/schema")
    jsonschema.validate(good_payload(), schema)

    report = poisson_limit_check(1, 1, (10, 100), 3)
    jsonschema.validate(report.to_json_dict(), load_schema("convergence_report"))

    verdict = check_infdiv(bernoulli(F(1, 2), 1, -1, 4), degree=2)
    jsonschema.validate(verdict.to_json_dict(), load_schema("infdiv_verdict"))

    cf = moments_to_cumulants(semicircle_family([[F(1)]], 5, names=("s",)))
    rep = verify_levy_axioms(build_fock_model(cf, 2, 2), 2)
    jsonschema.validate(rep.to_json_dict(), load_schema("levy_report"))


def test_schema_rejects_malformed_functional():
    schema = load_schema("functional")
    data = good_payload()
    data["order"] = "three"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(data, schema)
    data = good_payload()
    data["table"]["s"] = "0.5"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(data, schema)
    with pytest.raises(FileNotFoundError):
        load_schema("nonexistent")
