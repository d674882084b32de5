"""Reading and writing functionals and reports as JSON.

The on-disk form of a functional is a single object::

    {
      "format": "freeprob.functional",
      "vars": ["s", "x"],
      "order": 4,
      "kind": "moments",
      "table": {"s": "0", "s x": "1/2", ...}
    }

Word keys are the variable names joined by single spaces; values are
exact rationals written ``p/q`` (or a bare integer).  Writing is
deterministic: words appear by length then lexicographically by letter
index, and the same table always produces the same bytes.  The matching
schemas live under ``freeprob/schemas``.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from importlib import resources

from .errors import ParseError
from .functionals import CumulantFunctional, MomentFunctional

FORMAT_TAG = "freeprob.functional"

# agrees with the shipped schema; Fraction() alone would also accept
# decimal strings
_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")

_KINDS = {
    "moments": MomentFunctional,
    "cumulants": CumulantFunctional,
}


def kind_of(table):
    if isinstance(table, MomentFunctional):
        return "moments"
    if isinstance(table, CumulantFunctional):
        return "cumulants"
    raise ParseError("not a functional table: %r" % (table,))


def functional_to_dict(table):
    """Serializable form with canonical word order."""
    kind = kind_of(table)
    entries = {}
    for w, v in table.items():
        entries[table.word_name(w)] = str(v)
    return {
        "format": FORMAT_TAG,
        "vars": list(table.alphabet),
        "order": table.order,
        "kind": kind,
        "table": entries,
    }


def _fail(msg):
    raise ParseError("bad functional file: %s" % msg)


def functional_from_dict(data):
    """Rebuild a functional; malformed input raises ParseError."""
    if not isinstance(data, dict):
        _fail("top level must be an object")
    if data.get("format") != FORMAT_TAG:
        _fail("missing format tag %r" % FORMAT_TAG)
    kind = data.get("kind")
    if kind not in _KINDS:
        _fail("kind must be one of %s" % ", ".join(sorted(_KINDS)))
    names = data.get("vars")
    if not isinstance(names, list) or not names:
        _fail("vars must be a non-empty list")
    order = data.get("order")
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        _fail("order must be a positive integer")
    raw = data.get("table")
    if not isinstance(raw, dict):
        _fail("table must be an object")
    index = {}
    for i, name in enumerate(names):
        if not isinstance(name, str) or not name or any(c.isspace() for c in name):
            _fail("bad variable name %r" % (name,))
        if name in index:
            _fail("repeated variable name %r" % name)
        index[name] = i + 1
    table = {}
    for key, value in raw.items():
        letters = key.split()
        if not letters:
            _fail("empty word key")
        try:
            word = tuple(index[c] for c in letters)
        except KeyError as exc:
            _fail("word %r uses unknown variable %s" % (key, exc))
        if not isinstance(value, str):
            _fail("value for %r must be a rational string" % key)
        if not _RATIONAL_RE.fullmatch(value):
            _fail("value %r for %r is not a rational" % (value, key))
        try:
            table[word] = Fraction(value)
        except ZeroDivisionError:
            _fail("value %r for %r is not a rational" % (value, key))
    try:
        return _KINDS[kind](tuple(names), order, table)
    except Exception as exc:
        _fail(str(exc))


def dumps_canonical(payload):
    """Deterministic bytes for any JSON-ready payload."""
    return json.dumps(payload, indent=2, ensure_ascii=True) + "\n"


def read_json(path):
    """The parsed contents of a JSON file; unreadable or invalid files
    raise ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from None
    except json.JSONDecodeError as exc:
        raise ParseError("%s is not valid JSON: %s" % (path, exc)) from None


def read_functional(path):
    return functional_from_dict(read_json(path))


def write_functional(path, table):
    text = dumps_canonical(functional_to_dict(table))
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError("cannot write %s: %s" % (path, exc)) from None


def load_schema(name):
    """One of the shipped JSON schemas, by stem: functional,
    convergence_report, infdiv_verdict, levy_report."""
    ref = resources.files("freeprob").joinpath("schemas", name + ".schema.json")
    with ref.open("r", encoding="utf-8") as fh:
        return json.load(fh)
