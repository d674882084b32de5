"""A small declarative language for free-probability sessions.

    let s = semicircle(2)
    let x = free_poisson(lambda=1, alpha=1)
    free(s, x)
    phi(s*x*s + 1/2*x)
    kappa(x, x, x)

Statements are separated by newlines or semicolons; ``#`` starts a
comment.  Scalars are exact rationals written ``p/q``; ``*`` and
juxtaposition both multiply.  A ``let`` binds one or more fresh variables
to a model constructor; variables from different bindings have no joint
law until a ``free(...)`` declaration merges them as free families, and
querying a mixed word before that is an error rather than a silent
assumption.

The parser is a recursive descent over a hand-written token stream; it
normalizes polynomial expressions by full distribution, reports errors
with line, column and the set of expected tokens, and never attempts
recovery.  Pretty-printing an AST and reparsing reproduces it exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from .errors import FreeprobError, ParseError, ValidationError
from .freeness import free_product
from .functionals import MomentFunctional, moments_to_cumulants
from .infdiv import check_infdiv
from .jsonio import functional_to_dict
from .limits import poisson_limit_check
from .models import (
    bernoulli,
    compound_free_poisson,
    free_poisson,
    projection_functional,
    semicircle,
    semicircle_family,
)

ENV_ORDER_CAP = "FREEPROB_ORDER_CAP"
DEFAULT_ORDER = 6
HARD_ORDER_CAP = 12

STATEMENT_KEYWORDS = (
    "let",
    "free",
    "phi",
    "kappa",
    "moments",
    "infdiv",
    "levy_check",
    "limit",
)
CONSTRUCTORS = (
    "semicircle",
    "semicircle_family",
    "free_poisson",
    "compound_free_poisson",
    "projection",
    "bernoulli",
)


# one-variable constructors: (function, ((parameter, default), ...)); the
# function takes its parameters in this order, then the order and the name
_ONE_VARIABLE_CTORS = {
    "semicircle": (semicircle, (("radius", Fraction(2)),)),
    "free_poisson": (free_poisson, (("lambda", Fraction(1)), ("alpha", Fraction(1)))),
    "projection": (projection_functional, (("t", Fraction(1, 2)),)),
    "bernoulli": (
        bernoulli,
        (("t", Fraction(1, 2)), ("alpha", Fraction(1)), ("beta", Fraction(-1))),
    ),
}


class DslSyntaxError(ParseError):
    """Syntax error with position and the set of tokens that would have
    been accepted."""

    def __init__(self, line, col, expected, found):
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        self.found = found
        options = " or ".join(self.expected)
        super().__init__(
            "line %d col %d: expected %s, found %s" % (line, col, options, found)
        )


class DslEvalError(FreeprobError):
    """Evaluation error: unbound names, missing joint laws, cap overruns."""


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------

_PUNCT = {
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    "=": "EQUALS",
    "*": "STAR",
    "+": "PLUS",
    "-": "MINUS",
    "/": "SLASH",
    ";": "SEP",
}


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int

    def describe(self):
        if self.kind == "EOF":
            return "end of input"
        return "%r" % self.text


def tokenize(source):
    tokens = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        i = 0
        n = len(line)
        while i < n:
            c = line[i]
            if c in " \t\r":
                i += 1
                continue
            if c == "#":
                break
            col = i + 1
            if c.isalpha() or c == "_":
                j = i
                while j < n and (line[j].isalnum() or line[j] == "_"):
                    j += 1
                tokens.append(Token("IDENT", line[i:j], lineno, col))
                i = j
                continue
            if c.isdigit():
                j = i
                while j < n and line[j].isdigit():
                    j += 1
                tokens.append(Token("INT", line[i:j], lineno, col))
                i = j
                continue
            kind = _PUNCT.get(c)
            if kind is None:
                raise DslSyntaxError(
                    lineno, col, ("a statement token",), "%r" % c
                )
            tokens.append(Token(kind, c, lineno, col))
            i += 1
        tokens.append(Token("SEP", "end of line", lineno, len(line) + 1))
    last_line = source.count("\n") + 1
    tokens.append(Token("EOF", "", last_line, 1))
    return tokens


# ---------------------------------------------------------------------------
# syntax tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatVal:
    value: Fraction


@dataclass(frozen=True)
class TupVal:
    items: tuple


@dataclass(frozen=True)
class RefVal:
    name: str


@dataclass(frozen=True)
class Arg:
    name: str | None
    value: object


@dataclass(frozen=True)
class Term:
    coeff: Fraction
    word: tuple  # variable names in order


@dataclass(frozen=True)
class LetStmt:
    names: tuple
    ctor: str
    args: tuple


@dataclass(frozen=True)
class FreeStmt:
    names: tuple


@dataclass(frozen=True)
class PhiQuery:
    terms: tuple  # of Term


@dataclass(frozen=True)
class KappaQuery:
    word: tuple  # variable names


@dataclass(frozen=True)
class NamedQuery:
    kind: str  # moments | infdiv | levy_check
    names: tuple
    args: tuple  # of Arg


@dataclass(frozen=True)
class LimitQuery:
    kind: str
    args: tuple


@dataclass(frozen=True)
class Program:
    statements: tuple


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead=0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def fail(self, expected):
        tok = self.peek()
        raise DslSyntaxError(tok.line, tok.col, expected, tok.describe())

    def expect(self, kind, expected):
        if self.peek().kind != kind:
            self.fail(expected)
        return self.advance()

    # -- program ----------------------------------------------------------

    def parse_program(self):
        statements = []
        while True:
            while self.peek().kind == "SEP":
                self.advance()
            if self.peek().kind == "EOF":
                break
            statements.append(self.parse_statement())
            if self.peek().kind not in ("SEP", "EOF"):
                self.fail(("end of statement",))
        return Program(tuple(statements))

    def parse_statement(self):
        tok = self.peek()
        if tok.kind != "IDENT":
            self.fail(tuple("'%s'" % w for w in STATEMENT_KEYWORDS))
        if tok.text == "let":
            return self.parse_let()
        if tok.text == "free":
            return self.parse_free()
        if tok.text == "phi":
            return self.parse_phi()
        if tok.text == "kappa":
            return self.parse_kappa()
        if tok.text in ("moments", "infdiv", "levy_check"):
            return self.parse_named_query(tok.text)
        if tok.text == "limit":
            return self.parse_limit()
        self.fail(tuple("'%s'" % w for w in STATEMENT_KEYWORDS))

    def parse_ident(self, what):
        tok = self.peek()
        if tok.kind != "IDENT":
            self.fail((what,))
        return self.advance().text

    def parse_ident_list(self, what):
        names = [self.parse_ident(what)]
        while self.peek().kind == "COMMA":
            self.advance()
            names.append(self.parse_ident(what))
        return tuple(names)

    # -- let --------------------------------------------------------------

    def parse_let(self):
        self.advance()  # let
        names = self.parse_ident_list("a variable name")
        self.expect("EQUALS", ("'='",))
        ctor = self.parse_ident("a constructor name")
        self.expect("LPAREN", ("'('",))
        args = []
        if self.peek().kind != "RPAREN":
            args.append(self.parse_arg())
            while self.peek().kind == "COMMA":
                self.advance()
                args.append(self.parse_arg())
        self.expect("RPAREN", ("')'",))
        return LetStmt(names=names, ctor=ctor, args=tuple(args))

    def parse_arg(self):
        if self.peek().kind == "IDENT" and self.peek(1).kind == "EQUALS":
            name = self.advance().text
            self.advance()
            return Arg(name=name, value=self.parse_value())
        return Arg(name=None, value=self.parse_value())

    def parse_value(self):
        tok = self.peek()
        if tok.kind == "LPAREN":
            self.advance()
            items = [self.parse_value()]
            while self.peek().kind == "COMMA":
                self.advance()
                items.append(self.parse_value())
            self.expect("RPAREN", ("')'",))
            return TupVal(tuple(items))
        if tok.kind in ("INT", "MINUS"):
            return RatVal(self.parse_rational())
        if tok.kind == "IDENT":
            return RefVal(self.advance().text)
        self.fail(("a rational", "a tuple", "a variable reference"))

    def parse_rational(self):
        sign = 1
        if self.peek().kind == "MINUS":
            self.advance()
            sign = -1
        num = int(self.expect("INT", ("an integer",)).text)
        if self.peek().kind == "SLASH":
            self.advance()
            den_tok = self.expect("INT", ("a denominator",))
            den = int(den_tok.text)
            if den == 0:
                raise DslSyntaxError(
                    den_tok.line, den_tok.col, ("a nonzero denominator",), "0"
                )
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    # -- free -------------------------------------------------------------

    def parse_free(self):
        self.advance()
        self.expect("LPAREN", ("'('",))
        names = self.parse_ident_list("a variable name")
        self.expect("RPAREN", ("')'",))
        return FreeStmt(names=names)

    # -- queries ----------------------------------------------------------

    def parse_phi(self):
        self.advance()
        self.expect("LPAREN", ("'('",))
        terms = self.parse_poly()
        self.expect("RPAREN", ("')'",))
        return PhiQuery(terms=tuple(terms))

    def parse_poly(self):
        terms = self.parse_signed_term(allow_leading_minus=True)
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.advance()
            more = self.parse_term_parts()
            if op.kind == "MINUS":
                more = [Term(-t.coeff, t.word) for t in more]
            terms.extend(more)
        return terms

    def parse_signed_term(self, allow_leading_minus):
        negate = False
        if allow_leading_minus and self.peek().kind == "MINUS":
            # sign belongs to the leading rational if one follows,
            # otherwise to the whole first term
            if self.peek(1).kind != "INT":
                self.advance()
                negate = True
        terms = self.parse_term_parts()
        if negate:
            terms = [Term(-t.coeff, t.word) for t in terms]
        return terms

    def parse_term_parts(self):
        # a term is a product of factors; rational factors fold into the
        # coefficient, parenthesized sums distribute
        poly = [Term(Fraction(1), ())]
        saw_factor = False
        while True:
            tok = self.peek()
            if tok.kind in ("INT", "MINUS") and (not saw_factor or tok.kind == "INT"):
                value = self.parse_rational()
                poly = [Term(t.coeff * value, t.word) for t in poly]
            elif tok.kind == "IDENT" and tok.text not in STATEMENT_KEYWORDS:
                name = self.advance().text
                poly = [Term(t.coeff, t.word + (name,)) for t in poly]
            elif tok.kind == "LPAREN":
                self.advance()
                inner = self.parse_poly()
                self.expect("RPAREN", ("')'",))
                poly = [
                    Term(t.coeff * u.coeff, t.word + u.word)
                    for t in poly
                    for u in inner
                ]
            elif tok.kind == "STAR":
                self.advance()
                if self.peek().kind not in ("INT", "IDENT", "LPAREN", "MINUS"):
                    self.fail(("a factor after '*'",))
                continue
            else:
                break
            saw_factor = True
        if not saw_factor:
            self.fail(("a rational", "a variable", "'('"))
        return poly

    def parse_kappa(self):
        self.advance()
        self.expect("LPAREN", ("'('",))
        names = self.parse_ident_list("a variable name")
        self.expect("RPAREN", ("')'",))
        return KappaQuery(word=names)

    def parse_named_query(self, kind):
        self.advance()
        self.expect("LPAREN", ("'('",))
        names = [self.parse_ident("a variable name")]
        args = []
        while self.peek().kind == "COMMA":
            self.advance()
            if self.peek().kind == "IDENT" and self.peek(1).kind == "EQUALS":
                args.append(self.parse_arg())
            else:
                if args:
                    self.fail(("a named argument",))
                names.append(self.parse_ident("a variable name"))
        self.expect("RPAREN", ("')'",))
        return NamedQuery(kind=kind, names=tuple(names), args=tuple(args))

    def parse_limit(self):
        self.advance()
        self.expect("LPAREN", ("'('",))
        kind = self.parse_ident("a limit kind")
        args = []
        while self.peek().kind == "COMMA":
            self.advance()
            args.append(self.parse_arg())
        self.expect("RPAREN", ("')'",))
        return LimitQuery(kind=kind, args=tuple(args))


def parse(source):
    """Parse a program; DslSyntaxError carries line, column and the
    expected-token set."""
    return _Parser(tokenize(source)).parse_program()


# ---------------------------------------------------------------------------
# pretty printer: parse(pretty(ast)) == ast
# ---------------------------------------------------------------------------


def _value_str(value):
    if isinstance(value, RatVal):
        return str(value.value)
    if isinstance(value, TupVal):
        return "(" + ", ".join(_value_str(v) for v in value.items) + ")"
    if isinstance(value, RefVal):
        return value.name
    raise TypeError(value)


def _arg_str(arg):
    body = _value_str(arg.value)
    return body if arg.name is None else "%s=%s" % (arg.name, body)


def _term_body(term):
    mag = abs(term.coeff)
    if not term.word:
        return str(mag)
    factors = "*".join(term.word)
    if mag == 1:
        return factors
    return "%s*%s" % (mag, factors)


def _poly_str(terms):
    parts = []
    for i, t in enumerate(terms):
        if i == 0:
            parts.append(("-" if t.coeff < 0 else "") + _term_body(t))
        else:
            parts.append((" - " if t.coeff < 0 else " + ") + _term_body(t))
    return "".join(parts)


def pretty(node):
    """Canonical text of a statement or program."""
    if isinstance(node, Program):
        return "\n".join(pretty(s) for s in node.statements)
    if isinstance(node, LetStmt):
        return "let %s = %s(%s)" % (
            ", ".join(node.names),
            node.ctor,
            ", ".join(_arg_str(a) for a in node.args),
        )
    if isinstance(node, FreeStmt):
        return "free(%s)" % ", ".join(node.names)
    if isinstance(node, PhiQuery):
        return "phi(%s)" % _poly_str(node.terms)
    if isinstance(node, KappaQuery):
        return "kappa(%s)" % ", ".join(node.word)
    if isinstance(node, NamedQuery):
        items = list(node.names) + [_arg_str(a) for a in node.args]
        return "%s(%s)" % (node.kind, ", ".join(items))
    if isinstance(node, LimitQuery):
        items = [node.kind] + [_arg_str(a) for a in node.args]
        return "limit(%s)" % ", ".join(items)
    raise TypeError(node)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


class _Group:
    """A family of variables with a joint law, materializable at any
    order through its builder."""

    def __init__(self, names, builder):
        self.names = tuple(names)
        self.builder = builder
        self._moments = {}
        self._cumulants = {}

    def functional(self, order):
        if order not in self._moments:
            self._moments[order] = self.builder(order)
        return self._moments[order]

    def cumulants(self, order):
        if order not in self._cumulants:
            self._cumulants[order] = moments_to_cumulants(self.functional(order))
        return self._cumulants[order]

    def letter(self, name):
        return self.names.index(name) + 1


@dataclass
class EvalResult:
    statement: object
    kind: str
    value: object
    text: str

    def to_json_dict(self):
        payload = self.value
        if isinstance(payload, MomentFunctional):
            payload = functional_to_dict(payload)
        elif hasattr(payload, "to_json_dict"):
            payload = payload.to_json_dict()
        elif isinstance(payload, Fraction):
            payload = str(payload)
        return {"statement": pretty(self.statement), "kind": self.kind, "result": payload}


def _positional_names(args, names, where):
    """Resolve a mixed positional/named argument list against a name
    list; every argument must land on a distinct parameter."""
    out = {}
    position = 0
    for arg in args:
        if arg.name is None:
            if position >= len(names):
                raise DslEvalError("%s: too many positional arguments" % where)
            key = names[position]
            position += 1
        else:
            key = arg.name
            if key not in names:
                raise DslEvalError(
                    "%s: unknown argument %r (accepts %s)"
                    % (where, key, ", ".join(names))
                )
        if key in out:
            raise DslEvalError("%s: duplicate argument %r" % (where, key))
        out[key] = arg.value
    return out


def _want_rational(value, where):
    if not isinstance(value, RatVal):
        raise DslEvalError("%s must be a rational" % where)
    return value.value


def _want_int(value, where):
    r = _want_rational(value, where)
    if r.denominator != 1:
        raise DslEvalError("%s must be an integer" % where)
    return int(r)


class Session:
    """Holds bindings and their joint laws; orders are capped so a stray
    query cannot demand an astronomically large table."""

    def __init__(self, order=None):
        if order is None:
            raw = os.environ.get(ENV_ORDER_CAP, "").strip()
            try:
                order = int(raw) if raw else DEFAULT_ORDER
            except ValueError:
                raise ValidationError(
                    "%s must be an integer, got %r" % (ENV_ORDER_CAP, raw)
                ) from None
        if not 1 <= order <= HARD_ORDER_CAP:
            raise ValidationError(
                "session order must lie in 1..%d" % HARD_ORDER_CAP
            )
        self.order = order
        self.groups = []
        self.bindings = {}

    # -- binding ----------------------------------------------------------

    def _bind_group(self, names, builder):
        for name in names:
            if name in self.bindings:
                raise DslEvalError("name %r is already bound" % name)
        group = _Group(names, builder)
        self.groups.append(group)
        for name in names:
            self.bindings[name] = group
        return group

    def _group_of(self, name):
        group = self.bindings.get(name)
        if group is None:
            raise DslEvalError("unbound variable %r" % name)
        return group

    def _joint_group(self, names, context):
        groups = {id(self._group_of(n)): self._group_of(n) for n in names}
        if len(groups) > 1:
            raise DslEvalError(
                "%s: variables %s have no declared joint law; "
                "declare free(%s) first"
                % (context, ", ".join(sorted(set(names))), ", ".join(sorted(set(names))))
            )
        return next(iter(groups.values()))

    # -- statements -------------------------------------------------------

    def execute(self, stmt):
        try:
            if isinstance(stmt, LetStmt):
                return self._exec_let(stmt)
            if isinstance(stmt, FreeStmt):
                return self._exec_free(stmt)
            if isinstance(stmt, PhiQuery):
                return self._exec_phi(stmt)
            if isinstance(stmt, KappaQuery):
                return self._exec_kappa(stmt)
            if isinstance(stmt, NamedQuery):
                return self._exec_named(stmt)
            if isinstance(stmt, LimitQuery):
                return self._exec_limit(stmt)
        except (ValidationError, DslEvalError) as exc:
            raise DslEvalError("%s: %s" % (pretty(stmt), exc)) from exc
        raise DslEvalError("unknown statement %r" % (stmt,))

    def _exec_let(self, stmt):
        names = stmt.names
        if len(set(names)) != len(names):
            raise DslEvalError("repeated name in let")
        ctor = stmt.ctor
        if ctor in _ONE_VARIABLE_CTORS:
            fn, defaults = _ONE_VARIABLE_CTORS[ctor]
            params = _positional_names(stmt.args, tuple(p for p, _ in defaults), ctor)
            values = tuple(
                _want_rational(params.get(p, RatVal(d)), p) for p, d in defaults
            )
            self._expect_arity(names, 1, ctor)
            fn(*values, 1, name=names[0])  # bad values fail here, not at a query
            self._bind_group(names, lambda order: fn(*values, order, name=names[0]))
        elif ctor == "semicircle_family":
            params = _positional_names(stmt.args, ("cov",), ctor)
            if "cov" not in params:
                raise DslEvalError("semicircle_family needs a covariance matrix")
            rows = self._matrix(params["cov"])
            self._expect_arity(names, len(rows), ctor)
            self._bind_group(
                names,
                lambda order: semicircle_family(rows, order, names=names),
            )
        elif ctor == "compound_free_poisson":
            params = _positional_names(stmt.args, ("lambda", "base"), ctor)
            lam = _want_rational(params.get("lambda", RatVal(Fraction(1))), "lambda")
            if "base" not in params:
                raise DslEvalError("compound_free_poisson needs base variables")
            base_names = self._ref_list(params["base"])
            base_group = self._joint_group(base_names, ctor)
            letters = tuple(base_group.letter(n) for n in base_names)
            self._expect_arity(names, len(base_names), ctor)

            def builder(order, lam=lam, group=base_group, letters=letters):
                base = group.functional(order).restrict(letters)
                return compound_free_poisson(lam, base).relabel(names)

            self._bind_group(names, builder)
        else:
            raise DslEvalError(
                "unknown constructor %r (one of %s)" % (ctor, ", ".join(CONSTRUCTORS))
            )
        return EvalResult(stmt, "let", None, "bound %s" % ", ".join(names))

    @staticmethod
    def _expect_arity(names, want, ctor):
        if len(names) != want:
            raise DslEvalError(
                "%s binds %d variable(s), let has %d" % (ctor, want, len(names))
            )

    @staticmethod
    def _matrix(value):
        if not isinstance(value, TupVal) or not value.items:
            raise DslEvalError("covariance must be a tuple of rows")
        rows = []
        for item in value.items:
            if not isinstance(item, TupVal):
                raise DslEvalError("covariance rows must be tuples")
            rows.append(tuple(_want_rational(x, "covariance entry") for x in item.items))
        return tuple(rows)

    @staticmethod
    def _ref_list(value):
        if isinstance(value, RefVal):
            return (value.name,)
        if isinstance(value, TupVal) and all(
            isinstance(v, RefVal) for v in value.items
        ):
            return tuple(v.name for v in value.items)
        raise DslEvalError("expected a variable reference or tuple of references")

    def _exec_free(self, stmt):
        names = stmt.names
        if len(set(names)) != len(names):
            raise DslEvalError("repeated name in free(...)")
        groups = []
        for name in names:
            g = self._group_of(name)
            if g not in groups:
                groups.append(g)
        if len(groups) < 2:
            raise DslEvalError(
                "free(%s): variables already share a joint law" % ", ".join(names)
            )
        merged_names = tuple(n for g in groups for n in g.names)
        builders = [g.builder for g in groups]

        def builder(order, builders=tuple(builders)):
            return free_product([b(order) for b in builders], order)

        for g in groups:
            self.groups.remove(g)
        group = _Group(merged_names, builder)
        self.groups.append(group)
        for name in merged_names:
            self.bindings[name] = group
        return EvalResult(
            stmt, "free", None, "declared %s free" % ", ".join(names)
        )

    # -- queries ----------------------------------------------------------

    def _order_param(self, params):
        """A query's ``order=`` argument, or the session order without one."""
        if "order" not in params:
            return self.order
        order = _want_int(params["order"], "order")
        if not 1 <= order <= HARD_ORDER_CAP:
            raise DslEvalError("order must lie in 1..%d" % HARD_ORDER_CAP)
        return order

    def _exec_phi(self, stmt):
        total = Fraction(0)
        for term in stmt.terms:
            if not term.word:
                total += term.coeff
                continue
            if len(term.word) > self.order:
                raise DslEvalError(
                    "word of length %d exceeds the session order %d"
                    % (len(term.word), self.order)
                )
            group = self._joint_group(term.word, "phi")
            word = tuple(group.letter(n) for n in term.word)
            total += term.coeff * group.functional(self.order).moment(word)
        return EvalResult(stmt, "phi", total, "phi = %s" % total)

    def _exec_kappa(self, stmt):
        if len(stmt.word) > self.order:
            raise DslEvalError(
                "word of length %d exceeds the session order %d"
                % (len(stmt.word), self.order)
            )
        group = self._joint_group(stmt.word, "kappa")
        word = tuple(group.letter(n) for n in stmt.word)
        value = group.cumulants(self.order).cumulant(word)
        return EvalResult(stmt, "kappa", value, "kappa = %s" % value)

    def _exec_named(self, stmt):
        group = self._joint_group(stmt.names, stmt.kind)
        letters = tuple(group.letter(n) for n in stmt.names)
        if stmt.kind == "moments":
            params = _positional_names(stmt.args, ("order",), "moments")
            order = self._order_param(params)
            mf = group.functional(order).restrict(letters).relabel(stmt.names)
            lines = [
                "phi(%s) = %s" % (mf.word_name(w), v) for w, v in mf.items()
            ]
            return EvalResult(stmt, "moments", mf, "\n".join(lines))
        if stmt.kind == "infdiv":
            params = _positional_names(stmt.args, ("degree",), "infdiv")
            degree = max(1, self.order // 2)
            if "degree" in params:
                degree = _want_int(params["degree"], "degree")
            if not 1 <= 2 * degree <= HARD_ORDER_CAP:
                raise DslEvalError(
                    "degree must lie in 1..%d" % (HARD_ORDER_CAP // 2)
                )
            mf = group.functional(2 * degree).restrict(letters).relabel(stmt.names)
            verdict = check_infdiv(mf, degree=degree)
            return EvalResult(
                stmt,
                "infdiv",
                verdict,
                "infdiv %s at degree %d" % (verdict.verdict, degree),
            )
        if stmt.kind == "levy_check":
            from .fock import build_fock_model, levy_n_max, verify_levy_axioms

            params = _positional_names(stmt.args, ("order",), "levy_check")
            order = min(3, self.order)
            if "order" in params:
                order = _want_int(params["order"], "order")
            if not 1 <= order <= 4:
                raise DslEvalError("levy_check order must lie in 1..4")
            need = 2 * order + 1
            mf = group.functional(need).restrict(letters).relabel(stmt.names)
            model = build_fock_model(moments_to_cumulants(mf), order, levy_n_max(order))
            report = verify_levy_axioms(model, order)
            return EvalResult(
                stmt,
                "levy_check",
                report,
                "levy axioms %s at order %d"
                % ("PASS" if report.passed else "FAIL", order),
            )
        raise DslEvalError("unknown query %r" % stmt.kind)

    def _exec_limit(self, stmt):
        if stmt.kind != "poisson":
            raise DslEvalError(
                "limit kind %r not available here; the command line drives "
                "multi and compound limits" % stmt.kind
            )
        params = _positional_names(
            stmt.args, ("lambda", "alpha", "schedule", "order"), "limit"
        )
        lam = _want_rational(params.get("lambda", RatVal(Fraction(1))), "lambda")
        alpha = _want_rational(params.get("alpha", RatVal(Fraction(1))), "alpha")
        order = self._order_param(params)
        schedule = (10, 100, 1000)
        if "schedule" in params:
            val = params["schedule"]
            if isinstance(val, RatVal):
                schedule = (_want_int(val, "schedule"),)
            elif isinstance(val, TupVal):
                schedule = tuple(
                    _want_int(v, "schedule entry") for v in val.items
                )
            else:
                raise DslEvalError("schedule must be an integer or tuple")
        report = poisson_limit_check(lam, alpha, schedule, order)
        return EvalResult(
            stmt,
            "limit",
            report,
            report.to_text(),
        )


def evaluate(program, session=None):
    """Execute a parsed program; returns one EvalResult per statement."""
    if session is None:
        session = Session()
    return [session.execute(stmt) for stmt in program.statements]


def run_source(source, session=None):
    """Parse and evaluate; parse errors raise DslSyntaxError, evaluation
    errors DslEvalError."""
    return evaluate(parse(source), session)
