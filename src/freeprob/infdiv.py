"""Certificates of free infinite divisibility.

A functional is freely infinitely divisible iff its cumulant functional is
conditionally positive, which at a fixed degree d reduces to positive
semidefiniteness of the Gram matrix kappa(w . reverse(v)) over all
monomials w, v of degree 1..d.  The PSD test is a pivoted symmetric
elimination carried out exactly, on integers by fraction-free (Bareiss)
steps: a PASS is evidence up to the chosen degree, while a FAIL comes with
an explicit rational vector v and the exact negative value of v^T G v,
i.e. a proof.  At tolerance 0 a PASS is checkable too, since its basis
vectors U satisfy U G U^T = diag(pivots) exactly; with a positive
tolerance a PASS is only approximate.

The same elimination doubles as the rank-revealing decomposition the Fock
construction needs, so it returns the pivot basis as well.

Every Gram matrix in the package has the one layout f(w . reverse(v)) over
words in canonical order, cut by ``_hankel`` from whole word levels.  An
exact Gram is the integer cut ``_integer_hankel`` of the stored levels over
one denominator, which goes straight to the elimination ``_eliminate``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import StructuralError, ValidationError
from .functionals import (
    CumulantFunctional,
    MomentFunctional,
    as_scalar,
    iter_words_upto,
    moments_to_cumulants,
)


def monomial_basis(k, degree):
    """Words of length 1..degree over letters 1..k, ordered by total degree
    then lexicographically.  This ordering is the row/column order of every
    Gram matrix in this module."""
    if degree < 1:
        raise ValidationError("degree must be >= 1")
    return tuple(iter_words_upto(k, degree))


@dataclass(frozen=True)
class GramMatrix:
    """Cumulant Gram matrix over the monomial basis."""

    alphabet: tuple
    degree: int
    words: tuple
    entries: tuple  # tuple of row tuples, Fractions

    @property
    def dimension(self):
        return len(self.words)

    def row_lists(self):
        return [list(row) for row in self.entries]

    def quadratic_form(self, vector):
        """Exact v^T G v for a rational coefficient vector."""
        v = [as_scalar(x) for x in vector]
        if len(v) != self.dimension:
            raise StructuralError("vector length %d != %d" % (len(v), self.dimension))
        acc = Fraction(0)
        for i, vi in enumerate(v):
            if not vi:
                continue
            row = self.entries[i]
            for j, vj in enumerate(v):
                if vj:
                    acc += vi * row[j] * vj
        return acc


def _hankel(levels, k, lengths):
    """The matrix [f(w + reverse(v))] over the words w, v of the given
    lengths in canonical order.  levels[n] holds f on the words of length
    n, shape (k,)*n with letter i on axis i, and levels[0] f of the empty
    word.  The result is a fresh C-ordered array of the levels' dtype; the
    layout matters, since float products with it round by layout."""

    def block(p, q):
        # rows u of length p, columns v of length q: level[u + reverse(v)]
        axes = tuple(range(p)) + tuple(range(p + q - 1, p - 1, -1))
        return np.asarray(levels[p + q]).transpose(axes).reshape(k**p, k**q)

    rows = [np.concatenate([block(p, q) for q in lengths], axis=1) for p in lengths]
    return np.concatenate(rows)


def _integer_hankel(table, k, lengths):
    """(rows, L): ``_hankel`` of a table on its first k letters as int rows
    over L, the lcm of the stored d_n it reads, each level brought to L.
    The empty word's entry, f() = 1, is L."""
    top = 2 * max(lengths)
    scale = math.lcm(*table._dens[1 : top + 1])
    levels = [scale] + [
        lv[(slice(k),) * n] * (scale // d) for n, (lv, d) in enumerate(table._graded(top), 1)
    ]
    return _hankel(levels, k, lengths).tolist(), scale


def _cumulant_gram(cf, k, degree):
    """(cumulants, k, words, rows, L): the checked input of a degree-d Gram
    on the first k variables and its ``_integer_hankel`` cut."""
    if isinstance(cf, MomentFunctional):
        cf = moments_to_cumulants(cf)
    if not isinstance(cf, CumulantFunctional):
        raise StructuralError("expected a cumulant or moment functional")
    if k is None:
        k = cf.arity
    if not 1 <= k <= cf.arity:
        raise ValidationError("vars %d outside 1..%d" % (k, cf.arity))
    if cf.order < 2 * degree:
        raise ValidationError(
            "need cumulants to order %d, table stops at %d" % (2 * degree, cf.order)
        )
    words = monomial_basis(k, degree)
    return (cf, k, words) + _integer_hankel(cf, k, range(1, degree + 1))


def gram_matrix(cf, k=None, degree=1):
    """Assemble the Gram matrix of a cumulant functional on the first k
    variables at the given degree.  Needs cumulants up to order 2*degree."""
    cf, k, words, rows, scale = _cumulant_gram(cf, k, degree)
    return GramMatrix(cf.alphabet[:k], degree, words, tuple(_over(r, scale) for r in rows))


def _word_pairs(table, words, f="kappa"):
    """Names an asymmetric pair (i, j) of a Gram of f by its words."""
    return lambda i, j: "Gram matrix not symmetric: %s(%s) != %s(%s)" % (
        f,
        table.word_name(words[i] + words[j][::-1]),
        f,
        table.word_name(words[j] + words[i][::-1]),
    )


@dataclass(frozen=True)
class PivotedDecomposition:
    """Result of exact symmetric elimination with diagonal pivoting.

    ``pivots`` lists (original index, pivot value) in elimination order;
    ``basis`` the matching vectors u with u^T G u = pivot and mutually
    G-orthogonal.  ``psd`` is the verdict at the given tolerance, and on
    failure ``witness`` satisfies witness^T G witness = witness_value <
    -tolerance, exactly.
    """

    psd: bool
    pivots: tuple
    basis: tuple
    witness: tuple | None
    witness_value: Fraction | None
    dimension: int

    @property
    def rank(self):
        return len(self.pivots)


_ZERO = Fraction(0)


def _over(ints, denominator):
    """The Fractions x/denominator, with one shared zero."""
    return tuple(Fraction(x, denominator) if x else _ZERO for x in ints)


def psd_certificate(rows, tolerance=0):
    """Exact pivoted LDL-style elimination of a symmetric rational matrix.

    At every step the largest remaining diagonal entry is the pivot.  A
    remaining diagonal below -tolerance, or an off-diagonal coupling that
    admits a vector of negative form value, stops the elimination with an
    exact witness.  Tolerance is applied inside rational arithmetic; 0
    gives the crisp PSD decision.  A PASS at tolerance 0 is exact: the
    basis vectors U satisfy U G U^T = diag(pivots) and the rank is the
    rank of G.  A PASS at a positive tolerance is only approximate, since
    the block left uneliminated is zero only within the tolerance.

    The elimination is fraction-free (Bareiss 1968): the matrix is scaled
    to integers by the lcm L of its denominators, and the remaining block
    and the combination vectors are kept as integers, equal to L*prev and
    prev times their rational values, where prev is the last pivot's
    integer entry (1 before the first step).  Every division by prev is
    exact, and every positive scaling keeps the pivot order and the signs,
    so pivots, basis vectors and witnesses are the same Fractions a
    rational elimination gives, whichever common denominator L is.
    """
    S = [[as_scalar(x) for x in row] for row in rows]
    if any(len(row) != len(S) for row in S):
        raise StructuralError("matrix is not square")
    scale = math.lcm(*(x.denominator for row in S for x in row))
    A = [[x.numerator * (scale // x.denominator) for x in row] for row in S]
    return _eliminate(A, scale, tolerance)


def _eliminate(A, scale, tolerance, describe=None):
    """``psd_certificate`` of A / scale for square int rows A, which it
    consumes; describe(i, j) names the first asymmetric pair, if given."""
    n = len(A)
    for i, (row, column) in enumerate(zip(A, zip(*A))):
        if row != list(column):
            # earlier pairs of this row were checked with earlier rows
            j = next(j for j in range(i + 1, n) if row[j] != column[j])
            message = describe(i, j) if describe else "matrix not symmetric at (%d, %d)" % (i, j)
            raise StructuralError(message)
    tol = abs(as_scalar(tolerance))
    tol_scaled = tol * scale
    # A and V hold the remaining block and its combination vectors, one
    # row per index in ``active``, scaled to integers by scale*prev and prev
    V = [[int(j == i) for j in range(n)] for i in range(n)]
    prev = 1
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
        q = max(range(len(active)), key=lambda r: A[r][r])
        a = A[q][q]
        if a <= tol_scaled * prev:
            break
        d = Fraction(a, scale * prev)
        pivots.append((active[q], d))
        basis.append((active[q], _over(V[q], prev), d))
        del active[q]
        Ap, Vp = A.pop(q), V.pop(q)
        del Ap[q]
        for r, row in enumerate(A):
            c = row.pop(q)
            A[r] = [(a * x - c * y) // prev for x, y in zip(row, Ap)]
            V[r] = [(a * x - c * y) // prev for x, y in zip(V[r], Vp)]
        prev = a
    if active:
        # every remaining diagonal is <= tol.  The screens run on the
        # integers, against the integer part of tol*scale*prev, which for
        # an integer is the same test; only the entries and vectors a
        # candidate uses go back to rationals.
        denom = scale * prev
        bound = math.floor(tol_scaled * prev)
        neg = min(range(len(active)), key=lambda r: A[r][r])
        if -A[neg][neg] > bound:
            return fail(_over(V[neg], prev), Fraction(A[neg][neg], denom))

        def combination(t, u, v):
            return [t * x + y for x, y in zip(_over(V[u], prev), _over(V[v], prev))]

        found = None
        for i, j in itertools.combinations(range(len(active)), 2):
            if abs(A[i][j]) <= bound:
                continue
            b = Fraction(A[i][j], denom)
            sii, sjj = Fraction(A[i][i], denom), Fraction(A[j][j], denom)
            # diagonals are pinned near zero but the coupling b is not:
            # a suitable combination t*v_i + v_j goes negative.
            if sii > 0 and sjj > 0:
                for a_, b_, saa, sbb in ((i, j, sii, sjj), (j, i, sjj, sii)):
                    t = -b / saa
                    value = sbb - b ** 2 / saa
                    if value < -tol:
                        found = (combination(t, a_, b_), value)
                        break
                if found:
                    break
                continue
            lead, other = (i, j) if sii <= 0 else (j, i)
            sll, soo = (sii, sjj) if sii <= 0 else (sjj, sii)
            t = max(Fraction(1), (soo + 1 + tol) / (2 * abs(b)))
            if b > 0:
                t = -t
            value = t * t * sll + 2 * t * b + soo
            found = (combination(t, lead, other), value)
            break
        if found is not None:
            vec, value = found
            if value < -tol:
                return fail(vec, value)
        # remaining block is zero within tolerance: PSD
    return PivotedDecomposition(
        psd=True,
        pivots=tuple(pivots),
        basis=tuple(basis),
        witness=None,
        witness_value=None,
        dimension=n,
    )


def is_psd(gram, tolerance=0):
    """(verdict, witness) for a GramMatrix or raw symmetric rows.  On FAIL
    the witness vector has exact quadratic form value below -tolerance."""
    rows = gram.row_lists() if isinstance(gram, GramMatrix) else gram
    cert = psd_certificate(rows, tolerance)
    return cert.psd, (list(cert.witness) if cert.witness is not None else None)


@dataclass(frozen=True)
class InfdivVerdict:
    """Verdict report for the degree-d divisibility certificate.

    PASS is evidence only (no obstruction up to this degree); FAIL is a
    proof, carried by an explicit monomial combination with negative
    cumulant Gram form value.
    """

    verdict: str  # "PASS" | "FAIL"
    alphabet: tuple
    degree: int
    dimension: int
    rank: int
    tolerance: Fraction
    pivot_trace: tuple  # ((word name, pivot value), ...)
    witness: tuple | None  # ((word name, coefficient), ...) nonzero coeffs
    witness_value: Fraction | None

    @property
    def passed(self):
        return self.verdict == "PASS"

    def to_json_dict(self):
        out = {
            "verdict": self.verdict,
            "vars": list(self.alphabet),
            "degree": self.degree,
            "dimension": self.dimension,
            "rank": self.rank,
            "tolerance": str(self.tolerance),
            "pivot_trace": [
                {"word": w, "pivot": str(v)} for w, v in self.pivot_trace
            ],
            "semantics": (
                "PASS is evidence up to this degree; FAIL is an exact proof"
            ),
        }
        if self.witness is not None:
            out["witness"] = {
                "coefficients": [
                    {"word": w, "value": str(c)} for w, c in self.witness
                ],
                "form_value": str(self.witness_value),
            }
        else:
            out["witness"] = None
        return out

    def to_text(self):
        lines = [
            "%s at degree %d (dimension %d, rank %d)"
            % (self.verdict, self.degree, self.dimension, self.rank)
        ]
        lines += ["  pivot [%s] = %s" % pair for pair in self.pivot_trace]
        if self.witness is not None:
            combo = " + ".join("(%s)*[%s]" % (c, w) for w, c in self.witness)
            lines.append("  witness %s" % combo)
            lines.append(
                "  form value %s < 0: not divisible at this degree" % self.witness_value
            )
        else:
            lines.append("  no obstruction up to this degree (evidence, not proof)")
        return "\n".join(lines)


def check_infdiv(functional, k=None, degree=1, tolerance=0):
    """Run the divisibility certificate on a moment or cumulant table."""
    cf, k, words, rows, scale = _cumulant_gram(functional, k, degree)
    cert = _eliminate(rows, scale, tolerance, _word_pairs(cf, words))
    names = [cf.word_name(w) for w in words]
    pivot_trace = tuple((names[i], v) for i, v in cert.pivots)
    witness = None
    if cert.witness is not None:
        witness = tuple(
            (names[i], c) for i, c in enumerate(cert.witness) if c
        )
    return InfdivVerdict(
        verdict="PASS" if cert.psd else "FAIL",
        alphabet=cf.alphabet[:k],
        degree=degree,
        dimension=cert.dimension,
        rank=cert.rank,
        tolerance=abs(as_scalar(tolerance)),
        pivot_trace=pivot_trace,
        witness=witness,
        witness_value=cert.witness_value,
    )


@dataclass(frozen=True)
class KappaChecksReport:
    """Structural diagnostics of a cumulant functional: traciality of the
    underlying moments, cyclic invariance and reversal symmetry of the
    cumulants themselves."""

    order: int
    moment_tracial: bool
    cyclic_violations: tuple  # ((word, rotated word, difference), ...)
    reversal_violations: tuple  # ((word, difference), ...)

    @property
    def passed(self):
        return (
            self.moment_tracial
            and not self.cyclic_violations
            and not self.reversal_violations
        )

    def to_json_dict(self, cf=None):
        def wname(w):
            return cf.word_name(w) if cf is not None else " ".join(map(str, w))

        return {
            "order": self.order,
            "moment_tracial": self.moment_tracial,
            "passed": self.passed,
            "cyclic_violations": [
                {"word": wname(w), "rotated": wname(r), "difference": str(d)}
                for w, r, d in self.cyclic_violations
            ],
            "reversal_violations": [
                {"word": wname(w), "difference": str(d)}
                for w, d in self.reversal_violations
            ],
        }


def kappa_functional_checks(cf, mf=None, order=None):
    """Check cyclic invariance and reversal symmetry of cumulants.

    Both properties are consequences of a tracial, symmetric moment
    functional; the report states the moment-level precondition separately
    so a failure can be attributed.  ``mf`` defaults to the moments
    recovered from ``cf``.
    """
    if not isinstance(cf, CumulantFunctional):
        raise StructuralError("expected a CumulantFunctional")
    if order is None:
        order = cf.order
    if order > cf.order:
        raise ValidationError("order %d beyond table order %d" % (order, cf.order))
    if mf is None:
        from .functionals import cumulants_to_moments

        mf = cumulants_to_moments(cf)
    cyclic = []
    reversal = []
    for w in iter_words_upto(cf.arity, order):
        v = cf.cumulant(w)
        for r in range(1, len(w)):
            rot = w[r:] + w[:r]
            if cf.cumulant(rot) != v:
                cyclic.append((w, rot, v - cf.cumulant(rot)))
                break
        if cf.cumulant(w[::-1]) != v:
            reversal.append((w, v - cf.cumulant(w[::-1])))
    return KappaChecksReport(
        order=order,
        moment_tracial=mf.truncate(order).is_tracial(),
        cyclic_violations=tuple(cyclic),
        reversal_violations=tuple(reversal),
    )
