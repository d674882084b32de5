"""Constructors for the standard families: semicircle systems, free
Poisson elements, compound variants, projection families under the three
canonical joint laws, and the sandwich cumulant formula.

Every constructor produces a dense exact table, so downstream code never
needs to know which model it came from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .errors import StructuralError, ValidationError
from .freeness import free_product
from .functionals import (
    CumulantFunctional,
    MomentFunctional,
    _letter_levels,
    _scaled,
    as_scalar,
    cumulants_to_moments,
    iter_words_upto,
)
from .infdiv import psd_certificate


def _default_names(prefix, k):
    if k == 1:
        return (prefix,)
    return tuple("%s%d" % (prefix, i + 1) for i in range(k))


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric rational matrix indexed by variable names.  Symmetry is
    enforced at construction; positive semidefiniteness is available as a
    check, not a requirement."""

    names: tuple
    entries: tuple  # tuple of row tuples, Fractions

    @classmethod
    def from_rows(cls, rows, names=None):
        data = tuple(tuple(as_scalar(x) for x in row) for row in rows)
        k = len(data)
        for row in data:
            if len(row) != k:
                raise StructuralError("covariance matrix must be square")
        for i in range(k):
            for j in range(i + 1, k):
                if data[i][j] != data[j][i]:
                    raise StructuralError(
                        "covariance matrix not symmetric at (%d, %d)" % (i, j)
                    )
        if names is None:
            names = _default_names("s", k)
        names = tuple(names)
        if len(names) != k:
            raise StructuralError("need %d names, got %d" % (k, len(names)))
        return cls(names=names, entries=data)

    @property
    def size(self):
        return len(self.entries)

    def value(self, i, j):
        """Entry for 1-based variable indices."""
        return self.entries[i - 1][j - 1]

    def is_psd(self, tolerance=0):
        return psd_certificate(
            [list(row) for row in self.entries], tolerance
        ).psd


def semicircle_family(cov, order, names=None):
    """Jointly semicircular family with the given covariance: the only
    non-vanishing cumulants sit on words of length two."""
    if not isinstance(cov, CovarianceMatrix):
        cov = CovarianceMatrix.from_rows(cov, names)
    if order < 1:
        raise ValidationError("order must be >= 1")
    zero = Fraction(0)
    table = {}
    for w in iter_words_upto(cov.size, order):
        table[w] = cov.value(w[0], w[1]) if len(w) == 2 else zero
    cf = CumulantFunctional(cov.names, order, table)
    return cumulants_to_moments(cf)


def semicircle(radius=2, order=8, name="s"):
    """Single semicircle element of the given radius; radius 2 is the
    standard one with variance 1 and even moments the Catalan numbers."""
    r = as_scalar(radius)
    if r <= 0:
        raise ValidationError("radius must be positive")
    variance = (r / 2) ** 2
    return semicircle_family(((variance,),), order, names=(name,))


def _constants_law(values, order, names):
    """Law of commuting constants: phi(w) is the product of values[c - 1]
    over the letters c of w.  With one letter it is the point mass at
    values[0]."""
    return MomentFunctional._trusted(names, order, _letter_levels(values, order))


def free_poisson(rate, jump=1, order=8, name="x"):
    """Free Poisson element: the compound free Poisson law over the
    point mass at ``jump``, so the cumulant of every length n equals
    rate * jump**n."""
    lam = as_scalar(rate)
    alpha = as_scalar(jump)
    if lam <= 0:
        raise ValidationError("rate must be positive")
    if alpha == 0:
        raise ValidationError("jump must be nonzero")
    if order < 1:
        raise ValidationError("order must be >= 1")
    return compound_free_poisson(lam, _constants_law((alpha,), order, (name,)))


def compound_free_poisson_cumulants(rate, base, order=None):
    """Cumulant table of the compound free Poisson family over the base
    functional: kappa(w) = rate * base_moment(w) for every word."""
    lam = as_scalar(rate)
    if lam <= 0:
        raise ValidationError("rate must be positive")
    if not isinstance(base, MomentFunctional):
        raise StructuralError("base must be a MomentFunctional")
    if order is None:
        order = base.order
    if order > base.order:
        raise ValidationError(
            "order %d beyond base order %d" % (order, base.order)
        )
    return _scaled(base.truncate(order), lam, CumulantFunctional)


def compound_free_poisson(rate, base, order=None):
    """Moment functional of the compound free Poisson family, the one
    Poisson primitive: free_poisson is this law over a point mass, and
    the projection-array limits of ``limits`` tend to it over a base
    law."""
    return cumulants_to_moments(compound_free_poisson_cumulants(rate, base, order))


def projection_functional(trace, order, name="p"):
    """Single projection with the given trace: every power has moment t."""
    t = as_scalar(trace)
    if not 0 <= t <= 1:
        raise ValidationError("trace must lie in [0, 1]")
    if order < 1:
        raise ValidationError("order must be >= 1")
    table = {(1,) * n: t for n in range(1, order + 1)}
    return MomentFunctional((name,), order, table)


@dataclass(frozen=True)
class PoissonSpec:
    """Rates and jump sizes of a family of Poisson-type limits."""

    rates: tuple
    jumps: tuple

    @classmethod
    def of(cls, rates, jumps=None):
        rs = tuple(as_scalar(x) for x in rates)
        if not rs:
            raise ValidationError("need at least one rate")
        if any(r <= 0 for r in rs):
            raise ValidationError("rates must be positive")
        if jumps is None:
            js = (Fraction(1),) * len(rs)
        else:
            js = tuple(as_scalar(x) for x in jumps)
        if len(js) != len(rs):
            raise ValidationError("rates and jumps must have equal length")
        if any(j == 0 for j in js):
            raise ValidationError("jumps must be nonzero")
        return cls(rates=rs, jumps=js)

    @property
    def size(self):
        return len(self.rates)

    @property
    def sup_rate(self):
        return max(self.rates)


PROJECTION_MODELS = ("equal", "orthogonal", "free")


def projection_family(rates, size_n, order, model, names=None):
    """Joint law of one row of projections p_i with traces rates[i]/N.

    The three canonical couplings:
      equal       all p_i are the same projection (all rates must agree),
      orthogonal  the p_i are mutually orthogonal (sum of rates <= N),
      free        the p_i are freely independent.
    """
    rs = tuple(as_scalar(x) for x in rates)
    if not rs or any(r <= 0 for r in rs):
        raise ValidationError("rates must be positive")
    if size_n < ceil(max(rs)):
        raise ValidationError(
            "N = %d is below the ceiling of the largest rate" % size_n
        )
    if model not in PROJECTION_MODELS:
        raise ValidationError(
            "model must be one of %s, got %r" % (", ".join(PROJECTION_MODELS), model)
        )
    k = len(rs)
    if names is None:
        names = _default_names("p", k)
    traces = [r / size_n for r in rs]
    zero = Fraction(0)

    if model == "equal":
        if any(r != rs[0] for r in rs):
            raise ValidationError("equal coupling needs all rates equal")
        t = traces[0]
        table = {w: t for w in iter_words_upto(k, order)}
        return MomentFunctional(names, order, table)

    if model == "orthogonal":
        if sum(rs) > size_n:
            raise ValidationError(
                "orthogonal coupling needs sum of rates <= N"
            )
        table = {}
        for w in iter_words_upto(k, order):
            pure = all(c == w[0] for c in w)
            table[w] = traces[w[0] - 1] if pure else zero
        return MomentFunctional(names, order, table)

    singles = [
        projection_functional(traces[i], order, name=names[i]) for i in range(k)
    ]
    if k == 1:
        return singles[0]
    return free_product(singles, order)


def bernoulli(trace, up=1, down=-1, order=8, name="b"):
    """Two-point law taking value ``up`` with weight ``trace`` and ``down``
    with weight 1 - trace.  trace=1/2, up=1, down=-1 is the symmetric
    Bernoulli, the standard counterexample to free infinite divisibility."""
    t = as_scalar(trace)
    if not 0 <= t <= 1:
        raise ValidationError("trace must lie in [0, 1]")
    a = as_scalar(up)
    b = as_scalar(down)
    if order < 1:
        raise ValidationError("order must be >= 1")
    table = {}
    pa, pb = Fraction(1), Fraction(1)
    for n in range(1, order + 1):
        pa *= a
        pb *= b
        table[(1,) * n] = t * pa + (1 - t) * pb
    return MomentFunctional((name,), order, table)


def sandwich_cumulants(cov, base, order, names=None):
    """Cumulants of the family b_i = s_i a_i s_i, where the s_i are a
    semicircular family with covariance ``cov`` free from the base family
    a_i.  Joint cumulants close up in one cyclic sweep of the covariance:

        kappa(b_w1 ... b_wn) = c(w1,w2) c(w2,w3) ... c(wn,w1) * phi(a_w1 ... a_wn)

    and for a single letter kappa(b_i) = c(i,i) * phi(a_i).
    """
    if not isinstance(cov, CovarianceMatrix):
        cov = CovarianceMatrix.from_rows(cov)
    if not isinstance(base, MomentFunctional):
        raise StructuralError("base must be a MomentFunctional")
    if cov.size != base.arity:
        raise StructuralError(
            "covariance size %d != base arity %d" % (cov.size, base.arity)
        )
    if order > base.order:
        raise ValidationError("order %d beyond base order %d" % (order, base.order))
    if names is None:
        names = _default_names("b", base.arity)
    table = {}
    for w in iter_words_upto(base.arity, order):
        coeff = Fraction(1)
        for a, b in zip(w, w[1:] + (w[0],)):
            coeff *= cov.value(a, b)
            if not coeff:
                break
        table[w] = coeff * base.moment(w) if coeff else Fraction(0)
    return CumulantFunctional(tuple(names), order, table)
