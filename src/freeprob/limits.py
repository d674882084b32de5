"""Finite-size cumulant arrays, their limits, and convergence reports.

The central device: for a triangular array whose N rows are free copies of
a fixed row functional, the joint cumulants of the row sums are exactly
N times the row cumulants.  ``free_sum_moments`` keeps the brute-force
route (materialize the free copies, expand each word of sums into N^n
moment terms) so the scaling shortcut never goes unchecked.

Every projection-array check is a compound free Poisson limit: rows
base (x) projections of trace rate/N under one of three couplings, limit
cumulants the base moments times the coupling's rate.  The free Poisson
checks take as base the jumps, a law of commuting constants.

Everything here is exact; the only floats are fitted decay exponents in
reports, which are diagnostics, not results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, log

from .errors import StructuralError, ValidationError
from .freeness import free_product
from .functionals import (
    CumulantFunctional,
    MomentFunctional,
    _scaled,
    as_scalar,
    iter_words,
    iter_words_upto,
    moments_to_cumulants,
)
from .infdiv import _eliminate, _integer_hankel, _word_pairs
from .models import (
    PoissonSpec,
    _constants_law,
    _default_names,
    compound_free_poisson_cumulants,
    cumulants_to_moments,
    projection_family,
)


def dilate(cf, t):
    """Scale every cumulant by t; on distributions this is the t-th
    convolution power, defined formally for any positive rational t."""
    if not isinstance(cf, CumulantFunctional):
        raise StructuralError("dilate expects a CumulantFunctional")
    factor = as_scalar(t)
    if factor <= 0:
        raise ValidationError("dilation parameter must be positive")
    return _scaled(cf, factor, CumulantFunctional)


def _row_order(row_mf, size_n, order):
    if not isinstance(row_mf, MomentFunctional):
        raise StructuralError("row must be a MomentFunctional")
    if size_n < 1:
        raise ValidationError("N must be >= 1")
    return row_mf.order if order is None else order


def array_cumulants(row_mf, size_n, order=None):
    """Joint cumulants of the row sums of N free copies of the row
    functional: N times the row cumulants, exactly."""
    order = _row_order(row_mf, size_n, order)
    return dilate(moments_to_cumulants(row_mf.truncate(order)), size_n)


def free_sum_moments(row_mf, size_n, order=None):
    """Moments of the row sums computed the long way: build the free
    product of N relabeled copies and expand each word of sums into N^n
    moment terms.  Independent of the scaling shortcut; exponential in the
    order, intended for cross-validation at small N."""
    order = _row_order(row_mf, size_n, order)
    k = row_mf.arity
    copies = [
        row_mf.truncate(order).relabel(
            tuple("%s@%d" % (name, c) for name in row_mf.alphabet)
        )
        for c in range(size_n)
    ]
    joint = free_product(copies, order)

    def sum_moment(word):
        total = Fraction(0)
        n = len(word)
        for assign in iter_words(size_n, n):
            # copy assign[j] contributes its letter word[j]
            expanded = tuple(
                (assign[j] - 1) * k + word[j] for j in range(n)
            )
            total += joint.moment(expanded)
        return total

    table = {w: sum_moment(w) for w in iter_words_upto(k, order)}
    return MomentFunctional(row_mf.alphabet, order, table)


@dataclass(frozen=True)
class ConvergenceRow:
    word: tuple
    word_name: str
    values: tuple  # finite-size values along the schedule, Fractions
    target: Fraction
    errors: tuple  # absolute errors, Fractions
    decay_exponent: float | None

    def to_json_dict(self):
        return {
            "word": self.word_name,
            "values": [str(v) for v in self.values],
            "target": str(self.target),
            "errors": [str(e) for e in self.errors],
            "decay_exponent": self.decay_exponent,
        }


@dataclass(frozen=True)
class ConvergenceReport:
    kind: str
    schedule: tuple
    order: int
    rows: tuple

    def row(self, word):
        for r in self.rows:
            if r.word == tuple(word):
                return r
        raise KeyError(word)

    def max_error(self, position=-1):
        """Largest absolute error at one schedule position."""
        errs = [r.errors[position] for r in self.rows]
        return max(errs) if errs else Fraction(0)

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "schedule": [str(n) for n in self.schedule],
            "order": self.order,
            "rows": [r.to_json_dict() for r in self.rows],
        }

    def to_text(self):
        lines = [
            "%s convergence, order %d, schedule %s"
            % (self.kind, self.order, ", ".join(str(n) for n in self.schedule))
        ]
        for r in self.rows:
            err = ", ".join(str(e) for e in r.errors)
            rate = (
                " decay~%.2f" % r.decay_exponent
                if r.decay_exponent is not None
                else ""
            )
            lines.append(
                "  [%s] target %s errors %s%s" % (r.word_name, r.target, err, rate)
            )
        return "\n".join(lines)


def _decay_exponent(schedule, errors):
    try:
        sizes = [Fraction(n) for n in schedule]
    except (ValueError, TypeError):
        return None  # labels carry no scale to fit against
    pairs = []
    for (n1, e1), (n2, e2) in zip(
        list(zip(sizes, errors)), list(zip(sizes, errors))[1:]
    ):
        if e1 and e2 and n2 != n1:
            pairs.append(log(e1 / e2) / log(n2 / n1))
    if not pairs:
        return None
    return sum(pairs) / len(pairs)


def _build_report(kind, schedule, order, arity, per_n_tables, target_fn, word_namer):
    rows = []
    for w in iter_words_upto(arity, order):
        values = tuple(tbl.cumulant(w) for tbl in per_n_tables)
        target = target_fn(w)
        errors = tuple(abs(v - target) for v in values)
        rows.append(
            ConvergenceRow(
                word=w,
                word_name=word_namer(w),
                values=values,
                target=target,
                errors=errors,
                decay_exponent=_decay_exponent(schedule, errors),
            )
        )
    return ConvergenceReport(
        kind=kind, schedule=tuple(schedule), order=order, rows=tuple(rows)
    )


def _check_schedule(schedule, spec, model):
    lower = ceil(spec.sup_rate)
    if model == "orthogonal":
        lower = max(lower, ceil(sum(spec.rates)))
    sched = [int(n) for n in schedule]
    if not sched:
        raise ValidationError("empty schedule")
    if any(n < lower for n in sched):
        raise ValidationError(
            "every N in the schedule must be >= %d" % lower
        )
    return sched


def _compound_report(kind, base, spec, model, schedule, order):
    """Rows base (x) projection_family(rates, N, order, model) along the
    schedule, against base moments times the coupling's rate: rates[0]
    under the equal coupling, rates[i] on a pure word of letter i and 0
    on a mixed word under the other two."""
    sched = _check_schedule(schedule, spec, model)
    tables = []
    for n in sched:
        proj = projection_family(spec.rates, n, order, model)
        row = base.tensor(proj, alphabet=base.alphabet)
        tables.append(array_cumulants(row, n, order))

    def target(w):
        if model == "equal":
            return base.moment(w) * spec.rates[0]
        if all(c == w[0] for c in w):
            return base.moment(w) * spec.rates[w[0] - 1]
        return Fraction(0)

    return _build_report(
        kind, sched, order, base.arity, tables, target, base.word_name
    )


def poisson_limit_check(rate, jump, schedule, order):
    """Sums of N free scaled projections against the free Poisson limit
    kappa_m = rate * jump^m, along the schedule of sizes: the compound
    rows over the point mass at the jump."""
    spec = PoissonSpec.of([rate], [jump])
    base = _constants_law(spec.jumps, order, ("x",))
    return _compound_report("poisson", base, spec, "equal", schedule, order)


def multi_poisson_limit_check(spec, model, schedule, order):
    """Row of jointly modeled projections, scaled by the jump sizes: the
    compound rows over the law of the jumps as commuting constants.  The
    equal coupling tends to rate * product of jumps, the orthogonal and
    free couplings kill every mixed word and give the one-variable limit
    on pure words."""
    if not isinstance(spec, PoissonSpec):
        raise StructuralError("spec must be a PoissonSpec")
    base = _constants_law(spec.jumps, order, _default_names("p", spec.size))
    return _compound_report(
        "multi_poisson[%s]" % model, base, spec, model, schedule, order
    )


def compound_limit_check(base, spec, model, schedule, order):
    """Rows pair base variables with projections letterwise, so every row
    moment factors; the limit cumulants are base moments scaled by the
    projection limit.  Jump sizes play no role here and must be 1."""
    if not isinstance(base, MomentFunctional):
        raise StructuralError("base must be a MomentFunctional")
    if not isinstance(spec, PoissonSpec):
        raise StructuralError("spec must be a PoissonSpec")
    if any(j != 1 for j in spec.jumps):
        raise ValidationError("compound rows take jumps through the base; use jumps of 1")
    if spec.size != base.arity:
        raise StructuralError(
            "spec size %d != base arity %d" % (spec.size, base.arity)
        )
    if order > base.order:
        raise ValidationError("order %d beyond base order %d" % (order, base.order))
    return _compound_report(
        "compound[%s]" % model, base, spec, model, schedule, order
    )


def sequence_limit_check(labeled_tables, target_cf, order=None):
    """Wordwise comparison of an arbitrary labeled sequence of cumulant
    tables against a target table."""
    pairs = list(labeled_tables)
    if not pairs:
        raise ValidationError("empty sequence")
    for _, cf in pairs:
        if not isinstance(cf, CumulantFunctional):
            raise StructuralError("sequence entries must be CumulantFunctional")
    if not isinstance(target_cf, CumulantFunctional):
        raise StructuralError("target must be a CumulantFunctional")
    if order is None:
        order = min(min(cf.order for _, cf in pairs), target_cf.order)
    arity = target_cf.arity
    for _, cf in pairs:
        if cf.arity != arity:
            raise StructuralError("arity mismatch in sequence")
    labels = [label for label, _ in pairs]
    tables = [cf for _, cf in pairs]
    return _build_report(
        "sequence",
        labels,
        order,
        arity,
        tables,
        lambda w: target_cf.cumulant(w),
        target_cf.word_name,
    )


@dataclass(frozen=True)
class PoissonApproximation:
    """Compound Poisson approximants j * (target dilated by 1/j) together
    with their wordwise cumulant errors and a positivity diagnostic of the
    dilated base at each j: whether the base is a state up to degree
    order // 2, its moment Gram with the empty word PSD (at order 1 the
    Gram of the empty word alone).  The base may legitimately fail
    positivity for small j; flagged, never refused."""

    schedule: tuple
    order: int
    approximants: tuple  # CumulantFunctional per j
    report: ConvergenceReport
    base_gram_psd: tuple  # bool per j

    def to_json_dict(self):
        out = self.report.to_json_dict()
        out["kind"] = "poisson_approximation"
        out["base_gram_psd"] = list(self.base_gram_psd)
        return out


def poisson_approximation(target_cf, schedule, order=None):
    """Approximate a cumulant functional by compound free Poisson laws:
    at level j the approximant has cumulants j * moments of the 1/j
    dilation of the target.  Length-one words are matched exactly at
    every j; higher words converge at rate 1/j."""
    if not isinstance(target_cf, CumulantFunctional):
        raise StructuralError("target must be a CumulantFunctional")
    if order is None:
        order = target_cf.order
    if order > target_cf.order:
        raise ValidationError("order %d beyond target order %d" % (order, target_cf.order))
    sched = [int(j) for j in schedule]
    if not sched or any(j < 1 for j in sched):
        raise ValidationError("schedule of j values must be positive")
    target = target_cf.truncate(order)
    approximants = []
    flags = []
    words = ((),) + tuple(iter_words_upto(target.arity, order // 2))
    for j in sched:
        base = cumulants_to_moments(dilate(target, Fraction(1, j)))
        approximants.append(compound_free_poisson_cumulants(Fraction(j), base))
        # the base's moment Gram, with phi(empty word) = 1
        rows, scale = _integer_hankel(base, base.arity, range(order // 2 + 1))
        flags.append(_eliminate(rows, scale, 0, _word_pairs(base, words, "phi")).psd)
    report = _build_report(
        "poisson_approximation",
        sched,
        order,
        target.arity,
        approximants,
        lambda w: target.cumulant(w),
        target.word_name,
    )
    return PoissonApproximation(
        schedule=tuple(sched),
        order=order,
        approximants=tuple(approximants),
        report=report,
        base_gram_psd=tuple(flags),
    )
