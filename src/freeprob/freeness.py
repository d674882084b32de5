"""Free independence as a property of cumulant tables.

Two families are free exactly when every mixed cumulant vanishes, so the
free product of moment functionals is built by transporting each family to
cumulants, filling every mixed word with zero, and transforming back.
``check_freeness`` runs the same characterization in reverse: it reports
the mixed words whose cumulant exceeds a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import StructuralError, ValidationError
from .functionals import (
    CumulantFunctional,
    MomentFunctional,
    as_scalar,
    cumulants_to_moments,
    iter_words_upto,
    moments_to_cumulants,
)


def free_product(families, order=None):
    """Joint moment functional of free families on the disjoint union of
    their alphabets.

    Cumulants of the result restrict to each family's cumulants on pure
    words and vanish on every mixed word; moments are recovered by the
    lattice sum.  Alphabet names must not collide.
    """
    families = list(families)
    if not families:
        raise ValidationError("free_product needs at least one family")
    for mf in families:
        if not isinstance(mf, MomentFunctional):
            raise StructuralError("free_product arguments must be MomentFunctional")
    if order is None:
        order = min(mf.order for mf in families)
    if order < 1 or order > min(mf.order for mf in families):
        raise ValidationError(
            "order %d not available from every family" % order
        )

    names = []
    for mf in families:
        names.extend(mf.alphabet)
    if len(set(names)) != len(names):
        raise StructuralError("alphabet collision between families: %r" % (names,))

    owner = []  # letter index in the union -> (family position, local letter)
    for fam, mf in enumerate(families):
        for c in range(1, mf.arity + 1):
            owner.append((fam, c))

    kappas = [moments_to_cumulants(mf.truncate(order)) for mf in families]

    zero = Fraction(0)
    table = {}
    for w in iter_words_upto(len(names), order):
        fam0, c0 = owner[w[0] - 1]
        local = [c0]
        pure = True
        for letter in w[1:]:
            fam, c = owner[letter - 1]
            if fam != fam0:
                pure = False
                break
            local.append(c)
        table[w] = kappas[fam0].cumulant(tuple(local)) if pure else zero
    joint = CumulantFunctional(tuple(names), order, table)
    return cumulants_to_moments(joint)


def _normalize_grouping(mf, grouping):
    """Grouping given as families of letter indices (1-based) or of
    variable names; must partition the alphabet."""
    groups = []
    for fam in grouping:
        idxs = []
        for member in fam:
            if isinstance(member, str):
                if member not in mf.alphabet:
                    raise StructuralError("unknown variable %r" % member)
                idxs.append(mf.alphabet.index(member) + 1)
            elif isinstance(member, int) and not isinstance(member, bool):
                if not 1 <= member <= mf.arity:
                    raise StructuralError("letter %d outside 1..%d" % (member, mf.arity))
                idxs.append(member)
            else:
                raise StructuralError("bad group member %r" % (member,))
        if not idxs:
            raise StructuralError("empty family in grouping")
        groups.append(tuple(idxs))
    flat = [c for g in groups for c in g]
    if sorted(flat) != list(range(1, mf.arity + 1)):
        raise StructuralError("grouping is not a partition of the alphabet")
    return tuple(groups)


@dataclass(frozen=True)
class FreenessReport:
    """Outcome of a vanishing-mixed-cumulant scan."""

    order: int
    tolerance: Fraction
    groups: tuple
    checked_words: int
    violations: tuple  # ((word, value), ...) sorted by canonical word order

    @property
    def passed(self):
        return not self.violations

    def max_violation(self):
        if not self.violations:
            return Fraction(0)
        return max(abs(v) for _, v in self.violations)

    def to_json_dict(self, mf=None):
        def wname(w):
            return mf.word_name(w) if mf is not None else " ".join(map(str, w))

        return {
            "order": self.order,
            "tolerance": str(self.tolerance),
            "groups": [list(g) for g in self.groups],
            "checked_words": self.checked_words,
            "passed": self.passed,
            "violations": [
                {"word": wname(w), "value": str(v)} for w, v in self.violations
            ],
        }


def check_freeness(mf, grouping, order=None, tolerance=0):
    """Scan every mixed word up to ``order`` for a non-vanishing cumulant.

    The grouping partitions the alphabet into families.  With exact input
    the default tolerance 0 makes the check exact; a single family passes
    vacuously because no word is mixed.
    """
    if not isinstance(mf, MomentFunctional):
        raise StructuralError("expected a MomentFunctional")
    if order is None:
        order = mf.order
    if order > mf.order:
        raise ValidationError("order %d beyond table order %d" % (order, mf.order))
    groups = _normalize_grouping(mf, grouping)
    tol = abs(as_scalar(tolerance))

    family_of = {}
    for fam, members in enumerate(groups):
        for c in members:
            family_of[c] = fam

    cf = moments_to_cumulants(mf.truncate(order))
    violations = []
    checked = 0
    for w in cf.words():
        fam0 = family_of[w[0]]
        if all(family_of[c] == fam0 for c in w[1:]):
            continue
        checked += 1
        value = cf.cumulant(w)
        if abs(value) > tol:
            violations.append((w, value))
    return FreenessReport(
        order=order,
        tolerance=tol,
        groups=groups,
        checked_words=checked,
        violations=tuple(violations),
    )
