"""Free independence as a property of cumulant tables.

Two families are free exactly when every mixed cumulant vanishes, so the
free product of moment functionals is built by transporting each family to
cumulants, filling every mixed word with zero, and transforming back.
``check_freeness`` runs the same characterization in reverse: it reports
the mixed words whose cumulant exceeds a tolerance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import StructuralError, ValidationError
from .functionals import (
    CumulantFunctional,
    MomentFunctional,
    as_scalar,
    cumulants_to_moments,
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

    kappas = [moments_to_cumulants(mf.truncate(order)) for mf in families]

    def joint_level(n):
        # each family's cumulants on its pure-word sub-block, zero elsewhere
        d = math.lcm(*(kf._dens[n] for kf in kappas))
        level = np.zeros((len(names),) * n, dtype=object)
        start = 0
        for kf in kappas:
            level[(slice(start, start + kf.arity),) * n] = kf._nums[n] * (d // kf._dens[n])
            start += kf.arity
        return level, d

    levels = map(joint_level, range(1, order + 1))
    return cumulants_to_moments(CumulantFunctional._trusted(tuple(names), order, levels))


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

    family = np.zeros(mf.arity, dtype=int)  # letter - 1 -> its family
    for fam, members in enumerate(groups):
        family[[c - 1 for c in members]] = fam

    cf = moments_to_cumulants(mf.truncate(order))
    violations = []
    checked = 0
    for n in range(1, order + 1):
        nums, d = cf._nums[n], cf._dens[n]
        # a word is mixed when its letters' families are not all one
        families = np.ix_(*[family] * n)
        mixed = functools.reduce(np.maximum, families) != functools.reduce(np.minimum, families)
        checked += int(mixed.sum())
        # |nums / d| > tol, in integers
        big = mixed & (np.abs(nums) * tol.denominator > tol.numerator * d)
        for i in np.flatnonzero(big).tolist():
            w = tuple(int(c) + 1 for c in np.unravel_index(i, nums.shape))
            violations.append((w, Fraction(nums.flat[i], d)))
    return FreenessReport(
        order=order,
        tolerance=tol,
        groups=groups,
        checked_words=checked,
        violations=tuple(violations),
    )
