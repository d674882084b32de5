"""Word-indexed moment and cumulant tables with exact rational values.

A functional on k non-commuting variables is a dense table mapping every
word of length 1..order over the alphabet {1..k} to a rational number.  The
empty word always evaluates to 1 and is not stored.  Values are
fractions.Fraction throughout; floats entering through ``as_scalar`` are
promoted to their exact binary rational, so no arithmetic here ever rounds.

*Storage.*  The words of length n form level n, an array of shape (k,)*n
with the letter at position i on axis i, so C order is word order.  A
table stores each level as a read-only numpy object array of Python ints
over one denominator d_n, divided by their gcd: d_n is then the lcm of
the reduced denominators of the level's entries, the form is unique, and
``==`` compares levels.  The public constructor validates a word -> value
mapping and grades it; every other table is built from levels.  Tables
are immutable and share levels.  Per-word reads (``moment``,
``cumulant``, ``items``) go through a word -> Fraction dict built on the
first read and kept; ``_table`` is a read-only view of it whose ``len``
builds nothing.

The two transforms are inverse bijections between moment tables and
cumulant tables.  Both sum over the non-crossing partition lattice
organized by the block containing the first letter (Nica-Speicher,
*Lectures on the Combinatorics of Free Probability*, Lect. 11): with the
block's positions fixed, the rest of the partition falls into the
contiguous gaps the block leaves, so

    phi(w) = sum over blocks B containing position 1 of
             kappa(w|B) * product over the gaps G of B of phi(w|G).

One private kernel, ``_transform``, runs this recursion in both
directions, sharing work between levels through the functional equation
M = 1 + sum of kappa(c_1..c_s) x_{c_1} M ... x_{c_s} M (Speicher, *Math.
Ann.* 298, 1994).  The pending-block state S[n][p] sums the terms of
level n whose block holds positions 0..p, the gap after p still open:
either p + 1 joins the block, or a gap of length g follows p, so

    S[n][p] = S[n][p+1] + sum over g = 1..n-p-1 of S[n-g][p+1] * phi_g,

with phi_g on positions p+1..p+g, S[n][n] = S[n][n-1] = kappa_n and
S[n][0] = phi_n.  Moments to cumulants runs the sums without kappa_n and
solves for it.

*Level broadcast.*  A state on the axes outside a gap times a moment
level on the gap's axes multiply by broadcasting into a full level: level
n takes n(n-1)/2 such products over all k**n words at once, not up to
2**(n-1) - 1 first-block splits.  The states of every level are kept, so
the working set is about order times one table.

*Graded integers.*  The recursion is homogeneous in word length, so the
kernel works on the stored integers and reduces each derived level once
at the end, with no Fraction operation.  A state is kept over the lcm of
its terms' products of block and gap d_n, over the terms whose factors
are all nonzero; the derived d_n is the lcm of the given level's d_n and
of d(state) * d_g over the pairs of level n, which is the lcm over the
nonzero first-block splits (the test suite checks the two).  Every d_n
divides D**n for any D that makes each v * D**|w| an integer, and
pairwise-coprime denominators do not pile up across levels.

The literal one-word lattice sums, ``cumulant_mobius_sum`` and
``moment_lattice_sum``, are kept as an independent slow route, and the
test suite checks the two routes against each other.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Mapping
from fractions import Fraction

import numpy as np

from .errors import CapacityError, DomainError, StructuralError, ValidationError
from .partitions import NcPartition, enumerate_nc, full, mobius

def as_scalar(x):
    """Coerce to an exact Fraction.

    Accepts Fraction, int, strings like "3/2" or "-7", and floats (which
    convert to their exact binary value, a one-way promotion).
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ValidationError("booleans are not scalars")
    if isinstance(x, (int, str, float)):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError("bad scalar %r: %s" % (x, exc)) from None
    raise ValidationError("cannot interpret %r as an exact scalar" % (x,))


def iter_words(k, length):
    """All words of the given length over letters 1..k, lexicographic."""
    return itertools.product(range(1, k + 1), repeat=length)


def iter_words_upto(k, order):
    """All words of length 1..order, shortest first, lexicographic within
    a length."""
    for n in range(1, order + 1):
        yield from iter_words(k, n)


def _check_alphabet(alphabet):
    names = tuple(alphabet)
    if not names:
        raise StructuralError("alphabet must not be empty")
    for name in names:
        if not isinstance(name, str) or not name or any(c.isspace() for c in name):
            raise StructuralError("bad variable name %r" % (name,))
    if len(set(names)) != len(names):
        raise StructuralError("alphabet has repeated names: %r" % (names,))
    return names


def _check_order(order):
    if not isinstance(order, int) or isinstance(order, bool):
        raise ValidationError("order must be an int, got %r" % (order,))
    if order < 1:
        raise ValidationError("order must be >= 1")
    return order


def _reduced(nums, d):
    """One level's integers and denominator divided by their gcd, and the
    array made read-only: d is the lcm of the entries' reduced denominators."""
    g = math.gcd(d, *nums.ravel().tolist())
    if g > 1:
        nums, d = nums // g, d // g
    nums.flags.writeable = False
    return nums, d


def _letter_levels(factors, order):
    """(integers, denominator) of levels 1..order of the table whose value
    at w is the product of factors[c - 1] over the letters c of w."""
    q = math.lcm(*(f.denominator for f in factors))
    p = np.array([f.numerator * (q // f.denominator) for f in factors], dtype=object)
    for n in range(1, order + 1):
        yield functools.reduce(operator.mul, np.ix_(*[p] * n)), q**n


class _TableView(Mapping):
    """Read-only word -> Fraction view of a table; ``len`` reads no entry."""

    def __init__(self, owner):
        self._owner = owner

    def __len__(self):
        return sum(self._owner.arity**n for n in range(1, self._owner.order + 1))

    def __iter__(self):
        return self._owner.words()

    def __getitem__(self, word):
        return self._owner._values[word]


class _WordTable:
    """Shared behaviour of moment and cumulant tables."""

    def __init__(self, alphabet, order, table):
        self.alphabet = _check_alphabet(alphabet)
        self.order = _check_order(order)
        k = len(self.alphabet)
        data = {tuple(w): as_scalar(v) for w, v in table.items()}
        # whole-table checks; the loops only name the first bad word
        if not set(map(len, data)) <= set(range(1, order + 1)):
            bad = next(w for w in data if not 1 <= len(w) <= order)
            raise StructuralError("word %r has bad length" % (bad,))
        letters = list(itertools.chain.from_iterable(data))
        if not set(map(type, letters)) <= {int} or not set(letters) <= set(range(1, k + 1)):
            bad = next(w for w in data if not all(type(c) is int and 0 < c <= k for c in w))
            raise StructuralError("word %r uses letters outside 1..%d" % (bad, k))
        expected = sum(k**n for n in range(1, order + 1))
        if len(data) != expected:
            raise ValidationError(
                "table is not total: %d entries, need %d" % (len(data), expected)
            )
        self._values = data

        def level(n):  # one lcm pass
            pairs = [data[w].as_integer_ratio() for w in iter_words(k, n)]
            d = math.lcm(*(q for _, q in pairs))
            graded = [p * (d // q) for p, q in pairs]
            return np.array(graded, dtype=object).reshape((k,) * n), d

        self._set_levels(map(level, range(1, order + 1)))

    @classmethod
    def _trusted(cls, alphabet, order, levels):
        # internal: the levels are trusted, as the kernel returns them
        self = object.__new__(cls)
        self.alphabet, self.order = _check_alphabet(alphabet), _check_order(order)
        self._set_levels(levels)
        return self

    def _set_levels(self, levels):
        # levels yields (integer array of shape (k,)*n, denominator), n = 1..order
        reduced = [(None, 1)] + [_reduced(level, d) for level, d in levels]
        self._nums, self._dens = map(tuple, zip(*reduced))

    @classmethod
    def from_function(cls, alphabet, order, fn):
        """Build a total table by evaluating ``fn(word)`` on every word."""
        names = _check_alphabet(alphabet)
        k = len(names)
        table = {w: fn(w) for w in iter_words_upto(k, order)}
        return cls(names, order, table)

    @property
    def arity(self):
        return len(self.alphabet)

    @functools.cached_property
    def _values(self):
        # word -> Fraction, built on the first per-word read
        levels = self._graded(self.order)
        values = (Fraction(v, d) for lv, d in levels for v in lv.ravel().tolist())
        return dict(zip(self.words(), values))

    @property
    def _table(self):
        return _TableView(self)

    def _lookup(self, word):
        w = tuple(word)
        if len(w) > self.order:
            raise CapacityError(
                "word of length %d beyond order cap %d" % (len(w), self.order)
            )
        try:
            return self._values[w]
        except KeyError:
            raise StructuralError("word %r not over alphabet 1..%d" % (w, self.arity))

    def _level(self, n):
        """The words of length n in canonical order, as an object array of
        shape (k,)*n with the letter at position i on axis i."""
        if n > self.order:
            raise CapacityError(
                "word of length %d beyond order cap %d" % (n, self.order)
            )
        values = (self._values[w] for w in iter_words(self.arity, n))
        out = np.fromiter(values, dtype=object, count=self.arity**n)
        return out.reshape((self.arity,) * n)

    def _graded(self, order):
        # the stored (integers, denominator) of levels 1..order, shared
        return zip(self._nums[1 : order + 1], self._dens[1 : order + 1])

    def _float_level(self, n):
        """Level n as floats.  Python's int / int is correctly rounded, as
        is Fraction.__float__, so the common denominator changes no bit."""
        return (self._nums[n] / self._dens[n]).astype(float)

    def words(self, length=None):
        """Stored words in canonical order (by length, then lexicographic)."""
        if length is not None:
            return iter_words(self.arity, length)
        return iter_words_upto(self.arity, self.order)

    def word_name(self, word):
        return " ".join(self.alphabet[c - 1] for c in word)

    def items(self):
        values = self._values
        for w in self.words():
            yield w, values[w]

    def relabel(self, alphabet):
        """Same table under new variable names."""
        out = type(self)._trusted(alphabet, self.order, self._graded(self.order))
        if out.arity != self.arity:
            raise StructuralError("need %d names, got %d" % (self.arity, out.arity))
        return out

    def truncate(self, order):
        """Drop words longer than ``order``."""
        if _check_order(order) > self.order:
            raise ValidationError("cannot truncate %d up to %d" % (self.order, order))
        if order == self.order:
            return self
        return type(self)._trusted(self.alphabet, order, self._graded(order))

    def restrict(self, letters):
        """Sub-table on a subset of letters (1-based indices), which become
        letters 1..len(letters) of the result in the given order."""
        letters = tuple(letters)
        if len(set(letters)) != len(letters):
            raise StructuralError("repeated letter in restriction")
        if not all(type(c) is int and 1 <= c <= self.arity for c in letters):
            raise StructuralError("restriction letter outside 1..%d" % self.arity)
        names = tuple(self.alphabet[c - 1] for c in letters)
        idx = [c - 1 for c in letters]
        return type(self)._trusted(names, self.order, (
            (self._nums[n][np.ix_(*[idx] * n)], self._dens[n])
            for n in range(1, self.order + 1)
        ))

    def scale_letters(self, factors):
        """Rescale variable i by factors[i-1]: each word picks up the
        product of the factors of its letters."""
        fs = [as_scalar(f) for f in factors]
        if len(fs) != self.arity:
            raise ValidationError("need %d factors" % self.arity)
        pairs = zip(self._graded(self.order), _letter_levels(fs, self.order))
        levels = ((lv * f, d * q) for (lv, d), (f, q) in pairs)
        return type(self)._trusted(self.alphabet, self.order, levels)

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.alphabet == other.alphabet
            and self.order == other.order
            and self._dens == other._dens
            and all(map(np.array_equal, self._nums[1:], other._nums[1:]))
        )

    def __repr__(self):
        return "%s(alphabet=%r, order=%d, %d entries)" % (
            type(self).__name__,
            self.alphabet,
            self.order,
            len(self._table),
        )


def _scaled(table, factor, cls):
    """``table`` times the rational ``factor`` on every word, as a ``cls``."""
    p, q = factor.numerator, factor.denominator
    levels = ((lv * p, d * q) for lv, d in table._graded(table.order))
    return cls._trusted(table.alphabet, table.order, levels)


class MomentFunctional(_WordTable):
    """Dense table of joint moments; the empty word evaluates to 1."""

    def moment(self, word):
        if len(tuple(word)) == 0:
            return Fraction(1)
        return self._lookup(word)

    def is_symmetric(self):
        """True when every moment equals the moment of the reversed word.
        With real scalars this is the self-adjointness check; it is
        reported, never enforced."""
        return all(np.array_equal(lv, lv.T) for lv in self._nums[1:])

    def is_tracial(self):
        """True when moments are invariant under cyclic rotation."""
        return all(np.array_equal(lv, np.moveaxis(lv, 0, -1)) for lv in self._nums[1:])

    def tensor(self, other, alphabet=None):
        """Letterwise product state: variable i of the result pairs
        variable i of self with variable i of other, and every joint
        moment factors as the product of the two coordinate moments."""
        if not isinstance(other, MomentFunctional):
            raise StructuralError("tensor needs a MomentFunctional")
        if other.arity != self.arity:
            raise StructuralError("tensor factors must have equal arity")
        order = min(self.order, other.order)
        names = tuple("%s*%s" % (a, b) for a, b in zip(self.alphabet, other.alphabet))
        pairs = zip(self._graded(order), other._graded(order))
        levels = ((a * b, da * db) for (a, da), (b, db) in pairs)
        out = MomentFunctional._trusted(names, order, levels)
        return out if alphabet is None else out.relabel(alphabet)


class CumulantFunctional(_WordTable):
    """Dense table of joint free cumulants."""

    def cumulant(self, word):
        if len(tuple(word)) == 0:
            raise DomainError("cumulant of the empty word is undefined")
        return self._lookup(word)


def _block_product(value, word, partition):
    """Product over the blocks of a non-crossing partition of ``value``
    on the corresponding subwords."""
    w = tuple(word)
    if not isinstance(partition, NcPartition) or partition.n != len(w):
        raise StructuralError("partition does not match word length %d" % len(w))
    out = Fraction(1)
    for block in partition.blocks:
        out *= value(tuple(w[i - 1] for i in block))
        if not out:
            return out
    return out


def block_moment_product(mf, word, partition):
    """Product over the blocks of a non-crossing partition of the moments
    of the corresponding subwords."""
    return _block_product(mf.moment, word, partition)


def block_cumulant_product(cf, word, partition):
    """Product over the blocks of a non-crossing partition of the
    cumulants of the corresponding subwords."""
    return _block_product(cf.cumulant, word, partition)


def _nonzero(x):
    """A level or state, or None when it is the int 0 or all zero (any()
    over .flat stops at the first nonzero entry)."""
    return x if isinstance(x, np.ndarray) and any(x.flat) else None


def _state(level, den, d):
    """(level over den, den) for integers over d whose values have
    denominators dividing den, a divisor of d; (None, den) when zero."""
    if _nonzero(level) is None:
        return None, den
    return (level if den == d else level // (d // den)), den


def _transform(table, to_cumulants):
    """The pending-block recursion in either direction, a word level at a
    time, on graded integers.  ``table`` is the given side: moments when
    ``to_cumulants``, else cumulants.  Yields the other side's levels as
    (integers, denominator) pairs, n = 1..order.  Level n costs n(n-1)/2
    broadcast products; the states of every level are kept, about order
    times one table."""
    k, order = table.arity, table.order
    given = [None] + [_nonzero(lv) for lv in table._nums[1:]]
    given_den = table._dens
    phi, phi_den = (given, given_den) if to_cumulants else ([None], [1])
    # states[m][q] = (S[m][q] or None when zero, its denominator), q >= 1;
    # the denominator is None when no term of S[m][q] has all factors nonzero
    states = [None]
    for n in range(1, order + 1):
        # the pairs of a state with terms and a nonzero gap, p descending
        pairs = [
            (p, g, state, gap, state_den * phi_den[g])
            for p in range(n - 2, -1, -1)
            for g in range(1, n - p)
            for (state, state_den), gap in [(states[n - g][p + 1], phi[g])]
            if state_den is not None and gap is not None
        ]
        d = math.lcm(given_den[n], *(pair[4] for pair in pairs))
        own = 0 if given[n] is None else given[n] * (d // given_den[n])
        # sums[p] = S[n][p] over d and dens[p] its denominator, kappa_n left
        # out until it is known: running sums once every p' >= p is in
        acc, acc_den = (0 if to_cumulants else own), None
        sums, dens = [acc] * (n + 1), [None] * (n + 1)
        for p, g, state, gap, pair_den in pairs:
            acc_den = math.lcm(acc_den or 1, pair_den)
            if state is not None:  # a zero state still counts in the lcm
                if pair_den != d:
                    gap = gap * (d // pair_den)
                # the state on axes 0..p and after the gap, the gap on axes
                # p+1..p+g (broadcasting aligns the last axes)
                after = n - p - 1 - g
                left = state.reshape((k,) * (p + 1) + (1,) * g + (k,) * after)
                acc = acc + left * gap.reshape((k,) * g + (1,) * after)
            sums[: p + 1] = [acc] * (p + 1)
            dens[: p + 1] = [acc_den] * (p + 1)
        if to_cumulants:
            out = own - sums[0]
            sums[1 : n - 1] = [s + out for s in sums[1 : n - 1]]
            sums[n - 1] = sums[n] = kappa = out
            kappa_den = d
        else:
            out = sums[0]
            phi.append(_nonzero(out))
            phi_den.append(d)
            kappa, kappa_den = own, given_den[n]
        if _nonzero(kappa) is not None:
            dens = [math.lcm(e or 1, kappa_den) for e in dens]
        states.append([None] + [_state(s, e, d) for s, e in zip(sums[1:], dens[1:])])
        if not isinstance(out, np.ndarray):
            out = np.full((k,) * n, out, dtype=object)
        yield out, d


def moments_to_cumulants(mf):
    """Invert the moment table into the cumulant table.

    kappa(w) is the Mobius-weighted lattice sum over NC(|w|); it is
    evaluated through the equivalent pending-block recursion so that
    every factor is a finished table entry.  Exact.
    """
    if not isinstance(mf, MomentFunctional):
        raise StructuralError("expected a MomentFunctional")
    return CumulantFunctional._trusted(mf.alphabet, mf.order, _transform(mf, True))


def cumulants_to_moments(cf):
    """Rebuild the moment table as the lattice sum of block cumulant
    products, organized by the block of the first letter.  Exact inverse
    of moments_to_cumulants."""
    if not isinstance(cf, CumulantFunctional):
        raise StructuralError("expected a CumulantFunctional")
    return MomentFunctional._trusted(cf.alphabet, cf.order, _transform(cf, False))


def cumulant_mobius_sum(mf, word):
    """One cumulant as the literal Mobius-weighted sum of partitioned
    moments over the whole lattice.  Slow reference route."""
    w = tuple(word)
    n = len(w)
    if n < 1:
        raise DomainError("cumulant of the empty word is undefined")
    top = full(n)
    acc = Fraction(0)
    for p in enumerate_nc(n):
        acc += block_moment_product(mf, w, p) * mobius(p, top)
    return acc


def moment_lattice_sum(cf, word):
    """One moment as the literal sum of block cumulant products over the
    whole lattice.  Slow reference route."""
    w = tuple(word)
    if len(w) == 0:
        return Fraction(1)
    acc = Fraction(0)
    for p in enumerate_nc(len(w)):
        acc += block_cumulant_product(cf, w, p)
    return acc
