"""Word-indexed moment and cumulant tables with exact rational values.

A functional on k non-commuting variables is a dense table mapping every
word of length 1..order over the alphabet {1..k} to a rational number.  The
empty word always evaluates to 1 and is not stored.  Values are
fractions.Fraction throughout; floats entering through ``as_scalar`` are
promoted to their exact binary rational, so no arithmetic here ever rounds.

The two transforms are inverse bijections between moment tables and
cumulant tables.  Both sum over the non-crossing partition lattice
organized by the block containing the first letter (Nica-Speicher,
*Lectures on the Combinatorics of Free Probability*, Lect. 11): with the
block's positions fixed, the rest of the partition falls into the
contiguous gaps the block leaves, so

    phi(w) = sum over blocks B containing position 1 of
             kappa(w|B) * product over the gaps G of B of phi(w|G).

One private kernel, ``_transform``, runs this recursion in both
directions.  Cumulants to moments adds every term; moments to cumulants
solves for kappa(w), the term with B the whole word, and subtracts the
others.

*Level broadcast.*  The words of length n form one numpy object array of
shape (k,)*n, the letter at position i on axis i.  For one split (B and
its gaps), the cumulant level of length |B| spread over the axes in B,
and each gap's moment level spread over its own axes, multiply by
broadcasting into a full level.  The product is then added to or
subtracted from level n, so each split costs a few array operations for
all k**n words at once.  With one letter every level is a single word,
held as a plain int: there the array calls would cost more than the
arithmetic.

*Graded integers.*  The recursion is homogeneous in word length: the
block and gap lengths of a split add up to n.  Each level is therefore
held as integers over one common denominator d_n, and divided by it
once at the end.  That avoids the gcd and the object churn of every
Fraction operation.  On the given side d_n is the lcm of the level's
denominators.  On the derived side it is the lcm of d_n of the given
level and of every split's product of its block's and gaps' d_n; where
that product is a proper divisor of d_n, the block level is scaled up
by the quotient first.  Every d_n divides D**n for any D that makes
each v * D**|w| an integer, so the graded integers are never longer
than under one table-wide D.  They are often much shorter:
pairwise-coprime denominators do not pile up across levels, and the
denominators that grow with word length in the tables the kernel
returns need no factoring to grade well.

The literal one-word lattice sums, ``cumulant_mobius_sum`` and
``moment_lattice_sum``, are kept as an independent slow route, and the
test suite checks the two routes against each other.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CapacityError, DomainError, StructuralError, ValidationError
from .partitions import NcPartition, enumerate_nc, full, mobius

Scalar = Fraction


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


class _WordTable:
    """Shared behaviour of moment and cumulant tables."""

    def __init__(self, alphabet, order, table):
        self.alphabet = _check_alphabet(alphabet)
        if order < 1:
            raise ValidationError("order must be >= 1")
        self.order = order
        k = len(self.alphabet)
        data = {}
        for word, value in table.items():
            w = tuple(word)
            if not 1 <= len(w) <= order:
                raise StructuralError("word %r has bad length" % (w,))
            if any(not 1 <= c <= k for c in w):
                raise StructuralError("word %r uses letters outside 1..%d" % (w, k))
            data[w] = as_scalar(value)
        expected = 0
        for n in range(1, order + 1):
            expected += k**n
        if len(data) != expected:
            raise ValidationError(
                "table is not total: %d entries, need %d" % (len(data), expected)
            )
        self._table = data

    @classmethod
    def _trusted(cls, alphabet, order, table):
        # internal: alphabet is checked, order >= 1, and table maps every
        # word of length 1..order to a Fraction, as _transform returns it
        self = object.__new__(cls)
        self.alphabet = alphabet
        self.order = order
        self._table = table
        return self

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

    def _lookup(self, word):
        w = tuple(word)
        if len(w) > self.order:
            raise CapacityError(
                "word of length %d beyond order cap %d" % (len(w), self.order)
            )
        try:
            return self._table[w]
        except KeyError:
            raise StructuralError("word %r not over alphabet 1..%d" % (w, self.arity))

    def _level(self, n):
        """The words of length n in canonical order, as an object array of
        shape (k,)*n with the letter at position i on axis i."""
        if n > self.order:
            raise CapacityError(
                "word of length %d beyond order cap %d" % (n, self.order)
            )
        values = (self._table[w] for w in iter_words(self.arity, n))
        out = np.fromiter(values, dtype=object, count=self.arity**n)
        return out.reshape((self.arity,) * n)

    def words(self, length=None):
        """Stored words in canonical order (by length, then lexicographic)."""
        if length is not None:
            return iter_words(self.arity, length)
        return iter_words_upto(self.arity, self.order)

    def word_name(self, word):
        return " ".join(self.alphabet[c - 1] for c in word)

    def items(self):
        for w in self.words():
            yield w, self._table[w]

    def _map_values(self, fn):
        return {w: fn(w, v) for w, v in self._table.items()}

    def relabel(self, alphabet):
        """Same table under new variable names."""
        return type(self)(alphabet, self.order, self._table)

    def truncate(self, order):
        """Drop words longer than ``order``."""
        if order > self.order:
            raise ValidationError("cannot truncate %d up to %d" % (self.order, order))
        table = {w: v for w, v in self._table.items() if len(w) <= order}
        return type(self)(self.alphabet, order, table)

    def restrict(self, letters):
        """Sub-table on a subset of letters (1-based indices), which become
        letters 1..len(letters) of the result in the given order."""
        letters = tuple(letters)
        if len(set(letters)) != len(letters):
            raise StructuralError("repeated letter in restriction")
        if any(not 1 <= c <= self.arity for c in letters):
            raise StructuralError("restriction letter outside 1..%d" % self.arity)
        names = tuple(self.alphabet[c - 1] for c in letters)
        table = {}
        for w in iter_words_upto(len(letters), self.order):
            table[w] = self._table[tuple(letters[c - 1] for c in w)]
        return type(self)(names, self.order, table)

    def scale_letters(self, factors):
        """Rescale variable i by factors[i-1]: each word picks up the
        product of the factors of its letters."""
        fs = [as_scalar(f) for f in factors]
        if len(fs) != self.arity:
            raise ValidationError("need %d factors" % self.arity)

        def scaled(w, v):
            out = v
            for c in w:
                out *= fs[c - 1]
            return out

        return type(self)(self.alphabet, self.order, self._map_values(scaled))

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.alphabet == other.alphabet
            and self.order == other.order
            and self._table == other._table
        )

    def __repr__(self):
        return "%s(alphabet=%r, order=%d, %d entries)" % (
            type(self).__name__,
            self.alphabet,
            self.order,
            len(self._table),
        )


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
        return all(v == self._table[w[::-1]] for w, v in self._table.items())

    def is_tracial(self):
        """True when moments are invariant under cyclic rotation."""
        for w, v in self._table.items():
            for r in range(1, len(w)):
                if self._table[w[r:] + w[:r]] != v:
                    return False
        return True

    def tensor(self, other, alphabet=None):
        """Letterwise product state: variable i of the result pairs
        variable i of self with variable i of other, and every joint
        moment factors as the product of the two coordinate moments."""
        if not isinstance(other, MomentFunctional):
            raise StructuralError("tensor needs a MomentFunctional")
        if other.arity != self.arity:
            raise StructuralError("tensor factors must have equal arity")
        order = min(self.order, other.order)
        if alphabet is None:
            alphabet = tuple(
                "%s*%s" % (a, b) for a, b in zip(self.alphabet, other.alphabet)
            )
        table = {
            w: self._table[w] * other._table[w]
            for w in iter_words_upto(self.arity, order)
        }
        return MomentFunctional(alphabet, order, table)


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


@lru_cache(maxsize=None)
def _first_block_splits(n):
    """Every subset of positions {0..n-1} containing 0, with the contiguous
    gaps it leaves.  Summing over these splits is summing over NC(n)
    grouped by the block of the first position."""
    splits = []
    for mask in range(2 ** (n - 1)):
        block = [0]
        for j in range(1, n):
            if mask >> (j - 1) & 1:
                block.append(j)
        ext = block + [n]
        gaps = tuple((a + 1, b) for a, b in zip(ext, ext[1:]) if b - a > 1)
        splits.append((tuple(block), gaps))
    return tuple(splits)


def _level_array(values, k, n):
    """One word level as an object array of shape (k,)*n, with the letter
    at position i on axis i; None when every value is zero.  A
    one-letter alphabet has one word per level, held as the int itself."""
    if not any(values):
        return None
    if k == 1:
        return values[0]
    return np.fromiter(values, dtype=object, count=len(values)).reshape((k,) * n)


def _spread(level, axes, n, k):
    """A level laid along the given axes of an n-axis array, size 1 on
    the others, so that factors on disjoint axes multiply by
    broadcasting into one word level."""
    if k == 1:
        return level
    shape = [1] * n
    for i in axes:
        shape[i] = k
    return level.reshape(shape)


def _transform(table, to_cumulants):
    """The first-block recursion in either direction, a word level at a
    time, on integers graded by one denominator per level.

    ``table`` is the given side: moments when ``to_cumulants``, else
    cumulants.  Returns the other side as a word -> Fraction dict.
    """
    k, order = table.arity, table.order
    given, given_den = [None], [1]
    for n in range(1, order + 1):
        values = table._level(n).ravel().tolist()
        d = math.lcm(*{v.denominator for v in values})
        given_den.append(d)
        graded = [v.numerator * (d // v.denominator) for v in values]
        given.append(_level_array(graded, k, n))
    derived, derived_den = [None], [1]
    # the block of a split is a cumulant, each gap a moment
    blocks, gaps = (derived, given) if to_cumulants else (given, derived)
    block_den, gap_den = (
        (derived_den, given_den) if to_cumulants else (given_den, derived_den)
    )
    for n in range(1, order + 1):
        terms = []
        for block, split_gaps in _first_block_splits(n):
            if len(block) == n:
                continue  # the given entry itself
            lengths = [b - a for a, b in split_gaps]
            if blocks[len(block)] is None or any(gaps[m] is None for m in lengths):
                continue
            den = block_den[len(block)]
            for m in lengths:
                den *= gap_den[m]
            terms.append((block, split_gaps, den))
        d = math.lcm(given_den[n], *(den for _, _, den in terms))
        level = 0 if given[n] is None else given[n] * (d // given_den[n])
        for block, split_gaps, den in terms:
            block_level = blocks[len(block)]
            if den != d:
                block_level = block_level * (d // den)
            term = _spread(block_level, block, n, k)
            for a, b in split_gaps:
                term = term * _spread(gaps[b - a], range(a, b), n, k)
            if to_cumulants:
                level -= term
            else:
                level += term
        nonzero = level.any() if isinstance(level, np.ndarray) else level != 0
        derived.append(level if nonzero else None)
        derived_den.append(d)
    out = {}
    for n in range(1, order + 1):
        words = iter_words(k, n)
        if derived[n] is None:
            out.update((w, Fraction(0)) for w in words)
            continue
        d = derived_den[n]
        values = derived[n].ravel().tolist() if k > 1 else [derived[n]]
        out.update(zip(words, (Fraction(v, d) for v in values)))
    return out


def moments_to_cumulants(mf):
    """Invert the moment table into the cumulant table.

    kappa(w) is the Mobius-weighted lattice sum over NC(|w|); it is
    evaluated through the equivalent first-block recursion so that every
    factor is a finished table entry.  Exact.
    """
    if not isinstance(mf, MomentFunctional):
        raise StructuralError("expected a MomentFunctional")
    kappa = _transform(mf, True)
    return CumulantFunctional._trusted(mf.alphabet, mf.order, kappa)


def cumulants_to_moments(cf):
    """Rebuild the moment table as the lattice sum of block cumulant
    products, organized by the block of the first letter.  Exact inverse
    of moments_to_cumulants."""
    if not isinstance(cf, CumulantFunctional):
        raise StructuralError("expected a CumulantFunctional")
    phi = _transform(cf, False)
    return MomentFunctional._trusted(cf.alphabet, cf.order, phi)


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
