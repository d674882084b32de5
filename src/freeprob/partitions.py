"""The lattice of non-crossing partitions of {1, ..., n}.

A partition is stored canonically: blocks ordered by their minimum, elements
ascending inside each block.  The partial order is refinement, the join is
the non-crossing closure of the set-partition join, and the Mobius function
is Kreweras's product formula: mu(p, q) multiplies one signed Catalan number
per block of the relative Kreweras complement of p in q, read off the cycles
of one permutation in a single pass.  All values are exact integers.

Every listing is one pruned merge search over the blocks of a partition,
whose cost follows the answer: an interval [p, q] is the non-crossing merges
of p's blocks inside q's blocks, and NC(n) itself is [0_n, 1_n].  No
crossing candidate is ever generated, so no filtering step is involved.
Each NC(n) is listed once and stored.
"""

from __future__ import annotations

import bisect
from collections import Counter
from functools import lru_cache
from math import comb

from .errors import CapacityError, DomainError, StructuralError, ValidationError

# Listings refuse to grow beyond NC(ORDER_CAP), which has ~9.7e6 elements.
ORDER_CAP = 15

Blocks = tuple  # tuple[tuple[int, ...], ...] in canonical form


def catalan_number(m):
    """Number of non-crossing partitions of an m-element set."""
    if m < 0:
        raise DomainError("catalan_number needs m >= 0")
    return comb(2 * m, m) // (m + 1)


def _check_order(n):
    # a bool would share a cache key with 0 or 1 and leak into its listing
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValidationError("n must be an integer, got %r" % (n,))
    if n < 0:
        raise DomainError("n must be >= 0, got %d" % n)


def _check_merges(counts):
    """Refuse a merge search over groups of ``counts`` blocks that could list
    more than NC(ORDER_CAP), before it starts: the guard of ``interval`` and
    ``enumerate_nc``, the two callers that list.  Ordered by their minima, b
    blocks merge into distinct members of NC(b) on their indices (a crossing
    of indices would cross the merged blocks), so a group of b blocks has at
    most Catalan(b) merges and the search at most their product."""
    cap = catalan_number(ORDER_CAP)
    bound = 1
    for b in counts:
        bound *= catalan_number(min(b, ORDER_CAP + 1))
        if bound > cap:
            raise CapacityError(
                "listing may exceed the cap of %d partitions, |NC(%d)|"
                % (cap, ORDER_CAP)
            )


def _canonical_blocks(n, blocks):
    """Validate that ``blocks`` is a set partition of {1..n}; return it in
    canonical form.  Raises StructuralError otherwise."""
    seen = set()
    canon = []
    for block in blocks:
        b = tuple(sorted(block))
        if not b:
            raise StructuralError("empty block")
        for x in b:
            if not isinstance(x, int) or isinstance(x, bool):
                raise StructuralError("block elements must be integers, got %r" % (x,))
            if x < 1 or x > n:
                raise StructuralError("element %r outside 1..%d" % (x, n))
            if x in seen:
                raise StructuralError("element %d appears in two blocks" % x)
            seen.add(x)
        canon.append(b)
    if len(seen) != n:
        first = next(x for x in range(1, n + 1) if x not in seen)  # <= len(seen) + 1 steps
        message = "not a partition of 1..%d: %d missing, the first %d"
        raise StructuralError(message % (n, n - len(seen), first))
    canon.sort(key=lambda b: b[0])
    return tuple(canon)


def _block_index(n, blocks):
    """Array mapping position i (1-based) to the index of its block."""
    idx = [0] * (n + 1)
    for j, block in enumerate(blocks):
        for x in block:
            idx[x] = j
    return idx


def _find_crossing_pair(n, blocks):
    # Stack scan: walking left to right, a block may only resume while it is
    # the innermost open one.  Linear in n once the block index is built.
    idx = _block_index(n, blocks)
    remaining = [len(b) for b in blocks]
    stack = []
    opened = [False] * len(blocks)
    for pos in range(1, n + 1):
        b = idx[pos]
        if opened[b]:
            if stack[-1] != b:
                return (min(b, stack[-1]), max(b, stack[-1]))
        else:
            opened[b] = True
            stack.append(b)
        remaining[b] -= 1
        while stack and remaining[stack[-1]] == 0:
            stack.pop()
    return None


def is_noncrossing(blocks):
    """True when the given set partition has no crossing pair of blocks.

    ``blocks`` must be a valid set partition of {1..n} where n is the total
    number of elements; anything else raises StructuralError.
    """
    n = sum(len(tuple(b)) for b in blocks)
    canon = _canonical_blocks(n, blocks)
    return _find_crossing_pair(n, canon) is None


class NcPartition:
    """A non-crossing partition of {1, ..., n}.

    Immutable and hashable; the constructor canonicalizes and rejects
    crossing or malformed block families.
    """

    __slots__ = ("n", "blocks")

    def __init__(self, n, blocks):
        _check_order(n)
        canon = _canonical_blocks(n, blocks)
        if _find_crossing_pair(n, canon) is not None:
            raise StructuralError("crossing blocks: %r" % (canon,))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", canon)

    @classmethod
    def _trusted(cls, n, canon):
        # internal: canon is already canonical and non-crossing
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", canon)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("NcPartition is immutable")

    def num_blocks(self):
        return len(self.blocks)

    def __eq__(self, other):
        return (
            isinstance(other, NcPartition)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __lt__(self, other):
        # canonical serialization order, used for deterministic listings
        return (self.n, self.blocks) < (other.n, other.blocks)

    def __repr__(self):
        return "NcPartition(%d, %r)" % (self.n, self.blocks)

    def __str__(self):
        return "|".join(" ".join(str(x) for x in b) for b in self.blocks)


def singletons(n):
    """The minimum of NC(n): every point alone."""
    _check_order(n)
    return NcPartition._trusted(n, tuple((i,) for i in range(1, n + 1)))


def full(n):
    """The maximum of NC(n): one block (no block for n = 0)."""
    _check_order(n)
    return NcPartition._trusted(n, (tuple(range(1, n + 1)),) if n else ())


@lru_cache(maxsize=None)
def _nc_partitions(n):
    # NC(n) is the interval [0_n, 1_n]: every merge of the n singletons
    rhos = _coarsenings(n, tuple((i,) for i in range(1, n + 1)), [0] * (n + 1))
    return tuple([NcPartition._trusted(n, r) for r in sorted(rhos)])


def _check_listing(n):
    """The checks ``enumerate_nc`` makes before it lists NC(n): an int
    n >= 1, and CapacityError for n > ORDER_CAP."""
    _check_order(n)
    if n < 1:
        raise DomainError("enumerate_nc needs n >= 1")
    _check_merges([n])


def enumerate_nc(n):
    """All non-crossing partitions of {1..n} in canonical lexicographic
    order.  Counts match the Catalan numbers.  NC(n) is stored once built:
    a call copies the list of its immutable partitions.  CapacityError for
    n > ORDER_CAP."""
    _check_listing(n)
    return list(_nc_partitions(n))


def _check_same_ground(p, q):
    if not isinstance(p, NcPartition) or not isinstance(q, NcPartition):
        raise StructuralError("expected NcPartition arguments")
    if p.n != q.n:
        raise StructuralError("ground sets differ: %d vs %d" % (p.n, q.n))


def leq(p, q):
    """Refinement order: every block of p lies inside a block of q."""
    _check_same_ground(p, q)
    idx = _block_index(q.n, q.blocks)
    for block in p.blocks:
        j = idx[block[0]]
        for x in block[1:]:
            if idx[x] != j:
                return False
    return True


def join(p, q):
    """Least upper bound of p and q in NC(n).

    Computed as the set-partition join followed by repeatedly merging any
    two blocks that cross; the scan that finds a crossing pair is the same
    stack walk used for validation.
    """
    _check_same_ground(p, q)
    n = p.n
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for part in (p, q):
        for block in part.blocks:
            for x in block[1:]:
                union(block[0], x)

    groups = {}
    for x in range(1, n + 1):
        groups.setdefault(find(x), []).append(x)
    blocks = sorted((tuple(b) for b in groups.values()), key=lambda b: b[0])

    # close under merging crossing pairs
    while True:
        crossing = _find_crossing_pair(n, blocks)
        if crossing is None:
            break
        i, j = crossing
        merged = tuple(sorted(blocks[i] + blocks[j]))
        blocks = [b for k, b in enumerate(blocks) if k not in (i, j)]
        blocks.append(merged)
        blocks.sort(key=lambda b: b[0])
    return NcPartition._trusted(n, tuple(blocks))


def meet(p, q):
    """Greatest lower bound: blockwise intersection (already non-crossing)."""
    _check_same_ground(p, q)
    idx_p = _block_index(p.n, p.blocks)
    idx_q = _block_index(q.n, q.blocks)
    groups = {}
    for x in range(1, p.n + 1):
        groups.setdefault((idx_p[x], idx_q[x]), []).append(x)
    blocks = sorted((tuple(b) for b in groups.values()), key=lambda b: b[0])
    return NcPartition._trusted(p.n, tuple(blocks))


def mobius(p, q):
    """Mobius function mu(p, q) of the non-crossing partition lattice.

    Exact integer; raises DomainError when p is not a refinement of q
    (the function is undefined there, not zero).  With P the blocks of p
    as increasing cycles and gamma the blocks of q as increasing cycles,
    the cycles of P^-1 gamma are the blocks of the relative Kreweras
    complement of p in q, and mu(p, q) is the product of the signed
    Catalan numbers (-1)^(m-1) C_(m-1) over their sizes m (Kreweras 1972;
    Nica-Speicher, Lect. 9-10).  One pass, linear in n: nothing is listed
    or cached, so no size of p or q raises CapacityError.
    """
    _check_same_ground(p, q)
    if not leq(p, q):
        raise DomainError("mobius undefined: %s is not below %s" % (p, q))
    back = [0] * (p.n + 1)  # P^-1
    for b in p.blocks:
        for x, y in zip(b, b[1:] + b[:1]):
            back[y] = x
    step = [0] * (p.n + 1)  # P^-1 gamma, which keeps to each block of q
    for w in q.blocks:
        for x, y in zip(w, w[1:] + w[:1]):
            step[x] = back[y]
    seen = [False] * (p.n + 1)
    result = 1
    for start in range(1, p.n + 1):
        m, x = 0, start
        while not seen[x]:
            seen[x] = True
            m += 1
            x = step[x]
        if m:
            result *= (-1) ** (m - 1) * catalan_number(m - 1)
    return result


def _coarsenings(n, blocks, group):
    """Every non-crossing rho >= blocks whose blocks each join points of
    one label ``group[x]``, as a list of canonical tuples in no set order.

    Blocks are placed by their minimum x, each opening a block of rho or
    joining an open one R of its label.  Every point left of x is placed, so
    the join crosses nothing iff each block met between x and R's last point
    r before x lies strictly between r and x: those R are the blocks met
    walking left from x block by block, up to the first that reaches past x.
    A non-crossing partial merge completes with the remaining blocks left
    alone, so every branch ends in a member: the work is
    O(|result| * |blocks| * n)."""
    owner = [0] * (n + 1)  # the rho block of every placed point
    rho, out = [], []

    def place(i):
        if i == len(blocks):
            out.append(tuple(rho))
            return
        b = blocks[i]
        joins, y = [], b[0] - 1
        while y:
            k = owner[y]
            if group[y] == group[b[0]]:
                joins.append(k)
            if rho[k][-1] > b[0]:
                break
            y = rho[k][0] - 1
        for k in joins + [len(rho)]:
            if k == len(rho):  # open a block of rho, always last
                rho.append(())
            kept = rho[k]
            cut = bisect.bisect(kept, b[0])
            rho[k] = kept[:cut] + b + kept[cut:]
            for x in b:
                owner[x] = k
            place(i + 1)
            rho[k] = kept
        rho.pop()

    place(0)
    return out


def interval(p, q):
    """All partitions rho with p <= rho <= q, in canonical order: the
    non-crossing merges of p's blocks inside q's blocks, which the merge
    search lists at a cost that follows the size of the interval.  A block
    of q holding b blocks of p has at most Catalan(b) merges: CapacityError
    before anything is listed when their product exceeds |NC(ORDER_CAP)|."""
    _check_same_ground(p, q)
    if not leq(p, q):
        raise DomainError("empty interval: %s is not below %s" % (p, q))
    group = _block_index(q.n, q.blocks)
    _check_merges(Counter(group[b[0]] for b in p.blocks).values())
    members = _coarsenings(p.n, p.blocks, group)
    return [NcPartition._trusted(p.n, r) for r in sorted(members)]
