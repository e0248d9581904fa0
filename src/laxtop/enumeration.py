"""Exhaustive generation of finite posets, labeled and up to isomorphism.

Both work on point indices and bitmask rows rather than on label pairs.
Labeled generation gives each point a strict down-set mask, point by
point, visiting only the masks that keep the relation antisymmetric and
transitive.  Unlabeled generation deduplicates by a canonical form:
iterated colour refinement fixes the order between refinement classes, and
trying every order inside each class picks the lexicographically smallest
relation matrix, compared as a tuple of row ints.  That work is cached by
a presorted copy of the rows, relabeled by the initial refinement colour,
so it runs once per presorted shape rather than once per labeled poset.
Isomorphic inputs get one shared canonical space.  A slow
permutation-based oracle cross-checks the canonical form in the test suite.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import Budget
from .finspace import CACHE_SIZE, FiniteSpace


def _labels(n: int):
    return tuple(f"p{i}" for i in range(n))


def enumerate_labeled_posets(n: int, cap: int | None = None):
    """All partial orders on points p0..p{n-1}, deterministically ordered.

    Point i is given a strict down-set mask in increasing order of masks,
    point by point.  Each level is charged the 2**(n-1) masks without bit i
    to ``cap`` (default: the work budget), but only the submasks of what the
    earlier points allow are visited.  The returned spaces share their
    points tuple.
    """
    pts = _labels(n)
    full = (1 << n) - 1
    budget = Budget("labeled poset search", cap)
    out = []

    def rec(downs, ups):
        i = len(downs)
        if i == n:
            out.append(FiniteSpace(pts, ups))
            return
        budget.spend(1 << (n - 1))
        # antisymmetry and transitivity towards every earlier j above i
        bound = full & ~(1 << i)
        for dj in downs:
            if dj >> i & 1:
                bound &= dj
        bit, earlier = 1 << i, (1 << i) - 1
        m = 0
        while True:
            rest = m & earlier
            while rest:  # transitivity towards every earlier j below i
                low = rest & -rest
                if downs[low.bit_length() - 1] & ~m:
                    break
                rest ^= low
            else:  # every point of m is below point i
                rec(downs + [m], tuple(u | bit if m >> j & 1 else u for j, u in enumerate(ups)))
            if m == bound:
                return
            m = (m - bound) & bound  # the next submask of bound

    rec([], tuple(1 << j for j in range(n)))
    return tuple(out)


def _refine_colors(below, above):
    """Iterated colour refinement; returns an isomorphism-invariant rank per point.

    ``below[i]`` and ``above[i]`` list the points strictly below and above
    point i.  The initial colour (strict down count, strict up count) is
    encoded as one order-preserving int, so the ranks are those of refining
    the pairs.
    """
    n = len(below)
    colors = [len(d) * (n + 1) + len(u) for d, u in zip(below, above)]
    count = len(set(colors))
    while True:
        get = colors.__getitem__
        keys = [
            (c, tuple(sorted(map(get, d))), tuple(sorted(map(get, u))))
            for c, d, u in zip(colors, below, above)
        ]
        ranking = {k: r for r, k in enumerate(sorted(set(keys)))}
        colors = [ranking[k] for k in keys]
        if len(ranking) == count:
            return colors
        count = len(ranking)


def _least_order(ranks, above):
    """The position of each point in the order, among those that list the
    rank classes in rank order, whose strict relation matrix is least.

    The matrix is compared row by row, each row an int whose most
    significant bit is the first column.
    """
    n = len(ranks)
    blocks = [[] for _ in range(n)]
    for i, r in enumerate(ranks):
        blocks[r].append(i)
    best = None
    for parts in itertools.product(*map(itertools.permutations, blocks)):
        perm = list(itertools.chain.from_iterable(parts))
        bits = [0] * n
        for a, i in enumerate(perm):
            bits[i] = 1 << (n - 1 - a)
        rows = [sum(map(bits.__getitem__, above[i])) for i in perm]
        if best is None or rows < best:
            best, least = rows, perm
    pos = [0] * n
    for a, i in enumerate(least):
        pos[i] = a
    return pos


@lru_cache(maxsize=CACHE_SIZE)
def _canonical_space(rows: tuple) -> FiniteSpace:
    """The space on p0..p{n-1} with these up masks, validated once per value."""
    return FiniteSpace(_labels(len(rows)), rows)


def _presorted(rows: tuple) -> tuple:
    """The up masks relabeled in order of the initial refinement colour,
    ties broken by index: an isomorphic copy that every relabeling of
    the same shape shares.

    Both counts include the point itself, which adds n + 2 to every
    colour and leaves their order as it is.
    """
    n = len(rows)
    colors = [row.bit_count() for row in rows]
    for row in rows:
        while row:
            low = row & -row
            colors[low.bit_length() - 1] += n + 1
            row ^= low
    order = sorted(range(n), key=colors.__getitem__)
    bits = [0] * n
    for a, i in enumerate(order):
        bits[i] = 1 << a
    out = []
    for i in order:
        row, new = rows[i], 0
        while row:
            low = row & -row
            new |= bits[low.bit_length() - 1]
            row ^= low
        out.append(new)
    return tuple(out)


@lru_cache(maxsize=CACHE_SIZE)
def _canonical_rows(rows: tuple) -> tuple:
    """The up masks of the canonical relabeling of these up masks."""
    n = len(rows)
    below = [[] for _ in range(n)]
    above = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        row &= ~(1 << i)
        while row:
            low = row & -row
            j = low.bit_length() - 1
            above[i].append(j)
            below[j].append(i)
            row ^= low
    pos = _least_order(_refine_colors(below, above), above)
    bits = [1 << a for a in pos]
    out = [0] * n
    for i, a in enumerate(pos):
        out[a] = bits[i] | sum(map(bits.__getitem__, above[i]))
    return tuple(out)


def canonical_form(space: FiniteSpace) -> FiniteSpace:
    """Relabel to p0..p{n-1} with the minimal matrix among class-respecting orders.

    The form is an isomorphism invariant, so it is computed once per
    presorted copy of the rows and cached by it: the 130 023 labeled posets
    on 6 points give 440 presorted copies.  The result comes from a cache
    keyed by its rows, so isomorphic inputs give the same object while
    its class stays among the last CACHE_SIZE used.
    """
    return _canonical_space(_canonical_rows(_presorted(space.up_masks)))


def are_isomorphic(s1: FiniteSpace, s2: FiniteSpace) -> bool:
    """Order isomorphism by brute-force permutation search."""
    if len(s1.points) != len(s2.points):
        return False
    for perm in itertools.permutations(s2.points):
        table = dict(zip(s1.points, perm))
        if all(
            s1.leq(x, y) == s2.leq(table[x], table[y])
            for x in s1.points
            for y in s1.points
        ):
            return True
    return False


def enumerate_posets(n: int):
    """Tuple of the posets on n points, one space per isomorphism class.

    The classes come sorted by their canonical (points, sorted le) key.
    """
    seen = {}
    for space in enumerate_labeled_posets(n):
        canon = canonical_form(space)
        seen.setdefault(canon.up_masks, canon)
    return tuple(sorted(seen.values(), key=lambda s: (s.points, sorted(s.le))))


def enumerate_labeled_preorders(n: int):
    """All preorders on p0..p{n-1} by brute force over strict-pair masks."""
    pts = _labels(n)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    Budget("preorder search").spend(1 << len(pairs))
    out = []
    for mask in range(1 << len(pairs)):
        rows = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if mask >> k & 1:
                rows[i] |= 1 << j
        if all(not row >> j & 1 or not rows[j] & ~row for row in rows for j in range(n)):
            out.append(FiniteSpace(pts, tuple(rows)))
    return tuple(out)


def dedup_by_isomorphism(spaces):
    """Slow pairwise-isomorphism dedup; the oracle for canonical_form."""
    reps = []
    for s in spaces:
        if not any(are_isomorphic(s, r) for r in reps):
            reps.append(s)
    return tuple(reps)
