"""Exhaustive generation of finite posets, labeled and up to isomorphism.

Both work on point indices and bitmask rows rather than on label pairs.
Labeled generation gives each point a strict down-set mask, point by
point, visiting only the masks that keep the relation antisymmetric and
transitive.  Unlabeled generation deduplicates by a canonical form:
iterated colour refinement fixes the order between refinement classes, and
trying every order inside each class picks the lexicographically smallest
relation matrix, compared as a tuple of row ints.  A slow permutation-based
oracle cross-checks the canonical form in the test suite.
"""

from __future__ import annotations

import itertools

from .errors import Budget
from .finspace import FiniteSpace


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
        m = 0
        while True:
            # transitivity towards every earlier j below i
            if all(not m >> j & 1 or not downs[j] & ~m for j in range(i)):
                bit = 1 << i  # every point of m is below point i
                rec(downs + [m], tuple(u | bit if m >> j & 1 else u for j, u in enumerate(ups)))
            if m == bound:
                return
            m = (m - bound) & bound  # the next submask of bound

    rec([], tuple(1 << j for j in range(n)))
    return tuple(out)


def _refine_colors(n: int, strict):
    """Iterated colour refinement; returns an isomorphism-invariant rank per point.

    ``strict`` holds the index pairs (i, j) with point i strictly below
    point j.  The initial colour (strict down count, strict up count) is
    encoded as one order-preserving int, so the ranks are those of refining
    the pairs.  Once every point has its own colour no round can split a
    class, so the ranks are returned without the confirming round.
    """
    below = [[] for _ in range(n)]
    above = [[] for _ in range(n)]
    for i, j in strict:
        above[i].append(j)
        below[j].append(i)
    colors = [len(below[i]) * (n + 1) + len(above[i]) for i in range(n)]
    while True:
        if len(set(colors)) == n:
            ranking = {c: r for r, c in enumerate(sorted(colors))}
            return [ranking[c] for c in colors]
        get = colors.__getitem__
        keys = [
            (
                colors[i],
                tuple(sorted(map(get, below[i]))),
                tuple(sorted(map(get, above[i]))),
            )
            for i in range(n)
        ]
        ranking = {k: r for r, k in enumerate(sorted(set(keys)))}
        new = [ranking[k] for k in keys]
        if len(ranking) == len(set(colors)):
            return new
        colors = new


def _positions(perm):
    pos = [0] * len(perm)
    for a, x in enumerate(perm):
        pos[x] = a
    return pos


def _rows(strict, perm):
    """The strict relation with points in the order given by perm, as row ints.

    Row a has bit n-1-b set iff perm[a] < perm[b]: the most significant bit
    is the first column, so comparing row tuples compares the row-major bit
    matrices lexicographically.
    """
    n = len(perm)
    pos = _positions(perm)
    rows = [0] * n
    for i, j in strict:
        rows[pos[i]] |= 1 << (n - 1 - pos[j])
    return tuple(rows)


def canonical_form(space: FiniteSpace) -> FiniteSpace:
    """Relabel to p0..p{n-1} with the minimal matrix among class-respecting orders."""
    pts = space.points
    n = len(pts)
    strict = []
    for i, row in enumerate(space.up_masks):
        row &= ~(1 << i)
        while row:
            low = row & -row
            strict.append((i, low.bit_length() - 1))
            row ^= low
    colors = _refine_colors(n, strict)
    classes = {}
    for i, c in enumerate(colors):
        classes.setdefault(c, []).append(i)
    blocks = [sorted(classes[c], key=pts.__getitem__) for c in sorted(classes)]
    orders = (
        tuple(itertools.chain.from_iterable(parts))
        for parts in itertools.product(*(itertools.permutations(b) for b in blocks))
    )
    perm = min(orders, key=lambda p: _rows(strict, p))
    pos = _positions(perm)
    rows = [1 << a for a in range(n)]
    for i, j in strict:
        rows[pos[i]] |= 1 << pos[j]
    return FiniteSpace(_labels(n), tuple(rows))


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
