"""Exhaustive generation of finite posets, labeled and up to isomorphism.

Labeled generation walks strict-down-set assignments with transitivity and
antisymmetry pruning.  Unlabeled generation deduplicates by a canonical
form: iterated colour refinement fixes the order between refinement
classes, and backtracking inside classes picks the lexicographically
smallest relation matrix.  A slow permutation-based oracle cross-checks the
canonical form in the test suite.
"""

from __future__ import annotations

import itertools

from .errors import Budget
from .finspace import FiniteSpace


def _labels(n: int):
    return tuple(f"p{i}" for i in range(n))


def enumerate_labeled_posets(n: int, cap: int | None = None):
    """All partial orders on points p0..p{n-1}, deterministically ordered.

    Each candidate down-set tried costs one unit of ``cap`` (default: the work budget).
    """
    pts = _labels(n)
    budget = Budget("labeled poset search", cap)
    options = []  # per point, candidate strict-down-set masks
    for i in range(n):
        options.append([m for m in range(1 << n) if not m >> i & 1])
    out = []

    def consistent(downs, i):
        di = downs[i]
        for j in range(i):
            dj = downs[j]
            if di >> j & 1:  # j < i in the order
                if dj & ~di or dj >> i & 1:
                    return False
            if dj >> i & 1:  # i < j in the order
                if di & ~dj or di >> j & 1:
                    return False
        return True

    def rec(downs):
        i = len(downs)
        if i == n:
            le = frozenset(
                {(pts[k], pts[k]) for k in range(n)}
                | {
                    (pts[j], pts[k])
                    for k in range(n)
                    for j in range(n)
                    if downs[k] >> j & 1
                }
            )
            out.append(FiniteSpace(pts, le))
            return
        budget.spend(len(options[i]))
        for m in options[i]:
            downs.append(m)
            if consistent(downs, i):
                rec(downs)
            downs.pop()

    rec([])
    return tuple(out)


def _refine_colors(space: FiniteSpace):
    """Iterated colour refinement; returns an isomorphism-invariant rank per point."""
    pts = space.points
    colors = {
        x: (
            sum(1 for y in pts if space.leq(y, x) and y != x),
            sum(1 for y in pts if space.leq(x, y) and y != x),
        )
        for x in pts
    }
    while True:
        keys = {
            x: (
                colors[x],
                tuple(sorted(colors[y] for y in pts if space.leq(y, x) and y != x)),
                tuple(sorted(colors[y] for y in pts if space.leq(x, y) and y != x)),
            )
            for x in pts
        }
        ranking = {k: i for i, k in enumerate(sorted(set(keys.values())))}
        new = {x: ranking[keys[x]] for x in pts}
        if len(set(new.values())) == len(set(colors.values())):
            return new
        colors = new


def _matrix_encoding(space, perm):
    """Row-major strict-relation bits for points in the order given by perm."""
    return tuple(
        1 if x != y and space.leq(x, y) else 0 for x in perm for y in perm
    )


def canonical_form(space: FiniteSpace) -> FiniteSpace:
    """Relabel to p0..p{n-1} with the minimal matrix among class-respecting orders."""
    pts = space.points
    colors = _refine_colors(space)
    classes = {}
    for x in pts:
        classes.setdefault(colors[x], []).append(x)
    blocks = [sorted(classes[c]) for c in sorted(classes)]
    best = None
    for perm_parts in itertools.product(
        *(itertools.permutations(b) for b in blocks)
    ):
        perm = tuple(itertools.chain.from_iterable(perm_parts))
        enc = _matrix_encoding(space, perm)
        if best is None or enc < best[0]:
            best = (enc, perm)
    enc, perm = best
    n = len(pts)
    labels = _labels(n)
    le = frozenset(
        {(l, l) for l in labels}
        | {
            (labels[i], labels[j])
            for i in range(n)
            for j in range(n)
            if enc[i * n + j]
        }
    )
    return FiniteSpace(labels, le)


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


def enumerate_posets(n: int, mode: str = "unlabeled"):
    """Stream of posets on n points; one space per isomorphism class if unlabeled."""
    labeled = enumerate_labeled_posets(n)
    if mode == "labeled":
        return labeled
    if mode != "unlabeled":
        raise ValueError(f"unknown mode {mode!r}")
    seen = {}
    for space in labeled:
        canon = canonical_form(space)
        key = (canon.points, tuple(sorted(canon.le)))
        if key not in seen:
            seen[key] = canon
    return tuple(seen[k] for k in sorted(seen))


def enumerate_labeled_preorders(n: int):
    """All preorders on p0..p{n-1} by brute force over strict-pair masks."""
    pts = _labels(n)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    Budget("preorder search").spend(1 << len(pairs))
    out = []
    for mask in range(1 << len(pairs)):
        rel = {(i, i) for i in range(n)}
        rel.update(p for k, p in enumerate(pairs) if mask >> k & 1)
        if all(
            (x, w) in rel
            for (x, y) in rel
            for (z, w) in rel
            if y == z
        ):
            out.append(
                FiniteSpace(pts, frozenset((pts[i], pts[j]) for (i, j) in rel))
            )
    return tuple(out)


def dedup_by_isomorphism(spaces):
    """Slow pairwise-isomorphism dedup; the oracle for canonical_form."""
    reps = []
    for s in spaces:
        if not any(are_isomorphic(s, r) for r in reps):
            reps.append(s)
    return tuple(reps)
