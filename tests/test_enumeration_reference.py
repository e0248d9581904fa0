"""The bitmask canonical form and enumeration against the label-based originals.

The reference functions below are the label-pair implementations that the
index-and-bitmask code in ``laxtop.enumeration`` replaced, kept verbatim in
behaviour: colour refinement and the relation matrix read through
``FiniteSpace.leq``, candidates compared as tuples of bits, and labeled
posets built from label pairs made per space.
"""

import itertools
import math

import pytest

from laxtop.enumeration import (
    _refine_colors,
    canonical_form,
    enumerate_labeled_posets,
    enumerate_labeled_preorders,
    enumerate_posets,
)
from laxtop.errors import CapExceeded
from laxtop.finspace import build_space


def _labels(n):
    return tuple(f"p{i}" for i in range(n))


def reference_labeled_posets(n, charges=None):
    """The labeled posets; ``charges`` gets the masks tried at each visited level."""
    pts = _labels(n)
    options = [[m for m in range(1 << n) if not m >> i & 1] for i in range(n)]
    out = []

    def consistent(downs, i):
        di = downs[i]
        for j in range(i):
            dj = downs[j]
            if di >> j & 1:
                if dj & ~di or dj >> i & 1:
                    return False
            if dj >> i & 1:
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
            out.append(build_space(pts, order=le))
            return
        if charges is not None:
            charges.append(len(options[i]))
        for m in options[i]:
            downs.append(m)
            if consistent(downs, i):
                rec(downs)
            downs.pop()

    rec([])
    return tuple(out)


def reference_refine_colors(space):
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


def reference_matrix_encoding(space, perm):
    return tuple(1 if x != y and space.leq(x, y) else 0 for x in perm for y in perm)


def reference_canonical_form(space):
    pts = space.points
    colors = reference_refine_colors(space)
    classes = {}
    for x in pts:
        classes.setdefault(colors[x], []).append(x)
    blocks = [sorted(classes[c]) for c in sorted(classes)]
    best = None
    for perm_parts in itertools.product(*(itertools.permutations(b) for b in blocks)):
        perm = tuple(itertools.chain.from_iterable(perm_parts))
        enc = reference_matrix_encoding(space, perm)
        if best is None or enc < best[0]:
            best = (enc, perm)
    enc, perm = best
    n = len(pts)
    labels = _labels(n)
    le = frozenset(
        {(l, l) for l in labels}
        | {(labels[i], labels[j]) for i in range(n) for j in range(n) if enc[i * n + j]}
    )
    return build_space(labels, order=le)


def reference_posets(n):
    seen = {}
    for space in reference_labeled_posets(n):
        canon = reference_canonical_form(space)
        key = (canon.points, tuple(sorted(canon.le)))
        seen.setdefault(key, canon)
    return tuple(seen[k] for k in sorted(seen))


def _universe():
    """Every labeled poset on at most 5 points and every preorder on at most 3."""
    for n in range(6):
        yield from reference_labeled_posets(n)
    for n in range(4):
        yield from enumerate_labeled_preorders(n)


def test_refinement_ranks_match_the_label_based_refinement():
    for space in _universe():
        idx = {p: i for i, p in enumerate(space.points)}
        strict = [(idx[x], idx[y]) for (x, y) in space.le if x != y]
        ranks = _refine_colors(len(space.points), strict)
        want = reference_refine_colors(space)
        assert ranks == [want[p] for p in space.points]


def test_canonical_form_matches_the_label_based_form():
    checked = 0
    for space in _universe():
        fast, slow = canonical_form(space), reference_canonical_form(space)
        assert fast.points == slow.points
        assert fast.le == slow.le
        checked += 1
    assert checked == 1 + 1 + 3 + 19 + 219 + 4231 + 1 + 1 + 4 + 29


@pytest.mark.parametrize("n", range(6))
def test_enumerations_match_the_reference_in_order(n):
    def key(spaces):
        return [(s.points, s.le) for s in spaces]

    assert key(enumerate_labeled_posets(n)) == key(reference_labeled_posets(n))
    assert key(enumerate_posets(n)) == key(reference_posets(n))


@pytest.mark.parametrize("n", range(1, 6))
def test_enumeration_is_charged_every_mask_of_every_visited_level(n):
    # only the allowed masks are visited, but the budget is charged as if
    # every mask were tried, so the cap cuts at the same point as before
    charges = []
    reference_labeled_posets(n, charges)
    enumerate_labeled_posets(n, cap=sum(charges))
    with pytest.raises(CapExceeded):
        enumerate_labeled_posets(n, cap=sum(charges) - 1)


def _automorphisms(space):
    pts = space.points
    return sum(
        all(
            space.leq(x, y) == space.leq(table[x], table[y]) for x in pts for y in pts
        )
        for table in (dict(zip(pts, perm)) for perm in itertools.permutations(pts))
    )


def test_orbit_counts_sum_to_the_labeled_counts():
    # each class P has n!/|Aut(P)| labelings, counted independently of
    # canonical_form by brute-force permutations
    counts = [
        sum(math.factorial(n) // _automorphisms(p) for p in enumerate_posets(n))
        for n in range(1, 6)
    ]
    assert counts == [1, 3, 19, 219, 4231]
