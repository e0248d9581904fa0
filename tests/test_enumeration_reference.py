"""The bitmask canonical form and enumeration against the code they replaced.

The ``reference_*`` functions are the label-pair implementations that the
index-and-bitmask code in ``laxtop.enumeration`` replaced, kept verbatim in
behaviour: colour refinement and the relation matrix read through
``FiniteSpace.leq``, candidates compared as tuples of bits, and labeled
posets built from label pairs made per space.  The ``previous_*`` functions
are the bit-level code that the shared canonical spaces, the all-distinct
rank order and the mask transitivity test replaced: a new validated space
per canonical form, the least matrix always found by ``min`` over every
class-respecting order, and an ``all()`` over the earlier points.
``previous_uncached_form`` is the form that the presorted-rows cache
replaced: refinement and the order search on every call, with the ranks
taken as the order when every point has its own.
"""

import itertools
import math

import pytest

from laxtop.enumeration import (
    _canonical_rows,
    _refine_colors,
    canonical_form,
    enumerate_labeled_posets,
    enumerate_labeled_preorders,
    enumerate_posets,
)
from laxtop.errors import Budget, CapExceeded
from laxtop.finspace import FiniteSpace, build_space
from test_descent_reference import _preorder_classes


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


def previous_labeled_posets(n, cap=None):
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
        bound = full & ~(1 << i)
        for dj in downs:
            if dj >> i & 1:
                bound &= dj
        m = 0
        while True:
            if all(not m >> j & 1 or not downs[j] & ~m for j in range(i)):
                bit = 1 << i
                rec(downs + [m], tuple(u | bit if m >> j & 1 else u for j, u in enumerate(ups)))
            if m == bound:
                return
            m = (m - bound) & bound

    rec([], tuple(1 << j for j in range(n)))
    return tuple(out)


def previous_refine_colors(n, strict):
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


def _previous_positions(perm):
    pos = [0] * len(perm)
    for a, x in enumerate(perm):
        pos[x] = a
    return pos


def _previous_rows(strict, perm):
    n = len(perm)
    pos = _previous_positions(perm)
    rows = [0] * n
    for i, j in strict:
        rows[pos[i]] |= 1 << (n - 1 - pos[j])
    return tuple(rows)


def _strict_pairs(space):
    """The (i, j) with point i strictly below point j, row by row."""
    return [(i, j) for i, j in space.position_pairs if i != j]


def previous_canonical_form(space):
    pts = space.points
    n = len(pts)
    strict = _strict_pairs(space)
    colors = previous_refine_colors(n, strict)
    classes = {}
    for i, c in enumerate(colors):
        classes.setdefault(c, []).append(i)
    blocks = [sorted(classes[c], key=pts.__getitem__) for c in sorted(classes)]
    orders = (
        tuple(itertools.chain.from_iterable(parts))
        for parts in itertools.product(*(itertools.permutations(b) for b in blocks))
    )
    perm = min(orders, key=lambda p: _previous_rows(strict, p))
    pos = _previous_positions(perm)
    rows = [1 << a for a in range(n)]
    for i, j in strict:
        rows[pos[i]] |= 1 << pos[j]
    return FiniteSpace(_labels(n), tuple(rows))


def _previous_least_order(ranks, above):
    n = len(ranks)
    blocks = [[i for i in range(n) if ranks[i] == r] for r in range(max(ranks) + 1)]
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


def previous_uncached_form(space):
    n = len(space.points)
    below = [[] for _ in range(n)]
    above = [[] for _ in range(n)]
    for i, row in enumerate(space.up_masks):
        row &= ~(1 << i)
        while row:
            low = row & -row
            j = low.bit_length() - 1
            above[i].append(j)
            below[j].append(i)
            row ^= low
    ranks = previous_refine_colors(n, [(i, j) for i in range(n) for j in above[i]])
    pos = ranks if len(set(ranks)) == n else _previous_least_order(ranks, above)
    bits = [1 << a for a in pos]
    rows = [0] * n
    for i, a in enumerate(pos):
        rows[a] = bits[i] | sum(map(bits.__getitem__, above[i]))
    return FiniteSpace(_labels(n), tuple(rows))


def _below_above(space):
    """For each point, the points strictly below it and strictly above it."""
    n = len(space.points)
    below, above = [[] for _ in range(n)], [[] for _ in range(n)]
    for i, j in _strict_pairs(space):
        above[i].append(j)
        below[j].append(i)
    return below, above


def _universe():
    """Every labeled poset on at most 5 points and every preorder on at most 3."""
    for n in range(6):
        yield from reference_labeled_posets(n)
    for n in range(4):
        yield from enumerate_labeled_preorders(n)


def test_refinement_ranks_match_the_label_based_refinement():
    for space in _universe():
        ranks = _refine_colors(*_below_above(space))
        want = reference_refine_colors(space)
        assert ranks == [want[p] for p in space.points]
        assert ranks == previous_refine_colors(len(space.points), _strict_pairs(space))


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


SAMPLE_STEP = 13  # every 13th labeled poset on 6 points: 10 002 of 130 023


@pytest.fixture(scope="module")
def six_points():
    return enumerate_labeled_posets(6, cap=10**7)


def test_labeled_enumeration_matches_the_previous_code(six_points):
    for n in range(6):
        new, old = enumerate_labeled_posets(n), previous_labeled_posets(n)
        assert [(s.points, s.up_masks) for s in new] == [(s.points, s.up_masks) for s in old]
    old = previous_labeled_posets(6, cap=10**7)
    assert [s.up_masks for s in six_points] == [s.up_masks for s in old]
    assert {s.points for s in six_points} == {_labels(6)}


def test_canonical_form_matches_the_previous_form(six_points):
    spaces = list(_universe()) + list(six_points[::SAMPLE_STEP])
    for space in spaces:
        new, old = canonical_form(space), previous_canonical_form(space)
        assert new == old and hash(new) == hash(old)
        assert (new.points, new.up_masks, new.provenance, new.name) == (
            old.points,
            old.up_masks,
            old.provenance,
            old.name,
        )
    assert len(spaces) == 4509 + 10002


def test_cached_form_matches_the_uncached_form_on_every_small_input(six_points):
    spaces = [s for n in range(6) for s in enumerate_labeled_posets(n)]
    spaces += six_points
    spaces += [s for n in range(5) for s in enumerate_labeled_preorders(n)]
    for space in spaces:
        new, old = canonical_form(space), previous_uncached_form(space)
        assert (new.points, new.up_masks) == (old.points, old.up_masks)
    assert len(spaces) == 4474 + 130023 + 390


def test_canonical_rows_do_not_depend_on_what_the_cache_holds(six_points):
    forward = [canonical_form(s).up_masks for s in six_points]
    _canonical_rows.cache_clear()
    backward = [canonical_form(s).up_masks for s in reversed(six_points)]
    assert backward[::-1] == forward


def test_the_six_point_census_refines_once_per_presorted_shape(six_points):
    # 440 presorted shapes stand for the 130 023 labeled posets, so
    # refinement and the order search run 440 times, not once per poset
    _canonical_rows.cache_clear()
    for space in six_points:
        canonical_form(space)
    info = _canonical_rows.cache_info()
    assert (info.misses, info.hits, info.currsize) == (440, 130023 - 440, 440)


def test_isomorphic_inputs_share_one_canonical_space():
    # the preorders that are not T0 hold equivalent points, which the
    # presort counts in both directions
    preorders = _preorder_classes(3)
    assert len(preorders) == 13
    reps = [p for n in range(1, 6) for p in enumerate_posets(n)] + list(preorders)
    for rep in reps:
        n = len(rep.points)
        canon = canonical_form(rep)
        for perm in itertools.permutations(range(n)):
            # point k of the copy is point perm[k] of rep, under a new label
            at = {j: k for k, j in enumerate(perm)}
            rows = tuple(
                sum(1 << at[j] for j in range(n) if rep.up_masks[i] >> j & 1)
                for i in perm
            )
            copy = FiniteSpace(tuple(f"q{j}" for j in perm), rows)
            assert canonical_form(copy) is canon
        # equality and hashing stay by value
        twin = FiniteSpace(canon.points, canon.up_masks)
        assert twin == canon and hash(twin) == hash(canon) and twin is not canon
