"""The order index of ``FiniteSpace`` against the label-pair code it replaced.

The reference functions below are the implementations that scanned
``points`` and tested pairs of labels against ``le``: the eight order
queries of ``FiniteSpace``, ``_down_sets``, ``t0_report``,
``_transitive_reflexive_closure`` and the backtracking of
``_monotone_tables`` that called ``leq`` against every earlier point at
every node.  ``_down_sets`` caches masks, so it is compared through
its label view ``open_sets()``.  The indexed code must give equal results
on every labeled preorder on at most 3 points (non-T0 ones included) and
every labeled poset on at most 4 points; the map search must list the
same tables (its target positions read as labels), visit the same nodes
and charge the budget the same amounts.
"""

import dataclasses
import itertools

from laxtop import finspace
from laxtop.enumeration import enumerate_labeled_posets, enumerate_labeled_preorders
from laxtop.errors import Budget
from laxtop.finspace import (
    FiniteSpace,
    T0Report,
    _monotone_tables,
    _transitive_reflexive_closure,
    build_space,
    cmap,
    subsets,
)

PREORDERS = [s for n in range(4) for s in enumerate_labeled_preorders(n)]
POSETS = list(enumerate_labeled_posets(4))
UNIVERSE = PREORDERS + POSETS
STRAY = "zz"  # a label outside every space: the queries ignore it


# -- the replaced code -------------------------------------------------------


def reference_above(s):
    return {x: tuple(y for y in s.points if (x, y) in s.le) for x in s.points}


def reference_down(s, x):
    return frozenset(y for y in s.points if (y, x) in s.le)


def reference_up(s, x):
    return frozenset(y for y in s.points if (x, y) in s.le)


def reference_down_closure(s, subset):
    sub = frozenset(subset)
    return frozenset(y for y in s.points if any((y, x) in s.le for x in sub))


def reference_up_closure(s, subset):
    sub = frozenset(subset)
    return frozenset(y for y in s.points if any((x, y) in s.le for x in sub))


def reference_is_down_closed(s, subset):
    sub = frozenset(subset)
    return all((y, x) not in s.le or y in sub for x in sub for y in s.points)


def reference_is_up_closed(s, subset):
    sub = frozenset(subset)
    return all((x, y) not in s.le or y in sub for x in sub for y in s.points)


def reference_is_t0(s):
    return all(
        not ((x, y) in s.le and (y, x) in s.le)
        for x, y in itertools.combinations(s.points, 2)
    )


def reference_down_sets(space):
    pts = space.points
    idx = {p: i for i, p in enumerate(pts)}
    rep = {}
    for p in pts:
        cls = [q for q in pts if space.leq(p, q) and space.leq(q, p)]
        rep[p] = min(cls, key=idx.get)
    reps = [p for p in pts if rep[p] == p]
    class_bit = {r: sum(1 << idx[p] for p in pts if rep[p] == r) for r in reps}
    downs = {
        r: sum(class_bit[s] for s in reps if s != r and space.leq(s, r)) for r in reps
    }
    order = sorted(reps, key=lambda r: downs[r].bit_count())
    masks = [0]
    for r in order:
        need = downs[r]
        bit = class_bit[r]
        masks.extend([m | bit for m in masks if m & need == need])
    result = [
        frozenset(pts[i] for i in range(len(pts)) if mask >> i & 1) for mask in masks
    ]
    result.sort(key=lambda s: (len(s), sorted(s)))
    return tuple(result)


def reference_t0_report(space):
    rep = {}
    for x in space.points:
        cls = [y for y in space.points if space.leq(x, y) and space.leq(y, x)]
        rep[x] = min(cls)
    classes = sorted(set(rep.values()))
    le = frozenset((a, b) for a in classes for b in classes if space.leq(a, b))
    reflection = build_space(tuple(classes), order=le)
    return T0Report(reference_is_t0(space), reflection, cmap(space, reflection, rep))


def reference_closure(points, pairs):
    rel = {(p, p) for p in points}
    rel.update(pairs)
    changed = True
    while changed:
        changed = False
        for (x, y) in list(rel):
            for z in points:
                if (y, z) in rel and (x, z) not in rel:
                    rel.add((x, z))
                    changed = True
    return frozenset(rel)


def reference_monotone_tables(source, target):
    src = source.points
    out = []
    assign = {}
    budget = finspace.Budget("continuous map search")

    def backtrack(i):
        budget.spend()
        if i == len(src):
            out.append(tuple(assign[p] for p in src))
            return
        p = src[i]
        for v in target.points:
            ok = True
            for q in src[:i]:
                if source.leq(q, p) and not target.leq(assign[q], v):
                    ok = False
                    break
                if source.leq(p, q) and not target.leq(v, assign[q]):
                    ok = False
                    break
            if ok:
                assign[p] = v
                backtrack(i + 1)
                del assign[p]

    backtrack(0)
    return tuple(out)


# -- the comparisons ---------------------------------------------------------


def test_the_universe_has_non_t0_spaces_and_every_size():
    assert len(PREORDERS) == 1 + 1 + 4 + 29 and len(POSETS) == 219
    assert any(not reference_is_t0(s) for s in PREORDERS)


def test_point_queries_match_the_label_pair_code():
    for s in UNIVERSE:
        assert [(s.points[i], s.points[j]) for i, j in s.position_pairs] == [
            (x, y) for x, up in reference_above(s).items() for y in up
        ]  # position_pairs took the place of FiniteSpace.above
        assert s.is_t0() == reference_is_t0(s)
        for x in s.points + (STRAY,):
            assert s.down(x) == reference_down(s, x)
            assert s.up(x) == reference_up(s, x)
        for sub in subsets(s.points + (STRAY,)):
            assert s.down_closure(sub) == reference_down_closure(s, sub)
            assert s.up_closure(sub) == reference_up_closure(s, sub)
            assert s.is_down_closed(sub) == reference_is_down_closed(s, sub)
            assert s.is_up_closed(sub) == reference_is_up_closed(s, sub)


def test_index_is_lazy_and_takes_no_part_in_the_value():
    lazy = ("index", "down_masks", "le")
    for s in UNIVERSE:
        twin = FiniteSpace(s.points, s.up_masks, s.provenance, s.name)
        index, up, down, le = s.index, s.up_masks, s.down_masks, s.le
        assert index == {p: i for i, p in enumerate(s.points)}
        for i, x in enumerate(s.points):
            for j, y in enumerate(s.points):
                assert (up[i] >> j & 1, down[j] >> i & 1) == (s.leq(x, y),) * 2
                assert ((x, y) in le) == s.leq(x, y)
        assert (s.index, s.down_masks, s.le) == (index, down, le)
        assert s.index is index and s.down_masks is down and s.le is le  # built once
        assert not any(name in vars(twin) for name in lazy)
        assert s == twin and hash(s) == hash(twin) and repr(s) == repr(twin)
    assert [f.name for f in dataclasses.fields(FiniteSpace)] == [
        "points", "up_masks", "provenance", "name"
    ]


def test_down_sets_and_t0_reflection_match_the_label_pair_code():
    for s in UNIVERSE:
        assert s.open_sets() == reference_down_sets(s)
        assert finspace.t0_report(s) == reference_t0_report(s)


def test_closure_matches_the_pair_fixpoint():
    for n in range(4):
        points = tuple(f"p{i}" for i in range(n))
        pairs = list(itertools.product(points, repeat=2))
        for chosen in subsets(pairs):
            rows = _transitive_reflexive_closure(points, chosen)
            assert FiniteSpace(points, rows).le == reference_closure(points, chosen)
    for s in POSETS:  # rebuilt from the strict pairs
        strict = [(x, y) for (x, y) in s.le if x != y]
        assert _transitive_reflexive_closure(s.points, strict) == s.up_masks


class _Recorded(Budget):
    """A budget that logs every charge, in order."""

    log = []

    def spend(self, n=1):
        _Recorded.log.append(n)
        super().spend(n)


def _search(search, source, target):
    _Recorded.log = []
    return search(source, target), _Recorded.log


def _map_pairs():
    """Both orders of every pair of spaces on at most 3 points, and of a
    4-point poset with a space on at most 3 points."""
    yield from itertools.product(PREORDERS, repeat=2)
    for big, s in itertools.product(POSETS, PREORDERS):
        yield big, s
        yield s, big


def test_monotone_tables_match_the_backtracking_it_replaced(monkeypatch):
    monkeypatch.setattr(finspace, "Budget", _Recorded)
    pairs = 0
    for source, target in _map_pairs():
        positions, charges = _search(_monotone_tables.__wrapped__, source, target)
        labels = tuple(tuple(target.points[j] for j in row) for row in positions)
        old = _search(reference_monotone_tables, source, target)
        assert (labels, charges) == old  # the same tables in the same order, and the same charges
        pairs += 1
    assert pairs == 35 * 35 + 2 * 219 * 35
