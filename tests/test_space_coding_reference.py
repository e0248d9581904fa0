"""The row coding of ``FiniteSpace`` against the label-pair coding it replaced.

``PairSpace`` is ``FiniteSpace`` as it was: ``le``, a frozenset of label
pairs, is a field, ``reference_order_index`` validates it, and the rows are
derived from it.  The reference constructors are the label-pair bodies of
``build_space``, ``t0_report``, ``product_space``, ``sum_space``,
``induced_space("subspace")``, ``exponential_object``, ``vietoris_space``,
``laxcomma._TEST_SPACES``, ``enumerate_labeled_posets``, ``canonical_form``
and ``enumerate_labeled_preorders``.  On every labeled preorder on at most 3
points and every labeled poset on at most 4 (also with their points listed
in reverse), and on the products, sums and exponentials of every pair of the
preorders, both codings must give equal points, ``le``, ``up_masks``,
provenance, name and repr, and equal open sets on at most 9 points (an
exponential can have 27 points and 2**27 open sets).  The same spaces must
be equal, with equal hashes, under both codings.
"""

import itertools
from dataclasses import dataclass

from laxtop import spaces
from laxtop.enumeration import (
    _labels,
    _refine_colors,
    canonical_form,
    enumerate_labeled_posets,
    enumerate_labeled_preorders,
)
from laxtop.errors import DuplicatePoint, NotATopology, UnknownLabel
from laxtop.finspace import (
    FiniteSpace,
    build_space,
    enumerate_cmaps,
    induced_space,
    product_label,
    product_space,
    subsets,
    sum_space,
    t0_report,
)
from laxtop.laxcomma import _TEST_SPACES, exponential_object, function_label, lax_object
from laxtop.vietoris import set_label, vietoris_space

# -- the replaced code -------------------------------------------------------


def reference_relation_rows(points, pairs):
    index = {}
    for i, p in enumerate(points):
        if p in index:
            raise DuplicatePoint(f"duplicate point label {p!r}")
        index[p] = i
    up = [0] * len(points)
    for (x, y) in pairs:
        i, j = index.get(x), index.get(y)
        if i is None or j is None:
            raise UnknownLabel(f"relation mentions unknown point ({x!r}, {y!r})")
        up[i] |= 1 << j
    return index, up


def reference_order_index(points, le):
    index, up = reference_relation_rows(points, le)
    for i, p in enumerate(points):
        if not up[i] >> i & 1:
            raise NotATopology(f"relation not reflexive at {p!r}")
    for (x, y) in le:
        missing = up[index[y]] & ~up[index[x]]
        if missing:
            z = points[(missing & -missing).bit_length() - 1]
            raise NotATopology(f"relation not transitive: {x!r}<={y!r}<={z!r}")
    return index, up


@dataclass(frozen=True)
class PairSpace:
    points: tuple
    le: frozenset
    provenance: str = "order"
    name: str = ""

    def __post_init__(self):
        reference_order_index(self.points, self.le)

    @property
    def up_masks(self):
        return tuple(reference_order_index(self.points, self.le)[1])

    def leq(self, x, y):
        return (x, y) in self.le

    def open_sets(self):
        opens = [
            frozenset(s)
            for s in subsets(self.points)
            if all((y, x) not in self.le or y in s for x in s for y in self.points)
        ]
        opens.sort(key=lambda s: (len(s), sorted(s)))
        return tuple(opens)

    def __repr__(self):
        tag = self.name or f"{len(self.points)}pt"
        return f"FiniteSpace({tag})"


def reference_closure(points, pairs):
    _, up = reference_relation_rows(points, pairs)
    for i in range(len(up)):
        up[i] |= 1 << i
    for k in range(len(up)):
        through = up[k]
        for i, row in enumerate(up):
            if row >> k & 1:
                up[i] = row | through
    return frozenset(
        (x, y) for x, row in zip(points, up) for j, y in enumerate(points) if row >> j & 1
    )


def reference_build_order(points, order):
    return PairSpace(tuple(points), reference_closure(tuple(points), order))


def reference_build_opens(points, opens):
    family = []
    for o in opens:
        if frozenset(o) not in family:
            family.append(frozenset(o))
    le = frozenset(
        (x, y) for x in points for y in points if all(x in o for o in family if y in o)
    )
    return PairSpace(tuple(points), le, provenance="opens")


def reference_t0_reflection(space):
    rep = {
        x: min(y for y in space.points if space.leq(x, y) and space.leq(y, x))
        for x in space.points
    }
    classes = sorted(set(rep.values()))
    le = frozenset((a, b) for a in classes for b in classes if space.leq(a, b))
    return PairSpace(tuple(classes), le, provenance="order")


def reference_product(factors):
    combos = list(itertools.product(*(s.points for s in factors)))
    labels = tuple(product_label(c) for c in combos)
    label_of = dict(zip(combos, labels))
    above = [{x: tuple(y for y in s.points if s.leq(x, y)) for x in s.points} for s in factors]
    le = frozenset(
        (label_of[c], label_of[d])
        for c in combos
        for d in itertools.product(*(up[x] for up, x in zip(above, c)))
    )
    return PairSpace(labels, le, provenance="order")


def reference_sum(summands):
    labels = []
    for i, s in enumerate(summands):
        labels.extend(f"in{i}:{p}" for p in s.points)
    le = set()
    for i, s in enumerate(summands):
        for (x, y) in s.le:
            le.add((f"in{i}:{x}", f"in{i}:{y}"))
    return PairSpace(tuple(labels), frozenset(le), provenance="order")


def reference_subspace(base, data):
    pts = tuple(p for p in base.points if p in set(data))
    le = frozenset((x, y) for (x, y) in base.le if x in set(pts) and y in set(pts))
    return PairSpace(pts, le, provenance="order")


def reference_exponential_order(a, b):
    maps = enumerate_cmaps(a, b)
    labels = tuple(function_label(h.table) for h in maps)
    by_label = dict(zip(labels, maps))
    le = frozenset(
        (la, lb)
        for la in labels
        for lb in labels
        if all(b.leq(by_label[la](p), by_label[lb](p)) for p in a.points)
    )
    return PairSpace(labels, le, provenance="order")


def reference_vietoris(base):
    closed = base.closed_sets()
    labels = tuple(set_label(c, base.points) for c in closed)
    by_label = dict(zip(labels, closed))
    le = frozenset(
        (la, lb) for la in labels for lb in labels if by_label[la] >= by_label[lb]
    )
    return PairSpace(labels, le, provenance="order")


REFERENCE_TEST_SPACES = (
    PairSpace(("t0",), frozenset({("t0", "t0")})),
    PairSpace(("t0", "t1"), frozenset({("t0", "t0"), ("t1", "t1"), ("t0", "t1")})),
    PairSpace(("t0", "t1"), frozenset({("t0", "t0"), ("t1", "t1")})),
)


def reference_labeled_posets(n):
    pts = _labels(n)
    pair = [[(a, b) for a in pts] for b in pts]
    full = (1 << n) - 1
    out = []

    def rec(downs, le):
        i = len(downs)
        if i == n:
            out.append(PairSpace(pts, frozenset(le)))
            return
        bound = full & ~(1 << i)
        for dj in downs:
            if dj >> i & 1:
                bound &= dj
        m = 0
        while True:
            if all(not m >> j & 1 or not downs[j] & ~m for j in range(i)):
                rec(downs + [m], le + [pair[i][j] for j in range(n) if m >> j & 1])
            if m == bound:
                return
            m = (m - bound) & bound

    rec([], [pair[k][k] for k in range(n)])
    return tuple(out)


def _positions(perm):
    pos = [0] * len(perm)
    for a, x in enumerate(perm):
        pos[x] = a
    return pos


def _rows(strict, perm):
    n = len(perm)
    pos = _positions(perm)
    rows = [0] * n
    for i, j in strict:
        rows[pos[i]] |= 1 << (n - 1 - pos[j])
    return tuple(rows)


def reference_canonical_form(space):
    pts = space.points
    n = len(pts)
    idx = {p: i for i, p in enumerate(pts)}
    strict = [(idx[x], idx[y]) for (x, y) in space.le if x != y]
    below, above = [[] for _ in range(n)], [[] for _ in range(n)]
    for i, j in strict:
        above[i].append(j)
        below[j].append(i)
    colors = _refine_colors(below, above)
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
    labels = _labels(n)
    le = [(l, l) for l in labels]
    le += [(labels[pos[i]], labels[pos[j]]) for i, j in strict]
    return PairSpace(labels, frozenset(le))


def reference_labeled_preorders(n):
    pts = _labels(n)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for mask in range(1 << len(pairs)):
        rel = {(i, i) for i in range(n)}
        rel.update(p for k, p in enumerate(pairs) if mask >> k & 1)
        if all((x, w) in rel for (x, y) in rel for (z, w) in rel if y == z):
            out.append(PairSpace(pts, frozenset((pts[i], pts[j]) for (i, j) in rel)))
    return tuple(out)


# -- the comparisons ---------------------------------------------------------


PREORDERS = [s for n in range(4) for s in enumerate_labeled_preorders(n)]
POSETS = [s for n in range(5) for s in enumerate_labeled_posets(n)]
UNIVERSE = PREORDERS + POSETS
UNIVERSE += [build_space(s.points[::-1], order=s.le) for s in UNIVERSE]  # out of label order
OPEN_SET_POINTS = 9  # the reference lists open sets from all 2**n subsets


class Pairs:
    """Collects (new, reference) pairs and compares them field by field."""

    def __init__(self):
        self.new, self.ref = [], []

    def add(self, new, ref):
        assert isinstance(new, FiniteSpace) and isinstance(ref, PairSpace)
        assert (new.points, new.le, new.up_masks) == (ref.points, ref.le, ref.up_masks), ref
        if len(ref.points) <= OPEN_SET_POINTS:
            assert new.open_sets() == ref.open_sets(), ref
        assert (new.provenance, new.name, repr(new)) == (ref.provenance, ref.name, repr(ref))
        self.new.append(new)
        self.ref.append(ref)

    def check_values(self):
        """Equal under one coding iff equal under the other, with equal hashes."""

        def classes(items):
            groups = {}
            for k, item in enumerate(items):
                groups.setdefault(item, []).append(k)
            return sorted(groups.values())

        assert classes(self.new) == classes(self.ref)
        for new in self.new:
            twin = FiniteSpace(new.points, new.up_masks, new.provenance, new.name)
            assert twin == new and hash(twin) == hash(new)


def _as_pairs(space):
    return PairSpace(space.points, space.le, space.provenance, space.name)


def test_enumerations_match_the_pair_coding():
    seen = Pairs()
    for n in range(4):
        pairs = zip(enumerate_labeled_preorders(n), reference_labeled_preorders(n), strict=True)
        for new, ref in pairs:
            seen.add(new, ref)
    for n in range(5):
        pairs = zip(enumerate_labeled_posets(n), reference_labeled_posets(n), strict=True)
        for new, ref in pairs:
            seen.add(new, ref)
            seen.add(canonical_form(new), reference_canonical_form(ref))
    for new, ref in zip(_TEST_SPACES, REFERENCE_TEST_SPACES, strict=True):
        seen.add(new, ref)
    seen.check_values()


def test_constructions_on_one_space_match_the_pair_coding():
    seen = Pairs()
    for s in UNIVERSE + [spaces.diamond(), spaces.m3(), spaces.div12()]:
        ref = _as_pairs(s)
        strict = [(x, y) for (x, y) in s.le if x != y]
        seen.add(build_space(s.points, order=strict), reference_build_order(s.points, strict))
        opens = s.open_sets()
        seen.add(build_space(s.points, opens=opens), reference_build_opens(s.points, opens))
        seen.add(t0_report(s).reflection, reference_t0_reflection(ref))
        seen.add(vietoris_space(s).space, reference_vietoris(s))
        for data in subsets(s.points):
            seen.add(induced_space("subspace", s, data).space, reference_subspace(ref, data))
    seen.check_values()


def test_constructions_on_two_spaces_match_the_pair_coding():
    seen = Pairs()
    point = spaces.point()
    for a, b in itertools.product(PREORDERS, repeat=2):
        seen.add(product_space([a, b]).space, reference_product([_as_pairs(a), _as_pairs(b)]))
        seen.add(sum_space([a, b]).space, reference_sum([a, b]))
        over = [lax_object(s, point, {p: "*" for p in s.points}) for s in (a, b)]
        seen.add(exponential_object(*over).obj.space, reference_exponential_order(a, b))
    seen.check_values()
