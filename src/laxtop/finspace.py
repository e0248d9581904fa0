"""Finite topological spaces and continuous maps.

Every finite space is Alexandroff, so a space is stored canonically as the
preorder ``x <= y`` iff every open neighbourhood of y contains x.  Open sets
are exactly the down-closed subsets of that preorder and continuous maps are
exactly the monotone ones, which keeps all operations combinatorial.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .errors import (
    Budget,
    DuplicatePoint,
    NotATopology,
    NotContinuous,
    NotSurjective,
    UnknownLabel,
)


@dataclass(frozen=True)
class FiniteSpace:
    """A finite point set together with its natural-order preorder.

    ``le`` contains the pair (x, y) exactly when x <= y.  The relation is
    validated to be reflexive and transitive; antisymmetry is *not* required
    (non-T0 spaces are legal).
    """

    points: tuple
    le: frozenset
    provenance: str = "order"
    name: str = ""

    def __post_init__(self):
        # on point indices: up[i] has bit j set iff points[i] <= points[j]
        points = self.points
        idx = {}
        for i, p in enumerate(points):
            if p in idx:
                raise DuplicatePoint(f"duplicate point label {p!r}")
            idx[p] = i
        up = [0] * len(points)
        for (x, y) in self.le:
            i, j = idx.get(x), idx.get(y)
            if i is None or j is None:
                raise UnknownLabel(f"relation mentions unknown point ({x!r}, {y!r})")
            up[i] |= 1 << j
        for i, p in enumerate(points):
            if not up[i] >> i & 1:
                raise NotATopology(f"relation not reflexive at {p!r}")
        for (x, y) in self.le:
            missing = up[idx[y]] & ~up[idx[x]]  # every z with y <= z but not x <= z
            if missing:
                z = points[(missing & -missing).bit_length() - 1]
                raise NotATopology(f"relation not transitive: {x!r}<={y!r}<={z!r}")

    # -- order queries -----------------------------------------------------

    def leq(self, x, y) -> bool:
        return (x, y) in self.le

    @cached_property
    def above(self) -> dict:
        """Each point's up-set as a tuple in point order, built on first use.

        Not a field: equality, hashing, repr and serialization ignore it.
        """
        return {
            x: tuple(y for y in self.points if (x, y) in self.le) for x in self.points
        }

    def down(self, x) -> frozenset:
        """Down-set of a point; this is also its minimal open neighbourhood."""
        return frozenset(y for y in self.points if (y, x) in self.le)

    def up(self, x) -> frozenset:
        """Up-set of a point; this is also the closure of {x}."""
        return frozenset(y for y in self.points if (x, y) in self.le)

    def down_closure(self, subset) -> frozenset:
        s = frozenset(subset)
        return frozenset(y for y in self.points if any((y, x) in self.le for x in s))

    def up_closure(self, subset) -> frozenset:
        s = frozenset(subset)
        return frozenset(y for y in self.points if any((x, y) in self.le for x in s))

    def is_down_closed(self, subset) -> bool:
        s = frozenset(subset)
        return all((y, x) not in self.le or y in s for x in s for y in self.points)

    def is_up_closed(self, subset) -> bool:
        s = frozenset(subset)
        return all((x, y) not in self.le or y in s for x in s for y in self.points)

    def is_t0(self) -> bool:
        return all(
            not ((x, y) in self.le and (y, x) in self.le)
            for x, y in itertools.combinations(self.points, 2)
        )

    def open_sets(self):
        """All open (= down-closed) subsets, deterministically ordered."""
        return _down_sets(self)

    def closed_sets(self):
        """All closed (= up-closed) subsets, deterministically ordered."""
        full = frozenset(self.points)
        return tuple(full - o for o in _down_sets(self))

    def check_labels(self, subset):
        known = set(self.points)
        for x in subset:
            if x not in known:
                raise UnknownLabel(f"unknown point label {x!r}")

    def __repr__(self):
        tag = self.name or f"{len(self.points)}pt"
        return f"FiniteSpace({tag})"


@lru_cache(maxsize=None)
def _down_sets(space: FiniteSpace):
    """Every down-closed subset of the space, sorted by (size, membership).

    Output-sensitive: points are processed along a linear extension, and each
    existing down-set is extended by the new point exactly when its strict
    down-set is already present.
    """
    pts = space.points
    idx = {p: i for i, p in enumerate(pts)}
    # equivalent points (non-T0) must enter a down-set together: work with
    # equivalence classes, whose induced order is a genuine poset
    rep = {}
    for p in pts:
        cls = [q for q in pts if space.leq(p, q) and space.leq(q, p)]
        rep[p] = min(cls, key=idx.get)
    reps = [p for p in pts if rep[p] == p]
    class_bit = {
        r: sum(1 << idx[p] for p in pts if rep[p] == r) for r in reps
    }
    downs = {
        r: sum(
            class_bit[s]
            for s in reps
            if s != r and space.leq(s, r)
        )
        for r in reps
    }
    order = sorted(reps, key=lambda r: downs[r].bit_count())
    masks = [0]
    for r in order:
        need = downs[r]
        bit = class_bit[r]
        masks.extend([m | bit for m in masks if m & need == need])
    result = [
        frozenset(pts[i] for i in range(len(pts)) if mask >> i & 1)
        for mask in masks
    ]
    result.sort(key=lambda s: (len(s), sorted(s)))
    return tuple(result)


@dataclass(frozen=True)
class CMap:
    """A continuous (equivalently monotone) map between finite spaces.

    ``table`` is stored as a tuple of (point, image) pairs in source point
    order, so the value is hashable and two equal maps compare equal.
    ``image`` is the same table as a dict, built once so that a call is one
    lookup; it takes no part in comparison, hashing or repr.
    """

    source: FiniteSpace
    target: FiniteSpace
    table: tuple
    image: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "image", dict(self.table))

    @property
    def mapping(self) -> dict:
        return dict(self.table)

    def __call__(self, x):
        try:
            return self.image[x]
        except (KeyError, TypeError):
            raise UnknownLabel(f"point {x!r} not in source of map") from None

    def is_surjective(self) -> bool:
        return set(v for (_, v) in self.table) == set(self.target.points)

    def compose(self, other: "CMap") -> "CMap":
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise NotContinuous("composition mismatch")
        m = self.mapping
        return cmap(other.source, self.target, {p: m[v] for (p, v) in other.table})

    def __repr__(self):
        return f"CMap({dict(self.table)!r})"


def _total_table(table, source: FiniteSpace, target: FiniteSpace) -> dict:
    """The point table as a dict, once its labels are known and it is total."""
    table = dict(table)
    source.check_labels(table.keys())
    target.check_labels(table.values())
    if set(table) != set(source.points):
        missing = sorted(set(source.points) - set(table))
        raise UnknownLabel(f"map table not total, missing {missing}")
    return table


def cmap(source: FiniteSpace, target: FiniteSpace, table) -> CMap:
    """Build a validated CMap from a point dict; raises if not continuous."""
    table = _total_table(table, source, target)
    if not _monotone(table, source, target):
        raise NotContinuous(f"map {table} is not monotone")
    return CMap(source, target, tuple((p, table[p]) for p in source.points))


def identity_map(space: FiniteSpace) -> CMap:
    return cmap(space, space, {p: p for p in space.points})


def _monotone(table, source, target) -> bool:
    return all(
        (table[x], table[y]) in target.le for (x, y) in source.le
    )


def _transitive_reflexive_closure(points, pairs):
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


def build_space(points, opens=None, order=None, name="") -> FiniteSpace:
    """Build a validated space from either an open-set family or order pairs.

    With ``opens``, the family must contain the empty and the full set and be
    closed under pairwise union and intersection; the natural order is then
    derived and cross-checked against the input family.  With ``order``, any
    relation is accepted and its reflexive-transitive closure is taken.
    """
    points = tuple(points)
    seen = set()
    for p in points:
        if p in seen:
            raise DuplicatePoint(f"duplicate point label {p!r}")
        seen.add(p)
    if (opens is None) == (order is None):
        raise NotATopology("exactly one of opens/order must be given")

    if order is not None:
        for (x, y) in order:
            if x not in seen or y not in seen:
                raise UnknownLabel(f"order mentions unknown point ({x!r}, {y!r})")
        le = _transitive_reflexive_closure(points, order)
        return FiniteSpace(points, le, provenance="order", name=name)

    family = []
    for o in opens:
        o = list(o)
        for x in o:  # in input order, so the error names the first unknown label
            if x not in seen:
                raise UnknownLabel(f"open set mentions unknown point {x!r}")
        s = frozenset(o)
        if s not in family:
            family.append(s)
    full = frozenset(points)
    if frozenset() not in family:
        raise NotATopology("empty set missing from open family", offending=frozenset())
    if full not in family:
        raise NotATopology("full set missing from open family", offending=full)
    fam = set(family)
    for a, b in itertools.combinations(family, 2):
        if a | b not in fam:
            raise NotATopology("family not closed under union", offending=(a, b))
        if a & b not in fam:
            raise NotATopology("family not closed under intersection", offending=(a, b))

    le = set()
    for x in points:
        for y in points:
            if all(x in o for o in family if y in o):
                le.add((x, y))
    space = FiniteSpace(points, frozenset(le), provenance="opens", name=name)
    if set(space.open_sets()) != fam:
        # cannot happen for a genuine finite topology; guards invalid input
        raise NotATopology("open family does not match its own natural order")
    return space


def natural_order(space: FiniteSpace) -> frozenset:
    """The relation x <= y iff every open neighbourhood of y contains x."""
    return space.le


@dataclass(frozen=True)
class T0Report:
    is_t0: bool
    reflection: FiniteSpace
    eta: CMap


def t0_report(space: FiniteSpace) -> T0Report:
    """Quotient by x<=y<=x; class representatives are lexicographic minima."""
    rep = {}
    for x in space.points:
        cls = [y for y in space.points if space.leq(x, y) and space.leq(y, x)]
        rep[x] = min(cls)
    classes = sorted(set(rep.values()))
    le = frozenset(
        (a, b) for a in classes for b in classes if space.leq(a, b)
    )
    reflection = FiniteSpace(tuple(classes), le, provenance="order")
    eta = cmap(space, reflection, rep)
    return T0Report(space.is_t0(), reflection, eta)


@dataclass(frozen=True)
class ClosureInfo:
    closure: frozenset
    interior: frozenset
    min_open_nbhd: tuple  # (point, frozenset) pairs for every point


def closure_ops(space: FiniteSpace, subset) -> ClosureInfo:
    space.check_labels(subset)
    s = frozenset(subset)
    closure = space.up_closure(s)
    interior = frozenset(x for x in s if space.down(x) <= s)
    nbhd = tuple((p, space.down(p)) for p in space.points)
    return ClosureInfo(closure, interior, nbhd)


def is_continuous(table, source: FiniteSpace, target: FiniteSpace) -> bool:
    """True iff the total point table is monotone for the natural orders."""
    return _monotone(_total_table(table, source, target), source, target)


def product_label(labels) -> str:
    return "(" + ",".join(labels) + ")"


@dataclass(frozen=True)
class SpaceWithMaps:
    space: FiniteSpace
    maps: tuple


def product_space(spaces) -> SpaceWithMaps:
    """Product with componentwise order; points get labels "(a,b,...)"."""
    spaces = list(spaces)
    combos = list(itertools.product(*(s.points for s in spaces)))
    labels = tuple(product_label(c) for c in combos)
    by_label = dict(zip(labels, combos))
    le = frozenset(
        (a, b)
        for a in labels
        for b in labels
        if all(
            s.leq(x, y) for s, x, y in zip(spaces, by_label[a], by_label[b])
        )
    )
    prod = FiniteSpace(labels, le, provenance="order")
    projections = tuple(
        cmap(prod, s, {lab: by_label[lab][i] for lab in labels})
        for i, s in enumerate(spaces)
    )
    return SpaceWithMaps(prod, projections)


def sum_space(spaces) -> SpaceWithMaps:
    """Disjoint union; points of the i-th summand get labels "in{i}:p"."""
    spaces = list(spaces)
    labels = []
    for i, s in enumerate(spaces):
        labels.extend(f"in{i}:{p}" for p in s.points)
    le = set()
    for i, s in enumerate(spaces):
        for (x, y) in s.le:
            le.add((f"in{i}:{x}", f"in{i}:{y}"))
    total = FiniteSpace(tuple(labels), frozenset(le), provenance="order")
    injections = tuple(
        cmap(s, total, {p: f"in{i}:{p}" for p in s.points})
        for i, s in enumerate(spaces)
    )
    return SpaceWithMaps(total, injections)


@dataclass(frozen=True)
class InducedSpace:
    space: FiniteSpace
    canonical: CMap


def induced_space(kind: str, base: FiniteSpace, data) -> InducedSpace:
    """Subspace (restricted order) or quotient (final topology)."""
    if kind == "subspace":
        base.check_labels(data)
        pts = tuple(p for p in base.points if p in set(data))
        le = frozenset((x, y) for (x, y) in base.le if x in set(pts) and y in set(pts))
        sub = FiniteSpace(pts, le, provenance="order")
        return InducedSpace(sub, cmap(sub, base, {p: p for p in pts}))
    if kind == "quotient":
        table = dict(data)
        base.check_labels(table.keys())
        if set(table) != set(base.points):
            raise NotSurjective("quotient table must be total over the base points")
        values = sorted(set(table.values()))
        # final topology: V open iff its preimage is open
        opens = [
            frozenset(v) for v in subsets(values)
            if base.is_down_closed([p for p in base.points if table[p] in v])
        ]
        quot = build_space(values, opens=opens)
        return InducedSpace(quot, cmap(base, quot, table))
    raise ValueError(f"unknown induced-space kind {kind!r}")


def subsets(items):
    """Every subset of the items as a tuple, by size, then in combination order."""
    items = list(items)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


@dataclass(frozen=True)
class SoberReport:
    is_sober: bool
    irreducibles: tuple  # (closed set, generic point or None) pairs


def sober_report(space: FiniteSpace) -> SoberReport:
    """List irreducible closed sets with generic points, by enumeration."""
    from .errors import NotT0

    if not space.is_t0():
        raise NotT0("sober_report requires a T0 space")
    closeds = [c for c in space.closed_sets() if c]
    out = []
    for c in closeds:
        proper = [d for d in closeds if d < c]
        reducible = any(d1 | d2 == c for d1 in proper for d2 in proper)
        if reducible:
            continue
        generic = None
        for x in sorted(c):
            if space.up(x) == c:
                generic = x
                break
        out.append((c, generic))
    out.sort(key=lambda pair: (len(pair[0]), sorted(pair[0])))
    return SoberReport(all(g is not None for (_, g) in out), tuple(out))


def is_quotient_map(m: CMap) -> bool:
    """True iff surjective and the target carries the final topology."""
    if not m.is_surjective():
        return False
    table = m.mapping
    final_opens = {
        frozenset(v)
        for v in subsets(m.target.points)
        if m.source.is_down_closed([p for p in m.source.points if table[p] in v])
    }
    return set(m.target.open_sets()) == final_opens


@lru_cache(maxsize=None)
def _monotone_tables(source: FiniteSpace, target: FiniteSpace):
    """All monotone point tables source -> target, lexicographically ordered.

    Backtracks in source point order, trying target points in their listed
    order and pruning against already assigned comparable points.  Each
    node of the search is charged to the work budget; a cache hit is free.
    """
    src = source.points
    out = []
    assign = {}
    budget = Budget("continuous map search")

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


def enumerate_cmaps(source: FiniteSpace, target: FiniteSpace):
    """All continuous maps source -> target in deterministic order."""
    return [
        CMap(source, target, tuple(zip(source.points, values)))
        for values in _monotone_tables(source, target)
    ]
