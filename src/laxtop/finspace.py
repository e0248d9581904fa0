"""Finite topological spaces and continuous maps.

Every finite space is Alexandroff, so a space is stored canonically as the
preorder ``x <= y`` iff every open neighbourhood of y contains x.  Open sets
are exactly the down-closed subsets of that preorder and continuous maps are
exactly the monotone ones, which keeps all operations combinatorial.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import (
    Budget,
    DuplicatePoint,
    NotATopology,
    NotContinuous,
    NotSurjective,
    NotT0,
    UnknownLabel,
)

# entries each space-keyed cache keeps; the largest, _monotone_tables, holds
# 691 after the default paper-check and 584 after the descent sweep, and
# enumeration._canonical_rows holds 440 after the 6-point census
CACHE_SIZE = 1024


@dataclass(frozen=True)
class FiniteSpace:
    """A finite point set together with its natural-order preorder, as rows.

    Bit j of ``up_masks[i]`` is set exactly when points[i] <= points[j].  The
    rows are validated to be reflexive and transitive; antisymmetry is *not*
    required (non-T0 spaces are legal).

    The label views are built on first use and are not fields: equality,
    hashing and repr ignore them, and a space that is never asked for them
    stores none of them.  ``index`` maps each point to its position, bit j
    of ``down_masks[i]`` is set iff points[j] <= points[i], ``position_pairs``
    lists the (i, j) with points[i] <= points[j] row by row,
    ``position_chains`` the (i, j, k) with points[i] <= points[j] <= points[k]
    by (i, j) in that order and then k, and ``le`` contains the pair (x, y)
    exactly when x <= y.
    """

    points: tuple
    up_masks: tuple
    provenance: str = "order"
    name: str = ""

    def __post_init__(self):
        points, rows = self.points, self.up_masks
        if len(set(points)) != len(points):
            _relation_rows(points, ())  # raises DuplicatePoint on the first repeat
        n = len(points)
        if len(rows) != n or any(row >> n for row in rows):
            raise UnknownLabel(f"order rows do not fit the {n} points")
        for i, p in enumerate(points):
            if not rows[i] >> i & 1:
                raise NotATopology(f"relation not reflexive at {p!r}")
        for x, row in zip(points, rows):
            rest = row
            while rest:  # each j with x <= points[j], in point order
                low = rest & -rest
                j = low.bit_length() - 1
                missing = rows[j] & ~row  # every z above points[j] and not above x
                if missing:
                    y, z = points[j], points[(missing & -missing).bit_length() - 1]
                    raise NotATopology(f"relation not transitive: {x!r}<={y!r}<={z!r}")
                rest ^= low

    # -- order queries -----------------------------------------------------

    def leq(self, x, y) -> bool:
        index = self.index
        try:
            return self.up_masks[index[x]] >> index[y] & 1 == 1
        except KeyError:  # a label outside the space is below nothing
            return False

    index = cached_property(lambda self: {p: i for i, p in enumerate(self.points)})
    down_masks = cached_property(lambda self: tuple(  # the columns of up_masks
        sum(1 << i for i, row in enumerate(self.up_masks) if row >> j & 1)
        for j in range(len(self.points))
    ))
    position_pairs = cached_property(lambda self: tuple(
        (i, j) for i, row in enumerate(self.up_masks)
        for j in range(row.bit_length()) if row >> j & 1
    ))
    position_chains = cached_property(lambda self: tuple(
        (i, j, k) for i, j in self.position_pairs
        for k in range(self.up_masks[j].bit_length()) if self.up_masks[j] >> k & 1
    ))

    @cached_property
    def le(self) -> frozenset:
        pts, pairs = self.points, []
        for x, row in zip(pts, self.up_masks):
            while row:
                low = row & -row
                pairs.append((x, pts[low.bit_length() - 1]))
                row ^= low
        return frozenset(pairs)

    def points_at(self, mask: int) -> tuple:
        """The points whose bits are set in mask, in point order."""
        return tuple(p for j, p in enumerate(self.points) if mask >> j & 1)

    def _mask(self, subset) -> int:
        """The bits of the labels in subset; labels outside the space are ignored."""
        index = self.index
        return sum({1 << index[x] for x in subset if x in index})  # distinct bits

    def down(self, x) -> frozenset:
        """Down-set of a point; this is also its minimal open neighbourhood."""
        return self.down_closure((x,))

    def up(self, x) -> frozenset:
        """Up-set of a point; this is also the closure of {x}."""
        return self.up_closure((x,))

    def down_closure(self, subset) -> frozenset:
        return frozenset(self.points_at(_union(self.down_masks, self._mask(subset))))

    def up_closure(self, subset) -> frozenset:
        return frozenset(self.points_at(_union(self.up_masks, self._mask(subset))))

    def is_down_closed(self, subset) -> bool:
        mask = self._mask(subset)
        return _union(self.down_masks, mask) == mask

    def is_up_closed(self, subset) -> bool:
        mask = self._mask(subset)
        return _union(self.up_masks, mask) == mask

    def is_t0(self) -> bool:
        return all(
            up & down == 1 << i
            for i, (up, down) in enumerate(zip(self.up_masks, self.down_masks))
        )

    def open_sets(self):
        """All open (= down-closed) subsets, deterministically ordered."""
        return tuple(frozenset(self.points_at(m)) for m in _down_sets(self))

    def closed_sets(self):
        """All closed (= up-closed) subsets, the complements of the open ones in their order."""
        return tuple(frozenset(self.points_at(c)) for c in _closed_masks(self))

    def check_labels(self, subset):
        index = self.index
        for x in subset:
            if x not in index:
                raise UnknownLabel(f"unknown point label {x!r}")

    def __repr__(self):
        tag = self.name or f"{len(self.points)}pt"
        return f"FiniteSpace({tag})"


def _relation_rows(points, pairs):
    """Each label's position, and a list of the up masks of any relation."""
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


def _union(rows, mask: int) -> int:
    """The OR of rows[i] over the set bits i of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def _restricted_rows(rows, at) -> tuple:
    """The rows of the order restricted to the positions at, taken in that order."""
    return tuple(sum(1 << k for k, j in enumerate(at) if rows[i] >> j & 1) for i in at)


@lru_cache(maxsize=CACHE_SIZE)
def _down_sets(space: FiniteSpace):
    """The mask of every down-closed subset of the space, sorted by size,
    then by the sorted labels of its members.

    Output-sensitive: points are processed along a linear extension, and each
    existing down-set is extended by the new point exactly when its strict
    down-set is already present.
    """
    # equivalent points (non-T0) must enter a down-set together: work with
    # equivalence classes, whose induced order is a genuine poset; a class
    # is a mask, represented by its first point
    down = space.down_masks
    classes = [u & d for u, d in zip(space.up_masks, down)]
    reps = [i for i, cls in enumerate(classes) if cls & -cls == 1 << i]
    below = {r: down[r] & ~classes[r] for r in reps}  # the classes strictly below
    masks = [0]
    for r in sorted(reps, key=lambda r: below[r].bit_count()):
        need = below[r]
        bit = classes[r]
        masks.extend([m | bit for m in masks if m & need == need])
    masks.sort(key=lambda m: (m.bit_count(), sorted(space.points_at(m))))
    return tuple(masks)


def _closed_masks(space: FiniteSpace) -> tuple:
    """The mask of every up-closed subset, the complements of the down masks in their order."""
    full = (1 << len(space.points)) - 1
    return tuple(full ^ m for m in _down_sets(space))


@dataclass(frozen=True)
class CMap:
    """A continuous (equivalently monotone) map between finite spaces.

    ``positions`` holds the target position of each source point, in source
    point order, so the value is hashable and two equal maps compare equal.
    The label tables are built on first use and are not fields: ``table``
    lists the (point, image) pairs in source point order, and ``image`` is
    the same as a dict, so that a call is one lookup.  ``fibres``, built
    the same way, has bit a of entry j set when source position a maps to j.
    """

    source: FiniteSpace
    target: FiniteSpace
    positions: tuple

    @cached_property
    def image(self) -> dict:
        values = self.target.points
        return {p: values[j] for p, j in zip(self.source.points, self.positions)}

    table = cached_property(lambda self: tuple(self.image.items()))

    fibres = cached_property(lambda self: _fibres(self.positions, len(self.target.points)))

    def __call__(self, x):
        try:
            return self.image[x]
        except (KeyError, TypeError):
            raise UnknownLabel(f"point {x!r} not in source of map") from None

    def is_surjective(self) -> bool:
        return len(set(self.positions)) == len(self.target.points)

    def compose(self, other: "CMap") -> "CMap":
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise NotContinuous("composition mismatch")
        return CMap(other.source, self.target, tuple(self.positions[j] for j in other.positions))

    def __repr__(self):
        return f"CMap({self.image!r})"


def _fibres(positions, size: int) -> tuple:
    """The mask of each of size targets, with bit a set when positions[a] is that target."""
    out = [0] * size
    for a, j in enumerate(positions):
        out[j] |= 1 << a
    return tuple(out)


def _target_positions(table: dict, source: FiniteSpace, target: FiniteSpace) -> tuple:
    """The target position of each source point, once the labels of the point
    dict are known and it is total."""
    source.check_labels(table.keys())
    target.check_labels(table.values())
    if set(table) != set(source.points):
        missing = sorted(set(source.points) - set(table))
        raise UnknownLabel(f"map table not total, missing {missing}")
    index = target.index
    return tuple(index[table[p]] for p in source.points)


def cmap(source: FiniteSpace, target: FiniteSpace, table) -> CMap:
    """Build a validated CMap from a point dict; raises if not continuous."""
    table = dict(table)
    positions = _target_positions(table, source, target)
    if not is_monotone(positions, source.up_masks, target.up_masks):
        raise NotContinuous(f"map {table} is not monotone")
    return CMap(source, target, positions)


def identity_map(space: FiniteSpace) -> CMap:
    return CMap(space, space, tuple(range(len(space.points))))


def is_monotone(image, rows, target_rows) -> bool:
    """Whether a map, given as target positions in source point order, is monotone.

    rows and target_rows are the up masks (or both the down masks) of the
    source and the target: each point's row must map into its image's row.
    """
    bits = [1 << j for j in image]
    return all(not _union(bits, row) & ~target_rows[j] for row, j in zip(rows, image))


def _transitive_reflexive_closure(points, pairs):
    """The rows of the least preorder on the points that contains the pairs."""
    _, up = _relation_rows(points, pairs)
    return _closure([row | 1 << i for i, row in enumerate(up)])


def _closure(up) -> tuple:
    """The transitive closure of reflexive rows, updating the list up."""
    for k in range(len(up)):  # Warshall: paths may now pass through position k
        through = up[k]
        for i, row in enumerate(up):
            if row >> k & 1:
                up[i] = row | through
    return tuple(up)


def build_space(points, opens=None, order=None, name="") -> FiniteSpace:
    """Build a validated space from either an open-set family or order pairs.

    With ``opens``, the family must contain the empty and the full set and be
    closed under pairwise union and intersection; the natural order is then
    derived and cross-checked against the input family.  With ``order``, any
    relation is accepted and its reflexive-transitive closure is taken.
    """
    points = tuple(points)
    seen = _relation_rows(points, ())[0]  # raises on a duplicate label
    if (opens is None) == (order is None):
        raise NotATopology("exactly one of opens/order must be given")

    if order is not None:
        order = tuple(order)
        for (x, y) in order:
            if x not in seen or y not in seen:
                raise UnknownLabel(f"order mentions unknown point ({x!r}, {y!r})")
        rows = _transitive_reflexive_closure(points, order)
        return FiniteSpace(points, rows, provenance="order", name=name)

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

    masks = {sum(1 << seen[x] for x in o) for o in family}
    n = len(points)
    rows = tuple(  # x <= y iff every open set holding y holds x
        sum(1 << j for j in range(n) if all(m >> i & 1 for m in masks if m >> j & 1))
        for i in range(n)
    )
    space = FiniteSpace(points, rows, provenance="opens", name=name)
    if set(_down_sets(space)) != masks:
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
    reps = [min(space.points_at(u & d)) for u, d in zip(space.up_masks, space.down_masks)]
    classes = sorted(set(reps))
    rows = _restricted_rows(space.up_masks, [space.index[c] for c in classes])
    reflection = FiniteSpace(tuple(classes), rows, provenance="order")
    eta = CMap(space, reflection, tuple(reflection.index[r] for r in reps))
    return T0Report(space.is_t0(), reflection, eta)


@dataclass(frozen=True)
class ClosureInfo:
    closure: frozenset
    interior: frozenset
    min_open_nbhd: tuple  # (point, frozenset) pairs for every point


def closure_ops(space: FiniteSpace, subset) -> ClosureInfo:
    subset = tuple(subset)
    space.check_labels(subset)
    s = frozenset(subset)
    closure = space.up_closure(s)
    interior = frozenset(x for x in s if space.down(x) <= s)
    nbhd = tuple((p, space.down(p)) for p in space.points)
    return ClosureInfo(closure, interior, nbhd)


def is_continuous(table, source: FiniteSpace, target: FiniteSpace) -> bool:
    """True iff the total point table is monotone for the natural orders."""
    positions = _target_positions(dict(table), source, target)
    return is_monotone(positions, source.up_masks, target.up_masks)


_SPECIAL = re.compile(r'[][(){}",;:]')


def label_part(part: str, separators: str = ",") -> str:
    """One part of a generated label, written so that the parts read back.

    A part goes in unchanged when it is not empty, has no '"', its brackets
    balance and no separator stands outside them; otherwise it goes in as a
    JSON string.  So nested labels keep their bytes and labels never collide.
    """
    if part and not _SPECIAL.search(part):
        return part
    depth = 0
    for ch in part:
        depth += (ch in "([{") - (ch in ")]}")
        if depth < 0 or ch == '"' or (depth == 0 and ch in separators):
            return json.dumps(part, ensure_ascii=False)
    return part if part and depth == 0 else json.dumps(part, ensure_ascii=False)


def product_label(labels) -> str:
    return "(" + ",".join([label_part(x) for x in labels]) + ")"


@dataclass(frozen=True)
class SpaceWithMaps:
    space: FiniteSpace
    maps: tuple


def product_space(spaces) -> SpaceWithMaps:
    """Product with componentwise order; points get labels "(a,b,...)".

    The points come in the order of their coordinates, so the row of
    (c, x) holds the row of x once at the place of each point above c.
    """
    spaces = list(spaces)
    combos = list(itertools.product(*(range(len(s.points)) for s in spaces)))
    labels = tuple(product_label(s.points[j] for s, j in zip(spaces, c)) for c in combos)
    rows = [1]  # the one point of the empty product
    for s in spaces:
        width = len(s.points)
        rows = [
            sum(up << (k * width) for k in range(len(rows)) if row >> k & 1)
            for row in rows
            for up in s.up_masks
        ]
    prod = FiniteSpace(labels, tuple(rows), provenance="order")
    projections = tuple(
        CMap(prod, s, tuple(c[i] for c in combos)) for i, s in enumerate(spaces)
    )
    return SpaceWithMaps(prod, projections)


def sum_space(spaces) -> SpaceWithMaps:
    """Disjoint union; points of the i-th summand get labels "in{i}:p"."""
    spaces = list(spaces)
    labels = []
    for i, s in enumerate(spaces):
        labels.extend(f"in{i}:{p}" for p in s.points)
    rows, offsets = [], []
    for s in spaces:
        offsets.append(len(rows))
        rows.extend(up << offsets[-1] for up in s.up_masks)
    total = FiniteSpace(tuple(labels), tuple(rows), provenance="order")
    injections = tuple(
        CMap(s, total, tuple(range(k, k + len(s.points)))) for s, k in zip(spaces, offsets)
    )
    return SpaceWithMaps(total, injections)


@dataclass(frozen=True)
class InducedSpace:
    space: FiniteSpace
    canonical: CMap


def induced_space(kind: str, base: FiniteSpace, data) -> InducedSpace:
    """Subspace (restricted order) or quotient (final topology)."""
    if kind == "subspace":
        data = tuple(data)
        base.check_labels(data)
        chosen = set(data)
        return _subspace(base, [i for i, p in enumerate(base.points) if p in chosen])
    if kind == "quotient":
        table = dict(data)
        base.check_labels(table.keys())
        if set(table) != set(base.points):
            raise NotSurjective("quotient table must be total over the base points")
        values = sorted(set(table.values()))
        at = {v: k for k, v in enumerate(values)}
        return _quotient(base, tuple(values), tuple(at[table[p]] for p in base.points))
    raise ValueError(f"unknown induced-space kind {kind!r}")


def _subspace(base: FiniteSpace, at) -> InducedSpace:
    """The subspace on the increasing positions at, with its inclusion."""
    pts = tuple(base.points[i] for i in at)
    sub = FiniteSpace(pts, _restricted_rows(base.up_masks, at), provenance="order")
    return InducedSpace(sub, CMap(sub, base, tuple(at)))


def _quotient(base: FiniteSpace, values: tuple, positions: tuple) -> InducedSpace:
    """The quotient onto the labels values, base position i going to
    positions[i], with its canonical map."""
    quot = FiniteSpace(values, _final_rows(base, positions, len(values)), provenance="opens")
    return InducedSpace(quot, CMap(base, quot, positions))


def _final_rows(source: FiniteSpace, image, width: int) -> tuple:
    """The order of the final topology of a map, given as target positions.

    A set of values is open when its preimage is down-closed, so the order
    is the least preorder that holds the image of every source pair.
    """
    bits = [1 << k for k in image]
    up = [1 << k for k in range(width)]
    for k, row in zip(image, source.up_masks):
        up[k] |= _union(bits, row)
    return _closure(up)


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
    if not space.is_t0():
        raise NotT0("sober_report requires a T0 space")
    closeds = [c for c in _closed_masks(space) if c]
    up, out = space.up_masks, []
    for c in closeds:
        proper = [d for d in closeds if d & c == d != c]
        if any(d1 | d2 == c for d1 in proper for d2 in proper):
            continue
        # the generic point of c is the one whose closure, its up mask, is c
        out.append((frozenset(space.points_at(c)), space.points[up.index(c)] if c in up else None))
    out.sort(key=lambda pair: (len(pair[0]), sorted(pair[0])))
    return SoberReport(all(g is not None for (_, g) in out), tuple(out))


def is_quotient_map(m: CMap) -> bool:
    """True iff surjective and the target carries the final topology."""
    if not m.is_surjective():
        return False
    return m.target.up_masks == _final_rows(m.source, m.positions, len(m.target.points))


@lru_cache(maxsize=CACHE_SIZE)
def _monotone_tables(source: FiniteSpace, target: FiniteSpace):
    """All monotone maps source -> target as tuples of target positions, in
    source point order, lexicographically ordered.

    Backtracks in source point order, trying target points in their listed
    order; a node allows, as one mask, the values above the images of the
    earlier points below it and below those of the earlier points above it.
    Each node of the search is charged to the work budget; a cache hit is free.
    """
    n, width = len(source.points), len(target.points)
    up, down = target.up_masks, target.down_masks
    earlier_below = [
        [q for q in range(i) if row >> q & 1] for i, row in enumerate(source.down_masks)
    ]
    earlier_above = [
        [q for q in range(i) if row >> q & 1] for i, row in enumerate(source.up_masks)
    ]
    everything = (1 << width) - 1
    out = []
    assign = [0] * n
    budget = Budget("continuous map search")

    def backtrack(i):
        budget.spend()
        if i == n:
            out.append(tuple(assign))
            return
        allowed = everything
        for q in earlier_below[i]:
            allowed &= up[assign[q]]
        for q in earlier_above[i]:
            allowed &= down[assign[q]]
        for j in range(width):
            if allowed >> j & 1:
                assign[i] = j
                backtrack(i + 1)

    backtrack(0)
    return tuple(out)


def enumerate_cmaps(source: FiniteSpace, target: FiniteSpace):
    """All continuous maps source -> target in deterministic order."""
    return [CMap(source, target, positions) for positions in _monotone_tables(source, target)]
