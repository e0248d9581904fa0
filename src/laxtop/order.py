"""Lattice-theoretic analysis of a base space's natural order.

All verdicts are computed by exhaustive bound search over the (small) point
set, on the space's up and down masks and the lattice's meet and join
tables over positions; labels appear only in the output tables and
witnesses, which let the harness mine counterexamples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import (
    Budget,
    MeetsMissing,
    NoMeets,
    NotACompleteLattice,
    NotAPartialOrder,
    NotT0,
)
from .finspace import CACHE_SIZE, FiniteSpace, build_space, subsets


def _extreme(space, rows, mask):
    """The first point whose row in rows is mask, or None.

    A down-closed mask has a greatest point exactly when it is that point's
    down mask, and an up-closed mask a least point exactly when it is that
    point's up mask.
    """
    return space.points[rows.index(mask)] if mask in rows else None


@dataclass(frozen=True)
class LatticeReport:
    has_bottom: bool
    has_top: bool
    bottom: object
    top: object
    meet_table: tuple  # ((x, y), z) pairs, partial, x <= y in point order
    join_table: tuple
    is_meet_semilattice: bool
    is_join_semilattice: bool
    is_complete_lattice: bool
    witnesses: tuple  # ("meet"|"join", x, y) for missing bounds

    # the tables as dicts on both (x, y) and (y, x), built on first use;
    # not fields, so equality, hashing and repr ignore them
    meets = cached_property(lambda self: _symmetric(self.meet_table))
    joins = cached_property(lambda self: _symmetric(self.join_table))

    def meet(self, x, y):
        return self.meets.get((x, y))

    def join(self, x, y):
        return self.joins.get((x, y))

    def to_json_dict(self):
        return {
            "bottom": self.bottom,
            "has_bottom": self.has_bottom,
            "has_top": self.has_top,
            "is_complete_lattice": self.is_complete_lattice,
            "is_join_semilattice": self.is_join_semilattice,
            "is_meet_semilattice": self.is_meet_semilattice,
            "join_table": [[list(k), v] for (k, v) in self.join_table],
            "meet_table": [[list(k), v] for (k, v) in self.meet_table],
            "top": self.top,
            "witnesses": [list(w) for w in self.witnesses],
        }


@lru_cache(maxsize=CACHE_SIZE)
def lattice_report(space: FiniteSpace) -> LatticeReport:
    """Meet/join tables and completeness verdict by exhaustive bound search.

    The lower bounds of points i and j are down[i] & down[j], and their meet
    is the point whose down mask that is; joins, top and bottom likewise.
    """
    if not space.is_t0():
        raise NotT0("lattice analysis requires a T0 base")
    pts, up, down = space.points, space.up_masks, space.down_masks
    meet_table = []
    join_table = []
    witnesses = []
    for i, x in enumerate(pts):
        for j, y in enumerate(pts[i:], i):
            m = _extreme(space, down, down[i] & down[j])
            if m is None:
                witnesses.append(("meet", x, y))
            else:
                meet_table.append(((x, y), m))
            m = _extreme(space, up, up[i] & up[j])
            if m is None:
                witnesses.append(("join", x, y))
            else:
                join_table.append(((x, y), m))
    everything = (1 << len(pts)) - 1
    bottom = _extreme(space, up, everything)
    top = _extreme(space, down, everything)
    n_pairs = len(pts) * (len(pts) + 1) // 2
    is_meet = len(meet_table) == n_pairs
    is_join = len(join_table) == n_pairs
    complete = bool(pts) and is_meet and is_join and bottom is not None and top is not None
    return LatticeReport(
        has_bottom=bottom is not None,
        has_top=top is not None,
        bottom=bottom,
        top=top,
        meet_table=tuple(meet_table),
        join_table=tuple(join_table),
        is_meet_semilattice=is_meet,
        is_join_semilattice=is_join,
        is_complete_lattice=complete,
        witnesses=tuple(witnesses),
    )


class LatticeOps:
    """Meet/join arithmetic for a space whose order is a complete lattice.

    The tables are over point positions, built once from the order masks:
    ``meet_index[i][j]`` is the position whose down mask is
    ``down[i] & down[j]``, ``join_index`` likewise with the up masks, and
    the top and bottom are the points whose down and up masks are full.
    The label methods are adapters over the tables; families are folded,
    so the empty meet is the top and the empty join is the bottom.
    """

    def __init__(self, space: FiniteSpace):
        if not lattice_report(space).is_complete_lattice:
            raise NotACompleteLattice(
                f"natural order of {space!r} is not a complete lattice"
            )
        self.space = space
        down, up, everything = space.down_masks, space.up_masks, (1 << len(space.points)) - 1
        self.meet_index, self.join_index = _intersections(down), _intersections(up)
        self.top_index, self.bottom_index = down.index(everything), up.index(everything)
        self.top, self.bottom = space.points[self.top_index], space.points[self.bottom_index]

    def meet(self, x, y):
        index = self.space.index
        return self.space.points[self.meet_index[index[x]][index[y]]]

    def join(self, x, y):
        index = self.space.index
        return self.space.points[self.join_index[index[x]][index[y]]]

    def meet_of(self, items):
        return self._fold(self.meet_index, self.top_index, items)

    def join_of(self, items):
        return self._fold(self.join_index, self.bottom_index, items)

    def _fold(self, table, acc, items):
        index = self.space.index
        for x in items:
            acc = table[acc][index[x]]
        return self.space.points[acc]

    def join_mask(self, mask):
        """The position of the join of the positions in mask."""
        acc = self.bottom_index
        for v in range(mask.bit_length()):
            if mask >> v & 1:
                acc = self.join_index[acc][v]
        return acc


def _intersections(rows) -> tuple:
    """The table whose entry (i, j) is the position whose row is rows[i] & rows[j]."""
    at = {row: k for k, row in enumerate(rows)}
    return tuple(tuple(at[r & s] for s in rows) for r in rows)


def _symmetric(table) -> dict:
    """A binary operation table of ((x, y), z) entries as a dict on both (x, y) and (y, x)."""
    out = {}
    for ((x, y), z) in table:
        out[(x, y)] = z
        out[(y, x)] = z
    return out


@lru_cache(maxsize=CACHE_SIZE)
def lattice_ops(space: FiniteSpace) -> LatticeOps:
    return LatticeOps(space)


def order_to_space(order: FiniteSpace, which: str) -> FiniteSpace:
    """Equip the natural order of a T0 space with its lower, Scott, or
    Alexandroff topology.

    For finite orders all three coincide; each family is still constructed
    literally from its definition so the coincidence is checkable.
    """
    if not order.is_t0():
        raise NotAPartialOrder("input order is not antisymmetric")
    pts = list(order.points)
    full = frozenset(pts)

    if which == "alexandroff":
        closed = set(order.closed_sets())
    elif which == "scott":
        index, down = order.index, order.down_masks
        closed = set()
        for s in order.closed_sets():
            meets = (  # of the codirected subsets, where they exist
                meet_position(order, [down[index[x]] for x in sub])
                for sub in subsets(s) if _is_codirected(order, sub)
            )
            if all(m is None or order.points[m] in s for m in meets):
                closed.add(s)
    elif which == "lower":
        # subbasis {up(a)}; close under intersection, then under union
        gens = {order.up(a) for a in pts} | {frozenset(), full}
        closed = set(gens)
        changed = True
        while changed:
            changed = False
            for a, b in itertools.combinations(list(closed), 2):
                for c in (a & b, a | b):
                    if c not in closed:
                        closed.add(c)
                        changed = True
    else:
        raise ValueError(f"unknown topology kind {which!r}")

    opens = [full - c for c in closed]
    space = build_space(pts, opens=opens)
    if space.up_masks != order.up_masks:
        raise NotAPartialOrder("constructed topology does not induce the input order")
    return space


def _is_codirected(space, subset) -> bool:
    """Nonempty and every two elements have a lower bound inside the subset."""
    return bool(subset) and all(
        any(space.leq(z, x) and space.leq(z, y) for z in subset)
        for x in subset
        for y in subset
    )


@dataclass(frozen=True)
class HeytingReport:
    is_heyting: bool
    implication_table: tuple  # ((x, y), z) pairs, partial
    failure_witness: object  # (x, y) or None

    def to_json_dict(self):
        return {
            "failure_witness": list(self.failure_witness) if self.failure_witness else None,
            "implication_table": [[list(k), v] for (k, v) in self.implication_table],
            "is_heyting": self.is_heyting,
        }


@lru_cache(maxsize=CACHE_SIZE)
def heyting_report(space: FiniteSpace) -> HeytingReport:
    """Implication x=>y as the maximum of {z : x/\\z <= y}, when it exists.

    The down mask of x/\\z is down[x] & down[z], so x/\\z <= y exactly when
    down[z] misses the points below x and not below y.
    """
    report = lattice_report(space)
    if not report.is_meet_semilattice:
        raise NoMeets("Heyting analysis requires binary meets")
    down = space.down_masks
    table = []
    witness = None
    for x, dx in zip(space.points, down):
        for y, dy in zip(space.points, down):
            outside = dx & ~dy
            candidates = sum(1 << k for k, dz in enumerate(down) if not dz & outside)
            m = _extreme(space, down, candidates)
            if m is None:
                if witness is None:
                    witness = (x, y)
            else:
                table.append(((x, y), m))
    total = len(table) == len(space.points) ** 2
    return HeytingReport(total, tuple(table), witness)


@dataclass(frozen=True)
class DistributivityReport:
    is_frame: bool
    way_above_table: tuple  # (x, y) pairs with x way above y
    totally_below_table: tuple  # (v, u) pairs with v totally below u
    is_continuous_lattice: bool
    is_op_continuous_lattice: bool
    is_completely_distributive: bool
    witnesses: tuple

    def to_json_dict(self):
        return {
            "is_completely_distributive": self.is_completely_distributive,
            "is_continuous_lattice": self.is_continuous_lattice,
            "is_frame": self.is_frame,
            "is_op_continuous_lattice": self.is_op_continuous_lattice,
            "totally_below_table": [list(p) for p in self.totally_below_table],
            "way_above_table": [list(p) for p in self.way_above_table],
            "witnesses": [list(w) for w in self.witnesses],
        }


def _approximants(rows, bounds, sets) -> list:
    """For each position y, the mask of the positions x such that every mask
    S in sets whose bound bounds[S] lies in rows[y] meets rows[x].

    With the down masks and the meets of the codirected sets, x is way above
    y; with the up masks and the joins of the directed sets, x is way below
    y; with the up masks and the joins of all sets, x is totally below y.
    """
    out = []
    for row in rows:
        under = [s for s in sets if row >> bounds[s] & 1]
        out.append(sum(1 << x for x, r in enumerate(rows) if all(s & r for s in under)))
    return out


def mask_folds(table, unit, values) -> list:
    """A binary table on positions folded over every subset mask of values.

    Entry s is ``table[values[low]][out[rest]]``, where low is the lowest
    bit of s and rest the mask of its other bits; the empty mask holds unit.
    """
    out = [unit] * (1 << len(values))
    for s in range(1, len(out)):
        low, rest = (s & -s).bit_length() - 1, s & (s - 1)
        out[s] = table[values[low]][out[rest]]
    return out


@lru_cache(maxsize=CACHE_SIZE)
def distributivity_report(space: FiniteSpace) -> DistributivityReport:
    """Frame/continuity/complete-distributivity verdicts with witnesses."""
    report = lattice_report(space)
    if not report.is_complete_lattice:
        raise NotACompleteLattice("distributivity analysis needs a complete lattice")
    pts = space.points
    # every subset is quantified over for each pair of points
    Budget("distributivity subset").spend(2 ** len(pts) * len(pts) ** 2)
    ops = lattice_ops(space)
    witnesses = []

    hey = heyting_report(space)
    is_frame = hey.is_heyting
    if not is_frame:
        witnesses.append(("implication-missing",) + hey.failure_witness)

    positions, every = range(len(pts)), range(1 << len(pts))
    meets = mask_folds(ops.meet_index, ops.top_index, positions)
    joins = mask_folds(ops.join_index, ops.bottom_index, positions)
    # a finite set is codirected exactly when it holds its meet, and
    # directed exactly when it holds its join
    down, up = space.down_masks, space.up_masks
    way_above = _approximants(down, meets, [s for s in every if s >> meets[s] & 1])
    way_below = _approximants(up, joins, [s for s in every if s >> joins[s] & 1])
    totally_below = _approximants(up, joins, every)

    verdicts = []
    for tag, bounds, approximants in (
        ("not-meet-of-way-above", meets, way_above),
        ("not-join-of-way-below", joins, way_below),
        ("not-join-of-totally-below", joins, totally_below),
    ):
        failed = [(tag, x) for y, x in enumerate(pts) if bounds[approximants[y]] != y]
        witnesses += failed
        verdicts.append(not failed)
    op_continuous, continuous, completely = verdicts

    return DistributivityReport(
        is_frame=is_frame,
        way_above_table=_pair_table(space, way_above),
        totally_below_table=_pair_table(space, totally_below),
        is_continuous_lattice=continuous,
        is_op_continuous_lattice=op_continuous,
        is_completely_distributive=completely,
        witnesses=tuple(witnesses),
    )


def _pair_table(space, masks) -> tuple:
    """The sorted (x, y) label pairs with x in masks[position of y]."""
    return tuple(sorted(
        (x, y) for y, mask in zip(space.points, masks) for x in space.points_at(mask)
    ))


def meet_position(space: FiniteSpace, downs):
    """The position of the meet of the points whose down masks are downs, or None.

    Their lower bounds are the AND of those masks (every point for none),
    and the meet is the point whose down mask that AND is.
    """
    lower = (1 << len(space.points)) - 1
    for d in downs:
        lower &= d
    return space.down_masks.index(lower) if lower in space.down_masks else None


def _meets_missing(family) -> MeetsMissing:
    """The error naming a family of labels that has no infimum."""
    family = tuple(family)
    return MeetsMissing(f"no infimum for family {sorted(family)}", family=family)


def require_meet(space: FiniteSpace, positions) -> int:
    """The position of the meet of the points at positions; MeetsMissing names them."""
    m = meet_position(space, [space.down_masks[i] for i in positions])
    if m is None:
        raise _meets_missing(space.points[i] for i in positions)
    return m


def require_meets(space: FiniteSpace, family):
    """The meet of a family of labels, raising MeetsMissing with the family if
    absent; a label outside the space is a point with no lower bound."""
    family = list(family)
    index, down = space.index, space.down_masks
    m = meet_position(space, [down[index[x]] if x in index else 0 for x in family])
    if m is None:
        raise _meets_missing(family)
    return space.points[m]
