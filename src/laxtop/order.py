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
from .finspace import FiniteSpace, build_space, subsets

# spaces each report cache keeps: paper-check --max-points 6 and the
# descent sweep keep at most 27, and lattice_bases(6) looks up 405
CACHE_SIZE = 512


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
    """Fast meet/join arithmetic for a space whose order is a complete lattice.

    Finite meets/joins of arbitrary families are folded from the binary
    tables; the empty meet is the top and the empty join is the bottom.
    The same tables over point positions are built on first use:
    ``meet_index[i][j]`` is the position of the meet of points i and j.
    """

    def __init__(self, space: FiniteSpace):
        report = lattice_report(space)
        if not report.is_complete_lattice:
            raise NotACompleteLattice(
                f"natural order of {space!r} is not a complete lattice"
            )
        self.space = space
        self.bottom = report.bottom
        self.top = report.top
        self._meet = report.meets
        self._join = report.joins

    def leq(self, x, y):
        return self.space.leq(x, y)

    def meet(self, x, y):
        return self._meet[(x, y)]

    def join(self, x, y):
        return self._join[(x, y)]

    def meet_of(self, items):
        acc = self.top
        for x in items:
            acc = self._meet[(acc, x)]
        return acc

    def join_of(self, items):
        acc = self.bottom
        for x in items:
            acc = self._join[(acc, x)]
        return acc

    top_index = cached_property(lambda self: self.space.index[self.top])
    bottom_index = cached_property(lambda self: self.space.index[self.bottom])
    meet_index = cached_property(lambda self: self._positions(self._meet))
    join_index = cached_property(lambda self: self._positions(self._join))

    def _positions(self, table) -> tuple:
        index, pts = self.space.index, self.space.points
        return tuple(tuple(index[table[x, y]] for y in pts) for x in pts)


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


def order_to_space(points, pairs, which: str) -> FiniteSpace:
    """Equip a partial order with its lower, Scott, or Alexandroff topology.

    For finite orders all three coincide; each family is still constructed
    literally from its definition so the coincidence is checkable.
    """
    probe = build_space(points, order=pairs)
    if not probe.is_t0():
        raise NotAPartialOrder("input relation closure is not antisymmetric")
    pts = list(probe.points)
    full = frozenset(pts)

    if which == "alexandroff":
        closed = set(probe.closed_sets())
    elif which == "scott":
        closed = set()
        for s in probe.closed_sets():
            if all(
                _infimum(probe, sub) in s
                for sub in subsets(s)
                if _is_codirected(probe, sub) and _infimum(probe, sub) is not None
            ):
                closed.add(s)
    elif which == "lower":
        # subbasis {up(a)}; close under intersection, then under union
        gens = {probe.up(a) for a in pts} | {frozenset(), full}
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
    if space.le != probe.le:
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

    implications = cached_property(lambda self: dict(self.implication_table))

    def imp(self, x, y):
        return self.implications.get((x, y))

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

    way_above_pairs = cached_property(lambda self: frozenset(self.way_above_table))
    totally_below_pairs = cached_property(lambda self: frozenset(self.totally_below_table))

    def way_above(self, x, y):
        return (x, y) in self.way_above_pairs

    def totally_below(self, v, u):
        return (v, u) in self.totally_below_pairs

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

    # the meet and join of every subset mask, from those of the mask
    # without its lowest point
    every = range(1 << len(pts))
    meets, joins = [ops.top_index] * len(every), [ops.bottom_index] * len(every)
    for s in every[1:]:
        low, rest = (s & -s).bit_length() - 1, s & (s - 1)
        meets[s] = ops.meet_index[low][meets[rest]]
        joins[s] = ops.join_index[low][joins[rest]]
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


def _infimum(space, family):
    """The greatest lower bound of a family of labels, or None.

    Its lower bounds are the AND of the members' down masks (none for a
    label outside the space).
    """
    index, down = space.index, space.down_masks
    lower = (1 << len(space.points)) - 1
    for x in family:
        lower &= down[index[x]] if x in index else 0
    return _extreme(space, down, lower)


def require_meets(space: FiniteSpace, family):
    """The meet of a family, raising MeetsMissing with the family if absent."""
    family = list(family)
    m = _infimum(space, family)
    if m is None:
        raise MeetsMissing(f"no infimum for family {sorted(family)}", family=tuple(family))
    return m
