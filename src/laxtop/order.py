"""Lattice-theoretic analysis of a base space's natural order.

All verdicts are computed by exhaustive bound search over the (small) point
set; failures carry explicit witnesses so the harness can mine
counterexamples.
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


def _greatest(space, candidates):
    """The maximum of a candidate set under the space order, or None."""
    for z in candidates:
        if all(space.leq(w, z) for w in candidates):
            return z
    return None


def _least(space, candidates):
    for z in candidates:
        if all(space.leq(z, w) for w in candidates):
            return z
    return None


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

    def meet(self, x, y):
        return dict(self.meet_table).get((x, y), dict(self.meet_table).get((y, x)))

    def join(self, x, y):
        return dict(self.join_table).get((x, y), dict(self.join_table).get((y, x)))

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


@lru_cache(maxsize=None)
def lattice_report(space: FiniteSpace) -> LatticeReport:
    """Meet/join tables and completeness verdict by exhaustive bound search."""
    if not space.is_t0():
        raise NotT0("lattice analysis requires a T0 base")
    pts = space.points
    meet_table = []
    join_table = []
    witnesses = []
    for i, x in enumerate(pts):
        for y in pts[i:]:
            lower = [z for z in pts if space.leq(z, x) and space.leq(z, y)]
            m = _greatest(space, lower)
            if m is None:
                witnesses.append(("meet", x, y))
            else:
                meet_table.append(((x, y), m))
            upper = [z for z in pts if space.leq(x, z) and space.leq(y, z)]
            j = _least(space, upper)
            if j is None:
                witnesses.append(("join", x, y))
            else:
                join_table.append(((x, y), j))
    bottom = _least(space, pts) if pts else None
    top = _greatest(space, pts) if pts else None
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
        self._meet = _symmetric(report.meet_table)
        self._join = _symmetric(report.join_table)

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


@lru_cache(maxsize=None)
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
                _codirected_inf(probe, sub) in s
                for sub in subsets(s)
                if _is_codirected(probe, sub) and _codirected_inf(probe, sub) is not None
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


def _codirected_inf(space, subset):
    lower = [z for z in space.points if all(space.leq(z, x) for x in subset)]
    return _greatest(space, lower)


@dataclass(frozen=True)
class HeytingReport:
    is_heyting: bool
    implication_table: tuple  # ((x, y), z) pairs, partial
    failure_witness: object  # (x, y) or None

    def imp(self, x, y):
        return dict(self.implication_table).get((x, y))

    def to_json_dict(self):
        return {
            "failure_witness": list(self.failure_witness) if self.failure_witness else None,
            "implication_table": [[list(k), v] for (k, v) in self.implication_table],
            "is_heyting": self.is_heyting,
        }


@lru_cache(maxsize=None)
def heyting_report(space: FiniteSpace) -> HeytingReport:
    """Implication x=>y as the maximum of {z : x/\\z <= y}, when it exists."""
    report = lattice_report(space)
    if not report.is_meet_semilattice:
        raise NoMeets("Heyting analysis requires binary meets")
    meet = _symmetric(report.meet_table)
    table = []
    witness = None
    for x in space.points:
        for y in space.points:
            candidates = [z for z in space.points if space.leq(meet[(x, z)], y)]
            m = _greatest(space, candidates)
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

    def way_above(self, x, y):
        return (x, y) in set(self.way_above_table)

    def totally_below(self, v, u):
        return (v, u) in set(self.totally_below_table)

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


def _dual(space: FiniteSpace) -> FiniteSpace:
    return FiniteSpace(space.points, frozenset((y, x) for (x, y) in space.le))


def _way_above_pairs(space, ops):
    """x way above y: every codirected S with inf(S) <= y meets the down-set of x."""
    pts = space.points
    pairs = []
    codirected = [s for s in subsets(pts) if _is_codirected(space, s)]
    infs = {s: ops.meet_of(s) for s in codirected}
    for x in pts:
        for y in pts:
            ok = True
            for s in codirected:
                if space.leq(infs[s], y) and not any(space.leq(e, x) for e in s):
                    ok = False
                    break
            if ok:
                pairs.append((x, y))
    return pairs


@lru_cache(maxsize=None)
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

    way_above = _way_above_pairs(space, ops)
    op_continuous = True
    for x in pts:
        above = [y for (y, z) in way_above if z == x]
        if ops.meet_of(above) != x:
            op_continuous = False
            witnesses.append(("not-meet-of-way-above", x))

    dual = _dual(space)
    dual_ops = lattice_ops(dual)
    way_below = [(x, y) for (x, y) in _way_above_pairs(dual, dual_ops)]
    continuous = True
    for x in pts:
        below = [y for (y, z) in way_below if z == x]
        if dual_ops.meet_of(below) != x:  # a join in the original order
            continuous = False
            witnesses.append(("not-join-of-way-below", x))

    # totally below: every S (any subset) with u <= \/S contains s >= v
    totally_below = []
    all_subsets = [tuple(sorted(s)) for s in subsets(pts)]
    joins = {s: ops.join_of(s) for s in all_subsets}
    for v in pts:
        for u in pts:
            ok = all(
                not space.leq(u, joins[s]) or any(space.leq(v, e) for e in s)
                for s in all_subsets
            )
            if ok:
                totally_below.append((v, u))
    completely = True
    for u in pts:
        below = [v for (v, w) in totally_below if w == u]
        if ops.join_of(below) != u:
            completely = False
            witnesses.append(("not-join-of-totally-below", u))

    return DistributivityReport(
        is_frame=is_frame,
        way_above_table=tuple(sorted(way_above)),
        totally_below_table=tuple(sorted(totally_below)),
        is_continuous_lattice=continuous,
        is_op_continuous_lattice=op_continuous,
        is_completely_distributive=completely,
        witnesses=tuple(witnesses),
    )


def require_meets(space: FiniteSpace, family):
    """The meet of a family, raising MeetsMissing with the family if absent."""
    family = list(family)
    lower = [z for z in space.points if all(space.leq(z, x) for x in family)]
    m = _greatest(space, lower)
    if m is None:
        raise MeetsMissing(f"no infimum for family {sorted(family)}", family=tuple(family))
    return m
