"""The lattice, Heyting and distributivity reports against the label-scan code.

The reference functions below are the implementations that tested pairs of
labels with ``leq``: ``lattice_report`` and ``heyting_report`` searched the
bounds of every pair through ``_greatest`` and ``_least``, and
``distributivity_report`` scanned the codirected subsets for every pair of
points, then built the dual space (``_dual``) and its lattice arithmetic to
get the way-below relation.  ``require_meets`` searched the lower bounds of
its family the same way.  The mask code must give equal reports, the same
exceptions with the same messages and the same budget charges on every
labeled preorder on at most 3 points (non-T0 ones included), every labeled
poset on 4 points and every class of posets on 5 and 6 points.
"""

import itertools
import json

import pytest

from laxtop import order
from laxtop.enumeration import (
    enumerate_labeled_posets,
    enumerate_labeled_preorders,
    enumerate_posets,
)
from laxtop.errors import (
    Budget,
    CapExceeded,
    LaxtopError,
    MeetsMissing,
    NoMeets,
    NotACompleteLattice,
    NotT0,
)
from laxtop.finspace import FiniteSpace, subsets
from laxtop.order import DistributivityReport, HeytingReport, LatticeReport

STRAY = "zz"  # a label outside every space


@pytest.fixture(scope="module")
def universe():
    mp = pytest.MonkeyPatch()
    mp.setenv("LAXTOP_CAP", str(10**7))  # the 6-point classes need more than the default
    try:
        preorders = [s for n in range(4) for s in enumerate_labeled_preorders(n)]
        spaces = (
            preorders
            + list(enumerate_labeled_posets(4))
            + list(enumerate_posets(5))
            + list(enumerate_posets(6))
        )
    finally:
        mp.undo()
    return spaces


# -- the replaced code -------------------------------------------------------


def reference_greatest(space, candidates):
    for z in candidates:
        if all(space.leq(w, z) for w in candidates):
            return z
    return None


def reference_least(space, candidates):
    for z in candidates:
        if all(space.leq(z, w) for w in candidates):
            return z
    return None


def reference_symmetric(table):
    out = {}
    for ((x, y), z) in table:
        out[(x, y)] = z
        out[(y, x)] = z
    return out


def reference_lattice_report(space):
    if not space.is_t0():
        raise NotT0("lattice analysis requires a T0 base")
    pts = space.points
    meet_table = []
    join_table = []
    witnesses = []
    for i, x in enumerate(pts):
        for y in pts[i:]:
            lower = [z for z in pts if space.leq(z, x) and space.leq(z, y)]
            m = reference_greatest(space, lower)
            if m is None:
                witnesses.append(("meet", x, y))
            else:
                meet_table.append(((x, y), m))
            upper = [z for z in pts if space.leq(x, z) and space.leq(y, z)]
            j = reference_least(space, upper)
            if j is None:
                witnesses.append(("join", x, y))
            else:
                join_table.append(((x, y), j))
    bottom = reference_least(space, pts) if pts else None
    top = reference_greatest(space, pts) if pts else None
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


class ReferenceOps:
    """Meets and joins of families, folded from the reference tables."""

    def __init__(self, space):
        report = reference_lattice_report(space)
        if not report.is_complete_lattice:
            raise NotACompleteLattice(f"natural order of {space!r} is not a complete lattice")
        self.top, self.bottom = report.top, report.bottom
        self._meet = reference_symmetric(report.meet_table)
        self._join = reference_symmetric(report.join_table)

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


def reference_heyting_report(space):
    report = reference_lattice_report(space)
    if not report.is_meet_semilattice:
        raise NoMeets("Heyting analysis requires binary meets")
    meet = reference_symmetric(report.meet_table)
    table = []
    witness = None
    for x in space.points:
        for y in space.points:
            candidates = [z for z in space.points if space.leq(meet[(x, z)], y)]
            m = reference_greatest(space, candidates)
            if m is None:
                if witness is None:
                    witness = (x, y)
            else:
                table.append(((x, y), m))
    total = len(table) == len(space.points) ** 2
    return HeytingReport(total, tuple(table), witness)


def reference_is_codirected(space, subset):
    return bool(subset) and all(
        any(space.leq(z, x) and space.leq(z, y) for z in subset)
        for x in subset
        for y in subset
    )


def reference_dual(space):
    return FiniteSpace(space.points, frozenset((y, x) for (x, y) in space.le))


def reference_way_above_pairs(space, ops):
    pts = space.points
    pairs = []
    codirected = [s for s in subsets(pts) if reference_is_codirected(space, s)]
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


def reference_distributivity_report(space):
    report = reference_lattice_report(space)
    if not report.is_complete_lattice:
        raise NotACompleteLattice("distributivity analysis needs a complete lattice")
    pts = space.points
    order.Budget("distributivity subset").spend(2 ** len(pts) * len(pts) ** 2)
    ops = ReferenceOps(space)
    witnesses = []

    hey = reference_heyting_report(space)
    is_frame = hey.is_heyting
    if not is_frame:
        witnesses.append(("implication-missing",) + hey.failure_witness)

    way_above = reference_way_above_pairs(space, ops)
    op_continuous = True
    for x in pts:
        above = [y for (y, z) in way_above if z == x]
        if ops.meet_of(above) != x:
            op_continuous = False
            witnesses.append(("not-meet-of-way-above", x))

    dual = reference_dual(space)
    dual_ops = ReferenceOps(dual)
    way_below = [(x, y) for (x, y) in reference_way_above_pairs(dual, dual_ops)]
    continuous = True
    for x in pts:
        below = [y for (y, z) in way_below if z == x]
        if dual_ops.meet_of(below) != x:
            continuous = False
            witnesses.append(("not-join-of-way-below", x))

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


def reference_require_meets(space, family):
    family = list(family)
    lower = [z for z in space.points if all(space.leq(z, x) for x in family)]
    m = reference_greatest(space, lower)
    if m is None:
        raise MeetsMissing(f"no infimum for family {sorted(family)}", family=tuple(family))
    return m


# -- the comparisons ---------------------------------------------------------


class _Recorded(Budget):
    """A budget that logs every charge, in order."""

    log = []

    def spend(self, n=1):
        _Recorded.log.append(n)
        super().spend(n)


def _outcome(fn, *args):
    """(value or exception class and message and family, budget charges)."""
    _Recorded.log = []
    try:
        value = fn(*args)
    except LaxtopError as exc:
        value = (type(exc), str(exc), getattr(exc, "family", None))
    return value, _Recorded.log


REPORTS = (
    (order.lattice_report, reference_lattice_report),
    (order.heyting_report, reference_heyting_report),
    (order.distributivity_report, reference_distributivity_report),
)


def _compare_reports(space):
    outcomes = []
    for new, old in REPORTS:
        got = _outcome(new.__wrapped__, space)  # uncached, so it is computed and charged
        want = _outcome(old, space)
        assert got == want, (space.points, sorted(space.le), new.__name__)
        if hasattr(got[0], "to_json_dict"):
            assert json.dumps(got[0].to_json_dict()) == json.dumps(want[0].to_json_dict())
        outcomes.append(got[0])
    return outcomes


def test_the_universe_has_every_kind_of_space(universe):
    assert len(universe) == 35 + 219 + 63 + 318
    assert any(not s.is_t0() for s in universe)
    kinds = set()
    for s in universe:
        if not s.is_t0():
            kinds.add("not T0")
            continue
        rep = order.lattice_report(s)
        kinds.add(
            "complete" if rep.is_complete_lattice
            else "meets" if rep.is_meet_semilattice else "neither"
        )
    assert kinds == {"not T0", "complete", "meets", "neither"}


def test_reports_match_the_label_scan_code(universe, monkeypatch):
    monkeypatch.setattr(order, "Budget", _Recorded)
    monkeypatch.setenv("LAXTOP_CAP", str(10**7))
    flags = set()
    for s in universe:
        lattice, heyting, dist = _compare_reports(s)
        if isinstance(dist, DistributivityReport):
            flags.add((dist.is_frame, dist.is_completely_distributive))
            assert dist.is_continuous_lattice and dist.is_op_continuous_lattice  # finite
    assert flags == {(True, True), (False, False)}


def test_budget_stops_both_at_the_same_charge(universe, monkeypatch):
    monkeypatch.setattr(order, "Budget", _Recorded)
    monkeypatch.setenv("LAXTOP_CAP", "500")  # 2**n * n**2 is 256 at 4 points, 800 at 5
    stopped = 0
    for s in universe:
        ops = order.lattice_ops.cache_info()
        got = _outcome(order.distributivity_report.__wrapped__, s)
        assert got == _outcome(reference_distributivity_report, s)
        if isinstance(got[0], tuple) and got[0][0] is CapExceeded:
            stopped += 1
            assert order.lattice_ops.cache_info() == ops  # charged before any arithmetic
    assert stopped == 5 + 15  # the lattices on 5 and on 6 points


def test_require_meets_matches_the_label_scan_code(universe):
    families = 0
    for s in universe:
        for sub in subsets(s.points):
            for family in (sub, sub + (STRAY,), (STRAY,) + sub[::-1]):
                got = _outcome(order.require_meets, s, family)
                assert got == _outcome(reference_require_meets, s, family), (s.points, family)
                families += 1
        # a generator is read once, as a list
        assert _outcome(order.require_meets, s, iter(s.points)) == _outcome(
            reference_require_meets, s, list(s.points)
        )
    assert families == 3 * sum(2 ** len(s.points) for s in universe)


def test_accessors_match_the_rebuilt_lookups(universe):
    for s in universe[:254]:  # the preorders and the 4-point posets
        if not s.is_t0():
            continue
        lattice = order.lattice_report(s)
        twin = order.lattice_report.__wrapped__(s)
        labels = s.points + (STRAY,)
        for x, y in itertools.product(labels, repeat=2):
            meets, joins = dict(lattice.meet_table), dict(lattice.join_table)
            assert lattice.meet(x, y) == meets.get((x, y), meets.get((y, x)))
            assert lattice.join(x, y) == joins.get((x, y), joins.get((y, x)))
        reports = [(lattice, twin)]
        if lattice.is_meet_semilattice:
            hey = order.heyting_report(s)
            for x, y in itertools.product(labels, repeat=2):
                assert hey.imp(x, y) == dict(hey.implication_table).get((x, y))
            reports.append((hey, order.heyting_report.__wrapped__(s)))
        if lattice.is_complete_lattice:
            dist = order.distributivity_report(s)
            for x, y in itertools.product(labels, repeat=2):
                assert dist.way_above(x, y) == ((x, y) in set(dist.way_above_table))
                assert dist.totally_below(x, y) == ((x, y) in set(dist.totally_below_table))
            reports.append((dist, order.distributivity_report.__wrapped__(s)))
        for used, fresh in reports:  # the lookups take no part in the value
            assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
            assert used.to_json_dict() == fresh.to_json_dict()
            assert len(vars(used)) > len(vars(fresh))
