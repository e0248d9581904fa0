"""The constructions from least neighbourhoods against the open-set code they replaced.

The reference functions below are the quotient topology, ``is_quotient_map``,
``lan_extension``, the meet-compatibility check and ``initial_lift_over`` as
they were when they enumerated every value subset for the final topology,
took meets over every open neighbourhood of label joins, compared the meet
map on a product space with the meets of its projections, and folded the
cone's label meets.  The order-row code must give equal spaces, maps and
verdicts, charge the work budget the same, and raise the same exception
classes with the same messages:

* quotients of every poset on at most 4 points and every preorder on at most
  3 by every surjective table, and ``is_quotient_map`` on every map (monotone
  or not) among the posets and preorders on at most 3 points;
* Lan on every (base, beta, q) with a lattice base on at most 4 points,
  carriers the posets and preorders on at most 2 points and targets the
  posets on at most 3 and the preorders on at most 2 points, and on every
  input of the ``lan-minimality`` and ``lan-order-formula`` suites;
* the meet-compatibility check on every lattice on at most 5 points, M3,
  Div12, S and their lower topologies, and on bases it must refuse;
* the initial lift on criterion 03's cones and on cones it must refuse.
"""

import copy
import itertools

import pytest

from laxtop import laxcomma, spaces
from laxtop.errors import Budget, LaxtopError, NotALattice, NotSurjective
from laxtop.finspace import (
    CMap,
    InducedSpace,
    _monotone_tables,
    build_space,
    cmap,
    enumerate_cmaps,
    induced_space,
    is_quotient_map,
    product_label,
    product_space,
    subsets,
)
from laxtop.descent import scp_meet_compat_check
from laxtop.enumeration import enumerate_labeled_preorders
from laxtop.harness import HarnessConfig, _lan_instances, lattice_bases, posets_up_to
from laxtop.laxcomma import (
    _check_cone,
    initial_lift_over,
    lan_extension,
    lax_object,
)
from laxtop.order import lattice_ops, lattice_report, order_to_space
from test_lax_coding_reference import initial_lift_inputs

PT = spaces.point()
C3 = spaces.chain(3)


# -- the replaced code -------------------------------------------------------


def reference_final_opens(source, table, values):
    """The final topology: every set of values whose preimage is open."""
    return [
        frozenset(v) for v in subsets(values)
        if source.is_down_closed([p for p in source.points if table[p] in v])
    ]


def reference_quotient(base, data):
    table = dict(data)
    base.check_labels(table.keys())
    if set(table) != set(base.points):
        raise NotSurjective("quotient table must be total over the base points")
    values = sorted(set(table.values()))
    quot = build_space(values, opens=reference_final_opens(base, table, values))
    return InducedSpace(quot, cmap(base, quot, table))


def reference_is_quotient_map(m):
    if not m.is_surjective():
        return False
    final = reference_final_opens(m.source, m.image, m.target.points)
    return set(m.target.open_sets()) == set(final)


def reference_lan_extension(beta, q, verify=True):
    if beta.source != q.source:
        raise laxcomma.NotParallel("beta and q must share their source")
    base = beta.target
    ops = laxcomma.lattice_ops(base)
    target = q.target
    table = {}
    for c in target.points:
        opens_at_c = [v for v in target.open_sets() if c in v]
        meets = [
            ops.join_of(beta(b) for b in beta.source.points if q(b) in v)
            for v in opens_at_c
        ]
        table[c] = ops.meet_of(meets)
    result = cmap(target, base, table)
    if verify:
        for b in beta.source.points:
            if not base.leq(beta(b), result(q(b))):
                raise laxcomma.InternalInconsistency("extension does not lie above the input")
        candidates = enumerate_cmaps(target, base)
        if len(candidates) <= laxcomma._MINIMALITY_CAP:
            for delta in candidates:
                if all(base.leq(beta(b), delta(q(b))) for b in beta.source.points):
                    if not all(base.leq(result(c), delta(c)) for c in target.points):
                        raise laxcomma.InternalInconsistency("extension is not minimal")
    return result


def reference_scp_meet_compat_check(base):
    if not lattice_report(base).is_complete_lattice:
        raise NotALattice("meet-compatibility needs a complete lattice base")
    ops = lattice_ops(base)
    prod = product_space([base, base])
    meet_map = cmap(
        prod.space,
        base,
        {product_label((x, y)): ops.meet(x, y) for x in base.points for y in base.points},
    )
    pi1, pi2 = prod.maps
    for p in prod.space.points:
        if meet_map(p) != ops.meet(pi1(p), pi2(p)):
            return False
    return True


def reference_initial_lift_over(space, cone, base):
    _check_cone(space, cone, base)
    ops = lattice_ops(base)
    table = {
        x: ops.meet_of(o.value(m(x)) for (m, o) in cone) for x in space.points
    }
    return lax_object(space, base, table)


# -- the inputs --------------------------------------------------------------


PREORDERS = [s for n in range(4) for s in enumerate_labeled_preorders(n)]
SMALL = list(posets_up_to(3)) + PREORDERS  # the posets and preorders on at most 3 points
NOT_T0 = build_space(["a", "b"], order=[("a", "b"), ("b", "a")])
VALUES = ("q", "c", "x", "a")  # sorted, the values are in another order than listed


def surjective_tables(base):
    """Every table from the base points onto the first k values, for each k."""
    n = len(base.points)
    for k in range(min(n, len(VALUES)) + 1):
        for image in itertools.product(range(k), repeat=n):
            if len(set(image)) == k:
                yield {p: VALUES[i] for p, i in zip(base.points, image)}


def lan_inputs():
    """The Lan universe, then the inputs of both Lan suites."""
    small = [s for n in range(3) for s in enumerate_labeled_preorders(n)]
    carriers, targets = list(posets_up_to(2)) + small, list(posets_up_to(3)) + small
    for base in lattice_bases(4):
        for b_sp in carriers:
            for c_sp in targets:
                for q in enumerate_cmaps(b_sp, c_sp):
                    for beta in enumerate_cmaps(b_sp, base):
                        yield beta, q
    cfg = HarnessConfig()
    for bases in ([spaces.chain(3)], [spaces.chain(3), spaces.diamond()]):
        for _, beta, q in _lan_instances(cfg, bases):
            yield beta, q


# -- the comparisons ---------------------------------------------------------


@pytest.fixture
def charges(monkeypatch):
    """Run a call from a cold map-search cache, recording what it charges."""
    spent = []
    spend = Budget.spend

    def recording(self, n=1):
        spent.append((self.search, n))
        spend(self, n)

    monkeypatch.setattr(Budget, "spend", recording)

    def run(construction, *args):
        spent.clear()
        _monotone_tables.cache_clear()
        try:
            result = construction(*args)
        except LaxtopError as exc:
            result = (type(exc), str(exc))
        return result, list(spent)

    return run


def assert_same(run, construction, reference, *args):
    got = run(construction, *args)
    assert got == run(reference, *args), (construction.__name__, args)
    return got[0]


def quotient(base, data):
    return induced_space("quotient", base, data)


def test_quotients_match_on_every_surjective_table(charges):
    count = 0
    for base in list(posets_up_to(4)) + PREORDERS:
        for table in surjective_tables(base):
            got = assert_same(charges, quotient, reference_quotient, base, table)
            assert got.space.provenance == "opens"
            assert is_quotient_map(got.canonical)
            count += 1
    assert count == 1663  # the empty preorder's empty table too
    # a table that is not total, or names a point outside the base, is refused
    s = spaces.sierpinski()
    for table in ({"0": "a"}, {"0": "a", "1": "b", "2": "c"}, {"0": "a", "x": "b"}):
        got = assert_same(charges, quotient, reference_quotient, s, table)
        assert issubclass(got[0], LaxtopError)


def test_quotient_map_verdicts_match_on_every_map():
    count = quotients = 0
    for source, target in itertools.product(SMALL, repeat=2):
        width = len(target.points)
        for positions in itertools.product(range(width), repeat=len(source.points)):
            m = CMap(source, target, positions)
            verdict = is_quotient_map(m)
            assert verdict == reference_is_quotient_map(m), m
            count += 1
            quotients += verdict
    assert (count, quotients) == (35179, 644)


def test_lan_extensions_match_on_every_instance(charges):
    count = 0
    for beta, q in lan_inputs():
        for verify in (False, True):
            got = assert_same(charges, lan_extension, reference_lan_extension, beta, q, verify)
            assert isinstance(got, CMap), (beta, q, got)
        count += 1
    assert count == 14147


def test_lan_refusals_and_the_skipped_minimality_check_match(charges, monkeypatch):
    disc = spaces.antichain(2)
    q = cmap(disc, PT, {"0": "*", "1": "*"})
    for base in (disc, spaces.antichain(3), NOT_T0):
        beta = cmap(disc, base, dict(zip(disc.points, base.points)))
        got = assert_same(charges, lan_extension, reference_lan_extension, beta, q)
        assert issubclass(got[0], LaxtopError)
    beta = cmap(PT, C3, {"*": "1"})
    got = assert_same(charges, lan_extension, reference_lan_extension, beta, q)
    assert got == (laxcomma.NotParallel, "beta and q must share their source")
    monkeypatch.setattr(laxcomma, "_MINIMALITY_CAP", 1)  # too few to search
    beta = cmap(disc, C3, {"0": "1", "1": "2"})
    assert assert_same(charges, lan_extension, reference_lan_extension, beta, q)("*") == "2"


def test_lan_self_checks_trip_alike_on_a_tampered_join_table(charges, monkeypatch):
    disc = spaces.antichain(2)
    beta = cmap(disc, C3, {"0": "1", "1": "1"})
    q = cmap(disc, PT, {"0": "*", "1": "*"})
    for value, message in (
        ("0", "extension does not lie above the input"),  # below beta
        ("2", "extension is not minimal"),  # above the constant 1, which extends beta
    ):
        ops = copy.copy(lattice_ops(C3))
        ops.join_index = tuple(tuple(C3.index[value] for _ in row) for row in ops.join_index)
        monkeypatch.setattr(laxcomma, "lattice_ops", lambda base: ops)
        got = assert_same(charges, lan_extension, reference_lan_extension, beta, q)
        assert got == (laxcomma.InternalInconsistency, message)


def test_meet_compatibility_verdicts_match():
    bases = list(lattice_bases(5)) + [spaces.m3(), spaces.div12(), spaces.sierpinski()]
    for base in bases + [order_to_space(b, "lower") for b in bases]:
        assert scp_meet_compat_check(base) is reference_scp_meet_compat_check(base) is True
    for base in posets_up_to(3):
        if not lattice_report(base).is_complete_lattice:
            for check in (scp_meet_compat_check, reference_scp_meet_compat_check):
                with pytest.raises(NotALattice, match="needs a complete lattice base"):
                    check(base)


@pytest.mark.parametrize("base", lattice_bases(4), ids=repr)
def test_initial_lifts_match_on_criterion_03(base, charges):
    count = 0
    for apex, cone, _ in initial_lift_inputs(base):
        assert_same(charges, initial_lift_over, reference_initial_lift_over, apex, cone, base)
        count += 1
    assert count > 1


def test_initial_lift_refusals_match(charges):
    two = spaces.antichain(2)
    c2 = spaces.chain(2)
    obj = lax_object(c2, C3, {"0": "0", "1": "2"})
    flipped = CMap(c2, c2, (1, 0))  # not monotone, so the lift is not continuous
    refused = [
        (c2, [(flipped, obj)], C3),
        (PT, [(cmap(two, PT, {"0": "*", "1": "*"}), lax_object(PT, C3, {"*": "1"}))], C3),
        (PT, [], two),
        (PT, [], NOT_T0),
    ]
    for space, cone, base in refused:
        got = assert_same(
            charges, initial_lift_over, reference_initial_lift_over, space, cone, base
        )
        assert issubclass(got[0], LaxtopError), got
