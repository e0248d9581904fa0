import pytest

from laxtop import order, spaces
from laxtop.errors import MeetsMissing, NotACompleteLattice, NotT0
from laxtop.finspace import build_space
from laxtop.order import (
    distributivity_report,
    heyting_report,
    lattice_ops,
    lattice_report,
    order_to_space,
    require_meets,
)


def test_lattice_report_diamond():
    rep = lattice_report(spaces.diamond())
    assert rep.is_complete_lattice
    assert rep.bottom == "bot" and rep.top == "top"
    assert rep.meet("a", "b") == "bot"
    assert rep.join("a", "b") == "top"


def test_lattice_report_antichain():
    rep = lattice_report(spaces.antichain(2))
    assert not rep.is_meet_semilattice
    assert not rep.is_complete_lattice
    assert ("meet", "0", "1") in rep.witnesses


def test_lattice_report_v_shape_has_meets_but_no_top():
    s = build_space(["bot", "a", "b"], order=[("bot", "a"), ("bot", "b")])
    rep = lattice_report(s)
    assert rep.is_meet_semilattice
    assert not rep.has_top
    assert not rep.is_complete_lattice


def test_lattice_report_needs_t0():
    s = build_space(["a", "b"], order=[("a", "b"), ("b", "a")])
    with pytest.raises(NotT0):
        lattice_report(s)


def test_div12_arithmetic():
    # reverse divisibility: meets are lcms, joins are gcds
    ops = lattice_ops(spaces.div12())
    assert ops.top == "1" and ops.bottom == "12"
    assert ops.meet("4", "6") == "12"
    assert ops.join("4", "6") == "2"
    assert ops.meet_of([]) == "1"
    assert ops.join_of([]) == "12"
    assert ops.meet_of(["2", "3"]) == "6"
    assert ops.join_of(["4", "6", "3"]) == "1"


def test_lattice_ops_rejects_non_lattice():
    with pytest.raises(NotACompleteLattice):
        lattice_ops(spaces.antichain(2))


def test_heyting_chain_implication():
    hey = heyting_report(spaces.chain(3))
    assert hey.is_heyting
    imp = dict(hey.implication_table)
    # on a chain: x => y is top when x <= y, else y
    expected = {
        (x, y): "2" if int(x) <= int(y) else y
        for x in "012"
        for y in "012"
    }
    assert imp == expected


def test_m3_is_not_heyting():
    hey = heyting_report(spaces.m3())
    assert not hey.is_heyting
    assert hey.failure_witness is not None
    x, y = hey.failure_witness
    assert hey.imp(x, y) is None


def test_distributivity_chain():
    rep = distributivity_report(spaces.chain(3))
    assert rep.is_frame
    assert rep.is_continuous_lattice
    assert rep.is_completely_distributive
    assert rep.totally_below_table == (
        ("0", "1"),
        ("0", "2"),
        ("1", "1"),
        ("1", "2"),
        ("2", "2"),
    )


def test_distributivity_m3():
    rep = distributivity_report(spaces.m3())
    assert not rep.is_frame
    assert not rep.is_completely_distributive


def test_distributivity_div12():
    rep = distributivity_report(spaces.div12())
    assert rep.is_frame
    assert rep.is_completely_distributive
    # the bottom (12) is totally below everything except itself
    assert ("12", "1") in rep.totally_below_table
    assert ("12", "12") not in rep.totally_below_table


def test_three_topologies_coincide_finitely():
    s = spaces.diamond()
    strict = [(x, y) for (x, y) in s.le if x != y]
    lower = order_to_space(s.points, strict, "lower")
    scott = order_to_space(s.points, strict, "scott")
    alex = order_to_space(s.points, strict, "alexandroff")
    assert set(lower.open_sets()) == set(scott.open_sets()) == set(alex.open_sets())


def test_require_meets():
    assert require_meets(spaces.diamond(), ["a", "b"]) == "bot"
    assert require_meets(spaces.diamond(), []) == "top"
    with pytest.raises(MeetsMissing) as exc:
        require_meets(spaces.antichain(2), ["0", "1"])
    assert exc.value.family


def test_report_caches_keep_at_most_their_bound():
    caches = (lattice_report, heyting_report, distributivity_report, lattice_ops)
    bound = order.CACHE_SIZE
    for i in range(bound + 8):  # relabelled 2-chains, each a fresh cache key
        s = build_space([f"a{i}", f"b{i}"], order=[(f"a{i}", f"b{i}")])
        for cached in caches:
            cached(s)
    for cached in caches:
        info = cached.cache_info()
        assert info.maxsize == bound and info.currsize == bound
    before = lattice_report.cache_info().hits
    lattice_report(s)  # the most recent space is kept
    assert lattice_report.cache_info().hits == before + 1
