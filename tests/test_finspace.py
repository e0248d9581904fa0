import dataclasses
import itertools
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laxtop import spaces
from laxtop.enumeration import enumerate_labeled_posets, enumerate_labeled_preorders
from laxtop.errors import (
    DuplicatePoint,
    NotATopology,
    NotContinuous,
    UnknownLabel,
)
from laxtop.finspace import (
    FiniteSpace,
    build_space,
    closure_ops,
    cmap,
    enumerate_cmaps,
    identity_map,
    induced_space,
    is_continuous,
    is_quotient_map,
    label_part,
    natural_order,
    product_label,
    product_space,
    sober_report,
    sum_space,
    t0_report,
)


def test_build_space_from_order():
    s = build_space(["a", "b", "c"], order=[("a", "b"), ("b", "c")])
    assert s.leq("a", "c")  # transitive closure
    assert not s.leq("c", "a")
    assert s.leq("b", "b")


def test_build_space_from_opens_roundtrip():
    s = spaces.diamond()
    rebuilt = build_space(s.points, opens=s.open_sets())
    assert rebuilt.le == s.le


def test_non_t0_preorder_open_sets():
    # two equivalent points must enter every open set together
    s = build_space(["a", "b", "c"], order=[("a", "b"), ("b", "a"), ("a", "c")])
    opens = set(s.open_sets())
    assert frozenset() in opens
    assert frozenset({"a", "b"}) in opens
    assert frozenset({"a", "b", "c"}) in opens
    assert frozenset({"a"}) not in opens
    assert len(opens) == 3
    rebuilt = build_space(s.points, opens=opens)
    assert rebuilt.le == s.le


def test_build_space_rejects_bad_open_family():
    with pytest.raises(NotATopology):
        build_space(["a", "b"], opens=[[], ["a"]])  # full set missing
    with pytest.raises(NotATopology):
        build_space(["a", "b"], opens=[["a"], ["b"], ["a", "b"]])  # empty missing
    with pytest.raises(NotATopology):
        # not closed under union
        build_space(
            ["a", "b", "c"],
            opens=[[], ["a"], ["b"], ["a", "b", "c"]],
        )


def test_build_space_rejects_duplicates_and_strays():
    with pytest.raises(DuplicatePoint):
        build_space(["a", "a"], order=[])
    with pytest.raises(UnknownLabel):
        build_space(["a"], order=[("a", "b")])


def test_build_space_names_the_first_unknown_label_whatever_the_hash_seed():
    # the label named must follow the input order, not the iteration order
    # of a frozenset, which changes with the string hash seed
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    script = (
        "from laxtop.errors import UnknownLabel\n"
        "from laxtop.finspace import build_space\n"
        "try:\n"
        "    build_space(['x'], opens=[[], ['x'], ['a', '0', 'q']])\n"
        "except UnknownLabel as exc:\n"
        "    print(exc)\n"
    )
    for seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(src))
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert run.stdout == "open set mentions unknown point 'a'\n", (seed, run.stderr)


def test_open_set_counts():
    assert len(spaces.chain(4).open_sets()) == 5  # down-sets of a 4-chain
    assert len(spaces.antichain(3).open_sets()) == 8
    assert len(spaces.diamond().open_sets()) == 6


def test_closure_accepts_generators():
    s = spaces.chain(3)
    assert s.up_closure(p for p in ["0"]) == frozenset({"0", "1", "2"})
    assert s.down_closure(p for p in ["1"]) == frozenset({"0", "1"})
    assert closure_ops(s, (p for p in ["0", "1"])).closure == frozenset({"0", "1", "2"})
    sub = induced_space("subspace", s, (p for p in ["0", "2"])).space
    assert sub.points == ("0", "2") and sub.leq("0", "2")
    built = build_space(["a", "b"], order=(pair for pair in [("a", "b")]))
    assert built.leq("a", "b")


def test_down_up_closed():
    s = spaces.diamond()
    assert s.is_down_closed({"bot", "a"})
    assert not s.is_down_closed({"a"})
    assert s.is_up_closed({"a", "top"})


def test_natural_order_recovers_le():
    for s in (spaces.sierpinski(), spaces.diamond(), spaces.m3()):
        assert natural_order(s) == s.le


def test_t0_reflection_identifies_equivalent_points():
    s = build_space(["a", "b", "c"], order=[("a", "b"), ("b", "a")])
    rep = t0_report(s)
    assert not s.is_t0()
    assert rep.reflection.is_t0()
    assert len(rep.reflection.points) == 2
    assert rep.eta("a") == rep.eta("b")
    assert is_quotient_map(rep.eta)


def test_closure_ops():
    s = spaces.sierpinski()
    info = closure_ops(s, {"0"})
    assert info.closure == frozenset({"0", "1"})
    assert info.interior == frozenset({"0"})


def test_continuity_is_monotonicity():
    src, tgt = spaces.chain(2), spaces.chain(3)
    assert is_continuous({"0": "0", "1": "2"}, src, tgt)
    assert not is_continuous({"0": "2", "1": "0"}, src, tgt)
    with pytest.raises(NotContinuous):
        cmap(src, tgt, {"0": "2", "1": "0"})


def test_cmap_compose_and_identity():
    s = spaces.chain(3)
    f = cmap(spaces.chain(2), s, {"0": "0", "1": "1"})
    assert identity_map(s).compose(f) == f
    assert f.compose(identity_map(spaces.chain(2))) == f
    assert not f.is_surjective()


def test_cmap_call_outside_the_source_raises_unknown_label():
    f = cmap(spaces.chain(2), spaces.chain(3), {"0": "0", "1": "2"})
    assert (f("0"), f("1")) == ("0", "2")
    for stray in ("2", None, ["0"]):  # a list is not even hashable
        with pytest.raises(UnknownLabel, match="not in source of map"):
            f(stray)


def test_cmap_lookup_takes_no_part_in_its_value():
    src, tgt = spaces.chain(2), spaces.chain(3)
    built = cmap(src, tgt, {"1": "2", "0": "1"})
    listed = next(m for m in enumerate_cmaps(src, tgt) if m.table == built.table)
    assert built is not listed
    assert built == listed
    assert hash(built) == hash(listed)
    assert repr(built) == repr(listed) == "CMap({'0': '1', '1': '2'})"
    assert built.table == listed.table == (("0", "1"), ("1", "2"))
    assert built.image == listed.image == {"0": "1", "1": "2"}
    assert len({built, listed}) == 1


def test_position_pairs_list_each_up_set_in_point_order_and_leave_the_value_alone():
    universe = [s for n in range(4) for s in enumerate_labeled_preorders(n)]
    universe += [s for n in range(5) for s in enumerate_labeled_posets(n)]
    assert any(not s.is_t0() for s in universe)
    for space in universe:
        twin = FiniteSpace(space.points, space.up_masks, space.provenance, space.name)
        before = hash(space), repr(space)
        pairs = space.position_pairs
        pts = space.points
        assert [(pts[i], pts[j]) for i, j in pairs] == [
            (x, y) for x in pts for y in pts if space.leq(x, y)
        ]
        assert space.position_pairs is pairs  # built once
        assert (hash(space), repr(space)) == before
        assert space == twin and hash(space) == hash(twin) and repr(space) == repr(twin)
        assert "position_pairs" not in vars(twin)
    assert "position_pairs" not in {f.name for f in dataclasses.fields(FiniteSpace)}


def test_label_parts_keep_their_bytes_unless_they_would_not_read_back():
    assert product_label(["a", "(b,c)", "{x:y;z:w}"]) == "(a,(b,c),{x:y;z:w})"
    assert product_label(["a,b", "c"]) == '("a,b",c)'
    assert [label_part(x) for x in ["", ")(", "(a", 'a"b', "a;b"]] == [
        '""', '")("', '"(a"', '"a\\"b"', "a;b"
    ]
    assert label_part("a;b", ";:") == '"a;b"' and label_part("é,") == '"é,"'


def test_product_labels_never_collide():
    alphabet = ["", "a", ",", "(", ")", "{", "}", '"', ";", ":"]
    parts = sorted({x + y for x in alphabet for y in alphabet})
    lists = [(x,) for x in parts] + list(itertools.product(parts, repeat=2))
    assert len({product_label(c) for c in lists}) == len(lists)


def test_product_and_sum_spaces():
    prod = product_space([spaces.chain(2), spaces.chain(2)])
    assert len(prod.space.points) == 4
    assert prod.space.leq("(0,0)", "(1,1)")
    assert not prod.space.leq("(0,1)", "(1,0)")
    total = sum_space([spaces.chain(2), spaces.chain(2)])
    assert len(total.space.points) == 4
    assert not total.space.leq("in0:0", "in1:0")


def test_induced_subspace_and_quotient():
    s = spaces.diamond()
    sub = induced_space("subspace", s, ["bot", "a", "top"])
    assert sub.space.leq("bot", "top")
    quot = induced_space("quotient", s, {"bot": "bot", "a": "a", "b": "a", "top": "top"})
    assert set(quot.space.points) == {"bot", "a", "top"}
    assert is_quotient_map(quot.canonical)


def test_sober_report_on_finite_posets():
    for s in (spaces.point(), spaces.sierpinski(), spaces.m3(), spaces.div12()):
        rep = sober_report(s)
        assert rep.is_sober
        # irreducible closed sets are exactly the point closures
        assert len(rep.irreducibles) == len(s.points)


def test_enumerate_cmaps_counts():
    # monotone maps C2 -> C3 are the comparable pairs of the 3-chain
    assert len(enumerate_cmaps(spaces.chain(2), spaces.chain(3))) == 6
    assert len(enumerate_cmaps(spaces.antichain(2), spaces.chain(2))) == 4
    assert len(enumerate_cmaps(spaces.chain(2), spaces.antichain(2))) == 2


@st.composite
def small_orders(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    pts = [f"q{i}" for i in range(n)]
    pairs = [
        (pts[i], pts[j])
        for i in range(n)
        for j in range(n)
        if i != j and draw(st.booleans())
    ]
    return pts, pairs


@settings(max_examples=60, deadline=None)
@given(small_orders())
def test_opens_order_roundtrip_random(data):
    pts, pairs = data
    s = build_space(pts, order=pairs)
    rebuilt = build_space(pts, opens=s.open_sets())
    assert rebuilt.le == s.le


@settings(max_examples=40, deadline=None)
@given(small_orders())
def test_open_sets_closed_under_union_and_intersection(data):
    pts, pairs = data
    s = build_space(pts, order=pairs)
    opens = set(s.open_sets())
    for u, v in itertools.combinations(opens, 2):
        assert u | v in opens
        assert u & v in opens
