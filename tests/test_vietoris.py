import itertools

import pytest

from laxtop import spaces
from laxtop.errors import MeetsMissing, NotT0
from laxtop.finspace import build_space, cmap
from laxtop.vietoris import (
    set_label,
    vietoris_algebra_check,
    vietoris_functor_map,
    vietoris_monad,
    vietoris_space,
)


def test_set_label_follows_point_order():
    s = spaces.chain(3)
    assert set_label({"2", "0"}, s.points) == "{0,2}"
    assert set_label(set(), s.points) == "{}"


def test_set_labels_of_labels_with_commas_stay_apart():
    base = build_space(["a", "b", "a,b"], order=[])
    labels = vietoris_space(base).space.points
    assert len(set(labels)) == len(labels) == 8
    assert "{a,b}" in labels and '{"a,b"}' in labels
    points = ("", "a", "a,b", "{b}")  # the empty label and a nested one too
    subsets = [frozenset(c) for r in range(5) for c in itertools.combinations(points, r)]
    assert len({set_label(c, points) for c in subsets}) == 16
    assert set_label({"", "{b}"}, points) == '{"",{b}}'


def test_vietoris_of_sierpinski_is_three_chain():
    v = vietoris_space(spaces.sierpinski())
    assert v.closed == (0b11, 0b10, 0b00)  # closed_sets() order
    assert v.members == (
        ("{0,1}", frozenset({"0", "1"})), ("{1}", frozenset({"1"})), ("{}", frozenset())
    )
    assert v.position == {0b11: 0, 0b10: 1, 0b00: 2}
    assert set(v.space.points) == {"{}", "{1}", "{0,1}"}
    # reverse containment: larger closed sets are lower
    assert v.space.leq("{0,1}", "{1}")
    assert v.space.leq("{1}", "{}")
    assert not v.space.leq("{}", "{1}")


def test_vietoris_counts():
    # closed sets are up-closed sets of the natural order
    assert len(vietoris_space(spaces.chain(3)).space.points) == 4
    assert len(vietoris_space(spaces.antichain(3)).space.points) == 8
    assert len(vietoris_space(spaces.diamond()).space.points) == 6


def test_functor_map_takes_closure_of_image():
    f = cmap(spaces.chain(2), spaces.chain(3), {"0": "0", "1": "1"})
    vf = vietoris_functor_map(f)
    assert vf("{0,1}") == "{0,1,2}"  # closure of {0, 1} in the 3-chain
    assert vf("{}") == "{}"


def test_monad_unit_is_point_closure():
    monad = vietoris_monad(spaces.sierpinski())
    assert monad.unit("1") == "{1}"
    assert monad.unit("0") == "{0,1}"
    assert monad.associativity_checked


def test_monad_mult_is_union():
    monad = vietoris_monad(spaces.sierpinski())
    v, vv = monad.v, monad.vv
    family = set_label(v.space.up_closure(["{1}"]), v.space.points)
    assert family in vv.space.points
    assert monad.mult(family) == "{1}"
    # on positions: the family of V-points is a mask, and mult is its union
    assert vv.closed[vv.space.index[family]] == 0b110  # V-points 1 and 2: {1} and {}
    assert v.closed[monad.mult.positions[vv.space.index[family]]] == 0b10


def test_algebra_on_complete_lattices():
    from laxtop.order import lattice_ops

    for s in (spaces.chain(3), spaces.diamond(), spaces.div12(), spaces.m3()):
        check = vietoris_algebra_check(s)
        assert check.ok
        # the empty closed set goes to the empty meet, i.e. the top
        assert check.structure("{}") == lattice_ops(s).top
    check = vietoris_algebra_check(spaces.diamond())
    assert check.structure("{}") == "top"
    assert check.structure("{a,b,top}") == "bot"


def test_algebra_fails_without_meets():
    with pytest.raises(MeetsMissing):
        vietoris_algebra_check(spaces.antichain(2))


def test_algebra_check_takes_meets_before_the_double_powerset():
    # V(antichain(5)) has 32 points and VV 7 581: the check must fail on
    # the first meetless closed set without building either layer
    from laxtop.order import require_meets

    base = spaces.antichain(5)
    first = base.closed_sets()[0]
    with pytest.raises(MeetsMissing) as expected:
        require_meets(base, sorted(first, key=base.index.get))  # in point order
    with pytest.raises(MeetsMissing) as got:
        vietoris_algebra_check(base)
    assert str(got.value) == str(expected.value)
    assert got.value.family == expected.value.family


def test_algebra_needs_t0():
    s = build_space(["a", "b"], order=[("a", "b"), ("b", "a")])
    with pytest.raises(NotT0):
        vietoris_algebra_check(s)


def test_free_algebra_is_an_algebra():
    # V(X) itself always satisfies the algebra laws
    for s in (spaces.sierpinski(), spaces.antichain(3)):
        v = vietoris_space(s, check_topology=False)
        assert vietoris_algebra_check(v.space).ok
