import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laxtop import spaces
from laxtop.enumeration import (
    are_isomorphic,
    canonical_form,
    dedup_by_isomorphism,
    enumerate_labeled_posets,
    enumerate_labeled_preorders,
    enumerate_posets,
)
from laxtop.errors import CapExceeded
from laxtop.finspace import FiniteSpace, build_space


def test_labeled_poset_counts():
    assert [len(enumerate_labeled_posets(n)) for n in range(1, 5)] == [1, 3, 19, 219]


def test_unlabeled_poset_counts():
    assert [len(enumerate_posets(n)) for n in range(1, 5)] == [1, 2, 5, 16]


def test_labeled_preorder_counts():
    # preorders on n labeled points = topologies on n points
    assert [len(enumerate_labeled_preorders(n)) for n in range(1, 4)] == [1, 4, 29]


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        enumerate_labeled_posets(5, cap=100)


def test_canonical_form_is_isomorphism_invariant():
    s = build_space(["x", "y", "z"], order=[("x", "y"), ("x", "z")])
    t = build_space(["c", "a", "b"], order=[("b", "a"), ("b", "c")])
    assert canonical_form(s).le == canonical_form(t).le
    assert are_isomorphic(s, t)


def test_are_isomorphic_negative():
    assert not are_isomorphic(spaces.chain(3), spaces.antichain(3))
    assert not are_isomorphic(spaces.chain(2), spaces.chain(3))
    v = build_space(["b", "x", "y"], order=[("b", "x"), ("b", "y")])
    wedge = build_space(["x", "y", "t"], order=[("x", "t"), ("y", "t")])
    assert not are_isomorphic(v, wedge)


def test_dedup_oracle_agrees_with_canonical_enumeration():
    for n in range(1, 5):
        fast = enumerate_posets(n)
        slow = dedup_by_isomorphism(enumerate_labeled_posets(n))
        assert len(fast) == len(slow)


def test_enumerated_posets_are_valid_partial_orders():
    for s in enumerate_labeled_posets(3):
        assert isinstance(s, FiniteSpace)
        assert s.is_t0()


@settings(max_examples=50, deadline=None)
@given(st.permutations(["p0", "p1", "p2", "p3"]), st.integers(0, 15))
def test_relabeling_preserves_isomorphism(perm, pick):
    posets = enumerate_posets(4)
    s = posets[pick % len(posets)]
    translation = dict(zip(s.points, perm))
    relabeled = build_space(perm, order=[(translation[x], translation[y]) for (x, y) in s.le])
    assert are_isomorphic(s, relabeled)
    assert canonical_form(s).le == canonical_form(relabeled).le
