"""``FiniteSpace`` validation against the label-pair validator it replaced.

The space is given each relation as order rows; the reference reads the same
relation as label pairs in point order (pairs of the first point first, and
each point's pairs in point order).  Both must agree on the error class and
message.
"""

import itertools

import pytest

from laxtop.errors import DuplicatePoint, NotATopology, UnknownLabel
from laxtop.finspace import FiniteSpace, build_space


def reference_validate(points, le):
    seen = set()
    for p in points:
        if p in seen:
            raise DuplicatePoint(f"duplicate point label {p!r}")
        seen.add(p)
    for (x, y) in le:
        if x not in seen or y not in seen:
            raise UnknownLabel(f"relation mentions unknown point ({x!r}, {y!r})")
    for p in points:
        if (p, p) not in le:
            raise NotATopology(f"relation not reflexive at {p!r}")
    for (x, y) in le:
        for z in points:
            if (y, z) in le and (x, z) not in le:
                raise NotATopology(f"relation not transitive: {x!r}<={y!r}<={z!r}")


def _outcome(check, points, le):
    try:
        check(points, le)
    except (DuplicatePoint, UnknownLabel, NotATopology) as exc:
        return type(exc), str(exc)
    return None


def _rows(points, le):
    return tuple(sum(1 << j for j, y in enumerate(points) if (x, y) in le) for x in points)


def _in_point_order(points, le):
    """The pairs as an ordered set: a dict iterates in insertion order."""
    return dict.fromkeys((x, y) for x in points for y in points if (x, y) in le)


def _relations(points):
    pairs = list(itertools.product(points, repeat=2))
    for mask in range(1 << len(pairs)):
        yield frozenset(p for k, p in enumerate(pairs) if mask >> k & 1)


def test_validator_matches_the_reference_on_every_relation():
    seen = set()
    for points in (("a", "b", "c"), ("c", "a", "b", "d")):
        for le in _relations(points):
            want = _outcome(reference_validate, points, _in_point_order(points, le))
            assert _outcome(FiniteSpace, points, _rows(points, le)) == want
            seen.add(want[0] if want else None)
    assert seen == {None, NotATopology}


def test_validator_matches_the_reference_on_bad_labels():
    cases = [
        (("a", "b", "a"), frozenset({("a", "a"), ("b", "b")})),
        (("a", "a"), frozenset({("a", "z")})),
        (("a", "b"), frozenset({("a", "a"), ("b", "b"), ("a", "z")})),
        (("a", "b"), frozenset({("z", "a"), ("a", "b")})),
        (("a", "b"), frozenset({("y", "z"), ("a", "b"), ("a", "a")})),
        ((), frozenset({("a", "a")})),
        ((0, 1), frozenset({(0, 0), (1, 1), (0, 1), (1, 2)})),
        ((0, 1, 2), frozenset({(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)})),
    ]
    for points, le in cases:  # no message here depends on the order of the pairs
        want = _outcome(reference_validate, points, le)
        assert want is not None
        if want[0] is UnknownLabel:  # rows cannot name a label outside the points
            with pytest.raises(UnknownLabel):
                build_space(points, order=le)
        else:
            assert _outcome(FiniteSpace, points, _rows(points, le)) == want


def test_rows_that_do_not_fit_the_points_raise_unknown_label():
    for points, rows in [
        (("a", "b"), (1, 2, 4)),
        (("a", "b"), (1,)),
        (("a", "b"), (1, 6)),
        ((), (1,)),
        (("a",), (-1,)),
    ]:
        with pytest.raises(UnknownLabel):
            FiniteSpace(points, rows)
