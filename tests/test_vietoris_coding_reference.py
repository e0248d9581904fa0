"""The Vietoris monad on masks and positions against the label coding it replaced.

``ReferenceVietorisSpace`` below stored its (label, frozenset of base
points) pairs and looked a closed set up by building a dict on every call;
the reference monad, functor map and algebra check ran on label sets and
label-keyed dicts and validated every map with ``cmap``.  The code on
positions must build the same spaces, members, units, multiplications,
functor maps and algebra verdicts, structures and witnesses, raise the
same exceptions with the same messages (and, for ``MeetsMissing``, the
same family), and charge the budget the same units in the same order, at
the default cap and at ``LAXTOP_CAP=8``: on the posets on at most 4 points
and the labeled preorders on at most 3, and V(f) on every map between
posets on at most 3 points.
"""

from dataclasses import dataclass

import pytest

from laxtop import spaces, vietoris
from laxtop.enumeration import enumerate_labeled_preorders
from laxtop.errors import (
    Budget,
    CapExceeded,
    InternalInconsistency,
    LaxtopError,
    MeetsMissing,
    NotT0,
)
from laxtop.finspace import FiniteSpace, build_space, cmap, enumerate_cmaps
from laxtop.harness import posets_up_to
from laxtop.order import require_meets
from laxtop.vietoris import (
    set_label,
    vietoris_algebra_check,
    vietoris_functor_map,
    vietoris_monad,
    vietoris_space,
)

SPACES = posets_up_to(4) + tuple(s for n in range(4) for s in enumerate_labeled_preorders(n))


# -- the replaced code -------------------------------------------------------


@dataclass(frozen=True)
class ReferenceVietorisSpace:
    base: FiniteSpace
    space: FiniteSpace
    members: tuple  # (label, frozenset of base points) pairs, in point order

    def subset(self, label):
        return dict(self.members)[label]

    def label_of(self, subset):
        return set_label(subset, self.base.points)


def reference_vietoris_space(base, check_topology=True):
    closed = base.closed_sets()
    Budget("Vietoris order").spend(len(closed) ** 2)
    labels = tuple(set_label(c, base.points) for c in closed)
    rows = tuple(sum(1 << j for j, d in enumerate(closed) if c >= d) for c in closed)
    space = FiniteSpace(labels, rows, provenance="order")
    if check_topology:
        reference_check_hit_topology(base, space, dict(zip(labels, closed)))
    return ReferenceVietorisSpace(base, space, tuple(zip(labels, closed)))


def reference_check_hit_topology(base, space, by_label):
    hits = {
        w: frozenset(l for l, c in by_label.items() if c & w)
        for w in base.open_sets()
    }
    for hit in hits.values():
        if not space.is_down_closed(hit):
            raise InternalInconsistency("a hit set is not open for reverse containment")
    all_labels = frozenset(by_label)
    for label, c in by_label.items():
        principal = frozenset(l for l in by_label if space.leq(l, label))
        inter = all_labels
        for z in c:
            inter &= hits[frozenset(base.down(z))]
        if inter != principal:
            raise InternalInconsistency(
                "hit topology does not generate reverse containment"
            )


def reference_vietoris_functor_map(f):
    vs = reference_vietoris_space(f.source, check_topology=False)
    vt = reference_vietoris_space(f.target, check_topology=False)
    table = {
        label: vt.label_of(f.target.up_closure(f(a) for a in subset))
        for label, subset in vs.members
    }
    return cmap(vs.space, vt.space, table)


def reference_vietoris_monad(base):
    """(v, vv, unit, mult, associativity checked)."""
    v = reference_vietoris_space(base)
    unit = cmap(
        base, v.space, {z: v.label_of(base.up_closure([z])) for z in base.points}
    )
    vv = reference_vietoris_space(v.space, check_topology=False)
    mult_table = {}
    for label, family in vv.members:
        union = frozenset().union(*(v.subset(l) for l in family))
        mult_table[label] = v.label_of(union)
    mult = cmap(vv.space, v.space, mult_table)

    unit_v = cmap(
        v.space, vv.space, {l: vv.label_of(v.space.up_closure([l])) for l in v.space.points}
    )
    v_unit = cmap(
        v.space,
        vv.space,
        {
            label: vv.label_of(v.space.up_closure(unit(z) for z in subset))
            for label, subset in v.members
        },
    )
    for l in v.space.points:
        if mult(unit_v(l)) != l or mult(v_unit(l)) != l:
            raise InternalInconsistency("a unit law fails for the Vietoris monad")

    associativity_checked = False
    if len(vv.space.points) <= vietoris._TRIPLE_LAYER_CAP:
        vvv = reference_vietoris_space(vv.space, check_topology=False)
        for label, bigfamily in vvv.members:
            flat = frozenset().union(*(vv.subset(l) for l in bigfamily))
            path1 = mult(vv.label_of(flat))
            image = v.space.up_closure(mult(l) for l in bigfamily)
            path2 = mult(vv.label_of(image))
            if path1 != path2:
                raise InternalInconsistency("associativity fails for the Vietoris monad")
        associativity_checked = True
    return v, vv, unit, mult, associativity_checked


def reference_vietoris_algebra_check(base):
    """(ok, structure, witness, v)."""
    if not base.is_t0():
        raise NotT0("algebra analysis needs a T0 space")
    table = {
        set_label(c, base.points): require_meets(base, sorted(c, key=base.index.get))
        for c in base.closed_sets()
    }
    v, vv, unit, mult, _ = reference_vietoris_monad(base)
    structure = cmap(v.space, base, table)
    for z in base.points:
        if structure(unit(z)) != z:
            return False, structure, ("unit", z), v
    v_structure = cmap(
        vv.space,
        v.space,
        {
            label: v.label_of(base.up_closure(structure(l) for l in family))
            for label, family in vv.members
        },
    )
    for label, family in vv.members:
        if structure(mult(label)) != structure(v_structure(label)):
            return False, structure, ("associativity", label), v
    return True, structure, None, v


# -- comparison ----------------------------------------------------------------


class _Charges(Budget):
    """A budget that logs every charge, in order."""

    log = []

    def spend(self, n=1):
        _Charges.log.append((self.search, n))
        super().spend(n)


def _charged(fn, *args):
    """(value, or exception class, message and family; budget charges)."""
    _Charges.log = []
    try:
        value = fn(*args)
    except LaxtopError as exc:
        value = (type(exc), str(exc), getattr(exc, "family", None))
    return value, _Charges.log


def _v(v):
    return v.space, v.members


def _monad(m):
    if isinstance(m, vietoris.VietorisMonad):
        return _v(m.v), _v(m.vv), m.unit, m.mult, m.associativity_checked
    if isinstance(m[0], ReferenceVietorisSpace):
        return (_v(m[0]), _v(m[1]), *m[2:])
    return m  # an error


def _algebra(check):
    if isinstance(check, vietoris.AlgebraCheck):
        return check.ok, check.structure, check.witness, _v(check.v)
    if isinstance(check[-1], ReferenceVietorisSpace):
        return (*check[:3], _v(check[3]))
    return check  # an error


@pytest.fixture(params=[None, "8"], ids=["default-cap", "cap-8"])
def charges(request, monkeypatch):
    monkeypatch.setattr(vietoris, "Budget", _Charges)
    monkeypatch.setitem(globals(), "Budget", _Charges)
    if request.param:
        monkeypatch.setenv("LAXTOP_CAP", request.param)  # stops V of more than 2 closed sets
    return request.param


def test_vietoris_spaces_match_the_label_coding(charges):
    for s in SPACES:
        for check in (True, False):
            got, log = _charged(vietoris_space, s, check)
            want, ref_log = _charged(reference_vietoris_space, s, check)
            assert log == ref_log, s
            assert (got if isinstance(got, tuple) else _v(got)) == (
                want if isinstance(want, tuple) else _v(want)
            ), s
            if not isinstance(got, tuple):
                assert got.closed == tuple(map(s._mask, s.closed_sets()))
                assert all(got.position[c] == k for k, c in enumerate(got.closed))


def test_vietoris_monads_match_the_label_coding(charges):
    kinds = set()
    for s in SPACES:
        got, log = _charged(vietoris_monad, s)
        want, ref_log = _charged(reference_vietoris_monad, s)
        assert (_monad(got), log) == (_monad(want), ref_log), s
        kinds.add(got[0] if isinstance(got, tuple) else got.associativity_checked)
    assert kinds == ({True, False} if charges is None else {CapExceeded})


def test_vietoris_algebra_checks_match_the_label_coding(charges):
    kinds = set()
    for s in SPACES:
        got, log = _charged(vietoris_algebra_check, s)
        want, ref_log = _charged(reference_vietoris_algebra_check, s)
        assert (_algebra(got), log) == (_algebra(want), ref_log), s
        kinds.add(got[0] if isinstance(got, tuple) else got.ok)
    assert {NotT0, MeetsMissing} | ({True} if charges is None else {CapExceeded}) <= kinds


def test_unit_witnesses_match_the_label_coding(monkeypatch):
    # a monotone structure that keeps the unit law is the meet map, so no
    # space reaches a witness; a constant structure breaks the unit law
    def constant(space, family):
        return space.points[0]

    monkeypatch.setattr(vietoris, "require_meets", constant)
    monkeypatch.setitem(globals(), "require_meets", constant)
    for s in (spaces.chain(3), spaces.diamond(), spaces.m3()):
        got = _charged(vietoris_algebra_check, s)
        want = _charged(reference_vietoris_algebra_check, s)
        assert (_algebra(got[0]), got[1]) == (_algebra(want[0]), want[1])
        assert got[0].witness == ("unit", s.points[1])


def test_functor_maps_match_the_label_coding():
    posets = posets_up_to(3)
    maps = 0
    for a in posets:
        for b in posets:
            for f in enumerate_cmaps(a, b):
                assert vietoris_functor_map(f) == reference_vietoris_functor_map(f), f
                maps += 1
    not_sorted = build_space(["b", "a"], order=[("b", "a")])  # point order is not label order
    for f in enumerate_cmaps(not_sorted, spaces.chain(3)):
        assert vietoris_functor_map(f) == reference_vietoris_functor_map(f), f
    assert maps == 476
