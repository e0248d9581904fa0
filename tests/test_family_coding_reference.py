"""Families and family maps on positions against the label coding they replaced.

``ReferenceFamObject`` below stored its (index element, base point) pairs
and looked a value up by building a dict; ``ReferenceFamMorphism`` stored
its (source, target) index pairs, built a dict on every call and scanned
the whole map for a fibre.  ``reference_fam_pullback`` met the label
values, and ``reference_to_fam`` and ``reference_small_fam_morphisms``
read labels.  The position-coded families must hold the same labels,
refuse the same tables with the same exception classes and messages, in
the same per-element order, and give the same pullbacks, forgetful images
and harness universes.

The label-coded family checks of ``test_condition_reference`` take the
morphisms built here, so they never read the code under test.
"""

import itertools
from dataclasses import dataclass

import pytest

from laxtop import spaces
from laxtop.errors import BaseMismatch, LaxtopError, NotACompleteLattice, UnknownLabel
from laxtop.famx import FamMorphism, FamObject, fam_morphism, fam_object, fam_pullback, to_fam
from laxtop.finspace import FiniteSpace, build_space, product_label
from laxtop.harness import _small_fam_morphisms, lattice_bases, posets_up_to
from laxtop.laxcomma import LaxMorphism, LaxObject, lax_hom, lax_objects_over, lax_pullback
from laxtop.order import lattice_report

N5 = build_space(
    ["0", "a", "b", "c", "1"],
    order=[("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")],
    name="N5",
)
NON_FRAMES = (spaces.m3(), N5)
STRAY = "zz"  # a label outside every base and every index


# -- the replaced code -------------------------------------------------------


@dataclass(frozen=True)
class ReferenceFamObject:
    base: FiniteSpace
    index: tuple
    values: tuple  # (index element, base point) pairs, in index order

    def __post_init__(self):
        if tuple(i for (i, _) in self.values) != self.index:
            raise UnknownLabel(
                f"family values not total: they must cover the index {self.index!r} in order"
            )
        for (_, x) in self.values:
            if x not in self.base.points:
                raise BaseMismatch(f"family value {x!r} is not a base point")

    def value(self, i):
        return dict(self.values)[i]


def reference_fam_object(base, values):
    idx = tuple(sorted(values))
    return ReferenceFamObject(base, idx, tuple((i, values[i]) for i in idx))


@dataclass(frozen=True)
class ReferenceFamMorphism:
    map: tuple  # (source index, target index) pairs, in source index order
    source: ReferenceFamObject
    target: ReferenceFamObject

    def __post_init__(self):
        if self.source.base != self.target.base:
            raise BaseMismatch("families live over different bases")
        if tuple(i for (i, _) in self.map) != self.source.index:
            raise UnknownLabel(
                f"family map not total: it must cover the index {self.source.index!r} in order"
            )
        base = self.source.base
        table = dict(self.map)
        for i in self.source.index:
            if table[i] not in self.target.index:
                raise BaseMismatch(f"index {i!r} maps outside the target index set")
            if not base.leq(self.source.value(i), self.target.value(table[i])):
                raise BaseMismatch(f"value at {i!r} is not below its image value")

    def __call__(self, i):
        return dict(self.map)[i]

    def fibre(self, j):
        return [i for (i, jj) in self.map if jj == j]


def reference_fam_morphism(table, source, target):
    rank = {i: k for k, i in enumerate(source.index)}
    pairs = sorted(table.items(), key=lambda pair: rank.get(pair[0], len(rank)))
    return ReferenceFamMorphism(tuple(pairs), source, target)


def reference_to_fam(arg):
    if isinstance(arg, LaxObject):
        return reference_fam_object(arg.base, {a: arg.value(a) for a in arg.space.points})
    if isinstance(arg, LaxMorphism):
        return reference_fam_morphism(
            dict(arg.underlying.table), reference_to_fam(arg.source), reference_to_fam(arg.target)
        )
    raise TypeError(f"cannot forget the topology of {type(arg).__name__}")


def reference_fam_pullback(f, g):
    if f.target != g.target:
        raise BaseMismatch("pullback needs a common target family")
    base = f.source.base
    report = lattice_report(base)  # the label meets that LatticeOps.meet read
    if not report.is_complete_lattice:
        raise NotACompleteLattice(f"natural order of {base!r} is not a complete lattice")
    values, left, right = {}, {}, {}
    for i in f.source.index:
        for j in g.source.index:
            if f(i) == g(j):
                k = product_label((i, j))
                values[k] = report.meets[(f.source.value(i), g.source.value(j))]
                left[k] = i
                right[k] = j
    apex = reference_fam_object(base, values)
    return (
        apex,
        reference_fam_morphism(left, apex, f.source),
        reference_fam_morphism(right, apex, g.source),
    )


def reference_small_fam_morphisms(base, max_size=2):
    families = [
        reference_fam_object(base, {f"i{n}": v for n, v in enumerate(values)})
        for k in range(1, max_size + 1)
        for values in itertools.product(base.points, repeat=k)
    ]
    out = []
    for src in families:
        for tgt in families:
            for images in itertools.product(tgt.index, repeat=len(src.index)):
                table = dict(zip(src.index, images))
                if all(base.leq(src.value(i), tgt.value(table[i])) for i in src.index):
                    out.append(reference_fam_morphism(table, src, tgt))
    return out


# -- shared with test_condition_reference --------------------------------------


def families(base, most):
    """The value dicts of every family over base with 1 to most elements."""
    return [
        {f"i{n}": v for n, v in enumerate(values)}
        for size in range(1, most + 1)
        for values in itertools.product(base.points, repeat=size)
    ]


def family_tables(base, source_size, target_size):
    """(source values, target values, table) for every index map from a
    family of at most source_size elements to one of at most target_size."""
    for src in families(base, source_size):
        for tgt in families(base, target_size):
            for images in itertools.product(sorted(tgt), repeat=len(src)):
                yield src, tgt, dict(zip(sorted(src), images))


def fam_morphism_pairs(base, source_size, target_size):
    """Every family morphism of family_tables, built in both codings."""
    out = []
    for src, tgt, table in family_tables(base, source_size, target_size):
        if all(base.leq(src[i], tgt[j]) for i, j in table.items()):
            ref_src, ref_tgt = reference_fam_object(base, src), reference_fam_object(base, tgt)
            out.append((
                fam_morphism(table, fam_object(base, src), fam_object(base, tgt)),
                reference_fam_morphism(table, ref_src, ref_tgt),
            ))
    return out


# -- comparison ----------------------------------------------------------------


def _outcome(build, *args):
    try:
        return build(*args)
    except LaxtopError as exc:
        return type(exc), str(exc)


def family_view(fam):
    """The labels of a family in either coding."""
    if isinstance(fam, tuple):  # an error
        return fam
    return fam.base, fam.index, fam.values


def morphism_view(f):
    """The labels of a family morphism in either coding: both families, the
    index pairs and the fibre of each target element."""
    if isinstance(f, tuple):  # an error
        return f
    if isinstance(f, FamMorphism):
        src, tgt = f.source.index, f.target.index
        pairs = tuple((i, tgt[j]) for i, j in zip(src, f.positions))
        fibres = tuple([i for a, i in enumerate(src) if mask >> a & 1] for mask in f.fibres)
    else:
        pairs = f.map
        fibres = tuple(f.fibre(j) for j in f.target.index)
    return family_view(f.source), family_view(f.target), pairs, fibres


def _malformed(table, tgt):
    """Tables that miss, add or map outside, after the well-formed one."""
    first, last = min(table), max(table)
    yield {i: j for i, j in table.items() if i != first}
    yield {**table, STRAY: next(iter(tgt))}
    yield {**table, first: STRAY}
    yield {**table, last: STRAY}  # after any element whose value is not below
    yield {STRAY if i == first else i: j for i, j in table.items()}  # as many, not the index


@pytest.mark.parametrize("base", lattice_bases(4) + NON_FRAMES, ids=repr)
def test_family_tables_build_what_the_label_coding_builds(base):
    outcomes = set()
    for src, tgt, table in family_tables(base, 3, 2):
        ref_src, ref_tgt = reference_fam_object(base, src), reference_fam_object(base, tgt)
        new_src, new_tgt = fam_object(base, src), fam_object(base, tgt)
        assert family_view(new_src) == family_view(ref_src)
        for t in (table, *_malformed(table, tgt)):
            got = _outcome(fam_morphism, t, new_src, new_tgt)
            want = _outcome(reference_fam_morphism, t, ref_src, ref_tgt)
            assert morphism_view(got) == morphism_view(want), t
            outcomes.add(got[1].split(" ", 2)[-1] if isinstance(got, tuple) else "accepted")
    assert outcomes >= {
        "accepted",
        "maps outside the target index set",
        "not total: it must cover the index ('i0',) in order",
    }
    assert any("is not below its image value" in o for o in outcomes) == (len(base.points) > 1)


def test_families_refuse_what_the_label_coded_families_refuse():
    base = spaces.chain(3)
    for values in ({"i": STRAY}, {"i": "0", "j": STRAY, "k": 1}, {"j": "2", "i": None}):
        got = _outcome(fam_object, base, values)
        assert got == _outcome(reference_fam_object, base, values)
        assert got[0] is BaseMismatch
    other = fam_object(spaces.m3(), {"j": "a"})
    ref_other = reference_fam_object(spaces.m3(), {"j": "a"})
    src = {"i": "0", "k": "1"}
    for table in ({"i": "j", "k": "j"}, {"i": "j"}, {}):  # the bases differ before all else
        got = _outcome(fam_morphism, table, fam_object(base, src), other)
        want = _outcome(reference_fam_morphism, table, reference_fam_object(base, src), ref_other)
        assert got == want == (BaseMismatch, "families live over different bases")
    # the empty family and maps out of it, and a family built with a repeated index
    tgt, ref_tgt = fam_object(base, {"j": "2"}), reference_fam_object(base, {"j": "2"})
    empty, ref_empty = fam_object(base, {}), reference_fam_object(base, {})
    twice = FamObject(base, ("i", "i"), (0, 1))
    ref_twice = ReferenceFamObject(base, ("i", "i"), (("i", "0"), ("i", "1")))
    assert family_view(twice) == family_view(ref_twice)
    cases = ((empty, ref_empty, {}), (empty, ref_empty, {"z": "j"}), (twice, ref_twice, {"i": "j"}))
    for source, ref_source, table in cases:
        got = _outcome(fam_morphism, table, source, tgt)
        want = _outcome(reference_fam_morphism, table, ref_source, ref_tgt)
        assert morphism_view(got) == morphism_view(want)
    assert got[0] is UnknownLabel


def test_families_check_totality_and_positions_by_a_raise():
    # raised, not asserted, so the checks hold under python -O
    base = spaces.chain(2)
    with pytest.raises(UnknownLabel, match="family values not total"):
        FamObject(base, ("i", "j"), (0,))
    with pytest.raises(BaseMismatch, match="is not a base point"):
        FamObject(base, ("i",), (-1,))
    src, tgt = fam_object(base, {"i": "0", "k": "0"}), fam_object(base, {"j": "1"})
    with pytest.raises(UnknownLabel, match="family map not total"):
        FamMorphism(src, tgt, (0,))
    with pytest.raises(BaseMismatch, match="index 'k' maps outside"):
        FamMorphism(src, tgt, (0, 1))


@pytest.mark.parametrize("base", lattice_bases(3) + NON_FRAMES, ids=repr)
def test_small_fam_morphisms_and_their_pullbacks_match_the_label_coding(base):
    size = 2 if len(base.points) <= 3 else 1
    new, ref = _small_fam_morphisms(base, size), reference_small_fam_morphisms(base, size)
    by_target = {}
    for f, ref_f in zip(new, ref, strict=True):
        assert morphism_view(f) == morphism_view(ref_f)
        by_target.setdefault(f.target, []).append((f, ref_f))
    for cospans in by_target.values():
        for (f, ref_f), (g, ref_g) in itertools.product(cospans, repeat=2):
            got, want = fam_pullback(f, g), reference_fam_pullback(ref_f, ref_g)
            assert family_view(got[0]) == family_view(want[0])
            assert morphism_view(got[1]) == morphism_view(want[1])
            assert morphism_view(got[2]) == morphism_view(want[2])
    if len(by_target) > 1:
        (f, ref_f), (g, ref_g) = (cospans[0] for cospans in list(by_target.values())[:2])
        got = _outcome(fam_pullback, f, g)
        assert got == _outcome(reference_fam_pullback, ref_f, ref_g)
        assert got == (BaseMismatch, "pullback needs a common target family")


def test_fam_pullback_preservation_inputs_match_the_label_coding():
    base = spaces.chain(3)
    objs = lax_objects_over(base, posets_up_to(2))[:8]
    compared = 0
    for c_obj, a_obj, b_obj in itertools.product(objs, repeat=3):
        for f in lax_hom(a_obj, c_obj):
            for g in lax_hom(b_obj, c_obj):
                got = fam_pullback(to_fam(f), to_fam(g))
                want = reference_fam_pullback(reference_to_fam(f), reference_to_fam(g))
                assert family_view(got[0]) == family_view(want[0])
                assert morphism_view(got[1]) == morphism_view(want[1])
                assert morphism_view(got[2]) == morphism_view(want[2])
                apex = to_fam(lax_pullback(f, g).obj)
                assert apex == got[0]
                assert family_view(apex) == family_view(reference_to_fam(lax_pullback(f, g).obj))
                compared += 1
    assert compared > 0


def test_fam_pullback_refuses_a_base_that_is_not_a_complete_lattice():
    base = spaces.antichain(2)
    tgt, ref_tgt = fam_object(base, {"j": "0"}), reference_fam_object(base, {"j": "0"})
    f = fam_morphism({"i": "j"}, fam_object(base, {"i": "0"}), tgt)
    ref = reference_fam_morphism({"i": "j"}, reference_fam_object(base, {"i": "0"}), ref_tgt)
    got = _outcome(fam_pullback, f, f)
    assert got == _outcome(reference_fam_pullback, ref, ref)
    assert got[0] is NotACompleteLattice


def test_to_fam_matches_the_label_coding_on_every_small_lax_morphism():
    not_sorted = build_space(["b", "a"], order=[("b", "a")])  # point order is not label order
    for base in lattice_bases(3):
        for carrier_set in (posets_up_to(2), (not_sorted,)):
            objs = lax_objects_over(base, carrier_set)
            for a_obj in objs:
                assert family_view(to_fam(a_obj)) == family_view(reference_to_fam(a_obj))
                for b_obj in objs:
                    for f in lax_hom(a_obj, b_obj):
                        assert morphism_view(to_fam(f)) == morphism_view(reference_to_fam(f))
    with pytest.raises(TypeError, match="cannot forget the topology of int"):
        to_fam(3)
