"""The constructions on positions and masks against the label code they replaced.

The reference functions below are the frozenset ``_down_sets`` (with the
``open_sets`` and ``closed_sets`` it served), ``build_space`` from an open
family, ``sober_report``, ``identity_map``, ``t0_report``,
``product_space``, ``sum_space``, the subspace of ``induced_space``,
``vietoris_space``, ``lax_product``, ``lax_equalizer``, the union-find
``lax_coequalizer`` and ``exponential_object`` as they were when they wrote
label dicts and validated them again with ``cmap``, ``lax_object`` and a
label scan for meets.  The code on positions must give equal results, and
raise the same exception classes with the same messages and, for
``MeetsMissing``, the same families:

* on the posets on at most 3 points and the labeled preorders on at most 3
  points: open and closed sets, rebuilt spaces, sober reports, identities,
  T0 reflections, every subspace, V and the Vietoris algebra verdicts, and
  the products and sums of every pair;
* over S, C3, 2x2, M3, D2, Div12 and the posets on 4 points, with carriers
  the posets on at most 2 points: the lax product of no object, of every
  pair and of a set of triples, every exponential, and the equalizer,
  coequalizer and pullback of every parallel pair, each pair of lax maps
  taken once, between objects over the base.
"""

import itertools

import pytest

from laxtop import finspace, spaces, vietoris
from laxtop.enumeration import enumerate_labeled_preorders, enumerate_posets
from laxtop.errors import (
    BaseMismatch,
    Budget,
    DuplicatePoint,
    LaxtopError,
    NotATopology,
    NotHeyting,
    NotParallel,
    NotT0,
    UnknownLabel,
)
from laxtop.finspace import (
    FiniteSpace,
    InducedSpace,
    SoberReport,
    SpaceWithMaps,
    T0Report,
    _restricted_rows,
    build_space,
    cmap,
    enumerate_cmaps,
    identity_map,
    induced_space,
    product_label,
    product_space,
    sober_report,
    subsets,
    sum_space,
    t0_report,
)
from laxtop.harness import lax_objects_over, posets_up_to
from laxtop.laxcomma import (
    Exponential,
    LaxCoequalizer,
    LaxEqualizer,
    LaxMorphism,
    LaxObject,
    LaxProduct,
    LaxPullback,
    _common_base,
    exponential_object,
    function_label,
    lan_extension,
    lax_coequalizer,
    lax_compose,
    lax_equalizer,
    lax_hom,
    lax_morphism,
    lax_object,
    lax_product,
    lax_pullback,
)
from laxtop.order import heyting_report
from laxtop.vietoris import (
    VietorisSpace,
    _check_hit_topology,
    set_label,
    vietoris_algebra_check,
    vietoris_space,
)
from test_lattice_reference import reference_require_meets

SPACES = tuple(dict.fromkeys(
    posets_up_to(3) + tuple(s for n in range(4) for s in enumerate_labeled_preorders(n))
))
BASES = (
    spaces.sierpinski(),
    spaces.chain(3),
    spaces.diamond(),
    spaces.m3(),
    spaces.antichain(2),
    spaces.div12(),
) + tuple(enumerate_posets(4))
CARRIERS = posets_up_to(2)


# -- the replaced code -------------------------------------------------------


def reference_down_sets(space):
    down = space.down_masks
    classes = [u & d for u, d in zip(space.up_masks, down)]
    reps = [i for i, cls in enumerate(classes) if cls & -cls == 1 << i]
    below = {r: down[r] & ~classes[r] for r in reps}
    masks = [0]
    for r in sorted(reps, key=lambda r: below[r].bit_count()):
        need = below[r]
        bit = classes[r]
        masks.extend([m | bit for m in masks if m & need == need])
    result = [frozenset(space.points_at(mask)) for mask in masks]
    result.sort(key=lambda s: (len(s), sorted(s)))
    return tuple(result)


def reference_closed_sets(space):
    full = frozenset(space.points)
    return tuple(full - o for o in reference_down_sets(space))


def reference_build_opens(points, opens):
    points = tuple(points)
    seen = {}
    for i, p in enumerate(points):
        if p in seen:
            raise DuplicatePoint(f"duplicate point label {p!r}")
        seen[p] = i
    family = []
    for o in opens:
        o = list(o)
        for x in o:
            if x not in seen:
                raise UnknownLabel(f"open set mentions unknown point {x!r}")
        s = frozenset(o)
        if s not in family:
            family.append(s)
    full = frozenset(points)
    if frozenset() not in family:
        raise NotATopology("empty set missing from open family", offending=frozenset())
    if full not in family:
        raise NotATopology("full set missing from open family", offending=full)
    fam = set(family)
    for a, b in itertools.combinations(family, 2):
        if a | b not in fam:
            raise NotATopology("family not closed under union", offending=(a, b))
        if a & b not in fam:
            raise NotATopology("family not closed under intersection", offending=(a, b))
    masks = [sum(1 << seen[x] for x in o) for o in family]
    n = len(points)
    rows = tuple(
        sum(1 << j for j in range(n) if all(m >> i & 1 for m in masks if m >> j & 1))
        for i in range(n)
    )
    space = FiniteSpace(points, rows, provenance="opens")
    if set(reference_down_sets(space)) != fam:
        raise NotATopology("open family does not match its own natural order")
    return space


def reference_sober_report(space):
    if not space.is_t0():
        raise NotT0("sober_report requires a T0 space")
    closeds = [c for c in reference_closed_sets(space) if c]
    out = []
    for c in closeds:
        proper = [d for d in closeds if d < c]
        if any(d1 | d2 == c for d1 in proper for d2 in proper):
            continue
        out.append((c, next((x for x in sorted(c) if space.up(x) == c), None)))
    out.sort(key=lambda pair: (len(pair[0]), sorted(pair[0])))
    return SoberReport(all(g is not None for (_, g) in out), tuple(out))


def reference_identity_map(space):
    return cmap(space, space, {p: p for p in space.points})


def reference_t0_report(space):
    rep = {
        x: min(space.points_at(u & d))
        for x, u, d in zip(space.points, space.up_masks, space.down_masks)
    }
    classes = sorted(set(rep.values()))
    rows = _restricted_rows(space.up_masks, [space.index[c] for c in classes])
    reflection = FiniteSpace(tuple(classes), rows, provenance="order")
    return T0Report(space.is_t0(), reflection, cmap(space, reflection, rep))


def reference_product_space(factors):
    factors = list(factors)
    combos = list(itertools.product(*(s.points for s in factors)))
    labels = tuple(product_label(c) for c in combos)
    rows = [1]
    for s in factors:
        width = len(s.points)
        rows = [
            sum(up << (k * width) for k in range(len(rows)) if row >> k & 1)
            for row in rows
            for up in s.up_masks
        ]
    prod = FiniteSpace(labels, tuple(rows), provenance="order")
    projections = tuple(
        cmap(prod, s, {lab: c[i] for lab, c in zip(labels, combos)})
        for i, s in enumerate(factors)
    )
    return SpaceWithMaps(prod, projections)


def reference_sum_space(summands):
    summands = list(summands)
    labels = []
    for i, s in enumerate(summands):
        labels.extend(f"in{i}:{p}" for p in s.points)
    rows, offset = [], 0
    for s in summands:
        rows.extend(up << offset for up in s.up_masks)
        offset += len(s.points)
    total = FiniteSpace(tuple(labels), tuple(rows), provenance="order")
    injections = tuple(
        cmap(s, total, {p: f"in{i}:{p}" for p in s.points}) for i, s in enumerate(summands)
    )
    return SpaceWithMaps(total, injections)


def reference_subspace(base, data):
    data = tuple(data)
    base.check_labels(data)
    chosen = set(data)
    at = [i for i, p in enumerate(base.points) if p in chosen]
    pts = tuple(base.points[i] for i in at)
    sub = FiniteSpace(pts, _restricted_rows(base.up_masks, at), provenance="order")
    return InducedSpace(sub, cmap(sub, base, {p: p for p in pts}))


def reference_vietoris_space(base, check_topology=True):
    sets = reference_closed_sets(base)
    Budget("Vietoris order").spend(len(sets) ** 2)
    closed = tuple(map(base._mask, sets))
    labels = tuple(set_label(c, base.points) for c in sets)
    rows = tuple(sum(1 << j for j, d in enumerate(closed) if c & d == d) for c in closed)
    space = FiniteSpace(labels, rows, provenance="order")
    if check_topology:
        _check_hit_topology(base, space, closed)
    return VietorisSpace(base, space, closed)


def reference_lax_product(objects, base=None):
    objects = list(objects)
    common = _common_base(objects) or base
    if common is None:
        raise BaseMismatch("empty product needs an explicit base")
    prod = reference_product_space([o.space for o in objects])
    alpha = {}
    for combo, label in zip(
        itertools.product(*(o.space.points for o in objects)), prod.space.points
    ):
        family = [o.value(p) for o, p in zip(objects, combo)]
        alpha[label] = reference_require_meets(common, family)
    obj = lax_object(prod.space, common, alpha)
    projections = tuple(LaxMorphism(proj, obj, o) for proj, o in zip(prod.maps, objects))
    return LaxProduct(obj, projections)


def reference_lax_equalizer(f, g):
    if f.source != g.source or f.target != g.target:
        raise NotParallel("equalizer needs a parallel pair")
    src = f.source
    agree = [a for a in src.space.points if f.underlying(a) == g.underlying(a)]
    sub = reference_subspace(src.space, agree)
    obj = LaxObject(sub.space, src.alpha.compose(sub.canonical))
    return LaxEqualizer(obj, LaxMorphism(sub.canonical, obj, src))


def reference_lax_coequalizer(f, g):
    if f.source != g.source or f.target != g.target:
        raise NotParallel("coequalizer needs a parallel pair")
    tgt = f.target
    parent = {p: p for p in tgt.space.points}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    def union(p, q):
        rp, rq = find(p), find(q)
        if rp != rq:
            lo, hi = min(rp, rq), max(rp, rq)
            parent[hi] = lo

    for a in f.source.space.points:
        union(f.underlying(a), g.underlying(a))
    table = {p: find(p) for p in tgt.space.points}
    quot = induced_space("quotient", tgt.space, table)
    gamma = lan_extension(tgt.alpha, quot.canonical)
    obj = LaxObject(quot.space, gamma)
    return LaxCoequalizer(obj, LaxMorphism(quot.canonical, tgt, obj))


def reference_lax_pullback(f, g):
    if f.target != g.target:
        raise NotParallel("pullback needs a common target")
    prod = reference_lax_product([f.source, g.source])
    pi1, pi2 = prod.projections
    eq = reference_lax_equalizer(lax_compose(f, pi1), lax_compose(g, pi2))
    return LaxPullback(eq.obj, lax_compose(pi1, eq.embedding), lax_compose(pi2, eq.embedding))


def reference_exponential_object(a_obj, b_obj):
    if a_obj.base != b_obj.base:
        raise BaseMismatch("objects live over different bases")
    base = a_obj.base
    imp = dict(heyting_report(base).implication_table)
    maps = enumerate_cmaps(a_obj.space, b_obj.space)
    labels = tuple(function_label(h.table) for h in maps)
    up = b_obj.space.up_masks
    rows = tuple(
        sum(
            1 << k
            for k, g in enumerate(maps)
            if all(up[i] >> j & 1 for i, j in zip(h.positions, g.positions))
        )
        for h in maps
    )
    exp_space = FiniteSpace(labels, rows, provenance="order")
    delta = {}
    for lab, h in zip(labels, maps):
        parts = []
        for a in a_obj.space.points:
            pair = (a_obj.value(a), b_obj.value(h(a)))
            if pair not in imp:
                raise NotHeyting(f"missing implication for {pair}", pair=pair)
            parts.append(imp[pair])
        delta[lab] = reference_require_meets(base, parts)
    exp_obj = lax_object(exp_space, base, delta)
    product = reference_lax_product([a_obj, exp_obj])
    ev_table = {
        product_label((a, lab)): h(a) for a in a_obj.space.points for lab, h in zip(labels, maps)
    }
    evaluation = lax_morphism(
        cmap(product.obj.space, b_obj.space, ev_table), product.obj, b_obj
    )
    return Exponential(exp_obj, evaluation, product.obj, tuple(zip(labels, maps)))


# -- the comparisons ---------------------------------------------------------


def _outcome(fn, *args):
    """The value, or the exception class, message, family and pair."""
    try:
        return fn(*args)
    except LaxtopError as exc:
        return type(exc), str(exc), getattr(exc, "family", None), getattr(exc, "pair", None)


def assert_same(new, reference, *args):
    got, want = _outcome(new, *args), _outcome(reference, *args)
    assert got == want, (new.__name__, args)
    return got


def test_open_and_closed_sets_match_the_frozenset_family():
    for s in SPACES:
        assert s.open_sets() == reference_down_sets(s)
        assert s.closed_sets() == reference_closed_sets(s)
        assert finspace._down_sets(s) == tuple(map(s._mask, reference_down_sets(s)))


def test_rebuilt_spaces_match_on_open_families_and_broken_ones():
    for s in SPACES:
        opens = s.open_sets()
        families = [opens] + [opens[:k] + opens[k + 1:] for k in range(len(opens))]
        families += [opens + (frozenset(c),) for c in subsets(s.points)]
        families += [opens + (frozenset({"zz"}),)]
        for family in families:
            assert_same(build_space, reference_build_opens, s.points, family)


def test_space_constructions_match_the_label_tables():
    for s in SPACES:
        assert_same(sober_report, reference_sober_report, s)
        assert_same(identity_map, reference_identity_map, s)
        assert_same(t0_report, reference_t0_report, s)
        assert_same(vietoris_space, reference_vietoris_space, s)
        for sub in subsets(s.points):
            for data in (sub, sub[::-1], sub + ("zz",)):
                new = _outcome(induced_space, "subspace", s, data)
                assert new == _outcome(reference_subspace, s, data), (s, data)
    for factors in itertools.product(SPACES, repeat=2):
        assert_same(product_space, reference_product_space, factors)
        assert_same(sum_space, reference_sum_space, factors)
    for factors in ((), (SPACES[3],), SPACES[2:5]):
        assert_same(product_space, reference_product_space, factors)
        assert_same(sum_space, reference_sum_space, factors)


def test_vietoris_algebra_verdicts_match_the_label_coding(monkeypatch):
    got = [_outcome(vietoris_algebra_check, s) for s in SPACES]
    # the closed sets and V through the replaced label code
    monkeypatch.setattr(FiniteSpace, "closed_sets", reference_closed_sets)
    monkeypatch.setattr(vietoris, "vietoris_space", reference_vietoris_space)
    assert got == [_outcome(vietoris_algebra_check, s) for s in SPACES]


@pytest.mark.parametrize("base", BASES, ids=repr)
def test_lax_products_and_exponentials_match_the_label_tables(base):
    objs = lax_objects_over(base, CARRIERS)
    assert_same(lax_product, reference_lax_product, [], base)
    for pair in itertools.product(objs, repeat=2):
        assert_same(lax_product, reference_lax_product, pair)
        assert_same(exponential_object, reference_exponential_object, *pair)
    for triple in itertools.combinations(objs[:8], 3):
        assert_same(lax_product, reference_lax_product, triple)


@pytest.mark.parametrize("base", BASES, ids=repr)
def test_equalizers_coequalizers_and_pullbacks_match_the_label_code(base):
    objs = lax_objects_over(base, CARRIERS)
    for src, tgt in itertools.product(objs, repeat=2):
        for f, g in itertools.combinations_with_replacement(lax_hom(src, tgt), 2):
            assert_same(lax_equalizer, reference_lax_equalizer, f, g)
            assert_same(lax_coequalizer, reference_lax_coequalizer, f, g)
            assert_same(lax_pullback, reference_lax_pullback, f, g)
