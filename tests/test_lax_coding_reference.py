"""The lax layer on positions against the label-coded code it replaced.

The reference functions below are ``is_lax_morphism``, ``lax_hom``, the four
universal-property oracles, ``closed_part_lifting`` and the pair-list
``_pair_lifts`` as they were when they called every map point by point
through its label table and built every cone composite with ``compose``.
On every input the acceptance and lax-comma tests verify, and on a failing
instance of each oracle, the position-coded code must give the same
``OracleResult`` (verdict, counterexample repr and ``checked``), charge the
work budget the same, and list the same homs.  Over S and the lattices on
at most 3 points it must give the same lifted value sets (read as the
labels of their value masks), lifted pairs, verdicts and witnesses.
"""

import itertools

import pytest

from laxtop import spaces
from laxtop.descent import DescentReport, _lift_value_sets, _pair_lifts, top_descent_check
from laxtop.errors import BaseMismatch, Budget, LaxtopError
from laxtop.finspace import CMap, _monotone_tables, build_space, cmap, enumerate_cmaps
from laxtop.harness import (
    allw_join_coherence,
    closed_part_lifting,
    lattice_bases,
    lax_objects_over,
    posets_up_to,
    sierpinski_specialization,
)
from laxtop.laxcomma import (
    _TEST_SPACES,
    Exponential,
    LaxCoequalizer,
    LaxMorphism,
    LaxObject,
    LaxProduct,
    OracleResult,
    exponential_object,
    initial_lift,
    initial_lift_over,
    is_lax_morphism,
    lax_coequalizer,
    lax_hom,
    lax_morphism,
    lax_object,
    lax_product,
    transpose_to_product,
    verify_coequalizer,
    verify_exponential,
    verify_initial_lift,
    verify_product,
)
from test_descent_reference import lower_ends

PT = spaces.point()
C3 = spaces.chain(3)
S = spaces.sierpinski()


# -- the replaced code -------------------------------------------------------


def reference_is_lax_morphism(f, src, tgt):
    if src.base != tgt.base:
        raise BaseMismatch("objects live over different bases")
    base = src.base
    for a in src.space.points:
        if not base.leq(src.value(a), tgt.value(f(a))):
            return False, a
    return True, None


def reference_lax_hom(src, tgt):
    out = []
    for f in enumerate_cmaps(src.space, tgt.space):
        ok, _ = reference_is_lax_morphism(f, src, tgt)
        if ok:
            out.append(LaxMorphism(f, src, tgt))
    return out


def reference_verify_product(objects, product):
    objects = list(objects)
    base = product.obj.base
    budget = Budget("oracle candidate")
    checked = 0
    for cand in lax_objects_over(base, _TEST_SPACES):
        legs = [reference_lax_hom(cand, o) for o in objects]
        for cone in itertools.product(*legs):
            checked += 1
            mediators = []
            for m in enumerate_cmaps(cand.space, product.obj.space):
                budget.spend()
                if any(
                    proj.underlying.compose(m) != leg.underlying
                    for proj, leg in zip(product.projections, cone)
                ):
                    continue
                ok, _ = reference_is_lax_morphism(m, cand, product.obj)
                if ok:
                    mediators.append(m)
            if len(mediators) != 1:
                return OracleResult(False, (cand, cone, len(mediators)), checked)
    return OracleResult(True, None, checked)


def reference_verify_coequalizer(f, g, coeq):
    base = coeq.obj.base
    budget = Budget("oracle candidate")
    checked = 0
    q = coeq.quotient.underlying
    for cand in lax_objects_over(base, _TEST_SPACES):
        for h in reference_lax_hom(f.target, cand):
            hu = h.underlying
            if any(
                hu(f.underlying(a)) != hu(g.underlying(a))
                for a in f.source.space.points
            ):
                continue
            checked += 1
            factorizations = []
            for u in enumerate_cmaps(coeq.obj.space, cand.space):
                budget.spend()
                if u.compose(q) != hu:
                    continue
                ok, _ = reference_is_lax_morphism(u, coeq.obj, cand)
                if ok:
                    factorizations.append(u)
            if len(factorizations) != 1:
                return OracleResult(False, (cand, hu, len(factorizations)), checked)
    return OracleResult(True, None, checked)


def reference_verify_exponential(a_obj, b_obj, expo):
    base = a_obj.base
    budget = Budget("oracle candidate")
    checked = 0
    for cand in lax_objects_over(base, _TEST_SPACES):
        prod = lax_product([a_obj, cand])
        direct = {m.underlying.table for m in reference_lax_hom(prod.obj, b_obj)}
        budget.spend(len(direct))
        mates = set()
        for m in reference_lax_hom(cand, expo.obj):
            budget.spend()
            table = transpose_to_product(m.underlying, a_obj, expo)
            mates.add(tuple((p, table[p]) for p in prod.obj.space.points))
        checked += 1
        if mates != direct:
            return OracleResult(False, (cand, sorted(mates ^ direct)), checked)
    return OracleResult(True, None, checked)


def reference_verify_initial_lift(space, cone, lift):
    base = lift.base
    budget = Budget("oracle candidate")
    checked = 0
    for cand in lax_objects_over(base, _TEST_SPACES):
        for h in enumerate_cmaps(cand.space, space):
            budget.spend()
            checked += 1
            into_lift, _ = reference_is_lax_morphism(h, cand, lift)
            through_cone = all(
                reference_is_lax_morphism(m.compose(h), cand, o)[0] for (m, o) in cone
            )
            if into_lift != through_cone:
                return OracleResult(False, (cand, h), checked)
    return OracleResult(True, None, checked)


def reference_pair_lifts(f):
    """The pair-list _pair_lifts: every lifted pair a' <= a, keyed by labels."""
    src, tgt, image = f.source, f.target, f.image
    above = {  # each up-set in point order, as the deleted FiniteSpace.above listed it
        x: src.points_at(up) for x, up in zip(src.points, src.up_masks)
    }
    out = {(b1, b): [] for b1 in tgt.points for b in tgt.points if tgt.leq(b1, b)}
    for a1, up in above.items():
        for a in up:  # a monotone f sends (a1, a) to a key of out
            out[(image[a1], image[a])].append((a1, a))
    return out


def reference_closed_part_lifting(alpha, beta, lifts):
    a0 = [a for a in alpha.source.points if alpha(a) == "1"]
    b0 = [b for b in beta.source.points if beta(b) == "1"]
    return all(
        any(a1 in a0 and a in a0 for (a1, a) in lifts[(b1, b)])
        for b1 in b0
        for b in b0
        if beta.source.leq(b1, b)
    )


def reference_lift_value_sets(f):
    src = f.source
    return {
        key: frozenset(src.value(a1) for (a1, _) in pairs)
        for key, pairs in reference_pair_lifts(f.underlying).items()
    }


def reference_top_descent_check(f):
    for (b1, b), pairs in reference_pair_lifts(f).items():
        if not pairs:
            return DescentReport("top", False, None, witnesses=(("pair", (b1, b)),))
    return DescentReport("top", True, None)


# -- the inputs --------------------------------------------------------------


def initial_lift_inputs(base):
    """Criterion 03's cones over the base, each with its lift."""
    objs = lax_objects_over(base, posets_up_to(2))
    for apex in posets_up_to(2):
        single = [(m, o) for o in objs for m in enumerate_cmaps(apex, o.space)]
        cones = [[]] + [[s] for s in single] + [
            list(p) for p in itertools.combinations_with_replacement(single, 2)
        ]
        for cone in cones:
            yield apex, cone, initial_lift_over(apex, cone, base)


def coequalizer_inputs():
    """Criterion 04's parallel pairs, criterion 07's two and the lax-comma test's."""
    for base in (C3, spaces.div12()):
        objs = lax_objects_over(base, posets_up_to(2))
        seen = set()
        for src in objs:
            for ti, tgt in enumerate(objs):
                for f, g in itertools.combinations_with_replacement(lax_hom(src, tgt), 2):
                    rel = frozenset((f.underlying(a), g.underlying(a)) for a in src.space.points)
                    if (ti, rel) not in seen:
                        seen.add((ti, rel))
                        yield f, g, lax_coequalizer(f, g)
    disc = spaces.antichain(2)
    for base, values, bottom in ((spaces.m3(), ("b", "c"), "bot"), (C3, ("1", "2"), "0")):
        d_obj = lax_object(disc, base, dict(zip(disc.points, values)))
        bot_obj = lax_object(PT, base, {"*": bottom})
        e1 = lax_morphism(cmap(PT, disc, {"*": "0"}), bot_obj, d_obj)
        e2 = lax_morphism(cmap(PT, disc, {"*": "1"}), bot_obj, d_obj)
        coeq = lax_coequalizer(e1, e2)
        yield e1, e2, coeq
        if bottom == "bot":  # over M3, (1, a) x - does not preserve this one
            yield times_a_instance(lax_object(PT, base, {"*": "a"}), bot_obj, d_obj, e1, e2, coeq)


def times_a_instance(a_obj, bot_obj, d_obj, e1, e2, coeq):
    """Criterion 07's candidate coequalizer of (1, a) x e1 and (1, a) x e2."""

    def times_a(m, src_prod, tgt_prod):
        table = {}
        for p in src_prod.obj.space.points:
            a, rest = p[1:-1].split(",", 1)
            table[p] = f"({a},{m.underlying(rest)})"
        return lax_morphism(
            cmap(src_prod.obj.space, tgt_prod.obj.space, table), src_prod.obj, tgt_prod.obj
        )

    prod_pt = lax_product([a_obj, bot_obj])
    prod_d = lax_product([a_obj, d_obj])
    prod_q = lax_product([a_obj, coeq.obj])
    candidate = LaxCoequalizer(prod_q.obj, times_a(coeq.quotient, prod_d, prod_q))
    return times_a(e1, prod_pt, prod_d), times_a(e2, prod_pt, prod_d), candidate


def exponential_inputs():
    """Criterion 05's pairs over S and C3 and the lax-comma test's."""
    for base in (S, C3):
        objs = lax_objects_over(base, posets_up_to(2))
        for a_obj, b_obj in itertools.product(objs, repeat=2):
            yield a_obj, b_obj, exponential_object(a_obj, b_obj)
    a_obj = lax_object(PT, C3, {"*": "1"})
    b_obj = lax_object(C3, C3, {p: p for p in C3.points})
    yield a_obj, b_obj, exponential_object(a_obj, b_obj)


def product_inputs():
    """The lax-comma and CLI tests' products, and every product of two
    objects over S on carriers of at most 2 points."""
    yield [lax_object(PT, C3, {"*": "1"}), lax_object(PT, C3, {"*": "2"})]
    yield [
        lax_object(build_space(["a", "a,b"], order=[]), S, {"a": "0", "a,b": "1"}),
        lax_object(build_space(["b,c", "c"], order=[]), S, {"b,c": "1", "c": "0"}),
    ]
    objs = lax_objects_over(S, posets_up_to(2))
    yield from (list(pair) for pair in itertools.product(objs, repeat=2))


def constant(obj, value):
    """The object with the carrier of obj and every point sent to value."""
    return lax_object(obj.space, obj.base, {p: value for p in obj.space.points})


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

    def run(check, *args):
        spent.clear()
        _monotone_tables.cache_clear()
        try:
            result = check(*args)
        except LaxtopError as exc:
            result = (type(exc), str(exc))
        if isinstance(result, OracleResult):
            result = (result.ok, repr(result.counterexample), result.checked)
        return result, list(spent)

    return run


def assert_same(run, check, reference, *args):
    got = run(check, *args)
    assert got == run(reference, *args), (check.__name__, args)
    return got[0]


@pytest.mark.parametrize("base", lattice_bases(4), ids=repr)
def test_initial_lift_oracle_matches_on_criterion_03(base, charges):
    count = 0
    for apex, cone, lift in initial_lift_inputs(base):
        result = assert_same(charges, verify_initial_lift, reference_verify_initial_lift, apex, cone, lift)
        assert result[0], (apex, cone)
        count += 1
    assert count > 1


def test_initial_lift_oracle_matches_on_the_lax_comma_test_and_failures(charges):
    a = lax_object(spaces.chain(2), C3, {"0": "0", "1": "2"})
    b = lax_object(PT, C3, {"*": "1"})
    prod = lax_product([a, b])
    cone = [(p.underlying, o) for p, o in zip(prod.projections, [a, b])]
    lift = initial_lift(prod.obj.space, cone)
    assert assert_same(charges, verify_initial_lift, reference_verify_initial_lift, prod.obj.space, cone, lift)[0]
    failures = 0
    for value in C3.points:  # the lift takes two values, so each constant is wrong
        result = assert_same(
            charges, verify_initial_lift, reference_verify_initial_lift,
            prod.obj.space, cone, constant(lift, value),
        )
        failures += not result[0]
    assert failures == 3


def test_coequalizer_oracle_matches_on_criteria_04_and_07(charges):
    verdicts = [
        assert_same(charges, verify_coequalizer, reference_verify_coequalizer, f, g, coeq)[0]
        for f, g, coeq in coequalizer_inputs()
    ]
    assert len(verdicts) == 492 + 3
    assert verdicts.count(False) == 1  # criterion 07's candidate


def test_exponential_oracle_matches_on_criterion_05(charges):
    verdicts, wrong_verdicts = [], []
    for a_obj, b_obj, expo in exponential_inputs():
        verdicts.append(
            assert_same(charges, verify_exponential, reference_verify_exponential, a_obj, b_obj, expo)[0]
        )
        if len(verdicts) % 10 == 1:  # and with the bottom structure on the exponential
            wrong = Exponential(
                constant(expo.obj, a_obj.base.points[0]),
                expo.evaluation, expo.eval_source, expo.functions,
            )
            wrong_verdicts.append(
                assert_same(charges, verify_exponential, reference_verify_exponential, a_obj, b_obj, wrong)[0]
            )
    assert all(verdicts) and len(verdicts) == 9 * 9 + 18 * 18 + 1
    assert not all(wrong_verdicts)


def test_product_oracle_matches(charges):
    verdicts, wrong_verdicts = [], []
    for objects in product_inputs():
        product = lax_product(objects)
        verdicts.append(assert_same(charges, verify_product, reference_verify_product, objects, product)[0])
        wrong = LaxProduct(constant(product.obj, product.obj.base.points[0]), product.projections)
        wrong_verdicts.append(
            assert_same(charges, verify_product, reference_verify_product, objects, wrong)[0]
        )
    assert all(verdicts) and len(verdicts) == 2 + 9 * 9
    assert not all(wrong_verdicts)  # the bottom structure is wrong unless the product's is bottom


@pytest.mark.parametrize(
    "base", lattice_bases(4) + (S, spaces.div12(), spaces.m3()), ids=repr
)
def test_homs_and_lax_triangles_match(base, charges):
    objs = lax_objects_over(base, posets_up_to(2))
    refuted = 0
    for src, tgt in itertools.product(objs, repeat=2):
        assert_same(charges, lax_hom, reference_lax_hom, src, tgt)
        for f in enumerate_cmaps(src.space, tgt.space):
            got = is_lax_morphism(f, src, tgt)
            assert got == reference_is_lax_morphism(f, src, tgt), f
            refuted += not got[0]
    assert refuted > 0 or len(base.points) == 1


def test_homs_over_different_bases_raise_alike(charges):
    empty = build_space([], order=[])
    over_s, over_c3 = lax_object(PT, S, {"*": "0"}), lax_object(PT, C3, {"*": "0"})
    none = LaxObject(empty, cmap(empty, C3, {}))
    assert assert_same(charges, lax_hom, reference_lax_hom, over_s, over_c3)[0] is BaseMismatch
    assert assert_same(charges, lax_hom, reference_lax_hom, over_s, none) == []  # no maps to test
    f = cmap(PT, PT, {"*": "*"})
    with pytest.raises(BaseMismatch, match="different bases"):
        is_lax_morphism(f, over_s, over_c3)


@pytest.mark.parametrize("base", (S,) + lattice_bases(3), ids=repr)
def test_lifts_value_sets_and_descent_match(base):
    objs = lax_objects_over(base, posets_up_to(2))
    morphisms = [m for src in objs for tgt in objs for m in lax_hom(src, tgt)]
    assert morphisms
    for m in morphisms:
        f = m.underlying
        lifts = reference_pair_lifts(f)
        assert list(_pair_lifts(f).items()) == list(lower_ends(f, lifts).items())
        pts = m.target.space.points
        got = {
            (pts[j1], pts[j]): frozenset(base.points_at(values))
            for (j1, j), values in _lift_value_sets(m).items()
        }
        assert list(got.items()) == list(reference_lift_value_sets(m).items())
        assert top_descent_check(f) == reference_top_descent_check(f)
        if base == S:
            closed = closed_part_lifting(m.source.alpha, m.target.alpha, _pair_lifts(f))
            assert closed == reference_closed_part_lifting(m.source.alpha, m.target.alpha, lifts)


def test_descent_and_closed_parts_match_on_every_map_over_s():
    refuted = closed_refuted = 0
    carriers = posets_up_to(3)
    alphas = {sp: enumerate_cmaps(sp, S) for sp in carriers}
    for a_sp, b_sp in itertools.product(carriers, repeat=2):
        for f in enumerate_cmaps(a_sp, b_sp):
            lifts = reference_pair_lifts(f)
            got = top_descent_check(f)
            assert got == reference_top_descent_check(f), f
            refuted += got.is_descent is False
            for alpha, beta in itertools.product(alphas[a_sp], alphas[b_sp]):
                closed = closed_part_lifting(alpha, beta, _pair_lifts(f))
                assert closed == reference_closed_part_lifting(alpha, beta, lifts)
                closed_refuted += not closed
    assert refuted > 0 and closed_refuted > 0


def test_the_passing_sweep_builds_no_label_tables(monkeypatch):
    image = CMap.__dict__["image"].func
    built = []
    # a property, unlike the cached one, runs on every read, even of a map
    # whose table some earlier call has built
    monkeypatch.setattr(CMap, "image", property(lambda m: built.append(m) or image(m)))
    carriers = posets_up_to(2)
    checked = allw_join_coherence(S, carriers)[0] + sierpinski_specialization(carriers)[0]
    objs = lax_objects_over(S, carriers)
    homs = sum(len(lax_hom(src, tgt)) for src in objs for tgt in objs)
    assert checked > 0 and homs > 0
    assert built == []
