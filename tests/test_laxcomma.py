import pytest

from laxtop import spaces
from laxtop.errors import (
    BaseMismatch,
    MeetsMissing,
    NotAChain,
    NotClosedLevel,
    NotHeyting,
    NotParallel,
)
from laxtop.enumeration import enumerate_labeled_posets
from laxtop.finspace import build_space, cmap
from laxtop.laxcomma import (
    chain_filtration,
    exponentiability_report,
    exponential_object,
    initial_lift,
    initial_lift_over,
    is_chain,
    is_lax_morphism,
    lan_extension,
    lax_coequalizer,
    lax_equalizer,
    lax_hom,
    lax_morphism,
    lax_object,
    lax_product,
    lax_pullback,
    lax_sum,
    transpose_to_product,
    verify_initial_lift,
    verify_universal_property,
)
from laxtop.order import heyting_report, lattice_ops, lattice_report


C3 = spaces.chain(3)
PT = spaces.point()


def obj(space, base, table):
    return lax_object(space, base, table)


def test_lax_morphism_condition():
    src = obj(spaces.chain(2), C3, {"0": "0", "1": "1"})
    tgt = obj(spaces.chain(2), C3, {"0": "1", "1": "2"})
    f = cmap(src.space, tgt.space, {"0": "0", "1": "1"})
    ok, witness = is_lax_morphism(f, src, tgt)
    assert ok and witness is None
    # the other direction fails: 1 is not below 0 at the point "0"
    ok, witness = is_lax_morphism(f, tgt, src)
    assert not ok and witness == "0"
    with pytest.raises(BaseMismatch):
        lax_morphism(f, tgt, src)


def test_lax_hom_counts():
    a = obj(PT, C3, {"*": "0"})
    b = obj(PT, C3, {"*": "1"})
    assert len(lax_hom(a, b)) == 1
    assert len(lax_hom(b, a)) == 0


def test_product_is_pointwise_meet():
    a = obj(PT, C3, {"*": "1"})
    b = obj(PT, C3, {"*": "2"})
    prod = lax_product([a, b])
    assert prod.obj.value("(*,*)") == "1"
    res = verify_universal_property(
        "product", {"objects": [a, b], "product": prod}
    )
    assert res.ok


def test_product_needs_meets():
    base = spaces.antichain(2)
    a = obj(PT, base, {"*": "0"})
    b = obj(PT, base, {"*": "1"})
    with pytest.raises(MeetsMissing):
        lax_product([a, b])


def test_sum_and_equalizer():
    a = obj(PT, C3, {"*": "0"})
    b = obj(PT, C3, {"*": "2"})
    total = lax_sum([a, b])
    assert set(total.obj.space.points) == {"in0:*", "in1:*"}
    assert total.obj.value("in1:*") == "2"
    f = total.injections[0]
    g = total.injections[0]
    eq = lax_equalizer(
        lax_morphism(cmap(a.space, total.obj.space, {"*": "in0:*"}), a, total.obj),
        lax_morphism(cmap(a.space, total.obj.space, {"*": "in0:*"}), a, total.obj),
    )
    assert set(eq.obj.space.points) == {"*"}
    with pytest.raises(NotParallel):
        lax_equalizer(f, lax_morphism(
            cmap(b.space, total.obj.space, {"*": "in1:*"}), b, total.obj
        ))


def test_lan_extension_matches_order_formula():
    # collapse a 2-point antichain to a point: the extension takes the join
    disc = spaces.antichain(2)
    beta = cmap(disc, C3, {"0": "1", "1": "2"})
    q = cmap(disc, PT, {"0": "*", "1": "*"})
    ext = lan_extension(beta, q)
    assert ext("*") == "2"
    # an empty fibre resolves to the bottom of the base
    empty_src = build_space([], order=[])
    ext2 = lan_extension(
        cmap(empty_src, C3, {}), cmap(empty_src, PT, {})
    )
    assert ext2("*") == "0"


def test_coequalizer_structure_and_oracle():
    disc = spaces.antichain(2)
    d = obj(disc, C3, {"0": "1", "1": "2"})
    bot = obj(PT, C3, {"*": "0"})
    e1 = lax_morphism(cmap(PT, disc, {"*": "0"}), bot, d)
    e2 = lax_morphism(cmap(PT, disc, {"*": "1"}), bot, d)
    coeq = lax_coequalizer(e1, e2)
    assert len(coeq.obj.space.points) == 1
    assert list(coeq.obj.alpha.table)[0][1] == "2"  # join of 1 and 2
    res = verify_universal_property(
        "coequalizer", {"f": e1, "g": e2, "coequalizer": coeq}
    )
    assert res.ok


def test_pullback_values_are_meets():
    c = obj(spaces.chain(2), C3, {"0": "0", "1": "2"})
    a = obj(PT, C3, {"*": "1"})
    b = obj(PT, C3, {"*": "2"})
    f = lax_morphism(cmap(PT, c.space, {"*": "1"}), a, c)
    g = lax_morphism(cmap(PT, c.space, {"*": "1"}), b, c)
    pb = lax_pullback(f, g)
    assert len(pb.obj.space.points) == 1
    point = pb.obj.space.points[0]
    assert pb.obj.value(point) == "1"


def test_initial_lift_of_projection_cone_is_product():
    a = obj(spaces.chain(2), C3, {"0": "0", "1": "2"})
    b = obj(PT, C3, {"*": "1"})
    prod = lax_product([a, b])
    cone = [(p.underlying, o) for p, o in zip(prod.projections, [a, b])]
    lift = initial_lift(prod.obj.space, cone)
    assert lift == prod.obj
    res = verify_universal_property(
        "initial_lift", {"space": prod.obj.space, "cone": cone, "lift": lift}
    )
    assert res.ok


def test_initial_lift_over_refuses_legs_that_do_not_fit_the_cone():
    # over C3 the labels miss S's meets; over C2 they coincide with S's labels
    for other in (C3, spaces.chain(2)):
        leg = (cmap(PT, PT, {"*": "*"}), obj(PT, other, {"*": "1"}))
        with pytest.raises(BaseMismatch, match="over the base"):
            initial_lift_over(PT, [leg], spaces.sierpinski())
        with pytest.raises(BaseMismatch, match="over the base"):
            verify_initial_lift(PT, [leg], obj(PT, spaces.sierpinski(), {"*": "1"}))
    two = spaces.antichain(2)
    off_apex = (cmap(two, PT, {"0": "*", "1": "*"}), obj(PT, C3, {"*": "1"}))
    with pytest.raises(BaseMismatch, match="map the apex"):
        initial_lift_over(PT, [off_apex], C3)


def test_exponential_structure_is_implication_meet():
    hey = dict(heyting_report(C3).implication_table)
    a = obj(PT, C3, {"*": "1"})
    b = obj(C3, C3, {p: p for p in C3.points})
    expo = exponential_object(a, b)
    # functions from a point are just the points of B
    assert len(expo.functions) == 3
    for label, h in expo.functions:
        assert expo.obj.value(label) == hey[("1", h("*"))]
    res = verify_universal_property(
        "exponential", {"a": a, "b": b, "exponential": expo}
    )
    assert res.ok


def test_exponential_transpose_roundtrip():
    a = obj(spaces.chain(2), C3, {"0": "0", "1": "1"})
    b = obj(spaces.chain(2), C3, {"0": "0", "1": "2"})
    expo = exponential_object(a, b)
    c = obj(PT, C3, {"*": "0"})
    for m in lax_hom(c, expo.obj):
        table = transpose_to_product(m.underlying, a, expo)
        prod = lax_product([a, c])
        mate = cmap(prod.obj.space, b.space, table)
        ok, _ = is_lax_morphism(mate, prod.obj, b)
        assert ok


def test_exponential_needs_heyting_base():
    m3 = spaces.m3()
    a = obj(PT, m3, {"*": "a"})
    b = obj(PT, m3, {"*": "b"})
    # a => b does not exist in M3: b and c are incomparable upper candidates
    with pytest.raises(NotHeyting) as exc:
        exponential_object(a, b)
    assert exc.value.pair == ("a", "b")


def test_exponentiability_over_frame_base():
    div = spaces.div12()
    rep = exponentiability_report(obj(PT, div, {"*": "4"}))
    assert rep.exponentiable is True
    assert rep.mode == "definitive"


def test_exponentiability_refuted_over_m3():
    rep = exponentiability_report(obj(PT, spaces.m3(), {"*": "a"}))
    assert rep.exponentiable is False
    assert rep.mode == "definitive"
    assert rep.witness == ("*", ("b", "c"))


def test_no_base_of_the_sufficient_only_mode_has_a_top():
    # the mode is reached by a meet-semilattice that is not a complete
    # lattice; a finite one with a top would be complete
    reached = 0
    for n in range(6):
        for base in enumerate_labeled_posets(n):
            report = lattice_report(base)
            if report.is_meet_semilattice and not report.is_complete_lattice:
                reached += 1
                assert not report.has_top, base.le
    assert reached == 729


def test_exponentiability_over_a_meet_semilattice_is_unknown():
    vee = build_space(["bot", "a", "b"], order=[("bot", "a"), ("bot", "b")])
    for value in vee.points:
        report = exponentiability_report(obj(PT, vee, {"*": value}))
        assert (report.exponentiable, report.mode, report.witness) == (
            None, "sufficient-only", None
        )


def test_chain_filtration_roundtrip():
    a = obj(spaces.chain(2), C3, {"0": "0", "1": "2"})
    filt = chain_filtration("to", a)
    levels = dict(filt.levels)
    assert levels["0"] == frozenset({"0", "1"})
    assert levels["2"] == frozenset({"1"})
    back = chain_filtration("from", filt)
    assert back == a
    # the empty chain carries only the empty lax object, whose filtration has no levels
    empty = build_space([], order=[])
    none = obj(empty, empty, {})
    assert is_chain(empty) and chain_filtration("to", none).levels == ()
    assert chain_filtration("from", chain_filtration("to", none)) == none


def test_chain_filtration_rejects_bad_input():
    with pytest.raises(NotAChain):
        chain_filtration("to", obj(PT, spaces.diamond(), {"*": "bot"}))
    good = chain_filtration("to", obj(spaces.chain(2), C3, {"0": "0", "1": "2"}))
    bad_levels = tuple(
        (u, frozenset()) if u == "0" else (u, s) for (u, s) in good.levels
    )
    from laxtop.laxcomma import Filtration

    with pytest.raises(NotClosedLevel):
        chain_filtration("from", Filtration(good.base, good.space, bad_levels))


def test_is_chain():
    assert is_chain(C3)
    assert not is_chain(spaces.antichain(2))
    assert not is_chain(spaces.diamond())


def test_generated_labels_of_labels_with_separators_stay_apart():
    s = spaces.sierpinski()
    left = lax_object(build_space(["a", "a,b"], order=[]), s, {"a": "0", "a,b": "1"})
    right = lax_object(build_space(["b,c", "c"], order=[]), s, {"b,c": "1", "c": "0"})
    assert lax_product([left, right]).obj.space.points == (
        '(a,"b,c")', "(a,c)", '("a,b","b,c")', '("a,b",c)'
    )
    two = lax_object(build_space(["a", "b"], order=[]), s, {"a": "1", "b": "1"})
    four = build_space(["c;b:d", "c", "d;b:W", "W"], order=[])
    expo = exponential_object(two, lax_object(four, s, {p: "1" for p in four.points}))
    labels = expo.obj.space.points
    assert len(set(labels)) == len(labels) == 16
    assert '{a:"c;b:d";b:W}' in labels and '{a:c;b:"d;b:W"}' in labels
    assert "{a:c;b:W}" in labels
