import pytest

from laxtop import spaces
from laxtop.errors import BaseMismatch, NotALattice, UnknownLabel
from laxtop.famx import (
    FamMorphism,
    FamObject,
    fam_descent_check,
    fam_effective_descent_check,
    fam_morphism,
    fam_object,
    fam_pullback,
    to_fam,
)
from laxtop.laxcomma import lax_morphism, lax_object
from laxtop.finspace import cmap


S = spaces.sierpinski()
M3 = spaces.m3()


def test_fam_object_validates_values():
    fam = fam_object(S, {"i": "0", "j": "1"})
    assert fam.value("i") == "0"
    with pytest.raises(BaseMismatch):
        fam_object(S, {"i": "2"})


def test_fam_object_values_must_be_total():
    # checked by a raise, not an assert, so that it holds under python -O
    with pytest.raises(UnknownLabel):
        FamObject(spaces.chain(2), ("i", "j"), (("i", "0"),))
    with pytest.raises(UnknownLabel):
        FamObject(spaces.chain(2), ("i", "j"), (("j", "0"), ("i", "1")))


def test_fam_morphism_must_move_values_up():
    src = fam_object(S, {"i": "0"})
    tgt = fam_object(S, {"j": "1"})
    f = fam_morphism({"i": "j"}, src, tgt)
    assert f("i") == "j"
    assert f.fibre("j") == ["i"]
    with pytest.raises(BaseMismatch):
        fam_morphism({"j": "i"}, tgt, src)  # 1 is not below 0


def test_fam_morphism_must_cover_the_source_index_in_order():
    src = fam_object(S, {"i": "0", "k": "0"})
    tgt = fam_object(S, {"j": "1"})
    with pytest.raises(UnknownLabel):
        FamMorphism((("i", "j"),), src, tgt)  # misses k
    with pytest.raises(UnknownLabel):
        fam_morphism({"i": "j"}, src, tgt)
    with pytest.raises(UnknownLabel):
        FamMorphism((("k", "j"), ("i", "j")), src, tgt)  # out of order
    with pytest.raises(UnknownLabel):
        FamMorphism((("i", "j"), ("k", "j"), ("z", "j")), src, tgt)
    with pytest.raises(UnknownLabel):
        fam_morphism({"i": "j", "k": "j", "z": "j"}, src, tgt)
    f = fam_morphism({"k": "j", "i": "j"}, src, tgt)  # listed in index order
    assert f.map == (("i", "j"), ("k", "j"))


def test_to_fam_forgets_topology():
    a = lax_object(spaces.chain(2), S, {"0": "0", "1": "1"})
    fam = to_fam(a)
    assert fam.value("0") == "0" and fam.value("1") == "1"
    b = lax_object(spaces.point(), S, {"*": "1"})
    m = lax_morphism(cmap(a.space, b.space, {"0": "*", "1": "*"}), a, b)
    fm = to_fam(m)
    assert fm("0") == "*" and fm("1") == "*"


def test_fam_pullback_takes_meets():
    tgt = fam_object(S, {"j": "1"})
    f = fam_morphism({"a": "j"}, fam_object(S, {"a": "0"}), tgt)
    g = fam_morphism({"b": "j"}, fam_object(S, {"b": "1"}), tgt)
    apex, pf, pg = fam_pullback(f, g)
    assert apex.value("(a,b)") == "0"
    assert pf("(a,b)") == "a" and pg("(a,b)") == "b"


def test_fam_pullback_keeps_pairs_of_indices_with_commas_apart():
    tgt = fam_object(S, {"j": "1"})
    f = fam_morphism({"a": "j", "a,b": "j"}, fam_object(S, {"a": "0", "a,b": "1"}), tgt)
    g = fam_morphism({"b,c": "j", "c": "j"}, fam_object(S, {"b,c": "1", "c": "1"}), tgt)
    apex, pf, pg = fam_pullback(f, g)
    assert len(apex.index) == 4
    assert apex.value('("a,b",c)') == "1" and apex.value('(a,"b,c")') == "0"
    assert pf('("a,b",c)') == "a,b" and pg('(a,"b,c")') == "b,c"


def test_fam_descent_check():
    tgt = fam_object(S, {"j": "1"})
    covering = fam_morphism(
        {"i0": "j", "i1": "j"}, fam_object(S, {"i0": "1", "i1": "0"}), tgt
    )
    assert fam_descent_check(covering)
    # a fibre of bottoms cannot recover the top
    low = fam_morphism({"i0": "j"}, fam_object(S, {"i0": "0"}), tgt)
    verdict = fam_descent_check(low)
    assert not verdict
    assert verdict.witness == ("j", "1")


def test_fam_descent_needs_lattice_base():
    base = spaces.antichain(2)
    f = fam_morphism(
        {"i": "j"}, fam_object(base, {"i": "0"}), fam_object(base, {"j": "0"})
    )
    with pytest.raises(NotALattice):
        fam_descent_check(f)


def test_fam_effective_frame_shortcut():
    tgt = fam_object(S, {"j": "1"})
    f = fam_morphism(
        {"i0": "j", "i1": "j"}, fam_object(S, {"i0": "1", "i1": "0"}), tgt
    )
    verdict = fam_effective_descent_check(f)
    assert verdict
    assert verdict.mode == "frame-shortcut"


def test_fam_effective_reconstructed_failure_over_m3():
    # the three atoms cover the top for descent, but the compatible family
    # theta = (a, b, bot) cannot be split off a single bundle
    tgt = fam_object(M3, {"j": "top"})
    f = fam_morphism(
        {"i0": "j", "i1": "j", "i2": "j"},
        fam_object(M3, {"i0": "a", "i1": "b", "i2": "c"}),
        tgt,
    )
    assert fam_descent_check(f)
    verdict = fam_effective_descent_check(f)
    assert not verdict
    assert verdict.mode == "reconstructed"
    j, theta = verdict.witness
    assert j == "j"
    assert len(theta) == 3


def test_fam_effective_reconstructed_success_over_m3():
    tgt = fam_object(M3, {"j": "a"})
    f = fam_morphism({"i0": "j"}, fam_object(M3, {"i0": "a"}), tgt)
    verdict = fam_effective_descent_check(f)
    assert verdict
    assert verdict.mode == "reconstructed"
