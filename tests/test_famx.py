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


def table(f):
    """The index dict of a family morphism."""
    return {i: f.target.index[j] for i, j in zip(f.source.index, f.positions)}


def test_fam_object_validates_values():
    fam = fam_object(S, {"j": "1", "i": "0"})
    assert fam.index == ("i", "j") and fam.positions == (0, 1)
    assert fam.values == (("i", "0"), ("j", "1"))
    with pytest.raises(BaseMismatch, match="family value '2' is not a base point"):
        fam_object(S, {"i": "2"})


def test_fam_object_values_must_be_total():
    # checked by a raise, not an assert, so that it holds under python -O
    with pytest.raises(UnknownLabel):
        FamObject(spaces.chain(2), ("i", "j"), (0,))
    with pytest.raises(UnknownLabel):
        FamObject(spaces.chain(2), ("i",), (0, 1))
    with pytest.raises(BaseMismatch):
        FamObject(spaces.chain(2), ("i",), (2,))  # no such base position


def test_fam_morphism_must_move_values_up():
    src = fam_object(S, {"i": "0"})
    tgt = fam_object(S, {"j": "1"})
    f = fam_morphism({"i": "j"}, src, tgt)
    assert f.positions == (0,) and table(f) == {"i": "j"}
    assert f.fibres == (0b1,)
    with pytest.raises(BaseMismatch):
        fam_morphism({"j": "i"}, tgt, src)  # 1 is not below 0


def test_fam_morphism_reports_the_first_bad_index_element():
    src = fam_object(S, {"i": "1", "k": "0"})
    tgt = fam_object(S, {"j": "0"})
    with pytest.raises(BaseMismatch, match="value at 'i' is not below its image value"):
        fam_morphism({"i": "j", "k": "x"}, src, tgt)
    with pytest.raises(BaseMismatch, match="index 'i' maps outside the target index set"):
        fam_morphism({"i": "x", "k": "j"}, src, tgt)
    for outside in (-1, 1):
        with pytest.raises(BaseMismatch, match="index 'i' maps outside"):
            FamMorphism(src, tgt, (outside, 0))
    with pytest.raises(BaseMismatch, match="different bases"):  # before totality
        fam_morphism({}, src, fam_object(M3, {"j": "a"}))


def test_fam_morphism_must_cover_the_source_index_in_order():
    src = fam_object(S, {"i": "0", "k": "0"})
    tgt = fam_object(S, {"j": "1"})
    with pytest.raises(UnknownLabel):
        FamMorphism(src, tgt, (0,))  # misses k
    with pytest.raises(UnknownLabel):
        fam_morphism({"i": "j"}, src, tgt)
    with pytest.raises(UnknownLabel):
        FamMorphism(src, tgt, (0, 0, 0))
    with pytest.raises(UnknownLabel):
        fam_morphism({"i": "j", "k": "j", "z": "j"}, src, tgt)
    with pytest.raises(UnknownLabel):
        fam_morphism({"i": "j", "z": "j"}, src, tgt)  # as many elements, not the index
    f = fam_morphism({"k": "j", "i": "j"}, src, tgt)  # listed in index order
    assert f.positions == (0, 0) and f.fibres == (0b11,)


def test_to_fam_forgets_topology():
    a = lax_object(spaces.chain(2), S, {"0": "0", "1": "1"})
    fam = to_fam(a)
    assert dict(fam.values) == {"0": "0", "1": "1"}
    b = lax_object(spaces.point(), S, {"*": "1"})
    m = lax_morphism(cmap(a.space, b.space, {"0": "*", "1": "*"}), a, b)
    fm = to_fam(m)
    assert table(fm) == {"0": "*", "1": "*"}


def test_fam_pullback_takes_meets():
    tgt = fam_object(S, {"j": "1"})
    f = fam_morphism({"a": "j"}, fam_object(S, {"a": "0"}), tgt)
    g = fam_morphism({"b": "j"}, fam_object(S, {"b": "1"}), tgt)
    apex, pf, pg = fam_pullback(f, g)
    assert apex.values == (("(a,b)", "0"),)
    assert table(pf) == {"(a,b)": "a"} and table(pg) == {"(a,b)": "b"}


def test_fam_pullback_keeps_pairs_of_indices_with_commas_apart():
    tgt = fam_object(S, {"j": "1"})
    f = fam_morphism({"a": "j", "a,b": "j"}, fam_object(S, {"a": "0", "a,b": "1"}), tgt)
    g = fam_morphism({"b,c": "j", "c": "j"}, fam_object(S, {"b,c": "1", "c": "1"}), tgt)
    apex, pf, pg = fam_pullback(f, g)
    assert len(apex.index) == 4
    assert apex.index == tuple(sorted(apex.index))  # as fam_object lists it
    values = dict(apex.values)
    assert values['("a,b",c)'] == "1" and values['(a,"b,c")'] == "0"
    assert table(pf)['("a,b",c)'] == "a,b" and table(pg)['(a,"b,c")'] == "b,c"


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
