import copy
import io
import time

import pytest

from laxtop import descent, spaces
from laxtop.descent import (
    cd_filtration_descent_check,
    condition_tables,
    convergence_descent_check,
    forgetful_preservation_check,
    frame_effective_descent_check,
    laxcomma_effective_descent,
    scp_meet_compat_check,
    sigma,
    top_descent_check,
    top_effective_descent_check,
)
from laxtop.errors import NotALattice, NotCompletelyDistributive
from laxtop.famx import first_unrecovered
from laxtop.finspace import build_space, cmap, identity_map
from laxtop.cli import run_command
from laxtop.harness import lattice_bases, posets_up_to
from laxtop.laxcomma import lax_morphism, lax_object
from laxtop.order import lattice_ops, lattice_report, order_to_space
from laxtop.serialization import lax_morphism_to_dict, to_json


C3 = spaces.chain(3)
PT = spaces.point()


def three_two_chains():
    """Three 2-chains covering every comparable pair of the 3-chain."""
    src = build_space(
        ["a0", "a1", "b1", "b2", "c0", "c2"],
        order=[("a0", "a1"), ("b1", "b2"), ("c0", "c2")],
    )
    f = cmap(
        src, C3, {"a0": "0", "a1": "1", "b1": "1", "b2": "2", "c0": "0", "c2": "2"}
    )
    return src, f


def test_sigma_is_the_identity_assignment():
    rep = sigma(spaces.diamond())
    assert rep.adjunction_ok
    assert all(x == y for (x, y) in rep.table)


def test_scp_meet_compatibility():
    assert scp_meet_compat_check(C3)
    assert scp_meet_compat_check(spaces.m3())
    m = lax_morphism(
        cmap(PT, PT, {"*": "*"}),
        lax_object(PT, C3, {"*": "1"}),
        lax_object(PT, C3, {"*": "2"}),
    )
    assert "meet-compatibility" in laxcomma_effective_descent(m).preconditions_checked
    for _ in range(2):  # the lattice guard runs on every call
        with pytest.raises(NotALattice):
            scp_meet_compat_check(spaces.antichain(2))


def test_meet_compatibility_is_decided_once_per_lattice():
    # equal but distinct bases share the lattice tables, so the bit tests run once
    base = build_space(["x", "y", "z"], order=[("x", "y"), ("y", "z")])
    before = descent._meet_monotone.cache_info()
    for _ in range(3):
        twin = build_space(["x", "y", "z"], order=[("x", "y"), ("y", "z")])
        assert twin is not base and scp_meet_compat_check(twin)
    after = descent._meet_monotone.cache_info()
    misses, hits = after.misses - before.misses, after.hits - before.hits
    assert misses + hits == 3 and misses <= 1  # no miss if an earlier test saw this base


def test_meet_compatibility_holds_on_every_lattice_and_its_lower_topology():
    bases = list(lattice_bases(5)) + [spaces.m3(), spaces.div12(), spaces.sierpinski()]
    for base in bases:
        assert scp_meet_compat_check(base), base
        assert scp_meet_compat_check(order_to_space(base, "lower")), base


def test_meet_compatibility_fails_on_a_meet_table_that_is_not_monotone(monkeypatch):
    ops = copy.copy(lattice_ops(C3))
    table = [list(row) for row in ops.meet_index]
    table[2][2] = 0  # 1 <= 2 but meet(1, 2) = 1 is not below meet(2, 2) = 0
    ops.meet_index = tuple(tuple(row) for row in table)
    monkeypatch.setattr(descent, "lattice_ops", lambda base: ops)
    assert not scp_meet_compat_check(C3)


def test_laxcomma_verdict_refuses_every_base_that_is_not_a_complete_lattice(tmp_path):
    # the lattice guard runs before the Heyting analysis, which needs meets
    message = "effective-descent analysis needs a complete lattice base"
    refused = 0
    for base in posets_up_to(3):
        if lattice_report(base).is_complete_lattice:
            continue
        obj = lax_object(PT, base, {"*": base.points[0]})
        m = lax_morphism(identity_map(PT), obj, obj)
        with pytest.raises(NotALattice) as exc:
            laxcomma_effective_descent(m)
        assert str(exc.value) == message
        path = tmp_path / f"m{refused}.json"
        path.write_text(to_json(lax_morphism_to_dict(m)))
        for flags in ([], ["--json"]):
            out = io.StringIO()
            code = run_command(["descent", "--category", "laxcomma", str(path)] + flags, out)
            assert (code, out.getvalue()) == (1, f"error: {message}\n")
        refused += 1
    assert refused == 5  # the antichains on 2 and 3 points, V, its dual, 2-chain + point


def test_condition_tables_equal_the_conditions_on_every_mask():
    bases = lattice_bases(5) + (spaces.sierpinski(),)
    start = time.process_time()
    cells = set()
    for base in bases:
        ops = lattice_ops(base)
        allw, join = condition_tables(base)
        n = len(base.points)
        assert len(allw) == n and len(join) == 2**n
        for mask in range(2**n):
            values = base.points_at(mask)
            assert base.points[join[mask]] == ops.join_of(values), (base, values)
            for i, bound in enumerate(base.points):
                ok = first_unrecovered(ops, i, mask) is None
                assert allw[i][mask] == ok, (base, bound, values)
                cells.add(ok)
    assert cells == {True, False}
    assert time.process_time() - start < 1.0


def test_top_descent_is_pair_lifting():
    src, f = three_two_chains()
    assert top_descent_check(f).is_descent
    # removing the chain over (0, 1) breaks pair lifting
    partial = build_space(["b1", "b2", "c0", "c2"], order=[("b1", "b2"), ("c0", "c2")])
    g = cmap(partial, C3, {"b1": "1", "b2": "2", "c0": "0", "c2": "2"})
    verdict = top_descent_check(g)
    assert verdict.is_descent is False
    assert verdict.witnesses == (("pair", ("0", "1")),)


def test_top_effective_descent_separation():
    src, f = three_two_chains()
    report = top_effective_descent_check(f)
    assert report.is_descent is True
    assert report.is_effective is False
    assert report.witnesses == (("chain", ("0", "1", "2")),)
    assert top_effective_descent_check(identity_map(C3)).is_effective is True


def test_convergence_check_witness():
    tgt = lax_object(PT, C3, {"*": "2"})
    src = lax_object(PT, C3, {"*": "1"})
    m = lax_morphism(cmap(PT, PT, {"*": "*"}), src, tgt)
    verdict = convergence_descent_check(m)
    assert not verdict
    assert verdict.witness == ("*", "*", "2")


def test_frame_effective_descent():
    tgt = lax_object(PT, C3, {"*": "2"})
    good = lax_morphism(
        cmap(PT, PT, {"*": "*"}), lax_object(PT, C3, {"*": "2"}), tgt
    )
    report = frame_effective_descent_check(good)
    assert report.is_effective is True
    assert "frame" in report.preconditions_checked
    low = lax_morphism(
        cmap(PT, PT, {"*": "*"}), lax_object(PT, C3, {"*": "1"}), tgt
    )
    report = frame_effective_descent_check(low)
    assert report.is_effective is False
    assert any(w[0] == "join" for w in report.witnesses)


def test_frame_check_degrades_on_non_frame_base():
    m3 = spaces.m3()
    tgt = lax_object(PT, m3, {"*": "top"})
    m = lax_morphism(
        cmap(PT, PT, {"*": "*"}), lax_object(PT, m3, {"*": "top"}), tgt
    )
    report = frame_effective_descent_check(m)
    assert report.is_effective is None
    assert any("not a frame" in n for n in report.notes)


def test_laxcomma_effective_descent_over_m3():
    m3 = spaces.m3()
    tgt = lax_object(PT, m3, {"*": "top"})
    disc = spaces.antichain(3)
    # the three atoms: family descent passes, family effectiveness fails,
    # so no characterization applies
    atoms = lax_morphism(
        cmap(disc, PT, {p: "*" for p in disc.points}),
        lax_object(disc, m3, {"0": "a", "1": "b", "2": "c"}),
        tgt,
    )
    report = laxcomma_effective_descent(atoms)
    assert report.is_effective is None
    # a fibre that cannot recover the top refutes via the family image
    low = lax_morphism(
        cmap(PT, PT, {"*": "*"}), lax_object(PT, m3, {"*": "a"}), tgt
    )
    report = laxcomma_effective_descent(low)
    assert report.is_effective is False
    assert report.witnesses[0][0] == "fam-descent"
    # a full fibre is decided positively through the family criterion
    full = lax_morphism(
        cmap(disc, PT, {p: "*" for p in disc.points}),
        lax_object(disc, m3, {"0": "top", "1": "b", "2": "c"}),
        tgt,
    )
    report = laxcomma_effective_descent(full)
    assert "fam-effective" in report.preconditions_checked
    assert report.is_effective is True


def test_laxcomma_uses_frame_check_over_frames():
    tgt = lax_object(PT, C3, {"*": "2"})
    m = lax_morphism(
        cmap(PT, PT, {"*": "*"}), lax_object(PT, C3, {"*": "2"}), tgt
    )
    report = laxcomma_effective_descent(m)
    assert report.is_effective is True
    assert "frame" in report.preconditions_checked


def test_cd_filtration_agrees_with_frame_check():
    tgt = lax_object(PT, C3, {"*": "2"})
    for value in C3.points:
        m = lax_morphism(
            cmap(PT, PT, {"*": "*"}), lax_object(PT, C3, {"*": value}), tgt
        )
        cd = cd_filtration_descent_check(m)
        frame = frame_effective_descent_check(m)
        assert cd.is_effective == frame.is_effective
    with pytest.raises(NotCompletelyDistributive):
        cd_filtration_descent_check(
            lax_morphism(
                cmap(PT, PT, {"*": "*"}),
                lax_object(PT, spaces.m3(), {"*": "top"}),
                lax_object(PT, spaces.m3(), {"*": "top"}),
            )
        )


def test_forgetful_preservation_regular_epi_to_point():
    disc = spaces.antichain(2)
    src = lax_object(disc, C3, {"0": "1", "1": "2"})
    tgt = lax_object(PT, C3, {"*": "2"})
    m = lax_morphism(cmap(disc, PT, {"0": "*", "1": "*"}), src, tgt)
    report = forgetful_preservation_check(m)
    assert report.ok
    assert ("regular-epi-to-point", True) in report.details
    # wrong structure value on the point: not a regular epi image
    weak = lax_morphism(
        cmap(disc, PT, {"0": "*", "1": "*"}),
        lax_object(disc, C3, {"0": "0", "1": "1"}),
        tgt,
    )
    report = forgetful_preservation_check(weak)
    assert ("regular-epi-to-point", False) in report.details


def test_descent_report_json_uses_tri_state():
    src, f = three_two_chains()
    d = top_effective_descent_check(f).to_json_dict()
    assert d["is_descent"] == "true"
    assert d["is_effective"] == "false"
