"""Each lattice and descent condition against the copies it replaced.

The reference functions below are the implementations that were merged
into one, kept verbatim in behaviour: the all-w loop of family descent and
the witness recovery of the convergence check, the join condition, which
read the target's values by label, the two lax-comma verdicts with their
own preambles, the filtration search with its break ladder, the
sufficient-only exponentiability report with its implication search, and
the four subset generators.  Each merged path must give the same verdicts
and witnesses on an exhaustive universe.  The references read their lifted
pairs from the label-coded ``reference_pair_lifts``, not from the code
under test, and their families from the label-coded families of
``test_family_coding_reference``.

The label-coded lattice arithmetic is kept too: ``LatticeOps`` on the
symmetric label dicts of its report, with its position tables rebuilt from
them by a label round trip (``_positions``), and the label-coded
``first_unrecovered``, ``_fibre_effective``, ``condition_tables``, the
forgetful check's join and the family checks on top of them.  The tables
built from the order masks must equal the rebuilt ones, and the checks on
positions must give the same verdicts, witnesses, modes and budget charges.
"""

import itertools
import math
from functools import cached_property

import pytest

from laxtop import famx, spaces
from laxtop.descent import (
    ConditionVerdict,
    DescentReport,
    ForgetfulReport,
    _join_condition,
    cd_filtration_descent_check,
    condition_tables,
    convergence_descent_check,
    forgetful_preservation_check,
    frame_effective_descent_check,
    laxcomma_effective_descent,
    scp_meet_compat_check,
    top_effective_descent_check,
)
from laxtop.errors import (
    Budget,
    CapExceeded,
    InternalInconsistency,
    LaxtopError,
    NotACompleteLattice,
    NotALattice,
    NotCompletelyDistributive,
)
from laxtop.famx import (
    FamVerdict,
    fam_descent_check,
    fam_effective_descent_check,
    first_unrecovered,
)
from laxtop.finspace import build_space, subsets
from laxtop.harness import (
    _small_fam_morphisms,
    lattice_bases,
    lax_objects_over,
    posets_up_to,
)
from laxtop.laxcomma import (
    ExponentiabilityReport,
    exponentiability_report,
    lax_hom,
)
from laxtop.order import (
    LatticeOps,
    distributivity_report,
    heyting_report,
    lattice_ops,
    lattice_report,
)
from test_descent_reference import reference_pair_lifts
from test_family_coding_reference import (
    fam_morphism_pairs,
    reference_small_fam_morphisms,
    reference_to_fam,
)


class ReferenceLatticeOps:
    """LatticeOps on the symmetric label dicts of the lattice report; the
    position tables are built on first use by a label round trip."""

    def __init__(self, space):
        report = lattice_report(space)
        if not report.is_complete_lattice:
            raise NotACompleteLattice(
                f"natural order of {space!r} is not a complete lattice"
            )
        self.space = space
        self.bottom = report.bottom
        self.top = report.top
        self._meet = report.meets
        self._join = report.joins

    def leq(self, x, y):
        return self.space.leq(x, y)

    def meet(self, x, y):
        return self._meet[(x, y)]

    def join(self, x, y):
        return self._join[(x, y)]

    def meet_of(self, items):
        acc = self.top
        for x in items:
            acc = self._meet[(acc, x)]
        return acc

    def join_of(self, items):
        acc = self.bottom
        for x in items:
            acc = self._join[(acc, x)]
        return acc

    top_index = cached_property(lambda self: self.space.index[self.top])
    bottom_index = cached_property(lambda self: self.space.index[self.bottom])
    meet_index = cached_property(lambda self: self._positions(self._meet))
    join_index = cached_property(lambda self: self._positions(self._join))

    def _positions(self, table) -> tuple:
        index, pts = self.space.index, self.space.points
        return tuple(tuple(index[table[x, y]] for y in pts) for x in pts)


def reference_first_unrecovered(ops, bound, values):
    base = ops.space
    for w in base.points:
        if base.leq(w, bound) and ops.join_of(ops.meet(w, v) for v in values) != w:
            return w
    return None


def reference_fibre_effective(base, ops, fibre_values):
    downs = [[z for z in base.points if base.leq(z, x)] for x in fibre_values]
    Budget("theta candidate").spend(math.prod(len(d) for d in downs))
    for theta in itertools.product(*downs):
        compatible = all(
            ops.meet(fibre_values[k], theta[l]) == ops.meet(theta[k], fibre_values[l])
            for k in range(len(theta))
            for l in range(len(theta))
        )
        if not compatible:
            continue
        big = ops.join_of(theta)
        if any(
            theta[k] != ops.meet(fibre_values[k], big) for k in range(len(theta))
        ):
            return False, theta
    return True, None


def reference_condition_tables(base):
    ops = ReferenceLatticeOps(base)
    value_sets = [
        frozenset(base.points_at(mask)) for mask in range(1 << len(base.points))
    ]
    allw = tuple(
        tuple(reference_first_unrecovered(ops, bound, values) is None for values in value_sets)
        for bound in base.points
    )
    join = tuple(ops.join_of(values) for values in value_sets)
    return allw, join


def reference_fam_descent_check(f):
    base = f.source.base
    report = lattice_report(base)
    if not (report.is_meet_semilattice and report.is_join_semilattice and report.is_complete_lattice):
        raise NotALattice("descent analysis needs a complete lattice base")
    ops = ReferenceLatticeOps(base)
    for j in f.target.index:
        y = f.target.value(j)
        fibre_values = [f.source.value(i) for i in f.fibre(j)]
        for w in base.points:
            if not base.leq(w, y):
                continue
            recovered = ops.join_of(ops.meet(w, x) for x in fibre_values)
            if recovered != w:
                return FamVerdict(False, (j, w))
    return FamVerdict(True, None)


def reference_fam_effective_descent_check(f):
    descent = reference_fam_descent_check(f)
    if not descent:
        return FamVerdict(False, descent.witness)
    base = f.source.base
    is_frame = heyting_report(base).is_heyting
    if is_frame:
        shortcut = FamVerdict(True, None, mode="frame-shortcut")
    ops = ReferenceLatticeOps(base)
    witness = None
    for j in f.target.index:
        fibre_values = [f.source.value(i) for i in f.fibre(j)]
        ok, theta = reference_fibre_effective(base, ops, fibre_values)
        if not ok:
            witness = (j, tuple(zip(f.fibre(j), theta)))
            break
    reconstructed = FamVerdict(witness is None, witness, mode="reconstructed")
    if is_frame:
        if bool(reconstructed) != bool(shortcut):
            raise InternalInconsistency(
                "fibre enumeration contradicts the frame shortcut"
            )
        return shortcut
    return reconstructed


def reference_convergence_descent_check(f):
    base = f.source.base
    report = lattice_report(base)
    if not (report.is_meet_semilattice and report.is_join_semilattice and report.is_complete_lattice):
        raise NotALattice("the all-w condition needs a complete lattice base")
    ops = ReferenceLatticeOps(base)
    tgt = f.target
    value_sets = {
        key: frozenset(f.source.value(a1) for (a1, _) in pairs)
        for key, pairs in reference_pair_lifts(f.underlying).items()
    }
    for b1 in tgt.space.points:
        for b in tgt.space.points:
            if not tgt.space.leq(b1, b):
                continue
            values = value_sets[(b1, b)]
            bound = tgt.value(b1)
            if reference_first_unrecovered(ops, bound, values) is None:
                continue
            for w in base.points:  # recover the smallest witness
                if base.leq(w, bound) and ops.join_of(
                    ops.meet(w, v) for v in values
                ) != w:
                    return ConditionVerdict(False, (b1, b, w))
    return ConditionVerdict(True, None)


def reference_join_condition(f):
    """For each pair b' <= b, the value at b' is the join of the lifted values."""
    ops = ReferenceLatticeOps(f.source.base)
    for (b1, b), pairs in reference_pair_lifts(f.underlying).items():
        if ops.join_of(frozenset(f.source.value(a1) for (a1, _) in pairs)) != f.target.value(b1):
            return ConditionVerdict(False, (b1, b))
    return ConditionVerdict(True, None)


def reference_frame_effective_descent_check(f):
    base = f.source.base
    report = lattice_report(base)
    if not (report.is_meet_semilattice and report.is_join_semilattice and report.is_complete_lattice):
        raise NotALattice("effective-descent analysis needs a complete lattice base")
    pre = ["complete-lattice"]
    if scp_meet_compat_check(base):
        pre.append("meet-compatibility")
    top_eff = top_effective_descent_check(f.underlying)
    if not heyting_report(base).is_heyting:
        allw = reference_convergence_descent_check(f)
        return DescentReport(
            "laxcomma",
            None,
            None,
            witnesses=() if allw.ok else (("all-w", allw.witness),),
            preconditions_checked=tuple(pre),
            notes=("base is not a frame; verdict unknown",
                   f"all-w condition: {allw.ok}"),
        )
    pre.append("frame")
    joins = reference_join_condition(f)
    effective = bool(top_eff.is_effective) and joins.ok
    witnesses = ()
    if not top_eff.is_effective:
        witnesses += tuple(w for w in top_eff.witnesses if w[0] == "chain")
    if not joins.ok:
        witnesses += (("join", joins.witness),)
    return DescentReport(
        "laxcomma",
        True if effective else None,
        effective,
        witnesses=witnesses,
        preconditions_checked=tuple(pre),
    )


def reference_laxcomma_effective_descent(f):
    base = f.source.base
    report = lattice_report(base)
    if not (report.is_meet_semilattice and report.is_join_semilattice and report.is_complete_lattice):
        raise NotALattice("effective-descent analysis needs a complete lattice base")
    if heyting_report(base).is_heyting:
        return reference_frame_effective_descent_check(f)
    pre = ["complete-lattice"]
    if scp_meet_compat_check(base):
        pre.append("meet-compatibility")
    top_eff = top_effective_descent_check(f.underlying)
    if top_eff.is_effective is False:
        return DescentReport(
            "laxcomma", None, False,
            witnesses=top_eff.witnesses,
            preconditions_checked=tuple(pre),
            notes=("underlying map fails 2-chain lifting",),
        )
    fam = reference_to_fam(f)
    fam_desc = reference_fam_descent_check(fam)
    if not fam_desc:
        return DescentReport(
            "laxcomma", None, False,
            witnesses=(("fam-descent", fam_desc.witness),),
            preconditions_checked=tuple(pre),
            notes=("family image fails descent",),
        )
    fam_eff = reference_fam_effective_descent_check(fam)
    allw = reference_convergence_descent_check(f)
    if fam_eff:
        verdict = bool(allw)
        return DescentReport(
            "laxcomma",
            True if verdict else None,
            verdict,
            witnesses=() if allw.ok else (("all-w", allw.witness),),
            preconditions_checked=tuple(pre) + ("fam-effective",),
        )
    return DescentReport(
        "laxcomma", True, None,
        witnesses=() if allw.ok else (("all-w", allw.witness),),
        preconditions_checked=tuple(pre),
        notes=("family image not known effective; no characterization applies",
               f"all-w condition: {allw.ok}"),
    )


def reference_forgetful_preservation_check(f):
    verdict = reference_laxcomma_effective_descent(f)
    details = []
    ok = True
    if verdict.is_effective is True:
        top_eff = top_effective_descent_check(f.underlying)
        fam_desc = reference_fam_descent_check(reference_to_fam(f))
        if top_eff.is_effective is not True:
            ok = False
            details.append(("top-effective", False))
        if not fam_desc:
            ok = False
            details.append(("fam-descent", fam_desc.witness))
    tgt = f.target
    if len(tgt.space.points) == 1 and f.underlying.is_surjective():
        point = tgt.space.points[0]
        expected = ReferenceLatticeOps(f.source.base).join_of(
            frozenset(f.source.value(a) for a in f.source.space.points),
        )
        is_regular_epi = tgt.value(point) == expected
        details.append(("regular-epi-to-point", is_regular_epi))
    return ForgetfulReport(ok, tuple(details))


def reference_cd_filtration_descent_check(f):
    base = f.source.base
    dist = distributivity_report(base)
    if not dist.is_completely_distributive:
        raise NotCompletelyDistributive("filtration criterion needs complete distributivity")
    totally_below = dist.totally_below_table
    src, tgt = f.source, f.target
    top_eff = top_effective_descent_check(f.underlying)
    witness = None
    if top_eff.is_effective:
        lifts = reference_pair_lifts(f.underlying)
        for u in base.points:
            below = [v for (v, uu) in totally_below if uu == u]
            b_level = [b for b in tgt.space.points if base.leq(u, tgt.value(b))]
            for b1 in b_level:
                for b in b_level:
                    if not tgt.space.leq(b1, b):
                        continue
                    for v in below:
                        if not any(
                            base.leq(v, src.value(a1)) and base.leq(v, src.value(a))
                            for (a1, a) in lifts[(b1, b)]
                        ):
                            witness = (u, v, b1, b)
                            break
                    if witness:
                        break
                if witness:
                    break
            if witness:
                break
        effective = witness is None
    else:
        effective = False
        witness = next(w[1] for w in top_eff.witnesses if w[0] == "chain")
    report = DescentReport(
        "laxcomma",
        True if effective else None,
        effective,
        witnesses=() if witness is None else (("filtration", witness),),
        preconditions_checked=("completely-distributive",),
    )
    frame = reference_frame_effective_descent_check(f)
    if frame.is_effective is not None and frame.is_effective != effective:
        raise InternalInconsistency(
            "filtration criterion disagrees with the frame characterization"
        )
    return report


def reference_sufficient_only_report(obj, report):
    base = obj.base
    meet = dict()
    for ((x, y), z) in report.meet_table:
        meet[(x, y)] = z
        meet[(y, x)] = z
    if not report.has_top:
        return ExponentiabilityReport(None, "sufficient-only", None, 0)
    for a in obj.space.points:
        x = obj.value(a)
        for y in base.points:
            candidates = [z for z in base.points if base.leq(meet[(x, z)], y)]
            if not any(all(base.leq(w, z) for w in candidates) for z in candidates):
                return ExponentiabilityReport(None, "sufficient-only", (a, y), 0)
    return ExponentiabilityReport(True, "sufficient-only", None, 0)


def reference_subsets_sorted(points):  # laxcomma's, and order's _all_subsets
    for r in range(len(points) + 1):
        for combo in itertools.combinations(points, r):
            yield combo


def reference_nonempty_subsets(items):  # order's
    items = sorted(items)
    for r in range(1, len(items) + 1):
        for combo in itertools.combinations(items, r):
            yield combo


def reference_mask_subsets(items):  # finspace's
    items = list(items)
    for mask in range(1 << len(items)):
        yield [items[i] for i in range(len(items)) if mask >> i & 1]


def reference_exponentiability_witness(obj):
    """The (a, family) the join-preservation search stops at, or None."""
    ops = lattice_ops(obj.base)
    witness = None
    for a in obj.space.points:
        x = obj.value(a)
        for s in reference_subsets_sorted(obj.base.points):
            joined = ops.join_of(s)
            distributed = ops.join_of(ops.meet(x, e) for e in s)
            if ops.meet(x, joined) != distributed:
                witness = (a, s)
                break
        if witness is not None:
            break
    return witness


def _outcome(check, *args):
    try:
        return check(*args)
    except LaxtopError as exc:
        return type(exc), str(exc)


def _lax_morphisms(base, carriers):
    objs = lax_objects_over(base, carriers)
    return [m for src in objs for tgt in objs for m in lax_hom(src, tgt)]


# every lattice base of at most 4 points is a frame; M3 reaches the
# non-frame branch of both lax-comma verdicts
@pytest.mark.parametrize("base", lattice_bases(4) + (spaces.m3(),), ids=repr)
def test_lax_comma_verdicts_match_the_reference(base):
    pairs = [
        (laxcomma_effective_descent, reference_laxcomma_effective_descent),
        (frame_effective_descent_check, reference_frame_effective_descent_check),
        (convergence_descent_check, reference_convergence_descent_check),
        (_join_condition, reference_join_condition),
        (forgetful_preservation_check, reference_forgetful_preservation_check),
    ]
    if distributivity_report(base).is_completely_distributive:
        pairs.append((cd_filtration_descent_check, reference_cd_filtration_descent_check))
    refuted = dict.fromkeys([check.__name__ for check, _ in pairs], 0)
    for m in _lax_morphisms(base, posets_up_to(2)):
        for check, reference in pairs:
            got = _outcome(check, m)
            assert got == _outcome(reference, m), (check.__name__, m)
            verdict = getattr(got, "is_effective", getattr(got, "ok", None))
            refuted[check.__name__] += verdict is False
    # refutations, and so their witnesses, occur wherever the base has room
    assert refuted["laxcomma_effective_descent"] > 0
    assert refuted["convergence_descent_check"] > 0 or len(base.points) == 1


@pytest.mark.parametrize("base", lattice_bases(3) + (spaces.m3(),), ids=repr)
def test_fam_descent_matches_the_reference(base):
    refuted = 0
    pairs = zip(_small_fam_morphisms(base, 2), reference_small_fam_morphisms(base, 2), strict=True)
    for f, ref in pairs:
        got = fam_descent_check(f)
        assert got == reference_fam_descent_check(ref), f
        refuted += got.verdict is False
    assert refuted > 0 or len(base.points) == 1


def test_fam_descent_refuses_a_base_that_is_not_a_complete_lattice():
    for base in posets_up_to(3):
        if not lattice_report(base).is_complete_lattice:
            new, ref = _small_fam_morphisms(base, 1), reference_small_fam_morphisms(base, 1)
            for f, ref in zip(new, ref, strict=True):
                got = _outcome(fam_descent_check, f)
                assert got == _outcome(reference_fam_descent_check, ref)
                assert got[0] is NotALattice


MEET_SEMILATTICES = tuple(
    s for s in posets_up_to(4) if lattice_report(s).is_meet_semilattice
)


@pytest.mark.parametrize("base", MEET_SEMILATTICES, ids=repr)
def test_exponentiability_matches_the_reference(base):
    report = lattice_report(base)
    for obj in lax_objects_over(base, posets_up_to(2)):
        got = exponentiability_report(obj)
        if not report.is_complete_lattice:
            assert got == reference_sufficient_only_report(obj, report), obj
        else:
            assert got.mode == "definitive"
            witness = reference_exponentiability_witness(obj)
            checked = 1 if witness else sum(
                math.comb(len(base.points) + n - 1, n) for n in range(4)
            )
            assert got == ExponentiabilityReport(
                witness is None, "definitive", witness, checked
            ), obj


def test_subsets_match_every_generator_they_replace():
    for n in range(7):
        items = [f"x{i}" for i in reversed(range(n))]
        got = list(subsets(items))
        assert got == list(reference_subsets_sorted(items))
        as_sets = {frozenset(s) for s in got}
        assert len(as_sets) == len(got) == 2 ** n
        assert as_sets - {frozenset()} == {
            frozenset(s) for s in reference_nonempty_subsets(items)
        }
        assert as_sets == {frozenset(s) for s in reference_mask_subsets(items)}


# -- the lattice arithmetic on positions --------------------------------------


N5 = build_space(
    ["0", "a", "b", "c", "1"],
    order=[("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")],
    name="N5",
)
TABLE_BASES = lattice_bases(5) + (spaces.m3(), N5, spaces.div12(), spaces.sierpinski())
NON_FRAMES = (spaces.m3(), N5)


def _value_or_error(fn, *args):
    try:
        return fn(*args)
    except KeyError:
        return KeyError


@pytest.mark.parametrize("base", TABLE_BASES, ids=repr)
def test_lattice_ops_tables_equal_the_label_round_trip(base):
    ops, ref = LatticeOps(base), ReferenceLatticeOps(base)
    assert sorted(vars(ops)) == [  # the tables, the space and the two labels
        "bottom", "bottom_index", "join_index", "meet_index", "space", "top", "top_index",
    ]
    for name in ("meet_index", "join_index", "top_index", "bottom_index", "top", "bottom"):
        assert getattr(ops, name) == getattr(ref, name), name
    labels = base.points + ("zz",)  # a label outside the space raises KeyError in both
    for x, y in itertools.product(labels, repeat=2):
        assert _value_or_error(ops.meet, x, y) == _value_or_error(ref.meet, x, y)
        assert _value_or_error(ops.join, x, y) == _value_or_error(ref.join, x, y)
    for family in subsets(base.points):
        for items in (family, family[::-1]):
            assert ops.meet_of(iter(items)) == ref.meet_of(iter(items))
            assert ops.join_of(iter(items)) == ref.join_of(iter(items))


def test_lattice_ops_refuse_what_the_label_coded_ops_refuse():
    not_t0 = build_space(["a", "b"], order=[("a", "b"), ("b", "a")])
    refused = 0
    for space in posets_up_to(3) + (not_t0,):
        if space.is_t0() and lattice_report(space).is_complete_lattice:
            continue
        got = _outcome(LatticeOps, space)
        assert got == _outcome(ReferenceLatticeOps, space)
        refused += got[0] is NotACompleteLattice
    assert refused == 5


@pytest.mark.parametrize("base", TABLE_BASES, ids=repr)
def test_condition_tables_and_first_unrecovered_match_the_label_coded_ones(base):
    allw, join = condition_tables(base)
    want_allw, want_join = reference_condition_tables(base)
    assert allw == want_allw
    assert tuple(base.points[j] for j in join) == want_join
    ops, ref = lattice_ops(base), ReferenceLatticeOps(base)
    for i, bound in enumerate(base.points):
        for mask in range(1 << len(base.points)):
            w = first_unrecovered(ops, i, mask)
            want = reference_first_unrecovered(ref, bound, base.points_at(mask))
            assert (None if w is None else base.points[w]) == want, (bound, mask)


@pytest.mark.parametrize("base", lattice_bases(4) + NON_FRAMES, ids=repr)
def test_fibre_effective_matches_the_label_coded_search(base, monkeypatch):
    monkeypatch.setattr(famx, "Budget", _Charges)
    monkeypatch.setitem(globals(), "Budget", _Charges)
    ops, ref = lattice_ops(base), ReferenceLatticeOps(base)
    outcomes = set()
    for size in range(1, 4):
        for fibre in itertools.product(range(len(base.points)), repeat=size):
            ok, theta = _charged(famx._fibre_effective, ops, list(fibre))[0]
            got = ok, None if theta is None else tuple(base.points[t] for t in theta)
            labels = [base.points[x] for x in fibre]
            want = _charged(reference_fibre_effective, base, ref, labels)
            assert (got, _Charges.log) == want, labels
            outcomes.add(ok)
    # over a frame every compatible family glues
    assert outcomes == ({True, False} if base in NON_FRAMES else {True})


class _Charges(Budget):
    """A budget that logs every charge, in order."""

    log = []

    def spend(self, n=1):
        _Charges.log.append((self.search, n))
        super().spend(n)


def _charged(check, *args):
    _Charges.log = []
    return _outcome(check, *args), _Charges.log


@pytest.mark.parametrize("cap", [None, "8"])
@pytest.mark.parametrize("base", lattice_bases(4) + NON_FRAMES, ids=repr)
def test_family_checks_match_the_label_coded_checks(base, cap, monkeypatch):
    monkeypatch.setattr(famx, "Budget", _Charges)
    monkeypatch.setitem(globals(), "Budget", _Charges)
    if cap:
        monkeypatch.setenv("LAXTOP_CAP", cap)  # stops the larger theta searches
    kinds = set()
    for f, ref in fam_morphism_pairs(base, 3, 2):
        for check, reference in (
            (fam_descent_check, reference_fam_descent_check),
            (fam_effective_descent_check, reference_fam_effective_descent_check),
        ):
            got = _charged(check, f)
            assert got == _charged(reference, ref), (check.__name__, f)
            verdict = got[0]
            kinds.add((verdict.mode, verdict.verdict) if isinstance(verdict, FamVerdict) else verdict[0])
    if len(base.points) > 1:
        assert ("definitive", False) in kinds  # refuted by descent
    if cap and len(base.points) > 2:
        assert CapExceeded in kinds
    elif base in NON_FRAMES:
        assert ("reconstructed", False) in kinds
    elif len(base.points) > 1:
        assert ("frame-shortcut", True) in kinds
