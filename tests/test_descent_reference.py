"""The descent sweep's fast paths against the loops they replaced.

The reference functions below are the implementations that the map lookup
and the sweep rewrite replaced, kept verbatim in behaviour: lifted pairs
bucketed by scanning every source pair for every target pair, effective
descent tested by comparing every target 2-chain with every source 2-chain,
every alpha listed and filtered against beta . f point by point, and the
all-w / join comparison building every lifted value set before the fibre
test.  Each fast path must give the same dicts, verdicts, witnesses and
triples, in the same order; the sweep reads the all-w and join conditions
from per-base tables, so its cache traffic is one lookup per table cell;
the references read the all-w and join conditions on labels, through
``reference_all_w_ok`` and ``reference_join``, and touch no condition cache.
``_pair_lifts`` keeps only the lower ends of the lifted pairs, as position
masks, so its output is compared with ``lower_ends`` of the reference.
``previous_allw_join_coherence`` is the sweep that filtered every triple of
``_lax_triples`` before the per-fibre alpha sets replaced it, and read the
all-w and join conditions alpha by alpha before the per-row pass tables
did; the current sweep must list the same discrepancies, in the same order
and with the same two verdicts, also when the join table is tampered with
so that discrepancies occur, and on carriers that are not T0.
``previous_top_descent_check`` and ``previous_top_effective_descent_check``
are the checks that read `_pair_lifts` and the images of source up-sets
before one position-mask test decided both; their reports must be equal.
"""

from functools import lru_cache

import pytest

from laxtop import descent, harness, spaces
from laxtop.descent import (
    DescentReport,
    _all_w_ok,
    _join_cached,
    _pair_lifts,
    condition_tables,
    top_descent_check,
    top_effective_descent_check,
)
from laxtop.enumeration import canonical_form, enumerate_labeled_preorders
from laxtop.finspace import _union, build_space, enumerate_cmaps
from laxtop.harness import (
    _lax_triples,
    _ValueMasks,
    allw_join_coherence,
    frame_bases,
    lattice_bases,
    posets_up_to,
    sierpinski_specialization,
)
from laxtop.order import heyting_report, lattice_ops


@lru_cache(maxsize=None)
def reference_all_w_ok(base, bound, values):
    """The all-w condition on labels: every w <= bound is the join of its
    meets with the values."""
    ops = lattice_ops(base)
    return all(
        ops.join_of(ops.meet(w, v) for v in values) == w
        for w in base.points
        if base.leq(w, bound)
    )


def reference_join(base, values):
    return lattice_ops(base).join_of(values)


def reference_pair_lifts(f):
    out = {}
    src, tgt = f.source, f.target
    pairs = [(a1, a) for a1 in src.points for a in src.points if src.leq(a1, a)]
    for b1 in tgt.points:
        for b in tgt.points:
            if tgt.leq(b1, b):
                out[(b1, b)] = [
                    (a1, a) for (a1, a) in pairs if f(a1) == b1 and f(a) == b
                ]
    return out


def lower_ends(f, lifts):
    """Label-keyed lifted pairs as _pair_lifts codes them: target position
    pairs, each with the mask of the source positions at the lower ends."""
    src, tgt = f.source.index, f.target.index
    return {
        (tgt[b1], tgt[b]): sum({1 << src[a1] for (a1, _) in pairs})
        for (b1, b), pairs in lifts.items()
    }


def reference_top_effective_descent_check(f):
    descent = top_descent_check(f)
    src, tgt = f.source, f.target
    chains = [
        (a0, a1, a2)
        for a0 in src.points
        for a1 in src.points
        if src.leq(a0, a1)
        for a2 in src.points
        if src.leq(a1, a2)
    ]
    for b0 in tgt.points:
        for b1 in tgt.points:
            if not tgt.leq(b0, b1):
                continue
            for b2 in tgt.points:
                if not tgt.leq(b1, b2):
                    continue
                if not any(
                    f(a0) == b0 and f(a1) == b1 and f(a2) == b2
                    for (a0, a1, a2) in chains
                ):
                    return DescentReport(
                        "top",
                        descent.is_descent,
                        False,
                        witnesses=descent.witnesses + (("chain", (b0, b1, b2)),),
                    )
    return DescentReport("top", descent.is_descent, True, witnesses=descent.witnesses)


def previous_top_descent_check(f):
    """`top_descent_check` before the position-mask test: the first pair of
    `_pair_lifts` with no lower end."""
    for (j1, j), lifted in _pair_lifts(f).items():
        if not lifted:
            pts = f.target.points
            return DescentReport("top", False, None, witnesses=(("pair", (pts[j1], pts[j])),))
    return DescentReport("top", True, None)


def previous_top_effective_descent_check(f):
    """`top_effective_descent_check` before the position-mask test: per
    (b0, b1), the target points b2 >= b1 outside the image of the up-sets of
    the points over b1 above a point over b0."""
    descent = previous_top_descent_check(f)
    image, src_up, tgt_up = f.positions, f.source.up_masks, f.target.up_masks
    bits, fibre = [1 << j for j in image], f.fibres
    reach = [_union(bits, up) for up in src_up]  # the image of each source up-set
    for b0, row in enumerate(tgt_up):
        above = _union(src_up, fibre[b0])  # every source point above a point over b0
        for b1, b1_up in enumerate(tgt_up):
            if row >> b1 & 1:
                missing = b1_up & ~_union(reach, above & fibre[b1])
                if missing:
                    pts = f.target.points
                    chain = (pts[b0], pts[b1], pts[(missing & -missing).bit_length() - 1])
                    return DescentReport(
                        "top",
                        descent.is_descent,
                        False,
                        witnesses=descent.witnesses + (("chain", chain),),
                    )
    return DescentReport("top", descent.is_descent, True, witnesses=descent.witnesses)


def reference_lax_triples(base, carriers):
    for a_sp in carriers:
        for b_sp in carriers:
            for f in enumerate_cmaps(a_sp, b_sp):
                lifts = reference_pair_lifts(f)
                for beta in enumerate_cmaps(b_sp, base):
                    for alpha in enumerate_cmaps(a_sp, base):
                        if all(
                            base.leq(alpha(a), beta(f(a))) for a in a_sp.points
                        ):
                            yield f, alpha, beta, lifts


def reference_allw_join_coherence(base, carriers):
    checked = 0
    discrepancies = []
    for f, alpha, beta, lifts in reference_lax_triples(base, carriers):
        value_sets = {
            key: frozenset(alpha(a1) for (a1, _) in pairs)
            for key, pairs in lifts.items()
        }
        fam_ok = all(
            reference_all_w_ok(base, beta(b), frozenset(
                alpha(a) for a in alpha.source.points if f(a) == b
            ))
            for b in beta.source.points
        )
        if not fam_ok:
            continue
        allw = all(
            reference_all_w_ok(base, beta(b1), value_sets[(b1, b)])
            for (b1, b) in value_sets
        )
        join = all(
            reference_join(base, value_sets[(b1, b)]) == beta(b1)
            for (b1, b) in value_sets
        )
        checked += 1
        if allw != join:
            discrepancies.append((f, alpha, beta, allw, join))
    return checked, discrepancies


def previous_allw_join_coherence(base, carriers):
    """The sweep over every lax triple: family descent read fibre by fibre
    for each alpha, then the all-w and join conditions of the lifted pairs."""
    allw, join = condition_tables(base)
    codes = _ValueMasks()
    checked = 0
    discrepancies = []
    last_f = last_beta = None
    for f, alpha, beta, lifts in _lax_triples(base, carriers):
        if f is not last_f or beta is not last_beta:
            if f is not last_f:
                last_f = f
                fibres = list(f.fibres)
                lifted = [(j1, lower) for (j1, _), lower in lifts.items()]
            last_beta = beta
            bounds = beta.positions
            rows = [allw[i] for i in bounds]
            fibre_rows = list(zip(rows, fibres))
        values = codes[alpha.positions]
        for row, fibre in fibre_rows:
            if not row[values[fibre]]:
                break
        else:
            allw_ok = all(rows[j][values[over]] for j, over in lifted)
            join_ok = all(join[values[over]] == bounds[j] for j, over in lifted)
            checked += 1
            if allw_ok != join_ok:
                discrepancies.append((f, alpha, beta, allw_ok, join_ok))
    return checked, discrepancies


def _all_maps(universe):
    return [f for src in universe for tgt in universe for f in enumerate_cmaps(src, tgt)]


@lru_cache(maxsize=None)
def _preorder_classes(n):
    """One carrier per preorder class on at most n points, from
    `canonical_form`; those that are not T0 have fibres holding equivalent
    points, which no poset carrier has."""
    classes = {}
    for k in range(1, n + 1):
        for s in enumerate_labeled_preorders(k):
            canonical = canonical_form(s)
            classes.setdefault(canonical.up_masks, canonical)
    return tuple(classes.values())


def test_pair_lifts_match_the_reference_on_every_map():
    maps = _all_maps(posets_up_to(4))
    assert len(maps) == 19702
    for f in maps:
        # dict equality ignores order, so compare the items in order
        want = lower_ends(f, reference_pair_lifts(f))
        assert list(_pair_lifts(f).items()) == list(want.items()), f


def test_effective_descent_verdicts_and_witnesses_match_the_reference():
    refuted = 0
    for f in _all_maps(posets_up_to(4)):
        report = top_effective_descent_check(f)
        assert report == reference_top_effective_descent_check(f), f
        refuted += report.is_effective is False
    assert 0 < refuted < 19702  # both verdicts, and so chain witnesses, occur


@pytest.mark.parametrize(
    "universe, count",
    [(posets_up_to, 19702), (_preorder_classes, 87389)],
    ids=["posets", "preorders"],
)
def test_descent_reports_match_the_previous_checks(universe, count):
    maps = _all_maps(universe(4))
    assert len(maps) == count
    pairs = chains = 0
    for f in maps:
        descent = top_descent_check(f)
        effective = top_effective_descent_check(f)
        assert descent == previous_top_descent_check(f), f
        assert effective == previous_top_effective_descent_check(f), f
        pairs += descent.is_descent is False
        chains += effective.is_effective is False
    assert 0 < pairs < chains < count  # every kind of witness occurs


def test_effective_maps_between_preorders_are_descent_maps():
    carriers = _preorder_classes(4)
    assert (len(carriers), sum(not s.is_t0() for s in carriers)) == (46, 22)
    reports = [top_effective_descent_check(f) for f in _all_maps(carriers)]
    effective = [r for r in reports if r.is_effective]
    assert (len(reports), len(effective)) == (87389, 930)
    assert [r for r in effective if not r.is_descent] == []


@pytest.mark.parametrize("base", frame_bases(4), ids=repr)
def test_lax_triples_match_the_reference_in_order(base):
    carriers = posets_up_to(3)
    fast = list(_lax_triples(base, carriers))
    slow = list(reference_lax_triples(base, carriers))
    assert len(fast) == len(slow)
    for got, want in zip(fast, slow):
        assert got[:3] == want[:3]
        assert list(got[3].items()) == list(lower_ends(want[0], want[3]).items())


def _lookups(cached):
    info = cached.cache_info()
    return info.hits + info.misses


# the two lattices on 5 points that are not frames, N5 and M3, in that order
NON_FRAMES = tuple(b for b in lattice_bases(5) if not heyting_report(b).is_heyting)


@pytest.mark.parametrize(
    "base, carrier_points",
    [
        pytest.param(spaces.chain(3), 3, id=repr(spaces.chain(3))),
        pytest.param(spaces.diamond(), 3, id=repr(spaces.diamond())),
        pytest.param(NON_FRAMES[0], 2, id="N5"),
        pytest.param(NON_FRAMES[1], 2, id="M3"),
    ],
)
def test_allw_join_coherence_matches_the_reference_and_its_cache_traffic(
    base, carrier_points
):
    carriers = posets_up_to(carrier_points)
    counts = []
    results = []
    for coherence in (allw_join_coherence, reference_allw_join_coherence):
        before = _lookups(_all_w_ok), _lookups(_join_cached)
        results.append(coherence(base, carriers))
        counts.append((_lookups(_all_w_ok) - before[0], _lookups(_join_cached) - before[1]))
    assert results[0] == results[1]
    # the fast path looks each condition up once per table cell it fills
    n = len(base.points)
    assert counts[0] == (n * 2**n, 2**n)
    assert results[0][0] > 0


@pytest.mark.parametrize(
    "base, universe",
    [pytest.param(b, posets_up_to, id=repr(b)) for b in lattice_bases(4)]
    + [pytest.param(b, posets_up_to, id=name) for b, name in zip(NON_FRAMES, ("N5", "M3"))]
    + [pytest.param(b, _preorder_classes, id=f"preorders-{b!r}") for b in frame_bases(4)],
)
def test_allw_join_coherence_matches_the_previous_sweep_in_order(base, universe):
    carriers = universe(3)
    got = allw_join_coherence(base, carriers)
    assert got == previous_allw_join_coherence(base, carriers)
    assert got[0] > 0


def _flipped_tables(base):
    """The condition tables with the join of every third value mask (those
    of residue 1) moved to the next position, so that the sweep finds
    discrepancies of both kinds."""
    allw, join = descent.condition_tables(base)
    n = len(base.points)
    return allw, tuple((j + 1) % n if mask % 3 == 1 else j for mask, j in enumerate(join))


# the 1-point frame is left out: its join table has nothing to move
@pytest.mark.parametrize("base", frame_bases(4)[1:], ids=repr)
def test_allw_join_coherence_lists_discrepancies_as_the_previous_sweep(base, monkeypatch):
    monkeypatch.setattr(harness, "condition_tables", _flipped_tables)
    monkeypatch.setitem(globals(), "condition_tables", _flipped_tables)
    carriers = posets_up_to(3)
    checked, found = allw_join_coherence(base, carriers)
    assert (checked, found) == previous_allw_join_coherence(base, carriers)
    assert {d[3:] for d in found} == {(True, False), (False, True)}


def test_allw_join_coherence_counts_on_the_non_frames():
    carriers = posets_up_to(3)
    assert [allw_join_coherence(b, carriers) for b in NON_FRAMES] == [(17024, []), (14378, [])]


def test_the_sweeps_count_the_same_on_preorder_carriers():
    carriers = _preorder_classes(3)
    assert (len(carriers), sum(not s.is_t0() for s in carriers)) == (13, 5)
    sweeps = [allw_join_coherence(base, carriers) for base in frame_bases(4)]
    assert sum(checked for checked, _ in sweeps) == 44144
    assert [found for _, found in sweeps] == [[]] * len(sweeps)
    assert sierpinski_specialization(carriers) == (15124, [])


def test_the_non_frames_are_n5_and_m3():
    n5 = build_space(
        ["0", "a", "b", "c", "1"],
        order=[("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")],
    )
    assert [canonical_form(b) for b in NON_FRAMES] == [
        canonical_form(n5),
        canonical_form(spaces.m3()),
    ]


def test_sierpinski_specialization_matches_the_reference():
    base = spaces.sierpinski()
    carriers = posets_up_to(3)
    checked = 0
    discrepancies = []
    for f, alpha, beta, lifts in reference_lax_triples(base, carriers):
        chains_ok = reference_top_effective_descent_check(f).is_effective
        join_ok = all(
            reference_join(base, frozenset(alpha(a1) for (a1, _) in pairs)) == beta(b1)
            for ((b1, _), pairs) in lifts.items()
        )
        a0 = [a for a in alpha.source.points if alpha(a) == "1"]
        b0 = [b for b in beta.source.points if beta(b) == "1"]
        closed_lift = all(
            any(a1 in a0 and a in a0 for (a1, a) in lifts[(b1, b)])
            for b1 in b0
            for b in b0
            if beta.source.leq(b1, b)
        )
        checked += 1
        if (bool(chains_ok) and join_ok) != (bool(chains_ok) and closed_lift):
            discrepancies.append((f, alpha, beta))
    assert sierpinski_specialization(carriers) == (checked, discrepancies)
