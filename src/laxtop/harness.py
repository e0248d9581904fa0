"""Property-verification suites executed by the `paper-check` command.

Each suite sweeps a small exhaustive universe (posets, lattices, lax
objects, morphisms) and checks one family of identities or equivalences.
Suites return pass/fail tallies with the lexicographically first witnesses;
they never abort each other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import LaxtopError, MeetsMissing, SchemaError
from .finspace import (
    CMap,
    _monotone_tables,
    build_space,
    enumerate_cmaps,
    induced_space,
    is_continuous,
    product_space,
    sober_report,
    sum_space,
    t0_report,
    is_quotient_map,
)
from .order import (
    distributivity_report,
    heyting_report,
    lattice_ops,
    lattice_report,
    order_to_space,
)
from .laxcomma import (
    exponential_object,
    exponentiability_report,
    function_label,
    lan_extension,
    lax_hom,
    lax_object,
    lax_objects_over,
    lax_product,
    lax_pullback,
    lax_sum,
)
from .famx import (
    FamMorphism,
    fam_descent_check,
    fam_effective_descent_check,
    fam_morphism,
    fam_object,
    fam_pullback,
    to_fam,
)
from .vietoris import vietoris_algebra_check, vietoris_space
from .descent import (
    _frame_verdict,
    _lattice_preamble,
    _lifting,
    _pair_lifts,
    condition_tables,
    scp_meet_compat_check,
)
from .enumeration import (
    dedup_by_isomorphism,
    enumerate_labeled_posets,
    enumerate_labeled_preorders,
    enumerate_posets,
)
from . import spaces


@dataclass(frozen=True)
class HarnessConfig:
    max_points: int = 4
    seed: int = 0  # echoed in the report; every suite is exhaustive, so none reads it
    suites: tuple = ()  # empty: run everything

    def __post_init__(self):
        if self.max_points < 1:
            raise SchemaError(f"max_points must be at least 1, not {self.max_points}")


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failed: int = 0
    witnesses: tuple = ()
    notes: tuple = ()

    @property
    def ok(self):
        return self.failed == 0


_WITNESS_LIMIT = 5


class Tally:
    def __init__(self, name):
        self.name = name
        self.passed = 0
        self.failed = 0
        self.witnesses = []
        self.notes = []

    def check(self, ok, witness=None):
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.witnesses) < _WITNESS_LIMIT:
                self.witnesses.append(witness)

    def result(self):
        return SuiteResult(
            self.name,
            self.passed,
            self.failed,
            tuple(repr(w) for w in self.witnesses),
            tuple(self.notes),
        )


# -- universes ---------------------------------------------------------------


@lru_cache(maxsize=None)
def posets_up_to(n: int):
    out = []
    for k in range(1, n + 1):
        out.extend(enumerate_posets(k))
    return tuple(out)


@lru_cache(maxsize=None)
def lattice_bases(n: int):
    return tuple(
        s for s in posets_up_to(n) if lattice_report(s).is_complete_lattice
    )


@lru_cache(maxsize=None)
def frame_bases(n: int):
    return tuple(s for s in lattice_bases(n) if heyting_report(s).is_heyting)


# -- suites ------------------------------------------------------------------


def suite_space_order_roundtrip(cfg):
    t = Tally("space-order-roundtrip")
    universe = posets_up_to(cfg.max_points) + enumerate_labeled_preorders(
        min(cfg.max_points, 3)
    )
    for s in universe:
        rebuilt = build_space(s.points, opens=s.open_sets())
        t.check(rebuilt.le == s.le, s)
    return t.result()


def suite_continuity_open_preimage(cfg):
    t = Tally("continuity-open-preimage")
    universe = posets_up_to(min(cfg.max_points, 3)) + enumerate_labeled_preorders(2)
    for src in universe:
        for tgt in universe:
            opens_t = tgt.open_sets()
            for values in itertools.product(tgt.points, repeat=len(src.points)):
                table = dict(zip(src.points, values))
                preimages_open = all(
                    src.is_down_closed(
                        [p for p in src.points if table[p] in o]
                    )
                    for o in opens_t
                )
                t.check(
                    preimages_open == is_continuous(table, src, tgt),
                    (src, tgt, table),
                )
    return t.result()


def suite_finite_sober(cfg):
    t = Tally("finite-sober")
    for s in posets_up_to(cfg.max_points):
        t.check(sober_report(s).is_sober, s)
    return t.result()


def suite_t0_reflection(cfg):
    t = Tally("t0-reflection")
    universe = enumerate_labeled_preorders(min(cfg.max_points, 3)) + posets_up_to(
        cfg.max_points
    )
    for s in universe:
        rep = t0_report(s)
        t.check(
            rep.reflection.is_t0() and is_quotient_map(rep.eta),
            s,
        )
    return t.result()


def suite_product_sum_universality(cfg):
    t = Tally("product-sum-universality")
    small = posets_up_to(2)
    for a in small:
        for b in small:
            prod = product_space([a, b])
            p1, p2 = prod.maps
            total = sum_space([a, b])
            i1, i2 = total.maps
            for c in small:
                # product: cones (t1, t2) correspond to maps into the product
                cones = [
                    (t1, t2)
                    for t1 in enumerate_cmaps(c, a)
                    for t2 in enumerate_cmaps(c, b)
                ]
                mediators = list(enumerate_cmaps(c, prod.space))
                for (t1, t2) in cones:
                    fits = [
                        m
                        for m in mediators
                        if p1.compose(m) == t1 and p2.compose(m) == t2
                    ]
                    t.check(len(fits) == 1, ("product", a, b, c, t1, t2))
                # sum: cocones correspond to maps out of the sum
                for (u1, u2) in itertools.product(
                    enumerate_cmaps(a, c), enumerate_cmaps(b, c)
                ):
                    fits = [
                        m
                        for m in enumerate_cmaps(total.space, c)
                        if m.compose(i1) == u1 and m.compose(i2) == u2
                    ]
                    t.check(len(fits) == 1, ("sum", a, b, c, u1, u2))
    return t.result()


def suite_three_topologies(cfg):
    t = Tally("three-topologies")
    for s in posets_up_to(cfg.max_points):
        built = {
            kind: order_to_space(s, kind)
            for kind in ("lower", "scott", "alexandroff")
        }
        same = (
            set(built["lower"].open_sets())
            == set(built["scott"].open_sets())
            == set(built["alexandroff"].open_sets())
        )
        t.check(same, s)
    return t.result()


def suite_heyting_adjunction(cfg):
    t = Tally("heyting-adjunction")
    for s in lattice_bases(cfg.max_points) + (spaces.m3(), spaces.div12()):
        hey = heyting_report(s)
        imp = dict(hey.implication_table)
        ops = lattice_ops(s)
        for x in s.points:
            for y in s.points:
                if (x, y) not in imp:
                    continue
                for z in s.points:
                    t.check(
                        s.leq(ops.meet(x, z), y) == s.leq(z, imp[(x, y)]),
                        (s, x, y, z),
                    )
    return t.result()


def _is_distributive(s):
    ops = lattice_ops(s)
    return all(
        ops.meet(x, ops.join(y, z)) == ops.join(ops.meet(x, y), ops.meet(x, z))
        for x in s.points
        for y in s.points
        for z in s.points
    )


def suite_lattice_equivalences(cfg):
    t = Tally("lattice-equivalences")
    extra = (spaces.m3(), spaces.div12()) if cfg.max_points < 6 else ()
    for s in lattice_bases(cfg.max_points) + extra:
        rep = distributivity_report(s)
        distributive = _is_distributive(s)
        agree = (
            rep.is_frame
            == heyting_report(s).is_heyting
            == rep.is_completely_distributive
            == distributive
        )
        t.check(agree, ("equivalences", s))
        t.check(rep.is_continuous_lattice and rep.is_op_continuous_lattice, ("continuity", s))
    return t.result()


def suite_lower_adjoint_continuity(cfg):
    t = Tally("lower-adjoint-continuity")
    bases = [s for s in lattice_bases(min(cfg.max_points, 3))]
    for x_ord in bases:
        x_sp = order_to_space(x_ord, "lower")
        for y_ord in bases:
            y_sp = order_to_space(y_ord, "lower")
            for g in enumerate_cmaps(y_sp, x_sp):
                # g has a left adjoint iff every point has a least preimage bound
                has_adjoint = all(
                    any(
                        x_sp.leq(a, g(b))
                        and all(
                            y_sp.leq(b, b2)
                            for b2 in y_sp.points
                            if x_sp.leq(a, g(b2))
                        )
                        for b in y_sp.points
                    )
                    for a in x_sp.points
                )
                if has_adjoint:
                    t.check(
                        is_continuous(g.image, y_sp, x_sp), (x_sp, y_sp, g)
                    )
    return t.result()


def suite_exponential_underlying(cfg):
    t = Tally("exponential-underlying")
    base = spaces.chain(3)
    carriers = posets_up_to(2)
    objs = lax_objects_over(base, carriers)
    for a_obj in objs:
        for b_obj in objs:
            expo = exponential_object(a_obj, b_obj)
            # rebuild the monotone-map poset from raw tables
            tables = [
                dict(zip(a_obj.space.points, vals))
                for vals in itertools.product(
                    b_obj.space.points, repeat=len(a_obj.space.points)
                )
                if all(
                    b_obj.space.leq(
                        dict(zip(a_obj.space.points, vals))[x],
                        dict(zip(a_obj.space.points, vals))[y],
                    )
                    for (x, y) in a_obj.space.le
                )
            ]
            by_label = {function_label(tab.items()): tab for tab in tables}
            labels = set(by_label)
            ok = labels == set(expo.obj.space.points)
            if ok:
                for la, lb in itertools.product(labels, repeat=2):
                    expected = all(
                        b_obj.space.leq(by_label[la][p], by_label[lb][p])
                        for p in a_obj.space.points
                    )
                    if expected != expo.obj.space.leq(la, lb):
                        ok = False
                        break
            t.check(ok, (a_obj, b_obj))
    return t.result()


def _lan_instances(cfg, bases):
    carriers = posets_up_to(2)
    targets = posets_up_to(min(cfg.max_points, 3))
    for base in bases:
        for b_sp in carriers:
            for c_sp in targets:
                for q in enumerate_cmaps(b_sp, c_sp):
                    for beta in enumerate_cmaps(b_sp, base):
                        yield base, beta, q


def suite_lan_minimality(cfg):
    t = Tally("lan-minimality")
    for base, beta, q in _lan_instances(cfg, [spaces.chain(3)]):
        try:
            lan_extension(beta, q, verify=True)  # raises if not least
            t.check(True)
        except LaxtopError as exc:
            t.check(False, (beta, q, exc))
    return t.result()


def suite_lan_order_formula(cfg):
    t = Tally("lan-order-formula")
    for base, beta, q in _lan_instances(cfg, [spaces.chain(3), spaces.diamond()]):
        ops = lattice_ops(base)
        ext = lan_extension(beta, q, verify=False)
        for c in q.target.points:
            expected = ops.join_of(
                beta(b) for b in beta.source.points if q.target.leq(q(b), c)
            )
            t.check(ext(c) == expected, (beta, q, c))
    return t.result()


def suite_expo_join_vs_lan(cfg):
    t = Tally("expo-join-vs-lan")
    carriers = posets_up_to(2)
    for base in lattice_bases(min(cfg.max_points, 4)):
        for obj in lax_objects_over(base, carriers):
            try:
                report = exponentiability_report(obj)
                t.check(report.mode == "definitive", obj)
            except LaxtopError as exc:
                t.check(False, (obj, exc))
    return t.result()


def _translate_order(space, translation):
    return frozenset((translation[x], translation[y]) for (x, y) in space.le)


def suite_product_sum_distributivity(cfg):
    t = Tally("product-sum-distributivity")
    for base in (spaces.sierpinski(), spaces.chain(3)):
        carriers = posets_up_to(2) if base.name == "S" else posets_up_to(2)[:2]
        objs = lax_objects_over(base, carriers)
        for a_obj, b_obj, c_obj in itertools.product(objs, repeat=3):
            left = lax_product([a_obj, lax_sum([b_obj, c_obj]).obj]).obj
            right = lax_sum(
                [lax_product([a_obj, b_obj]).obj, lax_product([a_obj, c_obj]).obj]
            ).obj
            # canonical bijection (a, in{i}:x) <-> in{i}:(a,x)
            translation = {}
            ok = True
            for p in left.space.points:
                a, rest = p[1:-1].split(",", 1)
                tag, x = rest.split(":", 1)
                translation[p] = f"{tag}:({a},{x})"
            if set(translation.values()) != set(right.space.points):
                ok = False
            else:
                ok = _translate_order(left.space, translation) == right.space.le and all(
                    left.value(p) == right.value(translation[p])
                    for p in left.space.points
                )
            t.check(ok, (a_obj, b_obj, c_obj))
    return t.result()


def suite_lax_sum_extensivity(cfg):
    t = Tally("lax-sum-extensivity")
    base = spaces.sierpinski()
    carriers = posets_up_to(2)
    objs = lax_objects_over(base, carriers)
    for d_obj in objs:
        d_sp = d_obj.space
        # clopen decompositions of the carrier
        clopens = [
            frozenset(s)
            for s in d_sp.open_sets()
            if d_sp.is_up_closed(s)
        ]
        for b_obj in objs[:6]:
            for c_obj in objs[:6]:
                total = lax_sum([b_obj, c_obj]).obj
                direct = len(lax_hom(d_obj, total))
                decomposed = 0
                for part in clopens:
                    rest = frozenset(d_sp.points) - part
                    left = _restrict(d_obj, part)
                    right = _restrict(d_obj, rest)
                    decomposed += len(lax_hom(left, b_obj)) * len(
                        lax_hom(right, c_obj)
                    )
                t.check(direct == decomposed, (d_obj, b_obj, c_obj))
    return t.result()


def _restrict(obj, subset):
    sub = induced_space("subspace", obj.space, sorted(subset))
    return lax_object(
        sub.space, obj.base, {p: obj.value(p) for p in sub.space.points}
    )


def suite_fam_effective_crosscheck(cfg):
    t = Tally("fam-effective-crosscheck")
    for base in frame_bases(cfg.max_points):
        for y in base.points:
            down_y = [v for v in base.points if base.leq(v, y)]
            target = fam_object(base, {"j": y})
            for k in range(0, 4):
                for values in itertools.combinations_with_replacement(down_y, k):
                    source = fam_object(
                        base, {f"i{n}": v for n, v in enumerate(values)}
                    )
                    f = fam_morphism(
                        {i: "j" for i in source.index}, source, target
                    )
                    # internal cross-check raises on shortcut disagreement
                    try:
                        fam_effective_descent_check(f)
                        t.check(True)
                    except LaxtopError as exc:
                        t.check(False, (base, y, values, exc))
    return t.result()


def _small_fam_morphisms(base, max_size=2):
    """All family morphisms with index sizes up to max_size over the base."""
    sizes = range(1, max_size + 1)
    families = []
    for k in sizes:
        for values in itertools.product(base.points, repeat=k):
            families.append(
                fam_object(base, {f"i{n}": v for n, v in enumerate(values)})
            )
    up = base.up_masks
    out = []
    for src in families:
        for tgt in families:
            for images in itertools.product(range(len(tgt.index)), repeat=len(src.index)):
                if all(up[x] >> tgt.positions[j] & 1 for x, j in zip(src.positions, images)):
                    out.append(FamMorphism(src, tgt, images))
    return out


def suite_fam_descent_pullback_stability(cfg):
    t = Tally("fam-descent-pullback-stability")
    for base in lattice_bases(min(cfg.max_points, 3)):
        morphisms = _small_fam_morphisms(base, 2)
        descent_maps = [f for f in morphisms if fam_descent_check(f)]
        for f in descent_maps:
            for g in morphisms:
                if g.target != f.target:
                    continue
                apex, _, proj_g = fam_pullback(f, g)
                t.check(bool(fam_descent_check(proj_g)), (base, f, g))
    return t.result()


def suite_fam_pullback_preservation(cfg):
    t = Tally("fam-pullback-preservation")
    base = spaces.chain(3)
    carriers = posets_up_to(2)
    objs = lax_objects_over(base, carriers)
    for c_obj in objs[:8]:
        for a_obj in objs[:8]:
            for f in lax_hom(a_obj, c_obj):
                for b_obj in objs[:8]:
                    for g in lax_hom(b_obj, c_obj):
                        top_pb = lax_pullback(f, g)
                        fam_apex, _, _ = fam_pullback(to_fam(f), to_fam(g))
                        t.check(
                            to_fam(top_pb.obj) == fam_apex, (f, g)
                        )
    return t.result()


def suite_vietoris_algebra_equivalence(cfg):
    t = Tally("vietoris-algebra-equivalence")
    for s in posets_up_to(cfg.max_points):
        rep = lattice_report(s)
        try:
            algebra_ok = bool(vietoris_algebra_check(s))
        except MeetsMissing:
            algebra_ok = False
        sober_and_meets = (
            sober_report(s).is_sober
            and rep.is_meet_semilattice
            and rep.has_top
        )
        t.check(
            algebra_ok == rep.is_complete_lattice == sober_and_meets,
            (s, algebra_ok, rep.is_complete_lattice, sober_and_meets),
        )
    return t.result()


def suite_vietoris_lower_topology(cfg):
    t = Tally("vietoris-lower-topology")
    for s in posets_up_to(min(cfg.max_points, 3)):
        v = vietoris_space(s)  # hit-topology cross-check runs inside
        lower = order_to_space(v.space, "lower")
        t.check(set(lower.open_sets()) == set(v.space.open_sets()), s)
    return t.result()


def suite_vietoris_free_algebra(cfg):
    t = Tally("vietoris-free-algebra")
    for s in posets_up_to(min(cfg.max_points, 3)):
        v = vietoris_space(s, check_topology=False)
        t.check(bool(vietoris_algebra_check(v.space)), s)
    return t.result()


def suite_effective_implies_descent(cfg):
    """Every map that passes 2-chain lifting passes pair lifting; both
    tests run on every map, on positions, and a `CMap` is built only for
    a failure witness."""
    t = Tally("effective-implies-descent")
    universe = posets_up_to(cfg.max_points)
    for src in universe:
        for tgt in universe:
            for positions in _monotone_tables(src, tgt):
                pair, chain = _lifting(src, tgt, positions)
                if chain is None and pair is not None:
                    t.check(False, (CMap(src, tgt, positions),))
                else:
                    t.passed += 1
    return t.result()


class _ValueMasks(dict):
    """Maps into a base, by their positions, to their value masks, coding each once.

    The value mask of a set of source positions is the OR of the base point
    bits of the values at those positions; a map's entry lists them all,
    indexed by the positions' mask.
    """

    def __missing__(self, positions):
        out = [0]
        for j in positions:
            bit = 1 << j
            out += [m | bit for m in out]
        self[positions] = out
        return out


def _lax_sweep(base, carriers, allw=None):
    """Per map f between carriers, the alphas and betas with alpha <= beta . f.

    Yields (f, alphas, values, rows) for every f, in carrier order: alphas
    lists the maps from f's source into the base, values[k] is alpha_k's
    value mask list (`_ValueMasks`), and rows pairs each beta, in order, with
    the set of k such that alpha_k <= beta . f, as bits; betas with no such
    alpha are left out.  Each carrier's alphas are coded once: bit k of
    cells[fibre][bound] is set when alpha_k's values over the fibre, a mask
    of the carrier's positions, lie below the bound and, when the all-w
    table is given, pass the all-w condition at it.  So the set for f and
    beta is the AND of the cells at f's fibres and beta's values there.
    """
    codes = _ValueMasks()
    into_base = [enumerate_cmaps(sp, base) for sp in carriers]
    if allw is None:  # the lax condition alone
        allw = ((True,) * (1 << len(base.points)),) * len(base.points)
    for a_sp, alphas in zip(carriers, into_base):
        values = [codes[alpha.positions] for alpha in alphas]
        cells = []
        for fibre in range(1 << len(a_sp.points)):
            over = [masks[fibre] for masks in values]  # each alpha's value mask over the fibre
            cells.append([
                sum(1 << k for k, mask in enumerate(over) if mask | d == d and row[mask])
                for d, row in zip(base.down_masks, allw)
            ])
        everyone = (1 << len(alphas)) - 1
        for b_sp, betas in zip(carriers, into_base):
            for f in enumerate_cmaps(a_sp, b_sp):
                at_f = [cells[fibre] for fibre in f.fibres]
                rows = []
                for beta in betas:
                    live = everyone
                    for cell, bound in zip(at_f, beta.positions):
                        live &= cell[bound]
                    if live:
                        rows.append((beta, live))
                yield f, alphas, values, rows


def _lax_triples(base, carriers):
    """All (f, alpha, beta, lifts) with f monotone and alpha <= beta . f,
    lifts being `_pair_lifts(f)`: the set bits of `_lax_sweep`'s rows."""
    for f, alphas, _, rows in _lax_sweep(base, carriers):
        lifts = _pair_lifts(f)
        for beta, live in rows:
            while live:
                k = (live & -live).bit_length() - 1
                live &= live - 1
                yield f, alphas[k], beta, lifts


def _pass_tables(values, allw, join):
    """A carrier's pass tables, indexed [over][bound], `over` being a mask
    of the carrier's positions: bit k of ``allw_pass[over][bound]`` is set
    when alpha_k's values over `over` (``values[k][over]``) pass the all-w
    condition at the bound, and bit k of ``join_pass[over][bound]`` when
    their join is the bound."""
    allw_pass, join_pass = [], []
    for over in range(len(values[0])):
        masks = [vals[over] for vals in values]
        allw_pass.append(
            [sum(1 << k for k, mask in enumerate(masks) if row[mask]) for row in allw]
        )
        joins = [0] * len(allw)
        for k, mask in enumerate(masks):
            joins[join[mask]] |= 1 << k
        join_pass.append(joins)
    return allw_pass, join_pass


def allw_join_coherence(base, carriers):
    """Count agreements of the all-w condition with the join condition.

    Restricted to the lax triples (f, alpha, beta), alpha <= beta . f, whose
    family image passes descent; returns (checked, discrepancies) in the
    order of `_lax_triples`, each discrepancy carrying the triple and the
    two verdicts.  Both filters are read fibre by fibre from `_lax_sweep`'s
    cells, given the all-w table.  Each (f, beta) row is then decided for
    all its alphas at once: the row's bits are ANDed, per lifted pair, with
    the source carrier's `_pass_tables` at the pair's lower end and bound,
    and the alphas whose two ANDs differ are the discrepancies.
    """
    allw, join = condition_tables(base)
    checked = 0
    discrepancies = []
    coded = None
    for f, alphas, values, rows in _lax_sweep(base, carriers, allw):
        if values is not coded:  # a new source carrier
            coded = values
            allw_pass, join_pass = _pass_tables(values, allw, join)
        lifted = [
            (j1, allw_pass[lower], join_pass[lower])
            for (j1, _), lower in _pair_lifts(f).items()
        ]
        for beta, live in rows:
            bounds = beta.positions
            allw_ok = join_ok = live
            for j1, allw_row, join_row in lifted:
                allw_ok &= allw_row[bounds[j1]]
                join_ok &= join_row[bounds[j1]]
            checked += live.bit_count()
            differ = allw_ok ^ join_ok
            while differ:
                k = (differ & -differ).bit_length() - 1
                differ &= differ - 1
                discrepancies.append(
                    (f, alphas[k], beta, bool(allw_ok >> k & 1), bool(join_ok >> k & 1))
                )
    return checked, discrepancies


def suite_allw_join_coherence(cfg):
    t = Tally("allw-join-coherence")
    carriers = posets_up_to(3)
    for base in frame_bases(cfg.max_points):
        checked, discrepancies = allw_join_coherence(base, carriers)
        t.passed += checked - len(discrepancies)
        for d in discrepancies:
            t.check(False, (base,) + d[:3])
    return t.result()


def closed_part_lifting(alpha, beta, lifts):
    """Over S, every pair b' <= b of beta's closed part lifts to a pair of
    alpha's closed part, the closed part being the points with value 1.
    Both closed parts are up-closed (1 is the top), so b' and a lower end decide.
    """
    top = alpha.target.index["1"]
    closed = alpha.fibres[top]
    return all(lower & closed for (j1, _), lower in lifts.items() if beta.positions[j1] == top)


def sierpinski_specialization(carriers):
    """Compare the frame criterion over S with the closed-part description.

    Returns (checked, discrepancies): the join condition plus 2-chain
    lifting must coincide with 2-chain lifting plus pair lifting between
    the closed parts.  The lax triples are read from `_lax_sweep`, in the
    order of `_lax_triples`; over a map that fails 2-chain lifting both
    sides are false, so its triples are only counted.
    """
    base = spaces.sierpinski()
    join = condition_tables(base)[1]
    checked = 0
    discrepancies = []
    for f, alphas, values, rows in _lax_sweep(base, carriers):
        if _lifting(f.source, f.target, f.positions)[1] is not None:
            checked += sum(live.bit_count() for _, live in rows)
            continue
        lifts = _pair_lifts(f)
        lifted = [(j1, lower) for (j1, _), lower in lifts.items()]
        for beta, live in rows:
            bounds = beta.positions
            while live:
                k = (live & -live).bit_length() - 1
                live &= live - 1
                join_ok = all(join[values[k][over]] == bounds[j] for j, over in lifted)
                checked += 1
                if join_ok != closed_part_lifting(alphas[k], beta, lifts):
                    discrepancies.append((f, alphas[k], beta))
    return checked, discrepancies


def suite_sierpinski_effective(cfg):
    t = Tally("sierpinski-effective")
    checked, discrepancies = sierpinski_specialization(posets_up_to(3))
    t.passed += checked - len(discrepancies)
    for d in discrepancies:
        t.check(False, d)
    # tie the description to the frame checker on a smaller sweep, run as its
    # two steps so that 2-chain lifting is computed once per morphism
    base = spaces.sierpinski()
    carriers = posets_up_to(2)
    objs = lax_objects_over(base, carriers)
    for src in objs:
        for tgt in objs:
            for m in lax_hom(src, tgt):
                pre, top_eff = _lattice_preamble(m)
                report = _frame_verdict(m, pre, top_eff)
                chains_ok = bool(top_eff.is_effective)
                closed_lift = closed_part_lifting(
                    src.alpha, tgt.alpha, _pair_lifts(m.underlying)
                )
                t.check(
                    report.is_effective == (chains_ok and closed_lift), (m,)
                )
    return t.result()


def suite_pullback_meet_identity(cfg):
    t = Tally("pullback-meet-identity")
    base = spaces.chain(3)
    carriers = posets_up_to(2)
    objs = lax_objects_over(base, carriers)
    ops = lattice_ops(base)
    for c_obj in objs[:6]:
        for a_obj in objs[:6]:
            for f in lax_hom(a_obj, c_obj):
                for b_obj in objs[:6]:
                    for g in lax_hom(b_obj, c_obj):
                        pb = lax_pullback(f, g)
                        ok = True
                        for p in pb.obj.space.points:
                            a = pb.left.underlying(p)
                            c = pb.right.underlying(p)
                            if pb.obj.value(p) != ops.meet(
                                a_obj.value(a), b_obj.value(c)
                            ):
                                ok = False
                        t.check(ok, (f, g))
    return t.result()


def suite_lower_lattice_meets(cfg):
    t = Tally("lower-lattice-meets")
    for s in lattice_bases(cfg.max_points):
        sp = order_to_space(s, "lower")
        ok = lattice_report(sp).is_complete_lattice and scp_meet_compat_check(sp)
        t.check(ok, s)
    return t.result()


def suite_poset_count_calibration(cfg):
    t = Tally("poset-count-calibration")
    expected = {1: 1, 2: 2, 3: 5, 4: 16}
    for n in range(1, min(cfg.max_points, 4) + 1):
        fast = enumerate_posets(n)
        slow = dedup_by_isomorphism(enumerate_labeled_posets(n))
        t.check(len(fast) == expected[n], ("canonical", n, len(fast)))
        t.check(len(slow) == expected[n], ("oracle", n, len(slow)))
        t.check(len(fast) == len(slow), ("agreement", n))
    return t.result()


SUITES = {
    fn.__name__.removeprefix("suite_").replace("_", "-"): fn
    for fn in (
        suite_space_order_roundtrip,
        suite_continuity_open_preimage,
        suite_finite_sober,
        suite_t0_reflection,
        suite_product_sum_universality,
        suite_three_topologies,
        suite_heyting_adjunction,
        suite_lattice_equivalences,
        suite_lower_adjoint_continuity,
        suite_exponential_underlying,
        suite_lan_minimality,
        suite_lan_order_formula,
        suite_expo_join_vs_lan,
        suite_product_sum_distributivity,
        suite_lax_sum_extensivity,
        suite_fam_effective_crosscheck,
        suite_fam_descent_pullback_stability,
        suite_fam_pullback_preservation,
        suite_vietoris_algebra_equivalence,
        suite_vietoris_lower_topology,
        suite_vietoris_free_algebra,
        suite_effective_implies_descent,
        suite_allw_join_coherence,
        suite_sierpinski_effective,
        suite_pullback_meet_identity,
        suite_lower_lattice_meets,
        suite_poset_count_calibration,
    )
}


@dataclass
class Report:
    config: HarnessConfig
    suites: tuple
    format_version: int = 1

    @property
    def ok(self):
        return all(s.ok for s in self.suites)

    def to_json_dict(self):
        return {
            "format_version": self.format_version,
            "config": {
                "max_points": self.config.max_points,
                "seed": self.config.seed,
                "suites": sorted(self.config.suites),
            },
            "ok": self.ok,
            "suites": [
                {
                    "name": s.name,
                    "passed": s.passed,
                    "failed": s.failed,
                    "witnesses": list(s.witnesses),
                    "notes": list(s.notes),
                }
                for s in sorted(self.suites, key=lambda s: s.name)
            ],
        }


def paper_check(config: HarnessConfig = HarnessConfig()) -> Report:
    """Run the requested verification suites and aggregate their tallies."""
    names = config.suites or tuple(sorted(SUITES))
    results = []
    for name in names:
        if name not in SUITES:
            results.append(
                SuiteResult(name, 0, 1, (), (f"unknown suite {name!r}",))
            )
            continue
        try:
            results.append(SUITES[name](config))
        except LaxtopError as exc:
            results.append(
                SuiteResult(name, 0, 1, (repr(exc),), ("suite aborted",))
            )
    return Report(config, tuple(results))
