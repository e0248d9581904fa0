"""Descent and effective-descent checkers on finite spaces.

On a finite space every ultrafilter is principal, so ultrafilter convergence
collapses to the natural order: convergence statements become order-pair
conditions, descent in Top becomes pair lifting, and effective descent in
Top becomes 2-chain lifting.  Over a lattice base the lax-comma conditions
reduce to join identities over lifted pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    InternalInconsistency,
    NotALattice,
    NotCompletelyDistributive,
    NotT0,
)
from .finspace import CACHE_SIZE, CMap, FiniteSpace, _union
from .famx import fam_descent_check, fam_effective_descent_check, first_unrecovered, to_fam
from .laxcomma import LaxMorphism
from .order import LatticeOps, distributivity_report, heyting_report, lattice_ops, lattice_report


def _tri(v):
    return {True: "true", False: "false", None: "unknown"}[v]


@dataclass(frozen=True)
class DescentReport:
    category: str  # "top" | "fam" | "laxcomma"
    is_descent: object  # True / False / None (unknown)
    is_effective: object
    witnesses: tuple = ()
    preconditions_checked: tuple = ()
    notes: tuple = ()

    def to_json_dict(self):
        return {
            "category": self.category,
            "is_descent": _tri(self.is_descent),
            "is_effective": _tri(self.is_effective),
            "witnesses": [list(w) for w in self.witnesses],
            "preconditions_checked": list(self.preconditions_checked),
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class SigmaReport:
    table: tuple  # (principal ultrafilter of a point, smallest convergence point)
    adjunction_ok: bool


def sigma(space: FiniteSpace) -> SigmaReport:
    """Smallest convergence points of principal ultrafilters, with adjunction.

    A principal ultrafilter at x converges to exactly the points above x, so
    its smallest convergence point is x itself; the adjunction says that
    converging to z is the same as the smallest convergence point lying
    below z, which is checked pointwise.
    """
    if not space.is_t0():
        raise NotT0("smallest convergence points need a T0 space")
    table = tuple((x, x) for x in space.points)
    smallest = dict(table)
    ok = all(
        space.leq(x, z) == space.leq(smallest[x], z)
        for x in space.points
        for z in space.points
    )
    return SigmaReport(table, ok)


def scp_meet_compat_check(base: FiniteSpace) -> bool:
    """Whether the meet map X x X -> X is continuous, as the paper assumes of
    a topological meet-semilattice X.

    On finite spaces that is monotonicity: i <= j must give meet(i, k) <=
    meet(j, k) for every k, which covers both arguments since meet is
    symmetric.
    """
    if not lattice_report(base).is_complete_lattice:
        raise NotALattice("meet-compatibility needs a complete lattice base")
    return _meet_monotone(lattice_ops(base))


@lru_cache(maxsize=CACHE_SIZE)
def _meet_monotone(ops: LatticeOps) -> bool:
    """The verdict of `scp_meet_compat_check`, once per lattice's tables."""
    base, meet = ops.space, ops.meet_index
    return all(
        base.up_masks[meet[i][k]] >> meet[j][k] & 1
        for i, j in base.position_pairs
        for k in range(len(base.points))
    )


def _lift_masks(source: FiniteSpace, width: int, positions):
    """Per target position j of a map with these positions, over a target of
    this width: the mask of its fibre, of the source points above a point of
    the fibre, and of those below one."""
    fibre, above, below = [0] * width, [0] * width, [0] * width
    for a, (j, up, down) in enumerate(zip(positions, source.up_masks, source.down_masks)):
        fibre[j] |= 1 << a
        above[j] |= up
        below[j] |= down
    return fibre, above, below


def _pair_lifts(f: CMap):
    """For each pair of target positions j' <= j, in target point order, the
    mask of the source positions over j' below some point over j.  Only these
    lower ends a' of the lifted pairs a' <= a are kept: every caller tests a
    pair against an up-closed set of source points, which holds a if it holds a'.
    """
    fibre, _, below = _lift_masks(f.source, len(f.target.points), f.positions)
    return {(j1, j): fibre[j1] & below[j] for j1, j in f.target.position_pairs}


def _lifting(source: FiniteSpace, target: FiniteSpace, positions):
    """Pair lifting and 2-chain lifting of the map with these target positions.

    Returns (pair, chain): the first pair j' <= j of target positions, in
    `position_pairs` order, over which no source pair lies, and the first
    chain b0 <= b1 <= b2, in `position_chains` order, over which no source
    chain lies; each is None when every one lifts.  A chain lifts iff some
    point over b1 is above a point over b0 and below a point over b2, and a
    pair j' <= j lifts iff some point over j' is below a point over j.
    """
    fibre, above, below = _lift_masks(source, len(target.points), positions)
    pair = chain = None
    for j1, j in target.position_pairs:
        if not fibre[j1] & below[j]:
            pair = j1, j
            break
    for b0, b1, b2 in target.position_chains:
        if not fibre[b1] & above[b0] & below[b2]:
            chain = b0, b1, b2
            break
    return pair, chain


def _named(kind, space: FiniteSpace, positions):
    """The witness (kind, points at positions), or none when positions is None."""
    return () if positions is None else ((kind, tuple(space.points[j] for j in positions)),)


def top_descent_check(f: CMap) -> DescentReport:
    """Descent in Top: every comparable pair downstairs lifts upstairs."""
    pair, _ = _lifting(f.source, f.target, f.positions)
    return DescentReport("top", pair is None, None, witnesses=_named("pair", f.target, pair))


def top_effective_descent_check(f: CMap) -> DescentReport:
    """Effective descent in Top: every 2-chain downstairs lifts upstairs.

    A chain b0 <= b1 <= b2 lifts iff some point over b1 is above a point
    over b0 and below a point over b2.
    """
    pair, chain = _lifting(f.source, f.target, f.positions)
    return DescentReport(
        "top",
        pair is None,
        chain is None,
        witnesses=_named("pair", f.target, pair) + _named("chain", f.target, chain),
    )


@dataclass(frozen=True)
class ConditionVerdict:
    ok: bool
    witness: object

    def __bool__(self):
        return self.ok


def _lift_value_sets(f: LaxMorphism):
    """Map each pair b' <= b, as target positions in `_pair_lifts` order, to
    the mask of the base positions of the source values at the lower ends over it."""
    bits = [1 << x for x in f.source.alpha.positions]
    return {pair: _union(bits, lifted) for pair, lifted in _pair_lifts(f.underlying).items()}


@lru_cache(maxsize=CACHE_SIZE)
def _all_w_ok(base: FiniteSpace, bound: int, values: int) -> bool:
    """Is every w <= the position bound recovered as the join of its meets
    with the values in the position mask?"""
    return first_unrecovered(lattice_ops(base), bound, values) is None


def convergence_descent_check(f: LaxMorphism) -> ConditionVerdict:
    """The all-w lifting condition over every comparable pair downstairs.

    For b' <= b and every w below the value at b', w must be the join of
    its meets with the source values sitting over the pair.
    """
    base = f.source.base
    if not lattice_report(base).is_complete_lattice:
        raise NotALattice("the all-w condition needs a complete lattice base")
    pts, beta = f.target.space.points, f.target.alpha.positions
    for (j1, j), values in _lift_value_sets(f).items():
        if not _all_w_ok(base, beta[j1], values):
            w = first_unrecovered(lattice_ops(base), beta[j1], values)
            return ConditionVerdict(False, (pts[j1], pts[j], base.points[w]))
    return ConditionVerdict(True, None)


@lru_cache(maxsize=CACHE_SIZE)
def _join_cached(base: FiniteSpace, values: int) -> int:
    """The position of the join of the values in the position mask."""
    return lattice_ops(base).join_mask(values)


def condition_tables(base: FiniteSpace):
    """The all-w and join conditions of a lattice base, read by value mask.

    Bit i of a mask stands for the position i.  Returns ``(allw, join)``:
    ``allw[i][mask]`` is the all-w condition at the bound i over the values
    in mask, and ``join[mask]`` is the position of their join.  Every cell
    is filled once through ``_all_w_ok`` and ``_join_cached``.
    """
    masks = range(1 << len(base.points))
    allw = tuple(
        tuple(_all_w_ok(base, bound, values) for values in masks)
        for bound in range(len(base.points))
    )
    return allw, tuple(_join_cached(base, values) for values in masks)


def _join_condition(f: LaxMorphism) -> ConditionVerdict:
    """For each pair b' <= b, the value at b' is the join of lifted values."""
    base = f.source.base
    pts, beta = f.target.space.points, f.target.alpha.positions
    for (j1, j), values in _lift_value_sets(f).items():
        if _join_cached(base, values) != beta[j1]:
            return ConditionVerdict(False, (pts[j1], pts[j]))
    return ConditionVerdict(True, None)


def _lattice_preamble(f: LaxMorphism):
    """The checks both lax-comma verdicts start from: the complete-lattice
    guard, the preconditions met so far, and 2-chain lifting in Top."""
    base = f.source.base
    if not lattice_report(base).is_complete_lattice:
        raise NotALattice("effective-descent analysis needs a complete lattice base")
    pre = ["complete-lattice"]
    if scp_meet_compat_check(base):
        pre.append("meet-compatibility")
    return pre, top_effective_descent_check(f.underlying)


def frame_effective_descent_check(f: LaxMorphism) -> DescentReport:
    """Effective descent over a frame base: 2-chain lifting plus the join law.

    On a non-frame base no characterization is available; the verdict
    degrades to unknown, carrying the partial all-w evidence.
    """
    return _frame_verdict(f, *_lattice_preamble(f))


def _frame_verdict(f: LaxMorphism, pre, top_eff) -> DescentReport:
    """The frame verdict of f from its preamble's output, so that
    `laxcomma_effective_descent` can run the lattice guard first."""
    if not heyting_report(f.source.base).is_heyting:
        allw = convergence_descent_check(f)
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
    joins = _join_condition(f)
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


def laxcomma_effective_descent(f: LaxMorphism) -> DescentReport:
    """Best available verdict for effective descent over a lattice base.

    Frame bases get the definitive check.  Otherwise: failing 2-chain
    lifting or family descent refutes; passing the family effectiveness
    criterion makes the all-w condition decisive; anything else is unknown.
    """
    pre, top_eff = _lattice_preamble(f)
    if heyting_report(f.source.base).is_heyting:
        return _frame_verdict(f, pre, top_eff)
    if top_eff.is_effective is False:
        return DescentReport(
            "laxcomma", None, False,
            witnesses=top_eff.witnesses,
            preconditions_checked=tuple(pre),
            notes=("underlying map fails 2-chain lifting",),
        )
    fam = to_fam(f)
    fam_desc = fam_descent_check(fam)
    if not fam_desc:
        return DescentReport(
            "laxcomma", None, False,
            witnesses=(("fam-descent", fam_desc.witness),),
            preconditions_checked=tuple(pre),
            notes=("family image fails descent",),
        )
    fam_eff = fam_effective_descent_check(fam)
    allw = convergence_descent_check(f)
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


def cd_filtration_descent_check(f: LaxMorphism) -> DescentReport:
    """Effective descent via level filtrations over a completely
    distributive base: 2-chain lifting plus lifting of every pair within a
    beta-level into the alpha-level of each totally-below element.
    Cross-checked against the frame characterization.
    """
    base = f.source.base
    dist = distributivity_report(base)
    if not dist.is_completely_distributive:
        raise NotCompletelyDistributive("filtration criterion needs complete distributivity")
    src, tgt = f.source, f.target
    pre, top_eff = _lattice_preamble(f)
    if top_eff.is_effective:
        pts, up, beta = base.points, base.up_masks, tgt.alpha.positions
        lifts = _pair_lifts(f.underlying).items()
        level = [_union(src.alpha.fibres, row) for row in up]  # the points with value >= v
        below = [[base.index[v] for (v, w) in dist.totally_below_table if w == u] for u in pts]
        witness = next(
            (
                (pts[u], pts[v], tgt.space.points[j1], tgt.space.points[j])
                for u in range(len(pts))
                for (j1, j), lifted in lifts
                if up[u] >> beta[j1] & 1  # so b is in the level too: beta is monotone
                for v in below[u]
                if not lifted & level[v]
            ),
            None,
        )
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
    frame = _frame_verdict(f, pre, top_eff)
    if frame.is_effective is not None and frame.is_effective != effective:
        raise InternalInconsistency(
            "filtration criterion disagrees with the frame characterization"
        )
    return report


@dataclass(frozen=True)
class ForgetfulReport:
    ok: bool
    details: tuple = ()


def forgetful_preservation_check(f: LaxMorphism) -> ForgetfulReport:
    """Effective descent downstairs must survive both forgetful functors.

    A definitive positive lax-comma verdict forces 2-chain lifting in Top
    and descent of the family image; for a surjection onto a point, the
    regular-epi structure value must be the join of the source values.
    """
    verdict = laxcomma_effective_descent(f)
    details = []
    ok = True
    if verdict.is_effective is True:
        top_eff = top_effective_descent_check(f.underlying)
        fam_desc = fam_descent_check(to_fam(f))
        if top_eff.is_effective is not True:
            ok = False
            details.append(("top-effective", False))
        if not fam_desc:
            ok = False
            details.append(("fam-descent", fam_desc.witness))
    tgt = f.target
    if len(tgt.space.points) == 1 and f.underlying.is_surjective():
        values = sum({1 << x for x in f.source.alpha.positions})
        is_regular_epi = tgt.alpha.positions[0] == _join_cached(f.source.base, values)
        details.append(("regular-epi-to-point", is_regular_epi))
    return ForgetfulReport(ok, tuple(details))
