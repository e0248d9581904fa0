"""The lax comma category of spaces over a fixed finite base.

Objects are pairs (A, alpha: A -> X); morphisms are continuous maps f with
alpha <= beta . f pointwise in the base's natural order.  Constructions
follow the order-theoretic recipes valid over (semi)lattice bases: products
via pointwise meets, coequalizers via least continuous extensions,
exponentials via pointwise implications.  Each construction has a brute-force
universal-property oracle used to certify it on small instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    BaseMismatch,
    Budget,
    InternalInconsistency,
    NotAChain,
    NotClosedLevel,
    NotContinuous,
    NotHeyting,
    NotALattice,
    NotParallel,
)
from .finspace import (
    CMap,
    FiniteSpace,
    _monotone_tables,
    _quotient,
    _subspace,
    _union,
    cmap,
    enumerate_cmaps,
    is_monotone,
    label_part,
    product_label,
    product_space,
    subsets,
    sum_space,
)
from .order import (
    heyting_report,
    lattice_ops,
    lattice_report,
    mask_folds,
    require_meet,
)


@dataclass(frozen=True)
class LaxObject:
    space: FiniteSpace
    alpha: CMap

    def __post_init__(self):
        if self.alpha.source != self.space:
            raise BaseMismatch("structure map source differs from the carrier space")

    @property
    def base(self) -> FiniteSpace:
        return self.alpha.target

    def value(self, point):
        return self.alpha(point)


def lax_object(space: FiniteSpace, base: FiniteSpace, alpha_table) -> LaxObject:
    return LaxObject(space, cmap(space, base, alpha_table))


@dataclass(frozen=True)
class LaxMorphism:
    underlying: CMap
    source: LaxObject
    target: LaxObject


def _lax_failure(alpha, beta, image, up):
    """The first position a with alpha[a] not below beta[image[a]] in the
    base whose rows are up, or None; alpha, beta and image hold positions."""
    for a, (x, j) in enumerate(zip(alpha, image)):
        if not up[x] >> beta[j] & 1:
            return a
    return None


def is_lax_morphism(f: CMap, src: LaxObject, tgt: LaxObject):
    """Check the lax triangle alpha <= beta . f; returns (ok, witness point)."""
    if src.base != tgt.base:
        raise BaseMismatch("objects live over different bases")
    a = _lax_failure(src.alpha.positions, tgt.alpha.positions, f.positions, src.base.up_masks)
    return (True, None) if a is None else (False, src.space.points[a])


def lax_morphism(f: CMap, src: LaxObject, tgt: LaxObject) -> LaxMorphism:
    ok, witness = is_lax_morphism(f, src, tgt)
    if not ok:
        raise BaseMismatch(f"lax triangle fails at point {witness!r}")
    return LaxMorphism(f, src, tgt)


def lax_hom(src: LaxObject, tgt: LaxObject):
    """All lax morphisms src -> tgt, in the deterministic map order."""
    tables = _monotone_tables(src.space, tgt.space)
    if tables and src.base != tgt.base:  # an empty hom-set has no map to test
        raise BaseMismatch("objects live over different bases")
    alpha, beta, up = src.alpha.positions, tgt.alpha.positions, src.base.up_masks
    homs = [t for t in tables if _lax_failure(alpha, beta, t, up) is None]
    return [LaxMorphism(CMap(src.space, tgt.space, t), src, tgt) for t in homs]


def _common_base(objects):
    bases = {o.base for o in objects}
    if len(bases) > 1:
        raise BaseMismatch("objects live over different bases")
    return next(iter(bases)) if bases else None


@dataclass(frozen=True)
class LaxSum:
    obj: LaxObject
    injections: tuple


def lax_sum(objects, base=None) -> LaxSum:
    """Sum: the topological sum with the copairing structure map."""
    objects = list(objects)
    common = _common_base(objects) or base
    if common is None:
        raise BaseMismatch("empty sum needs an explicit base")
    total = sum_space([o.space for o in objects])  # the summands' points, in order
    alpha = CMap(total.space, common, sum((o.alpha.positions for o in objects), ()))
    obj = LaxObject(total.space, alpha)
    injections = tuple(
        LaxMorphism(inj, o, obj) for inj, o in zip(total.maps, objects)
    )
    return LaxSum(obj, injections)


@dataclass(frozen=True)
class LaxEqualizer:
    obj: LaxObject
    embedding: LaxMorphism


def lax_equalizer(f: LaxMorphism, g: LaxMorphism) -> LaxEqualizer:
    """Equalizer: the pointwise-equality subspace with restricted structure."""
    if f.source != g.source or f.target != g.target:
        raise NotParallel("equalizer needs a parallel pair")
    src = f.source
    pairs = enumerate(zip(f.underlying.positions, g.underlying.positions))
    sub = _subspace(src.space, [a for a, (x, y) in pairs if x == y])
    obj = LaxObject(sub.space, src.alpha.compose(sub.canonical))
    return LaxEqualizer(obj, LaxMorphism(sub.canonical, obj, src))


@dataclass(frozen=True)
class LaxProduct:
    obj: LaxObject
    projections: tuple


def lax_product(objects, base=None) -> LaxProduct:
    """Product: the topological product with the pointwise-meet structure."""
    objects = list(objects)
    common = _common_base(objects) or base
    if common is None:
        raise BaseMismatch("empty product needs an explicit base")
    prod = product_space([o.space for o in objects])
    # the points of the product come in the order of their coordinates
    values = itertools.product(*(o.alpha.positions for o in objects))
    alpha = tuple(require_meet(common, v) for v in values)
    # a meet of monotone maps is monotone
    obj = LaxObject(prod.space, CMap(prod.space, common, alpha))
    projections = tuple(
        LaxMorphism(proj, obj, o) for proj, o in zip(prod.maps, objects)
    )
    return LaxProduct(obj, projections)


_MINIMALITY_CAP = 4096


def lan_extension(beta: CMap, q: CMap, verify: bool = True) -> CMap:
    """Least continuous extension of beta along q into a complete-lattice base.

    The join of beta over the fibre of an open set grows with the set, so its
    meet over the open neighbourhoods of c is the join over the fibre of the
    down-set of c (the bottom when that fibre is empty), monotone in c.
    """
    if beta.source != q.source:
        raise NotParallel("beta and q must share their source")
    base = beta.target
    ops = lattice_ops(base)  # raises NotACompleteLattice
    target = q.target
    bits = [1 << x for x in beta.positions]
    positions = tuple(
        ops.join_mask(_union(bits, _union(q.fibres, down))) for down in target.down_masks
    )
    result = CMap(target, base, positions)
    if verify:
        up, values = base.up_masks, beta.positions
        if _lax_failure(values, positions, q.positions, up) is not None:
            raise InternalInconsistency("extension does not lie above the input")
        candidates = _monotone_tables(target, base)
        if len(candidates) <= _MINIMALITY_CAP:
            for delta in candidates:
                if _lax_failure(values, delta, q.positions, up) is None:
                    if not all(up[x] >> d & 1 for x, d in zip(positions, delta)):
                        raise InternalInconsistency("extension is not minimal")
    return result


@dataclass(frozen=True)
class LaxCoequalizer:
    obj: LaxObject
    quotient: LaxMorphism


def lax_coequalizer(f: LaxMorphism, g: LaxMorphism) -> LaxCoequalizer:
    """Coequalizer: the topological quotient with least-extension structure."""
    if f.source != g.source or f.target != g.target:
        raise NotParallel("coequalizer needs a parallel pair")
    tgt = f.target
    # the class mask of each target position under the equivalence generated by f(a) ~ g(a)
    classes = [1 << j for j in range(len(tgt.space.points))]
    for i, j in zip(f.underlying.positions, g.underlying.positions):
        merged = classes[i] | classes[j]
        for k in range(len(classes)):
            if merged >> k & 1:
                classes[k] = merged
    # each class is named by its least label; the classes come in name order
    names = {c: min(tgt.space.points_at(c)) for c in set(classes)}
    at = {c: k for k, c in enumerate(sorted(names, key=names.get))}
    values = tuple(sorted(names.values()))
    quot = _quotient(tgt.space, values, tuple(at[c] for c in classes))
    gamma = lan_extension(tgt.alpha, quot.canonical)  # verify tests beta <= gamma . q
    obj = LaxObject(quot.space, gamma)
    return LaxCoequalizer(obj, LaxMorphism(quot.canonical, tgt, obj))


def lax_compose(outer: LaxMorphism, inner: LaxMorphism) -> LaxMorphism:
    if inner.target != outer.source:
        raise BaseMismatch("composition mismatch")
    return LaxMorphism(
        outer.underlying.compose(inner.underlying), inner.source, outer.target
    )


@dataclass(frozen=True)
class LaxPullback:
    obj: LaxObject
    left: LaxMorphism
    right: LaxMorphism


def lax_pullback(f: LaxMorphism, g: LaxMorphism) -> LaxPullback:
    """Pullback: the agreement subspace of the product, meet structure."""
    if f.target != g.target:
        raise NotParallel("pullback needs a common target")
    prod = lax_product([f.source, g.source])
    pi1, pi2 = prod.projections
    eq = lax_equalizer(lax_compose(f, pi1), lax_compose(g, pi2))
    return LaxPullback(
        eq.obj,
        lax_compose(pi1, eq.embedding),
        lax_compose(pi2, eq.embedding),
    )


def initial_lift(space: FiniteSpace, cone) -> LaxObject:
    """Initial lift of a cone of maps into lax objects: pointwise meet."""
    cone = list(cone)
    bases = {o.base for (_, o) in cone}
    if len(bases) > 1:
        raise BaseMismatch("cone targets live over different bases")
    if not bases:
        raise BaseMismatch("empty cone needs an explicit base; use initial_lift_over")
    return initial_lift_over(space, cone, next(iter(bases)))


def _check_cone(space: FiniteSpace, cone, base: FiniteSpace):
    if any(o.base != base or m.source != space or m.target != o.space for m, o in cone):
        raise BaseMismatch("a cone leg must map the apex into an object over the base")


def initial_lift_over(space: FiniteSpace, cone, base: FiniteSpace) -> LaxObject:
    _check_cone(space, cone, base)
    ops = lattice_ops(base)  # raises NotACompleteLattice
    meet, positions = ops.meet_index, [ops.top_index] * len(space.points)
    for m, o in cone:
        values = o.alpha.positions
        positions = [meet[x][values[j]] for x, j in zip(positions, m.positions)]
    # a leg built directly as a CMap need not be monotone, and then neither is the meet
    if not is_monotone(positions, space.up_masks, base.up_masks):
        table = dict(zip(space.points, (base.points[j] for j in positions)))
        raise NotContinuous(f"map {table} is not monotone")
    return LaxObject(space, CMap(space, base, tuple(positions)))


# -- exponentials ----------------------------------------------------------


def function_label(table) -> str:
    """A point table, as (point, value) pairs, written as in "{a:x;b:y}"."""
    return "{" + ";".join(
        f"{label_part(p, ';:')}:{label_part(v, ';:')}" for (p, v) in table
    ) + "}"


@dataclass(frozen=True)
class Exponential:
    obj: LaxObject
    evaluation: LaxMorphism
    eval_source: LaxObject  # the product (A, alpha) x exponential
    functions: tuple  # (label, CMap) pairs


def exponential_object(a_obj: LaxObject, b_obj: LaxObject) -> Exponential:
    """Exponential: continuous maps with pointwise order, implication structure."""
    if a_obj.base != b_obj.base:
        raise BaseMismatch("objects live over different bases")
    base = a_obj.base
    index = base.index
    imp = {  # raises NoMeets when binary meets are absent
        (index[x], index[y]): index[z] for (x, y), z in heyting_report(base).implication_table
    }
    maps = enumerate_cmaps(a_obj.space, b_obj.space)
    labels = tuple(function_label(h.table) for h in maps)
    up = b_obj.space.up_masks
    rows = tuple(  # h <= g iff h(p) <= g(p) at every point p
        sum(
            1 << k
            for k, g in enumerate(maps)
            if all(up[i] >> j & 1 for i, j in zip(h.positions, g.positions))
        )
        for h in maps
    )
    exp_space = FiniteSpace(labels, rows, provenance="order")
    alpha, beta, delta = a_obj.alpha.positions, b_obj.alpha.positions, []
    for h in maps:  # δ(h) is the meet over a of α(a) => β(h(a))
        parts = []
        for x, j in zip(alpha, h.positions):
            if (x, beta[j]) not in imp:
                pair = (base.points[x], base.points[beta[j]])
                raise NotHeyting(f"missing implication for {pair}", pair=pair)
            parts.append(imp[x, beta[j]])
        delta.append(require_meet(base, parts))
    # δ is monotone in h: a larger h has larger values β(h(a)), so larger implications
    exp_obj = LaxObject(exp_space, CMap(exp_space, base, tuple(delta)))

    product = lax_product([a_obj, exp_obj])  # its point (a, h) is evaluated at h(a)
    ev = tuple(h.positions[a] for a in range(len(alpha)) for h in maps)
    evaluation = lax_morphism(CMap(product.obj.space, b_obj.space, ev), product.obj, b_obj)
    return Exponential(exp_obj, evaluation, product.obj, tuple(zip(labels, maps)))


def transpose_to_product(f: CMap, a_obj: LaxObject, expo: Exponential) -> dict:
    """The mate of f: C -> B^A as a point table on the product A x C."""
    funcs = dict(expo.functions)
    return {
        product_label((a, c)): funcs[f(c)](a) for a in a_obj.space.points for c in f.source.points
    }


# -- exponentiability ------------------------------------------------------


@dataclass(frozen=True)
class ExponentiabilityReport:
    """The exponentiability verdict of a lax object.

    Over a complete lattice base the mode is "definitive" and the verdict
    True or False.  Over a meet-semilattice that is not complete the mode is
    "sufficient-only" and the verdict always None (unknown), with no
    witness: such a base has no top, so the sufficient criterion, which
    needs every implication, never applies.
    """

    exponentiable: object  # True / False / None (unknown)
    mode: str  # "definitive" | "sufficient-only"
    witness: object  # (a, family) on a definitive failure
    quotients_checked: int

    def __bool__(self):
        return self.exponentiable is True


class _CollapseQuotients:
    """The exchange law on the collapse quotients q: C -> 1 of one lax object.

    C is discrete and γ: C -> X is the tuple of its base positions.  Over one
    point each Lan is a join over all of C, so at a point a of A the extension
    route is α(a) ∧ ⋁γ, the product route the join of α(b) ∧ γ(c) over b <= a
    and c, and the pointwise route the join of α(a) ∧ γ(c) over c.  Built
    once: ``met[a][g]`` is α(a) ∧ g, ``lower[a][g]`` the join of ``met[b][g]``
    over b <= a, and ``not_monotone`` holds the g whose meet column is not
    monotone.  The joins of γ are one ``join_index`` step per point of A from
    those of γ without its last value; join is associative, commutative and
    idempotent, so they are the folds over C.  Distributivity, which the law
    tests, is never used.
    """

    def __init__(self, obj: LaxObject, ops):
        meet, join, bottom = ops.meet_index, ops.join_index, ops.bottom_index
        a_down, base_down = obj.space.down_masks, obj.base.down_masks
        alpha = obj.alpha.positions
        met = [meet[x] for x in alpha]
        positions = range(len(obj.base.points))

        def lower_join(down, g):
            acc = bottom
            for b, row in enumerate(met):
                if down >> b & 1:
                    acc = join[acc][row[g]]
            return acc

        self.meet, self.join, self.alpha, self.met = meet, join, alpha, met
        self.base_down = base_down
        self.below = [  # the pairs b < a of A
            (b, a) for a, down in enumerate(a_down) for b in range(len(alpha))
            if b != a and down >> b & 1
        ]
        self.lower = [[lower_join(down, g) for g in positions] for down in a_down]
        self.not_monotone = frozenset(
            g for g in positions if not is_monotone([row[g] for row in met], a_down, base_down)
        )
        empty = [bottom] * len(alpha)
        self._routes = {(): (bottom, [meet[x][bottom] for x in alpha], empty, empty)}

    def routes(self, gamma: tuple) -> tuple:
        """⋁γ, then the extension, product and pointwise routes over A's points."""
        routes = self._routes.get(gamma)
        if routes is None:
            lan, _, product, pointwise = self.routes(gamma[:-1])
            g, join = gamma[-1], self.join
            lan = join[lan][g]
            routes = self._routes[gamma] = (
                lan,
                [self.meet[x][lan] for x in self.alpha],
                [join[v][row[g]] for v, row in zip(product, self.lower)],
                [join[v][row[g]] for v, row in zip(pointwise, self.met)],
            )
        return routes

    def law_holds(self, gamma: tuple) -> bool:
        """Whether the two routes agree, checked point by point in A's order.

        α ∧ γ and the product route must be continuous; over one point the
        extension and each product row are, whatever their values.
        """
        _, extension, product, pointwise = self.routes(gamma)
        if not self.not_monotone.isdisjoint(gamma):
            raise NotContinuous("meet map on A x C is not monotone")  # C is discrete
        down = self.base_down
        if not all(down[product[a]] >> product[b] & 1 for b, a in self.below):
            raise NotContinuous("product-route extension is not monotone")
        if extension == product == pointwise:
            return True
        for ext, prod, point in zip(extension, product, pointwise):
            if ext != prod:
                return False
            # meeting α(a) before or after the inner join agrees (α(a) ∧ Lan is "before")
            if ext != point:
                raise InternalInconsistency(
                    "pointwise exchange identity disagrees with the extension route"
                )
        return True


def _join_preservation_failure(obj: LaxObject, ops):
    """The first point a and subset s of base positions with α(a) ∧ ⋁s other
    than the join of α(a) ∧ x over x in s, in A's point order and then in
    `subsets` order, or None.  Both sides are read from subset-mask folds."""
    meet, join, bottom = ops.meet_index, ops.join_index, ops.bottom_index
    positions = range(len(obj.base.points))
    joins = mask_folds(join, bottom, positions)
    candidates = [(s, sum(1 << i for i in s)) for s in subsets(positions)]
    first = {}
    for a, x in enumerate(obj.alpha.positions):
        if x not in first:
            met = mask_folds(join, bottom, meet[x])
            first[x] = next((s for s, m in candidates if meet[x][joins[m]] != met[m]), None)
        if first[x] is not None:
            return a, first[x]
    return None


_MAX_QUOTIENT_POINTS = 3  # the collapse quotients cross-checked have at most this many points


def exponentiability_report(obj: LaxObject) -> ExponentiabilityReport:
    """Decide exponentiability by join preservation of meeting with each value.

    Over a (complete, since finite) lattice base the criterion is exact; the
    verdict is cross-validated against the extension exchange law on a family
    of collapse quotients, raising InternalInconsistency on disagreement.
    Over a meet-semilattice base that is not complete the verdict is
    unknown and labeled "sufficient-only".
    """
    base = obj.base
    report = lattice_report(base)
    if not report.is_meet_semilattice:
        raise NotALattice("exponentiability analysis needs at least binary meets")
    if not report.is_complete_lattice:
        # no top (a finite meet-semilattice with one is complete), so x => x is missing
        return ExponentiabilityReport(None, "sufficient-only", None, 0)

    ops = lattice_ops(base)
    failure = _join_preservation_failure(obj, ops)
    quotients = _CollapseQuotients(obj, ops)
    if failure is not None:
        # the targeted collapse quotient must reproduce the failure
        a, gamma = failure
        if quotients.law_holds(gamma):
            raise InternalInconsistency(
                "join-preservation failure not visible to the exchange law"
            )
        witness = (obj.space.points[a], tuple(base.points[g] for g in gamma))
        return ExponentiabilityReport(False, "definitive", witness, 1)
    checked = 0
    positions = range(len(base.points))
    # level by level: each γ extends γ without its last value, one level up
    for n in range(0, _MAX_QUOTIENT_POINTS + 1):
        for gamma in itertools.combinations_with_replacement(positions, n):
            checked += 1
            if not quotients.law_holds(gamma):
                raise InternalInconsistency(
                    "exchange law fails although all joins are preserved"
                )
    return ExponentiabilityReport(True, "definitive", None, checked)


# -- universal-property oracles --------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    ok: bool
    counterexample: object
    checked: int

    def __bool__(self):
        return self.ok


_TEST_SPACES = (
    FiniteSpace(("t0",), (0b1,)),
    FiniteSpace(("t0", "t1"), (0b11, 0b10)),  # t0 <= t1
    FiniteSpace(("t0", "t1"), (0b01, 0b10)),
)


def lax_objects_over(base: FiniteSpace, carriers) -> tuple:
    """Every lax object over the base carried by one of the carriers, in order."""
    return tuple(
        LaxObject(space, alpha) for space in carriers for alpha in enumerate_cmaps(space, base)
    )


def verify_product(objects, product: LaxProduct) -> OracleResult:
    """Every lax cone factors through the product by exactly one lax morphism."""
    objects = list(objects)
    obj = product.obj
    up, gamma = obj.base.up_masks, obj.alpha.positions
    projections = [p.underlying.positions for p in product.projections]
    budget = Budget("oracle candidate")
    checked = 0
    for cand in lax_objects_over(obj.base, _TEST_SPACES):
        alpha = cand.alpha.positions
        legs = [lax_hom(cand, o) for o in objects]
        for cone in itertools.product(*legs):
            checked += 1
            mediators, want = 0, [leg.underlying.positions for leg in cone]
            for m in _monotone_tables(cand.space, obj.space):
                budget.spend()
                if [tuple(p[j] for j in m) for p in projections] == want:
                    mediators += _lax_failure(alpha, gamma, m, up) is None
            if mediators != 1:
                return OracleResult(False, (cand, cone, mediators), checked)
    return OracleResult(True, None, checked)


def verify_coequalizer(f: LaxMorphism, g: LaxMorphism, coeq: LaxCoequalizer) -> OracleResult:
    """Every coequalizing lax cocone factors uniquely through the quotient."""
    obj = coeq.obj
    up, gamma = obj.base.up_masks, obj.alpha.positions
    q = coeq.quotient.underlying.positions
    pairs = list(zip(f.underlying.positions, g.underlying.positions))
    budget = Budget("oracle candidate")
    checked = 0
    for cand in lax_objects_over(obj.base, _TEST_SPACES):
        for h in lax_hom(f.target, cand):
            hu = h.underlying.positions
            if any(hu[i] != hu[j] for i, j in pairs):
                continue
            checked += 1
            factorizations = 0
            for u in _monotone_tables(obj.space, cand.space):
                budget.spend()
                if tuple(u[j] for j in q) == hu:
                    factorizations += _lax_failure(gamma, cand.alpha.positions, u, up) is None
            if factorizations != 1:
                return OracleResult(False, (cand, h.underlying, factorizations), checked)
    return OracleResult(True, None, checked)


def verify_exponential(a_obj: LaxObject, b_obj: LaxObject, expo: Exponential) -> OracleResult:
    """The mate correspondence is a bijection of hom-sets, both directions."""
    funcs = dict(expo.functions)
    by_point = [funcs[p].positions for p in expo.obj.space.points]  # read by label
    budget = Budget("oracle candidate")
    checked = 0
    for cand in lax_objects_over(a_obj.base, _TEST_SPACES):
        prod = lax_product([a_obj, cand])
        direct = {m.underlying.positions for m in lax_hom(prod.obj, b_obj)}
        budget.spend(len(direct))
        coords = list(zip(*(p.underlying.positions for p in prod.projections)))
        mates = set()
        for m in lax_hom(cand, expo.obj):
            budget.spend()  # the mate of m takes (a, c) to m(c)(a)
            mates.add(tuple(by_point[m.underlying.positions[c]][a] for a, c in coords))
        checked += 1
        if mates != direct:
            pts, values = prod.obj.space.points, b_obj.space.points
            tables = [tuple(zip(pts, (values[j] for j in t))) for t in mates ^ direct]
            return OracleResult(False, (cand, sorted(tables)), checked)
    return OracleResult(True, None, checked)


def verify_initial_lift(space: FiniteSpace, cone, lift: LaxObject) -> OracleResult:
    """h into the lift is lax exactly when all its cone composites are lax."""
    base = lift.base
    _check_cone(space, cone, base)
    up, lifted = base.up_masks, lift.alpha.positions
    composed = [[o.alpha.positions[j] for j in m.positions] for (m, o) in cone]  # β·m per leg
    budget = Budget("oracle candidate")
    checked = 0
    for cand in lax_objects_over(base, _TEST_SPACES):
        alpha = cand.alpha.positions
        for h in _monotone_tables(cand.space, space):
            budget.spend()
            checked += 1
            into_lift = _lax_failure(alpha, lifted, h, up) is None
            through_cone = all(_lax_failure(alpha, values, h, up) is None for values in composed)
            if into_lift != through_cone:
                return OracleResult(False, (cand, CMap(cand.space, space, h)), checked)
    return OracleResult(True, None, checked)


def verify_universal_property(kind: str, instance: dict) -> OracleResult:
    """Dispatch to the brute-force oracle for one construction kind."""
    if kind == "product":
        return verify_product(instance["objects"], instance["product"])
    if kind == "coequalizer":
        return verify_coequalizer(instance["f"], instance["g"], instance["coequalizer"])
    if kind == "exponential":
        return verify_exponential(instance["a"], instance["b"], instance["exponential"])
    if kind == "initial_lift":
        return verify_initial_lift(instance["space"], instance["cone"], instance["lift"])
    raise ValueError(f"unknown universal property kind {kind!r}")


# -- chain filtrations ------------------------------------------------------


@dataclass(frozen=True)
class Filtration:
    base: FiniteSpace
    space: FiniteSpace
    levels: tuple  # (base point, frozenset of space points), in base point order


def is_chain(space: FiniteSpace) -> bool:
    """T0, and every point comparable with every point: its up and down masks cover the space."""
    full = (1 << len(space.points)) - 1
    return space.is_t0() and all(u | d == full for u, d in zip(space.up_masks, space.down_masks))


def chain_filtration(direction: str, data):
    """Convert between a lax object over a chain and its level filtration."""
    if direction == "to":
        obj = data
        base = obj.base
        if not is_chain(base):
            raise NotAChain("filtrations require a chain base")
        fibres = obj.alpha.fibres  # the level at u holds the points whose value is above u
        levels = tuple(
            (u, frozenset(obj.space.points_at(_union(fibres, up))))
            for u, up in zip(base.points, base.up_masks)
        )
        return Filtration(base, obj.space, levels)
    if direction == "from":
        filt = data
        base = filt.base
        if not is_chain(base):
            raise NotAChain("filtrations require a chain base")
        levels = dict(filt.levels)
        if set(levels) != set(base.points):
            raise NotClosedLevel("filtration must assign a level to every base point")
        # the bottom is the point below every point; the empty chain has none and no points
        full = (1 << len(base.points)) - 1
        bottom = next((u for u, up in zip(base.points, base.up_masks) if up == full), None)
        if levels.get(bottom, frozenset()) != frozenset(filt.space.points):
            raise NotClosedLevel("bottom level must be the whole space")
        for u, s in levels.items():
            if not filt.space.is_up_closed(s):
                raise NotClosedLevel(f"level at {u!r} is not closed")
        for u in base.points:
            for v in base.points:
                if base.leq(u, v) and not levels[v] <= levels[u]:
                    raise NotClosedLevel("levels must decrease along the chain")
        table = {}
        for a in filt.space.points:
            hits = [u for u in base.points if a in levels[u]]
            table[a] = max(hits, key=lambda u: sum(1 for v in base.points if base.leq(v, u)))
        return lax_object(filt.space, base, table)
    raise ValueError(f"unknown direction {direction!r}")
