"""The lower Vietoris construction on finite spaces.

V(Z) carries the closed subsets of Z with the hit topology; its natural
order is reverse containment.  Closure-of-point and union make V a monad,
and its algebras are exactly the spaces whose natural order has all meets
with a continuous meet assignment -- on finite T0 spaces, the complete
lattices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Budget, InternalInconsistency, NotT0
from .finspace import CMap, FiniteSpace, cmap, label_part
from .order import require_meets


def set_label(members, point_order) -> str:
    """The members in point order, as in "{a,b}"; see ``label_part``."""
    return "{" + ",".join(label_part(p) for p in point_order if p in members) + "}"


@dataclass(frozen=True)
class VietorisSpace:
    base: FiniteSpace
    space: FiniteSpace
    members: tuple  # (label, frozenset of base points) pairs, in point order

    def subset(self, label):
        return dict(self.members)[label]

    def label_of(self, subset):
        return set_label(subset, self.base.points)


def vietoris_space(base: FiniteSpace, check_topology: bool = True) -> VietorisSpace:
    """Closed subsets under reverse containment; hit topology cross-checked.

    The hit topology (generated by {A : A meets W}, W open) is verified to
    induce exactly reverse containment: each subbasic set must be down-closed
    for that order, and each principal down-set must be an intersection of
    subbasic sets.
    """
    closed = base.closed_sets()
    Budget("Vietoris order").spend(len(closed) ** 2)
    labels = tuple(set_label(c, base.points) for c in closed)
    rows = tuple(sum(1 << j for j, d in enumerate(closed) if c >= d) for c in closed)
    space = FiniteSpace(labels, rows, provenance="order")
    if check_topology:
        _check_hit_topology(base, space, dict(zip(labels, closed)))
    return VietorisSpace(base, space, tuple(zip(labels, closed)))


def _check_hit_topology(base, space, by_label):
    hits = {
        w: frozenset(l for l, c in by_label.items() if c & w)
        for w in base.open_sets()
    }
    for hit in hits.values():
        if not space.is_down_closed(hit):
            raise InternalInconsistency("a hit set is not open for reverse containment")
    all_labels = frozenset(by_label)
    for label, c in by_label.items():
        principal = frozenset(l for l in by_label if space.leq(l, label))
        inter = all_labels
        for z in c:
            inter &= hits[frozenset(base.down(z))]
        if inter != principal:
            raise InternalInconsistency(
                "hit topology does not generate reverse containment"
            )


def vietoris_functor_map(f: CMap) -> CMap:
    """V(f): closed A goes to the closure of its image."""
    vs = vietoris_space(f.source, check_topology=False)
    vt = vietoris_space(f.target, check_topology=False)
    table = {
        label: vt.label_of(f.target.up_closure(f(a) for a in subset))
        for label, subset in vs.members
    }
    return cmap(vs.space, vt.space, table)


@dataclass(frozen=True)
class VietorisMonad:
    base: FiniteSpace
    v: VietorisSpace
    vv: VietorisSpace
    unit: CMap  # base -> V
    mult: CMap  # VV -> V
    associativity_checked: bool


def vietoris_monad(base: FiniteSpace) -> VietorisMonad:
    """Unit = closure of a point, multiplication = union; laws verified."""
    v = vietoris_space(base)
    unit = cmap(
        base, v.space, {z: v.label_of(base.up_closure([z])) for z in base.points}
    )
    vv = vietoris_space(v.space, check_topology=False)
    mult_table = {}
    for label, family in vv.members:
        union = frozenset().union(*(v.subset(l) for l in family))
        mult_table[label] = v.label_of(union)
    mult = cmap(vv.space, v.space, mult_table)

    # left unit: mult . e_V = id on V
    unit_v = cmap(
        v.space, vv.space, {l: vv.label_of(v.space.up_closure([l])) for l in v.space.points}
    )
    # right unit: mult . V(e) = id on V
    v_unit = cmap(
        v.space,
        vv.space,
        {
            label: vv.label_of(
                v.space.up_closure(unit(z) for z in subset)
            )
            for label, subset in v.members
        },
    )
    for l in v.space.points:
        if mult(unit_v(l)) != l or mult(v_unit(l)) != l:
            raise InternalInconsistency("a unit law fails for the Vietoris monad")

    associativity_checked = False
    if len(vv.space.points) <= _TRIPLE_LAYER_CAP:
        vvv = vietoris_space(vv.space, check_topology=False)
        for label, bigfamily in vvv.members:
            # flatten inside VV first, then apply mult
            flat = frozenset().union(*(vv.subset(l) for l in bigfamily))
            path1 = mult(vv.label_of(flat))
            # apply V(mult) first, then mult
            image = v.space.up_closure(mult(l) for l in bigfamily)
            path2 = mult(vv.label_of(image))
            if path1 != path2:
                raise InternalInconsistency("associativity fails for the Vietoris monad")
        associativity_checked = True
    return VietorisMonad(base, v, vv, unit, mult, associativity_checked)


_TRIPLE_LAYER_CAP = 24  # VV sizes above this skip the associativity sweep


@dataclass(frozen=True)
class AlgebraCheck:
    ok: bool
    structure: CMap  # V(base) -> base, the meet-of-members map
    witness: object
    v: VietorisSpace  # V(base), built and hit-topology checked once

    def __bool__(self):
        return self.ok


def vietoris_algebra_check(base: FiniteSpace) -> AlgebraCheck:
    """Test whether taking meets of closed sets is a monad-algebra structure.

    The unit law forces the candidate a(A) = meet of A (top on the empty
    set); the verdict is whether that map exists, is continuous, and
    satisfies both algebra laws.
    """
    if not base.is_t0():
        raise NotT0("algebra analysis needs a T0 space")
    # meets first: a non-lattice fails here, before the double powerset
    table = {
        set_label(c, base.points): require_meets(base, c) for c in base.closed_sets()
    }
    monad = vietoris_monad(base)
    v, vv = monad.v, monad.vv
    structure = cmap(v.space, base, table)
    for z in base.points:
        if structure(monad.unit(z)) != z:
            return AlgebraCheck(False, structure, ("unit", z), v)
    # V(a): a family of closed sets goes to the closure of its meets
    v_structure = cmap(
        vv.space,
        v.space,
        {
            label: v.label_of(base.up_closure(structure(l) for l in family))
            for label, family in vv.members
        },
    )
    for label, family in vv.members:
        via_mult = structure(monad.mult(label))
        via_va = structure(v_structure(label))
        if via_mult != via_va:
            return AlgebraCheck(False, structure, ("associativity", label), v)
    return AlgebraCheck(True, structure, None, v)
