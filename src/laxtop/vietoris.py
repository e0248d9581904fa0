"""The lower Vietoris construction on finite spaces.

V(Z) carries the closed subsets of Z with the hit topology; its natural
order is reverse containment.  Closure-of-point and union make V a monad,
and its algebras are exactly the spaces whose natural order has all meets
with a continuous meet assignment -- on finite T0 spaces, the complete
lattices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import Budget, InternalInconsistency, NotT0
from .finspace import CMap, FiniteSpace, _closed_masks, _union, label_part
from .order import require_meets


def set_label(members, point_order) -> str:
    """The members in point order, as in "{a,b}"; see ``label_part``."""
    return "{" + ",".join(label_part(p) for p in point_order if p in members) + "}"


@dataclass(frozen=True)
class VietorisSpace:
    """V(base): point k of ``space`` is the closed set whose mask is ``closed[k]``,
    in ``closed_sets()`` order.  Built on first use: ``position``, each mask's
    point position, and ``members``, the (label, frozenset of points) pairs."""

    base: FiniteSpace
    space: FiniteSpace
    closed: tuple

    position = cached_property(lambda self: {c: k for k, c in enumerate(self.closed)})
    members = cached_property(lambda self: tuple(
        (l, frozenset(self.base.points_at(c))) for l, c in zip(self.space.points, self.closed)
    ))


def vietoris_space(base: FiniteSpace, check_topology: bool = True) -> VietorisSpace:
    """Closed subsets under reverse containment; hit topology cross-checked.

    The hit topology (generated by {A : A meets W}, W open) is verified to
    induce exactly reverse containment: each subbasic set must be down-closed
    for that order, and each principal down-set must be an intersection of
    subbasic sets.
    """
    closed = _closed_masks(base)
    Budget("Vietoris order").spend(len(closed) ** 2)
    labels = tuple(set_label(base.points_at(c), base.points) for c in closed)
    rows = tuple(sum(1 << j for j, d in enumerate(closed) if c & d == d) for c in closed)
    space = FiniteSpace(labels, rows, provenance="order")
    if check_topology:
        _check_hit_topology(base, space, closed)
    return VietorisSpace(base, space, closed)


def _check_hit_topology(base, space, closed):
    full = (1 << len(base.points)) - 1
    hits = {  # each open mask w, and the mask of the closed sets that meet it
        w: sum(1 << k for k, c in enumerate(closed) if c & w)
        for w in (full ^ c for c in closed)
    }
    down = space.down_masks
    for hit in hits.values():
        if _union(down, hit) != hit:
            raise InternalInconsistency("a hit set is not open for reverse containment")
    for c, principal in zip(closed, down):
        inter = (1 << len(closed)) - 1
        for z, row in enumerate(base.down_masks):
            if c >> z & 1:
                inter &= hits[row]
        if inter != principal:
            raise InternalInconsistency(
                "hit topology does not generate reverse containment"
            )


def _closure_map(source: VietorisSpace, target: VietorisSpace, image) -> CMap:
    """The map taking closed c to the closure of the image[a], a in c; closure
    and union are monotone, so the map is continuous."""
    bits, up, at = [1 << j for j in image], target.base.up_masks, target.position
    closures = (at[_union(up, _union(bits, c))] for c in source.closed)
    return CMap(source.space, target.space, tuple(closures))


def vietoris_functor_map(f: CMap) -> CMap:
    """V(f): closed A goes to the closure of its image."""
    vs = vietoris_space(f.source, check_topology=False)
    vt = vietoris_space(f.target, check_topology=False)
    return _closure_map(vs, vt, f.positions)


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
    unit = CMap(base, v.space, tuple(v.position[up] for up in base.up_masks))
    vv = vietoris_space(v.space, check_topology=False)
    mult = CMap(vv.space, v.space, tuple(v.position[_union(v.closed, c)] for c in vv.closed))

    # left unit: mult . e_V = id on V; right unit: mult . V(e) = id on V
    unit_v = CMap(v.space, vv.space, tuple(vv.position[up] for up in v.space.up_masks))
    v_unit = _closure_map(v, vv, unit.positions)
    for l, (left, right) in enumerate(zip(unit_v.positions, v_unit.positions)):
        if mult.positions[left] != l or mult.positions[right] != l:
            raise InternalInconsistency("a unit law fails for the Vietoris monad")

    associativity_checked = False
    if len(vv.space.points) <= _TRIPLE_LAYER_CAP:
        vvv = vietoris_space(vv.space, check_topology=False)
        # flatten inside VV first, then apply mult; or apply V(mult) first, then mult
        v_mult = _closure_map(vvv, vv, mult.positions)
        for c, image in zip(vvv.closed, v_mult.positions):
            if mult.positions[vv.position[_union(vv.closed, c)]] != mult.positions[image]:
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
    set); the verdict is whether that map exists and satisfies both algebra
    laws.  It is continuous whenever it exists.
    """
    if not base.is_t0():
        raise NotT0("algebra analysis needs a T0 space")
    # meets first: a non-lattice fails here, before the double powerset
    meets = [require_meets(base, base.points_at(c)) for c in _closed_masks(base)]
    monad = vietoris_monad(base)
    v, vv = monad.v, monad.vv
    # a larger closed set has a lower meet
    structure = CMap(v.space, base, tuple(base.index[m] for m in meets))
    a = structure.positions
    for z, u in enumerate(monad.unit.positions):
        if a[u] != z:
            return AlgebraCheck(False, structure, ("unit", base.points[z]), v)
    # V(a): a family of closed sets goes to the closure of its meets
    v_structure = _closure_map(vv, v, a)
    for k, (m, image) in enumerate(zip(monad.mult.positions, v_structure.positions)):
        if a[m] != a[image]:
            return AlgebraCheck(False, structure, ("associativity", vv.space.points[k]), v)
    return AlgebraCheck(True, structure, None, v)
