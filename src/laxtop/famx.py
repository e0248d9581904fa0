"""X-indexed families: the order-theoretic shadow of spaces over X.

An object is a family of base points indexed by a finite set; a morphism is
an index map that only moves values upward.  Forgetting the topology of a
lax object over X lands here, and descent questions about the original map
often reduce to join/meet conditions on the family values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import BaseMismatch, Budget, InternalInconsistency, NotALattice, UnknownLabel
from .finspace import FiniteSpace, _union, product_label
from .laxcomma import LaxMorphism, LaxObject
from .order import heyting_report, lattice_ops, lattice_report


@dataclass(frozen=True)
class FamObject:
    base: FiniteSpace
    index: tuple
    values: tuple  # (index element, base point) pairs, in index order

    def __post_init__(self):
        if tuple(i for (i, _) in self.values) != self.index:
            raise UnknownLabel(
                f"family values not total: they must cover the index {self.index!r} in order"
            )
        for (_, x) in self.values:
            if x not in self.base.points:
                raise BaseMismatch(f"family value {x!r} is not a base point")

    def value(self, i):
        return dict(self.values)[i]


def fam_object(base: FiniteSpace, values: dict) -> FamObject:
    idx = tuple(sorted(values))
    return FamObject(base, idx, tuple((i, values[i]) for i in idx))


@dataclass(frozen=True)
class FamMorphism:
    map: tuple  # (source index, target index) pairs, in source index order
    source: FamObject
    target: FamObject

    def __post_init__(self):
        if self.source.base != self.target.base:
            raise BaseMismatch("families live over different bases")
        if tuple(i for (i, _) in self.map) != self.source.index:
            raise UnknownLabel(
                f"family map not total: it must cover the index {self.source.index!r} in order"
            )
        base = self.source.base
        table = dict(self.map)
        for i in self.source.index:
            if table[i] not in self.target.index:
                raise BaseMismatch(f"index {i!r} maps outside the target index set")
            if not base.leq(self.source.value(i), self.target.value(table[i])):
                raise BaseMismatch(f"value at {i!r} is not below its image value")

    def __call__(self, i):
        return dict(self.map)[i]

    def fibre(self, j):
        return [i for (i, jj) in self.map if jj == j]


def fam_morphism(table: dict, source: FamObject, target: FamObject) -> FamMorphism:
    """The morphism of an index dict, listed in source index order; indices
    outside the source go last, so that FamMorphism rejects them."""
    rank = {i: k for k, i in enumerate(source.index)}
    pairs = sorted(table.items(), key=lambda pair: rank.get(pair[0], len(rank)))
    return FamMorphism(tuple(pairs), source, target)


def to_fam(arg):
    """Forget the topology of a lax object or morphism over X."""
    if isinstance(arg, LaxObject):
        return fam_object(arg.base, {a: arg.value(a) for a in arg.space.points})
    if isinstance(arg, LaxMorphism):
        return fam_morphism(
            dict(arg.underlying.table), to_fam(arg.source), to_fam(arg.target)
        )
    raise TypeError(f"cannot forget the topology of {type(arg).__name__}")


def fam_pullback(f: FamMorphism, g: FamMorphism):
    """Pullback of f and g over their common target: pairs with meet values.

    Returns (apex, projection along f's source, projection along g's source).
    """
    if f.target != g.target:
        raise BaseMismatch("pullback needs a common target family")
    base = f.source.base
    ops = lattice_ops(base)
    values = {}
    left = {}
    right = {}
    for i in f.source.index:
        for j in g.source.index:
            if f(i) == g(j):
                k = product_label((i, j))
                values[k] = ops.meet(f.source.value(i), g.source.value(j))
                left[k] = i
                right[k] = j
    apex = fam_object(base, values)
    return (
        apex,
        fam_morphism(left, apex, f.source),
        fam_morphism(right, apex, g.source),
    )


@dataclass(frozen=True)
class FamVerdict:
    verdict: object  # True / False
    witness: object
    mode: str = "definitive"

    def __bool__(self):
        return self.verdict is True


def first_unrecovered(ops, bound, values):
    """The all-w condition: the first position w below the position bound,
    in base point order, that is not the join of its meets with the values
    in the position mask values; None when there is none."""
    below = ops.space.down_masks[bound]
    for w, meets in enumerate(ops.meet_index):  # the join of the meets is that of their mask
        if below >> w & 1 and ops.join_mask(_union([1 << m for m in meets], values)) != w:
            return w
    return None


def fam_descent_check(f: FamMorphism) -> FamVerdict:
    """Descent: every w below a target value is recovered from fibre meets."""
    base = f.source.base
    if not lattice_report(base).is_complete_lattice:
        raise NotALattice("descent analysis needs a complete lattice base")
    ops, index = lattice_ops(base), base.index
    for j, y in f.target.values:
        values = sum({1 << index[f.source.value(i)] for i in f.fibre(j)})
        w = first_unrecovered(ops, index[y], values)
        if w is not None:
            return FamVerdict(False, (j, base.points[w]))
    return FamVerdict(True, None)


def _fibre_effective(ops, fibre):
    """Check every compatible sub-family theta splits off a single bundle.

    fibre lists the base positions x_i of the values; theta ranges over
    choices theta_i <= x_i, in base point order, with x_{i'} ^ theta_i =
    theta_{i'} ^ x_i for all pairs; each must satisfy
    theta_i = x_i ^ (join of all theta).  Returns (ok, witness theta),
    the witness as positions.
    """
    meet, down = ops.meet_index, ops.space.down_masks
    downs = [[z for z in range(len(down)) if down[x] >> z & 1] for x in fibre]
    Budget("theta candidate").spend(math.prod(len(d) for d in downs))
    for theta in itertools.product(*downs):
        compatible = all(
            meet[x][t] == meet[s][y]
            for x, s in zip(fibre, theta)
            for y, t in zip(fibre, theta)
        )
        if not compatible:
            continue
        big = ops.join_mask(sum({1 << t for t in theta}))
        if any(t != meet[x][big] for x, t in zip(fibre, theta)):
            return False, theta
    return True, None


def fam_effective_descent_check(f: FamMorphism) -> FamVerdict:
    """Effective descent: descent plus per-fibre splitting of descent data.

    Over a frame base, descent already implies effectiveness and the verdict
    is the descent verdict; otherwise each codomain fibre is checked by
    exhaustive enumeration of compatible sub-families ("reconstructed"
    criterion), cross-validated against the shortcut whenever both apply.
    """
    descent = fam_descent_check(f)
    if not descent:
        return FamVerdict(False, descent.witness)
    base = f.source.base
    is_frame = heyting_report(base).is_heyting
    if is_frame:
        shortcut = FamVerdict(True, None, mode="frame-shortcut")
    ops, index = lattice_ops(base), base.index
    witness = None
    for j in f.target.index:
        ok, theta = _fibre_effective(ops, [index[f.source.value(i)] for i in f.fibre(j)])
        if not ok:
            witness = (j, tuple(zip(f.fibre(j), (base.points[t] for t in theta))))
            break
    reconstructed = FamVerdict(witness is None, witness, mode="reconstructed")
    if is_frame:
        if bool(reconstructed) != bool(shortcut):
            raise InternalInconsistency(
                "fibre enumeration contradicts the frame shortcut"
            )
        return shortcut
    return reconstructed
