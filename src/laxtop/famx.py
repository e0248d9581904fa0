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
from functools import cached_property

from .errors import BaseMismatch, Budget, InternalInconsistency, NotALattice, UnknownLabel
from .finspace import FiniteSpace, _fibres, _union, product_label
from .laxcomma import LaxMorphism, LaxObject
from .order import heyting_report, lattice_ops, lattice_report


@dataclass(frozen=True)
class FamObject:
    """The base position of each index element, in index order (sorted, as
    ``fam_object`` lists it); ``values``, the label pairs, is built on first use."""

    base: FiniteSpace
    index: tuple
    positions: tuple

    def __post_init__(self):
        if len(self.positions) != len(self.index):
            raise UnknownLabel(
                f"family values not total: they must cover the index {self.index!r} in order"
            )
        for x in self.positions:
            if not 0 <= x < len(self.base.points):
                raise BaseMismatch(f"family value {x!r} is not a base point")

    values = cached_property(lambda self: tuple(
        (i, self.base.points[x]) for i, x in zip(self.index, self.positions)
    ))


def fam_object(base: FiniteSpace, values: dict) -> FamObject:
    idx = tuple(sorted(values))
    for i in idx:
        if values[i] not in base.points:
            raise BaseMismatch(f"family value {values[i]!r} is not a base point")
    return FamObject(base, idx, tuple(base.index[values[i]] for i in idx))


@dataclass(frozen=True)
class FamMorphism:
    """The target index position of each source index element, in source index
    order (-1 outside the target index); ``fibres`` is built as in ``CMap``."""

    source: FamObject
    target: FamObject
    positions: tuple

    def __post_init__(self):
        if self.source.base != self.target.base:
            raise BaseMismatch("families live over different bases")
        if len(self.positions) != len(self.source.index):
            raise UnknownLabel(
                f"family map not total: it must cover the index {self.source.index!r} in order"
            )
        up, values = self.source.base.up_masks, self.target.positions
        for i, x, j in zip(self.source.index, self.source.positions, self.positions):
            if not 0 <= j < len(values):
                raise BaseMismatch(f"index {i!r} maps outside the target index set")
            if not up[x] >> values[j] & 1:
                raise BaseMismatch(f"value at {i!r} is not below its image value")

    fibres = cached_property(lambda self: _fibres(self.positions, len(self.target.index)))


def fam_morphism(table: dict, source: FamObject, target: FamObject) -> FamMorphism:
    """The morphism of an index dict.  An image outside the target index is
    carried as -1, and a table that does not cover exactly the source index
    as one position too many, so that FamMorphism rejects both in order."""
    if len(table) != len(source.index) or table.keys() != set(source.index):
        return FamMorphism(source, target, (-1,) * (len(source.index) + 1))
    at = {j: k for k, j in enumerate(target.index)}
    images = (table[i] for i in source.index)
    return FamMorphism(source, target, tuple(at[j] if j in target.index else -1 for j in images))


def to_fam(arg):
    """Forget the topology of a lax object or morphism over X."""
    if isinstance(arg, LaxObject):
        return fam_object(arg.base, arg.alpha.image)
    if isinstance(arg, LaxMorphism):
        return fam_morphism(arg.underlying.image, to_fam(arg.source), to_fam(arg.target))
    raise TypeError(f"cannot forget the topology of {type(arg).__name__}")


def fam_pullback(f: FamMorphism, g: FamMorphism):
    """Pullback of f and g over their common target: pairs with meet values,
    listed in the order of their product labels.

    Returns (apex, projection along f's source, projection along g's source).
    """
    if f.target != g.target:
        raise BaseMismatch("pullback needs a common target family")
    base = f.source.base
    meet = lattice_ops(base).meet_index
    pairs = sorted(
        (product_label((i, j)), a, b)
        for a, (i, fi) in enumerate(zip(f.source.index, f.positions))
        for b, (j, gj) in enumerate(zip(g.source.index, g.positions))
        if fi == gj
    )
    x, y = f.source.positions, g.source.positions
    apex = FamObject(
        base, tuple(k for k, _, _ in pairs), tuple(meet[x[a]][y[b]] for _, a, b in pairs)
    )
    return (
        apex,
        FamMorphism(apex, f.source, tuple(a for _, a, _ in pairs)),
        FamMorphism(apex, g.source, tuple(b for _, _, b in pairs)),
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
    ops, bits = lattice_ops(base), [1 << x for x in f.source.positions]
    for j, y, fibre in zip(f.target.index, f.target.positions, f.fibres):
        w = first_unrecovered(ops, y, _union(bits, fibre))
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
    ops, source = lattice_ops(base), f.source
    witness = None
    for j, fibre in zip(f.target.index, f.fibres):
        members = [a for a in range(len(source.index)) if fibre >> a & 1]
        ok, theta = _fibre_effective(ops, [source.positions[a] for a in members])
        if not ok:
            witness = (j, tuple((source.index[a], base.points[t]) for a, t in zip(members, theta)))
            break
    reconstructed = FamVerdict(witness is None, witness, mode="reconstructed")
    if is_frame:
        if bool(reconstructed) != bool(shortcut):
            raise InternalInconsistency(
                "fibre enumeration contradicts the frame shortcut"
            )
        return shortcut
    return reconstructed
