"""Maps stored as target positions against the label tables they replaced.

``ReferenceCMap`` below is the map that stored its (point, image) label
pairs as its value and built the image dict in ``__post_init__``;
``reference_cmap`` validated a point dict with the label-coded monotonicity
test and composed maps through ``mapping``.  The label-coded helpers of the
descent sweep (the codes of ``_lax_triples``, ``_ValueMasks`` and the
fibres and lifted pairs the sweeps read) are kept too, fed the label-coded
lifted pairs of ``reference_pair_lifts``.  The position-coded code must give
equal maps, hashes, reprs, tables and verdicts, raise the same exceptions
with the same messages, and feed the sweep the same triples and masks, on
both orders of every pair of labeled preorders on at most 3 points and of
every labeled 4-point poset paired with such a preorder.
"""

import dataclasses
import itertools
from dataclasses import dataclass, field

import pytest

from laxtop import spaces
from laxtop.descent import _pair_lifts
from laxtop.enumeration import enumerate_labeled_posets, enumerate_labeled_preorders
from laxtop.errors import LaxtopError, NotContinuous, UnknownLabel
from laxtop.finspace import (
    CMap,
    FiniteSpace,
    _monotone_tables,
    build_space,
    cmap,
    enumerate_cmaps,
    is_continuous,
    is_monotone,
)
from laxtop.harness import (
    _lax_triples,
    _ValueMasks,
    lattice_bases,
    posets_up_to,
)
from test_descent_reference import lower_ends, reference_pair_lifts

PREORDERS = [s for n in range(4) for s in enumerate_labeled_preorders(n)]
REVERSED = [build_space(s.points[::-1], order=s.le) for s in PREORDERS]  # points out of label order
POSETS = list(enumerate_labeled_posets(4))
STRAY = "zz"  # a label outside every space


# -- the replaced code -------------------------------------------------------


@dataclass(frozen=True)
class ReferenceCMap:
    source: FiniteSpace
    target: FiniteSpace
    table: tuple
    image: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "image", dict(self.table))

    @property
    def mapping(self) -> dict:
        return dict(self.table)

    def __call__(self, x):
        try:
            return self.image[x]
        except (KeyError, TypeError):
            raise UnknownLabel(f"point {x!r} not in source of map") from None

    def is_surjective(self) -> bool:
        return set(v for (_, v) in self.table) == set(self.target.points)

    def compose(self, other):
        if other.target is not self.source and other.target != self.source:
            raise NotContinuous("composition mismatch")
        m = self.mapping
        return reference_cmap(other.source, self.target, {p: m[v] for (p, v) in other.table})

    def __repr__(self):
        return f"CMap({dict(self.table)!r})"


def reference_total_table(table, source, target):
    table = dict(table)
    source.check_labels(table.keys())
    target.check_labels(table.values())
    if set(table) != set(source.points):
        missing = sorted(set(source.points) - set(table))
        raise UnknownLabel(f"map table not total, missing {missing}")
    return table


def reference_monotone(table, source, target):
    image = [target.index[table[p]] for p in source.points]
    return is_monotone(image, source.up_masks, target.up_masks)


def reference_cmap(source, target, table):
    table = reference_total_table(table, source, target)
    if not reference_monotone(table, source, target):
        raise NotContinuous(f"map {table} is not monotone")
    return ReferenceCMap(source, target, tuple((p, table[p]) for p in source.points))


def reference_is_continuous(table, source, target):
    return reference_monotone(reference_total_table(table, source, target), source, target)


def reference_codes(maps, base):
    """The codes _lax_triples gave each map into the base, one bit per (point, value)."""
    width, index = len(base.points), base.index
    return [sum(1 << index[v] << k * width for k, (_, v) in enumerate(m.table)) for m in maps]


def reference_lax_triples(base, carriers):
    width = len(base.points)
    index, down = base.index, base.down_masks
    into_base = [enumerate_cmaps(sp, base) for sp in carriers]
    codes_of = [reference_codes(maps, base) for maps in into_base]
    for a_sp, alphas, codes in zip(carriers, into_base, codes_of):
        for b_sp, betas in zip(carriers, into_base):
            for f in enumerate_cmaps(a_sp, b_sp):
                lifts = reference_pair_lifts(f)
                over = [f.image[a] for a in a_sp.points]
                for beta in betas:
                    bound = sum(
                        down[index[beta.image[b]]] << k * width for k, b in enumerate(over)
                    )
                    for alpha, code in zip(alphas, codes):
                        if code & bound == code:
                            yield f, alpha, beta, lifts


class ReferenceValueMasks(dict):
    def __init__(self, base):
        super().__init__()
        self.index = base.index

    def __missing__(self, table):
        out = [0]
        for (_, v) in table:
            bit = 1 << self.index[v]
            out += [m | bit for m in out]
        self[table] = out
        return out


def reference_lifted_positions(f, lifts):
    position, target = f.source.index, f.target.index
    fibres = [0] * len(target)
    for k, (_, b) in enumerate(f.table):
        fibres[target[b]] |= 1 << k
    lifted = []
    for (b1, _), pairs in lifts.items():
        over = 0
        for (a1, _) in pairs:
            over |= 1 << position[a1]
        lifted.append((target[b1], over))
    return fibres, lifted


# -- the comparisons ---------------------------------------------------------


def _map_pairs():
    """Both orders of every pair of spaces on at most 3 points, also with
    their points listed in reverse, and of a 4-point poset with a space on
    at most 3 points."""
    yield from itertools.product(PREORDERS, repeat=2)
    yield from itertools.product(REVERSED, repeat=2)
    for big, s in itertools.product(POSETS, PREORDERS):
        yield big, s
        yield s, big


def _outcome(build, *args):
    """What build returns, or the class and message of the error it raises."""
    try:
        return build(*args)
    except LaxtopError as exc:
        return type(exc), str(exc)


def _same_map(new, old):
    assert isinstance(new, CMap) and isinstance(old, ReferenceCMap)
    assert (new.source, new.target, new.table, new.image, repr(new), new.is_surjective()) == (
        old.source, old.target, old.table, old.image, repr(old), old.is_surjective()
    )


def test_fields_are_the_positions_and_the_tables_are_built_on_first_use():
    assert [f.name for f in dataclasses.fields(CMap)] == ["source", "target", "positions"]
    f = cmap(spaces.chain(2), spaces.chain(3), {"1": "2", "0": "1"})
    assert f.positions == (1, 2)
    assert "table" not in vars(f) and "image" not in vars(f)
    assert f.table == (("0", "1"), ("1", "2")) and f.table is f.table
    assert f.image is f.image


def reference_enumerate_cmaps(source, target):
    """The maps enumerate_cmaps listed, wrapped around label tables."""
    values = target.points
    return [
        ReferenceCMap(source, target, tuple(zip(source.points, (values[j] for j in row))))
        for row in _monotone_tables(source, target)
    ]


def test_listed_and_built_maps_match_the_label_tables():
    pairs = maps = 0
    for source, target in _map_pairs():
        pairs += 1
        listed = enumerate_cmaps(source, target)
        old = reference_enumerate_cmaps(source, target)
        assert len(listed) == len(old)
        for m, ref in zip(listed, old):
            _same_map(m, ref)
            built = cmap(source, target, dict(reversed(ref.table)))
            assert built == m and hash(built) == hash(m)
        assert len(set(listed)) == len(listed)
        maps += len(listed)
        for table in _non_monotone_tables(source, target):
            assert not reference_is_continuous(table, source, target)
            assert not is_continuous(table, source, target)
            new = _outcome(cmap, source, target, table)
            assert new == _outcome(reference_cmap, source, target, table)
            assert new[0] is NotContinuous
        for bad in _malformed_tables(source, target):
            assert _outcome(cmap, source, target, bad) == _outcome(
                reference_cmap, source, target, bad
            )
            assert _outcome(is_continuous, bad, source, target) == _outcome(
                reference_is_continuous, bad, source, target
            )
    assert pairs == 2 * 35 * 35 + 2 * 219 * 35
    assert maps == 312918 + 11345


def _non_monotone_tables(source, target):
    """Point dicts of non-monotone maps, given in reverse point order: every
    one between spaces on at most 3 points, the first and the last in
    product order otherwise."""
    def non_monotone(values_in_order):
        for values in itertools.product(values_in_order, repeat=len(source.points)):
            table = dict(zip(reversed(source.points), reversed(values)))
            if not reference_monotone(table, source, target):
                yield table

    if len(source.points) < 4 and len(target.points) < 4:
        return list(non_monotone(target.points))
    ends = (next(non_monotone(order), None) for order in (target.points, target.points[::-1]))
    return [table for table in ends if table is not None]


def _malformed_tables(source, target):
    """A stray point, a stray point with a stray value, a stray value and a
    missing point, where there is one."""
    first = dict(zip(source.points, itertools.repeat(target.points[0]))) if target.points else {}
    yield {**first, STRAY: next(iter(target.points), STRAY)}
    yield {**first, STRAY: STRAY + "2"}
    if source.points:
        yield {**first, source.points[-1]: STRAY}
        yield dict(list(first.items())[1:])


def test_composites_match_composition_through_the_label_tables():
    composed = 0
    for a, b in itertools.product(PREORDERS, repeat=2):
        there, old_there = enumerate_cmaps(a, b), reference_enumerate_cmaps(a, b)
        for g, old_g in zip(enumerate_cmaps(b, a), reference_enumerate_cmaps(b, a)):
            for f, old_f in zip(there, old_there):
                _same_map(g.compose(f), old_g.compose(old_f))
                composed += 1
        if there and a != b:
            f, old_f = there[0], old_there[0]
            assert _outcome(f.compose, f) == _outcome(old_f.compose, old_f)
    assert composed > 1000


SWEEP_BASES = [spaces.sierpinski()] + list(lattice_bases(3))


@pytest.mark.parametrize("base", SWEEP_BASES, ids=repr)
def test_the_sweep_reads_the_same_triples_and_masks(base):
    carriers = posets_up_to(3)
    fast = list(_lax_triples(base, carriers))
    slow = list(reference_lax_triples(base, carriers))
    assert len(fast) == len(slow) > 0
    for got, want in zip(fast, slow):
        assert got[:3] == want[:3]
        assert list(got[3].items()) == list(lower_ends(want[0], want[3]).items())
    masks, old_masks = _ValueMasks(), ReferenceValueMasks(base)
    for carrier in carriers:
        for alpha in enumerate_cmaps(carrier, base):
            assert masks[alpha.positions] == old_masks[alpha.table]


def test_lifted_positions_match_on_every_map_between_carriers():
    for a, b in itertools.product(posets_up_to(3), repeat=2):
        for f in enumerate_cmaps(a, b):
            want = reference_lifted_positions(f, reference_pair_lifts(f))
            lifted = [(j1, lower) for (j1, _), lower in _pair_lifts(f).items()]
            assert (list(f.fibres), lifted) == want
