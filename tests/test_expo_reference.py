"""The exponentiability cross-check on index tables against the code it replaced.

The reference below is the replaced quotient loop of
`exponentiability_report` and its `_lan_commutation_holds`, which built each
collapse quotient, the products A x C and A x Q and every map between them
as checked spaces and maps with string labels.  The table version must give
the same report (verdict, witness, mode, quotients checked) on every lax
object with a carrier of at most 2 points over every lattice base of at most
5 points (N5 and M3 take the witness path) and with a 3-point carrier over
every lattice base of at most 4 points, and the same three values at each
point of A x Q on every quotient it checks and on quotients onto posets.
"""

import itertools

import pytest

from laxtop.errors import InternalInconsistency, LaxtopError
from laxtop.finspace import build_space, cmap, product_space, subsets
from laxtop.harness import lattice_bases, lax_objects_over, posets_up_to
from laxtop.laxcomma import (
    ExponentiabilityReport,
    _exchange_law_holds,
    _exchange_routes,
    exponentiability_report,
    lan_extension,
)
from laxtop.order import heyting_report, lattice_ops, lattice_report


def _lan_commutation_holds(a_obj, gamma, q):
    """Check both routes of the product/extension exchange law on one quotient."""
    base = a_obj.base
    ops = lattice_ops(base)
    a_space = a_obj.space
    left_factor = lan_extension(gamma, q, verify=False)
    prod_c = product_space([a_space, gamma.source])
    prod_q = product_space([a_space, q.target])
    pairs_c = [(lab, tuple(m(lab) for m in prod_c.maps)) for lab in prod_c.space.points]
    label_q = {tuple(m(lab) for m in prod_q.maps): lab for lab in prod_q.space.points}
    meet_c = cmap(
        prod_c.space, base, {lab: ops.meet(a_obj.value(a), gamma(c)) for lab, (a, c) in pairs_c}
    )
    one_times_q = cmap(
        prod_c.space, prod_q.space, {lab: label_q[a, q(c)] for lab, (a, c) in pairs_c}
    )
    rhs = lan_extension(meet_c, one_times_q, verify=False)
    for a in a_space.points:
        for y in q.target.points:
            lhs_val = ops.meet(a_obj.value(a), left_factor(y))
            if lhs_val != rhs(label_q[a, y]):
                return False
            # pointwise identity: meeting before or after the inner join agrees
            opens_at_y = [v for v in q.target.open_sets() if y in v]
            outer1 = ops.meet_of(
                ops.meet(
                    a_obj.value(a),
                    ops.join_of(gamma(c) for c in gamma.source.points if q(c) in v),
                )
                for v in opens_at_y
            )
            outer2 = ops.meet_of(
                ops.join_of(
                    ops.meet(a_obj.value(a), gamma(c))
                    for c in gamma.source.points
                    if q(c) in v
                )
                for v in opens_at_y
            )
            if (outer1 == outer2) != (lhs_val == rhs(label_q[a, y])):
                raise InternalInconsistency(
                    "pointwise exchange identity disagrees with the extension route"
                )
    return True


def _discrete_space(n):
    pts = tuple(f"c{i}" for i in range(n))
    return build_space(pts, order=())


def reference_report(obj):
    base = obj.base
    report = lattice_report(base)
    assert report.is_complete_lattice
    ops = lattice_ops(base)
    witness = next(
        (
            (a, s)
            for (a, x) in obj.alpha.table
            for s in subsets(base.points)
            if ops.meet(x, ops.join_of(s)) != ops.join_of(ops.meet(x, e) for e in s)
        ),
        None,
    )
    verdict = witness is None

    point = _discrete_space(1)
    checked = 0
    if witness is not None:
        a, s = witness
        disc = _discrete_space(len(s))
        q = cmap(disc, point, {p: "c0" for p in disc.points})
        gamma = cmap(disc, base, dict(zip(disc.points, s)))
        checked += 1
        if _lan_commutation_holds(obj, gamma, q):
            raise InternalInconsistency(
                "join-preservation failure not visible to the exchange law"
            )
    else:
        for n in range(0, 3 + 1):
            disc = _discrete_space(n)
            q = cmap(disc, point, {p: "c0" for p in disc.points})
            for gamma_vals in itertools.combinations_with_replacement(base.points, n):
                gamma = cmap(disc, base, dict(zip(disc.points, gamma_vals)))
                checked += 1
                if not _lan_commutation_holds(obj, gamma, q):
                    raise InternalInconsistency(
                        "exchange law fails although all joins are preserved"
                    )
    return ExponentiabilityReport(verdict, "definitive", witness, checked)


def reference_routes(a_obj, gamma, q):
    """The three values the reference compares at each (a, y), in A x Q order."""
    ops = lattice_ops(a_obj.base)
    left_factor = lan_extension(gamma, q, verify=False)
    prod_c = product_space([a_obj.space, gamma.source])
    prod_q = product_space([a_obj.space, q.target])
    pairs_c = [(lab, tuple(m(lab) for m in prod_c.maps)) for lab in prod_c.space.points]
    label_q = {tuple(m(lab) for m in prod_q.maps): lab for lab in prod_q.space.points}
    meet_c = cmap(
        prod_c.space,
        a_obj.base,
        {lab: ops.meet(a_obj.value(a), gamma(c)) for lab, (a, c) in pairs_c},
    )
    one_times_q = cmap(
        prod_c.space, prod_q.space, {lab: label_q[a, q(c)] for lab, (a, c) in pairs_c}
    )
    rhs = lan_extension(meet_c, one_times_q, verify=False)
    out = []
    for a in a_obj.space.points:
        for y in q.target.points:
            opens_at_y = [v for v in q.target.open_sets() if y in v]
            pointwise = ops.meet_of(
                ops.join_of(
                    ops.meet(a_obj.value(a), gamma(c))
                    for c in gamma.source.points
                    if q(c) in v
                )
                for v in opens_at_y
            )
            out.append(
                (ops.meet(a_obj.value(a), left_factor(y)), rhs(label_q[a, y]), pointwise)
            )
    return out


def table_routes(obj, gamma, q, quotient):
    """The table version's three values at each (a, y), as labels, in A x Q order."""
    pts = obj.base.points
    tables = _exchange_routes(obj, lattice_ops(obj.base), gamma, q, quotient.down_masks)
    return [
        tuple(pts[v] for v in values)
        for rows in zip(*tables)
        for values in zip(*rows)
    ]


def outcome(call):
    try:
        return call()
    except LaxtopError as exc:
        return type(exc), str(exc)


def quotient_maps(obj, gamma, q, quotient):
    """gamma and q, given as positions, as checked maps on a discrete space."""
    disc = _discrete_space(len(gamma))
    return (
        cmap(disc, obj.base, {c: obj.base.points[g] for c, g in zip(disc.points, gamma)}),
        cmap(disc, quotient, {c: quotient.points[y] for c, y in zip(disc.points, q)}),
    )


POINT = _discrete_space(1)


def collapse_quotients(obj, report):
    """The gammas, as base positions, whose collapse quotients the report checked."""
    base = obj.base
    if report.witness is not None:
        return [tuple(base.index[x] for x in report.witness[1])]
    positions = range(len(base.points))
    return [
        gamma
        for n in range(4)
        for gamma in itertools.combinations_with_replacement(positions, n)
    ]


CASES = [(base, 2) for base in lattice_bases(5)] + [(base, 3) for base in lattice_bases(4)]


@pytest.mark.parametrize(
    "base,carrier_points",
    CASES,
    ids=[f"base{i}-{len(b.points)}pt-carriers{k}pt" for i, (b, k) in enumerate(CASES)],
)
def test_report_and_routes_match_the_reference(base, carrier_points):
    """Carriers of at most 2 points, or of exactly 3."""
    carriers = [
        c for c in posets_up_to(carrier_points) if carrier_points == 2 or len(c.points) == 3
    ]
    for obj in lax_objects_over(base, carriers):
        report = exponentiability_report(obj)
        assert report == reference_report(obj)
        for gamma in collapse_quotients(obj, report):
            q = (0,) * len(gamma)
            assert table_routes(obj, gamma, q, POINT) == reference_routes(
                obj, *quotient_maps(obj, gamma, q, POINT)
            )


def test_the_witness_path_is_taken():
    """N5 and M3, the two non-distributive lattices on 5 points, have witnesses."""
    failing = [
        base
        for base in lattice_bases(5)
        if any(
            exponentiability_report(obj).witness is not None
            for obj in lax_objects_over(base, posets_up_to(2))
        )
    ]
    assert len(failing) == 2 and all(len(b.points) == 5 for b in failing)


def outcome(call):
    try:
        return call()
    except LaxtopError as exc:
        return type(exc), str(exc)


C3 = lattice_bases(3)[-1]
M3_OR_N5 = next(b for b in lattice_bases(5) if not heyting_report(b).is_heyting)


@pytest.mark.parametrize(
    "base,quotients",
    [(C3, posets_up_to(3)[1:]), (M3_OR_N5, posets_up_to(2)[1:])],
    ids=["C3-onto-2-and-3pt", "non-distributive-onto-2pt"],
)
def test_routes_match_the_reference_on_quotients_onto_posets(base, quotients):
    """q: C -> Q onto posets Q, C discrete on at most 2 points; the law may fail here."""
    graph = list(itertools.product(range(3), range(len(base.points))))
    for obj in lax_objects_over(base, posets_up_to(2)):
        for quotient in quotients:
            for n in range(3):
                for pairs in itertools.combinations_with_replacement(graph, n):
                    if any(y >= len(quotient.points) for y, _ in pairs):
                        continue
                    gamma = tuple(g for _, g in pairs)
                    q = tuple(y for y, _ in pairs)
                    gamma_map, q_map = quotient_maps(obj, gamma, q, quotient)
                    assert table_routes(obj, gamma, q, quotient) == reference_routes(
                        obj, gamma_map, q_map
                    )
                    assert outcome(
                        lambda: _exchange_law_holds(
                            obj, lattice_ops(base), gamma, q, quotient.down_masks
                        )
                    ) == outcome(lambda: _lan_commutation_holds(obj, gamma_map, q_map))
