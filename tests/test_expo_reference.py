"""The exponentiability cross-check against the code it replaced.

Two references are kept.  `_lan_commutation_holds` and `reference_report`
are the label-coded quotient loop, which built each collapse quotient, the
products A x C and A x Q and every map between them as checked spaces and
maps with string labels.  `_exchange_routes` and `_exchange_law_holds` are
the per-quotient loop on index tables that followed it, which computed both
routes from scratch on every quotient; `per_quotient_report` runs it with
the witness search on label tables.  `exponentiability_report` must give
the same report (verdict, witness, mode, quotients checked) on every lax
object with a carrier of at most 2 points over every lattice base of at
most 5 points (N5 and M3 take the witness path) and with a 3-point carrier
over every lattice base of at most 4 points, and its one pass over the
collapse quotients the same three values at each point of A on every
quotient it checks.  The per-quotient routes must also match the label
reference on quotients onto posets.  The pass must fail as the
per-quotient loop does when both are given the same wrong cell of the
4-point chain's meet or join table, and must raise the pointwise
inconsistency when only that route disagrees.
"""

import itertools

import pytest

from laxtop import laxcomma
from laxtop.errors import InternalInconsistency, LaxtopError, NotContinuous
from laxtop.finspace import build_space, cmap, is_monotone, product_space, subsets
from laxtop.harness import lattice_bases, lax_objects_over, posets_up_to
from laxtop.laxcomma import (
    ExponentiabilityReport,
    _CollapseQuotients,
    exponentiability_report,
    lan_extension,
)
from laxtop.order import LatticeOps, heyting_report, lattice_ops, lattice_report
from laxtop.spaces import chain


def _exchange_routes(obj, ops, gamma: tuple, q: tuple, q_down: tuple) -> tuple:
    """Both routes of the extension exchange law on one quotient, as base positions.

    The source C of gamma and q is discrete: gamma lists the base positions of
    γ: C -> X, q the positions of q: C -> Q, and q_down the down masks of Q.
    Returns three tables over A × Q, rows in A's point order: the extension
    route α(a) ∧ (Lan_q γ)(y), the product route (Lan_{1×q} α∧γ)(a, y), and
    the pointwise join of α(a) ∧ γ(c) over the c with q(c) <= y.  A Lan is the
    meet, over the open neighbourhoods of a point, of the join over their
    fibre; that join grows with the open set, so the meet is the join over
    the fibre of the smallest one, the point's down mask (down(a) × down(y)
    in A × Q).  The continuity of the extension on Q, of α∧γ on A × C and of
    the product route on A × Q is tested on masks.
    """
    base = obj.base
    meet, join, base_down = ops.meet_index, ops.join_index, base.down_masks
    a_down = obj.space.down_masks
    alpha = obj.alpha.positions

    def join_of(values):
        acc = ops.bottom_index
        for v in values:
            acc = join[acc][v]
        return acc

    fibres = [[c for c, y in enumerate(q) if down >> y & 1] for down in q_down]
    below = [[b for b in range(len(alpha)) if down >> b & 1] for down in a_down]
    lan = [join_of(gamma[c] for c in fibre) for fibre in fibres]
    met = [[meet[x][g] for g in gamma] for x in alpha]
    product = [
        [join_of(met[b][c] for b in lower for c in fibre) for fibre in fibres]
        for lower in below
    ]
    if not is_monotone(lan, q_down, base_down):
        raise NotContinuous("extension along q is not monotone")
    if not all(is_monotone(column, a_down, base_down) for column in zip(*met)):
        raise NotContinuous("meet map on A x C is not monotone")  # C is discrete
    if not (
        all(is_monotone(row, q_down, base_down) for row in product)
        and all(is_monotone(column, a_down, base_down) for column in zip(*product))
    ):
        raise NotContinuous("product-route extension is not monotone")
    extension = [[meet[x][v] for v in lan] for x in alpha]
    pointwise = [[join_of(row[c] for c in fibre) for fibre in fibres] for row in met]
    return extension, product, pointwise


def _exchange_law_holds(obj, ops, gamma: tuple, q: tuple, q_down: tuple) -> bool:
    """Whether the two routes agree, checked point by point in A × Q order."""
    for rows in zip(*_exchange_routes(obj, ops, gamma, q, q_down)):
        for ext, prod, pointwise in zip(*rows):
            if ext != prod:
                return False
            # meeting α(a) before or after the inner join agrees (α(a) ∧ Lan is "before")
            if ext != pointwise:
                raise InternalInconsistency(
                    "pointwise exchange identity disagrees with the extension route"
                )
    return True


def per_quotient_report(obj, ops, visited):
    """The report of the per-quotient loop, appending each gamma it checks to visited."""
    base = obj.base
    witness = next(
        (
            (a, s)
            for (a, x) in obj.alpha.table
            for s in subsets(base.points)
            if ops.meet(x, ops.join_of(s)) != ops.join_of(ops.meet(x, e) for e in s)
        ),
        None,
    )
    point = (1,)  # the down masks of the one point that each collapse quotient maps onto
    if witness is not None:
        gamma = tuple(base.index[x] for x in witness[1])
        visited.append(gamma)
        if _exchange_law_holds(obj, ops, gamma, (0,) * len(gamma), point):
            raise InternalInconsistency(
                "join-preservation failure not visible to the exchange law"
            )
        return ExponentiabilityReport(False, "definitive", witness, 1)
    for n in range(4):
        for gamma in itertools.combinations_with_replacement(range(len(base.points)), n):
            visited.append(gamma)
            if not _exchange_law_holds(obj, ops, gamma, (0,) * n, point):
                raise InternalInconsistency(
                    "exchange law fails although all joins are preserved"
                )
    return ExponentiabilityReport(True, "definitive", None, len(visited))


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
    """The per-quotient routes' three values at each (a, y), as labels, in A x Q order."""
    pts = obj.base.points
    tables = _exchange_routes(obj, lattice_ops(obj.base), gamma, q, quotient.down_masks)
    return [
        tuple(pts[v] for v in values)
        for rows in zip(*tables)
        for values in zip(*rows)
    ]


def pass_routes(obj, quotients, gamma):
    """The one pass's three values at each point of A, as labels, on a collapse quotient."""
    pts = obj.base.points
    return [tuple(pts[v] for v in values) for values in zip(*quotients.routes(gamma)[1:])]


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
        quotients = _CollapseQuotients(obj, lattice_ops(base))
        for gamma in collapse_quotients(obj, report):  # in the order the report visits them
            q = (0,) * len(gamma)
            routes = pass_routes(obj, quotients, gamma)
            assert routes == table_routes(obj, gamma, q, POINT)
            assert routes == reference_routes(obj, *quotient_maps(obj, gamma, q, POINT))


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


def tampered_ops(base, table, cell, value):
    """Fresh lattice ops on base with one cell of its meet or join table changed.

    The label methods read the position table, so both read the same wrong
    value."""
    ops = LatticeOps(base)
    rows = [list(row) for row in getattr(ops, f"{table}_index")]
    rows[cell[0]][cell[1]] = value
    setattr(ops, f"{table}_index", tuple(map(tuple, rows)))
    x, y = (base.points[i] for i in cell)
    assert getattr(ops, table)(x, y) == base.points[value]
    return ops


@pytest.mark.parametrize(
    "table,cell,value,failures",
    [
        (
            "join",
            (2, 2),
            0,
            {
                (InternalInconsistency, "exchange law fails although all joins are preserved"),
                (NotContinuous, "product-route extension is not monotone"),
            },
        ),
        ("meet", (3, 1), 0, {(NotContinuous, "meet map on A x C is not monotone")}),
    ],
    ids=["join-2-2-is-0", "meet-3-1-is-0"],
)
def test_the_pass_fails_as_the_per_quotient_loop_on_a_broken_table(
    monkeypatch, table, cell, value, failures
):
    """One cell of the 4-point chain's meet or join table is wrong; both loops
    must then give the same report or raise the same error at the same quotient."""
    base = chain(4)
    ops = tampered_ops(base, table, cell, value)
    monkeypatch.setattr(laxcomma, "lattice_ops", lambda space: ops)
    law_holds = _CollapseQuotients.law_holds
    raised = set()
    for obj in lax_objects_over(base, posets_up_to(3)):
        visited, reference_visited = [], []

        def recording(self, gamma, visited=visited):
            visited.append(gamma)
            return law_holds(self, gamma)

        monkeypatch.setattr(_CollapseQuotients, "law_holds", recording)
        got = outcome(lambda: exponentiability_report(obj))
        monkeypatch.setattr(_CollapseQuotients, "law_holds", law_holds)
        assert got == outcome(lambda: per_quotient_report(obj, ops, reference_visited))
        assert visited == reference_visited
        if isinstance(got, tuple):
            raised.add(got)
    assert raised == failures


def test_the_pass_raises_when_only_the_pointwise_route_disagrees():
    """After the tables are built the pointwise route alone reads the meet
    rows; with every meet read as the bottom, the extension and product
    routes still agree and the pointwise identity must fail."""
    base = chain(4)
    obj = laxcomma.lax_object(POINT, base, {"c0": "3"})
    quotients = _CollapseQuotients(obj, lattice_ops(base))
    quotients.met = [[0] * 4]
    assert quotients.law_holds(())
    assert outcome(lambda: quotients.law_holds((2,))) == (
        InternalInconsistency,
        "pointwise exchange identity disagrees with the extension route",
    )
