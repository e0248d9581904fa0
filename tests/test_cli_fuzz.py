"""Random and malformed JSON through every subcommand: exit 0, 1 or 2, never raise.

Each input is first drawn well-formed (spaces of at most three points, and
maps, lax objects, morphisms and families over them), then about half of
them get one or two of their values replaced by a value of the wrong shape.
"""

import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from laxtop.cli import run_command

LABELS = ("0", "1", "a")

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1, 2),
    st.text(alphabet="01a", max_size=2),
    st.lists(st.integers(0, 2), max_size=2),
    st.builds(lambda: [["0", "1", "a"]]),  # a fresh list: mutations must not alias
    st.dictionaries(st.sampled_from(LABELS), st.integers(0, 1), max_size=2),
)


def space(draw, size=3):
    points = draw(st.lists(st.sampled_from(LABELS), unique=True, max_size=size))
    point = st.sampled_from(points or ["0"])
    if draw(st.booleans()):
        pairs = st.lists(st.lists(point, min_size=2, max_size=2), max_size=3)
        topology = {"kind": "order", "le": draw(pairs) if points else []}
    else:
        middle = draw(st.lists(point, unique=True)) if points else []
        topology = {"kind": "opens", "opens": [[], middle, list(points)]}
    return {"name": "S", "points": points, "topology": topology}


def table(draw, source, target):
    values = st.sampled_from(target["points"]) if target["points"] else st.just("0")
    return {p: draw(values) for p in source["points"]}


def lax_obj(draw, base):
    s = space(draw, size=2)
    return {"space": s, "alpha": table(draw, s, base)}


def family(draw, base, index):
    return {"index": index, "values": table(draw, {"points": index}, base)}


@st.composite
def well_formed(draw, kind):
    base = space(draw)
    if kind == "space":
        return base
    if kind == "map":
        src = space(draw)
        return {"source": src, "target": base, "map": table(draw, src, base)}
    if kind == "object":
        return {"base": base, **lax_obj(draw, base)}
    if kind in ("morphism", "pair"):
        src, tgt = lax_obj(draw, base), lax_obj(draw, base)
        maps = ("map",) if kind == "morphism" else ("f", "g")
        return {
            "base": base, "source": src, "target": tgt,
            **{m: table(draw, src["space"], tgt["space"]) for m in maps},
        }
    if kind == "family":
        src = family(draw, base, ["i", "j"])
        tgt = family(draw, base, ["k"])
        return {"base": base, "source": src, "target": tgt, "map": {"i": "k", "j": "k"}}
    if kind == "objects":
        count = draw(st.integers(0, 2))
        return {"base": base, "objects": [lax_obj(draw, base) for _ in range(count)]}
    if kind == "exponential":
        return {"base": base, "a": lax_obj(draw, base), "b": lax_obj(draw, base)}
    assert kind == "cone"
    s = space(draw, size=2)
    legs = []
    for _ in range(draw(st.integers(0, 2))):
        obj = lax_obj(draw, base)
        legs.append({"target": obj, "map": table(draw, s, obj["space"])})
    return {"base": base, "space": s, "legs": legs}


def _slots(node, path=()):
    """Every position in a JSON tree, the root included."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _slots(child, path + (key,))


@st.composite
def malformed(draw, kind):
    data = draw(well_formed(kind))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        path = draw(st.sampled_from(list(_slots(data))))
        if not path:
            return draw(junk)
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = draw(junk)
    return data


COMMANDS = [
    (["check", "{}", "--props", "t0,sober,lattice,heyting,distributivity"], "space"),
    (["check", "{}", "--props", "zeta"], "space"),
    (["vietoris", "{}"], "space"),
    (["expo", "{}"], "object"),
    (["descent", "--category", "top", "{}"], "map"),
    (["descent", "--category", "fam", "{}"], "family"),
    (["descent", "--category", "laxcomma", "{}"], "morphism"),
    (["construct", "product", "{}", "--verify"], "objects"),
    (["construct", "sum", "{}", "--verify"], "objects"),
    (["construct", "equalizer", "{}", "--verify"], "pair"),
    (["construct", "coequalizer", "{}", "--verify"], "pair"),
    (["construct", "exponential", "{}", "--verify"], "exponential"),
    (["construct", "lift", "{}", "--verify"], "cone"),
]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_run_command_never_raises(tmp_path_factory, data):
    argv, kind = data.draw(st.sampled_from(COMMANDS))
    path = tmp_path_factory.getbasetemp() / "fuzz_input.json"
    path.write_text(json.dumps(data.draw(malformed(kind))))
    argv = [str(path) if a == "{}" else a for a in argv]
    argv += data.draw(st.sampled_from([[], ["--json"]]))
    assert run_command(argv, io.StringIO()) in (0, 1, 2)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(-2, 2), st.sampled_from(["poset-count-calibration", "finite-sober,nope"]))
def test_paper_check_arguments_never_raise(max_points, suites):
    argv = ["paper-check", "--max-points", str(max_points), "--suites", suites]
    assert run_command(argv, io.StringIO()) in (0, 1, 2)
