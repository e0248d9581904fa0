import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laxtop import spaces
from laxtop.errors import ParseError, SchemaError
from laxtop.finspace import cmap
from laxtop.laxcomma import lax_morphism, lax_object
from laxtop.famx import fam_object
from laxtop.serialization import (
    family_from_dict,
    family_to_dict,
    fam_morphism_from_dict,
    lax_morphism_from_dict,
    lax_morphism_to_dict,
    lax_object_from_dict,
    lax_object_to_dict,
    load_json,
    map_from_dict,
    map_to_dict,
    parallel_pair_from_dict,
    space_from_dict,
    space_to_dict,
    to_json,
)


def test_space_roundtrip_order_kind():
    s = spaces.diamond()
    data = space_to_dict(s)
    assert data["topology"]["kind"] == "order"
    back = space_from_dict(data)
    assert back.le == s.le and back.points == s.points


def test_space_roundtrip_opens_kind():
    data = {
        "name": "S",
        "points": ["0", "1"],
        "topology": {"kind": "opens", "opens": [[], ["0"], ["0", "1"]]},
    }
    s = space_from_dict(data)
    assert s.leq("0", "1")
    # a space built from opens serializes back through its open family
    assert space_to_dict(s)["topology"]["kind"] == "opens"


def test_canonical_output_is_stable():
    s = spaces.div12()
    once = to_json(space_to_dict(s))
    again = to_json(space_to_dict(space_from_dict(json.loads(once))))
    assert once == again


def test_map_roundtrip():
    f = cmap(spaces.chain(2), spaces.chain(3), {"0": "0", "1": "2"})
    back = map_from_dict(map_to_dict(f))
    assert back == f


def test_lax_object_roundtrip():
    obj = lax_object(spaces.chain(2), spaces.chain(3), {"0": "0", "1": "2"})
    back = lax_object_from_dict(lax_object_to_dict(obj))
    assert back == obj


def test_lax_morphism_roundtrip():
    src = lax_object(spaces.point(), spaces.chain(3), {"*": "0"})
    tgt = lax_object(spaces.point(), spaces.chain(3), {"*": "1"})
    m = lax_morphism(cmap(src.space, tgt.space, {"*": "*"}), src, tgt)
    back = lax_morphism_from_dict(lax_morphism_to_dict(m))
    assert back == m


def test_family_roundtrip():
    fam = fam_object(spaces.sierpinski(), {"i": "0", "j": "1"})
    back = family_from_dict(family_to_dict(fam))
    assert back == fam


def test_fam_morphism_from_dict():
    base = space_to_dict(spaces.sierpinski())
    data = {
        "base": base,
        "source": {"index": ["i"], "values": {"i": "0"}},
        "target": {"index": ["j"], "values": {"j": "1"}},
        "map": {"i": "j"},
    }
    f = fam_morphism_from_dict(data)
    assert f.source.index == ("i",) and f.target.index == ("j",)
    assert f.positions == (0,)


def test_parallel_pair_from_dict():
    base = space_to_dict(spaces.chain(3))
    disc = space_to_dict(spaces.antichain(2))
    pt = space_to_dict(spaces.point())
    data = {
        "base": base,
        "source": {"space": pt, "alpha": {"*": "0"}},
        "target": {"space": disc, "alpha": {"0": "1", "1": "2"}},
        "f": {"*": "0"},
        "g": {"*": "1"},
    }
    f, g = parallel_pair_from_dict(data)
    assert f.source == g.source and f.target == g.target
    assert f.underlying("*") == "0" and g.underlying("*") == "1"


def test_schema_errors_name_the_field():
    with pytest.raises(SchemaError) as exc:
        space_from_dict({"points": ["a"]})
    assert "topology" in str(exc.value)
    with pytest.raises(SchemaError):
        space_from_dict({"points": ["a"], "topology": {"kind": "weird"}})
    with pytest.raises(SchemaError):
        family_from_dict(
            {
                "base": space_to_dict(spaces.sierpinski()),
                "index": ["i", "j"],
                "values": {"i": "0"},
            }
        )


def _order(points, le):
    return {"points": points, "topology": {"kind": "order", "le": le}}


@pytest.mark.parametrize(
    "data",
    [
        _order([1, 2], []),
        _order([["a"], "b"], []),
        _order([{"a": 1}], []),
        _order(["a", "b"], [["a", "b", "a"]]),
        _order(["a", "b"], ["ab"]),
        _order(["a", "b"], [["a", 2]]),
        {"points": ["a", "b"], "topology": {"kind": "opens", "opens": [[], "ab"]}},
        {"points": ["a"], "topology": {"kind": "opens", "opens": [[], [1]]}},
        {"points": ["a"], "name": ["n"], "topology": {"kind": "order", "le": []}},
    ],
)
def test_space_labels_must_be_strings(data):
    with pytest.raises(SchemaError):
        space_from_dict(data)


def test_map_labels_must_be_strings_and_fam_maps_total():
    base = space_to_dict(spaces.chain(3))
    pt = space_to_dict(spaces.point())
    with pytest.raises(SchemaError):
        lax_object_from_dict({"base": base, "space": pt, "alpha": {"*": ["1"]}})
    with pytest.raises(SchemaError):
        map_from_dict({"source": pt, "target": base, "map": {"*": 1}})
    fam = {
        "base": base,
        "source": {"values": {"i": "0", "j": "1"}},
        "target": {"values": {"k": "2"}},
        "map": {"i": "k"},
    }
    with pytest.raises(SchemaError, match="not total"):
        fam_morphism_from_dict(fam)
    fam["source"]["values"]["j"] = {"x": "1"}
    with pytest.raises(SchemaError):
        fam_morphism_from_dict(fam)


def test_parse_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ParseError):
        load_json(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError) as exc:
        load_json(str(bad))
    assert "bad.json:1" in str(exc.value)


def test_space_field_may_be_a_path(tmp_path):
    space_file = tmp_path / "base.json"
    space_file.write_text(to_json(space_to_dict(spaces.chain(3))))
    obj_file = tmp_path / "obj.json"
    data = {
        "base": "base.json",
        "space": space_to_dict(spaces.point()),
        "alpha": {"*": "1"},
    }
    obj_file.write_text(to_json(data))
    obj = lax_object_from_dict(load_json(str(obj_file)), relative_to=str(obj_file))
    assert obj.value("*") == "1"
    assert obj.base.points == ("0", "1", "2")


LEAVES = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
PAYLOADS = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(PAYLOADS)
def test_to_json_writes_the_bytes_of_json_dumps(data):
    assert to_json(data) == json.dumps(data, sort_keys=True, indent=2) + "\n"


def test_to_json_matches_json_dumps_on_edge_leaves_keys_and_errors():
    leaves = {
        "": [],
        "empty": {},
        "nested": [(), {}, [[]], {"k": ()}],
        "text": "\u00e9\u2603\U0001f600\"\\\n\x00",
        "numbers": [0, -1, 2**70, 1.5, -0.0, 1e300, float("inf"), float("nan")],
        "flags": (True, False, None),
    }
    for data in (leaves, {1: leaves, 2: 0}, {2.5: 0, -1.0: 1}, {True: 0}, {None: 0}):
        assert to_json(data) == json.dumps(data, sort_keys=True, indent=2) + "\n"
    for data in ({(1, 2): 0}, [{1, 2}], {1: 0, "a": 1}):
        with pytest.raises(TypeError) as want:
            json.dumps(data, sort_keys=True, indent=2)
        with pytest.raises(TypeError) as got:
            to_json(data)
        assert str(got.value) == str(want.value)
