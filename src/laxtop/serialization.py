"""JSON file formats for spaces, maps, lax objects/morphisms and families.

Output is canonical: keys sorted, set families sorted by (size, members),
so loading and re-dumping a canonical file is the identity.
"""

from __future__ import annotations

import json
import os
from json.encoder import encode_basestring_ascii

from .errors import ParseError, SchemaError
from .famx import FamMorphism, FamObject, fam_morphism, fam_object
from .finspace import CMap, FiniteSpace, build_space, cmap
from .laxcomma import LaxMorphism, LaxObject, lax_morphism, lax_object


def load_json(path: str) -> dict:
    """The JSON object in a file; every laxtop file format is an object."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    return data


def to_json(data) -> str:
    """``json.dumps(data, sort_keys=True, indent=2)`` and a newline.

    With ``indent`` set, ``json`` falls back to its pure-Python encoder; this
    writer builds the same text directly, handing the leaves that are not
    strings to ``json.dumps`` so that numbers and errors come out as there.
    """
    return _dump(data, "\n") + "\n"


def _dump(data, newline: str) -> str:
    if isinstance(data, str):
        return encode_basestring_ascii(data)
    inner = newline + "  "
    if isinstance(data, (list, tuple)):
        if not data:
            return "[]"
        return "[" + inner + ("," + inner).join(_dump(v, inner) for v in data) + newline + "]"
    if isinstance(data, dict):
        if not data:
            return "{}"
        items = (_key(k) + ": " + _dump(v, inner) for k, v in sorted(data.items()))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return json.dumps(data)


def _key(key) -> str:
    """A dict key as ``json`` writes it: a string, or a scalar in quotes."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, (int, float)) or key is None:  # bool is an int
        return '"' + json.dumps(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _need(data, field, kind, where):
    if not isinstance(data, dict) or field not in data:
        raise SchemaError(f"{where}: missing field {field!r}")
    value = data[field]
    if kind is not None and not isinstance(value, kind):
        raise SchemaError(f"{where}: field {field!r} has the wrong type")
    return value


def _labels(value, where, pair=False):
    """A list of point labels (exactly two if ``pair``), each a string."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise SchemaError(f"{where}: expected a list of string labels")
    if pair and len(value) != 2:
        raise SchemaError(f"{where}: expected a pair of labels")
    return value


def _table(data, field, where):
    """A label-to-label map field: string keys and string values."""
    table = _need(data, field, dict, where)
    _labels([*table, *table.values()], f"{where}.{field}")
    return table


def space_from_dict(data, where="space") -> FiniteSpace:
    points = _labels(_need(data, "points", list, where), f"{where}.points")
    topology = _need(data, "topology", dict, where)
    kind = _need(topology, "kind", str, f"{where}.topology")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise SchemaError(f"{where}: field 'name' has the wrong type")
    if kind == "opens":
        opens = _need(topology, "opens", list, f"{where}.topology")
        opens = [_labels(o, f"{where}.topology.opens") for o in opens]
        return build_space(points, opens=opens, name=name)
    if kind == "order":
        le = _need(topology, "le", list, f"{where}.topology")
        le = [tuple(_labels(p, f"{where}.topology.le", pair=True)) for p in le]
        return build_space(points, order=le, name=name)
    raise SchemaError(f"{where}.topology: unknown kind {kind!r}")


def space_to_dict(space: FiniteSpace) -> dict:
    if space.provenance == "opens":
        topology = {
            "kind": "opens",
            "opens": [sorted(o) for o in space.open_sets()],
        }
    else:
        topology = {
            "kind": "order",
            "le": sorted([x, y] for (x, y) in space.le if x != y),
        }
    return {"name": space.name, "points": list(space.points), "topology": topology}


def _resolve_space(value, where, relative_to=None):
    """A space field may be inline or a path to a space file."""
    if isinstance(value, str):
        path = value
        if relative_to and not os.path.isabs(path):
            path = os.path.join(os.path.dirname(relative_to), path)
        return space_from_dict(load_json(path), where=path)
    return space_from_dict(value, where=where)


def map_from_dict(data, where="map", relative_to=None) -> CMap:
    source = _resolve_space(_need(data, "source", None, where), f"{where}.source", relative_to)
    target = _resolve_space(_need(data, "target", None, where), f"{where}.target", relative_to)
    return cmap(source, target, _table(data, "map", where))


def map_to_dict(m: CMap) -> dict:
    return {
        "source": space_to_dict(m.source),
        "target": space_to_dict(m.target),
        "map": dict(m.table),
    }


def lax_object_from_dict(data, where="object", base=None, relative_to=None) -> LaxObject:
    if base is None:
        base = _resolve_space(_need(data, "base", None, where), f"{where}.base", relative_to)
    space = _resolve_space(_need(data, "space", None, where), f"{where}.space", relative_to)
    return lax_object(space, base, _table(data, "alpha", where))


def lax_object_to_dict(obj: LaxObject) -> dict:
    return {
        "base": space_to_dict(obj.base),
        "space": space_to_dict(obj.space),
        "alpha": dict(obj.alpha.table),
    }


def _lax_maps(data, fields, where, relative_to):
    """Lax morphisms from "source" to "target" over "base", one per map field."""
    base = _resolve_space(_need(data, "base", None, where), f"{where}.base", relative_to)
    src, tgt = (
        lax_object_from_dict(_need(data, k, dict, where), f"{where}.{k}", base, relative_to)
        for k in ("source", "target")
    )
    return tuple(
        lax_morphism(cmap(src.space, tgt.space, _table(data, f, where)), src, tgt)
        for f in fields
    )


def lax_morphism_from_dict(data, where="morphism", relative_to=None) -> LaxMorphism:
    return _lax_maps(data, ("map",), where, relative_to)[0]


def lax_morphism_to_dict(m: LaxMorphism) -> dict:
    return {
        "base": space_to_dict(m.source.base),
        "source": {
            "space": space_to_dict(m.source.space),
            "alpha": dict(m.source.alpha.table),
        },
        "target": {
            "space": space_to_dict(m.target.space),
            "alpha": dict(m.target.alpha.table),
        },
        "map": dict(m.underlying.table),
    }


def family_from_dict(data, where="family", relative_to=None) -> FamObject:
    base = _resolve_space(_need(data, "base", None, where), f"{where}.base", relative_to)
    index = _labels(_need(data, "index", list, where), f"{where}.index")
    values = _table(data, "values", where)
    if sorted(values) != sorted(index):
        raise SchemaError(f"{where}: values not total over index")
    return fam_object(base, values)


def family_to_dict(fam: FamObject) -> dict:
    return {
        "base": space_to_dict(fam.base),
        "index": list(fam.index),
        "values": dict(fam.values),
    }


def fam_morphism_from_dict(data, where="morphism", relative_to=None) -> FamMorphism:
    base = _resolve_space(_need(data, "base", None, where), f"{where}.base", relative_to)
    src, tgt = (
        fam_object(base, _table(_need(data, k, dict, where), "values", f"{where}.{k}"))
        for k in ("source", "target")
    )
    table = _table(data, "map", where)
    if sorted(table) != sorted(src.index):
        raise SchemaError(f"{where}: map not total over the source index")
    return fam_morphism(table, src, tgt)


def parallel_pair_from_dict(data, where="pair", relative_to=None):
    """A parallel pair of lax morphisms sharing source and target objects."""
    return _lax_maps(data, ("f", "g"), where, relative_to)


def cone_from_dict(data, where="cone", relative_to=None):
    """A space with legs into lax objects, the input of an initial lift."""
    base = _resolve_space(_need(data, "base", None, where), f"{where}.base", relative_to)
    space = _resolve_space(_need(data, "space", None, where), f"{where}.space", relative_to)
    legs = []
    for i, leg in enumerate(_need(data, "legs", list, where)):
        obj = lax_object_from_dict(
            _need(leg, "target", dict, f"{where}.legs[{i}]"),
            f"{where}.legs[{i}].target",
            base,
            relative_to,
        )
        table = _table(leg, "map", f"{where}.legs[{i}]")
        legs.append((cmap(space, obj.space, table), obj))
    return space, legs, base
