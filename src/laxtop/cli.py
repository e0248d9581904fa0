"""Command-line interface: check, construct, descent, expo, vietoris, paper-check."""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import LaxtopError, ParseError, SchemaError, work_cap
from .finspace import sober_report
from .harness import HarnessConfig, paper_check
from .laxcomma import (
    exponentiability_report,
    exponential_object,
    initial_lift_over,
    lax_coequalizer,
    lax_equalizer,
    lax_product,
    lax_sum,
    verify_universal_property,
)
from .order import distributivity_report, heyting_report, lattice_report
from .descent import (
    DescentReport,
    laxcomma_effective_descent,
    top_effective_descent_check,
)
from .famx import fam_descent_check, fam_effective_descent_check
from .serialization import (
    cone_from_dict,
    fam_morphism_from_dict,
    lax_morphism_from_dict,
    lax_object_from_dict,
    lax_object_to_dict,
    load_json,
    map_from_dict,
    parallel_pair_from_dict,
    space_from_dict,
    space_to_dict,
    to_json,
)
from .vietoris import vietoris_algebra_check, vietoris_space


def _emit(payload, as_json, out):
    if as_json:
        out.write(to_json(payload))
    else:
        for key, value in payload.items():
            out.write(f"{key}: {json.dumps(value, sort_keys=True)}\n")


def _cmd_check(args, out):
    space = space_from_dict(load_json(args.space), where=args.space)
    props = [p for p in (args.props or "t0,sober").split(",") if p]
    payload = {"space": space.name or args.space, "points": len(space.points)}
    failed = False
    for prop in props:
        if prop == "t0":
            payload["t0"] = space.is_t0()
            failed |= not payload["t0"]
        elif prop == "sober":
            payload["sober"] = sober_report(space).is_sober
            failed |= not payload["sober"]
        elif prop == "lattice":
            payload["lattice"] = lattice_report(space).to_json_dict()
            failed |= not payload["lattice"]["is_complete_lattice"]
        elif prop == "heyting":
            payload["heyting"] = heyting_report(space).to_json_dict()
            failed |= not payload["heyting"]["is_heyting"]
        elif prop == "distributivity":
            payload["distributivity"] = distributivity_report(space).to_json_dict()
        else:
            raise SchemaError(f"unknown property {prop!r}")
    _emit(payload, args.json, out)
    return 1 if failed else 0


def _cmd_construct(args, out):
    data = load_json(args.input)
    kind = args.kind
    if kind in ("product", "sum"):
        base = space_from_dict(data["base"], "base") if "base" in data else None
        objects = data.get("objects", [])
        if not isinstance(objects, list):
            raise SchemaError(f"{args.input}: field 'objects' has the wrong type")
        objs = [
            lax_object_from_dict(o, f"objects[{i}]", base, args.input)
            for i, o in enumerate(objects)
        ]
        if kind == "product":
            built = lax_product(objs, base)
            result, oracle_kind = built.obj, "product"
            instance = {"objects": objs, "product": built}
        else:
            built = lax_sum(objs, base)
            result, oracle_kind = built.obj, None
            instance = None
    elif kind in ("equalizer", "coequalizer"):
        f, g = parallel_pair_from_dict(data, args.input, args.input)
        if kind == "equalizer":
            result, oracle_kind, instance = lax_equalizer(f, g).obj, None, None
        else:
            built = lax_coequalizer(f, g)
            result, oracle_kind = built.obj, "coequalizer"
            instance = {"f": f, "g": g, "coequalizer": built}
    elif kind == "exponential":
        base = space_from_dict(data.get("base"), "base")
        a_obj = lax_object_from_dict(data.get("a"), "a", base, args.input)
        b_obj = lax_object_from_dict(data.get("b"), "b", base, args.input)
        built = exponential_object(a_obj, b_obj)
        result, oracle_kind = built.obj, "exponential"
        instance = {"a": a_obj, "b": b_obj, "exponential": built}
    elif kind == "lift":
        space, legs, base = cone_from_dict(data, args.input, args.input)
        result = initial_lift_over(space, legs, base)
        oracle_kind = "initial_lift"
        instance = {"space": space, "cone": legs, "lift": result}
    else:
        raise SchemaError(f"unknown construction {kind!r}")

    payload = {"construction": kind, "result": lax_object_to_dict(result)}
    code = 0
    if args.verify:
        if oracle_kind is None:
            payload["verified"] = "no oracle for this construction"
        else:
            oracle = verify_universal_property(oracle_kind, instance)
            payload["verified"] = bool(oracle.ok)
            payload["oracle_checked"] = oracle.checked
            if not oracle.ok:
                payload["counterexample"] = repr(oracle.counterexample)
                code = 1
    _emit(payload, args.json, out)
    return code


def _verdict_exit(report: DescentReport):
    return 1 if report.is_effective is False or report.is_descent is False else 0


def _cmd_descent(args, out):
    data = load_json(args.morphism)
    if args.base:
        data = dict(data)
        data.setdefault("base", load_json(args.base))
    if args.category == "top":
        f = map_from_dict(data, args.morphism, args.morphism)
        report = top_effective_descent_check(f)
    elif args.category == "fam":
        f = fam_morphism_from_dict(data, args.morphism, args.morphism)
        descent = fam_descent_check(f)
        effective = fam_effective_descent_check(f) if descent else descent
        witnesses = ()
        if not descent:
            witnesses = (("descent", descent.witness),)
        elif not effective:
            witnesses = (("effective", effective.witness),)
        report = DescentReport(
            "fam",
            descent.verdict,
            effective.verdict,
            witnesses=witnesses,
            notes=(f"mode: {effective.mode}",),
        )
    elif args.category == "laxcomma":
        f = lax_morphism_from_dict(data, args.morphism, args.morphism)
        report = laxcomma_effective_descent(f)
    else:
        raise SchemaError(f"unknown category {args.category!r}")
    _emit(report.to_json_dict(), args.json, out)
    return _verdict_exit(report)


def _cmd_expo(args, out):
    data = load_json(args.object)
    obj = lax_object_from_dict(data, args.object, relative_to=args.object)
    report = exponentiability_report(obj)
    verdict = {True: "true", False: "false", None: "unknown"}[report.exponentiable]
    payload = {
        "exponentiable": verdict,
        "mode": report.mode,
        "witness": repr(report.witness) if report.witness else None,
        "quotients_checked": report.quotients_checked,
    }
    _emit(payload, args.json, out)
    return 1 if report.exponentiable is False else 0


def _cmd_vietoris(args, out):
    space = space_from_dict(load_json(args.space), where=args.space)
    try:
        check = vietoris_algebra_check(space)
        v = check.v
        algebra = {
            "ok": check.ok,
            "structure": dict(check.structure.table),
            "witness": repr(check.witness) if check.witness else None,
        }
        code = 0 if check.ok else 1
    except LaxtopError as exc:
        v = vietoris_space(space)  # the check raised before it could return V
        algebra = {"ok": False, "error": str(exc)}
        code = 1
    payload = {
        "base": space.name or args.space,
        "space": space_to_dict(v.space),
        "members": {label: sorted(subset) for label, subset in v.members},
        "algebra": algebra,
    }
    _emit(payload, args.json, out)
    return code


def _cmd_paper_check(args, out):
    config = HarnessConfig(
        max_points=args.max_points,
        seed=args.seed,
        suites=tuple(s for s in (args.suites or "").split(",") if s),
    )
    report = paper_check(config)
    if args.json:
        out.write(to_json(report.to_json_dict()))
    else:
        for s in sorted(report.suites, key=lambda s: s.name):
            status = "ok" if s.ok else "FAIL"
            out.write(f"{s.name}: {status} ({s.passed} passed, {s.failed} failed)\n")
            for w in s.witnesses:
                out.write(f"  witness: {w}\n")
        out.write("all suites passed\n" if report.ok else "some suites failed\n")
    return 0 if report.ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="laxtop",
        description="finite-space lax comma constructions and descent checkers",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("check", help="verify properties of a space file")
    p.add_argument("space")
    p.add_argument("--props")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("construct", help="build a universal construction")
    p.add_argument(
        "kind",
        choices=["product", "sum", "equalizer", "coequalizer", "exponential", "lift"],
    )
    p.add_argument("input")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("descent", help="descent checks for a morphism file")
    p.add_argument("--category", choices=["top", "fam", "laxcomma"], required=True)
    p.add_argument("--base")
    p.add_argument("morphism")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("expo", help="exponentiability of a lax object file")
    p.add_argument("object")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("vietoris", help="lower Vietoris space and algebra laws")
    p.add_argument("space")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("paper-check", help="run the verification suites")
    p.add_argument("--max-points", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--suites")
    p.add_argument("--json", action="store_true")
    return parser


_COMMANDS = {
    "check": _cmd_check,
    "construct": _cmd_construct,
    "descent": _cmd_descent,
    "expo": _cmd_expo,
    "vietoris": _cmd_vietoris,
    "paper-check": _cmd_paper_check,
}


@functools.cache
def _parser():
    """The parser, built on the first call; parsing leaves it unchanged."""
    return build_parser()


def run_command(argv, out=None) -> int:
    out = out or sys.stdout
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not args.command:
        parser.print_usage(out)
        return 2
    try:
        work_cap()  # a malformed LAXTOP_CAP is a usage error, whatever the command
        return _COMMANDS[args.command](args, out)
    except (ParseError, SchemaError) as exc:
        out.write(f"error: {exc}\n")
        return 2
    except LaxtopError as exc:
        out.write(f"error: {exc}\n")
        return 1


def main():
    sys.exit(run_command(sys.argv[1:]))
