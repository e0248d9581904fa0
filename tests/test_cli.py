import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from laxtop import cli, spaces, vietoris
from laxtop.finspace import build_space
from laxtop.cli import run_command
from laxtop.serialization import space_to_dict, to_json


def run(argv):
    out = io.StringIO()
    code = run_command(argv, out)
    return code, out.getvalue()


@pytest.fixture
def space_file(tmp_path):
    def write(space, name="space.json"):
        path = tmp_path / name
        path.write_text(to_json(space_to_dict(space)))
        return str(path)

    return write


def test_no_command_is_usage_error():
    code, _ = run([])
    assert code == 2


def test_unknown_command_is_usage_error():
    code, _ = run(["frobnicate"])
    assert code == 2


def test_check_passing(space_file):
    code, out = run(["check", space_file(spaces.chain(3)), "--props", "t0,sober,lattice"])
    assert code == 0
    assert "true" in out.lower()


def test_check_failing_property(space_file):
    code, _ = run(["check", space_file(spaces.antichain(2)), "--props", "lattice"])
    assert code == 1


def test_check_unknown_property(space_file):
    code, _ = run(["check", space_file(spaces.chain(2)), "--props", "zeta"])
    assert code == 2


def test_check_missing_file():
    code, out = run(["check", "/nonexistent/space.json"])
    assert code == 2
    assert "error" in out


def test_check_json_output(space_file):
    code, out = run(["check", space_file(spaces.div12()), "--props", "heyting", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["heyting"]["is_heyting"] is True


def test_construct_product_with_verify(tmp_path):
    data = {
        "base": space_to_dict(spaces.chain(3)),
        "objects": [
            {"space": space_to_dict(spaces.point()), "alpha": {"*": "1"}},
            {"space": space_to_dict(spaces.point()), "alpha": {"*": "2"}},
        ],
    }
    path = tmp_path / "prod.json"
    path.write_text(to_json(data))
    code, out = run(["construct", "product", str(path), "--verify", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["result"]["alpha"] == {"(*,*)": "1"}


def test_construct_product_of_labels_with_commas(tmp_path):
    sierpinski = space_to_dict(spaces.sierpinski())
    data = {
        "base": sierpinski,
        "objects": [
            {
                "space": space_to_dict(build_space(["a", "a,b"], order=[])),
                "alpha": {"a": "0", "a,b": "1"},
            },
            {
                "space": space_to_dict(build_space(["b,c", "c"], order=[])),
                "alpha": {"b,c": "1", "c": "0"},
            },
        ],
    }
    path = tmp_path / "prod.json"
    path.write_text(to_json(data))
    code, out = run(["construct", "product", str(path), "--verify", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert len(payload["result"]["space"]["points"]) == 4


def test_construct_respects_cap_env(tmp_path, monkeypatch):
    data = {
        "base": space_to_dict(spaces.chain(3)),
        "objects": [
            {"space": space_to_dict(spaces.point()), "alpha": {"*": "1"}},
        ],
    }
    path = tmp_path / "prod.json"
    path.write_text(to_json(data))
    monkeypatch.setenv("LAXTOP_CAP", "1")
    code, out = run(["construct", "product", str(path), "--verify"])
    assert code == 1
    assert "budget" in out


def test_construct_coequalizer(tmp_path):
    data = {
        "base": space_to_dict(spaces.chain(3)),
        "source": {"space": space_to_dict(spaces.point()), "alpha": {"*": "0"}},
        "target": {
            "space": space_to_dict(spaces.antichain(2)),
            "alpha": {"0": "1", "1": "2"},
        },
        "f": {"*": "0"},
        "g": {"*": "1"},
    }
    path = tmp_path / "pair.json"
    path.write_text(to_json(data))
    code, out = run(["construct", "coequalizer", str(path), "--verify", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert list(payload["result"]["alpha"].values()) == ["2"]


C3_DICT = {
    "name": "C3",
    "points": ["0", "1", "2"],
    "topology": {"kind": "order", "le": [["0", "1"], ["0", "2"], ["1", "2"]]},
}


def _object(space, alpha):
    return {"space": space_to_dict(space), "alpha": alpha}


@pytest.mark.parametrize(
    "kind, data, payload",
    [
        (
            "sum",
            {
                "base": space_to_dict(spaces.chain(3)),
                "objects": [
                    _object(spaces.point(), {"*": "1"}),
                    _object(spaces.chain(2), {"0": "0", "1": "2"}),
                ],
            },
            {
                "construction": "sum",
                "result": {
                    "alpha": {"in0:*": "1", "in1:0": "0", "in1:1": "2"},
                    "base": C3_DICT,
                    "space": {
                        "name": "",
                        "points": ["in0:*", "in1:0", "in1:1"],
                        "topology": {"kind": "order", "le": [["in1:0", "in1:1"]]},
                    },
                },
                "verified": "no oracle for this construction",
            },
        ),
        (
            "equalizer",
            {
                "base": space_to_dict(spaces.chain(3)),
                "source": _object(spaces.antichain(2), {"0": "0", "1": "1"}),
                "target": _object(spaces.chain(2), {"0": "1", "1": "2"}),
                "f": {"0": "0", "1": "1"},
                "g": {"0": "0", "1": "0"},
            },
            {
                "construction": "equalizer",
                "result": {
                    "alpha": {"0": "0"},
                    "base": C3_DICT,
                    "space": {"name": "", "points": ["0"], "topology": {"kind": "order", "le": []}},
                },
                "verified": "no oracle for this construction",
            },
        ),
        (
            "exponential",
            {
                "base": space_to_dict(spaces.sierpinski()),
                "a": _object(spaces.point(), {"*": "1"}),
                "b": _object(spaces.chain(2), {"0": "0", "1": "1"}),
            },
            {
                "construction": "exponential",
                "oracle_checked": 9,
                "result": {
                    "alpha": {"{*:0}": "0", "{*:1}": "1"},
                    "base": {
                        "name": "S",
                        "points": ["0", "1"],
                        "topology": {"kind": "order", "le": [["0", "1"]]},
                    },
                    "space": {
                        "name": "",
                        "points": ["{*:0}", "{*:1}"],
                        "topology": {"kind": "order", "le": [["{*:0}", "{*:1}"]]},
                    },
                },
                "verified": True,
            },
        ),
        (
            "lift",
            {
                "base": space_to_dict(spaces.chain(3)),
                "space": space_to_dict(spaces.chain(2)),
                "legs": [
                    {"target": _object(spaces.point(), {"*": "1"}), "map": {"0": "*", "1": "*"}},
                    {
                        "target": _object(spaces.chain(2), {"0": "1", "1": "2"}),
                        "map": {"0": "0", "1": "1"},
                    },
                ],
            },
            {
                "construction": "lift",
                "oracle_checked": 60,
                "result": {
                    "alpha": {"0": "1", "1": "1"},
                    "base": C3_DICT,
                    "space": {
                        "name": "C2",
                        "points": ["0", "1"],
                        "topology": {"kind": "order", "le": [["0", "1"]]},
                    },
                },
                "verified": True,
            },
        ),
        (
            "coequalizer",
            {
                "base": space_to_dict(spaces.chain(3)),
                "source": _object(spaces.antichain(2), {"0": "0", "1": "1"}),
                "target": _object(
                    build_space(["c", "a", "b"], order=[("a", "c")]),
                    {"c": "2", "a": "1", "b": "0"},
                ),
                "f": {"0": "c", "1": "a"},
                "g": {"0": "b", "1": "a"},
            },
            {
                "construction": "coequalizer",
                "oracle_checked": 13,
                "result": {
                    "alpha": {"a": "1", "b": "2"},
                    "base": C3_DICT,
                    "space": {
                        "name": "",
                        "points": ["a", "b"],
                        "topology": {"kind": "opens", "opens": [[], ["a"], ["a", "b"]]},
                    },
                },
                "verified": True,
            },
        ),
    ],
)
def test_construct_verified_outputs_keep_their_bytes(tmp_path, kind, data, payload):
    path = tmp_path / f"{kind}.json"
    path.write_text(to_json(data))
    code, out = run(["construct", kind, str(path), "--verify", "--json"])
    assert code == 0
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_descent_top_category(tmp_path):
    from laxtop.finspace import build_space

    src = build_space(
        ["a0", "a1", "b1", "b2", "c0", "c2"],
        order=[("a0", "a1"), ("b1", "b2"), ("c0", "c2")],
    )
    data = {
        "source": space_to_dict(src),
        "target": space_to_dict(spaces.chain(3)),
        "map": {"a0": "0", "a1": "1", "b1": "1", "b2": "2", "c0": "0", "c2": "2"},
    }
    path = tmp_path / "map.json"
    path.write_text(to_json(data))
    code, out = run(["descent", "--category", "top", str(path), "--json"])
    assert code == 1  # effective descent fails
    payload = json.loads(out)
    assert payload["is_descent"] == "true"
    assert payload["is_effective"] == "false"
    assert ["chain", ["0", "1", "2"]] in payload["witnesses"]


def test_descent_laxcomma_category(tmp_path):
    pt = space_to_dict(spaces.point())
    data = {
        "base": space_to_dict(spaces.chain(3)),
        "source": {"space": pt, "alpha": {"*": "2"}},
        "target": {"space": pt, "alpha": {"*": "2"}},
        "map": {"*": "*"},
    }
    path = tmp_path / "m.json"
    path.write_text(to_json(data))
    code, out = run(["descent", "--category", "laxcomma", str(path), "--json"])
    assert code == 0
    assert json.loads(out)["is_effective"] == "true"


def test_descent_fam_category(tmp_path):
    data = {
        "base": space_to_dict(spaces.sierpinski()),
        "source": {"index": ["i"], "values": {"i": "0"}},
        "target": {"index": ["j"], "values": {"j": "1"}},
        "map": {"i": "j"},
    }
    path = tmp_path / "fam.json"
    path.write_text(to_json(data))
    code, out = run(["descent", "--category", "fam", str(path), "--json"])
    assert code == 1
    assert json.loads(out)["is_descent"] == "false"


def test_expo_refutation(tmp_path):
    data = {
        "base": space_to_dict(spaces.m3()),
        "space": space_to_dict(spaces.point()),
        "alpha": {"*": "a"},
    }
    path = tmp_path / "obj.json"
    path.write_text(to_json(data))
    code, out = run(["expo", str(path), "--json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["exponentiable"] == "false"
    assert payload["mode"] == "definitive"


def test_expo_positive(tmp_path):
    data = {
        "base": space_to_dict(spaces.div12()),
        "space": space_to_dict(spaces.point()),
        "alpha": {"*": "4"},
    }
    path = tmp_path / "obj.json"
    path.write_text(to_json(data))
    code, out = run(["expo", str(path), "--json"])
    assert code == 0
    assert json.loads(out)["exponentiable"] == "true"


def test_expo_over_a_meet_semilattice_without_top_is_unknown(tmp_path):
    vee = build_space(["bot", "a", "b"], order=[("bot", "a"), ("bot", "b")], name="V")
    data = {
        "base": space_to_dict(vee),
        "space": space_to_dict(spaces.point()),
        "alpha": {"*": "a"},
    }
    path = tmp_path / "obj.json"
    path.write_text(to_json(data))
    code, out = run(["expo", str(path), "--json"])
    assert code == 0
    assert json.loads(out) == {
        "exponentiable": "unknown",
        "mode": "sufficient-only",
        "quotients_checked": 0,
        "witness": None,
    }


def test_vietoris_on_lattice(space_file):
    code, out = run(["vietoris", space_file(spaces.chain(3)), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["algebra"]["ok"] is True
    assert len(payload["members"]) == 4


def test_vietoris_without_meets(space_file):
    code, out = run(["vietoris", space_file(spaces.antichain(2)), "--json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["algebra"]["ok"] is False


def test_vietoris_builds_v_of_the_input_once(space_file, monkeypatch):
    diamond = spaces.diamond()
    builds = []
    real = vietoris.vietoris_space

    def counting(base, *args, **kwargs):
        if set(base.points) == set(diamond.points):
            builds.append(kwargs.get("check_topology", True))
        return real(base, *args, **kwargs)

    monkeypatch.setattr(vietoris, "vietoris_space", counting)
    monkeypatch.setattr(cli, "vietoris_space", counting)
    code, _ = run(["vietoris", space_file(diamond), "--json"])
    assert code == 0
    assert builds == [True]  # one build, with the hit-topology check


def test_paper_check_single_suite_json():
    code, out = run(
        ["paper-check", "--suites", "poset-count-calibration", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["format_version"] == 1
    assert payload["ok"] is True
    assert payload["suites"][0]["name"] == "poset-count-calibration"
    assert payload["suites"][0]["failed"] == 0


def test_paper_check_unknown_suite_fails():
    code, out = run(["paper-check", "--suites", "no-such-suite"])
    assert code == 1
    assert "FAIL" in out


def test_paper_check_needs_a_positive_point_count():
    code, out = run(["paper-check", "--max-points", "0"])
    assert code == 2
    assert "max_points" in out


def test_paper_check_json_config_has_no_oracle_cap():
    _, out = run(["paper-check", "--suites", "poset-count-calibration", "--json"])
    assert json.loads(out)["config"] == {
        "max_points": 4, "seed": 0, "suites": ["poset-count-calibration"],
    }


@pytest.mark.parametrize(
    "argv, data",
    [
        (["vietoris"], {"points": [1, 2], "topology": {"kind": "order", "le": []}}),
        (["construct", "product"], [{"space": "x"}]),
        (["construct", "exponential"], {"a": {}, "b": {}}),
    ],
)
def test_malformed_json_is_a_usage_error(tmp_path, argv, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out = run(argv + [str(path)])
    assert code == 2
    assert out.startswith("error:")


SEEDS = (0, 2, 3)  # string hash seeds under which frozenset order differs


def run_under_seeds(script, *args):
    """The stdout of a python script run under each of SEEDS, in a fresh process."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    outs = []
    for seed in SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, (seed, proc.stderr)
        outs.append(proc.stdout)
    return outs


def test_paper_check_json_is_deterministic():
    argv = ["paper-check", "--suites", "finite-sober", "--max-points", "3", "--json"]
    _, first = run(argv)
    _, second = run(argv)
    assert first == second
    script = "import sys\nfrom laxtop.cli import run_command\nrun_command(sys.argv[1:], sys.stdout)\n"
    assert run_under_seeds(script, *argv) == [first] * len(SEEDS)


def test_missing_meets_are_named_in_point_order_whatever_the_hash_seed():
    script = (
        "from laxtop import spaces\n"
        "from laxtop.errors import MeetsMissing\n"
        "from laxtop.vietoris import vietoris_algebra_check\n"
        "try:\n"
        "    vietoris_algebra_check(spaces.antichain(3))\n"
        "except MeetsMissing as exc:\n"
        "    print(exc.family)\n"
    )
    assert run_under_seeds(script) == ["('0', '1', '2')\n"] * len(SEEDS)


def test_reused_parser_answers_as_a_fresh_one(tmp_path, space_file, capsys):
    obj = tmp_path / "obj.json"
    obj.write_text(to_json({
        "base": space_to_dict(spaces.m3()),
        "space": space_to_dict(spaces.point()),
        "alpha": {"*": "a"},
    }))
    check = ["check", space_file(spaces.diamond()), "--props", "t0,lattice", "--json"]
    calls = [
        [],
        check,
        ["frobnicate"],
        ["expo", str(obj), "--json"],
        ["descent", str(obj)],
        ["paper-check", "--suites", "poset-count-calibration", "--max-points", "2"],
        ["paper-check", "--max-points", "x"],
        ["expo", str(obj)],
        [],
        check[:-1],
    ]

    def answer(argv):
        out = io.StringIO()
        code = run_command(argv, out)
        return code, out.getvalue(), capsys.readouterr()

    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(answer(argv))
    cli._parser.cache_clear()
    assert [answer(argv) for argv in calls + calls] == fresh + fresh
    assert [code for code, _, _ in fresh] == [2, 0, 2, 1, 2, 0, 2, 1, 2, 0]


def test_the_parser_is_built_once(monkeypatch, space_file):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    path = space_file(spaces.chain(2))
    for argv in ([], ["frobnicate"], ["check", path]) * 5:
        run(argv)
    assert built == [1]
    cli._parser.cache_clear()
