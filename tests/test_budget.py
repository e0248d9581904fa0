"""The one work budget: every capped search charges it and LAXTOP_CAP sets it."""

import io
import pathlib
import re

import pytest

import laxtop
from laxtop import spaces
from laxtop.cli import run_command
from laxtop.enumeration import enumerate_labeled_posets, enumerate_labeled_preorders
from laxtop.errors import WORK_CAP, Budget, CapExceeded, SchemaError
from laxtop.famx import fam_effective_descent_check, fam_morphism, fam_object
from laxtop.finspace import build_space, enumerate_cmaps
from laxtop.order import distributivity_report
from laxtop.serialization import space_to_dict, to_json
from laxtop.vietoris import vietoris_monad, vietoris_space


def run(argv):
    out = io.StringIO()
    code = run_command(argv, out)
    return code, out.getvalue()


def test_budget_reads_the_environment(monkeypatch):
    monkeypatch.delenv("LAXTOP_CAP", raising=False)
    assert Budget("search").cap == WORK_CAP
    monkeypatch.setenv("LAXTOP_CAP", "7")
    assert Budget("search").cap == 7
    assert Budget("search", cap=3).cap == 3
    for bad in ("abc", "0", "-5", "1.5"):
        monkeypatch.setenv("LAXTOP_CAP", bad)
        with pytest.raises(SchemaError):
            Budget("search")


def test_spend_raises_past_the_cap_and_names_the_search():
    budget = Budget("widget search", cap=3)
    budget.spend(2)
    budget.spend()
    with pytest.raises(CapExceeded, match="widget search budget 3"):
        budget.spend()


def _fresh_chain(n, name):
    # a name of its own keeps distributivity_report's cache from answering
    pts = [str(i) for i in range(n)]
    return build_space(pts, order=list(zip(pts, pts[1:])), name=name)


def test_every_charging_search_obeys_a_small_env_cap(monkeypatch):
    chain = spaces.chain(3)
    fibre = fam_morphism(
        {"i": "k", "j": "k"},
        fam_object(chain, {"i": "2", "j": "2"}),
        fam_object(chain, {"k": "2"}),
    )
    lattice = _fresh_chain(3, "budget-env")
    searches = {  # each charges more than 3 units in one call
        "theta candidate": lambda: fam_effective_descent_check(fibre),  # 3 * 3
        "preorder search": lambda: enumerate_labeled_preorders(2),  # 1 << 2
        "labeled poset search": lambda: enumerate_labeled_posets(2),  # 2 + 2
        "distributivity subset": lambda: distributivity_report(lattice),  # 2**3 * 3**2
        "Vietoris order": lambda: vietoris_space(spaces.chain(2)),  # 3 ** 2
        "continuous map search": lambda: enumerate_cmaps(  # 1 + 2 + 3 nodes
            _fresh_chain(2, "budget-maps-source"), _fresh_chain(2, "budget-maps-target")
        ),
    }
    monkeypatch.setenv("LAXTOP_CAP", "3")
    for name, search in searches.items():
        with pytest.raises(CapExceeded, match=f"{name} budget 3 exceeded"):
            search()
    monkeypatch.setenv("LAXTOP_CAP", "100")
    for search in searches.values():
        search()


def test_distributivity_charge_is_subsets_times_pairs(monkeypatch):
    monkeypatch.setenv("LAXTOP_CAP", str(2**4 * 4**2))
    distributivity_report(_fresh_chain(4, "budget-at"))
    monkeypatch.setenv("LAXTOP_CAP", str(2**4 * 4**2 - 1))
    with pytest.raises(CapExceeded):
        distributivity_report(_fresh_chain(4, "budget-below"))


def test_default_budget_thresholds(monkeypatch):
    monkeypatch.delenv("LAXTOP_CAP", raising=False)
    with pytest.raises(CapExceeded):
        enumerate_labeled_preorders(5)  # 1 << 20 candidate masks
    assert len(enumerate_labeled_preorders(4)) == 355


def test_vietoris_monad_of_antichain5_is_cut_by_the_budget(monkeypatch):
    # its double powerset has 7 581 points, so the order would need 57 M pairs
    monkeypatch.delenv("LAXTOP_CAP", raising=False)
    with pytest.raises(CapExceeded, match="Vietoris order budget"):
        vietoris_monad(spaces.antichain(5))


def test_bad_env_cap_is_a_usage_error(tmp_path, monkeypatch):
    data = {
        "base": space_to_dict(spaces.chain(3)),
        "objects": [{"space": space_to_dict(spaces.point()), "alpha": {"*": "1"}}],
    }
    path = tmp_path / "prod.json"
    path.write_text(to_json(data))
    for bad in ("abc", "0"):
        monkeypatch.setenv("LAXTOP_CAP", bad)
        code, out = run(["construct", "product", str(path), "--verify"])
        assert code == 2 and "LAXTOP_CAP" in out
        code, out = run(["paper-check", "--suites", "poset-count-calibration"])
        assert code == 2 and "LAXTOP_CAP" in out


def test_thirteen_point_chain_distributivity_exceeds_the_budget(tmp_path, monkeypatch):
    monkeypatch.delenv("LAXTOP_CAP", raising=False)
    path = tmp_path / "chain13.json"
    path.write_text(to_json(space_to_dict(spaces.chain(13))))
    code, out = run(["check", str(path), "--props", "distributivity"])
    assert code == 1
    assert "distributivity subset budget 1000000 exceeded" in out


def test_only_errors_raises_cap_exceeded():
    package = pathlib.Path(laxtop.__file__).parent
    offenders = [
        p.name
        for p in sorted(package.glob("*.py"))
        if p.name != "errors.py" and re.search(r"raise\s+CapExceeded", p.read_text())
    ]
    assert offenders == []
