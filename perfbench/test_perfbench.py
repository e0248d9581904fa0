"""Tests of the benchmark itself: gates, seeds, tracing, the bare-directory exit.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from laxtop import finspace, harness, laxcomma, spaces  # noqa: E402


def _descent_with_report(passed):
    sweep = workloads.DescentSweep.__new__(workloads.DescentSweep)
    sweep.report = harness.Report(
        harness.HarnessConfig(),
        tuple(harness.SuiteResult(name, n, 0) for name, n in passed.items()),
    )
    return sweep


def test_descent_gate_accepts_expected_tallies():
    gate = _descent_with_report(workloads.EXPECTED_DESCENT).gate()
    assert gate.correct and gate.attempted == 55799


def test_descent_gate_fails_on_wrong_expected_value():
    sweep = _descent_with_report(workloads.EXPECTED_DESCENT)
    wrong = dict(workloads.EXPECTED_DESCENT, **{"allw-join-coherence": 28540})
    gate = sweep.gate(wrong)
    assert not gate.correct and gate.failed == 1
    assert "allw-join-coherence" in gate.problems[0]


def test_census_gate_fails_on_wrong_expected_value():
    census = workloads.PosetCensus(0, None)
    census.counts = dict(workloads.EXPECTED_CENSUS)
    assert census.gate().correct
    gate = census.gate(dict(workloads.EXPECTED_CENSUS, heyting=6))
    assert not gate.correct and gate.failed == gate.attempted == 130023


def test_query_mix_gate_compares_with_library(tmp_path):
    qm = workloads.QueryMix(0, str(tmp_path))
    req = next(r for r in qm.requests if r[0] == "vietoris")
    code, text = qm.execute(req)
    qm.outcomes = [(req, (code, text))]
    assert qm.gate().correct
    payload = json.loads(text)
    payload["algebra"]["ok"] = not payload["algebra"]["ok"]
    qm.outcomes = [(req, (code, json.dumps(payload))), (req, (2, "error: x\n"))]
    gate = qm.gate()
    assert gate.failed == 2


def test_seed_changes_request_inputs(tmp_path):
    q1 = workloads.QueryMix(1, str(tmp_path / "q1"))
    q2 = workloads.QueryMix(2, str(tmp_path / "q2"))
    q1_again = workloads.QueryMix(1, str(tmp_path / "q3"))
    data = [[r[2] for r in q.requests] for q in (q1, q2, q1_again)]
    assert data[0] != data[1] and data[0] == data[2]


def test_closed_loop_never_resends_a_round():
    rounds = [[(r, i) for i in range(3)] for r in range(4)]
    latencies, outcomes, peaks = workloads.closed_loop(rounds, lambda req: True, 60, None)
    assert len(peaks) == 4 and len(latencies) == 12
    assert [req for req, _ in outcomes] == [req for requests in rounds for req in requests]
    assert len(workloads.closed_loop(rounds, lambda req: True, 0, None)[2]) == 1


def test_query_mix_inputs_are_all_distinct(tmp_path):
    qm = workloads.QueryMix(1, str(tmp_path))
    texts = {json.dumps(data, sort_keys=True) for _, _, data in qm.requests}
    assert len(texts) == len(qm.requests) == workloads.QM_ROUNDS * len(qm.rounds[0])


def test_seed_leaves_exhaustive_case_counts_alone(monkeypatch):
    # the same code paths on smaller universes, so the test stays quick
    monkeypatch.setattr(workloads, "DESCENT_MAX_POINTS", 3)
    monkeypatch.setattr(workloads, "CENSUS_POINTS", 4)
    tallies, counts = [], []
    for seed in (1, 2):
        sweep = workloads.DescentSweep(seed, None)
        sweep.run(1, None)
        tallies.append([(s.name, s.passed, s.failed) for s in sweep.report.suites])
        census = workloads.PosetCensus(seed, None)
        census.run(1, None)
        counts.append(census.counts)
    assert tallies[0] == tallies[1]
    assert counts[0] == counts[1]
    assert counts[0]["labeled"] == 219 and counts[0]["classes"] == 16


def test_tracer_accounts_for_time_and_restores_bindings():
    original = harness.lax_hom
    base = spaces.chain(3)
    objs = [
        laxcomma.LaxObject(c, a)
        for c in (spaces.sierpinski(), spaces.point())
        for a in finspace.enumerate_cmaps(c, base)[:1]
    ]
    tracer = tracing.Tracer()
    tracer.install()
    assert harness.lax_hom is not original
    start = time.process_time()
    for obj in objs:
        assert laxcomma.exponentiability_report(obj).mode == "definitive"
    homs = laxcomma.lax_hom(objs[1], objs[0])
    timed = time.process_time() - start
    tracer.uninstall()
    assert harness.lax_hom is original and laxcomma.lax_hom is original
    assert homs
    m = tracer.metrics(timed, 1)
    self_sum = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert self_sum == pytest.approx(tracer.root_time())
    assert 0 <= m["bench.self_s"] < timed
    assert m["laxcomma.lax_hom.calls"] == 1
    assert m["laxcomma.exponentiability_report.busy_s"] > 0
    assert set(m) == {name for name, _ in tracing.per_layer_metrics()}


def test_percentile_interpolates_and_counts_samples_above():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert run.percentile(values, 50) == (3.0, 2)
    assert run.percentile(values, 90) == (pytest.approx(4.6), 1)
    assert run.percentile([7.0], 90) == (7.0, 0)
    assert run.percentile([1.0, 3.0], 50) == (2.0, 1)


def test_per_layer_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    listed = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert listed == tracing.per_layer_metrics()


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
