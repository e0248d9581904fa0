"""Report of every workload: end-to-end metrics, per-layer numbers, overhead.

    python3 perfbench/report.py

For each workload this runs ``run.py`` once untraced and once traced with
seed 1, for the ``run_seconds`` of ``BENCHMARK.json``.  It prints the untraced end-to-end metrics with their units
and the error rate; then, per layer, calls, busy and self time, cache hit
ratios with their lookup counts, errors raised and the Vietoris
``MeetsMissing`` share of the traced run.  It shows that the layers' self
times plus the benchmark's own time add up to the traced timed phase, and
gives the tracing overhead as untraced minus traced ``ops_per_s``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import ROOT, WORKLOADS  # noqa: E402
from tracer import LAYERS  # noqa: E402

SEED = 1


def measure(workload, seed, seconds, trace):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} --trace {trace} failed with exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_lines(layer, m):
    """The report lines of one layer, skipping metrics of idle functions."""
    lines = []
    for name in sorted(k for k in m if k.startswith(layer + ".")):
        value = m[name]
        if name.endswith(".hit_ratio"):
            lookups = m[name.replace(".hit_ratio", ".lookups")]
            if lookups:
                lines.append(f"    {name:46s} {value:.4f} of {lookups} lookups")
        elif name.endswith(".lookups"):
            continue
        elif value or name.endswith((".self_s", ".raised")):
            lines.append(f"    {name:46s} {value:.6g}")
    return lines


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    unaccounted = []
    for workload in WORKLOADS:
        result = measure(workload, SEED, seconds, 0)
        plain = {name: m["value"] for name, m in result["metrics"].items()}
        traced = {
            name: m["value"]
            for name, m in measure(workload, SEED, seconds, 1)["metrics"].items()
        }
        untraced_ops = plain["ops_per_s"]
        traced_ops = traced["bench.traced_ops_per_s"]
        self_sum = sum(traced[f"{layer}.self_s"] for layer in LAYERS)
        spans_s = traced["bench.timed_s"] - traced["bench.self_s"]
        if abs(self_sum - spans_s) > 1e-6 * max(1.0, spans_s) or traced["bench.self_s"] < 0:
            unaccounted.append(workload)
        print(f"{workload} (seed {SEED}, {seconds} s)")
        for name, m in result["metrics"].items():
            print(f"  {name:16s} {m['value']:.6g} {m['unit']}")
        print(
            f"  error_rate       {result['failed'] / result['attempted']:.6g} "
            f"({result['failed']} failed of {result['attempted']})"
        )
        print(
            f"  tracing overhead: {untraced_ops - traced_ops:.4g} ops/s "
            f"({untraced_ops:.4g} untraced, {traced_ops:.4g} traced, "
            f"{traced['bench.spans']} spans)"
        )
        print(
            f"  traced timed phase {traced['bench.timed_s']:.4f} s = outermost spans "
            f"{spans_s:.4f} s + benchmark {traced['bench.self_s']:.4f} s; "
            f"layer self times add up to {self_sum:.4f} s"
        )
        for layer in LAYERS:
            print(f"  {layer}")
            print("\n".join(layer_lines(layer, traced)))
    if unaccounted:
        print(f"layer self times do not account for the timed phase of {', '.join(unaccounted)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
