"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in fresh child processes of this script, one at a time
and from a single thread, so every measurement starts with cold caches.  A
closed loop runs in one measuring child for ``--seconds``; a batch workload
runs one batch per measuring child and starts another while the batches so
far plus one more fit in ``--seconds`` (a traced run measures one batch).
Every child sets up, and set-up-only children are added until there are
``SETUPS``; ``setup_s`` is the median over all of them.  Times are CPU time
of the measuring process (see ``workloads.clock``).  With
``--trace 0`` the last line of output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run,
and the spans are written under ``.perfbench_work/``.  The exit code is 0
only when every output passed the workload's correctness gate.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("descent-sweep", "query-mix", "poset-census")
SETUPS = 3  # set-ups per run at least, the measuring children's included
TIME_LIMIT_S = 170  # for the whole run, children included
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
PERCENTILES = (50, 90, 99)
MIN_BEYOND = 10  # samples a percentile needs above it to be reported


def percentile(sorted_values, p):
    """Linearly interpolated percentile and the number of samples above it."""
    pos = (len(sorted_values) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    value = sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)
    return value, len(sorted_values) - bisect.bisect_right(sorted_values, value)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- child process ------------------------------------------------------------


def child_main(args):
    """Set up (and for ``run``, measure) one workload; print one JSON line."""
    sys.path.insert(0, SRC)
    import laxtop

    if not os.path.abspath(laxtop.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"laxtop imported from {laxtop.__file__}, not from {SRC}")
    import workloads

    workdir = os.path.join(WORKDIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.child == "setup":
            return {"setup_s": time.process_time()}
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        # CPU time since the process started, like every duration measured
        setup_s = start = time.process_time()
        latencies = wl.run(args.seconds, tracer)
        timed_s = time.process_time() - start
        if tracer is not None:
            tracer.uninstall()
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if hasattr(wl, "round_peaks"):  # a closed loop
            rss_round = min(workloads.RSS_ROUNDS, len(wl.round_peaks))
            peak_kib = wl.round_peaks[rss_round - 1]
        peak_rss_mb = peak_kib / 1024
        gate = wl.gate()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops = gate.attempted - gate.failed
    out = {
        "batch": wl.batch,
        "setup_s": setup_s,
        "timed_s": timed_s,
        "ops": ops,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "problems": gate.problems,
        "peak_rss_mb": peak_rss_mb,
        "latencies": sorted(latencies),
    }
    if hasattr(wl, "round_peaks"):
        out["rounds"] = [len(wl.round_peaks), len(wl.rounds), rss_round]
    if tracer is not None:
        out["per_layer"] = tracer.metrics(timed_s, ops)
        tracer.write_spans(
            os.path.join(WORKDIR, f"spans-{args.workload}-seed{args.seed}.tsv")
        )
    return out


# -- parent process -------------------------------------------------------------


def spawn(args, phase, deadline):
    """Run one child to completion and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--child", phase,
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{phase} child of {args.workload} failed with exit {proc.returncode}")
    return json.loads(lines[-1])


def measure(args, deadline):
    """The measuring children's results, merged, and every set-up time."""
    runs = [spawn(args, "run", deadline)]
    if runs[0]["batch"] and not args.trace:
        while sum(r["timed_s"] for r in runs) + runs[-1]["timed_s"] <= args.seconds:
            runs.append(spawn(args, "run", deadline))
    setups = [r["setup_s"] for r in runs]
    while len(setups) < SETUPS:
        setups.append(spawn(args, "setup", deadline)["setup_s"])
    if len(runs) == 1:
        return runs[0], setups
    res = {
        key: sum(r[key] for r in runs)
        for key in ("timed_s", "ops", "attempted", "failed")
    }
    res["problems"] = [p for r in runs for p in r["problems"]]
    res["peak_rss_mb"] = max(r["peak_rss_mb"] for r in runs)
    res["latencies"] = sorted(t for r in runs for t in r["latencies"])
    return res, setups


def main(argv):
    args = parse_args(argv)
    if args.child:
        print(json.dumps(child_main(args)))
        return 0
    if not os.path.isfile(os.path.join(SRC, "laxtop", "__init__.py")):
        sys.stderr.write(f"no laxtop sources under {SRC}\n")
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        res, setups = measure(args, deadline)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"{args.workload} did not finish within {TIME_LIMIT_S} s\n")
        return 1
    lat = res["latencies"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, one client")
    print(
        f"  setup_s         {statistics.median(setups):.4f} s   median of "
        f"{' '.join(f'{s:.4f}' for s in setups)}"
    )
    ops_per_s = res["ops"] / res["timed_s"]
    print(f"  ops_per_s       {ops_per_s:.2f} 1/s   {res['ops']} verified ops in {res['timed_s']:.3f} s")
    values = {}
    for p in PERCENTILES:
        value, beyond = percentile(lat, p)
        values[p] = value * 1000
        note = "" if beyond >= MIN_BEYOND else "  (unsupported: fewer than 10 samples above)"
        print(f"  latency_p{p}_ms  {value * 1000:.3f} ms   {len(lat)} samples, {beyond} above{note}")
    if "rounds" in res:
        sent, built, rss_round = res["rounds"]
        note = "  (all used: the timed phase ended before the deadline)" if sent == built else ""
        print(f"  rounds          {sent} of {built} sent{note}")
    rss_note = f"   after round {rss_round}" if "rounds" in res else ""
    print(f"  peak_rss_mb     {res['peak_rss_mb']:.1f} MB{rss_note}")
    print(f"  error_rate      {res['failed'] / res['attempted']:.6f}   {res['failed']} failed of {res['attempted']}")
    for problem in res["problems"]:
        print(f"  FAILED: {problem}")
    if args.trace:
        import tracer as tracing  # no laxtop import: the parent stays light

        metrics = res["per_layer"]
        units = dict(tracing.per_layer_metrics())
        for name in units:
            print(f"  {name:48s} {metrics[name]:.6g} {units[name]}")
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    else:
        measured = {
            "setup_s": statistics.median(setups),
            "ops_per_s": ops_per_s,
            "latency_p50_ms": values[50],
            "latency_p90_ms": values[90],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: {"value": measured[name], "unit": unit} for name, unit in END_TO_END}
    correct = res["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
