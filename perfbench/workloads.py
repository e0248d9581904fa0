"""The benchmark workloads: seeded inputs, a timed phase, a correctness gate.

Every workload object builds its inputs in ``__init__`` (set-up), runs its
timed phase in ``run`` and checks the outputs in ``gate``, which runs after
the timed phase so that checking warms no cache the timed phase uses.  A
batch workload (``batch = True``) runs one whole batch per process; a
closed loop sends requests until the deadline.  Program functions are
always reached through their module (``laxcomma.exponentiability_report``),
so that the tracer's wrappers see the calls.

Inputs are generated by the benchmark's own code wherever the program's
cached functions would otherwise be warmed for the very values the timed
phase then uses.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import os
import random
import resource
import time
import traceback

import laxtop  # noqa: F401  (loads every submodule)
from laxtop import (
    cli,
    descent,
    enumeration,
    famx,
    finspace,
    harness,
    laxcomma,
    order,
    vietoris,
)
from laxtop.errors import LaxtopError

# Every duration is CPU time of this process (user + system).  For this
# single-threaded, CPU-bound program that is the wall time on an idle
# machine, without the time a shared host gives the CPU to someone else.
clock = time.process_time

# -- correctness gates --------------------------------------------------------

DESCENT_MAX_POINTS = 4
EXPECTED_DESCENT = {  # passed cases per suite at max_points=4, all with 0 failed
    "allw-join-coherence": 28541,
    "sierpinski-effective": 7556,
    "effective-implies-descent": 19702,
}
CENSUS_POINTS = 6
CENSUS_CAP = 10**7  # the default 10**6 raises CapExceeded at 6 points
EXPECTED_CENSUS = {
    "labeled": 130023,
    "classes": 318,
    "lattices": 15,
    "heyting": 5,
    "completely_distributive": 5,
    "sober": 318,
}


# The closed loop asks about the same structures for every seed, so that
# runs with different seeds do the same work; the seed picks how each
# structure is presented (point labels) and the order.
CATALOGUE_SEED = 0
# Faster code sends more rounds in the same time and its caches keep more
# entries, so the closed loop reads peak memory after a fixed number of rounds.
RSS_ROUNDS = 2


class Gate:
    """Attempted and failed operations, with the first few problems."""

    def __init__(self, attempted):
        self.attempted = attempted
        self.failed = 0
        self.problems = []

    def fail(self, problem, count=1):
        self.failed += count
        if len(self.problems) < 10:
            self.problems.append(problem)

    @property
    def correct(self):
        return self.failed == 0


# -- helpers --------------------------------------------------------------------


def monotone_tables(src, tgt):
    """Every monotone point table src -> tgt, by brute force over all tables."""
    out = []
    for values in itertools.product(tgt.points, repeat=len(src.points)):
        table = dict(zip(src.points, values))
        if all((table[x], table[y]) in tgt.le for (x, y) in src.le):
            out.append(table)
    return out


def space_dict(points, le):
    """The order file format of a space with the given points and order."""
    strict = sorted([x, y] for (x, y) in le if x != y)
    return {"name": "", "points": list(points), "topology": {"kind": "order", "le": strict}}


def relabel(rng, space):
    """(label map, space file dict) of a copy with fresh random point labels."""
    labels = set()
    while len(labels) < len(space.points):
        labels.add("".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(5)))
    labels = sorted(labels)
    rng.shuffle(labels)
    mapping = dict(zip(space.points, labels))
    points = [mapping[p] for p in space.points]
    rng.shuffle(points)
    le = [(mapping[x], mapping[y]) for (x, y) in space.le]
    return mapping, space_dict(points, le)


def build(data):
    """A FiniteSpace from a space file dict, without the serialization layer."""
    return finspace.build_space(
        data["points"], order=[tuple(p) for p in data["topology"]["le"]]
    )


def closed_loop(rounds, execute, seconds, tracer):
    """Send requests one after another, in whole rounds, until the deadline.

    The round in flight at the deadline is completed.  No round is sent
    twice: when every built round has been sent the loop stops early, so a
    request's input is never one the run has already seen.  Returns
    (latencies, outcomes, peak RSS in KiB after each round sent); an
    exception counts as the outcome, so a failed request is still timed and
    the loop keeps running.
    """
    latencies, outcomes, peaks = [], [], []
    deadline = time.monotonic() + seconds
    for requests in rounds:
        for req in requests:
            if tracer is not None:
                tracer.request = len(latencies)
            start = clock()
            try:
                out = execute(req)
            except Exception as exc:  # a failed request; reported by the gate
                out = exc
                out.formatted = traceback.format_exc()
            latencies.append(clock() - start)
            outcomes.append((req, out))
        peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if time.monotonic() >= deadline:
            break
    return latencies, outcomes, peaks


# -- descent-sweep ----------------------------------------------------------------


class DescentSweep:
    """Batch: paper_check over the three descent suites at max_points=4."""

    batch = True

    def __init__(self, seed, workdir):
        # the universes count as set-up; the suites then reuse these caches
        for n in range(1, DESCENT_MAX_POINTS + 1):
            harness.posets_up_to(n)
        harness.frame_bases(DESCENT_MAX_POINTS)
        self.config = harness.HarnessConfig(
            max_points=DESCENT_MAX_POINTS, seed=seed, suites=tuple(EXPECTED_DESCENT)
        )
        self.report = None

    def run(self, seconds, tracer):
        start = clock()
        self.report = harness.paper_check(self.config)
        return [clock() - start]

    def gate(self, expected=EXPECTED_DESCENT):
        gate = Gate(sum(expected.values()))
        tallies = {s.name: (s.passed, s.failed) for s in self.report.suites}
        for name, want in expected.items():
            passed, failed = tallies.get(name, (0, 0))
            if passed != want or failed:
                gate.fail(
                    f"{name}: {passed} passed, {failed} failed, expected {want} passed",
                    max(1, failed + abs(passed - want)),
                )
        gate.failed = min(gate.failed, gate.attempted)
        return gate


# -- poset-census ---------------------------------------------------------------


class PosetCensus:
    """Batch: every labeled poset on 6 points, canonicalised and classified."""

    batch = True

    def __init__(self, seed, workdir):
        self.counts = None

    def run(self, seconds, tracer):
        start = clock()
        # enumerate_posets does the same, but this loop also counts the
        # labeled posets
        labeled = enumeration.enumerate_labeled_posets(CENSUS_POINTS, cap=CENSUS_CAP)
        classes = {}
        for i, space in enumerate(labeled):
            if tracer is not None:
                tracer.request = i
            canon = enumeration.canonical_form(space)
            classes.setdefault((canon.points, tuple(sorted(canon.le))), canon)
        counts = dict.fromkeys(EXPECTED_CENSUS, 0)
        counts["labeled"] = len(labeled)
        counts["classes"] = len(classes)
        for key in sorted(classes):
            rep = classes[key]
            counts["sober"] += rep.is_t0() and finspace.sober_report(rep).is_sober
            if order.lattice_report(rep).is_complete_lattice:
                counts["lattices"] += 1
                counts["heyting"] += order.heyting_report(rep).is_heyting
                counts["completely_distributive"] += order.distributivity_report(
                    rep
                ).is_completely_distributive
        self.counts = counts
        return [clock() - start]

    def gate(self, expected=EXPECTED_CENSUS):
        gate = Gate(max(self.counts["labeled"], 1))
        wrong = [
            f"{k}: {self.counts[k]}, expected {v}"
            for k, v in expected.items()
            if self.counts[k] != v
        ]
        if wrong:  # a wrong census makes every classified poset suspect
            gate.fail("; ".join(wrong), gate.attempted)
        return gate


# -- query-mix ------------------------------------------------------------------

# Requests of each kind in one round, plus one ``vietoris`` request from each
# closed-set band.  No usage data exists, so this mix is assumed: ``check``
# is the everyday query and has half the requests, ``expo`` a quarter, the
# three descent categories share the rest and ``vietoris`` is rare.  The
# weights are set so that, in CPU time on one core, ``latency_p50_ms`` falls
# inside the ``check`` requests, ``latency_p90_ms`` inside ``expo``, the
# slowest 1.5 % are ``vietoris`` and ``vietoris`` takes about half the time.
QM_MIX = (
    ("check", 100),
    ("top", 15),
    ("fam", 15),
    ("laxcomma", 15),
    ("expo", 50),
)
QM_VIETORIS_BANDS = ((2, 7), (8, 11), (12, 15), (16, 18), (19, 20))  # closed sets
QM_MAX_POINTS = 5
QM_ROUNDS = 32  # about 13 are sent in 30 s; the rest leave room for faster code


class QueryMix:
    """Closed loop, one client, through the CLI on JSON files from set-up.

    Every round asks about the same catalogue of structures; the seed gives
    every space of every round fresh point labels and orders the requests.
    """

    batch = False

    def __init__(self, seed, workdir):
        self.rng = random.Random(CATALOGUE_SEED)
        present = random.Random(seed)
        self.relabel = functools.partial(relabel, present)
        self.inputs = os.path.join(workdir, "inputs")
        os.makedirs(self.inputs, exist_ok=True)
        shapes = harness.posets_up_to(QM_MAX_POINTS)
        self.lattices = [s for s in shapes if order.lattice_report(s).is_complete_lattice]
        self.small = {k: [s for s in shapes if len(s.points) <= k] for k in (3, 4)}
        closed = {s: len(s.closed_sets()) for s in shapes}
        bands = [
            [s for s in shapes if lo <= closed[s] <= hi] for lo, hi in QM_VIETORIS_BANDS
        ]
        catalogue = [self._structure(kind) for kind, n in QM_MIX for _ in range(n)]
        catalogue += [("vietoris", (self.rng.choice(band),)) for band in bands]
        self.requests = []
        self.rounds = []
        for _ in range(QM_ROUNDS):
            reqs = [self._present(*structure) for structure in catalogue]
            present.shuffle(reqs)
            self.rounds.append(reqs)
        self.outcomes = []

    def _pick(self, src, tgt, pick=None):
        tables = monotone_tables(src, tgt)
        if pick is not None:
            tables = [t for t in tables if pick(t)]
        return self.rng.choice(tables)

    def _structure(self, kind):
        """One catalogue entry: the request kind and its unlabelled content."""
        rng = self.rng
        if kind == "check":
            return kind, (rng.choice(self.lattices),)
        if kind == "top":
            src, tgt = rng.choice(self.small[4]), rng.choice(self.small[3])
            tables = monotone_tables(src, tgt)
            onto = [t for t in tables if set(t.values()) == set(tgt.points)]
            # half the maps are surjective where that is possible
            return kind, (src, tgt, rng.choice(onto if onto and rng.random() < 0.5 else tables))
        if kind == "fam":
            base = rng.choice(self.lattices)
            targets = {f"t{j}": rng.choice(base.points) for j in range(rng.randint(1, 2))}
            table, values = {}, {}
            for i in range(rng.randint(1, 3)):
                j = rng.choice(sorted(targets))
                below = [x for x in base.points if base.leq(x, targets[j])]
                table[f"s{i}"], values[f"s{i}"] = j, rng.choice(below)
            return kind, (base, targets, table, values)
        base = rng.choice(self.lattices)
        a = rng.choice(self.small[3])
        if kind == "expo":
            return kind, (base, a, self._pick(a, base))
        b = rng.choice(self.small[3])
        f = self._pick(a, b)
        beta = self._pick(b, base)
        alpha = self._pick(a, base, lambda t: all(base.leq(t[p], beta[f[p]]) for p in a.points))
        return kind, (base, a, b, f, alpha, beta)

    def _present(self, kind, spec):
        """A request on freshly labelled copies, with its input file written."""
        if kind == "check":
            _, data = self.relabel(spec[0])
            argv = ["check", "--props", "t0,sober,lattice,heyting,distributivity"]
        elif kind == "vietoris":
            _, data = self.relabel(spec[0])
            argv = ["vietoris"]
        elif kind == "top":
            src, tgt, table = spec
            ms, sd = self.relabel(src)
            mt, td = self.relabel(tgt)
            data = {"source": sd, "target": td, "map": {ms[p]: mt[v] for p, v in table.items()}}
            argv = ["descent", "--category", "top"]
        elif kind == "fam":
            base, targets, table, values = spec
            mb, bd = self.relabel(base)
            data = {
                "base": bd,
                "source": {"values": {i: mb[v] for i, v in values.items()}},
                "target": {"values": {j: mb[v] for j, v in targets.items()}},
                "map": table,
            }
            argv = ["descent", "--category", "fam"]
        elif kind == "expo":
            base, a, alpha = spec
            mb, bd = self.relabel(base)
            ma, ad = self.relabel(a)
            data = {"base": bd, "space": ad, "alpha": {ma[p]: mb[v] for p, v in alpha.items()}}
            argv = ["expo"]
        else:  # laxcomma
            base, a, b, f, alpha, beta = spec
            mb, bd = self.relabel(base)
            ma, ad = self.relabel(a)
            mB, Bd = self.relabel(b)
            data = {
                "base": bd,
                "source": {"space": ad, "alpha": {ma[p]: mb[v] for p, v in alpha.items()}},
                "target": {"space": Bd, "alpha": {mB[p]: mb[v] for p, v in beta.items()}},
                "map": {ma[p]: mB[v] for p, v in f.items()},
            }
            argv = ["descent", "--category", "laxcomma"]
        path = os.path.join(self.inputs, f"{len(self.requests)}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(data))
        req = (kind, argv + [path, "--json"], data)
        self.requests.append(req)
        return req

    def execute(self, req):
        out = io.StringIO()
        code = cli.run_command(req[1], out=out)
        return code, out.getvalue()

    def run(self, seconds, tracer):
        latencies, self.outcomes, self.round_peaks = closed_loop(
            self.rounds, self.execute, seconds, tracer
        )
        return latencies

    def gate(self):
        gate = Gate(len(self.outcomes))
        for (kind, argv, data), out in self.outcomes:
            if isinstance(out, Exception):
                gate.fail(f"{kind}: {getattr(out, 'formatted', repr(out))}")
                continue
            code, text = out
            try:
                payload = json.loads(text)
            except json.JSONDecodeError:
                gate.fail(f"{kind}: exit {code}, output is not JSON: {text[:200]!r}")
                continue
            want_code, want = expected_verdict(kind, data)
            got = cli_verdict(kind, payload)
            if code not in (0, 1) or code != want_code or got != want:
                gate.fail(f"{kind} {argv}: exit {code} verdict {got}, library {want_code} {want}")
        return gate


def _tri(v):
    return {True: "true", False: "false", None: "unknown"}[v]


def cli_verdict(kind, payload):
    """The verdict fields of a CLI JSON reply."""
    if kind == "check":
        return (
            payload["t0"],
            payload["sober"],
            payload["lattice"]["is_complete_lattice"],
            payload["heyting"]["is_heyting"],
            payload["distributivity"]["is_completely_distributive"],
        )
    if kind in ("top", "fam", "laxcomma"):
        return payload["is_descent"], payload["is_effective"]
    if kind == "expo":
        return payload["exponentiable"]
    return payload["algebra"]["ok"]


def expected_verdict(kind, data):
    """(exit code, verdict) of the library call on the same input."""
    if kind == "check":
        space = build(data)
        verdict = (
            space.is_t0(),
            finspace.sober_report(space).is_sober,
            order.lattice_report(space).is_complete_lattice,
            order.heyting_report(space).is_heyting,
            order.distributivity_report(space).is_completely_distributive,
        )
        return (0 if all(verdict[:4]) else 1), verdict
    if kind == "vietoris":
        try:
            ok = vietoris.vietoris_algebra_check(build(data)).ok
        except LaxtopError:
            ok = False
        return (0 if ok else 1), ok
    if kind == "expo":
        base = build(data["base"])
        obj = laxcomma.lax_object(build(data["space"]), base, data["alpha"])
        verdict = laxcomma.exponentiability_report(obj).exponentiable
        return (1 if verdict is False else 0), _tri(verdict)
    if kind == "top":
        f = finspace.cmap(build(data["source"]), build(data["target"]), data["map"])
        report = descent.top_effective_descent_check(f)
        d, e = report.is_descent, report.is_effective
    elif kind == "fam":
        base = build(data["base"])
        src = famx.fam_object(base, data["source"]["values"])
        tgt = famx.fam_object(base, data["target"]["values"])
        f = famx.fam_morphism(data["map"], src, tgt)
        d = famx.fam_descent_check(f)
        e = famx.fam_effective_descent_check(f) if d else d
        d, e = d.verdict, e.verdict
    else:  # laxcomma
        base = build(data["base"])
        src = laxcomma.lax_object(build(data["source"]["space"]), base, data["source"]["alpha"])
        tgt = laxcomma.lax_object(build(data["target"]["space"]), base, data["target"]["alpha"])
        f = laxcomma.lax_morphism(finspace.cmap(src.space, tgt.space, data["map"]), src, tgt)
        report = descent.laxcomma_effective_descent(f)
        d, e = report.is_descent, report.is_effective
    return (1 if d is False or e is False else 0), (_tri(d), _tri(e))


WORKLOADS = {
    "descent-sweep": DescentSweep,
    "query-mix": QueryMix,
    "poset-census": PosetCensus,
}
