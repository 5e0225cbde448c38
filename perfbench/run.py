#!/usr/bin/env python3
"""Campaign benchmark for eqmorph.

    python3 perfbench/run.py --workload builtin-vetted --seed 1 \\
        --seconds 30 --trace 0

Run it from the root of a checkout: eqmorph is imported from ``src/`` next
to this directory, never from an installed copy, and scratch files go to
``.perfbench_out/``.  One invocation runs one workload in one process.  The
loop is closed: the campaign is a single client that waits for each reply
before it sends the next request.  ``--seed`` makes the campaign seeds, so
the same seed gives the same schemas, databases and queries.

Workloads (why each was chosen is in ``BASELINE.md``):

* ``builtin-vetted``: a clean campaign against ``builtin`` with filter
  budget 32, in 50-query iterations.
* ``shim-unvetted``: a clean campaign against the line-protocol shim in a
  child process, with filter budget 0, in 500-query iterations.
* ``fault-hunt``: hunts of the six ``builtin:<fault>`` engines with filter
  budget 32.  A hunt runs 50-query iterations until the first report; that
  iteration's reports are persisted, read back and replayed one by one.

Every workload first hunts the six faults in its own configuration (same
kind of target, same filter budget) on a fixed panel of campaign seeds, the
same in every run, which gives ``detect_s_*``.  On the clean workloads this
is also a positive control for their zero-reports check.  Then the clean
workloads run their campaign, and ``fault-hunt`` hunts on seeds drawn from
``--seed``, until ``--seconds`` are used up.

Times are scaled to a reference machine speed.  The 2-vCPU KVM guest this
was tuned on runs the same work up to 2x slower for minutes at a time, so
around every unit of work (a hunt or a campaign iteration) the benchmark
times a fixed pure-Python loop, ``calibration()``, and scales the unit's
wall time by how much slower than ``REFERENCE_S`` that loop ran.  On a
machine running at the reference speed, scaled and wall times agree.  The
summary line before the JSON gives the unscaled throughput too.

The last line on stdout is one JSON object with ``correct``, ``attempted``
(campaign iterations and replays run), ``failed`` (those that raised) and
``metrics``.  ``--trace 0`` reports the end-to-end metrics.  ``--trace 1``
spends half of ``--seconds`` on an untraced pass, repeats exactly that work
with every layer traced (see ``spans.py``) and reports the per-layer metrics
of the traced pass.  A run that fails a correctness check prints
``"correct": false`` with no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from datetime import datetime
from pathlib import Path
from time import perf_counter
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBE = Path(__file__).resolve().parent / "setup_probe.py"

SHIM = f"extern:{shlex.quote(sys.executable)} -m eqmorph.shim"
SMALL_ITERATION = 50  # seed queries per hunting or builtin-vetted iteration
PANEL_SEEDS = 2  # fixed campaign seeds hunted per fault for detect_s_*
HUNT_MAX_ITERATIONS = 40  # a fault not reported by then fails the run
REPEAT_QUERIES = 100  # size of the iteration the repeat check runs twice
SETUP_REPEATS = 7  # fresh processes timed for setup_s
REFERENCE_S = 0.00175  # calibration() on that KVM guest at its fastest


@dataclass(frozen=True)
class Workload:
    target: Optional[str]  # clean campaign target; None: the run only hunts
    queries: int  # seed queries per clean campaign iteration
    filter_budget: int
    hunt_target: str  # "{fault}" stands for each built-in fault
    persist: bool  # persist each detecting iteration and replay its reports


WORKLOADS = {
    "builtin-vetted": Workload("builtin", SMALL_ITERATION, 32,
                               "builtin:{fault}", False),
    "shim-unvetted": Workload(SHIM, 500, 0, SHIM + " --fault {fault}",
                              False),
    "fault-hunt": Workload(None, SMALL_ITERATION, 32, "builtin:{fault}",
                           True),
}

END_TO_END = {
    "seeds_per_s": "1/s",
    "pairs_per_s": "1/s",
    "detect_s_p50": "s",
    "detect_s_total": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# layers whose calls and self time are reported as <name>.calls/.self_s
SELF_TIMED = (
    "harness.run_iteration", "harness.generate_seed",
    "harness.compare_results", "harness.persist_iteration",
    "harness.replay_report", "parser.parse", "sqlast.render",
    "sqlast.validate", "sqlast.qualify", "algebra.lower",
    "algebra.remap_to_sql", "sensitivity.classify",
    "transform.transform_query", "dbgen.databases_for_search",
    "equivfilter.check_bounded", "refdb.Executor.execute",
    "refdb.Executor.rendered_rows", "refdb.load_script", "refdb.dump_script",
)
# endpoint calls, reported as <name>.calls/.total_s; the shim's own work is
# inside these, since it runs in a child process
ADAPTER_TIMED = ("adapter.start", "adapter.stop", "adapter.reset",
                 "adapter.exec_sql")
# inclusive time, for the share of the loop spent in the filter
INCLUSIVE = ("harness.run_iteration", "equivfilter.check_bounded")
COUNTED = ("equivfilter.check_bounded.probes",
           "equivfilter.check_bounded.rejected",
           "dbgen.databases_for_search.dbs",
           "transform.transform_query.no_rule")


class Failed(Exception):
    """A correctness check did not hold."""


def pin_to_one_cpu():
    """Keep this process and the engine processes it starts on one CPU,
    the one ``calibration()`` measures.  The loop is closed, so the client
    and the shim never compute at the same time."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def import_eqmorph():
    """Make ``src/`` the only place eqmorph comes from, for this process
    and for the engine processes it starts."""
    if not (SRC / "eqmorph" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'eqmorph'} not found; run this from "
                 "the root of an eqmorph checkout")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    import eqmorph
    if Path(eqmorph.__file__).resolve().parent != (SRC / "eqmorph").resolve():
        sys.exit(f"perfbench: eqmorph was imported from {eqmorph.__file__}")


def calibration() -> float:
    """Seconds a fixed pure-Python loop takes (tuples, a keyed sort, a
    dict of lists), fastest of three.  Over 10-s windows its slowdowns
    tracked a campaign's to within 3% on a 2-vCPU KVM guest."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        rows = [(i % 7, str(i), (i * 31) % 101) for i in range(3000)]
        rows.sort(key=lambda r: (r[2], r[1]))
        groups: dict = {}
        for r in rows:
            groups.setdefault(r[0], []).append(r)
        best = min(best, perf_counter() - t0)
    return best


def scaled(work):
    """(result of work(), factor that scales its wall time to the
    reference speed), calibrating before and after."""
    before = calibration()
    result = work()
    return result, 2 * REFERENCE_S / (before + calibration())


def counters(stats) -> dict:
    """IterationStats without its wall-clock field."""
    return {k: v for k, v in asdict(stats).items() if k != "elapsed"}


@dataclass
class Outcome:
    """What one unit of work did."""
    seconds: float  # wall time of the timed part
    stats: list  # IterationStats of its iterations
    detect_s: float = 0.0  # hunts: wall time from start to first report
    seeds_to_detect: int = 0  # hunts: seeds generated up to first report
    persisted_bytes: int = 0  # fault-hunt: size of the persisted iteration
    scale: float = 1.0  # wall time -> reference-speed time

    def same_work(self, other: "Outcome") -> bool:
        return (list(map(counters, self.stats)) ==
                list(map(counters, other.stats))
                and self.seeds_to_detect == other.seeds_to_detect)


class Run:
    """One pass over a workload's units: the panel hunts, then campaign
    iterations or seeded hunts while time is left."""

    def __init__(self, name: str, seed: str, out: Path):
        from eqmorph import BuiltinEndpoint, FAULTS
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.out = out
        self.faults = sorted(FAULTS)
        self.clean = BuiltinEndpoint()
        self.attempted = 0
        self.outcomes: dict = {}  # unit -> Outcome, in the order run
        self.panel_repeat: dict = {}  # panel unit -> Outcome of its rerun
        self.wall_s = 0.0
        self._endpoint = None  # the clean campaign's, during a pass

    def panel_units(self):
        return [("hunt", fault, f"panel-{fault}-{i}")
                for fault in self.faults for i in range(PANEL_SEEDS)]

    def more_units(self):
        for k in itertools.count():
            if self.workload.target is None:
                for fault in self.faults:
                    yield ("hunt", fault, f"hunt-{self.seed}-{k}")
            else:
                yield ("campaign", k)

    def measure(self, budget_s=0.0, repeat_panel=True, units=None,
                tracer=None):
        """Run the panel, then more units while the next (and the panel's
        second run, if ``repeat_panel``) is predicted to end within
        ``budget_s``, then the panel again; or run exactly ``units``.
        ``tracer`` is installed for the whole pass."""
        t0 = perf_counter()
        try:
            with tracer if tracer is not None else nullcontext():
                for unit in units or self.panel_units():
                    self.outcomes[unit] = self.run_unit(unit)
                if units is None:
                    self.measure_more(budget_s, t0, repeat_panel)
        finally:
            self.stop_campaign_endpoint()
        self.wall_s = perf_counter() - t0

    def measure_more(self, budget_s, t0, repeat_panel):
        panel_s = perf_counter() - t0
        reserved = 2 * panel_s if repeat_panel else panel_s
        for done, unit in enumerate(self.more_units(), 1):
            self.outcomes[unit] = self.run_unit(unit)
            more_s = perf_counter() - t0 - panel_s
            if reserved + more_s * (done + 1) / done > budget_s:
                break
        self.stop_campaign_endpoint()
        if repeat_panel:
            for unit in self.panel_units():
                again = self.run_unit(unit)
                if not again.same_work(self.outcomes[unit]):
                    raise Failed(f"{unit} did different work on a repeat")
                self.panel_repeat[unit] = again

    def stop_campaign_endpoint(self):
        if self._endpoint is not None:
            self._endpoint.stop()
            self._endpoint = None

    def run_unit(self, unit) -> Outcome:
        if unit[0] == "campaign":
            outcome, scale = scaled(lambda: self.campaign_iteration(unit[1]))
        else:
            outcome, scale = scaled(lambda: self.hunt(unit[1], unit[2]))
        outcome.scale = scale
        return outcome

    # -- operations -----------------------------------------------------

    def iterate(self, endpoint, cfg, campaign_seed, iteration):
        from eqmorph import harness
        self.attempted += 1
        return harness.run_iteration(endpoint, cfg, campaign_seed, iteration)

    def replay(self, report, endpoint) -> bool:
        from eqmorph import harness
        self.attempted += 1
        return harness.replay_report(report, endpoint).reproduced

    def config(self, queries):
        from eqmorph import GeneratorConfig
        return GeneratorConfig(queries_per_iteration=queries,
                               filter_budget=self.workload.filter_budget)

    def campaign_iteration(self, k) -> Outcome:
        if self._endpoint is None:
            from eqmorph import make_endpoint
            self._endpoint = make_endpoint(self.workload.target).start()
        cfg = self.config(self.workload.queries)
        t0 = perf_counter()
        res = self.iterate(self._endpoint, cfg, f"campaign-{self.seed}", k)
        seconds = perf_counter() - t0
        if res.reports:
            raise Failed(f"clean campaign iteration {k} reported "
                         f"{len(res.reports)} divergences")
        return Outcome(seconds, [res.stats])

    def hunt(self, fault, campaign_seed) -> Outcome:
        """Iterations against one faulty engine until the first report.
        Timed from the first iteration to the end of persist and replay."""
        from eqmorph import BugReport, harness, make_endpoint
        cfg = self.config(SMALL_ITERATION)
        endpoint = make_endpoint(
            self.workload.hunt_target.format(fault=fault)).start()
        stats, persisted = [], 0
        try:
            t0, start = perf_counter(), time.time()
            for it in range(HUNT_MAX_ITERATIONS):
                res = self.iterate(endpoint, cfg, campaign_seed, it)
                stats.append(res.stats)
                if res.reports:
                    break
            else:
                raise Failed(f"{fault} not reported within "
                             f"{HUNT_MAX_ITERATIONS} iterations")
            first = res.reports[0]
            detect_s = datetime.fromisoformat(first.timestamp).timestamp() \
                - start
            index = int(first.id.rsplit("-", 1)[1])
            if self.workload.persist:
                out = self.out / f"{fault}-{campaign_seed}"
                harness.persist_iteration(out, res)
                reports = [BugReport.from_json(p.read_text())
                           for p in sorted(out.glob("report-*.json"))]
                reproduced = {rep.id: self.replay(rep, endpoint)
                              for rep in reports}
                seconds = perf_counter() - t0
                persisted = sum(p.stat().st_size for p in out.iterdir())
                shutil.rmtree(out)
                if first.id not in reproduced:
                    raise Failed(f"report {first.id} was not persisted")
                first = next(rep for rep in reports if rep.id == first.id)
                first_reproduced = reproduced[first.id]
            else:
                seconds = perf_counter() - t0
                first_reproduced = self.replay(first, endpoint)
        finally:
            endpoint.stop()
        if not first_reproduced:
            raise Failed(f"report {first.id} does not reproduce on its "
                         f"engine ({fault})")
        if self.replay(first, self.clean):
            raise Failed(f"report {first.id} of {fault} reproduces on the "
                         "clean engine")
        return Outcome(seconds, stats, detect_s,
                       it * SMALL_ITERATION + index + 1, persisted)

    def check_repeat(self):
        """A clean campaign's counters repeat exactly for one seed."""
        from eqmorph import make_endpoint
        cfg = self.config(REPEAT_QUERIES)
        endpoint = make_endpoint(self.workload.target).start()
        try:
            a, b = (self.iterate(endpoint, cfg, f"campaign-{self.seed}", 0)
                    for _ in range(2))
        finally:
            endpoint.stop()
        if counters(a.stats) != counters(b.stats):
            raise Failed(f"counters differ across repeats: {a.stats} "
                         f"vs {b.stats}")
        if a.reports or b.reports:
            raise Failed("clean repeat iteration reported divergences")

    # -- results --------------------------------------------------------

    def throughput_outcomes(self):
        """Campaign iterations, or for fault-hunt every hunt."""
        kind = "hunt" if self.workload.target is None else "campaign"
        return [o for u, o in self.outcomes.items() if u[0] == kind]

    def panel(self):
        return [self.outcomes[u] for u in self.panel_units()]

    def detect_by_fault(self) -> dict:
        """fault -> reference-speed seconds to the first report, one per
        panel seed; the faster of the panel's two runs when it ran twice."""
        detect: dict = {}
        for unit in self.panel_units():
            runs = [o for o in (self.outcomes[unit],
                                self.panel_repeat.get(unit)) if o]
            detect.setdefault(unit[1], []).append(
                min(o.detect_s * o.scale for o in runs))
        return detect

    def summary(self) -> str:
        timed = self.throughput_outcomes()
        seeds = sum(s.generated for o in timed for s in o.stats)
        wall = sum(o.seconds for o in timed)
        ref = sum(o.seconds * o.scale for o in timed)
        return (f"{self.name} seed={self.seed}: {len(self.outcomes)} units "
                f"in {self.wall_s:.2f} s ({len(self.panel())} panel hunts); "
                f"{len(timed)} units timed for throughput, {seeds} seeds, "
                f"{seeds / wall:.1f} seeds/s wall, "
                f"{seeds / ref:.1f} seeds/s at reference speed")


# ---------------------------------------------------------------------------
# metrics


def setup_seconds(run: Run) -> float:
    """Median over fresh processes of import + start + first reset,
    scaled to the reference speed."""
    from eqmorph import GeneratorConfig, dump_script, generate_database, \
        generate_schema
    rng = random.Random(f"campaign-{run.seed}:0")
    cfg = GeneratorConfig()
    schema = generate_schema(rng, cfg)
    script = dump_script(generate_database(rng, schema, cfg))
    w = run.workload
    target = w.target or w.hunt_target.format(fault=run.faults[0])

    def probe():
        done = subprocess.run(
            [sys.executable, str(SETUP_PROBE), str(SRC), target],
            input=script, capture_output=True, text=True, timeout=60,
            check=True, cwd=ROOT)
        return float(done.stdout.strip().splitlines()[-1])

    times = []
    for _ in range(SETUP_REPEATS):
        seconds, scale = scaled(probe)
        times.append(seconds * scale)
    return statistics.median(times)


def end_to_end_metrics(run: Run, setup_s: float) -> dict:
    timed = run.throughput_outcomes()
    seconds = sum(o.seconds * o.scale for o in timed)
    fault_means = [statistics.mean(times)
                   for times in run.detect_by_fault().values()]
    values = {
        "seeds_per_s": sum(s.generated for o in timed for s in o.stats)
        / seconds,
        "pairs_per_s": sum(s.pairsEmitted for o in timed for s in o.stats)
        / seconds,
        "detect_s_p50": statistics.median(fault_means),
        "detect_s_total": sum(fault_means),
        "setup_s": setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit."""
    from spans import ERROR_CODES
    from eqmorph import RULE_CATALOG
    units = {}
    for name in SELF_TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in ADAPTER_TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
    units.update({f"{name}.total_s": "s" for name in INCLUSIVE})
    units["refdb.Executor.execute.us_per_call"] = "us"
    units["adapter.exec_sql.us_per_call"] = "us"
    units.update(dict.fromkeys(COUNTED, "count"))
    units["equivfilter.rejected_share"] = "ratio"
    units.update({f"transform.rule.{r}.pairs": "count"
                  for r in RULE_CATALOG})
    units.update({f"adapter.errors.{c}": "count"
                  for c in ERROR_CODES + ("other",)})
    units["adapter.failed_share"] = "ratio"
    units["harness.persist_iteration.bytes"] = "bytes"
    units["harness.seeds_to_detect"] = "count"
    units["trace.overhead_share"] = "ratio"
    units["trace.unattributed_share"] = "ratio"
    return units


def per_layer_metrics(untraced: Run, traced: Run, tracer) -> dict:
    """Layer times and counts of the traced pass (wall times, not scaled);
    ``untraced`` did the same work without tracing."""
    times, covered = tracer.layer_times()
    self_total = sum(s for _, _, s in times.values())
    if abs(self_total - covered) > 1e-6 * max(1.0, covered) \
            or covered > traced.wall_s:
        raise Failed(f"span self times ({self_total:.6f} s) do not add up "
                     f"to root span time ({covered:.6f} s) within the "
                     f"traced wall time ({traced.wall_s:.6f} s)")

    def get(name):
        return times.get(name, (0, 0.0, 0.0))

    def share(part, whole):
        return part / whole if whole else 0.0

    def reference_s(run):
        return sum(o.seconds * o.scale for o in run.outcomes.values())

    counts = tracer.counts
    values = dict(counts)
    for name in SELF_TIMED:
        values[f"{name}.calls"], _, values[f"{name}.self_s"] = get(name)
    for name in ADAPTER_TIMED:
        values[f"{name}.calls"], values[f"{name}.total_s"], _ = get(name)
    for name in INCLUSIVE:
        values[f"{name}.total_s"] = get(name)[1]
    for name in ("refdb.Executor.execute", "adapter.exec_sql"):
        calls, total, _ = get(name)
        values[f"{name}.us_per_call"] = share(total * 1e6, calls)
    values["equivfilter.rejected_share"] = share(
        counts["equivfilter.check_bounded.rejected"],
        get("equivfilter.check_bounded")[0])
    values["adapter.failed_share"] = share(
        counts["adapter.failed"],
        get("adapter.reset")[0] + get("adapter.exec_sql")[0])
    values["harness.persist_iteration.bytes"] = sum(
        o.persisted_bytes for o in traced.outcomes.values())
    values["harness.seeds_to_detect"] = statistics.median(
        o.seeds_to_detect for o in traced.panel())
    values["trace.overhead_share"] = \
        reference_s(traced) / reference_s(untraced) - 1.0
    values["trace.unattributed_share"] = \
        (traced.wall_s - covered) / traced.wall_s
    return {name: (values.get(name, 0), unit)
            for name, unit in per_layer_units().items()}


# ---------------------------------------------------------------------------
# entry point


def run_workload(name: str, seed: str, seconds: float, trace: bool):
    """(attempted, metrics as {name: (value, unit)}); raises Failed or the
    error of an operation that raised."""
    out = OUT / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    try:
        run = Run(name, seed, out)
        if not trace:
            setup_s = setup_seconds(run)
            run.measure(budget_s=seconds)
            if run.workload.target is not None:
                run.check_repeat()
            print(run.summary(), flush=True)
            return run.attempted, end_to_end_metrics(run, setup_s)

        from spans import Tracer
        run.measure(budget_s=seconds / 2, repeat_panel=False)
        traced, tracer = Run(name, seed, out), Tracer()
        traced.measure(units=list(run.outcomes), tracer=tracer)
        for unit, outcome in run.outcomes.items():
            if not outcome.same_work(traced.outcomes[unit]):
                raise Failed(f"{unit} did different work when traced")
        metrics = per_layer_metrics(run, traced, tracer)
        tracer.write(OUT / f"spans-{name}.tsv")
        print(traced.summary(), flush=True)
        return run.attempted + traced.attempted, metrics
    finally:
        shutil.rmtree(out, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    import_eqmorph()
    pin_to_one_cpu()

    attempted, metrics, correct = 0, {}, True
    try:
        attempted, metrics = run_workload(args.workload, args.seed,
                                          args.seconds, bool(args.trace))
    except Failed as e:
        print(f"perfbench: correctness check failed: {e}", file=sys.stderr)
        correct = False
    except Exception:
        traceback.print_exc()
        correct = False
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": 0 if correct else 1,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()} if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
