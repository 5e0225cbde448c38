"""In-memory span tracing of eqmorph's layers, installed from outside.

Each traced function is replaced, for the duration of a ``Tracer`` context,
by a wrapper that records one span: name, start, end and parent span.  A
name that a module imported from another is patched where the consumer
looks it up (``transform.qualify``, ``refdb.qualify``,
``harness.check_bounded`` and so on), so calls between modules are caught
without touching ``src/``.  Spans live in flat arrays while the run lasts;
``layer_times`` turns them into per-layer calls and self time, and ``write``
dumps them at the end.

Self time is a span's duration minus the time its child spans cover.  The
process is single-threaded while traced (the external adapter's reader
thread calls nothing traced), so one stack gives every span its parent.
"""

from __future__ import annotations

from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

from eqmorph import (
    adapter, algebra, dbgen, equivfilter, harness, parser, refdb, sqlast,
    transform,
)
from eqmorph.adapter import EngineError
from eqmorph.equivfilter import NotEquivalent
from eqmorph.refdb import STABLE_ERROR_CODES
from eqmorph.transform import NoRuleApplies

ENDPOINT_CLASSES = (adapter.BuiltinEndpoint, adapter.ExternalEndpoint)

# Engine error codes reported one by one; any other code counts as "other".
ERROR_CODES = STABLE_ERROR_CODES + ("SYNTAX",)

# (owner, attribute, span name): every place a layer's public function is
# looked up on the paths a campaign, a persist and a replay take.
TRACE_POINTS = [
    (harness, "run_iteration", "harness.run_iteration"),
    (harness, "generate_seed", "harness.generate_seed"),
    (harness, "compare_results", "harness.compare_results"),
    (harness, "persist_iteration", "harness.persist_iteration"),
    (harness, "replay_report", "harness.replay_report"),
    (harness, "parse", "parser.parse"),
    (parser, "parse", "parser.parse"),
    (refdb, "parse", "parser.parse"),
    (harness, "render", "sqlast.render"),
    (transform, "render", "sqlast.render"),
    (algebra, "render", "sqlast.render"),
    (sqlast, "render", "sqlast.render"),
    (transform, "validate", "sqlast.validate"),
    (refdb, "validate", "sqlast.validate"),
    (sqlast, "validate", "sqlast.validate"),
    (transform, "qualify", "sqlast.qualify"),
    (refdb, "qualify", "sqlast.qualify"),
    (sqlast, "qualify", "sqlast.qualify"),
    (transform, "lower", "algebra.lower"),
    (algebra, "lower", "algebra.lower"),
    (transform, "remap_to_sql", "algebra.remap_to_sql"),
    (transform, "classify", "sensitivity.classify"),
    (harness, "transform_query", "transform.transform_query"),
    (harness, "check_bounded", "equivfilter.check_bounded"),
    (equivfilter, "databases_for_search", "dbgen.databases_for_search"),
    (refdb.Executor, "execute", "refdb.Executor.execute"),
    (refdb.Executor, "rendered_rows", "refdb.Executor.rendered_rows"),
    (adapter, "load_script", "refdb.load_script"),
    (harness, "dump_script", "refdb.dump_script"),
] + [
    (cls, method, f"adapter.{method}")
    for cls in ENDPOINT_CLASSES
    for method in ("start", "stop", "reset", "exec_sql")
]


class Tracer:
    """Records spans and layer counters while installed
    (``with Tracer():``)."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._saved: list = []
        self._on_result = {
            "transform.transform_query": self._count_pair,
            "equivfilter.check_bounded": self._count_verdict,
            "dbgen.databases_for_search": self._count_corpus,
        }
        self._on_error = {
            "transform.transform_query": self._count_no_rule,
            "adapter.reset": self._count_engine_error,
            "adapter.exec_sql": self._count_engine_error,
        }

    # -- installation -------------------------------------------------------

    def __enter__(self):
        for owner, attr, name in TRACE_POINTS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, name, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        name_id, start, end, parent, stack = (
            self.name_id, self.start, self.end, self.parent, self._stack)
        on_result = self._on_result.get(name)
        on_error = self._on_error.get(name)

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end[i] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- layer counters -----------------------------------------------------

    def _count_pair(self, pair):
        self.counts[f"transform.rule.{pair.rule}.pairs"] += 1

    def _count_verdict(self, verdict):
        self.counts["equivfilter.check_bounded.probes"] += \
            verdict.budget_used
        self.counts["equivfilter.check_bounded.rejected"] += \
            isinstance(verdict, NotEquivalent)

    def _count_corpus(self, dbs):
        self.counts["dbgen.databases_for_search.dbs"] += len(dbs)

    def _count_no_rule(self, exc):
        if isinstance(exc, NoRuleApplies):
            self.counts["transform.transform_query.no_rule"] += 1

    def _count_engine_error(self, exc):
        code = exc.code if isinstance(exc, EngineError) else None
        self.counts["adapter.failed"] += 1
        self.counts["adapter.errors."
                    + (code if code in ERROR_CODES else "other")] += 1

    # -- results ------------------------------------------------------------

    def layer_times(self):
        """Per span name: (calls, total seconds, self seconds); plus the
        seconds covered by root spans.

        Raises ValueError if a span is not nested inside its parent, which
        would make self times meaningless.
        """
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        child = [0.0] * n
        root = 0.0
        for i in range(n):
            p = parent[i]
            d = end[i] - start[i]
            if p < 0:
                root += d
            elif start[i] < start[p] or end[i] > end[p]:
                raise ValueError(f"span {i} ({self.names[self.name_id[i]]}) "
                                 "is not nested in its parent")
            else:
                child[p] += d
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.name_id[i]
            d = end[i] - start[i]
            calls[k] += 1
            total[k] += d
            self_s[k] += d - child[i]
        times = {name: (calls[k], total[k], self_s[k])
                 for k, name in enumerate(self.names)}
        return times, root

    def write(self, path: Path):
        """Dump every span as a tab-separated line: id, name, start, end,
        parent (-1 for a root span).  Times are perf_counter seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names, name_id = self.names, self.name_id
        with path.open("w") as fh:
            fh.write("id\tname\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{names[name_id[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\n")
