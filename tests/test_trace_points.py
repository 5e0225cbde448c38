"""The span tracer in perfbench/spans.py patches eqmorph functions by the
names its consumers look them up under.  An import that a module keeps
only for the tracer looks unused, so this checks every name is still
bound where the tracer expects it."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_trace_point_is_bound():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACE_POINTS
    missing = [f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}"
               for owner, attr, _ in spans.TRACE_POINTS
               if attr not in vars(owner)]
    assert missing == []


def test_exec_sql_reaches_parse_and_execute_once(monkeypatch):
    """The tracer's parser.parse and refdb.Executor.execute spans see the
    engine only while BuiltinEndpoint.exec_sql looks parse up on the
    parser module at call time and runs the query through execute."""
    from eqmorph import adapter, parser, refdb

    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(parser, "parse", counted("parse", parser.parse))
    monkeypatch.setattr(refdb.Executor, "execute",
                        counted("execute", refdb.Executor.execute))
    ep = adapter.BuiltinEndpoint()
    ep.reset("CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2);")
    assert ep.exec_sql("SELECT a FROM t WHERE a > 1") == [("2",)]
    assert sorted(calls) == ["execute", "parse"]
