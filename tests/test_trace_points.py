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
