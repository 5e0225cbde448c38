"""Make the package importable in child processes too, and give the tests
one reference proof for queries that carry no trees.

``pythonpath`` in pyproject.toml reaches only the pytest process; several
tests start ``python -m eqmorph...`` children, which find the package
through the inherited PYTHONPATH.
"""

import os
from pathlib import Path

from eqmorph.algebra import equivalent_mod_commute, lower
from eqmorph.sqlast import EngineError, qualify

SRC = str(Path(__file__).resolve().parent.parent / "src")

os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


def proven(q1, q2, schema) -> bool:
    """The harness's proof for two queries given without their trees:
    qualify and lower both, then compare the trees.  A query that does
    not qualify is never proven."""
    try:
        e1, e2 = lower(qualify(q1, schema)), lower(qualify(q2, schema))
    except EngineError:
        return False
    return equivalent_mod_commute(e1, e2)
