"""Make the package importable in child processes too.

``pythonpath`` in pyproject.toml reaches only the pytest process; several
tests start ``python -m eqmorph...`` children, which find the package
through the inherited PYTHONPATH.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
