import ast
import re
import subprocess
import sys
from pathlib import Path

import eqmorph

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = Path(eqmorph.__file__).resolve().parent

TOOLKIT = ["harness", "transform", "algebra", "equivfilter", "sensitivity",
           "dbgen"]


def test_every_export_resolves():
    for name in eqmorph.__all__:
        assert getattr(eqmorph, name) is not None, name
    assert set(eqmorph.__all__) <= set(dir(eqmorph))


def test_star_import_and_submodule_import():
    ns = {}
    exec("from eqmorph import *", ns)
    assert set(eqmorph.__all__) <= set(ns)
    from eqmorph import harness
    assert harness.run_iteration is eqmorph.run_iteration


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(eqmorph, "no_such_name")


def test_shim_import_leaves_the_toolkit_unloaded():
    code = (
        "import sys, eqmorph.shim, eqmorph\n"
        "eqmorph.make_endpoint('builtin')\n"
        f"print([m for m in {TOOLKIT!r} if 'eqmorph.' + m in sys.modules])\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_readme_library_snippet_runs(capsys):
    """The README's `Library use` example imports only public names and
    runs as written."""
    section = README.read_text().split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(snippet, f"{README}:Library use", "exec"), {})
    assert "IterationStats(" in capsys.readouterr().out


def test_readme_rule_table_lists_the_catalog():
    """README's `Transformation rules` table names exactly the catalog's
    rules, in catalog order."""
    section = README.read_text().split("### Transformation rules", 1)[1]
    table = section.strip().split("\n\n", 1)[0]
    assert tuple(re.findall(r"^\| `([^`]+)` \|", table, re.M)) == \
        eqmorph.RULE_CATALOG


def test_source_lines_fit_79_columns():
    long = [f"{p.name}:{n}" for p in sorted(PACKAGE.glob("*.py"))
            for n, line in enumerate(p.read_text().splitlines(), 1)
            if len(line) > 79]
    assert long == []


def _unread_imports(path: Path):
    """(name, line, excused) for each name path imports but never reads.
    An import is excused when its line carries "# noqa: F401" and the
    comment just above it says who reads the name."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name in read:
                continue
            above = []
            for line in reversed(lines[:node.lineno - 1]):
                if not line.startswith("#"):
                    break
                above.append(line)
            excused = ("# noqa: F401" in lines[node.lineno - 1]
                       and "bound" in " ".join(above))
            yield name, node.lineno, excused


def test_source_imports_are_used():
    unread = [(p.name, name, n, excused)
              for p in sorted(PACKAGE.glob("*.py"))
              for name, n, excused in _unread_imports(p)]
    assert [u[:3] for u in unread if not u[3]] == []
    # the names bound for callers that look them up in the module
    assert sorted((f, name) for f, name, _, _ in unread) == [
        ("harness.py", "parse"), ("refdb.py", "STABLE_ERROR_CODES"),
        ("refdb.py", "validate"), ("transform.py", "qualify"),
        ("transform.py", "remap_to_sql")]
