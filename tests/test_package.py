import subprocess
import sys

import eqmorph

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
