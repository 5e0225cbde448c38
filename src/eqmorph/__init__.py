"""Metamorphic testing toolkit for SQL engines.

Synthesizes pairs of equivalent queries by exploiting the many-to-one
correspondence between SQL keywords and relational-algebra operators,
guided by duplicate-sensitivity analysis; executes both queries against a
target engine and reports any divergence in the result multisets.

Public names are imported from their submodule on first use (PEP 562), so
``python -m eqmorph.shim`` and a ``builtin`` endpoint load only the engine
modules, not the campaign toolkit.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "adapter": (
        "BuiltinEndpoint", "EngineError", "EngineTimeout", "ExternalEndpoint",
        "ProtocolError", "make_endpoint",
    ),
    "algebra": (
        "Agg", "Dedup", "Filter", "Project", "RemapError", "Scan", "Union",
        "UnionAll", "commute_normal", "equivalent_mod_commute", "lower",
        "remap_to_sql",
    ),
    "equivfilter": ("NoCounterexample", "NotEquivalent", "check_bounded"),
    "harness": (
        "BugReport", "GeneratorConfig", "IterationStats", "compare_results",
        "generate_database", "generate_schema", "generate_seed",
        "replay_report", "run_iteration",
    ),
    "parser": ("parse",),
    "refdb": (
        "FAULTS", "Executor", "dump_script", "load_script",
    ),
    "sensitivity": (
        "Sensitivity", "classify", "sensitivity_oracle",
    ),
    "sqlast": ("Schema", "SqlQuery", "qualify", "render", "validate"),
    "transform": (
        "NoRuleApplies", "QueryPair", "RULE_CATALOG", "TransformContext",
        "enumerate_mutants", "transform_query",
    ),
}

_MODULE_OF = {name: module
              for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
