"""Command-line front end.

    eqmorph run    --target builtin --iterations 3 --out results/
    eqmorph replay results/report-<id>.json --target builtin
    eqmorph gen    --seed s1 --queries 20

Exit codes: 0 no divergences, 10 divergences found (or reproduced on
replay), 1 operational error.  A flat key=value config file supplies
defaults that individual flags override.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .adapter import EngineError, EngineTimeout, ProtocolError, make_endpoint
from .equivfilter import DEFAULT_BUDGET
from .harness import (
    COMPARE_MODES, BugReport, GeneratorConfig, IterationResult,
    generate_schema, generate_seed, persist_iteration, replay_report,
    run_iteration,
)
from .refdb import STABLE_ERROR_CODES
from .sqlast import render
from .transform import RULE_CATALOG

EXIT_CLEAN = 0
EXIT_OPERATIONAL = 1
EXIT_BUGS = 10


@dataclass
class CampaignConfig:
    target: str = "builtin"
    iterations: int = 1
    queries: int = GeneratorConfig.queries_per_iteration
    seed: str = "campaign"
    rules: str = ""  # comma-separated subset of RULE_CATALOG; empty = all
    filter_budget: int = DEFAULT_BUDGET
    compare: str = "both"
    out: str = "eqmorph-out"
    error_list: str = ",".join(STABLE_ERROR_CODES)

    def enabled_rules(self):
        if not self.rules:
            return None
        names = tuple(r.strip() for r in self.rules.split(",") if r.strip())
        for r in names:
            if r not in RULE_CATALOG:
                raise ValueError(f"unknown rule {r!r}; "
                                 f"known: {', '.join(RULE_CATALOG)}")
        return frozenset(names)

    def error_codes(self):
        return tuple(c.strip() for c in self.error_list.split(",")
                     if c.strip())


def load_config_file(path: str) -> dict:
    """Flat key=value lines; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def build_config(args) -> CampaignConfig:
    cfg = CampaignConfig()
    file_values = load_config_file(args.config) if args.config else {}
    valid = [f.name for f in fields(CampaignConfig)]
    for key, value in file_values.items():
        if key not in valid:
            raise ValueError(f"unknown config key {key!r}")
        if type(getattr(cfg, key)) is int:
            try:
                value = int(value)
            except ValueError:
                raise ValueError(f"{key} in {args.config}: expected an "
                                 f"integer, got {value!r}") from None
        setattr(cfg, key, value)
    for key in valid:
        flag = getattr(args, key, None)
        if flag is not None:
            setattr(cfg, key, flag)
    # leaving rules out runs every rule; a value naming none is an error
    given = ("--rules" if args.rules is not None
             else f"rules in {args.config}" if "rules" in file_values else "")
    if given and not cfg.rules.replace(",", "").strip():
        raise ValueError(f"{given} {cfg.rules!r} names no rule; "
                         f"known: {', '.join(RULE_CATALOG)}")
    cfg.enabled_rules()  # an unknown rule name raises here, for every command
    if any(sep and sep in cfg.seed for sep in (os.sep, os.altsep)):
        # the seed is part of every report's file name
        raise ValueError(f"seed {cfg.seed!r} contains a path separator")
    if cfg.compare not in COMPARE_MODES:
        raise ValueError(f"unknown compare mode {cfg.compare!r}")
    for key in ("iterations", "queries", "filter_budget"):
        if getattr(cfg, key) < 0:
            raise ValueError(f"{key} must not be negative, "
                             f"got {getattr(cfg, key)}")
    return cfg


def _add_campaign_flags(ap):
    ap.add_argument("--config", default=None,
                    help="key=value config file; flags override it")
    ap.add_argument("--target", default=None,
                    help="builtin | builtin:<fault> | extern:<command>")
    ap.add_argument("--iterations", type=int, default=None)
    ap.add_argument("--queries", type=int, default=None,
                    help="seed queries per iteration")
    ap.add_argument("--seed", default=None, help="campaign seed string")
    ap.add_argument("--rules", default=None,
                    help="comma-separated rule subset")
    ap.add_argument("--filter-budget", dest="filter_budget", type=int,
                    default=None,
                    help="databases probed for a pair the equivalence "
                    "filter cannot prove; 0 turns the filter off")
    ap.add_argument("--compare", default=None,
                    choices=COMPARE_MODES)
    ap.add_argument("--out", default=None, help="report output directory")
    ap.add_argument("--error-list", dest="error_list", default=None,
                    help="comma-separated engine error codes to discard")


def _run_one(cfg: CampaignConfig, gen_cfg: GeneratorConfig,
             iteration: int) -> IterationResult:
    endpoint = make_endpoint(cfg.target)
    endpoint.start()
    try:
        return run_iteration(
            endpoint, gen_cfg, cfg.seed, iteration,
            compare_mode=cfg.compare, error_list=cfg.error_codes(),
            enabled_rules=cfg.enabled_rules())
    finally:
        endpoint.stop()


def cmd_run(args) -> int:
    cfg = build_config(args)
    gen_cfg = GeneratorConfig(queries_per_iteration=cfg.queries,
                              filter_budget=cfg.filter_budget)
    total_reports = 0
    for iteration in range(cfg.iterations):
        # persisted as it finishes, so an engine that dies later in the
        # campaign cannot take earlier reports with it
        res = _run_one(cfg, gen_cfg, iteration)
        persist_iteration(cfg.out, res)
        total_reports += len(res.reports)
        s = res.stats
        print(f"iteration {s.iteration}: generated={s.generated} "
              f"valid={s.validAfterExecution} pairs={s.pairsEmitted} "
              f"filtered={s.pairsFiltered} mismatches={s.mismatches} "
              f"elapsed={s.elapsed:.1f}s", flush=True)
    print(f"total bug reports: {total_reports} (in {cfg.out})")
    return EXIT_BUGS if total_reports else EXIT_CLEAN


def cmd_replay(args) -> int:
    cfg = build_config(args)
    report = BugReport.from_json(Path(args.report).read_text())
    endpoint = make_endpoint(cfg.target)
    endpoint.start()
    try:
        res = replay_report(report, endpoint, error_list=cfg.error_codes())
    finally:
        endpoint.stop()
    print(f"report {report.id}: "
          + ("reproduced: " + res.detail if res.reproduced
             else "not reproduced: " + res.detail))
    return EXIT_BUGS if res.reproduced else EXIT_CLEAN


def cmd_gen(args) -> int:
    cfg = build_config(args)
    rng = random.Random(f"{cfg.seed}:0")
    schema = generate_schema(rng)
    for _ in range(cfg.queries):
        print(render(generate_seed(rng, schema)))
    return EXIT_CLEAN


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="eqmorph",
        description="metamorphic testing of SQL engines via equivalent "
                    "query pairs")
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a testing campaign")
    _add_campaign_flags(run_p)
    run_p.set_defaults(fn=cmd_run)

    rep_p = sub.add_parser("replay", help="replay a persisted bug report")
    rep_p.add_argument("report", help="path to a report-<id>.json file")
    _add_campaign_flags(rep_p)
    rep_p.set_defaults(fn=cmd_replay)

    gen_p = sub.add_parser("gen", help="print generated seed queries")
    _add_campaign_flags(gen_p)
    gen_p.set_defaults(fn=cmd_gen)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, ProtocolError, EngineTimeout,
            EngineError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_OPERATIONAL


if __name__ == "__main__":
    sys.exit(main())
