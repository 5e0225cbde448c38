"""End-to-end acceptance criteria for the toolkit.

Each test prints exactly one pass/fail line (visible even under captured
output) and asserts the same condition, so the suite both documents and
enforces the acceptance bar:

1. a large clean campaign raises no false alarms within a time budget
2. every built-in fault is caught quickly and its report replays
3. the static duplicate-sensitivity verdict is dynamically sound
4. every transformation rule produces genuinely equivalent pairs
5. non-equivalence verdicts always carry a reproducible witness
6. campaigns are byte-deterministic given config and seed
7. parse/render and lower/remap are mutually consistent at scale
8. generated seed queries overwhelmingly execute without error
"""

import json
import random
import time
from dataclasses import replace

from eqmorph.adapter import BuiltinEndpoint
from eqmorph.algebra import (
    Dedup, Filter, Project, Scan, lower, remap_to_sql,
)
from eqmorph.cli import EXIT_BUGS, main
from eqmorph.dbgen import random_database
from eqmorph.equivfilter import NotEquivalent, check_bounded
from eqmorph.harness import (
    GeneratorConfig, generate_schema, generate_seed, replay_report,
    run_iteration,
)
from eqmorph.parser import parse
from eqmorph.refdb import FAULTS, Executor
from eqmorph.sensitivity import Sensitivity, classify, sensitivity_oracle
from eqmorph.sqlast import Cmp, ColumnRef, Const, qualify, render
from eqmorph.transform import (
    NoRuleApplies, QueryPair, RULE_CATALOG, TransformContext, _RULE_FNS,
    transform_query,
)

STATE = {}


def announce(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def has_aggregates(q):
    if any(hasattr(it, "fn") for it in q.select):
        return True
    return q.set_op is not None and \
        any(hasattr(it, "fn") for it in q.set_op[1].select)


def test_criterion_1_clean_campaign_no_false_alarms(capsys):
    """10,000 seeds against the clean built-in engine: zero reports,
    single-threaded, within ten minutes."""
    t0 = time.monotonic()
    cfg = GeneratorConfig()  # 2,000 queries per iteration
    reports, generated, valid = 0, 0, 0
    for it in range(5):
        res = run_iteration(BuiltinEndpoint(), cfg, "accept-c1", it)
        reports += len(res.reports)
        generated += res.stats.generated
        valid += res.stats.validAfterExecution
    elapsed = time.monotonic() - t0
    STATE["validity"] = (valid, generated)
    ok = reports == 0 and generated >= 10_000 and elapsed < 600
    announce(capsys, 1, ok,
             f"{generated} seeds, {reports} reports, {elapsed:.1f}s")


def test_criterion_2_every_fault_is_caught_and_replays(capsys):
    """Each injectable fault: flagged within ten 2,000-query iterations,
    the report replays, and the hunt stays under five minutes."""
    cfg = GeneratorConfig()
    caught = {}
    ok = True
    for fault in sorted(FAULTS):
        t0 = time.monotonic()
        report = None
        for it in range(10):
            res = run_iteration(BuiltinEndpoint(fault), cfg,
                                f"accept-c2-{fault}", it)
            if res.reports:
                report = res.reports[0]
                caught[fault] = it + 1
                break
        elapsed = time.monotonic() - t0
        if report is None or elapsed >= 300:
            ok = False
            caught[fault] = None
            continue
        if not replay_report(report, BuiltinEndpoint(fault)).reproduced:
            ok = False
            caught[fault] = "no-replay"
    detail = ", ".join(f"{f}:{caught[f]} it" for f in sorted(caught))
    announce(capsys, 2, ok and len(caught) >= 6, detail)


def test_criterion_3_static_sensitivity_is_dynamically_sound(capsys):
    """1,000 generated non-aggregate queries: whenever the static fold
    says insensitive, the bounded oracle finds no doubling witness."""
    rng = random.Random("accept-c3")
    checked = insensitive = violations = 0
    while checked < 1_000:
        schema = generate_schema(rng)
        q = generate_seed(rng, schema)
        if has_aggregates(q):
            continue
        checked += 1
        e = lower(qualify(q, schema))
        if classify(e) is not Sensitivity.INSENSITIVE:
            continue
        insensitive += 1
        v = sensitivity_oracle(e, schema, budget=24, seed=f"c3:{checked}")
        if isinstance(v, NotEquivalent):
            violations += 1
    ok = violations == 0 and insensitive > 0
    announce(capsys, 3, ok,
             f"{checked} non-aggregate queries, {insensitive} static-"
             f"insensitive, {violations} oracle violations")


def _synthetic_cascade_pairs(schema, count):
    """Pairs for the nested-projection rule, which never matches a
    lowered surface query: build the nested tree directly.  A dedup in
    the pipeline gives the collapsed tree several surface renderings, so
    the rule can emit a textually distinct pair."""
    table, cols = schema.tables[0]
    refs = [ColumnRef(c, table) for c, ty in cols if ty in ("int", "dec")]
    rng = random.Random("accept-c4-cascade")
    out = []
    for _ in range(count * 50):
        if len(out) >= count:
            break
        keep = rng.sample(refs, rng.randint(1, max(1, len(refs) - 1)))
        inner = list(dict.fromkeys(keep + rng.sample(refs, 1)))
        preds = [Cmp(rng.choice(keep), rng.choice(("<", ">", "!=")),
                     Const(rng.randint(-1, 3)))
                 for _ in range(rng.randint(1, 2))]
        e = Scan((table,))
        for p in preds:
            e = Filter(p, e)
        e = Dedup(tuple(inner), e)
        e = Project(tuple(keep), Project(tuple(inner), e))
        q = remap_to_sql(e)[0]
        pairing, rule = _RULE_FNS["projection-cascade"]
        sides = rule(q, e, TransformContext(rng=rng), schema)
        if sides is not None:
            left, right, left_tree, right_tree = sides
            out.append(QueryPair(left, right, "projection-cascade", pairing,
                                 left_tree, right_tree))
    return out


def test_criterion_4_rules_emit_equivalent_pairs(capsys):
    """Every catalog rule, 100 matching seeds each: both queries of every
    pair agree on a 1,000-database random corpus."""
    rng = random.Random("accept-c4")
    schema = generate_schema(rng)
    want = 100
    pairs = {rule: [] for rule in RULE_CATALOG}
    pairs["projection-cascade"] = _synthetic_cascade_pairs(schema, want)

    surface = [r for r in RULE_CATALOG if r != "projection-cascade"]
    attempts = 0
    while any(len(pairs[r]) < want for r in surface) and attempts < 40_000:
        attempts += 1
        q = generate_seed(rng, schema)
        for rule in surface:
            if len(pairs[rule]) >= want:
                continue
            try:
                ctx = TransformContext(rng=random.Random(attempts),
                                       enabled_rules=frozenset([rule]))
                pair = transform_query(q, schema, ctx)
            except NoRuleApplies:
                continue
            pairs[rule].append(pair)

    corpus = [random_database(schema, random.Random(f"c4-db:{i}"))
              for i in range(1_000)]
    ex = Executor()
    divergences = 0
    for rule in RULE_CATALOG:
        for pair in pairs[rule]:
            left = ex.prepare(pair.left, schema)
            right = ex.prepare(pair.right, schema)
            for db in corpus:
                if ex.run(db, left) != ex.run(db, right):
                    divergences += 1
                    break
    counts = {r: len(ps) for r, ps in pairs.items()}
    ok = divergences == 0 and all(n >= want for n in counts.values())
    announce(capsys, 4, ok,
             f"pairs per rule {counts}, {len(corpus)} databases, "
             f"{divergences} divergences")


def test_criterion_5_not_equivalent_verdicts_reproduce(capsys):
    """1,000 deliberately non-equivalent pairs (DISTINCT added to a
    duplicate-sensitive query): every NotEquivalent verdict carries a
    witness database that reproduces the mismatch."""
    rng = random.Random("accept-c5")
    ex = Executor()
    built = verdicts = reproduced = 0
    while built < 1_000:
        schema = generate_schema(rng)
        q = generate_seed(rng, schema)
        if q.distinct or q.group_by is not None or q.set_op is not None \
                or has_aggregates(q):
            continue
        qq = qualify(q, schema)
        if classify(lower(qq)) is not Sensitivity.SENSITIVE:
            continue
        built += 1
        broken = replace(qq, distinct=True)
        v = check_bounded(qq, broken, schema, budget=32, seed=f"c5:{built}")
        if isinstance(v, NotEquivalent):
            verdicts += 1
            if ex.execute(v.witness, qq) != \
                    ex.execute(v.witness, broken):
                reproduced += 1
    ok = built >= 1_000 and verdicts > 0 and reproduced == verdicts
    announce(capsys, 5, ok,
             f"{built} pairs, {verdicts} NotEquivalent verdicts, "
             f"{reproduced} witnesses reproduced")


def test_criterion_6_campaigns_are_deterministic(capsys, tmp_path):
    """Identical config and seed produce byte-identical reports and stats
    (timestamps and wall-clock fields excluded)."""

    def campaign(out):
        rc = main(["run", "--target", "builtin:drop-distinct",
                   "--iterations", "2", "--queries", "500",
                   "--seed", "accept-c6", "--out", str(out)])
        assert rc == EXIT_BUGS
        files = {}
        for p in sorted(out.iterdir()):
            if p.name == "stats.jsonl":
                rows = [json.loads(l) for l in p.read_text().splitlines()]
                for r in rows:
                    r.pop("elapsed")
                files[p.name] = json.dumps(rows, sort_keys=True)
            elif p.suffix == ".json":
                data = json.loads(p.read_text())
                data.pop("timestamp")
                files[p.name] = json.dumps(data, sort_keys=True)
            else:
                files[p.name] = p.read_bytes()
        return files

    a = campaign(tmp_path / "a")
    b = campaign(tmp_path / "b")
    ok = a == b and any(n.startswith("report-") for n in a)
    announce(capsys, 6, ok,
             f"{len(a)} artifacts compared, identical={a == b}")


def test_criterion_7_parse_render_and_lower_remap_agree(capsys):
    """10,000 generated queries: parse∘render is the identity, and the
    original rendering is among the remapped realizations of its own
    lowered tree."""
    rng = random.Random("accept-c7")
    fixpoint_failures = membership_failures = 0
    n = 10_000
    for i in range(n):
        schema = generate_schema(rng)
        q = generate_seed(rng, schema)
        if parse(render(q)) != q:
            fixpoint_failures += 1
            continue
        qq = qualify(q, schema)
        texts = {render(c) for c in remap_to_sql(lower(qq))}
        if render(qq) not in texts:
            membership_failures += 1
    ok = fixpoint_failures == 0 and membership_failures == 0
    announce(capsys, 7, ok,
             f"{n} queries, {fixpoint_failures} parse/render failures, "
             f"{membership_failures} lower/remap failures")


def test_criterion_8_seed_validity_rate(capsys):
    """At least half of generated seeds execute without error; ours are
    valid by construction."""
    if "validity" not in STATE:  # criterion 1 did not run first
        cfg = GeneratorConfig(queries_per_iteration=2000)
        res = run_iteration(BuiltinEndpoint(), cfg, "accept-c8", 0)
        STATE["validity"] = (res.stats.validAfterExecution,
                             res.stats.generated)
    valid, generated = STATE["validity"]
    rate = valid / generated
    announce(capsys, 8, rate >= 0.5,
             f"{valid}/{generated} seeds valid ({rate:.1%})")
