import json
import shlex
import subprocess
import sys

import pytest

from eqmorph.cli import (
    EXIT_BUGS, EXIT_CLEAN, EXIT_OPERATIONAL, load_config_file, main,
)
from eqmorph.harness import BugReport

SHIM_TARGET = f"extern:{shlex.quote(sys.executable)} -m eqmorph.shim"


def run_cli(*argv):
    return main(list(argv))


def _report_json(**changes):
    """A well-formed report as JSON, with some fields replaced."""
    report = dict(
        id="bad-0-0", schemaDdl="CREATE TABLE t0 (a INT);\n", inserts="",
        leftSql="SELECT a FROM t0", rightSql="SELECT DISTINCT a FROM t0",
        leftResult={"rows": []}, rightResult={"rows": []},
        ruleName="dedup-insertion", pairing="mutant-vs-mutant",
        kind="result-divergence", compareMode="canonical", rngSeed="bad:0",
        filterBudgetUsed=0, targetId="builtin",
        timestamp="2000-01-01T00:00:00+00:00")
    report.update(changes)
    return json.dumps(report)


class TestRun:
    def test_clean_target_exits_zero(self, tmp_path, capsys):
        rc = run_cli("run", "--target", "builtin", "--iterations", "1",
                     "--queries", "60", "--seed", "cli-clean",
                     "--out", str(tmp_path))
        assert rc == EXIT_CLEAN
        assert (tmp_path / "stats.jsonl").exists()
        assert not list(tmp_path.glob("report-*.json"))

    def test_faulty_target_exits_ten_and_persists(self, tmp_path, capsys):
        rc = run_cli("run", "--target", "builtin:drop-distinct",
                     "--iterations", "2", "--queries", "200",
                     "--seed", "cli-fault", "--out", str(tmp_path))
        assert rc == EXIT_BUGS
        reports = list(tmp_path.glob("report-*.json"))
        assert reports
        data = json.loads(reports[0].read_text())
        assert data["targetId"] == "builtin:drop-distinct"
        out = capsys.readouterr().out
        assert "report" in out.lower() or "mismatch" in out.lower()

    def test_unknown_target_is_operational_error(self, tmp_path, capsys):
        rc = run_cli("run", "--target", "wat://", "--iterations", "1",
                     "--queries", "5", "--out", str(tmp_path))
        assert rc == EXIT_OPERATIONAL

    @pytest.mark.parametrize("target", ["extern:", "extern:   "])
    def test_blank_extern_command_is_operational_error(self, tmp_path,
                                                       capsys, target):
        rc = run_cli("run", "--target", target, "--iterations", "1",
                     "--queries", "5", "--out", str(tmp_path))
        assert rc == EXIT_OPERATIONAL
        assert "names no command" in capsys.readouterr().err

    def test_unknown_fault_is_operational_error(self, tmp_path, capsys):
        rc = run_cli("run", "--target", "builtin:nope", "--iterations", "1",
                     "--queries", "5", "--out", str(tmp_path))
        assert rc == EXIT_OPERATIONAL

    @pytest.mark.parametrize("rules", ["", ",", " , "])
    def test_rules_naming_no_rule_is_operational_error(self, tmp_path,
                                                       capsys, rules):
        rc = run_cli("run", "--rules", rules, "--iterations", "1",
                     "--queries", "5", "--out", str(tmp_path))
        assert rc == EXIT_OPERATIONAL
        assert "names no rule" in capsys.readouterr().err
        assert not (tmp_path / "stats.jsonl").exists()

    @pytest.mark.parametrize("seed", ["x/y", "/", "x/"])
    def test_seed_with_path_separator_is_operational_error(self, tmp_path,
                                                           capsys, seed):
        rc = run_cli("run", "--target", "builtin:drop-distinct",
                     "--seed", seed, "--queries", "200",
                     "--out", str(tmp_path / "out"))
        assert rc == EXIT_OPERATIONAL
        assert "error: seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_iterations_persist_before_engine_dies(self, tmp_path, capsys):
        # a fake engine that serves two iterations and dies on its third
        # start; what the first two found must already be on disk
        engine = tmp_path / "engine.py"
        engine.write_text(
            "import sys\n"
            "from pathlib import Path\n"
            "from eqmorph.shim import main\n"
            f"starts = Path({str(tmp_path / 'starts')!r})\n"
            "n = int(starts.read_text()) + 1 if starts.exists() else 1\n"
            "starts.write_text(str(n))\n"
            "if n == 3:\n"
            "    sys.exit(0)\n"
            "sys.exit(main(['--fault', 'drop-distinct']))\n")
        out = tmp_path / "out"
        rc = run_cli("run", "--target",
                     f"extern:{shlex.quote(sys.executable)} "
                     f"{shlex.quote(str(engine))}",
                     "--iterations", "3", "--queries", "150",
                     "--seed", "cli-crash", "--out", str(out))
        assert rc == EXIT_OPERATIONAL
        assert (tmp_path / "starts").read_text() == "3"
        iterations = {p.name.split("-")[3]
                      for p in out.glob("report-*.json")}
        assert iterations == {"0", "1"}
        stats = (out / "stats.jsonl").read_text().splitlines()
        assert [json.loads(l)["iteration"] for l in stats] == [0, 1]

    @pytest.mark.parametrize("flag,value", [
        ("--queries", "-5"), ("--iterations", "-2"),
        ("--filter-budget", "-3")])
    def test_negative_flag_is_operational_error(self, tmp_path, capsys,
                                                flag, value):
        # the last --queries wins
        rc = run_cli("run", "--queries", "5", flag, value, "--out",
                     str(tmp_path))
        assert rc == EXIT_OPERATIONAL
        assert "must not be negative" in capsys.readouterr().err
        assert not (tmp_path / "stats.jsonl").exists()

    def test_workers_key_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "campaign.conf"
        cfg.write_text("workers = 2\n")
        assert run_cli("run", "--config", str(cfg), "--queries", "5",
                       "--out", str(tmp_path)) == EXIT_OPERATIONAL


class TestReplay:
    def test_replay_reproduces_then_clears(self, tmp_path, capsys):
        rc = run_cli("run", "--target", "builtin:drop-distinct",
                     "--iterations", "2", "--queries", "200",
                     "--seed", "cli-replay", "--out", str(tmp_path))
        assert rc == EXIT_BUGS
        report = sorted(tmp_path.glob("report-*.json"))[0]
        assert run_cli("replay", str(report), "--target",
                       "builtin:drop-distinct") == EXIT_BUGS
        assert run_cli("replay", str(report),
                       "--target", "builtin") == EXIT_CLEAN

    @pytest.mark.parametrize("target", ["builtin", SHIM_TARGET],
                             ids=["builtin", "shim"])
    def test_unloadable_report_is_operational_error(self, tmp_path, target):
        # the INSERT names a table the DDL never creates
        report = BugReport(
            id="bad-0-0", schemaDdl="CREATE TABLE t0 (a INT);\n",
            inserts="INSERT INTO t9 VALUES (1);\n",
            leftSql="SELECT a FROM t0", rightSql="SELECT DISTINCT a FROM t0",
            leftResult={"rows": []}, rightResult={"rows": []},
            ruleName="dedup-insertion", pairing="mutant-vs-mutant",
            kind="result-divergence", compareMode="canonical",
            rngSeed="bad:0", filterBudgetUsed=0, targetId="builtin",
            timestamp="2000-01-01T00:00:00+00:00")
        path = tmp_path / "report-bad-0-0.json"
        path.write_text(report.to_json())
        proc = subprocess.run(
            [sys.executable, "-m", "eqmorph.cli", "replay", str(path),
             "--target", target], capture_output=True, text=True,
            timeout=60)
        assert proc.returncode == EXIT_OPERATIONAL
        assert proc.stderr.startswith("error: SCRIPT: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("text,message", [
        ("{}", "missing fields ['compareMode'"),
        ("[1]", "a bug report is a JSON object, not list"),
        ('{"id": "x", "extra": 1}', "unknown fields ['extra']"),
    ] + [
        pytest.param(_report_json(**{name: value}),
                     f"{name} is {type(value).__name__}, not {want}",
                     id=f"{name}-{type(value).__name__}")
        for name, value, want in [
            ("leftSql", 5, "str"), ("schemaDdl", None, "str"),
            ("inserts", ["x"], "str"), ("rightResult", [], "dict"),
            ("filterBudgetUsed", True, "int"),
            ("filterBudgetUsed", 1.0, "int"),
        ]
    ])
    def test_malformed_report_is_operational_error(self, tmp_path, text,
                                                   message):
        path = tmp_path / "report-bad.json"
        path.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "eqmorph.cli", "replay", str(path),
             "--target", "builtin"], capture_output=True, text=True,
            timeout=60)
        assert proc.returncode == EXIT_OPERATIONAL
        assert proc.stderr.startswith("error: ")
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_report_is_operational_error(self, capsys):
        assert run_cli("replay", "/nonexistent.json",
                       "--target", "builtin") == EXIT_OPERATIONAL


class TestGen:
    def test_gen_prints_deterministic_queries(self, capsys):
        assert run_cli("gen", "--queries", "25", "--seed", "g") == EXIT_CLEAN
        first = capsys.readouterr().out
        assert run_cli("gen", "--queries", "25", "--seed", "g") == EXIT_CLEAN
        assert capsys.readouterr().out == first
        lines = first.strip().splitlines()
        assert len(lines) == 25
        assert all(l.startswith("SELECT") for l in lines)


class TestConfigFile:
    def test_load_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "campaign.conf"
        cfg.write_text(
            "# campaign settings\n"
            "target = builtin:drop-distinct\n"
            "iterations = 2\n"
            "queries = 200\n"
            f"out = {tmp_path / 'reports'}\n"
            "seed = cli-conf\n")
        parsed = load_config_file(str(cfg))
        assert parsed["target"] == "builtin:drop-distinct"
        assert parsed["iterations"] == "2"
        # flags win over the file: overriding the target to clean
        rc = run_cli("run", "--config", str(cfg), "--target", "builtin")
        assert rc == EXIT_CLEAN
        rc = run_cli("run", "--config", str(cfg))
        assert rc == EXIT_BUGS

    @pytest.mark.parametrize("key", ["queries", "iterations",
                                     "filter_budget"])
    def test_negative_value_is_operational_error(self, tmp_path, capsys,
                                                 key):
        cfg = tmp_path / "campaign.conf"
        # the last line for a key wins
        cfg.write_text(f"queries = 5\n{key} = -1\n")
        assert run_cli("run", "--config", str(cfg), "--out",
                       str(tmp_path)) == EXIT_OPERATIONAL
        assert "must not be negative" in capsys.readouterr().err
        assert not (tmp_path / "stats.jsonl").exists()

    @pytest.mark.parametrize("key,value", [("filter_budget", "abc"),
                                           ("queries", "-")])
    def test_non_integer_value_is_operational_error(self, tmp_path, capsys,
                                                    key, value):
        cfg = tmp_path / "campaign.conf"
        cfg.write_text(f"{key} = {value}\n")
        assert run_cli("run", "--config", str(cfg), "--out",
                       str(tmp_path)) == EXIT_OPERATIONAL
        assert capsys.readouterr().err == (
            f"error: {key} in {cfg}: expected an integer, got {value!r}\n")
        assert not (tmp_path / "stats.jsonl").exists()

    @pytest.mark.parametrize("rules", ["", ",", " , "])
    def test_rules_naming_no_rule_is_operational_error(self, tmp_path,
                                                       capsys, rules):
        cfg = tmp_path / "campaign.conf"
        cfg.write_text(f"queries = 5\nrules = {rules}\n")
        assert run_cli("run", "--config", str(cfg), "--out",
                       str(tmp_path)) == EXIT_OPERATIONAL
        err = capsys.readouterr().err
        assert f"rules in {cfg}" in err and "names no rule" in err
        assert "--rules" not in err
        assert not (tmp_path / "stats.jsonl").exists()

    def test_rules_flag_overrides_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "campaign.conf"
        cfg.write_text("queries = 5\nrules = ,\n")
        assert run_cli("run", "--config", str(cfg), "--rules",
                       "union-commute", "--out",
                       str(tmp_path)) == EXIT_CLEAN
        assert run_cli("run", "--config", str(cfg), "--rules", "",
                       "--out", str(tmp_path)) == EXIT_OPERATIONAL
        assert "--rules '' names no rule" in capsys.readouterr().err

    def test_malformed_config_is_operational_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("this is not a key value line\n")
        assert run_cli("run", "--config", str(cfg)) == EXIT_OPERATIONAL


@pytest.mark.parametrize("command", [
    ["run", "--target", "extern:/nonexistent/engine"],
    ["gen"],
    ["replay", "/nonexistent/report.json"],
], ids=["run", "gen", "replay"])
def test_unknown_rule_is_rejected_before_the_command_runs(tmp_path, capsys,
                                                          command):
    rc = run_cli(*command, "--rules", "dedup-insertion,bogus",
                 "--out", str(tmp_path / "out"))
    assert rc == EXIT_OPERATIONAL
    assert capsys.readouterr().err.startswith("error: unknown rule 'bogus'")
    assert not (tmp_path / "out").exists()


def test_console_script_entry_point():
    import subprocess
    import sys
    out = subprocess.run([sys.executable, "-m", "eqmorph.cli", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "run" in out.stdout and "replay" in out.stdout


def test_missing_subcommand_errors():
    with pytest.raises(SystemExit):
        main([])
