import json
import subprocess
import sys
import threading
import time

import pytest

from eqmorph.adapter import (
    BuiltinEndpoint, EngineError, EngineTimeout, ExternalEndpoint,
    ProtocolError, make_endpoint,
)
from eqmorph.shim import handle

SHIM = f"{sys.executable} -m eqmorph.shim"

SCRIPT = """
CREATE TABLE t0 (a INT, b DECIMAL, c VARCHAR);
INSERT INTO t0 VALUES (1, 0.0005, 'x'), (1, 0.0005, 'x'), (NULL, NULL, 'it''s');
"""

# values that do not fit their column; loaded, they would make SUM(b) and
# MAX(b) raise TypeError
ILL_TYPED = [
    "CREATE TABLE t (a INT, b INT); INSERT INTO t VALUES (0, 'x');",
    "CREATE TABLE t (a INT, b DECIMAL); INSERT INTO t VALUES (0, 'x');",
]


@pytest.fixture
def extern():
    ep = ExternalEndpoint(SHIM)
    ep.start()
    yield ep
    ep.stop()


class TestBuiltin:
    def test_exec_returns_rendered_rows(self):
        ep = BuiltinEndpoint()
        ep.reset(SCRIPT)
        rows = ep.exec_sql("SELECT a FROM t0")
        assert sorted(rows) == [("1",), ("1",), ("NULL",)]

    def test_error_carries_code(self):
        ep = BuiltinEndpoint()
        ep.reset(SCRIPT)
        with pytest.raises(EngineError) as exc:
            ep.exec_sql("SELECT zz FROM t0")
        assert exc.value.code == "UNKNOWN_COLUMN"

    def test_target_ids(self):
        assert BuiltinEndpoint().target_id == "builtin"
        assert BuiltinEndpoint("drop-distinct").target_id == \
            "builtin:drop-distinct"

    def test_exec_before_reset_fails(self):
        with pytest.raises(EngineError):
            BuiltinEndpoint().exec_sql("SELECT a FROM t0")


@pytest.mark.parametrize("op,sql,code", [
    ("reset", "CREATE TABLE t (a INT); INSERT INTO t VALUES (1 @ 2);",
     "SYNTAX"),
    ("reset", "DROP TABLE t0", "SCRIPT"),
    ("reset", ILL_TYPED[0], "SCRIPT"),
    ("reset", ILL_TYPED[1], "SCRIPT"),
    ("exec", "SELECT @", "SYNTAX"),
    ("exec", "SELECT zz FROM t0", "UNKNOWN_COLUMN"),
    ("drop", "", "PROTOCOL"),
    ("reset", None, "PROTOCOL"),
    ("exec", 5, "PROTOCOL"),
])
def test_shim_error_codes(op, sql, code):
    ep = BuiltinEndpoint()
    assert handle(ep, {"id": 0, "op": "reset", "sql": SCRIPT})["ok"]
    resp = handle(ep, {"id": 1, "op": op, "sql": sql})
    assert (resp["id"], resp["ok"], resp["code"]) == (1, False, code)


def test_shim_answers_malformed_request_lines():
    done = subprocess.run(
        [sys.executable, "-m", "eqmorph.shim"],
        input=b'[1]\n\xff\n{"id": 3, "op": "drop"}\n'
              b'{"id": 4, "op": "reset", "sql": null}\n'
              b'{"id": 5, "op": "exec", "sql": "SELECT a FROM t0"}\n',
        capture_output=True, timeout=60, check=True)
    replies = [json.loads(line) for line in done.stdout.splitlines()]
    assert [(r["id"], r["code"]) for r in replies] == \
        [(None, "PROTOCOL"), (None, "PROTOCOL"), (3, "PROTOCOL"),
         (4, "PROTOCOL"), (5, "UNKNOWN_TABLE")]
    assert replies[0]["message"] == "bad request line: not a JSON object: [1]"


def test_shim_answers_a_too_deep_predicate_and_the_next_request():
    lines = [{"id": 0, "op": "reset", "sql": SCRIPT}]
    for where in ("NOT " * 1000 + "a = 1",
                  "(" * 200 + "a = 1" + ")" * 200,
                  " AND ".join(["a = 1"] * 1000)):
        lines.append({"id": len(lines), "op": "exec",
                      "sql": f"SELECT a FROM t0 WHERE {where}"})
    lines.append({"id": 4, "op": "exec", "sql": "SELECT COUNT(*) FROM t0"})
    done = subprocess.run(
        [sys.executable, "-m", "eqmorph.shim"],
        input="".join(json.dumps(l) + "\n" for l in lines).encode(),
        capture_output=True, timeout=60, check=True)
    replies = [json.loads(line) for line in done.stdout.splitlines()]
    assert [(r["id"], r.get("code")) for r in replies] == \
        [(0, None), (1, "SYNTAX"), (2, "SYNTAX"), (3, "SYNTAX"), (4, None)]
    assert replies[4]["rows"] == [["3"]]
    assert done.stderr == b""


class TestExternal:
    def test_matches_builtin(self, extern):
        builtin = BuiltinEndpoint()
        builtin.reset(SCRIPT)
        extern.reset(SCRIPT)
        for sql in [
            "SELECT a FROM t0",
            "SELECT c FROM t0",
            "SELECT SUM(b), AVG(b) FROM t0",
            "SELECT a, COUNT(*) FROM t0 GROUP BY a",
        ]:
            assert sorted(extern.exec_sql(sql)) == \
                sorted(builtin.exec_sql(sql))

    def test_special_values_survive_the_wire(self, extern):
        extern.reset(SCRIPT)
        rows = extern.exec_sql("SELECT c FROM t0 WHERE c = 'it''s'")
        assert rows == [("it's",)]
        rows = extern.exec_sql("SELECT b FROM t0")
        assert ("NULL",) in rows and ("0.0005",) in rows

    def test_error_codes_cross_process(self, extern):
        extern.reset(SCRIPT)
        with pytest.raises(EngineError) as exc:
            extern.exec_sql("SELECT a FROM missing")
        assert exc.value.code == "UNKNOWN_TABLE"
        # still usable afterwards
        assert extern.exec_sql("SELECT COUNT(*) FROM t0") == [("3",)]

    def test_ill_typed_script_is_rejected_and_shim_stays_up(self, extern):
        for script in ILL_TYPED:
            with pytest.raises(EngineError) as exc:
                extern.reset(script)
            assert exc.value.code == "SCRIPT"
            with pytest.raises(EngineError):
                extern.exec_sql("SELECT SUM(b), MAX(b) FROM t")
        extern.reset(SCRIPT)
        assert extern.exec_sql("SELECT COUNT(*) FROM t0") == [("3",)]

    def test_faulty_shim(self):
        ep = ExternalEndpoint(SHIM + " --fault drop-distinct")
        ep.start()
        try:
            ep.reset(SCRIPT)
            assert len(ep.exec_sql("SELECT DISTINCT a FROM t0")) == 3
        finally:
            ep.stop()
        assert ep.target_id.endswith("drop-distinct")

    def test_dead_command_raises_protocol_error(self):
        ep = ExternalEndpoint(f"{sys.executable} -c 'pass'")
        ep.start()
        try:
            with pytest.raises(ProtocolError):
                ep.exec_sql("SELECT 1")
        finally:
            ep.stop()

    def test_stop_is_idempotent(self, extern):
        extern.stop()
        extern.stop()

    @pytest.mark.parametrize("debug", [True, False])
    def test_debug_mirrors_traffic_to_stderr(self, debug, monkeypatch,
                                             capfd):
        if debug:
            monkeypatch.setenv("EQMORPH_SHIM_DEBUG", "1")
        else:
            monkeypatch.delenv("EQMORPH_SHIM_DEBUG", raising=False)
        ep = ExternalEndpoint(SHIM)
        try:
            ep.reset(SCRIPT)
            ep.exec_sql("SELECT a FROM t0")
        finally:
            ep.stop()
        err = capfd.readouterr().err
        if not debug:
            assert err == ""
            return
        lines = err.splitlines()
        assert [line[:10] for line in lines] == \
            ["eqmorph >>", "eqmorph <<", "eqmorph >>", "eqmorph <<"]
        sent = [json.loads(line[11:]) for line in lines[::2]]
        assert [(r["op"], r["sql"]) for r in sent] == \
            [("reset", SCRIPT), ("exec", "SELECT a FROM t0")]
        got = [json.loads(line[11:]) for line in lines[1::2]]
        assert [r["ok"] for r in got] == [True, True]
        assert sorted(got[1]["rows"]) == [["1"], ["1"], ["NULL"]]


# A scripted engine: it answers request n with the row (n,), except where
# its mode says otherwise.
FAKE_ENGINE = r"""
import json, sys, time
mode = sys.argv[1]
out = sys.stdout.buffer
BAD_ROWS = {"row-not-array": [5], "row-is-string": ["ab"],
            "cell-not-string": [[None, 1]]}

def reply(rid):
    return json.dumps({"id": rid, "ok": True, "rows": [[str(rid)]]}
                      ).encode() + b"\n"

for n, line in enumerate(sys.stdin.buffer, 1):
    rid = json.loads(line)["id"]
    if mode == "silent":
        continue
    if n == 1 and mode == "late":
        time.sleep(0.5)
    if n == 1 and mode == "bad-utf8":
        out.write(b"\xff\xfe\n")
    elif n == 1 and mode == "not-object":
        out.write(b"[1]\n")
    elif n == 1 and mode == "future-id":
        out.write(reply(rid + 1))
    elif n == 1 and mode in BAD_ROWS:
        out.write(json.dumps({"id": rid, "ok": True,
                              "rows": BAD_ROWS[mode]}).encode() + b"\n")
    elif mode == "split":
        data = reply(rid)
        for i in range(0, len(data), 4):
            out.write(data[i:i + 4])
            out.flush()
            time.sleep(0.01)
    elif mode == "two-in-one":
        # the first read holds both replies; the second request gets none
        if n == 1:
            out.write(reply(1) + reply(2))
    else:
        out.write(reply(rid))
    out.flush()
"""


@pytest.fixture
def fake_engine(tmp_path):
    script = tmp_path / "fake_engine.py"
    script.write_text(FAKE_ENGINE)
    started = []

    def start(mode, exec_timeout=5.0):
        ep = ExternalEndpoint(f"{sys.executable} {script} {mode}",
                              exec_timeout=exec_timeout)
        started.append(ep)
        return ep.start()

    yield start
    for ep in started:
        ep.stop()


class TestExternalReader:
    def test_reply_split_across_writes(self, fake_engine):
        ep = fake_engine("split")
        assert ep.exec_sql("q") == [("1",)]
        assert ep.exec_sql("q") == [("2",)]

    def test_two_replies_in_one_read(self, fake_engine):
        ep = fake_engine("two-in-one")
        assert ep.exec_sql("q") == [("1",)]
        assert ep.exec_sql("q") == [("2",)]

    def test_silent_engine_times_out(self, fake_engine):
        ep = fake_engine("silent", exec_timeout=0.3)
        t0 = time.monotonic()
        with pytest.raises(EngineTimeout, match="no response within 0.3s"):
            ep.exec_sql("q")
        assert 0.3 <= time.monotonic() - t0 < 2.0

    def test_late_reply_is_skipped(self, fake_engine):
        ep = fake_engine("late", exec_timeout=0.2)
        with pytest.raises(EngineTimeout):
            ep.exec_sql("q")
        ep.exec_timeout = 5.0
        assert ep.exec_sql("q") == [("2",)]

    def test_bad_utf8_reply_is_a_protocol_error(self, fake_engine):
        ep = fake_engine("bad-utf8")
        with pytest.raises(ProtocolError, match="bad response line"):
            ep.exec_sql("q")
        # the engine is still up and the stream still in step
        assert ep.exec_sql("q") == [("2",)]

    @pytest.mark.parametrize("mode,message", [
        ("not-object", "bad response line"),
        ("future-id", "response id 2 does not match request id 1"),
    ])
    def test_unexpected_reply_is_a_protocol_error(self, fake_engine, mode,
                                                  message):
        with pytest.raises(ProtocolError, match=message):
            fake_engine(mode).exec_sql("q")

    @pytest.mark.parametrize("mode", [
        "row-not-array", "row-is-string", "cell-not-string"])
    def test_malformed_rows_are_a_protocol_error(self, fake_engine, mode):
        ep = fake_engine(mode)
        with pytest.raises(ProtocolError, match="arrays of string cells"):
            ep.exec_sql("q")
        # the stream is still in step
        assert ep.exec_sql("q") == [("2",)]

    def test_start_creates_no_thread(self):
        before = threading.active_count()
        ep = ExternalEndpoint(SHIM).start()
        try:
            assert threading.active_count() == before
            ep.reset(SCRIPT)
            assert threading.active_count() == before
        finally:
            ep.stop()

    def test_stop_closes_every_pipe(self):
        # unclosed pipes warn when collected; -W error makes that fatal
        code = (
            "import gc\n"
            "from eqmorph.adapter import ExternalEndpoint\n"
            f"ep = ExternalEndpoint({SHIM!r}).start()\n"
            f"ep.reset({SCRIPT!r})\n"
            "ep.stop()\n"
            "ep.stop()\n"
            "del ep\n"
            "gc.collect()\n")
        done = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
             "-c", code], capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "ResourceWarning" not in done.stderr


def test_make_endpoint():
    assert isinstance(make_endpoint("builtin"), BuiltinEndpoint)
    assert make_endpoint("builtin:drop-distinct").target_id == \
        "builtin:drop-distinct"
    assert isinstance(make_endpoint("extern:" + SHIM), ExternalEndpoint)
    with pytest.raises(ValueError):
        make_endpoint("postgres://x")
