import sys

import pytest

from eqmorph.adapter import (
    BuiltinEndpoint, EngineError, ExternalEndpoint, ProtocolError,
    make_endpoint,
)
from eqmorph.shim import handle

SHIM = f"{sys.executable} -m eqmorph.shim"

SCRIPT = """
CREATE TABLE t0 (a INT, b DECIMAL, c VARCHAR);
INSERT INTO t0 VALUES (1, 0.0005, 'x'), (1, 0.0005, 'x'), (NULL, NULL, 'it''s');
"""


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
    ("exec", "SELECT @", "SYNTAX"),
    ("exec", "SELECT zz FROM t0", "UNKNOWN_COLUMN"),
    ("drop", "", "PROTOCOL"),
])
def test_shim_error_codes(op, sql, code):
    ep = BuiltinEndpoint()
    assert handle(ep, {"id": 0, "op": "reset", "sql": SCRIPT})["ok"]
    resp = handle(ep, {"id": 1, "op": op, "sql": sql})
    assert (resp["id"], resp["ok"], resp["code"]) == (1, False, code)


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


def test_make_endpoint():
    assert isinstance(make_endpoint("builtin"), BuiltinEndpoint)
    assert make_endpoint("builtin:drop-distinct").target_id == \
        "builtin:drop-distinct"
    assert isinstance(make_endpoint("extern:" + SHIM), ExternalEndpoint)
    with pytest.raises(ValueError):
        make_endpoint("postgres://x")
