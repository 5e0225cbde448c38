"""Engine endpoints: the in-process reference engine and external engines
spoken to over a newline-delimited JSON protocol.

Protocol, one JSON object per line:
  request:  {"id": n, "op": "exec" | "reset", "sql": "..."}
  success:  {"id": n, "ok": true, "rows": [["cell", ...], ...]}
  failure:  {"id": n, "ok": false, "code": "...", "message": "..."}

Row cells are engine-rendered strings; multiset results repeat rows.  A
failure's code and message are those of the EngineError the engine
raised: SYNTAX from the lexer and parser, SCRIPT from the script loader,
a stable code from name resolution or execution.  Many requests may be in
flight: an engine answers each one once, in the order it received them.
Setting EQMORPH_SHIM_DEBUG=1 mirrors the traffic to stderr.

Every endpoint offers start(), stop(), reset(script), which loads a fresh
database; exec_sql(sql), which returns rendered rows or raises EngineError;
and exec_each(sqls), which takes an iterable of statements and yields one
outcome per statement, in order: ("rows", rows) or ("error", EngineError).
exec_each may take a statement from sqls before the outcomes of earlier
ones are back.
"""

from __future__ import annotations

import json
import os
import select
import shlex
import subprocess
import sys
import time
from collections import deque
from itertools import chain
from typing import Optional

from . import parser
from .refdb import EngineError, Executor, load_script, schema_of


class ProtocolError(Exception):
    pass


class EngineTimeout(Exception):
    pass


class BuiltinEndpoint:
    """The reference executor behind the endpoint interface.  The schema
    of the loaded database is derived once per reset, not per statement."""

    def __init__(self, fault: Optional[str] = None):
        self.executor = Executor(fault)
        self.db = {}
        self.schema = schema_of(self.db)
        self.target_id = f"builtin:{fault}" if fault else "builtin"

    def start(self):
        return self

    def stop(self):
        pass

    def reset(self, script: str):
        # a script that fails to load leaves the old database and schema
        db = load_script(script)
        self.db, self.schema = db, schema_of(db)

    def exec_sql(self, sql: str):
        q = parser.parse(sql)
        rows = self.executor.execute(self.db, q, self.schema)
        return self.executor.rendered_rows(rows, q)

    def exec_each(self, sqls):
        """Each statement's outcome, run and yielded before the next
        statement is taken from sqls."""
        for sql in sqls:
            try:
                outcome = ("rows", self.exec_sql(sql))
            except EngineError as e:
                outcome = ("error", e)
            yield outcome


class ExternalEndpoint:
    """A child process speaking the line protocol on stdin/stdout.

    Both pipes are non-blocking and served on the calling thread.
    Requests leave through an outgoing byte buffer; complete reply lines
    are split off an incoming one, so a reply may arrive in pieces or
    several in one read.  A client that waits selects on "output
    readable" and, while bytes are unsent, "input writable" together, so
    a full pipe in either direction never stalls the other.
    """

    def __init__(self, command: str, exec_timeout: float = 10.0):
        self.command = command
        self.exec_timeout = exec_timeout
        self.target_id = f"extern:{command}"
        self._proc = None
        self._rbuf = bytearray()
        self._wbuf = bytearray()
        self._next_id = 0
        self._debug = os.environ.get("EQMORPH_SHIM_DEBUG") == "1"

    def start(self):
        if self._proc is not None:
            return self
        self._proc = subprocess.Popen(
            shlex.split(self.command), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE)
        os.set_blocking(self._proc.stdin.fileno(), False)
        os.set_blocking(self._proc.stdout.fileno(), False)
        self._rbuf.clear()
        self._wbuf.clear()
        return self

    def stop(self):
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            proc.stdin.close()
        except OSError:
            pass
        try:
            proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            proc.terminate()
            try:
                proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()

    # -- the pipes ----------------------------------------------------------

    def _send(self, op: str, sql: str) -> int:
        """Queue one request, write what the pipe takes, return its id."""
        if self._proc is None:
            self.start()
        self._next_id += 1
        line = json.dumps({"id": self._next_id, "op": op, "sql": sql})
        if self._debug:
            print(f"eqmorph >> {line}", file=sys.stderr)
        self._wbuf += line.encode()
        self._wbuf += b"\n"
        self._write()
        return self._next_id

    def _write(self):
        try:
            sent = os.write(self._proc.stdin.fileno(), self._wbuf)
        except BlockingIOError:
            return
        except OSError as e:
            raise ProtocolError(f"engine process is gone: {e}")
        del self._wbuf[:sent]

    def _read(self) -> bool:
        """Move what the engine has written into the reply buffer; False
        when it has written nothing."""
        try:
            chunk = os.read(self._proc.stdout.fileno(), 65536)
        except BlockingIOError:
            return False
        if not chunk:
            raise ProtocolError("engine closed its output stream")
        self._rbuf += chunk
        return True

    def _reply(self, rid: int) -> Optional[dict]:
        """The reply to request rid if it is buffered, else None.  A reply
        to an earlier request, one that timed out, is skipped."""
        buf = self._rbuf
        while (end := buf.find(b"\n")) >= 0:
            raw = bytes(buf[:end])
            del buf[:end + 1]
            if self._debug:
                print(f"eqmorph << {raw.decode(errors='replace').rstrip()}",
                      file=sys.stderr)
            try:
                resp = json.loads(raw.decode())
            except ValueError as e:
                raise ProtocolError(f"bad response line: {e}")
            if not isinstance(resp, dict):
                raise ProtocolError(f"bad response line: {resp!r}")
            got = resp.get("id")
            if type(got) is int and got < rid:
                continue
            if got != rid:
                raise ProtocolError(
                    f"response id {got!r} does not match request "
                    f"id {rid} (stream out of sync)")
            return resp
        return None

    def _arrived(self, rid: int) -> Optional[dict]:
        """The reply to request rid if the engine has written it, without
        waiting."""
        resp = self._reply(rid)
        while resp is None and self._read():
            resp = self._reply(rid)
        return resp

    def _await(self, rid: int) -> dict:
        """The reply to request rid, waiting up to exec_timeout for it
        while unsent requests go out."""
        deadline = time.monotonic() + self.exec_timeout
        out_fd = self._proc.stdout.fileno()
        in_fd = self._proc.stdin.fileno()
        while (resp := self._reply(rid)) is None:
            wait = deadline - time.monotonic()
            readable = writable = ()
            if wait > 0:
                readable, writable, _ = select.select(
                    [out_fd], [in_fd] if self._wbuf else [], [], wait)
            if not (readable or writable):
                raise EngineTimeout(
                    f"no response within {self.exec_timeout}s")
            if writable:
                self._write()
            if readable:
                self._read()
        return resp

    @staticmethod
    def _outcome(resp: dict):
        """("rows", rows) or ("error", EngineError) of an exec reply."""
        if not resp.get("ok"):
            return ("error", EngineError(
                resp.get("code", "UNKNOWN"),
                resp.get("message", "execution failed")))
        rows = resp.get("rows")
        if not isinstance(rows, list):
            raise ProtocolError("missing rows in successful response")
        # checked by C-level passes, not a Python loop per row or cell
        if not set(map(type, rows)) <= {list} \
                or not set(map(type, chain.from_iterable(rows))) <= {str}:
            raise ProtocolError(
                f"rows must be arrays of string cells: {rows!r:.200}")
        return ("rows", list(map(tuple, rows)))

    # -- the endpoint -------------------------------------------------------

    def reset(self, script: str):
        resp = self._await(self._send("reset", script))
        if not resp.get("ok"):
            raise EngineError(resp.get("code", "UNKNOWN"),
                              resp.get("message", "reset failed"))

    def exec_sql(self, sql: str):
        kind, value = self._outcome(self._await(self._send("exec", sql)))
        if kind == "error":
            raise value
        return value

    def exec_each(self, sqls):
        """Send each statement as soon as sqls yields it, and after each
        send yield every outcome whose reply has already arrived; wait
        only once nothing is left to send."""
        pending = deque()
        for sql in sqls:
            pending.append(self._send("exec", sql))
            while pending and \
                    (resp := self._arrived(pending[0])) is not None:
                pending.popleft()
                yield self._outcome(resp)
        while pending:
            yield self._outcome(self._await(pending.popleft()))


def make_endpoint(spec: str):
    """"builtin", "builtin:<fault>", or "extern:<command line>"."""
    if spec == "builtin":
        return BuiltinEndpoint()
    if spec.startswith("builtin:"):
        return BuiltinEndpoint(spec.split(":", 1)[1])
    if spec.startswith("extern:"):
        command = spec.split(":", 1)[1]
        if not shlex.split(command):
            raise ValueError(f"target {spec!r} names no command")
        return ExternalEndpoint(command)
    raise ValueError(f"unknown target spec {spec!r}")
