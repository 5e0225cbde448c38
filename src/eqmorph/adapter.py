"""Engine endpoints: the in-process reference engine and external engines
spoken to over a newline-delimited JSON protocol.

Protocol, one JSON object per line:
  request:  {"id": n, "op": "exec" | "reset", "sql": "..."}
  success:  {"id": n, "ok": true, "rows": [["cell", ...], ...]}
  failure:  {"id": n, "ok": false, "code": "...", "message": "..."}

Row cells are engine-rendered strings; multiset results repeat rows.
Setting EQMORPH_SHIM_DEBUG=1 mirrors the traffic to stderr.
"""

from __future__ import annotations

import json
import os
import select
import shlex
import subprocess
import sys
import time
from itertools import chain
from typing import Optional

from .refdb import ExecError, Executor, ScriptError, load_script
from .sqlast import SqlSyntaxError


class EngineError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class ProtocolError(Exception):
    pass


class EngineTimeout(Exception):
    pass


class BuiltinEndpoint:
    """The reference executor behind the endpoint interface."""

    def __init__(self, fault: Optional[str] = None):
        self.executor = Executor(fault)
        self.db = {}
        self.target_id = f"builtin:{fault}" if fault else "builtin"

    def start(self):
        return self

    def stop(self):
        pass

    def reset(self, script: str):
        try:
            self.db = load_script(script)
        except SqlSyntaxError as e:
            raise EngineError("SYNTAX", str(e))
        except ScriptError as e:
            raise EngineError("SCRIPT", str(e))

    def exec_sql(self, sql: str):
        from .parser import parse
        try:
            q = parse(sql)
            rows = self.executor.execute(self.db, q)
            return self.executor.rendered_rows(rows, q)
        except SqlSyntaxError as e:
            raise EngineError("SYNTAX", str(e))
        except ExecError as e:
            raise EngineError(e.code, e.message)


class ExternalEndpoint:
    """A child process speaking the line protocol on stdin/stdout.

    Replies are read on the calling thread: ``select`` waits on the pipe
    until the request's deadline, and complete lines are split off a byte
    buffer, so a reply may arrive in pieces or several in one read.
    """

    def __init__(self, command: str, exec_timeout: float = 10.0):
        self.command = command
        self.exec_timeout = exec_timeout
        self.target_id = f"extern:{command}"
        self._proc = None
        self._buf = bytearray()
        self._next_id = 0
        self._debug = os.environ.get("EQMORPH_SHIM_DEBUG") == "1"

    def start(self):
        if self._proc is not None:
            return self
        self._proc = subprocess.Popen(
            shlex.split(self.command), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE)
        self._buf.clear()
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

    def _read_line(self, deadline: float) -> bytes:
        """The next reply line, without its newline."""
        buf = self._buf
        fd = self._proc.stdout.fileno()
        scanned = 0
        while (end := buf.find(b"\n", scanned)) < 0:
            scanned = len(buf)
            wait = deadline - time.monotonic()
            if wait <= 0 or not select.select([fd], [], [], wait)[0]:
                raise EngineTimeout(
                    f"no response within {self.exec_timeout}s")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise ProtocolError("engine closed its output stream")
            buf += chunk
        line = bytes(buf[:end])
        del buf[:end + 1]
        return line

    def _request(self, op: str, sql: str) -> dict:
        if self._proc is None:
            self.start()
        self._next_id += 1
        rid = self._next_id
        line = json.dumps({"id": rid, "op": op, "sql": sql})
        if self._debug:
            print(f"eqmorph >> {line}", file=sys.stderr)
        try:
            self._proc.stdin.write(line.encode() + b"\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as e:
            raise ProtocolError(f"engine process is gone: {e}")
        deadline = time.monotonic() + self.exec_timeout
        while True:
            raw = self._read_line(deadline)
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
            # a reply to an earlier request that timed out: drop it
            if type(got) is int and got < rid:
                continue
            if got != rid:
                raise ProtocolError(
                    f"response id {got!r} does not match request "
                    f"id {rid} (stream out of sync)")
            return resp

    def reset(self, script: str):
        resp = self._request("reset", script)
        if not resp.get("ok"):
            raise EngineError(resp.get("code", "UNKNOWN"),
                              resp.get("message", "reset failed"))

    def exec_sql(self, sql: str):
        resp = self._request("exec", sql)
        if not resp.get("ok"):
            raise EngineError(resp.get("code", "UNKNOWN"),
                              resp.get("message", "execution failed"))
        rows = resp.get("rows")
        if not isinstance(rows, list):
            raise ProtocolError("missing rows in successful response")
        # checked by C-level passes, not a Python loop per row or cell
        if not set(map(type, rows)) <= {list} \
                or not set(map(type, chain.from_iterable(rows))) <= {str}:
            raise ProtocolError(
                f"rows must be arrays of string cells: {rows!r:.200}")
        return list(map(tuple, rows))


def make_endpoint(spec: str):
    """"builtin", "builtin:<fault>", or "extern:<command line>"."""
    if spec == "builtin":
        return BuiltinEndpoint()
    if spec.startswith("builtin:"):
        return BuiltinEndpoint(spec.split(":", 1)[1])
    if spec.startswith("extern:"):
        return ExternalEndpoint(spec.split(":", 1)[1])
    raise ValueError(f"unknown target spec {spec!r}")
