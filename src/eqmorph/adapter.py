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
import queue
import shlex
import subprocess
import sys
import threading
from typing import Optional

from .refdb import ExecError, Executor, load_script
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

    def exec_sql(self, sql: str):
        from .parser import parse
        try:
            q = parse(sql)
            rel = self.executor.execute(self.db, q)
            return self.executor.rendered_rows(rel, q)
        except SqlSyntaxError as e:
            raise EngineError("SYNTAX", str(e))
        except ExecError as e:
            raise EngineError(e.code, e.message)


class ExternalEndpoint:
    """A child process speaking the line protocol on stdin/stdout."""

    def __init__(self, command: str, exec_timeout: float = 10.0):
        self.command = command
        self.exec_timeout = exec_timeout
        self.target_id = f"extern:{command}"
        self._proc = None
        self._lines: "queue.Queue" = queue.Queue()
        self._reader = None
        self._next_id = 0
        self._debug = os.environ.get("EQMORPH_SHIM_DEBUG") == "1"

    def start(self):
        if self._proc is not None:
            return self
        self._proc = subprocess.Popen(
            shlex.split(self.command), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, bufsize=1)
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        return self

    def _pump(self):
        try:
            for line in self._proc.stdout:
                self._lines.put(line)
        finally:
            self._lines.put(None)  # EOF marker

    def stop(self):
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            if proc.stdin:
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
        if self._reader is not None:
            self._reader.join(timeout=2.0)
            self._reader = None

    def _request(self, op: str, sql: str) -> dict:
        if self._proc is None:
            self.start()
        self._next_id += 1
        req = {"id": self._next_id, "op": op, "sql": sql}
        line = json.dumps(req)
        if self._debug:
            print(f"eqmorph >> {line}", file=sys.stderr)
        try:
            self._proc.stdin.write(line + "\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as e:
            raise ProtocolError(f"engine process is gone: {e}")
        try:
            raw = self._lines.get(timeout=self.exec_timeout)
        except queue.Empty:
            raise EngineTimeout(f"no response within {self.exec_timeout}s")
        if raw is None:
            raise ProtocolError("engine closed its output stream")
        if self._debug:
            print(f"eqmorph << {raw.rstrip()}", file=sys.stderr)
        try:
            resp = json.loads(raw)
        except json.JSONDecodeError as e:
            raise ProtocolError(f"bad response line: {e}")
        if resp.get("id") != req["id"]:
            raise ProtocolError(
                f"response id {resp.get('id')!r} does not match request "
                f"id {req['id']} (stream out of sync)")
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
        return [tuple(str(c) for c in row) for row in rows]


def make_endpoint(spec: str):
    """"builtin", "builtin:<fault>", or "extern:<command line>"."""
    if spec == "builtin":
        return BuiltinEndpoint()
    if spec.startswith("builtin:"):
        return BuiltinEndpoint(spec.split(":", 1)[1])
    if spec.startswith("extern:"):
        return ExternalEndpoint(spec.split(":", 1)[1])
    raise ValueError(f"unknown target spec {spec!r}")
