"""Line-protocol server exposing the reference engine as a child process.

    python -m eqmorph.shim [--fault NAME]

Reads one JSON request per stdin line and answers one JSON response per
line; see adapter.py for the message shapes.  Used to exercise the
external-endpoint plumbing end to end.
"""

from __future__ import annotations

import argparse
import json
import sys

from .adapter import BuiltinEndpoint, EngineError
from .refdb import ScriptError, UnknownFault


def handle(endpoint: BuiltinEndpoint, req: dict) -> dict:
    rid = req.get("id")
    op = req.get("op")
    sql = req.get("sql", "")
    try:
        if op == "reset":
            endpoint.reset(sql)
            return {"id": rid, "ok": True, "rows": []}
        if op == "exec":
            rows = [list(r) for r in endpoint.exec_sql(sql)]
            return {"id": rid, "ok": True, "rows": rows}
        return {"id": rid, "ok": False, "code": "PROTOCOL",
                "message": f"unknown op {op!r}"}
    except ScriptError as e:
        return {"id": rid, "ok": False, "code": "SCRIPT", "message": str(e)}
    except EngineError as e:
        return {"id": rid, "ok": False, "code": e.code, "message": e.message}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="eqmorph-shim")
    ap.add_argument("--fault", default=None,
                    help="enable a named engine fault")
    args = ap.parse_args(argv)
    try:
        endpoint = BuiltinEndpoint(args.fault)
    except UnknownFault as e:
        print(str(e), file=sys.stderr)
        return 1
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        try:
            req = json.loads(line)
        except json.JSONDecodeError as e:
            resp = {"id": None, "ok": False, "code": "PROTOCOL",
                    "message": f"bad request line: {e}"}
        else:
            resp = handle(endpoint, req)
        sys.stdout.write(json.dumps(resp) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
