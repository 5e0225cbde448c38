"""What a fixed campaign writes to disk stays byte for byte the same.

Two 300-query iterations against ``builtin`` and against each
``builtin:<fault>`` are persisted and hashed, with the two fields that vary
from run to run removed: a report's ``timestamp`` and an iteration's
``elapsed``.  A change that alters the artifacts on purpose records the
new digest here and says why in CHANGES.md.  The same campaign through the
line-protocol shim must write what ``builtin`` writes.
"""

import hashlib
import json
import sys

from eqmorph.cli import main
from eqmorph.refdb import FAULTS

DIGEST = "7c0544ac2cfcbed1699fd834cfa238dccf60d84c71711aa1c984b6bc363b5f60"


def _normalized(path) -> str:
    text = path.read_text()
    if path.name == "stats.jsonl":
        lines = [json.loads(line) for line in text.splitlines()]
        for line in lines:
            del line["elapsed"]
        return "".join(json.dumps(line, sort_keys=True) + "\n"
                       for line in lines)
    if path.suffix == ".json":
        report = json.loads(text)
        del report["timestamp"]
        return json.dumps(report, sort_keys=True, indent=2)
    return text


def test_campaign_artifacts_are_unchanged(tmp_path, capsys):
    digest = hashlib.sha256()
    for target in ["builtin"] + [f"builtin:{f}" for f in sorted(FAULTS)]:
        out = tmp_path / target.replace(":", "-")
        rc = main(["run", "--target", target, "--iterations", "2",
                   "--queries", "300", "--seed", "cmp", "--out", str(out)])
        digest.update(f"{target} exit {rc}\n".encode())
        for path in sorted(out.iterdir()):
            digest.update(f"{path.name}\n{_normalized(path)}\n".encode())
    assert digest.hexdigest() == DIGEST


def test_shim_campaign_writes_what_builtin_writes(tmp_path, capsys):
    files = {}
    for name, target in [("builtin", "builtin"),
                         ("shim", f"extern:{sys.executable} -m eqmorph.shim")]:
        out = tmp_path / name
        rc = main(["run", "--target", target, "--iterations", "2",
                   "--queries", "300", "--seed", "cmp", "--out", str(out)])
        assert rc == 0
        files[name] = {p.name: _normalized(p) for p in out.iterdir()}
    assert list(files["shim"]) == ["stats.jsonl"]
    assert files["shim"] == files["builtin"]
