"""What a fixed campaign writes to disk stays byte for byte the same.

Two 300-query iterations against ``builtin`` and against each
``builtin:<fault>`` are persisted and hashed, with the two fields that vary
from run to run removed: a report's ``timestamp`` and an iteration's
``elapsed``.  A change that alters the artifacts on purpose records the
new digest here and says why in CHANGES.md.  The same campaign through the
line-protocol shim must write what ``builtin`` writes, clean and with a
fault, apart from the reports' ``targetId``.
"""

import hashlib
import json
import sys

from eqmorph.cli import EXIT_BUGS, EXIT_CLEAN, main
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


def _campaign_files(out, target) -> tuple:
    """(exit code, {file name: normalized text}) of a campaign, with each
    report's targetId, the one field that names the target, removed."""
    rc = main(["run", "--target", target, "--iterations", "2",
               "--queries", "300", "--seed", "cmp", "--out", str(out)])
    files = {}
    for path in sorted(out.iterdir()):
        text = _normalized(path)
        if path.suffix == ".json":
            report = json.loads(text)
            assert report.pop("targetId") == target
            text = json.dumps(report, sort_keys=True, indent=2)
        files[path.name] = text
    return rc, files


def test_shim_campaign_writes_what_builtin_writes(tmp_path, capsys):
    shim = f"extern:{sys.executable} -m eqmorph.shim"
    for fault, rc in [(None, EXIT_CLEAN), ("drop-distinct", EXIT_BUGS)]:
        builtin = f"builtin:{fault}" if fault else "builtin"
        extern = f"{shim} --fault {fault}" if fault else shim
        want = _campaign_files(tmp_path / f"builtin-{fault}", builtin)
        got = _campaign_files(tmp_path / f"shim-{fault}", extern)
        assert got[0] == want[0] == rc
        reports = [name for name in got[1] if name.startswith("report-")]
        assert bool(reports) == bool(fault)
        assert got[1] == want[1]
