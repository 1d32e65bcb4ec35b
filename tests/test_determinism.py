"""Golden digests across processes and hash seeds.

Two runs in one process do not prove determinism, because the module
caches serve the second run.  Each case below regenerates its output
in a fresh interpreter under a given PYTHONHASHSEED and compares the
SHA-256 digests with the ones committed here.  The digests only change
when a report or trace format changes on purpose; then
`python3 tests/test_determinism.py` prints the new ones.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# `korbits check --all` JSON report over the generated catalog of each degree
CHECK_DIGESTS = {
    2: "88475217fc52be5e935c47262c640caccfc5e67c545809dc5507fefe38343903",
    3: "b3950b1e68358f81ecadbc68e05dea18c67c2c1637f62aea7c10f0b0e98fee8e",
    4: "48e940101a762b2cdc450be7a8f286c04188baef2ef4f4cef28187b31a2b5e12",
    5: "5292f640042137789080c94d58193a57da22e862ddaf3e9b43132da1df673148",
}
# render_trace(fks_pipeline(G)) concatenated over the catalogs of degree 2..6
FKS_DIGEST = "10f0b335ed68a6dd0f892bad297b457cae74d52d6d2cf9f03e0941b1a1621b2f"
# the same over the degree-7 catalog
FKS7_DIGEST = "0c45d273ac0a50d3eeef01a9fb2592a39ef21538a2a5c094c64219fdccd06e05"
# `korbits orbits` and `korbits blocks` JSON reports concatenated over the
# groups of the degree-5 catalog
CLI_DIGESTS = {
    "orbits": "8ad6f91c889c3095d02ee8ee441a785a781e84703c732a2893b8b93ed161d420",
    "blocks": "f2536b18310c44979543d907708512dda6181fce3843e72731b437293ae7ae3f",
}

_SCRIPT = r"""
import contextlib, hashlib, io, json, os, tempfile
from korbits.catalog import transitive_catalog
from korbits.cli import main
from korbits.fks import fks_pipeline, render_trace
from korbits.group import save_group

sha = lambda data: hashlib.sha256(data).hexdigest()
out = {"check": {}}
with tempfile.TemporaryDirectory() as tmp:
    for n in range(2, 6):
        cat = os.path.join(tmp, f"deg{n}.cat")
        report = os.path.join(tmp, f"deg{n}.jsonl")
        with contextlib.redirect_stdout(io.StringIO()):
            main(["catalog", "--degree", str(n), "--out", cat])
            main(["check", "--catalog", cat, "--all", "--out", report])
        with open(report, "rb") as fh:
            out["check"][n] = sha(fh.read())
    for cmd in ("orbits", "blocks"):
        data = b""
        for e in transitive_catalog(5):
            group = os.path.join(tmp, f"{e.entry_id}.grp")
            report = os.path.join(tmp, f"{e.entry_id}.{cmd}.jsonl")
            save_group(e.group(), group)
            with contextlib.redirect_stdout(io.StringIO()):
                main([cmd, "--group", group, "--out", report])
            with open(report, "rb") as fh:
                data += fh.read()
        out[cmd] = sha(data)
traces = "".join(render_trace(fks_pipeline(e.group()))
                 for n in range(2, 7) for e in transitive_catalog(n))
out["fks"] = sha(traces.encode())
traces = "".join(render_trace(fks_pipeline(e.group()))
                 for e in transitive_catalog(7))
out["fks7"] = sha(traces.encode())
print(json.dumps(out))
"""


def digests(hash_seed):
    """The digests as computed by a fresh interpreter under `hash_seed`."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                          capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout)
    out["check"] = {int(n): d for n, d in out["check"].items()}
    return out


@pytest.mark.parametrize("hash_seed", [0, 1])
def test_golden_digests(hash_seed):
    got = digests(hash_seed)
    assert got["check"] == CHECK_DIGESTS
    assert got["fks"] == FKS_DIGEST
    assert got["fks7"] == FKS7_DIGEST
    assert {cmd: got[cmd] for cmd in CLI_DIGESTS} == CLI_DIGESTS


if __name__ == "__main__":
    print(json.dumps(digests(0), indent=1))
