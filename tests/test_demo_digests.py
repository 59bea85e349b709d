"""Output gate: every demo prints the recorded bytes and exit code.

``demo_digests.json`` holds the SHA-256 of stdout and the exit code of each
``demos/*.py``, run in a fresh interpreter with this checkout's ``src``
first on ``PYTHONPATH``.  Re-record with

    python tests/test_demo_digests.py --record

only when a demo's output is meant to change.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIGEST_FILE = Path(__file__).with_name("demo_digests.json")
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def run_digest(name):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, env=env, timeout=300)
    return {"status": done.returncode,
            "sha256": hashlib.sha256(done.stdout).hexdigest()}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGEST_FILE.read_text())


def test_every_demo_is_recorded(recorded):
    assert sorted(recorded) == DEMOS


@pytest.mark.parametrize("name", DEMOS)
def test_demo_digest(recorded, name):
    assert run_digest(name) == recorded[name]


def record():
    data = {name: run_digest(name) for name in DEMOS}
    DIGEST_FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    record()
