"""Output gate: every CLI request prints the recorded bytes and exit code.

``cli_digests.json`` holds the SHA-256 of stdout and the exit code of each
request below in each output format (``check`` takes no ``--format``).  It
was recorded before the subcommands shared one output emitter, so any change
to what a user sees fails here.  Re-record with

    PYTHONPATH=src python tests/test_cli_digests.py --record

only when the output is meant to change.
"""

import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from clusterext import cli

DIGEST_FILE = Path(__file__).with_name("cli_digests.json")
FORMATS = ("table", "csv", "json")

REQUESTS = [
    "count --m 3 --a 1 --b 2 --n 2 --method brute",
    "count --m 4 --a 1 --b 3 --n 3 --variant q --method brute",
    "count --m 6 --a 2 --b 4 --n 30",
    "count --m 5 --a 2 --b 4 --n 7 --variant q",
    "count --m 20 --a 5 --b 12 --n 160",  # over 4300 digits
    "count --m 3 --a 5 --b 2 --n 1",  # exit 2
    "count --m 3 --a 1 --b 2 --n 50 --method brute",  # exit 3
    "constant --m 8 --a 3 --b 5",
    "constant --m 5 --a 1 --b 5",
    "fit --m 5 --a 2 --b 4 --n-max 12",
    "fit --m 3 --a 1 --b 2 --n-max 20 --points 5",
    "fit --m 3 --a 1 --b 2 --n-max 20 --points 1",
    "fit --m 3 --a 1 --b 2 --n-max 20 --points -3",  # exit 2
    "compare --m 6 --a 1 --b 3 --a2 2 --b2 4 --n-max 8",
    "compare --m 6 --a 1 --b 3 --a2 2 --b2 4 --n-max 1",  # n0 = none
    "compare --m 6 --a 1 --b 3 --a2 2 --b2 5 --n-max 4",  # exit 2
    "profile --m 8 --a 3 --b 5 --points 20",
    "profile --m 5 --a 1 --b 5 --points 8",  # a = 1, b = m corner
    "profile --m 5 --a 1 --b 3 --points 8",  # infinite slope at t = 1
    "profile --m 5 --a 3 --b 5 --points 8",  # infinite slope at t = 0
    "profile --m 8 --a 3 --b 5 --points 1",  # exit 2
    "sample --m 3 --a 1 --b 2 --n 4 --samples 40 --burnin 20000 --thinning 200 "
    "--seed 7",
    "sample --m 4 --a 2 --b 3 --n 3 --samples 5 --burnin 200 --thinning 20 "
    "--seed 7",
    "sample --m 8 --a 3 --b 5 --n 1000",  # exit 3
    "classify --m 1",
    "classify --m 3 --n-max 6",
    "classify --m 4 --n-max 6 --weak",
    "classify --m 4 --n-max 7",
    "classify --m 5 --n-max 7 --weak",
    "classify --m 6 --n-max 5",  # n_max < m: one class, S_6 in lex order
    "classify --m 6 --n-max 7",
    "classify --m 7 --n-max 8",
    "classify --m 3 --n-max 0",  # exit 2
]


def _keys():
    return ["check"] + [f"{request} --format {fmt}"
                        for request in REQUESTS for fmt in FORMATS]


def run_digest(key):
    buf = io.StringIO()
    status = cli.run(key.split(), out=buf)
    return {"status": status,
            "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGEST_FILE.read_text())


def test_grid_is_recorded(recorded):
    assert sorted(recorded) == sorted(_keys())


@pytest.mark.parametrize("key", _keys())
def test_cli_digest(recorded, key):
    assert run_digest(key) == recorded[key]


def record():
    data = {key: run_digest(key) for key in _keys()}
    DIGEST_FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    record()
