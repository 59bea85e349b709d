"""Identity gate: evidence classes and sweep rows match recorded SHA-256 digests.

``classify_digests.json`` was recorded from the per-length brute-force
sweep (now ``tests/oracle.py``) that the single incremental S_n sweep
replaced, so any change to the partition a caller gets back fails here.
The horizons are those of the ``classify_patterns`` benchmark workload,
plus m = 7, the largest pattern length the caps allow, at n_max 8 and 9.

``sweep_digests.json`` pins what ``_sweep(m, n_max)`` returns, the orbit
of each pattern and every count row, at the benchmark's horizons for
m = 3..6 (those with n_max >= m), at m = 7 with n_max 8, 9 and 10, at
n_max = m for m = 2..7, which the sweep answers without a walk, and at
(2, 8), the one length that walks every root.  A wrong count that splits
no class leaves the class digests alone but moves a row digest.

Re-record both files with

    PYTHONPATH=src python tests/test_classify_digests.py --record

only when the classes are meant to change, which for exact evidence is never.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from clusterext.patterns import _sweep, evidence_classes

DIGEST_FILE = Path(__file__).with_name("classify_digests.json")
SWEEP_DIGEST_FILE = Path(__file__).with_name("sweep_digests.json")
HORIZONS = ((1, (6, 7, 8)), (2, (6, 7, 8)), (3, (6, 7, 8)), (4, (6, 7, 8)),
            (5, (6, 7, 8)), (6, (5, 6, 7)), (7, (8, 9)))
CASES = [(m, n_max, strong) for m, horizons in HORIZONS for n_max in horizons
         for strong in (True, False)]
# a horizon below m needs no sweep: evidence_classes answers it without one
SWEEPS = ([(m, n_max) for m, horizons in HORIZONS[2:6] + ((7, (8, 9, 10)),)
           for n_max in horizons if n_max > m]
          + [(m, m) for m in range(2, 8)] + [(2, 8)])


def _key(m, n_max, strong):
    return f"{m},{n_max},{'strong' if strong else 'weak'}"


def classes_digest(m, n_max, strong):
    """Class count and SHA-256 of the JSON of the sorted classes."""
    classes = evidence_classes(m, n_max, strong)
    text = json.dumps([["".join(map(str, p)) for p in cls] for cls in classes])
    return {"classes": len(classes),
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def sweep_digest(m, n_max):
    """SHA-256 of the JSON of the sweep's orbit map and count rows."""
    text = json.dumps(_sweep(m, n_max))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGEST_FILE.read_text())


@pytest.fixture(scope="module")
def recorded_sweeps():
    return json.loads(SWEEP_DIGEST_FILE.read_text())


def test_recorded_cases(recorded):
    assert sorted(recorded) == sorted(_key(*case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=lambda case: _key(*case))
def test_classify_digests(recorded, case):
    assert classes_digest(*case) == recorded[_key(*case)]


def test_recorded_sweeps(recorded_sweeps):
    assert sorted(recorded_sweeps) == sorted(f"{m},{n_max}" for m, n_max in SWEEPS)


@pytest.mark.parametrize("m,n_max", SWEEPS)
def test_sweep_digests(recorded_sweeps, m, n_max):
    assert sweep_digest(m, n_max) == recorded_sweeps[f"{m},{n_max}"]


def record():
    data = {_key(*case): classes_digest(*case) for case in CASES}
    DIGEST_FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    sweeps = {f"{m},{n_max}": sweep_digest(m, n_max) for m, n_max in SWEEPS}
    SWEEP_DIGEST_FILE.write_text(json.dumps(sweeps, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    record()
