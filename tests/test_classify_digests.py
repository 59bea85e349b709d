"""Identity gate: evidence classes and sweep rows match recorded SHA-256 digests.

``classify_digests.json`` was recorded from the per-length brute-force
sweep (now ``tests/oracle.py``), so any change to the partition a caller
gets back fails here.  The horizons are those of the ``classify_patterns``
benchmark workload, plus m = 7, the largest pattern length the caps allow,
at n_max 8 and 9.

``sweep_digests.json`` was recorded from an incremental S_n sweep, since
replaced by the cluster route.  Each entry pins the orbit of each pattern
of S_m, numbered in lex order of the orbits' first patterns, and one count
row per orbit and text length n = m..n_max: row[c-1] is the number of
texts of S_n with at least c occurrences.  The rows are rebuilt here from
``occurrence_histogram``, at the benchmark's horizons for m = 3..6 (those
with n_max >= m), at m = 7 with n_max 8, 9 and 10, at n_max = m for
m = 2..7, and at (2, 8).  A wrong count that splits no class leaves the
class digests alone but moves a row digest.

Re-record both files with

    PYTHONPATH=src python tests/test_classify_digests.py --record

only when the classes are meant to change, which for exact evidence is never.
"""

import hashlib
import json
import sys
from itertools import permutations
from pathlib import Path

import pytest

from clusterext.patterns import evidence_classes, occurrence_histogram, symmetry_class

DIGEST_FILE = Path(__file__).with_name("classify_digests.json")
SWEEP_DIGEST_FILE = Path(__file__).with_name("sweep_digests.json")
HORIZONS = ((1, (6, 7, 8)), (2, (6, 7, 8)), (3, (6, 7, 8)), (4, (6, 7, 8)),
            (5, (6, 7, 8)), (6, (5, 6, 7)), (7, (8, 9)))
CASES = [(m, n_max, strong) for m, horizons in HORIZONS for n_max in horizons
         for strong in (True, False)]
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
    """SHA-256 of the JSON of the orbit map and the at-least-c count rows."""
    firsts = {}  # the first pattern of each orbit, in lex order
    orbit = [firsts.setdefault(min(symmetry_class(p)), len(firsts))
             for p in permutations(range(1, m + 1))]
    levels = []
    for n in range(m, n_max + 1):
        rows = []
        for p in firsts:
            counts = occurrence_histogram(p, n).counts
            rows.append([sum(v for k, v in counts.items() if k >= c)
                         for c in range(1, max(counts) + 1)])
        levels.append(rows)
    text = json.dumps([orbit, levels])
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
