"""Bit-identity gate: counts and integrals match recorded SHA-256 digests.

``count_digests.json`` was recorded from the three-loop counting code that
the single integration kernel replaced, so any change to the integer a
caller gets back fails here.  Re-record with

    PYTHONPATH=src python tests/test_count_digests.py --record

only when counts are meant to change, which for exact counts is never.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from clusterext import exact_counts
from clusterext.exact_counts import (exact_count, exact_count_sweep,
                                     iterated_integral)
from clusterext.posets import ClusterParams

DIGEST_FILE = Path(__file__).with_name("count_digests.json")
SWEEP_M_MAX, SWEEP_N_MAX = 8, 60
UNORIENTED_M_MAX = 6
INTEGRAL_M_MAX, INTEGRAL_N_MAX = 6, 8
LARGE = (8, 3, 5, 300)
SLOW = (20, 5, 12, 300)  # m-b > a-1: pins the mirrored route at size
VARIANTS = ("p", "q")


def digest(values):
    """SHA-256 over the big-endian bytes of each nonnegative integer, length-prefixed."""
    h = hashlib.sha256()
    for v in values:
        raw = v.to_bytes(max(1, (v.bit_length() + 7) // 8), "big")
        h.update(len(raw).to_bytes(8, "big") + raw)
    return h.hexdigest()


def shapes(m_max):
    return [(m, a, b) for m in range(2, m_max + 1)
            for a in range(1, m) for b in range(a + 1, m + 1)]


def sweep_digest(m, a, b, variant):
    return digest(exact_count_sweep(m, a, b, SWEEP_N_MAX, variant))


def integral_digest(m, a, b, variant):
    values = [iterated_integral(ClusterParams(m, a, b, n), variant)
              for n in range(1, INTEGRAL_N_MAX + 1)]
    return digest(x for v in values for x in (v.numerator, v.denominator))


def count_digest(m, a, b, n, variant):
    return digest([exact_count(ClusterParams(m, a, b, n), variant)])


def _key(*parts):
    return ",".join(map(str, parts))


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGEST_FILE.read_text())


def test_sweep_digests(recorded):
    table = recorded["sweeps"]
    assert len(table) == 2 * len(shapes(SWEEP_M_MAX))
    for m, a, b in shapes(SWEEP_M_MAX):
        for v in VARIANTS:
            assert sweep_digest(m, a, b, v) == table[_key(m, a, b, v)], (m, a, b, v)


def test_unoriented_sweep_digests(recorded, monkeypatch):
    # the kernel runs every shape in its cheaper mirror orientation; the
    # shape as given must still give the recorded bits
    monkeypatch.setattr(exact_counts, "_oriented", lambda m, a, b: (a, b))
    table = recorded["sweeps"]
    for m, a, b in shapes(UNORIENTED_M_MAX):
        for v in VARIANTS:
            assert sweep_digest(m, a, b, v) == table[_key(m, a, b, v)], (m, a, b, v)


def test_iterated_integral_digests(recorded):
    table = recorded["integrals"]
    assert len(table) == 2 * len(shapes(INTEGRAL_M_MAX))
    for m, a, b in shapes(INTEGRAL_M_MAX):
        for v in VARIANTS:
            assert integral_digest(m, a, b, v) == table[_key(m, a, b, v)], (m, a, b, v)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("shape", [LARGE, SLOW], ids=lambda shape: _key(*shape))
def test_count_digests(recorded, shape, variant):
    assert count_digest(*shape, variant) == recorded["counts"][_key(*shape, variant)]


def record():
    data = {
        "sweeps": {_key(m, a, b, v): sweep_digest(m, a, b, v)
                   for m, a, b in shapes(SWEEP_M_MAX) for v in VARIANTS},
        "integrals": {_key(m, a, b, v): integral_digest(m, a, b, v)
                      for m, a, b in shapes(INTEGRAL_M_MAX) for v in VARIANTS},
        "counts": {_key(*s, v): count_digest(*s, v)
                   for s in (LARGE, SLOW) for v in VARIANTS},
    }
    DIGEST_FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    record()
