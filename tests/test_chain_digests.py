"""Bit-identity gate: MCMC trajectories match recorded SHA-256 digests.

``chain_digests.json`` was recorded from the per-step chain loop that kept
``position`` up to date on every swap and tested the lazy coin in Python;
that loop is now ``checked_chain`` in ``tests/oracle.py``, and the split
digests pin it too.  Any change to how the chain consumes its PCG64 stream,
or to which state a draw leads to, fails here.  Re-record with

    PYTHONPATH=src python tests/test_chain_digests.py --record

only when trajectories are meant to change.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from clusterext.posets import (ClusterParams, FinitePoset, cluster_poset,
                               modified_cluster_poset)
from clusterext.sampling import (ExtensionChain, height_profile,
                                 sample_distribution)
from oracle import checked_chain

DIGEST_FILE = Path(__file__).with_name("chain_digests.json")
SEEDS = (0, 7, 2024)
# around one chunk of draws (32768) and across several chunks
STEPS = (0, 1, 997, 32768, 32769, 100003)
# one chain advanced by uneven calls: the stream is drawn per call
SPLIT_STEPS = (5, 32768, 1, 40000, 997)


def _chain_poset(k):
    return FinitePoset([f"e{i}" for i in range(k)],
                       [(i, i + 1) for i in range(k - 1)])


def _antichain(k):
    return FinitePoset([f"e{i}" for i in range(k)], [])


POSETS = {
    "cluster-9,3,6,4": lambda: cluster_poset(ClusterParams(9, 3, 6, 4)),
    "modified-5,2,4,3": lambda: modified_cluster_poset(ClusterParams(5, 2, 4, 3)),
    "antichain-8": lambda: _antichain(8),
    "chain-6": lambda: _chain_poset(6),
}

# (m, a, b, n, samples, burnin, thinning); None means the default budget
PROFILES = (
    (3, 1, 2, 10, 50, 40_000, 500),
    (5, 2, 4, 6, 20, 5_000, 300),
    (8, 3, 5, 4, 30, 20_000, 1_000),
    (5, 2, 4, 24, 20, None, None),  # |P| = 97, about 4.2 M burn-in steps
)

DISTRIBUTION = ((4, 1, 3, 2), 2_000, 16, 160, 3)  # params, samples, thinning, burnin, seed


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest(order, position):
    return _sha(repr((tuple(order), tuple(position))).encode())


def _chain_digest(chain):
    return _digest(chain.state(), chain.position)


def state_digest(name, seed, steps):
    chain = ExtensionChain(POSETS[name](), seed)
    chain.run(steps)
    return _chain_digest(chain)


def split_digest(name, seed):
    chain = ExtensionChain(POSETS[name](), seed)
    for steps in SPLIT_STEPS:
        chain.run(steps)
    return _chain_digest(chain)


def profile_digest(m, a, b, n, samples, burnin, thinning):
    profile = height_profile(ClusterParams(m, a, b, n), samples, burnin=burnin,
                             thinning=thinning, seed=11)
    return _sha(profile.mean_heights.tobytes())


def distribution_digest():
    params, samples, thinning, burnin, seed = DISTRIBUTION
    counts = sample_distribution(cluster_poset(ClusterParams(*params)), samples,
                                 thinning, burnin, seed)
    return _sha(repr(sorted(counts.items())).encode())


def _key(*parts):
    return ",".join(map(str, parts))


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGEST_FILE.read_text())


@pytest.mark.parametrize("name", sorted(POSETS))
def test_state_digests(recorded, name):
    table = recorded["states"]
    for seed in SEEDS:
        for steps in STEPS:
            assert state_digest(name, seed, steps) == table[_key(name, seed, steps)], \
                (name, seed, steps)
        assert split_digest(name, seed) == table[_key(name, seed, "split")], (name, seed)


@pytest.mark.parametrize("name", sorted(POSETS))
def test_checked_chain_matches_split_digests(recorded, name):
    table = recorded["states"]
    for seed in SEEDS:
        *_, (order, position) = checked_chain(POSETS[name](), seed, SPLIT_STEPS)
        assert _digest(order, position) == table[_key(name, seed, "split")], (name, seed)


@pytest.mark.parametrize("case", PROFILES, ids=lambda c: _key(*c[:4]))
def test_height_profile_digests(recorded, case):
    assert profile_digest(*case) == recorded["profiles"][_key(*case)]


def test_sample_distribution_digest(recorded):
    assert distribution_digest() == recorded["distribution"]


def record():
    states = {}
    for name in sorted(POSETS):
        for seed in SEEDS:
            for steps in STEPS:
                states[_key(name, seed, steps)] = state_digest(name, seed, steps)
            states[_key(name, seed, "split")] = split_digest(name, seed)
    data = {
        "states": states,
        "profiles": {_key(*case): profile_digest(*case) for case in PROFILES},
        "distribution": distribution_digest(),
    }
    DIGEST_FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    record()
