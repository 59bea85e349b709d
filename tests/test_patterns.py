import gc
import math
import random
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterext import patterns, posets
from clusterext.errors import InvalidInputError, ResourceLimitError
from clusterext.exact_counts import exact_count
from clusterext.posets import ClusterParams
from oracle import (_histograms_for_length, cluster_numbers_by_posets,
                    cluster_numbers_by_texts, evidence_classes_by_pattern)


def test_standardize_examples():
    assert patterns.standardize((5, 2, 8)) == (2, 1, 3)
    assert patterns.standardize((1, 2, 3)) == (1, 2, 3)
    assert patterns.standardize((9, 3, 7, 4)) == (4, 1, 3, 2)


def test_standardize_idempotent():
    rng = random.Random(11)
    for _ in range(200):
        k = rng.randint(1, 9)
        word = tuple(rng.sample(range(1, 100), k))
        once = patterns.standardize(word)
        assert patterns.standardize(once) == once


def test_alike_is_equal_standardization_on_every_small_pair():
    std = patterns.standardize
    words = [p for m in range(1, 6) for p in permutations(range(1, m + 1))]
    for x in words:
        for y in words:
            assert patterns._alike(x, y) == (std(x) == std(y)), (x, y)


@given(st.lists(st.integers(), min_size=1, max_size=12, unique=True),
       st.lists(st.integers(), min_size=1, max_size=12, unique=True))
def test_alike_is_equal_standardization(x, y):
    # an order-preserving relabelling of x is alike; an independent y rarely
    std = patterns.standardize
    z = [3 * v ** 3 - 7 for v in x]
    assert patterns._alike(x, z)
    assert patterns._alike(x, y) == (std(x) == std(y))


def test_standardize_rejects_duplicates():
    with pytest.raises(InvalidInputError):
        patterns.standardize((3, 3, 1))
    with pytest.raises(InvalidInputError):
        patterns.standardize(())


def test_occurrences_examples():
    assert patterns.occurrences((1, 3, 2), (1, 4, 2, 5, 3)) == [1, 3]
    assert patterns.occurrences((1, 2), (2, 1)) == []
    assert patterns.occurrences((1, 2, 3), (1, 2, 3, 4)) == [1, 2]
    # pattern longer than text: no occurrences, not an error
    assert patterns.occurrences((1, 2, 3), (1, 2)) == []


def test_reverse_complement_examples():
    assert patterns.reverse((1, 3, 4, 2)) == (2, 4, 3, 1)
    assert patterns.complement((1, 3, 4, 2)) == (4, 2, 1, 3)
    assert patterns.reverse(patterns.complement((1, 3, 4, 2))) == (3, 1, 2, 4)


def test_reverse_complement_involutions_commute():
    for m in range(1, 7):
        for p in permutations(range(1, m + 1)):
            assert patterns.reverse(patterns.reverse(p)) == p
            assert patterns.complement(patterns.complement(p)) == p
            assert (patterns.reverse(patterns.complement(p))
                    == patterns.complement(patterns.reverse(p)))


def test_is_standard_examples():
    assert patterns.is_standard((1, 3, 4, 2))
    assert not patterns.is_standard((2, 3, 1))
    assert patterns.is_standard((1, 4, 3, 2))


def test_standard_representative_in_symmetry_class():
    # at least one of p, pR, pC, pRC is standard; exactly one when
    # p1 != pm and p1 + pm != m + 1
    for m in range(2, 7):
        for p in permutations(range(1, m + 1)):
            variants = [p, patterns.reverse(p), patterns.complement(p),
                        patterns.reverse(patterns.complement(p))]
            standard = [v for v in variants if patterns.is_standard(v)]
            assert standard, p
            if p[0] != p[-1] and p[0] + p[-1] != m + 1:
                assert len(set(standard)) == 1, p


def test_is_nonoverlapping_examples():
    assert not patterns.is_nonoverlapping((1, 2, 3))
    assert patterns.is_nonoverlapping((1, 3, 4, 2))
    assert patterns.is_nonoverlapping((1, 3, 2))
    assert patterns.is_nonoverlapping((1, 2))  # nothing to check
    with pytest.raises(InvalidInputError):
        patterns.is_nonoverlapping((1,))


def test_nonoverlapping_fraction_small():
    assert patterns.nonoverlapping_fraction(2) == 1.0
    assert patterns.nonoverlapping_fraction(3) == pytest.approx(4 / 6)
    # frozen values from direct enumeration
    assert patterns.nonoverlapping_fraction(4) == pytest.approx(Fraction(12, 24))
    assert patterns.nonoverlapping_fraction(5) == pytest.approx(Fraction(48, 120))
    assert patterns.nonoverlapping_fraction(6) == pytest.approx(Fraction(280, 720))
    assert patterns.nonoverlapping_fraction(7) == pytest.approx(Fraction(1864, 5040))
    assert patterns.nonoverlapping_fraction(8) == pytest.approx(Fraction(14840, 40320))


def test_nonoverlapping_fraction_range_errors():
    for m in (1, 0, -3):  # a broken precondition, not a budget
        with pytest.raises(InvalidInputError):
            patterns.nonoverlapping_fraction(m)
    with pytest.raises(ResourceLimitError):
        patterns.nonoverlapping_fraction(12)


@pytest.mark.slow
def test_nonoverlapping_fraction_limit_diagnostic():
    # exact counts, recorded by enumeration with the standardize-based
    # predicate; the fraction tends to about 0.36409
    for m, count in ((9, 132_276), (10, 1_323_504)):
        assert patterns.nonoverlapping_fraction(m) == count / math.factorial(m), m


def test_occurrence_histogram_examples():
    assert patterns.occurrence_histogram((1, 2, 3), 3).counts == {0: 5, 1: 1}
    assert patterns.occurrence_histogram((1, 2), 2).counts == {0: 1, 1: 1}


def test_occurrence_histogram_totals():
    rng = random.Random(5)
    for _ in range(20):
        m = rng.randint(2, 4)
        n = rng.randint(1, 7)
        p = tuple(rng.sample(range(1, m + 1), m))
        hist = patterns.occurrence_histogram(p, n)
        assert hist.total() == math.factorial(n)
        assert all(k >= 0 and v >= 0 for k, v in hist.counts.items())


def test_occurrence_histogram_resource_error():
    with pytest.raises(ResourceLimitError):
        patterns.occurrence_histogram((1, 2), 11)


def test_histogram_symmetries_small():
    for p in permutations(range(1, 4)):
        for n in range(1, 7):
            h = patterns.occurrence_histogram(p, n).counts
            assert h == patterns.occurrence_histogram(patterns.reverse(p), n).counts
            assert h == patterns.occurrence_histogram(patterns.complement(p), n).counts


def test_cwilf_evidence_examples():
    assert patterns.cwilf_evidence((1, 3, 4, 2), (1, 4, 3, 2), 7, strong=True)
    # avoidance counts differ at n = 4 (17 vs 16 avoiders)
    assert not patterns.cwilf_evidence((1, 2, 3), (1, 3, 2), 5, strong=False)
    assert patterns.occurrence_histogram((1, 2, 3), 4).avoiders() == 17
    assert patterns.occurrence_histogram((1, 3, 2), 4).avoiders() == 16


@pytest.mark.parametrize("strong", [True, False])
def test_cwilf_evidence_agrees_with_evidence_classes(strong):
    n_max = 7
    cls = {p: i for i, group in enumerate(patterns.evidence_classes(4, n_max, strong))
           for p in group}
    for p in cls:
        for q in cls:
            assert (patterns.cwilf_evidence(p, q, n_max, strong)
                    == (cls[p] == cls[q])), (p, q)


def test_cwilf_evidence_reverse_always_strong():
    for p in permutations(range(1, 5)):
        assert patterns.cwilf_evidence(p, patterns.reverse(p), 7, strong=True)


def test_cwilf_evidence_validation():
    with pytest.raises(InvalidInputError):
        patterns.cwilf_evidence((1, 2, 3), (1, 2), 5)
    with pytest.raises(ResourceLimitError):
        patterns.cwilf_evidence((1, 2), (2, 1), 11)


@pytest.mark.parametrize("n_max", [0, -4, 3.0, 2.5, True, False, "4", None])
def test_empty_horizon_is_refused(n_max):
    # no text length at all would make every pair "equivalent"; a length
    # that is not an int (bool included) is refused the same way
    with pytest.raises(InvalidInputError):
        patterns.cwilf_evidence((1, 2, 3), (1, 3, 2), n_max)
    with pytest.raises(InvalidInputError):
        patterns.evidence_classes(3, n_max)
    with pytest.raises(InvalidInputError):
        patterns.occurrence_histogram((1, 2), n_max)


def test_evidence_classes_s3():
    classes = patterns.evidence_classes(3, 6)
    assert classes == [
        [(1, 2, 3), (3, 2, 1)],
        [(1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2)],
    ]


# every horizon of the orbit-keyed classes against the per-pattern oracle
GROUPING_CASES = [(m, n_max) for m in range(1, 6) for n_max in range(1, 8)] + [
    (6, n_max) for n_max in range(1, 8)]


@pytest.mark.parametrize("m,n_max", GROUPING_CASES)
def test_evidence_classes_match_per_pattern_keying(m, n_max):
    for strong in (True, False):
        assert (patterns.evidence_classes(m, n_max, strong)
                == evidence_classes_by_pattern(m, n_max, strong)), strong


@pytest.mark.parametrize("strong", [True, False])
def test_short_horizons_give_one_class_in_lex_order(strong):
    # no text of S_n with n < 7 holds a pattern of length 7
    s7 = list(permutations(range(1, 8)))
    for n_max in range(1, 7):
        assert patterns.evidence_classes(7, n_max, strong) == [s7]


def test_orbit_histograms_are_shared_but_cannot_leak():
    p, n = (1, 3, 4, 2), 6
    orbit = patterns.symmetry_class(p)
    assert len(orbit) == 4
    want = _histograms_for_length(4, n)[p]
    hist = patterns.occurrence_histogram(p, n)
    hist.counts.clear()
    hist.counts[0] = -1
    for q in orbit:
        assert patterns.occurrence_histogram(q, n).counts == want, q


def test_sweep_frees_its_tables_without_the_cycle_collector():
    # a table left in a reference cycle waits for a full collection, so
    # in-process callers of cli.run would hold every request's tables
    # (a self-referencing closure once did, and it read as peak RSS)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        patterns.evidence_classes(6, 7)
        patterns.evidence_classes(5, 8, strong=False)
        for p in permutations(range(1, 6)):
            patterns.occurrence_histogram(p, 8)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("m", [0, -2, 3.0, True, False, "3", None])
def test_bad_classify_lengths_are_refused(m):
    with pytest.raises(InvalidInputError):
        patterns.evidence_classes(m, 4)


@pytest.mark.parametrize("m,n_max", [(8, 0), (8, 2.5), (9, "x"), (8, True)])
def test_bad_horizons_are_refused_before_the_length_cap(m, n_max):
    # a bad argument is a bad argument, whatever the size of the other one
    with pytest.raises(InvalidInputError):
        patterns.evidence_classes(m, n_max)


# entries that equal 1..m but are not ints: the one integer rule refuses them
NON_INT_PATTERNS = [(True, 2, 3), (1, 2, 3.0), (1.0, 2.0, 3.0),
                    (np.int64(1), np.int64(2), np.int64(3)), (1, 2, "3")]
PATTERN_CALLS = {
    "as_pattern": patterns.as_pattern,
    "occurrences": lambda p: patterns.occurrences(p, (1, 2, 3, 4)),
    "occurrences text": lambda p: patterns.occurrences((1, 2), p),
    "symmetry_class": patterns.symmetry_class,
    "occurrence_histogram": lambda p: patterns.occurrence_histogram(p, 4),
    "cwilf_evidence": lambda p: patterns.cwilf_evidence(p, (1, 3, 2), 4),
    "cwilf_evidence second": lambda p: patterns.cwilf_evidence((1, 3, 2), p, 4),
}


@pytest.mark.parametrize("call", PATTERN_CALLS.values(), ids=PATTERN_CALLS)
@pytest.mark.parametrize("pattern", NON_INT_PATTERNS, ids=repr)
def test_pattern_entries_must_be_ints(call, pattern):
    with pytest.raises(InvalidInputError, match="pattern entry must be an integer"):
        call(pattern)


def test_symmetry_class_examples():
    assert patterns.symmetry_class((1, 3, 4, 2)) == (
        (1, 3, 4, 2), (2, 4, 3, 1), (3, 1, 2, 4), (4, 2, 1, 3))
    assert patterns.symmetry_class([1, 2, 3]) == ((1, 2, 3), (3, 2, 1))
    assert patterns.symmetry_class((2, 1, 4, 3)) == ((2, 1, 4, 3), (3, 4, 1, 2))
    assert patterns.symmetry_class((1,)) == ((1,),)
    with pytest.raises(InvalidInputError):
        patterns.symmetry_class((1, 3))


def test_evidence_classes_resource_guard():
    with pytest.raises(ResourceLimitError):
        patterns.evidence_classes(8, 5)


def _long_patterns(seed, count):
    """``count`` random patterns of each length MAX_CLASSIFY_LENGTH + 1..12,
    the lengths that only evidence_classes refuses."""
    rng = random.Random(seed)
    return [tuple(rng.sample(range(1, m + 1), m))
            for m in range(patterns.MAX_CLASSIFY_LENGTH + 1, 13) for _ in range(count)]


def test_long_pattern_histograms_count_every_text():
    # each of the n - m + 1 windows of a text holds p in n!/m! texts
    monotone = [tuple(range(1, m + 1)) for m in range(8, 13)]
    for p in monotone + _long_patterns(36, 6):
        m = len(p)
        for n in range(1, patterns.MAX_TEXT_LENGTH + 1):
            counts = patterns.occurrence_histogram(p, n).counts
            assert sum(counts.values()) == math.factorial(n), (p, n)
            occurrences = sum(k * v for k, v in counts.items())
            assert occurrences == max(0, n - m + 1) * math.factorial(n) // math.factorial(m)


def test_long_pattern_evidence_compares_the_histograms():
    n_max = patterns.MAX_TEXT_LENGTH
    rng = random.Random(8)
    sample = [tuple(range(1, 9)), tuple(range(8, 0, -1)), (2, 1, 4, 3, 6, 5, 8, 7),
              (1, 2, 3, 4, 5, 6, 8, 7)] + [tuple(rng.sample(range(1, 9), 8)) for _ in range(4)]
    hists = {p: [patterns.occurrence_histogram(p, n).counts for n in range(1, n_max + 1)]
             for p in sample}
    verdicts = set()
    for p in sample:
        for q in sample:
            strong = hists[p] == hists[q]
            weak = [h.get(0) for h in hists[p]] == [h.get(0) for h in hists[q]]
            assert patterns.cwilf_evidence(p, q, n_max) == strong, (p, q)
            assert patterns.cwilf_evidence(p, q, n_max, strong=False) == weak, (p, q)
            verdicts.add((strong, weak))
    assert {(True, True), (False, False)} <= verdicts


def test_texts_shorter_than_the_pattern_hold_no_occurrence():
    p, q = tuple(range(1, 9)), tuple(range(8, 0, -1))
    assert patterns.cwilf_evidence(p, q, 7)
    assert patterns.cwilf_evidence(p, q, 7, strong=False)
    assert patterns.occurrence_histogram(tuple(range(1, 13)), 5).counts == {0: 120}
    assert patterns.occurrence_histogram(tuple(range(1, 13)), 10).counts == {
        0: math.factorial(10)}


def test_no_cluster_is_shorter_than_the_pattern():
    for p in [tuple(range(1, m + 1)) for m in range(1, 13)] + _long_patterns(5, 2):
        for longest in range(1, len(p)):
            assert patterns._clusters(p, longest) == {}, (p, longest)
        assert patterns._clusters(p, len(p)) == {(len(p), 1): 1}


# (m, largest n) pairs checked against the per-length brute-force oracle
ORACLE_CASES = [(m, 8) for m in range(1, 6)] + [(6, 7)]


@pytest.mark.parametrize("m,n_top", ORACLE_CASES)
def test_sweep_matches_brute_force(m, n_top):
    for p in permutations(range(1, m + 1)):
        for n in range(1, n_top + 1):
            want = _histograms_for_length(m, n)[p]
            assert patterns.occurrence_histogram(p, n).counts == want, (p, n)


@pytest.mark.parametrize("m", range(1, 5))
def test_cluster_numbers_match_the_texts(m):
    for p in permutations(range(1, m + 1)):
        r = patterns._clusters(p, 7)
        for L in range(m, 8):
            want = cluster_numbers_by_texts(p, L)
            assert {k: v for (n, k), v in r.items() if n == L} == want, (p, L)


def _walk_sample(m):
    """All of S_m up to the classify cap; past it the monotone patterns
    (shift 1) and 2 1 4 3 ... (shift 2), whose clusters outgrow m by n = 10,
    and ten random patterns."""
    if m <= patterns.MAX_CLASSIFY_LENGTH:
        return list(permutations(range(1, m + 1)))
    rng = random.Random(m)
    pairs = patterns.standardize([v + (-1) ** v for v in range(2, m + 2)])
    return ([tuple(range(1, m + 1)), tuple(range(m, 0, -1)), pairs, patterns.complement(pairs)]
            + [tuple(rng.sample(range(1, m + 1), m)) for _ in range(10)])


@pytest.mark.parametrize("m", range(1, patterns.MAX_TEXT_LENGTH + 1))
def test_cluster_walk_matches_the_poset_walk(m):
    # every (p, longest) the caps admit for whole-S_m classification, and a
    # sample of the longer patterns a histogram takes
    for p in _walk_sample(m):
        for longest in range(1, patterns.MAX_TEXT_LENGTH + 1):
            want = cluster_numbers_by_posets(p, longest)
            assert patterns._clusters(p, longest) == want, (p, longest)


def _no_poset(*args, **kwargs):
    raise AssertionError("a FinitePoset was built")


def test_cluster_walk_builds_no_poset(monkeypatch):
    classes = patterns.evidence_classes(5, 8)
    hist = patterns.occurrence_histogram((1, 2, 3), 10)
    monkeypatch.setattr(posets.FinitePoset, "__init__", _no_poset)
    assert patterns.evidence_classes(5, 8) == classes
    assert patterns.occurrence_histogram((1, 2, 3), 10) == hist


def _no_standardize(*args, **kwargs):
    raise AssertionError("standardize was called")


def test_pattern_questions_never_standardize(monkeypatch):
    hist = patterns.occurrence_histogram((1, 3, 2), 8)
    classes = patterns.evidence_classes(5, 8)
    monkeypatch.setattr(patterns, "standardize", _no_standardize)
    assert patterns.occurrences((1, 3, 2), (1, 4, 2, 5, 3)) == [1, 3]
    assert patterns.occurrences((1, 2, 3), (1, 2, 3, 4)) == [1, 2]
    assert not patterns.is_nonoverlapping((1, 2, 3))
    assert patterns.is_nonoverlapping((1, 3, 4, 2))
    assert patterns.nonoverlapping_fraction(6) == 280 / 720
    assert patterns.occurrence_histogram((1, 3, 2), 8) == hist
    assert patterns.evidence_classes(5, 8) == classes


@pytest.mark.parametrize("m", range(2, 7))
def test_longest_clusters_are_glued_chains(m):
    # k windows that share only their end entries make the longest
    # k-cluster, whose poset glues the p_m-th entry of each chain to the
    # p_1-th of the next: the glued-chain poset that exact_count counts
    for p in permutations(range(1, m + 1)):
        a, b = sorted((p[0], p[-1]))
        r = patterns._clusters(p, 3 * (m - 1) + 1)
        for k in (1, 2, 3):
            want = exact_count(ClusterParams(m, a, b, k), "p")
            assert r[(m - 1) * k + 1, k] == want, (p, k)


def test_cluster_walk_has_no_bruteforce_size_cap():
    # the walk runs the ideal DP with no cap on the positions: nine windows
    # of the non-overlapping 1342 span 28 positions, past
    # MAX_BRUTEFORCE_ELEMENTS = 24, and the DP visits 29,525 of the 2^28 sets
    r = patterns._clusters((1, 3, 4, 2), 28)
    assert sorted(r) == [(3 * k + 1, k) for k in range(1, 10)]
    assert r[28, 9] == exact_count(ClusterParams(4, 1, 2, 9)) == 2_977_546_171_600_000


# (m, n) with m <= n: 12...m fills every window of 12...n, and so does its reverse
TOP_SLOT_CASES = [(m, n) for m in range(2, 7) for n in range(m, 10)] + [(7, 10)]


@pytest.mark.parametrize("m,n", TOP_SLOT_CASES)
def test_most_occurrences_land_in_their_own_slot(m, n):
    # only 12...n holds n - m + 1 copies of 12...m, the most any text can
    # hold: the longest clusters of a shift-1 pattern must reach that count
    for p in (tuple(range(1, m + 1)), tuple(range(m, 0, -1))):
        counts = patterns.occurrence_histogram(p, n).counts
        assert max(counts) == n - m + 1 and counts[n - m + 1] == 1, p


# every m at the longest horizon, and m = 7 also at n_max = 9
ROW_SUM_CASES = [(m, patterns.MAX_TEXT_LENGTH) for m in range(2, 7)] + [(7, 9), (7, 10)]


@pytest.mark.parametrize("m,n_max", ROW_SUM_CASES)
def test_every_sweep_row_sums_to_the_expected_occurrences(m, n_max):
    # every window is uniform over S_m, so the occurrences of one pattern
    # summed over S_n number (n - m + 1) n!/m!
    for p in permutations(range(1, m + 1)):
        for n in range(m, n_max + 1):
            counts = patterns.occurrence_histogram(p, n).counts
            assert sum(counts.values()) == math.factorial(n), (p, n)
            assert (math.factorial(m) * sum(k * v for k, v in counts.items())
                    == (n - m + 1) * math.factorial(n)), (p, n)


def test_single_entry_pattern_occurs_everywhere():
    for n in range(1, 9):
        assert patterns.occurrence_histogram((1,), n).counts == {n: math.factorial(n)}


def test_two_entry_patterns():
    # 12 occurs at each ascent: the Eulerian numbers
    assert patterns.occurrence_histogram((1, 2), 5).counts == {
        0: 1, 1: 26, 2: 66, 3: 26, 4: 1}
    assert (patterns.occurrence_histogram((2, 1), 5).counts
            == patterns.occurrence_histogram((1, 2), 5).counts)


def test_texts_shorter_than_pattern_have_no_occurrences():
    for m in range(2, 7):
        for n in range(1, m):
            for p in [tuple(range(1, m + 1)), tuple(range(m, 0, -1))]:
                assert patterns.occurrence_histogram(p, n).counts == {0: math.factorial(n)}


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 6), n=st.integers(1, 8))
def test_histogram_moments_and_symmetries(m, n):
    total = math.factorial(n)
    for p in permutations(range(1, m + 1)):
        h = patterns.occurrence_histogram(p, n).counts
        assert sum(h.values()) == total
        # every window is uniform over S_m: sum_k k h[k] = windows * n! / m!
        assert (sum(k * v for k, v in h.items()) * math.factorial(m)
                == max(0, n - m + 1) * total)
        assert patterns.occurrence_histogram(patterns.reverse(p), n).counts == h
        assert patterns.occurrence_histogram(patterns.complement(p), n).counts == h
