"""Consecutive-pattern equivalence evidence from exact occurrence histograms.

The histograms over all of S_n come from the Goulden-Jackson cluster
numbers of each pattern: the texts covered by overlapping marked
occurrences, counted as linear extensions of small cluster posets.

Two patterns are strongly c-Wilf equivalent when, for every text length,
the full distributions of their occurrence counts agree.  Reverse and
complement give equivalences for free; beyond those, histogram agreement up
to a text-length horizon is evidence (never proof).  Non-overlapping
patterns sharing first and last entries are a known equivalent family, and
the length-4 census below reproduces it.
"""

from itertools import permutations

from clusterext import (cwilf_evidence, evidence_classes, is_nonoverlapping,
                        is_standard, nonoverlapping_fraction,
                        occurrence_histogram)

print("occurrence histograms over S_6 (counts of texts with k occurrences):")
for pat in [(1, 2, 3), (1, 3, 2)]:
    hist = occurrence_histogram(pat, 6)
    print(f"  {''.join(map(str, pat))}: "
          f"{dict(sorted(hist.counts.items()))}")
print()

print("1342 vs 1432 have identical histograms up to n = 8:")
print(f"  strong evidence: {cwilf_evidence((1, 3, 4, 2), (1, 4, 3, 2), 8)}")
print()

print("strong-evidence classes of S_4 (horizon n = 8):")
for k, cls in enumerate(evidence_classes(4, 8), start=1):
    reps = " ".join("".join(map(str, p)) for p in cls)
    print(f"  class {k}: {reps}")
print()

nonov = [p for p in permutations(range(1, 5)) if is_nonoverlapping(p)]
print(f"non-overlapping patterns in S_4 ({len(nonov)} of 24):")
print("  " + " ".join("".join(map(str, p)) for p in nonov))
pairs = [(p, q) for i, p in enumerate(nonov) for q in nonov[i + 1:]
         if (p[0], p[-1]) == (q[0], q[-1])]
print("same-endpoint pairs (all strongly equivalent in evidence to n = 8):")
for p, q in pairs:
    print(f"  {''.join(map(str, p))} ~ {''.join(map(str, q))}: "
          f"{cwilf_evidence(p, q, 8, strong=True)}")
print()

print("fraction of non-overlapping permutations (limit is about 0.364):")
for m in range(3, 8):
    print(f"  m = {m}: {nonoverlapping_fraction(m):.5f}")
print()

print("standard representatives (first < last, sum <= m+1) in S_4:")
std = [p for p in permutations(range(1, 5)) if is_standard(p)]
print("  " + " ".join("".join(map(str, p)) for p in std))
