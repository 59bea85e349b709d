"""Exact and asymptotic linear-extension counts for glued-chain posets.

The package has six layers:

* :mod:`clusterext.patterns` -- consecutive permutation patterns and
  (strong) c-Wilf equivalence evidence from their cluster numbers;
* :mod:`clusterext.posets` -- the glued-chain posets, a general finite-poset
  value, and a brute-force extension counter (the oracle); it depends on no
  other layer;
* :mod:`clusterext.exact_counts` -- exact-rational iterated integration, the
  scalable counting route, and the sandwich check between the two variants;
* :mod:`clusterext.asymptotics` -- the growth constant, its concavity in the
  glue position, and empirical fits against exact counts;
* :mod:`clusterext.profiles` -- the limiting height profile and the general
  variational solver;
* :mod:`clusterext.sampling` -- uniform random linear extensions by lazy
  adjacent transpositions and the height-concentration experiment.

A command-line frontend lives in :mod:`clusterext.cli`.

Only :mod:`clusterext.profiles` and :mod:`clusterext.sampling` use numpy, and
they import it inside the functions that need it, so ``import clusterext``
and the exact, integer-only work (counts, constants, fits, patterns) never
load it.
"""

from .asymptotics import (AsymptoticConstant, constant_concavity, constant_gap,
                          crossover_search, crossover_sweeps, empirical_constant,
                          growth_constant, log_beta, log_integer, trigamma)
from .errors import (DegenerateParameterError, DomainError,
                     InternalConsistencyError, InvalidInputError,
                     ResourceLimitError)
from .exact_counts import (exact_count, exact_count_sweep, iterated_integral,
                           sandwich_check)
from .patterns import (OccurrenceHistogram, complement, cwilf_evidence,
                       evidence_classes, is_nonoverlapping, is_standard,
                       nonoverlapping_fraction, occurrence_histogram,
                       occurrences, reverse, standardize, symmetry_class)
from .posets import (ClusterParams, FinitePoset, cluster_poset,
                     count_linear_extensions_bruteforce, glue_labels,
                     modified_cluster_poset, poset_to_dot)
from .profiles import (ProfileTable, VariationalProblem, beta_value,
                       limit_profile, limit_profile_slope,
                       profile_increment_bounds, profile_table,
                       regularized_incomplete_beta, slope_argmin,
                       variational_profile, weight_cdf)
from .sampling import (ConcentrationReport, ExtensionChain, HeightProfile,
                       concentration_report, default_burnin, default_thinning,
                       height_profile, sample_distribution,
                       sample_linear_extension)

__version__ = "0.1.0"
