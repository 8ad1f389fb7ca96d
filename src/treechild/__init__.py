"""Exact enumeration of d-combining tree-child phylogenetic networks.

Networks here are rooted DAGs with n labeled leaves: tree nodes (in 1,
out 2), reticulation nodes (in d, out 1, exactly k of them) and a root of
out-degree 1, where every non-leaf node keeps at least one non-reticulation
child.  The package counts them exactly, several independent ways, and
turns the counts into distributions and asymptotic diagnostics:

  onecomp        closed-form counts of one-component networks (every
                 reticulation child a leaf) and node censuses
  pathlength     total root-distance statistics of the top tree component
  words          the word-class encoding of general networks: validity
                 predicate, enumerator, recurrences, network counts and
                 the rescaled all-heavy slice
  compgraphs     component-graph enumeration, the blow-up count (an
                 independent second algorithm), series and closed forms
                 for one and two reticulations, star counts, fixed-k
                 asymptotics
  distributions  exact reticulation-count laws, reference limit laws,
                 total variation and CDF diagnostics
  asymptotics    growth parameters and exact-vs-asymptotic ratios
  verify         self-verification suites with frozen regression tables
  cli            the `treechild` command

Integer arithmetic is exact everywhere; expectations are rationals; floats
only appear in asymptotic estimates and distances.
"""

from types import ModuleType as _ModuleType

from .params import ExactnessError, Params
from .onecomp import (
    NodeCensus,
    count_otc,
    count_otc_direct,
    count_otc_total,
    count_phylo_trees,
    double_factorial,
    node_census,
    otc_row,
)
from .pathlength import (
    expected_path_length,
    expected_path_length_reference,
    expected_path_length_trend,
    path_length_total,
    path_length_total_recurrence,
    unary_binary_path_length,
)
from .words import (
    ETable,
    Word,
    b_max_table,
    b_max_table_binomial,
    count_tc_total,
    count_tc_words,
    count_words,
    count_words_direct,
    e_table,
    enumerate_words,
    is_valid_word,
    lambda_factor,
    tc_row,
    tc_table,
)
from .compgraphs import (
    ComponentGraph,
    LaurentPoly,
    asympt_tc_fixed_k,
    count_component_graphs,
    count_component_graphs_total,
    count_star,
    count_tc_compgraph,
    count_tc_genfun_k1,
    count_tc_genfun_k2,
    enumerate_component_graphs,
    f_laurent,
    structural_k1_polynomial,
    tc_k1_closed_form,
    tc_k2_closed_form,
    z_coefficient,
)
from .distributions import (
    Pmf,
    moment,
    normal_cdf,
    normal_cdf_diagnostic,
    reference_pmf,
    ret_pmf,
    total_variation,
    total_variation_exact,
    twig_expectation_bound,
)
from .asymptotics import (
    AIRY_A1,
    AsymptoticParams,
    bessel_I,
    e_lower_bound,
    otc_asymptotic,
    otc_asymptotic_ratio,
    otc_max_k_ratio,
    params,
    ratio_sqrt_e,
    ratio_sqrt_e_reference,
    tc_envelope,
    tc_envelope_ratio,
)
from .logvalue import LogValue, log_of_int
from .verify import CheckResult, GOLDEN_TC, run_suite

__version__ = "0.1.0"

# every public name bound above, submodules aside
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
