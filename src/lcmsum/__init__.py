"""Exact and certified computation of reciprocal-lcm sum constants.

Library layout:

* `exactmath`   exact rationals, dyadic enclosures, sieves, certified zeta
* `coprimality` the coprimality graphs, local-factor polynomials, and the
                tuple decomposition into coprime parts
* `polytope`    exact volumes of the hyperbolic-constraint polytopes: lattice
                counts, period bounds and the difference operator on them
* `eulerprod`   certified Euler products with zeta-factorization acceleration
* `oracle`      exact brute-force, constrained and lcm-multiplicity sums,
                each also with its tuple count, and the assembled leading
                constants
* `checks`      the `verify` battery: one ordered table of checks
* `cli`         the `lcmsum` command; `verify` runs and renders the battery
"""

from .coprimality import (
    CoprimalityGraph,
    Graph,
    build_coprimality_graph,
    decompose_tuple,
    edge_count_formula,
    graph_dump,
    independent_set_counts,
    is_gwise_coprime,
    local_factor_poly,
    local_factor_poly_by_edge_subsets,
    stirling_ism_counts,
)
from .errors import (
    InvariantViolation,
    PeriodDetectionError,
    PrecisionError,
    ResourceLimitError,
)
from .eulerprod import (
    coprime_density,
    count_density_poly,
    euler_product,
    lcm_count_density,
    series_identity_mismatch,
    zeta_factorization,
)
from .exactmath import (
    BoundedReal,
    SieveTables,
    SurdRatio,
    sieve,
    stirling2,
    zeta_value,
)
from .oracle import (
    LeadingConstants,
    brute_prod_over_lcm_sum,
    brute_recip_lcm_sum,
    brute_recip_lcm_sum_coprime,
    brute_sums,
    convergence_report,
    fast_recip_lcm_sum2,
    gwise_constrained_sum,
    gwise_sum_with_count,
    lcm_multiplicity,
    lcm_multiplicity_table,
    leading_constants,
    theta_exponents,
)
from .polytope import (
    EhrhartSamples,
    HyperbolicPolytope,
    build_polytope,
    export_ieqs,
    ieqs_rows,
    lattice_counts,
    leading_coeff_by_differences,
    period_bounds,
    volume_of,
    volume_relations_check,
)

__version__ = "0.1.0"
