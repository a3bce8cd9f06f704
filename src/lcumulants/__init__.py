"""Exact cumulant-like coordinates over set-partition lattices.

Moments of a finite discrete random vector, indexed through the aliasing
between box states and index multisets, admit a family of invertible
polynomial coordinate changes driven by Moebius inversion on a chosen
lattice of set partitions: classical cumulants (all partitions), Boolean
cumulants (interval partitions), free cumulants (non-crossing), central
moments (one-cluster) and tree cumulants (forest-induced partitions of a
leaf-labelled tree).  The package computes all of them in exact rational
arithmetic and ships verifiers for the latent tree and hidden Markov
model identities those coordinates make monomial or binomial.
"""

from .lattice import (
    FULL,
    INTERVAL,
    NONCROSSING,
    ONECLUSTER,
    TREE,
    ConditionReport,
    Family,
    PartitionLattice,
    build,
    check_condition,
    custom_lattice,
    mobius_weights,
)
from .lcumulant import (
    CumulantTensor,
    UnsupportedFamilyError,
    brillinger,
    classical_cumulants,
    conditional_collapse,
    cumulant_tensor,
    detect_independence_structure,
    from_lcumulants,
    l_from_classical,
    linear_image_moments,
    multilinear_action,
    shift_invariance_check,
    to_lcumulants,
    vanishes_outside,
)
from .moments import (
    CENTRAL_MOMENTS,
    CLASSICAL_CUMULANTS,
    FLOAT_TOLERANCE,
    LCUMULANTS,
    MOMENTS,
    PROBABILITIES,
    CoordinateVector,
    DiscreteDistribution,
    StateSpace,
    central_moments,
    conditional_moments,
    distribution_from_moments,
    distribution_from_vector,
    factorizes_over,
    marginal,
    moments_from_distribution,
    transform_values,
    vector_from_distribution,
    within_tolerance,
)
from .models import (
    BinomialReport,
    HMMParams,
    RegressionReport,
    SecantParams,
    binary_regression_identity_check,
    gmm_distribution,
    hmm_distribution,
    hmm_normalized_tree_cumulants,
    hmm_pipeline_tree_cumulants,
    hmm_tree_cumulants_closed,
    random_gmm_params,
    random_hmm_params,
    regression_mean_check,
    reroot_params,
    secant_moments,
    secant_tree_cumulants,
    verify_split_binomials,
)
from .partition import (
    CapacityError,
    SetPartition,
    all_partitions,
    bell_number,
    format_partition,
    is_interval,
    is_noncrossing,
    is_one_cluster,
    join,
    meet,
    parse_partition,
    refines,
    restrict,
)
from .rng import SplitMix64
from .topology import (
    TreeTopology,
    caterpillar,
    edge_splits,
    from_newick,
    induced_subtree,
    is_caterpillar,
    quartet,
    star,
    suppress_degree_two,
    to_newick,
)
from .trees import (
    GMMParams,
    contracted_tree_cumulants,
    exact_sqrt,
    gmm_tree_cumulants,
    normalized_tree_cumulants,
    subset_tree_cumulants,
    tree_cumulants,
    trivalent_refinement,
    variances_from_distribution,
    variances_from_moments,
)

__version__ = "0.1.0"
