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

Each public name is loaded on first use: ``import lcumulants`` runs no
layer module, and ``lcumulants.to_lcumulants`` or ``from lcumulants import
to_lcumulants`` imports :mod:`lcumulants.lcumulant` then, once.
"""

# The module that defines each public name, as {module: names}.
_EXPORTS = {
    name: module
    for module, names in {
        "lattice": (
            "FULL", "INTERVAL", "NONCROSSING", "ONECLUSTER", "TREE", "ConditionReport", "Family",
            "PartitionLattice", "check_condition", "mobius_weights",
        ),
        "lcumulant": (
            "CumulantTensor", "UnsupportedFamilyError", "brillinger", "classical_cumulants",
            "conditional_collapse", "cumulant_tensor", "detect_independence_structure",
            "from_lcumulants", "l_from_classical", "linear_image_moments", "multilinear_action",
            "shift_invariance_check", "to_lcumulants", "vanishes_outside",
        ),
        "moments": (
            "CENTRAL_MOMENTS", "CLASSICAL_CUMULANTS", "FLOAT_TOLERANCE", "LCUMULANTS", "MOMENTS",
            "PROBABILITIES", "CoordinateVector", "DiscreteDistribution", "StateSpace",
            "central_moments", "conditional_moments", "distribution_from_moments",
            "factorizes_over", "marginal", "moments_from_distribution", "transform_values",
            "within_tolerance",
        ),
        "models": (
            "BinomialReport", "HMMParams", "RegressionReport", "SecantParams",
            "binary_regression_identity_check", "gmm_distribution", "hmm_distribution",
            "hmm_normalized_tree_cumulants", "hmm_pipeline_tree_cumulants", "hmm_tree_cumulants_closed",
            "random_gmm_params", "random_hmm_params", "regression_mean_check", "reroot_params",
            "secant_moments", "secant_tree_cumulants", "split_binomials",
        ),
        "partition": (
            "CapacityError", "SetPartition", "format_partition", "join", "meet", "parse_partition",
            "refines", "restrict",
        ),
        "rng": (
            "SplitMix64",
        ),
        "topology": (
            "TreeTopology", "caterpillar", "edge_splits", "from_newick", "is_caterpillar",
            "quartet", "star", "to_newick",
        ),
        "trees": (
            "GMMParams", "contracted_tree_cumulants", "exact_sqrt", "normalized_tree_cumulants",
            "subset_tree_cumulants", "tree_cumulants", "trivalent_refinement", "variances_from_moments",
        ),
    }.items()
    for name in names
}
_SUBMODULES = ("lattice", "lcumulant", "models", "moments", "partition", "rng", "topology", "trees")

__all__ = [*_EXPORTS, *_SUBMODULES]
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the module behind a public name and keep the value, so the next read is plain."""
    module = _EXPORTS.get(name, name)  # a submodule name stands for itself
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if module != name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
