"""Generalized Stirling permutations, increasing trees, and urn models.

The package has three layers: combinatorial objects and their statistics
(:mod:`~stirlperm.perms`, :mod:`~stirlperm.trees`), the bijections tying
them together (:mod:`~stirlperm.bijections`), and the probabilistic side
(:mod:`~stirlperm.urns`, :mod:`~stirlperm.distributions`,
:mod:`~stirlperm.harness`).

The harness and its public names are imported on first access, and with
them numpy: the exact side (counting, enumeration, the bijections and the
finite-n laws) draws nothing and loads without either.
"""

from importlib import import_module as _import_module

from .perms import (
    BlockDecomposition,
    EnumerationCapError,
    GenStirlingPerm,
    InvalidPermutationError,
    StatProfile,
    block_decomposition,
    block_spans,
    bundled_multiplicities,
    count_bundled,
    count_generalized,
    count_k_stirling,
    enumerate_bundled,
    enumerate_generalized,
    enumerate_k_stirling,
    sample_bundled,
    sample_generalized,
    sample_k_stirling,
    stat_profile,
    uniform_multiplicities,
    validate_word,
)
from .trees import (
    AryIncreasingTree,
    BundledIncreasingTree,
    DegreeWeightFamily,
    InvalidTreeError,
    ary_family,
    ary_stats,
    bundled_family,
    bundled_stats,
    enumerate_ary_trees,
    enumerate_bundled_trees,
    grow_ary_tree,
    grow_plane_tree,
    k_plane_family,
    plane_recursive_family,
    recursive_family,
    tree_weight,
)
from .bijections import (
    BundledNode,
    FIncreasingTree,
    StatTransferReport,
    ary_tree_to_seq,
    bundled_from_f_tree,
    decode_ary_tree,
    decode_bundled_tree,
    encode_ary_tree,
    encode_bundled_tree,
    f_tree_from_bundled,
    seq_to_ary_tree,
    verify_stat_transfer,
)
from .urns import (
    UrnGaussianLimit,
    UrnSpec,
    UrnTrajectory,
    fixed_addition_covariance,
    fixed_addition_urn,
    nested_block_urns,
    polya_urn,
    sample_block_size_stats,
    simulate,
    symmetric_urn,
    transition_distribution,
    triangular_block_urn,
    urn_a_covariance,
)
from .distributions import (
    ConvergenceError,
    MeanProfile,
    PmfTable,
    StickBreakingSample,
    block_binomial_moment,
    block_count_mean,
    block_count_pmf,
    martingale_scaling,
    mean_profile,
    rational_binomial,
    stick_breaking_sample,
    tnormal_covariance,
    zeta_density,
    zeta_moment,
)

# served by __getattr__ from stirlperm.harness
_HARNESS_NAMES = (
    "ComparisonReport",
    "ExperimentResult",
    "ExperimentSpec",
    "chi_square_gof",
    "chi_square_two_sample",
    "compare",
    "jackknife_covariance",
    "ks_two_sample",
    "run_experiment",
)

__version__ = "0.1.0"

__all__ = sorted(
    [name for name in dir() if not name.startswith("_")]
    + ["harness", *_HARNESS_NAMES]
)


def __getattr__(name: str):
    # not stored in the package namespace: each access reads the harness
    # attribute, so a name rebound there (as a tracer does) is seen here
    if name == "harness":
        return _import_module(".harness", __name__)
    if name in _HARNESS_NAMES:
        return getattr(_import_module(".harness", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | {"harness", *_HARNESS_NAMES})
