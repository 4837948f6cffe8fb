"""Differentially private correlation clustering via synthetic graph release.

The package follows a release-then-optimize recipe: a private mechanism
publishes a synthetic signed graph whose cuts track the input, and a
non-private solver clusters it into at most k' = ceil(n^(1/4)) clusters,
a cap whose cost the paper's coarsening bounds.  Everything downstream of the
release is post-processing, so the clustering inherits the release's privacy.
"""

from ._rng import make_rng, stream_id
from .graphs import (
    Clustering,
    ContractViolation,
    PrivacyParams,
    ReleaseOutput,
    SignedGraph,
    SizeRefusal,
    WeightedChannel,
    agreement,
    disagreement,
    disagreement_cut_form,
    neighbor_distance,
    signed_cut_weight,
    split_signs,
)
from .io import read_edge_list, write_edge_list
from .solvers import (
    SolverConfig,
    local_search,
    pivot_kwikcluster,
    solve,
    solve_exact,
)
from .expmech import exact_output_distribution, exponential_mechanism
from .transforms import CoarsenReport, coarsen, contract_coupled, split_transform, unsplit
from .release_unweighted import (
    MergeConfig,
    MergeSolution,
    laplace_release,
    release_unweighted,
    round_to_signed,
    solve_merge_lp,
)
from .release_weighted import release_weighted, sampled_cut_distance
from .packing import (
    Codebook,
    brute_force_code,
    optimal_path_clustering,
    packing_experiment,
    pairwise_confusion_bound,
    path_graph,
    random_signs,
)
from .experiments import (
    ExperimentRecord,
    InstanceSpec,
    PipelineConfig,
    generate_instance,
    run_matrix,
    run_pipeline,
)

__version__ = "0.1.0"
