"""Names, units and directions of every metric the benchmark reports.

Imports nothing heavy: the driver reads this table before any worker
has imported numpy.  ``BENCHMARK.json`` lists the same names.
"""

END_TO_END = (
    # (name, unit, better)
    ("cell_s", "s", "lower"),
    ("batch_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("err_vs_ref", "ratio", "lower"),
    ("err_frac", "ratio", "lower"),
    ("lambda_audit", "weight", "lower"),
)

PER_LAYER = (
    ("experiments.release_stage_s", "s", "lower"),
    ("experiments.postprocess_stage_s", "s", "lower"),
    ("experiments.evaluate_stage_s", "s", "lower"),
    # inclusive: the stage's whole duration, children included
    ("experiments.release_stage_incl_s", "s", "lower"),
    ("experiments.postprocess_stage_incl_s", "s", "lower"),
    ("experiments.evaluate_stage_incl_s", "s", "lower"),
    ("experiments.generate_instance_s", "s", "lower"),
    ("experiments.eta_frac", "ratio", "lower"),
    ("release_unweighted.solve_merge_lp_s", "s", "lower"),
    ("release_unweighted.solve_merge_lp_calls", "count", "lower"),
    ("release_unweighted.solve_merge_lp_share", "ratio", "lower"),
    ("release_unweighted.merge_iterations", "count", "lower"),
    ("release_unweighted.merge_ms_per_iter", "ms", "lower"),
    ("release_unweighted.merge_gflop_computed", "GFLOP", "lower"),
    ("release_unweighted.merge_gflops", "GFLOP/s", "higher"),
    ("release_unweighted.laplace_release_s", "s", "lower"),
    ("release_unweighted.round_to_signed_s", "s", "lower"),
    ("release_weighted.release_weighted_s", "s", "lower"),
    ("solvers.solve_s", "s", "lower"),
    ("solvers.pivot_kwikcluster_s", "s", "lower"),
    ("solvers.pivot_clusters_mean", "count", "lower"),
    ("solvers.local_search_s", "s", "lower"),
    ("solvers.local_search_share", "ratio", "lower"),
    ("solvers.local_search_calls", "count", "lower"),
    ("solvers.local_search_moved", "count", "lower"),
    ("solvers.local_search_ms_per_moved", "ms", "lower"),
    ("solvers.local_search_start_k_mean", "count", "lower"),
    ("transforms.split_roundtrip_s", "s", "lower"),
    ("transforms.coarsen_s", "s", "lower"),
    ("transforms.coarsen_k_before", "count", "lower"),
    ("graphs.disagreement_s", "s", "lower"),
    ("graphs.disagreement_calls", "count", "lower"),
    ("traced_cell_s", "s", "lower"),
    ("trace_overhead_s", "s", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
