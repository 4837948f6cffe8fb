"""Weighted/incomplete release: per-pair Laplace noise on the net weights.

Releases a sparse weighted graph in one noise draw, then audits how far
the released cuts drift from the truth, and checks the error-transfer
bound: for any k-clustering the objective moves by at most k times the
summed cut distances.
"""

import numpy as np

from privcc import (
    Clustering,
    PrivacyParams,
    WeightedChannel,
    disagreement,
    make_rng,
    release_weighted,
    sampled_cut_distance,
)
from privcc.experiments import InstanceSpec, generate_instance

spec = InstanceSpec(kind="weighted-random", n=40, weight_dist="exponential",
                    density=0.2, seed=5)
graph, _ = generate_instance(spec)
params = PrivacyParams(1.0, 0.0)
rng = make_rng(31)

print(f"== input: n={graph.n}, {graph.edge_count} weighted edges, "
      f"total weight {graph.total_weight:.1f} ==")

released, audit = release_weighted(graph, params, "laplace", rng, seed=31)
print("released through:", audit.mechanism)
print("budget:", audit.channel_budgets,
      " noise scale:", audit.noise_scale)
print("released edges:", released.edge_count,
      " total weight:", round(released.total_weight, 1),
      " parallel pairs:", int(((released.pos_w > 0) & (released.neg_w > 0)).sum()))

print("\n== sampled cut distances per channel ==")
dists = {}
for sign, name in ((1, "positive"), (-1, "negative")):
    a = WeightedChannel(graph.n, graph.channel_flat(sign))
    b = WeightedChannel(graph.n, released.channel_flat(sign))
    dists[sign] = sampled_cut_distance(a, b, 256, make_rng(32, name))
    print(f"{name} channel: d_cut >= {dists[sign]:.1f}")

print("\n== objective transfer ==")
rng2 = make_rng(33)
bound_slack = []
for _ in range(200):
    c = Clustering(rng2.integers(0, 4, size=graph.n))
    gap = abs(disagreement(c, graph) - disagreement(c, released))
    bound = c.k * (dists[1] + dists[-1])
    bound_slack.append(bound - gap)
print("k * (d_cut+ + d_cut-) minus the actual objective shift,",
      "over 200 random 4-clusterings:")
print("min slack %.1f (never negative means the bound held every time)"
      % min(bound_slack))

print("\n== the passthrough engine for plumbing tests ==")
identical, audit0 = release_weighted(graph, PrivacyParams(0.4, 0.1),
                                     "zero-noise-test", make_rng(34))
print("zero-noise release weight:", round(identical.total_weight, 1),
      " private flag:", audit0.private)
