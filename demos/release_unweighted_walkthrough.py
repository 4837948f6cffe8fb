"""The private release of an unweighted complete graph, stage by stage.

Shows the noisy channels, the merged edge probabilities, the rounded
output, and the audit trail.  Ends with the arithmetic of why the whole
thing is private: one edge flip moves one coordinate of each channel by
one, and Laplace noise at scale 2/eps absorbs both moves at total cost
eps.
"""

import math

import numpy as np

from privcc import (
    PrivacyParams,
    WeightedChannel,
    disagreement,
    laplace_release,
    make_rng,
    release_unweighted,
    round_to_signed,
    solve_merge_lp,
)
from privcc.experiments import InstanceSpec, generate_instance

eps = 1.0
n = 60
spec = InstanceSpec(kind="planted", n=n, clusters=3, flip_prob=0.05, seed=11)
graph, truth = generate_instance(spec)
rng = make_rng(2024)

print(f"== releasing a planted n={n} instance at eps={eps} ==")
scale = 2.0 / eps
wplus = WeightedChannel(n, graph.channel_flat(1))
wminus = WeightedChannel(n, graph.channel_flat(-1))
noisy_p = laplace_release(wplus, scale, rng)
noisy_m = laplace_release(wminus, scale, rng)
print("noise scale per coordinate:", scale)
print("noisy positive channel: min %.2f max %.2f (true values are 0/1)"
      % (noisy_p.values.min(), noisy_p.values.max()))

merged = solve_merge_lp(noisy_p, noisy_m, None, rng)
print("\nmerged probabilities in [%.2f, %.2f], strategy=%s"
      % (merged.x.min(), merged.x.max(), merged.strategy))
print("audited residual over fresh cuts: %.1f  (%d constraints checked)"
      % (merged.lam, merged.constraints_checked))

released = round_to_signed(merged, rng)
print("\nrounded output: complete =", released.complete,
      " positive edges =", int(released.pos_w.sum()),
      " (input had", int(graph.pos_w.sum()), ")")
print("edges flipped vs input: %.1f%%"
      % (100 * float((released.pos_w != graph.pos_w).mean())))

print("\n== one call does all of it ==")
h, audit = release_unweighted(graph, PrivacyParams(eps), None, make_rng(2025),
                              seed=2024)
print("mechanism:", audit.mechanism)
print("channel budgets:", audit.channel_budgets, " lambda:", round(audit.lambda_residual, 1))
print("planted clustering scores err", disagreement(truth, h), "on the release",
      "vs", disagreement(truth, graph), "on the input")

print("\n== the privacy arithmetic ==")
worst = max(
    abs(-abs(y - 1.0) / scale + abs(y) / scale)
    for y in np.linspace(-20, 20, 10001)
)
print("per-channel log-density shift for a unit move: %.3f (= 1/scale)" % worst)
print("two channels together: %.3f = eps" % (2 * worst))
print("merging and rounding never see the input graph, so they are free.")
print("deterministic zero-noise mode exists for pipeline tests only;",
      "it is flagged private=False in the audit record.")
