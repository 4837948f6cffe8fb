"""Private release of weighted or incomplete signed graphs.

The mechanism splits the input into the sign channels ``max(net, 0)``
and ``max(-net, 0)`` of its net (positive minus negative) pair weights,
adds per-pair Laplace noise to each at half the privacy budget, zeroes
weights below ``scale * ln(n)``, and reunites the outputs as a graph
that may carry one positive and one negative edge per pair.

For any clustering into k clusters the disagreement (and agreement)
between the graph of those two channels and the output differ by at most
``k * (cut_distance(minus channels) + cut_distance(plus channels))``,
so the release's cut error translates directly into an objective error
bound; the input itself differs from that graph by ``sum(min(pos, neg))``
on every clustering alike.

The threshold is post-processing, so privacy is unaffected.  Without it
the noise floor alone would inflate every cut by order n^2; with it,
sparse instances keep cut errors near linear in n.  Unbiasedness holds
for the noisy weights only, before thresholding.
"""

from __future__ import annotations

import math

import numpy as np

from .graphs import (
    ContractViolation,
    PrivacyParams,
    ReleaseOutput,
    SignedGraph,
    WeightedChannel,
    cut_sums,
    laplace_scale,
)
from .release_unweighted import laplace_release

__all__ = [
    "net_channels",
    "release_weighted",
    "sampled_cut_distance",
]

# neighbours are at ``neighbor_distance`` <= 2 (net weights at L1 distance 2),
# and each net channel is 1-Lipschitz in the net weights: it moves by <= 2 in L1
CHANNEL_SENSITIVITY = 2.0


def net_channels(graph: SignedGraph) -> tuple[np.ndarray, np.ndarray]:
    """The flat channels ``max(net, 0)`` and ``max(-net, 0)`` that are released.

    Releasing these instead of the raw channels bounds the sensitivity: the
    raw channels of a pair can move arbitrarily at net distance 0.
    """
    net = graph.channel_flat(1) - graph.channel_flat(-1)
    return np.maximum(net, 0.0), np.maximum(-net, 0.0)


def release_weighted(
    graph: SignedGraph,
    params: PrivacyParams,
    engine: str,
    rng: np.random.Generator,
    seed: int | None = None,
) -> tuple[SignedGraph, ReleaseOutput]:
    """eps-DP release of a weighted signed graph.

    Each net-canonical channel gets Lap(``CHANNEL_SENSITIVITY / (eps/2)``)
    per pair under ``engine`` (one of :data:`~privcc.graphs.ENGINES`), plus
    channel first; weights below ``scale * ln(max(n, 2))`` are zeroed.  The
    outputs recombine with their signs, possibly giving parallel pairs.
    The route is pure Laplace, so the audit records delta 0 whatever
    ``params.delta`` asks for.
    """
    half = params.split(2)
    scale = laplace_scale(engine, CHANNEL_SENSITIVITY, half.epsilon)
    n = graph.n
    tau = scale * math.log(max(n, 2))
    out = []
    for channel in net_channels(graph):
        noisy = laplace_release(WeightedChannel(n, channel), scale, rng).values
        out.append(np.where(noisy >= tau, noisy, 0.0))
    released = SignedGraph.from_channel_arrays(n, *out)
    audit = ReleaseOutput(
        mechanism=f"weighted-{engine}",
        epsilon=params.epsilon,
        delta=0.0,  # pure Laplace: a requested delta is not spent
        noise_scale=scale,
        channel_budgets=(half.epsilon, half.epsilon),
        seed=seed,
        private=scale > 0,
    )
    return released, audit


# ---------------------------------------------------------------------------
# Cut distance


_EXACT_LIMIT = 10


def sampled_cut_distance(
    a: WeightedChannel,
    b: WeightedChannel,
    samples: int,
    rng: np.random.Generator,
    exact_limit: int = _EXACT_LIMIT,
    ascent_starts: int = 1,
    basin_hops: int = 0,
) -> float:
    """Lower bound on the cut distance between two channels.

    For ``n <= exact_limit`` the maximum of |cut(a) - cut(b)| over all
    set pairs is computed exactly by enumeration (finding this maximum is
    a rugged search problem and sampling alone misses it on a few percent
    of instances even at n = 10).  Above that, the bound maximizes over
    all singleton pairs, ``samples`` random (S, T) pairs, ``samples``
    random complement pairs, and a greedy vertex-state ascent from the
    best candidate.  ``ascent_starts`` and ``basin_hops`` buy a stronger
    (more adversarial) search: ascents from that many top candidates plus
    perturbation restarts around the incumbent.
    """
    if a.n != b.n:
        raise ContractViolation("channels must share a vertex count")
    if samples < 1:
        raise ContractViolation("need at least one sample")
    n = a.n
    diff = a.matrix() - b.matrix()
    if n <= exact_limit:
        return _exact_cut_distance(diff)
    cands: list[tuple[float, np.ndarray, np.ndarray]] = []
    if n >= 2:
        iu, iv = np.triu_indices(n, 1)
        top = int(np.argmax(np.abs(a.values - b.values)))
        s0 = np.zeros(n, dtype=bool)
        t0 = np.zeros(n, dtype=bool)
        s0[iu[top]] = True
        t0[iv[top]] = True
        cands.append((float(abs(a.values[top] - b.values[top])), s0, t0))
    for i in range(2 * samples):
        s = rng.random(n) < 0.5
        t = rng.random(n) < 0.5 if i < samples else ~s
        cands.append((abs(float(cut_sums(diff, s[None], t[None])[0])), s, t))
    cands.sort(key=lambda item: -item[0])
    best = cands[0][0]
    best_s, best_t = cands[0][1], cands[0][2]
    for val, s, t in cands[: max(ascent_starts, 1)]:
        got, es, et = _ascend(diff, s, t)
        if got > best:
            best, best_s, best_t = got, es, et
    for _ in range(basin_hops):
        s = best_s.copy()
        t = best_t.copy()
        for u in rng.integers(0, n, size=max(2, n // 16)):
            code = int(rng.integers(0, 4))
            s[u] = code in (1, 3)
            t[u] = code in (2, 3)
        got, es, et = _ascend(diff, s, t)
        if got > best:
            best, best_s, best_t = got, es, et
    return best


def _exact_cut_distance(diff: np.ndarray) -> float:
    """Max |counted-once cut| over all set pairs by subset dynamic programming."""
    n = diff.shape[0]
    size = 1 << n
    all_masks = np.arange(size)
    masks = ((all_masks[:, None] >> np.arange(n)) & 1).astype(np.float64)
    # inner[U] = total pair weight inside U; each mask settles at its top bit
    inner = np.zeros(size)
    for v in range(n):
        bit = 1 << v
        subs = all_masks[(all_masks & bit) != 0]
        row = masks[subs] @ diff[v]  # includes v itself, but diff[v, v] = 0
        inner[subs] = inner[subs ^ bit] + row
    cross = (masks @ diff) @ masks.T
    best = 0.0
    for i in range(size):
        vals = np.abs(cross[i] - inner[all_masks & i])
        best = max(best, float(vals.max()))
    return best


def _ascend(diff: np.ndarray, s: np.ndarray, t: np.ndarray):
    """Greedy best-improvement ascent of |cut value| over vertex states.

    Each vertex is in one of four states (outside, S only, T only, both);
    a move reassigns one vertex to its best state.  A pair contributes to
    the cut value unless some endpoint is outside or both endpoints sit
    in the same single set.  Returns (value, S, T) at the local maximum.
    """
    n = diff.shape[0]
    in_s = s.copy()
    in_t = t.copy()
    # per-vertex sums of diff against the three occupied state classes
    only_s = (in_s & ~in_t).astype(np.float64)
    only_t = (in_t & ~in_s).astype(np.float64)
    both = (in_s & in_t).astype(np.float64)
    sum_s = diff @ only_s
    sum_t = diff @ only_t
    sum_b = diff @ both
    f = float(cut_sums(diff, in_s[None], in_t[None])[0])
    best = abs(f)
    for _ in range(8 * n):
        # contribution of each vertex if placed into each state
        contrib = np.stack(
            [
                np.zeros(n),
                sum_t + sum_b,  # state S: pairs against T-only and both
                sum_s + sum_b,  # state T
                sum_s + sum_t + sum_b,  # state both
            ]
        )
        state = in_s.astype(int) + 2 * in_t.astype(int)
        current = contrib[state, np.arange(n)]
        gains = np.abs(f + (contrib - current[None, :]))
        pick = int(np.argmax(gains))
        new_state, u = divmod(pick, n)
        if gains[new_state, u] <= best + 1e-12:
            break
        old_state = int(state[u])
        f += contrib[new_state, u] - contrib[old_state, u]
        best = abs(f)
        col = diff[:, u]
        for vec, st in ((sum_s, 1), (sum_t, 2), (sum_b, 3)):
            if old_state == st:
                vec -= col
            if new_state == st:
                vec += col
        in_s[u] = new_state in (1, 3)
        in_t[u] = new_state in (2, 3)
    return best, in_s, in_t
