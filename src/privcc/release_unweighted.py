"""Private release of unweighted complete signed graphs.

Three stages, privacy carried entirely by the first:

1. :func:`laplace_release` adds independent Laplace noise to every pair
   of each sign channel.  Flipping one edge moves one coordinate of each
   channel by 1 (total L1 change 2), so per-coordinate scale ``2 / eps``
   makes the pair of channel releases eps-DP jointly.
2. :func:`solve_merge_lp` merges the two noisy channels into edge
   probabilities ``x in [0, 1]`` by approximately minimizing the largest
   deviation between cut sums of x and cut sums of the noisy positive
   channel (and of ``1 - x`` against the negative channel) over a sampled
   constraint family: every singleton pair, random (S, T) set pairs (both
   overlapping and disjoint kinds), and random complement pairs
   (S, V minus S).
3. :func:`round_to_signed` rounds independently, edge positive with
   probability ``x_e``.

Stages 2 and 3 never see the input graph; their signatures only accept
the released channels, so anything they compute is post-processing.

The merge solver is projected subgradient descent on the maximum
violation.  Steps project onto the violated constraint's halfspace
(subgradient scaled by violation over squared gradient norm) with a
``1/sqrt(t)`` relaxation schedule, iterates clamped to the box; the best
iterate by training violation is kept.  The reported residual ``lambda``
is audited on a freshly sampled constraint family, never the training
one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import (
    ContractViolation,
    PrivacyParams,
    ReleaseOutput,
    SignedGraph,
    WeightedChannel,
    cut_sums,
)

__all__ = [
    "LaplaceReleaseOutput",
    "MergeSolution",
    "MergeConfig",
    "UnweightedReleaseConfig",
    "laplace_release",
    "solve_merge_lp",
    "round_to_signed",
    "release_unweighted",
]

_PATIENCE = 300  # merge solver stops after this many non-improving iterations


@dataclass(frozen=True)
class LaplaceReleaseOutput:
    """One noisy channel: weights plus the scale that produced them."""

    channel: WeightedChannel
    noise_scale: float
    seed: int | None = None


@dataclass(frozen=True)
class MergeSolution:
    """Edge probabilities with an honestly audited residual."""

    x: np.ndarray  # flat per-pair probabilities in [0, 1]
    lam: float  # max violation on a fresh constraint sample
    strategy: str
    constraints_checked: int = 0
    iterations_run: int = 0


@dataclass(frozen=True)
class MergeConfig:
    strategy: str = "sampled-lp"  # or "per-edge"
    constraint_budget: int | None = None  # default 4n
    iterations: int = 2000

    def __post_init__(self):
        if self.strategy not in ("sampled-lp", "per-edge"):
            raise ContractViolation(f"unknown merge strategy {self.strategy!r}")
        if self.iterations < 1:
            raise ContractViolation("iterations must be >= 1")


@dataclass(frozen=True)
class UnweightedReleaseConfig:
    merge: MergeConfig = MergeConfig()
    unsafe_zero_noise: bool = False  # disables privacy; pipeline tests only
    seed: int | None = None


def laplace_release(
    channel_weights: WeightedChannel,
    noise_scale: float,
    rng: np.random.Generator,
    seed: int | None = None,
) -> LaplaceReleaseOutput:
    """Add Lap(noise_scale) to every pair weight of an indicator channel.

    Unbiased: the expected weight of any pair set equals its true weight.
    ``noise_scale == 0`` is the deterministic test mode (not private);
    negative scales are rejected.
    """
    if noise_scale < 0:
        raise ContractViolation(f"noise scale must be >= 0, got {noise_scale}")
    vals = channel_weights.values
    if not np.all((vals == 0.0) | (vals == 1.0)):
        raise ContractViolation("channel must be an unweighted 0/1 indicator")
    if noise_scale == 0:
        noisy = vals.copy()
    else:
        noisy = vals + rng.laplace(0.0, noise_scale, size=vals.size)
    return LaplaceReleaseOutput(
        WeightedChannel(channel_weights.n, noisy), noise_scale, seed
    )


# ---------------------------------------------------------------------------
# Merge step


def _sample_set_pairs(n: int, budget: int, rng: np.random.Generator):
    """Random (S, T) rows: budget mixed overlapping/disjoint + budget complements."""
    s_rows = np.zeros((2 * budget, n), dtype=bool)
    t_rows = np.zeros((2 * budget, n), dtype=bool)
    for i in range(budget):
        if rng.random() < 0.5:
            s_rows[i] = rng.random(n) < 0.5
            t_rows[i] = rng.random(n) < 0.5
        else:
            z = rng.integers(0, 3, size=n)
            s_rows[i] = z == 0
            t_rows[i] = z == 1
    for i in range(budget, 2 * budget):
        s_rows[i] = rng.random(n) < 0.5
        t_rows[i] = ~s_rows[i]
    return s_rows, t_rows


def _cut_sizes(n: int, s_rows: np.ndarray, t_rows: np.ndarray) -> np.ndarray:
    ssz = s_rows.sum(axis=1).astype(np.float64)
    tsz = t_rows.sum(axis=1).astype(np.float64)
    rsz = (s_rows & t_rows).sum(axis=1).astype(np.float64)
    return ssz * tsz - 0.5 * rsz * (rsz + 1.0)


def _max_violation_fast(x_mat, wp_mat, wm_mat, iu, iv, cs, sizes, tp, tm):
    """Largest violation over singleton pairs and cut rows with cut sums ``cs``.

    Returns (lambda, kind, index, signed residual); kind is 'pair+',
    'pair-', 'cut+' or 'cut-'.
    """
    xp = x_mat[iu, iv]
    cands = (
        ("pair+", xp - wp_mat[iu, iv]),
        ("pair-", (1.0 - xp) - wm_mat[iu, iv]),
        ("cut+", cs - tp),
        ("cut-", (sizes - cs) - tm),
    )
    best = ("pair+", 0, 0.0, -1.0)
    for kind, res in cands:
        if res.size == 0:  # n = 1 has no pairs
            continue
        i = int(np.argmax(np.abs(res)))
        v = float(abs(res[i]))
        if v > best[3]:
            best = (kind, i, float(res[i]), v)
    kind, idx, signed, lam = best
    return lam, kind, idx, signed


def solve_merge_lp(
    wplus: WeightedChannel,
    wminus: WeightedChannel,
    constraint_budget: int | None,
    rng: np.random.Generator,
    iterations: int = 2000,
    strategy: str = "sampled-lp",
) -> MergeSolution:
    """Merge two noisy channels into edge probabilities.

    ``constraint_budget`` counts the random (S, T) rows and, separately,
    the random complement rows (default 4n each).  Budget 0 falls back
    to the per-edge rule ``x = clip((W+ + 1 - W-) / 2, 0, 1)``, the exact
    solution of the singleton-only problem.  The returned ``lam`` is the
    maximum violation over a fresh constraint sample.
    """
    if wplus.n != wminus.n:
        raise ContractViolation("channels must share a vertex count")
    n = wplus.n
    if constraint_budget is None:
        constraint_budget = 4 * n
    if constraint_budget < 0:
        raise ContractViolation("constraint_budget must be >= 0")
    wp_mat = wplus.matrix()
    wm_mat = wminus.matrix()
    iu, iv = np.triu_indices(n, 1)

    x_mat = np.clip((wp_mat + 1.0 - wm_mat) / 2.0, 0.0, 1.0)
    np.fill_diagonal(x_mat, 0.0)
    iterations_run = 0

    if strategy == "per-edge" or constraint_budget == 0:
        tag = "per-edge"
    else:
        tag = "sampled-lp"
        s_rows, t_rows = _sample_set_pairs(n, constraint_budget, rng)
        sizes = _cut_sizes(n, s_rows, t_rows)
        tp = cut_sums(wp_mat, s_rows, t_rows)
        tm = cut_sums(wm_mat, s_rows, t_rows)
        # hoisted float views; the overlap term only matters where S and T meet
        s_f = s_rows.astype(np.float64)
        t_f = t_rows.astype(np.float64)
        overlap = s_rows & t_rows
        ov_idx = np.flatnonzero(overlap.any(axis=1))
        r_f = overlap[ov_idx].astype(np.float64)
        best_lam = np.inf
        best_x = x_mat.copy()
        stale = 0
        for t in range(1, iterations + 1):
            cs = ((s_f @ x_mat) * t_f).sum(axis=1)
            if ov_idx.size:
                cs[ov_idx] -= 0.5 * ((r_f @ x_mat) * r_f).sum(axis=1)
            lam, kind, idx, signed = _max_violation_fast(
                x_mat, wp_mat, wm_mat, iu, iv, cs, sizes, tp, tm
            )
            if not np.isfinite(best_lam) or lam < best_lam - 1e-6 * max(best_lam, 1.0):
                best_lam = lam
                best_x = x_mat.copy()
                stale = 0
            else:
                stale += 1
                if stale >= _PATIENCE:
                    break
            iterations_run = t
            step = t ** -0.5  # relaxation on the exact halfspace projection
            if kind.startswith("pair"):
                u, v = int(iu[idx]), int(iv[idx])
                delta = signed if kind == "pair+" else -signed
                x_mat[u, v] -= step * delta
                x_mat[v, u] = x_mat[u, v]
            else:
                s = s_rows[idx].astype(np.float64)
                tt = t_rows[idx].astype(np.float64)
                r = (s_rows[idx] & t_rows[idx]).astype(np.float64)
                # per-pair coefficient s_u t_v + s_v t_u - r_u r_v in {0, 1}
                grad = np.outer(s, tt)
                grad = grad + grad.T - np.outer(r, r)
                np.fill_diagonal(grad, 0.0)
                norm_sq = max(sizes[idx], 1.0)
                delta = signed if kind == "cut+" else -signed
                x_mat -= (step * delta / norm_sq) * grad
            np.clip(x_mat, 0.0, 1.0, out=x_mat)
            np.fill_diagonal(x_mat, 0.0)
        x_mat = best_x

    # honest audit: fresh constraints, never the training family
    a_s, a_t = _sample_set_pairs(n, max(constraint_budget, 1), rng)
    a_sizes = _cut_sizes(n, a_s, a_t)
    a_cs = cut_sums(x_mat, a_s, a_t)
    a_tp = cut_sums(wp_mat, a_s, a_t)
    a_tm = cut_sums(wm_mat, a_s, a_t)
    lam_audit, _, _, _ = _max_violation_fast(
        x_mat, wp_mat, wm_mat, iu, iv, a_cs, a_sizes, a_tp, a_tm
    )
    checked = 2 * iu.size + 2 * a_s.shape[0]
    return MergeSolution(
        x=x_mat[iu, iv].copy(),
        lam=float(lam_audit),
        strategy=tag,
        constraints_checked=int(checked),
        iterations_run=iterations_run,
    )


def round_to_signed(solution: MergeSolution, rng: np.random.Generator) -> SignedGraph:
    """Independently round edge probabilities to a complete signed graph."""
    x = np.asarray(solution.x, dtype=np.float64)
    m = x.size
    n = round((1 + np.sqrt(1 + 8 * m)) / 2)
    if n * (n - 1) // 2 != m:
        raise ContractViolation("probability vector does not cover all pairs")
    return SignedGraph.complete_unweighted(n, rng.random(m) < x)


# ---------------------------------------------------------------------------
# Whole mechanism


def release_unweighted(
    graph: SignedGraph,
    params: PrivacyParams,
    config: UnweightedReleaseConfig | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[SignedGraph, ReleaseOutput]:
    """eps-DP synthetic release of an unweighted complete signed graph.

    Noises both sign channels at per-coordinate scale ``2 / eps``, merges
    them into edge probabilities, and rounds.  Everything after the
    noising is post-processing.  With ``unsafe_zero_noise`` the noise is
    suppressed and the output equals the input; that mode exists for
    pipeline tests and is flagged non-private in the audit metadata.
    """
    config = config or UnweightedReleaseConfig()
    if rng is None:
        raise ContractViolation("an explicit rng is required")
    if not graph.complete or not graph.is_unweighted:
        raise ContractViolation("release_unweighted needs an unweighted complete graph")
    if params.delta != 0:
        raise ContractViolation("this mechanism is pure DP; delta must be 0")
    scale = 0.0 if config.unsafe_zero_noise else 2.0 / params.epsilon
    n = graph.n
    rel_plus = laplace_release(
        WeightedChannel(n, graph.channel_flat(1)), scale, rng, config.seed
    )
    rel_minus = laplace_release(
        WeightedChannel(n, graph.channel_flat(-1)), scale, rng, config.seed
    )
    merge = solve_merge_lp(
        rel_plus.channel,
        rel_minus.channel,
        config.merge.constraint_budget,
        rng,
        iterations=config.merge.iterations,
        strategy=config.merge.strategy,
    )
    released = round_to_signed(merge, rng)
    audit = ReleaseOutput(
        mechanism="unweighted-laplace-merge-round",
        epsilon=params.epsilon,
        delta=0.0,
        noise_scale=scale,
        channel_budgets=(params.epsilon / 2.0, params.epsilon / 2.0),
        lambda_residual=merge.lam,
        merge_strategy=merge.strategy,
        constraints_checked=merge.constraints_checked,
        seed=config.seed,
        private=not config.unsafe_zero_noise,
    )
    return released, audit
