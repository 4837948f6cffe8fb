"""Private release of unweighted complete signed graphs.

Three stages, privacy carried entirely by the first:

1. :func:`laplace_release` returns each sign channel with independent
   Laplace noise added to every pair, at the scale the ``engine`` gives
   (:func:`~privcc.graphs.laplace_scale`).  Flipping one edge moves one
   coordinate of each channel by 1, so ``laplace`` noise at scale
   ``1 / (eps/2)`` per channel makes the pair of channel releases eps-DP
   jointly; ``zero-noise-test`` adds none and is not private.
2. :func:`solve_merge_lp` merges the two noisy channels into edge
   probabilities ``x in [0, 1]`` by approximately minimizing the largest
   deviation between cut sums of x and cut sums of the noisy positive
   channel (and of ``1 - x`` against the negative channel) over a sampled
   constraint family: every singleton pair, random (S, T) set pairs (both
   overlapping and disjoint kinds), and random complement pairs
   (S, V minus S).  :class:`MergeConfig` ``strategy="per-edge"`` keeps
   the singleton-only solution instead.
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
one (see the audit below).

The loop keeps its own state, and nothing outside it reads any of it:
the training family, a :class:`~privcc.graphs.CutFamily` drawn from
``rng`` and unpacked once into float masks, its cut sizes, the cut sums
of x with a bound on each, and one memo for the last stepped row.  A cut
step moves x by the same amount on every pair meeting the cut, so each
cut sum changes by that amount times the pairs its cut shares with the
stepped one (:func:`_shared_pairs`, three thin products instead of one
with an n-by-n matrix).  The loop applies that update after every cut
step.  When the clamp cuts the step short, a clipped pair moved less
than the step, the same way, so each row's true sum lies within |step|
times its shared pairs of the update, on the side the step's sign gives
(:func:`_loosen`).  Before the next pick the rows whose bounded residual
could still reach the largest lower bound over all rows are summed again
(:func:`_open_rows`; all rows in one product when more than a quarter
are), so the stepped row and lambda come from exact sums; a subset is
summed by a :class:`~privcc.graphs.CutRows` of its own rows.  The sums
are recomputed in full after a pair step and every ``_RESYNC``
iterations, which bounds float drift.  The pair residuals are formed
only when a pair could win: one is never larger than
``max(|W|, |1 - W|)`` (:func:`_pair_cap`).  The memo holds the row's
pair indices and shared-pair counts: on noisy instances the loop steps
one row over and over (one cut took 89-147 of 300 steps in each of the
benchmark's 30 planted n=200 cells of seeds 1-3), so a repeated step
costs one clip and one axpy.  The indices address x in the order the
boolean mask did, so x is the same bit for bit when every pick is; a
subset's sums can differ from the whole family's in the last bits.

The audit family comes from a stream of its own,
``Generator(rng.bit_generator.jumped())``, which leaves ``rng`` where it
was, so the released graph does not depend on the audit's budget or
sampler.  It is a second :class:`~privcc.graphs.CutFamily` of the
training family's budget, summed a block of rows at a time, so its 8n
rows take O(block * n) float memory.  lambda is the larger of two
:meth:`~privcc.graphs.CutFamily.deviation` readings, of ``x - W+`` and
of ``(1 - x) - W-``, each written onto the merge's one n-by-n buffer:
the cut sum is linear, so two passes do the work of one each for x, W+
and W-.  Each pass sums the family in float32, in that buffer's own
bytes, with a per-row forward error bound, and re-sums in float64 only
the blocks holding a row that can reach the largest |cut|, so lambda is
the float64 kernel's value bit for bit; on planted instances of n = 200
to 1200 that is one or two blocks per pass.
:func:`~privcc.release_weighted.sampled_cut_distance` reads its channel
difference through the same estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import (
    ContractViolation,
    CutFamily,
    CutRows,
    PrivacyParams,
    ReleaseOutput,
    SignedGraph,
    WeightedChannel,
    canonical_pairs,
    fill_pairs,
    laplace_scale,
    upper_mask,
)

__all__ = [
    "MergeSolution",
    "MergeConfig",
    "laplace_release",
    "solve_merge_lp",
    "round_to_signed",
    "release_unweighted",
]

_PATIENCE = 300  # merge solver stops after this many non-improving iterations
_RESYNC = 50  # cut sums are recomputed exactly at least this often
CHANNEL_SENSITIVITY = 1.0  # flipping one edge moves each 0/1 channel by 1


@dataclass(frozen=True)
class MergeSolution:
    """Edge probabilities with an honestly audited residual."""

    x: np.ndarray  # flat per-pair probabilities in [0, 1]
    lam: float  # max violation on a fresh constraint sample
    strategy: str
    constraints_checked: int = 0
    iterations_run: int = 0
    stop: str = "per-edge"  # why training ended: "patience", "budget" or "per-edge"
    best_iteration: int = 0  # steps taken to reach x; 0 is the per-edge start
    training_lambda: float | None = None  # max violation of x on the training family


@dataclass(frozen=True)
class MergeConfig:
    strategy: str = "sampled-lp"  # or "per-edge"
    constraint_budget: int | None = None  # default 4n
    iterations: int = 2000

    def __post_init__(self):
        if self.strategy not in ("sampled-lp", "per-edge"):
            raise ContractViolation(f"unknown merge strategy {self.strategy!r}")
        if self.constraint_budget is not None and self.constraint_budget < 1:
            raise ContractViolation("constraint_budget must be >= 1")
        if self.iterations < 1:
            raise ContractViolation("iterations must be >= 1")


def laplace_release(
    channel_weights: WeightedChannel,
    noise_scale: float,
    rng: np.random.Generator,
) -> WeightedChannel:
    """Return the channel with Lap(noise_scale) added to every pair weight.

    Unbiased: the expected weight of any pair set equals its true weight.
    ``noise_scale == 0`` is the deterministic test mode (not private), and
    returns the channel itself; negative scales are rejected.  The sum is
    written into the fresh draw, which the returned channel keeps.  Both
    release routes noise through here.
    """
    if noise_scale < 0:
        raise ContractViolation(f"noise scale must be >= 0, got {noise_scale}")
    if noise_scale == 0:
        return channel_weights
    noisy = rng.laplace(0.0, noise_scale, size=channel_weights.values.size)
    noisy += channel_weights.values
    return WeightedChannel.adopt(channel_weights.n, noisy)


# ---------------------------------------------------------------------------
# Merge step


def _shared_pairs(rows: CutRows, i: int) -> np.ndarray:
    """Pairs each row's cut shares with row ``i``'s cut; ``rows.sums(H_i)``.

    ``H_i = s t' + t s' - r r' - diag(r)`` is the 0/1 pair mask of cut
    i, so every term is a product of row dots with i's three masks:
    three (3, n) by (n, rows) products instead of one with an n-by-n
    matrix.  The counts are integers, so exact in float64.
    """
    s, t = rows.s[i], rows.t[i]
    masks = np.stack([s, t, s * t])
    a_s, a_t, a_r = masks @ rows.s.T
    b_s, b_t, b_r = masks @ rows.t.T
    count = a_s * b_t + a_t * b_s - a_r * b_r
    q_s, q_t, q_r = masks @ rows.r.T
    count[rows.meet] -= q_r + 0.5 * (2.0 * q_s * q_t - q_r**2 - q_r)
    return count


def _pair_cap(wp: np.ndarray, wm: np.ndarray) -> float:
    """A bound on every pair residual ``x - W+`` and ``(1 - x) - W-`` for x in the box.

    ``x`` and ``1 - x`` stay in [0, 1], so ``|x - W| <= max(|W|, |1 - W|)``;
    the relative margin covers the residuals' one or two roundings.
    """
    cap = max(np.abs(w).max(initial=0.0) for w in (wp, wm, 1.0 - wp, 1.0 - wm))
    return cap * (1.0 + 1e-9)


def _loosen(above: np.ndarray, below: np.ndarray, shift: float, shared: np.ndarray) -> None:
    """Widen the cut sums' bounds after a cut step by ``shift`` that the clamp cut short.

    The loop applied the unclipped update ``cs -= shift * shared``.  A
    clipped pair moved less than ``shift``, the same way, so row j's true
    sum lies within ``|shift| * shared_j`` of the update, above it for a
    step down (``shift > 0``) and below it for a step up.
    """
    if shift > 0:
        above += shift * shared
    else:
        below -= shift * shared


def _open_rows(cs, above, below, tp, tm, sizes) -> np.ndarray:
    """The rows whose cut residual could still be the largest, given cs's bounds.

    Row j's true cut sum lies in ``[cs_j - below_j, cs_j + above_j]``, so
    each of its two cut residuals lies in an interval, and so does its
    absolute value.  A row whose intervals all end below the largest lower
    bound over every row cannot hold the largest violation, ties included.
    Returns the rows with nonzero bounds that can.
    """
    plus_lo, plus_hi = cs - below - tp, cs + above - tp
    minus_lo, minus_hi = (sizes - cs) - above - tm, (sizes - cs) + below - tm
    reach = np.maximum(np.maximum(plus_hi, -plus_lo), np.maximum(minus_hi, -minus_lo))
    floor = max(np.maximum(plus_lo, -plus_hi).max(), np.maximum(minus_lo, -minus_hi).max())
    return np.flatnonzero((reach >= floor) & ((above > 0) | (below > 0)))


def _max_violation(pair_plus, pair_minus, cut_plus, cut_minus):
    """Largest absolute residual over singleton pairs and cut rows.

    The four residuals are ``x - W+`` and ``(1 - x) - W-`` per pair in
    canonical pair order, and ``cut(x) - cut(W+)`` and
    ``(size - cut(x)) - cut(W-)`` per cut row.  Returns (lambda, kind,
    index, signed residual); kind is 'pair+', 'pair-', 'cut+' or 'cut-'.
    An empty residual is skipped; pair kinds win ties.
    """
    cands = (
        ("pair+", pair_plus),
        ("pair-", pair_minus),
        ("cut+", cut_plus),
        ("cut-", cut_minus),
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


_NO_PAIRS = np.empty(0)  # the pair residuals, when no pair can hold the largest violation


def solve_merge_lp(
    wplus: WeightedChannel,
    wminus: WeightedChannel,
    constraint_budget: int | None,
    rng: np.random.Generator,
    iterations: int = MergeConfig.iterations,
    strategy: str = MergeConfig.strategy,
) -> MergeSolution:
    """Merge two noisy channels into edge probabilities.

    ``constraint_budget`` counts the random (S, T) rows and, separately,
    the random complement rows (default 4n each, at least 1).  Strategy
    ``"per-edge"`` stops at the per-edge rule
    ``x = clip((W+ + 1 - W-) / 2, 0, 1)``, the exact solution of the
    singleton-only problem; ``"sampled-lp"`` refines it by subgradient
    descent on the sampled family.  The returned ``lam`` is the maximum
    violation over a fresh constraint sample of the same budget; the
    returned x is the best iterate, reached after ``best_iteration`` steps,
    at training violation ``training_lambda`` (``None`` for per-edge).
    """
    if wplus.n != wminus.n:
        raise ContractViolation("channels must share a vertex count")
    # refuses exactly what the config refuses
    MergeConfig(strategy=strategy, constraint_budget=constraint_budget, iterations=iterations)
    n = wplus.n
    if constraint_budget is None:
        constraint_budget = 4 * n
    wp, wm = wplus.values, wminus.values
    iu, iv = canonical_pairs(n)
    upper = upper_mask(n)
    x_mat = np.zeros((n, n))  # the one dense pair matrix, rewritten in place

    def pair_matrix(values):
        return fill_pairs(x_mat, values, upper)

    x = np.clip((wp + 1.0 - wm) / 2.0, 0.0, 1.0)
    iterations_run = 0
    stop = "per-edge"
    best_iteration = 0
    best_lam = None

    if strategy == "sampled-lp":
        training = CutFamily(n, constraint_budget, rng)
        rows = CutRows(*training.masks())
        rsz = rows.r.sum(axis=1)
        sizes = rows.s.sum(axis=1) * rows.t.sum(axis=1)  # pairs each cut counts, exactly
        sizes[rows.meet] -= 0.5 * rsz * (rsz + 1.0)
        tp, tm = rows.sums(pair_matrix(wp)), rows.sums(pair_matrix(wm))
        cs = rows.sums(pair_matrix(x))
        above, below = np.zeros(cs.size), np.zeros(cs.size)  # true sums lie in [cs - below, cs + above]
        pair_cap = _pair_cap(wp, wm)
        best_lam = np.inf
        best_x = x.copy()
        stale = 0
        stepped, hit, shared = -1, None, None  # the last stepped cut row's step data
        stop = "budget"
        for t in range(1, iterations + 1):
            if above.any() or below.any():  # re-sum what can hold the largest violation
                tight = _open_rows(cs, above, below, tp, tm, sizes)
                if tight.size > cs.size / 4:  # then one whole product is cheaper
                    cs, tight = rows.sums(pair_matrix(x)), slice(None)
                elif tight.size:
                    cs[tight] = CutRows(*training.masks(tight)).sums(pair_matrix(x))
                above[tight] = below[tight] = 0.0
            cut_plus, cut_minus = cs - tp, (sizes - cs) - tm
            cut_lam = max(cut_plus.max(), -cut_plus.min(), cut_minus.max(), -cut_minus.min())
            if cut_lam > pair_cap:  # no pair can win, not even a tie
                pair_plus = pair_minus = _NO_PAIRS
            else:
                pair_plus, pair_minus = x - wp, (1.0 - x) - wm
            lam, kind, idx, signed = _max_violation(pair_plus, pair_minus, cut_plus, cut_minus)
            if not np.isfinite(best_lam) or lam < best_lam - 1e-6 * max(best_lam, 1.0):
                best_lam = lam
                best_x = x.copy()
                best_iteration = t - 1
                stale = 0
            else:
                stale += 1
                if stale >= _PATIENCE:
                    stop = "patience"
                    break
            iterations_run = t
            step = t ** -0.5  # relaxation on the exact halfspace projection
            if kind.startswith("pair"):
                delta = signed if kind == "pair+" else -signed
                x[idx] = np.clip(x[idx] - step * delta, 0.0, 1.0)
                full = True
            else:
                if stepped != idx:
                    # the gradient is 1 on pairs meeting the cut and 0 elsewhere
                    (s,), (tt,) = training.masks([idx])
                    stepped = idx
                    hit = np.flatnonzero((s[iu] & tt[iv]) | (s[iv] & tt[iu]))
                    shared = _shared_pairs(rows, idx)
                delta = signed if kind == "cut+" else -signed
                shift = step * delta / max(sizes[idx], 1.0)
                moved = x[hit]
                moved -= shift
                if moved.min(initial=0.0) < 0.0 or moved.max(initial=1.0) > 1.0:  # clipped
                    np.clip(moved, 0.0, 1.0, out=moved)
                    _loosen(above, below, shift, shared)
                x[hit] = moved
                cs -= shift * shared
                full = False
            if full or t % _RESYNC == 0:
                cs = rows.sums(pair_matrix(x))
                above[:] = below[:] = 0.0
        x = best_x

    # honest audit: fresh constraints, never the training family, drawn from
    # a stream of their own so that rng's later draws do not depend on them
    audit_rng = np.random.Generator(rng.bit_generator.jumped())
    family = CutFamily(n, constraint_budget, audit_rng)
    # each residual in turn fills x_mat and takes its own pass over the family,
    # and res holds one per-pair residual at a time
    res = np.subtract(x, wp)
    lam = family.deviation(res, x_mat)[0]
    np.subtract(1.0, x, out=res)
    res -= wm  # the minus channel's residual (1 - x) - W-
    lam = max(lam, family.deviation(res, x_mat)[0])
    return MergeSolution(
        x=x,
        lam=lam,
        strategy=strategy,
        constraints_checked=2 * iu.size + 4 * constraint_budget,
        iterations_run=iterations_run,
        stop=stop,
        best_iteration=best_iteration,
        training_lambda=best_lam,
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
    merge: MergeConfig | None = None,
    rng: np.random.Generator | None = None,
    *,
    seed: int | None = None,
    engine: str = "laplace",
) -> tuple[SignedGraph, ReleaseOutput]:
    """eps-DP synthetic release of an unweighted complete signed graph.

    Noises both sign channels under ``engine`` (one of
    :data:`~privcc.graphs.ENGINES`) at ``CHANNEL_SENSITIVITY / (eps/2)``
    per pair, plus channel first, merges them into edge probabilities
    under ``merge`` (default :class:`MergeConfig`), and rounds.
    Everything after the noising is post-processing.  ``seed`` is only
    recorded in the audit.  With the ``zero-noise-test`` engine the output
    equals the input; that mode exists for pipeline tests and is flagged
    non-private in the audit metadata.
    """
    merge = merge or MergeConfig()
    if rng is None:
        raise ContractViolation("an explicit rng is required")
    if not graph.complete or not graph.is_unweighted:
        raise ContractViolation("release_unweighted needs an unweighted complete graph")
    if params.delta != 0:
        raise ContractViolation("this mechanism is pure DP; delta must be 0")
    half = params.split(2)
    scale = laplace_scale(engine, CHANNEL_SENSITIVITY, half.epsilon)
    # a complete graph's read-only weights are its channels, flat in canonical order
    noisy = [
        laplace_release(WeightedChannel.adopt(graph.n, w), scale, rng)
        for w in (graph.pos_w, graph.neg_w)
    ]
    solution = solve_merge_lp(
        *noisy,
        merge.constraint_budget,
        rng,
        iterations=merge.iterations,
        strategy=merge.strategy,
    )
    del noisy  # the rounding needs x alone
    released = round_to_signed(solution, rng)
    audit = ReleaseOutput(
        mechanism="unweighted-laplace-merge-round",
        epsilon=params.epsilon,
        delta=0.0,
        noise_scale=scale,
        channel_budgets=(half.epsilon, half.epsilon),
        lambda_residual=solution.lam,
        merge_strategy=solution.strategy,
        constraints_checked=solution.constraints_checked,
        seed=seed,
        private=scale > 0,
        merge_iterations=solution.iterations_run,
        merge_stop=solution.stop,
        merge_best_iteration=solution.best_iteration,
        merge_training_lambda=solution.training_lambda,
    )
    return released, audit
