"""Private release of weighted or incomplete signed graphs.

The mechanism splits the input into its sign channels, hands each
channel to a pluggable cut-preserving releaser at half the privacy
budget, and reunites the outputs as a graph that may carry one positive
and one negative edge per pair.

For any clustering into k clusters the disagreement (and agreement)
between input and output differ by at most
``k * (cut_distance(minus channels) + cut_distance(plus channels))``,
so a releaser's advertised cut error translates directly into an
objective error bound.

The default engine adds per-pair Laplace noise, then zeroes weights
below a threshold of ``scale * ln(n)`` (post-processing, so privacy is
unaffected).  Without the threshold the noise floor alone would inflate
every cut by order n^2; with it, sparse instances keep cut errors near
linear in n.  Unbiasedness holds for the raw noisy weights only, before
thresholding.  A stronger releaser with cut error ~ sqrt(m n / eps) is
known to exist; the :class:`CutReleaser` interface is the slot for
plugging one in (register it under ``external:<name>``).
"""

from __future__ import annotations

import abc
import math

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
    "CutReleaser",
    "LaplaceCutReleaser",
    "ZeroNoiseCutReleaser",
    "register_cut_releaser",
    "get_cut_releaser",
    "release_weighted",
    "sampled_cut_distance",
]


class CutReleaser(abc.ABC):
    """Releases one non-negative weight channel under a privacy budget."""

    name: str = "abstract"
    needs_delta: bool = False
    private: bool = True  # False marks a test engine whose output is not private

    @abc.abstractmethod
    def release(
        self, channel: WeightedChannel, params: PrivacyParams, rng: np.random.Generator
    ) -> WeightedChannel:
        """Return a private channel with non-negative weights."""

    @abc.abstractmethod
    def advertised_error(self, n: int, m: float, params: PrivacyParams) -> float:
        """A-priori cut-distance bound this engine claims (polylogs coarse)."""

    def noise_scale(self, params: PrivacyParams) -> float:
        """Per-pair noise scale at this budget, reported in the audit; 0 if none."""
        return 0.0

    def validate_params(self, params: PrivacyParams) -> None:
        if self.needs_delta:
            if not (0 < params.epsilon <= 0.5 and 0 < params.delta <= 0.5):
                raise ContractViolation(
                    f"engine {self.name} needs epsilon, delta in (0, 1/2]"
                )


class LaplaceCutReleaser(CutReleaser):
    """Per-pair Laplace noise at scale 2/eps, then threshold and clip.

    Weighted neighbors can move a single channel's weight vector by up to
    2 in L1, hence the scale.  Weights below ``scale * ln(n)`` are zeroed
    after noising so that the noise floor on absent pairs does not
    accumulate across large cuts.
    """

    name = "laplace"

    def noise_scale(self, params: PrivacyParams) -> float:
        return 2.0 / params.epsilon

    def raw_release(self, channel, params, rng):
        """Noisy channel before thresholding: unbiased, possibly negative.

        Already private on its own; the threshold below is post-processing.
        """
        self.validate_params(params)
        scale = self.noise_scale(params)
        noisy = channel.values + rng.laplace(0.0, scale, size=channel.values.size)
        return WeightedChannel(channel.n, noisy)

    def release(self, channel, params, rng):
        raw = self.raw_release(channel, params, rng)
        scale = self.noise_scale(params)
        tau = scale * math.log(max(channel.n, 2))
        return WeightedChannel(channel.n, np.where(raw.values >= tau, raw.values, 0.0))

    def advertised_error(self, n, m, params):
        scale = self.noise_scale(params)
        return scale * n**1.5 * math.sqrt(math.log(max(n, 2)))


class ZeroNoiseCutReleaser(CutReleaser):
    """Identity passthrough; no privacy.  Pipeline tests only."""

    name = "zero-noise-test"
    private = False

    def release(self, channel, params, rng):
        return WeightedChannel(channel.n, channel.values)

    def advertised_error(self, n, m, params):
        return 0.0


_REGISTRY: dict[str, CutReleaser] = {}


def register_cut_releaser(name: str, engine: CutReleaser) -> None:
    _REGISTRY[name] = engine


def get_cut_releaser(name: CutReleaser | str) -> CutReleaser:
    """Look up an engine: ``laplace``, ``zero-noise-test`` or ``external:<name>``.

    An engine instance is returned as it is.
    """
    if isinstance(name, CutReleaser):
        return name
    if name == "laplace":
        return LaplaceCutReleaser()
    if name == "zero-noise-test":
        return ZeroNoiseCutReleaser()
    if name.startswith("external:"):
        key = name.split(":", 1)[1]
        if key not in _REGISTRY:
            raise ContractViolation(f"no registered cut releaser {key!r}")
        return _REGISTRY[key]
    raise ContractViolation(f"unknown release engine {name!r}")


def release_weighted(
    graph: SignedGraph,
    params: PrivacyParams,
    engine: CutReleaser | str,
    rng: np.random.Generator,
    seed: int | None = None,
) -> tuple[SignedGraph, ReleaseOutput]:
    """(eps, delta)-DP release of a weighted signed graph.

    Each sign channel goes through ``engine`` at half the budget; the
    outputs recombine with their signs, possibly giving parallel pairs.
    """
    engine = get_cut_releaser(engine)
    engine.validate_params(params)
    half = params.split(2)
    n = graph.n
    out_plus = engine.release(WeightedChannel(n, graph.channel_flat(1)), half, rng)
    out_minus = engine.release(WeightedChannel(n, graph.channel_flat(-1)), half, rng)
    if (out_plus.values < 0).any() or (out_minus.values < 0).any():
        raise ContractViolation(f"engine {engine.name} emitted negative weights")
    released = SignedGraph.from_channel_arrays(
        n, out_plus.values, out_minus.values, parallel_ok=True
    )
    audit = ReleaseOutput(
        mechanism=f"weighted-{engine.name}",
        epsilon=params.epsilon,
        delta=params.delta,
        noise_scale=engine.noise_scale(half),
        channel_budgets=(half.epsilon, half.epsilon),
        seed=seed,
        private=engine.private,
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
