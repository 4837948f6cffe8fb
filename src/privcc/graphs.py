"""Signed-graph and clustering data model plus the objective arithmetic.

A :class:`SignedGraph` stores, per unordered vertex pair, a non-negative
weight on a positive channel and one on a negative channel.  Ordinary
signed graphs carry weight on at most one channel per pair; a pair may
carry both (a parallel pair: one positive and one negative edge between
the same endpoints).  A pair is absent exactly when both channel weights
are zero.  Everything a graph is follows from its arrays: it is complete
exactly when every pair carries positive weight.

Complete graphs of one vertex count share one pair index: the read-only
``numpy.triu_indices(n, 1)`` arrays from :func:`canonical_pairs`.  The
registry holds them weakly, so they live exactly as long as some graph
or caller holds them.  :func:`upper_mask` is the same index as a boolean
n-by-n mask, held the same way, through which :func:`fill_pairs` writes
a per-pair vector onto a dense matrix.

All types are immutable after construction (backing arrays are marked
read-only) and every operation in this module is a pure function, so
values can be shared freely across threads.  Public constructors copy the
arrays a caller passes; an array a constructor has just built itself is
kept, not copied again.

Weights are float64.  Integer-valued weights stay exact under summation
well past desk scale (sums are exact below 2**53), so the conservation
identity ``disagreement + agreement == total_weight`` is bit-exact on
unweighted graphs.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ContractViolation",
    "SizeRefusal",
    "SignedGraph",
    "canonical_pairs",
    "upper_mask",
    "fill_pairs",
    "Clustering",
    "WeightedChannel",
    "PrivacyParams",
    "ENGINES",
    "laplace_scale",
    "ReleaseOutput",
    "disagreement",
    "agreement",
    "signed_cut_weight",
    "disagreement_cut_form",
    "neighbor_distance",
    "split_signs",
    "CutRows",
    "CutFamily",
]


class ContractViolation(ValueError):
    """An argument breaks a documented precondition."""


class SizeRefusal(RuntimeError):
    """Instance exceeds a hard size limit; refused rather than degraded."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# (n, 0) -> pair_u and (n, 1) -> pair_v of the canonical pair index of n vertices
_PAIRS: weakref.WeakValueDictionary[tuple[int, int], np.ndarray] = weakref.WeakValueDictionary()


def _held_pairs(n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The shared pair arrays of n vertices if something holds them, else None."""
    u, v = _PAIRS.get((n, 0)), _PAIRS.get((n, 1))
    return None if u is None or v is None else (u, v)


def canonical_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``numpy.triu_indices(n, 1)`` as int64, one shared pair per n.

    Every caller gets the same two arrays for as long as any holder keeps
    them; the registry holds them weakly, so it keeps none alive itself.
    """
    n = int(n)
    pairs = _held_pairs(n)
    if pairs is None:
        pairs = tuple(_readonly(a.astype(np.int64, copy=False)) for a in np.triu_indices(n, 1))
        _PAIRS[n, 0], _PAIRS[n, 1] = pairs
    return pairs


# n -> the upper-triangle mask of n vertices
_UPPER: weakref.WeakValueDictionary[int, np.ndarray] = weakref.WeakValueDictionary()


def upper_mask(n: int) -> np.ndarray:
    """Read-only boolean n-by-n mask of the pairs u < v, one shared per n.

    Its row-major order is canonical pair order.  Like
    :func:`canonical_pairs`, the registry holds it weakly.
    """
    n = int(n)
    mask = _UPPER.get(n)
    if mask is None:
        mask = _UPPER[n] = _readonly(np.less.outer(np.arange(n), np.arange(n)))
    return mask


def fill_pairs(matrix: np.ndarray, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Write per-pair ``values`` (canonical order) onto both triangles of ``matrix``.

    ``mask`` is :func:`upper_mask` of the matrix's n.  Two boolean writes
    in row-major order, one through the transpose, take about a third of
    the time of two fancy-index scatters at n = 400.  The diagonal is
    left as it was.
    """
    matrix[mask] = values
    matrix.T[mask] = values
    return matrix


def _symmetric(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Dense symmetric n-by-n matrix with ``w`` scattered onto pairs (u, v)."""
    m = np.zeros((n, n))
    m[u, v] = w
    m[v, u] = w
    return m


# ---------------------------------------------------------------------------
# SignedGraph


class SignedGraph:
    """Weighted signed graph on vertices ``0..n-1``.

    Edges are kept as parallel arrays over unordered pairs in canonical
    (lexicographic, ``u < v``) order: ``pair_u``, ``pair_v``, ``pos_w``,
    ``neg_w``.  A pair may carry weight on both channels.  ``complete`` is
    computed, not set: it holds exactly when every one of the C(n,2) pairs
    carries positive weight.

    A graph with all C(n,2) pairs holds the shared read-only pair index of
    :func:`canonical_pairs`, not a copy of its own, so complete graphs of
    one n share one index, held weakly by the registry.
    """

    __slots__ = ("n", "complete", "pair_u", "pair_v", "pos_w", "neg_w")

    def __init__(
        self,
        n: int,
        pair_u: np.ndarray,
        pair_v: np.ndarray,
        pos_w: np.ndarray,
        neg_w: np.ndarray,
    ):
        self._keep(n, pair_u, pair_v, np.array(pos_w, np.float64), np.array(neg_w, np.float64))

    def _keep(self, n, pair_u, pair_v, pw: np.ndarray, nw: np.ndarray) -> None:
        """Check the arrays and keep them read-only; the weights are not copied."""
        n = int(n)
        if n < 1:
            raise ContractViolation(f"need at least one vertex, got n={n}")
        shared = _held_pairs(n)
        canonical = shared is not None and pair_u is shared[0] and pair_v is shared[1]
        if canonical:
            u, v = shared  # the shared index itself: nothing to copy or check
        else:
            u = np.array(pair_u, np.int64)
            v = np.array(pair_v, np.int64)
        if not (u.shape == v.shape == pw.shape == nw.shape) or u.ndim != 1:
            raise ContractViolation("edge arrays must be 1-d and equally long")
        if u.size and not canonical:
            if u.min() < 0 or v.max() >= n:
                raise ContractViolation("vertex index out of range")
            if np.any(u >= v):
                raise ContractViolation("pairs must be canonical (u < v)")
            key = u * n + v
            if np.any(np.diff(key) <= 0):
                raise ContractViolation("pairs must be sorted and unique")
            if u.size == n * (n - 1) // 2:
                # sorted, unique and canonical over all pairs: exactly the triu order
                u, v = canonical_pairs(n)
        if not (np.all(np.isfinite(pw)) and np.all(np.isfinite(nw))):
            raise ContractViolation("weights must be finite")
        if (pw < 0).any() or (nw < 0).any():
            raise ContractViolation("weights must be non-negative")
        self.n = n
        # the weights are non-negative, so a pair carries weight where either does
        self.complete = u.size == n * (n - 1) // 2 and bool(np.all((pw > 0) | (nw > 0)))
        self.pair_u = _readonly(u)
        self.pair_v = _readonly(v)
        self.pos_w = _readonly(pw)
        self.neg_w = _readonly(nw)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int, int, float]],
    ) -> "SignedGraph":
        """Build from ``(u, v, sign, weight)`` tuples, sign in {+1, -1}.

        A repeated (pair, sign) entry is rejected, whatever its weights; a
        pair listed once with each sign becomes a parallel pair.  A pair
        whose listed weights are all 0 is dropped, as in
        :meth:`from_channel_arrays`.
        """
        acc: dict[tuple[int, int], list[float | None]] = {}
        for u, v, sign, w in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ContractViolation(f"self loop at vertex {u}")
            if u > v:
                u, v = v, u
            if sign not in (1, -1):
                raise ContractViolation(f"sign must be +1 or -1, got {sign!r}")
            slot = acc.setdefault((u, v), [None, None])  # None: sign not listed yet
            idx = 0 if sign == 1 else 1
            if slot[idx] is not None:
                raise ContractViolation(f"duplicate edge {(u, v)} with sign {sign}")
            slot[idx] = float(w)
        keys = sorted(k for k, listed in acc.items() if any(listed))
        pu = np.array([k[0] for k in keys], dtype=np.int64)
        pv = np.array([k[1] for k in keys], dtype=np.int64)
        pw = np.array([acc[k][0] or 0.0 for k in keys], dtype=np.float64)
        nw = np.array([acc[k][1] or 0.0 for k in keys], dtype=np.float64)
        return cls(n, pu, pv, pw, nw)

    @classmethod
    def complete_unweighted(cls, n: int, positive: np.ndarray) -> "SignedGraph":
        """Complete unit-weight graph from one sign flag per pair.

        ``positive`` holds a boolean per unordered pair in canonical order
        (that of ``numpy.triu_indices(n, 1)``); true marks a positive edge,
        false a negative one.
        """
        pos = np.asarray(positive, dtype=bool).astype(np.float64)
        graph = cls.__new__(cls)  # keeps its two fresh arrays, not copies
        graph._keep(n, *canonical_pairs(n), pos, 1.0 - pos)
        return graph

    @classmethod
    def from_channel_arrays(
        cls,
        n: int,
        pos_flat: np.ndarray,
        neg_flat: np.ndarray,
    ) -> "SignedGraph":
        """Build from flat per-pair channel weights in canonical order, dropping zero pairs."""
        pu, pv = canonical_pairs(n)
        pos_flat = np.asarray(pos_flat, dtype=np.float64)
        neg_flat = np.asarray(neg_flat, dtype=np.float64)
        if pos_flat.shape != pu.shape or neg_flat.shape != pu.shape:
            raise ContractViolation("channel arrays must cover all pairs")
        keep = (pos_flat > 0) | (neg_flat > 0)
        if keep.all():
            return cls(n, pu, pv, pos_flat, neg_flat)
        return cls(n, pu[keep], pv[keep], pos_flat[keep], neg_flat[keep])

    @classmethod
    def empty(cls, n: int) -> "SignedGraph":
        z = np.zeros(0)
        return cls(n, z, z, z, z)

    # -- views --------------------------------------------------------------

    @property
    def edge_count(self) -> int:
        """Number of edges, counting both members of a parallel pair."""
        return int((self.pos_w > 0).sum() + (self.neg_w > 0).sum())

    @property
    def total_weight(self) -> float:
        return float(self.pos_w.sum() + self.neg_w.sum())

    @property
    def is_unweighted(self) -> bool:
        return bool(np.all(self.pos_w + self.neg_w == 1.0)) and not np.any(
            (self.pos_w > 0) & (self.neg_w > 0)
        )

    def channel_flat(self, sign: int) -> np.ndarray:
        """Flat canonical-order channel weights over all C(n,2) pairs."""
        w = self.pos_w if sign == 1 else self.neg_w
        if w.size == self.n * (self.n - 1) // 2:
            return w.copy()  # every pair present, so already in canonical order
        out = np.zeros(self.n * (self.n - 1) // 2)
        out[_flat_index(self.n, self.pair_u, self.pair_v)] = w
        return out

    def net_matrix(self) -> np.ndarray:
        """Dense signed-weight matrix, positive minus negative channel."""
        return _symmetric(self.n, self.pair_u, self.pair_v, self.pos_w - self.neg_w)

    def iter_edges(self):
        """Yield ``(u, v, sign, weight)`` for every edge, positives first per pair."""
        for u, v, pw, nw in zip(self.pair_u, self.pair_v, self.pos_w, self.neg_w):
            if pw > 0:
                yield int(u), int(v), 1, float(pw)
            if nw > 0:
                yield int(u), int(v), -1, float(nw)

    def __repr__(self) -> str:
        kind = "complete " if self.complete else ""
        return f"SignedGraph({kind}n={self.n}, pairs={len(self.pair_u)})"


def _flat_index(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # canonical rank of pair (u, v), u < v, in lexicographic triu order
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


# ---------------------------------------------------------------------------
# Clustering


class Clustering:
    """A partition of ``0..n-1`` into nonempty clusters ``0..k-1``.

    The stored assignment is canonical: cluster ids are relabeled in order
    of first appearance, so two Clusterings inducing the same partition
    compare equal regardless of incoming label names.
    """

    __slots__ = ("assignment", "k")

    def __init__(self, labels: Sequence[int] | np.ndarray):
        labels = np.asarray(labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size == 0:
            raise ContractViolation("assignment must be a non-empty 1-d array")
        # np.unique sorts by label value; remap to first-appearance order
        _, first_idx, inverse = np.unique(labels, return_index=True, return_inverse=True)
        rank = np.argsort(np.argsort(first_idx))
        self.assignment = _readonly(rank[inverse].astype(np.int64))
        self.k = int(first_idx.size)

    @classmethod
    def singletons(cls, n: int) -> "Clustering":
        return cls(np.arange(n))

    @classmethod
    def one_cluster(cls, n: int) -> "Clustering":
        return cls(np.zeros(n, dtype=np.int64))

    @classmethod
    def from_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> "Clustering":
        labels = np.full(n, -1, dtype=np.int64)
        for cid, members in enumerate(sets):
            for v in members:
                if not 0 <= v < n:
                    raise ContractViolation(f"vertex {v} is not in 0..{n - 1}")
                if labels[v] != -1:
                    raise ContractViolation(f"vertex {v} assigned twice")
                labels[v] = cid
        if (labels < 0).any():
            raise ContractViolation("every vertex needs a cluster")
        return cls(labels)

    @property
    def n(self) -> int:
        return int(self.assignment.size)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.k)

    def members(self, cid: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == cid)

    def as_sets(self) -> list[set[int]]:
        return [set(map(int, self.members(c))) for c in range(self.k)]

    def key(self) -> tuple[int, ...]:
        """Canonical tuple; doubles as the deterministic tie-break order."""
        return tuple(int(x) for x in self.assignment)

    def __eq__(self, other) -> bool:
        return isinstance(other, Clustering) and np.array_equal(
            self.assignment, other.assignment
        )

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"Clustering(n={self.n}, k={self.k})"


# ---------------------------------------------------------------------------
# WeightedChannel


class WeightedChannel:
    """Per-pair real weights over all C(n,2) pairs (may be negative).

    Values are stored flat in canonical pair order (lexicographic with
    u < v), matching ``numpy.triu_indices(n, 1)``.
    """

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: np.ndarray):
        self._keep(n, np.array(values, np.float64))

    @classmethod
    def adopt(cls, n: int, values: np.ndarray) -> "WeightedChannel":
        """A channel that keeps ``values`` itself, where the constructor copies.

        For a float64 array its caller has just built and hands over, or
        one already read-only that nothing writes to: the array is marked
        read-only, so the caller's own reference cannot write to it either.
        """
        channel = cls.__new__(cls)
        channel._keep(n, np.asarray(values, np.float64))
        return channel

    def _keep(self, n: int, values: np.ndarray) -> None:
        n = int(n)
        if values.shape != (n * (n - 1) // 2,):
            raise ContractViolation("need one value per unordered pair")
        if not np.all(np.isfinite(values)):
            raise ContractViolation("channel values must be finite")
        self.n = n
        self.values = _readonly(values)

    def matrix(self) -> np.ndarray:
        """Dense symmetric n-by-n matrix of the pair values."""
        return _symmetric(self.n, *canonical_pairs(self.n), self.values)

    def __repr__(self) -> str:
        return f"WeightedChannel(n={self.n})"


# ---------------------------------------------------------------------------
# PrivacyParams / ReleaseOutput


@dataclass(frozen=True)
class PrivacyParams:
    """An (epsilon, delta) privacy budget; delta = 0 means pure DP."""

    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        if not (self.epsilon > 0 and np.isfinite(self.epsilon)):
            raise ContractViolation(f"epsilon must be positive, got {self.epsilon}")
        if not (0 <= self.delta < 1):
            raise ContractViolation(f"delta must be in [0, 1), got {self.delta}")

    def split(self, ways: int = 2) -> "PrivacyParams":
        return PrivacyParams(self.epsilon / ways, self.delta / ways)


# release engines: per-coordinate Laplace noise, or none (not private, tests only)
ENGINES = ("laplace", "zero-noise-test")


def laplace_scale(engine: str, sensitivity: float, epsilon: float) -> float:
    """Per-coordinate noise scale ``sensitivity / epsilon`` under ``engine``.

    The one noise rule of both release routes: an L1 sensitivity of
    ``sensitivity`` at budget ``epsilon`` needs Lap(sensitivity / epsilon).
    The test engine adds no noise, so its scale is 0.  A scale that overflows is refused.
    """
    if engine not in ENGINES:
        raise ContractViolation(f"unknown release engine {engine!r}")
    # Python floats: an overflowing division gives inf, not a numpy warning
    scale = 0.0 if engine == "zero-noise-test" else float(sensitivity) / float(epsilon)
    if not np.isfinite(scale):
        raise ContractViolation(f"epsilon={epsilon} gives a non-finite noise scale")
    return scale


@dataclass(frozen=True)
class ReleaseOutput:
    """Audit metadata attached to a released graph."""

    mechanism: str
    epsilon: float
    delta: float
    noise_scale: float
    channel_budgets: tuple[float, ...]
    lambda_residual: float | None = None
    merge_strategy: str | None = None
    constraints_checked: int = 0
    seed: int | None = None
    private: bool = True
    merge_iterations: int | None = None  # merge solver iterations run
    merge_stop: str | None = None  # why it stopped: "patience", "budget" or "per-edge"
    merge_best_iteration: int | None = None  # merge steps taken to reach the released x
    merge_training_lambda: float | None = None  # its max violation on the training family

    def audit_dict(self) -> dict:
        """Every field, with ``lambda_residual`` under the key ``lambda``."""
        out = asdict(self)
        out["lambda"] = out.pop("lambda_residual")
        return out


# ---------------------------------------------------------------------------
# Objectives and cuts


def _check_compatible(clustering: Clustering, graph: SignedGraph) -> None:
    if clustering.n != graph.n:
        raise ContractViolation(
            f"clustering covers {clustering.n} vertices, graph has {graph.n}"
        )


def disagreement(clustering: Clustering, graph: SignedGraph) -> float:
    """Total weight of positive edges cut plus negative edges kept together."""
    _check_compatible(clustering, graph)
    a = clustering.assignment
    same = a[graph.pair_u] == a[graph.pair_v]
    return float(graph.neg_w[same].sum() + graph.pos_w[~same].sum())


def agreement(clustering: Clustering, graph: SignedGraph) -> float:
    """Total weight of positive edges kept together plus negative edges cut."""
    _check_compatible(clustering, graph)
    a = clustering.assignment
    same = a[graph.pair_u] == a[graph.pair_v]
    return float(graph.pos_w[same].sum() + graph.neg_w[~same].sum())


def _as_mask(n: int, vertices) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    idx = np.asarray(list(vertices) if not isinstance(vertices, np.ndarray) else vertices)
    if idx.size:
        if idx.min() < 0 or idx.max() >= n:
            raise ContractViolation("cut vertex out of range")
        mask[idx] = True
    return mask


def signed_cut_weight(graph: SignedGraph, s, t, sign: int) -> float:
    """Weight of sign-matching edges with one endpoint in S and one in T.

    Each unordered pair is counted once, even inside the overlap of S and
    T, so ``signed_cut_weight(G, C, C, -1)`` is the negative weight inside
    the vertex set C.
    """
    s_mask = _as_mask(graph.n, s)
    t_mask = _as_mask(graph.n, t)
    u, v = graph.pair_u, graph.pair_v
    in_cut = (s_mask[u] & t_mask[v]) | (t_mask[u] & s_mask[v])
    w = graph.pos_w if sign == 1 else graph.neg_w
    return float(w[in_cut].sum())


class CutRows:
    """(S, T) rows from boolean (rows, n) masks, prepared for cut sums.

    Holds the float masks ``s`` and ``t`` (of ``dtype``), the indices
    ``meet`` of the rows where S and T overlap, and those rows' overlap
    masks ``r`` (the overlap is empty elsewhere): what :meth:`sums` reads.
    """

    __slots__ = ("s", "t", "meet", "r")

    def __init__(self, s_rows: np.ndarray, t_rows: np.ndarray, dtype=np.float64):
        overlap = s_rows & t_rows
        self.s = s_rows.astype(dtype)
        self.t = t_rows.astype(dtype)
        self.meet = np.flatnonzero(overlap.any(axis=1))
        self.r = overlap[self.meet].astype(dtype)

    def sums(self, matrix: np.ndarray) -> np.ndarray:
        """Cut sums ``s' M t - (r' M r) / 2`` of a symmetric M, each pair once, one per row."""
        # each product is masked in its own memory, not into a second array
        product = self.s @ matrix
        product *= self.t
        cs = product.sum(axis=1)
        product = self.r @ matrix
        product *= self.r
        cs[self.meet] -= 0.5 * product.sum(axis=1)
        return cs


_AUDIT_BLOCK = 128  # family rows unpacked per CutRows, which bounds a pass's float masks


class CutFamily:
    """A sampled family of ``2 * budget`` (S, T) rows, held as packed bits.

    ``budget`` mixed rows (with probability 1/2 independent Bernoulli(1/2)
    sets S and T, otherwise classes 0 and 1 of a uniform 3-colouring),
    then ``budget`` complement rows (a Bernoulli(1/2) S and T = V minus
    S), drawn from ``rng`` in one pass in this order: one coin per mixed
    row, the bytes of S for every row, the bytes of T for the mixed rows,
    the colouring rows' colours.  A byte is 8 fair bits, so the
    Bernoulli rows cost 1/64 of a double per vertex.  :meth:`sums`
    unpacks ``_AUDIT_BLOCK`` rows per :class:`CutRows`, so a pass takes
    O(block * n) float memory whatever the family's size.

    Every sampled cut family in privcc is one of these, three in all:
    the sampled-LP merge trains on one drawn from the caller's stream and
    audits lambda on another from a stream of its own, and
    :func:`~privcc.release_weighted.sampled_cut_distance` draws a third.
    Their rows are read through :meth:`masks` alone.  The audit and the
    cut distance read their residuals, ``x - W+`` and ``(1 - x) - W-`` or
    ``a - b``, through :meth:`deviation`, the one sampled cut-residual
    estimator.  It sums every row in float32 and re-sums in float64 only
    the blocks whose rows can reach the largest |cut|, so what it reports
    is :meth:`sums`'s float64 value.
    """

    __slots__ = ("n", "_s", "_t")

    def __init__(self, n: int, budget: int, rng: np.random.Generator):
        if budget < 1:
            raise ContractViolation("a cut family needs a budget of at least 1")
        rows, width = 2 * budget, -(-n // 8)
        coloured = np.flatnonzero(rng.random(budget) >= 0.5)
        s = rng.integers(0, 256, size=(rows, width), dtype=np.uint8)
        t = np.empty_like(s)
        t[:budget] = rng.integers(0, 256, size=(budget, width), dtype=np.uint8)
        z = rng.integers(0, 3, size=(coloured.size, n), dtype=np.int8)
        s[coloured] = np.packbits(z == 0, axis=1)
        t[coloured] = np.packbits(z == 1, axis=1)
        t[budget:] = ~s[budget:]
        # one bit per vertex as numpy.packbits lays them out; bits past n are padding
        self.n, self._s, self._t = n, s, t

    def masks(self, rows=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """The boolean (S, T) masks of ``rows``, a slice or an index array, in its order."""
        return tuple(
            np.unpackbits(b[rows], axis=1, count=self.n).view(bool) for b in (self._s, self._t)
        )

    def sums(self, matrix: np.ndarray) -> np.ndarray:
        """Counted-once cut sums of a symmetric matrix over every row."""
        blocks = range(0, self._s.shape[0], _AUDIT_BLOCK)
        # each block's CutRows, and with it its float masks, goes before the next is made
        sums = [CutRows(*self.masks(slice(a, a + _AUDIT_BLOCK))).sums(matrix) for a in blocks]
        return np.concatenate(sums)

    def deviation(
        self, residual: np.ndarray, matrix: np.ndarray, top: int = 1
    ) -> tuple[float, np.ndarray]:
        """The largest |r| over single pairs and this family's cuts, and the top rows.

        ``residual`` holds one value per pair in canonical order.  It is
        written onto ``matrix``, an n-by-n buffer the caller keeps, with a
        zero diagonal, so the buffer holds the residual matrix afterwards.
        With ``cuts = self.sums(matrix)``, the float64 kernel's sums, the
        value is ``max(|residual|, |cuts|)`` and the rows are
        ``np.argsort(-abs(cuts), kind="stable")[:top]``, both bit for bit.

        Every row is first summed in float32 (:meth:`_rough_sums`), which
        puts it within a certified E_i of 2^e times its float64 sum.  Row i
        can be among the ``top`` largest |cut| only if ``|est_i| + E_i``
        reaches the ``top``-th largest ``|est_j| - E_j``; only the blocks
        holding such rows are re-summed by the float64 kernel, block for
        block as :meth:`sums` sums them, and the answer is read from those
        sums alone.
        """
        pairs = _largest_abs(residual)
        upper = upper_mask(self.n)
        est, bound = self._rough_sums(residual, matrix, pairs, upper)
        fill_pairs(matrix, residual, upper)
        np.fill_diagonal(matrix, 0.0)
        k = est.size - min(max(top, 1), est.size)  # the top-th largest lower bound sits at k
        cand = np.flatnonzero(est + bound >= np.partition(est - bound, k)[k])
        exact = np.empty(cand.size)
        for a in sorted({i - i % _AUDIT_BLOCK for i in cand.tolist()}):
            here = (cand >= a) & (cand < a + _AUDIT_BLOCK)
            block = CutRows(*self.masks(slice(a, a + _AUDIT_BLOCK)))
            exact[here] = block.sums(matrix)[cand[here] - a]
        order = np.argsort(-np.abs(exact), kind="stable")
        return max(pairs, float(abs(exact[order[0]]))), cand[order[:top]]

    def _rough_sums(
        self, residual: np.ndarray, matrix: np.ndarray, peak: float, upper: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """|float32 cut sums| of the residual matrix times 2^e, and a bound on each one's error.

        ``2^e`` puts ``peak``, the largest |residual|, in [1/2, 1) (below
        that for a peak under 2^-1023), so float32 neither overflows nor
        goes subnormal on the scaled matrix.
        Each cut term is rounded once by the cast and at most |S| + |T| - 1
        times by the sums in any order (an overlap term at most 2|R| - 1
        times, and R lies in S and T), so by the k-term summation bound
        gamma_k = k u / (1 - k u), u = 2^-24 (Higham, *Accuracy and
        Stability of Numerical Algorithms*, 2nd ed., 2002, ch. 3) row i's
        float32 sum is within gamma_{|S|+|T|} times its mass of the exact
        sum.  With rho the row sums of the scaled |matrix|, the mass is at
        most min(S.rho, T.rho) + R.rho / 2: S x T's terms, plus half of
        R x R's.  Summed in float32, rho and the masses come out at least
        1 - gamma_{2n} times their true values, hence the division by it.
        A factor 1 + 2^-20 covers the float64 kernel's own error (the same
        bound at u = 2^-53, 2^-29 of this one) and the round-off in the
        bound itself, and 8 (n + 1)^2 roundings of 2^-126 (2^-1022 in
        float64, times 2^e) cover underflow, gradual or flushed, in either
        precision.  No bound assumes an error growing like sqrt(n) or a
        BLAS blocking.

        The pass runs in ``matrix``'s own bytes, a C-ordered float64
        buffer that :meth:`deviation` fills only afterwards: the scaled
        float32 matrix takes their first half and the scaled residual the
        second, so no second matrix is allocated.  ``upper`` is
        :func:`upper_mask` of n, through which the scaled residual is written.
        """
        n = self.n
        scale = math.ldexp(1.0, min(-math.frexp(peak)[1], 1023))  # 2^1024 is past float64
        room = matrix.view(np.float32).reshape(-1)
        scaled, flat = room[: n * n].reshape(n, n), room[n * n : n * n + residual.size]
        np.multiply(residual, scale, out=flat, casting="same_kind")
        fill_pairs(scaled, flat, upper)
        np.fill_diagonal(scaled, 0.0)
        # ones beside rho, the row sums of |scaled| (a block of rows at a time:
        # no n-by-n temporary), so one product gives a row's count and mass
        weights = np.ones((n, 2), dtype=np.float32)
        for a in range(0, n, _AUDIT_BLOCK):
            weights[a : a + _AUDIT_BLOCK, 1] = np.abs(scaled[a : a + _AUDIT_BLOCK]).sum(axis=1)
        est, terms, mass = np.empty((3, self._s.shape[0]))
        for a in range(0, est.size, _AUDIT_BLOCK):
            rows = CutRows(*self.masks(slice(a, a + _AUDIT_BLOCK)), dtype=np.float32)
            b = a + rows.s.shape[0]
            est[a:b] = np.abs(rows.sums(scaled))
            (s_count, s_mass), (t_count, t_mass) = (rows.s @ weights).T, (rows.t @ weights).T
            terms[a:b] = s_count + t_count
            mass[a:b] = np.minimum(s_mass, t_mass)
            mass[a + rows.meet] += 0.5 * (rows.r @ weights[:, 1])
            del rows  # its float masks go before the next block's are made
        slack = (1.0 + 2.0**-20) / (1.0 - _gamma32(2 * n))
        tiny = 8.0 * (n + 1) ** 2 * (2.0**-126 + scale * 2.0**-1022)
        return est, _gamma32(terms) * mass * slack + tiny


def _gamma32(k):
    """Higham's ``gamma_k = k u / (1 - k u)`` at float32's unit round-off ``u = 2^-24``."""
    return k * 2.0**-24 / (1.0 - k * 2.0**-24)


def _largest_abs(res: np.ndarray) -> float:
    """``max |res|``, 0 for an empty residual, with no array of absolute values."""
    return float(max(res.max(), -res.min())) if res.size else 0.0


def disagreement_cut_form(clustering: Clustering, graph: SignedGraph) -> float:
    """Disagreement assembled from per-cluster cut terms.

    Negative weight inside each cluster, plus half the positive weight
    leaving each cluster (each crossing pair is seen from both of its
    clusters, hence the half).  Agrees exactly with :func:`disagreement`.
    """
    _check_compatible(clustering, graph)
    total = 0.0
    vertices = np.arange(graph.n)
    for cid in range(clustering.k):
        inside = clustering.members(cid)
        outside = vertices[clustering.assignment != cid]
        total += signed_cut_weight(graph, inside, inside, -1)
        total += 0.5 * signed_cut_weight(graph, inside, outside, +1)
    return total


def neighbor_distance(a: SignedGraph, b: SignedGraph) -> float:
    """L1 distance between signed weight vectors, over the union of pairs.

    Graphs at distance <= 2 are neighbors for the privacy definitions used
    here; flipping the sign of one unit-weight edge gives exactly 2.
    Parallel pairs enter through their net (positive minus negative)
    weight.
    """
    if a.n != b.n:
        raise ContractViolation("graphs must share a vertex set")
    ka = a.pair_u * a.n + a.pair_v
    kb = b.pair_u * b.n + b.pair_v
    keys = np.union1d(ka, kb)
    va = np.zeros(keys.size)
    vb = np.zeros(keys.size)
    va[np.searchsorted(keys, ka)] = a.pos_w - a.neg_w
    vb[np.searchsorted(keys, kb)] = b.pos_w - b.neg_w
    return float(np.abs(va - vb).sum())


def split_signs(graph: SignedGraph) -> tuple[SignedGraph, SignedGraph]:
    """Separate the positive and negative channels onto the same vertices."""
    pos_keep = graph.pos_w > 0
    neg_keep = graph.neg_w > 0
    gplus = SignedGraph(
        graph.n,
        graph.pair_u[pos_keep],
        graph.pair_v[pos_keep],
        graph.pos_w[pos_keep],
        np.zeros(int(pos_keep.sum())),
    )
    gminus = SignedGraph(
        graph.n,
        graph.pair_u[neg_keep],
        graph.pair_v[neg_keep],
        np.zeros(int(neg_keep.sum())),
        graph.neg_w[neg_keep],
    )
    return gplus, gminus
