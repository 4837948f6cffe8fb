"""Signed-graph and clustering data model plus the objective arithmetic.

A :class:`SignedGraph` stores, per unordered vertex pair, a non-negative
weight on a positive channel and one on a negative channel.  Ordinary
signed graphs carry weight on at most one channel per pair; a pair may
carry both (a parallel pair: one positive and one negative edge between
the same endpoints).  A pair is absent exactly when both channel weights
are zero.  Everything a graph is follows from its arrays: it is complete
exactly when every pair carries positive weight.

All types are immutable after construction (backing arrays are marked
read-only) and every operation in this module is a pure function, so
values can be shared freely across threads.

Weights are float64.  Integer-valued weights stay exact under summation
well past desk scale (sums are exact below 2**53), so the conservation
identity ``disagreement + agreement == total_weight`` is bit-exact on
unweighted graphs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ContractViolation",
    "SizeRefusal",
    "SignedGraph",
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
    "cut_sums",
]


class ContractViolation(ValueError):
    """An argument breaks a documented precondition."""


class SizeRefusal(RuntimeError):
    """Instance exceeds a hard size limit; refused rather than degraded."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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
        n = int(n)
        if n < 1:
            raise ContractViolation(f"need at least one vertex, got n={n}")
        u = np.asarray(pair_u, dtype=np.int64).copy()
        v = np.asarray(pair_v, dtype=np.int64).copy()
        pw = np.asarray(pos_w, dtype=np.float64).copy()
        nw = np.asarray(neg_w, dtype=np.float64).copy()
        if not (u.shape == v.shape == pw.shape == nw.shape) or u.ndim != 1:
            raise ContractViolation("edge arrays must be 1-d and equally long")
        if u.size:
            if u.min() < 0 or v.max() >= n:
                raise ContractViolation("vertex index out of range")
            if np.any(u >= v):
                raise ContractViolation("pairs must be canonical (u < v)")
            key = u * n + v
            if np.any(np.diff(key) <= 0):
                raise ContractViolation("pairs must be sorted and unique")
        if not (np.all(np.isfinite(pw)) and np.all(np.isfinite(nw))):
            raise ContractViolation("weights must be finite")
        if (pw < 0).any() or (nw < 0).any():
            raise ContractViolation("weights must be non-negative")
        self.n = n
        self.complete = u.size == n * (n - 1) // 2 and bool(np.all(pw + nw > 0))
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
        pu, pv = np.triu_indices(n, 1)
        pos = np.asarray(positive, dtype=bool).astype(np.float64)
        return cls(n, pu, pv, pos, 1.0 - pos)

    @classmethod
    def from_channel_arrays(
        cls,
        n: int,
        pos_flat: np.ndarray,
        neg_flat: np.ndarray,
    ) -> "SignedGraph":
        """Build from flat per-pair channel weights in canonical order, dropping zero pairs."""
        pu, pv = np.triu_indices(n, 1)
        pos_flat = np.asarray(pos_flat, dtype=np.float64)
        neg_flat = np.asarray(neg_flat, dtype=np.float64)
        if pos_flat.shape != pu.shape or neg_flat.shape != pu.shape:
            raise ContractViolation("channel arrays must cover all pairs")
        keep = (pos_flat > 0) | (neg_flat > 0)
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

    def channel_matrix(self, sign: int) -> np.ndarray:
        """Dense symmetric n-by-n weight matrix of one sign channel."""
        w = self.pos_w if sign == 1 else self.neg_w
        return _symmetric(self.n, self.pair_u, self.pair_v, w)

    def channel_flat(self, sign: int) -> np.ndarray:
        """Flat canonical-order channel weights over all C(n,2) pairs."""
        w = self.pos_w if sign == 1 else self.neg_w
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
        n = int(n)
        values = np.asarray(values, dtype=np.float64).copy()
        if values.shape != (n * (n - 1) // 2,):
            raise ContractViolation("need one value per unordered pair")
        if not np.all(np.isfinite(values)):
            raise ContractViolation("channel values must be finite")
        self.n = n
        self.values = _readonly(values)

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "WeightedChannel":
        m = np.asarray(m, dtype=np.float64)
        n = m.shape[0]
        pu, pv = np.triu_indices(n, 1)
        return cls(n, m[pu, pv])

    def matrix(self) -> np.ndarray:
        """Dense symmetric n-by-n matrix of the pair values."""
        pu, pv = np.triu_indices(self.n, 1)
        return _symmetric(self.n, pu, pv, self.values)

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
    The test engine adds no noise, so its scale is 0.
    """
    if engine not in ENGINES:
        raise ContractViolation(f"unknown release engine {engine!r}")
    return 0.0 if engine == "zero-noise-test" else sensitivity / epsilon


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

    Holds the float masks ``s`` and ``t``, the indices ``meet`` of the rows
    where S and T overlap, those rows' overlap masks ``r`` (the overlap is
    empty elsewhere) and ``sizes``, the number of pairs each cut counts.
    """

    __slots__ = ("s", "t", "meet", "r", "sizes", "_shared")

    def __init__(self, s_rows: np.ndarray, t_rows: np.ndarray):
        overlap = s_rows & t_rows
        self.s = s_rows.astype(np.float64)
        self.t = t_rows.astype(np.float64)
        self.meet = np.flatnonzero(overlap.any(axis=1))
        self.r = overlap[self.meet].astype(np.float64)
        rsz = overlap.sum(axis=1).astype(np.float64)
        self.sizes = self.s.sum(axis=1) * self.t.sum(axis=1) - 0.5 * rsz * (rsz + 1.0)
        self._shared = (-1, None)  # the last row asked of shared_pairs, and its counts

    def sums(self, matrix: np.ndarray) -> np.ndarray:
        """Cut sums ``s' M t - (r' M r) / 2`` of a symmetric M, each pair once."""
        cs = ((self.s @ matrix) * self.t).sum(axis=1)
        cs[self.meet] -= 0.5 * ((self.r @ matrix) * self.r).sum(axis=1)
        return cs

    def shared_pairs(self, i: int) -> np.ndarray:
        """Pairs each row's cut shares with row ``i``'s cut; ``sums(H_i)``.

        ``H_i = s t' + t s' - r r' - diag(r)`` is the 0/1 pair mask of cut
        i, so every term is a product of row dots with i's three masks:
        three (3, n) by (n, rows) products instead of one with an n-by-n
        matrix.  The counts are integers, so exact in float64.  The last
        row's counts are kept and returned read-only, since the merge steps
        one row many times running.
        """
        if self._shared[0] == i:
            return self._shared[1]
        s, t = self.s[i], self.t[i]
        masks = np.stack([s, t, s * t])
        a_s, a_t, a_r = masks @ self.s.T
        b_s, b_t, b_r = masks @ self.t.T
        count = a_s * b_t + a_t * b_s - a_r * b_r
        q_s, q_t, q_r = masks @ self.r.T
        count[self.meet] -= q_r + 0.5 * (2.0 * q_s * q_t - q_r**2 - q_r)
        count.flags.writeable = False
        self._shared = (i, count)
        return count


def cut_sums(matrix: np.ndarray, s_rows: np.ndarray, t_rows: np.ndarray) -> np.ndarray:
    """Counted-once cut sums of a symmetric matrix for every (S, T) row."""
    return CutRows(s_rows, t_rows).sums(matrix)


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
