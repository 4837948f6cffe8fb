"""Instance generators, the release-then-solve pipeline, and the matrix runner.

A pipeline run has three strictly separated stages:

* release: the only stage that reads the private graph;
* postprocess: solving at the cluster cap, which sees the released graph
  only (its functions do not take the private graph as a parameter);
* evaluate: recomputes objectives on the true graph for reporting.  This
  read is evaluation-only and every emitted record carries
  ``nonprivate_eval: true`` to make that explicit.

Records are emitted twice: a CSV row with the plot-ready, deterministic
fields (identical bytes for identical seeds; :mod:`csv` quotes the
instance labels and solver ids, which hold commas), and a JSONL record
that additionally carries wall times (total and per stage) and the
release's whole audit under ``release``
(:meth:`ReleaseOutput.audit_dict`, None on the exponential route).  The
split is declared once, on the fields of :class:`ExperimentRecord`: a
field marked ``jsonl_only`` in its metadata stays out of the CSV, and
both ``CSV_HEADER`` and ``csv_row`` are derived from the rest.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import logging
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from ._rng import make_rng, stream_id
from .graphs import (
    ENGINES,
    Clustering,
    ContractViolation,
    PrivacyParams,
    ReleaseOutput,
    SignedGraph,
    agreement,
    canonical_pairs,
    disagreement,
    require_count,
    require_number,
)
from .io import read_edge_list
from .packing import path_graph, random_signs
from .release_unweighted import MergeConfig, release_unweighted
from .release_weighted import release_weighted
from .solvers import SolverConfig, solve
from .transforms import contract_coupled, default_k_prime, split_transform, unsplit
from .expmech import exponential_mechanism

__all__ = [
    "InstanceSpec",
    "PipelineConfig",
    "ExperimentRecord",
    "generate_instance",
    "run_pipeline",
    "release_stage",
    "postprocess_stage",
    "evaluate_stage",
    "run_matrix",
    "CSV_HEADER",
]

_log = logging.getLogger("privcc")


# ---------------------------------------------------------------------------
# Instances


@dataclass(frozen=True)
class InstanceSpec:
    kind: str  # planted | random-signs | path | weighted-random | file
    n: int = 0
    clusters: int = 2
    flip_prob: float = 0.0
    edge_weight: float = 1.0
    weight_dist: str = "unit"  # unit | uniform | exponential
    density: float = 1.0
    seed: int = 0
    path: str | None = None

    def __post_init__(self):
        kinds = ("planted", "random-signs", "path", "weighted-random", "file")
        if self.kind not in kinds:
            raise ContractViolation(f"instance kind must be one of {kinds}")
        if self.kind != "file":  # a file instance takes its n from the file
            require_count(self.n, "n")
            if self.n < 2:
                raise ContractViolation("need n >= 2")
        require_count(self.clusters, "clusters")
        require_number(self.seed, "seed", integer=True)
        if not 0 <= self.flip_prob <= 1:
            raise ContractViolation("flip_prob must be in [0, 1]")
        if self.kind == "planted" and not 1 <= self.clusters <= self.n:
            raise ContractViolation(f"planted clusters must be in [1, n], got {self.clusters}")
        if self.weight_dist not in ("unit", "uniform", "exponential"):
            raise ContractViolation(f"unknown weight_dist {self.weight_dist!r}")
        if not 0 < self.density <= 1:
            raise ContractViolation("density must be in (0, 1]")
        if self.kind in ("path", "weighted-random") and not 0 < self.edge_weight < np.inf:
            raise ContractViolation(
                f"edge_weight must be positive and finite, got {self.edge_weight}"
            )
        if self.kind == "file" and not self.path:
            raise ContractViolation("file instances need a path")

    def label(self) -> str:
        if self.kind == "file":
            return f"file({os.path.basename(self.path or '')})"
        if self.kind == "planted":
            return f"planted(n={self.n},k={self.clusters},p={self.flip_prob},seed={self.seed})"
        if self.kind == "path":
            return f"path(n={self.n},w={self.edge_weight},seed={self.seed})"
        if self.kind == "weighted-random":
            return (
                f"weighted-random(n={self.n},dist={self.weight_dist},w={self.edge_weight},"
                f"density={self.density},seed={self.seed})"
            )
        return f"random-signs(n={self.n},seed={self.seed})"


def generate_instance(spec: InstanceSpec) -> tuple[SignedGraph, Clustering | None]:
    """Materialize an instance; planted instances also return the truth."""
    rng = make_rng(spec.seed, "instance", spec.kind, spec.n)
    if spec.kind == "file":
        return read_edge_list(spec.path), None
    n = spec.n
    if spec.kind == "planted":
        labels = (np.arange(n) * spec.clusters) // n
        pu, pv = canonical_pairs(n)
        flip = rng.random(pu.size) < spec.flip_prob
        positive = (labels[pu] == labels[pv]) ^ flip
        return SignedGraph.complete_unweighted(n, positive), Clustering(labels)
    if spec.kind == "random-signs":
        positive = rng.random(n * (n - 1) // 2) < 0.5
        return SignedGraph.complete_unweighted(n, positive), None
    if spec.kind == "path":
        return path_graph(random_signs(n - 1, rng), spec.edge_weight), None
    # weighted-random
    pu, pv = canonical_pairs(n)
    present = rng.random(pu.size) < spec.density
    pu, pv = pu[present], pv[present]
    if spec.weight_dist == "unit":
        w = np.full(pu.size, spec.edge_weight)
    elif spec.weight_dist == "uniform":
        w = rng.random(pu.size) * spec.edge_weight
    else:
        w = rng.exponential(spec.edge_weight, size=pu.size)
    positive = rng.random(pu.size) < 0.5
    keep = w > 0
    pu, pv, w, positive = pu[keep], pv[keep], w[keep], positive[keep]
    pos = np.where(positive, w, 0.0)
    neg = np.where(positive, 0.0, w)
    return SignedGraph(n, pu, pv, pos, neg), None


# ---------------------------------------------------------------------------
# Pipeline


@dataclass(frozen=True)
class PipelineConfig:
    mechanism: str = "unweighted-laplace"  # | weighted-laplace | exponential
    solver: SolverConfig = field(default_factory=SolverConfig)
    merge: MergeConfig = field(default_factory=MergeConfig)
    engine: str = "laplace"  # | zero-noise-test: non-private, pipeline tests only
    coarsen_enabled: bool = True  # cap the solver at k' clusters, or solver.max_clusters if lower
    coarsen_k: int | None = None  # the solver's cap k'; None -> ceil(n^(1/4))

    def __post_init__(self):
        if self.mechanism not in ("unweighted-laplace", "weighted-laplace", "exponential"):
            raise ContractViolation(f"unknown mechanism {self.mechanism!r}")
        if self.engine not in ENGINES:
            raise ContractViolation(f"unknown release engine {self.engine!r}")
        if self.mechanism == "exponential" and self.zero_noise:
            raise ContractViolation("the exponential mechanism has no zero-noise engine")
        if self.coarsen_k is not None:
            require_count(self.coarsen_k, "coarsen_k")

    @property
    def zero_noise(self) -> bool:
        """True when the release adds no noise, so the output is not private."""
        return self.engine == "zero-noise-test"

    def mechanism_id(self) -> str:
        return self.mechanism + ("+zero-noise" if self.zero_noise else "")

    def solver_id(self) -> str:
        if self.mechanism == "exponential":  # it samples a clustering; no solver runs
            return "none"
        cfg = self.solver
        k = f",k<={cfg.max_clusters}" if cfg.max_clusters else ""
        return f"min-disagreement(restarts={cfg.restarts}{k})"


_JSONL_ONLY = {"jsonl_only": True}


@dataclass(frozen=True)
class ExperimentRecord:
    cell: int
    instance: str
    mechanism: str
    solver: str
    epsilon: float
    delta: float
    seed: int
    err: float
    agr: float
    k_out: int
    planted_cost: float | None
    err_on_released: float
    eta_hat: float
    lambda_residual: float | None
    # JSONL only: wall time differs between reruns; the others are not plot data
    wall_ms: float = field(default=0.0, metadata=_JSONL_ONLY)
    nonprivate_eval: bool = field(default=True, metadata=_JSONL_ONLY)
    release: dict | None = field(default=None, metadata=_JSONL_ONLY)
    # per-stage wall times; the exponential route's sampling counts as release
    release_stage_ms: float | None = field(default=None, metadata=_JSONL_ONLY)
    postprocess_stage_ms: float | None = field(default=None, metadata=_JSONL_ONLY)
    evaluate_stage_ms: float | None = field(default=None, metadata=_JSONL_ONLY)

    def csv_row(self) -> str:
        """The CSV fields as one line without its newline, quoted only where a field needs it."""
        import csv  # here, so that importing privcc does not import it

        def fmt(x):
            if x is None:
                return ""
            if isinstance(x, float):
                return repr(x)
            return str(x)

        line = io.StringIO()
        csv.writer(line, lineterminator="\n").writerow(fmt(getattr(self, f)) for f in _CSV_FIELDS)
        return line.getvalue()[:-1]

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


_CSV_FIELDS = tuple(
    f.name for f in fields(ExperimentRecord) if not f.metadata.get("jsonl_only")
)
CSV_HEADER = ",".join(_CSV_FIELDS)


def release_stage(
    graph: SignedGraph, params: PrivacyParams, config: PipelineConfig, seed: int
) -> tuple[SignedGraph, ReleaseOutput]:
    """The only stage with access to the private graph."""
    rng = make_rng(seed, "release")
    if config.mechanism == "unweighted-laplace":
        return release_unweighted(graph, params, config.merge, rng, seed=seed, engine=config.engine)
    if config.mechanism == "weighted-laplace":
        return release_weighted(graph, params, config.engine, rng, seed=seed)
    raise ContractViolation(f"mechanism {config.mechanism!r} has no release stage")


def postprocess_stage(released: SignedGraph, config: PipelineConfig, seed: int) -> Clustering:
    """Solve on the released graph at the cluster cap; never sees the input.

    With ``coarsen_enabled`` the solver keeps at most k' clusters (``coarsen_k``,
    else ``default_k_prime(n)``), or ``solver.max_clusters`` if lower: it
    searches directly the capped class whose cost the paper's coarsening bounds.
    """
    solver = config.solver
    if config.coarsen_enabled:
        kp = config.coarsen_k or default_k_prime(released.n)
        solver = replace(solver, max_clusters=min(kp, solver.max_clusters or kp))
    if config.mechanism == "weighted-laplace":
        h_split, mapping = split_transform(released)
        core = contract_coupled(h_split, mapping)
        meta = solve(core, solver, seed)
        lifted = Clustering(np.concatenate([meta.assignment, meta.assignment]))
        return unsplit(lifted, mapping)
    return solve(released, solver, seed)


def evaluate_stage(
    graph: SignedGraph,
    clustering: Clustering,
    released: SignedGraph,
    truth: Clustering | None,
) -> dict:
    """Evaluation-only reads of the private graph, flagged in the record."""
    err = disagreement(clustering, graph)
    agr = agreement(clustering, graph)
    total = graph.total_weight
    if abs((err + agr) - total) > 1e-9 * max(total, 1.0):
        raise AssertionError("conservation violated in evaluation")
    err_h = disagreement(clustering, released)
    return {
        "err": err,
        "agr": agr,
        "k_out": clustering.k,
        "planted_cost": disagreement(truth, graph) if truth is not None else None,
        "err_on_released": err_h,
        "eta_hat": abs(err - err_h),
    }


def run_pipeline(
    graph: SignedGraph,
    params: PrivacyParams,
    config: PipelineConfig,
    seed: int,
    truth: Clustering | None = None,
    instance_label: str = "",
    cell: int = 0,
) -> tuple[Clustering, ExperimentRecord]:
    """Release, solve at the cluster cap, then evaluate against the true graph."""
    t0 = time.perf_counter()
    if config.mechanism == "exponential":
        rng = make_rng(seed, "exp-mech")
        clustering = exponential_mechanism(graph, params, rng)
        released = graph  # no synthetic graph in this route
        audit = None
        t_release = t_post = time.perf_counter()
    else:
        released, audit = release_stage(graph, params, config, seed)
        t_release = time.perf_counter()
        clustering = postprocess_stage(released, config, seed)
        t_post = time.perf_counter()
    metrics = evaluate_stage(graph, clustering, released, truth)
    t_end = time.perf_counter()
    record = ExperimentRecord(
        cell=cell,
        instance=instance_label,
        mechanism=config.mechanism_id(),
        solver=config.solver_id(),
        epsilon=params.epsilon,
        delta=params.delta,
        seed=seed,
        lambda_residual=audit.lambda_residual if audit else None,
        wall_ms=(t_end - t0) * 1000.0,  # includes evaluation
        release=audit.audit_dict() if audit else None,
        release_stage_ms=(t_release - t0) * 1000.0,
        postprocess_stage_ms=(t_post - t_release) * 1000.0 if audit else None,
        evaluate_stage_ms=(t_end - t_post) * 1000.0,
        **metrics,
    )
    return clustering, record


# ---------------------------------------------------------------------------
# Matrix runner


def _refuse_unknown(d: dict, allowed: set, where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ContractViolation(f"unknown {where} keys: {', '.join(sorted(unknown))}")


def _from_dict(cls, d: dict, where: str):
    """``cls(**d)``, refusing keys that are not fields of ``cls``."""
    _refuse_unknown(d, {f.name for f in fields(cls)}, where)
    return cls(**d)


def _pipeline_from_dict(d: dict) -> PipelineConfig:
    keys = dict(d)
    keys["solver"] = _from_dict(SolverConfig, d.get("solver", {}), "solver")
    keys["merge"] = _from_dict(MergeConfig, d.get("merge", {}), "merge")
    return _from_dict(PipelineConfig, keys, "pipeline")


def _cell_of(line: str) -> int | None:
    """The cell id of a CSV row; None for the header or a blank line."""
    if not line.strip() or line.startswith("cell,"):
        return None
    return int(line.split(",", 1)[0])


def _done_cells(csv_path: str, jsonl_path: str | None) -> set[int]:
    """Cells recorded in the CSV and, when a JSONL is kept, in the JSONL too.

    Torn last lines, cut off before their newline, are dropped first.  A
    CSV row is written before its JSONL row, so a run stopped between the
    two leaves a last CSV row with no JSONL record; it is cut off too, and
    its cell runs again.
    """
    for path in (csv_path, jsonl_path):
        if path and os.path.exists(path):
            with open(path, "rb+") as fh:
                data = fh.read()
                if data and not data.endswith(b"\n"):
                    fh.truncate(data.rfind(b"\n") + 1)
    with open(csv_path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    done = {c for c in map(_cell_of, lines) if c is not None}
    if jsonl_path is None:
        return done
    logged: set[int | None] = {None}  # the header and blank lines stay
    if os.path.exists(jsonl_path):
        with open(jsonl_path, "r", encoding="utf-8") as fh:
            logged |= {json.loads(ln)["cell"] for ln in fh if ln.strip()}
    keep = len(lines)
    while keep and _cell_of(lines[keep - 1]) not in logged:
        keep -= 1
    if keep < len(lines):
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:keep])
    return done & logged


_MATRIX_KEYS = {"instances", "epsilons", "pipelines", "seeds", "delta", "master_seed"}


def run_matrix(
    matrix: dict,
    csv_path: str,
    jsonl_path: str | None = None,
    resume: bool = True,
) -> list[ExperimentRecord]:
    """Cartesian product of instances, epsilons, pipelines and seed replicates.

    ``matrix`` needs ``instances``, ``epsilons`` and ``pipelines``, and may
    give ``seeds`` (default ``[0]``), ``delta`` and ``master_seed``; a
    missing or an unknown key is a :class:`ContractViolation`, and so is a
    seed that is not an integer, or an epsilon or delta that is no number or
    outside its range.
    Each cell's seed is a hash of ``master_seed``, its index and its
    replicate's value from ``seeds``, so ``[5]`` runs other cells than
    ``[0]``.

    Cells are enumerated in deterministic order and written as they
    finish through a single writer.  With ``resume``, cells whose ids
    already appear in the CSV (and in the JSONL, if one is kept) are
    skipped, so an interrupted run picks up where it left off and
    converges to the same files; a last row cut off mid-write (no trailing
    newline), or a last CSV row without its JSONL record, is dropped and
    its cell runs again.

    A failed cell writes no row and does not stop the matrix; resume runs
    it again.  It is logged as an error on the ``privcc`` logger (on
    stderr unless the caller configures logging), and when a JSONL is
    kept, one ``{cell, instance, error, message}`` line goes to
    ``<jsonl>.failures.jsonl``, which starts empty with the JSONL and is
    appended to on resume.
    """
    if not isinstance(matrix, dict):
        raise ContractViolation(f"a matrix config is an object of keys, not {type(matrix).__name__}")
    _refuse_unknown(matrix, _MATRIX_KEYS, "matrix")
    missing = {"instances", "epsilons", "pipelines"} - set(matrix)
    if missing:
        raise ContractViolation(f"missing matrix keys: {', '.join(sorted(missing))}")
    master_seed = require_number(matrix.get("master_seed", 0), "master_seed", integer=True)
    specs = [_from_dict(InstanceSpec, s, "instance") for s in matrix["instances"]]
    delta = float(require_number(matrix.get("delta", 0.0), "delta"))
    budgets = [PrivacyParams(float(require_number(e, "epsilons")), delta)
               for e in matrix["epsilons"]]
    pipelines = [_pipeline_from_dict(p) for p in matrix["pipelines"]]
    replicates = [require_number(s, "seeds", integer=True) for s in matrix.get("seeds", [0])]
    if not all(-(2**63) <= s < 2**63 for s in (master_seed, *replicates)):
        raise ContractViolation("master_seed and seeds must fit in 64 signed bits")

    resuming = resume and os.path.exists(csv_path)
    done = _done_cells(csv_path, jsonl_path) if resuming else set()
    mode = "a" if resuming else "w"
    records: list[ExperimentRecord] = []
    with contextlib.ExitStack() as files:
        csv_fh = files.enter_context(open(csv_path, mode, encoding="utf-8"))
        jsonl_fh = failures_fh = None
        if jsonl_path:
            jsonl_fh = files.enter_context(open(jsonl_path, mode, encoding="utf-8"))
            failures_fh = files.enter_context(
                open(jsonl_path + ".failures.jsonl", mode, encoding="utf-8")
            )
        if csv_fh.tell() == 0:
            csv_fh.write(CSV_HEADER + "\n")
        cells = itertools.product(specs, budgets, pipelines, replicates)
        for cell_index, (spec, params, pipe, rep) in enumerate(cells):
            if cell_index in done:
                continue
            try:
                graph, truth = generate_instance(spec)
                cell_seed = stream_id("cell", master_seed, cell_index, rep) >> 1
                _, record = run_pipeline(
                    graph,
                    params,
                    pipe,
                    cell_seed,
                    truth=truth,
                    instance_label=spec.label(),
                    cell=cell_index,
                )
            except Exception as exc:  # reported per cell, the matrix continues
                _log.error("cell %d failed: %s: %s", cell_index, type(exc).__name__, exc,
                           exc_info=True)
                if failures_fh:
                    failure = {"cell": cell_index, "instance": spec.label(),
                               "error": type(exc).__name__, "message": str(exc)}
                    failures_fh.write(json.dumps(failure) + "\n")
                    failures_fh.flush()
                continue
            csv_fh.write(record.csv_row() + "\n")
            csv_fh.flush()
            if jsonl_fh:
                jsonl_fh.write(record.to_json() + "\n")
                jsonl_fh.flush()
            records.append(record)
    return records
