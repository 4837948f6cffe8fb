"""One workload run in a fresh process: set up, measure, check, report.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and the BLAS thread
count capped.  Two modes:

``setup``  import ``privcc`` and generate every instance of the batch,
           then print the elapsed time (one ``setup_s`` sample);
``run``    run the workload's cells in a closed loop (one client, one
           cell after another) for ``--seconds``, check every output and
           print one JSON object with the metrics of the chosen mode.

Run alone for debugging from the repository root:
``PYTHONPATH=src python3 perfbench/worker.py run --workload planted-lp --seed 1``
"""

import time

_T0 = time.perf_counter()  # set-up time counts the imports below

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from collections import defaultdict

import numpy as np

import privcc
from privcc import Clustering, WeightedChannel, disagreement
from privcc import experiments
from privcc.release_weighted import sampled_cut_distance
from privcc.transforms import default_k_prime

from tracing import Tracer
from workloads import WORKLOADS, Cell, Workload

CUT_AUDIT_SAMPLES = 8  # random (S, T) pairs per channel in the weighted cut audit
WARMUP_N = 24  # vertices in the untimed warm-up cell


# ---------------------------------------------------------------------------
# Cells


class ReleaseTap:
    """Keeps the last ``(released, audit)`` pair that ``release_stage`` returned.

    ``run_pipeline`` drops the release audit, which carries the
    ``private`` flag the checks need.
    """

    def __init__(self):
        self.last = None
        self._original = None

    def __enter__(self):
        self._original = original = experiments.release_stage

        @functools.wraps(original)
        def tapped(*args, **kwargs):
            self.last = original(*args, **kwargs)
            return self.last

        experiments.release_stage = tapped
        return self

    def __exit__(self, *exc):
        experiments.release_stage = self._original


def digest(clustering: Clustering, record) -> str:
    h = hashlib.sha256(clustering.assignment.astype("<i8").tobytes())
    h.update(record.csv_row().encode("utf-8"))
    return h.hexdigest()


def check_cell(cell: Cell, graph, clustering, record, audit, unweighted: bool) -> list[str]:
    """Every property a correct cell output has; returns the ones that fail."""
    problems = []
    n = graph.n
    if clustering.n != n:
        problems.append(f"clustering covers {clustering.n} of {n} vertices")
    if record.k_out != clustering.k:
        problems.append(f"record k_out {record.k_out} != clustering k {clustering.k}")
    if cell.config.coarsen_enabled:
        kp = cell.config.coarsen_k or default_k_prime(n)
        if clustering.k > 2 * kp + 1:
            problems.append(f"k_out {clustering.k} > 2k'+1 = {2 * kp + 1}")
    total = graph.total_weight
    if abs(record.err + record.agr - total) > 1e-9 * max(total, 1.0):
        problems.append(f"err + agr = {record.err + record.agr} != total weight {total}")
    if clustering.n == n and disagreement(clustering, graph) != record.err:
        problems.append("record err does not match the clustering")
    if audit is None or not audit.private:
        problems.append("release is not private")
    if record.mechanism != cell.config.mechanism_id() or cell.config.zero_noise:
        problems.append(f"record mechanism {record.mechanism!r} is not the private one")
    if unweighted and record.lambda_residual is None:
        problems.append("no audited lambda")
    values = [record.err, record.agr, record.eta_hat, record.err_on_released]
    values += [v for v in (record.planted_cost, record.lambda_residual) if v is not None]
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite metric in the record")
    return problems


def quality(workload: Workload, graph, truth, released, record, seed: int) -> dict:
    """Output-quality numbers of one cell; all of them repeat for a fixed seed."""
    total = graph.total_weight
    if workload.planted:
        ref = record.planted_cost
    else:
        # no planted truth: the better of the two trivial clusterings
        ref = min(
            disagreement(Clustering.singletons(graph.n), graph),
            disagreement(Clustering.one_cluster(graph.n), graph),
        )
    if workload.unweighted:
        lam = record.lambda_residual
    else:
        # no merge lambda on this route: audit the released channels' cut
        # distance to the true ones instead (evaluation only)
        rng = np.random.default_rng(seed)
        lam = sum(
            sampled_cut_distance(
                WeightedChannel(graph.n, released.channel_flat(sign)),
                WeightedChannel(graph.n, graph.channel_flat(sign)),
                CUT_AUDIT_SAMPLES,
                rng,
            )
            for sign in (1, -1)
        )
    return {
        "err_vs_ref": record.err / ref,
        "err_frac": record.err / total,
        "eta_frac": record.eta_hat / total,
        "lambda_audit": float(lam),
    }


def run_cell(workload, cell, instance, tap) -> dict:
    graph, truth = instance
    out = {"cell": cell.index, "problems": [], "error": None}
    t0 = time.perf_counter()
    try:
        clustering, record = experiments.run_pipeline(
            graph,
            cell.params,
            cell.config,
            cell.seed,
            truth=truth,
            instance_label=cell.spec.label(),
            cell=cell.index,
        )
    except Exception as exc:  # a failed cell is counted, the run goes on
        out["wall_s"] = time.perf_counter() - t0
        out["error"] = f"{type(exc).__name__}: {exc}"
        out["traceback"] = traceback.format_exc()
        return out
    out["wall_s"] = time.perf_counter() - t0
    released, audit = tap.last
    out["problems"] = check_cell(cell, graph, clustering, record, audit, workload.unweighted)
    out["digest"] = digest(clustering, record)
    out["record"] = record
    out["released"] = released
    return out


def run_loop(workload, cells, instances, seconds, tap, executions, first, tracer=None):
    """Cycle through the cells until ``seconds`` pass, finishing at least one pass.

    Appends every cell run to ``executions``; ``first`` maps a cell index
    to its first good run, which later runs must reproduce exactly.
    With a tracer, each cell runs twice in a row, untraced and traced,
    in an order that alternates between cells and passes, so drift in
    machine speed does not bias the trace overhead.  Returns the wall
    times of the complete passes.
    """
    start = time.perf_counter()
    passes = []
    while not passes or time.perf_counter() - start < seconds:
        t_pass = time.perf_counter()
        for cell, instance in zip(cells, instances):
            if passes and time.perf_counter() - start >= seconds:
                break
            if tracer is None:
                modes = (False,)
            else:
                modes = (False, True) if (cell.index + len(passes)) % 2 == 0 else (True, False)
            for traced in modes:
                if traced:
                    tracer.cell = len(executions)
                    tracer.install()
                try:
                    ex = run_cell(workload, cell, instance, tap)
                finally:
                    if traced:
                        tracer.uninstall()
                ex["traced"] = traced
                executions.append(ex)
                if ex["error"] is None:
                    ref = first.setdefault(cell.index, ex)
                    if ref is not ex:
                        del ex["released"]  # only first runs are evaluated further
                        if ex["digest"] != ref["digest"]:
                            ex["problems"].append("output differs from the first run of this cell")
        else:
            passes.append(time.perf_counter() - t_pass)
            continue
        break
    return passes


# ---------------------------------------------------------------------------
# Metrics


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def per_layer_metrics(tracer: Tracer, executions: list[dict]) -> dict:
    """Median over traced cell runs of each layer's self time and counters."""
    rows: dict[int, defaultdict] = {}
    for ex_id, ex in enumerate(executions):
        if ex["traced"]:
            rows[ex_id] = defaultdict(float, wall=ex["wall_s"])
    generate = []
    for span, own in zip(tracer.spans, tracer.self_times()):
        if span.name == "experiments.generate_instance":
            generate.append(own)
        row = rows.get(span.cell)
        if row is None:
            continue
        row[span.name + "_s"] += own
        row[span.name + "_incl_s"] += span.duration
        row[span.name + "_calls"] += 1
        for key, value in span.counters.items():
            row[f"{span.name}.{key}"] += value

    def per_cell(r):
        merge_s = r["release_unweighted.solve_merge_lp_s"]
        iters = r["release_unweighted.solve_merge_lp.iterations"]
        gflop = r["release_unweighted.solve_merge_lp.gflop"]
        ls_s = r["solvers.local_search_s"]
        ls_calls = r["solvers.local_search_calls"]
        moved = r["solvers.local_search.moved"]
        pivots = r["solvers.pivot_kwikcluster_calls"]
        coarsens = r["transforms.coarsen_calls"]
        return {
            "experiments.release_stage_s": r["experiments.release_stage_s"],
            "experiments.postprocess_stage_s": r["experiments.postprocess_stage_s"],
            "experiments.evaluate_stage_s": r["experiments.evaluate_stage_s"],
            "experiments.release_stage_incl_s": r["experiments.release_stage_incl_s"],
            "experiments.postprocess_stage_incl_s": r["experiments.postprocess_stage_incl_s"],
            "experiments.evaluate_stage_incl_s": r["experiments.evaluate_stage_incl_s"],
            "release_unweighted.solve_merge_lp_s": merge_s,
            "release_unweighted.solve_merge_lp_calls": r["release_unweighted.solve_merge_lp_calls"],
            "release_unweighted.solve_merge_lp_share": merge_s / r["wall"],
            "release_unweighted.merge_iterations": iters,
            "release_unweighted.merge_ms_per_iter": 1000.0 * merge_s / iters if iters else 0.0,
            "release_unweighted.merge_gflop_computed": gflop,
            "release_unweighted.merge_gflops": gflop / merge_s if gflop else 0.0,
            "release_unweighted.laplace_release_s": r["release_unweighted.laplace_release_s"],
            "release_unweighted.round_to_signed_s": r["release_unweighted.round_to_signed_s"],
            "release_weighted.release_weighted_s": r["release_weighted.release_weighted_s"],
            "solvers.solve_s": r["solvers.solve_s"],
            "solvers.pivot_kwikcluster_s": r["solvers.pivot_kwikcluster_s"],
            "solvers.pivot_clusters_mean": (
                r["solvers.pivot_kwikcluster.clusters"] / pivots if pivots else 0.0
            ),
            "solvers.local_search_s": ls_s,
            "solvers.local_search_share": ls_s / r["wall"],
            "solvers.local_search_calls": ls_calls,
            "solvers.local_search_moved": moved,
            "solvers.local_search_ms_per_moved": 1000.0 * ls_s / moved if moved else 0.0,
            "solvers.local_search_start_k_mean": (
                r["solvers.local_search.start_k"] / ls_calls if ls_calls else 0.0
            ),
            "transforms.split_roundtrip_s": r["transforms.split_transform_s"]
            + r["transforms.contract_coupled_s"]
            + r["transforms.unsplit_s"],
            "transforms.coarsen_s": r["transforms.coarsen_s"],
            "transforms.coarsen_k_before": (
                r["transforms.coarsen.k_before"] / coarsens if coarsens else 0.0
            ),
            "graphs.disagreement_s": r["graphs.disagreement_s"],
            "graphs.disagreement_calls": r["graphs.disagreement_calls"],
        }

    cells = [per_cell(r) for r in rows.values()]
    out = {name: _median(c[name] for c in cells) for name in cells[0]} if cells else {}
    out["experiments.generate_instance_s"] = _median(generate)
    return out


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):  # layout differs across numpy versions
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas": blas,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu_model": cpu,
        "privcc": privcc.__version__,
    }


# ---------------------------------------------------------------------------
# Entry points


def warm_up(workload: Workload) -> None:
    """One small untimed cell: loads code paths and starts the BLAS threads."""
    cell = workload.cells(seed=0, n=WARMUP_N, count=1)[0]
    graph, truth = experiments.generate_instance(cell.spec)
    experiments.run_pipeline(graph, cell.params, cell.config, cell.seed, truth=truth)


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    n: int | None = None,
    count: int | None = None,
    spans_path: str | None = None,
) -> dict:
    """Measure one workload; the returned dict is what the worker prints."""
    cells = workload.cells(seed, n=n, count=count)
    instances = [experiments.generate_instance(c.spec) for c in cells]
    warm_up(workload)
    executions: list[dict] = []
    first: dict[int, dict] = {}
    tracer = Tracer() if trace else None
    if tracer is not None:  # spans for experiments.generate_instance_s
        tracer.install()
        try:
            for c in cells:
                experiments.generate_instance(c.spec)
        finally:
            tracer.uninstall()
    with ReleaseTap() as tap:
        passes = run_loop(workload, cells, instances, seconds, tap, executions, first, tracer)

    failed = [ex for ex in executions if ex["error"] or ex["problems"]]

    cell_reports = []
    for cell, instance in zip(cells, instances):
        ex = first.get(cell.index)
        report = {"index": cell.index, "instance": cell.spec.label(), "seed": cell.seed}
        if ex is not None:
            graph, truth = instance
            report["digest"] = ex["digest"]
            report["csv_row"] = ex["record"].csv_row()
            report["quality"] = quality(
                workload, graph, truth, ex["released"], ex["record"], cell.seed
            )
        cell_reports.append(report)
    batch_digest = hashlib.sha256(
        "\n".join(r.get("digest", "failed") for r in cell_reports).encode()
    ).hexdigest()

    untraced_cell_s = _median(ex["wall_s"] for ex in executions if not ex["traced"])
    q = [r["quality"] for r in cell_reports if "quality" in r]
    if trace:
        metrics = per_layer_metrics(tracer, executions)
        metrics["experiments.eta_frac"] = _median(x["eta_frac"] for x in q)
        metrics["traced_cell_s"] = _median(ex["wall_s"] for ex in executions if ex["traced"])
        metrics["trace_overhead_s"] = metrics["traced_cell_s"] - untraced_cell_s
        if spans_path:
            tracer.write(spans_path)
    else:
        metrics = {
            "cell_s": untraced_cell_s,
            "batch_s": _median(passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **{k: _median(x[k] for x in q) for k in ("err_vs_ref", "err_frac", "lambda_audit")},
        }
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "env": environment(),
        "attempted": len(executions),
        "failed": len(failed),
        "failures": [
            {k: ex.get(k) for k in ("cell", "error", "problems", "traceback")}
            for ex in failed
        ],
        "digest": batch_digest[:16],
        "cells": cell_reports,
        "passes": passes,
        "runs": [
            {k: ex.get(k) for k in ("cell", "traced", "wall_s", "digest")} for ex in executions
        ],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="write the traced run's spans here (JSONL)")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        for cell in workload.cells(args.seed):
            experiments.generate_instance(cell.spec)
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0
    result = run_workload(
        workload, args.seed, args.seconds, bool(args.trace), spans_path=args.spans
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
