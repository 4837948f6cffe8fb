"""Command-line front end.

Subcommands: generate, release, cluster, pipeline, matrix, verify-dp,
lowerbound, audit-cuts.  Exit codes: 0 ok, 1 check failed, 2 bad input
(a contract violation, a path that cannot be read or written, or a
matrix config that is not JSON), 3 refusal (size limits).  Every
failure other than a failed check is reported on one stderr line.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from ._rng import make_rng
from .graphs import (
    ContractViolation,
    PrivacyParams,
    SignedGraph,
    SizeRefusal,
    WeightedChannel,
    agreement,
    disagreement,
)
from .io import format_edge_list, read_edge_list, write_edge_list
from .release_unweighted import MergeConfig
from .release_weighted import sampled_cut_distance, sign_channels
from .expmech import exact_output_distribution, exponential_mechanism
from .experiments import (
    CSV_HEADER,
    InstanceSpec,
    PipelineConfig,
    generate_instance,
    release_stage,
    run_matrix,
    run_pipeline,
)
from .packing import PACKING_CSV_HEADER, brute_force_code, packing_experiment
from .solvers import (
    SolverConfig,
    cap_clusters,
    local_search,
    pivot_kwikcluster,
    solve,
    solve_exact,
)


_ENGINE_HELP = "laplace, or zero-noise-test (UNSAFE: adds no noise, not private; tests only)"


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", type=str, default=None)


def _instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", default="planted",
                   choices=["planted", "random-signs", "path", "weighted-random"])
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--k", type=int, default=2, help="planted cluster count")
    p.add_argument("--p", type=float, default=0.0, help="planted flip probability")
    p.add_argument("--weight-dist", default="unit",
                   choices=["unit", "uniform", "exponential"])
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--edge-weight", type=float, default=1.0)


def _spec_from_args(args) -> InstanceSpec:
    return InstanceSpec(
        kind=args.kind,
        n=args.n,
        clusters=args.k,
        flip_prob=args.p,
        weight_dist=args.weight_dist,
        density=args.density,
        edge_weight=args.edge_weight,
        seed=args.seed,
    )


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_generate(args) -> int:
    spec = _spec_from_args(args)
    graph, truth = generate_instance(spec)
    _emit(format_edge_list(graph), args.output)
    if args.truth_output and truth is not None:
        with open(args.truth_output, "w", encoding="utf-8") as fh:
            json.dump({"n": truth.n, "k": truth.k,
                       "assignment": truth.assignment.tolist()}, fh)
    return 0


def _cmd_release(args) -> int:
    graph = read_edge_list(args.input)
    params = PrivacyParams(args.epsilon, args.delta)
    config = PipelineConfig(
        mechanism=args.mechanism,
        merge=MergeConfig(strategy=args.merge_strategy,
                          constraint_budget=args.constraint_budget,
                          iterations=args.merge_iterations),
        engine=args.engine,
    )
    released, audit = release_stage(graph, params, config, args.seed)
    if args.output:
        write_edge_list(released, args.output)
    report = json.dumps(audit.audit_dict(), sort_keys=True)
    if args.audit:
        with open(args.audit, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
    else:
        print(report)
    return 0


def _cmd_cluster(args) -> int:
    graph = read_edge_list(args.input)
    cfg = SolverConfig(max_clusters=args.k, restarts=args.restarts)
    if args.solver == "exact":
        clustering = solve_exact(graph, cfg)
    elif args.solver in ("pivot", "local-search"):
        clustering = pivot_kwikcluster(graph, make_rng(args.seed, "pivot"))
        if args.k is not None:
            clustering = cap_clusters(clustering, args.k)
        if args.solver == "local-search":
            clustering = local_search(graph, clustering, cfg)
    else:
        clustering = solve(graph, cfg, args.seed)
    payload = {
        "n": clustering.n,
        "k": clustering.k,
        "assignment": clustering.assignment.tolist(),
        "disagreement": disagreement(clustering, graph),
        "agreement": agreement(clustering, graph),
    }
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.output)
    return 0


def _cmd_pipeline(args) -> int:
    spec = InstanceSpec(kind="file", path=args.input) if args.input else _spec_from_args(args)
    graph, truth = generate_instance(spec)
    config = PipelineConfig(
        mechanism=args.mechanism,
        solver=SolverConfig(restarts=args.restarts),
        engine=args.engine,
        coarsen_enabled=not args.no_coarsen,
    )
    params = PrivacyParams(args.epsilon, args.delta)
    _, record = run_pipeline(graph, params, config, args.seed, truth=truth,
                             instance_label=spec.label())
    if args.format == "jsonl":
        _emit(record.to_json() + "\n", args.output)
    else:
        _emit(CSV_HEADER + "\n" + record.csv_row() + "\n", args.output)
    return 0


def _cmd_matrix(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            matrix = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ContractViolation(f"matrix config {args.config} is not JSON: {exc}") from exc
    records = run_matrix(matrix, args.output, jsonl_path=args.jsonl,
                         resume=not args.no_resume)
    print(f"wrote {len(records)} records to {args.output}", file=sys.stderr)
    return 0


def _cmd_verify_dp(args) -> int:
    """Exact neighbor-by-neighbor privacy check of the exponential mechanism."""
    n = args.n
    worst = 0.0
    for inst in range(args.instances):
        rng = make_rng(args.seed, "verify-dp", inst)
        positive = rng.random(n * (n - 1) // 2) < 0.5
        base = SignedGraph.complete_unweighted(n, positive)
        params = PrivacyParams(args.epsilon)
        dist = exact_output_distribution(base, params)
        for e in range(positive.size):
            flipped = positive.copy()
            flipped[e] = not flipped[e]
            other = SignedGraph.complete_unweighted(n, flipped)
            dist2 = exact_output_distribution(other, params)
            for key, prob in dist.items():
                ratio = abs(np.log(prob) - np.log(dist2[key]))
                worst = max(worst, ratio)
    bound = args.epsilon + 1e-9
    worst = float(worst)
    print(json.dumps({"epsilon": args.epsilon, "instances": args.instances,
                      "max_log_ratio": worst, "bound": bound,
                      "ok": bool(worst <= bound)}))
    return 0 if worst <= bound else 1


def _cmd_lowerbound(args) -> int:
    rng = make_rng(args.seed, "lowerbound")
    codebook = brute_force_code(args.n, args.beta, args.target, rng,
                                budget=args.budget)
    params = PrivacyParams(args.epsilon)

    if args.mechanism == "exponential":
        mech = exponential_mechanism
    else:  # non-private reference point
        def mech(graph, p, r):
            return solve(graph)

    rows = packing_experiment(mech, params, args.edge_weight, codebook,
                              args.reps, rng)
    lines = [PACKING_CSV_HEADER]
    for row in rows:
        lines.append(f"{row['codeword']},{row['mean_err']!r},"
                     f"{row['frac_in_B']!r},{row['theory_bound']!r}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_audit_cuts(args) -> int:
    graph = read_edge_list(args.input)
    params = PrivacyParams(args.epsilon, args.delta)
    # the release `privcc release --mechanism weighted-laplace` writes
    config = PipelineConfig(mechanism="weighted-laplace", engine=args.engine)
    released, _ = release_stage(graph, params, config, args.seed)
    report = {}
    for sign, name, channel in zip((1, -1), ("plus", "minus"), sign_channels(graph.net_flat())):
        a = WeightedChannel(graph.n, channel)
        b = WeightedChannel(graph.n, released.channel_flat(sign))
        report[f"cut_distance_{name}"] = sampled_cut_distance(
            a, b, args.samples, make_rng(args.seed, "audit-cuts", name)
        )
    report["epsilon"] = args.epsilon
    report["delta"] = args.delta
    report["engine"] = args.engine
    _emit(json.dumps(report, sort_keys=True) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="privcc",
                                 description="Private correlation clustering toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic instance as an edge list")
    _add_common(p)
    _instance_args(p)
    p.add_argument("--truth-output", type=str, default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("release", help="privately release a graph")
    _add_common(p)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--input", required=True)
    p.add_argument("--mechanism", default=PipelineConfig.mechanism,
                   choices=["unweighted-laplace", "weighted-laplace"])
    p.add_argument("--engine", default=PipelineConfig.engine, help=_ENGINE_HELP)
    p.add_argument("--merge-strategy", default=MergeConfig.strategy,
                   choices=["sampled-lp", "per-edge"])
    p.add_argument("--constraint-budget", type=int,
                   default=MergeConfig.constraint_budget)
    p.add_argument("--merge-iterations", type=int, default=MergeConfig.iterations)
    p.add_argument("--audit", type=str, default=None)
    p.set_defaults(func=_cmd_release)

    p = sub.add_parser("cluster", help="cluster a graph (non-private)")
    _add_common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--solver", default="auto",
                   choices=["auto", "exact", "pivot", "local-search"])
    p.add_argument("--k", type=int, default=None, help="max cluster count")
    p.add_argument("--restarts", type=int, default=SolverConfig.restarts)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("pipeline", help="release then cluster then evaluate")
    _add_common(p)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=0.0)
    _instance_args(p)
    p.add_argument("--input", type=str, default=None)
    p.add_argument("--mechanism", default=PipelineConfig.mechanism,
                   choices=["unweighted-laplace", "weighted-laplace", "exponential"])
    p.add_argument("--engine", default=PipelineConfig.engine, help=_ENGINE_HELP)
    p.add_argument("--restarts", type=int, default=SolverConfig.restarts)
    p.add_argument("--no-coarsen", action="store_true",
                   help="solve with no cluster cap; by default the solver keeps "
                        "at most k' = ceil(n^(1/4)) clusters")
    p.add_argument("--format", default="csv", choices=["csv", "jsonl"])
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("matrix", help="run an experiment matrix from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--output", required=True, help="CSV path")
    p.add_argument("--jsonl", type=str, default=None)
    p.add_argument("--no-resume", action="store_true")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("verify-dp",
                       help="machine-check the exponential mechanism's privacy")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--instances", type=int, default=10)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify_dp)

    p = sub.add_parser("lowerbound", help="packing experiment on path instances")
    _add_common(p)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--target", type=int, default=16)
    p.add_argument("--budget", type=int, default=10**5)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--edge-weight", type=float, default=1.0)
    p.add_argument("--mechanism", default="exponential",
                   choices=["exponential", "nonprivate"])
    p.set_defaults(func=_cmd_lowerbound)

    p = sub.add_parser("audit-cuts",
                       help="release a weighted graph and audit cut distances")
    _add_common(p)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--input", required=True)
    p.add_argument("--engine", default=PipelineConfig.engine, help=_ENGINE_HELP)
    p.add_argument("--samples", type=int, default=256)
    p.set_defaults(func=_cmd_audit_cuts)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 2
    except SizeRefusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
