import csv
import json
import logging
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from privcc import (
    Clustering,
    ContractViolation,
    PrivacyParams,
    SignedGraph,
    disagreement,
    solve,
)
from privcc import experiments
from privcc._rng import make_rng
from privcc.experiments import (
    CSV_HEADER,
    InstanceSpec,
    PipelineConfig,
    evaluate_stage,
    generate_instance,
    postprocess_stage,
    release_stage,
    run_matrix,
    run_pipeline,
)
from privcc.release_unweighted import MergeConfig
from privcc.solvers import SolverConfig
from privcc.transforms import default_k_prime


class TestGenerate:
    def test_planted_p0_is_consistent(self):
        g, truth = generate_instance(InstanceSpec(kind="planted", n=20, clusters=3))
        assert disagreement(truth, g) == 0.0
        assert g.complete and g.is_unweighted

    def test_planted_flip_cost_expectation(self):
        # disagreement of the truth counts exactly the flipped pairs
        total, seeds = 0.0, 400
        pairs = 100 * 99 / 2
        for seed in range(seeds):
            g, truth = generate_instance(
                InstanceSpec(kind="planted", n=100, clusters=4, flip_prob=0.05, seed=seed)
            )
            total += disagreement(truth, g)
        mean = total / seeds
        sigma = math.sqrt(pairs * 0.05 * 0.95 / seeds)
        assert abs(mean - 0.05 * pairs) <= 3 * sigma

    def test_planted_half_flip_is_coin_toss(self):
        g, truth = generate_instance(
            InstanceSpec(kind="planted", n=60, clusters=2, flip_prob=0.5, seed=1)
        )
        pairs = 60 * 59 / 2
        dev = abs(disagreement(truth, g) - pairs / 2)
        assert dev <= 4 * math.sqrt(pairs) / 2

    def test_kinds_and_validation(self):
        g, _ = generate_instance(InstanceSpec(kind="random-signs", n=9, seed=2))
        assert g.complete
        g, _ = generate_instance(InstanceSpec(kind="path", n=9, seed=2))
        assert g.edge_count == 8
        g, _ = generate_instance(
            InstanceSpec(kind="weighted-random", n=9, weight_dist="exponential",
                         density=0.5, seed=2)
        )
        assert not g.complete
        with pytest.raises(ContractViolation):
            InstanceSpec(kind="nope", n=5)
        with pytest.raises(ContractViolation):
            InstanceSpec(kind="planted", n=1)
        with pytest.raises(ContractViolation):
            InstanceSpec(kind="planted", n=5, flip_prob=1.5)

    @pytest.mark.parametrize("kind", ["path", "weighted-random"])
    @pytest.mark.parametrize("weight", [0.0, -1.0, float("inf"), float("nan")])
    def test_edge_weight_must_be_positive_and_finite(self, kind, weight):
        # a negative exponential scale used to raise numpy's ValueError, and a
        # non-positive unit or uniform weight to give a graph with no edges
        with pytest.raises(ContractViolation, match="edge_weight"):
            InstanceSpec(kind=kind, n=6, edge_weight=weight)

    def test_weighted_random_label_names_its_weight(self):
        # cells that differ only in edge weight are different instances
        specs = [
            InstanceSpec(kind="weighted-random", n=6, weight_dist="exponential", edge_weight=w)
            for w in (1.0, 40.0)
        ]
        assert specs[1].label() == (
            "weighted-random(n=6,dist=exponential,w=40.0,density=1.0,seed=0)"
        )
        assert specs[0].label() != specs[1].label()

    @pytest.mark.parametrize("clusters", [5, 10])
    def test_planted_clusters_at_most_n(self, clusters):
        # more clusters than vertices cannot be planted: n singletons would carry a k=10 label
        with pytest.raises(ContractViolation, match="clusters"):
            InstanceSpec(kind="planted", n=4, clusters=clusters)
        spec = InstanceSpec(kind="planted", n=4, clusters=4)
        assert generate_instance(spec)[1].k == 4

    @pytest.mark.parametrize("key, value", [
        ("n", 20.5), ("n", True), ("clusters", 2.5), ("clusters", 0), ("clusters", True),
        ("seed", 1.5), ("seed", False),
    ])
    def test_sizes_and_seeds_must_be_integers(self, key, value):
        # n=20.5 built a 20-vertex graph with a 21-vertex truth, clusters=2.5
        # planted 3 clusters labelled k=2.5, and seed=1.5 drew seed 1's instance
        spec = {"kind": "planted", "n": 20, "clusters": 4, key: value}
        with pytest.raises(ContractViolation, match=key):
            InstanceSpec(**spec)

    def test_file_roundtrip(self, tmp_path):
        from privcc.io import write_edge_list

        g, _ = generate_instance(InstanceSpec(kind="random-signs", n=7, seed=3))
        p = tmp_path / "g.txt"
        write_edge_list(g, p)
        g2, truth = generate_instance(InstanceSpec(kind="file", path=str(p)))
        assert truth is None and g2.n == 7

    def test_generation_deterministic(self):
        spec = InstanceSpec(kind="planted", n=30, clusters=3, flip_prob=0.2, seed=9)
        g1, _ = generate_instance(spec)
        g2, _ = generate_instance(spec)
        assert np.array_equal(g1.pos_w, g2.pos_w)


class TestPipeline:
    def test_zero_noise_exact_recovers_planted(self):
        g, truth = generate_instance(InstanceSpec(kind="planted", n=10, clusters=2))
        c, rec = run_pipeline(
            g,
            PrivacyParams(1.0),
            PipelineConfig(engine="zero-noise-test", coarsen_enabled=False),
            seed=4,
            truth=truth,
        )
        assert rec.err == 0.0
        assert rec.planted_cost == 0.0

    def test_record_conservation_and_fields(self):
        spec = InstanceSpec(kind="planted", n=24, clusters=3, flip_prob=0.1, seed=5)
        g, truth = generate_instance(spec)
        c, rec = run_pipeline(
            g, PrivacyParams(1.0), PipelineConfig(), seed=6, truth=truth,
            instance_label=spec.label(),
        )
        assert rec.err + rec.agr == g.total_weight
        assert rec.nonprivate_eval is True
        assert rec.lambda_residual is not None
        assert rec.eta_hat == abs(rec.err - rec.err_on_released)
        assert rec.k_out == c.k
        assert rec.wall_ms > 0

    def test_split_route_transparency(self):
        # weighted route with the passthrough engine equals solving directly
        spec = InstanceSpec(kind="weighted-random", n=14, weight_dist="uniform",
                            density=0.7, seed=7)
        g, _ = generate_instance(spec)
        c, rec = run_pipeline(
            g,
            PrivacyParams(0.4, 0.1),
            PipelineConfig(mechanism="weighted-laplace", engine="zero-noise-test",
                           coarsen_enabled=False),
            seed=8,
        )
        direct = solve(g, seed=8)
        assert c == direct
        assert rec.err == disagreement(direct, g)

    def test_exponential_route(self):
        g, truth = generate_instance(InstanceSpec(kind="random-signs", n=8, seed=9))
        c, rec = run_pipeline(
            g, PrivacyParams(5.0), PipelineConfig(mechanism="exponential",
                                                  coarsen_enabled=False),
            seed=10,
        )
        assert rec.mechanism == "exponential"
        assert rec.err + rec.agr == g.total_weight

    @pytest.mark.parametrize("mechanism, solver", [
        ("unweighted-laplace", "min-disagreement(restarts=8)"),
        ("weighted-laplace", "min-disagreement(restarts=8)"),
        ("exponential", "none"),  # it samples a clustering; no solver and no coarsening run
    ])
    def test_record_names_only_a_solver_that_ran(self, mechanism, solver):
        assert PipelineConfig(mechanism=mechanism).solver_id() == solver

    @pytest.mark.parametrize("mechanism, kind", [
        ("unweighted-laplace", "planted"),
        ("weighted-laplace", "weighted-random"),
        ("exponential", "planted"),
    ])
    def test_stage_times_add_up_to_wall_time(self, mechanism, kind):
        g, truth = generate_instance(InstanceSpec(kind=kind, n=8, seed=13))
        config = PipelineConfig(mechanism=mechanism, merge=MergeConfig(strategy="per-edge"))
        _, rec = run_pipeline(g, PrivacyParams(1.0), config, seed=14, truth=truth)
        stages = [rec.release_stage_ms, rec.postprocess_stage_ms, rec.evaluate_stage_ms]
        if mechanism == "exponential":  # sampling is the release; nothing is post-processed
            assert stages.pop(1) is None
        assert all(t >= 0 for t in stages)
        assert sum(stages) <= rec.wall_ms * (1 + 1e-12)  # float rounding only

    def test_all_pairs_unit_graph_is_in_the_unweighted_domain(self):
        # a weighted-random instance that carries every pair at weight 1 is a
        # complete unweighted graph, however it was built
        spec = InstanceSpec(kind="weighted-random", n=15, density=1.0, seed=1)
        g, _ = generate_instance(spec)
        assert g.complete and g.is_unweighted
        _, audit = release_stage(
            g, PrivacyParams(1.0), PipelineConfig(merge=MergeConfig(iterations=20)), 2
        )
        assert audit.mechanism == "unweighted-laplace-merge-round"

    def test_engine_is_the_noise_switch(self):
        assert PipelineConfig(engine="zero-noise-test").zero_noise
        assert not PipelineConfig().zero_noise
        with pytest.raises(ContractViolation):
            PipelineConfig(mechanism="exponential", engine="zero-noise-test")
        with pytest.raises(ContractViolation):
            PipelineConfig(engine="external:x")

    @pytest.mark.parametrize("k", [0, -2])
    def test_coarsen_k_below_one_is_refused(self, k):
        # 0 used to fall back to the default k', and -2 to fail every cell after its release
        with pytest.raises(ContractViolation, match="coarsen_k"):
            PipelineConfig(coarsen_k=k)

    @pytest.mark.parametrize("k", [2.5, 2.0, True])
    def test_coarsen_k_that_is_not_an_integer_is_refused(self, k):
        # it is the solver's cap, and a fractional cap fails every solve
        with pytest.raises(ContractViolation, match="coarsen_k must be an integer"):
            PipelineConfig(coarsen_k=k)

    def test_coarsening_caps_cluster_count(self):
        g, truth = generate_instance(
            InstanceSpec(kind="random-signs", n=40, seed=11)
        )
        c, rec = run_pipeline(
            g, PrivacyParams(0.5), PipelineConfig(coarsen_k=2), seed=12
        )
        assert rec.k_out <= 2  # k'

    def test_wall_time_includes_evaluation(self, monkeypatch):
        g, truth = generate_instance(InstanceSpec(kind="planted", n=6, clusters=2))
        evaluate = experiments.evaluate_stage

        def slow_evaluate(*args):
            time.sleep(0.05)
            return evaluate(*args)

        monkeypatch.setattr(experiments, "evaluate_stage", slow_evaluate)
        _, rec = run_pipeline(
            g, PrivacyParams(1.0), PipelineConfig(mechanism="exponential",
                                                  coarsen_enabled=False),
            seed=4, truth=truth,
        )
        assert rec.wall_ms >= 50.0

    def test_deterministic_records(self):
        spec = InstanceSpec(kind="planted", n=20, clusters=2, flip_prob=0.1, seed=13)
        g, truth = generate_instance(spec)
        _, r1 = run_pipeline(g, PrivacyParams(1.0), PipelineConfig(), 14, truth=truth)
        _, r2 = run_pipeline(g, PrivacyParams(1.0), PipelineConfig(), 14, truth=truth)
        assert r1.csv_row() == r2.csv_row()


# one per release route, at a budget where the free solution of either
# size has more than k' clusters, so that the cap binds
CAP_ROUTES = {
    "unweighted": ("unweighted-laplace", dict(kind="planted", clusters=4)),
    "weighted": ("weighted-laplace",
                 dict(kind="weighted-random", weight_dist="exponential", edge_weight=40.0)),
}


def released_graph(route, n):
    mechanism, spec = CAP_ROUTES[route]
    g, _ = generate_instance(InstanceSpec(n=n, seed=2, **spec))
    config = PipelineConfig(mechanism=mechanism, merge=MergeConfig(strategy="per-edge"))
    released, _ = release_stage(g, PrivacyParams(4.0), config, 5)
    return released, config


class TestSolveAtTheCap:
    @pytest.mark.parametrize("n", [12, 40], ids=["exact", "pivot-local-search"])
    @pytest.mark.parametrize("route", sorted(CAP_ROUTES))
    def test_at_most_k_prime_clusters(self, route, n):
        released, config = released_graph(route, n)
        capped = postprocess_stage(released, config, 5)
        free = postprocess_stage(released, replace(config, coarsen_enabled=False), 5)
        assert capped.k <= default_k_prime(n) < free.k

    @pytest.mark.parametrize("coarsen_k, max_clusters, cap", [
        (None, None, 3),  # k' = ceil(40^(1/4))
        (None, 2, 2),  # a lower solver cap wins
        (None, 1, 1),
        (None, 5, 3),
        (2, None, 2),
        (2, 1, 1),
    ])
    def test_solves_at_the_lower_of_k_prime_and_the_solver_cap(
        self, coarsen_k, max_clusters, cap
    ):
        released, config = released_graph("unweighted", 40)
        config = replace(config, solver=SolverConfig(max_clusters=max_clusters),
                         coarsen_k=coarsen_k)
        clustering = postprocess_stage(released, config, 5)
        assert clustering == solve(released, SolverConfig(max_clusters=cap), 5)
        assert clustering.k <= cap

    @pytest.mark.parametrize("n", [12, 40], ids=["exact", "pivot-local-search"])
    @pytest.mark.parametrize("route", sorted(CAP_ROUTES))
    def test_without_coarsening_the_solver_runs_as_configured(self, route, n):
        released, config = released_graph(route, n)
        config = replace(config, coarsen_enabled=False)
        assert postprocess_stage(released, config, 5) == solve(released, config.solver, 5)


class CountingGraph(SignedGraph):
    """Counts every read of the payload arrays."""

    PAYLOAD = ("pair_u", "pair_v", "pos_w", "neg_w")

    def __init__(self, base: SignedGraph):
        super().__init__(
            base.n, base.pair_u, base.pair_v, base.pos_w, base.neg_w
        )
        object.__setattr__(self, "reads", 0)

    def __getattribute__(self, name):
        if name in CountingGraph.PAYLOAD:
            object.__setattr__(self, "reads", object.__getattribute__(self, "reads") + 1)
        return object.__getattribute__(self, name)


class TestPrivacyHygiene:
    def test_postprocessing_never_touches_input(self):
        # every private-graph read of the full pipeline is accounted for by
        # the release stage plus the evaluation stage; the solving stage in
        # between reads nothing
        spec = InstanceSpec(kind="planted", n=16, clusters=2, flip_prob=0.1, seed=15)
        base, truth = generate_instance(spec)
        params = PrivacyParams(1.0)
        config = PipelineConfig()
        seed = 16

        g_release = CountingGraph(base)
        released, audit = release_stage(g_release, params, config, seed)

        g_eval = CountingGraph(base)
        clustering = postprocess_stage(released, config, seed)
        evaluate_stage(g_eval, clustering, released, truth)

        g_full = CountingGraph(base)
        run_pipeline(g_full, params, config, seed, truth=truth)
        assert g_full.reads == g_release.reads + g_eval.reads


class TestMatrix:
    MATRIX = {
        "master_seed": 3,
        "instances": [
            {"kind": "planted", "n": 10, "clusters": 2, "flip_prob": 0.1, "seed": 1},
            {"kind": "random-signs", "n": 9, "seed": 2},
        ],
        "epsilons": [0.5, 2.0],
        "pipelines": [{"mechanism": "unweighted-laplace", "merge": {"iterations": 60}}],
        "seeds": [0, 1, 2],
    }

    def test_cell_count(self, tmp_path):
        csv = tmp_path / "out.csv"
        records = run_matrix(self.MATRIX, str(csv), str(tmp_path / "out.jsonl"))
        assert len(records) == 2 * 2 * 1 * 3
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER == (
            "cell,instance,mechanism,solver,epsilon,delta,seed,err,agr,k_out,"
            "planted_cost,err_on_released,eta_hat,lambda_residual"
        )
        assert len(lines) == 13

    def test_rows_parse_as_csv(self, tmp_path):
        # instance labels and a capped solver's id hold commas
        matrix = dict(self.MATRIX, epsilons=[1.0], seeds=[0], pipelines=[
            {"merge": {"strategy": "per-edge"}, "solver": {"max_clusters": 3}},
        ])
        path = tmp_path / "q.csv"
        run_matrix(matrix, str(path), None)
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == CSV_HEADER.split(",")
        assert [len(row) for row in rows] == [len(header)] * 2
        labels = [InstanceSpec(**spec).label() for spec in matrix["instances"]]
        assert [row[header.index("instance")] for row in rows] == labels
        solvers = {row[header.index("solver")] for row in rows}
        assert solvers == {"min-disagreement(restarts=8,k<=3)"}

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_matrix(self.MATRIX, str(a), None)
        run_matrix(self.MATRIX, str(b), None)
        assert a.read_bytes() == b.read_bytes()

    def test_each_seed_value_reaches_its_cells(self, tmp_path):
        # a replicate's value enters its cell seed, so [1] runs other cells than [0]
        rows = {}
        for value in (0, 1):
            matrix = dict(self.MATRIX, epsilons=[1.0], seeds=[value])
            a, b = tmp_path / f"{value}a.csv", tmp_path / f"{value}b.csv"
            run_matrix(matrix, str(a), None)
            run_matrix(matrix, str(b), None)
            assert a.read_bytes() == b.read_bytes()
            with open(a, newline="", encoding="utf-8") as fh:
                header, *rows[value] = csv.reader(fh)
        seed = header.index("seed")
        assert {r[seed] for r in rows[0]}.isdisjoint(r[seed] for r in rows[1])
        assert len(rows[0]) == len(rows[1]) == 2
        # the draws change too, not only the seed column
        assert [r[:seed] + r[seed + 1:] for r in rows[0]] != [
            r[:seed] + r[seed + 1:] for r in rows[1]
        ]

    def test_resume_completes_interrupted_run(self, tmp_path):
        full, partial = tmp_path / "full.csv", tmp_path / "partial.csv"
        run_matrix(self.MATRIX, str(full), None)
        lines = full.read_text().splitlines(keepends=True)
        partial.write_text("".join(lines[:5]))  # header + 4 cells
        run_matrix(self.MATRIX, str(partial), None, resume=True)
        assert partial.read_bytes() == full.read_bytes()

    def test_resume_reruns_a_torn_row(self, tmp_path):
        full, partial = tmp_path / "full.csv", tmp_path / "partial.csv"
        full_jsonl, partial_jsonl = tmp_path / "full.jsonl", tmp_path / "partial.jsonl"
        run_matrix(self.MATRIX, str(full), str(full_jsonl))
        lines = full.read_text().splitlines(keepends=True)
        rows = full_jsonl.read_text().splitlines(keepends=True)
        torn_jsonl = "".join(rows[:2]) + rows[2][:9]  # cell 2 cut mid-row
        for torn_csv in (
            "".join(lines[:3]) + lines[3][:5],  # cell 2 cut mid-row
            "".join(lines[:4]),  # cell 2 written in full, its JSONL row not
        ):
            partial.write_text(torn_csv)
            partial_jsonl.write_text(torn_jsonl)
            run_matrix(self.MATRIX, str(partial), str(partial_jsonl), resume=True)
            assert partial.read_bytes() == full.read_bytes()
            got = [json.loads(r) for r in partial_jsonl.read_text().splitlines()]
            assert [r["cell"] for r in got] == list(range(12))

    def test_resume_after_a_torn_header(self, tmp_path):
        full, partial = tmp_path / "full.csv", tmp_path / "partial.csv"
        run_matrix(self.MATRIX, str(full), None)
        partial.write_text(CSV_HEADER[:7])
        run_matrix(self.MATRIX, str(partial), None, resume=True)
        assert partial.read_bytes() == full.read_bytes()

    def test_failures_surfaced_and_skipped(self, tmp_path, caplog):
        bad = dict(self.MATRIX)
        bad["instances"] = [
            {"kind": "weighted-random", "n": 8, "weight_dist": "exponential",
             "seed": 1},  # wrong mechanism
            {"kind": "planted", "n": 10, "clusters": 2, "seed": 2},
        ]
        bad["epsilons"] = [1.0]
        bad["seeds"] = [0]
        csv = tmp_path / "c.csv"
        with caplog.at_level(logging.ERROR, logger="privcc"):
            records = run_matrix(bad, str(csv), None)
        assert len(records) == 1
        assert "failed" in caplog.text and "ContractViolation" in caplog.text

    def test_failed_cell_goes_to_the_failures_jsonl(self, tmp_path, caplog):
        matrix = dict(self.MATRIX, epsilons=[1.0], seeds=[0])
        matrix["instances"] = [
            {"kind": "file", "path": str(tmp_path / "missing.txt")},
            {"kind": "planted", "n": 10, "clusters": 2, "seed": 2},
        ]
        csv, jsonl = tmp_path / "m.csv", tmp_path / "m.jsonl"
        failures = tmp_path / "m.jsonl.failures.jsonl"
        with caplog.at_level(logging.ERROR, logger="privcc"):
            records = run_matrix(matrix, str(csv), str(jsonl))
        assert [r.cell for r in records] == [1]
        rows = csv.read_text().splitlines()
        assert rows[0] == CSV_HEADER and len(rows) == 2 and rows[1].startswith("1,")
        assert [json.loads(r)["cell"] for r in jsonl.read_text().splitlines()] == [1]
        (line,) = failures.read_text().splitlines()
        failure = json.loads(line)
        assert {k: failure[k] for k in ("cell", "instance", "error")} == {
            "cell": 0, "instance": "file(missing.txt)", "error": "FileNotFoundError",
        }
        assert "missing.txt" in failure["message"]
        assert "cell 0 failed: FileNotFoundError" in caplog.text
        # resume runs the failed cell again, and only its failure line grows
        kept = csv.read_bytes(), jsonl.read_bytes()
        assert run_matrix(matrix, str(csv), str(jsonl), resume=True) == []
        assert (csv.read_bytes(), jsonl.read_bytes()) == kept
        assert [json.loads(r)["cell"] for r in failures.read_text().splitlines()] == [0, 0]

    def test_jsonl_carries_full_record(self, tmp_path):
        csv, jsonl = tmp_path / "d.csv", tmp_path / "d.jsonl"
        run_matrix(self.MATRIX, str(csv), str(jsonl))
        row = json.loads(jsonl.read_text().splitlines()[0])
        assert row["nonprivate_eval"] is True
        assert "wall_ms" in row and "wall_ms" not in CSV_HEADER
        jsonl_only = {
            "wall_ms", "nonprivate_eval", "release",
            "release_stage_ms", "postprocess_stage_ms", "evaluate_stage_ms",
        }
        assert set(row) == set(CSV_HEADER.split(",")) | jsonl_only
        release = row["release"]
        assert 1 <= release["merge_iterations"] <= 60
        assert release["merge_stop"] in ("patience", "budget")
        assert 0 <= release["merge_best_iteration"] < release["merge_iterations"]
        assert release["merge_training_lambda"] >= 0
        assert release["private"] is True
        assert release["lambda"] == row["lambda_residual"]
