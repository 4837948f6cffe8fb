"""Tests of the benchmark itself, at tiny n.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import privcc.solvers  # noqa: E402
from privcc import Clustering  # noqa: E402
from privcc import experiments  # noqa: E402

import metrics  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY_N = 24  # above the exact solver's limit, so pivot and local search run
TINY_CELLS = 2

EXPECTED_LAYERS = {
    "planted-lp": {"experiments", "release_unweighted", "solvers", "transforms", "graphs"},
    "planted-per-edge": {"experiments", "release_unweighted", "solvers", "transforms", "graphs"},
    "weighted-sparse": {"experiments", "release_weighted", "solvers", "transforms", "graphs"},
}


def tiny_run(name, trace, spans_path=None):
    return worker.run_workload(
        WORKLOADS[name], seed=3, seconds=0, trace=trace, n=TINY_N, count=TINY_CELLS,
        spans_path=spans_path,
    )


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = {}
    for name in WORKLOADS:
        path = tmp_path_factory.mktemp(name) / "spans.jsonl"
        result = tiny_run(name, trace=True, spans_path=str(path))
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        out[name] = (result, spans)
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_expected_layer_records_spans(traced, name):
    result, spans = traced[name]
    assert result["failed"] == 0, result["failures"]
    cell_layers = {s["name"].split(".")[0] for s in spans if s["cell"] is not None}
    assert EXPECTED_LAYERS[name] <= cell_layers
    assert all(s["self"] >= -1e-6 for s in spans)
    for key in ("solvers.local_search_calls", "graphs.disagreement_calls"):
        assert result["metrics"][key] >= 1


def test_weighted_sparse_records_no_merge_span(traced):
    result, spans = traced["weighted-sparse"]
    assert not [s for s in spans if s["name"] == "release_unweighted.solve_merge_lp"]
    assert result["metrics"]["release_unweighted.solve_merge_lp_calls"] == 0
    assert result["metrics"]["transforms.split_roundtrip_s"] > 0


def test_merge_counters_on_planted_lp(traced):
    m = traced["planted-lp"][0]["metrics"]
    assert m["release_unweighted.solve_merge_lp_calls"] == 1
    assert m["release_unweighted.merge_iterations"] >= 1
    assert m["release_unweighted.merge_gflop_computed"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_runs_give_identical_digests(traced, name):
    result = traced[name][0]
    for cell in result["cells"]:
        runs = [r for r in result["runs"] if r["cell"] == cell["index"]]
        assert {r["traced"] for r in runs} == {False, True}
        assert {r["digest"] for r in runs} == {cell["digest"]}
    untraced = tiny_run(name, trace=False)
    assert untraced["failed"] == 0, untraced["failures"]
    assert untraced["digest"] == result["digest"]
    assert [c["csv_row"] for c in untraced["cells"]] == [c["csv_row"] for c in result["cells"]]


def test_tracer_restores_the_modules(traced):
    assert privcc.solvers.local_search.__module__ == "privcc.solvers"
    assert not hasattr(privcc.solvers.local_search, "__wrapped__")
    assert not hasattr(experiments.release_stage, "__wrapped__")


def test_checks_catch_a_wrong_output():
    w = WORKLOADS["planted-per-edge"]
    cell = w.cells(seed=3, n=TINY_N, count=1)[0]
    graph, truth = experiments.generate_instance(cell.spec)
    _, audit = experiments.release_stage(graph, cell.params, cell.config, cell.seed)
    clustering, record = experiments.run_pipeline(graph, cell.params, cell.config, cell.seed)
    assert worker.check_cell(cell, graph, clustering, record, audit, True) == []
    wrong = Clustering.singletons(TINY_N)
    problems = worker.check_cell(cell, graph, wrong, record, audit, True)
    assert any("k_out" in p for p in problems)
    assert any("err does not match" in p for p in problems)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [m[0] for m in metrics.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in metrics.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"] + spec["per_layer"]}
    assert listed == {name: (unit, better) for name, unit, better in metrics.END_TO_END + metrics.PER_LAYER}


def test_run_refuses_a_tree_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "planted-lp", "--seed", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
