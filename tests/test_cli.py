import json

import pytest

from privcc import WeightedChannel
from privcc._rng import make_rng
from privcc.cli import main
from privcc.experiments import PipelineConfig
from privcc.io import read_edge_list
from privcc.release_weighted import sampled_cut_distance, sign_channels


def run(args):
    return main([str(a) for a in args])


def test_generate_and_cluster(tmp_path):
    g_path = tmp_path / "g.txt"
    t_path = tmp_path / "truth.json"
    assert run(["generate", "--kind", "planted", "--n", "12", "--k", "3",
                "--p", "0.0", "--seed", "1", "--output", g_path,
                "--truth-output", t_path]) == 0
    g = read_edge_list(g_path)
    assert g.complete and g.n == 12
    truth = json.loads(t_path.read_text())
    assert truth["k"] == 3

    out = tmp_path / "clust.json"
    assert run(["cluster", "--input", g_path, "--solver", "exact",
                "--output", out]) == 0
    res = json.loads(out.read_text())
    assert res["disagreement"] == 0.0 and res["k"] == 3


def test_release_roundtrip(tmp_path):
    g_path = tmp_path / "g.txt"
    run(["generate", "--kind", "random-signs", "--n", "14", "--seed", "3",
         "--output", g_path])
    h_path = tmp_path / "h.txt"
    audit_path = tmp_path / "audit.json"
    assert run(["release", "--input", g_path, "--mechanism", "unweighted-laplace",
                "--epsilon", "1.0", "--seed", "5", "--output", h_path,
                "--merge-iterations", "50", "--audit", audit_path]) == 0
    h = read_edge_list(h_path)
    assert h.complete and h.n == 14
    audit = json.loads(audit_path.read_text())
    assert audit["lambda"] >= 0 and audit["seed"] == 5
    assert audit["private"] is True
    assert audit["mechanism"] == "unweighted-laplace-merge-round"


def test_weighted_release_and_audit_cuts(tmp_path):
    g_path = tmp_path / "w.txt"
    run(["generate", "--kind", "weighted-random", "--n", "12",
         "--weight-dist", "uniform", "--density", "0.5", "--seed", "2",
         "--output", g_path])
    out = tmp_path / "cuts.json"
    assert run(["audit-cuts", "--input", g_path, "--epsilon", "0.5",
                "--delta", "0.01", "--samples", "32", "--seed", "4",
                "--output", out]) == 0
    report = json.loads(out.read_text())
    assert report["cut_distance_plus"] >= 0
    assert report["cut_distance_minus"] >= 0


def test_audit_cuts_compares_net_canonical_channels(tmp_path):
    # pair (0, 1) carries +2 and -1.5; the release keeps only net +0.5
    g_path = tmp_path / "par.txt"
    g_path.write_text("3 3\n0 1 + 2\n0 1 - 1.5\n1 2 - 1\n")
    out = tmp_path / "cuts.json"
    assert run(["audit-cuts", "--input", g_path, "--engine", "zero-noise-test",
                "--samples", "16", "--seed", "1", "--output", out]) == 0
    report = json.loads(out.read_text())
    assert report["cut_distance_plus"] == 0.0
    assert report["cut_distance_minus"] == 0.0


def test_audit_cuts_audits_the_release_privcc_release_writes(tmp_path):
    g_path = tmp_path / "w.txt"
    run(["generate", "--kind", "weighted-random", "--n", "12",
         "--weight-dist", "uniform", "--density", "0.5", "--seed", "2",
         "--output", g_path])
    budget = ["--epsilon", "0.5", "--delta", "0.01", "--seed", "4"]
    h_path = tmp_path / "h.txt"
    assert run(["release", "--input", g_path, "--mechanism", "weighted-laplace",
                *budget, "--output", h_path, "--audit", tmp_path / "a.json"]) == 0
    out = tmp_path / "cuts.json"
    assert run(["audit-cuts", "--input", g_path, *budget, "--samples", "32",
                "--output", out]) == 0
    report = json.loads(out.read_text())
    g, h = read_edge_list(g_path), read_edge_list(h_path)
    net = g.channel_flat(1) - g.channel_flat(-1)
    for sign, name, channel in zip((1, -1), ("plus", "minus"), sign_channels(net)):
        want = sampled_cut_distance(
            WeightedChannel(g.n, channel), WeightedChannel(g.n, h.channel_flat(sign)),
            32, make_rng(4, "audit-cuts", name),
        )
        assert report[f"cut_distance_{name}"] == want


def test_audit_cuts_refuses_unknown_engine(tmp_path):
    g_path = tmp_path / "g.txt"
    g_path.write_text("3 2\n0 1 + 2\n1 2 - 1\n")
    assert run(["audit-cuts", "--input", g_path, "--engine", "what"]) == 2


def test_pipeline_formats(tmp_path, capsys):
    assert run(["pipeline", "--kind", "planted", "--n", "10", "--k", "2",
                "--p", "0.1", "--seed", "6", "--engine", "zero-noise-test",
                "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("cell,instance,")
    assert run(["pipeline", "--kind", "planted", "--n", "10", "--seed", "6",
                "--engine", "zero-noise-test", "--format", "jsonl"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["nonprivate_eval"] is True


@pytest.mark.parametrize("mechanism, instance", [
    ("weighted-laplace", ["--kind", "weighted-random", "--n", "10",
                          "--weight-dist", "uniform", "--density", "0.5"]),
    ("unweighted-laplace", ["--kind", "planted", "--n", "20"]),
], ids=["weighted", "unweighted"])
def test_pipeline_engine_switch_is_recorded(capsys, mechanism, instance):
    # the zero-noise engine is the one noise switch, on both release mechanisms
    assert run(["pipeline", *instance, "--seed", "1", "--mechanism", mechanism,
                "--engine", "zero-noise-test", "--format", "jsonl"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["mechanism"] == f"{mechanism}+zero-noise"
    assert row["eta_hat"] == 0.0


def test_all_pairs_unit_weighted_instance_runs_unweighted(capsys):
    # every pair at weight 1: in the unweighted mechanism's domain, in memory as from a file
    assert run(["pipeline", "--kind", "weighted-random", "--density", "1.0",
                "--weight-dist", "unit", "--n", "15", "--seed", "1"]) == 0
    assert "unweighted-laplace" in capsys.readouterr().out


def test_release_unweighted_zero_noise_engine(tmp_path):
    g_path = tmp_path / "g.txt"
    run(["generate", "--kind", "random-signs", "--n", "8", "--seed", "3",
         "--output", g_path])
    h_path, audit_path = tmp_path / "h.txt", tmp_path / "audit.json"
    assert run(["release", "--input", g_path, "--engine", "zero-noise-test",
                "--merge-iterations", "20", "--output", h_path,
                "--audit", audit_path]) == 0
    assert h_path.read_text() == g_path.read_text()
    audit = json.loads(audit_path.read_text())
    assert audit["private"] is False and audit["noise_scale"] == 0.0


def test_pipeline_k_is_not_a_solver_cap(capsys):
    # --k is the planted cluster count; the solver runs uncapped, as in a matrix
    assert run(["pipeline", "--kind", "random-signs", "--n", "40", "--seed", "1",
                "--format", "jsonl"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["solver"] == PipelineConfig().solver_id()


@pytest.mark.parametrize("argv", [
    ["generate", "--epsilon", "1"],
    ["generate", "--delta", "0.1"],
    ["cluster", "--input", "g.txt", "--epsilon", "1"],
    ["cluster", "--input", "g.txt", "--delta", "0.1"],
    ["lowerbound", "--delta", "0.1"],
])
def test_unread_budget_flags_refused(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2


def test_file_instance_is_labelled_alike_by_pipeline_and_matrix(tmp_path, capsys):
    g_path = tmp_path / "graphs" / "g.txt"
    g_path.parent.mkdir()
    run(["generate", "--kind", "planted", "--n", "8", "--seed", "1", "--output", g_path])
    assert run(["pipeline", "--input", g_path, "--seed", "2", "--format", "jsonl"]) == 0
    from_pipeline = json.loads(capsys.readouterr().out)["instance"]
    cfg = {
        "instances": [{"kind": "file", "path": str(g_path)}],
        "epsilons": [1.0],
        "pipelines": [{"mechanism": "unweighted-laplace", "merge": {"iterations": 40}}],
    }
    cfg_path = tmp_path / "matrix.json"
    cfg_path.write_text(json.dumps(cfg))
    jsonl = tmp_path / "r.jsonl"
    assert run(["matrix", "--config", cfg_path, "--output", tmp_path / "r.csv",
                "--jsonl", jsonl]) == 0
    from_matrix = json.loads(jsonl.read_text().splitlines()[0])["instance"]
    assert from_pipeline == from_matrix == "file(g.txt)"


def test_matrix_command(tmp_path):
    cfg = {
        "master_seed": 1,
        "instances": [{"kind": "planted", "n": 8, "clusters": 2, "seed": 1}],
        "epsilons": [1.0, 2.0],
        "pipelines": [{"mechanism": "unweighted-laplace", "merge": {"iterations": 40}}],
        "seeds": [0, 1, 2],
    }
    cfg_path = tmp_path / "matrix.json"
    cfg_path.write_text(json.dumps(cfg))
    out_csv = tmp_path / "records.csv"
    assert run(["matrix", "--config", cfg_path, "--output", out_csv]) == 0
    assert len(out_csv.read_text().strip().splitlines()) == 7  # header + 6


@pytest.mark.parametrize("where, key, target", [
    ("instance", "size", lambda cfg: cfg["instances"][0]),
    ("pipeline", "refine_after_coarsen", lambda cfg: cfg["pipelines"][0]),
    ("solver", "max_passes", lambda cfg: cfg["pipelines"][0].setdefault("solver", {})),
    ("merge", "budget", lambda cfg: cfg["pipelines"][0]["merge"]),
    ("pipeline", "zero_noise", lambda cfg: cfg["pipelines"][0]),
    ("matrix", "seed", lambda cfg: cfg),
], ids=["instance", "pipeline", "solver", "merge", "zero_noise", "matrix"])
def test_matrix_refuses_unknown_keys(tmp_path, capsys, where, key, target):
    cfg = {
        "instances": [{"kind": "planted", "n": 8, "clusters": 2, "seed": 1}],
        "epsilons": [1.0],
        "pipelines": [{"mechanism": "unweighted-laplace", "merge": {"iterations": 40}}],
    }
    target(cfg)[key] = 1
    cfg_path = tmp_path / "matrix.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(["matrix", "--config", cfg_path, "--output", tmp_path / "r.csv"]) == 2
    assert f"unknown {where} keys: {key}" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["instances", "epsilons", "pipelines"])
def test_matrix_refuses_a_missing_key(tmp_path, capsys, key):
    cfg = {
        "instances": [{"kind": "planted", "n": 8, "clusters": 2, "seed": 1}],
        "epsilons": [1.0],
        "pipelines": [{"mechanism": "unweighted-laplace", "merge": {"iterations": 40}}],
    }
    del cfg[key]
    cfg_path = tmp_path / "matrix.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(["matrix", "--config", cfg_path, "--output", tmp_path / "r.csv"]) == 2
    assert f"missing matrix keys: {key}" in capsys.readouterr().err


def test_matrix_refuses_a_solver_seed(tmp_path, capsys):
    cfg = {
        "instances": [{"kind": "planted", "n": 8, "clusters": 2, "seed": 1}],
        "epsilons": [1.0],
        "pipelines": [{"mechanism": "unweighted-laplace", "solver": {"seed": 3}}],
    }
    cfg_path = tmp_path / "matrix.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(["matrix", "--config", cfg_path, "--output", tmp_path / "r.csv"]) == 2
    assert "cell seed" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_release_refuses_budget_below_one(tmp_path, budget):
    g_path = tmp_path / "g.txt"
    run(["generate", "--kind", "random-signs", "--n", "8", "--seed", "3",
         "--output", g_path])
    assert run(["release", "--input", g_path, "--constraint-budget", budget,
                "--audit", tmp_path / "audit.json"]) == 2


def test_verify_dp_passes(capsys):
    assert run(["verify-dp", "--n", "4", "--instances", "2",
                "--epsilon", "0.5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["max_log_ratio"] <= 0.5 + 1e-9


def test_lowerbound_csv(tmp_path):
    out = tmp_path / "pack.csv"
    assert run(["lowerbound", "--n", "8", "--beta", "0.25", "--target", "4",
                "--reps", "3", "--epsilon", "0.1", "--seed", "2",
                "--output", out]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "codeword,mean_err,frac_in_B,theory_bound"
    assert len(lines) == 5


def test_generate_refuses_non_positive_edge_weight(capsys):
    # a negative exponential scale used to end in numpy's traceback and exit 1
    assert run(["generate", "--kind", "weighted-random", "--n", "6", "--edge-weight", "-1",
                "--weight-dist", "exponential"]) == 2
    assert "edge_weight" in capsys.readouterr().err


def test_generate_refuses_more_clusters_than_vertices(capsys):
    assert run(["generate", "--kind", "planted", "--n", "4", "--k", "10"]) == 2
    assert "clusters" in capsys.readouterr().err


def test_exit_codes(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 1 + -3\n")  # negative weight: contract violation
    assert run(["cluster", "--input", bad]) == 2

    big = tmp_path / "big.txt"
    n = 14
    lines = [f"{u} {v} +" for u in range(n) for v in range(u + 1, n)]
    big.write_text(f"{n} {len(lines)}\n" + "\n".join(lines) + "\n")
    assert run(["cluster", "--input", big, "--solver", "exact"]) == 3


@pytest.mark.parametrize("kind, message", [
    ("missing input", "No such file"),
    ("output directory", "No such file"),
    ("config not JSON", "is not JSON"),
    ("config not an object", "not list"),
])
def test_bad_path_or_config_is_one_line_and_exit_2(tmp_path, capsys, kind, message):
    g_path = tmp_path / "g.txt"
    run(["generate", "--kind", "random-signs", "--n", "6", "--seed", "1", "--output", g_path])
    cfg_path = tmp_path / "matrix.json"
    cfg_path.write_text('{"instances": [' if kind == "config not JSON" else "[{}]")
    argv = {
        "missing input": ["release", "--input", tmp_path / "missing.txt"],
        "output directory": ["release", "--input", g_path, "--merge-iterations", "5",
                             "--output", tmp_path / "missing" / "h.txt"],
    }.get(kind, ["matrix", "--config", cfg_path, "--output", tmp_path / "r.csv"])
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("text, line", [
    ("x 1\n0 1 +\n", "x 1"),
    ("2 1\na 1 +\n", "a 1 +"),
    ("2 1\n0 1 + heavy\n", "0 1 + heavy"),
], ids=["header", "vertex", "weight"])
def test_malformed_number_is_a_contract_violation(tmp_path, capsys, text, line):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    assert run(["cluster", "--input", bad]) == 2
    assert f"in line {line!r}" in capsys.readouterr().err


@pytest.mark.parametrize("solver", ["pivot", "local-search"])
def test_cluster_respects_k(tmp_path, solver):
    g_path = tmp_path / "g.txt"
    run(["generate", "--kind", "random-signs", "--n", "40", "--seed", "3",
         "--output", g_path])
    out = tmp_path / "clust.json"
    assert run(["cluster", "--input", g_path, "--solver", solver, "--k", "3",
                "--output", out]) == 0
    assert json.loads(out.read_text())["k"] <= 3
