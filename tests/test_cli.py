import json

import pytest

from privcc.cli import main
from privcc.io import read_edge_list


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


def test_pipeline_formats(tmp_path, capsys):
    assert run(["pipeline", "--kind", "planted", "--n", "10", "--k", "2",
                "--p", "0.1", "--seed", "6", "--zero-noise", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("cell,instance,")
    assert run(["pipeline", "--kind", "planted", "--n", "10", "--seed", "6",
                "--zero-noise", "--format", "jsonl"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["nonprivate_eval"] is True


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


def test_exit_codes(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 1 + -3\n")  # negative weight: contract violation
    assert run(["cluster", "--input", bad]) == 2

    big = tmp_path / "big.txt"
    n = 14
    lines = [f"{u} {v} +" for u in range(n) for v in range(u + 1, n)]
    big.write_text(f"{n} {len(lines)}\n" + "\n".join(lines) + "\n")
    assert run(["cluster", "--input", big, "--solver", "exact"]) == 3
