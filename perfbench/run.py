"""privcc benchmark: run a workload, check its outputs, print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload planted-lp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all            # every workload, untraced and traced

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
a traced run gives the per-layer breakdown.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value": ..., "unit": ...}``).  The full results,
with the environment, every cell's digest and CSV row, and any failure,
go to ``perfbench/out/``.

This process imports neither numpy nor privcc.  Each set-up sample and
the measured run happen in fresh worker processes (``worker.py``), so
peak RSS and import time belong to one workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, UNITS

HERE = Path(__file__).resolve().parent
WORKLOADS = ("planted-lp", "planted-per-edge", "weighted-sparse")
SETUP_SAMPLES = 7  # set-up processes per run; setup_s is their median
RUN_LIMIT_S = 170  # a whole run, set-up included, is killed after this


def worker_env() -> dict:
    """Environment of a worker: ``src`` importable, BLAS threads capped at nproc."""
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cap = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run ``worker.py`` with ``args``; return the JSON object it prints last.

    The worker is killed if it is still running at ``deadline``
    (``time.monotonic()``), which raises ``subprocess.TimeoutExpired``.
    """
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=worker_env(),
        capture_output=True,
        text=True,
        timeout=max(deadline - time.monotonic(), 0.1),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def baseline_digest(workload: str, seed: int) -> str | None:
    """The output digest ``baseline.json`` recorded for this workload and seed."""
    path = HERE / "baseline.json"
    if not path.is_file():
        return None
    recorded = json.loads(path.read_text())["workloads"].get(workload, {})
    return recorded.get("digests", {}).get(str(seed))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; returns the worker's results plus ``setup_s``."""
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed)]
    # the first sample also compiles bytecode in a fresh checkout; discard it
    samples = [
        run_worker(["setup", *common], deadline)["setup_s"]
        for _ in range(SETUP_SAMPLES + 1)
    ][1:]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{workload}-seed{seed}-trace{trace}"
    result = run_worker(
        ["run", *common, "--seconds", str(seconds), "--trace", str(trace)]
        + (["--spans", f"{stem}-spans.jsonl"] if trace else []),
        deadline,
    )
    result["setup_samples_s"] = samples
    result["baseline_digest"] = baseline_digest(workload, seed)
    result["metrics"]["setup_s"] = statistics.median(samples)
    names = [m[0] for m in (PER_LAYER if trace else END_TO_END)]
    result["reported"] = {
        name: {"value": result["metrics"][name], "unit": UNITS[name]} for name in names
    }
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1))
    return result


def describe(result: dict) -> list[str]:
    env = result["env"]
    base = result["baseline_digest"]
    if base is None:
        versus = "no baseline digest for this seed"
    else:
        versus = "same as baseline" if base == result["digest"] else f"CHANGED from baseline {base}"
    lines = [
        f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
        f"digest={result['digest']} attempted={result['attempted']} failed={result['failed']} "
        f"failed_frac={result['failed'] / result['attempted']:.3g}",
        f"# outputs: {versus}",
        "# env: " + ", ".join(f"{k}={v}" for k, v in env.items()),
    ]
    lines += [f"# failed cell {f['cell']}: {f['error'] or '; '.join(f['problems'])}"
              for f in result["failures"]]
    lines += [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in result["reported"].items()]
    return lines


def verdict(result: dict) -> dict:
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["reported"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="privcc benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload, both modes")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (Path.cwd() / "src" / "privcc" / "__init__.py").is_file():
        print("run.py: no src/privcc here; run it from the repository root", file=sys.stderr)
        return 2
    if args.all:
        ok = True
        for workload in WORKLOADS:
            for trace in (0, 1):
                result = run_once(workload, args.seed, args.seconds, trace)
                print("\n".join(describe(result)), flush=True)
                ok = ok and result["failed"] == 0
        return 0 if ok else 1
    if args.workload is None:
        ap.error("give --workload or --all")
    result = run_once(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(describe(result)))
    print(json.dumps(verdict(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
