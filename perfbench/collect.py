"""Summarize the runs saved in ``perfbench/out`` into a baseline file.

    python3 perfbench/collect.py > perfbench/baseline.json

For every workload: the median and quartiles of each end-to-end metric
over the untraced runs, the median of each per-layer metric over the
traced runs, and the output digest of every seed.  ``run.py`` compares
each run's digest with the one recorded here for the same seed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from metrics import END_TO_END, PER_LAYER

OUT = Path(__file__).resolve().parent / "out"


def summarize(results: list[dict], names) -> dict:
    out = {}
    for name in names:
        values = [r["reported"][name]["value"] for r in results]
        entry = {"median": statistics.median(values), "runs": len(values)}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3)
        out[name] = entry
    return out


def digests(results: list[dict]) -> dict:
    """Digest per seed; every run of a seed, traced or not, must agree."""
    out: dict[str, str] = {}
    for r in sorted(results, key=lambda r: r["seed"]):
        if out.setdefault(str(r["seed"]), r["digest"]) != r["digest"]:
            raise SystemExit(f"{r['workload']} seed {r['seed']}: runs disagree on the digest")
    return out


def main() -> int:
    runs = [json.loads(p.read_text()) for p in sorted(OUT.glob("*-trace[01].json"))]
    if not runs:
        print(f"no runs in {OUT}", file=sys.stderr)
        return 1
    summary = {"env": runs[0]["env"], "workloads": {}}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        untraced = [r for r in mine if r["trace"] == 0]
        traced = [r for r in mine if r["trace"] == 1]
        summary["workloads"][workload] = {
            "seeds": sorted({r["seed"] for r in untraced}),
            "end_to_end": summarize(untraced, [m[0] for m in END_TO_END]) if untraced else {},
            "per_layer": summarize(traced, [m[0] for m in PER_LAYER]) if traced else {},
            "digests": digests(mine),
        }
    json.dump(summary, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
