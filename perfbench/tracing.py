"""Spans around the public functions of the pipeline's modules.

The wrappers live in the benchmark, not in ``privcc``: :class:`Tracer`
replaces each public function in the namespace of every layer module
that holds it, so calls made through ``from .x import f`` bindings are
seen too.  A span is named ``<defining module>.<function>``; its layer is
the part before the dot.

Spans are kept in memory and written out at the end.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# modules on the pipeline path; expmech, packing, io and cli are left out
LAYERS = (
    "experiments",
    "release_unweighted",
    "release_weighted",
    "solvers",
    "transforms",
    "graphs",
)


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    cell: int | None
    end: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def moved_vertices(start, result) -> int:
    """Vertices outside the result cluster that took most of their start cluster.

    Cluster ids are canonical (first appearance), so comparing raw labels
    would count a relabelling as moves; this count does not.
    """
    pairs = start.assignment * result.k + result.assignment
    overlap = np.bincount(pairs, minlength=start.k * result.k).reshape(start.k, result.k)
    return int(start.n - overlap.max(axis=1).sum())


def _merge_counters(a: dict, result) -> dict:
    n = a["wplus"].n
    budget = a["constraint_budget"]
    budget = 4 * n if budget is None else budget
    iters = result.iterations_run if result.strategy == "sampled-lp" else 0
    # one (2B x n)(n x n) product per iteration
    return {"iterations": iters, "gflop": iters * 2.0 * (2 * budget) * n * n / 1e9}


# counters read from a call's bound arguments and its result
PROBES = {
    "release_unweighted.solve_merge_lp": _merge_counters,
    "solvers.local_search": lambda a, r: {
        "start_k": a["start"].k,
        "moved": moved_vertices(a["start"], r),
    },
    "solvers.pivot_kwikcluster": lambda a, r: {"clusters": r.k},
    "transforms.coarsen": lambda a, r: {"k_before": a["clustering"].k},
}


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` puts the originals back."""

    def __init__(self):
        self.spans: list[Span] = []
        self.cell: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer in LAYERS:
            module = sys.modules[f"privcc.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                package, _, owner = fn.__module__.rpartition(".")
                if package != "privcc" or owner not in LAYERS:
                    continue
                setattr(module, attr, self._wrap(fn, f"{owner}.{fn.__name__}"))
                self._restore.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _wrap(self, fn, name: str):
        probe = PROBES.get(name)
        signature = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), parent, self.cell)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if probe:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counters = probe(bound.arguments, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Self time of every span, in recording order."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (s, own) in enumerate(zip(self.spans, self.self_times())):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "self": own,
                            "parent": s.parent,
                            "cell": s.cell,
                            "counters": s.counters,
                        }
                    )
                    + "\n"
                )
