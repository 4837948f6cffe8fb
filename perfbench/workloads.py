"""The benchmark's workloads: fixed lists of seeded pipeline cells.

A cell is one ``run_pipeline`` call: an instance spec, a pipeline
config, a privacy budget and a pipeline seed.  A workload turns the
benchmark seed into its list of cells; the same seed always gives the
same cells, and cell ``i`` of seed ``s`` uses seed ``1000 * s + i`` for
both its instance and its pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from privcc import PrivacyParams
from privcc.experiments import InstanceSpec, PipelineConfig
from privcc.release_unweighted import MergeConfig

EPSILON = 1.0
DELTA = 0.0


@dataclass(frozen=True)
class Cell:
    index: int
    spec: InstanceSpec
    config: PipelineConfig
    params: PrivacyParams
    seed: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_spec: Callable[[int, int], InstanceSpec]  # (n, seed) -> spec
    config: PipelineConfig
    n: int
    count: int  # distinct cells in one batch
    planted: bool  # instances come with a planted clustering
    unweighted: bool  # the release reports an audited merge lambda

    def cells(self, seed: int, n: int | None = None, count: int | None = None) -> list[Cell]:
        n = self.n if n is None else n
        count = self.count if count is None else count
        params = PrivacyParams(EPSILON, DELTA)
        return [
            Cell(i, self.make_spec(n, 1000 * seed + i), self.config, params, 1000 * seed + i)
            for i in range(count)
        ]


def _planted(n: int, seed: int) -> InstanceSpec:
    return InstanceSpec(kind="planted", n=n, clusters=4, flip_prob=0.05, seed=seed)


def _weighted(n: int, seed: int) -> InstanceSpec:
    return InstanceSpec(
        kind="weighted-random",
        n=n,
        weight_dist="exponential",
        edge_weight=40,
        density=0.1,
        seed=seed,
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="planted-lp",
            why="sampled-LP merge is ~86% of each cell, one dense (8n x n)(n x n) "
            "product per iteration; shows merge and cut-kernel work (ROADMAP items 3, 4)",
            make_spec=_planted,
            # a fixed merge budget: 300 iterations never reach the 300-iteration
            # patience stop, so every cell does the same merge work; under the
            # default (stop on patience, else at 2000) merge time varied 5x
            # between seeds
            config=PipelineConfig(merge=MergeConfig(iterations=300)),
            n=200,
            count=10,
            planted=True,
            unweighted=True,
        ),
        Workload(
            name="planted-per-edge",
            why="per-edge merge is cheap, so local search with its n-column margin "
            "matrix is ~90% of each cell; shows item 2, and merge changes should not move it",
            make_spec=_planted,
            config=PipelineConfig(merge=MergeConfig(strategy="per-edge")),
            n=400,
            count=4,
            planted=True,
            unweighted=True,
        ),
        Workload(
            name="weighted-sparse",
            why="no merge: weighted release and the split/contract/unsplit round trip, "
            "then local search from ~90 pivot clusters on a sparse parallel-pair graph "
            "(items 2, 4)",
            make_spec=_weighted,
            config=PipelineConfig(mechanism="weighted-laplace"),
            n=500,
            count=3,
            planted=False,
            unweighted=False,
        ),
    )
}
