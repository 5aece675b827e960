"""Scaled-down synthetic stand-ins for the 30 KONECT datasets of Table 5.

The paper evaluates the sparse framework on 30 real bipartite networks from
the Koblenz Network Collection (KONECT).  Those datasets cannot be
redistributed with this repository and cannot be downloaded in the offline
reproduction environment, so each one is replaced by a *synthetic stand-in*
that preserves the properties the algorithms are sensitive to:

* the left/right size ratio of the original network,
* its degree skew (heavy-tailed, generated with a bipartite Chung-Lu
  power-law model),
* its sparsity regime (average degree), and
* a planted balanced biclique playing the role of the dense community that
  determines the dataset's optimum (scaled from the paper's reported
  optimum).

Sizes are scaled down by roughly three orders of magnitude so that a pure
Python exact solver — and, more importantly, the much slower baselines —
can run the whole table in a benchmark harness.  The stand-ins were grown
by 1.5x after the bitset branch-and-bound kernel landed (>= 3x on the
dense suite, see ``BENCH_kernels.json``), narrowing the gap to the
originals while keeping the table runnable.  The registry keeps the
paper's reported numbers (sizes, density, optimum) alongside each
stand-in, so ``repro-mbb datasets`` can show paper-vs-stand-in side by
side.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.exceptions import DatasetError
from repro.graph.bipartite import BipartiteGraph
from repro.workloads.synthetic import sparse_synthetic_graph


@dataclass(frozen=True)
class DatasetSpec:
    """One KONECT dataset stand-in."""

    name: str
    #: stand-in generator parameters
    n_left: int
    n_right: int
    avg_degree: float
    planted_size: int
    seed: int
    #: True for the 12 "tough" datasets of Table 6 / Figures 4-6.
    tough: bool = False
    #: Values reported by the paper for the original dataset (|L|, |R|,
    #: density x 1e-4, optimum side size) — for documentation only.
    paper_left: int = 0
    paper_right: int = 0
    paper_density_1e4: float = 0.0
    paper_optimum: int = 0

    def generate(self) -> BipartiteGraph:
        """Materialise the stand-in graph (deterministic per spec)."""
        return sparse_synthetic_graph(
            self.n_left,
            self.n_right,
            self.avg_degree,
            planted_size=self.planted_size,
            seed=self.seed,
        )


def _spec(
    name: str,
    shape: Tuple[int, int],
    avg_degree: float,
    planted: int,
    *,
    tough: bool = False,
    paper: Tuple[int, int, float, int] = (0, 0, 0.0, 0),
) -> DatasetSpec:
    # zlib.crc32 is stable across interpreter runs (unlike ``hash`` on
    # strings), which keeps every stand-in graph reproducible.
    seed = zlib.crc32(name.encode("utf-8")) & 0x7FFFFFFF
    return DatasetSpec(
        name=name,
        n_left=shape[0],
        n_right=shape[1],
        avg_degree=avg_degree,
        planted_size=planted,
        seed=seed,
        tough=tough,
        paper_left=paper[0],
        paper_right=paper[1],
        paper_density_1e4=paper[2],
        paper_optimum=paper[3],
    )


#: Registry of all 30 stand-ins, in the order of the paper's Table 5.
DATASETS: Dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in [
        _spec("unicodelang", (180, 420), 2.0, 3, paper=(254, 614, 8.0, 4)),
        _spec("moreno-crime", (390, 270), 1.5, 2, paper=(829, 551, 3.2, 2)),
        _spec("opsahl-ucforum", (450, 270), 6.0, 5, paper=(899, 522, 71.9, 5)),
        _spec("escorts", (750, 500), 3.0, 5, paper=(10106, 6624, 0.76, 6)),
        _spec("jester", (1350, 80), 6.0, 10, tough=True, paper=(173421, 100, 563.4, 100)),
        _spec("pics-ut", (450, 1350), 4.0, 8, tough=True, paper=(17122, 82035, 1.6, 30)),
        _spec("youtube-groupmemberships", (1050, 350), 3.0, 6, paper=(94238, 30087, 0.10, 12)),
        _spec("dbpedia-writer", (900, 480), 1.8, 4, paper=(89356, 46213, 0.035, 6)),
        _spec("dbpedia-starring", (680, 720), 2.2, 4, paper=(76099, 81085, 0.046, 6)),
        _spec("github", (600, 1200), 3.5, 7, tough=True, paper=(56519, 120867, 0.064, 12)),
        _spec("dbpedia-recordlabel", (1200, 140), 2.0, 4, paper=(168337, 18421, 0.075, 6)),
        _spec("dbpedia-producer", (450, 1280), 1.8, 4, paper=(48833, 138844, 0.031, 6)),
        _spec("dbpedia-location", (1280, 390), 1.6, 3, paper=(172091, 53407, 0.032, 5)),
        _spec("dbpedia-occupation", (980, 780), 1.8, 4, paper=(127577, 101730, 0.019, 6)),
        _spec("dbpedia-genre", (1350, 60), 2.5, 5, paper=(258934, 7783, 0.23, 7)),
        _spec("discogs-lgenre", (1350, 18), 3.0, 6, paper=(270771, 15, 1021.2, 15)),
        _spec(
            "bookcrossing-full-rating",
            (750, 1800),
            3.0,
            8,
            tough=True,
            paper=(105278, 340523, 0.032, 13),
        ),
        _spec(
            "flickr-groupmemberships",
            (1800, 600),
            4.0,
            12,
            tough=True,
            paper=(395979, 103631, 0.21, 47),
        ),
        _spec("actor-movie", (750, 2100), 3.0, 6, tough=True, paper=(127823, 383640, 0.030, 8)),
        _spec(
            "stackexchange-stackoverflow",
            (2100, 450),
            2.5,
            6,
            tough=True,
            paper=(545196, 96680, 0.025, 9),
        ),
        _spec("bibsonomy-2ui", (150, 2250), 4.0, 6, paper=(5794, 767447, 0.58, 8)),
        _spec("dbpedia-team", (2400, 120), 2.0, 4, paper=(901166, 34461, 0.044, 6)),
        _spec("reuters", (2250, 900), 4.0, 12, tough=True, paper=(781265, 283911, 0.27, 51)),
        _spec("discogs-style", (2400, 45), 4.0, 10, tough=True, paper=(1617943, 383, 38.9, 42)),
        _spec("gottron-trec", (1200, 2400), 5.0, 14, tough=True, paper=(556077, 1173225, 0.13, 101)),
        _spec("edit-frwiktionary", (90, 2700), 5.0, 8, paper=(5017, 1907247, 0.77, 19)),
        _spec(
            "discogs-affiliation",
            (2700, 450),
            4.0,
            9,
            tough=True,
            paper=(1754823, 270771, 0.030, 26),
        ),
        _spec("wiki-en-cat", (2700, 300), 2.2, 6, paper=(1853493, 182947, 0.011, 14)),
        _spec("edit-dewiki", (750, 2850), 3.5, 10, tough=True, paper=(425842, 3195148, 0.042, 49)),
        _spec("dblp-author", (2250, 90), 2.0, 5, paper=(1425813, 4000, 0.002, 10)),
    ]
}

#: The 12 tough datasets of Table 6 / Figures 4-6, in the paper's order.
TOUGH_DATASETS: Tuple[str, ...] = tuple(
    name for name, spec in DATASETS.items() if spec.tough
)


def tough_dataset_names() -> Tuple[str, ...]:
    """Names of the tough datasets (labelled D1..D12 in the figures)."""
    return TOUGH_DATASETS


def load_dataset(name: str) -> BipartiteGraph:
    """Generate the stand-in graph for a dataset by name."""
    try:
        spec = DATASETS[name]
    except KeyError:
        raise DatasetError(
            f"unknown dataset {name!r}; known datasets: {sorted(DATASETS)}"
        ) from None
    return spec.generate()
