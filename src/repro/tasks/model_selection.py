"""Hyper-parameter search (the paper's effectiveness protocol, §6.1).

    "For task effectiveness evaluations, we find the best results from a
    grid search over learning rates from 0.001-0.1, # epochs from 1-30,
    and # dimensions from 128-512."

:class:`ParameterGrid` enumerates a cartesian product of named parameter
lists; :func:`grid_search` scores each combination with a user objective
and reports every trial plus the winner.  The objective factories build
the two protocols the paper grid-searches -- link prediction and
multi-label classification -- around any of the reproduced systems.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.tasks.classification import evaluate_classification
from repro.tasks.link_prediction import auc_from_split
from repro.tasks.split import split_edges
from repro.utils.rng import SeedLike, derive_seed


class ParameterGrid:
    """Cartesian product of named parameter value lists.

    Iterates deterministically in the insertion order of ``grid``'s keys,
    last key varying fastest (like sklearn's ``ParameterGrid``).
    """

    def __init__(self, grid: Mapping[str, Sequence]) -> None:
        if not grid:
            raise ValueError("parameter grid must not be empty")
        for key, values in grid.items():
            if isinstance(values, (str, bytes)) or not hasattr(values, "__len__"):
                raise TypeError(f"grid[{key!r}] must be a sequence of values")
            if len(values) == 0:
                raise ValueError(f"grid[{key!r}] must not be empty")
        self._keys = list(grid.keys())
        self._values = [list(grid[k]) for k in self._keys]

    def __len__(self) -> int:
        out = 1
        for values in self._values:
            out *= len(values)
        return out

    def __iter__(self) -> Iterator[Dict]:
        for combo in itertools.product(*self._values):
            yield dict(zip(self._keys, combo))


@dataclass
class Trial:
    """One grid point: the parameters tried, its score and its cost."""

    params: Dict
    score: float
    seconds: float


@dataclass
class GridSearchReport:
    """All trials of a grid search, ordered as enumerated."""

    trials: List[Trial] = field(default_factory=list)
    maximize: bool = True

    @property
    def best(self) -> Trial:
        if not self.trials:
            raise ValueError("grid search produced no trials")
        key = (lambda t: t.score) if self.maximize else (lambda t: -t.score)
        return max(self.trials, key=key)

    @property
    def best_score(self) -> float:
        return self.best.score

    def to_rows(self) -> List[List]:
        """Tabular view (sorted best-first) for reports and examples."""
        order = sorted(self.trials, key=lambda t: t.score,
                       reverse=self.maximize)
        return [[t.params, t.score, t.seconds] for t in order]


def grid_search(
    objective: Callable[[Dict], float],
    grid: Mapping[str, Sequence],
    maximize: bool = True,
) -> GridSearchReport:
    """Score every combination in ``grid`` with ``objective``.

    ``objective`` receives one parameter dict per grid point and returns a
    scalar score (higher is better when ``maximize``).
    """
    report = GridSearchReport(maximize=maximize)
    for params in ParameterGrid(grid):
        start = time.perf_counter()
        score = float(objective(params))
        report.trials.append(
            Trial(params=params, score=score,
                  seconds=time.perf_counter() - start)
        )
    return report


def _default_embed(method: str):
    # Imported lazily: repro.api pulls in every system, and tasks must stay
    # importable without the systems layer (it is the lower-level package).
    from repro.api import embed_graph

    def embed(graph: CSRGraph, params: Dict) -> np.ndarray:
        return embed_graph(graph, method=method, **params).embeddings

    return embed


def link_prediction_objective(
    graph: CSRGraph,
    method: str = "distger",
    test_fraction: float = 0.3,
    seed: SeedLike = 0,
    embed: Callable[[CSRGraph, Dict], np.ndarray] | None = None,
    **fixed,
) -> Callable[[Dict], float]:
    """Objective: link-prediction AUC of ``method`` under given params.

    The edge split is drawn once so every grid point competes on the same
    held-out edges; ``fixed`` arguments are merged under the searched
    parameters (search values win).
    """
    split = split_edges(graph, test_fraction=test_fraction,
                        seed=derive_seed(seed if seed is not None else 0, 0))
    embed = embed or _default_embed(method)

    def objective(params: Dict) -> float:
        merged = {**fixed, **params}
        embeddings = embed(split.train_graph, merged)
        return auc_from_split(embeddings, split)

    return objective


def classification_objective(
    graph: CSRGraph,
    labels: np.ndarray,
    method: str = "distger",
    train_ratio: float = 0.5,
    trials: int = 1,
    seed: SeedLike = 0,
    embed: Callable[[CSRGraph, Dict], np.ndarray] | None = None,
    **fixed,
) -> Callable[[Dict], float]:
    """Objective: micro-F1 of multi-label classification under params."""
    labels = np.asarray(labels, dtype=bool)
    embed = embed or _default_embed(method)

    def objective(params: Dict) -> float:
        merged = {**fixed, **params}
        embeddings = embed(graph, merged)
        report = evaluate_classification(
            embeddings, labels, train_ratio=train_ratio, trials=trials,
            seed=seed,
        )
        return report.mean_micro_f1

    return objective
