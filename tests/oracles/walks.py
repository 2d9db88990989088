"""Walk oracles: the per-walker loop engine and exact walk distributions.

:class:`LoopWalkEngine` runs every walk mode through a per-walker BSP
loop -- one :class:`Walker` at a time, scheduled by :class:`BSPEngine`
supersteps, measured by :class:`IncrementalWalkMeasure` (InCoM) or
:class:`FullPathWalkMeasure` (HuGE-D's whole-path recomputation) and
stopped by :func:`should_stop`.  Under the walker RNG protocol it must
land on the lock-step rounds' bytes in every mode -- same corpus, stats
and cluster metrics -- which is the walk engine's reference parity.  :func:`accepted_draws` samples a
kernel's scalar reference from a seeded generator, :func:`routine_corpus`
builds a routine corpus through the engine.

Every sampler in :mod:`repro.walks` is stochastic; the functions below
compute the distributions they *should* follow, by direct evaluation of
the paper's formulas, so tests can compare empirical behaviour against
ground truth:

* :func:`node2vec_transition_distribution` -- the exact second-order
  probabilities of §2.1 that the rejection kernel must reproduce;
* :func:`huge_acceptance_matrix` -- Eq. 3's acceptance probability for
  every arc (HuGE's effective transition bias, since rejected hops
  retry uniformly);
* :func:`first_order_stationary_distribution` -- the degree-proportional
  stationary law of uniform walks (what corpus occupancy converges to);
* :func:`expected_walk_entropy` -- Monte-Carlo-free entropy of an
  occupancy vector, the quantity the InCoM accumulator tracks.

These are O(|V|²)-ish by design -- correctness oracles for stand-in
scale, not production paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generic, List, Optional, Protocol, Tuple, TypeVar

import numpy as np

from repro.graph.csr import CSRGraph
from repro.runtime.cluster import Cluster
from repro.runtime.message import FullPathMessage, IncrementalMessage
from repro.utils.incremental import IncrementalCorrelation, IncrementalEntropy
from repro.utils.rng import WalkerStream, walker_stream_keys
from repro.utils.stats import entropy_of_sequence, r_squared
from repro.utils.validation import check_positive
from repro.walks.corpus import Corpus
from repro.walks.engine import DistributedWalkEngine, WalkConfig
from repro.walks.kernels import HuGEKernel
from repro.walks.termination import WalkLengthRule
from repro.walks.walker import WalkStats

# --------------------------------------------------------------------- #
# BSP superstep loop (Valiant [56], paper §2.2)
# --------------------------------------------------------------------- #

Item = TypeVar("Item")

#: A step function outcome: ``None`` terminates the item; otherwise
#: ``(destination_machine, item, message_bytes)`` re-enqueues it.  A zero
#: ``message_bytes`` with an unchanged machine means "continue locally"
#: (the engine does not count a message for it).
StepResult = Optional[Tuple[int, Item, int]]


@dataclass
class SuperstepRecord:
    """What happened during one superstep (the BSP trace unit)."""

    #: items resident per machine at the start of the superstep.
    items_per_machine: List[int]
    #: items that terminated during the superstep.
    completed: int
    #: cross-machine messages emitted during the superstep.
    messages: int

    @property
    def active_items(self) -> int:
        return sum(self.items_per_machine)

    @property
    def machine_imbalance(self) -> float:
        """Max/mean resident items; the BSP straggler indicator."""
        total = self.active_items
        if total == 0:
            return 1.0
        mean = total / len(self.items_per_machine)
        return max(self.items_per_machine) / mean


@dataclass
class BSPStats:
    """Scheduling statistics of one BSP run."""

    supersteps: int = 0
    items_completed: int = 0
    messages_delivered: int = 0
    #: per-superstep records when tracing is enabled (engine option).
    trace: List[SuperstepRecord] = None  # type: ignore[assignment]


class BSPEngine(Generic[Item]):
    """Runs items (walkers) to completion over a simulated cluster.

    KnightKing coordinates walkers with BSP: in each superstep every
    machine advances its resident walkers; walkers that hop to a node on
    another machine become messages delivered at the start of the next
    superstep.  The per-item ``advance`` callable keeps stepping an item
    while it stays on its current machine and returns a
    :data:`StepResult` when the item either terminates (``None``) or must
    migrate (destination machine plus the wire size of the walker
    message).
    """

    def __init__(self, cluster: Cluster, trace: bool = False) -> None:
        self.cluster = cluster
        self.stats = BSPStats()
        if trace:
            self.stats.trace = []

    def run(
        self,
        initial: List[Tuple[int, Item]],
        advance: Callable[[int, Item], StepResult],
        max_supersteps: int = 1_000_000,
    ) -> BSPStats:
        """Drive all items to completion.

        ``initial`` holds ``(machine, item)`` seeds, typically one walker
        per source node placed on the machine owning that node;
        ``advance(machine, item)`` is the per-item kernel;
        ``max_supersteps`` is a safety valve against non-terminating
        kernels.
        """
        queues: List[List[Item]] = [[] for _ in range(self.cluster.num_machines)]
        for machine, item in initial:
            queues[machine].append(item)

        metrics = self.cluster.metrics
        for _ in range(max_supersteps):
            if not any(queues):
                break
            self.stats.supersteps += 1
            step_completed = 0
            step_messages = 0
            items_per_machine = [len(q) for q in queues]
            next_queues: List[List[Item]] = [[] for _ in range(self.cluster.num_machines)]
            for machine, queue in enumerate(queues):
                for item in queue:
                    result = advance(machine, item)
                    while result is not None:
                        dest, moved, n_bytes = result
                        if dest == machine and n_bytes == 0:
                            # Kernel yielded control without leaving the
                            # machine; keep advancing within the superstep.
                            result = advance(machine, moved)
                            continue
                        metrics.record_message(n_bytes, src=machine, dst=dest)
                        self.stats.messages_delivered += 1
                        step_messages += 1
                        next_queues[dest].append(moved)
                        break
                    else:
                        self.stats.items_completed += 1
                        step_completed += 1
            if self.stats.trace is not None:
                self.stats.trace.append(SuperstepRecord(
                    items_per_machine=items_per_machine,
                    completed=step_completed,
                    messages=step_messages,
                ))
            queues = next_queues
        else:
            raise RuntimeError(
                f"BSP did not converge within {max_supersteps} supersteps"
            )
        return self.stats


# --------------------------------------------------------------------- #
# Walker state and the two measurements (paper §2.2, §2.3, §3.1)
# --------------------------------------------------------------------- #


@dataclass
class Walker:
    """One random walk in progress (the BSP loop's unit of scheduling)."""

    walk_id: int
    source: int
    current: int
    previous: int = -1
    path: List[int] = field(default_factory=list)
    #: Number of accepted steps so far (== len(path) - 1).
    steps: int = 0
    #: Rejection-sampling trials spent at the current position.
    trials_at_step: int = 0

    @classmethod
    def start(cls, walk_id: int, source: int) -> "Walker":
        """A fresh walker positioned at its source with the source on-path."""
        return cls(walk_id=walk_id, source=source, current=source,
                   path=[source])

    def advance(self, node: int) -> None:
        """Accept ``node`` as the next step."""
        self.previous = self.current
        self.current = node
        self.path.append(node)
        self.steps += 1
        self.trials_at_step = 0

    @property
    def length(self) -> int:
        """Current walk length ``L`` = number of nodes on the path."""
        return len(self.path)


class WalkMeasure(Protocol):
    """Protocol both measurement strategies satisfy: ``observe(node)``
    after each accepted step, the Eq. 5 termination test, the per-step
    compute cost and the wire size of a migration message."""

    def observe(self, node: int) -> None: ...

    def should_terminate(self, mu: float, min_length: int) -> bool: ...

    @property
    def entropy(self) -> float: ...

    @property
    def r_squared(self) -> float: ...

    @property
    def length(self) -> int: ...

    def step_cost(self) -> float: ...

    def message_bytes(self) -> int: ...


@dataclass
class IncrementalWalkMeasure:
    """DistGER's InCoM: O(1) updates via the streaming accumulators of
    :mod:`repro.utils.incremental`, 80-byte constant messages."""

    _entropy: IncrementalEntropy = field(default_factory=IncrementalEntropy)
    _corr: IncrementalCorrelation = field(default_factory=IncrementalCorrelation)

    def observe(self, node: int) -> None:
        h = self._entropy.add(node)
        self._corr.add(h, float(self._entropy.length))

    def should_terminate(self, mu: float, min_length: int) -> bool:
        if self.length < min_length:
            return False
        return self._corr.r_squared < mu

    @property
    def entropy(self) -> float:
        return self._entropy.value

    @property
    def r_squared(self) -> float:
        return self._corr.r_squared

    @property
    def length(self) -> int:
        return self._entropy.length

    def step_cost(self) -> float:
        """One unit: the measurement itself is O(1)."""
        return 1.0

    def message_bytes(self) -> int:
        """Constant 10-field message regardless of walk length."""
        return IncrementalMessage(0, self.length, 0).byte_size()


@dataclass
class FullPathWalkMeasure:
    """HuGE-D: recompute ``H(W)`` and ``R²(H, L)`` from the whole path at
    every step (O(L) per step, O(L²) per walk), shipping the path in its
    messages (``24 + 8L`` bytes)."""

    path: List[int] = field(default_factory=list)
    entropy_series: List[float] = field(default_factory=list)

    def observe(self, node: int) -> None:
        self.path.append(node)
        # O(L): full recomputation, deliberately not incremental.
        self.entropy_series.append(entropy_of_sequence(self.path))

    def should_terminate(self, mu: float, min_length: int) -> bool:
        if self.length < min_length:
            return False
        # O(L): regression over the entire (H, L) history.
        lengths = list(range(1, self.length + 1))
        return r_squared(self.entropy_series, lengths) < mu

    @property
    def entropy(self) -> float:
        return self.entropy_series[-1] if self.entropy_series else 0.0

    @property
    def r_squared(self) -> float:
        if self.length < 2:
            return 1.0
        return r_squared(self.entropy_series, list(range(1, self.length + 1)))

    @property
    def length(self) -> int:
        return len(self.path)

    def step_cost(self) -> float:
        """O(L) units: proportional to the current path length."""
        return float(max(1, self.length))

    def message_bytes(self) -> int:
        """Full path on the wire: 24 + 8L bytes."""
        return FullPathMessage(0, self.length, 0, path=self.path).byte_size()


def make_measure(mode: str) -> WalkMeasure:
    """Factory: ``"incom"`` or ``"fullpath"``."""
    key = mode.lower()
    if key == "incom":
        return IncrementalWalkMeasure()
    if key == "fullpath":
        return FullPathWalkMeasure()
    raise KeyError(f"unknown measurement mode {mode!r}; options: incom, fullpath")


def should_stop(rule: WalkLengthRule, measure: WalkMeasure) -> bool:
    """``rule`` decided from one walk's measurement state (the scalar twin
    of :meth:`WalkLengthRule.stop_mask`)."""
    if measure.length >= rule.max_length:
        return True
    return measure.should_terminate(rule.mu, rule.min_length)


# --------------------------------------------------------------------- #
# The loop engine
# --------------------------------------------------------------------- #


class LoopWalkEngine(DistributedWalkEngine):
    """:class:`DistributedWalkEngine` with every mode on the per-walker
    loop -- one walker, one trial at a time, in-process.

    The lock-step consumer loop (``_run_rounds``) is replaced by
    :meth:`_run_loop_rounds`, so whatever block widths, executor,
    measurement or accounting the production rounds use, they must agree
    with this.
    """

    def _run_rounds(self, sources, rounds, count_rule, degrees, corpus,
                    stats, walk_machines, partition_join) -> None:
        if partition_join is not None:
            raise ValueError("the loop reference takes no partition join")
        self._run_loop_rounds(sources, rounds, count_rule, degrees, corpus,
                              stats, walk_machines)

    def _run_loop_rounds(self, sources: np.ndarray, rounds: int, count_rule,
                         degrees: np.ndarray, corpus: Corpus,
                         stats: WalkStats, walk_machines: List[int]) -> None:
        """Run rounds through :meth:`_run_round_loop_walker` until the
        walk-count rule stops them."""
        for round_idx in range(rounds):
            self._run_round_loop_walker(sources, round_idx, corpus, stats,
                                        walk_machines)
            stats.rounds += 1
            if count_rule is not None:
                if count_rule.observe_round(corpus, degrees):
                    break

    def _run_round_loop_walker(self, sources: np.ndarray, round_idx: int,
                               corpus: Corpus, stats: WalkStats,
                               walk_machines: List[int]) -> None:
        """Per-walker BSP loop drawing from private counter streams.

        Mode-generic: the same per-walker uniforms (two per trial), the
        same trial/termination schedule and the same cost accounting as
        the lock-step rounds -- only executed one walker at a time, with
        the cluster metrics credited as it goes.  Finished walks are
        emitted in walk-id order (the protocol's canonical corpus order,
        independent of BSP scheduling).
        """
        cfg = self.config
        cluster = self.cluster
        metrics = cluster.metrics
        info_mode = cfg.mode != "routine"
        length_rule = (
            WalkLengthRule(mu=cfg.mu, min_length=cfg.min_length,
                           max_length=cfg.max_length)
            if info_mode
            else None
        )
        n = len(sources)
        keys = walker_stream_keys(
            cluster.walk_seed_root,
            round_idx * n + np.arange(n, dtype=np.int64),
        )
        finished: List[Optional[np.ndarray]] = [None] * n

        items: List[Tuple[int, Tuple[Walker, object, WalkerStream]]] = []
        for offset, source in enumerate(sources):
            source = int(source)
            walker = Walker.start(round_idx * n + offset, source)
            measure = make_measure(cfg.mode) if info_mode else None
            if measure is not None:
                measure.observe(source)
            items.append((cluster.machine_of(source),
                          (walker, measure, WalkerStream(int(keys[offset])))))

        def advance(machine: int,
                    item: Tuple[Walker, object, WalkerStream]) -> StepResult:
            walker, measure, stream = item
            while True:
                if self._walk_finished(walker, measure, length_rule):
                    finished[walker.walk_id - round_idx * n] = \
                        np.asarray(walker.path, dtype=np.int64)
                    return None
                forced = walker.trials_at_step >= cfg.max_trials_per_step
                u1, u2 = stream.next_pair()
                candidate = self.kernel.step_with_uniforms(
                    walker.current, walker.previous, u1, u2, forced)
                stats.total_trials += 1
                metrics.record_compute(machine, 1.0)
                if candidate is None:
                    walker.trials_at_step += 1
                    continue
                walker.advance(int(candidate))
                stats.total_steps += 1
                metrics.record_local_step(machine)
                if measure is not None:
                    measure.observe(int(candidate))
                    metrics.record_compute(machine, measure.step_cost())
                dest = cluster.machine_of(int(candidate))
                if dest != machine:
                    n_bytes = (
                        measure.message_bytes()
                        if measure is not None
                        else self._message_bytes
                    )
                    return (dest, (walker, measure, stream), n_bytes)

        BSPEngine(cluster).run(items, advance)

        for offset, walk in enumerate(finished):
            corpus.add_walk(walk)
            stats.total_walks += 1
            stats.walk_lengths.append(int(walk.size))
            walk_machines.append(cluster.machine_of(int(sources[offset])))

    def _walk_finished(self, walker: Walker, measure, length_rule) -> bool:
        # Dead end (directed graphs / isolated nodes): stop where we stand.
        if self.graph.degree(walker.current) == 0:
            return True
        if length_rule is None:
            return walker.length >= self.config.walk_length
        return should_stop(length_rule, measure)


def accepted_draws(kernel, current: int, previous: int, rng,
                   count: int) -> np.ndarray:
    """``count`` accepted hops of ``kernel`` from ``current`` (arrived
    from ``previous``), every trial fed the two uniforms it consumes from
    the generator ``rng`` -- rejections retry, as in a walk."""
    draws = []
    while len(draws) < count:
        u1, u2 = rng.random(2)
        out = kernel.step_with_uniforms(current, previous, u1, u2, False)
        if out is not None:
            draws.append(int(out))
    return np.array(draws)


def routine_corpus(graph: CSRGraph, walk_length: int, walks_per_node: int,
                   seed: int = 0, kernel: str = "deepwalk", sources=None,
                   **overrides):
    """The routine corpus (``walks_per_node`` walks of ``walk_length``
    tokens from every source) as the engine samples it on one machine;
    ``overrides`` are further :class:`WalkConfig` fields (node2vec's
    ``p`` / ``q``)."""
    cluster = Cluster(1, np.zeros(graph.num_nodes, dtype=np.int64),
                      seed=seed)
    config = WalkConfig.routine(kernel=kernel, walk_length=walk_length,
                                walks_per_node=walks_per_node, **overrides)
    return DistributedWalkEngine(graph, cluster, config).run(sources).corpus


def node2vec_transition_distribution(
    graph: CSRGraph, previous: int, current: int,
    p: float = 1.0, q: float = 1.0,
) -> dict:
    """Exact ``P(v | previous, current)`` of the node2vec walk (§2.1).

    ``previous < 0`` means the first (first-order) step.  Returns a
    ``{node: probability}`` dict over the neighbours of ``current``.
    """
    check_positive("p", p)
    check_positive("q", q)
    weights = {}
    for v in graph.neighbors(current):
        v = int(v)
        if previous < 0:
            pi = 1.0
        elif v == previous:
            pi = 1.0 / p
        elif graph.has_edge(previous, v):
            pi = 1.0
        else:
            pi = 1.0 / q
        weights[v] = pi * graph.edge_weight(current, v)
    total = sum(weights.values())
    if total <= 0:
        raise ValueError(f"node {current} has no walkable neighbours")
    return {v: w / total for v, w in weights.items()}


def huge_acceptance_matrix(graph: CSRGraph) -> np.ndarray:
    """Eq. 3's acceptance probability ``P(u, v)`` for every stored arc.

    Returned as a dense ``float64[num_nodes, num_nodes]`` with zeros on
    non-arcs -- convenient for assertions; use stand-in-scale graphs only.
    """
    kernel = HuGEKernel(graph)
    n = graph.num_nodes
    out = np.zeros((n, n), dtype=np.float64)
    for u in range(n):
        for v in graph.neighbors(u):
            out[u, int(v)] = kernel.acceptance_probability(u, int(v))
    return out


def huge_effective_transition_matrix(graph: CSRGraph) -> np.ndarray:
    """The walking-backtracking chain's effective per-step distribution.

    A HuGE step proposes uniformly over ``N(u)`` and accepts with Eq. 3;
    rejection re-proposes.  Conditioned on eventually accepting, the hop
    distribution is acceptance-weighted uniform:
    ``P(v | u) = P(u,v) / Σ_w P(u,w)``.  Rows of dead-end nodes are zero.
    """
    accept = huge_acceptance_matrix(graph)
    row_sums = accept.sum(axis=1, keepdims=True)
    out = np.divide(accept, row_sums, out=np.zeros_like(accept),
                    where=row_sums > 0)
    return out


def first_order_stationary_distribution(graph: CSRGraph) -> np.ndarray:
    """Stationary law of the uniform first-order walk: ``deg(v) / 2|E|``.

    Only defined for undirected graphs (where the chain is reversible and
    the closed form holds); raises otherwise.
    """
    if graph.directed:
        raise ValueError(
            "closed-form stationary distribution requires an undirected graph"
        )
    deg = graph.degrees.astype(np.float64)
    total = deg.sum()
    if total <= 0:
        raise ValueError("graph has no edges")
    return deg / total


def stationary_distribution_power_iteration(
    transition: np.ndarray, tol: float = 1e-12, max_iters: int = 10_000
) -> np.ndarray:
    """Stationary distribution of a row-stochastic matrix by power
    iteration (for chains without a closed form, e.g. HuGE's).

    Rows that sum to zero (dead ends) are treated as self-loops so the
    iteration stays stochastic.
    """
    t = np.asarray(transition, dtype=np.float64).copy()
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError(f"transition must be square, got {t.shape}")
    n = t.shape[0]
    dead = t.sum(axis=1) <= 0
    t[dead, :] = 0.0
    t[dead, dead] = 1.0
    pi = np.full(n, 1.0 / n)
    for _ in range(max_iters):
        nxt = pi @ t
        if np.abs(nxt - pi).max() < tol:
            return nxt / nxt.sum()
        pi = nxt
    return pi / pi.sum()


def expected_walk_entropy(occupancy: np.ndarray) -> float:
    """Shannon entropy (bits) of a non-negative occupancy vector (Eq. 4)."""
    occ = np.asarray(occupancy, dtype=np.float64)
    total = occ.sum()
    if total <= 0:
        raise ValueError("occupancy must have positive mass")
    probs = occ[occ > 0] / total
    return float(-(probs * np.log2(probs)).sum())
