"""The five ledger workloads.

Every workload generates its inputs from the run seed, calls only public
entry points of ``repro`` (``embed_graph``, ``apply_edge_stream``,
``QueryEngine``/``EmbeddingStore``/``BatchTopKScorer.top_k`` and, for the
layer-by-layer drive, the calls ``RandomWalkSystem.embed`` itself makes),
checks what came back, and hands the runner its timing samples.  The
README beside this file says why each workload exists and which layer
should move which number; comments here only give reasons the code does
not show.

Walk rounds are pinned (``min_rounds = max_rounds``).  The KL stopping
rule picks 4 to 10 rounds depending on the seed, which makes wall time
2.5x seed-dependent; pinned, a run measures the code and not the seed's
round count, and link-prediction AUC stops swinging with corpus size.
"""

from __future__ import annotations

import glob
import hashlib
import os
import queue
import resource
import signal
import statistics
import tempfile
import threading
import time
import traceback
from collections import deque
from contextlib import contextmanager
from multiprocessing import resource_tracker
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

from repro import embed_graph
from repro.api import apply_edge_stream
from repro.dynamic import DeltaCSR, random_churn
from repro.dynamic.invalidate import stale_walk_ids
from repro.embedding.trainer import DistributedTrainer
from repro.graph.datasets import load
from repro.graph.generators import rmat
from repro.partition import quality as partition_quality
from repro.partition.base import PartitionConfig
from repro.partition.mpgp import MPGPPartitioner
from repro.runtime.cluster import Cluster
from repro.runtime.pipeline import run_pipelined_sampling
from repro.serving import (
    BatchTopKScorer,
    EmbeddingStore,
    QueryEngine,
    zipf_query_trace,
)
from repro.systems import DistGER
from repro.tasks.link_prediction import auc_from_split
from repro.tasks.split import split_edges
from repro.utils.rng import derive_seed
from repro.walks.corpus import CorpusFeed
from repro.walks.engine import DistributedWalkEngine, WalkConfig

from callcount import profile_calls
from spans import Tracer

MACHINES = 4
DIM = 64
EPOCHS = 2
ROUNDS = 8
#: Fixed at nproc of the reference host, never derived from the host.
WORKERS = 2
TEST_FRACTION = 0.3
CHURN = 0.01
BATCH = 16
TOP_K = 10
ZIPF_EXPONENT = 1.1
IN_FLIGHT = 4
#: Passes whose AUC feeds ``quality``: a fixed count, so the metric is a
#: pure function of the seed however many passes the time budget allows.
QUALITY_PASSES = 3

SIZES = {
    "full": {
        "lj_scale": 0.5,          # 600 nodes
        "lj_warm_scale": 0.17,    # 204 nodes
        "rmat_scale": 13,         # 8 192 nodes
        "rmat_warm_scale": 8,
        "catalogue": 100_000,
        "update_steps": 32,
        "min_passes": 3,
        "parity_batches": 32,
        "brute_queries": 64,
        "warm_batches": 40,
        "open_rate": 20.0,        # batches/s, ~40% of pool capacity
        "serve_setups": 5,
        "auc_floor": 0.70,
        "chain_auc_floor": 0.65,
    },
    "smoke": {
        "lj_scale": 0.17,
        "lj_warm_scale": 0.1,
        "rmat_scale": 8,
        "rmat_warm_scale": 6,
        "catalogue": 2_000,
        "update_steps": 4,
        "min_passes": 1,
        "parity_batches": 8,
        "brute_queries": 16,
        "warm_batches": 8,
        "open_rate": 40.0,
        "serve_setups": 1,
        # 200-node graphs hold too few test edges for a stable AUC.
        "auc_floor": 0.0,
        "chain_auc_floor": 0.0,
    },
}

# Seed-derivation tags: one stream per kind of input.
_LJ, _EMBED, _RMAT, _CHURN, _MATRIX, _TRACE, _ARRIVALS, _BRUTE = range(1, 9)


def derive(seed: int, *path: int) -> int:
    """A positive 31-bit seed for the input named by ``path``."""
    state = np.random.SeedSequence([seed, *path]).generate_state(1)[0]
    return int(state) % (2**31 - 1) + 1


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def safe(read: Callable[[], float]) -> Optional[float]:
    """A count read from the program's return values, or None when a
    later change renamed it -- a missing counter is not a failed run."""
    try:
        return float(read())
    except (AttributeError, KeyError, TypeError):
        return None


@contextmanager
def _no_span(name: str, op: Optional[int] = None) -> Iterator[None]:
    yield None


def shm_entries() -> set:
    """Shared-memory segments and spill directories currently on disk."""
    patterns = ("/dev/shm/psm_*", "/dev/shm/repro-*",
                os.path.join(tempfile.gettempdir(), "repro-spill-*"))
    return {path for pattern in patterns for path in glob.glob(pattern)}


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def unwaited_children() -> Dict[int, str]:
    """pid -> state of every child this interpreter has not waited for."""
    me = os.getpid()
    found = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # "pid (comm) state ppid ..."; comm may hold spaces.
                state, parent = handle.read().rsplit(")", 1)[1].split()[:2]
        except (OSError, ValueError):
            continue
        if int(parent) == me:
            found[int(entry)] = state
    return found


def stop_processes() -> List[int]:
    """Stop and wait for every process this interpreter still has.

    ``multiprocessing``'s resource tracker starts with the first shared
    segment and otherwise ends only *after* its parent has, so it would
    outlive the run; closing its pipe ends it now.  Any other child still
    running was left behind by the program: it is killed, waited for and
    returned, and the caller counts it as a failed check.
    """
    # Closes the pipe and waits; does nothing when no tracker started.
    resource_tracker._resource_tracker._stop()
    found = unwaited_children()
    for child in found:
        try:
            os.kill(child, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for child in found:
        try:
            os.waitpid(child, 0)
        except ChildProcessError:
            pass
    return sorted(pid for pid, state in found.items() if state != "Z")


class Run:
    """One workload run: arguments in, samples, failures and detail out."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 profile: bool, size: str) -> None:
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.profile = profile
        self.size = SIZES[size]
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.setup_samples: List[float] = []
        #: name -> samples; the per-layer value is their median.
        self.samples: Dict[str, List[float]] = {}
        #: Absolute numbers for the report (seconds, digests, counts).
        self.detail: Dict[str, object] = {}

    def fail(self, message: str, operations: int = 1) -> None:
        self.failed += operations
        self.failures.append(message)

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.fail(message)
        return bool(ok)

    def sample(self, name: str, value: Optional[float]) -> None:
        if value is not None:
            self.samples.setdefault(name, []).append(float(value))

    def layers(self) -> Dict[str, float]:
        return {name: statistics.median(values)
                for name, values in self.samples.items()}

    def keep_going(self, passes: int, started: float) -> bool:
        return (passes < self.size["min_passes"]
                or time.perf_counter() - started < self.seconds)


# ----------------------------------------------------------------- #
# embed_lj_serial / embed_lj_pipeline
# ----------------------------------------------------------------- #

def _embed_kwargs(execution: str) -> dict:
    kwargs = dict(method="distger", num_machines=MACHINES, dim=DIM,
                  epochs=EPOCHS, min_rounds=ROUNDS, max_rounds=ROUNDS)
    if execution == "pipeline":
        kwargs.update(execution="pipeline", workers=WORKERS)
    return kwargs


def lj_split(run: Run, graph_seed: int, scale: float):
    """Fresh LJ stand-in and its 70/30 edge split, timed as set-up.

    Built anew for every pass: per-graph memoised tables (the MPGP
    common-neighbour table) are a cost users pay on every embed.
    """
    start = time.perf_counter()
    data = load("LJ", scale=scale, seed=graph_seed)
    split = split_edges(data.graph, test_fraction=TEST_FRACTION,
                        seed=graph_seed)
    done = time.perf_counter()
    run.sample("graph.build_nodes_per_s",
               data.graph.num_nodes / (done - start))
    run.sample("graph.csr_mb", data.graph.memory_bytes() / 2**20)
    return split, done - start


def check_embeddings(run: Run, where: str, embeddings, num_nodes: int) -> bool:
    embeddings = np.asarray(embeddings)
    return (run.check(embeddings.shape == (num_nodes, DIM),
                      f"{where}: embeddings shape {embeddings.shape}, "
                      f"expected {(num_nodes, DIM)}")
            and run.check(bool(np.isfinite(embeddings).all()),
                          f"{where}: non-finite embeddings"))


def drive_embed(run: Run, op: int, graph, seed: int, execution: str) -> dict:
    """The calls ``RandomWalkSystem.embed`` makes, one span per layer."""
    exec_kwargs = ({"execution": "pipeline", "workers": WORKERS}
                   if execution == "pipeline" else {})
    system = DistGER(
        num_machines=MACHINES, dim=DIM, epochs=EPOCHS, seed=seed,
        walk_overrides={"min_rounds": ROUNDS, "max_rounds": ROUNDS,
                        **exec_kwargs},
        train_overrides=dict(exec_kwargs),
        partition_overrides=dict(exec_kwargs))
    tracer = run.tracer
    cluster_seed = derive_seed(seed, 1)
    feed = None
    with tracer.span("op.embed", op=op) as root:
        if execution == "pipeline":
            # Partition and walks overlap in separate processes, so the
            # harness can only see the dataflow as one runtime span.
            with tracer.span("runtime.run_pipelined_sampling"):
                partition, cluster, walk = run_pipelined_sampling(
                    graph, system.partitioner, MACHINES, system.walk_config,
                    cluster_seed=cluster_seed)
            feed = CorpusFeed(walk.corpus)
            feed.finish()
        else:
            with tracer.span("partition.partition"):
                partition = system.partitioner.partition(graph, MACHINES)
            with tracer.span("runtime.Cluster"):
                cluster = Cluster(MACHINES, partition.assignment,
                                  seed=cluster_seed)
            with tracer.span("walks.run"):
                walk = DistributedWalkEngine(graph, cluster,
                                             system.walk_config).run()
        with tracer.span("embedding.train"):
            trained = DistributedTrainer(
                walk.corpus, cluster, system.train_config,
                learner=system.learner, walk_machines=walk.walk_machines,
                feed=feed).train()
    return {"root": root, "partition": partition, "cluster": cluster,
            "walk": walk, "trained": trained}


def record_sampling_layers(run: Run, graph, root: int, partition, cluster,
                           walk) -> None:
    """Per-layer numbers of the partition and walk phases of one op."""
    tracer = run.tracer
    wall = tracer.duration(root)
    seconds = tracer.layer_seconds(root)
    for layer in ("partition", "walks", "embedding", "runtime"):
        run.sample(f"{layer}.busy_share", seconds.get(layer, 0.0) / wall)
    run.sample("trace.span_coverage", tracer.coverage(root))
    partition_s = seconds.get("partition") or safe(lambda: partition.seconds)
    if partition_s:
        run.sample("partition.nodes_per_s", graph.num_nodes / partition_s)
    marks = partition_quality.evaluate(graph, partition.assignment, MACHINES)
    run.sample("partition.edge_cut_frac", marks.cut_fraction)
    run.sample("partition.node_balance", marks.node_balance)
    tokens = walk.corpus.total_tokens
    run.sample("walks.tokens", tokens)
    if seconds.get("walks"):
        run.sample("walks.tokens_per_s", tokens / seconds["walks"])
    run.sample("walks.rounds", safe(lambda: walk.stats.rounds))
    run.sample("walks.avg_length", safe(lambda: walk.stats.average_length))
    run.sample("walks.acceptance_rate",
               safe(lambda: walk.stats.acceptance_rate))
    traffic = cluster.metrics.as_dict()
    run.sample("walks.cross_machine_msgs",
               safe(lambda: traffic["messages_sent"]))
    run.sample("walks.msg_bytes", safe(lambda: traffic["message_bytes"]))
    run.sample("walks.corpus_resident_mb", safe(
        lambda: walk.corpus.storage_bytes()["resident"] / 2**20))


def record_training_layers(run: Run, root: int, cluster, trained) -> None:
    seconds = run.tracer.layer_seconds(root).get("embedding", 0.0)
    tokens = safe(lambda: trained.tokens_processed)
    run.sample("embedding.train_tokens", tokens)
    if tokens and seconds:
        run.sample("embedding.train_tokens_per_s", tokens / seconds)
    run.sample("embedding.sync_rounds", safe(lambda: trained.sync_rounds))
    run.sample("embedding.sync_bytes",
               safe(lambda: cluster.metrics.as_dict()["sync_bytes"]))


def profile_embed(run: Run, scale: float, kwargs: dict) -> None:
    """Call counts of one embed under cProfile (two, compared, under
    ``--profile``): the direct measure of interpreter dispatch."""
    src_root = os.path.dirname(os.path.dirname(
        os.path.abspath(embed_graph.__code__.co_filename)))
    graph_seed = derive(run.seed, _LJ, 0)
    embed_seed = derive(run.seed, _EMBED, 0)
    passes = []
    for _ in range(2 if run.profile else 1):
        split, _ = lj_split(run, graph_seed, scale)
        results = []
        packages = profile_calls(
            lambda: results.append(embed_graph(
                split.train_graph, seed=embed_seed, **kwargs)), src_root)
        passes.append((packages, results[0].corpus.total_tokens))
    packages, corpus_tokens = passes[0]
    if run.profile:
        counts = [{name: row["calls"] for name, row in p.items()}
                  for p, _ in passes]
        run.check(counts[0] == counts[1],
                  "profile: call counts differ between two identical passes")
    ktokens = {"repro.embedding": corpus_tokens * EPOCHS / 1000.0,
               "repro.walks": corpus_tokens / 1000.0}
    for package, per in ktokens.items():
        calls = packages.get(package, {}).get("calls")
        if calls is not None:
            layer = package.split(".", 1)[1]
            run.sample(f"{layer}.py_calls_per_ktoken", calls / per)
    for package, row in packages.items():
        run.sample(f"{package.split('.', 1)[-1]}.self_share",
                   row["self_share"])
    run.detail["profile"] = packages


def run_embed(run: Run, execution: str) -> dict:
    size = run.size
    kwargs = _embed_kwargs(execution)
    warm, _ = lj_split(run, derive(run.seed, _LJ, 10_000),
                       size["lj_warm_scale"])
    embed_graph(warm.train_graph, seed=1, **kwargs)
    if run.trace:
        warm, _ = lj_split(run, derive(run.seed, _LJ, 10_000),
                           size["lj_warm_scale"])
        drive_embed(run, -1, warm.train_graph, 1, execution)
    run.samples.clear()
    run.setup_samples.clear()

    walls: List[float] = []
    tokens = 0
    aucs: List[float] = []
    overheads: List[float] = []
    digests: List[str] = []
    started = time.perf_counter()
    passes = 0
    while run.keep_going(passes, started):
        index = passes
        passes += 1
        graph_seed = derive(run.seed, _LJ, index)
        embed_seed = derive(run.seed, _EMBED, index)
        split, setup_s = lj_split(run, graph_seed, size["lj_scale"])
        run.setup_samples.append(setup_s)
        graph = split.train_graph
        run.attempted += 1
        try:
            start = time.perf_counter()
            result = embed_graph(graph, seed=embed_seed, **kwargs)
            wall = time.perf_counter() - start
        except Exception:
            run.fail(f"pass {index}: embed_graph raised\n"
                     + traceback.format_exc(limit=4))
            continue
        walls.append(wall)
        tokens += result.corpus.total_tokens * EPOCHS
        digests.append(digest(result.embeddings))
        if not check_embeddings(run, f"pass {index}", result.embeddings,
                                graph.num_nodes):
            continue
        if index < QUALITY_PASSES:
            auc = auc_from_split(result.embeddings, split)
            aucs.append(auc)
            run.check(auc >= size["auc_floor"],
                      f"pass {index}: linkpred AUC {auc:.4f} below "
                      f"{size['auc_floor']}")
        if not run.trace:
            continue
        twin, _ = lj_split(run, graph_seed, size["lj_scale"])
        drive = drive_embed(run, index, twin.train_graph, embed_seed,
                            execution)
        root = drive["root"]
        overheads.append(run.tracer.duration(root) / wall - 1.0)
        run.check(digest(drive["trained"].embeddings) == digests[-1],
                  f"pass {index}: layer-by-layer drive digest differs "
                  "from embed_graph's")
        record_sampling_layers(run, twin.train_graph, root,
                               drive["partition"], drive["cluster"],
                               drive["walk"])
        record_training_layers(run, root, drive["cluster"], drive["trained"])

    if walls and execution == "pipeline":
        # The standing serial == pipeline contract, checked on pass 0's
        # inputs; its wall is the base of runtime.pipeline_speedup.
        split, _ = lj_split(run, derive(run.seed, _LJ, 0), size["lj_scale"])
        start = time.perf_counter()
        serial = embed_graph(split.train_graph,
                             seed=derive(run.seed, _EMBED, 0),
                             **_embed_kwargs("serial"))
        serial_wall = time.perf_counter() - start
        run.check(digest(serial.embeddings) == digests[0],
                  "pipeline digest differs from serial on pass 0")
        speedup = serial_wall / walls[0]
        run.sample("runtime.pipeline_speedup", speedup)
        run.sample("runtime.parallel_efficiency", speedup / WORKERS)
        run.detail["serial_wall_s"] = serial_wall
        run.detail["pipeline_wall_s"] = walls[0]
    if run.trace and execution == "serial":
        profile_embed(run, size["lj_scale"], kwargs)
    if overheads:
        run.sample("trace.overhead_frac", statistics.median(overheads))
    run.detail.update(embed_wall_s=walls, linkpred_auc=aucs,
                      digests=digests, nodes=graph.num_nodes)
    return {"op_seconds": walls, "work": tokens, "quality": aucs}


# ----------------------------------------------------------------- #
# sample_rmat13
# ----------------------------------------------------------------- #

def sample_op(graph, seed: int, span, op: int) -> dict:
    """MPGP partition + InCoM walks, no training."""
    config = WalkConfig.distger(min_rounds=ROUNDS, max_rounds=ROUNDS)
    with span("op.sample", op=op) as root:
        with span("partition.partition"):
            partition = MPGPPartitioner.from_config(
                PartitionConfig(seed=seed)).partition(graph, MACHINES)
        with span("runtime.Cluster"):
            cluster = Cluster(MACHINES, partition.assignment,
                              seed=derive_seed(seed, 1))
        with span("walks.run"):
            walk = DistributedWalkEngine(graph, cluster, config).run()
    return {"root": root, "partition": partition, "cluster": cluster,
            "walk": walk}


def local_step_share(corpus, assignment: np.ndarray) -> float:
    """Share of walk steps whose two ends sit on one machine, computed
    from the outputs themselves (corpus and placement), not from the
    program's own traffic counters."""
    tokens = np.asarray(corpus.tokens)
    offsets = np.asarray(corpus.offsets)
    inside = np.ones(tokens.size - 1, dtype=bool)
    inside[offsets[1:-1] - 1] = False          # pairs straddling two walks
    machine = np.asarray(assignment)[tokens]
    same = machine[:-1] == machine[1:]
    return float(same[inside].mean())


def run_sample(run: Run) -> dict:
    size = run.size
    sample_op(rmat(size["rmat_warm_scale"], edge_factor=8, seed=1), 1,
              _no_span, -1)

    walls: List[float] = []
    total_tokens = 0
    shares: List[float] = []
    overheads: List[float] = []
    digests: List[str] = []
    started = time.perf_counter()
    passes = 0
    while run.keep_going(passes, started):
        index = passes
        passes += 1
        graph_seed = derive(run.seed, _RMAT, index)
        start = time.perf_counter()
        graph = rmat(size["rmat_scale"], edge_factor=8, seed=graph_seed)
        build_s = time.perf_counter() - start
        run.setup_samples.append(build_s)
        run.sample("graph.build_nodes_per_s", graph.num_nodes / build_s)
        run.sample("graph.csr_mb", graph.memory_bytes() / 2**20)
        run.attempted += 1
        try:
            start = time.perf_counter()
            out = sample_op(graph, graph_seed, _no_span, index)
            wall = time.perf_counter() - start
        except Exception:
            run.fail(f"pass {index}: partition + walks raised\n"
                     + traceback.format_exc(limit=4))
            continue
        corpus = out["walk"].corpus
        tokens = np.asarray(corpus.tokens)
        walls.append(wall)
        total_tokens += corpus.total_tokens
        digests.append(digest(tokens))
        sources = int(np.count_nonzero(graph.degrees > 0))
        ok = run.check(
            corpus.num_walks == ROUNDS * sources,
            f"pass {index}: {corpus.num_walks} walks, expected "
            f"{ROUNDS} rounds x {sources} sources")
        ok = ok and run.check(
            tokens.size > 0 and 0 <= tokens.min()
            and tokens.max() < graph.num_nodes,
            f"pass {index}: walk tokens outside [0, {graph.num_nodes})")
        if ok and index < QUALITY_PASSES:
            shares.append(local_step_share(corpus,
                                           out["partition"].assignment))
        # Free this pass's corpus before the next is built, so peak RSS
        # is one pass's footprint however many passes the budget allows.
        del out, corpus, tokens, graph
        if not run.trace:
            continue
        twin = rmat(size["rmat_scale"], edge_factor=8, seed=graph_seed)
        traced = sample_op(twin, graph_seed, run.tracer.span, index)
        root = traced["root"]
        overheads.append(run.tracer.duration(root) / wall - 1.0)
        run.check(digest(np.asarray(traced["walk"].corpus.tokens))
                  == digests[-1],
                  f"pass {index}: traced corpus digest differs")
        record_sampling_layers(run, twin, root, traced["partition"],
                               traced["cluster"], traced["walk"])
    if overheads:
        run.sample("trace.overhead_frac", statistics.median(overheads))
    run.detail.update(sample_wall_s=walls, local_step_share=shares,
                      digests=digests, nodes=1 << size["rmat_scale"])
    return {"op_seconds": walls, "work": total_tokens, "quality": shares}


# ----------------------------------------------------------------- #
# update_lj_churn
# ----------------------------------------------------------------- #

def time_delta_and_audit(graph, stream, corpus):
    """``DeltaCSR`` and the arc audit timed standalone on one stream:
    ``apply_edge_stream`` is one public call, so the harness cannot see
    inside it."""
    start = time.perf_counter()
    delta = DeltaCSR(graph)
    delta.apply(stream)
    changed = delta.changed_arcs()
    merged = delta.compact()
    delta_s = time.perf_counter() - start
    start = time.perf_counter()
    stale_walk_ids(corpus.tokens, corpus.offsets, arcs=changed,
                   num_nodes=merged.num_nodes)
    return delta_s, time.perf_counter() - start


def record_update_layers(run: Run, root: int, update, wall: float,
                         delta_s: float, audit_s: float) -> None:
    run.sample("dynamic.delta_share", delta_s / wall)
    run.sample("dynamic.audit_share", audit_s / wall)
    run.sample("dynamic.resample_train_share",
               max(0.0, 1.0 - (delta_s + audit_s) / wall))
    # The step's own resample/train split, as the program's result
    # reports it.
    run.sample("walks.busy_share",
               safe(lambda: update.phase("resample") / wall))
    run.sample("embedding.busy_share",
               safe(lambda: update.phase("train") / wall))
    run.sample("trace.span_coverage", run.tracer.coverage(root))
    run.sample("walks.tokens",
               safe(lambda: update.stats["resampled_tokens"]))
    run.sample("embedding.train_tokens",
               safe(lambda: update.stats["train_tokens"]))


def run_update(run: Run) -> dict:
    size = run.size
    kwargs = _embed_kwargs("serial")
    span = run.tracer.span if run.trace else _no_span

    warm, _ = lj_split(run, derive(run.seed, _LJ, 10_000),
                       size["lj_warm_scale"])
    prev = embed_graph(warm.train_graph, seed=1, **kwargs)
    apply_edge_stream(warm.train_graph,
                      random_churn(warm.train_graph, CHURN, seed=1), prev,
                      audit="arc", seed=1, **kwargs)
    run.samples.clear()

    steps: List[float] = []
    embed_walls: List[float] = []
    aucs: List[float] = []
    digests: List[str] = []
    edits = 0
    started = time.perf_counter()
    episodes = 0
    # An episode is one full set-up (graph, embed, store) plus one chain
    # of update steps; repeating it gives setup_s its samples and keeps
    # cumulative churn per chain at steps x 1%.
    while run.keep_going(episodes, started):
        episode = episodes
        episodes += 1
        embed_seed = derive(run.seed, _EMBED, episode)
        setup_start = time.perf_counter()
        split, _ = lj_split(run, derive(run.seed, _LJ, episode),
                            size["lj_scale"])
        graph = split.train_graph
        embed_start = time.perf_counter()
        prev = embed_graph(graph, seed=embed_seed, **kwargs)
        embed_walls.append(time.perf_counter() - embed_start)
        store_start = time.perf_counter()
        store = EmbeddingStore.from_array(prev.embeddings, mode="shared")
        setup_done = time.perf_counter()
        run.setup_samples.append(setup_done - setup_start)
        run.sample("serving.store_build_share",
                   (setup_done - store_start) / (setup_done - setup_start))
        try:
            for step in range(size["update_steps"]):
                op = episode * size["update_steps"] + step
                stream = random_churn(graph, CHURN,
                                      seed=derive(run.seed, _CHURN, op))
                if run.trace:
                    delta_s, audit_s = time_delta_and_audit(graph, stream,
                                                            prev.corpus)
                run.attempted += 1
                try:
                    with span("op.update_step", op=op) as root:
                        start = time.perf_counter()
                        with span("dynamic.apply_edge_stream"):
                            update = apply_edge_stream(
                                graph, stream, prev, audit="arc",
                                store=store, seed=embed_seed, **kwargs)
                        wall = time.perf_counter() - start
                except Exception:
                    run.fail(f"step {op}: apply_edge_stream raised\n"
                             + traceback.format_exc(limit=4))
                    break
                steps.append(wall)
                edits += stream.num_inserts + stream.num_deletes
                stale = safe(lambda: update.stats["stale_walks"])
                total = update.corpus.num_walks
                if stale is not None:
                    run.check(0 < stale < total,
                              f"step {op}: stale walks {stale} of {total}")
                    run.sample("dynamic.stale_walk_frac", stale / total)
                if run.trace:
                    record_update_layers(run, root, update, wall, delta_s,
                                         audit_s)
                graph, prev = update.graph, update
            else:
                run.check(
                    np.array_equal(store.embeddings, prev.embeddings),
                    f"episode {episode}: store matrix differs from the "
                    "last update's embeddings")
                if check_embeddings(run, f"episode {episode}",
                                    prev.embeddings, graph.num_nodes) \
                        and episode < QUALITY_PASSES:
                    auc = auc_from_split(prev.embeddings, split)
                    aucs.append(auc)
                    run.check(auc >= size["chain_auc_floor"],
                              f"episode {episode}: chain AUC {auc:.4f} "
                              f"below {size['chain_auc_floor']}")
                digests.append(digest(prev.embeddings))
        finally:
            store.close()

    if steps:
        p50 = statistics.median(steps)
        run.sample("dynamic.step_max_over_p50", max(steps) / p50)
        run.sample("dynamic.speedup_vs_embed",
                   statistics.median(embed_walls) / p50)
    run.detail.update(update_step_s=steps, setup_embed_wall_s=embed_walls,
                      chain_auc=aucs, digests=digests, edits=edits,
                      nodes=graph.num_nodes)
    return {"op_seconds": steps, "work": edits, "quality": aucs}


# ----------------------------------------------------------------- #
# serve_zipf
# ----------------------------------------------------------------- #

def inproc_loop(run: Run, engine, batches, seconds: float, minimum: int,
                traced: bool):
    """Phase A: one caller, the scorer on its own thread; each batch is
    sent when the previous one returned."""
    span = run.tracer.span if traced else _no_span
    responses = []
    latencies: List[float] = []
    failed = 0
    with span("op.phase_a") as root:
        start = time.perf_counter()
        sent = 0
        while sent < minimum or time.perf_counter() - start < seconds:
            index = sent
            sent += 1
            begin = time.perf_counter()
            try:
                with span("serving.query", op=index):
                    result = engine.query(batches[index % len(batches)],
                                          k=TOP_K)
            except Exception:
                failed += 1
                run.fail(f"phase A batch {index} raised\n"
                         + traceback.format_exc(limit=3))
                continue
            latencies.append(time.perf_counter() - begin)
            if len(responses) < minimum:
                responses.append(result)
        wall = time.perf_counter() - start
    run.attempted += sent
    return {"sent": sent, "failed": failed, "wall": wall, "root": root,
            "qps": (sent - failed) * BATCH / wall,
            "responses": responses, "latencies": latencies}


def pool_loop(run: Run, engine, batches, seconds: float, minimum: int):
    """Phase B: closed loop through the pool, ``IN_FLIGHT`` batches
    outstanding; the next is sent only once the oldest came back."""
    pending: deque = deque()
    responses = []
    requests: List[tuple] = []
    failed = 0

    def collect() -> None:
        nonlocal failed
        index, sent, handle = pending.popleft()
        try:
            result = handle.result()
        except Exception:
            failed += 1
            run.fail(f"phase B batch {index} raised\n"
                     + traceback.format_exc(limit=3))
            return
        requests.append((index, sent, time.perf_counter()))
        if len(responses) < minimum:
            responses.append(result)

    start = time.perf_counter()
    sent_count = 0
    while sent_count < minimum or time.perf_counter() - start < seconds:
        index = sent_count
        sent_count += 1
        pending.append((index, time.perf_counter(), engine.submit(
            batches[index % len(batches)], k=TOP_K)))
        if len(pending) >= IN_FLIGHT:
            collect()
    while pending:
        collect()
    end = time.perf_counter()
    if run.trace:
        root = run.tracer.add("op.phase_b", start, end)
        for index, sent, done in requests:
            run.tracer.add("serving.pool_request", sent, done, parent=root,
                           op=index)
    run.attempted += sent_count
    return {"sent": sent_count, "failed": failed, "wall": end - start,
            "qps": (sent_count - failed) * BATCH / (end - start),
            "responses": responses}


def open_loop(run: Run, engine, batches, arrivals: np.ndarray,
              first_batch: int):
    """Submit on the arrival schedule whatever the backlog; one
    collector thread awaits results in submission order.  Latency runs
    from each batch's *due* time, so a stall charges every request it
    delayed (no coordinated omission)."""
    handed: queue.Queue = queue.Queue()
    finished: List[tuple] = []

    def collect() -> None:
        while True:
            item = handed.get()
            if item is None:
                return
            index, due, handle = item
            try:
                handle.result()
                ok = True
            except Exception:
                ok = False
            finished.append((index, due, time.perf_counter(), ok))

    collector = threading.Thread(target=collect, name="ledger-collector",
                                 daemon=True)
    collector.start()
    lateness: List[float] = []
    origin = time.perf_counter()
    try:
        for index, offset in enumerate(arrivals):
            due = origin + float(offset)
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lateness.append(time.perf_counter() - due)
            try:
                handle = engine.submit(
                    batches[(first_batch + index) % len(batches)], k=TOP_K)
            except Exception:
                continue          # counted below: it never comes back
            handed.put((index, due, handle))
    finally:
        handed.put(None)
        collector.join(timeout=60.0)
    wall = time.perf_counter() - origin
    sent = len(arrivals)
    good = [(due, end) for _i, due, end, ok in finished if ok]
    # A batch that raised or never came back misses any latency limit.
    failed = sent - len(good)
    run.attempted += sent
    if failed:
        run.fail(f"open loop: {failed} of {sent} batches failed or never "
                 "returned", operations=failed)
    if run.trace:
        for index, due, end, _ok in finished:
            run.tracer.add("serving.open_loop_request", due, end, op=index)
    return {"sent": sent, "failed": failed, "wall": wall,
            "latencies": [end - due for due, end in good],
            "lateness": lateness}


def brute_force_check(run: Run, matrix: np.ndarray, batches, responses,
                      count: int) -> float:
    """Compare sampled responses with a float64 brute-force top-k;
    returns recall@k."""
    rng = np.random.default_rng(derive(run.seed, _BRUTE))
    wide = matrix.astype(np.float64)
    flat = [(b, row) for b in range(len(responses))
            for row in range(len(batches[b]))]
    picks = rng.choice(len(flat), size=min(count, len(flat)), replace=False)
    recalls = []
    for pick in picks:
        b, row = flat[pick]
        node = int(batches[b][row])
        ids = np.asarray(responses[b].ids[row])
        scores = np.asarray(responses[b].scores[row], dtype=np.float64)
        truth = wide @ wide[node]
        truth[node] = -np.inf
        order = np.argsort(-truth, kind="stable")[:TOP_K]   # ties: low id
        close = np.allclose(scores, truth[order], rtol=1e-3, atol=1e-6)
        run.check(close and len(set(ids.tolist())) == TOP_K
                  and node not in ids,
                  f"query node {node}: response disagrees with float64 "
                  "brute force (scores, distinct ids, or self in result)")
        recalls.append(len(set(ids.tolist()) & set(order.tolist())) / TOP_K)
    return float(np.mean(recalls))


def run_serve(run: Run) -> dict:
    size = run.size
    n = size["catalogue"]

    # Set-up, several times: matrix, shared store, 2-worker pool up to
    # its first response.  The last one is kept and measured.  Pool
    # start alone varies 0.05-0.4 s, hence more samples than elsewhere.
    engine = store = None
    for _ in range(size["serve_setups"]):
        if engine is not None:
            engine.close()
            store.close()
        start = time.perf_counter()
        matrix = np.random.default_rng(
            derive(run.seed, _MATRIX)).standard_normal(
                (n, DIM), dtype=np.float32)
        batches = zipf_query_trace(
            BATCH * 1200, n, batch_size=BATCH, exponent=ZIPF_EXPONENT,
            seed=derive(run.seed, _TRACE))
        store_start = time.perf_counter()
        store = EmbeddingStore.from_array(matrix, mode="shared")
        pool_start = time.perf_counter()
        engine = QueryEngine(store, workers=WORKERS, metric="dot")
        engine.query(batches[0], k=TOP_K)
        done = time.perf_counter()
        run.setup_samples.append(done - start)
        run.sample("serving.store_build_share",
                   (pool_start - store_start) / (done - start))
        run.sample("runtime.pool_start_share",
                   (done - pool_start) / (done - start))
    run.detail["pool_start_s"] = done - pool_start

    try:
        local = QueryEngine(store, workers=0, metric="dot")
        # Warm-up: enough pipelined batches that both workers attach
        # and touch the whole store.
        warm = [engine.submit(batch, k=TOP_K)
                for batch in batches[:size["warm_batches"]]]
        for handle in warm:
            handle.result()
        local.query(batches[0], k=TOP_K)

        keep = size["parity_batches"]
        share_a = 0.15 * run.seconds
        traced_a = None
        if run.trace:
            # Half of phase A untraced, half under spans: the two
            # medians give the tracing overhead.
            share_a /= 2
            traced_a = inproc_loop(run, local, batches, share_a, keep, True)
        phase_a = inproc_loop(run, local, batches, share_a, keep, False)
        phase_b = pool_loop(run, engine, batches, 0.35 * run.seconds, keep)
        rng = np.random.default_rng(derive(run.seed, _ARRIVALS))
        duration = 0.5 * run.seconds
        gaps = rng.exponential(1.0 / size["open_rate"],
                               size=int(size["open_rate"] * duration * 2) + 8)
        arrivals = np.cumsum(gaps)
        arrivals = arrivals[arrivals < duration]
        phase_c = open_loop(run, engine, batches, arrivals,
                            first_batch=phase_b["sent"])

        same = all(
            a.ids.tobytes() == b.ids.tobytes()
            and a.scores.tobytes() == b.scores.tobytes()
            for a, b in zip(phase_a["responses"], phase_b["responses"]))
        run.check(same and len(phase_b["responses"]) == keep,
                  "pool responses differ from in-process responses on the "
                  f"first {keep} batches")
        recall = brute_force_check(run, matrix, batches,
                                   phase_a["responses"],
                                   size["brute_queries"])
        if run.trace:
            trace_serving(run, store, engine, batches, traced_a, phase_a,
                          phase_b, phase_c)
        local.close()
    finally:
        engine.close()
        store.close()

    latencies = phase_c["latencies"]
    run.detail.update(
        serve_inproc_qps=phase_a["qps"], serve_pool_qps=phase_b["qps"],
        serve_p50_ms=1e3 * statistics.median(latencies),
        serve_p90_ms=1e3 * float(np.percentile(latencies, 90)),
        open_loop_samples=len(latencies),
        gen_late_ms_p90=1e3 * float(np.percentile(phase_c["lateness"], 90)),
        phases={name: {"sent": phase["sent"], "failed": phase["failed"],
                       "succeeded": phase["sent"] - phase["failed"],
                       "wall_s": phase["wall"]}
                for name, phase in (("A", phase_a), ("B", phase_b),
                                    ("C", phase_c))},
        recall=recall)
    return {"op_seconds": latencies, "throughput": phase_b["qps"],
            "quality": [recall]}


def trace_serving(run: Run, store, engine, batches, traced_a, phase_a,
                  phase_b, phase_c) -> None:
    """Where a batch's time goes: scorer, bare GEMM, IPC, queueing."""
    scorer = BatchTopKScorer(store.embeddings, norms=store.norms)
    matrix = store.embeddings
    scorer_ms, gemm_ms, round_trip_ms = [], [], []
    for batch in batches[:20]:
        start = time.perf_counter()
        scorer.top_k(batch, k=TOP_K, metric="dot")
        scorer_ms.append(1e3 * (time.perf_counter() - start))
        start = time.perf_counter()
        matrix[batch] @ matrix.T
        gemm_ms.append(1e3 * (time.perf_counter() - start))
    for batch in batches[:30]:
        start = time.perf_counter()
        engine.query(batch, k=TOP_K)
        round_trip_ms.append(1e3 * (time.perf_counter() - start))
    scorer_p50 = statistics.median(scorer_ms)
    gemm_p50 = statistics.median(gemm_ms)
    round_trip_p50 = statistics.median(round_trip_ms)
    open_ms = [1e3 * s for s in phase_c["latencies"]]
    run.sample("serving.scorer_ms_per_batch", scorer_p50)
    run.sample("serving.gemm_ms_per_batch", gemm_p50)
    run.sample("serving.select_share", 1.0 - gemm_p50 / scorer_p50)
    run.sample("serving.ipc_overhead_ms", round_trip_p50 - scorer_p50)
    run.sample("serving.queue_wait_ms_p50",
               statistics.median(open_ms) - round_trip_p50)
    run.sample("serving.inproc_qps", phase_a["qps"])
    run.sample("serving.pool_qps", phase_b["qps"])
    run.sample("serving.pool_scaling", phase_b["qps"] / phase_a["qps"])
    run.sample("serving.open_p50_ms", statistics.median(open_ms))
    run.sample("serving.open_p90_ms", float(np.percentile(open_ms, 90)))
    run.sample("serving.gen_late_ms_p90",
               1e3 * float(np.percentile(phase_c["lateness"], 90)))
    phases = (traced_a, phase_a, phase_b, phase_c)
    sent = sum(phase["sent"] for phase in phases)
    failed = sum(phase["failed"] for phase in phases)
    run.sample("serving.sent", sent)
    run.sample("serving.failed", failed)
    run.sample("serving.succeeded", sent - failed)
    run.sample("trace.overhead_frac",
               statistics.median(traced_a["latencies"])
               / statistics.median(phase_a["latencies"]) - 1.0)
    run.sample("trace.span_coverage", run.tracer.coverage(traced_a["root"]))


WORKLOADS = {
    "embed_lj_serial": lambda run: run_embed(run, "serial"),
    "embed_lj_pipeline": lambda run: run_embed(run, "pipeline"),
    "sample_rmat13": run_sample,
    "update_lj_churn": run_update,
    "serve_zipf": run_serve,
}


def execute(run: Run) -> dict:
    """Run one workload; returns metrics, checks and detail."""
    before = shm_entries()
    # A fresh interpreter already reports a few MB here with no child.
    children_before = peak_rss_mb(resource.RUSAGE_CHILDREN)
    began = time.perf_counter()
    try:
        out = WORKLOADS[run.name](run)
    except Exception:
        # The boundary that must still print a result: record and report.
        run.attempted = max(run.attempted, 1)
        run.fail("workload aborted\n" + traceback.format_exc(limit=6))
        out = {"op_seconds": [], "work": 0, "quality": []}
    leaked = sorted(shm_entries() - before)
    run.check(not leaked, f"leaked shared segments or spill dirs: {leaked}")
    run.sample("runtime.leaked_segments", len(leaked))
    children = peak_rss_mb(resource.RUSAGE_CHILDREN)
    run.sample("runtime.worker_peak_rss_mb",
               children if children > children_before else 0.0)
    # After the segment check: a stopped tracker unlinks what leaked.
    left = stop_processes()
    run.check(not left, f"processes still running after the workload: {left}")

    def median(values: List[float]) -> float:
        return statistics.median(values) if values else 0.0

    end_to_end = {
        "setup_s": median(run.setup_samples),
        "op_p50_ms": 1e3 * median(out["op_seconds"]),
        # Work completed per second of timed operation; the serving
        # workload measures its own (the pool's closed-loop phase).
        "throughput": out.get("throughput", out.get("work", 0) / (
            sum(out["op_seconds"]) or 1.0)),
        "quality": float(np.mean(out["quality"])) if out["quality"] else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    run.detail.update(
        samples={"op": len(out["op_seconds"]),
                 "setup": len(run.setup_samples)},
        duration_s=time.perf_counter() - began)
    return {
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "failures": run.failures,
        "end_to_end": end_to_end,
        "per_layer": run.layers() if run.trace else {},
        "detail": run.detail,
        "spans": run.tracer.spans if run.trace else [],
    }
