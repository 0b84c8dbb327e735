"""``campaign-update``: one-edge deltas through ``Session.update``.

The world is the sparse preferential-attachment graph of
``benchmarks/bench_incremental.py`` (n=20k, 2 pieces, k=4), where RR sets
are small and a one-edge delta invalidates few shards.  Set-up builds the
graph, samples a keyed lineage on the disk store (default ``batch``
backend) and solves it with ``celf-mrr``.  The timed phase applies a
fixed sequence of add / reweight / remove deltas, one edge each, drawn
from ``--seed``.  Each delta's head is a distinct vertex that exactly 4
RR sets of the lineage contain, and each delta changes the head's
in-edges for both pieces, so every update regenerates about 4 of the
64 shards and keeps the rest.  After the timed phase a cold keyed
generate plus ``celf-mrr`` on the final graph must reproduce the
session's collection and plan.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time

import numpy as np

from harness import (
    Measured,
    Tracer,
    mean,
    median,
    min_samples_for,
    self_peak_rss_mb,
    tree_bytes,
)

N = 20_000
PIECES = 2
TOPICS = 3
K = 4
THETA = 100_000
#: AU here is ~3 of n=20k, so few RR sets hit a plan; 20x theta keeps
#: the evaluation's own sampling noise near 5%.
EVAL_THETA = 20 * THETA
#: The world and the lineage are fixed (the seeds of bench_incremental);
#: ``--seed`` draws the delta sequence.
GRAPH_SEEDS = (71, 72)
LINEAGE_SEED = 7
EVAL_SEED = 8
METHOD = "celf-mrr"
#: Delta heads are vertices contained in this many lineage RR sets.
HEAD_FREQ = 4
TAIL_Q = 75.0
SETUP_REPEATS = 2
MAX_DELTAS = 400


def _build_graph():
    from repro.graph.generators import build_topic_graph, preferential_attachment_digraph

    src, dst = preferential_attachment_digraph(N, 2, seed=GRAPH_SEEDS[0])
    return build_topic_graph(
        N, src, dst, TOPICS, topics_per_edge=1.5, prob_mean=0.05, seed=GRAPH_SEEDS[1]
    )


def _campaign():
    from repro.topics.distributions import Campaign, unit_piece

    return Campaign([unit_piece(z, TOPICS) for z in range(PIECES)])


def _runtime(shard_dir: str):
    from repro import Runtime

    return Runtime(store="disk", workers=1, shard_dir=shard_dir)


def _digest(collection) -> str:
    h = hashlib.sha256(np.ascontiguousarray(collection.roots).tobytes())
    for piece in range(collection.num_pieces):
        ptr, nodes = collection.store.rr_arrays(piece)
        h.update(ptr.tobytes())
        h.update(nodes.tobytes())
    return h.hexdigest()


def _deltas(session, seed: int):
    """The delta sequence: add / reweight / remove on distinct heads."""
    from repro import EdgeOp, GraphDelta

    graph = session.graph
    freq = sum(
        session.mrr.vertex_frequencies(j).astype(np.int64) for j in range(PIECES)
    )
    heads = np.flatnonzero((freq == HEAD_FREQ) & (graph.in_degrees() > 0))
    rng = np.random.default_rng([seed, 0xDE17A])
    heads = rng.permutation(heads)[:MAX_DELTAS]
    out = []
    for i, head in enumerate(int(h) for h in heads):
        kind = ("add", "reweight", "remove")[i % 3]
        # a new probability on every piece's topic: both pieces see it
        topics = {z: float(rng.uniform(0.02, 0.1)) for z in range(PIECES)}
        if kind == "add":
            src = int(rng.integers(N))
            while src == head or graph.has_edge(src, head):
                src = int(rng.integers(N))
            op = EdgeOp("add", src, head, topics=topics)
        else:
            preds = graph.predecessors(head)
            src = int(preds[rng.integers(len(preds))])
            op = EdgeOp(kind, src, head, topics=topics if kind == "reweight" else None)
        out.append(GraphDelta((op,)))
    return out


def _applied(graph, delta) -> bool:
    """Does ``graph`` show the delta's one edge op?"""
    (op,) = delta.ops
    if op.op == "remove":
        return not graph.has_edge(op.src, op.dst)
    if not graph.has_edge(op.src, op.dst):
        return False
    vector = graph.edge_topic_vector(graph.edge_id(op.src, op.dst))
    return all(abs(vector[z] - p) < 1e-12 for z, p in op.topics)


def _setup(work_dir: str, rep: int, seed: int, times: dict):
    from repro import Session

    t0 = time.perf_counter()
    graph = _build_graph()
    t1 = time.perf_counter()
    shard_dir = os.path.join(work_dir, f"lineage-{rep}")
    session = Session(
        graph, _campaign(), k=K, seed=LINEAGE_SEED, runtime=_runtime(shard_dir)
    )
    session.sample_incremental(THETA)
    t2 = time.perf_counter()
    session.solve(METHOD)
    t3 = time.perf_counter()
    times.setdefault("graph.build_s", []).append(t1 - t0)
    times.setdefault("sampling.opt_s", []).append(t2 - t1)
    times.setdefault("core.solve_s", []).append(t3 - t2)
    deltas = _deltas(session, seed)
    session.update(deltas[0])  # the untimed warm-up operation
    return session, shard_dir, deltas[1:]


def _verify(session, work_dir: str, plan) -> str | None:
    """Warm == cold: a cold keyed lineage on the final graph must match."""
    from repro import Session

    cold = Session(
        session.graph, _campaign(), k=K, seed=LINEAGE_SEED,
        runtime=_runtime(os.path.join(work_dir, "cold-check")),
    )
    with cold:
        cold.sample_incremental(THETA)
        result = cold.solve(METHOD)
        if _digest(cold.mrr) != _digest(session.mrr):
            return "updated collection differs from a cold keyed generate"
        if result.plan != plan:
            return "updated plan differs from a cold celf-mrr solve"
    return None


def _evaluate(graph, pool, plans) -> list[float]:
    """AU of each plan on an independent collection of ``graph``."""
    from repro import Runtime, Session

    scorer = Session(
        graph, _campaign(), k=K, pool=pool,
        seed=EVAL_SEED, runtime=Runtime(backend="batch"),
    )
    scorer.sample_evaluation(EVAL_THETA)
    scores = {}
    return [
        scores.setdefault(plan, scorer.evaluate(plan)) for plan in plans
    ]


def measure(seed: int, seconds: float, trace: bool, work_dir: str) -> Measured:
    from repro import apply_delta

    m = Measured(tail_q=TAIL_Q, backend="batch")
    tracer = Tracer() if trace else None
    times: dict[str, list] = {}
    session = None
    for rep in range(SETUP_REPEATS):
        if session is not None:
            session.close()
            shutil.rmtree(shard_dir, ignore_errors=True)
        start = time.perf_counter()
        session, shard_dir, deltas = _setup(work_dir, rep, seed, times)
        m.setup_runs.append(time.perf_counter() - start)
    lineage_entries = sum(
        int(session.mrr.vertex_frequencies(j).sum()) for j in range(PIECES)
    )

    n_min = min_samples_for(TAIL_Q)
    plans, counts = [], {"kept": [], "resampled": [], "dirty": []}
    start = time.perf_counter()
    for k, delta in enumerate(deltas):
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (trace or m.attempted >= n_min):
            break
        m.attempted += 1
        traced = trace and k % 2 == 1
        if traced:
            tracer.new_op()
            with tracer.span("incremental.apply_delta"):
                expected = apply_delta(session.graph, delta)
            with tracer.span("op"):
                t0 = time.perf_counter()
                with tracer.span("incremental.update"):
                    update = session.update(delta)
                latency = time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            update = session.update(delta)
            latency = time.perf_counter() - t0
        if not _applied(session.graph, delta):
            m.fail(f"delta {k} is not in the updated graph: {delta.ops}")
            continue
        if traced and expected.fingerprint() != session.graph.fingerprint():
            m.fail(f"delta {k}: apply_delta and Session.update disagree")
            continue
        if update.plan.size > K:
            m.fail(f"delta {k}: plan exceeds budget k={K}")
            continue
        (m.traced_latencies if traced else m.latencies).append(latency)
        plans.append(update.plan)
        if len(plans) == n_min:
            scored_graph = session.graph
        counts["kept"].append(update.trace.kept_fraction)
        counts["resampled"].append(update.trace.shards_resampled)
        counts["dirty"].append(update.trace.dirty_vertices)
    else:
        raise RuntimeError(f"all {len(deltas)} deltas used before the clock ran out")
    m.wall_s = time.perf_counter() - start
    m.peak_rss_mb = self_peak_rss_mb()
    shard_bytes = tree_bytes(shard_dir)

    problem = _verify(session, work_dir, plans[-1])
    if problem is not None:
        m.fail(problem)
    # The first n_min plans, on the graph after the n_min-th update: every
    # run gets that far, so au_eval does not depend on how fast it was.
    scored = plans[:n_min]
    if len(plans) < n_min:
        scored_graph = session.graph
    m.au_values = _evaluate(scored_graph, session.problem.pool, scored)
    session.close()
    m.notes.update(
        kept_fraction=mean(counts["kept"]),
        shards_resampled=mean(counts["resampled"]),
        delta_heads_rr_sets=HEAD_FREQ,
        distinct_plans=len(set(plans)),
    )
    if trace:
        selfs = tracer.self_times()
        m.layers = {
            "graph.build_s": median(times["graph.build_s"]),
            "sampling.opt_s": median(times["sampling.opt_s"]),
            "sampling.opt_entries": lineage_entries,
            "core.solve_s": median(times["core.solve_s"]),
            "incremental.apply_delta_s": median(selfs["incremental.apply_delta"]),
            "incremental.update_s": median(selfs["incremental.update"]),
            "incremental.kept_fraction": mean(counts["kept"]),
            "incremental.shards_resampled": mean(counts["resampled"]),
            "incremental.dirty_vertices": mean(counts["dirty"]),
            "store.shard_bytes": shard_bytes,
        }
        m.notes["spans"] = tracer.dump()
    return m
