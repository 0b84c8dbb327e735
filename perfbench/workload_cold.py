"""``campaign-cold``: one caller, cold ``Session.run`` against an empty cache.

Every operation builds a :class:`~repro.api.Session` for one campaign of a
fixed catalogue, points it at a fresh, empty disk artifact directory and
calls ``run("bab-p")``: each stage misses the cache and writes its
artifact.  The catalogue is cycled whole, so every run measures the same
mix of campaigns; ``--seed`` picks the sampling seeds and the order.  A
campaign seen again must give bit-identical seed sets and evaluation.
"""

from __future__ import annotations

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

DATASET = "lastfm"
SCALE = 1.0
PIECES = 4
K = 10
THETA = 20_000
EVAL_THETA = 4 * THETA
METHOD = "bab-p"
#: Campaign i of the catalogue is ``Campaign.sample_unit(seed=BASE + i)``;
#: its promoter pool is drawn with the same seed.
CATALOGUE_BASE = 1000
CATALOGUE_SIZE = 9
TAIL_Q = 70.0
SETUP_REPEATS = 3

_CACHE_STAGES = ("sample", "index", "solve")


def _catalogue(bundle):
    from repro import Session
    from repro.topics import Campaign

    entries = []
    for i in range(CATALOGUE_SIZE):
        seed = CATALOGUE_BASE + i
        campaign = Campaign.sample_unit(PIECES, bundle.graph.num_topics, seed=seed)
        pool = Session(bundle, campaign, k=K, seed=seed).problem.pool
        entries.append((campaign, pool))
    return entries


def _op_seeds(seed: int):
    """Per-campaign sampling seeds and the cycle order, from ``--seed``."""
    rng = np.random.default_rng([seed, 0xC01D])
    seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=CATALOGUE_SIZE)]
    order = [int(i) for i in rng.permutation(CATALOGUE_SIZE)]
    warm_seed = int(rng.integers(0, 2**31 - 1))
    return seeds, order, warm_seed


class _Cold:
    def __init__(self, work_dir: str, m: Measured, tracer: Tracer | None):
        self.work_dir = work_dir
        self.m = m
        self.tracer = tracer
        self.counter = 0
        #: catalogue index -> (seed sets, evaluation) of its first run
        self.reference: dict[int, tuple] = {}
        self.layer: dict[str, list] = {}

    def _fresh_dir(self) -> str:
        self.counter += 1
        path = os.path.join(self.work_dir, f"cold-{self.counter}")
        os.makedirs(path)
        return path

    def _session(self, bundle, entry, seed, art_dir):
        from repro import Runtime, Session

        campaign, pool = entry
        return Session(
            bundle, campaign, k=K, pool=pool, seed=seed,
            runtime=Runtime(artifacts=art_dir),
        )

    def op(self, bundle, index, entry, seed, *, traced: bool):
        """One cold run; returns its latency, or ``None`` when it failed."""
        from repro import DiskArtifactStore

        art_dir = self._fresh_dir()
        try:
            if traced:
                latency, seed_sets, au, session = self._traced(bundle, entry, seed, art_dir)
            else:
                start = time.perf_counter()
                session = self._session(bundle, entry, seed, art_dir)
                result = session.run(METHOD, theta=THETA)
                latency = time.perf_counter() - start
                seed_sets, au = result.seed_sets, result.evaluation
            stats = DiskArtifactStore(art_dir).stats()
            problem = self._check(index, session, seed_sets, au, stats)
            if traced:
                self._record_counts(session, stats, art_dir)
            session.close()
        finally:
            shutil.rmtree(art_dir, ignore_errors=True)
        if problem is not None:
            self.m.fail(problem)
            return None
        return latency

    def _traced(self, bundle, entry, seed, art_dir):
        """The same pipeline as ``Session.run``, one public call per span."""
        tr = self.tracer
        tr.new_op()
        with tr.span("op"):
            start = time.perf_counter()
            with tr.span("api.session"):
                session = self._session(bundle, entry, seed, art_dir)
            with tr.span("diffusion.project"):
                session.piece_graphs
            with tr.span("sampling.opt"):
                session.sample(THETA)
            with tr.span("core.solve"):
                result = session.solve(METHOD)
            with tr.span("sampling.eval"):
                session.sample_evaluation(EVAL_THETA)
            with tr.span("api.evaluate"):
                au = session.evaluate(result.plan)
            latency = time.perf_counter() - start
        diag = result.diagnostics
        for name in ("nodes_expanded", "bounds_computed", "tau_evaluations"):
            self.layer.setdefault(f"core.{name}", []).append(diag[name])
        return latency, result.seed_sets, au, session

    def _record_counts(self, session, stats, art_dir):
        entries = {
            "sampling.opt_entries": session.mrr,
            "sampling.eval_entries": session.mrr_eval,
        }
        for name, collection in entries.items():
            total = sum(
                int(collection.vertex_frequencies(j).sum())
                for j in range(collection.num_pieces)
            )
            self.layer.setdefault(name, []).append(total)
        for name in ("hits", "misses", "puts"):
            self.layer.setdefault(f"artifacts.{name}", []).append(stats[name])
        self.layer.setdefault("artifacts.bytes_written", []).append(tree_bytes(art_dir))

    def _check(self, index, session, seed_sets, au, stats):
        """``None`` when the run is correct, else what went wrong."""
        actions = {(e.stage, e.action) for e in session.stage_trace}
        hits = [s for s, a in actions if a == "hit"]
        if hits:
            return f"cold run of campaign {index} was served from cache: {hits}"
        for stage in _CACHE_STAGES:
            if (stage, "run") not in actions:
                return f"cold run of campaign {index} did not run stage {stage!r}"
        if stats["hits"] or not stats["misses"] or not stats["puts"]:
            return f"campaign {index}: cold cache counters {stats}"
        if sum(len(s) for s in seed_sets) > K:
            return f"campaign {index}: plan exceeds budget k={K}"
        if au is None or not np.isfinite(au) or au <= 0:
            return f"campaign {index}: evaluation {au!r}"
        got = (tuple(tuple(sorted(s)) for s in seed_sets), float(au))
        ref = self.reference.setdefault(index, got)
        if got != ref:
            return f"campaign {index}: rerun gave {got}, first run {ref}"
        self.m.au_values.append(float(au))
        return None


def measure(seed: int, seconds: float, trace: bool, work_dir: str) -> Measured:
    from repro import load_dataset
    from repro.datasets import clear_dataset_cache
    from repro.runtime import resolve_runtime

    m = Measured(tail_q=TAIL_Q, backend=resolve_runtime(None).backend)
    tracer = Tracer() if trace else None
    cold = _Cold(work_dir, m, tracer)
    seeds, order, warm_seed = _op_seeds(seed)
    build_s = []

    # Set-up, repeated: dataset build, catalogue, one untimed cold run.
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        clear_dataset_cache()
        t0 = time.perf_counter()
        bundle = load_dataset(DATASET, scale=SCALE)
        build_s.append(time.perf_counter() - t0)
        catalogue = _catalogue(bundle)
        art_dir = cold._fresh_dir()
        cold._session(bundle, catalogue[order[0]], warm_seed, art_dir).run(METHOD, theta=THETA)
        shutil.rmtree(art_dir)
        m.setup_runs.append(time.perf_counter() - start)

    # Timed phase: whole catalogue cycles until the clock and the tail
    # percentile's sample count are both satisfied.  A trace run
    # alternates traced and untraced runs of each campaign instead.
    n_min = min_samples_for(TAIL_Q)
    start = time.perf_counter()
    cycle = 0
    while True:
        for pos, index in enumerate(order):
            traced = trace and (cycle + pos) % 2 == 1
            m.attempted += 1
            latency = cold.op(bundle, index, catalogue[index], seeds[index], traced=traced)
            if latency is not None:
                (m.traced_latencies if traced else m.latencies).append(latency)
        cycle += 1
        enough = cycle >= 2 if trace else m.attempted >= n_min
        if enough and time.perf_counter() - start >= seconds:
            break
    m.wall_s = time.perf_counter() - start
    m.peak_rss_mb = self_peak_rss_mb()
    m.notes["catalogue"] = [[p.name for p in c] for c, _ in catalogue]
    m.notes["cycles"] = cycle

    if trace:
        selfs = tracer.self_times()
        layers = {
            "datasets.build_s": median(build_s),
            "diffusion.project_s": median(selfs["diffusion.project"]),
            "sampling.opt_s": median(selfs["sampling.opt"]),
            "sampling.eval_s": median(selfs["sampling.eval"]),
            "core.solve_s": median(selfs["core.solve"]),
            "api.evaluate_s": median(selfs["api.evaluate"]),
            "api.session_s": median(selfs["api.session"]),
        }
        for name, values in cold.layer.items():
            layers[name] = mean(values)
        sampled = layers["sampling.opt_entries"] + layers["sampling.eval_entries"]
        layers["sampling.entries_per_s"] = sampled / (
            layers["sampling.opt_s"] + layers["sampling.eval_s"]
        )
        op_s = tracer.by_op("op")
        eval_s = tracer.by_op("sampling.eval")
        layers["sampling.eval_share"] = median([eval_s[i] / op_s[i] for i in op_s])
        gets = layers["artifacts.hits"] + layers["artifacts.misses"]
        layers["artifacts.hit_ratio"] = layers["artifacts.hits"] / gets if gets else 0.0
        m.layers = layers
        m.notes["spans"] = tracer.dump()
    return m

