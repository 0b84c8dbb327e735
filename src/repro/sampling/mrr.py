"""Multi-Reverse-Reachable (MRR) collections — the paper's Sec. V-A.

The MRR method extends RR sampling to multifaceted campaigns: ``theta``
root users are drawn uniformly, and for each root one RR set is generated
*per piece*, under that piece's projected influence graph.  With
``I_i^{S_j} = I[R_i^j ∩ S_j ≠ ∅]``, the adoption utility of a plan
``S-bar`` is estimated (Eq. 6 + Eq. 1's zero branch, Lemma 2) as

    sigma(S-bar) ≈ (n / theta) * sum_i g(sum_j I_i^{S_j})

where ``g`` is the logistic adoption probability (zero when no piece
covers the sample).

Besides the raw sets, the collection maintains one inverted index per
piece (vertex -> sample ids whose RR set contains the vertex).  Every
solver in :mod:`repro.core` and every RIS baseline drives its coverage
bookkeeping through these indexes.

Where the arrays actually live is delegated to a pluggable
:class:`~repro.sampling.store.SampleStore`: the default
:class:`~repro.sampling.store.MemoryStore` keeps everything in RAM
(bit-for-bit the historical layout), while
:class:`~repro.sampling.store.ShardStore` spills root-block shards to
disk and serves queries through bounded reads — same indexes, same
estimates, theta beyond RAM.  Batch consumers that must stay
memory-bounded iterate :meth:`MRRCollection.iter_index_slabs` instead
of gathering a whole candidate pool's slabs at once.
"""

from __future__ import annotations

import os
import random
import time
from collections.abc import Iterable, Sequence

import numpy as np

from repro.artifacts import ArtifactKey, piece_graphs_digest
from repro.diffusion.adoption import AdoptionModel
from repro.diffusion.projection import PieceGraph, project_campaign
from repro.diffusion.threshold import LinearThresholdSampler
from repro.exceptions import SamplingError, StoreBusyError, StoreError
from repro.graph.digraph import TopicGraph
from repro.sampling.batch import check_model
from repro.sampling.rr import ReverseReachableSampler
from repro.sampling.store import (
    MemoryStore,
    SampleStore,
    ShardStore,
    _chunk_bounds,
    store_fingerprint,
)
from repro.topics.distributions import Campaign
from repro.utils.rng import as_generator
from repro.utils.validation import (
    check_index_array,
    check_piece_graphs_aligned,
    check_positive_int,
)

__all__ = ["MRRCollection", "resolve_models"]


def resolve_models(model, num_pieces: int) -> tuple[str, ...]:
    """Normalise a diffusion-model choice into one name per piece.

    ``model`` may be ``None`` (the default model for every piece), a
    single name applied to every piece, or a sequence of per-piece
    names — the heterogeneous mixed-model workload of multiplex IM.
    """
    if model is None or isinstance(model, str):
        return (check_model(model),) * num_pieces
    models = tuple(check_model(m) for m in model)
    if len(models) != num_pieces:
        raise SamplingError(
            f"{len(models)} diffusion models for {num_pieces} pieces"
        )
    return models


class MRRCollection:
    """``theta`` MRR samples: per-piece RR sets sharing common roots."""

    __slots__ = ("n", "theta", "num_pieces", "roots", "store")

    def __init__(
        self,
        n: int,
        roots: np.ndarray,
        rr_ptr: Sequence[np.ndarray] | None = None,
        rr_nodes: Sequence[np.ndarray] | None = None,
        *,
        store: SampleStore | None = None,
    ) -> None:
        self.n = int(n)
        self.roots = np.asarray(roots, dtype=np.int64)
        self.theta = int(self.roots.size)
        if store is not None:
            if rr_ptr is not None or rr_nodes is not None:
                raise SamplingError(
                    "pass raw (rr_ptr, rr_nodes) arrays or a store, not both"
                )
            if not store.finalized:
                raise StoreError(
                    "MRRCollection needs a finalized store — call "
                    "store.finalize() after committing every block"
                )
            if store.n != self.n or store.theta != self.theta:
                raise SamplingError(
                    f"store holds (n={store.n}, theta={store.theta}), "
                    f"expected (n={self.n}, theta={self.theta})"
                )
            self.num_pieces = store.num_pieces
            self.store = store
            return
        if not rr_ptr or len(rr_ptr) != len(rr_nodes):
            raise SamplingError("need one (ptr, nodes) pair per piece")
        self.num_pieces = len(rr_ptr)
        rr_ptr = [np.asarray(p, dtype=np.int64) for p in rr_ptr]
        rr_nodes = [np.asarray(x, dtype=np.int64) for x in rr_nodes]
        for j in range(self.num_pieces):
            if rr_ptr[j].shape != (self.theta + 1,):
                raise SamplingError(
                    f"piece {j}: ptr length {rr_ptr[j].shape} != theta+1"
                )
        self.store = MemoryStore.from_arrays(self.n, rr_ptr, rr_nodes)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def generate(
        cls,
        graph: TopicGraph,
        campaign: Campaign,
        theta: int,
        *,
        seed=None,
        piece_graphs: Sequence[PieceGraph] | None = None,
        runtime=None,
        backend: str | None = None,
        model=None,
        workers=None,
        executor: str | None = None,
        store=None,
        shard_dir: str | None = None,
        max_resident_bytes: int | None = None,
    ) -> "MRRCollection":
        """Generate ``theta`` MRR samples for ``campaign`` on ``graph``.

        Mirrors Sec. V-A: roots are uniform over ``V``; for each root one
        RR set per piece under the piece's projection.  Pass pre-computed
        ``piece_graphs`` to skip re-projection (the experiment harness
        reuses projections between the optimisation and evaluation
        collections).

        All execution policy — sampling ``backend``, diffusion
        ``model(s)``, the parallel runtime (``workers``/``executor``),
        and the sample-store layer (``store``/``shard_dir``/
        ``max_resident_bytes``) — lives on one
        :class:`repro.runtime.Runtime` passed as ``runtime=`` and is
        resolved with the centralized order (explicit kwarg > Runtime
        field > ``REPRO_*`` env > default).  The remaining per-call
        execution kwargs are deprecated equivalents kept for backward
        compatibility; results are bit-identical between the two
        spellings.  LT pieces should be weight-normalised first
        (:func:`repro.diffusion.threshold.normalize_lt_weights`); disk
        stores sample through the block decomposition and therefore
        match memory-store runs with ``workers >= 1`` exactly, resume
        interrupted shard directories, and reload finished ones.

        When the resolved runtime carries an artifact store
        (``Runtime(artifacts=...)`` / ``REPRO_ARTIFACTS``) and the
        generation is reproducible — integer seed, no caller-owned
        shard directory or store instance — the sampled collection is
        served from / written to the content-addressed cache; cached
        results are bit-identical to a fresh generation.
        """
        collection, _events, _key = cls.generate_traced(
            graph,
            campaign,
            theta,
            seed=seed,
            piece_graphs=piece_graphs,
            runtime=runtime,
            backend=backend,
            model=model,
            workers=workers,
            executor=executor,
            store=store,
            shard_dir=shard_dir,
            max_resident_bytes=max_resident_bytes,
            _stacklevel=4,
        )
        return collection

    @classmethod
    def generate_traced(
        cls,
        graph: TopicGraph,
        campaign: Campaign,
        theta: int,
        *,
        seed=None,
        piece_graphs: Sequence[PieceGraph] | None = None,
        runtime=None,
        backend: str | None = None,
        model=None,
        workers=None,
        executor: str | None = None,
        store=None,
        shard_dir: str | None = None,
        max_resident_bytes: int | None = None,
        pool=None,
        _stacklevel: int = 3,
    ) -> tuple["MRRCollection", list[tuple[str, str]], ArtifactKey | None]:
        """:meth:`generate` plus its pipeline trace and artifact key.

        Returns ``(collection, events, key)`` where ``events`` is a
        list of ``(stage, action)`` pairs over the ``sample`` / ``index``
        stages (``action`` is ``"run"`` or ``"hit"``), and ``key`` is
        the sample-stage :class:`~repro.artifacts.ArtifactKey` when the
        generation was cache-eligible, else ``None``.  The Session
        records the events on its pipeline trace and folds the key
        digest into downstream solve-stage keys.  A freshly-sampled
        ``("sample", "run")`` event is a
        :class:`~repro.pipeline.TraceEvent` whose ``extra`` reports the
        effective block geometry (the adaptive kernel block and the
        per-task root block).

        ``pool`` lends a caller-owned executor to the blocked sampling
        stream (the Session's warm pool); ownership and shutdown stay
        with the caller.
        """
        from repro.pipeline import TraceEvent
        from repro.runtime import resolve_runtime
        from repro.sampling.batch import adaptive_block_size, check_backend
        from repro.sampling.parallel import (
            sample_piece_blocks,
            task_block_size,
        )

        rt = resolve_runtime(
            runtime,
            backend=backend,
            model=model,
            workers=workers,
            executor=executor,
            store=store,
            shard_dir=shard_dir,
            max_resident_bytes=max_resident_bytes,
            seed=seed,
            caller="MRRCollection.generate",
            stacklevel=_stacklevel,
        )
        theta = check_positive_int("theta", theta)
        if graph.n == 0:
            raise SamplingError("cannot sample from an empty graph")
        rng = as_generator(rt.seed)
        if piece_graphs is None:
            piece_graphs = project_campaign(graph, campaign)
        elif len(piece_graphs) != campaign.num_pieces:
            raise SamplingError(
                f"{len(piece_graphs)} piece graphs for "
                f"{campaign.num_pieces} pieces"
            )
        check_piece_graphs_aligned(
            piece_graphs,
            graph.n,
            reference="the campaign graph",
            exc=SamplingError,
        )
        piece_graphs = list(piece_graphs)
        models = resolve_models(rt.model, campaign.num_pieces)
        graph_fp = graph.fingerprint()
        pieces_fp = piece_graphs_digest(piece_graphs)
        store_obj = rt.store_for_generate()

        # -- content-addressed cache -----------------------------------
        # Eligible only when the draw is reproducible (integer seed) and
        # the caller did not pin where samples live: an explicit
        # shard_dir or store *instance* is caller-owned state the cache
        # must not alias, and a directory payload (out-of-core shards)
        # needs a store that can host directories.
        art_store = rt.artifact_store()
        reproducible = isinstance(rt.seed, int) and not isinstance(
            rt.seed, bool
        )
        cacheable = (
            art_store is not None
            and reproducible
            and rt.shard_dir is None
            and not isinstance(rt.store, SampleStore)
            and (store_obj is None or art_store.hosts_directories)
        )
        pool_width = rt.pool_width
        # The two sampling decompositions draw from differently-spawned
        # child streams: the historical serial loop (in-RAM target, no
        # pool) and the (piece, root block) decomposition (any pool
        # size, and always the disk store).  Each is deterministic, but
        # they are NOT bit-identical to each other, so the key must
        # record which one produced the samples — while every pool
        # *size* of the blocked stream still shares one artifact.
        stream = (
            "serial"
            if store_obj is None and pool_width is None
            else "blocked"
        )
        key = None
        flight = None
        if cacheable:
            key = ArtifactKey(
                graph=graph_fp,
                campaign=campaign.fingerprint(),
                runtime=rt.cache_key(),
                stage="sample",
                extra=(
                    f"theta={theta}",
                    f"pieces={pieces_fp[:16]}",
                    f"stream={stream}",
                ),
            )
            got = cls._cached_or_none(art_store, key, rt, store_obj)
            if got is not None:
                return got
            # Cold miss: elect one producer across every process
            # sharing the artifact store; the rest poll for its commit
            # instead of stampeding into N identical generations.
            flight = art_store.producer_flight(key)
            if not flight.claim():
                hit = flight.wait(lambda: art_store.get(key))
                if hit is not None:
                    try:
                        return cls._from_artifact(hit, rt, store_obj)
                    except StoreBusyError:
                        pass  # fall through: regenerate privately
                # wait() came back empty: this process inherited the
                # flight from a dead producer, or timed out — either
                # way it now produces (duplicate commits stay benign).

        try:
            # The sample stage's effective block geometry (the ISSUE'd trace
            # gap): the per-task root block of the (piece, block)
            # decomposition — theta itself on the serial path — and the
            # (roots, n) kernel block adaptive sizing actually picks for it.
            task_block = theta if stream == "serial" else task_block_size(theta)
            events = [
                TraceEvent(
                    "sample",
                    "run",
                    {
                        "stream": stream,
                        "backend": check_backend(rt.backend),
                        "executor": rt.executor,
                        "workers": int(pool_width or 1),
                        "task_block": int(task_block),
                        "block_roots": adaptive_block_size(
                            graph.n, min(task_block, theta)
                        ),
                        "block_n": int(graph.n),
                    },
                ),
                ("index", "run"),
            ]
            if store_obj is not None:
                if cacheable:
                    # Host the shard directory inside the artifact object.
                    # stage_dir() hands out a *private* staging directory
                    # and commit() publishes it with one atomic rename, so
                    # concurrent workers missing this key each generate
                    # privately and the loser's commit is a benign no-op —
                    # never two producers interleaving bucket files in one
                    # directory.
                    shards_dir = os.path.join(art_store.stage_dir(key), "shards")
                    store_obj = ShardStore(
                        shards_dir, max_resident_bytes=rt.max_resident_bytes
                    )
                roots = rng.integers(0, graph.n, size=theta)
                collection = cls._generate_into_store(
                    graph.n,
                    piece_graphs,
                    models,
                    roots,
                    rng,
                    backend=rt.backend,
                    workers=pool_width or 1,
                    executor=rt.executor,
                    store=store_obj,
                    graph_fingerprint=graph_fp,
                    pieces_fingerprint=pieces_fp,
                    pool=pool,
                )
                if cacheable:
                    artifact = art_store.commit(
                        key,
                        {
                            "format": "shards",
                            "n": graph.n,
                            "theta": theta,
                            "num_pieces": campaign.num_pieces,
                        },
                    )
                    # The staging directory just moved to its content
                    # address (or lost the commit race to an identical
                    # twin): repoint the live store at the published copy.
                    store_obj.close()
                    store_obj.shard_dir = os.path.join(artifact.path, "shards")
                return collection, events, key
            roots = rng.integers(0, graph.n, size=theta)
            if pool_width is not None:
                pairs = sample_piece_blocks(
                    piece_graphs,
                    models,
                    roots,
                    rng,
                    backend=rt.backend,
                    workers=pool_width,
                    executor=rt.executor,
                    pool=pool,
                )
                rr_ptr = [ptr for ptr, _ in pairs]
                rr_nodes = [nodes for _, nodes in pairs]
            else:
                rr_ptr: list[np.ndarray] = []
                rr_nodes: list[np.ndarray] = []
                for pg, piece_model in zip(piece_graphs, models):
                    if piece_model == "lt":
                        sampler = LinearThresholdSampler(pg, backend=rt.backend)
                    else:
                        sampler = ReverseReachableSampler(pg, backend=rt.backend)
                    ptr, nodes = sampler.sample_many(roots, rng)
                    rr_ptr.append(ptr)
                    rr_nodes.append(nodes)
            collection = cls(graph.n, roots, rr_ptr, rr_nodes)
            if cacheable:
                arrays = {"roots": collection.roots}
                for j in range(collection.num_pieces):
                    ptr, nodes = collection.store.rr_arrays(j)
                    idx_ptr, idx_samples = collection.store.index_arrays(j)
                    arrays[f"rr_ptr{j}"] = ptr
                    arrays[f"rr_nodes{j}"] = nodes
                    arrays[f"idx_ptr{j}"] = idx_ptr
                    arrays[f"idx_samples{j}"] = idx_samples
                art_store.put(
                    key,
                    {
                        "format": "arrays",
                        "n": graph.n,
                        "theta": theta,
                        "num_pieces": campaign.num_pieces,
                    },
                    arrays,
                )
            return collection, events, key
        finally:
            if flight is not None:
                flight.release()

    #: Bounded retry schedule for a busy (mid-commit) cached shard dir.
    _BUSY_RETRIES = 4
    _BUSY_BACKOFF = 0.05

    @classmethod
    def _cached_or_none(cls, art_store, key, rt, store_obj):
        """The cache-hit return triple, or ``None`` on a (final) miss.

        A hit whose shard directory is *busy* — a concurrent writer on
        a shared spool mid-commit, or a pre-rename-atomic layout — is
        retryable, not corrupt: retry with exponential backoff plus
        jitter (stdlib ``random`` — the numpy streams stay untouched)
        before giving up to private regeneration.  The waits are plain
        ``time.sleep``, so Ctrl-C interrupts them immediately.
        """
        for attempt in range(cls._BUSY_RETRIES):
            hit = art_store.get(key)
            if hit is None:
                return None
            try:
                return cls._from_artifact(hit, rt, store_obj)
            except StoreBusyError:
                if attempt + 1 < cls._BUSY_RETRIES:
                    time.sleep(
                        cls._BUSY_BACKOFF
                        * (2**attempt)
                        * (0.5 + random.random())
                    )
        return None

    @classmethod
    def _from_artifact(cls, hit, rt, store_obj):
        """Rebuild a collection from a cached sample artifact.

        Two payload formats, crossed with two requested store targets:
        ``"arrays"`` carries the finalized CSR + inverted-index arrays
        (a true hit for both the sample and index stages when the
        target is in-RAM), ``"shards"`` is a finished
        :class:`ShardStore` directory hosted inside the artifact object
        (reopened in place for a disk target — zero materialisation).
        The two cross-format paths convert: shards are materialised
        into RAM with their prebuilt indexes, and arrays are re-streamed
        into a shard store (which rebuilds indexes — the one path where
        the index stage runs on a hit).
        """
        from repro.sampling.parallel import task_block_size

        meta = hit.meta
        n = int(meta["n"])
        theta = int(meta["theta"])
        num_pieces = int(meta["num_pieces"])
        key = hit.key
        if meta.get("format") == "shards":
            shards_dir = os.path.join(hit.path, "shards")
            shard = ShardStore.open(
                shards_dir, max_resident_bytes=rt.max_resident_bytes
            )
            if store_obj is None or not isinstance(store_obj, ShardStore):
                # memory target: materialise, indexes included
                collection = cls(
                    n,
                    shard.load_roots(),
                    store=MemoryStore.from_finalized_arrays(
                        n,
                        [shard.rr_arrays(j)[0] for j in range(num_pieces)],
                        [shard.rr_arrays(j)[1] for j in range(num_pieces)],
                        [shard.index_arrays(j)[0] for j in range(num_pieces)],
                        [shard.index_arrays(j)[1] for j in range(num_pieces)],
                    ),
                )
                shard.close()
            else:
                collection = cls.from_store(shard)
            return collection, [("sample", "hit"), ("index", "hit")], key
        # A disk hit's arrays are copy-on-write views of the artifact's
        # mapped payload: wrap them as they are (np.asarray with the
        # stored dtype is a view), so only the pages a caller touches
        # are ever read.
        arrays = hit.arrays
        roots = np.asarray(arrays["roots"], dtype=np.int64)
        if store_obj is not None:
            # disk target from an arrays payload: re-stream the cached
            # blocks through the shard store (rebuilds indexes).
            store_obj.begin(
                n, num_pieces, theta, task_block_size(theta),
                fingerprint=str(meta.get("token", ""))[:128] or None,
            )
            if isinstance(store_obj, ShardStore):
                store_obj.save_roots(roots)
            if not store_obj.finalized:
                block = store_obj.block_size
                for j in range(num_pieces):
                    ptr = np.asarray(arrays[f"rr_ptr{j}"], dtype=np.int64)
                    nodes = np.asarray(arrays[f"rr_nodes{j}"], dtype=np.int64)
                    for b in range(store_obj.num_blocks):
                        lo = b * block
                        hi = min(lo + block, theta)
                        if store_obj.has_block(j, b):
                            continue
                        store_obj.put_block(
                            j,
                            b,
                            ptr[lo : hi + 1] - ptr[lo],
                            nodes[ptr[lo] : ptr[hi]],
                        )
                store_obj.finalize()
            collection = cls(n, roots, store=store_obj)
            return collection, [("sample", "hit"), ("index", "run")], key
        collection = cls(
            n,
            roots,
            store=MemoryStore.from_finalized_arrays(
                n,
                [arrays[f"rr_ptr{j}"] for j in range(num_pieces)],
                [arrays[f"rr_nodes{j}"] for j in range(num_pieces)],
                [arrays[f"idx_ptr{j}"] for j in range(num_pieces)],
                [arrays[f"idx_samples{j}"] for j in range(num_pieces)],
            ),
        )
        return collection, [("sample", "hit"), ("index", "hit")], key

    @classmethod
    def _generate_into_store(
        cls,
        n: int,
        piece_graphs,
        models,
        roots: np.ndarray,
        rng,
        *,
        backend,
        workers: int,
        executor,
        store: SampleStore,
        graph_fingerprint: str | None = None,
        pieces_fingerprint: str | None = None,
        pool=None,
    ) -> "MRRCollection":
        """Stream (piece, root block) shards into ``store`` as sampled.

        Shards are committed the moment their task finishes (task
        order, bounded in-flight window), so peak RAM during generation
        is O(workers x block) instead of O(theta).  Shards already in
        the store — a resumed :class:`ShardStore` directory — are
        skipped without disturbing any other task's child stream, and a
        fully finalized store is reloaded without sampling at all.

        ``executor="spawned"`` with an on-disk :class:`ShardStore`
        routes the fill through :mod:`repro.sampling.dist`: independent
        worker processes claim task leases and stream shards into the
        directory while this process polls for completion.  The child
        seed streams are identical by construction, so the result is
        bit-for-bit the collection every other topology produces.
        """
        from repro.sampling.parallel import (
            stream_piece_blocks,
            task_block_size,
        )

        theta = int(roots.size)
        store.begin(
            n,
            len(piece_graphs),
            theta,
            task_block_size(theta),
            fingerprint=store_fingerprint(
                n,
                roots,
                models,
                backend,
                graph=graph_fingerprint,
                pieces=pieces_fingerprint,
            ),
        )
        if isinstance(store, ShardStore):
            store.save_roots(roots)
        if not store.finalized:
            if (
                executor == "spawned"
                and isinstance(store, ShardStore)
                and store.shard_dir is not None
            ):
                from repro.runtime import DEFAULT_DIST_LAUNCH
                from repro.sampling.dist import fill_store_distributed

                fill_store_distributed(
                    piece_graphs,
                    models,
                    roots,
                    rng,
                    backend=backend,
                    workers=workers,
                    store=store,
                    launch=DEFAULT_DIST_LAUNCH,
                )
            else:
                for piece, block, ptr, nodes in stream_piece_blocks(
                    piece_graphs,
                    models,
                    roots,
                    rng,
                    backend=backend,
                    workers=workers,
                    executor=executor,
                    skip=store.has_block,
                    pool=pool,
                ):
                    store.put_block(piece, block, ptr, nodes)
            store.finalize()
        return cls(n, roots, store=store)

    @classmethod
    def from_store(
        cls, store: SampleStore, roots: np.ndarray | None = None
    ) -> "MRRCollection":
        """Rebuild a collection from a finalized store.

        ``roots`` defaults to the draw a :class:`ShardStore` persisted
        at generation time (``roots.npy``), so a finished shard
        directory round-trips with ``ShardStore.open`` alone.
        """
        if roots is None:
            if not isinstance(store, ShardStore):
                raise SamplingError(
                    f"{type(store).__name__} does not persist roots — "
                    "pass them explicitly"
                )
            roots = store.load_roots()
        return cls(store.n, roots, store=store)

    # ------------------------------------------------------------------
    # raw access
    # ------------------------------------------------------------------

    @property
    def _rr_ptr(self) -> list[np.ndarray]:
        """Per-piece CSR pointers, materialised (tests / diagnostics)."""
        return [self.store.rr_arrays(j)[0] for j in range(self.num_pieces)]

    @property
    def _rr_nodes(self) -> list[np.ndarray]:
        """Per-piece CSR node arrays, materialised (tests / diagnostics)."""
        return [self.store.rr_arrays(j)[1] for j in range(self.num_pieces)]

    def rr_set(self, piece: int, sample: int) -> np.ndarray:
        """The RR set of ``sample`` (0-based) for ``piece``."""
        self._check_piece(piece)
        if not (0 <= sample < self.theta):
            raise SamplingError(f"sample {sample} outside [0, {self.theta})")
        return self.store.rr_set(piece, sample)

    def samples_containing(self, piece: int, vertex: int) -> np.ndarray:
        """Sample ids whose RR set for ``piece`` contains ``vertex``.

        This is the inverted-index lookup at the heart of every marginal
        gain computation.
        """
        self._check_piece(piece)
        if not (0 <= vertex < self.n):
            raise SamplingError(f"vertex {vertex} outside [0, {self.n})")
        ptr = self.store.idx_ptr(piece)
        return self.store.read_index_range(
            piece, int(ptr[vertex]), int(ptr[vertex + 1])
        )

    def index_arrays(self, piece: int) -> tuple[np.ndarray, np.ndarray]:
        """One piece's raw CSR inverted index ``(idx_ptr, idx_samples)``.

        ``idx_samples[idx_ptr[v]:idx_ptr[v+1]]`` are the sample ids whose
        RR set contains ``v`` — the flat arrays the vectorized coverage
        kernels (:mod:`repro.core.coverage`) gather over.  Callers must
        treat both arrays as read-only.  On a disk store this
        materialises the whole index (O(total) RAM) — bounded consumers
        use :meth:`iter_index_slabs` instead.
        """
        self._check_piece(piece)
        return self.store.index_arrays(piece)

    def gather_index_slabs(
        self,
        piece: int,
        vertices,
        *,
        exc: type[Exception] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validate and gather many vertices' inverted-index slabs.

        The shared prologue of every batch coverage kernel: range-checks
        ``piece`` and ``vertices`` (raising ``exc``, default
        :class:`SamplingError`, so each layer keeps its own exception
        class), then returns ``(samples, deg)`` — the concatenation of
        each vertex's sample-id slab in vertex order, plus the per-vertex
        slab lengths for the caller's segmented reduction.
        """
        vertices = self._check_gather(piece, vertices, exc)
        return self.store.gather_index(piece, vertices)

    def iter_index_slabs(
        self,
        piece: int,
        vertices,
        *,
        exc: type[Exception] | None = None,
    ):
        """Chunked :meth:`gather_index_slabs`, bounded by the store.

        Yields ``(samples, deg, lo, hi)`` where ``samples``/``deg`` are
        the gathered slabs of ``vertices[lo:hi]``.  Chunk boundaries
        respect the store's gather budget
        (:attr:`~repro.sampling.store.SampleStore.gather_chunk_bytes`)
        so a whole-pool scan on a disk store never materialises more
        than ``max_resident_bytes`` of slab at once; the in-RAM store
        yields one chunk, preserving the historical single-dispatch
        path.  Per-vertex results are identical to the unchunked gather
        — every segmented reduction sees exactly its own slab.
        """
        vertices = self._check_gather(piece, vertices, exc)
        budget = self.store.gather_chunk_bytes
        if budget is None or vertices.size == 0:
            samples, deg = self.store.gather_index(piece, vertices)
            yield samples, deg, 0, int(vertices.size)
            return
        ptr = self.store.idx_ptr(piece)
        deg_all = ptr[vertices + 1] - ptr[vertices]
        bounds = _chunk_bounds(np.cumsum(deg_all * 8), budget)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            samples, deg = self.store.gather_index(piece, vertices[lo:hi])
            yield samples, deg, lo, hi

    def _check_gather(self, piece, vertices, exc) -> np.ndarray:
        exc = SamplingError if exc is None else exc
        if not (0 <= piece < self.num_pieces):
            raise exc(f"piece {piece} outside [0, {self.num_pieces})")
        vertices = np.asarray(vertices, dtype=np.int64)
        check_index_array("vertex", vertices, self.n, exc=exc)
        return vertices

    def rr_set_sizes(self, piece: int) -> np.ndarray:
        """Sizes of every RR set for ``piece``."""
        self._check_piece(piece)
        return self.store.rr_set_sizes(piece)

    def vertex_frequencies(self, piece: int) -> np.ndarray:
        """How many RR sets of ``piece`` contain each vertex.

        Proportional to each vertex's single-seed influence spread — the
        quantity whose power-law tail Lemma 4 leans on.
        """
        self._check_piece(piece)
        return np.diff(self.store.idx_ptr(piece))

    def _check_piece(self, piece: int) -> None:
        if not (0 <= piece < self.num_pieces):
            raise SamplingError(
                f"piece {piece} outside [0, {self.num_pieces})"
            )

    # ------------------------------------------------------------------
    # estimation (Lemma 2)
    # ------------------------------------------------------------------

    def coverage_counts(self, plan_seed_sets: Sequence[Iterable[int]]) -> np.ndarray:
        """Distinct-piece coverage count per sample for a full plan.

        ``counts[i] = sum_j I[R_i^j ∩ S_j ≠ ∅]`` — the argument of the
        logistic in Eq. 6.
        """
        if len(plan_seed_sets) != self.num_pieces:
            raise SamplingError(
                f"plan has {len(plan_seed_sets)} seed sets for "
                f"{self.num_pieces} pieces"
            )
        counts = np.zeros(self.theta, dtype=np.int64)
        covered = np.zeros(self.theta, dtype=bool)
        for j, seeds in enumerate(plan_seed_sets):
            seeds = np.asarray(list(seeds), dtype=np.int64)
            if seeds.size == 0:
                continue
            check_index_array("vertex", seeds, self.n, exc=SamplingError)
            covered[:] = False
            for samples, _deg, _lo, _hi in self.iter_index_slabs(j, seeds):
                covered[samples] = True
            counts += covered
        return counts

    def estimate(
        self,
        plan_seed_sets: Sequence[Iterable[int]],
        adoption: AdoptionModel,
    ) -> float:
        """Unbiased AU estimate of a plan (Eq. 6 with Eq. 1's zero branch)."""
        counts = self.coverage_counts(plan_seed_sets)
        return self.estimate_from_counts(counts, adoption)

    def estimate_from_counts(
        self, counts: np.ndarray, adoption: AdoptionModel
    ) -> float:
        """AU estimate given precomputed per-sample coverage counts."""
        if counts.shape != (self.theta,):
            raise SamplingError(
                f"counts must have shape ({self.theta},), got {counts.shape}"
            )
        return float(self.n / self.theta * adoption.probability(counts).sum())

    def __repr__(self) -> str:
        return (
            f"MRRCollection(theta={self.theta}, pieces={self.num_pieces}, "
            f"n={self.n}, store={self.store.kind})"
        )
