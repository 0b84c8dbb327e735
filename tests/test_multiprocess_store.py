"""N processes hammering one disk artifact store: the service scale-out.

The influence service scales out as several processes sharing one
``REPRO_ARTIFACTS`` directory, so the store must survive concurrent
writers with no lost stats counts, no torn objects, and results
bit-identical to a serial run.  These tests drive real child processes
(``ProcessPoolExecutor``) against one store — both raw get/put traffic
on identical *and* distinct keys, and full end-to-end ``Session.run``
campaigns racing through the cold-start stampede.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro import DiskArtifactStore, Runtime, Session
from repro.artifacts import ArtifactKey

WORKERS = 4
ROUNDS = 5


def _key(name: str) -> ArtifactKey:
    return ArtifactKey(
        graph="g" * 64, campaign="c" * 64, runtime="rt", stage="sample",
        extra=(f"name={name}",),
    )


# -- module-level worker bodies (must pickle) ------------------------------


def _hammer_worker(root: str, worker: int) -> int:
    """ROUNDS x (miss, put, hit) on own keys + (put, hit) on shared keys."""
    store = DiskArtifactStore(root)
    for r in range(ROUNDS):
        own = _key(f"w{worker}-r{r}")
        assert store.get(own) is None, "someone else wrote my key"
        store.put(own, {"r": r}, {"x": np.arange(r + 3, dtype=np.int64)})
        mine = store.get(own)
        assert mine is not None
        # identical key from every worker: the commit stampede
        shared = _key(f"shared-r{r}")
        store.put(
            shared, {"r": r}, {"x": np.full(8, r, dtype=np.int64)}
        )
        assert store.get(shared) is not None
    return worker


def _campaign_worker(root: str, theta: int) -> dict:
    """One full Session.run against the shared artifact store."""
    session = Session.from_dataset(
        "lastfm",
        scale=0.08,
        pieces=3,
        k=3,
        seed=1,
        runtime=Runtime(artifacts=root),
    )
    result = session.run("bab-p", theta=theta, max_nodes=20)
    return {
        "theta": theta,
        "seed_sets": [sorted(map(int, s)) for s in result.seed_sets],
        "estimate": float(result.estimate),
        "evaluation": float(result.evaluation),
        "mrr_digest": _collection_digest(session.mrr),
    }


def _collection_digest(collection) -> str:
    """sha256 over every sampled array: roots and all per-piece RR sets."""
    h = hashlib.sha256()
    h.update(collection.roots.tobytes())
    for piece in range(collection.num_pieces):
        h.update(collection.rr_set_sizes(piece).tobytes())
        for sample in range(collection.theta):
            h.update(np.sort(collection.rr_set(piece, sample)).tobytes())
    return h.hexdigest()


# -- tests -----------------------------------------------------------------


@pytest.fixture()
def shared_root(tmp_path) -> str:
    return str(tmp_path / "artifacts")


def test_hammer_no_lost_stats_and_no_torn_objects(shared_root):
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        done = list(
            pool.map(_hammer_worker, [shared_root] * WORKERS, range(WORKERS))
        )
    assert sorted(done) == list(range(WORKERS))

    # Exact totals: every worker's counts survived the concurrency.
    # Per worker per round: own-key miss + own-key hit + shared-key hit
    # and two puts (shared puts count even when the commit was a benign
    # duplicate — the process did the work).
    stats = DiskArtifactStore(shared_root).stats()
    assert stats == {
        "misses": WORKERS * ROUNDS,
        "hits": WORKERS * ROUNDS * 2,
        "puts": WORKERS * ROUNDS * 2,
    }

    # No torn objects: everything visible under objects/ is complete,
    # and the shared keys carry exactly one winner's (identical) bytes.
    store = DiskArtifactStore(shared_root)
    objects_root = os.path.join(shared_root, "objects")
    seen = 0
    for shard in sorted(os.listdir(objects_root)):
        for digest in sorted(os.listdir(os.path.join(objects_root, shard))):
            obj_dir = os.path.join(objects_root, shard, digest)
            assert os.path.exists(os.path.join(obj_dir, "meta.json"))
            assert os.path.exists(os.path.join(obj_dir, "payload.bin"))
            seen += 1
    assert seen == WORKERS * ROUNDS + ROUNDS  # own keys + shared keys
    for r in range(ROUNDS):
        hit = store.get(_key(f"shared-r{r}"))
        assert hit is not None
        np.testing.assert_array_equal(
            hit.arrays["x"], np.full(8, r, dtype=np.int64)
        )

    # Losers' staging directories were cleaned up after benign commits.
    assert os.listdir(os.path.join(shared_root, "tmp")) == []


def test_concurrent_campaigns_bit_identical_to_serial(shared_root, tmp_path):
    # Serial references, computed against a *separate* store so the
    # shared one stays cold for the race below.
    serial = {
        theta: _campaign_worker(str(tmp_path / "serial"), theta)
        for theta in (300, 320)
    }

    # Four processes race the cold shared store: two identical
    # campaigns per spec — same-key stampede and distinct keys at once.
    thetas = [300, 320, 300, 320]
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        results = list(
            pool.map(_campaign_worker, [shared_root] * WORKERS, thetas)
        )

    for got in results:
        want = serial[got["theta"]]
        assert got["seed_sets"] == want["seed_sets"]
        assert got["estimate"] == want["estimate"]
        assert got["evaluation"] == want["evaluation"]
        # the sampled collections are bit-identical, not just same-score
        assert got["mrr_digest"] == want["mrr_digest"]

    # The racers warmed the store coherently: a fresh run is all hits.
    session = Session.from_dataset(
        "lastfm", scale=0.08, pieces=3, k=3, seed=1,
        runtime=Runtime(artifacts=shared_root),
    )
    result = session.run("bab-p", theta=300, max_nodes=20)
    assert not session.stage_trace.sampled()
    assert [sorted(map(int, s)) for s in result.seed_sets] == (
        serial[300]["seed_sets"]
    )

    # ... and nothing half-written is visible under objects/.
    objects_root = os.path.join(shared_root, "objects")
    for shard in sorted(os.listdir(objects_root)):
        for digest in sorted(os.listdir(os.path.join(objects_root, shard))):
            obj_dir = os.path.join(objects_root, shard, digest)
            assert os.path.exists(os.path.join(obj_dir, "meta.json"))
