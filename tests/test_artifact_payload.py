"""The disk artifact payload: one raw ``payload.bin`` mapped copy-on-write.

Contracts under test:

* layout — every array sits at a 64-byte aligned offset of one raw
  file, and ``meta.json`` records its name, dtype, shape and offset;
* semantics — a hit serves writable zero-copy views, and a write
  through one reaches neither the file nor a later ``get``; writing a
  payload streams the arrays instead of serialising a second copy;
* damage — a torn payload (truncated, an entry past the end, missing)
  or an object in the older ``arrays.npz`` format under a valid token
  is a counted miss, quarantined so the next commit replaces it, and
  the next ``generate`` regenerates bit-identically; an all-empty
  payload is not damage and round-trips;
* cross-format — a cache-served collection still re-streams into a
  shard store bit-identically;
* piece digests — hashed at most once per piece-graph object.
"""

from __future__ import annotations

import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest

import repro.artifacts as artifacts_mod
from repro.api import Session
from repro.artifacts import ArtifactKey, DiskArtifactStore, piece_graphs_digest
from repro.diffusion.adoption import AdoptionModel
from repro.diffusion.projection import project_campaign
from repro.graph.generators import (
    build_topic_graph,
    preferential_attachment_digraph,
)
from repro.runtime import Runtime
from repro.topics.distributions import Campaign

THETA = 400
#: In-RAM serial target: the cache stores an arrays payload.
MEMORY_RT = dict(store="memory", workers="serial")


@pytest.fixture(scope="module")
def world():
    src, dst = preferential_attachment_digraph(70, 3, seed=41)
    graph = build_topic_graph(
        70, src, dst, 4, topics_per_edge=2.0, prob_mean=0.2, seed=42
    )
    campaign = Campaign.sample_unit(3, 4, seed=43)
    return graph, campaign


def _session(world, *, artifacts, **runtime_fields) -> Session:
    graph, campaign = world
    return Session(
        graph,
        campaign,
        AdoptionModel(alpha=2.0, beta=1.0),
        k=3,
        seed=5,
        runtime=Runtime(artifacts=artifacts, **runtime_fields),
    )


def _key(tag: str = "x") -> ArtifactKey:
    return ArtifactKey(
        graph="g" * 64,
        campaign="c" * 64,
        runtime="backend=batch:model=ic:seed=7",
        stage="sample",
        extra=(f"tag={tag}",),
    )


def _sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _payload_objects(root: str) -> list[str]:
    """Object directories under ``root`` that hold a ``payload.bin``."""
    found = []
    for dirpath, _dirs, files in os.walk(os.path.join(root, "objects")):
        if "payload.bin" in files:
            found.append(dirpath)
    return sorted(found)


def _read_meta(obj_dir):
    with open(os.path.join(obj_dir, "meta.json")) as fh:
        return json.load(fh)


def _rewrite_meta(obj_dir: str, edit) -> None:
    path = os.path.join(obj_dir, "meta.json")
    with open(path) as fh:
        meta = json.load(fh)
    edit(meta)
    with open(path, "w") as fh:
        json.dump(meta, fh)


def _truncate(obj_dir):
    path = os.path.join(obj_dir, "payload.bin")
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) // 2)


def _entry_past_eof(obj_dir):
    def edit(meta):
        entry = max(meta["payload"]["arrays"], key=lambda e: e["offset"])
        entry["offset"] = meta["payload"]["size"]

    _rewrite_meta(obj_dir, edit)


def _missing(obj_dir):
    os.unlink(os.path.join(obj_dir, "payload.bin"))


def _old_format(obj_dir):
    """Rewrite the object the way the ``arrays.npz`` format stored it."""
    payload = os.path.join(obj_dir, "payload.bin")
    names = [e["name"] for e in _read_meta(obj_dir)["payload"]["arrays"]]
    arrays = {name: np.ones(1) for name in names}
    np.savez(os.path.join(obj_dir, "arrays.npz"), **arrays)
    os.unlink(payload)

    def edit(meta):
        del meta["object_format"]
        del meta["payload"]

    _rewrite_meta(obj_dir, edit)


DAMAGE = {
    "truncated": _truncate,
    "entry-past-eof": _entry_past_eof,
    "missing": _missing,
    "old-format": _old_format,
}


class TestLayout:
    def test_aligned_offsets_recorded_in_the_marker(self, tmp_path):
        store = DiskArtifactStore(str(tmp_path))
        arrays = {
            "a": np.arange(3, dtype=np.int8),
            "b": np.arange(12, dtype=np.float32).reshape(3, 4),
            "c": np.array(7, dtype=np.int64),
            "d": np.empty((0, 2), dtype=np.float64),
            "e": np.arange(10, dtype=np.int64)[::2],  # non-contiguous
        }
        store.put(_key(), {"n": 1}, arrays)
        hit = store.get(_key())
        assert hit is not None
        layout = hit.meta["payload"]["arrays"]
        assert [e["name"] for e in layout] == list(arrays)
        assert all(e["offset"] % 64 == 0 for e in layout)
        for name, want in arrays.items():
            got = hit.arrays[name]
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)
        assert not os.path.exists(os.path.join(hit.path, "arrays.npz"))

    def test_object_dtype_is_refused(self, tmp_path):
        store = DiskArtifactStore(str(tmp_path))
        with pytest.raises(artifacts_mod.StoreError, match="raw byte layout"):
            store.put(_key(), {}, {"o": np.array([object()])})


class TestSemantics:
    def test_served_arrays_are_copy_on_write(self, tmp_path):
        store = DiskArtifactStore(str(tmp_path))
        store.put(_key(), {"n": 1}, {"x": np.arange(1000, dtype=np.int64)})
        hit = store.get(_key())
        payload = os.path.join(hit.path, "payload.bin")
        before = _sha(payload)
        x = hit.arrays["x"]
        assert x.flags.writeable and not x.flags.owndata  # a view
        x[:] = -1
        assert (x == -1).all()
        assert _sha(payload) == before
        again = store.get(_key())
        np.testing.assert_array_equal(
            again.arrays["x"], np.arange(1000, dtype=np.int64)
        )

    def test_put_streams_without_a_second_copy(self, tmp_path):
        store = DiskArtifactStore(str(tmp_path))
        big = np.arange(8 << 20, dtype=np.int64)  # 64 MB
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            store.put(_key(), {"n": 1}, {"big": big})
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, f"put allocated {peak / 2**20:.1f} MB"
        assert os.path.getsize(
            os.path.join(store.get(_key()).path, "payload.bin")
        ) == big.nbytes

    def test_cache_served_collection_restreams_bit_identically(
        self, world, tmp_path
    ):
        """arrays payload -> shard store, against an uncached reference."""
        cache = str(tmp_path / "artifacts")
        _session(world, artifacts=cache, store="memory", workers=1).sample(THETA)
        served = _session(world, artifacts=cache, store="memory", workers=1)
        served.sample(THETA)
        assert not served.stage_trace.sampled()
        disk = _session(world, artifacts=cache, store="disk")
        disk.sample(THETA)
        assert not disk.stage_trace.sampled()
        assert disk.mrr.store.kind == "disk"
        reference = _session(world, artifacts="off", store="disk")
        reference.sample(THETA)
        for got in (served.mrr, disk.mrr):
            np.testing.assert_array_equal(got.roots, reference.mrr.roots)
            for j in range(reference.num_pieces):
                for a, b in zip(
                    got.store.rr_arrays(j) + got.index_arrays(j),
                    reference.mrr.store.rr_arrays(j)
                    + reference.mrr.index_arrays(j),
                ):
                    np.testing.assert_array_equal(a, b)


class TestDamage:
    def test_all_empty_payload_round_trips(self, tmp_path):
        store = DiskArtifactStore(str(tmp_path))
        arrays = {
            "a": np.empty(0, dtype=np.int64),
            "b": np.empty((0, 3), dtype=np.float32),
        }
        store.put(_key(), {"n": 1}, arrays)
        hit = store.get(_key())
        assert hit is not None
        assert hit.meta["payload"]["size"] == 0
        for name, want in arrays.items():
            assert hit.arrays[name].dtype == want.dtype
            assert hit.arrays[name].shape == want.shape
        assert store.stats() == {"hits": 1, "misses": 0, "puts": 1}

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_object_is_a_counted_miss_and_quarantined(
        self, tmp_path, damage
    ):
        root = str(tmp_path / "cache")
        store = DiskArtifactStore(root)
        want = np.arange(100, dtype=np.int64)
        store.put(_key(), {"n": 1}, {"x": want, "y": want[::-1].copy()})
        (obj_dir,) = _payload_objects(root)
        DAMAGE[damage](obj_dir)
        assert store.get(_key()) is None
        assert not os.path.exists(obj_dir)  # renamed aside and dropped
        assert os.listdir(os.path.join(root, "tmp")) == []
        assert store.stats() == {"hits": 0, "misses": 1, "puts": 1}
        store.put(_key(), {"n": 1}, {"x": want, "y": want[::-1].copy()})
        hit = store.get(_key())
        assert hit is not None
        np.testing.assert_array_equal(hit.arrays["x"], want)

    def test_quarantine_spares_a_fresh_commit(self, tmp_path):
        """A verdict on an older ``meta.json`` puts the newer object back."""
        store = DiskArtifactStore(str(tmp_path))
        store.put(_key(), {"n": 1}, {"x": np.arange(4)})
        obj_dir = store.get(_key()).path
        store._quarantine(obj_dir, (-1, -1))  # judged some other marker
        hit = store.get(_key())
        assert hit is not None and hit.path == obj_dir
        np.testing.assert_array_equal(hit.arrays["x"], np.arange(4))
        assert os.listdir(os.path.join(str(tmp_path), "tmp")) == []

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_generate_regenerates_and_replaces(self, world, tmp_path, damage):
        cache = str(tmp_path / "artifacts")
        cold = _session(world, artifacts=cache, **MEMORY_RT)
        cold.sample(THETA)
        (obj_dir,) = _payload_objects(cache)
        DAMAGE[damage](obj_dir)

        again = _session(world, artifacts=cache, **MEMORY_RT)
        again.sample(THETA)
        assert again.stage_trace.sampled()  # the damage was a miss
        (replaced,) = _payload_objects(cache)
        assert replaced == obj_dir
        assert _read_meta(replaced)["object_format"] == artifacts_mod._FORMAT

        warm = _session(world, artifacts=cache, **MEMORY_RT)
        warm.sample(THETA)
        assert not warm.stage_trace.sampled()  # the replacement serves
        for got in (again.mrr, warm.mrr):
            np.testing.assert_array_equal(got.roots, cold.mrr.roots)
            for j in range(cold.num_pieces):
                for a, b in zip(
                    got.store.rr_arrays(j) + got.index_arrays(j),
                    cold.mrr.store.rr_arrays(j) + cold.mrr.index_arrays(j),
                ):
                    np.testing.assert_array_equal(a, b)


def test_piece_graphs_hashed_once_per_object(world, monkeypatch):
    graph, campaign = world
    pgs = project_campaign(graph, campaign)
    first = piece_graphs_digest(pgs)
    calls = []
    real = artifacts_mod.hashlib.sha256

    class Counting:
        @staticmethod
        def sha256(*args):
            calls.append(args)
            return real(*args)

    monkeypatch.setattr(artifacts_mod, "hashlib", Counting)
    assert piece_graphs_digest(pgs) == first
    assert len(calls) == 1  # the combining hash only; pieces memoised
    fresh = project_campaign(graph, campaign)
    assert piece_graphs_digest(fresh) == first  # same content, same key
    assert len(calls) == 2 + len(fresh)
