"""Unit tests for the content-addressed artifact cache layer."""

import dataclasses
import os
import pickle
import struct
import time

import pytest

from repro import benchmark_spec
from repro.cdfg import load_benchmark
from repro.flow import FlowConfig, build_pipeline, run_estimate
from repro.flow.cache import (
    DISK_MAGIC,
    STALE_TMP_SECONDS,
    ArtifactCache,
    CacheStats,
    Encoded,
    encode,
    fingerprint,
)
from repro.scheduling import list_schedule


@dataclasses.dataclass(frozen=True)
class _Token:
    name: str
    value: float


def _disk_pickles(root):
    """Every .pkl path under the sharded store, shard dirs included."""
    found = []
    for directory, _, names in os.walk(str(root)):
        found += [
            os.path.join(directory, name)
            for name in names
            if name.endswith(".pkl")
        ]
    return found


class TestFingerprint:
    def test_deterministic(self):
        assert fingerprint("a", 1, 2.5) == fingerprint("a", 1, 2.5)

    def test_order_sensitive(self):
        assert fingerprint("a", "b") != fingerprint("b", "a")

    def test_type_tags_distinguish_lookalikes(self):
        # "1", 1, 1.0 and True must not collide.
        digests = {
            fingerprint("1"),
            fingerprint(1),
            fingerprint(1.0),
            fingerprint(True),
        }
        assert len(digests) == 4

    def test_dict_iteration_order_irrelevant(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_nested_containers_and_none(self):
        a = fingerprint((1, [2, 3], {"k": None}, frozenset({4, 5})))
        b = fingerprint((1, [2, 3], {"k": None}, frozenset({5, 4})))
        assert a == b

    def test_dataclass_tokens(self):
        assert fingerprint(_Token("x", 1.0)) == fingerprint(_Token("x", 1.0))
        assert fingerprint(_Token("x", 1.0)) != fingerprint(_Token("x", 2.0))

    def test_unfingerprintable_value_rejected(self):
        with pytest.raises(TypeError):
            fingerprint(object())

    def test_encoded_token_hashes_like_the_token(self):
        token = (1, [2.5, "s"], {"k": None}, frozenset({4, 5}), b"raw",
                 _Token("x", 1.0), True)
        encoded = encode(token)
        assert isinstance(encoded, Encoded)
        assert fingerprint(encoded) == fingerprint(token)
        assert fingerprint("salt", encoded, 3) == \
            fingerprint("salt", token, 3)

    def test_plain_bytes_are_not_fed_verbatim(self):
        # Only Encoded skips the type tag; equal plain bytes do not.
        raw = bytes(encode(("a", 1)))
        assert fingerprint(raw) != fingerprint(("a", 1))


class TestArtifactCache:
    def test_miss_then_hit(self):
        cache = ArtifactCache()
        hit, value = cache.lookup("k1")
        assert not hit and value is None
        cache.store("k1", "artifact")
        hit, value = cache.lookup("k1")
        assert hit and value == "artifact"
        assert cache.stats() == {
            "entries": 1, "hits": 1, "misses": 1, "evictions": 0,
            "disk_hits": 0,
        }

    def test_lru_eviction(self):
        cache = ArtifactCache(max_entries=2)
        cache.store("a", 1)
        cache.store("b", 2)
        cache.lookup("a")  # refresh "a": "b" becomes least-recent
        cache.store("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1

    def test_max_entries_validated(self):
        with pytest.raises(ValueError):
            ArtifactCache(max_entries=0)

    def test_pinned_entry_survives_eviction_pressure(self):
        cache = ArtifactCache(max_entries=2)
        cache.store("prefetch", "batched", pin=True)
        cache.store("b", 2)
        cache.store("c", 3)
        cache.store("d", 4)
        # "prefetch" is the LRU-oldest entry yet outlives the churn;
        # the unpinned entries get evicted around it.
        hit, value = cache.lookup("prefetch")
        assert hit and value == "batched"

    def test_pin_drops_after_first_lookup(self):
        cache = ArtifactCache(max_entries=2)
        cache.store("prefetch", "batched", pin=True)
        cache.lookup("prefetch")  # consumed: now plain LRU
        cache.store("b", 2)
        cache.store("c", 3)
        assert "prefetch" not in cache

    def test_all_pinned_overflows_rather_than_evicts(self):
        cache = ArtifactCache(max_entries=1)
        cache.store("p1", 1, pin=True)
        cache.store("p2", 2, pin=True)
        assert len(cache) == 2 and cache.evictions == 0
        assert cache.lookup("p1") == (True, 1)
        assert cache.lookup("p2") == (True, 2)

    def test_clear_drops_pins(self):
        cache = ArtifactCache(max_entries=1)
        cache.store("p", 1, pin=True)
        cache.clear()
        cache.store("a", 1)
        cache.store("b", 2)  # would overflow if "p"'s pin leaked
        assert len(cache) == 1

    def test_clear_drops_memory(self):
        cache = ArtifactCache()
        cache.store("a", 1)
        cache.clear()
        assert len(cache) == 0
        hit, _ = cache.lookup("a")
        assert not hit


class TestCacheStats:
    def test_typed_snapshot_counts_and_latency(self):
        cache = ArtifactCache()
        cache.lookup("k1")  # miss
        cache.store("k1", "artifact")
        cache.lookup("k1")  # hit
        stats = cache.stats_typed()
        assert isinstance(stats, CacheStats)
        assert stats.hits == 1 and stats.misses == 1
        assert stats.stores == 1 and stats.entries == 1
        assert stats.lookups == 2
        assert stats.hit_rate == pytest.approx(0.5)
        assert stats.lookup_s > 0.0

    def test_disk_latency_counters(self, tmp_path):
        cache = ArtifactCache(disk_dir=str(tmp_path))
        cache.store("k1", list(range(1000)))
        fresh = ArtifactCache(disk_dir=str(tmp_path))
        fresh.lookup("k1")
        assert cache.stats_typed().disk_write_s > 0.0
        assert fresh.stats_typed().disk_read_s > 0.0

    def test_since_delta(self):
        cache = ArtifactCache()
        cache.lookup("a")
        before = cache.stats_typed()
        cache.store("a", 1)
        cache.lookup("a")
        delta = cache.stats_typed().since(before)
        assert delta.hits == 1 and delta.misses == 0 and delta.stores == 1

    def test_merge_accumulates(self):
        total = CacheStats()
        total.merge(CacheStats(hits=2, misses=1, lookup_s=0.5))
        total.merge(CacheStats(hits=1, misses=1, disk_hits=1))
        assert total.hits == 3 and total.misses == 2
        assert total.disk_hits == 1
        assert total.lookup_s == pytest.approx(0.5)
        assert total.hit_rate == pytest.approx(0.6)

    def test_to_dict_round_trip(self):
        stats = CacheStats(hits=3, misses=1)
        data = stats.to_dict()
        assert data["hits"] == 3
        assert data["hit_rate"] == pytest.approx(0.75)


class TestDiskLayer:
    def test_disk_round_trip_across_instances(self, tmp_path):
        writer = ArtifactCache(disk_dir=str(tmp_path))
        writer.store("k1", {"payload": [1, 2, 3]})
        reader = ArtifactCache(disk_dir=str(tmp_path))  # cold memory
        hit, value = reader.lookup("k1")
        assert hit and value == {"payload": [1, 2, 3]}
        assert reader.disk_hits == 1
        # Promoted to memory: the next lookup is served without disk.
        hit, _ = reader.lookup("k1")
        assert hit and reader.disk_hits == 1

    def test_store_is_sharded_by_key_prefix(self, tmp_path):
        cache = ArtifactCache(disk_dir=str(tmp_path))
        key = fingerprint("artifact")
        cache.store(key, "value")
        expected = os.path.join(str(tmp_path), key[:2], key + ".pkl")
        assert os.path.exists(expected)

    def test_corrupt_disk_entry_degrades_to_miss(self, tmp_path):
        cache = ArtifactCache(disk_dir=str(tmp_path))
        path = cache._disk_path("bad")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        hit, value = cache.lookup("bad")
        assert not hit and value is None

    def test_truncated_entry_quarantined_not_raised(self, tmp_path):
        # The regression the shared store requires: a writer dying (or
        # a reader racing a non-atomic copy) leaves a truncated pickle;
        # readers must degrade to a miss, count it, and quarantine the
        # file so the slot can be rewritten.
        writer = ArtifactCache(disk_dir=str(tmp_path))
        writer.store("k1", {"payload": list(range(100))})
        path = writer._disk_path("k1")
        size = os.path.getsize(path)
        with open(path, "rb+") as handle:
            handle.truncate(size // 2)
        reader = ArtifactCache(disk_dir=str(tmp_path))
        hit, value = reader.lookup("k1")
        assert not hit and value is None
        assert reader.disk_corrupt == 1
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")
        # The slot is writable again and future reads are clean hits.
        reader.store("k1", "fresh")
        fresh = ArtifactCache(disk_dir=str(tmp_path))
        assert fresh.lookup("k1") == (True, "fresh")
        assert fresh.disk_corrupt == 0

    def test_contains_does_not_quarantine(self, tmp_path):
        cache = ArtifactCache(disk_dir=str(tmp_path))
        path = cache._disk_path("bad")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        assert "bad" not in cache
        # Read-only probe: the corrupt file is left in place untouched.
        assert os.path.exists(path)
        assert cache.disk_corrupt == 0

    def test_unpicklable_artifact_stays_in_memory(self, tmp_path):
        cache = ArtifactCache(disk_dir=str(tmp_path))
        cache.store("fn", lambda: None)  # pickling fails, silently
        hit, value = cache.lookup("fn")
        assert hit and callable(value)
        fresh = ArtifactCache(disk_dir=str(tmp_path))
        hit, _ = fresh.lookup("fn")
        assert not hit

    def test_persist_false_stays_memory_only(self, tmp_path):
        cache = ArtifactCache(disk_dir=str(tmp_path))
        cache.store("mem", "value", persist=False)
        hit, _ = cache.lookup("mem")
        assert hit
        fresh = ArtifactCache(disk_dir=str(tmp_path))
        hit, _ = fresh.lookup("mem")
        assert not hit

    def test_disk_prune_bounds_entry_count(self, tmp_path):
        cache = ArtifactCache(disk_dir=str(tmp_path), disk_max_entries=2)
        for index in range(5):
            cache.store(f"k{index}", index)
        assert len(_disk_pickles(tmp_path)) == 2
        assert cache.disk_evictions == 3

    def test_disk_prune_bounds_total_bytes(self, tmp_path):
        blob = list(range(500))  # ~a couple of KB pickled
        probe = ArtifactCache(disk_dir=str(tmp_path / "probe"))
        probe.store("probe", blob)
        (pickle_path,) = _disk_pickles(tmp_path / "probe")
        entry_bytes = os.path.getsize(pickle_path)

        cache = ArtifactCache(
            disk_dir=str(tmp_path / "store"),
            disk_max_bytes=int(entry_bytes * 2.5),
        )
        for index in range(5):
            cache.store(f"k{index}", blob)
            time.sleep(0.01)  # distinct mtimes: deterministic victims
        kept = _disk_pickles(tmp_path / "store")
        assert len(kept) == 2
        # Oldest-first eviction: the newest entries survive.
        names = {os.path.basename(path) for path in kept}
        assert names == {"k3.pkl", "k4.pkl"}
        assert cache.disk_evictions == 3

    def test_disk_max_bytes_validated(self, tmp_path):
        with pytest.raises(ValueError):
            ArtifactCache(disk_dir=str(tmp_path), disk_max_bytes=0)

    def test_read_refreshes_mtime_for_disk_lru(self, tmp_path):
        cache = ArtifactCache(disk_dir=str(tmp_path))
        cache.store("old", 1)
        path = cache._disk_path("old")
        past = time.time() - 1000
        os.utime(path, (past, past))
        fresh = ArtifactCache(disk_dir=str(tmp_path))
        fresh.lookup("old")
        assert os.path.getmtime(path) > past + 500

    def test_memory_eviction_keeps_disk_copy(self, tmp_path):
        cache = ArtifactCache(max_entries=1, disk_dir=str(tmp_path))
        cache.store("a", 1)
        cache.store("b", 2)  # evicts "a" from memory
        hit, value = cache.lookup("a")  # ... but disk still has it
        assert hit and value == 1
        assert cache.disk_hits == 1

    def test_stale_tmp_orphans_pruned_on_write(self, tmp_path):
        # A writer that dies between mkstemp and os.replace leaves a
        # .tmp file behind; the next prune must sweep it (but leave
        # fresh ones alone — they may belong to a live writer). Both
        # shard subdirs and the root (the pre-sharding flat layout)
        # are swept.
        shard = os.path.join(str(tmp_path), "de")
        os.makedirs(shard)
        stale = os.path.join(shard, "deadbeef0000.tmp")
        flat_stale = os.path.join(str(tmp_path), "feedface0000.tmp")
        fresh = os.path.join(shard, "cafebabe0000.tmp")
        for path in (stale, flat_stale, fresh):
            with open(path, "wb") as handle:
                handle.write(b"partial pickle")
        old = time.time() - STALE_TMP_SECONDS - 60
        os.utime(stale, (old, old))
        os.utime(flat_stale, (old, old))
        cache = ArtifactCache(disk_dir=str(tmp_path))
        cache.store("k1", "artifact")  # store triggers _disk_prune
        assert not os.path.exists(stale)
        assert not os.path.exists(flat_stale)
        assert os.path.exists(fresh)
        assert os.path.exists(cache._disk_path("k1"))

    def test_stale_quarantined_entries_swept(self, tmp_path):
        cache = ArtifactCache(disk_dir=str(tmp_path))
        path = cache._disk_path("bad")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(b"truncated")
        cache.lookup("bad")  # quarantines to bad.pkl.corrupt
        corrupt = path + ".corrupt"
        assert os.path.exists(corrupt)
        old = time.time() - STALE_TMP_SECONDS - 60
        os.utime(corrupt, (old, old))
        cache.store("k1", "artifact")  # prune sweeps stale quarantine
        assert not os.path.exists(corrupt)

    def test_headerless_entry_quarantined(self, tmp_path):
        # A bare pickle (the layout of older code) unpickles fine but
        # carries no digest: it is quarantined and counted, not served.
        cache = ArtifactCache(disk_dir=str(tmp_path))
        path = cache._disk_path("old")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            pickle.dump({"stale": 1.5}, handle)
        assert ("old" in cache) is False
        assert cache.lookup("old") == (False, None)
        assert cache.disk_corrupt == 1
        assert os.path.exists(path + ".corrupt")

    def test_entry_header_is_tag_and_payload_digest(self, tmp_path):
        cache = ArtifactCache(disk_dir=str(tmp_path))
        cache.store("k1", {"payload": [1.5, 2.5]})
        with open(cache._disk_path("k1"), "rb") as handle:
            blob = handle.read()
        assert blob.startswith(DISK_MAGIC)
        payload = blob[len(DISK_MAGIC) + 32:]
        assert pickle.loads(payload) == {"payload": [1.5, 2.5]}

    def test_silent_bit_flip_quarantined_and_recomputed(self, tmp_path):
        """A flipped byte inside a stored float still unpickles — to a
        wrong number. The content digest catches it: the entry is
        quarantined and counted, and the flow recomputes byte-identical
        metrics."""
        bench = benchmark_spec("pr")
        schedule = list_schedule(load_benchmark("pr"), bench.constraints)
        cfg = FlowConfig(width=4, flow="estimate")
        cold = run_estimate(schedule, bench.constraints, "lopass", cfg,
                            cache=ArtifactCache(disk_dir=str(tmp_path)))
        timing_fp = build_pipeline(
            schedule, bench.constraints, "lopass", cfg
        ).stage_fingerprint("timing")
        path = ArtifactCache(disk_dir=str(tmp_path))._disk_path(timing_fp)
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        # Pickle stores a float as opcode "G" + 8 big-endian bytes;
        # flip the lowest mantissa byte.
        period = struct.pack(">d", cold.timing.clock_period_ns)
        at = bytes(blob).index(b"G" + period) + 8
        blob[at] ^= 0x01
        with open(path, "wb") as handle:
            handle.write(blob)
        mangled = pickle.loads(bytes(blob[len(DISK_MAGIC) + 32:]))
        assert mangled.clock_period_ns != cold.timing.clock_period_ns

        reader = ArtifactCache(disk_dir=str(tmp_path))
        warm = run_estimate(schedule, bench.constraints, "lopass", cfg,
                            cache=reader)
        assert reader.disk_corrupt == 1
        assert os.path.exists(path + ".corrupt")
        assert "timing" not in warm.cache_hits
        assert "techmap" in warm.cache_hits
        assert warm.metrics() == cold.metrics()

    def test_flat_layout_pickles_still_bounded(self, tmp_path):
        # Directories written by the pre-sharding layout hold .pkl
        # files at the root; the pruner must keep counting them.
        for index in range(4):
            with open(os.path.join(str(tmp_path), f"flat{index}.pkl"),
                      "wb") as handle:
                pickle.dump(index, handle)
            time.sleep(0.01)
        cache = ArtifactCache(disk_dir=str(tmp_path), disk_max_entries=2)
        cache.store("k1", "artifact")
        assert len(_disk_pickles(tmp_path)) == 2


class TestContains:
    def test_membership_sees_disk_layer(self, tmp_path):
        # `key in cache` must agree with lookup() for artifacts that
        # only live in the disk layer (a fresh process, or a memory
        # eviction).
        writer = ArtifactCache(disk_dir=str(tmp_path))
        writer.store("k1", "artifact")
        reader = ArtifactCache(disk_dir=str(tmp_path))  # cold memory
        assert "k1" in reader
        assert "missing" not in reader
        hit, _ = reader.lookup("k1")
        assert hit

    def test_membership_has_no_side_effects(self, tmp_path):
        cache = ArtifactCache(max_entries=2, disk_dir=str(tmp_path))
        cache.store("a", 1, persist=False)
        cache.store("b", 2, persist=False)
        assert "a" in cache and "b" in cache and "zzz" not in cache
        # No counter moved, and no disk entry was promoted to memory.
        assert cache.stats() == {
            "entries": 2, "hits": 0, "misses": 0, "evictions": 0,
            "disk_hits": 0,
        }
        # No LRU refresh either: "a" is still the oldest entry, so a
        # third store evicts it (lookup() would have refreshed it).
        cache.store("c", 3, persist=False)
        assert "a" not in cache and "b" in cache and "c" in cache

    def test_membership_agrees_with_lookup_on_corrupt_entry(self, tmp_path):
        cache = ArtifactCache(disk_dir=str(tmp_path))
        path = cache._disk_path("bad")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        assert ("bad" in cache) is False
        hit, _ = cache.lookup("bad")
        assert not hit
