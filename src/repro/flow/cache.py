"""Content-addressed artifact store for the staged flow pipeline.

Every pipeline stage (see :mod:`repro.flow.pipeline`) produces one
artifact — a binding solution, an elaborated netlist, a simulation
trace — whose identity is fully determined by its inputs: the upstream
artifacts' fingerprints plus the subset of
:class:`~repro.flow.run.FlowConfig` fields the stage actually reads.
:func:`fingerprint` reduces that identity to a SHA-256 digest;
:class:`ArtifactCache` maps digests to artifacts so two flow runs that
share a prefix of the stage graph share the expensive prefix work.

The cache is in-memory with LRU eviction (artifacts can be large —
a mapped ``chem`` netlist is tens of thousands of gates) and an
optional on-disk layer for cross-process sweeps and the resident
``repro serve`` daemon. The disk layer is a **sharded store**: pickles
fan out into 256 subdirectories keyed by the first two fingerprint
hex digits (so a long-lived directory of thousands of artifacts never
degrades into one giant flat listing), writes are atomic
(temp + ``os.replace``), reads are corruption-tolerant (a truncated,
mangled or digest-mismatched entry is quarantined with a ``.corrupt``
suffix and counted, never raised), and the whole tree is bounded both
by entry count and by total bytes with oldest-first eviction (disk
reads refresh the mtime, so the bound approximates LRU across *all*
processes sharing the directory).

Counters — hits, misses, evictions, corrupt quarantines, and the wall
clock spent in lookups and disk I/O — are surfaced as a typed
:class:`CacheStats`, which the sweep summary and the ``repro serve``
``/metrics`` endpoint report.

Determinism contract: the cache only ever substitutes an artifact for
a byte-identical recomputation, so cached and cold pipeline runs
produce identical :meth:`~repro.flow.run.FlowResult.metrics`. The
differential suite in ``tests/flow/test_pipeline.py`` enforces this
across binders, idle policies, delay jitter and both sim kernels.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
import time
from collections import OrderedDict
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple

from repro.techmap.compile import ConeMemo

_MISSING = object()

#: A ``.tmp`` file older than this is an orphan from a writer that died
#: between ``mkstemp`` and ``os.replace``; younger ones may still belong
#: to a live writer mid-publish and are left alone. Quarantined
#: ``.corrupt`` entries use the same horizon before they are swept.
STALE_TMP_SECONDS = 300.0

#: Every disk entry starts with this tag and the SHA-256 of the pickle
#: after it. A read whose digest disagrees (a bit flip that still
#: unpickles, or a header-less entry from older code) is quarantined
#: like a truncated one, so no mangled artifact is ever served.
DISK_MAGIC = b"repro-artifact-sha256:"
_HEADER_BYTES = len(DISK_MAGIC) + hashlib.sha256().digest_size


def _unpack(blob: bytes) -> Any:
    """The artifact in one disk entry; ``ValueError`` unless its
    header matches the payload."""
    payload = memoryview(blob)[_HEADER_BYTES:]
    if blob[:_HEADER_BYTES] != (DISK_MAGIC
                                + hashlib.sha256(payload).digest()):
        raise ValueError("disk entry fails its content digest")
    return pickle.loads(payload)


class Encoded(bytes):
    """A token's :func:`_update` byte stream, made once by
    :func:`encode`. :func:`fingerprint` feeds it verbatim, so a digest
    over it equals the digest over the token it encodes."""


def encode(value: Any) -> Encoded:
    """Pre-encode a token whose digest inputs are reused many times."""
    chunks: List[bytes] = []
    _update(SimpleNamespace(update=chunks.append), value)
    return Encoded(b"".join(chunks))


def _update(hasher: "hashlib._Hash", value: Any) -> None:
    """Feed one value into the hash with an unambiguous type tag."""
    if value is None:
        hasher.update(b"N;")
    elif isinstance(value, bool):  # before int: bool is an int subclass
        hasher.update(b"b%d;" % value)
    elif isinstance(value, int):
        hasher.update(b"i" + str(value).encode() + b";")
    elif isinstance(value, float):
        # repr() round-trips doubles exactly in Python 3.
        hasher.update(b"f" + repr(value).encode() + b";")
    elif isinstance(value, str):
        raw = value.encode()
        hasher.update(b"s%d:" % len(raw) + raw + b";")
    elif isinstance(value, bytes):
        if isinstance(value, Encoded):
            hasher.update(value)
        else:
            hasher.update(b"y%d:" % len(value) + value + b";")
    elif isinstance(value, (tuple, list)):
        hasher.update(b"(")
        for item in value:
            _update(hasher, item)
        hasher.update(b")")
    elif isinstance(value, (set, frozenset)):
        hasher.update(b"{")
        for item in sorted(value, key=repr):
            _update(hasher, item)
        hasher.update(b"}")
    elif isinstance(value, dict):
        hasher.update(b"[")
        for key in sorted(value, key=repr):
            _update(hasher, key)
            _update(hasher, value[key])
        hasher.update(b"]")
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        hasher.update(b"d" + type(value).__name__.encode() + b":")
        for field in dataclasses.fields(value):
            _update(hasher, field.name)
            _update(hasher, getattr(value, field.name))
        hasher.update(b";")
    else:
        raise TypeError(
            f"cannot fingerprint {type(value).__name__!r} values; pass a "
            f"primitive, container, or dataclass token instead"
        )


def fingerprint(*parts: Any) -> str:
    """Stable SHA-256 digest of a tree of primitive/container tokens.

    Stability matters more than speed here: the same logical inputs
    must hash identically across processes and sessions (the on-disk
    layer persists digests), so only deterministic-repr types are
    accepted and dict/set iteration order never leaks into the digest.
    """
    hasher = hashlib.sha256()
    _update(hasher, parts)
    return hasher.hexdigest()


@dataclass
class CacheStats:
    """One snapshot of an :class:`ArtifactCache`'s counters.

    Counter fields are cumulative since construction; latency fields
    (``*_s``) are wall-clock totals. Snapshots subtract
    (:meth:`since`), so callers can report per-request or per-chunk
    deltas from cumulative counters.
    """

    entries: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stores: int = 0
    disk_hits: int = 0
    disk_corrupt: int = 0
    disk_evictions: int = 0
    #: Wall clock spent inside lookup() calls (both layers).
    lookup_s: float = 0.0
    #: Wall clock spent reading / writing the disk layer.
    disk_read_s: float = 0.0
    disk_write_s: float = 0.0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups, 0.0 when nothing was ever looked up."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """The counter delta between this snapshot and an older one.

        ``entries`` is a gauge, not a counter — the delta keeps the
        newer snapshot's value.
        """
        return CacheStats(
            entries=self.entries,
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            evictions=self.evictions - earlier.evictions,
            stores=self.stores - earlier.stores,
            disk_hits=self.disk_hits - earlier.disk_hits,
            disk_corrupt=self.disk_corrupt - earlier.disk_corrupt,
            disk_evictions=self.disk_evictions - earlier.disk_evictions,
            lookup_s=self.lookup_s - earlier.lookup_s,
            disk_read_s=self.disk_read_s - earlier.disk_read_s,
            disk_write_s=self.disk_write_s - earlier.disk_write_s,
        )

    def merge(self, other: "CacheStats") -> None:
        """Accumulate another snapshot's counters into this one."""
        self.entries = max(self.entries, other.entries)
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions
        self.stores += other.stores
        self.disk_hits += other.disk_hits
        self.disk_corrupt += other.disk_corrupt
        self.disk_evictions += other.disk_evictions
        self.lookup_s += other.lookup_s
        self.disk_read_s += other.disk_read_s
        self.disk_write_s += other.disk_write_s

    def to_dict(self) -> Dict[str, float]:
        data = dataclasses.asdict(self)
        data["hit_rate"] = self.hit_rate
        return data


class ArtifactCache:
    """Content-addressed artifact store with LRU eviction.

    ``max_entries`` bounds the in-memory layer (``None`` = unbounded);
    ``disk_dir`` enables the sharded persistent layer shared across
    processes, bounded to ``disk_max_entries`` pickles and (when set)
    ``disk_max_bytes`` total bytes — oldest-by-mtime entries are
    evicted on write, and reads refresh the mtime, so a long-lived
    shared directory behaves as a size-bounded LRU.
    """

    def __init__(
        self,
        max_entries: Optional[int] = None,
        disk_dir: Optional[str] = None,
        disk_max_entries: int = 512,
        disk_max_bytes: Optional[int] = None,
    ):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if disk_max_entries < 1:
            raise ValueError(
                f"disk_max_entries must be >= 1, got {disk_max_entries}"
            )
        if disk_max_bytes is not None and disk_max_bytes < 1:
            raise ValueError(
                f"disk_max_bytes must be >= 1, got {disk_max_bytes}"
            )
        self.max_entries = max_entries
        self.disk_dir = disk_dir
        self.disk_max_entries = disk_max_entries
        self.disk_max_bytes = disk_max_bytes
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._pinned: set = set()
        #: The tech mapper's cone-evaluation memo, shared by every flow
        #: run on this cache. Its entries are exact-match evaluations,
        #: valid for any netlist, so it lives beside the LRU (bounded
        #: by its own entry cap) instead of as one artifact per netlist.
        self.cone_memo = ConeMemo()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stores = 0
        self.disk_hits = 0
        self.disk_corrupt = 0
        self.disk_evictions = 0
        self.lookup_s = 0.0
        self.disk_read_s = 0.0
        self.disk_write_s = 0.0
        if disk_dir is not None:
            os.makedirs(disk_dir, exist_ok=True)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Membership across *both* layers.

        Unlike :meth:`lookup`, a membership probe is read-only: it never
        refreshes LRU order, promotes disk entries into memory, or
        touches the hit/miss counters — so ``key in cache`` always
        agrees with what ``lookup(key)[0]`` *would* return, without the
        side effects.
        """
        if key in self._entries:
            return True
        if self.disk_dir is None:
            return False
        return self._disk_read(key, quarantine=False, touch=False) \
            is not _MISSING

    # -- lookup / store ----------------------------------------------------

    def lookup(self, key: str) -> Tuple[bool, Any]:
        """``(hit, value)`` for ``key``; value is ``None`` on a miss."""
        started = time.perf_counter()
        try:
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING:
                self._entries.move_to_end(key)
                self._pinned.discard(key)
                self.hits += 1
                return True, value
            if self.disk_dir is not None:
                value = self._disk_read(key)
                if value is not _MISSING:
                    self._insert(key, value)
                    self.hits += 1
                    self.disk_hits += 1
                    return True, value
            self.misses += 1
            return False, None
        finally:
            self.lookup_s += time.perf_counter() - started

    def store(self, key: str, value: Any, persist: bool = True,
              pin: bool = False) -> None:
        """Insert an artifact (and publish it to disk when enabled).

        ``persist=False`` keeps the artifact memory-only even when the
        disk layer is active — used for per-run-unique artifacts (a
        simulation trace is keyed by its exact seed/jitter/idle/kernel
        combination) that would otherwise fill the directory with
        write-only pickles.

        ``pin=True`` protects the entry from LRU eviction until its
        first :meth:`lookup` hit. Batched simulation passes prefetch
        many artifacts before any consumer runs; without the pin,
        unrelated cache traffic in between could silently evict them
        and the consumers would fall back to recomputing — correct,
        but the whole batched pass would have been wasted work.
        """
        self.stores += 1
        self._insert(key, value, pin=pin)
        if persist and self.disk_dir is not None:
            self._disk_write(key, value)

    def clear(self) -> None:
        """Drop the in-memory layer, cone memo included (disk entries
        survive)."""
        self._entries.clear()
        self._pinned.clear()
        self.cone_memo.reset()

    def stats(self) -> Dict[str, int]:
        """Flat dict view of the headline counters (see also
        :meth:`stats_typed` for the full set, latencies included)."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
        }

    def stats_typed(self) -> CacheStats:
        """A :class:`CacheStats` snapshot of every counter."""
        return CacheStats(
            entries=len(self._entries),
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            stores=self.stores,
            disk_hits=self.disk_hits,
            disk_corrupt=self.disk_corrupt,
            disk_evictions=self.disk_evictions,
            lookup_s=self.lookup_s,
            disk_read_s=self.disk_read_s,
            disk_write_s=self.disk_write_s,
        )

    # -- internals ---------------------------------------------------------

    def _insert(self, key: str, value: Any, pin: bool = False) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        if pin:
            self._pinned.add(key)
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                victim = next(
                    (k for k in self._entries if k not in self._pinned),
                    None,
                )
                if victim is None:
                    # Everything still pinned: tolerate the overflow
                    # rather than evict an unconsumed prefetch.
                    break
                del self._entries[victim]
                self.evictions += 1

    def _disk_path(self, key: str) -> str:
        # Shard by fingerprint prefix: 256-way fan-out keeps any one
        # directory listing small however many artifacts accumulate.
        return os.path.join(self.disk_dir, key[:2], key + ".pkl")

    def _quarantine(self, path: str) -> None:
        """Move a corrupt entry aside so no reader trips on it again.

        The ``.corrupt`` suffix takes the file out of the ``.pkl``
        namespace (readers and the pruner skip it); the rename is
        atomic, so a concurrent reader sees either the corrupt pickle
        (and quarantines it itself — the second rename is a no-op) or
        nothing. Swept by :meth:`_disk_prune` once stale.
        """
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            pass
        self.disk_corrupt += 1

    def _disk_read(self, key: str, quarantine: bool = True,
                   touch: bool = True) -> Any:
        started = time.perf_counter()
        path = self._disk_path(key)
        try:
            try:
                with open(path, "rb") as handle:
                    value = _unpack(handle.read())
            except FileNotFoundError:
                return _MISSING
            except (pickle.UnpicklingError, EOFError, AttributeError,
                    ImportError, IndexError, ValueError, MemoryError):
                # Truncated, mangled or header-less entry — e.g. a
                # reader racing a non-atomic copy, bit rot, or a pickle
                # from older code. Quarantine it (count as a miss,
                # never an error) so the slot can be rewritten.
                if quarantine:
                    self._quarantine(path)
                return _MISSING
            except OSError:
                return _MISSING
            if touch:
                try:
                    os.utime(path)  # refresh mtime: disk LRU recency
                except OSError:
                    pass
            return value
        finally:
            self.disk_read_s += time.perf_counter() - started

    def _disk_write(self, key: str, value: Any) -> None:
        # Atomic publish (temp + rename) so concurrent workers never
        # observe a half-written artifact; failures degrade to a miss
        # for future readers, never to an error for this writer.
        started = time.perf_counter()
        try:
            payload = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
            path = self._disk_path(key)
            shard = os.path.dirname(path)
            os.makedirs(shard, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=shard, prefix=key[:16], suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(
                        DISK_MAGIC + hashlib.sha256(payload).digest()
                    )
                    handle.write(payload)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
            self._disk_prune()
        except (OSError, pickle.PicklingError, TypeError, AttributeError):
            pass
        finally:
            self.disk_write_s += time.perf_counter() - started

    def _disk_entries(self) -> Tuple[List[os.DirEntry], List[os.DirEntry]]:
        """``(pickles, stale debris)`` across the whole sharded tree.

        Walks the root and every shard subdirectory, so directories
        written by the pre-sharding flat layout stay bounded too.
        Debris is ``.tmp`` / ``.corrupt`` files past the staleness
        horizon — younger ones may belong to a live writer (or a
        just-quarantined entry someone is inspecting) and are left
        alone.
        """
        now = time.time()
        pickles: List[os.DirEntry] = []
        debris: List[os.DirEntry] = []
        dirs = [self.disk_dir]
        try:
            with os.scandir(self.disk_dir) as root:
                dirs += [item.path for item in root if item.is_dir()]
        except OSError:
            return pickles, debris
        for directory in dirs:
            try:
                with os.scandir(directory) as items:
                    for item in items:
                        if item.is_dir():
                            continue
                        if item.name.endswith(".pkl"):
                            pickles.append(item)
                        elif item.name.endswith((".tmp", ".corrupt")):
                            try:
                                if (now - item.stat().st_mtime
                                        > STALE_TMP_SECONDS):
                                    debris.append(item)
                            except OSError:
                                pass
            except OSError:
                continue
        return pickles, debris

    def _disk_prune(self) -> None:
        """Enforce the entry-count and byte bounds; sweep stale debris."""
        pickles, debris = self._disk_entries()
        for item in debris:
            try:
                os.unlink(item.path)
            except OSError:
                pass
        stats = []
        total_bytes = 0
        for item in pickles:
            try:
                info = item.stat()
            except OSError:
                continue
            stats.append((info.st_mtime, info.st_size, item.path))
            total_bytes += info.st_size
        over_count = len(stats) - self.disk_max_entries
        over_bytes = (
            total_bytes - self.disk_max_bytes
            if self.disk_max_bytes is not None
            else 0
        )
        if over_count <= 0 and over_bytes <= 0:
            return
        stats.sort()  # oldest mtime first — the disk-LRU victims
        for mtime, size, path in stats:
            if over_count <= 0 and over_bytes <= 0:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            self.disk_evictions += 1
            over_count -= 1
            over_bytes -= size
