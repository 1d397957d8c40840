"""Shared LRU pool of prompt-prefix KV caches.

PR 1 gave every :class:`~repro.models.decoder.PrefixCachedScorer` a private
KV cache, which reuses work across the *successive* prompts of one consumer
but not across consumers.  In a serving scenario many engines and detectors
score prompts built from the same template head (and often the same few-shot
example block), so the pool makes those prefills a process-wide resource:
caches are checked out by longest common token prefix, advanced by the
consumer, and checked back in under the new prompt — bounded by an LRU
eviction policy so memory stays capped no matter how many distinct prompt
families pass through.

``checkout`` *removes* (or copies) the entry it returns, so two consumers
can never mutate the same ``KVCache`` buffers concurrently.  Since the
async serving layer (:mod:`repro.serving.aio`) runs engine stepping threads
beside synchronous callers, the pool's own bookkeeping (entry map, LRU
order, stats) is guarded by a lock — checked-out caches are still owned
exclusively by their caller until check-in.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.analysis.sanitize import maybe_watch_lock
from repro.models.decoder import DecoderLM, common_prefix_length
from repro.nn import KVCache
from repro.nn.paged import PagedKVCache, validate_kv_config
from repro.nn.serialization import pack, unpack

__all__ = ["PoolStats", "PrefixCachePool", "stable_prefix_key"]


def stable_prefix_key(ids: np.ndarray) -> int:
    """Process-stable 64-bit digest of a token prefix (blake2b of the ids).

    Pool entry keys and the fleet router's prefix-affinity hashing both use
    this digest, so two processes — or a router and a worker — always agree
    on prefix identity.  The builtin ``hash(ids.tobytes())`` it replaces is
    salted per process (PYTHONHASHSEED), which would make serialized entries
    land under fresh keys after migration and affinity pins disagree with
    pool contents (the same latent-bug class as the registry ``hash()``
    seed flake fixed in PR 2).
    """
    ids = np.ascontiguousarray(np.asarray(ids, dtype=np.int64).ravel())
    return int.from_bytes(hashlib.blake2b(ids.tobytes(), digest_size=8).digest(), "big")


@dataclass
class PoolStats:
    """Running counters of pool effectiveness."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    tokens_reused: int = 0
    tokens_prefilled: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of checkouts that found a non-empty shared prefix."""
        return self.hits / self.requests if self.requests else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "tokens_reused": self.tokens_reused,
            "tokens_prefilled": self.tokens_prefilled,
            "hit_rate": self.hit_rate,
        }


@dataclass
class _PoolEntry:
    """One cached prompt prefix: the token ids and their keys/values."""

    ids: np.ndarray
    cache: KVCache


#: Process-wide pools, one per model instance (dropped with the model).
# guarded-by: _SHARED_POOLS_LOCK
_SHARED_POOLS: "weakref.WeakKeyDictionary[DecoderLM, PrefixCachePool]" = (
    weakref.WeakKeyDictionary()
)
_SHARED_POOLS_LOCK = maybe_watch_lock("shared-pools", threading.Lock())


class PrefixCachePool:
    """Capacity-bounded LRU pool of prompt-prefix KV caches for one model.

    ``min_reuse_tokens`` guards against *destructive* matches: nearly every
    causal prompt shares at least the BOS token, and checking out an entry
    truncates it to the common prefix, so without a floor two unrelated
    prompt families interleaving would keep stealing and wiping each
    other's prefills while the hit counter looked healthy.  Overlaps below
    the floor are treated as misses and leave the pooled entries untouched.
    """

    def __init__(
        self,
        model: DecoderLM,
        max_entries: int = 8,
        min_reuse_tokens: int = 8,
        *,
        max_bytes: int | None = None,
        kv_layout: str = "dense",
        kv_dtype: str = "fp32",
    ) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        if min_reuse_tokens <= 0:
            raise ValueError(f"min_reuse_tokens must be positive, got {min_reuse_tokens}")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        validate_kv_config(kv_layout, kv_dtype)
        self.model = model
        self.max_entries = max_entries
        #: Optional byte budget on resident pooled KV (checked at check-in;
        #: least-recently-used entries are evicted until under budget).
        #: This is where the storage layout earns its keep: a dense entry
        #: costs a full-context rectangle regardless of its prefill length,
        #: while a paged entry costs exactly its (shared, possibly int8)
        #: blocks — so the same budget holds several times more prompt
        #: families before thrashing.
        self.max_bytes = max_bytes
        self.min_reuse_tokens = min_reuse_tokens
        #: Storage layout of pooled caches.  With ``"paged"``, entries are
        #: block tables on the model's shared allocator: a partial-overlap
        #: checkout clones the shared prefix *copy-on-write* (ref-count
        #: bumps, no bytes moved), and a paged live batch admits a
        #: checked-out prefill by sharing its blocks outright.
        self.kv_layout = kv_layout
        self.kv_dtype = kv_dtype
        self.stats = PoolStats()
        self._entries: OrderedDict[int, _PoolEntry] = OrderedDict()  # guarded-by: self._lock
        #: Keys of entries protected from LRU eviction (see :meth:`pin`).
        self._pinned: set[int] = set()  # guarded-by: self._lock
        self._lock = maybe_watch_lock("pool", threading.RLock())

    def _new_cache(self):
        """An empty full-context cache in this pool's configured layout."""
        if self.kv_layout == "dense":
            return self.model.make_cache(1, self.model.config.max_position)
        return self.model.make_paged_cache(
            1, self.model.config.max_position, kv_dtype=self.kv_dtype
        )

    @classmethod
    def shared(cls, model: DecoderLM, max_entries: int = 8) -> "PrefixCachePool":
        """The process-wide pool for ``model`` (created on first use).

        Engines, streaming detectors and schedulers built around the same
        model instance all draw from this pool unless given a private one.
        """
        with _SHARED_POOLS_LOCK:
            pool = _SHARED_POOLS.get(model)
            if pool is None:
                pool = cls(model, max_entries=max_entries)
                _SHARED_POOLS[model] = pool
            return pool

    @classmethod
    def default(
        cls, model: DecoderLM, kv_layout: str = "dense", kv_dtype: str = "fp32"
    ) -> "PrefixCachePool":
        """The pool an engine should use when none was given: the
        process-wide shared dense pool, or — for paged engines — a private
        pool on the model's block allocator, so checked-in prefills flow
        back into live batches as shared blocks."""
        if kv_layout == "dense":
            return cls.shared(model)
        return cls(model, kv_layout=kv_layout, kv_dtype=kv_dtype)

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @staticmethod
    def _key(ids: np.ndarray) -> int:
        """Stable key of a token-prefix (identity for check-in deduplication)."""
        return stable_prefix_key(ids)

    def clear(self) -> None:
        """Drop every pooled cache (stats are kept)."""
        with self._lock:
            self._entries.clear()
            self._pinned.clear()

    # ------------------------------------------------------------------ #
    # eviction pinning (preempted-request resume state)
    # ------------------------------------------------------------------ #
    def pin(self, prompt_ids: np.ndarray) -> bool:
        """Protect the entry stored under exactly ``prompt_ids`` from eviction.

        The continuous-batching engine pins the entry holding a preempted
        request's decoded-so-far KV: the request *will* come back for it,
        so LRU pressure from unrelated traffic must not drop it while the
        request waits in the queue.  Returns ``False`` when no entry is
        stored under that exact prefix.  A pin is cleared by :meth:`unpin`,
        by a :meth:`checkout` that consumes the entry, or by :meth:`clear`.
        """
        key = self._key(np.asarray(prompt_ids, dtype=np.int64).ravel())
        with self._lock:
            if key not in self._entries:
                return False
            self._pinned.add(key)
            return True

    def unpin(self, prompt_ids: np.ndarray) -> bool:
        """Release a pin (idempotent); returns whether one was held."""
        key = self._key(np.asarray(prompt_ids, dtype=np.int64).ravel())
        with self._lock:
            if key not in self._pinned:
                return False
            self._pinned.discard(key)
            return True

    @property
    def pinned_entries(self) -> int:
        with self._lock:
            return len(self._pinned)

    def _evict_over_budget(self) -> None:  # guarded-by: self._lock
        """Evict least-recently-used *unpinned* entries until within the
        entry-count and byte budgets (caller holds the lock).

        Pinned entries are skipped: dropping a preempted request's resume
        state would silently convert its nearly-free resume into a full
        re-prefill, so the pool prefers running temporarily over budget.
        When everything still over budget is pinned, eviction stops.
        """
        while len(self._entries) > self.max_entries or (
            self.max_bytes is not None
            and len(self._entries) > 1
            and self._resident_bytes() > self.max_bytes
        ):
            victim = next((k for k in self._entries if k not in self._pinned), None)
            if victim is None:
                return
            self._entries.pop(victim)
            self.stats.evictions += 1

    def kv_bytes(self) -> int:
        """Resident KV bytes across pooled entries.

        Blocks that copy-on-write sharing spreads over several paged
        entries (a family head under many tails) are counted *once* — this
        is also the quantity the ``max_bytes`` budget evicts against.
        """
        with self._lock:
            return self._resident_bytes()

    def _resident_bytes(self) -> int:  # guarded-by: self._lock
        total = 0
        shared_blocks: dict[int, set[int]] = {}
        allocators: dict[int, object] = {}
        for entry in self._entries.values():
            cache = entry.cache
            allocator = getattr(cache, "allocator", None)
            if allocator is None:
                total += cache.kv_bytes()
                continue
            key = id(allocator)
            allocators[key] = allocator
            ids = shared_blocks.setdefault(key, set())
            for layer in cache.layers:
                ids.update(layer.block_ids())
                total += layer.workspace_bytes()
        for key, ids in shared_blocks.items():
            total += len(ids) * allocators[key].block_bytes
        return total

    # ------------------------------------------------------------------ #
    def peek(self, prompt_ids: np.ndarray) -> int:
        """Longest usable pooled overlap with ``prompt_ids`` — no side effects.

        Returns the number of tokens a :meth:`checkout` would reuse, or 0
        when every overlap is below the ``min_reuse_tokens`` floor.  Unlike
        ``checkout`` it neither allocates a cache, mutates the LRU order,
        nor counts toward the hit/miss statistics, so callers can probe
        residency cheaply.
        """
        prompt_ids = np.asarray(prompt_ids, dtype=np.int64).ravel()
        best = 0
        with self._lock:
            for entry in self._entries.values():
                common = common_prefix_length(entry.ids, prompt_ids)
                best = max(best, min(common, entry.cache.length))
        return best if best >= self.min_reuse_tokens else 0

    def checkout(self, prompt_ids: np.ndarray) -> tuple[KVCache, int]:
        """Return ``(cache, reused_tokens)`` for scoring/extending ``prompt_ids``.

        The entry sharing the longest common token prefix with ``prompt_ids``
        serves the request: when the prompt covers the whole entry the cache
        is *removed* from the pool and handed over; when the overlap is only
        partial the shared prefix is *copied* and the entry stays for its own
        prompt family.  Either way the caller exclusively owns the returned
        cache until :meth:`checkin`.  With no overlap of at least
        ``min_reuse_tokens`` a fresh empty cache is allocated (a miss).
        """
        prompt_ids = np.asarray(prompt_ids, dtype=np.int64).ravel()
        with self._lock:
            best_key, best_common = None, 0
            for key, entry in self._entries.items():
                common = common_prefix_length(entry.ids, prompt_ids)
                if common > best_common:
                    best_key, best_common = key, common
            if best_key is None or best_common < self.min_reuse_tokens:
                self.stats.misses += 1
                cache = self._new_cache()
                cache.pool_reused_tokens = 0
                return cache, 0
            entry = self._entries[best_key]
            if best_common >= entry.cache.length:
                # The prompt covers the whole entry (typically an extension of
                # it): hand the cache over and let checkin re-add the longer
                # prefill.
                self._entries.pop(best_key)
                # A consumed entry takes its pin with it: the caller now
                # owns the cache, so there is nothing left to protect.
                self._pinned.discard(best_key)
                cache = entry.cache
                cache.truncate(min(best_common, cache.length))
            else:
                # Partial overlap (e.g. a shared template head): copy the prefix
                # instead of consuming the entry, so the longer prefill stays
                # available to its own prompt family.
                self._entries.move_to_end(best_key)
                cache = entry.cache.clone_prefix(
                    best_common, self.model.config.max_position
                )
            reused = cache.length
            self.stats.hits += 1
            self.stats.tokens_reused += reused
            # Remembered so checkin can count only the *newly* forwarded tokens
            # as prefill work (reused positions were never recomputed).
            cache.pool_reused_tokens = reused
            return cache, reused

    def checkin(self, prompt_ids: np.ndarray, cache: KVCache) -> None:
        """Store ``cache`` (holding keys/values of ``prompt_ids[:cache.length]``).

        Most-recently-used entries survive; beyond ``max_entries`` the least
        recently used entry is evicted.  Checking in under a prompt that is
        already pooled replaces the old entry (the longer prefill wins).
        """
        prompt_ids = np.asarray(prompt_ids, dtype=np.int64).ravel()
        if cache.length == 0:
            return
        if cache.length > len(prompt_ids):
            raise ValueError(
                f"cache holds {cache.length} tokens but the prompt has only "
                f"{len(prompt_ids)}"
            )
        ids = prompt_ids[: cache.length].copy()
        key = self._key(ids)
        # A resting paged entry costs its (shared, possibly int8) blocks
        # only: the tails are flushed and the tail buffer is dropped here; a
        # checkout that extends the entry appends into a fresh one.
        if hasattr(cache, "release_workspace"):
            cache.release_workspace()
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = _PoolEntry(ids=ids, cache=cache)
            reused = getattr(cache, "pool_reused_tokens", 0)
            self.stats.tokens_prefilled += max(int(cache.length) - int(reused), 0)
            cache.pool_reused_tokens = 0
            self._evict_over_budget()

    # ------------------------------------------------------------------ #
    # entry serialization (fleet migration, disk warm-start)
    # ------------------------------------------------------------------ #
    def export_entry(self, prompt_ids: np.ndarray) -> bytes | None:
        """Serialize the pooled entry best covering ``prompt_ids`` to bytes.

        The entry sharing the longest common token prefix (of at least
        ``min_reuse_tokens``) is exported *whole* — ids plus its KV cache —
        without removing it from the pool or touching the LRU order.
        Returns ``None`` when nothing usable is pooled.  The bytes restore
        via :meth:`import_entry` on any pool with the same model geometry
        and KV configuration; int8 block content travels verbatim (codes +
        scales), so the restored entry's persisted KV is bit-identical to
        the donor's.
        """
        prompt_ids = np.asarray(prompt_ids, dtype=np.int64).ravel()
        with self._lock:
            best_entry, best_common = None, 0
            for entry in self._entries.values():
                common = common_prefix_length(entry.ids, prompt_ids)
                if common > best_common:
                    best_entry, best_common = entry, common
            if best_entry is None or best_common < self.min_reuse_tokens:
                return None
            return self._pack_entry(best_entry)

    def export_entries(self) -> list[bytes]:
        """Serialize every pooled entry, least recently used first.

        Importing the list in order reproduces the donor pool's LRU order —
        the disk warm-start / whole-pool migration companion of
        :meth:`export_entry`.
        """
        with self._lock:
            return [self._pack_entry(entry) for entry in self._entries.values()]

    def _pack_entry(self, entry: _PoolEntry) -> bytes:
        cache_bytes = entry.cache.serialize()
        header = {
            "kind": "pool-entry",
            "kv_layout": self.kv_layout,
            "kv_dtype": self.kv_dtype,
        }
        return pack(
            header, [entry.ids, np.frombuffer(cache_bytes, dtype=np.uint8)]
        )

    def import_entry(self, data: bytes) -> int:
        """Restore a serialized entry into this pool; returns its token count.

        The entry must match this pool's KV layout and dtype (mismatches
        raise — silently re-encoding would break the bit-identity contract),
        and its cache is rebuilt on this pool's model: dense snapshots into
        fresh buffers, paged snapshots into fresh exclusive blocks on the
        model's shared allocator.  The imported entry lands most recently
        used, replacing any entry already pooled under the same prefix, and
        the usual capacity/byte-budget eviction applies.
        """
        header, arrays = unpack(data)
        if header.get("kind") != "pool-entry":
            raise ValueError(
                f"corrupt KV checkpoint: expected kind 'pool-entry', got "
                f"{header.get('kind')!r}"
            )
        if len(arrays) != 2:
            raise ValueError(
                f"corrupt KV checkpoint: pool entry needs 2 arrays, got {len(arrays)}"
            )
        layout = header.get("kv_layout")
        dtype = header.get("kv_dtype")
        if layout != self.kv_layout or dtype != self.kv_dtype:
            raise ValueError(
                f"pool entry was serialized as {layout}/{dtype} but this pool "
                f"stores {self.kv_layout}/{self.kv_dtype}"
            )
        ids = np.asarray(arrays[0], dtype=np.int64).ravel()
        cache_bytes = arrays[1].tobytes()
        capacity = self.model.config.max_position
        if self.kv_layout == "dense":
            cache = KVCache.deserialize(cache_bytes, capacity=capacity)
        else:
            cache = PagedKVCache.deserialize(
                cache_bytes,
                self.model.paged_allocator(self.kv_dtype),
                capacity=capacity,
            )
        if cache.batch_size != 1 or cache.length != len(ids):
            raise ValueError(
                f"corrupt KV checkpoint: entry cache is batch "
                f"{cache.batch_size} x {cache.length} tokens but the prefix "
                f"holds {len(ids)} ids"
            )
        key = self._key(ids)
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = _PoolEntry(ids=ids, cache=cache)
            self._evict_over_budget()
        return int(len(ids))

    def import_entries(self, blobs) -> int:
        """Restore many serialized entries (see :meth:`import_entry`);
        returns the total token count imported."""
        return sum(self.import_entry(blob) for blob in blobs)
