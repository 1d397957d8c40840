"""Block-paged (and optionally int8-quantized) key/value storage.

The dense :class:`~repro.nn.attention.KVCache` stores a live decode batch as
one rectangular buffer per layer: every row is allocated the widest row's
capacity, pooled prefix entries each preallocate a full-context rectangle,
and serving a pooled partial overlap copies the shared prefix.  Under
staggered long-context traffic that over-allocates (rectangle = batch x
widest row, pool = entries x max context) and re-copies on every pool
checkout.

This module stores the *persistent* KV state as *block tables* over a pool
of fixed-size, ref-counted column blocks — the vLLM paged-attention memory
layout, adapted to this repo's numpy stepping core:

* :class:`BlockAllocator` owns the block storage (float32, or int8 codes
  with per-position float32 scales) and the ref-counts.  Blocks shared by
  several rows / caches are copy-on-write: writers call
  ``ensure_exclusive`` before touching a block, so a prefix checked into
  the :class:`~repro.serving.pool.PrefixCachePool` can back any number of
  live rows and clones without being copied until someone appends over it.
* :class:`PagedLayerKVCache` / :class:`PagedKVCache` implement the dense
  cache protocol (``append`` / ``truncate`` / ``grow`` / ``clone_prefix`` /
  ``admit_row`` / ``retire_rows`` / ``realign`` / ``read_span``) on block
  tables.  Admission hands a prefilled row over by *sharing* its blocks,
  retirement is a table edit, and ``clone_prefix`` is a pure ref-count
  bump — the copies the dense pool pays per checkout simply do not
  happen.
* Attention reads the blocks through the tables.  ``append`` returns a
  :class:`PagedAttentionView`, and :class:`~repro.nn.MultiHeadAttention`
  calls :meth:`PagedAttentionView.gather_kv` to assemble the attended
  window — persisted spans via one batched block-table gather
  (:meth:`BlockAllocator.gather_batch`), spliced with each row's
  unpersisted suffix — as a transient activation, exactly like its scores
  matrix.  (On a GPU this is what a fused paged-attention kernel does per
  step in registers.)  The only resident float32 state is a per-row
  **tail** buffer holding what the blocks do not yet hold; it is counted in
  :meth:`PagedKVCache.kv_bytes` and dropped at pool check-in
  (:meth:`PagedKVCache.release_workspace`), so a pooled entry costs its
  blocks — shared, exact-width, optionally int8 — rather than a
  full-context rectangle.  Because a row's logical start column is
  derived, admitting a block-aligned shared row, realigning the batch and
  rolling a row back are table edits that move no key/value bytes.

Float32 tails auto-flush once they span two blocks (block writes are
byte-identical to the tail, so no reader can tell), which keeps the tail
buffer a couple of blocks wide regardless of context length.

With ``kv_dtype="int8"`` the block store quantizes each (head, position)
vector to signed bytes with a float32 scale (relative error ~1/254).  int8
tails never auto-flush: a position is quantized exactly once, at its first
flush — admission into a batch, sharing into a clone or a
:class:`~repro.nn.attention.SharedPrefixKVCache`, or pool check-in — and from then on every reader (this cache, a sharing cache, a
restored checkpoint) sees the identical dequantized bytes, so results
never depend on flush timing.  Unpersisted positions (a live row's
not-yet-shared tail) exist only in their own float32 tail — quantization
applies to KV state *at rest*, exactly like the dense-vs-int8 trade a
recompute-vs-cache-hit makes.  Float32 pages hold bit-identical copies of
the dense cache's keys/values, so greedy decoding through a paged batch
emits the same tokens as the dense path; int8 decoding stays
token-identical in practice on the models this repo serves (pinned, with
fixed seeds, by ``tests/test_paged_kv.py``).
"""

from __future__ import annotations

import threading
from typing import Iterable, Sequence

import numpy as np

from repro.analysis.sanitize import maybe_watch_lock
from repro.nn.serialization import pack, unpack

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "BlockAllocator",
    "PagedAttentionView",
    "PagedLayerKVCache",
    "PagedKVCache",
    "validate_kv_config",
]


def validate_kv_config(kv_layout: str, kv_dtype: str) -> None:
    """Reject inconsistent KV storage configuration (single source of truth
    for every layer that accepts ``kv_layout``/``kv_dtype``)."""
    if kv_layout not in ("dense", "paged"):
        raise ValueError(f"kv_layout must be 'dense' or 'paged', got {kv_layout!r}")
    if kv_dtype not in _KV_DTYPES:
        raise ValueError(f"kv_dtype must be one of {_KV_DTYPES}, got {kv_dtype!r}")
    if kv_layout == "dense" and kv_dtype != "fp32":
        raise ValueError("int8 KV storage requires kv_layout='paged'")

#: Columns per block.  Small enough that a ragged row wastes at most a few
#: positions of tail fragmentation, large enough that gathers move data in
#: meaningful slabs.
DEFAULT_BLOCK_SIZE = 16

_KV_DTYPES = ("fp32", "int8")

#: int8 quantization maps each (head, position) key/value vector onto
#: [-127, 127] with a per-vector float32 scale.
_Q_MAX = 127.0


class BlockAllocator:
    """Ref-counted pool of fixed-size KV column blocks for one model geometry.

    One allocator backs *every* paged cache of a model (per kv-dtype), so
    block ids are meaningful across caches: admitting a prefilled row into a
    live batch or cloning a pooled prefix is a table copy plus ``incref`` —
    zero data movement.

    Storage grows by doubling and freed blocks are recycled through a free
    list.  All bookkeeping (alloc/free/ref-counts) is guarded by a lock so
    caches owned by different threads (e.g. an async engine's stepping
    thread beside a synchronous scorer) can share the allocator; the block
    *contents* are still single-writer by the copy-on-write contract.
    """

    def __init__(
        self,
        num_heads: int,
        head_dim: int,
        block_size: int = DEFAULT_BLOCK_SIZE,
        kv_dtype: str = "fp32",
        initial_blocks: int = 64,
    ) -> None:
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        if kv_dtype not in _KV_DTYPES:
            raise ValueError(f"kv_dtype must be one of {_KV_DTYPES}, got {kv_dtype!r}")
        if num_heads <= 0 or head_dim <= 0:
            raise ValueError("block geometry needs positive num_heads and head_dim")
        self.num_heads = num_heads
        self.head_dim = head_dim
        self.block_size = block_size
        self.kv_dtype = kv_dtype
        # Re-entrant: content I/O (write/gather) locks around storage access
        # and may call alloc()/ensure_exclusive() while holding it.  The
        # lock must cover *reads and writes of block contents* too, not just
        # the bookkeeping: _grow_storage rebinds the storage arrays, so an
        # unlocked writer could otherwise land its data in an orphaned array
        # while another thread's alloc() grows the pool.
        self._lock = maybe_watch_lock("allocator", threading.RLock())
        self._free: list[int] = []  # guarded-by: self._lock
        self._refcounts = np.zeros(0, dtype=np.int64)  # guarded-by: self._lock
        store = np.float32 if kv_dtype == "fp32" else np.int8
        # Heads-first storage, blocks on axis 1: a row gather is then one
        # contiguous fancy-index (``storage[:, table]``) whose reshape to
        # (heads, positions, head_dim) is free — no transpose copy.
        # _grow_storage rebinds these arrays, so readers need the lock too.
        self._keys = np.zeros((num_heads, 0, block_size, head_dim), dtype=store)  # guarded-by: self._lock
        self._values = np.zeros((num_heads, 0, block_size, head_dim), dtype=store)  # guarded-by: self._lock
        if kv_dtype == "int8":
            self._key_scales = np.zeros((num_heads, 0, block_size), dtype=np.float32)  # guarded-by: self._lock
            self._value_scales = np.zeros((num_heads, 0, block_size), dtype=np.float32)  # guarded-by: self._lock
        self._initial_blocks = max(int(initial_blocks), 1)
        self.blocks_in_use = 0  # guarded-by: self._lock
        #: High-water mark of blocks simultaneously referenced, for the
        #: paged-KV benchmark's bytes accounting.
        self.peak_blocks_in_use = 0  # guarded-by: self._lock

    # ------------------------------------------------------------------ #
    # sizing
    # ------------------------------------------------------------------ #
    @property
    def num_blocks(self) -> int:
        """Blocks currently backed by storage (in use + free-listed)."""
        with self._lock:
            return self._keys.shape[1]

    @property
    def block_bytes(self) -> int:
        """Resident bytes of one block (keys + values + scales).

        Pure function of the immutable geometry set in ``__init__`` —
        deliberately lock-free so the pool's byte accounting can call it
        while holding its own lock without taking this allocator's.
        """
        itemsize = 4 if self.kv_dtype == "fp32" else 1
        per_pos = self.num_heads * self.head_dim * itemsize
        scales = 0
        if self.kv_dtype == "int8":
            scales = 2 * self.num_heads * 4  # fp32 key + value scale per position
        return self.block_size * (2 * per_pos + scales)

    @property
    def bytes_in_use(self) -> int:
        with self._lock:
            return self.blocks_in_use * self.block_bytes

    @property
    def peak_bytes_in_use(self) -> int:
        with self._lock:
            return self.peak_blocks_in_use * self.block_bytes

    def _grow_storage(self, needed: int) -> None:  # guarded-by: self._lock
        have = self.num_blocks
        if needed <= have:
            return
        new_total = max(needed, have * 2, self._initial_blocks)
        for name in ("_keys", "_values", "_key_scales", "_value_scales"):
            old = getattr(self, name, None)
            if old is None:
                continue
            new = np.zeros(old.shape[:1] + (new_total,) + old.shape[2:], dtype=old.dtype)
            new[:, :have] = old
            setattr(self, name, new)
        refs = np.zeros(new_total, dtype=np.int64)
        refs[: self._refcounts.size] = self._refcounts
        self._refcounts = refs
        # Appended high-to-low so pops hand out ascending block ids.
        self._free.extend(range(new_total - 1, have - 1, -1))

    # ------------------------------------------------------------------ #
    # ref-counted block lifecycle
    # ------------------------------------------------------------------ #
    def alloc(self) -> int:
        """Reserve one block (ref-count 1).  Contents are unspecified."""
        with self._lock:
            if not self._free:
                self._grow_storage(self.num_blocks + 1)
            block = self._free.pop()
            self._refcounts[block] = 1
            self.blocks_in_use += 1
            self.peak_blocks_in_use = max(self.peak_blocks_in_use, self.blocks_in_use)
            return block

    def incref(self, blocks: Iterable[int]) -> None:
        with self._lock:
            refs = self._refcounts
            for block in blocks:
                refs[block] += 1

    def decref(self, blocks: Iterable[int]) -> None:
        with self._lock:
            refs = self._refcounts
            freed = 0
            for block in blocks:
                refs[block] -= 1
                if refs[block] == 0:
                    self._free.append(block)
                    freed += 1
                elif refs[block] < 0:  # pragma: no cover - defensive
                    raise RuntimeError(f"block {block} freed more times than referenced")
            self.blocks_in_use -= freed

    def refcount(self, block: int) -> int:
        with self._lock:
            return int(self._refcounts[block])

    def ensure_exclusive(self, block: int) -> int:
        """Return a block id the caller may write: ``block`` itself when it is
        the sole owner, otherwise a fresh copy (the shared original keeps its
        remaining references).  This is the copy-on-write primitive."""
        with self._lock:
            if self._refcounts[block] == 1:
                return block
            fresh = self.alloc()
            self._keys[:, fresh] = self._keys[:, block]
            self._values[:, fresh] = self._values[:, block]
            if self.kv_dtype == "int8":
                self._key_scales[:, fresh] = self._key_scales[:, block]
                self._value_scales[:, fresh] = self._value_scales[:, block]
            self.decref([block])
            return fresh

    def make_writable(self, table: list, first: int, last: int) -> None:
        """Make ``table[first..last]`` safe for this caller to write, in one
        locked pass: indices past the table's end get fresh blocks, shared
        blocks in range are split copy-on-write (the table is edited in
        place)."""
        with self._lock:
            refs = self._refcounts
            for index in range(first, last + 1):
                if index == len(table):
                    table.append(self.alloc())
                elif refs[table[index]] != 1:
                    table[index] = self.ensure_exclusive(table[index])

    # ------------------------------------------------------------------ #
    # block I/O
    # ------------------------------------------------------------------ #
    def _quantize(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(heads, n, head_dim) float32 -> (int8 codes, per-(head, pos) scales)."""
        scale = np.abs(x).max(axis=-1) / _Q_MAX
        scale = np.where(scale < 1e-12, 1.0, scale).astype(np.float32)
        q = np.clip(np.round(x / scale[..., None]), -_Q_MAX, _Q_MAX).astype(np.int8)
        return q, scale

    def write(self, block: int, offset: int, k: np.ndarray, v: np.ndarray) -> None:
        """Store float32 ``k``/``v`` of shape (heads, n, head_dim) at ``offset``.

        The caller must own the block exclusively (``ensure_exclusive`` /
        ``make_writable``).  Quantization happens per position, so a block's
        stored bytes depend only on the token history it holds, never on
        when or in which batch the positions were appended.
        """
        n = k.shape[1]
        stop = offset + n
        if self.kv_dtype == "fp32":
            with self._lock:
                self._keys[:, block, offset:stop] = k
                self._values[:, block, offset:stop] = v
            return
        qk, sk = self._quantize(np.asarray(k, dtype=np.float32))
        qv, sv = self._quantize(np.asarray(v, dtype=np.float32))
        with self._lock:
            self._keys[:, block, offset:stop] = qk
            self._values[:, block, offset:stop] = qv
            self._key_scales[:, block, offset:stop] = sk
            self._value_scales[:, block, offset:stop] = sv

    def write_scatter(
        self,
        blocks: np.ndarray,
        offsets: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
    ) -> None:
        """Store (heads, s, head_dim) positions at per-position block/offset
        pairs in one advanced-index write — the multi-block flush path.

        Same ownership contract as :meth:`write`.
        """
        if self.kv_dtype == "fp32":
            with self._lock:
                self._keys[:, blocks, offsets] = k
                self._values[:, blocks, offsets] = v
            return
        qk, sk = self._quantize(np.asarray(k, dtype=np.float32))
        qv, sv = self._quantize(np.asarray(v, dtype=np.float32))
        with self._lock:
            self._keys[:, blocks, offsets] = qk
            self._values[:, blocks, offsets] = qv
            self._key_scales[:, blocks, offsets] = sk
            self._value_scales[:, blocks, offsets] = sv

    def gather_row(
        self,
        table: Sequence[int],
        width: int,
        out_k: np.ndarray,
        out_v: np.ndarray,
        start: int,
    ) -> None:
        """Assemble one row's first ``width`` positions into dense float32 output.

        ``out_k``/``out_v`` are (heads, columns, head_dim) destination rows;
        the positions land in columns ``[start, start + width)`` (the
        right-aligned presentation the decode mask expects).  int8 stores
        dequantize here — consumers only ever see float32.
        """
        if width == 0:
            return
        table = list(table)
        heads = self.num_heads
        with self._lock:
            # Contiguous fancy-index: (heads, nb, bs, hd) reshapes to the
            # merged (heads, positions, hd) row for free.
            merged_k = self._keys[:, table].reshape(heads, -1, self.head_dim)[:, :width]
            merged_v = self._values[:, table].reshape(heads, -1, self.head_dim)[:, :width]
            if self.kv_dtype == "fp32":
                out_k[:, start : start + width] = merged_k
                out_v[:, start : start + width] = merged_v
                return
            sk = self._key_scales[:, table].reshape(heads, -1)[:, :width]
            sv = self._value_scales[:, table].reshape(heads, -1)[:, :width]
            np.multiply(merged_k, sk[..., None], out=out_k[:, start : start + width])
            np.multiply(merged_v, sv[..., None], out=out_v[:, start : start + width])

    def gather_batch(
        self,
        tables: Sequence[Sequence[int]],
        widths: Sequence[int],
        out_k: np.ndarray,
        out_v: np.ndarray,
        starts: Sequence[int],
    ) -> None:
        """Assemble many rows' leading ``widths[i]`` positions into dense
        float32 (rows, heads, columns, head_dim) outputs in one pass.

        The batched form of :meth:`gather_row` — the paged-attention read
        path.  Per-row tables are padded to the widest table into one
        index matrix so the storage is touched by a single fancy-index per
        tensor (padding references block 0 but only ``widths[i]`` positions
        of row ``i`` are ever copied out, so the padding is never read
        meaningfully).  Row ``i`` lands in ``out_k[i, :, starts[i] :
        starts[i] + widths[i]]`` — the right-aligned presentation the decode
        mask expects.  int8 stores dequantize on the way out.
        """
        rows = len(tables)
        bs = self.block_size
        counts = [(int(w) + bs - 1) // bs for w in widths]
        nb_max = max(counts, default=0)
        if nb_max == 0:
            return
        matrix = np.zeros((rows, nb_max), dtype=np.int64)
        for i, table in enumerate(tables):
            if counts[i]:
                matrix[i, : counts[i]] = table[: counts[i]]
        heads = self.num_heads
        with self._lock:
            merged_k = self._keys[:, matrix].reshape(heads, rows, nb_max * bs, self.head_dim)
            merged_v = self._values[:, matrix].reshape(heads, rows, nb_max * bs, self.head_dim)
            if self.kv_dtype == "int8":
                sk = self._key_scales[:, matrix].reshape(heads, rows, nb_max * bs)
                sv = self._value_scales[:, matrix].reshape(heads, rows, nb_max * bs)
            for i in range(rows):
                width = int(widths[i])
                if width == 0:
                    continue
                start = int(starts[i])
                if self.kv_dtype == "fp32":
                    out_k[i, :, start : start + width] = merged_k[:, i, :width]
                    out_v[i, :, start : start + width] = merged_v[:, i, :width]
                else:
                    np.multiply(
                        merged_k[:, i, :width],
                        sk[:, i, :width, None],
                        out=out_k[i, :, start : start + width],
                    )
                    np.multiply(
                        merged_v[:, i, :width],
                        sv[:, i, :width, None],
                        out=out_v[i, :, start : start + width],
                    )

    def read_positions(
        self, table: Sequence[int], pos_start: int, pos_stop: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Float32 keys/values of physical positions ``[pos_start, pos_stop)``."""
        bs = self.block_size
        first = pos_start // bs
        last = (pos_stop + bs - 1) // bs
        span = pos_stop - first * bs
        tmp_k = np.zeros((self.num_heads, span, self.head_dim), dtype=np.float32)
        tmp_v = np.zeros_like(tmp_k)
        self.gather_row(table[first:last], span, tmp_k, tmp_v, 0)
        offset = pos_start - first * bs
        return tmp_k[:, offset:], tmp_v[:, offset:]

    # ------------------------------------------------------------------ #
    # raw block export/import (KV serialization)
    # ------------------------------------------------------------------ #
    def export_table(
        self, table: Sequence[int], width: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None]:
        """Verbatim stored content of a row's first ``width`` positions.

        Returns ``(keys, values, key_scales, value_scales)`` in the *storage*
        dtype — raw int8 codes plus their float32 scales for int8 stores
        (scales are ``None`` for fp32).  Unlike :meth:`gather_row` nothing is
        dequantized: this is the serialization read, and shipping the codes
        and scales untouched is what makes a restored entry bit-identical to
        the donor's persisted state.
        """
        if width < 0:
            raise ValueError(f"width must be non-negative, got {width}")
        needed = (width + self.block_size - 1) // self.block_size
        if needed > len(table):
            raise ValueError(
                f"width {width} needs {needed} blocks but the table holds {len(table)}"
            )
        table = list(table[:needed])
        heads, hd = self.num_heads, self.head_dim
        with self._lock:
            k = self._keys[:, table].reshape(heads, -1, hd)[:, :width].copy()
            v = self._values[:, table].reshape(heads, -1, hd)[:, :width].copy()
            if self.kv_dtype == "fp32":
                return k, v, None, None
            sk = self._key_scales[:, table].reshape(heads, -1)[:, :width].copy()
            sv = self._value_scales[:, table].reshape(heads, -1)[:, :width].copy()
            return k, v, sk, sv

    def import_table(
        self,
        k: np.ndarray,
        v: np.ndarray,
        key_scales: np.ndarray | None = None,
        value_scales: np.ndarray | None = None,
    ) -> list[int]:
        """Store raw exported content into freshly allocated exclusive blocks.

        The inverse of :meth:`export_table`: the inputs are placed verbatim
        (no quantization — int8 codes and scales land exactly as shipped),
        so export -> import -> export reproduces identical bytes.  Returns
        the new block table, each block at ref-count 1 and owned by the
        caller.
        """
        k = np.asarray(k)
        v = np.asarray(v)
        store = np.dtype(np.float32 if self.kv_dtype == "fp32" else np.int8)
        expected_tail = (self.head_dim,)
        if (
            k.shape != v.shape
            or k.ndim != 3
            or k.shape[0] != self.num_heads
            or k.shape[2:] != expected_tail
        ):
            raise ValueError(
                f"imported content must be (heads={self.num_heads}, width, "
                f"head_dim={self.head_dim}); got {k.shape} and {v.shape}"
            )
        if k.dtype != store or v.dtype != store:
            raise ValueError(
                f"imported content dtype {k.dtype}/{v.dtype} does not match "
                f"the {self.kv_dtype} store ({store})"
            )
        width = k.shape[1]
        if self.kv_dtype == "int8":
            if key_scales is None or value_scales is None:
                raise ValueError("int8 import requires key and value scales")
            key_scales = np.asarray(key_scales, dtype=np.float32)
            value_scales = np.asarray(value_scales, dtype=np.float32)
            if key_scales.shape != (self.num_heads, width) or value_scales.shape != (
                self.num_heads,
                width,
            ):
                raise ValueError(
                    f"scales must be (heads={self.num_heads}, width={width}); "
                    f"got {key_scales.shape} and {value_scales.shape}"
                )
        elif key_scales is not None or value_scales is not None:
            raise ValueError("fp32 import takes no scales")
        bs = self.block_size
        table = [self.alloc() for _ in range((width + bs - 1) // bs)]
        with self._lock:
            for i, block in enumerate(table):
                lo = i * bs
                n = min(bs, width - lo)
                self._keys[:, block, :n] = k[:, lo : lo + n]
                self._values[:, block, :n] = v[:, lo : lo + n]
                if self.kv_dtype == "int8":
                    self._key_scales[:, block, :n] = key_scales[:, lo : lo + n]
                    self._value_scales[:, block, :n] = value_scales[:, lo : lo + n]
        return table


class PagedLayerKVCache:
    """Block-table KV storage for one attention layer.

    Presents the dense :class:`~repro.nn.attention.LayerKVCache` interface:
    a shared logical ``length`` with every row's filled span right-aligned
    against it.  Physically each row owns only its ``width`` filled
    positions; the logical start column ``length - width`` is derived,
    which is why sharing, realignment and rollback are table edits where
    the dense path copies.

    Storage is two-tier, *write-behind*:

    * the **block store** holds each row's persisted prefix
      ``[0, flushed[row])`` — exact-width, ref-counted, copy-on-write
      shareable, optionally int8;
    * the **tail buffer** — float32, one row per batch row, left-aligned at
      column 0 (its origin is the row's ``flushed`` count) — holds the
      unpersisted suffix ``[flushed[row], width)`` and receives every
      append.

    A row is flushed (tail -> blocks) when it crosses a persistence
    boundary: admission into a batch, sharing into another cache
    (``clone_prefix``, a shared-prefix read), pool check-in
    (:meth:`release_workspace`), an explicit :meth:`flush_row`, or — float32
    only — once its tail spans two blocks.  Rows that retire before any of
    these are simply discarded and never pay a block write.  Reads go
    through :class:`PagedAttentionView` (block gather plus tail splice) or
    :meth:`read_span`.
    """

    __slots__ = (
        "allocator",
        "tables",
        "widths",
        "flushed",
        "length",
        "_capacity",
        "_ws_k",
        "_ws_v",
    )

    def __init__(self, allocator: BlockAllocator, batch_size: int, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.allocator = allocator
        self.tables: list[list[int]] = [[] for _ in range(batch_size)]
        self.widths: list[int] = [0] * batch_size
        #: Per-row count of positions persisted to the block store; the
        #: suffix ``[flushed, width)`` lives only in the tail buffer.
        self.flushed: list[int] = [0] * batch_size
        self.length = 0
        self._capacity = capacity
        self._ws_k: np.ndarray | None = None
        self._ws_v: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def batch_size(self) -> int:
        return len(self.tables)

    @property
    def num_heads(self) -> int:
        return self.allocator.num_heads

    @property
    def head_dim(self) -> int:
        return self.allocator.head_dim

    def _blocks_for(self, width: int) -> int:
        bs = self.allocator.block_size
        return (width + bs - 1) // bs

    # ------------------------------------------------------------------ #
    # tail buffer maintenance
    # ------------------------------------------------------------------ #
    def workspace_bytes(self) -> int:
        if self._ws_k is None:
            return 0
        return self._ws_k.nbytes + self._ws_v.nbytes

    def _ensure_tail(self, rows: int, cols: int) -> None:
        """Make the tail buffer at least (rows, cols).  Tails are
        left-aligned at column 0, so growth copies the old buffer verbatim;
        a released buffer implies every tail was flushed, so a fresh zero
        buffer needs no rebuild."""
        ws = self._ws_k
        if ws is not None and ws.shape[0] >= rows and ws.shape[2] >= cols:
            return
        rows = max(rows, self.batch_size)
        cols = max(cols, 1)
        if ws is None:
            shape = (rows, self.num_heads, cols, self.head_dim)
            self._ws_k = np.zeros(shape, dtype=np.float32)
            self._ws_v = np.zeros(shape, dtype=np.float32)
            return
        have_rows, _, have_cols, _ = ws.shape
        new_rows = have_rows
        if rows > have_rows:
            new_rows = max(rows, have_rows + max(2, have_rows // 2))
        new_cols = have_cols
        if cols > have_cols:
            new_cols = min(max(cols, 2 * have_cols), max(self._capacity, cols))
        for name in ("_ws_k", "_ws_v"):
            old = getattr(self, name)
            new = np.zeros(
                (new_rows, self.num_heads, new_cols, self.head_dim), dtype=np.float32
            )
            new[:have_rows, :, :have_cols] = old
            setattr(self, name, new)

    def flush_row(self, row: int) -> None:
        """Persist the row's tail ``[flushed, width)`` into the block store
        (one write or batched scatter; no-op when already flushed).

        The tail buffer's origin *is* ``flushed``: the unpersisted suffix
        sits at tail columns ``[0, width - flushed)``, so persisting it just
        advances ``flushed`` and empties the tail with no data movement.
        Quantization — when the store is int8 — happens here, once per
        position: a position's stored bytes are fixed at its first flush and
        never rewritten, so block contents depend only on the token history,
        never on batch membership or flush timing, and every later read of
        the position sees the same (for int8: dequantized) bytes.
        """
        width = self.widths[row]
        start = self.flushed[row]
        if start >= width:
            return
        allocator = self.allocator
        bs = allocator.block_size
        table = self.tables[row]
        allocator.make_writable(table, start // bs, (width - 1) // bs)
        k = self._ws_k[row, :, : width - start]
        v = self._ws_v[row, :, : width - start]
        if start // bs == (width - 1) // bs:
            allocator.write(table[start // bs], start % bs, k, v)
        else:
            positions = np.arange(start, width)
            blocks = np.asarray(table, dtype=np.int64)[positions // bs]
            allocator.write_scatter(blocks, positions % bs, k, v)
        self.flushed[row] = width

    def release_workspace(self) -> None:
        """Flush every row to the block store, then drop the tail buffer.

        The prefix pool calls this at check-in so a resting pooled entry
        costs exactly its (shared, possibly int8) blocks; the next append
        allocates a fresh tail buffer.
        """
        if self._ws_k is None:
            return
        for row in range(self.batch_size):
            self.flush_row(row)
        self._ws_k = None
        self._ws_v = None

    # ------------------------------------------------------------------ #
    # the dense-layer protocol
    # ------------------------------------------------------------------ #
    def append(self, k: np.ndarray, v: np.ndarray) -> "PagedAttentionView":
        """Store (batch, heads, s, head_dim) new positions.

        The positions land in the per-row tail buffers; the returned
        :class:`PagedAttentionView` gathers the attended window on demand.
        Float32 tails that have grown to two full blocks are flushed eagerly
        (byte-identical to the tail, so the read path cannot tell), which
        keeps the resident tail buffer a couple of blocks wide regardless of
        context length.  int8 tails are *never* auto-flushed: quantization
        stays pinned to the admission/sharing/pooling boundaries.
        """
        batch, _, s, _ = k.shape
        if batch != self.batch_size:
            raise ValueError(
                f"appending a batch of {batch} rows to a batch-{self.batch_size} cache"
            )
        stop = self.length + s
        if stop > self.capacity:
            raise ValueError(
                f"KV cache overflow: appending {s} positions at length "
                f"{self.length} exceeds capacity {self.capacity}"
            )
        tails = np.array(
            [self.widths[row] - self.flushed[row] for row in range(batch)],
            dtype=np.int64,
        )
        self._ensure_tail(batch, int(tails.max(initial=0)) + s)
        if s == 1:
            rows = np.arange(batch)
            self._ws_k[rows, :, tails] = k[:, :, 0]
            self._ws_v[rows, :, tails] = v[:, :, 0]
        else:
            for row in range(batch):
                t = int(tails[row])
                self._ws_k[row, :, t : t + s] = k[row]
                self._ws_v[row, :, t : t + s] = v[row]
        for row in range(batch):
            self.widths[row] += s
        self.length = stop
        if self.allocator.kv_dtype == "fp32":
            limit = 2 * self.allocator.block_size
            for row in range(batch):
                if self.widths[row] - self.flushed[row] >= limit:
                    self.flush_row(row)
        return PagedAttentionView(self, batch, stop)

    def read_span(self, row: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Float32 keys/values of one row's logical columns ``[start, stop)``.

        The cross-layout interop primitive (see
        :meth:`~repro.nn.attention.LayerKVCache.read_span`): the requested
        columns must lie inside the row's filled span.  Persisted columns
        are gathered from the blocks, unpersisted ones read from the tail.
        """
        if not 0 <= row < self.batch_size:
            raise ValueError(f"row {row} outside batch of {self.batch_size}")
        row_start = self.length - self.widths[row]
        if start < row_start or stop > self.length or start > stop:
            raise ValueError(
                f"columns [{start}, {stop}) outside row {row}'s filled span "
                f"[{row_start}, {self.length})"
            )
        flushed = self.flushed[row]
        phys_start, phys_stop = start - row_start, stop - row_start
        if phys_stop <= flushed:
            return self.allocator.read_positions(self.tables[row], phys_start, phys_stop)
        if phys_start >= flushed:
            lo, hi = phys_start - flushed, phys_stop - flushed
            return self._ws_k[row, :, lo:hi], self._ws_v[row, :, lo:hi]
        block_k, block_v = self.allocator.read_positions(
            self.tables[row], phys_start, flushed
        )
        tail = phys_stop - flushed
        return (
            np.concatenate([block_k, self._ws_k[row, :, :tail]], axis=1),
            np.concatenate([block_v, self._ws_v[row, :, :tail]], axis=1),
        )

    # table-edit
    def _shrink_row(self, row: int, drop: int) -> None:
        """Drop ``drop`` positions off the end of one row's filled span.

        Whole blocks past the persisted prefix are released; a *partially*
        kept block is deliberately left alone — it may still be CoW-shared
        with a pool entry or clone, and the only legal way to write into it
        again is :meth:`flush_row`, whose ``make_writable`` call claims (or
        splits) every block it is about to touch.  Truncation must never
        poke block storage directly, or a shared donor would see the
        re-decoded bytes.
        """
        new_width = self.widths[row] - drop
        self.flushed[row] = min(self.flushed[row], new_width)
        keep = self._blocks_for(self.flushed[row])
        freed = self.tables[row][keep:]
        if freed:
            self.allocator.decref(freed)
            del self.tables[row][keep:]
        self.widths[row] = new_width

    # table-edit
    def truncate(self, length: int) -> None:
        """Roll back to ``length`` filled positions; freed flushed tail
        blocks are released (shared blocks just drop one reference)."""
        if not 0 <= length <= self.length:
            raise ValueError(f"cannot truncate cache of length {self.length} to {length}")
        drop = self.length - length
        if drop:
            for row in range(self.batch_size):
                self._shrink_row(row, min(drop, self.widths[row]))
        self.length = length

    # table-edit
    def grow(self, capacity: int) -> None:
        """Raise the logical column capacity.  Blocks are allocated on
        demand and the tail buffer grows on first need, so this is free."""
        self._capacity = max(self._capacity, capacity)

    # table-edit
    def release(self) -> None:
        """Drop every block reference and the tail buffer (idempotent).

        Unflushed tails are discarded, not persisted — releasing is how
        retiring caches die, not how pooled ones rest (those go through
        :meth:`release_workspace`).
        """
        for table in self.tables:
            if table:
                self.allocator.decref(table)
                table.clear()
        self.widths = [0] * self.batch_size
        self.flushed = [0] * self.batch_size
        self.length = 0
        self._ws_k = None
        self._ws_v = None

    def block_ids(self) -> set[int]:
        """Distinct blocks this layer references (shared blocks counted once)."""
        ids: set[int] = set()
        for table in self.tables:
            ids.update(table)
        return ids


class PagedAttentionView:
    """Lazy handle over a layer's attended window at one append.

    Returned by :meth:`PagedLayerKVCache.append`.  :meth:`gather_kv`
    assembles the (batch, heads, length, head_dim) float32 window —
    persisted prefixes via one batched block-table gather, live tails
    spliced from the tail buffers — as a *transient* activation owned by
    the caller, the numpy analogue of a fused paged-attention kernel
    reading blocks in registers.  Nothing dense stays resident between
    steps.
    """

    __slots__ = ("layer", "batch", "length")

    def __init__(self, layer: PagedLayerKVCache, batch: int, length: int) -> None:
        self.layer = layer
        self.batch = batch
        self.length = length

    def gather_kv(self) -> tuple[np.ndarray, np.ndarray]:
        layer = self.layer
        batch, length = self.batch, self.length
        shape = (batch, layer.num_heads, length, layer.head_dim)
        out_k = np.empty(shape, dtype=np.float32)
        out_v = np.empty(shape, dtype=np.float32)
        widths = layer.widths[:batch]
        flushed = layer.flushed[:batch]
        starts = [length - width for width in widths]
        layer.allocator.gather_batch(layer.tables[:batch], flushed, out_k, out_v, starts)
        for row in range(batch):
            # Masked pad columns must still be *finite*: scores there are
            # replaced wholesale, but softmax·V multiplies them by zero —
            # NaNs from uninitialised memory would poison the product.
            start = starts[row]
            if start:
                out_k[row, :, :start] = 0.0
                out_v[row, :, :start] = 0.0
            tail = widths[row] - flushed[row]
            if tail:
                col = start + flushed[row]
                out_k[row, :, col : col + tail] = layer._ws_k[row, :, :tail]
                out_v[row, :, col : col + tail] = layer._ws_v[row, :, :tail]
        return out_k, out_v


class PagedKVCache:
    """Per-layer block-paged KV cache for a whole decoder stack.

    A drop-in for :class:`~repro.nn.attention.KVCache` behind the decode
    stepping core and the serving layers: same properties, same methods,
    same semantics — with admission as block sharing, retirement as table
    edits, and prefix clones as ref-count bumps.  All layers
    draw blocks from one shared :class:`BlockAllocator`, so prefix sharing
    works across every paged cache of the model (pool entries, prefill
    staging, live batches).
    """

    def __init__(
        self,
        num_layers: int,
        batch_size: int,
        allocator: BlockAllocator,
        capacity: int,
    ) -> None:
        self.allocator = allocator
        self.layers = [
            PagedLayerKVCache(allocator, batch_size, capacity) for _ in range(num_layers)
        ]

    # ------------------------------------------------------------------ #
    @property
    def length(self) -> int:
        return self.layers[0].length if self.layers else 0

    @property
    def capacity(self) -> int:
        return self.layers[0].capacity if self.layers else 0

    @property
    def batch_size(self) -> int:
        return self.layers[0].batch_size if self.layers else 0

    @property
    def kv_dtype(self) -> str:
        return self.allocator.kv_dtype

    # table-edit
    def truncate(self, length: int) -> None:
        for layer in self.layers:
            layer.truncate(length)

    # table-edit
    def grow(self, capacity: int) -> None:
        for layer in self.layers:
            layer.grow(capacity)

    def release_workspace(self) -> None:
        """Flush every layer to the block store and drop the tail buffers.

        Called by the prefix pool at check-in: a resting pooled entry then
        costs exactly its (shared, possibly int8) blocks.
        """
        for layer in self.layers:
            layer.release_workspace()

    def release(self) -> None:
        """Return every referenced block to the allocator (idempotent).

        Unflushed rows are discarded — this is the destructor path."""
        for layer in self.layers:
            layer.release()

    def __del__(self) -> None:  # blocks are not garbage-collected by python
        try:
            self.release()
        except Exception:  # pragma: no cover - interpreter teardown
            pass

    def kv_bytes(self) -> int:
        """Resident KV bytes: distinct referenced blocks plus the tail buffers."""
        ids: set[int] = set()
        tails = 0
        for layer in self.layers:
            ids.update(layer.block_ids())
            tails += layer.workspace_bytes()
        return len(ids) * self.allocator.block_bytes + tails

    # ------------------------------------------------------------------ #
    # checkpoint-to-bytes (fleet migration, pool warm-start)
    # ------------------------------------------------------------------ #
    def serialize(self) -> bytes:
        """Snapshot every row's persisted content to bytes.

        Rows are flushed first (a no-op for pooled entries at rest, whose
        check-in already persisted them), then each row's blocks are read
        *verbatim* via :meth:`BlockAllocator.export_table` — int8 stores
        ship their quantized codes and scales untouched, so a restored
        cache's block bytes are bit-identical to the donor's and re-export
        reproduces the exact same checkpoint.
        """
        widths: list[list[int]] = []
        arrays: list[np.ndarray] = []
        for layer in self.layers:
            for row in range(layer.batch_size):
                layer.flush_row(row)
            widths.append([int(w) for w in layer.widths])
            for row in range(layer.batch_size):
                k, v, sk, sv = self.allocator.export_table(
                    layer.tables[row], layer.widths[row]
                )
                arrays.append(k)
                arrays.append(v)
                if sk is not None:
                    arrays.append(sk)
                    arrays.append(sv)
        header = {
            "kind": "kv-paged",
            "layers": len(self.layers),
            "batch": self.batch_size,
            "heads": self.allocator.num_heads,
            "head_dim": self.allocator.head_dim,
            "block_size": self.allocator.block_size,
            "kv_dtype": self.allocator.kv_dtype,
            "length": self.length,
            "widths": widths,
        }
        return pack(header, arrays)

    @classmethod
    def deserialize(
        cls,
        data: bytes,
        allocator: BlockAllocator,
        capacity: int | None = None,
    ) -> "PagedKVCache":
        """Rebuild a cache from :meth:`serialize` bytes onto ``allocator``.

        The allocator must match the snapshot's geometry, block size and
        kv-dtype (a mismatched restore target raises a clear ``ValueError``
        — re-quantizing would silently break the bit-identity contract).
        Content lands in freshly allocated exclusive blocks via
        :meth:`BlockAllocator.import_table`; every restored row is fully
        flushed.  Shape validation runs before any allocation, so a corrupt
        checkpoint leaks no blocks.
        """
        header, arrays = unpack(data)
        if header.get("kind") != "kv-paged":
            raise ValueError(
                f"corrupt KV checkpoint: expected kind 'kv-paged', got "
                f"{header.get('kind')!r}"
            )
        try:
            num_layers = int(header["layers"])
            batch = int(header["batch"])
            heads = int(header["heads"])
            head_dim = int(header["head_dim"])
            block_size = int(header["block_size"])
            kv_dtype = str(header["kv_dtype"])
            length = int(header["length"])
            widths = [[int(w) for w in row] for row in header["widths"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError("corrupt KV checkpoint: malformed paged header") from exc
        if (
            allocator.num_heads != heads
            or allocator.head_dim != head_dim
            or allocator.block_size != block_size
            or allocator.kv_dtype != kv_dtype
        ):
            raise ValueError(
                f"checkpoint geometry (heads={heads}, head_dim={head_dim}, "
                f"block_size={block_size}, kv_dtype={kv_dtype!r}) does not match "
                f"the restore allocator (heads={allocator.num_heads}, "
                f"head_dim={allocator.head_dim}, block_size={allocator.block_size}, "
                f"kv_dtype={allocator.kv_dtype!r})"
            )
        if len(widths) != num_layers or any(len(row) != batch for row in widths):
            raise ValueError("corrupt KV checkpoint: widths do not match geometry")
        if any(not 0 <= w <= length for row in widths for w in row):
            raise ValueError("corrupt KV checkpoint: row width outside [0, length]")
        per_row = 4 if kv_dtype == "int8" else 2
        if len(arrays) != per_row * num_layers * batch:
            raise ValueError(
                f"corrupt KV checkpoint: expected {per_row * num_layers * batch} "
                f"arrays, got {len(arrays)}"
            )
        # Validate every array's shape before allocating a single block, so
        # a corrupt checkpoint cannot leak partially imported storage.
        store = np.dtype(np.float32 if kv_dtype == "fp32" else np.int8)
        index = 0
        for layer_widths in widths:
            for width in layer_widths:
                group = arrays[index : index + per_row]
                index += per_row
                for arr in group[:2]:
                    if arr.shape != (heads, width, head_dim) or arr.dtype != store:
                        raise ValueError(
                            f"corrupt KV checkpoint: content shape {arr.shape} "
                            f"({arr.dtype}) does not match row width {width}"
                        )
                for arr in group[2:]:
                    if arr.shape != (heads, width) or arr.dtype != np.float32:
                        raise ValueError(
                            f"corrupt KV checkpoint: scale shape {arr.shape} "
                            f"({arr.dtype}) does not match row width {width}"
                        )
        if capacity is not None and capacity < length:
            raise ValueError(
                f"restore capacity {capacity} cannot hold the {length}-position snapshot"
            )
        out = cls(num_layers, batch, allocator, max(capacity or length, 1))
        index = 0
        for layer, layer_widths in zip(out.layers, widths):
            for row, width in enumerate(layer_widths):
                group = arrays[index : index + per_row]
                index += per_row
                layer.tables[row] = allocator.import_table(*group[:2], *group[2:])
                layer.widths[row] = width
                layer.flushed[row] = width
            layer.length = length
        return out

    # ------------------------------------------------------------------ #
    def clone_prefix(self, length: int, capacity: int | None = None) -> "PagedKVCache":
        """Copy-on-write clone of the first ``length`` cached positions.

        Unlike the dense cache this moves no key/value data: the donor rows
        are flushed to the block store (amortised — typically already done
        by a pool check-in), the clone's tables reference the donor's
        blocks (ref-counted), a partially covered tail block is only copied
        if one side later appends over it, and the clone allocates its tail
        buffer on first append.
        """
        if not 0 <= length <= self.length:
            raise ValueError(f"cannot clone {length} positions of a length-{self.length} cache")
        if capacity is not None and capacity < length:
            raise ValueError(
                f"clone capacity {capacity} cannot hold the {length}-position prefix"
            )
        out = PagedKVCache(
            len(self.layers), self.batch_size, self.allocator, max(capacity or length, 1)
        )
        for src, dst in zip(self.layers, out.layers):
            drop = src.length - length
            for row in range(src.batch_size):
                new_width = max(0, src.widths[row] - drop)
                if src.flushed[row] < new_width:
                    src.flush_row(row)
                shared = src.tables[row][: src._blocks_for(new_width)]
                self.allocator.incref(shared)
                dst.tables[row] = list(shared)
                dst.widths[row] = new_width
                dst.flushed[row] = new_width
            dst.length = length
        return out

    # ------------------------------------------------------------------ #
    # live-batch row management (continuous batching)
    # ------------------------------------------------------------------ #
    def admit_row(self, src, src_row: int = 0, src_start: int = 0) -> int:
        """Append one row of ``src`` (dense or paged) as a table edit.

        Same contract as :meth:`repro.nn.attention.KVCache.admit_row`.  When
        ``src`` is paged on the same allocator and the copied span starts on
        a block boundary, the row is admitted by sharing the donor's
        (flushed) blocks — a ref-count bump and no data movement: the
        prefill -> live-batch handoff.  Otherwise the span is read through
        the layout-agnostic ``read_span`` and persisted into the row's own
        blocks: one row's cost, never the batch's.
        """
        if self.layers and src.layers:
            src_layer = src.layers[0]
            if (
                src_layer.num_heads != self.layers[0].num_heads
                or src_layer.head_dim != self.layers[0].head_dim
            ):
                raise ValueError("admit_row requires matching head geometry")
        if len(src.layers) != len(self.layers):
            raise ValueError(
                f"admit_row requires matching layer counts "
                f"({len(src.layers)} vs {len(self.layers)})"
            )
        if not 0 <= src_start <= src.length:
            raise ValueError(f"src_start {src_start} outside filled range [0, {src.length}]")
        width = src.length - src_start
        if width > self.length and self.batch_size > 0:
            raise ValueError(
                f"admitting a {width}-token row into a length-{self.length} live "
                f"batch would strand the existing rows: realign them first"
            )
        new_length = max(self.length, width)
        if new_length > self.capacity:
            raise ValueError(
                f"admitting a {width}-token row into a length-{self.length} cache "
                f"exceeds capacity {self.capacity}"
            )
        start = new_length - width
        bs = self.allocator.block_size
        for own, other in zip(self.layers, src.layers):
            row = own.batch_size
            # A resident tail buffer must cover every row: retire_rows
            # re-packs it by row index.
            if own._ws_k is not None:
                own._ensure_tail(row + 1, 1)
            shared = (
                isinstance(other, PagedLayerKVCache)
                and other.allocator is self.allocator
                and width > 0
            )
            if shared:
                src_row_start = other.length - other.widths[src_row]
                phys = src_start - src_row_start
                if phys >= 0 and phys % bs == 0:
                    other.flush_row(src_row)
                    first = phys // bs
                    donor = other.tables[src_row][first : first + own._blocks_for(width)]
                    self.allocator.incref(donor)
                    own.tables.append(list(donor))
                    own.widths.append(width)
                    own.flushed.append(width)
                else:
                    shared = False
            if not shared:
                own.tables.append([])
                own.widths.append(width)
                own.flushed.append(0)
            own.length = new_length
            if width > 0 and not shared:
                # An unshared span is copied in through the layout-agnostic
                # read_span, then persisted immediately: fp32 block writes
                # are byte-identical to the tail, and quantizing int8 spans
                # *at admission* — whatever path they arrived by — keeps the
                # admitted row's bytes a function of the token history
                # alone, never of admission grouping or padding alignment.
                # A block-shared span needs neither: its donor's flush
                # already persisted it.
                k_span, v_span = other.read_span(src_row, src_start, src.length)
                own._ensure_tail(row + 1, width)
                own._ws_k[row, :, :width] = k_span
                own._ws_v[row, :, :width] = v_span
                own.flush_row(row)
        return start

    # table-edit
    def retire_rows(self, keep: np.ndarray) -> None:
        """Drop every row not listed in ``keep``: the persistent state is a
        pure table edit (dropped rows' blocks are dereferenced, unflushed
        rows simply vanish, no block bytes move); only the tail buffer
        re-packs its rows."""
        keep = np.asarray(keep, dtype=np.int64).ravel()
        if keep.size:
            if keep.min() < 0 or keep.max() >= self.batch_size:
                raise ValueError(
                    f"row indices {keep.tolist()} outside batch of {self.batch_size}"
                )
            if np.unique(keep).size != keep.size:
                raise ValueError(
                    f"duplicate row indices in keep: {keep.tolist()} — a row may "
                    f"be kept at most once"
                )
        kept = set(int(i) for i in keep)
        indices = [int(i) for i in keep]
        # The common retirement (ascending keep, e.g. the decode loop's) can
        # compact the tail buffer in place, touching only the rows that move;
        # an order-changing keep falls back to a gathered copy.
        ascending = all(b > a for a, b in zip(indices, indices[1:]))
        dropped: list[int] = []
        for layer in self.layers:
            for row in range(layer.batch_size):
                if row not in kept:
                    dropped.extend(layer.tables[row])
            layer.tables = [layer.tables[i] for i in indices]
            layer.widths = [layer.widths[i] for i in indices]
            layer.flushed = [layer.flushed[i] for i in indices]
            if layer._ws_k is not None:
                if keep.size == 0:
                    # An emptied batch drops its tail buffer like the dense
                    # cache drops to zero rows; the next admission re-sizes it.
                    layer._ws_k = None
                    layer._ws_v = None
                elif ascending:
                    for j, i in enumerate(indices):
                        if j != i:
                            layer._ws_k[j] = layer._ws_k[i]
                            layer._ws_v[j] = layer._ws_v[i]
                else:
                    layer._ws_k = layer._ws_k[keep]
                    layer._ws_v = layer._ws_v[keep]
            if keep.size == 0:
                layer.length = 0
        if dropped:
            # One locked pass for every layer's dropped tables.
            self.allocator.decref(dropped)

    # table-edit
    def realign(self, starts: np.ndarray, new_length: int) -> np.ndarray:
        """Move every row's span to end at ``new_length``.

        Pure bookkeeping: a paged row's logical start column is *derived*
        (``length - width``) and its tail sits at column 0 with origin
        ``flushed``, so neither compaction nor pre-admission growth moves
        any data.  ``starts`` must match the rows' actual filled spans: a
        paged row's history is intrinsic to its table, so unlike the dense
        buffer there are no dead leading columns to silently abandon.
        """
        starts = np.asarray(starts, dtype=np.int64).ravel()
        if starts.size != self.batch_size:
            raise ValueError(
                f"realign needs one start per row ({self.batch_size}), got {starts.size}"
            )
        if starts.size and (starts.min() < 0 or starts.max() > self.length):
            raise ValueError(f"row starts {starts.tolist()} outside filled length {self.length}")
        widths = self.length - starts
        if int(widths.max(initial=0)) > new_length:
            raise ValueError(
                f"new length {new_length} cannot hold the widest row ({int(widths.max())})"
            )
        if new_length > self.capacity:
            raise ValueError(f"new length {new_length} exceeds capacity {self.capacity}")
        for layer in self.layers:
            if list(widths) != layer.widths:
                raise ValueError(
                    f"realign starts imply widths {widths.tolist()} but the rows "
                    f"hold {layer.widths}"
                )
            layer.length = new_length
        return new_length - widths
