"""Multi-head scaled-dot-product attention and key/value caching.

Supports both bidirectional attention (BERT-style encoders used for SFT) and
causal attention (GPT-style decoders used for in-context learning).  Padding
masks are passed as boolean arrays where ``True`` marks *valid* tokens.

Causal attention additionally supports *incremental* decoding: the keys and
values of already-processed positions are stored in a :class:`KVCache`, so a
forward pass only has to embed the new tokens (query length ``1..s``) and
attend against the cached history.  This removes the O(n²·layers) recompute
from autoregressive generation and lets many requests share one prompt
prefix.  Cached attention is eval-only inference on plain arrays:
:meth:`MultiHeadAttention.forward` given a cache takes and returns
``np.ndarray``s, with no autograd graph and no dropout.

For continuous batching the cache is no longer a fixed-shape batch: a *live*
decode batch admits new rows mid-decode (:meth:`KVCache.admit_row`), drops
finished ones immediately (:meth:`KVCache.retire_rows`), and re-aligns the
surviving ragged rows to reclaim columns (:meth:`KVCache.realign`).  Rows
are stored right-aligned against the live end, so a row's filled region is
always the contiguous column span ``[start, length)``; attention correctness
is carried by the padding mask plus explicit per-token positions, never by
column placement.

Batched *scoring* of many continuations of one prefix (an ICL batch's
shared few-shot block) uses a :class:`SharedPrefixKVCache` instead: the
prefix keys/values are held once as a single row beside per-row suffix
buffers.  Attention runs the prefix part once per distinct query vector
(rows repeat the same token at the same position, so their first-layer
queries are byte-identical), the suffix part per row, and merges the two
by the log-sum-exp rule.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from repro.nn.layers import Dropout, Linear
from repro.nn.module import Module
from repro.nn.serialization import pack, unpack
from repro.tensor import Tensor, functional as F, kernels
from repro.utils.rng import new_rng, spawn_rngs

__all__ = [
    "LayerKVCache",
    "KVCache",
    "SharedPrefixKVCache",
    "MultiHeadAttention",
    "fuse_qkv_linears",
]

_NEG_INF = -1e9


class LayerKVCache:
    """Preallocated key/value buffer for one causal attention layer.

    The buffers have a fixed ``capacity`` along the sequence axis; ``length``
    tracks how many positions are currently filled.  ``append`` writes the
    new keys/values in place and returns views of the filled region, so the
    steady-state decode step allocates nothing cache-related.

    The row axis carries *slack*: ``rows`` live rows may sit in a larger
    allocation, so row admission under continuous batching appends in place
    (amortised reallocation) instead of rebuilding the whole batch per
    admitted row.  ``batch_size`` always reports the live rows; the slack
    rows beyond it hold stale data and must never be read.
    """

    __slots__ = ("keys", "values", "length", "rows")

    def __init__(self, batch_size: int, num_heads: int, capacity: int, head_dim: int) -> None:
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.keys = np.zeros((batch_size, num_heads, capacity, head_dim), dtype=np.float32)
        self.values = np.zeros((batch_size, num_heads, capacity, head_dim), dtype=np.float32)
        self.length = 0
        self.rows = batch_size

    @property
    def capacity(self) -> int:
        return self.keys.shape[2]

    @property
    def batch_size(self) -> int:
        return self.rows

    @property
    def num_heads(self) -> int:
        return self.keys.shape[1]

    @property
    def head_dim(self) -> int:
        return self.keys.shape[3]

    def append(self, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Store ``k``/``v`` of shape (batch, heads, s, head_dim); return full views."""
        start = self.length
        stop = start + k.shape[2]
        if stop > self.capacity:
            raise ValueError(
                f"KV cache overflow: appending {k.shape[2]} positions at length "
                f"{start} exceeds capacity {self.capacity}"
            )
        self.keys[: self.rows, :, start:stop] = k
        self.values[: self.rows, :, start:stop] = v
        self.length = stop
        return self.keys[: self.rows, :, :stop], self.values[: self.rows, :, :stop]

    def read_span(self, row: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Keys/values of one row's columns ``[start, stop)`` as float32 views.

        The cross-layout interop primitive: admission between dense and
        block-paged caches reads the donor row through this method, so
        neither side needs to know the other's storage layout.
        """
        if not 0 <= row < self.rows:
            raise ValueError(f"row {row} outside batch of {self.rows}")
        return self.keys[row, :, start:stop], self.values[row, :, start:stop]

    def truncate(self, length: int) -> None:
        """Roll the cache back to ``length`` filled positions (keeps the buffers)."""
        if not 0 <= length <= self.length:
            raise ValueError(f"cannot truncate cache of length {self.length} to {length}")
        self.length = length

    def grow(self, capacity: int) -> None:
        """Reallocate to a larger column capacity, preserving the filled region.

        Live decode batches start small and grow on demand so that row
        admission/retirement copies scale with the working set, not with the
        model's maximum context.
        """
        if capacity <= self.capacity:
            return
        for name in ("keys", "values"):
            old = getattr(self, name)
            new = np.zeros(old.shape[:2] + (capacity,) + old.shape[3:], dtype=old.dtype)
            new[: self.rows, :, : self.length] = old[: self.rows, :, : self.length]
            setattr(self, name, new)

    def grow_rows(self, rows: int) -> None:
        """Reallocate the row axis to hold at least ``rows`` rows (with slack)."""
        if rows <= self.keys.shape[0]:
            return
        for name in ("keys", "values"):
            old = getattr(self, name)
            new = np.zeros((rows,) + old.shape[1:], dtype=old.dtype)
            new[: self.rows] = old[: self.rows]
            setattr(self, name, new)


class KVCache:
    """Per-layer key/value cache for a whole decoder stack."""

    def __init__(
        self,
        num_layers: int,
        batch_size: int,
        num_heads: int,
        head_dim: int,
        capacity: int,
    ) -> None:
        self.layers = [
            LayerKVCache(batch_size, num_heads, capacity, head_dim) for _ in range(num_layers)
        ]

    @property
    def length(self) -> int:
        """Number of cached positions (all layers advance in lockstep)."""
        return self.layers[0].length if self.layers else 0

    @property
    def capacity(self) -> int:
        return self.layers[0].capacity if self.layers else 0

    @property
    def batch_size(self) -> int:
        return self.layers[0].batch_size if self.layers else 0

    def truncate(self, length: int) -> None:
        """Roll every layer back to ``length`` positions (prefix reuse)."""
        for layer in self.layers:
            layer.truncate(length)

    def grow(self, capacity: int) -> None:
        """Reallocate every layer to a larger column capacity (no-op if smaller)."""
        for layer in self.layers:
            layer.grow(capacity)

    def clone_prefix(self, length: int, capacity: int | None = None) -> "KVCache":
        """Copy of the first ``length`` cached positions; the donor is untouched.

        Used by the prefix-cache pool to serve a *partial* overlap without
        consuming (and truncating) the longer pooled entry.  ``capacity``
        must be able to hold the cloned prefix — a smaller value raises a
        clear ``ValueError`` instead of dying inside numpy broadcasting
        (``None`` sizes the clone exactly to ``length``).
        """
        if not 0 <= length <= self.length:
            raise ValueError(f"cannot clone {length} positions of a length-{self.length} cache")
        if capacity is not None and capacity < length:
            raise ValueError(
                f"clone capacity {capacity} cannot hold the {length}-position prefix"
            )
        heads = self.layers[0].num_heads if self.layers else 0
        head_dim = self.layers[0].head_dim if self.layers else 0
        out = KVCache(
            len(self.layers), self.batch_size, heads, head_dim, max(capacity or length, 1)
        )
        for src, dst in zip(self.layers, out.layers):
            dst.keys[:, :, :length] = src.keys[: src.rows, :, :length]
            dst.values[:, :, :length] = src.values[: src.rows, :, :length]
            dst.length = length
        return out

    # ------------------------------------------------------------------ #
    # live-batch row management (continuous batching)
    # ------------------------------------------------------------------ #
    def admit_row(self, src: "KVCache", src_row: int = 0, src_start: int = 0) -> int:
        """Append one row of ``src`` to this cache, right-aligned at the live end.

        Copies columns ``[src_start, src.length)`` of row ``src_row`` into a
        freshly grown row of this cache so that the copied span *ends* at the
        live length (which grows to the span width if the newcomer is longer
        than the current batch).  Returns the column index of the admitted
        row's first real token; columns before it belong to other rows'
        histories and must stay masked for the new row.

        When the newcomer is longer than the live length the caller must
        first :meth:`realign` the existing rows to the newcomer's width so
        every row keeps a contiguous filled span ending at ``length``.
        """
        if self.layers and src.layers:
            src_layer = src.layers[0]
            own_layer = self.layers[0]
            if (
                src_layer.num_heads != own_layer.num_heads
                or src_layer.head_dim != own_layer.head_dim
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
        for own, other in zip(self.layers, src.layers):
            if own.rows == own.keys.shape[0]:
                # Amortised slack growth: 1.5x keeps the copy cost of a
                # stream of admissions linear instead of quadratic, without
                # doubling the resident KV footprint.
                own.grow_rows(own.rows + max(2, own.rows // 2))
            row = own.rows
            # The slack row may hold a retired row's stale columns.
            own.keys[row] = 0.0
            own.values[row] = 0.0
            k_span, v_span = other.read_span(src_row, src_start, src.length)
            own.keys[row, :, start:new_length] = k_span
            own.values[row, :, start:new_length] = v_span
            own.rows = row + 1
            own.length = new_length
        return start

    def retire_rows(self, keep: np.ndarray) -> None:
        """Drop every row not listed in ``keep`` (order of ``keep`` is preserved).

        ``keep`` is an integer index array into the current batch; duplicate
        indices are rejected — silently duplicating a live row would corrupt
        the row<->request binding of a live decode batch.  Retiring down to
        zero rows resets the length so the next admission starts a fresh
        live batch.
        """
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
        for layer in self.layers:
            layer.keys = layer.keys[keep]
            layer.values = layer.values[keep]
            layer.rows = int(keep.size)
            if keep.size == 0:
                layer.length = 0

    def realign(self, starts: np.ndarray, new_length: int) -> np.ndarray:
        """Move every row's filled span ``[starts[i], length)`` to end at ``new_length``.

        The two uses are *compaction* (``new_length`` = widest row, freeing
        the dead columns left behind by retired longer rows) and *growth*
        (``new_length`` = an incoming row's width, keeping the
        contiguous-span invariant before :meth:`admit_row`).  Returns the new
        per-row start columns.
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
        new_starts = new_length - widths
        length = self.length
        for layer in self.layers:
            for i in range(starts.size):
                if new_starts[i] == starts[i]:
                    continue
                # .copy(): source and destination spans may overlap in-buffer.
                layer.keys[i, :, new_starts[i] : new_length] = layer.keys[
                    i, :, starts[i] : length
                ].copy()
                layer.values[i, :, new_starts[i] : new_length] = layer.values[
                    i, :, starts[i] : length
                ].copy()
            layer.length = new_length
        return new_starts

    def kv_bytes(self) -> int:
        """Resident bytes of KV storage (allocated buffers, slack included).

        The dense counterpart of :meth:`repro.nn.paged.PagedKVCache.kv_bytes`;
        the paged-KV benchmark compares both as the KV-memory high-water
        mark of a serving trace.
        """
        return sum(layer.keys.nbytes + layer.values.nbytes for layer in self.layers)

    # ------------------------------------------------------------------ #
    # checkpoint-to-bytes (fleet migration, pool warm-start)
    # ------------------------------------------------------------------ #
    def serialize(self) -> bytes:
        """Snapshot the filled region to bytes (see :mod:`repro.nn.serialization`).

        Only the live rows' filled columns ship — slack rows and unused
        capacity are a property of the donor's allocation, not of the KV
        state, so a restored cache re-exports to the identical bytes
        whatever capacity it was given.
        """
        heads = self.layers[0].num_heads if self.layers else 0
        head_dim = self.layers[0].head_dim if self.layers else 0
        length = self.length
        arrays: list[np.ndarray] = []
        for layer in self.layers:
            arrays.append(np.ascontiguousarray(layer.keys[: layer.rows, :, :length]))
            arrays.append(np.ascontiguousarray(layer.values[: layer.rows, :, :length]))
        header = {
            "kind": "kv-dense",
            "layers": len(self.layers),
            "batch": self.batch_size,
            "heads": heads,
            "head_dim": head_dim,
            "length": length,
        }
        return pack(header, arrays)

    @classmethod
    def deserialize(cls, data: bytes, capacity: int | None = None) -> "KVCache":
        """Rebuild a cache from :meth:`serialize` bytes.

        ``capacity`` sizes the restored buffers (defaults to the snapshot
        length); it must hold the snapshot.  Malformed input raises a clear
        ``ValueError``.
        """
        header, arrays = unpack(data)
        if header.get("kind") != "kv-dense":
            raise ValueError(
                f"corrupt KV checkpoint: expected kind 'kv-dense', got "
                f"{header.get('kind')!r}"
            )
        try:
            num_layers = int(header["layers"])
            batch = int(header["batch"])
            heads = int(header["heads"])
            head_dim = int(header["head_dim"])
            length = int(header["length"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError("corrupt KV checkpoint: malformed dense header") from exc
        if len(arrays) != 2 * num_layers:
            raise ValueError(
                f"corrupt KV checkpoint: header declares {num_layers} layers "
                f"but payload holds {len(arrays)} arrays"
            )
        expected = (batch, heads, length, head_dim)
        for arr in arrays:
            if arr.shape != expected or arr.dtype != np.float32:
                raise ValueError(
                    f"corrupt KV checkpoint: array shape {arr.shape} "
                    f"({arr.dtype}) does not match header geometry {expected}"
                )
        if capacity is not None and capacity < length:
            raise ValueError(
                f"restore capacity {capacity} cannot hold the {length}-position snapshot"
            )
        out = cls(num_layers, batch, heads, head_dim, max(capacity or length, 1))
        for i, layer in enumerate(out.layers):
            layer.keys[:, :, :length] = arrays[2 * i]
            layer.values[:, :, :length] = arrays[2 * i + 1]
            layer.length = length
        return out


class SharedPrefixLayerCache(LayerKVCache):
    """One layer of a :class:`SharedPrefixKVCache`: a :class:`LayerKVCache`
    of per-row *suffix* columns (``length`` counts those alone) beside the
    shared prefix ``prefix_k``/``prefix_v``, one row of shape
    ``(heads, P, head_dim)``."""

    __slots__ = ("prefix_k", "prefix_v")

    def __init__(
        self, prefix_k: np.ndarray, prefix_v: np.ndarray, batch_size: int, capacity: int
    ) -> None:
        heads, _, head_dim = prefix_k.shape
        super().__init__(batch_size, heads, capacity, head_dim)
        self.prefix_k = prefix_k
        self.prefix_v = prefix_v


class SharedPrefixKVCache:
    """Inference-only scoring cache: a prefix every row shares, held once.

    Batched scoring of many continuations of one prompt prefix (the few-shot
    block of an ICL batch, a prompt's candidate continuations) attends every
    row to the same prefix keys/values.  This cache holds them as a single
    row and gives each batch row only its own suffix buffer, so
    :class:`MultiHeadAttention` scores the rows' distinct queries against
    the prefix in one matmul instead of copying it into every row
    (Hydragen, Juravsky et al. 2024; ChunkAttention, Ye et al. 2024).

    ``prefix`` is the per-layer ``(keys, values)`` list that
    :meth:`read_prefix` returns; several caches (one per chunk of rows) may
    share one read.  Rows carry no padding mask: right-pad them, since
    under causal attention pad columns never reach an earlier position.
    """

    def __init__(
        self,
        prefix: Sequence[tuple[np.ndarray, np.ndarray]],
        batch_size: int,
        capacity: int,
    ) -> None:
        self.layers = [SharedPrefixLayerCache(k, v, batch_size, capacity) for k, v in prefix]

    @staticmethod
    def read_prefix(cache) -> list[tuple[np.ndarray, np.ndarray]]:
        """Row 0 of a batch-1 dense or paged ``cache``, one read per layer.

        Sharing is a persistence boundary: a paged cache is flushed first,
        so an int8 prefix is quantized exactly as a pooled copy of it would
        be, and dequantized once here rather than once per row.  A dense
        cache hands back zero-copy views.
        """
        if hasattr(cache, "release_workspace"):
            cache.release_workspace()
        return [layer.read_span(0, 0, cache.length) for layer in cache.layers]

    @property
    def length(self) -> int:
        """Attended positions: the prefix plus the filled suffix columns."""
        return self.layers[0].prefix_k.shape[1] + self.layers[0].length

    @property
    def batch_size(self) -> int:
        return self.layers[0].batch_size

    def kv_bytes(self) -> int:
        """Bytes of the shared prefix (counted once) plus the suffix buffers."""
        return sum(
            layer.prefix_k.nbytes + layer.prefix_v.nbytes + layer.keys.nbytes + layer.values.nbytes
            for layer in self.layers
        )


@functools.lru_cache(maxsize=256)
def _causal_mask(query_len: int, key_len: int) -> np.ndarray:
    """Read-only (1, 1, query_len, key_len) causal mask, shared across calls.

    Query position i sits at global position (key_len - query_len + i) and
    may attend to keys 0 .. key_len - query_len + i.
    """
    mask = np.tril(np.ones((query_len, key_len), dtype=bool), k=key_len - query_len)
    mask.flags.writeable = False
    return mask[None, None, :, :]


def _column_causal_mask(columns: np.ndarray, query_len: int, key_len: int) -> np.ndarray:
    """(batch, k, key_len) causal mask of the selected query ``columns``
    (batch, k) out of ``query_len`` new positions: column c sits at key
    position key_len - query_len + c."""
    return np.arange(key_len) <= (key_len - query_len + columns)[..., None]


@functools.lru_cache(maxsize=8)
def _hash_multipliers(width: int) -> np.ndarray:
    """Fixed odd uint64 multipliers: the weights of :func:`_distinct_rows`'s
    row hash (odd, so no word's low bits are dropped)."""
    rng = np.random.default_rng(0x5EED)
    multipliers = rng.integers(0, 2**63, size=width, dtype=np.uint64) | np.uint64(1)
    multipliers.flags.writeable = False
    return multipliers


def _distinct_rows(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)`` of the distinct rows of a C-contiguous 2-D array,
    so that ``flat[first][inverse]`` equals ``flat`` bit for bit.

    Rows are keyed by a uint64 hash of their bytes (a wrapping weighted sum
    of their 64-bit words), and the grouping is then checked exactly; in
    the rare case two distinct rows share a hash, the rows are grouped by
    their bytes instead, which is exact but about twice as slow.
    """
    words = flat.view(np.uint64 if flat.shape[1] % 2 == 0 else np.uint32)
    _, first, inverse = np.unique(
        words @ _hash_multipliers(words.shape[1]), return_index=True, return_inverse=True
    )
    if not (words[first][inverse] == words).all():
        _, first, inverse = np.unique(
            flat.view(np.dtype((np.void, flat.strides[0]))).ravel(),
            return_index=True,
            return_inverse=True,
        )
    return first, inverse


def fuse_qkv_linears(q: Linear, k: Linear, v: Linear) -> Linear:
    """Stack three (H, H) projections into one fused (3H, H) Linear.

    Row blocks ``[0:H]``, ``[H:2H]`` and ``[2H:3H]`` of the fused weight hold
    the query, key and value projections respectively (biases likewise), so
    ``x @ W_qkv^T`` computes all three projections in a single matmul.
    """
    if not (q.in_features == k.in_features == v.in_features):
        raise ValueError("q/k/v projections must share in_features")
    biases = [p.bias for p in (q, k, v)]
    if any(b is None for b in biases) and not all(b is None for b in biases):
        raise ValueError("q/k/v projections must either all have biases or none")
    fused = Linear(
        q.in_features,
        q.out_features + k.out_features + v.out_features,
        bias=biases[0] is not None,
        init=False,
    )
    fused.weight.data = np.concatenate([q.weight.data, k.weight.data, v.weight.data], axis=0)
    if biases[0] is not None:
        fused.bias.data = np.concatenate([b.data for b in biases], axis=0)
    return fused


class MultiHeadAttention(Module):
    """Multi-head self-attention with optional causal masking.

    The query/key/value projections are *fused* into a single ``qkv_proj``
    matmul of shape ``(3H, H)``.  The fused weight rows are initialised from
    the same three rng streams the historical separate ``q_proj``/``k_proj``/
    ``v_proj`` layers drew from, so models seeded before the fusion produce
    bit-identical weights.
    """

    def __init__(
        self,
        hidden_size: int,
        num_heads: int,
        dropout: float = 0.1,
        causal: bool = False,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        if hidden_size % num_heads != 0:
            raise ValueError(
                f"hidden_size ({hidden_size}) must be divisible by num_heads ({num_heads})"
            )
        rng = new_rng(rng)
        rngs = spawn_rngs(rng, 5)
        self.hidden_size = hidden_size
        self.num_heads = num_heads
        self.head_dim = hidden_size // num_heads
        self.causal = causal
        self.qkv_proj = fuse_qkv_linears(
            Linear(hidden_size, hidden_size, rng=rngs[0]),
            Linear(hidden_size, hidden_size, rng=rngs[1]),
            Linear(hidden_size, hidden_size, rng=rngs[2]),
        )
        self.out_proj = Linear(hidden_size, hidden_size, rng=rngs[3])
        self.attn_dropout = Dropout(dropout, rng=rngs[4])

    def _split_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        # (B, S, H) -> (B, heads, S, head_dim)
        return x.reshape(batch, seq, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(
        self,
        x: Tensor | np.ndarray,
        attention_mask: np.ndarray | None = None,
        cache: LayerKVCache | None = None,
        query_columns: np.ndarray | None = None,
    ) -> Tensor | np.ndarray:
        """Apply self-attention.

        Parameters
        ----------
        x:
            Hidden states of shape ``(batch, seq, hidden)``: a
            :class:`Tensor` without a cache, a plain array with one.  With
            a cache, ``seq`` covers only the *new* positions (query length
            1..s).
        attention_mask:
            Optional boolean array where ``True`` marks real tokens and
            ``False`` padding.  Its shape is ``(batch, key_len)`` where
            ``key_len`` is the total attended length — equal to ``seq``
            without a cache, ``cache.length + seq`` with one.
        cache:
            Optional :class:`LayerKVCache` (or block-paged
            :class:`~repro.nn.paged.PagedLayerKVCache`, or a
            :class:`SharedPrefixKVCache` layer).  Cached attention is
            eval-mode inference on plain arrays: ``x`` and the result are
            ``np.ndarray``s and no autograd graph or dropout is involved.
            The new keys/values are appended to the cache and attention runs
            against the full cached history with the causal mask offset so
            position ``i`` of the new block attends to every cached position
            plus new positions ``<= i``.  Dense caches hand back zero-copy
            views of their buffers; paged caches hand back freshly
            *gathered* float32 arrays assembled from their blocks (int8
            block stores dequantize during the gather), so attention itself
            is storage-agnostic.  Only valid for causal attention.
        query_columns:
            Optional ``(batch, k)`` indices into the ``seq`` new positions
            (cached attention only): every position's keys/values are still
            appended, but only these columns are attended from, and the
            output is ``(batch, k, hidden)``.
        """
        if cache is not None:
            return self._cached_attention(x, attention_mask, cache, query_columns)
        batch, seq, _ = x.shape
        h = self.hidden_size
        qkv = self.qkv_proj(x)  # (B, S, 3H): one fused matmul for q, k and v
        q = self._split_heads(qkv[:, :, :h], batch, seq)
        k = self._split_heads(qkv[:, :, h : 2 * h], batch, seq)
        v = self._split_heads(qkv[:, :, 2 * h :], batch, seq)
        mask = self._build_mask(attention_mask, batch, seq, seq)
        # (B, heads, S, S): scale, mask and softmax fused over one buffer.
        attn = F.attention_probs(q, k, mask, 1.0 / np.sqrt(self.head_dim), _NEG_INF)
        attn = self.attn_dropout(attn)
        context = attn.matmul(v)  # (B, heads, S, head_dim)
        context = context.transpose(0, 2, 1, 3).reshape(batch, seq, self.hidden_size)
        return self.out_proj(context)

    def _cached_attention(
        self,
        x: np.ndarray,
        attention_mask: np.ndarray | None,
        cache,
        query_columns: np.ndarray | None,
    ) -> np.ndarray:
        """:meth:`forward` against a KV cache, on plain arrays (eval mode)."""
        if not self.causal:
            raise ValueError("KV caching requires causal attention")
        batch, seq, _ = x.shape
        # (B, S, 3, heads, head_dim): one fused matmul for q, k and v.
        qkv = self.qkv_proj.infer(x).reshape(batch, seq, 3, self.num_heads, self.head_dim)
        q = qkv[:, :, 0]  # (B, S, heads, head_dim)
        k = qkv[:, :, 1].transpose(0, 2, 1, 3)  # (B, heads, S, head_dim)
        v = qkv[:, :, 2].transpose(0, 2, 1, 3)
        if query_columns is not None:
            q = q[np.arange(batch)[:, None], query_columns]  # (B, k, heads, head_dim)
        if isinstance(cache, SharedPrefixLayerCache):
            return self._shared_prefix_attention(
                q, seq, cache, k, v, attention_mask, query_columns
            )
        # A dense cache hands back zero-copy array views; a paged cache
        # hands back a PagedAttentionView whose gather assembles the
        # attended window straight from the block store (plus live tails)
        # as a transient activation.
        appended = cache.append(k, v)
        if isinstance(appended, tuple):
            k_all, v_all = appended
        else:
            k_all, v_all = appended.gather_kv()
        rows = q.shape[1]
        mask = self._build_mask(attention_mask, batch, seq, k_all.shape[2], query_columns)
        attn = kernels.attention_probs(
            q.transpose(0, 2, 1, 3), k_all, mask, 1.0 / np.sqrt(self.head_dim), _NEG_INF
        )
        context = np.matmul(attn, v_all)  # (B, heads, rows, head_dim)
        context = context.transpose(0, 2, 1, 3).reshape(batch, rows, self.hidden_size)
        return self.out_proj.infer(context)

    def _shared_prefix_attention(
        self,
        q: np.ndarray,
        seq: int,
        cache: SharedPrefixLayerCache,
        k_new: np.ndarray,
        v_new: np.ndarray,
        attention_mask: np.ndarray | None,
        query_columns: np.ndarray | None,
    ) -> np.ndarray:
        """Attention of every row against one shared prefix plus its own suffix.

        ``q`` is (B, rows, heads, head_dim): the ``seq`` new positions, or
        the selected ``query_columns`` of them.  The prefix part runs once
        per *distinct* query vector: a first-layer query depends only on its
        token and position, which rows of a scoring batch repeat.  So the
        prefix scores ``(heads, U, P)``, their row max, exp-sum and
        ``exp @ V_prefix`` are computed for the U distinct queries only (see
        :func:`_distinct_rows`).  The suffix part is per row,
        ``(heads, B, S, T)`` under the causal (or column) mask.  The two
        merge by the log-sum-exp rule (Hydragen, Juravsky et al. 2024):
        both are rescaled to the row's joint max, and the context is
        divided once by the joint exp-sum.
        """
        if attention_mask is not None:
            raise ValueError("shared-prefix attention takes no padding mask: right-pad rows")
        suffix_k, suffix_v = cache.append(k_new, v_new)  # (B, heads, T, head_dim)
        batch, rows, heads, head_dim = q.shape
        suffix_len = suffix_k.shape[2]
        # Scaled queries, one contiguous (heads · head_dim) vector per position.
        scaled = np.empty((batch, rows, heads, head_dim), dtype=np.float32)
        np.multiply(q, np.float32(1.0 / np.sqrt(head_dim)), out=scaled)
        flat = scaled.reshape(batch * rows, heads * head_dim)
        first, inverse = _distinct_rows(flat)
        distinct = flat[first].reshape(len(first), heads, head_dim).transpose(1, 0, 2)
        prefix = np.matmul(distinct, np.swapaxes(cache.prefix_k, -1, -2))  # (heads, U, P)
        # An empty prefix (P = 0) has max -inf, so its rescale below is 0.
        prefix_max = prefix.max(axis=-1, keepdims=True, initial=-np.inf)
        prefix -= prefix_max
        np.exp(prefix, out=prefix)
        prefix_sum = prefix.sum(axis=-1)

        suffix = np.matmul(scaled.transpose(2, 0, 1, 3), suffix_k.transpose(1, 0, 3, 2))
        if query_columns is not None:
            causal = _column_causal_mask(query_columns, seq, suffix_len)
        elif seq > 1:
            causal = _causal_mask(seq, suffix_len)[0]
        else:
            causal = None
        if causal is not None:
            np.copyto(suffix, np.float32(_NEG_INF), where=~causal)
        # Per row: the joint max m of both parts, the prefix part's rescale
        # exp(m_prefix - m), the suffix exps and the joint exp-sum.
        row_prefix_max = prefix_max[:, inverse, 0].reshape(heads, batch, rows)
        row_max = np.maximum(suffix.max(axis=-1), row_prefix_max)
        suffix -= row_max[..., None]
        np.exp(suffix, out=suffix)
        rescale = np.exp(row_prefix_max - row_max)
        denominator = suffix.sum(axis=-1)
        denominator += rescale * prefix_sum[:, inverse].reshape(heads, batch, rows)

        context = np.matmul(prefix, cache.prefix_v)[:, inverse]  # (heads, B·S, head_dim)
        context = context.reshape(heads, batch, rows, head_dim)
        context *= rescale[..., None]
        context += np.matmul(suffix, suffix_v.transpose(1, 0, 2, 3))
        context /= denominator[..., None]
        context = context.transpose(1, 2, 0, 3).reshape(batch, rows, self.hidden_size)
        return self.out_proj.infer(context)

    def _build_mask(
        self,
        attention_mask: np.ndarray | None,
        batch: int,
        query_len: int,
        key_len: int,
        query_columns: np.ndarray | None = None,
    ) -> np.ndarray | None:
        """Combine padding and causal masks into a bool array broadcastable to
        (B, 1, query_len, key_len) — or (B, 1, k, key_len) for selected
        ``query_columns`` — or None when every key is attended."""
        mask = None
        if attention_mask is not None:
            pad = np.asarray(attention_mask, dtype=bool)
            if pad.shape != (batch, key_len):
                raise ValueError(
                    f"attention_mask must have shape {(batch, key_len)}, got {pad.shape}"
                )
            mask = pad[:, None, None, :]  # broadcast over heads and query positions
        if self.causal and query_columns is not None:
            causal = _column_causal_mask(query_columns, query_len, key_len)[:, None]
            mask = causal if mask is None else (mask & causal)
        elif self.causal and query_len > 1:
            # A one-token query sits at the last position: its causal row is all True.
            causal = _causal_mask(query_len, key_len)
            mask = causal if mask is None else (mask & causal)
        return mask
