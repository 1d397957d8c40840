"""Decoder-only causal language models (GPT-2 / Mistral / LLama stand-ins).

These models power the in-context-learning experiments: a prompt containing
the task description and a few labeled examples is encoded, the model scores
(or generates) the category continuation, and — with LoRA + quantization —
can also be fine-tuned cheaply on the workflow data.

Inference runs *incrementally*: :meth:`DecoderLM.forward_incremental` embeds
only the new tokens and attends against a :class:`~repro.nn.KVCache`, so
autoregressive generation costs O(n) forwards of length 1 instead of O(n)
forwards of growing length, and candidate scoring reuses one shared-prefix
forward across all candidates (and, via :class:`PrefixCachedScorer`, across
successive overlapping prompts).  Cached and uncached paths produce the same
logits to float32 tolerance.

Cached inference is eval-only and runs on plain arrays: ``forward_incremental``
raises in train mode (nothing trains through a KV cache), calls each layer's
array ``infer`` instead of its autograd ``forward``, and wraps only the
returned logits in a :class:`~repro.tensor.Tensor`.  Training and the
uncached ``forward`` keep the Tensor path; both share the forward math of
:mod:`repro.tensor.kernels`.

Batched decoding is built as a *stepping core* rather than a monolithic
loop: a :class:`DecodeState` carries one request's progress (prompt, emitted
tokens, sampling parameters, stop/EOS/context status) and a
:class:`DecodeBatch` holds the live rows — a shared ragged KV cache plus
padding mask — and advances every row one token per :meth:`DecodeBatch.step`
(equivalently :meth:`DecoderLM.decode_step`).  Rows are admitted (prefilled)
and retired *between* steps, which is what iteration-level continuous
batching (:class:`~repro.serving.ContinuousBatchingEngine`) needs:
:meth:`DecoderLM.generate_batch` is the fixed-membership convenience wrapper
over the same core, so there is exactly one batched decode loop in the
codebase.  Greedy decoding through the core emits the same tokens as the
sequential cached path regardless of batch membership or admission order.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.analysis.sanitize import block_allocator_class, maybe_watch_lock
from repro.models.config import ModelConfig
from repro.nn import (
    Dropout,
    Embedding,
    KVCache,
    Module,
    SharedPrefixKVCache,
    TransformerDecoder,
)
from repro.nn.paged import (
    DEFAULT_BLOCK_SIZE,
    BlockAllocator,
    PagedKVCache,
    validate_kv_config,
)
from repro.nn.transformer import SinusoidalPositionalEncoding
from repro.tensor import Tensor, no_grad, functional as F, kernels
from repro.utils.rng import new_rng, spawn_rngs

__all__ = [
    "DecoderLM",
    "DecodeState",
    "DecodeBatch",
    "PrefixCachedScorer",
    "common_prefix_length",
    "left_pad_batch",
]


#: Guards lazy creation of per-model block allocators (submission threads
#: and stepping threads may race to build the first paged cache).
_PAGED_ALLOCATOR_LOCK = maybe_watch_lock("allocator-registry", threading.Lock())

#: A :class:`DecodeBatch` compacts once its live end overhangs the widest
#: row by this many columns.  Without it the live end creeps monotonically
#: under continuous admission/retirement and every step attends over the
#: dead columns departed rows left behind.  (A paged batch moves no data:
#: its rows' start columns are derived, so compaction is bookkeeping alone.)
_COMPACT_SLACK = 16


def common_prefix_length(a: np.ndarray, b: np.ndarray) -> int:
    """Length of the longest common prefix of two 1-D token arrays."""
    n = min(len(a), len(b))
    if n == 0:
        return 0
    diff = np.nonzero(a[:n] != b[:n])[0]
    return int(diff[0]) if len(diff) else n


def left_pad_batch(
    prompts: Sequence[np.ndarray], pad_id: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Left-pad variable-length prompts into one batch.

    Returns ``(ids, mask, positions, lengths)``: token ids of shape
    ``(batch, max_len)`` with ``pad_id`` on the left, a boolean mask marking
    real tokens, per-token absolute positions (each row position-encoded
    from its own first real token; padded columns hold 0 and are masked),
    and the original prompt lengths.  This is the single source of truth for
    the batched-decoding layout — benchmarks and tests validating the padded
    prefill must build batches through it.
    """
    arrays = [np.asarray(p, dtype=np.int64).ravel() for p in prompts]
    lengths = np.array([len(a) for a in arrays], dtype=np.int64)
    batch = len(arrays)
    max_len = int(lengths.max()) if batch else 0
    ids = np.full((batch, max_len), pad_id, dtype=np.int64)
    mask = np.zeros((batch, max_len), dtype=bool)
    positions = np.zeros((batch, max_len), dtype=np.int64)
    for i, a in enumerate(arrays):
        pad = max_len - len(a)
        ids[i, pad:] = a
        mask[i, pad:] = True
        positions[i, pad:] = np.arange(len(a))
    return ids, mask, positions, lengths


@dataclass
class DecodeState:
    """Decode progress of one request, independent of any batch shape.

    Holds the request itself (prompt, token budget, sampling parameters) and
    the mutable decoding state: emitted ids, EOS/stop/context status, and —
    while the request sits in a live :class:`DecodeBatch` — the row index,
    the row's first real column in the shared cache (``col_start``), and the
    pending next-token distribution sampled by the following step.
    """

    prompt_ids: np.ndarray
    max_new_tokens: int = 16
    temperature: float = 0.0
    stop_ids: frozenset = frozenset()
    finished: bool = False
    #: ``"stop"`` (stop token emitted), ``"length"`` (token budget reached)
    #: or ``"context"`` (model context window reached).
    finish_reason: str | None = None
    gen_len: int = 0
    row: int = -1
    col_start: int = -1
    next_log_probs: np.ndarray | None = field(default=None, repr=False)
    generated: np.ndarray = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.prompt_ids = np.asarray(self.prompt_ids, dtype=np.int64).ravel()
        if len(self.prompt_ids) == 0:
            raise ValueError("decode requests need a non-empty prompt")
        self.max_new_tokens = int(self.max_new_tokens)
        self.stop_ids = frozenset(int(t) for t in (self.stop_ids or ()))
        if self.generated is None:
            self.generated = np.zeros(max(self.max_new_tokens, 1), dtype=np.int64)

    @property
    def position(self) -> int:
        """Absolute position the next decoded token would occupy."""
        return len(self.prompt_ids) + self.gen_len

    @property
    def admitted(self) -> bool:
        """Whether the request currently occupies a live batch row."""
        return self.row >= 0

    def output(self) -> np.ndarray:
        """``prompt + generated`` tokens decoded so far (a fresh array)."""
        return np.concatenate([self.prompt_ids, self.generated[: self.gen_len]])


class DecodeBatch:
    """Live ragged decode batch: the stepping core of batched generation.

    The batch owns one shared :class:`~repro.nn.KVCache` whose rows are the
    currently decoding requests, plus the padding mask that keeps each row
    attending only to its own history.  Rows are stored right-aligned
    against the live column end (span ``[col_start, cache.length)``), so
    membership may change *between* steps:

    * :meth:`admit` / :meth:`admit_many` prefill newcomers (optionally
      reusing a checked-out prefix cache) and splice them into the live
      batch without touching existing rows;
    * :meth:`admit_chunked` + :meth:`prefill_step` instead spread a
      newcomer's prefill over one or more steps in bounded token chunks
      (the engine's only admission path: its per-step token budget, or no
      cap, drives the chunks), so an arriving long prompt need not stall
      the in-flight decode rows for its whole length;
    * :meth:`step` samples one token per row, retires rows that finish
      (stop token, token budget, context limit) immediately, and forwards
      the survivors' tokens to produce the next distributions;
    * :meth:`compact` re-aligns the surviving rows after retirements freed
      columns, so decoding continues past the buffer end that a departed
      long row left behind.

    Column placement carries no semantics — attention correctness comes from
    the mask and explicit per-token positions — so greedy outputs are
    independent of batch membership and admission order.
    """

    def __init__(
        self,
        model: "DecoderLM",
        capacity: int | None = None,
        *,
        kv_layout: str = "dense",
        kv_dtype: str = "fp32",
    ) -> None:
        capacity = int(capacity or model.config.max_position)
        if not 0 < capacity <= model.config.max_position:
            raise ValueError(
                f"capacity must lie in (0, {model.config.max_position}], got {capacity}"
            )
        validate_kv_config(kv_layout, kv_dtype)
        self.model = model
        self.capacity = capacity
        self.kv_layout = kv_layout
        self.kv_dtype = kv_dtype
        # The shared dense cache starts small and doubles on demand
        # (hard-capped at ``capacity``): admission/retirement copy whole row
        # buffers, so their cost must track the live working set, not the
        # model's maximum context.  A paged cache has nothing to
        # preallocate — blocks are claimed as rows fill them.
        self.cache = self._make_cache(
            0, min(capacity, 64) if kv_layout == "dense" else capacity
        )
        self.states: list[DecodeState] = []
        #: Requests admitted via :meth:`admit_chunked`, still consuming their
        #: prompt chunk-by-chunk (FIFO admission order).  They occupy a
        #: scheduling slot (counted by :attr:`num_rows`) but not yet a live
        #: cache row.
        self.prefilling: list[DecodeState] = []
        #: ``id(state) -> (staging cache, owned)`` for the prefilling
        #: requests.  ``owned`` staging caches are private (released when the
        #: request leaves the prefilling state); borrowed ones (pool
        #: checkouts) are handed back via :meth:`release_prefill`.
        self._prefill: dict[int, tuple] = {}
        self._mask = np.zeros((0, capacity), dtype=bool)

    def _make_cache(self, batch_size: int, capacity: int):
        """A fresh cache in this batch's configured KV layout/dtype."""
        if self.kv_layout == "dense":
            return self.model.make_cache(batch_size, capacity)
        return self.model.make_paged_cache(batch_size, capacity, kv_dtype=self.kv_dtype)

    def _ensure_columns(self, needed: int) -> None:
        """Grow the allocated cache so ``needed`` columns fit (within capacity)."""
        if needed > self.capacity:
            raise ValueError(
                f"{needed} columns exceed the batch capacity {self.capacity}"
            )
        if needed > self.cache.capacity:
            self.cache.grow(min(self.capacity, max(needed, 2 * self.cache.capacity)))

    @property
    def num_rows(self) -> int:
        """Live scheduling slots: decoding rows plus in-progress prefills."""
        return len(self.states) + len(self.prefilling)

    @property
    def num_decoding(self) -> int:
        """Rows actively decoding (holding a cache row and a pending token)."""
        return len(self.states)

    @property
    def num_prefilling(self) -> int:
        """Requests still consuming their prompt chunk-by-chunk."""
        return len(self.prefilling)

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    def _check_admissible(self, state: DecodeState) -> None:
        """Reject a state that already holds a slot or cannot fit."""
        if state.admitted:
            raise ValueError("state already occupies a live batch row")
        if id(state) in self._prefill:
            raise ValueError("state is already prefilling")
        if len(state.prompt_ids) > self.capacity:
            raise ValueError(
                f"prompt of {len(state.prompt_ids)} tokens exceeds the batch "
                f"capacity {self.capacity}"
            )

    def _finish_unstartable(self, state: DecodeState) -> bool:
        """Finish requests that cannot emit a single token (no row needed)."""
        if state.max_new_tokens <= 0:
            state.finished, state.finish_reason = True, "length"
        elif state.position >= self.model.config.max_position:
            state.finished, state.finish_reason = True, "context"
        return state.finished

    def _admit_prefilled_row(
        self,
        state: DecodeState,
        src: KVCache,
        src_row: int,
        src_start: int,
        next_log_probs: np.ndarray,
    ) -> None:
        width = src.length - src_start
        self._ensure_columns(max(width, self.cache.length))
        if width > self.cache.length and self.states:
            # Keep the contiguous-span invariant: grow the live end to the
            # newcomer's width before splicing it in right-aligned.
            self._realign(width)
        start = self.cache.admit_row(src, src_row, src_start)
        state.row = len(self.states)
        state.col_start = start
        state.next_log_probs = next_log_probs
        self.states.append(state)
        row_mask = np.zeros((1, self.capacity), dtype=bool)
        row_mask[0, start : self.cache.length] = True
        self._mask = np.concatenate([self._mask, row_mask], axis=0)

    def admit(self, state: DecodeState, prefill_cache: KVCache | None = None) -> None:
        """Prefill one request and splice it into the live batch.

        ``prefill_cache`` (optional, batch 1) may already hold keys/values
        for a prefix of the prompt — e.g. a
        :class:`~repro.serving.PrefixCachePool` checkout — and only the
        remainder is forwarded.  On return it holds the full prompt, so the
        caller can check it back into the pool: the live batch keeps its own
        copy of the row.  Requests that cannot emit a token (empty budget,
        prompt at the context limit) finish immediately without a row.

        This is a chunked admission whose one chunk is the whole prompt
        remainder: one forward, then the staging cache is unregistered (a
        private one released, a borrowed one left to the caller).
        """
        if self.admit_chunked(state, prefill_cache):
            self.prefill_step(state, len(state.prompt_ids))
            self.release_prefill(state)

    def admit_many(self, states: Sequence[DecodeState], pad_id: int = 0) -> None:
        """Prefill several requests as one left-padded batch, then admit each.

        This is the batch-formation path :meth:`DecoderLM.generate_batch`
        uses: one padded forward prefills every startable newcomer, after
        which each row is spliced into the live batch exactly like a single
        admission.
        """
        for state in states:
            self._check_admissible(state)
        todo = [st for st in states if not self._finish_unstartable(st)]
        if not todo:
            return
        ids, prompt_mask, positions, lengths = left_pad_batch(
            [st.prompt_ids for st in todo], pad_id=pad_id
        )
        max_len = int(lengths.max())
        staging = self._make_cache(len(todo), max_len)
        logits = self.model.forward_incremental(
            ids,
            staging,
            attention_mask=prompt_mask,
            positions=positions,
            logit_columns=[-1],
        )
        log_probs = F.log_softmax(logits[:, -1, :], axis=-1).data
        for i, st in enumerate(todo):
            self._admit_prefilled_row(
                st, staging, i, max_len - int(lengths[i]), log_probs[i]
            )
        if hasattr(staging, "release"):
            staging.release()

    # ------------------------------------------------------------------ #
    # chunked prefill
    # ------------------------------------------------------------------ #
    def admit_chunked(
        self, state: DecodeState, prefill_cache: KVCache | None = None
    ) -> bool:
        """Register a request for chunk-by-chunk prefilling.

        The request immediately occupies a scheduling slot (it counts
        toward :attr:`num_rows`) but holds no cache row yet; successive
        :meth:`prefill_step` calls consume its prompt in bounded chunks and
        splice it into the live batch when the prompt is exhausted.  As
        with :meth:`admit`, ``prefill_cache`` (batch 1) may already cover a
        prefix of the prompt — e.g. a pool checkout — and only the
        remainder is chunk-forwarded; at least the last prompt token is
        always re-forwarded so its logits seed the first decode step.

        Returns ``False`` when the request cannot emit a single token and
        finished immediately (no slot taken), ``True`` otherwise.
        """
        self._check_admissible(state)
        if self._finish_unstartable(state):
            return False
        prompt = state.prompt_ids
        owned = prefill_cache is None
        if prefill_cache is None:
            prefill_cache = self._make_cache(1, len(prompt))
        prefill_cache.truncate(min(prefill_cache.length, len(prompt) - 1))
        self._prefill[id(state)] = (prefill_cache, owned)
        self.prefilling.append(state)
        return True

    def prefill_step(self, state: DecodeState, max_tokens: int) -> int:
        """Advance one prefilling request by at most ``max_tokens`` prompt
        tokens; returns the number consumed.

        When the chunk reaches the end of the prompt the request flips to
        decoding: its last position's logits become the pending next-token
        distribution and the staged keys/values are spliced into the live
        batch (block sharing for an aligned paged staging cache).  The
        staging cache stays registered until :meth:`release_prefill` so the
        caller can still check a borrowed cache back into its pool.
        Chunk boundaries never change the computed values — cache-backed
        incremental forwards are exact — so any split of the same prompt
        yields bit-identical admission state.
        """
        entry = self._prefill.get(id(state))
        if entry is None:
            raise ValueError("state is not prefilling in this batch")
        cache = entry[0]
        prompt = state.prompt_ids
        take = min(int(max_tokens), len(prompt) - cache.length)
        if take <= 0:
            return 0
        start = cache.length
        logits = self.model.forward_incremental(
            prompt[None, start : start + take], cache, logit_columns=[-1]
        )
        if cache.length == len(prompt):
            log_probs = F.log_softmax(logits[:, -1, :], axis=-1).data[0]
            self._drop_prefilling(state)
            self._admit_prefilled_row(state, cache, 0, 0, log_probs)
        return take

    def _drop_prefilling(self, state: DecodeState) -> None:
        # Identity-based removal: DecodeState's dataclass __eq__ compares
        # array fields, so list.remove / ``in`` would raise on it.
        for i, candidate in enumerate(self.prefilling):
            if candidate is state:
                del self.prefilling[i]
                return

    def release_prefill(self, state: DecodeState):
        """Unregister a request's staging cache (idempotent).

        Called after the request flipped to decoding — or to abort a
        prefill mid-way (cancellation/timeout), which also frees its
        scheduling slot.  An owned staging cache is released (its blocks
        return to the allocator) and ``None`` is returned; a borrowed one
        (pool checkout) is returned to the caller, holding the prompt
        prefix prefilled so far, ready to be checked back in.
        """
        entry = self._prefill.pop(id(state), None)
        if entry is None:
            return None
        cache, owned = entry
        self._drop_prefilling(state)
        if owned:
            if hasattr(cache, "release"):
                cache.release()
            return None
        return cache

    # ------------------------------------------------------------------ #
    # stepping
    # ------------------------------------------------------------------ #
    def step(self, rng: np.random.Generator | None = None) -> list[DecodeState]:
        """One decode iteration over the live batch.

        Samples every row's next token from its pending distribution
        (greedy rows take the argmax and draw no randomness; sampling rows
        share one vectorised draw from ``rng``), retires rows that finish,
        compacts if the departed rows' columns are needed, and runs one
        cache-backed forward for the survivors.  Returns the states retired
        by this step.
        """
        if not self.states:
            return []
        log_probs = np.stack([st.next_log_probs for st in self.states])
        temperatures = np.array([st.temperature for st in self.states], dtype=np.float64)
        tokens = self.model._sample_rows(log_probs, temperatures, rng)
        max_position = self.model.config.max_position
        for st, token in zip(self.states, tokens):
            token = int(token)
            st.next_log_probs = None
            st.generated[st.gen_len] = token
            st.gen_len += 1
            if token in st.stop_ids:
                st.finished, st.finish_reason = True, "stop"
            elif st.gen_len >= st.max_new_tokens:
                st.finished, st.finish_reason = True, "length"
            elif st.position >= max_position:
                st.finished, st.finish_reason = True, "context"
        retired = self.retire_finished()
        if not self.states:
            return retired
        widest = max(self.cache.length - st.col_start for st in self.states)
        if (
            self.cache.length >= self.cache.capacity
            or self.cache.length - widest > _COMPACT_SLACK
        ):
            self.compact()
        self._ensure_columns(self.cache.length + 1)
        column = self.cache.length
        self._mask[:, column] = True
        logits = self.model.forward_incremental(
            np.array([[st.generated[st.gen_len - 1]] for st in self.states]),
            self.cache,
            attention_mask=self._mask[:, : column + 1],
            positions=np.array([[st.position - 1] for st in self.states]),
        )
        log_probs = F.log_softmax(logits[:, -1, :], axis=-1).data
        for st, row_log_probs in zip(self.states, log_probs):
            st.next_log_probs = row_log_probs
        return retired

    def retire_finished(self) -> list[DecodeState]:
        """Drop finished rows from the live batch (their cache rows are freed)."""
        retired = [st for st in self.states if st.finished]
        if not retired:
            return retired
        keep = np.array(
            [i for i, st in enumerate(self.states) if not st.finished], dtype=np.int64
        )
        self.cache.retire_rows(keep)
        self._mask = self._mask[keep]
        self.states = [st for st in self.states if not st.finished]
        for row, st in enumerate(self.states):
            st.row = row
        for st in retired:
            st.row = -1
            st.col_start = -1
            st.next_log_probs = None
        return retired

    def _realign(self, new_length: int) -> None:
        starts = np.array([st.col_start for st in self.states], dtype=np.int64)
        new_starts = self.cache.realign(starts, new_length)
        self._mask[:] = False
        for st, start in zip(self.states, new_starts):
            st.col_start = int(start)
            self._mask[st.row, start:new_length] = True

    def compact(self) -> None:
        """Reclaim dead columns by re-aligning live rows to the widest row.

        Retiring a long row can leave the live end far beyond every
        survivor's real history; compaction shifts the surviving spans left
        so decoding can continue past what used to be the buffer end.
        """
        if not self.states:
            self.cache.truncate(0)
            return
        widths = [self.cache.length - st.col_start for st in self.states]
        self._realign(max(widths))


class DecoderLM(Module):
    """Causal transformer language model with a tied output projection."""

    def __init__(
        self,
        config: ModelConfig,
        vocab_size: int,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        if config.kind != "decoder":
            raise ValueError(f"config {config.name!r} is not a decoder config")
        rngs = spawn_rngs(new_rng(rng), 4)
        self.config = config
        self.vocab_size = vocab_size
        self.token_embedding = Embedding(vocab_size, config.hidden_size, rng=rngs[0])
        self.position_embedding = SinusoidalPositionalEncoding(config.max_position, config.hidden_size)
        # rngs[2] seeds the decoder weights (kept for checkpoint parity with
        # earlier seeds); the dropout stream must be independent of it.
        self.embedding_dropout = Dropout(config.dropout, rng=rngs[3])
        self.decoder = TransformerDecoder(
            num_layers=config.num_layers,
            hidden_size=config.hidden_size,
            num_heads=config.num_heads,
            intermediate_size=config.intermediate_size,
            dropout=config.dropout,
            rng=rngs[2],
        )

    # ------------------------------------------------------------------ #
    def forward(
        self, input_ids: np.ndarray, attention_mask: np.ndarray | None = None
    ) -> Tensor:
        """Return next-token logits of shape (batch, seq, vocab)."""
        input_ids = np.asarray(input_ids, dtype=np.int64)
        if input_ids.ndim != 2:
            raise ValueError(f"input_ids must be 2-D (batch, seq), got shape {input_ids.shape}")
        batch, seq = input_ids.shape
        if seq > self.config.max_position:
            raise ValueError(
                f"sequence length {seq} exceeds the model's maximum context "
                f"{self.config.max_position}; shorten the prompt or use fewer examples"
            )
        hidden = self.token_embedding(input_ids) + self.position_embedding(seq, batch)
        hidden = self.embedding_dropout(hidden)
        hidden = self.decoder(hidden, attention_mask)
        return F.linear(hidden, self.token_embedding.weight)

    # ------------------------------------------------------------------ #
    # incremental inference
    # ------------------------------------------------------------------ #
    def make_cache(self, batch_size: int = 1, capacity: int | None = None) -> KVCache:
        """Allocate an empty KV cache sized for this model's context window."""
        return self.decoder.make_cache(batch_size, capacity or self.config.max_position)

    def paged_allocator(
        self, kv_dtype: str = "fp32", block_size: int | None = None
    ) -> BlockAllocator:
        """The model-wide block allocator for ``kv_dtype`` (created on first use).

        Every paged cache of this model draws from the same allocator (one
        per dtype/block-size), which is what makes prefix sharing work
        across pool entries, prefill staging and live decode batches: a
        block id means the same bytes to all of them, so handing a prefix
        to another cache is a ref-count bump instead of a copy.
        """
        block_size = int(block_size or DEFAULT_BLOCK_SIZE)
        key = (kv_dtype, block_size)
        with _PAGED_ALLOCATOR_LOCK:
            allocators = self.__dict__.setdefault("_paged_allocators", {})
            if key not in allocators:
                attention = self.decoder.layers[0].attention
                # The auditing BlockSanitizer subclass under
                # REPRO_SANITIZE=1, the plain BlockAllocator otherwise.
                allocators[key] = block_allocator_class()(
                    attention.num_heads,
                    attention.head_dim,
                    block_size=block_size,
                    kv_dtype=kv_dtype,
                )
            return allocators[key]

    def make_paged_cache(
        self,
        batch_size: int = 1,
        capacity: int | None = None,
        *,
        kv_dtype: str = "fp32",
        block_size: int | None = None,
    ) -> PagedKVCache:
        """Allocate an empty block-paged KV cache (optionally int8-quantized).

        Implements the same protocol as :meth:`make_cache`'s dense result,
        storing rows as ref-counted block tables — see
        :mod:`repro.nn.paged`.  ``capacity`` is a logical bound only;
        nothing is preallocated.  Attention gathers persisted spans straight
        from the block store, and only each row's unpersisted tail stays
        resident in float32.
        """
        return PagedKVCache(
            self.config.num_layers,
            batch_size,
            self.paged_allocator(kv_dtype, block_size),
            capacity or self.config.max_position,
        )

    def forward_incremental(
        self,
        input_ids: np.ndarray,
        cache: KVCache,
        attention_mask: np.ndarray | None = None,
        positions: np.ndarray | None = None,
        logit_columns: Sequence[int] | np.ndarray | None = None,
    ) -> Tensor:
        """Forward only the new tokens against the cached history.

        ``input_ids`` has shape (batch, s) and holds the tokens at global
        positions ``cache.length .. cache.length + s``; the cache is advanced
        in place.  ``attention_mask`` (if given) covers the *full* attended
        length ``cache.length + s``.  ``positions`` (if given, shape
        ``(batch, s)``) overrides the absolute position of every new token —
        left-padded batches use it so each row is position-encoded from its
        own first real token.  Returns next-token logits for the new
        positions only, shape (batch, s, vocab).

        ``logit_columns`` names the new-token columns whose logits the
        caller reads — a 1-D sequence for every row (``[-1]``: the last),
        or a (batch, k) array per row; negative values count from the
        end — and the result is (batch, k, vocab).  Every new token still
        appends its keys/values in every layer, but the last layer's
        queries, residual and MLP, the final norm and the vocab projection
        run at those columns only: a prefill that seeds a decode loop, or a
        scoring batch that reads one position per row, skips the rest.

        Cached inference is eval-only (nothing trains through a KV cache),
        so a model in train mode raises.  The whole forward runs on plain
        arrays, through each layer's ``infer``; only the returned logits are
        wrapped in a :class:`Tensor`.
        """
        if self.training:
            raise RuntimeError(
                "forward_incremental is eval-only: call model.eval() before cached inference"
            )
        input_ids = np.asarray(input_ids, dtype=np.int64)
        if input_ids.ndim != 2:
            raise ValueError(f"input_ids must be 2-D (batch, seq), got shape {input_ids.shape}")
        batch, seq = input_ids.shape
        past = cache.length
        if past + seq > self.config.max_position:
            raise ValueError(
                f"cached length {past} + new length {seq} exceeds the model's "
                f"maximum context {self.config.max_position}"
            )
        if cache.batch_size != batch:
            raise ValueError(
                f"cache batch size {cache.batch_size} does not match input batch {batch}"
            )
        if positions is None:
            position_enc = self.position_embedding.encoding[past : past + seq]
        else:
            positions = np.asarray(positions, dtype=np.int64)
            if positions.shape != (batch, seq):
                raise ValueError(
                    f"positions must have shape {(batch, seq)}, got {positions.shape}"
                )
            position_enc = self.position_embedding.gather(positions)
        columns = None
        if logit_columns is not None:
            columns = np.asarray(logit_columns, dtype=np.int64)
            if columns.ndim == 1:
                columns = np.broadcast_to(columns, (batch, columns.size))
            if columns.ndim != 2 or columns.shape[0] != batch:
                raise ValueError(
                    f"logit_columns must be 1-D or (batch={batch}, k), got shape "
                    f"{columns.shape}"
                )
            if columns.size and (columns.min() < -seq or columns.max() >= seq):
                raise ValueError(f"logit_columns outside the {seq} new columns")
            columns = columns % seq
            if columns.shape[1] == seq and (columns == np.arange(seq)).all():
                columns = None  # every column, in order: nothing to prune
        hidden = self.token_embedding.infer(input_ids)
        hidden += position_enc
        hidden = self.decoder.infer(hidden, attention_mask, cache, columns)
        return Tensor(kernels.linear(hidden, self.token_embedding.weight.data))

    # ------------------------------------------------------------------ #
    # scoring and generation (inference only)
    # ------------------------------------------------------------------ #
    def sequence_log_prob(
        self, input_ids: np.ndarray, prefix_length: int, cache: KVCache | None = None
    ) -> float:
        """Log-probability of ``input_ids[prefix_length:]`` given the prefix.

        Used by the ICL engine to score candidate category continuations
        ("Normal" vs "Abnormal") after the prompt.  When ``cache`` is given
        it must hold the keys/values of ``input_ids[:cache.length]``; only
        the remaining tokens are forwarded (the cache is advanced over the
        scored sequence in place).
        """
        input_ids = np.asarray(input_ids, dtype=np.int64)
        if input_ids.ndim != 1:
            raise ValueError("sequence_log_prob expects a 1-D token sequence")
        if not 0 < prefix_length < len(input_ids):
            raise ValueError("prefix_length must leave at least one continuation token")
        targets = input_ids[prefix_length:]
        with no_grad():
            if cache is None:
                logits = self.forward(input_ids[None, :])
                log_probs = F.log_softmax(logits, axis=-1).data[0]
                # logits at position t predict token t+1
                positions = np.arange(prefix_length - 1, len(input_ids) - 1)
                return float(log_probs[positions, targets].sum())
            # Keep at least the position prefix_length-1 uncached: its logits
            # score the first continuation token.
            past = min(cache.length, prefix_length - 1)
            cache.truncate(past)
            logits = self.forward_incremental(input_ids[None, past:], cache)
            log_probs = F.log_softmax(logits, axis=-1).data[0]
            positions = np.arange(prefix_length - 1, len(input_ids) - 1) - past
            return float(log_probs[positions, targets].sum())

    def next_token_log_probs(self, input_ids: np.ndarray) -> np.ndarray:
        """Log-probabilities of the next token after a 1-D prompt."""
        input_ids = np.asarray(input_ids, dtype=np.int64)
        with no_grad():
            logits = self.forward(input_ids[None, :])
            return F.log_softmax(logits[:, -1, :], axis=-1).data[0]

    def score_continuations(
        self,
        prompt_ids: np.ndarray,
        candidates: Sequence[np.ndarray],
        cache: KVCache | None = None,
    ) -> np.ndarray:
        """Total log-probability of each candidate continuation of one prompt.

        All candidates are scored off a *single* forward over the shared
        prompt: the prompt is prefilled once (reusing any overlap already in
        ``cache``), its last position's log-probabilities score every
        candidate's first token, and candidates longer than one token are
        evaluated together as one right-padded batch that reads the prompt
        from a :class:`~repro.nn.SharedPrefixKVCache` — one copy of the
        prompt's keys/values for every candidate row.  Right padding is
        sound under causal masking: padded positions can never influence
        the scored positions before them.

        ``cache`` (optional, batch 1) must hold keys/values for a prefix of
        ``prompt_ids``; on return it holds the full prompt, so successive
        calls with overlapping prompts (see :class:`PrefixCachedScorer`) get
        incremental prefills.  Returns an array of shape ``(len(candidates),)``.
        """
        prompt_ids = np.asarray(prompt_ids, dtype=np.int64)
        if prompt_ids.ndim != 1 or len(prompt_ids) == 0:
            raise ValueError("score_continuations expects a non-empty 1-D prompt")
        if not candidates:
            return np.zeros(0, dtype=np.float64)
        cand_arrays = [np.asarray(c, dtype=np.int64).ravel() for c in candidates]
        if any(len(c) == 0 for c in cand_arrays):
            raise ValueError("every candidate needs at least one token")
        max_cand = max(len(c) for c in cand_arrays)
        if len(prompt_ids) + max_cand > self.config.max_position:
            raise ValueError(
                f"prompt ({len(prompt_ids)}) plus longest candidate ({max_cand}) "
                f"exceeds the maximum context {self.config.max_position}"
            )

        if cache is None:
            cache = self.make_cache(1, len(prompt_ids) + max_cand)
        # Always re-forward the last prompt token so its logits (which
        # score each candidate's first token) are available.
        past = min(cache.length, len(prompt_ids) - 1)
        cache.truncate(past)
        prefill = self.forward_incremental(
            prompt_ids[None, past:], cache, logit_columns=[-1]
        )
        first_log_probs = F.log_softmax(prefill[:, -1, :], axis=-1).data[0]
        scores = np.array(
            [float(first_log_probs[c[0]]) for c in cand_arrays], dtype=np.float64
        )
        if max_cand == 1:
            return scores

        # One padded batch over all candidates' remaining tokens.  The
        # last token of each candidate is only ever a target, so rows
        # hold candidate[:-1] right-padded to max_cand - 1.
        batch = len(cand_arrays)
        rows = np.zeros((batch, max_cand - 1), dtype=np.int64)
        for i, cand in enumerate(cand_arrays):
            rows[i, : len(cand) - 1] = cand[:-1]
        shared = SharedPrefixKVCache(
            SharedPrefixKVCache.read_prefix(cache), batch, max_cand - 1
        )
        logits = self.forward_incremental(rows, shared)
        log_probs = F.log_softmax(logits, axis=-1).data
        for i, cand in enumerate(cand_arrays):
            if len(cand) > 1:
                positions = np.arange(len(cand) - 1)
                scores[i] += float(log_probs[i, positions, cand[1:]].sum())
        return scores

    def generate(
        self,
        input_ids: np.ndarray,
        max_new_tokens: int = 16,
        *,
        temperature: float = 0.0,
        stop_ids: set[int] | None = None,
        rng: np.random.Generator | int | None = None,
        use_cache: bool = True,
    ) -> np.ndarray:
        """Autoregressively extend a 1-D prompt.

        ``temperature == 0`` is greedy decoding; positive temperatures sample.
        Generation stops early when a token in ``stop_ids`` is produced or the
        model's maximum context is reached.

        With ``use_cache`` (the default) the prompt is prefilled once and each
        step forwards a single token against the KV cache; ``use_cache=False``
        recomputes the full prompt every step (kept as the reference
        implementation for correctness and perf comparisons).  Both paths
        write into one preallocated output buffer.
        """
        rng = new_rng(rng)
        prompt = np.asarray(input_ids, dtype=np.int64).ravel()
        stop_ids = stop_ids or set()
        # Preallocated output buffer: the result is always a prefix of it.
        out = np.empty(len(prompt) + max_new_tokens, dtype=np.int64)
        out[: len(prompt)] = prompt
        length = len(prompt)

        cache: KVCache | None = None
        log_probs: np.ndarray | None = None
        if use_cache and length < self.config.max_position and max_new_tokens > 0:
            cache = self.make_cache(
                1, min(len(prompt) + max_new_tokens, self.config.max_position)
            )
            prefill = self.forward_incremental(
                prompt[None, :], cache, logit_columns=[-1]
            )
            log_probs = F.log_softmax(prefill[:, -1, :], axis=-1).data[0]

        for step in range(max_new_tokens):
            if length >= self.config.max_position:
                break
            if log_probs is None:
                log_probs = self.next_token_log_probs(out[:length])
            if temperature <= 0.0:
                next_id = int(np.argmax(log_probs))
            else:
                next_id = int(self._sample_rows(log_probs[None, :], temperature, rng)[0])
            out[length] = next_id
            length += 1
            log_probs = None
            if next_id in stop_ids:
                break
            more_needed = step + 1 < max_new_tokens and length < self.config.max_position
            if cache is not None and more_needed:
                logits = self.forward_incremental(out[None, length - 1 : length], cache)
                log_probs = F.log_softmax(logits[:, -1, :], axis=-1).data[0]
        return out[:length].copy()

    @staticmethod
    def _sample_rows(
        log_probs: np.ndarray,
        temperature: float | np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Vectorised next-token choice for a (batch, vocab) log-prob matrix.

        ``temperature`` may be a scalar or a per-row array, so rows with
        different sampling parameters decode in one live batch.  Rows at
        temperature <= 0 take the argmax and draw no randomness — greedy
        decoding never consumes from ``rng`` (only then may it be None); the
        sampling rows share a single vectorised uniform draw, stream-
        compatible with the historical scalar ``rng.choice`` sampler.
        """
        temperatures = np.broadcast_to(
            np.asarray(temperature, dtype=np.float64), (log_probs.shape[0],)
        )
        out = np.argmax(log_probs, axis=-1)
        hot = temperatures > 0.0
        if not hot.any():
            return out
        if rng is None:
            raise ValueError("temperature sampling requires an rng")
        scaled = log_probs[hot] / temperatures[hot, None]
        scaled -= scaled.max(axis=-1, keepdims=True)
        probs = np.exp(scaled)
        probs /= probs.sum(axis=-1, keepdims=True)
        cdf = np.cumsum(probs, axis=-1)
        u = rng.random((int(hot.sum()), 1))
        out[hot] = np.minimum((cdf < u).sum(axis=-1), log_probs.shape[-1] - 1)
        return out

    def generate_batch(
        self,
        prompts: Sequence[np.ndarray],
        max_new_tokens: int = 16,
        *,
        temperature: float = 0.0,
        stop_ids: set[int] | None = None,
        rng: np.random.Generator | int | None = None,
        pad_id: int = 0,
        kv_layout: str = "dense",
        kv_dtype: str = "fp32",
    ) -> list[np.ndarray]:
        """Autoregressively extend many 1-D prompts in one cache-backed loop.

        Variable-length prompts are *left*-padded to a common length so every
        row's last prompt token sits in the final prefill column; padded
        positions are excluded from attention via the padding mask and each
        row is position-encoded from its own first real token, so per-row
        logits match the single-prompt :meth:`generate` to float32 tolerance.
        Each decode step forwards one token per row against the shared
        :class:`~repro.nn.KVCache` and samples all rows at once; rows stop
        independently when they emit a token in ``stop_ids``, reach
        ``max_new_tokens``, or hit the context limit.

        Returns one ``prompt + generated`` array per input, in input order.
        ``temperature == 0`` is greedy (deterministic and independent of
        batch composition or ordering); positive temperatures sample each row
        from one shared generator, with one vectorised draw per step over the
        rows still decoding.

        Implemented on the :class:`DecodeBatch` stepping core: all prompts
        are admitted up front via one padded prefill, rows retire the moment
        they finish, and the batch compacts when a departed long row's
        columns are needed — a row near the context limit never truncates
        its batchmates' generations.
        """
        rng = new_rng(rng)
        batch, states = self.prefill_batch(
            prompts,
            max_new_tokens,
            temperature=temperature,
            stop_ids=stop_ids,
            pad_id=pad_id,
            kv_layout=kv_layout,
            kv_dtype=kv_dtype,
        )
        while batch.num_rows:
            batch.step(rng)
        return [st.output() for st in states]

    def prefill_batch(
        self,
        prompts: Sequence[np.ndarray],
        max_new_tokens: int,
        *,
        temperature: float,
        stop_ids: set[int] | None,
        pad_id: int,
        kv_layout: str,
        kv_dtype: str,
    ) -> tuple[DecodeBatch, list[DecodeState]]:
        """The setup every ``generate_batch`` front door shares.

        Validates the prompts, sizes a :class:`DecodeBatch` to the longest
        prompt plus the token budget (capped at the model context), and
        admits one :class:`DecodeState` per prompt through one padded
        prefill.  Returns the batch and the states in input order (an empty
        prompt list gives an empty batch); the caller steps the batch until
        it has no rows.
        """
        arrays = [np.asarray(p, dtype=np.int64).ravel() for p in prompts]
        if any(len(a) == 0 for a in arrays):
            raise ValueError("generate_batch requires non-empty prompts")
        max_len = max((len(a) for a in arrays), default=0)
        if max_len > self.config.max_position:
            raise ValueError(
                f"longest prompt ({max_len}) exceeds the maximum context "
                f"{self.config.max_position}"
            )
        capacity = min(max_len + max(max_new_tokens, 0), self.config.max_position)
        batch = DecodeBatch(
            self, capacity=max(capacity, 1), kv_layout=kv_layout, kv_dtype=kv_dtype
        )
        states = [
            DecodeState(
                prompt_ids=a,
                max_new_tokens=max_new_tokens,
                temperature=temperature,
                stop_ids=frozenset(stop_ids or ()),
            )
            for a in arrays
        ]
        batch.admit_many(states, pad_id=pad_id)
        return batch, states

    def make_decode_batch(
        self,
        capacity: int | None = None,
        *,
        kv_layout: str = "dense",
        kv_dtype: str = "fp32",
    ) -> DecodeBatch:
        """A fresh live :class:`DecodeBatch` (the continuous-batching core).

        ``kv_layout="paged"`` stores the live rows as ref-counted block
        tables (``kv_dtype="int8"`` additionally quantizes the block
        store); greedy outputs are identical to the dense layout.
        """
        return DecodeBatch(self, capacity, kv_layout=kv_layout, kv_dtype=kv_dtype)

    def decode_step(
        self, batch: DecodeBatch, rng: np.random.Generator | None = None
    ) -> list[DecodeState]:
        """Advance a live :class:`DecodeBatch` one iteration.

        One token is sampled for every live row and rows that finish are
        retired (and returned); admission between calls is the caller's
        scheduling policy.  This is the single decode-step primitive both
        :meth:`generate_batch` and the serving engine drive.
        """
        return batch.step(rng)

    # ------------------------------------------------------------------ #
    def clm_logits(
        self, input_ids: np.ndarray, attention_mask: np.ndarray | None = None
    ) -> Tensor:
        """Alias of :meth:`forward` used by the causal-LM pre-training loop."""
        return self.forward(input_ids, attention_mask)


class PrefixCachedScorer:
    """Stateful scorer that reuses the KV cache across overlapping prompts.

    Successive calls compute the longest common token prefix between the new
    prompt and the previous one, roll the cache back to that point, and only
    forward the difference.  This is what makes repeated ICL queries with a
    shared few-shot block — and streaming detection, where each step's prompt
    extends the previous one — cost O(new tokens) instead of O(full prompt).

    With a ``pool`` (a :class:`~repro.serving.PrefixCachePool`) the scorer
    draws its cache from a shared LRU pool instead of owning one: each call
    checks out the pooled cache with the longest matching prefix, advances it
    over the new prompt, and checks it back in — so *different* scorers built
    on the same model reuse each other's prefills.
    """

    def __init__(self, model: DecoderLM, pool=None) -> None:
        self.model = model
        self.pool = pool
        self._cache: KVCache | None = None
        self._ids: np.ndarray = np.empty(0, dtype=np.int64)
        self.last_reused_tokens = 0

    def reset(self) -> None:
        """Drop the cached prompt (e.g. when switching conversations)."""
        self._cache = None
        self._ids = np.empty(0, dtype=np.int64)
        self.last_reused_tokens = 0

    @property
    def cached_tokens(self) -> int:
        """Number of prompt tokens currently held in the private cache."""
        return self._cache.length if self._cache is not None else 0

    def score_continuations(
        self, prompt_ids: np.ndarray, candidates: Sequence[np.ndarray]
    ) -> np.ndarray:
        """Like :meth:`DecoderLM.score_continuations`, with prefix reuse."""
        prompt_ids = np.asarray(prompt_ids, dtype=np.int64).ravel()
        if self.pool is not None:
            cache, reused = self.pool.checkout(prompt_ids)
            self.last_reused_tokens = reused
            try:
                return self.model.score_continuations(prompt_ids, candidates, cache=cache)
            finally:
                # Even when scoring raises (e.g. context overflow) the cache
                # still holds a valid prefix of this prompt — return it.  A
                # forward that failed mid-stack can leave layers at different
                # lengths; roll back to the shortest to stay consistent.
                cache.truncate(min(layer.length for layer in cache.layers))
                self.pool.checkin(prompt_ids, cache)
        if self._cache is None:
            self._cache = self.model.make_cache(1, self.model.config.max_position)
        common = common_prefix_length(self._ids, prompt_ids)
        self._cache.truncate(min(common, self._cache.length))
        self.last_reused_tokens = self._cache.length
        scores = self.model.score_continuations(prompt_ids, candidates, cache=self._cache)
        self._ids = prompt_ids.copy()
        return scores
