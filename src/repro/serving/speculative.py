"""Speculative decoding: a registry drafter proposes, the target verifies.

Per-token decode cost in the serving stack is one full target forward per
emitted token.  :class:`SpeculativeDecoder` breaks that bound with the
classic draft-then-verify loop: a small drafter model proposes ``draft_k``
tokens autoregressively off its own (dense or paged) KV cache, the target
verifies all of them in **one** batched :meth:`forward_incremental` call,
the matched prefix is accepted, and each row's rejected tail rolls back via
per-row cache truncation (:meth:`DecodeBatch.rollback_row`).

The invariant that makes the verify forward pay for itself: between
speculative steps a row's target cache holds every history position *except
the last emitted token's* — the "pending" token.  The verify forward then
feeds ``[pending, g_1, .., g_k]`` (``1 + draft_k`` uniform columns for every
row), and its ``1 + draft_k`` output distributions are exactly the
next-token distributions after 0, 1, .., k accepted drafts.  Accepting all
``k`` drafts therefore still yields a free "bonus" token from the final
distribution — up to ``draft_k + 1`` tokens per target forward, with no
extra forward on full acceptance.

Acceptance is exact: greedy rows accept a draft iff it equals the target's
argmax, making the output token-identical to plain cached decode no matter
how bad the drafter is (the drafter only moves *throughput*).  Sampling
rows (temperature > 0) use lossless speculative rejection sampling [Leviathan
et al.]: draft ``g ~ q`` is accepted with probability ``min(1, p(g)/q(g))``,
a rejection samples from the normalised residual ``max(p - q, 0)`` — the
emitted distribution is exactly the target's ``p`` for any drafter ``q``.
"""

from __future__ import annotations

import numpy as np

from repro.models.decoder import DecodeBatch, DecodeState, left_pad_batch
from repro.nn.paged import validate_kv_config
from repro.tensor import functional as F
from repro.utils.rng import new_rng


class _DrafterBatch:
    """Every live row's drafter state in one shared multi-row KV cache.

    Drafting used to run the draft model row by row: each proposal step was
    a batch-1 ``forward_incremental`` per live request, so a batch of R rows
    paid ``R * (k-1)`` drafter forwards per speculative step.  This batch
    mirrors :class:`DecodeBatch`'s ragged bookkeeping (right-aligned spans,
    per-row mask, per-row truncation, compaction) for the *drafter's* cache,
    so one speculative step costs at most two batched catch-up forwards
    (newcomer prefill + resident gap fill) plus ``k - 1`` batched proposal
    forwards — independent of R.

    Row membership follows the stepped target batch: newcomers prefill
    their history as one left-padded batch and splice in via
    ``admit_row``; residents fill their 1–2 token history gap in one ragged
    right-padded forward (junk tail columns are truncated away immediately,
    so spans stay contiguous); rows whose history outgrew the drafter's
    context leave the batch and pad their proposals (correctness is
    untouched — pads just stop saving target forwards, exactly as before).
    """

    def __init__(self, draft_model, kv_layout: str, kv_dtype: str) -> None:
        self.model = draft_model
        self.kv_layout = kv_layout
        self.kv_dtype = kv_dtype
        self.capacity = draft_model.config.max_position
        self.cache = self._make_cache(
            0, min(self.capacity, 64) if kv_layout == "dense" else self.capacity
        )
        self.states: list[DecodeState] = []
        self.col_start: list[int] = []
        self.rows: dict[int, int] = {}  # id(state) -> row index
        self.mask = np.zeros((0, self.capacity), dtype=bool)

    def _make_cache(self, rows: int, capacity: int):
        if self.kv_layout == "paged":
            return self.model.make_paged_cache(rows, capacity, kv_dtype=self.kv_dtype)
        return self.model.make_cache(rows, capacity)

    def row_length(self, row: int) -> int:
        return self.cache.length - self.col_start[row]

    # ------------------------------------------------------------------ #
    # row bookkeeping (the DecodeBatch mechanics, on the drafter's cache)
    # ------------------------------------------------------------------ #
    def _retire_keep(self, keep: list[int]) -> None:
        if len(keep) == len(self.states):
            return
        idx = np.asarray(keep, dtype=np.int64)
        self.cache.retire_rows(idx)
        self.mask = self.mask[idx]
        self.states = [self.states[i] for i in keep]
        self.col_start = [self.col_start[i] for i in keep]
        self.rows = {id(st): i for i, st in enumerate(self.states)}

    def discard(self, states) -> None:
        """Drop retired requests' rows (their blocks free immediately)."""
        gone = {id(st) for st in states}
        if gone & self.rows.keys():
            self._retire_keep(
                [i for i, st in enumerate(self.states) if id(st) not in gone]
            )

    def _realign(self, new_length: int) -> None:
        if not self.states:
            self.cache.truncate(0)
            return
        starts = np.array(self.col_start, dtype=np.int64)
        new_starts = self.cache.realign(starts, new_length)
        self.mask[:] = False
        for i, start in enumerate(new_starts):
            self.col_start[i] = int(start)
            self.mask[i, start:new_length] = True

    def _ensure_columns(self, extra: int) -> None:
        """Make room for ``extra`` fresh columns: compact dead columns away
        when the live end would overrun the drafter context, grow the dense
        allocation on demand."""
        widest = max((self.cache.length - s for s in self.col_start), default=0)
        if self.cache.length + extra > self.capacity or self.cache.length - widest > 16:
            self._realign(widest)
        needed = self.cache.length + extra
        if needed > self.cache.capacity:
            self.cache.grow(min(self.capacity, max(needed, 2 * self.cache.capacity)))

    def _admit_row(self, st: DecodeState, src, src_row: int, src_start: int) -> None:
        width = src.length - src_start
        if width > self.cache.capacity:
            self.cache.grow(min(self.capacity, max(width, 2 * self.cache.capacity)))
        if width > self.cache.length and self.states:
            self._realign(width)
        start = self.cache.admit_row(src, src_row, src_start)
        self.col_start.append(start)
        self.rows[id(st)] = len(self.states)
        self.states.append(st)
        row_mask = np.zeros((1, self.capacity), dtype=bool)
        row_mask[0, start : self.cache.length] = True
        self.mask = np.concatenate([self.mask, row_mask], axis=0)

    def _truncate_row_tail(self, row: int, drop: int) -> None:
        if drop <= 0:
            return
        self.cache.truncate_row(row, self.cache.length - drop)
        self.mask[row, self.col_start[row] : self.col_start[row] + drop] = False
        self.col_start[row] += drop

    # ------------------------------------------------------------------ #
    # drafting
    # ------------------------------------------------------------------ #
    def propose(self, states, k_eff: int, rng) -> list[list[np.ndarray | None]]:
        """Propose ``k_eff`` tokens for every row into ``st.draft_tokens``.

        Returns the drafter's per-proposal distributions per row (``None``
        for greedy rows and for padding proposals emitted when the drafter's
        context window is exhausted)."""
        qs: list[list[np.ndarray | None]] = [[None] * k_eff for _ in states]
        if k_eff == 0:
            for st in states:
                st.draft_tokens = np.empty(0, dtype=np.int64)
            return qs
        drafts = np.empty((len(states), k_eff), dtype=np.int64)
        tokens = {id(st): st.output() for st in states}
        self._retire_keep([i for i, st in enumerate(self.states) if id(st) in tokens])
        # Per-state next-proposal distribution; absent/None means the row
        # left the drafter batch and pads its remaining proposals.
        lp = self._fill_gaps(tokens)
        lp.update(self._admit_fresh(states, tokens))
        for j in range(k_eff):
            for i, st in enumerate(states):
                p = lp.get(id(st))
                if p is None:
                    # Drafter context exhausted: pad with the last real
                    # token.  Verification treats a pad like any other
                    # (likely wrong) proposal, so output correctness is
                    # unaffected.
                    drafts[i, j] = tokens[id(st)][-1]
                elif st.temperature <= 0:
                    drafts[i, j] = int(np.argmax(p))
                else:
                    probs = _tempered_probs(p, st.temperature)
                    drafts[i, j] = _sample_cdf(probs, rng)
                    qs[i][j] = probs
            if j + 1 < k_eff:
                lp = self._extend(
                    {
                        id(st): int(drafts[i, j])
                        for i, st in enumerate(states)
                        if lp.get(id(st)) is not None
                    }
                )
        for i, st in enumerate(states):
            st.draft_tokens = drafts[i].copy()
        return qs

    def _fill_gaps(self, tokens: dict) -> dict:
        """Bring resident rows up to date with their accepted history.

        The gap is 1 token after a rejection, 2 after full acceptance (the
        bonus token plus the proposal the drafter never entered).  All gaps
        fill in one ragged right-padded forward: rows feed their real gap
        first, junk afterwards, and each row's junk tail is truncated away
        right after — so every span stays exactly its drafter history.
        """
        while self.states:
            lens = [self.row_length(i) for i in range(len(self.states))]
            gaps = [len(tokens[id(st)]) - lens[i] for i, st in enumerate(self.states)]
            g_max = max(gaps)
            # Rows with nothing to feed, or that cannot fit the batch's
            # uniform g_max columns inside the drafter context, leave.
            keep = [
                i
                for i in range(len(self.states))
                if gaps[i] > 0 and lens[i] + g_max <= self.capacity
            ]
            if len(keep) == len(self.states):
                break
            self._retire_keep(keep)
        if not self.states:
            return {}
        self._ensure_columns(g_max)
        column = self.cache.length
        ids = np.empty((len(self.states), g_max), dtype=np.int64)
        positions = np.empty_like(ids)
        for i, st in enumerate(self.states):
            hist = tokens[id(st)]
            g = gaps[i]
            ids[i, :g] = hist[lens[i] : lens[i] + g]
            ids[i, g:] = hist[-1]  # junk tail, truncated below
            positions[i] = lens[i] + np.arange(g_max)
        self.mask[:, column : column + g_max] = True
        logits = self.model.forward_incremental(
            ids,
            self.cache,
            attention_mask=self.mask[:, : column + g_max],
            positions=positions,
        )
        log_probs = F.log_softmax(logits, axis=-1).data
        out = {}
        for i, st in enumerate(self.states):
            out[id(st)] = log_probs[i, gaps[i] - 1]
            self._truncate_row_tail(i, g_max - gaps[i])
        return out

    def _admit_fresh(self, states, tokens: dict) -> dict:
        """Prefill newcomers' full history as one left-padded drafter batch
        (the admission analogue of :meth:`DecodeBatch.admit_many`)."""
        fresh = [
            st
            for st in states
            if id(st) not in self.rows and len(tokens[id(st)]) <= self.capacity
        ]
        if not fresh:
            return {}
        ids, pmask, positions, lengths = left_pad_batch(
            [tokens[id(st)] for st in fresh]
        )
        max_len = int(lengths.max())
        staging = self._make_cache(len(fresh), max_len)
        logits = self.model.forward_incremental(
            ids,
            staging,
            attention_mask=pmask,
            positions=positions,
            logit_columns=[-1],
        )
        log_probs = F.log_softmax(logits[:, -1, :], axis=-1).data
        out = {}
        for i, st in enumerate(fresh):
            self._admit_row(st, staging, i, max_len - int(lengths[i]))
            out[id(st)] = log_probs[i]
        if hasattr(staging, "release"):
            staging.release()
        return out

    def _extend(self, feed: dict) -> dict:
        """One batched proposal forward: every remaining row enters its just
        proposed token and returns the next proposal's distribution."""
        keep = [
            i
            for i, st in enumerate(self.states)
            if id(st) in feed and self.row_length(i) + 1 <= self.capacity
        ]
        self._retire_keep(keep)
        if not self.states:
            return {}
        self._ensure_columns(1)
        column = self.cache.length
        ids = np.array([[feed[id(st)]] for st in self.states], dtype=np.int64)
        positions = np.array(
            [[self.row_length(i)] for i in range(len(self.states))], dtype=np.int64
        )
        self.mask[:, column : column + 1] = True
        logits = self.model.forward_incremental(
            ids,
            self.cache,
            attention_mask=self.mask[:, : column + 1],
            positions=positions,
        )
        lp = F.log_softmax(logits[:, -1, :], axis=-1).data
        return {id(st): lp[i] for i, st in enumerate(self.states)}

    def rollback(self, st: DecodeState, history_len: int, accepted_emitted: int) -> None:
        """Truncate one row to its accepted history prefix.

        After drafting, the row holds the old history plus the first
        ``k_eff - 1`` proposals; of those proposals only the emitted
        accepted prefix survives in the *target's* history, so everything
        past ``history_len + accepted_emitted`` is stale."""
        row = self.rows.get(id(st))
        if row is None:
            return
        length = self.row_length(row)
        entered = max(length - history_len, 0)
        keep = history_len + min(accepted_emitted, entered)
        self._truncate_row_tail(row, length - keep)


class SpeculativeDecoder:
    """Pairs a target :class:`~repro.models.decoder.DecoderLM` with a small
    drafter and steps a live :class:`DecodeBatch` several tokens at a time.

    Drop-in for the plain stepping loop: :meth:`step` has the same contract
    as :meth:`DecodeBatch.step` (returns the retired states), and both
    engines substitute it transparently when constructed with a
    ``draft_model``.  Rows are free to join and leave the batch between
    steps — fresh admissions are normalised into the speculative invariant
    on their first step, and retiring rows drop their drafter state.

    ``tokenizer``/``draft_tokenizer`` are optional identity guards: models
    loaded from one :class:`~repro.models.registry.ModelRegistry` share its
    tokenizer, but hand-assembled pairs with different vocabularies or
    tokenizers would produce garbage argmax comparisons at runtime, so
    mismatches raise at construction instead.
    """

    def __init__(
        self,
        model,
        draft_model,
        *,
        draft_k: int = 4,
        tokenizer=None,
        draft_tokenizer=None,
        draft_kv_layout: str = "dense",
        draft_kv_dtype: str = "fp32",
    ) -> None:
        if int(draft_k) < 1:
            raise ValueError(f"draft_k must be >= 1, got {draft_k}")
        target_vocab = getattr(model, "vocab_size", None)
        drafter_vocab = getattr(draft_model, "vocab_size", None)
        if target_vocab != drafter_vocab:
            raise ValueError(
                f"drafter vocab size {drafter_vocab} does not match target "
                f"vocab size {target_vocab} — draft token ids would be "
                "meaningless to the target model"
            )
        if (
            tokenizer is not None
            and draft_tokenizer is not None
            and draft_tokenizer is not tokenizer
            and draft_tokenizer != tokenizer
        ):
            raise ValueError(
                "drafter and target were built for different tokenizers — "
                "their token ids do not refer to the same strings"
            )
        validate_kv_config(draft_kv_layout, draft_kv_dtype)
        self.model = model
        self.draft_model = draft_model
        self.tokenizer = tokenizer
        self.draft_tokenizer = draft_tokenizer
        self.draft_k = int(draft_k)
        self.draft_kv_layout = draft_kv_layout
        self.draft_kv_dtype = draft_kv_dtype
        self._drafter: _DrafterBatch | None = None
        #: Cumulative across every stepped batch: drafter proposals made,
        #: proposals accepted *and emitted*, and verify steps run.
        self.drafted = 0
        self.accepted = 0
        self.steps = 0

    @classmethod
    def from_registry(cls, registry, model_name: str, draft_name: str, **kwargs):
        """Build a decoder from two registry models (shared tokenizer)."""
        model = registry.load_decoder(model_name)
        draft_model = registry.load_decoder(draft_name)
        kwargs.setdefault("tokenizer", registry.tokenizer)
        kwargs.setdefault("draft_tokenizer", registry.tokenizer)
        return cls(model, draft_model, **kwargs)

    @property
    def accept_rate(self) -> float:
        """Fraction of drafter proposals accepted and emitted so far."""
        return self.accepted / self.drafted if self.drafted else 0.0

    # ------------------------------------------------------------------ #
    # stepping
    # ------------------------------------------------------------------ #
    def step(
        self, batch: DecodeBatch, rng: np.random.Generator | None = None
    ) -> list[DecodeState]:
        """One speculative iteration over the live batch.

        Drafts up to ``draft_k`` tokens per row, verifies them (plus each
        row's pending token) in a single target forward, emits the accepted
        prefix token-by-token through the batch's finish checks, rolls the
        rejected tails back per row, and retires finished rows.  Returns
        the retired states, like :meth:`DecodeBatch.step`.
        """
        if not batch.states:
            return []
        if any(st.temperature > 0 for st in batch.states) and rng is None:
            raise ValueError("temperature sampling requires an rng")
        # Fresh admissions arrive in the plain-step invariant (cache holds
        # the full history, a pending distribution is stored).  Move them
        # into the speculative invariant: drop the last emitted token's
        # cached position and discard the stored distribution — the verify
        # forward recomputes it bit-identically as its first column.
        for st in batch.states:
            if st.next_log_probs is not None:
                batch.rollback_row(st, 1)
                st.next_log_probs = None
        max_position = self.model.config.max_position
        max_pos = max(st.position for st in batch.states)
        # Uniform draft width: verify positions run up to max_pos-1+k (the
        # position-encoding bound) and the widest row's span plus 1+k new
        # columns must fit the batch's column capacity.
        k_eff = min(self.draft_k, max_position - max_pos, batch.capacity - max_pos)
        k_eff = max(k_eff, 0)
        states = list(batch.states)
        if self._drafter is None:
            self._drafter = _DrafterBatch(
                self.draft_model, self.draft_kv_layout, self.draft_kv_dtype
            )
        # All rows' proposals come from batched drafter forwards (catch-up
        # plus k_eff - 1 extensions) — not one drafter loop per row.
        draft_qs = self._drafter.propose(states, k_eff, rng)
        # One batched verify forward over [pending, g_1, .., g_k] per row.
        s = 1 + k_eff
        ids = np.empty((len(states), s), dtype=np.int64)
        positions = np.empty((len(states), s), dtype=np.int64)
        for i, st in enumerate(states):
            pending = (
                st.generated[st.gen_len - 1] if st.gen_len else st.prompt_ids[-1]
            )
            ids[i, 0] = pending
            if k_eff:
                ids[i, 1:] = st.draft_tokens
            positions[i] = st.position - 1 + np.arange(s)
        log_probs = batch._forward_columns(ids, positions)
        self.steps += 1
        for i, st in enumerate(states):
            history_len = st.position  # before this step's emission
            accepted, emit = self._accept(st, log_probs[i], k_eff, draft_qs[i], rng)
            emitted = batch._emit_tokens(st, emit)
            accepted_emitted = min(accepted, emitted)
            st.draft_tokens = None
            st.spec_drafted += k_eff
            st.spec_accepted += accepted_emitted
            self.drafted += k_eff
            self.accepted += accepted_emitted
            if st.finished:
                continue  # row retires below; no rollback needed
            batch.rollback_row(st, s - emitted)
            self._drafter.rollback(st, history_len, accepted_emitted)
        retired = batch.retire_finished()
        if retired:
            self._drafter.discard(retired)
        return retired

    # ------------------------------------------------------------------ #
    # acceptance
    # ------------------------------------------------------------------ #
    def _accept(
        self,
        st: DecodeState,
        row_log_probs: np.ndarray,
        k_eff: int,
        qs: list[np.ndarray | None],
        rng: np.random.Generator | None,
    ) -> tuple[int, list[int]]:
        """Decide one row's emission from its (1+k, vocab) verify outputs.

        Returns ``(accepted, emit)``: how many drafts were accepted and the
        tokens to emit — the accepted drafts plus exactly one closing token
        (the target's correction on a rejection, or the free bonus token on
        full acceptance).
        """
        drafts = st.draft_tokens
        if st.temperature <= 0:
            greedy = np.argmax(row_log_probs, axis=-1)
            accepted = 0
            while accepted < k_eff and int(greedy[accepted]) == int(drafts[accepted]):
                accepted += 1
            emit = [int(t) for t in drafts[:accepted]]
            emit.append(int(greedy[accepted]))
            return accepted, emit
        emit: list[int] = []
        for j in range(k_eff):
            p = _tempered_probs(row_log_probs[j], st.temperature)
            g = int(drafts[j])
            q = qs[j]
            if q is None:
                # Padding proposal == a one-hot q at g: accept with p(g),
                # reject into p with g zeroed.  Still exactly lossless.
                accept_prob = p[g]
                residual = p.copy()
                residual[g] = 0.0
            else:
                accept_prob = min(1.0, p[g] / max(q[g], 1e-30))
                residual = np.maximum(p - q, 0.0)
            if rng.random() < accept_prob:
                emit.append(g)
                continue
            total = residual.sum()
            if total <= 0.0:
                residual, total = p, p.sum()  # q covers p exactly; resample p
            emit.append(_sample_cdf(residual / total, rng))
            return j, emit
        p = _tempered_probs(row_log_probs[k_eff], st.temperature)
        emit.append(_sample_cdf(p, rng))
        return k_eff, emit

    # ------------------------------------------------------------------ #
    # convenience front doors (bench / parity harnesses)
    # ------------------------------------------------------------------ #
    def generate(
        self,
        input_ids: np.ndarray,
        max_new_tokens: int = 16,
        *,
        temperature: float = 0.0,
        stop_ids: set[int] | None = None,
        rng: np.random.Generator | int | None = None,
        kv_layout: str = "dense",
        kv_dtype: str = "fp32",
    ) -> np.ndarray:
        """Speculatively extend one 1-D prompt (mirrors ``model.generate``)."""
        return self.generate_batch(
            [input_ids],
            max_new_tokens,
            temperature=temperature,
            stop_ids=stop_ids,
            rng=rng,
            kv_layout=kv_layout,
            kv_dtype=kv_dtype,
        )[0]

    def generate_batch(
        self,
        prompts,
        max_new_tokens: int = 16,
        *,
        temperature: float = 0.0,
        stop_ids: set[int] | None = None,
        rng: np.random.Generator | int | None = None,
        pad_id: int = 0,
        kv_layout: str = "dense",
        kv_dtype: str = "fp32",
    ) -> list[np.ndarray]:
        """Speculatively extend many prompts in one live batch.

        Mirrors :meth:`DecoderLM.generate_batch` (same admission, same
        capacity, same finish semantics); greedy outputs are token-identical
        to it — only the number of target forwards differs.
        """
        arrays = [np.asarray(p, dtype=np.int64).ravel() for p in prompts]
        if not arrays:
            return []
        if any(len(a) == 0 for a in arrays):
            raise ValueError("generate_batch requires non-empty prompts")
        max_len = max(len(a) for a in arrays)
        max_position = self.model.config.max_position
        if max_len > max_position:
            raise ValueError(
                f"longest prompt ({max_len}) exceeds the maximum context "
                f"{max_position}"
            )
        rng = new_rng(rng) if temperature > 0 else None
        capacity = min(max_len + max(max_new_tokens, 0), max_position)
        batch = DecodeBatch(
            self.model, capacity=capacity, kv_layout=kv_layout, kv_dtype=kv_dtype
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
        while batch.num_rows:
            self.step(batch, rng)
        return [st.output() for st in states]


def _tempered_probs(log_probs: np.ndarray, temperature: float) -> np.ndarray:
    """The target/drafter sampling distribution at ``temperature`` —
    the same arithmetic as ``DecoderLM._sample_rows`` so speculative
    sampling draws from exactly the plain sampler's distribution."""
    scaled = log_probs / temperature
    scaled = scaled - scaled.max()
    probs = np.exp(scaled)
    return probs / probs.sum()


def _sample_cdf(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw (the plain sampler's tie-breaking included)."""
    cdf = np.cumsum(probs)
    u = rng.random()
    return int(min((cdf < u).sum(), len(probs) - 1))
