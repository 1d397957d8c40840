"""Speculative decoding: a registry drafter proposes, the target verifies.

Per-token decode cost in the serving stack is one full target forward per
emitted token.  :class:`SpeculativeDecoder` breaks that bound with the
classic draft-then-verify loop: a small drafter model proposes ``draft_k``
tokens autoregressively — batched across rows on one dense drafter
:class:`DecodeBatch` — the target verifies all of them in **one** batched
:meth:`forward_incremental` call, the matched prefix is accepted, and each
row's rejected tail rolls back via per-row cache truncation
(:meth:`DecodeBatch.rollback_row`).

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

from dataclasses import dataclass

import numpy as np

from repro.models.decoder import DecodeBatch, DecodeState
from repro.utils.rng import new_rng


@dataclass
class _Shadow(DecodeState):
    """A drafter row: the history of the target request ``target``.

    Holding the target itself, not just its id, keeps ``id(target)`` from
    being reused by a new request while the row lives."""

    target: DecodeState | None = None


class _DrafterBatch:
    """Every live row's drafter history as one row of a drafter :class:`DecodeBatch`.

    Each target request gets one shadow :class:`DecodeState` in a dense fp32
    batch over the draft model; the shadow's cache row holds the drafter's
    view of that request's history.  All rows' proposals therefore come from
    batched forwards: one speculative step costs at most one newcomer
    prefill (:meth:`DecodeBatch.admit_many`), one resident gap fill and
    ``k - 1`` proposal forwards (:meth:`DecodeBatch._forward_columns`) —
    independent of the number of rows.  Junk tail columns and rejected
    proposals leave via :meth:`DecodeBatch.rollback_row`, and rows that
    retire, or whose history outgrew the drafter's context, leave via
    :meth:`DecodeBatch.retire_finished` (the latter pad their proposals:
    correctness is untouched, pads just stop saving target forwards).
    """

    def __init__(self, draft_model) -> None:
        self.batch = DecodeBatch(draft_model)
        #: ``id(target state) -> its drafter row``.
        self.shadows: dict[int, _Shadow] = {}

    def row_length(self, shadow: DecodeState) -> int:
        return self.batch.cache.length - shadow.col_start

    def discard(self, states) -> None:
        """Drop these requests' drafter rows (a no-op for rows without one)."""
        for st in states:
            shadow = self.shadows.pop(id(st), None)
            if shadow is not None:
                shadow.finished = True
        self.batch.retire_finished()

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
        self.discard(
            [sh.target for sh in self.batch.states if id(sh.target) not in tokens]
        )
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
        first, junk afterwards, and each row's junk tail is rolled back
        right after — so every span stays exactly its drafter history.
        """
        rows = self.batch.states
        while rows:
            hists = [tokens[id(shadow.target)] for shadow in rows]
            lens = [self.row_length(shadow) for shadow in rows]
            gaps = [len(hist) - n for hist, n in zip(hists, lens)]
            g_max = max(gaps)
            # Rows with nothing to feed, or that cannot fit the batch's
            # uniform g_max columns inside the drafter context, leave.
            gone = [
                shadow.target
                for shadow, n, g in zip(rows, lens, gaps)
                if g <= 0 or n + g_max > self.batch.capacity
            ]
            if not gone:
                break
            self.discard(gone)
            rows = self.batch.states
        if not rows:
            return {}
        ids = np.empty((len(rows), g_max), dtype=np.int64)
        positions = np.empty_like(ids)
        for i, hist in enumerate(hists):
            ids[i, : gaps[i]] = hist[lens[i] :]
            ids[i, gaps[i] :] = hist[-1]  # junk tail, rolled back below
            positions[i] = lens[i] + np.arange(g_max)
        log_probs = self.batch._forward_columns(ids, positions)
        out = {}
        for i, shadow in enumerate(rows):
            out[id(shadow.target)] = log_probs[i, gaps[i] - 1]
            self.batch.rollback_row(shadow, g_max - gaps[i])
        return out

    def _admit_fresh(self, states, tokens: dict) -> dict:
        """Prefill newcomers' full history as one left-padded drafter batch.

        A history that fills the drafter context exactly finishes on
        admission (reason ``"context"``) and pads from its first proposal."""
        fresh = [
            _Shadow(prompt_ids=tokens[id(st)], max_new_tokens=1, target=st)
            for st in states
            if id(st) not in self.shadows and len(tokens[id(st)]) <= self.batch.capacity
        ]
        if not fresh:
            return {}
        self.batch.admit_many(fresh)
        out = {}
        for shadow in fresh:
            if shadow.admitted:
                self.shadows[id(shadow.target)] = shadow
                out[id(shadow.target)] = shadow.next_log_probs
        return out

    def _extend(self, feed: dict) -> dict:
        """One batched proposal forward: every remaining row enters its just
        proposed token and returns the next proposal's distribution."""
        self.discard(
            [
                shadow.target
                for shadow in self.batch.states
                if id(shadow.target) not in feed
                or self.row_length(shadow) + 1 > self.batch.capacity
            ]
        )
        rows = self.batch.states
        if not rows:
            return {}
        ids = np.array([[feed[id(sh.target)]] for sh in rows], dtype=np.int64)
        positions = np.array([[self.row_length(sh)] for sh in rows], dtype=np.int64)
        lp = self.batch._forward_columns(ids, positions)[:, -1]
        return {id(sh.target): lp[i] for i, sh in enumerate(rows)}

    def rollback(self, st: DecodeState, history_len: int, accepted_emitted: int) -> None:
        """Truncate one row to its accepted history prefix.

        After drafting, the row holds the old history plus the first
        ``k_eff - 1`` proposals; of those proposals only the emitted
        accepted prefix survives in the *target's* history, so everything
        past ``history_len + accepted_emitted`` is stale."""
        shadow = self.shadows.get(id(st))
        if shadow is None:
            return
        length = self.row_length(shadow)
        entered = max(length - history_len, 0)
        keep = history_len + min(accepted_emitted, entered)
        self.batch.rollback_row(shadow, length - keep)


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
        self.model = model
        self.draft_model = draft_model
        self.tokenizer = tokenizer
        self.draft_tokenizer = draft_tokenizer
        self.draft_k = int(draft_k)
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
            self._drafter = _DrafterBatch(self.draft_model)
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

        Shares :meth:`DecoderLM.generate_batch`'s setup
        (:meth:`DecoderLM.prefill_batch`: same admission, same capacity) and
        finish semantics; greedy outputs are token-identical to it — only
        the number of target forwards differs.
        """
        rng = new_rng(rng) if temperature > 0 else None
        batch, states = self.model.prefill_batch(
            prompts,
            max_new_tokens,
            temperature=temperature,
            stop_ids=stop_ids,
            pad_id=pad_id,
            kv_layout=kv_layout,
            kv_dtype=kv_dtype,
        )
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
