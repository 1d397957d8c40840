"""Tests for the batched serving layer.

Pins the serving-subsystem invariants:

* fused QKV projection == unfused reference, and the fused rows keep the
  historical q/k/v rng streams, so seeded weights are unchanged;
* batched left-padded ``generate_batch`` == per-prompt sequential
  ``generate`` == the uncached reference, across ragged prompt lengths, and
  greedy decoding is deterministic under batch reordering;
* the LRU :class:`~repro.serving.PrefixCachePool` counts hits/misses,
  bounds its capacity via eviction, and pooled scoring matches unpooled
  (engine-level invariants live in ``test_continuous_batching.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from parity import assert_generations_equal, assert_logits_close
from repro.models import DecoderLM, get_config
from repro.models.decoder import PrefixCachedScorer, left_pad_batch
from repro.serving import PrefixCachePool
from repro.tensor import Tensor, no_grad

VOCAB = 64


@pytest.fixture(scope="module")
def model():
    m = DecoderLM(get_config("gpt2"), VOCAB, rng=0)
    m.eval()
    return m


@pytest.fixture()
def ragged_prompts():
    rng = np.random.default_rng(11)
    return [rng.integers(1, VOCAB, size=n) for n in (3, 9, 5, 12, 7, 4, 10, 6)]


# ---------------------------------------------------------------------- #
# fused QKV
# ---------------------------------------------------------------------- #
class TestFusedQKV:
    def test_fused_projection_matches_unfused_reference(self, model):
        """One (3H, H) matmul == three separate (H, H) matmuls on the slices."""
        attention = model.decoder.layers[0].attention
        h = attention.hidden_size
        x = np.random.default_rng(0).normal(size=(2, 5, h)).astype(np.float32)
        with no_grad():
            fused = attention.qkv_proj(Tensor(x)).data
        w = attention.qkv_proj.weight.data
        b = attention.qkv_proj.bias.data
        for block, name in ((0, "q"), (1, "k"), (2, "v")):
            ref = x @ w[block * h : (block + 1) * h].T + b[block * h : (block + 1) * h]
            assert_logits_close(
                fused[:, :, block * h : (block + 1) * h], ref, context=f"{name} projection"
            )

    def test_seeded_weights_unchanged_by_fusion(self, model):
        """The fused rows draw from the historical q/k/v rng streams."""
        from repro.nn.attention import MultiHeadAttention
        from repro.utils.rng import new_rng, spawn_rngs
        from repro.nn.layers import Linear

        attn = MultiHeadAttention(32, 4, dropout=0.0, causal=True, rng=1234)
        rngs = spawn_rngs(new_rng(1234), 5)
        q, k, v = (Linear(32, 32, rng=rngs[i]) for i in range(3))
        np.testing.assert_array_equal(attn.qkv_proj.weight.data[:32], q.weight.data)
        np.testing.assert_array_equal(attn.qkv_proj.weight.data[32:64], k.weight.data)
        np.testing.assert_array_equal(attn.qkv_proj.weight.data[64:], v.weight.data)
        np.testing.assert_array_equal(attn.qkv_proj.bias.data[:32], q.bias.data)


# ---------------------------------------------------------------------- #
# batched generation
# ---------------------------------------------------------------------- #
class TestGenerateBatch:
    def test_batched_matches_sequential_and_uncached(self, model, ragged_prompts):
        batched = model.generate_batch(ragged_prompts, max_new_tokens=10)
        sequential = [
            model.generate(p, max_new_tokens=10, use_cache=True) for p in ragged_prompts
        ]
        uncached = [
            model.generate(p, max_new_tokens=10, use_cache=False) for p in ragged_prompts
        ]
        assert_generations_equal(batched, sequential, context="batched vs sequential")
        assert_generations_equal(batched, uncached, context="batched vs uncached")

    def test_leftpad_prefill_logits_match_unpadded(self, model, ragged_prompts):
        """Per-row last-token logits of the padded prefill == per-prompt forward."""
        ids, mask, positions, lengths = left_pad_batch(ragged_prompts)
        max_len = int(lengths.max())
        batch = len(ragged_prompts)
        with no_grad():
            cache = model.make_cache(batch, max_len)
            padded = model.forward_incremental(
                ids, cache, attention_mask=mask, positions=positions
            ).data
            for i, p in enumerate(ragged_prompts):
                ref = model.forward(p[None, :]).data[0, -1]
                assert_logits_close(padded[i, -1], ref, context=f"row {i} (len {len(p)})")

    def test_greedy_deterministic_under_batch_reordering(self, model, ragged_prompts):
        order = [3, 0, 7, 5, 1, 6, 2, 4]
        base = model.generate_batch(ragged_prompts, max_new_tokens=8)
        shuffled = model.generate_batch(
            [ragged_prompts[i] for i in order], max_new_tokens=8
        )
        assert_generations_equal(
            shuffled, [base[i] for i in order], context="batch reordering"
        )

    def test_per_row_stop_tokens(self, model, ragged_prompts):
        greedy_first = int(np.argmax(model.next_token_log_probs(ragged_prompts[0])))
        outs = model.generate_batch(
            ragged_prompts[:3], max_new_tokens=8, stop_ids={greedy_first}
        )
        expected = [
            model.generate(p, max_new_tokens=8, stop_ids={greedy_first})
            for p in ragged_prompts[:3]
        ]
        assert_generations_equal(outs, expected, context="per-row stop")
        # Row 0 stops immediately on its greedy first token; rows stop independently.
        assert len(outs[0]) == len(ragged_prompts[0]) + 1
        assert outs[0][-1] == greedy_first

    def test_sampling_batch_shapes_and_bounds(self, model, ragged_prompts):
        outs = model.generate_batch(
            ragged_prompts[:4], max_new_tokens=6, temperature=0.7, rng=3
        )
        for prompt, out in zip(ragged_prompts[:4], outs):
            np.testing.assert_array_equal(out[: len(prompt)], prompt)
            assert len(prompt) < len(out) <= len(prompt) + 6
            assert out.min() >= 0 and out.max() < VOCAB

    def test_edge_cases(self, model):
        assert model.generate_batch([]) == []
        prompt = np.array([1, 2, 3])
        outs = model.generate_batch([prompt], max_new_tokens=0)
        assert_generations_equal(outs, [prompt], context="zero new tokens")
        with pytest.raises(ValueError):
            model.generate_batch([np.empty(0, dtype=np.int64)])
        too_long = np.zeros(model.config.max_position + 1, dtype=np.int64)
        with pytest.raises(ValueError):
            model.generate_batch([too_long])

    def test_context_limit_does_not_leak_across_rows(self, model):
        """A near-limit row must not truncate its batchmates' generations.

        The padded batch hits the context window long before the short row
        individually would; the short row's greedy output must still match
        what it gets decoded alone.
        """
        rng = np.random.default_rng(7)
        max_pos = model.config.max_position
        long_prompt = rng.integers(1, VOCAB, size=max_pos - 4)
        short_prompt = rng.integers(1, VOCAB, size=6)
        batched = model.generate_batch([long_prompt, short_prompt], max_new_tokens=12)
        expected = [
            model.generate(long_prompt, max_new_tokens=12),
            model.generate(short_prompt, max_new_tokens=12),
        ]
        assert_generations_equal(batched, expected, context="context-limit batch")


# ---------------------------------------------------------------------- #
# prefix-cache pool
# ---------------------------------------------------------------------- #
class TestPrefixCachePool:
    def test_hit_miss_and_token_reuse_accounting(self, model):
        pool = PrefixCachePool(model, max_entries=4)
        prompt = np.arange(1, 21, dtype=np.int64)
        cache, reused = pool.checkout(prompt)
        assert reused == 0 and pool.stats.misses == 1
        with no_grad():
            model.forward_incremental(prompt[None, :], cache)
        pool.checkin(prompt, cache)
        assert len(pool) == 1

        # A prompt sharing the first 12 tokens reuses exactly those positions.
        overlapping = np.concatenate([prompt[:12], np.array([40, 41, 42])])
        cache2, reused2 = pool.checkout(overlapping)
        assert reused2 == 12 and pool.stats.hits == 1
        assert cache2.length == 12
        assert pool.stats.tokens_reused == 12
        # Partial overlap hands out a *copy*: the 20-token entry survives for
        # its own prompt family and keeps its full prefill.
        assert len(pool) == 1
        cache3, reused3 = pool.checkout(prompt)
        assert reused3 == 20
        # Full coverage consumes the entry (the caller owns it exclusively).
        assert len(pool) == 0

    def test_lru_eviction_bounds_capacity(self, model):
        pool = PrefixCachePool(model, max_entries=2)
        prompts = [np.full(5, fill, dtype=np.int64) for fill in (1, 2, 3)]
        for p in prompts:
            cache, _ = pool.checkout(p)
            with no_grad():
                model.forward_incremental(p[None, :], cache)
            pool.checkin(p, cache)
        assert len(pool) == 2
        assert pool.stats.evictions == 1
        # The oldest entry (fill=1) was evicted; a re-checkout misses.
        _, reused = pool.checkout(prompts[0])
        assert reused == 0

    def test_lru_recency_protects_hot_entries(self, model):
        pool = PrefixCachePool(model, max_entries=2)
        a, b, c = (np.full(10, fill, dtype=np.int64) for fill in (7, 8, 9))
        for p in (a, b):
            cache, _ = pool.checkout(p)
            with no_grad():
                model.forward_incremental(p[None, :], cache)
            pool.checkin(p, cache)
        # Touch `a` so `b` becomes least recently used, then insert `c`.
        cache, reused = pool.checkout(a)
        assert reused == 10
        pool.checkin(a, cache)
        cache, _ = pool.checkout(c)
        with no_grad():
            model.forward_incremental(c[None, :], cache)
        pool.checkin(c, cache)
        _, reused_a = pool.checkout(a)
        assert reused_a == 10  # survived
        _, reused_b = pool.checkout(b)
        assert reused_b == 0  # evicted

    def test_tiny_overlap_does_not_steal_entries(self, model):
        """A BOS-only overlap must not check out (and wipe) another family.

        Every causal prompt shares at least the BOS token, so without the
        ``min_reuse_tokens`` floor two interleaved prompt families would
        keep truncating each other's prefills to one token.
        """
        pool = PrefixCachePool(model, max_entries=4, min_reuse_tokens=8)
        family_a = np.concatenate([[1], np.full(19, 5, dtype=np.int64)])
        family_b = np.concatenate([[1], np.full(19, 9, dtype=np.int64)])
        for prompt in (family_a, family_b):
            cache, reused = pool.checkout(prompt)
            assert reused == 0  # 1-token overlap is below the floor
            with no_grad():
                model.forward_incremental(prompt[None, :], cache)
            pool.checkin(prompt, cache)
        assert len(pool) == 2  # neither family displaced the other
        _, reused_a = pool.checkout(family_a)
        assert reused_a == 20  # full reuse on the exact match

    def test_checkin_validation_and_clear(self, model):
        pool = PrefixCachePool(model, max_entries=2)
        cache, _ = pool.checkout(np.arange(5))
        with no_grad():
            model.forward_incremental(np.arange(5)[None, :], cache)
        with pytest.raises(ValueError):
            pool.checkin(np.arange(3), cache)  # cache longer than prompt
        pool.checkin(np.arange(5), cache)
        assert len(pool) == 1
        pool.clear()
        assert len(pool) == 0
        with pytest.raises(ValueError):
            PrefixCachePool(model, max_entries=0)
        with pytest.raises(ValueError):
            PrefixCachePool(model, min_reuse_tokens=0)

    def test_shared_pool_is_per_model_singleton(self, model):
        assert PrefixCachePool.shared(model) is PrefixCachePool.shared(model)
        other = DecoderLM(get_config("gpt2"), VOCAB, rng=5)
        assert PrefixCachePool.shared(other) is not PrefixCachePool.shared(model)

    def test_pooled_scoring_matches_unpooled(self, model, ragged_prompts):
        pool = PrefixCachePool(model, max_entries=4)
        pooled = PrefixCachedScorer(model, pool=pool)
        candidates = [np.array([3]), np.array([4, 5])]
        shared_head = np.arange(1, 9, dtype=np.int64)
        prompts = [
            np.concatenate([shared_head, p]) for p in ragged_prompts[:4]
        ]
        for prompt in prompts:
            expected = model.score_continuations(prompt, candidates)
            got = pooled.score_continuations(prompt, candidates)
            assert_logits_close(got, expected, context="pooled scorer")
        # Later prompts found the shared head in the pool.
        assert pool.stats.hits >= len(prompts) - 1
