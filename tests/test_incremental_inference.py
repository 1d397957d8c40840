"""Cache-correctness tests for the incremental-inference subsystem.

Every cached path (incremental forward, cached generate, cached
sequence_log_prob, shared-prefix score_continuations, the prefix-cached ICL
engine and streaming detector) must agree with the uncached reference to
float32 tolerance — including padded batches, prompts at ``max_position``
and cache truncation at the context limit.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.detection import ICLStreamingDetector
from repro.icl import FewShotSelector, ICLEngine
from repro.models.config import get_config
from repro.models.decoder import (
    DecoderLM,
    PrefixCachedScorer,
    common_prefix_length,
    left_pad_batch,
)
from repro.models.lora import LoRALinear, apply_lora
from repro.models.quantization import quantize_model
from repro.nn import KVCache, Module, SharedPrefixKVCache
from repro.serving import PrefixCachePool
from repro.tensor import Tensor, no_grad

from parity import assert_logits_close

VOCAB = 43
MAX_POS = 48


@pytest.fixture(scope="module")
def model():
    config = get_config("gpt2").scaled(max_position=MAX_POS)
    return DecoderLM(config, vocab_size=VOCAB, rng=12).eval()


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


def random_ids(rng, *shape):
    return rng.integers(0, VOCAB, size=shape)


class TestKVCache:
    def test_append_truncate_and_overflow(self):
        cache = KVCache(num_layers=2, batch_size=1, num_heads=2, head_dim=4, capacity=6)
        k = np.ones((1, 2, 4, 4), dtype=np.float32)
        for layer in cache.layers:
            layer.append(k, k)
        assert cache.length == 4
        cache.truncate(2)
        assert cache.length == 2
        with pytest.raises(ValueError):
            cache.layers[0].append(np.ones((1, 2, 5, 4), dtype=np.float32), k)
        with pytest.raises(ValueError):
            cache.truncate(9)

    def test_shared_prefix_cache_holds_prefix_once(self):
        cache = KVCache(num_layers=1, batch_size=1, num_heads=2, head_dim=3, capacity=5)
        k = np.arange(2 * 4 * 3, dtype=np.float32).reshape(1, 2, 4, 3)
        cache.layers[0].append(k, k * 2)
        prefix = SharedPrefixKVCache.read_prefix(cache)
        shared = SharedPrefixKVCache(prefix, 3, 2)
        assert shared.batch_size == 3 and shared.length == 4
        layer = shared.layers[0]
        # The dense prefix is a zero-copy view, read once for every row.
        assert np.shares_memory(layer.prefix_k, cache.layers[0].keys)
        np.testing.assert_array_equal(layer.prefix_k, k[0])
        np.testing.assert_array_equal(layer.prefix_v, 2 * k[0])
        suffix = np.ones((3, 2, 2, 3), dtype=np.float32)
        keys, values = layer.append(suffix, -suffix)
        assert shared.length == 6 and keys.shape == (3, 2, 2, 3)
        np.testing.assert_array_equal(values, -suffix)
        assert shared.kv_bytes() == 2 * (k[0].nbytes + suffix.nbytes)
        with pytest.raises(ValueError):
            layer.append(suffix[:, :, :1], suffix[:, :, :1])
        # the source cache is untouched
        assert cache.length == 4 and cache.batch_size == 1

    def test_layer_count_mismatch_rejected(self, model, rng):
        bad = KVCache(num_layers=5, batch_size=1, num_heads=4, head_dim=12, capacity=8)
        with pytest.raises(ValueError):
            model.forward_incremental(random_ids(rng, 1, 4), bad)


class TestIncrementalForward:
    def test_chunked_matches_full(self, model, rng):
        ids = random_ids(rng, 3, 30)
        with no_grad():
            full = model.forward(ids).data
            cache = model.make_cache(3)
            parts, pos = [], 0
            for chunk in (1, 9, 2, 11, 7):
                parts.append(model.forward_incremental(ids[:, pos : pos + chunk], cache).data)
                pos += chunk
            incremental = np.concatenate(parts, axis=1)
        np.testing.assert_allclose(full, incremental, rtol=1e-5, atol=1e-5)

    def test_prompt_at_max_position(self, model, rng):
        ids = random_ids(rng, 1, MAX_POS)
        with no_grad():
            full = model.forward(ids).data
            cache = model.make_cache(1)
            a = model.forward_incremental(ids[:, : MAX_POS - 5], cache).data
            b = model.forward_incremental(ids[:, MAX_POS - 5 :], cache).data
        np.testing.assert_allclose(full, np.concatenate([a, b], axis=1), rtol=1e-5, atol=1e-5)

    def test_context_limit_enforced_then_truncation_recovers(self, model, rng):
        ids = random_ids(rng, 1, MAX_POS)
        cache = model.make_cache(1)
        with no_grad():
            model.forward_incremental(ids, cache)
            with pytest.raises(ValueError):
                model.forward_incremental(random_ids(rng, 1, 1), cache)
            # rolling the cache back under the limit makes room again
            cache.truncate(MAX_POS - 4)
            out = model.forward_incremental(random_ids(rng, 1, 4), cache)
        assert out.shape == (1, 4, VOCAB)

    def test_batch_mismatch_rejected(self, model, rng):
        cache = model.make_cache(2)
        with pytest.raises(ValueError):
            model.forward_incremental(random_ids(rng, 1, 4), cache)


def adapted_model(model, *, bits=None, lora=False):
    """An eval-mode copy of ``model`` with ``bits``-bit base projections and/or
    LoRA adapters whose update is non-zero (so it shows in the logits)."""
    adapted = copy.deepcopy(model)
    if bits is not None:
        quantize_model(adapted, bits=bits)
    if lora:
        apply_lora(adapted, rank=4, alpha=8.0, rng=0)
        rng = np.random.default_rng(1)
        for module in adapted.modules():
            if isinstance(module, LoRALinear):
                module.lora_b.data = rng.normal(0.0, 0.05, module.lora_b.shape).astype(np.float32)
    return adapted.eval()


#: The parity table: every case forwards left-padded ragged prompts (or,
#: for the shared prefix, right-padded suffix rows) with a padding mask,
#: explicit positions and ``logit_columns``, in two chunks, and must match
#: the uncached ``forward`` of each row's real tokens.  int8 paged storage
#: quantizes only at sharing and pooling boundaries, so a private cache's
#: logits stay float32-exact.
PARITY_CASES = {
    "dense": dict(cache="dense"),
    "paged_fp32": dict(cache="fp32"),
    "paged_int8": dict(cache="int8"),
    "shared_prefix": dict(cache="shared"),
    "lora": dict(cache="dense", lora=True),
    "quantized_4bit": dict(cache="fp32", bits=4),
    "qlora_4bit": dict(cache="dense", bits=4, lora=True),
}


class TestForwardIncrementalParity:
    @staticmethod
    def reference(model, tokens: np.ndarray) -> np.ndarray:
        with no_grad():
            return model.forward(tokens[None, :]).data[0]

    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_matches_uncached_forward(self, model, rng, case):
        spec = PARITY_CASES[case]
        m = adapted_model(model, bits=spec.get("bits"), lora=spec.get("lora", False))
        if spec["cache"] == "shared":
            self.check_shared_prefix(m, rng)
        else:
            self.check_left_padded(m, rng, spec["cache"])

    def check_left_padded(self, m, rng, layout):
        prompts = [random_ids(rng, n) for n in (9, 4, 13)]
        ids, mask, positions, lengths = left_pad_batch(prompts)
        batch, width = ids.shape
        split = 6
        cache = (
            m.make_cache(batch, width)
            if layout == "dense"
            else m.make_paged_cache(batch, width, kv_dtype=layout)
        )
        columns = np.array([[4, 6], [5, 6], [0, 6]])  # real tokens of chunk two
        with no_grad():
            m.forward_incremental(
                ids[:, :split], cache, attention_mask=mask[:, :split], positions=positions[:, :split]
            )
            got = m.forward_incremental(
                ids[:, split:],
                cache,
                attention_mask=mask,
                positions=positions[:, split:],
                logit_columns=columns,
            ).data
        for r, prompt in enumerate(prompts):
            pad = width - lengths[r]
            want = self.reference(m, prompt)[split + columns[r] - pad]
            assert_logits_close(got[r], want, atol=1e-6, context=f"row {r}")
        if layout != "dense":
            cache.release()

    def check_shared_prefix(self, m, rng):
        prefix = random_ids(rng, 11)
        suffixes = [random_ids(rng, n) for n in (5, 2, 4)]
        batch, width = len(suffixes), max(len(s) for s in suffixes)
        rows = np.zeros((batch, width), dtype=np.int64)
        for r, suffix in enumerate(suffixes):
            rows[r, : len(suffix)] = suffix  # right padding: never attended
        positions = np.broadcast_to(len(prefix) + np.arange(width), rows.shape)
        with no_grad():
            shared = shared_prefix_cache(m, prefix, batch, width)
            m.forward_incremental(rows[:, :1], shared, positions=positions[:, :1])
            last = np.array([[len(s) - 2, 0] for s in suffixes]).clip(0)
            got = m.forward_incremental(
                rows[:, 1:], shared, positions=positions[:, 1:], logit_columns=last
            ).data
        for r, suffix in enumerate(suffixes):
            want = self.reference(m, np.concatenate([prefix, suffix]))[len(prefix) + 1 + last[r]]
            assert_logits_close(got[r], want, atol=1e-6, context=f"row {r}")

    def test_train_mode_raises(self, model, rng):
        trained = copy.deepcopy(model).train()
        with pytest.raises(RuntimeError, match="eval-only"):
            trained.forward_incremental(random_ids(rng, 1, 3), trained.make_cache(1))

    @pytest.mark.parametrize("case", ["dense", "paged_int8", "shared_prefix", "qlora_4bit"])
    def test_builds_one_tensor_and_calls_no_module(self, model, rng, monkeypatch, case):
        """Cached inference runs on plain arrays: the returned logits are
        its only Tensor, and no Module.__call__ dispatch happens."""
        spec = PARITY_CASES[case]
        m = adapted_model(model, bits=spec.get("bits"), lora=spec.get("lora", False))
        with no_grad():
            if spec["cache"] == "shared":
                cache = shared_prefix_cache(m, random_ids(rng, 8), 2, 4)
            elif spec["cache"] == "dense":
                cache = m.make_cache(2, 12)
            else:
                cache = m.make_paged_cache(2, 12, kv_dtype=spec["cache"])
            counts = {"tensors": 0, "calls": 0}
            tensor_init, module_call = Tensor.__init__, Module.__call__

            def counting_init(self, *args, **kwargs):
                counts["tensors"] += 1
                tensor_init(self, *args, **kwargs)

            def counting_call(self, *args, **kwargs):
                counts["calls"] += 1
                return module_call(self, *args, **kwargs)

            monkeypatch.setattr(Tensor, "__init__", counting_init)
            monkeypatch.setattr(Module, "__call__", counting_call)
            logits = m.forward_incremental(random_ids(rng, 2, 3), cache, logit_columns=[-1])
            monkeypatch.undo()
        assert isinstance(logits, Tensor) and logits.shape == (2, 1, VOCAB)
        assert counts == {"tensors": 1, "calls": 0}


def shared_prefix_cache(model, prefix_ids, rows, capacity):
    """A :class:`SharedPrefixKVCache` of ``rows`` rows over ``prefix_ids``."""
    base = model.make_cache(1, len(prefix_ids))
    model.forward_incremental(prefix_ids[None, :], base)
    return SharedPrefixKVCache(SharedPrefixKVCache.read_prefix(base), rows, capacity)


class TestPrunedLastLayer:
    """``logit_columns`` runs the last layer at the read columns only."""

    @pytest.mark.parametrize("layout", ["dense", "paged", "shared_prefix"])
    def test_selected_columns_match_full_forward(self, model, rng, layout):
        prefix, ids = random_ids(rng, 9), random_ids(rng, 3, 7)
        columns = np.array([[6, 0], [3, 3], [-1, 2]])
        with no_grad():
            full = model.forward(
                np.concatenate([np.broadcast_to(prefix, (3, 9)), ids], axis=1)
            ).data[:, 9:]
            if layout == "shared_prefix":
                cache = shared_prefix_cache(model, prefix, 3, 7)
            else:
                make = model.make_cache if layout == "dense" else model.make_paged_cache
                cache = make(3, 16)
                model.forward_incremental(np.broadcast_to(prefix, (3, 9)), cache)
            pruned = model.forward_incremental(ids, cache, logit_columns=columns).data
            # Every new token still appended its keys/values in every layer.
            assert cache.length == 16
        want = full[np.arange(3)[:, None], columns % 7]
        assert pruned.shape == (3, 2, VOCAB)
        np.testing.assert_allclose(pruned, want, rtol=1e-5, atol=1e-6)

    def test_one_dimensional_columns_apply_to_every_row(self, model, rng):
        ids = random_ids(rng, 2, 6)
        with no_grad():
            full = model.forward(ids).data
            last = model.forward_incremental(ids, model.make_cache(2), logit_columns=[-1])
            both = model.forward_incremental(
                ids, model.make_cache(2), logit_columns=[1, 4]
            )
        np.testing.assert_allclose(last.data, full[:, -1:], rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(both.data, full[:, [1, 4]], rtol=1e-5, atol=1e-6)

    def test_pruned_prefill_then_decode_matches(self, model, rng):
        """The skipped columns' keys/values are real: decoding on from a
        pruned prefill matches decoding on from a full one."""
        ids, step = random_ids(rng, 2, 10), random_ids(rng, 2, 1)
        pruned_cache, full_cache = model.make_cache(2), model.make_cache(2)
        with no_grad():
            model.forward_incremental(ids, pruned_cache, logit_columns=[-1])
            model.forward_incremental(ids, full_cache)
            a = model.forward_incremental(step, pruned_cache).data
            b = model.forward_incremental(step, full_cache).data
        np.testing.assert_array_equal(a, b)

    def test_bad_columns_rejected(self, model, rng):
        ids = random_ids(rng, 2, 4)
        for columns in ([4], [-5], np.zeros((3, 1), dtype=np.int64)):
            with pytest.raises(ValueError), no_grad():
                model.forward_incremental(ids, model.make_cache(2), logit_columns=columns)


#: Suffix chunks for the shared-prefix attention: its prefix part runs once
#: per distinct query vector, and first-layer queries repeat wherever rows
#: hold the same token at the same position.
DEDUP_CHUNKS = {
    "duplicate_rows": np.array(
        [[5, 9, 9, 2, 7, 3], [8, 1, 4, 4, 0, 6], [5, 9, 9, 2, 7, 3], [8, 1, 4, 4, 0, 6]]
    ),
    "shared_leading_tokens": np.array(
        [[5, 9, 9, 2, 7, 3], [5, 9, 9, 11, 0, 6], [5, 9, 30, 2, 7, 3]]
    ),
    # Every position holds a different token in every row.
    "no_duplicates": (np.arange(6) * 5 + np.arange(3)[:, None]) % VOCAB,
}


class TestSharedPrefixDedup:
    """Shared-prefix attention is row-exact: each row matches a per-row
    forward over the same prefix keys/values."""

    @staticmethod
    def read_prefix(model, prefix_ids, layout):
        if layout == "dense":
            base = model.make_cache(1, max(len(prefix_ids), 1))
        else:
            base = model.make_paged_cache(1, len(prefix_ids), kv_dtype=layout)
        if len(prefix_ids):
            model.forward_incremental(prefix_ids[None, :], base)
        return base, SharedPrefixKVCache.read_prefix(base)

    @pytest.mark.parametrize("pruned", [False, True], ids=["full", "query_columns"])
    @pytest.mark.parametrize("chunk", sorted(DEDUP_CHUNKS))
    @pytest.mark.parametrize("layout", ["dense", "fp32", "int8", "empty_prefix"])
    def test_rows_match_per_row_forward(self, model, layout, chunk, pruned):
        ids = DEDUP_CHUNKS[chunk]
        batch, seq = ids.shape
        prefix_ids = np.arange(16) % 13 if layout != "empty_prefix" else np.arange(0)
        columns = np.array([[seq - 1, 2], [0, 0], [3, seq - 1], [1, 4]])[:batch]
        columns = columns if pruned else None
        with no_grad():
            base, prefix = self.read_prefix(
                model, prefix_ids, "dense" if layout == "empty_prefix" else layout
            )
            shared = SharedPrefixKVCache(prefix, batch, seq)
            got = model.forward_incremental(ids, shared, logit_columns=columns).data
            for r in range(batch):
                # The reference row holds the very prefix arrays the shared
                # read returned (int8: dequantized) in a dense cache.
                cache = model.make_cache(1, len(prefix_ids) + seq)
                for layer, (k, v) in zip(cache.layers, prefix):
                    layer.append(k[None], v[None])
                row_columns = None if columns is None else columns[r : r + 1]
                want = model.forward_incremental(ids[r : r + 1], cache, logit_columns=row_columns)
                np.testing.assert_allclose(got[r], want.data[0], rtol=1e-5, atol=1e-6)
        if layout in ("fp32", "int8"):
            base.release()

    def test_hash_collision_falls_back_to_exact_grouping(self, model, monkeypatch):
        """With every row hashing alike, the exact check catches the
        collision and the rows are grouped by their bytes instead."""
        from repro.nn import attention

        ids = DEDUP_CHUNKS["shared_leading_tokens"]
        with no_grad():
            _, prefix = self.read_prefix(model, np.arange(16) % 13, "dense")
            want = model.forward_incremental(
                ids, SharedPrefixKVCache(prefix, *ids.shape)
            ).data
            monkeypatch.setattr(
                attention, "_hash_multipliers", lambda n: np.zeros(n, dtype=np.uint64)
            )
            got = model.forward_incremental(ids, SharedPrefixKVCache(prefix, *ids.shape)).data
        np.testing.assert_array_equal(got, want)


class TestCachedGenerate:
    def test_greedy_identical(self, model, rng):
        prompt = random_ids(rng, 10)
        cached = model.generate(prompt, max_new_tokens=25, use_cache=True)
        uncached = model.generate(prompt, max_new_tokens=25, use_cache=False)
        np.testing.assert_array_equal(cached, uncached)
        assert len(cached) == 35

    def test_sampled_identical(self, model, rng):
        prompt = random_ids(rng, 6)
        cached = model.generate(prompt, max_new_tokens=20, temperature=0.7, rng=5, use_cache=True)
        uncached = model.generate(prompt, max_new_tokens=20, temperature=0.7, rng=5, use_cache=False)
        np.testing.assert_array_equal(cached, uncached)

    def test_stop_ids_respected(self, model, rng):
        prompt = random_ids(rng, 8)
        reference = model.generate(prompt, max_new_tokens=20, use_cache=False)
        stop = {int(reference[len(prompt) + 2])}
        cached = model.generate(prompt, max_new_tokens=20, stop_ids=stop, use_cache=True)
        uncached = model.generate(prompt, max_new_tokens=20, stop_ids=stop, use_cache=False)
        np.testing.assert_array_equal(cached, uncached)
        assert int(cached[-1]) in stop

    def test_prompt_at_context_limit_returned_unchanged(self, model, rng):
        prompt = random_ids(rng, MAX_POS)
        out = model.generate(prompt, max_new_tokens=5, use_cache=True)
        np.testing.assert_array_equal(out, prompt)

    def test_generation_stops_at_context_limit(self, model, rng):
        prompt = random_ids(rng, MAX_POS - 3)
        cached = model.generate(prompt, max_new_tokens=10, use_cache=True)
        uncached = model.generate(prompt, max_new_tokens=10, use_cache=False)
        np.testing.assert_array_equal(cached, uncached)
        assert len(cached) == MAX_POS


class TestCachedScoring:
    def test_sequence_log_prob_with_cache(self, model, rng):
        seq = random_ids(rng, 30)
        reference = model.sequence_log_prob(seq, 22)
        for prefill in (0, 5, 21, 22, 28):
            cache = model.make_cache(1)
            if prefill:
                with no_grad():
                    model.forward_incremental(seq[None, :prefill], cache)
            assert np.isclose(
                model.sequence_log_prob(seq, 22, cache=cache), reference, rtol=1e-5
            )

    def test_score_continuations_matches_sequence_log_prob(self, model, rng):
        prompt = random_ids(rng, 15)
        candidates = [np.array([4]), np.array([9, 1, 30, 2]), np.array([9, 1])]
        scores = model.score_continuations(prompt, candidates)
        reference = [
            model.sequence_log_prob(np.concatenate([prompt, c]), len(prompt))
            for c in candidates
        ]
        np.testing.assert_allclose(scores, reference, rtol=1e-5, atol=1e-6)

    def test_score_continuations_padded_batch_order_invariant(self, model, rng):
        """Right padding must not leak into shorter candidates' scores."""
        prompt = random_ids(rng, 12)
        short, long = np.array([3, 7]), np.array([3, 7, 11, 2, 40])
        together = model.score_continuations(prompt, [short, long])
        alone = model.score_continuations(prompt, [short])
        np.testing.assert_allclose(together[0], alone[0], rtol=1e-6)

    def test_score_continuations_context_limit(self, model, rng):
        prompt = random_ids(rng, MAX_POS - 1)
        assert np.isfinite(model.score_continuations(prompt, [np.array([1])])[0])
        with pytest.raises(ValueError):
            model.score_continuations(prompt, [np.array([1, 2])])

    def test_prefix_scorer_reuses_and_matches(self, model, rng):
        scorer = PrefixCachedScorer(model)
        base = random_ids(rng, 14)
        cands = [np.array([2]), np.array([5, 6])]
        first = scorer.score_continuations(base, cands)
        np.testing.assert_allclose(first, model.score_continuations(base, cands), rtol=1e-5)
        # extend the prompt: cache reused up to the shared prefix
        extended = np.concatenate([base, random_ids(rng, 6)])
        second = scorer.score_continuations(extended, cands)
        assert scorer.cached_tokens == len(extended)
        np.testing.assert_allclose(
            second, model.score_continuations(extended, cands), rtol=1e-5, atol=1e-6
        )
        # diverge early: cache must roll back, not reuse stale keys
        diverged = extended.copy()
        diverged[3] = (diverged[3] + 1) % VOCAB
        third = scorer.score_continuations(diverged, cands)
        np.testing.assert_allclose(
            third, model.score_continuations(diverged, cands), rtol=1e-5, atol=1e-6
        )

    def test_common_prefix_length(self):
        a = np.array([1, 2, 3, 4])
        assert common_prefix_length(a, np.array([1, 2, 9])) == 2
        assert common_prefix_length(a, a) == 4
        assert common_prefix_length(a, np.empty(0, dtype=np.int64)) == 0


class TestDecoderRngIsolation:
    def test_same_seed_same_weights(self):
        config = get_config("gpt2").scaled(max_position=MAX_POS)
        a = DecoderLM(config, vocab_size=VOCAB, rng=3)
        b = DecoderLM(config, vocab_size=VOCAB, rng=3)
        for (name, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data, err_msg=name)

    def test_dropout_rng_distinct_from_decoder_rng(self):
        config = get_config("gpt2").scaled(max_position=MAX_POS, dropout=0.5)
        model = DecoderLM(config, vocab_size=VOCAB, rng=3).train()
        # the embedding-dropout stream must not be the decoder's weight rng
        # replayed: two models from the same seed draw identical dropout
        # masks, but the mask must differ from what the decoder rng would
        # produce next (regression test for the shared rngs[2] bug).
        first_layer_dropout = model.decoder.layers[0].attention.attn_dropout.rng
        assert model.embedding_dropout.rng is not first_layer_dropout


class TestCachedEngineMatchesReference:
    @pytest.fixture(scope="class")
    def engines(self, registry):
        # eval() pins dropout off: cached/uncached agreement is only defined
        # for deterministic forwards (registry cache-hit reloads return the
        # model in train mode).
        model = registry.load_decoder("gpt2").eval()
        return (
            ICLEngine(model, registry.tokenizer),
            ICLEngine(model, registry.tokenizer, use_cache=False),
        )

    def test_zero_shot_batch(self, engines, small_dataset):
        cached, reference = engines
        queries = small_dataset.test.subsample(10, rng=4).records
        a = cached.classify_batch(queries)
        b = reference.classify_batch(queries)
        assert [p.label for p in a] == [p.label for p in b]
        for pa, pb in zip(a, b):
            assert np.isclose(pa.log_prob_normal, pb.log_prob_normal, rtol=1e-4, atol=1e-5)
            assert np.isclose(pa.log_prob_abnormal, pb.log_prob_abnormal, rtol=1e-4, atol=1e-5)

    def test_fewshot_batch_shared_examples(self, engines, small_dataset):
        cached, reference = engines
        queries = small_dataset.test.subsample(8, rng=5).records
        pool = small_dataset.train.records[:100]
        a = cached.classify_batch(
            queries, selector=FewShotSelector(pool, mode="mixed", seed=0), num_examples=4
        )
        b = reference.classify_batch(
            queries, selector=FewShotSelector(pool, mode="mixed", seed=0), num_examples=4
        )
        assert [p.label for p in a] == [p.label for p in b]
        for pa, pb in zip(a, b):
            assert np.isclose(pa.log_prob_normal, pb.log_prob_normal, rtol=1e-4, atol=1e-5)
            assert np.isclose(pa.log_prob_abnormal, pb.log_prob_abnormal, rtol=1e-4, atol=1e-5)

    def test_multi_token_categories_match_reference(self, engines, small_dataset):
        """Categories of several tokens score one row per (prompt, category);
        rows of different widths share a chunk."""
        cached, _ = engines
        normal = int(cached._category_ids["Normal"][0])
        abnormal = int(cached._category_ids["Abnormal"][0])
        category_ids = {
            "Normal": np.array([normal, 5], dtype=np.int64),
            "Abnormal": np.array([abnormal, 6, 7], dtype=np.int64),
        }
        pair = [
            ICLEngine(cached.model, cached.tokenizer, batch_size=3),
            ICLEngine(cached.model, cached.tokenizer, use_cache=False),
        ]
        for engine in pair:
            engine._category_ids = category_ids
            engine._max_category_len = 3
        queries = small_dataset.test.subsample(5, rng=9).records
        pool = small_dataset.train.records[:100]
        a, b = (
            engine.classify_batch(
                queries, selector=FewShotSelector(pool, mode="mixed", seed=3), num_examples=2
            )
            for engine in pair
        )
        assert [p.label for p in a] == [p.label for p in b]
        for pa, pb in zip(a, b):
            assert np.isclose(pa.log_prob_normal, pb.log_prob_normal, rtol=1e-4, atol=1e-5)
            assert np.isclose(pa.log_prob_abnormal, pb.log_prob_abnormal, rtol=1e-4, atol=1e-5)

    def test_resample_per_query_matches(self, engines, small_dataset):
        cached, reference = engines
        queries = small_dataset.test.subsample(5, rng=6).records
        pool = small_dataset.train.records[:100]
        a = cached.classify_batch(
            queries,
            selector=FewShotSelector(pool, mode="mixed", seed=1),
            num_examples=2,
            resample_per_query=True,
        )
        b = reference.classify_batch(
            queries,
            selector=FewShotSelector(pool, mode="mixed", seed=1),
            num_examples=2,
            resample_per_query=True,
        )
        assert [p.label for p in a] == [p.label for p in b]

    def test_anomaly_scores_accepts_resample_flag(self, engines, small_dataset):
        cached, _ = engines
        queries = small_dataset.test.subsample(4, rng=8).records
        pool = small_dataset.train.records[:100]
        resampled = cached.anomaly_scores(
            queries,
            selector=FewShotSelector(pool, mode="mixed", seed=2),
            num_examples=2,
            resample_per_query=True,
        )
        fixed = cached.anomaly_scores(
            queries,
            selector=FewShotSelector(pool, mode="mixed", seed=2),
            num_examples=2,
        )
        assert resampled.shape == fixed.shape == (4,)
        assert np.all((resampled >= 0) & (resampled <= 1))

    def test_overlong_prompt_truncation_matches(self, engines, small_dataset):
        cached, reference = engines
        pool = small_dataset.train.records[:200]
        examples = FewShotSelector(pool, mode="mixed", seed=0).select(30)
        query = small_dataset.test.records[0]
        assert cached.classify(query, examples).label == reference.classify(query, examples).label


class TestICLStreamingDetector:
    def test_stream_matches_fresh_classification(self, registry, small_dataset):
        model = registry.load_decoder("gpt2").eval()
        engine = ICLEngine(model, registry.tokenizer)
        reference = ICLEngine(model, registry.tokenizer, use_cache=False)
        detector = ICLStreamingDetector(engine)
        record = small_dataset.test.records[0]
        predictions = list(detector.stream(record))
        assert len(predictions) == len(
            [f for f in detector.feature_order if f in record.features]
        )
        for prediction in predictions:
            assert prediction.label == reference.classify(prediction.sentence).label
            assert 0.0 <= prediction.score <= 1.0

    def test_fresh_empty_pool_is_the_one_used(self, registry, small_dataset):
        model = registry.load_decoder("gpt2").eval()
        engine = ICLEngine(model, registry.tokenizer, cache_pool=PrefixCachePool(model))
        pool = PrefixCachePool(model)
        detector = ICLStreamingDetector(engine, pool=pool)
        assert detector._scorer.pool is pool
        list(detector.stream(small_dataset.test.records[0]))
        assert len(pool) > 0 and len(engine.cache_pool) == 0

    def test_detect_and_first_correct_step(self, registry, small_dataset):
        engine = ICLEngine(registry.load_decoder("gpt2").eval(), registry.tokenizer)
        detector = ICLStreamingDetector(engine)
        labeled = [r for r in small_dataset.test.records[:5] if r.label is not None]
        for record in labeled:
            step = detector.first_correct_step(record)
            assert step is None or step >= 1
