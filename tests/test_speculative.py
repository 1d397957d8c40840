"""Tests for speculative decoding (`repro.serving.speculative`).

Pins the properties the draft-then-verify loop must hold:

* greedy token identity — speculative output equals plain cached decode
  (and the uncached reference) for every KV layout (dense, paged fp32,
  paged int8) and every tested ``draft_k``, regardless of drafter quality;
* accept-rate extremes — an adversarial drafter (argmax-negated target)
  is never accepted yet changes nothing but throughput, while a drafter
  identical to the target is always accepted;
* rollback correctness — rows rolling back mid-batch (stop tokens, ragged
  budgets, fresh admissions mid-flight) leave their batchmates intact;
* engine integration — both engines decode staggered arrivals token-
  identically with a drafter, accept-rate statistics are sane, and the SLA
  identity queue + prefill + decode == wall survives multi-token steps;
* lossless sampling — at temperature > 0 the emitted distribution matches
  the plain sampler's (rejection sampling, checked distributionally);
* construction guards — mismatched vocab/tokenizer raise at construction.
"""

from __future__ import annotations

import numpy as np
import pytest

from parity import assert_generations_equal
from repro.models import DecoderLM, get_config
from repro.models.decoder import DecodeBatch, DecodeState
from repro.serving import ContinuousBatchingEngine, EngineConfig, SpeculativeDecoder

VOCAB = 64
STOP_IDS = {3, 5, 7}

KV_CONFIGS = [("dense", "fp32"), ("paged", "fp32"), ("paged", "int8")]


@pytest.fixture(scope="module")
def target():
    m = DecoderLM(get_config("mistral-7b"), VOCAB, rng=0)
    m.eval()
    return m


@pytest.fixture(scope="module")
def drafter():
    m = DecoderLM(get_config("gpt2"), VOCAB, rng=1)
    m.eval()
    return m


@pytest.fixture()
def ragged_prompts():
    rng = np.random.default_rng(17)
    return [rng.integers(1, VOCAB, size=n) for n in (4, 11, 6, 9, 5, 13)]


class _AdversarialDrafter:
    """Negates the target's logits: its argmax is the target's argmin, so
    greedy verification rejects every proposal — the worst possible
    drafter that still speaks the same vocabulary."""

    def __init__(self, inner: DecoderLM) -> None:
        self._inner = inner
        self.config = inner.config
        self.vocab_size = inner.vocab_size

    def make_cache(self, batch_size: int = 1, capacity: int | None = None):
        return self._inner.make_cache(batch_size, capacity)

    def forward_incremental(self, input_ids, cache, **kwargs):
        return -self._inner.forward_incremental(input_ids, cache, **kwargs)


# ---------------------------------------------------------------------- #
# greedy token identity
# ---------------------------------------------------------------------- #
class TestGreedyIdentity:
    @pytest.mark.parametrize("kv_layout,kv_dtype", KV_CONFIGS)
    @pytest.mark.parametrize("draft_k", [1, 2, 4, 8])
    def test_matches_plain_cached_and_uncached(
        self, target, drafter, ragged_prompts, kv_layout, kv_dtype, draft_k
    ):
        spec = SpeculativeDecoder(target, drafter, draft_k=draft_k)
        outputs = spec.generate_batch(
            ragged_prompts,
            12,
            stop_ids=STOP_IDS,
            kv_layout=kv_layout,
            kv_dtype=kv_dtype,
        )
        # The identity guarantee is against plain cached decode under the
        # *same* KV config — int8 quantisation may legitimately diverge
        # from the dense fp32 trace, but speculation must never add to it.
        cached = target.generate_batch(
            ragged_prompts, 12, stop_ids=STOP_IDS, kv_layout=kv_layout, kv_dtype=kv_dtype
        )
        assert_generations_equal(
            outputs, cached, context=f"speculative {kv_layout}/{kv_dtype} k={draft_k}"
        )
        if kv_dtype == "fp32":
            uncached = [
                target.generate(p, 12, stop_ids=STOP_IDS, use_cache=False)
                for p in ragged_prompts
            ]
            assert_generations_equal(
                outputs, uncached, context="speculative vs uncached"
            )
        assert spec.drafted > 0
        assert 0.0 <= spec.accept_rate <= 1.0

    def test_single_prompt_generate_matches(self, target, drafter, ragged_prompts):
        spec = SpeculativeDecoder(target, drafter, draft_k=4)
        for prompt in ragged_prompts[:3]:
            out = spec.generate(prompt, 10, stop_ids=STOP_IDS)
            ref = target.generate(prompt, 10, stop_ids=STOP_IDS)
            assert_generations_equal([out], [ref], context="single-prompt")


# ---------------------------------------------------------------------- #
# accept-rate extremes
# ---------------------------------------------------------------------- #
class TestAcceptRateExtremes:
    def test_adversarial_drafter_accepts_nothing_changes_nothing(
        self, target, ragged_prompts
    ):
        spec = SpeculativeDecoder(target, _AdversarialDrafter(target), draft_k=4)
        outputs = spec.generate_batch(ragged_prompts, 12, stop_ids=STOP_IDS)
        cached = target.generate_batch(ragged_prompts, 12, stop_ids=STOP_IDS)
        assert_generations_equal(outputs, cached, context="adversarial drafter")
        assert spec.drafted > 0
        assert spec.accepted == 0
        assert spec.accept_rate == 0.0

    def test_self_drafter_accepts_everything(self, target, ragged_prompts):
        # max_new_tokens divisible by draft_k + 1 and no stop ids: no step
        # ever truncates its emission, so every proposal is accepted.
        spec = SpeculativeDecoder(target, target, draft_k=4)
        outputs = spec.generate_batch(ragged_prompts, 10)
        cached = target.generate_batch(ragged_prompts, 10)
        assert_generations_equal(outputs, cached, context="self drafter")
        assert spec.drafted > 0
        assert spec.accepted == spec.drafted
        assert spec.accept_rate == 1.0
        # 10 tokens per row in ceil(10 / 5) = 2 verify steps.
        assert spec.steps == 2

    def test_per_state_counters_sum_to_decoder_totals(self, target, ragged_prompts):
        spec = SpeculativeDecoder(target, target, draft_k=2)
        batch = DecodeBatch(target, capacity=32)
        states = [
            DecodeState(prompt_ids=p, max_new_tokens=6) for p in ragged_prompts[:3]
        ]
        batch.admit_many(states)
        while batch.num_rows:
            spec.step(batch)
        assert sum(st.spec_drafted for st in states) == spec.drafted
        assert sum(st.spec_accepted for st in states) == spec.accepted


# ---------------------------------------------------------------------- #
# rollback / stepping-core integration
# ---------------------------------------------------------------------- #
class TestRollbackAndStepping:
    @pytest.mark.parametrize("kv_layout,kv_dtype", KV_CONFIGS)
    def test_mid_flight_admissions_roll_back_without_disturbing_rows(
        self, target, drafter, ragged_prompts, kv_layout, kv_dtype
    ):
        """Rows join a running speculative batch between steps: newcomers
        are normalised into the speculative invariant while their
        batchmates are mid-stream, and every output still matches the
        sequential reference."""
        spec = SpeculativeDecoder(target, drafter, draft_k=3)
        batch = DecodeBatch(target, capacity=32, kv_layout=kv_layout, kv_dtype=kv_dtype)
        states = [
            DecodeState(prompt_ids=p, max_new_tokens=10, stop_ids=frozenset(STOP_IDS))
            for p in ragged_prompts
        ]
        batch.admit_many(states[:2])
        spec.step(batch, None)
        for st in states[2:4]:
            batch.admit(st)
        spec.step(batch, None)
        for st in states[4:]:
            batch.admit(st)
        while batch.num_rows:
            spec.step(batch, None)
        reference = target.generate_batch(
            ragged_prompts, 10, stop_ids=STOP_IDS, kv_layout=kv_layout, kv_dtype=kv_dtype
        )
        assert_generations_equal(
            [st.output() for st in states],
            reference,
            context=f"mid-flight admissions {kv_layout}/{kv_dtype}",
        )

    @pytest.mark.parametrize("kv_layout,kv_dtype", KV_CONFIGS)
    def test_short_context_drafter_pads_past_its_window(
        self, target, kv_layout, kv_dtype
    ):
        """A drafter with a shorter context than the target: rows whose
        history outgrows it (or starts at or past it) leave the drafter
        batch and pad their proposals, and every output is still plain
        cached decode's."""
        short = DecoderLM(get_config("gpt2").scaled(max_position=16), VOCAB, rng=1)
        short.eval()
        rng = np.random.default_rng(23)
        prompts = [rng.integers(1, VOCAB, size=n) for n in (3, 7, 12, 16, 20)]
        spec = SpeculativeDecoder(target, short, draft_k=4)
        outputs = spec.generate_batch(
            prompts, 12, kv_layout=kv_layout, kv_dtype=kv_dtype
        )
        cached = target.generate_batch(
            prompts, 12, kv_layout=kv_layout, kv_dtype=kv_dtype
        )
        assert_generations_equal(
            outputs, cached, context=f"short-context drafter {kv_layout}/{kv_dtype}"
        )
        assert spec.drafted > 0

    def test_emission_truncates_at_stop_token_mid_burst(self, target, ragged_prompts):
        """A stop token accepted mid-burst ends the request exactly there —
        the tokens behind it in the same verified burst are discarded."""
        spec = SpeculativeDecoder(target, target, draft_k=4)
        outputs = spec.generate_batch(ragged_prompts, 12, stop_ids=STOP_IDS)
        for out, prompt in zip(outputs, ragged_prompts):
            generated = out[len(prompt) :]
            hits = [i for i, t in enumerate(generated) if int(t) in STOP_IDS]
            if hits:
                assert hits[0] == len(generated) - 1  # stop token is last
        # The self drafter accepts every proposal, so without per-token
        # checks a 12-token budget would overshoot on 5-token bursts.
        assert all(len(o) - len(p) <= 12 for o, p in zip(outputs, ragged_prompts))

    def test_plain_step_rejects_mid_speculative_rows(self, target, drafter):
        spec = SpeculativeDecoder(target, drafter, draft_k=2)
        batch = DecodeBatch(target, capacity=32)
        state = DecodeState(prompt_ids=np.array([4, 9, 2]), max_new_tokens=8)
        batch.admit(state)
        spec.step(batch, None)
        assert state.next_log_probs is None  # speculative invariant
        with pytest.raises(RuntimeError, match="SpeculativeDecoder"):
            batch.step()

    def test_single_token_prompt_normalises_to_empty_row(self, target, drafter):
        """Normalising a 1-token prompt empties its cache row (width 0) —
        the verify forward rebuilds it from the pending token alone."""
        spec = SpeculativeDecoder(target, drafter, draft_k=2)
        out = spec.generate(np.array([7]), 6)
        ref = target.generate(np.array([7]), 6)
        assert_generations_equal([out], [ref], context="1-token prompt")


# ---------------------------------------------------------------------- #
# engine integration
# ---------------------------------------------------------------------- #
class TestEngineIntegration:
    def _run_engine(self, model, prompts, **config_fields):
        config = EngineConfig(max_batch_rows=4, min_admit_rows=2, **config_fields)
        engine = ContinuousBatchingEngine(model, config=config)
        results = [None] * len(prompts)
        requests = []
        submitted = 0
        while submitted < len(prompts) or engine.has_work:
            for _ in range(2):
                if submitted < len(prompts):
                    requests.append(
                        engine.submit(
                            prompts[submitted], max_new_tokens=12, stop_ids=STOP_IDS
                        )
                    )
                    submitted += 1
            for request in engine.step():
                results[request.request_id] = request.result
        return results, requests, engine

    @pytest.mark.parametrize("kv_layout,kv_dtype", KV_CONFIGS)
    def test_staggered_arrivals_match_plain_engine(
        self, target, drafter, ragged_prompts, kv_layout, kv_dtype
    ):
        plain, _, _ = self._run_engine(
            target, ragged_prompts, kv_layout=kv_layout, kv_dtype=kv_dtype
        )
        spec, requests, engine = self._run_engine(
            target,
            ragged_prompts,
            kv_layout=kv_layout,
            kv_dtype=kv_dtype,
            draft_model=drafter,
            draft_k=4,
        )
        assert_generations_equal(
            spec, plain, context=f"speculative engine {kv_layout}/{kv_dtype}"
        )
        stats = engine.stats
        assert stats.drafted_tokens > 0
        assert 0.0 <= stats.accept_rate <= 1.0
        summary = stats.sla_summary()
        assert summary["drafted_tokens"] == stats.drafted_tokens
        assert summary["accept_rate"] == stats.accept_rate
        # SLA identity: queue + prefill + decode == wall, even when one
        # engine iteration emits several tokens.
        for request in requests:
            assert request.done
            total = (
                request.queue_seconds
                + request.prefill_seconds
                + request.decode_seconds
            )
            assert abs(total - request.wall_seconds) < 1e-9
            assert request.decode_steps == request.state.gen_len

    def test_high_accept_rate_engine_takes_fewer_steps(self, target, ragged_prompts):
        _, _, plain_engine = self._run_engine(target, ragged_prompts)
        spec, _, engine = self._run_engine(
            target, ragged_prompts, draft_model=target, draft_k=4
        )
        assert engine.stats.accept_rate > 0.5
        assert engine.stats.steps < plain_engine.stats.steps
        # Per-request counters mirror the engine totals.
        assert (
            engine.stats.accepted_draft_tokens <= engine.stats.drafted_tokens
        )


# ---------------------------------------------------------------------- #
# lossless sampling (temperature > 0)
# ---------------------------------------------------------------------- #
class TestSampling:
    def test_self_drafter_accepts_all_when_sampling(self, target):
        """With q == p the acceptance probability is exactly 1: rejection
        sampling never rejects, so the accept rate is 1 even at
        temperature > 0."""
        spec = SpeculativeDecoder(target, target, draft_k=3)
        prompt = np.array([5, 9, 2])
        out = spec.generate(prompt, 8, temperature=0.7, rng=0)
        assert len(out) == len(prompt) + 8
        assert spec.accepted == spec.drafted > 0

    def test_sampled_distribution_matches_plain_sampler(self):
        """First-token distribution under speculative rejection sampling is
        statistically indistinguishable from the plain sampler's (total
        variation within plain-vs-plain resampling noise)."""
        vocab = 32
        small_target = DecoderLM(get_config("gpt2"), vocab, rng=0).eval()
        small_drafter = DecoderLM(get_config("gpt2"), vocab, rng=1).eval()
        prompt = np.array([5, 9, 2])
        n = 250
        plain_a = np.zeros(vocab)
        plain_b = np.zeros(vocab)
        spec_counts = np.zeros(vocab)
        for i in range(n):
            plain_a[small_target.generate(prompt, 1, temperature=1.0, rng=1000 + i)[-1]] += 1
            plain_b[small_target.generate(prompt, 1, temperature=1.0, rng=9000 + i)[-1]] += 1
            spec = SpeculativeDecoder(small_target, small_drafter, draft_k=2)
            spec_counts[spec.generate(prompt, 1, temperature=1.0, rng=5000 + i)[-1]] += 1
        tv_control = 0.5 * np.abs(plain_a - plain_b).sum() / n
        tv_spec = 0.5 * np.abs(plain_a - spec_counts).sum() / n
        assert tv_spec < tv_control + 0.1

    def test_requires_rng_for_sampling_rows(self, target, drafter):
        spec = SpeculativeDecoder(target, drafter, draft_k=2)
        batch = DecodeBatch(target, capacity=32)
        batch.admit(
            DecodeState(prompt_ids=np.array([4, 9]), max_new_tokens=4, temperature=0.8)
        )
        with pytest.raises(ValueError, match="rng"):
            spec.step(batch, None)


# ---------------------------------------------------------------------- #
# construction guards
# ---------------------------------------------------------------------- #
class TestConstructionGuards:
    def test_vocab_mismatch_raises(self, target):
        other = DecoderLM(get_config("gpt2"), VOCAB + 1, rng=2)
        with pytest.raises(ValueError, match="vocab"):
            SpeculativeDecoder(target, other)

    def test_tokenizer_mismatch_raises(self, target, drafter):
        with pytest.raises(ValueError, match="tokenizer"):
            SpeculativeDecoder(
                target, drafter, tokenizer=object(), draft_tokenizer=object()
            )
        # Shared tokenizer (the registry case) passes the guard.
        shared = object()
        SpeculativeDecoder(target, drafter, tokenizer=shared, draft_tokenizer=shared)

    def test_nonpositive_draft_k_raises(self, target, drafter):
        with pytest.raises(ValueError, match="draft_k"):
            SpeculativeDecoder(target, drafter, draft_k=0)

    def test_from_registry_shares_tokenizer(self, registry):
        spec = SpeculativeDecoder.from_registry(registry, "mistral-7b", "gpt2")
        assert spec.model.vocab_size == spec.draft_model.vocab_size
        assert spec.tokenizer is registry.tokenizer
        assert spec.draft_tokenizer is registry.tokenizer
