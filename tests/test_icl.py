"""Tests for prompts, few-shot selection, the ICL engine, CoT and LoRA fine-tuning."""

from __future__ import annotations

import numpy as np
import pytest

from repro.icl import (
    CATEGORY_ABNORMAL,
    CATEGORY_NORMAL,
    ChainOfThoughtExplainer,
    FewShotSelector,
    ICLEngine,
    ICLFineTuneConfig,
    ICLFineTuner,
    PromptTemplate,
    build_prompt,
    build_task_description,
    format_example,
)
from repro.icl.prompts import CATEGORIES
from repro.models.decoder import common_prefix_length
from repro.serving import PrefixCachePool
from repro.tensor import no_grad
from repro.tokenization.templates import JobRecord


@pytest.fixture(scope="module")
def decoder_engine(registry):
    model = registry.load_decoder("gpt2")
    return ICLEngine(model, registry.tokenizer)


def record(label=0, runtime=100.0):
    return JobRecord(
        features={"wms_delay": 5.0, "queue_delay": 20.0, "runtime": runtime, "cpu_time": runtime * 0.9},
        label=label,
    )


class TestPrompts:
    def test_task_description_contains_categories_and_features(self):
        text = build_task_description(("runtime", "cpu_time"))
        assert CATEGORY_NORMAL in text and CATEGORY_ABNORMAL in text
        assert "runtime, cpu_time" in text
        assert "only respond with the category" in text.lower()

    def test_cot_variant_drops_category_only_constraint(self):
        text = build_task_description(("runtime",), ask_category_only=False)
        assert "only respond" not in text.lower()

    def test_format_example_with_and_without_category(self):
        example = format_example(record(label=1))
        assert example.startswith("Instruct: ") and example.endswith("Category: Abnormal")
        query = format_example(record(), with_category=False)
        assert query.endswith("Category:")

    def test_format_example_requires_label(self):
        with pytest.raises(ValueError):
            format_example("runtime is 5.0", with_category=True)

    def test_full_prompt_structure(self):
        prompt = build_prompt(record(), examples=[(record(0), 0), (record(1), 1)])
        assert prompt.count("Instruct:") == 3
        assert prompt.count("Category: Normal") == 1
        assert prompt.count("Category: Abnormal") == 1
        assert prompt.rstrip().endswith("Category:")

    def test_cot_prompt_appends_instruction(self):
        prompt = build_prompt(record(), chain_of_thought=True)
        assert prompt.endswith("Please think about it step by step.")

    def test_compact_template_omits_task_description(self):
        compact = PromptTemplate(include_task_description=False).build(record())
        assert "system administration bot" not in compact
        full = PromptTemplate().build(record())
        assert "system administration bot" in full


def build_reference(template, query, examples=()):
    """``PromptTemplate.build`` as written before the head/tail split."""
    parts = []
    if template.include_task_description:
        parts.append(
            build_task_description(
                template.feature_names, ask_category_only=not template.chain_of_thought
            )
        )
    parts.extend(template.extra_instructions)
    if examples:
        parts.append(template.example_header)
        for example, label in examples:
            parts.append(format_example(example, label, with_category=True))
    parts.append(format_example(query, with_category=False))
    if template.chain_of_thought:
        parts.append("Please think about it step by step.")
    return "\n".join(parts)


TEMPLATES = {
    "compact": PromptTemplate(include_task_description=False),
    "full": PromptTemplate(),
    "cot": PromptTemplate(chain_of_thought=True),
    "compact_cot": PromptTemplate(include_task_description=False, chain_of_thought=True),
    "extra": PromptTemplate(extra_instructions=["Runtime above 1e3 is rare.", "Think: 0.5 - 2"]),
}


#: Pooled scoring cases: every template on a dense pool (ids as before),
#: and on paged fp32 and int8 pools.
POOLED_CASES = [
    pytest.param(name, layout, dtype, id=name if layout == "dense" else f"{name}-{layout}-{dtype}")
    for name in ("compact", "compact_cot", "extra")
    for layout, dtype in (("dense", "fp32"), ("paged", "fp32"), ("paged", "int8"))
]


class FixedSelector:
    def __init__(self, examples):
        self.examples = list(examples)

    def select(self, k):
        return self.examples[:k]


class TestPromptSplit:
    @pytest.mark.parametrize("num_examples", [0, 4], ids=["zeroshot", "fewshot"])
    @pytest.mark.parametrize("name", sorted(TEMPLATES))
    def test_head_tail_encoding_equals_built_prompt(
        self, name, num_examples, tokenizer, small_dataset
    ):
        template = TEMPLATES[name]
        examples = FewShotSelector(
            small_dataset.train.records[:100], mode="mixed", seed=0
        ).select(num_examples)
        head_ids = tokenizer.encode_causal(template.head(examples))
        for query in small_dataset.test.records[:5] + ["runtime is 12.5"]:
            prompt = template.build(query, examples)
            assert prompt == build_reference(template, query, examples)
            tail_ids = tokenizer.encode_causal(template.tail(query), add_bos=False)
            np.testing.assert_array_equal(
                np.concatenate([head_ids, tail_ids]), tokenizer.encode_causal(prompt)
            )

    @pytest.mark.parametrize("name,kv_layout,kv_dtype", POOLED_CASES)
    def test_pooled_batch_matches_uncached_reference(
        self, name, kv_layout, kv_dtype, registry, small_dataset
    ):
        model = registry.load_decoder("gpt2").eval()
        tokenizer = registry.tokenizer
        template = TEMPLATES[name]
        pooled = ICLEngine(
            model, tokenizer, template,
            batch_size=4,
            cache_pool=PrefixCachePool(model, kv_layout=kv_layout, kv_dtype=kv_dtype),
        )
        reference = ICLEngine(model, tokenizer, template, use_cache=False)
        examples = FewShotSelector(
            small_dataset.train.records[:100], mode="mixed", seed=0
        ).select(4)
        selector = FixedSelector(examples)
        # Eleven rows (not a multiple of batch_size) whose tails differ in length.
        queries = small_dataset.test.subsample(10, rng=3).records + ["runtime is 12.5"]
        tails = [tokenizer.encode_causal(template.tail(q), add_bos=False) for q in queries]
        assert len({len(t) for t in tails}) > 1 and len(queries) % 4
        got = pooled.classify_batch(queries, selector=selector, num_examples=4)
        want = reference.classify_batch(queries, selector=selector, num_examples=4)
        assert [p.label for p in got] == [p.label for p in want]
        if kv_dtype == "int8":
            # The reference for a quantized prefix: each prompt alone through
            # a one-row int8 cache holding the same quantized prefix.
            head = tokenizer.encode_causal(template.head(examples))
            prompts = [np.concatenate([head, tail]) for tail in tails]
            shared = min(common_prefix_length(prompts[0], p) for p in prompts)
            shared = min(shared, min(len(p) for p in prompts) - 1)
            want = [score_alone_int8(pooled, p, shared) for p in prompts]
        for a, b in zip(got, want):
            assert a.log_prob_normal == pytest.approx(b.log_prob_normal, abs=1e-5)
            assert a.log_prob_abnormal == pytest.approx(b.log_prob_abnormal, abs=1e-5)

    def test_empty_shared_prefix_matches_uncached_reference(self, registry):
        """Prompts that share no token (P = 0) still batch-score exactly."""
        model = registry.load_decoder("gpt2").eval()
        pooled = ICLEngine(
            model, registry.tokenizer, batch_size=2, cache_pool=PrefixCachePool(model)
        )
        rng = np.random.default_rng(4)
        prompts = [rng.integers(5, model.vocab_size, size=n) for n in (9, 4, 12)]
        prompts[1][0] = (prompts[0][0] + 1) % model.vocab_size
        got = pooled._score_prompts_batched(prompts)
        for prompt, scores in zip(prompts, got):
            for category in CATEGORIES:
                want = pooled._score_category(prompt, category)
                assert scores[category] == pytest.approx(want, abs=1e-5)


def score_alone_int8(engine, prompt_ids, prefix_length):
    """One prompt scored through a one-row int8 cache whose first
    ``prefix_length`` positions are persisted (quantized) before scoring."""
    model = engine.model
    cache = model.make_paged_cache(1, kv_dtype="int8")
    with no_grad():
        model.forward_incremental(prompt_ids[None, :prefix_length], cache)
    cache.release_workspace()
    candidates = [engine._category_ids[c] for c in CATEGORIES]
    raw = model.score_continuations(prompt_ids, candidates, cache=cache)
    cache.release()
    return engine.prediction_from_scores(
        {c: raw[i] / len(candidates[i]) for i, c in enumerate(CATEGORIES)}
    )


class TestFewShotSelector:
    def make_pool(self):
        return [record(label=i % 2, runtime=100.0 + i) for i in range(20)]

    def test_modes_return_requested_composition(self):
        pool = self.make_pool()
        assert all(lab == 0 for _, lab in FewShotSelector(pool, mode="neg", seed=0).select(6))
        assert all(lab == 1 for _, lab in FewShotSelector(pool, mode="pos", seed=0).select(6))
        mixed = FewShotSelector(pool, mode="mixed", seed=0).select(6)
        labels = [lab for _, lab in mixed]
        assert labels.count(0) == 3 and labels.count(1) == 3

    def test_zero_and_negative_k(self):
        selector = FewShotSelector(self.make_pool(), seed=0)
        assert selector.select(0) == []
        with pytest.raises(ValueError):
            selector.select(-1)

    def test_invalid_mode_and_empty_classes(self):
        with pytest.raises(ValueError):
            FewShotSelector(self.make_pool(), mode="other")
        with pytest.raises(ValueError):
            FewShotSelector([record(label=0)], mode="pos")

    def test_class_counts(self):
        selector = FewShotSelector(self.make_pool(), seed=0)
        assert selector.class_counts() == {"normal": 10, "anomalous": 10}
        assert selector.pool_size == 20


class TestICLEngine:
    def test_prediction_fields_and_score_range(self, decoder_engine):
        prediction = decoder_engine.classify(record())
        assert prediction.label in (0, 1)
        assert prediction.category in (CATEGORY_NORMAL, CATEGORY_ABNORMAL)
        assert 0.0 <= prediction.anomaly_score <= 1.0

    def test_label_consistent_with_log_probs(self, decoder_engine):
        prediction = decoder_engine.classify(record())
        expected = int(prediction.log_prob_abnormal > prediction.log_prob_normal)
        assert prediction.label == expected

    def test_batch_and_evaluate(self, decoder_engine, small_dataset):
        test = small_dataset.test.subsample(12, rng=0)
        predictions = decoder_engine.classify_batch(test.records)
        assert len(predictions) == 12
        report = decoder_engine.evaluate(test.records, test.labels())
        assert 0.0 <= report.accuracy <= 1.0

    def test_fewshot_prompting_runs(self, decoder_engine, small_dataset):
        selector = FewShotSelector(small_dataset.train.records[:100], mode="mixed", seed=0)
        test = small_dataset.test.subsample(6, rng=1)
        report = decoder_engine.evaluate(
            test.records, test.labels(), selector=selector, num_examples=4
        )
        assert 0.0 <= report.accuracy <= 1.0

    def test_anomaly_scores_vector(self, decoder_engine, small_dataset):
        test = small_dataset.test.subsample(8, rng=2)
        scores = decoder_engine.anomaly_scores(test.records)
        assert scores.shape == (8,)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_long_prompt_is_truncated_not_crashed(self, decoder_engine, small_dataset):
        selector = FewShotSelector(small_dataset.train.records[:200], mode="mixed", seed=0)
        examples = selector.select(30)  # far beyond the context window
        prediction = decoder_engine.classify(small_dataset.test.records[0], examples)
        assert prediction.label in (0, 1)


class TestICLFineTuning:
    def test_finetune_improves_over_raw_prompting(self, registry, small_dataset):
        """Table III / Table IV claim: fine-tuned ICL beats raw prompting.

        Deterministic by construction (fixed model, data and tuner seeds; the
        registry derives per-model seeds with a stable digest) and asserted
        with *margins* rather than knife-edge thresholds: the fine-tuned
        model must clear both raw prompting and the majority-class baseline
        by a margin, and must not have collapsed to a single category (the
        historical failure mode on class-imbalanced training data, addressed
        by ``balance_classes``).
        """
        model = registry.load_decoder("gpt2")
        engine = ICLEngine(model, registry.tokenizer)
        test = small_dataset.test.subsample(60, rng=3)
        labels = test.labels()
        before = engine.evaluate(test.records, labels, num_examples=0)
        tuner = ICLFineTuner(
            model,
            registry.tokenizer,
            ICLFineTuneConfig(
                epochs=12,
                batch_size=16,
                quantization_bits=None,
                seed=1,
                balance_classes=True,
            ),
        )
        result = tuner.finetune_split(small_dataset.train, max_records=700)
        after = engine.evaluate(test.records, labels, num_examples=0)
        # A collapsed model plateaus at the balanced two-class loss floor
        # ln(2) ≈ 0.693; genuine learning ends well below it.
        assert result.losses[-1] < result.losses[0]
        assert result.losses[-1] < 0.5
        majority = float(np.bincount(labels).max()) / len(labels)
        assert after.accuracy >= before.accuracy + 0.05
        assert after.accuracy >= majority + 0.1
        # Non-degenerate: the model actually predicts both categories.
        assert after.precision > 0.0 and after.recall > 0.0

    def test_parameter_summary_reports_reduction(self, registry):
        model = registry.load_decoder("gpt2")
        tuner = ICLFineTuner(
            model,
            registry.tokenizer,
            ICLFineTuneConfig(train_token_embedding=False, quantization_bits=None),
        )
        summary = tuner.prepare()
        assert summary.trainable_fraction < 0.5
        # idempotent
        assert tuner.prepare() is summary

    def test_requires_labeled_records(self, registry):
        model = registry.load_decoder("gpt2")
        tuner = ICLFineTuner(model, registry.tokenizer)
        with pytest.raises(ValueError):
            tuner.finetune([JobRecord(features={"runtime": 1.0}, label=None)])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ICLFineTuneConfig(epochs=0)
        with pytest.raises(ValueError):
            ICLFineTuneConfig(lora_rank=0)


class TestDeterministicPaperPath:
    """Registry models score in eval mode, and a fine-tune reseeds its
    dropout generators: no result depends on the calls made before it."""

    def test_fresh_registry_model_scores_identically_twice(self, registry, small_dataset):
        model = registry.load_decoder("gpt2")
        assert not model.training
        engine = ICLEngine(model, registry.tokenizer)
        test = small_dataset.test.subsample(12, rng=4)

        def selector():  # a fresh one per call: selection advances its rng
            return FewShotSelector(small_dataset.train.records[:100], mode="mixed", seed=0)

        runs = [
            engine.classify_batch(test.records, selector=selector(), num_examples=2)
            for _ in range(2)
        ]
        # Labels and both category log-likelihoods, hence the scores.
        assert runs[0] == runs[1]
        reports = [
            engine.evaluate(test.records, test.labels(), selector=selector(), num_examples=2)
            for _ in range(2)
        ]
        assert reports[0] == reports[1]

    def test_finetune_losses_ignore_earlier_scoring(self, registry, small_dataset):
        def finetune(model):
            config = ICLFineTuneConfig(epochs=1, batch_size=16, quantization_bits=None, seed=2)
            tuner = ICLFineTuner(model, registry.tokenizer, config)
            return tuner.finetune(small_dataset.train.records[:48]).losses

        reference = finetune(registry.load_decoder("gpt2"))
        model = registry.load_decoder("gpt2")
        # Uncached scoring in train mode draws dropout masks.
        model.train()
        ICLEngine(model, registry.tokenizer, use_cache=False).classify_batch(
            small_dataset.test.records[:3]
        )
        model.eval()
        assert finetune(model) == reference


class TestChainOfThought:
    def test_explanation_structure(self, decoder_engine, small_dataset):
        explainer = ChainOfThoughtExplainer(decoder_engine, small_dataset.train.records[:300])
        query = next(r for r in small_dataset.test.records if r.label == 1)
        result = explainer.explain(query)
        assert len(result.steps) >= 3
        text = result.text()
        assert text.startswith("Sure, here's the step-by-step reasoning:")
        assert "Therefore, the category is likely" in text
        assert result.category in (CATEGORY_NORMAL, CATEGORY_ABNORMAL)
        assert "step by step" in result.prompt

    def test_statistic_vote_prefers_anomalous_for_extreme_job(self, decoder_engine, small_dataset):
        explainer = ChainOfThoughtExplainer(decoder_engine, small_dataset.train.records[:300])
        extreme = JobRecord(
            features={name: 10.0 for name in small_dataset.train.records[0].features},
            label=None,
        )
        extreme.features["stage_in_delay"] = 1e6
        extreme.features["runtime"] = 1e6
        result = explainer.explain(extreme)
        assert result.votes_abnormal + result.votes_normal > 0

    def test_requires_reference_records(self, decoder_engine):
        with pytest.raises(ValueError):
            ChainOfThoughtExplainer(decoder_engine, [])
        with pytest.raises(ValueError):
            ChainOfThoughtExplainer(decoder_engine, [record(label=0)])

    def test_class_mean_lookup(self, decoder_engine, small_dataset):
        explainer = ChainOfThoughtExplainer(decoder_engine, small_dataset.train.records[:300])
        assert explainer.class_mean(1, "runtime") > explainer.class_mean(0, "runtime") * 0.5
