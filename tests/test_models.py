"""Tests for configs, encoder/decoder models, LoRA, quantization, pre-training, registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import (
    DECODER_CONFIGS,
    ENCODER_CONFIGS,
    DecoderLM,
    EncoderForSequenceClassification,
    LoRALinear,
    QuantizedLinear,
    apply_lora,
    get_config,
    lora_parameter_summary,
    merge_lora,
    quantize_model,
)
from repro.models.pretrain import pretrain_decoder_clm, pretrain_encoder_mlm
from repro.models.quantization import quantization_error
from repro.nn import Linear
from repro.tensor import Tensor, kernels

VOCAB = 64


def tiny_encoder(name="distilbert-base-uncased", vocab=VOCAB):
    return EncoderForSequenceClassification(get_config(name), vocab, rng=0)


def tiny_decoder(name="gpt2", vocab=VOCAB):
    return DecoderLM(get_config(name), vocab, rng=0)


class TestConfigs:
    def test_twelve_encoders_three_decoders(self):
        assert len(ENCODER_CONFIGS) == 12
        assert len(DECODER_CONFIGS) == 3

    def test_aliases_resolve(self):
        assert get_config("Mistral").name == "mistral-7b"
        assert get_config("llama2").name == "llama2-7b"
        with pytest.raises(KeyError):
            get_config("gpt5")

    def test_family_size_ordering_preserved(self):
        def params(name):
            return tiny_encoder(name).num_parameters()

        assert params("bert-large-uncased") > params("bert-base-uncased")
        assert params("roberta-large") > params("roberta-base")
        assert params("distilbert-base-uncased") <= params("bert-base-uncased")
        assert params("albert-base-v2") < params("bert-base-uncased")

    def test_invalid_config_values(self):
        with pytest.raises(ValueError):
            get_config("bert-base-uncased").scaled(hidden_size=30, num_heads=4)
        with pytest.raises(ValueError):
            get_config("bert-base-uncased").scaled(kind="other")


class TestEncoder:
    def test_classification_logits_shape(self):
        model = tiny_encoder()
        ids = np.random.default_rng(0).integers(0, VOCAB, size=(3, 10))
        mask = np.ones((3, 10), dtype=bool)
        logits = model(ids, mask)
        assert logits.shape == (3, 2)

    def test_predict_proba_sums_to_one(self):
        model = tiny_encoder()
        ids = np.random.default_rng(0).integers(0, VOCAB, size=(4, 8))
        probs = model.predict_proba(ids, np.ones((4, 8), dtype=bool))
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(4), rtol=1e-5)
        assert model.predict(ids).shape == (4,)

    def test_mlm_logits_cover_vocab(self):
        model = tiny_encoder()
        ids = np.zeros((2, 6), dtype=np.int64)
        assert model.mlm_logits(ids).shape == (2, 6, VOCAB)

    def test_freeze_backbone_leaves_classifier_trainable(self):
        model = tiny_encoder()
        model.freeze_backbone()
        trainable = {n for n, p in model.named_parameters() if p.requires_grad}
        assert trainable == {"classifier.weight", "classifier.bias"}

    def test_rejects_decoder_config(self):
        with pytest.raises(ValueError):
            EncoderForSequenceClassification(get_config("gpt2"), VOCAB)

    def test_rejects_bad_input_shape(self):
        model = tiny_encoder()
        with pytest.raises(ValueError):
            model(np.zeros(5, dtype=np.int64))


class TestDecoder:
    def test_lm_logits_shape(self):
        model = tiny_decoder()
        ids = np.random.default_rng(0).integers(0, VOCAB, size=(2, 12))
        assert model(ids).shape == (2, 12, VOCAB)

    def test_sequence_log_prob_is_negative_and_sane(self):
        model = tiny_decoder()
        seq = np.random.default_rng(1).integers(0, VOCAB, size=10)
        lp = model.sequence_log_prob(seq, prefix_length=6)
        assert lp < 0
        assert lp > -100

    def test_sequence_log_prob_validation(self):
        model = tiny_decoder()
        with pytest.raises(ValueError):
            model.sequence_log_prob(np.arange(5), prefix_length=5)
        with pytest.raises(ValueError):
            model.sequence_log_prob(np.zeros((2, 3), dtype=np.int64), prefix_length=1)

    def test_greedy_generation_extends_and_stops(self):
        model = tiny_decoder()
        model.eval()
        prompt = np.array([1, 2, 3], dtype=np.int64)
        out = model.generate(prompt, max_new_tokens=5)
        assert len(out) <= 8 and len(out) > 3
        np.testing.assert_array_equal(out[:3], prompt)

    def test_generation_with_stop_token(self):
        model = tiny_decoder()
        model.eval()
        log_probs = model.next_token_log_probs(np.array([1, 2, 3]))
        greedy = int(np.argmax(log_probs))
        out = model.generate(np.array([1, 2, 3]), max_new_tokens=8, stop_ids={greedy})
        assert out[-1] == greedy and len(out) == 4

    def test_context_length_guard(self):
        model = tiny_decoder()
        too_long = np.zeros((1, model.config.max_position + 1), dtype=np.int64)
        with pytest.raises(ValueError):
            model(too_long)

    def test_rejects_encoder_config(self):
        with pytest.raises(ValueError):
            DecoderLM(get_config("bert-base-uncased"), VOCAB)


class TestLoRA:
    def test_initial_output_unchanged(self):
        base = Linear(8, 4, rng=0)
        wrapped = LoRALinear(base, rank=2, alpha=4, rng=1)
        x = Tensor(np.random.default_rng(0).normal(size=(3, 8)).astype(np.float32))
        np.testing.assert_allclose(wrapped(x).data, base(x).data, atol=1e-6)

    def test_base_frozen_adapters_trainable(self):
        wrapped = LoRALinear(Linear(8, 4, rng=0), rank=2)
        trainable = {n for n, p in wrapped.named_parameters() if p.requires_grad}
        assert trainable == {"lora_a", "lora_b"}

    def test_apply_lora_counts_and_summary(self):
        model = tiny_decoder()
        total_before = model.num_parameters()
        adapted = apply_lora(model, rank=2, alpha=4, rng=0)
        assert adapted == model.config.num_layers * 4
        summary = lora_parameter_summary(model)
        assert 0 < summary.trainable_parameters < summary.total_parameters
        assert summary.total_parameters > total_before  # adapters add parameters

    def test_apply_lora_requires_matching_targets(self):
        model = tiny_decoder()
        with pytest.raises(ValueError):
            apply_lora(model, target_names=("does_not_exist",))

    def test_merge_lora_preserves_forward(self):
        model = tiny_decoder()
        apply_lora(model, rank=2, alpha=4, rng=0)
        # Perturb an adapter so the merge is non-trivial.
        for _, module in model.named_modules():
            if isinstance(module, LoRALinear):
                module.lora_b.data += 0.01
        ids = np.random.default_rng(2).integers(0, VOCAB, size=(1, 6))
        model.eval()
        before = model(ids).data
        merged = merge_lora(model)
        assert merged > 0
        after = model(ids).data
        np.testing.assert_allclose(before, after, atol=1e-4)

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            LoRALinear(Linear(4, 4, rng=0), rank=0)


class TestQuantization:
    def test_quantized_linear_approximates_base(self):
        base = Linear(16, 8, rng=0)
        quantized = QuantizedLinear(base, bits=8)
        x = Tensor(np.random.default_rng(0).normal(size=(4, 16)).astype(np.float32))
        np.testing.assert_allclose(quantized(x).data, base(x).data, atol=0.05)

    def test_error_decreases_with_more_bits(self):
        base = Linear(32, 16, rng=0)
        errors = [quantization_error(base, bits=b) for b in (2, 4, 8)]
        assert errors[0] > errors[1] > errors[2]

    def test_quantize_model_replaces_targets(self):
        model = tiny_decoder()
        replaced = quantize_model(model, bits=4)
        assert replaced == model.config.num_layers * 4
        ids = np.zeros((1, 4), dtype=np.int64)
        assert model(ids).shape == (1, 4, VOCAB)

    def test_qlora_composition(self):
        model = tiny_decoder()
        quantize_model(model, bits=8)
        adapted = apply_lora(model, rank=2, rng=0)
        assert adapted == model.config.num_layers * 4
        ids = np.zeros((1, 4), dtype=np.int64)
        assert model(ids).shape == (1, 4, VOCAB)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            QuantizedLinear(Linear(4, 4, rng=0), bits=3)

    @staticmethod
    def per_call_dequantized(quantized, x):
        weight = quantized.q_weight.astype(np.float32) * quantized.scale
        return kernels.linear(x, weight, quantized.bias.data)

    def test_cached_weight_is_bit_identical_to_per_call_dequantization(self):
        quantized = QuantizedLinear(Linear(16, 8, rng=0), bits=8)
        x = np.random.default_rng(0).normal(size=(4, 16)).astype(np.float32)
        expected = self.per_call_dequantized(quantized, x)
        for _ in range(2):
            np.testing.assert_array_equal(quantized.infer(x), expected)
            np.testing.assert_array_equal(quantized(Tensor(x)).data, expected)
        assert quantized.dequantized_weight() is quantized.dequantized_weight()
        with pytest.raises(ValueError):
            quantized.dequantized_weight()[0, 0] = 1.0

    def test_loaded_state_dict_replaces_the_cached_weight(self):
        source = QuantizedLinear(Linear(16, 8, rng=1), bits=4)
        quantized = QuantizedLinear(Linear(16, 8, rng=0), bits=4)
        x = np.random.default_rng(0).normal(size=(4, 16)).astype(np.float32)
        before = quantized.infer(x)
        quantized.load_state_dict(source.state_dict())
        after = quantized.infer(x)
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(after, self.per_call_dequantized(source, x))
        np.testing.assert_array_equal(after, source.infer(x))


class TestPretrainingAndRegistry:
    def test_mlm_pretraining_reduces_loss(self, tokenizer, small_dataset):
        model = EncoderForSequenceClassification(
            get_config("distilbert-base-uncased"), tokenizer.vocab_size, rng=0
        )
        corpus = small_dataset.train.sentences()[:60]
        result = pretrain_encoder_mlm(model, tokenizer, corpus, steps=25, batch_size=8, seed=0)
        assert result.steps == 25
        assert result.final_loss < result.mean_loss * 1.5  # broadly decreasing

    def test_clm_pretraining_runs(self, tokenizer, small_dataset):
        model = DecoderLM(get_config("gpt2"), tokenizer.vocab_size, rng=0)
        corpus = small_dataset.train.sentences()[:40]
        result = pretrain_decoder_clm(model, tokenizer, corpus, steps=10, batch_size=4, seed=0)
        assert result.steps == 10 and np.isfinite(result.final_loss)

    def test_empty_corpus_rejected(self, tokenizer):
        model = DecoderLM(get_config("gpt2"), tokenizer.vocab_size, rng=0)
        with pytest.raises(ValueError):
            pretrain_decoder_clm(model, tokenizer, [], steps=1)

    def test_registry_caches_pretrained_weights(self, registry):
        first = registry.load_encoder("distilbert-base-uncased")
        assert registry.is_cached("distilbert-base-uncased")
        second = registry.load_encoder("distilbert-base-uncased")
        np.testing.assert_allclose(
            first.backbone.token_embedding.weight.data,
            second.backbone.token_embedding.weight.data,
        )
        assert first is not second

    def test_registry_kind_checks(self, registry):
        with pytest.raises(ValueError):
            registry.load_encoder("gpt2")
        with pytest.raises(ValueError):
            registry.load_decoder("bert-base-uncased")

    def test_registry_unpretrained_load_differs_from_pretrained(self, registry):
        pretrained = registry.load_encoder("albert-base-v2")
        raw = registry.load_encoder("albert-base-v2", pretrained=False)
        assert not np.allclose(
            pretrained.backbone.token_embedding.weight.data,
            raw.backbone.token_embedding.weight.data,
        )
