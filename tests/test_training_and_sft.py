"""Integration tests for the SFT trainer and the adaptation recipes
(debiasing, freezing, transfer learning)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.training import (
    SFTTrainer,
    TrainingConfig,
    augment_with_empty_sentences,
    bias_probe,
    evaluate_transfer_matrix,
    finetune_on_target,
    freeze_for_transfer,
    trainable_parameter_count,
)


@pytest.fixture(scope="module")
def fitted_trainer(registry, small_dataset):
    """A distilbert SFT model fine-tuned on a medium subsample (shared)."""
    model = registry.load_encoder("distilbert-base-uncased")
    trainer = SFTTrainer(
        model, registry.tokenizer, TrainingConfig(epochs=4, batch_size=32, max_length=40, seed=0)
    )
    train = small_dataset.train.subsample(500, rng=0)
    val = small_dataset.validation.subsample(80, rng=1)
    trainer.fit(train.sentences(), train.labels(), val.sentences(), val.labels())
    return trainer


class TestTrainingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainingConfig(warmup_fraction=2.0)


class TestSFTTrainer:
    def test_history_records_every_epoch(self, fitted_trainer):
        history = fitted_trainer.history
        assert len(history.epochs) == 4
        assert "train_loss" in history.epochs[0]
        assert "val_accuracy" in history.epochs[0]
        assert history.train_time_seconds > 0

    def test_loss_decreases(self, fitted_trainer):
        curve = fitted_trainer.history.metric_curve("train_loss")
        assert curve[-1] < curve[0]

    def test_sft_beats_majority_class(self, fitted_trainer, small_dataset):
        test = small_dataset.test
        report = fitted_trainer.evaluate_split(test)
        majority = max(1 - test.anomaly_fraction(), test.anomaly_fraction())
        assert report.accuracy > majority + 0.05
        assert report.f1 > 0.5

    def test_sft_beats_pretrained_model(self, registry, fitted_trainer, small_dataset):
        """The core Fig. 4 claim: fine-tuning improves over the raw pre-trained model."""
        pretrained = registry.load_encoder("distilbert-base-uncased")
        raw_trainer = SFTTrainer(pretrained, registry.tokenizer, TrainingConfig(max_length=40))
        test = small_dataset.test.subsample(200, rng=2)
        raw = raw_trainer.evaluate_split(test)
        tuned = fitted_trainer.evaluate_split(test)
        assert tuned.accuracy > raw.accuracy

    def test_predict_shapes_and_scores(self, fitted_trainer, small_dataset):
        sentences = small_dataset.test.sentences()[:10]
        probs = fitted_trainer.predict_proba(sentences)
        assert probs.shape == (10, 2)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(10), rtol=1e-5)
        scores = fitted_trainer.anomaly_scores(sentences)
        np.testing.assert_allclose(scores, probs[:, 1])

    def test_fit_validations(self, registry):
        model = registry.load_encoder("albert-base-v2", pretrained=False)
        trainer = SFTTrainer(model, registry.tokenizer)
        with pytest.raises(ValueError):
            trainer.fit(["a"], [0, 1])
        with pytest.raises(ValueError):
            trainer.fit([], [])

    def test_best_epoch_and_metric_curves(self, fitted_trainer):
        best = fitted_trainer.history.best_epoch("val_accuracy")
        assert 0 <= best < 4
        with pytest.raises(ValueError):
            fitted_trainer.history.best_epoch("nonexistent_metric")


class TestDeterministicFineTune:
    @pytest.mark.parametrize("before", ["live_dropout_scoring", "another_fit"])
    def test_fit_losses_ignore_earlier_calls(self, registry, small_dataset, before):
        """A fit reseeds the model's dropout generators from its config seed,
        so its losses do not depend on the dropout masks drawn before it."""
        train = small_dataset.train.subsample(64, rng=2)
        config = TrainingConfig(epochs=2, batch_size=32, max_length=40, seed=3)

        def fit(model):
            trainer = SFTTrainer(model, registry.tokenizer, config)
            history = trainer.fit(train.sentences(), train.labels())
            return history.metric_curve("train_loss")

        reference = fit(registry.load_encoder("distilbert-base-uncased"))
        model = registry.load_encoder("distilbert-base-uncased")
        if before == "live_dropout_scoring":
            bias_probe(SFTTrainer(model, registry.tokenizer, config), runs=3)
        else:
            pristine = model.state_dict()
            fit(model)
            # Restore the weights: only the dropout generators' state, which
            # the earlier fit advanced, could still differ.
            model.load_state_dict(pristine)
        assert fit(model) == reference


class TestDebiasing:
    def test_bias_probe_reports_probabilities(self, fitted_trainer):
        result = bias_probe(fitted_trainer, runs=5, rng=0)
        assert result.runs == 5
        assert result.normal_probability + result.abnormal_probability == pytest.approx(1.0, abs=1e-4)
        assert 0.0 <= result.bias_gap <= 1.0

    def test_augmentation_balances_labels(self):
        sentences = [f"runtime is {i}.0" for i in range(20)]
        labels = [0] * 20
        augmented_sentences, augmented_labels = augment_with_empty_sentences(
            sentences, labels, fraction=0.2, rng=0
        )
        extra = len(augmented_sentences) - 20
        assert extra >= 4 and extra % 2 == 0
        assert augmented_labels.sum() == extra // 2

    def test_augmentation_validation(self):
        with pytest.raises(ValueError):
            augment_with_empty_sentences(["a"], [0], fraction=0.0)

    def test_debiasing_reduces_empty_string_gap(self, registry, small_dataset):
        """Fig. 9: augmented training reduces the empty-sentence bias gap."""
        train = small_dataset.train.subsample(300, rng=3)

        def train_model(debias: bool):
            model = registry.load_encoder("albert-base-v2")
            trainer = SFTTrainer(
                model, registry.tokenizer, TrainingConfig(epochs=2, max_length=40, seed=1)
            )
            sentences, labels = train.sentences(), train.labels()
            if debias:
                sentences, labels = augment_with_empty_sentences(sentences, labels, rng=1)
            trainer.fit(sentences, labels)
            return bias_probe(trainer, runs=5, rng=2).bias_gap

        biased_gap = train_model(debias=False)
        debiased_gap = train_model(debias=True)
        assert debiased_gap <= biased_gap + 0.15  # augmented model is not more biased


class TestFreezing:
    def test_linear_strategy_freezes_backbone(self, registry):
        model = registry.load_encoder("bert-base-uncased")
        counts = freeze_for_transfer(model, "linear")
        assert counts["trainable"] < counts["total"] * 0.05
        counts_all = freeze_for_transfer(model, "all")
        assert counts_all["trainable"] == counts_all["total"]

    def test_unknown_strategy(self, registry):
        model = registry.load_encoder("bert-base-uncased")
        with pytest.raises(ValueError):
            freeze_for_transfer(model, "partial")

    def test_trainable_parameter_count_consistency(self, registry):
        model = registry.load_encoder("bert-base-uncased")
        counts = trainable_parameter_count(model)
        assert counts["total"] == counts["trainable"] + counts["frozen"]

    def test_frozen_training_is_faster_and_preserves_backbone(self, registry, small_dataset):
        """Table II: linear-only fine-tuning must not modify backbone weights."""
        model = registry.load_encoder("distilbert-base-uncased")
        backbone_before = model.backbone.token_embedding.weight.data.copy()
        freeze_for_transfer(model, "linear")
        trainer = SFTTrainer(model, registry.tokenizer, TrainingConfig(epochs=1, max_length=40))
        sub = small_dataset.train.subsample(150, rng=4)
        trainer.fit(sub.sentences(), sub.labels())
        np.testing.assert_allclose(
            model.backbone.token_embedding.weight.data, backbone_before
        )


class TestTransfer:
    def test_transfer_matrix_structure(self, registry, small_dataset, montage_dataset):
        trainers = {}
        for name, dataset in (("1000genome", small_dataset), ("montage", montage_dataset)):
            model = registry.load_encoder("albert-base-v2")
            trainer = SFTTrainer(
                model, registry.tokenizer, TrainingConfig(epochs=2, max_length=40, seed=0)
            )
            sub = dataset.train.subsample(250, rng=0)
            trainer.fit(sub.sentences(), sub.labels())
            trainers[name] = trainer
        splits = {
            "1000genome": small_dataset.test.subsample(120, rng=1),
            "montage": montage_dataset.test.subsample(120, rng=1),
        }
        result = evaluate_transfer_matrix(trainers, splits)
        matrix = result.matrix()
        assert matrix.shape == (2, 2)
        assert np.all((matrix >= 0) & (matrix <= 1))
        assert result.diagonal_mean() >= result.off_diagonal_mean() - 0.15

    def test_finetune_on_target_rows(self, registry, small_dataset, montage_dataset):
        model = registry.load_encoder("albert-base-v2")
        trainer = SFTTrainer(model, registry.tokenizer, TrainingConfig(epochs=1, max_length=40))
        source = small_dataset.train.subsample(200, rng=5)
        trainer.fit(source.sentences(), source.labels())
        rows = finetune_on_target(
            trainer,
            montage_dataset.train.subsample(200, rng=6),
            montage_dataset.test.subsample(100, rng=7),
            fractions=(0.0, 0.5, 1.0),
            epochs_per_stage=1,
        )
        assert [r["fraction"] for r in rows] == [0.0, 0.5, 1.0]
        assert all(0.0 <= r["accuracy"] <= 1.0 for r in rows)
        # Fine-tuning on the full target split should not be worse than no adaptation.
        assert rows[-1]["accuracy"] >= rows[0]["accuracy"] - 0.1

    def test_finetune_on_target_validates_fractions(self, registry, small_dataset):
        model = registry.load_encoder("albert-base-v2", pretrained=False)
        trainer = SFTTrainer(model, registry.tokenizer, TrainingConfig(epochs=1, max_length=40))
        sub = small_dataset.train.subsample(50, rng=8)
        trainer.fit(sub.sentences(), sub.labels())
        with pytest.raises(ValueError):
            finetune_on_target(trainer, small_dataset.train, small_dataset.test, fractions=(2.0,))
