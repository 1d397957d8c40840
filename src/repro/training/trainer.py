"""Supervised fine-tuning (SFT) trainer for encoder classifiers.

Mirrors the HuggingFace ``Trainer`` recipe the paper uses: AdamW with linear
warmup, mini-batch training on parsed log sentences, per-epoch evaluation of
accuracy / precision / recall / F1 on a validation split, and wall-clock
accounting (the paper reports training time per model in Fig. 5 and per epoch
in Section IV-B).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.models.encoder import EncoderForSequenceClassification
from repro.nn.layers import reseed_dropout
from repro.tokenization.tokenizer import LogTokenizer
from repro.training.loss import classification_loss
from repro.training.metrics import MetricReport, classification_report
from repro.training.optim import AdamW, clip_grad_norm
from repro.training.scheduler import LinearWarmupSchedule
from repro.utils.rng import new_rng

__all__ = ["TrainingConfig", "TrainingHistory", "SFTTrainer"]


@dataclass
class TrainingConfig:
    """Hyper-parameters of one fine-tuning run."""

    epochs: int = 4
    batch_size: int = 32
    learning_rate: float = 2e-3
    weight_decay: float = 0.01
    warmup_fraction: float = 0.1
    max_length: int = 48
    grad_clip: float = 1.0
    shuffle: bool = True
    seed: int = 0
    class_weights: tuple[float, float] | None = None
    label_smoothing: float = 0.0

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if not 0.0 <= self.warmup_fraction <= 1.0:
            raise ValueError("warmup_fraction must be in [0, 1]")


@dataclass
class TrainingHistory:
    """Per-epoch record of losses and validation metrics."""

    epochs: list[dict[str, float]] = field(default_factory=list)
    train_time_seconds: float = 0.0

    def add_epoch(self, **entry: float) -> None:
        self.epochs.append(dict(entry))

    def metric_curve(self, metric: str) -> list[float]:
        """Values of one metric across epochs (e.g. ``"val_accuracy"``)."""
        return [e[metric] for e in self.epochs if metric in e]

    def best_epoch(self, metric: str = "val_accuracy") -> int:
        """Index of the epoch with the best value of ``metric``."""
        curve = self.metric_curve(metric)
        if not curve:
            raise ValueError(f"metric {metric!r} was never recorded")
        return int(np.argmax(curve))

    @property
    def final(self) -> dict[str, float]:
        return self.epochs[-1] if self.epochs else {}


class SFTTrainer:
    """Fine-tune an :class:`EncoderForSequenceClassification` on labeled sentences."""

    def __init__(
        self,
        model: EncoderForSequenceClassification,
        tokenizer: LogTokenizer,
        config: TrainingConfig | None = None,
        log_fn: Callable[[str], None] | None = None,
    ) -> None:
        self.model = model
        self.tokenizer = tokenizer
        self.config = config or TrainingConfig()
        self.log_fn = log_fn
        self.rng = new_rng(self.config.seed)
        self.history = TrainingHistory()

    # ------------------------------------------------------------------ #
    # encoding helpers
    # ------------------------------------------------------------------ #
    def _encode(self, sentences: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        return self.tokenizer.encode_batch_classification(
            list(sentences), max_length=self.config.max_length
        )

    def _log(self, message: str) -> None:
        if self.log_fn is not None:
            self.log_fn(message)

    # ------------------------------------------------------------------ #
    # training loop
    # ------------------------------------------------------------------ #
    def fit(
        self,
        train_sentences: Sequence[str],
        train_labels: Sequence[int] | np.ndarray,
        val_sentences: Sequence[str] | None = None,
        val_labels: Sequence[int] | np.ndarray | None = None,
    ) -> TrainingHistory:
        """Run the fine-tuning loop and return the training history."""
        if len(train_sentences) != len(train_labels):
            raise ValueError("train_sentences and train_labels length mismatch")
        if len(train_sentences) == 0:
            raise ValueError("cannot fine-tune on an empty training set")
        cfg = self.config
        labels = np.asarray(train_labels, dtype=np.int64)
        input_ids, attention_mask = self._encode(train_sentences)

        trainable = [p for p in self.model.parameters() if p.requires_grad]
        optimizer = AdamW(trainable, lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
        steps_per_epoch = int(np.ceil(len(labels) / cfg.batch_size))
        total_steps = max(steps_per_epoch * cfg.epochs, 1)
        schedule = LinearWarmupSchedule(
            optimizer,
            warmup_steps=int(cfg.warmup_fraction * total_steps),
            total_steps=total_steps,
        )
        class_weights = (
            np.asarray(cfg.class_weights, dtype=np.float32) if cfg.class_weights else None
        )

        start = time.perf_counter()
        reseed_dropout(self.model, cfg.seed)
        for epoch in range(cfg.epochs):
            self.model.train()
            order = self.rng.permutation(len(labels)) if cfg.shuffle else np.arange(len(labels))
            epoch_loss = 0.0
            for batch_start in range(0, len(labels), cfg.batch_size):
                batch_idx = order[batch_start : batch_start + cfg.batch_size]
                logits = self.model(input_ids[batch_idx], attention_mask[batch_idx])
                loss = classification_loss(
                    logits,
                    labels[batch_idx],
                    class_weights=class_weights,
                    label_smoothing=cfg.label_smoothing,
                )
                self.model.zero_grad()
                loss.backward()
                if cfg.grad_clip:
                    clip_grad_norm(trainable, cfg.grad_clip)
                optimizer.step()
                schedule.step()
                epoch_loss += float(loss.data) * len(batch_idx)
            epoch_loss /= len(labels)

            entry: dict[str, float] = {"epoch": float(epoch), "train_loss": epoch_loss}
            if val_sentences is not None and val_labels is not None and len(val_sentences):
                report = self.evaluate(val_sentences, val_labels)
                entry.update({f"val_{k}": v for k, v in report.as_dict().items()})
            self.history.add_epoch(**entry)
            self._log(
                f"epoch {epoch + 1}/{cfg.epochs} loss={epoch_loss:.4f} "
                + " ".join(f"{k}={v:.4f}" for k, v in entry.items() if k.startswith("val_"))
            )
        self.history.train_time_seconds += time.perf_counter() - start
        return self.history

    def fit_split(self, train_split, val_split=None) -> TrainingHistory:
        """Convenience wrapper accepting :class:`~repro.flowbench.dataset.DatasetSplit`."""
        val_sentences = val_split.sentences() if val_split is not None else None
        val_labels = val_split.labels() if val_split is not None else None
        return self.fit(train_split.sentences(), train_split.labels(), val_sentences, val_labels)

    # ------------------------------------------------------------------ #
    # inference
    # ------------------------------------------------------------------ #
    def predict_proba(self, sentences: Sequence[str], batch_size: int = 128) -> np.ndarray:
        """Class probabilities for a list of sentences."""
        self.model.eval()
        outputs = []
        for start in range(0, len(sentences), batch_size):
            ids, mask = self._encode(sentences[start : start + batch_size])
            outputs.append(self.model.predict_proba(ids, mask))
        return np.concatenate(outputs, axis=0) if outputs else np.zeros((0, 2))

    def predict(self, sentences: Sequence[str], batch_size: int = 128) -> np.ndarray:
        """Hard predictions (0 = normal, 1 = anomalous)."""
        return np.argmax(self.predict_proba(sentences, batch_size), axis=-1)

    def anomaly_scores(self, sentences: Sequence[str], batch_size: int = 128) -> np.ndarray:
        """Probability of the anomalous class (used for ROC-AUC / AP / P@k)."""
        return self.predict_proba(sentences, batch_size)[:, 1]

    def evaluate(
        self, sentences: Sequence[str], labels: Sequence[int] | np.ndarray
    ) -> MetricReport:
        """Accuracy / precision / recall / F1 on a labeled evaluation set."""
        predictions = self.predict(sentences)
        return classification_report(np.asarray(labels, dtype=np.int64), predictions)

    def evaluate_split(self, split) -> MetricReport:
        """Evaluate on a :class:`~repro.flowbench.dataset.DatasetSplit`."""
        return self.evaluate(split.sentences(), split.labels())
