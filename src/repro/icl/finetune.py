"""Parameter-efficient fine-tuning of the ICL (decoder) models.

The paper's Table III "FT = Yes" rows: the decoder is loaded in 4-bit
precision, LoRA adapters (rank 64, scaling 128, dropout 0.05 at full scale)
are attached to its projection matrices, and the adapters are trained with a
causal-LM objective on prompt-formatted labeled examples
(``"Instruct: <sentence>\\nCategory: <label>"``).  Afterwards the same
few-shot prompting pipeline is used for inference — the fine-tuned model
simply assigns higher likelihood to the correct category continuation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.icl.prompts import CATEGORIES, PromptTemplate
from repro.models.decoder import DecoderLM
from repro.models.lora import apply_lora, lora_parameter_summary, LoRASummary
from repro.models.quantization import quantize_model
from repro.nn.layers import reseed_dropout
from repro.tokenization.templates import JobRecord
from repro.tokenization.tokenizer import LogTokenizer
from repro.training.loss import causal_lm_loss, completion_only_loss
from repro.training.optim import AdamW, clip_grad_norm
from repro.utils.rng import new_rng

__all__ = ["ICLFineTuneConfig", "ICLFineTuner"]


@dataclass
class ICLFineTuneConfig:
    """Hyper-parameters of the quantization + LoRA fine-tuning recipe.

    The paper's full-scale values are ``lora_rank=64``, ``lora_alpha=128``,
    ``lora_dropout=0.05`` and 4-bit quantization; the defaults here scale the
    rank down in proportion to the scaled-down hidden sizes.
    """

    epochs: int = 4
    batch_size: int = 16
    learning_rate: float = 5e-3
    max_length: int = 64
    lora_rank: int = 8
    lora_alpha: float = 32.0
    lora_dropout: float = 0.05
    quantization_bits: int | None = 8
    grad_clip: float = 1.0
    seed: int = 0
    #: Restrict the LM loss to the category token (completion-only training).
    #: Full-sequence loss is available for ablations but dilutes the decision
    #: signal over the prompt tokens.
    answer_only_loss: bool = True
    #: Maximum number of in-context examples embedded in each *training*
    #: prompt.  The default of 0 trains on single instruction/answer pairs.
    #: That it generalises better at this model scale than training on long
    #: few-shot prompts is unmeasured: no benchmark compares the two.
    examples_per_prompt: int = 0
    #: Also train the (tied) token-embedding matrix.  The full-scale QLoRA
    #: recipe keeps embeddings frozen, but at laptop scale the tied LM head is
    #: the only path from hidden states to category logits, so freezing it
    #: prevents the adapters from learning the task at all.  No test or
    #: benchmark fine-tunes with it frozen, so that claim is unmeasured.
    train_token_embedding: bool = True
    #: Downsample the majority class so fine-tuning sees both categories
    #: equally often.  Workflow anomaly data is heavily Normal-skewed
    #: (~70/30 on the synthetic traces); with a completion-only loss the
    #: scaled-down decoders otherwise minimise loss by collapsing to the
    #: majority category instead of separating the classes.
    balance_classes: bool = False

    def __post_init__(self) -> None:
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if self.lora_rank <= 0:
            raise ValueError("lora_rank must be positive")


@dataclass
class ICLFineTuneResult:
    """Outcome of one fine-tuning run."""

    losses: list[float]
    train_time_seconds: float
    parameter_summary: LoRASummary


class ICLFineTuner:
    """Quantize, adapt with LoRA, and fine-tune a decoder on labeled examples."""

    def __init__(
        self,
        model: DecoderLM,
        tokenizer: LogTokenizer,
        config: ICLFineTuneConfig | None = None,
        template: PromptTemplate | None = None,
    ) -> None:
        self.model = model
        self.tokenizer = tokenizer
        self.config = config or ICLFineTuneConfig()
        # Must match the template the ICLEngine will prompt with at inference
        # (compact prompt without the constant task-description prefix).
        self.template = template or PromptTemplate(include_task_description=False)
        self.rng = new_rng(self.config.seed)
        self._prepared = False
        self.parameter_summary: LoRASummary | None = None

    # ------------------------------------------------------------------ #
    def prepare(self) -> LoRASummary:
        """Apply quantization and LoRA adapters (idempotent)."""
        if self._prepared:
            return self.parameter_summary
        cfg = self.config
        if cfg.quantization_bits is not None:
            quantize_model(self.model, bits=cfg.quantization_bits)
        apply_lora(
            self.model,
            rank=cfg.lora_rank,
            alpha=cfg.lora_alpha,
            dropout=cfg.lora_dropout,
            rng=self.rng,
        )
        if cfg.train_token_embedding:
            self.model.unfreeze(lambda name, p: "token_embedding" in name)
        self.parameter_summary = lora_parameter_summary(self.model)
        self._prepared = True
        return self.parameter_summary

    # ------------------------------------------------------------------ #
    def _format_training_texts(self, records: Sequence[JobRecord]) -> list[str]:
        """Build one few-shot-style training prompt per record.

        Every training instance uses the same :class:`PromptTemplate` as
        inference (example block + query by default) followed by the query's
        true category word, so the fine-tuned model sees exactly the
        distribution it will be prompted with.
        """
        template = self.template
        cfg = self.config
        texts: list[str] = []
        for i, record in enumerate(records):
            k = int(self.rng.integers(0, cfg.examples_per_prompt + 1))
            examples: list[tuple[JobRecord, int]] = []
            if k > 0 and len(records) > 1:
                pool = [j for j in range(len(records)) if j != i]
                chosen = self.rng.choice(pool, size=min(k, len(pool)), replace=False)
                examples = [(records[j], int(records[j].label)) for j in chosen]
            prompt = template.build(record, examples)
            texts.append(f"{prompt} {CATEGORIES[int(record.label)]}")
        return texts

    def _balance(self, records: list[JobRecord]) -> list[JobRecord]:
        """Downsample the majority class to the minority-class count."""
        by_class = {c: [r for r in records if r.label == c] for c in (0, 1)}
        n = min(len(by_class[0]), len(by_class[1]))
        if n == 0:
            return records
        balanced: list[JobRecord] = []
        for c in (0, 1):
            idx = self.rng.choice(len(by_class[c]), size=n, replace=False)
            balanced.extend(by_class[c][i] for i in idx)
        return balanced

    def finetune(self, records: Sequence[JobRecord]) -> ICLFineTuneResult:
        """Fine-tune the adapters on prompt-formatted labeled records."""
        labeled = [r for r in records if r.label in (0, 1)]
        if not labeled:
            raise ValueError("fine-tuning requires labeled records")
        if self.config.balance_classes:
            labeled = self._balance(labeled)
        self.prepare()
        cfg = self.config
        texts = self._format_training_texts(labeled)
        ids, mask = self.tokenizer.encode_batch_causal(texts, max_length=cfg.max_length)
        # The category token is the last real token of each formatted example.
        lengths = mask.sum(axis=1)
        answer_mask = np.zeros_like(mask, dtype=bool)
        answer_mask[np.arange(len(texts)), lengths - 1] = True

        trainable = [p for p in self.model.parameters() if p.requires_grad]
        optimizer = AdamW(trainable, lr=cfg.learning_rate, weight_decay=0.0)
        losses: list[float] = []
        start = time.perf_counter()
        reseed_dropout(self.model, cfg.seed)
        self.model.train()
        for _ in range(cfg.epochs):
            order = self.rng.permutation(len(texts))
            for batch_start in range(0, len(texts), cfg.batch_size):
                idx = order[batch_start : batch_start + cfg.batch_size]
                logits = self.model.clm_logits(ids[idx], mask[idx])
                if cfg.answer_only_loss:
                    loss = completion_only_loss(logits, ids[idx], answer_mask[idx])
                else:
                    loss = causal_lm_loss(logits, ids[idx], mask[idx])
                self.model.zero_grad()
                loss.backward()
                if cfg.grad_clip:
                    clip_grad_norm(trainable, cfg.grad_clip)
                optimizer.step()
                losses.append(float(loss.data))
        self.model.eval()
        elapsed = time.perf_counter() - start
        return ICLFineTuneResult(
            losses=losses, train_time_seconds=elapsed, parameter_summary=self.parameter_summary
        )

    def finetune_split(self, split, max_records: int | None = None) -> ICLFineTuneResult:
        """Convenience wrapper accepting a :class:`~repro.flowbench.dataset.DatasetSplit`."""
        records = list(split.records)
        if max_records is not None and len(records) > max_records:
            idx = self.rng.choice(len(records), size=max_records, replace=False)
            records = [records[i] for i in idx]
        return self.finetune(records)
