"""ICL classification engine.

A decoder LM cannot be trusted to emit exactly "Normal" or "Abnormal" when
decoded freely, so — like standard LM-classification harnesses — the engine
*scores* each candidate category as a continuation of the prompt and picks
the more likely one.  The scores double as anomaly scores for the ranking
metrics of Table IV (probability mass assigned to "Abnormal").

Scoring is built on the incremental-inference subsystem: both category
continuations are evaluated off one forward over the shared prompt, the
few-shot example block shared by every query of a batch is tokenized and
prefilled into a KV cache exactly once, and the per-query remainders are
scored as right-padded batches instead of a batch-size-1 loop.  Every batch
reads that prefix from one :class:`~repro.nn.SharedPrefixKVCache`: the
prefix keys/values are held once, not copied into each row, and attention
scores all rows' queries against them in one matmul.  The last decoder
layer runs only at the positions whose logits are read.  ``use_cache=False``
restores the original recompute-everything behaviour (useful as a reference
for correctness and performance comparisons — the two paths agree to float32
tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.icl.fewshot import FewShotSelector
from repro.icl.prompts import CATEGORIES, PromptTemplate
from repro.models.decoder import DecoderLM, PrefixCachedScorer, common_prefix_length
from repro.nn import SharedPrefixKVCache
from repro.tensor import functional as F
from repro.tokenization.templates import JobRecord
from repro.tokenization.tokenizer import LogTokenizer
from repro.training.metrics import MetricReport, classification_report

__all__ = ["ICLPrediction", "ICLEngine"]


@dataclass(frozen=True)
class ICLPrediction:
    """Outcome of classifying one job with ICL."""

    label: int
    category: str
    log_prob_normal: float
    log_prob_abnormal: float

    @property
    def anomaly_score(self) -> float:
        """P(Abnormal) from the softmax over the two category log-likelihoods."""
        a, b = self.log_prob_normal, self.log_prob_abnormal
        m = max(a, b)
        exp_a, exp_b = np.exp(a - m), np.exp(b - m)
        return float(exp_b / (exp_a + exp_b))


class ICLEngine:
    """Prompted classification with a decoder LM."""

    def __init__(
        self,
        model: DecoderLM,
        tokenizer: LogTokenizer,
        template: PromptTemplate | None = None,
        *,
        use_cache: bool = True,
        batch_size: int = 16,
        cache_pool=None,
    ) -> None:
        self.model = model
        self.tokenizer = tokenizer
        # Compact prompt by default: the long constant task-description block
        # dilutes the scaled-down decoder's attention over the feature tokens
        # (the full paper prompt remains available via a custom template).
        self.template = template or PromptTemplate(include_task_description=False)
        self.use_cache = use_cache
        self.batch_size = max(1, int(batch_size))
        #: Optional shared :class:`~repro.serving.PrefixCachePool`: engines
        #: given the same pool reuse each other's prompt-prefix prefills
        #: (the serving scenario), instead of each owning a private cache.
        self.cache_pool = cache_pool
        # Pre-encode the category continuations once.
        self._category_ids = {
            category: self.tokenizer.encode_causal(category, add_bos=False)
            for category in CATEGORIES
        }
        self._max_category_len = max(len(ids) for ids in self._category_ids.values())
        self._scorer = PrefixCachedScorer(model, pool=cache_pool)

    # ------------------------------------------------------------------ #
    def _prompt_fits(self, prompt_ids: np.ndarray) -> bool:
        return len(prompt_ids) + self._max_category_len <= self.model.config.max_position

    def _score_category(self, prompt_ids: np.ndarray, category: str) -> float:
        """Reference (uncached) scoring path; also handles over-long prompts."""
        continuation = self._category_ids[category]
        sequence = np.concatenate([prompt_ids, continuation])
        max_len = self.model.config.max_position
        if len(sequence) > max_len:
            # Keep the tail of the prompt: the query and nearest examples are
            # the most informative context.
            sequence = sequence[-max_len:]
        prefix_length = len(sequence) - len(continuation)
        log_prob = self.model.sequence_log_prob(sequence, prefix_length)
        return log_prob / max(len(continuation), 1)

    def score_prompt_ids(
        self, prompt_ids: np.ndarray, scorer: PrefixCachedScorer | None = None
    ) -> dict[str, float]:
        """Per-token log-probability of each category continuing ``prompt_ids``.

        ``scorer`` lets a caller with its own locality pattern (e.g. the
        streaming detector, whose successive prompts extend one another)
        bring a dedicated prefix cache instead of sharing the engine's.
        """
        if not (self.use_cache and self._prompt_fits(prompt_ids)):
            return {c: self._score_category(prompt_ids, c) for c in CATEGORIES}
        candidates = [self._category_ids[c] for c in CATEGORIES]
        raw = (scorer or self._scorer).score_continuations(prompt_ids, candidates)
        return {
            c: raw[i] / max(len(candidates[i]), 1) for i, c in enumerate(CATEGORIES)
        }

    @staticmethod
    def prediction_from_scores(scores: dict[str, float]) -> ICLPrediction:
        """Turn per-category log-prob scores into an :class:`ICLPrediction`."""
        label = int(scores["Abnormal"] > scores["Normal"])
        return ICLPrediction(
            label=label,
            category=CATEGORIES[label],
            log_prob_normal=scores["Normal"],
            log_prob_abnormal=scores["Abnormal"],
        )

    def classify(
        self,
        query: JobRecord | str,
        examples: Sequence[tuple[JobRecord | str, int]] = (),
    ) -> ICLPrediction:
        """Classify one job given in-context examples (empty → zero-shot)."""
        prompt = self.template.build(query, examples)
        prompt_ids = self.tokenizer.encode_causal(prompt)
        return self.prediction_from_scores(self.score_prompt_ids(prompt_ids))

    # ------------------------------------------------------------------ #
    def _score_prompts_batched(self, prompts: list[np.ndarray]) -> list[dict[str, float]]:
        """Score every prompt against both categories with shared-prefix batching.

        The longest token prefix common to all prompts (the few-shot example
        block plus the constant head of the query template) is prefilled into
        a KV cache once (or drawn from the pool) and read once per layer into
        a :class:`~repro.nn.SharedPrefixKVCache` that every chunk shares; the
        per-prompt remainders are then scored in right-padded batches of
        ``self.batch_size`` rows, each row holding only its own suffix, and
        only the scored positions pass through the last layer.  Prompts too
        long for the context window fall back to the truncating reference
        path.
        """
        results: list[dict[str, float] | None] = [None] * len(prompts)
        fit = [i for i, p in enumerate(prompts) if self._prompt_fits(p)]
        fit_set = set(fit)
        for i, p in enumerate(prompts):
            if i not in fit_set:
                results[i] = {c: self._score_category(p, c) for c in CATEGORIES}
        if not fit:
            return results

        arrays = [prompts[i] for i in fit]
        common = len(arrays[0])
        for p in arrays[1:]:
            common = min(common, common_prefix_length(arrays[0], p))
        # Keep at least the final prompt token uncached so every row's first
        # scored position is covered by its own forward.
        common = min(common, min(len(p) for p in arrays) - 1)
        categories = [self._category_ids[c] for c in CATEGORIES]
        single_token = all(len(c) == 1 for c in categories)

        base = None
        pooled = self.cache_pool is not None and common > 0
        if pooled:
            # Draw the shared-prefix prefill from the process-wide pool:
            # another engine (or a previous batch) may already have it.
            base, _ = self.cache_pool.checkout(arrays[0][:common])
        if base is None:
            base = self.model.make_cache(1, max(common, 1))
        try:
            if common > base.length:
                self.model.forward_incremental(
                    arrays[0][None, base.length : common], base
                )

            # One row per prompt when both categories are single tokens
            # (both scores read off the same last-position distribution);
            # one row per (prompt, category) otherwise.
            if single_token:
                rows = [(i, None, p[common:]) for i, p in zip(fit, arrays)]
            else:
                rows = [
                    (i, c, np.concatenate([p[common:], categories[c][:-1]]))
                    for i, p in zip(fit, arrays)
                    for c in range(len(CATEGORIES))
                ]

            # The prefix is read once for every chunk: one zero-copy
            # view (dense) or one gather (paged) per layer.
            prefix = SharedPrefixKVCache.read_prefix(base)
            partial: dict[int, dict[str, float]] = {i: {} for i in fit}
            for start in range(0, len(rows), self.batch_size):
                chunk = rows[start : start + self.batch_size]
                longest = max(len(r[2]) for r in chunk)
                padded = np.zeros((len(chunk), longest), dtype=np.int64)
                for r, (_, _, tokens) in enumerate(chunk):
                    padded[r, : len(tokens)] = tokens
                # Row r's scored positions start at its last prompt
                # token; only those columns go through the last layer
                # (a shorter candidate repeats its final column).
                widths = [1 if cat is None else len(categories[cat]) for _, cat, _ in chunk]
                columns = np.empty((len(chunk), max(widths)), dtype=np.int64)
                for r, (i, _, _) in enumerate(chunk):
                    last = len(prompts[i]) - common - 1
                    columns[r] = last + np.minimum(np.arange(columns.shape[1]), widths[r] - 1)
                cache = SharedPrefixKVCache(prefix, len(chunk), longest)
                logits = self.model.forward_incremental(padded, cache, logit_columns=columns)
                log_probs = F.log_softmax(logits, axis=-1).data
                for r, (i, cat, _) in enumerate(chunk):
                    if cat is None:
                        for c, name in enumerate(CATEGORIES):
                            token = int(categories[c][0])
                            partial[i][name] = float(log_probs[r, 0, token])
                    else:
                        cand = categories[cat]
                        total = float(log_probs[r, np.arange(len(cand)), cand].sum())
                        partial[i][CATEGORIES[cat]] = total / max(len(cand), 1)
            for i in fit:
                results[i] = partial[i]
        finally:
            if pooled:
                # Even if scoring raised, the shared prefill must go back
                # to the pool for other engines.  A forward that failed
                # mid-stack can leave layers at different lengths; roll
                # back to the shortest so the cache stays consistent.
                base.truncate(min(layer.length for layer in base.layers))
                self.cache_pool.checkin(arrays[0][:common], base)
        return results

    def classify_batch(
        self,
        queries: Sequence[JobRecord | str],
        *,
        selector: FewShotSelector | None = None,
        num_examples: int = 0,
        resample_per_query: bool = False,
    ) -> list[ICLPrediction]:
        """Classify many jobs.

        ``selector`` supplies the in-context examples; with
        ``resample_per_query=False`` (the default, and the cheaper option)
        one example set is drawn and reused for every query — its prompt
        prefix is then computed once and shared across the whole batch.
        """
        if selector is not None and num_examples > 0 and resample_per_query:
            # Per-query example sets: no batch-wide shared block, but the
            # prefix-cached scorer still reuses whatever head the successive
            # prompts share (e.g. the task-description block).
            return [
                self.classify(query, selector.select(num_examples)) for query in queries
            ]
        examples: list[tuple[JobRecord, int]] = []
        if selector is not None and num_examples > 0:
            examples = selector.select(num_examples)
        if not self.use_cache:
            return [self.classify(query, examples) for query in queries]
        # Encode the block every query shares once.  Joining head and tail
        # with "\n" cannot merge tokens across the seam (no token matches
        # whitespace), so each concatenation equals encoding the built prompt.
        head_ids = self.tokenizer.encode_causal(self.template.head(examples))
        prompts = [
            np.concatenate(
                [head_ids, self.tokenizer.encode_causal(self.template.tail(query), add_bos=False)]
            )
            for query in queries
        ]
        return [self.prediction_from_scores(scores) for scores in self._score_prompts_batched(prompts)]

    def evaluate(
        self,
        queries: Sequence[JobRecord | str],
        labels: Sequence[int] | np.ndarray,
        *,
        selector: FewShotSelector | None = None,
        num_examples: int = 0,
        resample_per_query: bool = False,
    ) -> MetricReport:
        """Accuracy / precision / recall / F1 of prompted classification."""
        predictions = self.classify_batch(
            queries,
            selector=selector,
            num_examples=num_examples,
            resample_per_query=resample_per_query,
        )
        y_pred = np.array([p.label for p in predictions], dtype=np.int64)
        return classification_report(np.asarray(labels, dtype=np.int64), y_pred)

    def anomaly_scores(
        self,
        queries: Sequence[JobRecord | str],
        *,
        selector: FewShotSelector | None = None,
        num_examples: int = 0,
        resample_per_query: bool = False,
    ) -> np.ndarray:
        """P(Abnormal) per query, for ROC-AUC / AP / P@k (Table IV)."""
        predictions = self.classify_batch(
            queries,
            selector=selector,
            num_examples=num_examples,
            resample_per_query=resample_per_query,
        )
        return np.array([p.anomaly_score for p in predictions], dtype=np.float64)
