"""Chain-of-thought (CoT) explanations for ICL predictions (paper Fig. 13).

The paper removes the "answer with only the category" instruction, appends
"Please think about it step by step.", and the model produces a rationale
that compares each feature of the query job against the mean values of
normal and abnormal jobs before giving a verdict.

A laptop-scale decoder cannot generate fluent free-form prose, so the
rationale text here is *composed* from exactly the statistics the paper's
example reasons over (per-class feature means estimated from the example
pool / training data), while the final category still comes from the LM
scoring path of :class:`~repro.icl.engine.ICLEngine`.  This preserves the
interpretability property — every step is a verifiable feature-vs-class-mean
comparison — which is the claim Fig. 13 supports
(``benchmarks/test_fig13_cot.py`` prints one such rationale and checks its
steps and verdict).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.icl.engine import ICLEngine, ICLPrediction
from repro.icl.prompts import CATEGORIES, PromptTemplate
from repro.tokenization.templates import FEATURE_ORDER, JobRecord

__all__ = ["CoTResult", "ChainOfThoughtExplainer"]


@dataclass
class CoTResult:
    """A step-by-step rationale plus the model's final verdict."""

    steps: list[str] = field(default_factory=list)
    votes_normal: int = 0
    votes_abnormal: int = 0
    statistic_category: str = "Normal"
    model_prediction: ICLPrediction | None = None
    prompt: str = ""

    @property
    def category(self) -> str:
        """Final category (the LM's verdict when available)."""
        if self.model_prediction is not None:
            return self.model_prediction.category
        return self.statistic_category

    def text(self) -> str:
        """Render the rationale in the format of the paper's Fig. 13 output."""
        lines = ["Sure, here's the step-by-step reasoning:"]
        lines.extend(f"{i + 1}. {step}" for i, step in enumerate(self.steps))
        qualifier = "" if abs(self.votes_normal - self.votes_abnormal) > 1 else ", but it's a close call"
        lines.append(f"Therefore, the category is likely {self.category}{qualifier}.")
        return "\n".join(lines)


class ChainOfThoughtExplainer:
    """Produce interpretable, statistics-grounded rationales for ICL decisions."""

    def __init__(
        self,
        engine: ICLEngine,
        reference_records: Sequence[JobRecord],
        feature_names: tuple[str, ...] = FEATURE_ORDER,
    ) -> None:
        if not reference_records:
            raise ValueError("CoT explainer needs labeled reference records to compute statistics")
        self.engine = engine
        self.feature_names = feature_names
        self._means = self._class_means(reference_records)
        # The CoT-prompted engine is built once and shared across explain()
        # calls: its prefix-cached scorer then reuses the KV cache of the
        # constant instruction block (and any shared examples) between
        # successive queries instead of recomputing it per explanation.
        self._cot_engine = ICLEngine(
            engine.model,
            engine.tokenizer,
            template=PromptTemplate(chain_of_thought=True),
            use_cache=engine.use_cache,
            cache_pool=engine.cache_pool,
        )

    # ------------------------------------------------------------------ #
    def _class_means(self, records: Sequence[JobRecord]) -> dict[int, dict[str, float]]:
        sums: dict[int, dict[str, list[float]]] = {0: {}, 1: {}}
        for record in records:
            if record.label not in (0, 1):
                continue
            for name in self.feature_names:
                if name in record.features:
                    sums[record.label].setdefault(name, []).append(record.features[name])
        means: dict[int, dict[str, float]] = {0: {}, 1: {}}
        for label, per_feature in sums.items():
            for name, values in per_feature.items():
                means[label][name] = float(np.mean(values))
        if not means[0] or not means[1]:
            raise ValueError("reference records must contain both normal and anomalous jobs")
        return means

    def class_mean(self, label: int, feature: str) -> float:
        """Mean value of ``feature`` among reference jobs with ``label``."""
        return self._means[label][feature]

    # ------------------------------------------------------------------ #
    def explain(
        self,
        query: JobRecord,
        examples: Sequence[tuple[JobRecord, int]] = (),
    ) -> CoTResult:
        """Build the step-by-step rationale and obtain the LM verdict."""
        result = CoTResult()
        result.steps.append(
            "Compare the given job's features with the mean values of the normal "
            "and abnormal jobs."
        )
        ambiguous: list[str] = []
        for name in self.feature_names:
            value = query.features.get(name)
            if value is None or name not in self._means[0] or name not in self._means[1]:
                continue
            normal_mean = self._means[0][name]
            abnormal_mean = self._means[1][name]
            dist_normal = abs(value - normal_mean)
            dist_abnormal = abs(value - abnormal_mean)
            pretty = name.replace("_", " ")
            if np.isclose(dist_normal, dist_abnormal, rtol=0.05):
                ambiguous.append(pretty)
                continue
            closer = "normal" if dist_normal < dist_abnormal else "abnormal"
            if closer == "normal":
                result.votes_normal += 1
            else:
                result.votes_abnormal += 1
            result.steps.append(
                f"The {pretty} of the given job is {value:.1f}, which is closer to the mean "
                f"{pretty} of the {closer} job ({(normal_mean if closer == 'normal' else abnormal_mean):.1f}) "
                f"than the mean {pretty} of the "
                f"{'abnormal' if closer == 'normal' else 'normal'} job "
                f"({(abnormal_mean if closer == 'normal' else normal_mean):.1f})."
            )
        if ambiguous:
            result.steps.append(
                "The " + ", ".join(ambiguous) + " of the given job are all close to the mean "
                "values of both normal and abnormal jobs, so they don't provide clear distinction."
            )
        result.statistic_category = (
            CATEGORIES[1] if result.votes_abnormal > result.votes_normal else CATEGORIES[0]
        )
        result.steps.append(
            f"Based on the remaining features, {result.votes_normal} features look normal and "
            f"{result.votes_abnormal} look abnormal."
        )
        # The LM verdict, prompted with the CoT template (no "category only"
        # restriction, explicit step-by-step instruction).
        result.prompt = self._cot_engine.template.build(query, examples)
        result.model_prediction = self._cot_engine.classify(query, examples)
        return result
