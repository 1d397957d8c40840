"""Online (streaming) anomaly detection — paper Fig. 7.

As a job executes, its log fields arrive one at a time (first the
workflow-management-system delay, then the queue delay, then the runtime,
and so on).  The online detector re-classifies the job every time a new
feature becomes available, so an anomaly can be flagged before the job has
even finished staging its outputs.

Two detector families share the streaming interface:

* :class:`OnlineDetector` — the paper's fine-tuned SFT (encoder) classifier
  applied to growing sentence prefixes.  Its :meth:`~OnlineDetector.stream_batch`
  coalesces the per-step classifications of many jobs into one encoder
  batch per arrival step, so streaming a workload costs ``max_steps``
  batched forwards instead of ``jobs × steps`` single-row forwards.
* :class:`ICLStreamingDetector` — a prompted decoder LM.  Because each
  step's prompt literally extends the previous step's prompt (one more
  feature appended to the job sentence), the detector keeps a
  :class:`~repro.models.decoder.PrefixCachedScorer`: every re-classification
  only forwards the newly arrived feature tokens plus the short template
  tail against the cached keys/values of everything already seen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.icl.engine import ICLEngine
from repro.models.decoder import PrefixCachedScorer
from repro.tokenization.templates import FEATURE_ORDER, JobRecord, record_to_sentence
from repro.training.trainer import SFTTrainer

__all__ = [
    "StreamingPrediction",
    "StreamingDetectorBase",
    "OnlineDetector",
    "ICLStreamingDetector",
]


@dataclass(frozen=True)
class StreamingPrediction:
    """Prediction after observing the first ``num_features`` features of a job."""

    step: int
    num_features: int
    latest_feature: str
    sentence: str
    label: int
    score: float

    @property
    def label_name(self) -> str:
        # The paper's Fig. 7 shows the raw HuggingFace labels; LABEL_0 is
        # normal and LABEL_1 anomalous.
        return f"LABEL_{self.label}"


class StreamingDetectorBase:
    """Shared logic for streaming detectors: everything on top of ``stream``."""

    feature_order: tuple[str, ...]

    def stream(self, record: JobRecord) -> Iterator[StreamingPrediction]:
        """Yield one prediction per newly observed feature (in arrival order)."""
        raise NotImplementedError

    def _available_features(self, record: JobRecord) -> list[str]:
        available = [name for name in self.feature_order if name in record.features]
        if not available:
            raise ValueError("record has no features from the canonical feature order")
        return available

    def detect(self, record: JobRecord, threshold: float = 0.5) -> StreamingPrediction | None:
        """Return the first streaming prediction that flags the job anomalous.

        ``None`` means the job was never flagged, even with all features seen.
        """
        for prediction in self.stream(record):
            if prediction.label == 1 and prediction.score >= threshold:
                return prediction
        return None

    def first_correct_step(self, record: JobRecord) -> int | None:
        """Index (1-based) of the first prefix whose prediction matches the true label."""
        if record.label is None:
            raise ValueError("first_correct_step requires a labeled record")
        for prediction in self.stream(record):
            if prediction.label == int(record.label):
                return prediction.step
        return None

    def stream_batch(self, records: Sequence[JobRecord]) -> list[list[StreamingPrediction]]:
        """Stream several jobs (returns one prediction list per job)."""
        return [list(self.stream(r)) for r in records]


class OnlineDetector(StreamingDetectorBase):
    """Classify growing prefixes of a job's features with a fine-tuned SFT model."""

    def __init__(self, trainer: SFTTrainer, feature_order: tuple[str, ...] = FEATURE_ORDER) -> None:
        self.trainer = trainer
        self.feature_order = feature_order

    # ------------------------------------------------------------------ #
    @staticmethod
    def _prediction(available, step, sentence, proba) -> StreamingPrediction:
        label = int(np.argmax(proba))
        return StreamingPrediction(
            step=step,
            num_features=step,
            latest_feature=available[step - 1],
            sentence=sentence,
            label=label,
            score=float(proba[label]),
        )

    def stream(self, record: JobRecord) -> Iterator[StreamingPrediction]:
        """Yield one prediction per newly observed feature (in arrival order)."""
        available = self._available_features(record)
        for step, _ in enumerate(available, start=1):
            sentence = record_to_sentence(record, order=self.feature_order, num_features=step)
            proba = self.trainer.predict_proba([sentence])[0]
            yield self._prediction(available, step, sentence, proba)

    def stream_batch(self, records: Sequence[JobRecord]) -> list[list[StreamingPrediction]]:
        """Stream several jobs with one encoder batch per arrival step.

        The base implementation re-classifies records one at a time, paying
        one single-row ``predict_proba`` forward per record per step.  Step
        ``k`` of every record is independent of the others, so the calls are
        coalesced *across* records: all records with at least ``k`` observed
        features are classified in a single encoder batch, turning
        N·steps single-row forwards into ``max_steps`` batched forwards.
        Predictions match the per-record :meth:`stream` output.
        """
        records = list(records)
        available = [self._available_features(r) for r in records]
        streams: list[list[StreamingPrediction]] = [[] for _ in records]
        for step in range(1, max((len(a) for a in available), default=0) + 1):
            indices = [i for i, a in enumerate(available) if len(a) >= step]
            sentences = [
                record_to_sentence(records[i], order=self.feature_order, num_features=step)
                for i in indices
            ]
            probas = self.trainer.predict_proba(sentences)
            for i, sentence, proba in zip(indices, sentences, probas):
                streams[i].append(self._prediction(available[i], step, sentence, proba))
        return streams


class ICLStreamingDetector(StreamingDetectorBase):
    """Streaming re-classification with a prompted decoder LM and prefix cache.

    Step ``k`` scores the prompt built from the first ``k`` features of the
    job.  Step ``k+1``'s prompt shares all of step ``k``'s sentence tokens,
    so the dedicated prefix-cached scorer recomputes only the new feature
    and the constant template tail — the transformer forward over the shared
    history is paid once per job, not once per step.
    """

    def __init__(
        self,
        engine: ICLEngine,
        feature_order: tuple[str, ...] = FEATURE_ORDER,
        pool=None,
    ) -> None:
        self.engine = engine
        self.feature_order = feature_order
        # With a shared PrefixCachePool (explicit, or the engine's), many
        # detectors and engines reuse each other's template/prefix prefills;
        # otherwise the detector keeps its private per-job prefix cache.
        # An empty pool is falsy (``__len__``), so test for None explicitly.
        if pool is None:
            pool = engine.cache_pool
        self._scorer = PrefixCachedScorer(engine.model, pool=pool)

    # ------------------------------------------------------------------ #
    def stream(self, record: JobRecord) -> Iterator[StreamingPrediction]:
        """Yield one prediction per newly observed feature (in arrival order)."""
        available = self._available_features(record)
        for step, _ in enumerate(available, start=1):
            sentence = record_to_sentence(record, order=self.feature_order, num_features=step)
            prompt = self.engine.template.build(sentence)
            prompt_ids = self.engine.tokenizer.encode_causal(prompt)
            scores = self.engine.score_prompt_ids(prompt_ids, scorer=self._scorer)
            prediction = self.engine.prediction_from_scores(scores)
            p_abnormal = prediction.anomaly_score
            yield StreamingPrediction(
                step=step,
                num_features=step,
                latest_feature=available[step - 1],
                sentence=sentence,
                label=prediction.label,
                score=float(p_abnormal if prediction.label == 1 else 1.0 - p_abnormal),
            )
