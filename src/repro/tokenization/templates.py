"""Sentence templates for parsed workflow logs (paper Fig. 2 / Fig. 7).

A job's raw log entry is converted into a tabular record holding the timing,
I/O and CPU features the paper selects, and then verbalised as
``"wms_delay is 6.0 queue_delay is 22.0 ... cpu_time is 1.3"``.  The online
detection experiment consumes *prefixes* of this sentence as the features
become available over time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

__all__ = [
    "FEATURE_ORDER",
    "JobRecord",
    "record_to_sentence",
    "sentence_to_record",
    "streaming_prefixes",
]

#: Canonical feature order.  The order mirrors the lifecycle of a Pegasus job
#: (workflow-management-system delay, queue delay, execution, post-processing,
#: data staging, I/O volume, CPU time), which is what makes early detection
#: (Fig. 8) meaningful: earlier features become available earlier.
FEATURE_ORDER: tuple[str, ...] = (
    "wms_delay",
    "queue_delay",
    "runtime",
    "post_script_delay",
    "stage_in_delay",
    "stage_out_delay",
    "stage_in_bytes",
    "stage_out_bytes",
    "cpu_time",
)

NORMAL_LABEL = "Normal"
ANOMALOUS_LABEL = "Abnormal"


@dataclass
class JobRecord:
    """A single job's parsed log entry.

    Attributes
    ----------
    features:
        Mapping from feature name to numeric value; missing features are
        permitted (they simply do not appear in the sentence).
    label:
        0 for normal, 1 for anomalous, or ``None`` when unlabeled.
    job_name / workflow:
        Provenance metadata (useful for the DAG-aware baselines).
    anomaly_type:
        Anomaly subclass string (e.g. ``"cpu_3"``) when injected.
    """

    features: dict[str, float]
    label: int | None = None
    job_name: str = ""
    workflow: str = ""
    anomaly_type: str = "none"
    node_index: int = -1
    metadata: dict = field(default_factory=dict)

    def feature_vector(self, order: tuple[str, ...] = FEATURE_ORDER) -> np.ndarray:
        """Return features as a dense float vector in canonical order (NaN if missing)."""
        return np.array([self.features.get(name, np.nan) for name in order], dtype=np.float64)

    def is_anomalous(self) -> bool:
        return bool(self.label)

    def with_label(self, label: int | None) -> "JobRecord":
        return JobRecord(
            features=dict(self.features),
            label=label,
            job_name=self.job_name,
            workflow=self.workflow,
            anomaly_type=self.anomaly_type,
            node_index=self.node_index,
            metadata=dict(self.metadata),
        )


def _format_value(value: float) -> str:
    """Format a numeric value the way the paper's examples show them (e.g. 6.0)."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "unknown"
    value = float(value)
    return f"{value:.1f}" if abs(value) < 1e15 else f"{value:.3e}"


def record_to_sentence(
    record: JobRecord | Mapping[str, float],
    *,
    order: tuple[str, ...] = FEATURE_ORDER,
    include_label: bool = False,
    num_features: int | None = None,
) -> str:
    """Verbalise a job record following the Fig. 2 template.

    Parameters
    ----------
    record:
        A :class:`JobRecord` or a plain feature mapping.
    include_label:
        When true, append ``", Normal"`` / ``", Abnormal"`` — the SFT training
        sentence format.
    num_features:
        Emit only the first ``num_features`` features (streaming prefixes).
    """
    if isinstance(record, JobRecord):
        features = record.features
        label = record.label
    else:
        features = dict(record)
        label = None

    selected = [name for name in order if name in features]
    if num_features is not None:
        selected = selected[:num_features]
    parts = [f"{name} is {_format_value(features[name])}" for name in selected]
    sentence = " ".join(parts)
    if include_label:
        if label is None:
            raise ValueError("include_label=True requires a labeled record")
        sentence = f"{sentence}, {ANOMALOUS_LABEL if label else NORMAL_LABEL}"
    return sentence


def sentence_to_record(sentence: str) -> JobRecord:
    """Parse a sentence produced by :func:`record_to_sentence` back to a record."""
    sentence = sentence.strip()
    label: int | None = None
    if sentence.endswith(f", {NORMAL_LABEL}"):
        label = 0
        sentence = sentence[: -len(f", {NORMAL_LABEL}")]
    elif sentence.endswith(f", {ANOMALOUS_LABEL}"):
        label = 1
        sentence = sentence[: -len(f", {ANOMALOUS_LABEL}")]

    tokens = sentence.split()
    features: dict[str, float] = {}
    i = 0
    while i + 2 < len(tokens) + 1 and i + 2 <= len(tokens):
        name, is_word, value = tokens[i], tokens[i + 1], tokens[i + 2]
        if is_word != "is":
            raise ValueError(f"malformed sentence near token {i}: {sentence!r}")
        features[name] = float("nan") if value == "unknown" else float(value)
        i += 3
    if i != len(tokens):
        raise ValueError(f"trailing tokens in sentence: {sentence!r}")
    return JobRecord(features=features, label=label)


def streaming_prefixes(
    record: JobRecord, order: tuple[str, ...] = FEATURE_ORDER
) -> Iterator[tuple[int, str]]:
    """Yield ``(num_features, sentence_prefix)`` pairs in arrival order.

    This models the online-detection scenario of Fig. 7: at time ``T_k`` the
    first ``k`` features of the job are known.
    """
    available = [name for name in order if name in record.features]
    for k in range(1, len(available) + 1):
        yield k, record_to_sentence(record, order=order, num_features=k)
