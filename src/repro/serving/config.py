"""Unified engine configuration: one validated object for every front end.

:class:`~repro.serving.engine.ContinuousBatchingEngine`,
:class:`~repro.serving.aio.AsyncEngine` and the fleet's worker builder all
take their tunables (batch geometry, admission policy, KV storage,
speculative decoding) from one :class:`EngineConfig` passed as ``config=``
(``None`` means the defaults), so the validation lives in one place.  The
config is a *frozen* dataclass validated at construction, picklable (so
it crosses the fleet's process boundary unchanged) and JSON
round-trippable (so the HTTP server and the benchmark script configure
engines declaratively).

``draft_model`` may be a live :class:`~repro.models.decoder.DecoderLM`
(in-process use) or a registry model *name* (declarative / cross-process
use); :meth:`resolve_draft_model` materialises the latter on demand.  Only
the name form serialises to JSON — a weight blob has no business inside a
config file.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

__all__ = ["EngineConfig"]


@dataclass(frozen=True)
class EngineConfig:
    """Validated, immutable configuration shared by every serving engine.

    Instances validate eagerly: constructing one with a bad field raises
    ``ValueError`` immediately, *before* any engine resources (threads,
    pools, caches) exist — front ends rely on this ordering so a bad
    config can never leak a half-built engine.
    """

    #: Live-batch row capacity (concurrent decoding requests).
    max_batch_rows: int = 8
    #: Idle-engine batch-closing deadline in seconds (0 = admit at once).
    admit_deadline: float = 0.0
    #: Group small admissions until this many can be admitted together.
    min_admit_rows: int = 1
    #: Per-step prefill token budget (Sarathi chunking); ``None`` = atomic.
    prefill_chunk_tokens: int | None = None
    #: KV storage of the live batch: ``"dense"`` or ``"paged"``.
    kv_layout: str = "dense"
    #: KV element type: ``"fp32"`` or ``"int8"`` (paged block store).
    kv_dtype: str = "fp32"
    #: Speculative drafter: a live ``DecoderLM``, a registry model name,
    #: or ``None`` to decode plainly.
    draft_model: object | None = None
    #: Tokens the drafter proposes per iteration.
    draft_k: int = 4
    #: Allow the scheduler to preempt a decoding row when a strictly
    #: higher-priority request is waiting and the batch is full.  Equal
    #: priorities never preempt, so all-default traffic is unaffected.
    allow_preemption: bool = True

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Raise ``ValueError`` on any out-of-range field (no side effects)."""
        from repro.nn.paged import validate_kv_config

        if self.max_batch_rows <= 0:
            raise ValueError(
                f"max_batch_rows must be positive, got {self.max_batch_rows}"
            )
        if self.admit_deadline < 0:
            raise ValueError(
                f"admit_deadline must be >= 0, got {self.admit_deadline}"
            )
        if not 0 < self.min_admit_rows <= self.max_batch_rows:
            raise ValueError(
                f"min_admit_rows must lie in [1, max_batch_rows], "
                f"got {self.min_admit_rows}"
            )
        if self.prefill_chunk_tokens is not None and self.prefill_chunk_tokens <= 0:
            raise ValueError(
                f"prefill_chunk_tokens must be positive, "
                f"got {self.prefill_chunk_tokens}"
            )
        validate_kv_config(self.kv_layout, self.kv_dtype)
        if self.draft_k <= 0:
            raise ValueError(f"draft_k must be positive, got {self.draft_k}")

    def replace(self, **changes) -> "EngineConfig":
        """A copy with ``changes`` applied (re-validated on construction)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------ #
    def resolve_draft_model(self):
        """The drafter as a live model, loading registry names on demand."""
        if self.draft_model is None or not isinstance(self.draft_model, str):
            return self.draft_model
        from repro.models.registry import default_registry

        return default_registry().load_decoder(self.draft_model)

    # ------------------------------------------------------------------ #
    def to_json(self) -> str:
        """Serialise to a JSON object string (declarative config files).

        A live in-process drafter model cannot be serialised — use the
        registry-name form for declarative configs.
        """
        payload = dataclasses.asdict(self)
        draft = payload["draft_model"]
        if draft is not None and not isinstance(draft, str):
            raise ValueError(
                "draft_model holds a live model instance; only registry-name "
                "drafters serialise to JSON"
            )
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EngineConfig":
        """Parse a JSON object into a validated config.

        Unknown keys raise (a typo in a config file must not silently
        become a default), and every field is validated as usual.
        """
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError(f"engine config JSON must be an object, got {payload!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown engine config keys: {', '.join(unknown)}")
        return cls(**payload)
