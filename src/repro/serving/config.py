"""Unified engine configuration: one validated object for every front end.

:class:`~repro.serving.engine.ContinuousBatchingEngine`,
:class:`~repro.serving.aio.AsyncEngine` and the fleet's worker builder all
take their tunables (batch geometry, admission policy, KV storage)
from one :class:`EngineConfig` passed as ``config=`` (``None`` means the
defaults), so the validation lives in one place.  The config is a *frozen*
dataclass validated at construction, picklable (so it crosses the fleet's
process boundary unchanged) and JSON round-trippable (so the HTTP server
and the benchmark script configure engines declaratively).
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

    def replace(self, **changes) -> "EngineConfig":
        """A copy with ``changes`` applied (re-validated on construction)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------ #
    def to_json(self) -> str:
        """Serialise to a JSON object string (declarative config files)."""
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

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
