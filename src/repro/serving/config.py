"""Unified engine configuration: one validated object for every front end.

:class:`~repro.serving.engine.ContinuousBatchingEngine`,
:class:`~repro.serving.aio.AsyncEngine` and the fleet's worker builder all
take their tunables (batch geometry, KV storage) from one
:class:`EngineConfig` passed as ``config=`` (``None`` means the defaults),
so the validation lives in one place.  Admission has no tunable: a queued
request joins the live batch at the next step boundary whenever a row is
free.  The config is a *frozen* dataclass validated at construction,
picklable (so it crosses the fleet's process boundary unchanged) and JSON
round-trippable (so the HTTP server and the benchmark script configure
engines declaratively).
"""

from __future__ import annotations

import dataclasses
import json
import numbers
from dataclasses import dataclass

__all__ = ["EngineConfig"]


def _positive_int(name: str, value) -> None:
    # bool is an Integral subclass, and a JSON ``true`` must not become 1.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


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
    #: KV storage of the live batch: ``"dense"`` or ``"paged"``.
    kv_layout: str = "dense"
    #: KV element type: ``"fp32"`` or ``"int8"`` (paged block store).
    kv_dtype: str = "fp32"

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Raise ``ValueError`` on any ill-typed or out-of-range field (no
        side effects)."""
        from repro.nn.paged import validate_kv_config

        _positive_int("max_batch_rows", self.max_batch_rows)
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
