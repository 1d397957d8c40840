"""Batched serving layer: continuous batching, prefix pooling, coalescing.

Built on the incremental-inference subsystem (PR 1) and the decode stepping
core (:class:`~repro.models.decoder.DecodeBatch`), this package provides the
pieces that turn single-stream inference into a serving stack:

* :class:`PrefixCachePool` — a process-wide, capacity-bounded LRU pool of
  prompt-prefix KV caches, shared by every scorer/engine/detector built on
  the same model, with hit/miss/eviction statistics.
* :class:`ContinuousBatchingEngine` — the iteration-level decode engine:
  requests are admitted into the live batch *between* steps (prefilled via
  the prefix pool), rows retire the moment they finish, freed slots refill
  from the queue, and every request carries SLA timings (queue, prefill,
  decode, time-to-first-token).
* :class:`AsyncEngine` — the arrival-driven async front-end: a background
  stepping thread owns the engine, clients get a future per request
  (``submit``), awaitables (``generate``/``score``), per-request token
  streams, cancellation and timeouts, and drain/abort shutdown.
* :class:`ReplicaFleet` — data-parallel scale-out: N engine workers in
  separate processes, each with a private model/pool/engine, behind a
  prefix-affinity router that pins prompt families to the replica whose
  pool already holds their KV blocks (load-aware spill when saturated),
  with warm-prefix migration over the pool's serialized byte format.
* :class:`EngineConfig` — the one frozen, validated configuration object
  every engine constructor above takes as ``config=``; JSON
  round-trippable and picklable across fleet workers.
* :class:`HttpServer` — the production HTTP front end over
  :class:`AsyncEngine`: SSE token streaming, request priorities and
  deadlines, per-tenant token-bucket rate limits, queue-depth load
  shedding (429 + Retry-After), Prometheus ``/metrics`` and ``/healthz``.
"""

from repro.serving.config import EngineConfig
from repro.serving.pool import PoolStats, PrefixCachePool, stable_prefix_key
from repro.serving.engine import ContinuousBatchingEngine, EngineRequest, EngineStats
from repro.serving.aio import AsyncEngine, AsyncRequest, RequestCancelled, RequestTimeout
from repro.serving.fleet import FleetRequest, FleetStats, ReplicaFleet
from repro.serving.http import HttpServer, HttpStats, TokenBucket

__all__ = [
    "EngineConfig",
    "PoolStats",
    "PrefixCachePool",
    "stable_prefix_key",
    "FleetRequest",
    "FleetStats",
    "ReplicaFleet",
    "ContinuousBatchingEngine",
    "EngineRequest",
    "EngineStats",
    "AsyncEngine",
    "AsyncRequest",
    "RequestCancelled",
    "RequestTimeout",
    "HttpServer",
    "HttpStats",
    "TokenBucket",
]
