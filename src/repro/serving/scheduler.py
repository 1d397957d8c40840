"""Serve-style front door: a thin sync adapter over the async engine.

Consumers (benchmark drivers, notebook sessions, the detection pipeline)
submit *generate* or *score* requests one at a time; the scheduler queues
them and, on :meth:`BatchScheduler.flush`, hands the whole pending set to
an :class:`~repro.serving.aio.AsyncEngine` in one atomic batch and blocks
on the futures.  The async engine's background stepping thread drives the
:class:`~repro.serving.engine.ContinuousBatchingEngine` — admitting up to
``max_batch_size`` rows at a time, retiring each row the moment it
finishes, and refilling freed slots from the queue — so requests with
different token budgets, temperatures or stop sets share one live batch.
Score requests run on the same stepping thread through a
:class:`~repro.models.decoder.PrefixCachedScorer` backed by the same
process-wide :class:`~repro.serving.pool.PrefixCachePool`, so generate
prefills, score prefills and streaming detectors all reuse each other's
overlapping prompt work.  Results come back on the request handles in
submit order.

Because the batch is submitted atomically and the stepping thread drains
its whole inbox before stepping, a flush behaves exactly like driving the
engine synchronously: admission groups, step counts and greedy outputs are
identical to the pre-async scheduler.  Callers that want arrival-driven
behaviour (futures, streaming, cancellation, timeouts) should use
:attr:`BatchScheduler.aio` — or construct an
:class:`~repro.serving.aio.AsyncEngine` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.models.decoder import DecoderLM
from repro.serving.pool import PrefixCachePool
from repro.utils.rng import new_rng

__all__ = ["ServingRequest", "SchedulerStats", "BatchScheduler"]

#: Upper bound on one flush (seconds).  A deadlocked stepping thread turns
#: into a reported per-request error instead of a silent infinite hang.
_FLUSH_TIMEOUT = 600.0


@dataclass
class ServingRequest:
    """Handle for one submitted request; ``result`` is set by ``flush``."""

    request_id: int
    kind: str  # "generate" | "score"
    prompt_ids: np.ndarray
    max_new_tokens: int = 0
    temperature: float = 0.0
    stop_ids: frozenset = frozenset()
    candidates: tuple = ()
    done: bool = False
    result: np.ndarray | None = None
    #: Error message when the request failed during flush (result stays None).
    error: str | None = None


@dataclass
class SchedulerStats:
    """Counters describing how well requests coalesced into batches.

    With the continuous engine a "batch" is one *admission group* — the
    rows admitted together into the live batch between two decode steps —
    rather than a closed padded batch decoded to completion.
    """

    submitted: int = 0
    flushed: int = 0
    flushes: int = 0
    generate_batches: int = 0
    batch_sizes: list = field(default_factory=list)

    @property
    def largest_batch(self) -> int:
        return max(self.batch_sizes) if self.batch_sizes else 0

    @property
    def mean_batch_size(self) -> float:
        return float(np.mean(self.batch_sizes)) if self.batch_sizes else 0.0


class BatchScheduler:
    """Coalesce generate/score requests onto the async serving engine."""

    def __init__(
        self,
        model: DecoderLM,
        *,
        # Documented adapter knob predating EngineConfig: maps 1:1 onto
        # config.max_batch_rows for callers of the PR-1 scheduler API.
        max_batch_size: int | None = None,  # lint: allow RPR004
        cache_pool: PrefixCachePool | None = None,
        rng: np.random.Generator | int | None = None,
        config=None,
        **legacy,
    ) -> None:
        # Deferred imports: the engine module subclasses SchedulerStats.
        from repro.serving.aio import AsyncEngine
        from repro.serving.config import EngineConfig

        if max_batch_size is not None and max_batch_size <= 0:
            raise ValueError(f"max_batch_size must be positive, got {max_batch_size}")
        config = EngineConfig.from_kwargs(legacy, base=config, owner="BatchScheduler")
        if max_batch_size is not None:
            # max_batch_size is this adapter's own documented knob (it maps
            # onto max_batch_rows), not a deprecated alias — fold it in
            # without a warning.
            config = config.replace(max_batch_rows=int(max_batch_size))
        self.config = config
        self.model = model
        self.max_batch_size = config.max_batch_rows
        # An empty pool is falsy (``__len__``), so test for None explicitly.
        if cache_pool is None:
            cache_pool = PrefixCachePool.default(model, config.kv_layout, config.kv_dtype)
        self.cache_pool = cache_pool
        self.rng = new_rng(rng)
        self.stats = SchedulerStats()
        #: The async front-end every flush runs through; its background
        #: stepping thread owns the model.  Shares this scheduler's rng
        #: stream and prefix-cache pool.
        self.aio = AsyncEngine(
            model,
            config=config,
            cache_pool=self.cache_pool,
            rng=self.rng,
        )
        #: The iteration-level decode engine under the async front-end
        #: (kept as a direct attribute for callers that drive admission
        #: step by step or read per-request SLA stats).
        self.engine = self.aio.engine
        self._pending: list[ServingRequest] = []
        self._next_id = 0

    # ------------------------------------------------------------------ #
    @property
    def pending(self) -> int:
        """Number of requests queued but not yet flushed."""
        return len(self._pending)

    def _enqueue(self, request: ServingRequest) -> ServingRequest:
        self._pending.append(request)
        self.stats.submitted += 1
        return request

    def submit_generate(
        self,
        prompt_ids: np.ndarray,
        max_new_tokens: int = 16,
        *,
        temperature: float = 0.0,
        stop_ids: set[int] | None = None,
    ) -> ServingRequest:
        """Queue an autoregressive-generation request.

        Validation happens here, at submit time, so a bad prompt cannot
        strand its flush batchmates.
        """
        from repro.serving.engine import validate_prompt

        prompt = validate_prompt(self.model, prompt_ids)
        request = ServingRequest(
            request_id=self._next_id,
            kind="generate",
            prompt_ids=prompt,
            max_new_tokens=int(max_new_tokens),
            temperature=float(temperature),
            stop_ids=frozenset(stop_ids or ()),
        )
        self._next_id += 1
        return self._enqueue(request)

    def submit_score(
        self, prompt_ids: np.ndarray, candidates: Sequence[np.ndarray]
    ) -> ServingRequest:
        """Queue a candidate-continuation scoring request."""
        prompt = np.asarray(prompt_ids, dtype=np.int64).ravel()
        if len(prompt) == 0:
            raise ValueError("score requests need a non-empty prompt")
        request = ServingRequest(
            request_id=self._next_id,
            kind="score",
            prompt_ids=prompt,
            candidates=tuple(np.asarray(c, dtype=np.int64).ravel() for c in candidates),
        )
        self._next_id += 1
        return self._enqueue(request)

    # ------------------------------------------------------------------ #
    def flush(self) -> list[ServingRequest]:
        """Run every pending request; return the handles in submit order.

        The whole pending set is submitted to the async engine atomically
        and this thread blocks on the futures: generate requests run
        through the continuous engine (up to ``max_batch_size`` live rows,
        immediate retirement, slot refill), score requests through the
        pool-backed prefix-cached scorer — all on the engine's stepping
        thread, so a flush from any thread is safe.
        """
        pending, self._pending = self._pending, []
        if not pending:
            return []

        batches_before = len(self.engine.stats.batch_sizes)
        specs = []
        for request in pending:
            if request.kind == "generate":
                specs.append(
                    {
                        "prompt_ids": request.prompt_ids,
                        "max_new_tokens": request.max_new_tokens,
                        "temperature": request.temperature,
                        "stop_ids": set(request.stop_ids),
                    }
                )
            else:
                specs.append(
                    {
                        "kind": "score",
                        "prompt_ids": request.prompt_ids,
                        "candidates": request.candidates,
                    }
                )
        try:
            handles = self.aio.submit_batch(specs)
        except Exception as exc:  # e.g. the engine was shut down
            for request in pending:
                request.error = str(exc)
                request.done = True
            self.stats.flushed += len(pending)
            self.stats.flushes += 1
            return pending
        for request, handle in zip(pending, handles):
            try:
                request.result = handle.result(timeout=_FLUSH_TIMEOUT)
            except Exception as exc:  # a bad request must not strand the rest
                request.error = str(exc)
            request.done = True

        admission_sizes = self.engine.stats.batch_sizes[batches_before:]
        self.stats.generate_batches += len(admission_sizes)
        self.stats.batch_sizes.extend(admission_sizes)
        self.stats.flushed += len(pending)
        self.stats.flushes += 1
        return pending

    def close(self) -> None:
        """Shut down the async engine's stepping thread (drain mode)."""
        self.aio.shutdown(drain=True)

    def __enter__(self) -> "BatchScheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
