"""Async serving front-end: an event loop over the continuous-batching engine.

The :class:`~repro.serving.engine.ContinuousBatchingEngine` schedules at
iteration level but is driven synchronously — callers must pre-collect
requests and drain.  :class:`AsyncEngine` turns it into an arrival-driven
server: a background *stepping thread* owns the engine and loops
``admit -> decode one step -> retire``; clients submit from any thread (or
any asyncio event loop) and get a future per request.  Requests arriving
mid-decode join the live batch at the next step boundary — exactly the
traffic shape the engine's admission policy was designed for.

Threading / locking contract
----------------------------

The design work here is keeping the :class:`~repro.models.decoder
.DecodeBatch` single-threaded while submissions come from anywhere:

* **Only the stepping thread touches the model or mutates the engine.**
  Admission, prefill, decode steps, retirement, cancellation, and the
  pool-backed scorer all run on it, so ``DecodeBatch``/``KVCache`` buffers
  never see concurrent mutation.
* **Submitters only enqueue.**  ``submit``/``submit_score`` validate the
  request, append it to an inbox deque under the engine lock, and notify
  the stepping thread's condition variable.  They never call into the
  engine.
* **Wakeups are arrival-driven, not polled.**  With no queued work and an
  empty batch the stepping thread parks on the condition variable
  (``EngineStats.parks``/``wakeups`` count park/wake cycles); a submission,
  cancellation, or shutdown wakes it.  While work remains every engine
  step makes progress (it admits, prefills, decodes or finishes
  something), so the thread never sleeps with work pending; per-request
  timeouts are checked at each step boundary.
* **Cancellation is a flag, retirement is the stepping thread's.**
  ``AsyncRequest.cancel()`` (or an expired per-request ``timeout``, or the
  awaiting asyncio task being cancelled) marks the request; at the next
  step boundary the stepping thread retires the row via
  :meth:`ContinuousBatchingEngine.cancel`, reclaiming its KV-cache row.
  A cancel racing natural retirement is a no-op.

Streaming and shutdown
----------------------

Each request can be consumed incrementally: :meth:`AsyncRequest.tokens`
returns an async iterator fed by the stepping thread (tokens emitted
before subscription are replayed first).  The hand-off is per step, not
per token: after each engine step, and after each pass that resolves
requests outside a step, the stepping thread gathers every streamed
row's new tokens and every resolved request's stream end in one lock
round, then makes one ``loop.call_soon_threadsafe`` per subscriber event
loop for the tokens (and one more for the stream ends, when some ended).
A loop thread therefore wakes once per step however many of its streams
advanced.  :meth:`AsyncEngine.shutdown` supports two modes —
``drain=True`` stops accepting new work, finishes everything queued and
live, then joins the thread; ``drain=False`` (abort) cancels all pending
work at the next step boundary.  Both leave every future resolved.

Greedy outputs are identical to the sequential cached path regardless of
how many clients submit concurrently or how arrivals interleave with
decoding — pinned by ``tests/test_async_serving.py``.
"""

from __future__ import annotations

import asyncio
import threading
import time
import weakref
from collections import deque
from concurrent.futures import Future
from typing import AsyncIterator, Callable, Sequence

import numpy as np

from repro.analysis.sanitize import maybe_watch_lock
from repro.models.decoder import DecoderLM, PrefixCachedScorer
from repro.serving.config import EngineConfig
from repro.serving.engine import (
    ContinuousBatchingEngine,
    EngineRequest,
    EngineStats,
    check_token_ids,
    validate_prompt,
)
from repro.serving.pool import PrefixCachePool
from repro.utils.rng import new_rng

__all__ = ["RequestCancelled", "RequestTimeout", "AsyncRequest", "AsyncEngine"]

#: Sentinel closing a token stream.
_END = object()


def _deliver(batch: list[tuple[asyncio.Queue, list]]) -> None:
    """Feed one publish pass's items to their queues (on the consumer loop)."""
    for queue, items in batch:
        for item in items:
            queue.put_nowait(item)


#: Bounded park cadence.  The stepping thread's condition-variable wait is
#: capped so the trampoline below can periodically drop its strong
#: reference: an AsyncEngine abandoned without ``shutdown()`` becomes
#: garbage-collectable (and its thread exits) within about a heartbeat,
#: instead of a parked thread pinning the engine and its KV state forever.
#: Wakeups remain arrival-driven — the heartbeat only services GC.
_GC_PARK_SECONDS = 1.0


def _stepper(engine_ref: "weakref.ref[AsyncEngine]") -> None:
    """Stepping-thread trampoline: strong engine reference only per iteration."""
    while True:
        engine = engine_ref()
        if engine is None:
            return
        alive = engine._loop_once()
        del engine
        if not alive:
            return


class RequestCancelled(Exception):
    """The request was cancelled before finishing its token budget.

    ``partial`` holds the tokens decoded before cancellation (prompt
    included), mirroring :attr:`EngineRequest.result` of a natural finish.
    """

    def __init__(self, request_id: int, partial: np.ndarray) -> None:
        super().__init__(f"request {request_id} cancelled")
        self.request_id = request_id
        self.partial = partial


class RequestTimeout(Exception):
    """The request's per-request deadline expired before it finished.

    ``partial`` holds the tokens decoded before expiry (prompt included;
    just the prompt when the request timed out while still queued).
    """

    def __init__(self, request_id: int, partial: np.ndarray) -> None:
        super().__init__(f"request {request_id} timed out")
        self.request_id = request_id
        self.partial = partial


class AsyncRequest:
    """Handle for one submission to an :class:`AsyncEngine`.

    ``future`` is a :class:`concurrent.futures.Future` resolving to the
    generated ids (``prompt + generated``, like
    :attr:`EngineRequest.result`) for generate requests, or the candidate
    log-probabilities for score requests.  Cancellation and timeouts
    surface as :class:`RequestCancelled` / :class:`RequestTimeout`.

    The handle can be consumed from sync code (:meth:`result`), awaited
    from asyncio (``await request``), or streamed token by token
    (:meth:`tokens`).
    """

    def __init__(self, engine: "AsyncEngine", request_id: int, kind: str) -> None:
        self._engine = engine
        self.request_id = request_id
        self.kind = kind  # "generate" | "score"
        self.future: Future = Future()
        #: Absolute engine-clock deadline, or None for no timeout.
        self.deadline: float | None = None
        #: Set once the stepping thread hands the request to the inner engine.
        self.engine_request: EngineRequest | None = None
        self._cancel_requested = False
        self._published = 0
        #: Engine-clock arrival time, stamped at registration; passed to the
        #: inner engine so inbox dwell counts toward queue/TTFT SLA timings.
        self.submitted_at: float | None = None
        self._subscribers: list[tuple[asyncio.AbstractEventLoop, asyncio.Queue]] = []
        # Spec fields, filled by the engine's submit methods.
        self.prompt_ids: np.ndarray | None = None
        self.max_new_tokens: int = 0
        self.temperature: float = 0.0
        self.stop_ids: frozenset = frozenset()
        self.candidates: tuple = ()
        #: Admission priority (larger = more urgent; default 0 = FIFO).
        self.priority: int = 0

    # ------------------------------------------------------------------ #
    @property
    def done(self) -> bool:
        return self.future.done()

    @property
    def cancel_requested(self) -> bool:
        return self._cancel_requested

    @property
    def finish_reason(self) -> str | None:
        if self.engine_request is not None:
            return self.engine_request.finish_reason
        if self.future.cancelled():
            return "cancelled"
        if self.future.done():
            exc = self.future.exception()
            if isinstance(exc, RequestCancelled):
                return "cancelled"
            if isinstance(exc, RequestTimeout):
                return "timeout"
        return None

    def partial_output(self) -> np.ndarray:
        """Tokens decoded so far (prompt included) — safe to call any time."""
        if self.engine_request is not None:
            return self.engine_request.state.output()
        return np.asarray(self.prompt_ids, dtype=np.int64)

    def cancel(self) -> bool:
        """Request cancellation; the row retires at the next step boundary.

        Returns ``True`` if the cancellation was registered, ``False`` if
        the request had already finished (its result stands — cancelling a
        finished request is a no-op, racing retirement is safe).
        """
        with self._engine._work:
            if self.future.done():
                return False
            self._cancel_requested = True
            self._engine._work.notify_all()
        return True

    def result(self, timeout: float | None = None) -> np.ndarray:
        """Block until done and return the result (sync counterpart of await)."""
        return self.future.result(timeout)

    def __await__(self):
        return asyncio.wrap_future(self.future).__await__()

    # ------------------------------------------------------------------ #
    async def tokens(self) -> AsyncIterator[int]:
        """Async iterator over this request's *generated* token ids.

        Tokens emitted before subscription are replayed first; afterwards
        each decode step delivers its new tokens through the subscriber's
        event loop, in one hand-off per loop per step shared by every
        stream on that loop.  The iterator ends when the request finishes
        (after its future is set); cancellation
        and timeout raise :class:`RequestCancelled` / :class:`RequestTimeout`
        after the tokens decoded so far have been delivered.
        """
        if self.kind != "generate":
            raise TypeError("only generate requests stream tokens")
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()
        self._engine._subscribe(self, loop, queue)
        try:
            while True:
                item = await queue.get()
                if item is _END:
                    if self.future.cancelled():
                        raise RequestCancelled(self.request_id, self.partial_output())
                    exc = self.future.exception() if self.future.done() else None
                    if exc is not None:
                        raise exc
                    return
                yield item
        finally:
            # An abandoned stream (consumer loop gone, generator closed)
            # must not stay subscribed: the stepping thread would keep
            # publishing into a dead event loop.
            self._engine._unsubscribe(self, loop, queue)


class AsyncEngine:
    """Arrival-driven async front-end over one continuous-batching engine.

    Wraps a :class:`ContinuousBatchingEngine` (exposed as :attr:`engine`)
    plus a pool-backed :class:`~repro.models.decoder.PrefixCachedScorer`
    behind a background stepping thread.  Construction is cheap — the
    thread starts lazily on the first submission and parks whenever there
    is no work.

    ``on_step`` (optional) is called by the stepping thread after every
    completed scheduling iteration with the engine as argument — an
    observation/throttling hook used by tests to control interleaving
    deterministically.
    """

    def __init__(
        self,
        model: DecoderLM,
        *,
        config: EngineConfig | None = None,
        cache_pool: PrefixCachePool | None = None,
        clock=time.perf_counter,
        rng: np.random.Generator | int | None = None,
        on_step: Callable[["AsyncEngine"], None] | None = None,
    ) -> None:
        if config is None:
            config = EngineConfig()
        self.config = config
        self.model = model
        self.clock = clock
        self.rng = new_rng(rng)
        # Build the engine first: it can still raise, and the default pool
        # registers the model process-wide, so it must not exist until
        # nothing else fails.
        self.engine = ContinuousBatchingEngine(
            model,
            config=config,
            cache_pool=cache_pool,
            clock=clock,
            rng=self.rng,
        )
        # An empty pool is falsy (``__len__``), so test for None explicitly.
        if cache_pool is None:
            cache_pool = PrefixCachePool.default(model, config.kv_layout, config.kv_dtype)
            self.engine.cache_pool = cache_pool
        self.cache_pool = cache_pool
        self._scorer = PrefixCachedScorer(model, pool=self.cache_pool)
        self.on_step = on_step
        self._lock = maybe_watch_lock("aio", threading.Lock())
        self._work = threading.Condition(self._lock)
        self._inbox: deque[AsyncRequest] = deque()  # guarded-by: self._lock
        self._scores: deque[AsyncRequest] = deque()  # guarded-by: self._lock
        #: Generate requests handed to the inner engine and not yet resolved,
        #: keyed by the inner EngineRequest's id.  Owned by the stepping
        #: thread: only ``_step_loop`` and its helpers mutate it, always on
        #: that single thread, so it is deliberately *not* lock-annotated —
        #: cross-thread readers take only GIL-atomic snapshots
        #: (``len``/``list``) whose staleness is inherent to observing a
        #: concurrently stepping engine.
        self._active: dict[int, AsyncRequest] = {}
        #: Requests resolved since the last :meth:`_publish`, whose streams
        #: that pass ends.  Owned by the stepping thread like ``_active``.
        self._resolved: list[AsyncRequest] = []
        self._closing: str | None = None  # guarded-by: self._lock
        self._thread: threading.Thread | None = None  # guarded-by: self._lock
        self._parked = False  # guarded-by: self._lock
        self._next_id = 0  # guarded-by: self._lock

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> EngineStats:
        """The inner engine's stats (SLA timings plus async counters)."""
        return self.engine.stats

    @property
    def num_pending(self) -> int:
        """Requests submitted but not yet resolved (inbox + queued + live)."""
        with self._lock:
            return len(self._inbox) + len(self._scores) + len(self._active)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closing is not None

    # ------------------------------------------------------------------ #
    # submission (any thread)
    # ------------------------------------------------------------------ #
    def _build_request(self, spec: dict) -> AsyncRequest:
        """Construct and validate one request from :meth:`submit` kwargs.

        The single construction/validation path shared by ``submit``,
        ``submit_score`` and ``submit_batch``; the request id is assigned
        at registration.
        """
        spec = dict(spec)
        kind = spec.pop("kind", "generate")
        request = AsyncRequest(self, -1, kind)
        if kind == "score":
            request.prompt_ids = validate_prompt(self.model, spec["prompt_ids"], kind)
            request.candidates = tuple(
                np.asarray(c, dtype=np.int64).ravel() for c in spec["candidates"]
            )
            for candidate in request.candidates:
                if len(candidate) == 0:
                    raise ValueError("score candidates need at least one token")
                check_token_ids(self.model, candidate, "candidate")
        elif kind == "generate":
            request.prompt_ids = validate_prompt(self.model, spec["prompt_ids"])
            request.max_new_tokens = int(spec.get("max_new_tokens", 16))
            request.temperature = float(spec.get("temperature", 0.0))
            request.stop_ids = frozenset(spec.get("stop_ids") or ())
            request.priority = int(spec.get("priority") or 0)
        else:
            raise ValueError(f"unknown request kind {kind!r}")
        timeout = spec.get("timeout")
        if timeout is not None:
            request.deadline = self.clock() + float(timeout)
        return request

    def _register(self, requests: Sequence[AsyncRequest]) -> None:
        """Atomically enqueue built requests and wake the stepping thread."""
        with self._work:
            if self._closing is not None:
                raise RuntimeError("AsyncEngine is shut down; create a new one")
            arrived = self.clock()
            for request in requests:
                request.request_id = self._next_id
                self._next_id += 1
                request.submitted_at = arrived
                if request.kind == "score":
                    self._scores.append(request)
                else:
                    self._inbox.append(request)
            self._ensure_thread()
            self._work.notify_all()

    def submit(
        self,
        prompt_ids: np.ndarray,
        max_new_tokens: int = 16,
        *,
        temperature: float = 0.0,
        stop_ids: set[int] | None = None,
        timeout: float | None = None,
        priority: int = 0,
    ) -> AsyncRequest:
        """Queue a generation request; returns immediately with a future.

        ``priority`` (larger = more urgent) steers admission order and may
        preempt a lower-priority decoding row when the batch is full; the
        per-request ``timeout`` doubles as the deadline that orders
        same-priority admissions.
        """
        request = self._build_request(
            {
                "prompt_ids": prompt_ids,
                "max_new_tokens": max_new_tokens,
                "temperature": temperature,
                "stop_ids": stop_ids,
                "timeout": timeout,
                "priority": priority,
            }
        )
        self._register([request])
        return request

    def submit_score(
        self,
        prompt_ids: np.ndarray,
        candidates: Sequence[np.ndarray],
        *,
        timeout: float | None = None,
    ) -> AsyncRequest:
        """Queue a candidate-continuation scoring request."""
        request = self._build_request(
            {
                "kind": "score",
                "prompt_ids": prompt_ids,
                "candidates": candidates,
                "timeout": timeout,
            }
        )
        self._register([request])
        return request

    def submit_batch(self, specs: Sequence[dict]) -> list[AsyncRequest]:
        """Atomically queue several requests (one lock round, one wakeup).

        Each spec is a dict of :meth:`submit` keyword arguments (score
        requests use ``{"kind": "score", "prompt_ids": ..., "candidates":
        ...}``).  The stepping thread drains the whole inbox before
        stepping, so a batch submitted here is admitted exactly as if the
        engine had been driven synchronously; call ``.result()`` on each
        handle to collect the outputs in submit order.
        """
        prepared = [self._build_request(spec) for spec in specs]
        self._register(prepared)
        return prepared

    # ------------------------------------------------------------------ #
    # asyncio surface
    # ------------------------------------------------------------------ #
    async def generate(
        self,
        prompt_ids: np.ndarray,
        max_new_tokens: int = 16,
        *,
        temperature: float = 0.0,
        stop_ids: set[int] | None = None,
        timeout: float | None = None,
        priority: int = 0,
    ) -> np.ndarray:
        """Submit and await one generation (returns ``prompt + generated``)."""
        request = self.submit(
            prompt_ids,
            max_new_tokens,
            temperature=temperature,
            stop_ids=stop_ids,
            timeout=timeout,
            priority=priority,
        )
        return await asyncio.wrap_future(request.future)

    async def score(
        self,
        prompt_ids: np.ndarray,
        candidates: Sequence[np.ndarray],
        *,
        timeout: float | None = None,
    ) -> np.ndarray:
        """Submit and await one scoring request (candidate log-probs)."""
        request = self.submit_score(prompt_ids, candidates, timeout=timeout)
        return await asyncio.wrap_future(request.future)

    async def stream(
        self,
        prompt_ids: np.ndarray,
        max_new_tokens: int = 16,
        *,
        temperature: float = 0.0,
        stop_ids: set[int] | None = None,
        timeout: float | None = None,
        priority: int = 0,
    ) -> AsyncIterator[int]:
        """Submit one generation and yield its tokens as they are decoded."""
        request = self.submit(
            prompt_ids,
            max_new_tokens,
            temperature=temperature,
            stop_ids=stop_ids,
            timeout=timeout,
            priority=priority,
        )
        async for token in request.tokens():
            yield token

    # ------------------------------------------------------------------ #
    # shutdown
    # ------------------------------------------------------------------ #
    def shutdown(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the stepping thread and refuse further submissions.

        ``drain=True`` finishes all queued and live work first; ``drain=
        False`` aborts — queued and live requests are cancelled at the next
        step boundary (their futures raise :class:`RequestCancelled`).
        Idempotent; safe to call from any thread except the stepping thread.
        """
        with self._work:
            if self._closing is None or (self._closing == "drain" and not drain):
                self._closing = "drain" if drain else "abort"
            thread = self._thread
            self._work.notify_all()
        if thread is not None:
            thread.join(timeout)
        if thread is None:
            # Never started: fail anything sitting in the inboxes.
            self._abort_pending()

    def close(self) -> None:
        """Abort-mode shutdown (alias for ``shutdown(drain=False)``)."""
        self.shutdown(drain=False)

    def __enter__(self) -> "AsyncEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    async def __aenter__(self) -> "AsyncEngine":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await asyncio.get_running_loop().run_in_executor(
            None, lambda: self.shutdown(drain=exc_type is None)
        )

    # ------------------------------------------------------------------ #
    # streaming plumbing
    # ------------------------------------------------------------------ #
    @staticmethod
    def _generated(request: AsyncRequest, start: int = 0) -> list[int]:
        """Tokens generated since submission, from index ``start`` on.

        Stable across preemption: a preempted request resumes on a fresh
        ``DecodeState`` whose prompt is the tokens decoded so far, so the
        generated view is read through
        :meth:`~repro.serving.engine.EngineRequest.generated_ids`, which
        measures against the original prompt length.  Publish cursors
        index into this view, making a mid-stream state swap invisible to
        subscribers (no duplicated, no dropped tokens).
        """
        if request.engine_request is None:
            return []
        return request.engine_request.generated_ids()[start:].tolist()

    def _subscribe(
        self, request: AsyncRequest, loop: asyncio.AbstractEventLoop, queue: asyncio.Queue
    ) -> None:
        """Attach a token-stream subscriber (called from the subscriber's loop).

        A live request replays only what the stepping thread has already
        *published* (``_published``) — tokens decoded but not yet published
        arrive through the next :meth:`_publish` like for every other
        subscriber, so joining mid-step never advances the shared cursor
        past tokens an existing subscriber still awaits.  A finished
        request replays everything and closes immediately.
        """
        with self._lock:
            tokens = self._generated(request)
            if request.future.done():
                for token in tokens:
                    queue.put_nowait(token)
                queue.put_nowait(_END)
                return
            for token in tokens[: request._published]:
                queue.put_nowait(token)
            request._subscribers.append((loop, queue))

    def _unsubscribe(
        self, request: AsyncRequest, loop: asyncio.AbstractEventLoop, queue: asyncio.Queue
    ) -> None:
        """Detach a token-stream subscriber (idempotent)."""
        with self._lock:
            try:
                request._subscribers.remove((loop, queue))
            except ValueError:
                pass

    def _publish(self) -> None:
        """Hand one pass's stream items to their loops (stepping thread only).

        Collects, in one lock round, the fresh tokens of every streamed live
        request and the tokens and stream end of every request resolved
        since the last pass (its future is already set, so a consumer that
        sees the end sees the outcome).  Then, outside the lock, it makes
        one ``call_soon_threadsafe`` per subscriber event loop for the
        tokens, however many rows stream to it, and one more per loop for
        the stream ends, if any ended.  The ends travel apart from the
        tokens: delivered together, a consumer runs its end-of-stream work
        before the loop's other tasks see its last token (on ``http_icl``,
        where client and server share a loop, ``itl_p50_ms`` read ~0.3-0.45
        ms instead of ~0.2 ms).  A loop that has closed (its consumer went
        away without finalizing its generator) loses its subscribers
        instead of crashing the stepping thread.
        """
        resolved, self._resolved = self._resolved, []
        tokens: dict[asyncio.AbstractEventLoop, list] = {}
        ends: dict[asyncio.AbstractEventLoop, list] = {}
        with self._lock:
            for final, requests in ((True, resolved), (False, self._active.values())):
                for request in requests:
                    subscribers = request._subscribers
                    if not subscribers:
                        continue
                    fresh = self._generated(request, request._published)
                    request._published += len(fresh)
                    for loop, queue in subscribers:
                        if fresh:
                            tokens.setdefault(loop, []).append((queue, fresh))
                        if final:
                            ends.setdefault(loop, []).append((queue, [_END]))
                    if final:
                        request._subscribers = []
        dead = set()
        for batches in (tokens, ends):
            for loop, batch in batches.items():
                try:
                    loop.call_soon_threadsafe(_deliver, batch)
                except RuntimeError:  # loop closed mid-stream
                    dead.add(loop)
        if dead:
            with self._lock:
                for request in self._active.values():
                    request._subscribers = [
                        s for s in request._subscribers if s[0] not in dead
                    ]

    # ------------------------------------------------------------------ #
    # resolution helpers (stepping thread only)
    # ------------------------------------------------------------------ #
    def _resolve(self, request: AsyncRequest, result=None, exc: Exception | None = None):
        """Settle the future; the next :meth:`_publish` ends the streams."""
        if not request.future.done():
            if exc is not None:
                request.future.set_exception(exc)
            else:
                request.future.set_result(result)
        self._resolved.append(request)

    def _abort_pending(self) -> None:
        """Cancel everything queued/live (stepping thread, or pre-start)."""
        with self._lock:
            inbox = list(self._inbox)
            self._inbox.clear()
            scores = list(self._scores)
            self._scores.clear()
        for request in inbox + scores:
            self._resolve(
                request,
                exc=RequestCancelled(request.request_id, request.partial_output()),
            )
        for request in list(self._active.values()):
            if request.engine_request is not None:
                self.engine.cancel(request.engine_request, reason="cancelled")
            self._resolve(
                request,
                exc=RequestCancelled(request.request_id, request.partial_output()),
            )
        self._active.clear()
        self._publish()

    # ------------------------------------------------------------------ #
    # the stepping thread
    # ------------------------------------------------------------------ #
    def _ensure_thread(self) -> None:  # guarded-by: self._lock
        """Start the stepping thread lazily (caller holds the lock).

        The thread target holds only a weak reference between iterations
        (see :func:`_stepper`), so an engine dropped by all its users does
        not live on inside a parked thread.
        """
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=_stepper,
                args=(weakref.ref(self),),
                name="AsyncEngine-stepper",
                daemon=True,
            )
            self._thread.start()

    @staticmethod
    def _drop_reason(request: AsyncRequest, now: float) -> str | None:
        """Why a pending request must be dropped now, or None to keep it."""
        if request._cancel_requested or request.future.cancelled():
            return "cancelled"
        if request.deadline is not None and now >= request.deadline:
            return "timeout"
        return None

    def _expire_and_cancel(self) -> None:
        """Apply cancellations and expired timeouts at the step boundary."""
        now = self.clock()
        # Inbox/score entries the engine has never seen: drop them directly.
        dropped: list[tuple[AsyncRequest, str]] = []
        with self._lock:
            for name in ("_inbox", "_scores"):
                kept: deque[AsyncRequest] = deque()
                for request in getattr(self, name):
                    reason = self._drop_reason(request, now)
                    if reason is None:
                        kept.append(request)
                    else:
                        dropped.append((request, reason))
                setattr(self, name, kept)
        for request, reason in dropped:
            exc_type = RequestTimeout if reason == "timeout" else RequestCancelled
            stats = self.engine.stats
            # Keep the counter invariant (cancelled/timeouts count toward
            # finished, finished <= submitted) even though the inner engine
            # never saw this request.
            stats.submitted += 1
            stats.finished += 1
            if reason == "timeout":
                stats.timeouts += 1
            else:
                stats.cancelled += 1
            self._resolve(
                request, exc=exc_type(request.request_id, request.partial_output())
            )
        # Requests the engine owns (queued inside it or live in the batch).
        for key, request in list(self._active.items()):
            reason = self._drop_reason(request, now)
            if reason is None:
                continue
            self.engine.cancel(request.engine_request, reason=reason)
            exc_type = RequestTimeout if reason == "timeout" else RequestCancelled
            self._resolve(
                request, exc=exc_type(request.request_id, request.partial_output())
            )
            self._active.pop(key, None)
        if self._resolved:
            self._publish()

    def _hand_to_engine(self, inbox: list[AsyncRequest]) -> None:
        """Feed drained inbox entries to the inner engine (stepping thread).

        Entries go in submit order; the engine sorts its whole queue by
        priority, arrival and deadline at every admission, so the priority
        and deadline only ride along.
        """
        for request in inbox:
            try:
                engine_request = self.engine.submit(
                    request.prompt_ids,
                    max_new_tokens=request.max_new_tokens,
                    temperature=request.temperature,
                    stop_ids=set(request.stop_ids),
                    submitted_at=request.submitted_at,
                    priority=request.priority,
                    deadline=request.deadline,
                )
            except Exception as exc:  # validation raced a config change
                self._resolve(request, exc=exc)
                continue
            request.engine_request = engine_request
            self._active[engine_request.request_id] = request

    def _run_one_score(self) -> bool:
        """Run at most one queued score job; returns whether one ran."""
        with self._lock:
            if not self._scores:
                return False
            request = self._scores.popleft()
        try:
            scores = self._scorer.score_continuations(
                request.prompt_ids, list(request.candidates)
            )
        except Exception as exc:
            self._resolve(request, exc=exc)
        else:
            self._resolve(request, result=scores)
        self._publish()
        return True

    def _loop_once(self) -> bool:
        """One stepping-thread iteration; returns ``False`` when done for good."""
        engine = self.engine
        with self._work:
            closing = self._closing
            has_inbox = bool(self._inbox) or bool(self._scores)
            if closing is None and not has_inbox and not engine.has_work:
                if not self._parked:
                    self._parked = True
                    engine.stats.parks += 1
                self._work.wait(timeout=_GC_PARK_SECONDS)
                return True
            if self._parked:
                self._parked = False
                engine.stats.wakeups += 1
            drained = (
                closing == "drain" and not has_inbox and not engine.has_work
            )
            inbox = [] if closing == "abort" or drained else list(self._inbox)
            if closing != "abort":
                self._inbox.clear()
        if closing == "abort" or drained:
            # Abort cancels everything pending; a completed drain resolves
            # any straggler caught in the closing race (normally a no-op).
            self._abort_pending()
            return False
        # Queue-depth accounting lives on the stepping thread (the engine's
        # own submit-side stamp runs here too, in _hand_to_engine), so the
        # read-modify-write on the shared counter never races a submitter.
        depth = len(inbox) + engine.num_queued
        if depth:
            engine.stats.peak_queue_depth = max(engine.stats.peak_queue_depth, depth)
        self._hand_to_engine(inbox)
        self._expire_and_cancel()

        steps_before = engine.stats.steps
        finished: list[EngineRequest] = []
        try:
            if engine.has_work:
                finished = engine.step()
        except Exception as exc:
            # A fatal step error fails every request the engine owns and
            # resets the batch; the thread stays up for future traffic.
            for request in list(self._active.values()):
                self._resolve(request, exc=RuntimeError(f"engine step failed: {exc}"))
            self._active.clear()
            engine.reset()
            self._publish()
            return True
        for engine_request in finished:
            request = self._active.pop(engine_request.request_id, None)
            if request is not None:
                self._resolve(request, result=engine_request.result)
        # One hand-off per loop: the live rows' new tokens and the finished
        # rows' tails and stream ends.
        self._publish()
        scored = self._run_one_score()
        stepped = engine.stats.steps > steps_before
        if self.on_step is not None and (stepped or finished or scored):
            try:
                self.on_step(self)
            except Exception:
                pass  # observation hooks must not kill the stepper
        return True
