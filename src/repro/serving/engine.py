"""Iteration-level (continuous) batching engine — the Orca/vLLM-style design.

A flush-bounded scheduler decodes a *closed* batch to completion: a long
generation blocks every batchmate, and requests arriving mid-decode wait
for the whole batch to drain.  The :class:`ContinuousBatchingEngine`
schedules at *iteration* granularity instead, driving the
:class:`~repro.models.decoder.DecodeBatch` stepping core directly:

* at every step boundary, queued requests are admitted into the free rows
  of the live batch (up to ``max_batch_rows``) — there is no batch to
  close, so nothing is held back for batchmates.  Every admission takes
  one path: a startable request checks out a prefix cache from the shared
  :class:`~repro.serving.pool.PrefixCachePool` (when the engine has one),
  enters the batch in a *prefilling* state, and the step's chunk phase
  forwards its prompt at batch 1 off that checkout, checking the advanced
  full-prompt cache back in for future traffic once the prompt is done;
* a ``prefill_chunk_tokens`` budget caps the prompt tokens each step
  forwards beside the running decode rows (Sarathi-style chunked prefill
  piggybacking): a long arriving prompt delays each decode step by at
  most one bounded chunk instead of stalling it for the whole prompt.
  ``None`` is no cap — each prompt's whole remainder goes in the step
  that admits it.  Chunk boundaries never change the computed values, so
  greedy outputs are token-identical at every budget;
* rows retire the moment they emit a stop token, exhaust their token
  budget, or hit the context window, immediately freeing their slot;
* a full batch retires its lowest-priority decoding row for a strictly
  higher-priority arrival (see :meth:`ContinuousBatchingEngine.preempt`);
  equal priorities never preempt, so priority-less traffic is plain FIFO.

Per-request SLA timings (queue, prefill, decode, time-to-first-token) are
stamped on every :class:`EngineRequest` from an injectable ``clock`` and
aggregated in :class:`EngineStats`, which also records the row count of
every admission group.

Greedy outputs are identical to the sequential cached path regardless of
arrival order or batch membership; per-request sampling parameters
(temperature, stop ids, token budget) may differ freely within one live
batch.
"""

from __future__ import annotations

import sys
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.models.decoder import DecodeBatch, DecodeState, DecoderLM
from repro.serving.config import EngineConfig
from repro.serving.pool import PrefixCachePool
from repro.utils.rng import new_rng

__all__ = [
    "EngineRequest",
    "EngineStats",
    "ContinuousBatchingEngine",
    "check_token_ids",
    "validate_prompt",
]


def validate_prompt(
    model: DecoderLM, prompt_ids: np.ndarray, kind: str = "generate"
) -> np.ndarray:
    """Coerce and admission-check one prompt (shared by every front end).

    The async engine and the engine itself must agree on what is
    admissible — batched decoding forwards whole padded batches, so an
    oversized prompt or an out-of-vocabulary id slipping past one layer
    would fail all of its batchmates later.  ``kind`` names the request
    kind in the empty-prompt message.
    """
    prompt = np.asarray(prompt_ids, dtype=np.int64).ravel()
    if len(prompt) == 0:
        raise ValueError(f"{kind} requests need a non-empty prompt")
    if len(prompt) > model.config.max_position:
        raise ValueError(
            f"prompt of {len(prompt)} tokens exceeds the model's maximum "
            f"context {model.config.max_position}"
        )
    check_token_ids(model, prompt, "prompt")
    return prompt


def check_token_ids(model: DecoderLM, ids: np.ndarray, what: str) -> None:
    """Reject ids outside ``[0, vocab_size)`` (``what`` names them)."""
    if ids.min() < 0 or ids.max() >= model.vocab_size:
        raise ValueError(
            f"{what} token ids must lie in [0, {model.vocab_size}), "
            f"got [{ids.min()}, {ids.max()}]"
        )


@dataclass
class EngineRequest:
    """Handle for one submitted request, with per-request SLA timings.

    The timing identity ``queue + prefill + decode == wall`` holds exactly:
    queue time ends when admission starts, prefill time covers the prompt
    forward, and decode time runs from prefill end to retirement.
    """

    request_id: int
    state: DecodeState
    submitted_at: float
    #: Larger values are served first; within a priority class, earlier
    #: deadlines first, then submit order.  The default 0 keeps plain
    #: traffic strictly FIFO.
    priority: int = 0
    #: Optional absolute engine-clock deadline steering admission order.
    #: Enforcement (timeout cancellation) stays with the front end that
    #: set it — the engine only uses it to sort the queue.
    deadline: float | None = None
    #: Times this request was preempted mid-decode (victim of a higher
    #: priority arrival) and returned to the queue.
    preemptions: int = 0
    #: Length of the originally submitted prompt.  A preempted request
    #: resumes with its decoded-so-far tokens as the new state's prompt,
    #: so ``state.prompt_ids`` grows across preemptions; SLA accounting
    #: and token streaming measure generation against this stable origin.
    prompt_len: int = 0
    #: Prompt ids of the pinned pool entry holding this request's decoded
    #: prefix while it waits to resume (``None`` when not preempted).
    _pinned_ids: np.ndarray | None = None
    admitted_at: float | None = None
    #: Total prompt-forward time.  It *accumulates* across the steps the
    #: prompt was consumed in, so the timing identity above stays exact
    #: however many chunks the prefill took.
    prefill_seconds: float = 0.0
    #: Prefill chunks this request's prompt was consumed in (one per start
    #: without a ``prefill_chunk_tokens`` budget; 0 if it never started).
    prefill_chunks: int = 0
    first_token_at: float | None = None
    finished_at: float | None = None
    #: Prompt tokens served from the prefix-cache pool instead of prefilled.
    reused_tokens: int = 0
    done: bool = False
    result: np.ndarray | None = None
    error: str | None = None

    @property
    def prompt_ids(self) -> np.ndarray:
        """The originally submitted prompt (stable across preemptions)."""
        if self.prompt_len:
            return self.state.prompt_ids[: self.prompt_len]
        return self.state.prompt_ids

    @property
    def finish_reason(self) -> str | None:
        """Why the request retired, once it is done.

        ``"stop"``, ``"length"`` or ``"context"`` for natural completion;
        ``"cancelled"`` or ``"timeout"`` when it was retired early via
        :meth:`ContinuousBatchingEngine.cancel`.
        """
        return self.state.finish_reason

    @property
    def decode_steps(self) -> int:
        """Tokens emitted for this request: the engine iterations it decoded
        through.  Stable across preemptions: tokens decoded before a
        preemption live in the resumed state's prompt and still count.
        """
        return (len(self.state.prompt_ids) - self.prompt_len) + self.state.gen_len

    def generated_ids(self) -> np.ndarray:
        """All tokens generated since submission (stable across preemptions)."""
        state = self.state
        return np.concatenate(
            [
                np.asarray(state.prompt_ids[self.prompt_len :], dtype=np.int64),
                np.asarray(state.generated[: state.gen_len], dtype=np.int64),
            ]
        )

    @property
    def queue_seconds(self) -> float | None:
        if self.admitted_at is None:
            return None
        return self.admitted_at - self.submitted_at

    @property
    def decode_seconds(self) -> float | None:
        if self.finished_at is None or self.admitted_at is None:
            return None
        return self.finished_at - self.admitted_at - self.prefill_seconds

    @property
    def ttft_seconds(self) -> float | None:
        """Time from submission to the first emitted token."""
        if self.first_token_at is None:
            return None
        return self.first_token_at - self.submitted_at

    @property
    def wall_seconds(self) -> float | None:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at


@dataclass
class EngineStats:
    """Iteration-level counters and SLA aggregates.

    Thread contract: all *writes* happen on the thread driving the engine
    (the async stepping thread, or the caller of a synchronous engine).
    Readers on other threads — ``/metrics``, ``sla_summary`` — see
    GIL-atomic scalar loads and list appends, so individual values are
    always well-formed but a summary is not a single consistent cut across
    fields; the aggregate methods snapshot each list exactly once (via
    ``list(...)``) so a summary computed mid-step never sees a list mutate
    under an ongoing reduction.
    """

    #: Requests handed to :meth:`ContinuousBatchingEngine.submit`.
    submitted: int = 0
    steps: int = 0
    #: Admission groups (rows admitted together between two steps) and
    #: each group's row count.
    admissions: int = 0
    batch_sizes: list = field(default_factory=list)
    admitted_rows: int = 0
    finished: int = 0
    peak_rows: int = 0
    #: Sum over steps of live rows that step decoded (batch occupancy).
    row_steps: int = 0
    #: Requests retired early by :meth:`ContinuousBatchingEngine.cancel`,
    #: split by reason ("cancelled" from the caller, "timeout" from an
    #: expired per-request deadline).  Both also count toward ``finished``.
    cancelled: int = 0
    timeouts: int = 0
    #: Priority scheduling: rows retired mid-decode to make room for a
    #: strictly higher-priority arrival, and how many of those requests
    #: have since re-entered the live batch (resumed from their pinned
    #: pool entry).  Neither counts toward ``finished``.
    preemptions: int = 0
    resumes: int = 0
    #: Async front-end counters (stamped by :class:`~repro.serving.aio
    #: .AsyncEngine`): how often the stepping thread parked with no work,
    #: how often it was woken, and the deepest the submission queue got.
    parks: int = 0
    wakeups: int = 0
    peak_queue_depth: int = 0
    #: Prefill occupancy.  ``prefill_tokens`` / ``prefill_chunks`` are
    #: lifetime totals of prompt tokens forwarded (pool-reused spans are
    #: not forwarded) and the chunks they went in; the ``step_*`` lists record,
    #: for every scheduling step that did work, how many prompt tokens rode
    #: along (piggybacked prefill) and how many rows decoded — the per-step
    #: occupancy trace behind :meth:`stall_histogram`.
    prefill_tokens: int = 0
    prefill_chunks: int = 0
    step_prefill_tokens: list = field(default_factory=list)
    step_decode_rows: list = field(default_factory=list)
    #: Per finished request: prefill chunks its prompt took.
    chunks_per_request: list = field(default_factory=list)
    queue_seconds: list = field(default_factory=list)
    prefill_seconds: list = field(default_factory=list)
    ttft_seconds: list = field(default_factory=list)
    decode_steps: list = field(default_factory=list)
    @property
    def mean_rows_per_step(self) -> float:
        return self.row_steps / self.steps if self.steps else 0.0

    @property
    def mean_queue_seconds(self) -> float:
        values = list(self.queue_seconds)  # snapshot: stepper appends live
        return float(np.mean(values)) if values else 0.0

    @property
    def mean_ttft_seconds(self) -> float:
        values = list(self.ttft_seconds)  # snapshot: stepper appends live
        return float(np.mean(values)) if values else 0.0

    def stall_histogram(self) -> dict:
        """Distribution of piggybacked prefill tokens per scheduling step.

        Buckets are powers of two.  The ``"0"`` bucket counts pure decode
        steps; heavy buckets show how much prompt work rode inside decode
        steps — under a sane chunk budget the mass sits at or below the
        budget, i.e. a decode step is never stalled by more than one
        chunk's worth of prefill compute.
        """
        labels = ["0", "1", "2-3", "4-7", "8-15", "16-31", "32-63", "64+"]
        counts = dict.fromkeys(labels, 0)
        # Snapshot once: the stepping thread appends concurrently.
        for tokens in list(self.step_prefill_tokens):
            tokens = int(tokens)
            if tokens <= 0:
                counts["0"] += 1
            elif tokens >= 64:
                counts["64+"] += 1
            else:
                low = 1 << (tokens.bit_length() - 1)
                counts["1" if low == 1 else f"{low}-{2 * low - 1}"] += 1
        return counts

    def sla_summary(self) -> dict:
        """Aggregate SLA view (means; per-request values sit on the handles).

        Safe to call from a thread other than the stepping thread: every
        list is snapshotted exactly once before reduction (see the class
        docstring's thread contract).
        """
        queue_seconds = list(self.queue_seconds)
        prefill_seconds = list(self.prefill_seconds)
        ttft_seconds = list(self.ttft_seconds)
        decode_steps = list(self.decode_steps)
        chunks_per_request = list(self.chunks_per_request)
        step_prefill_tokens = list(self.step_prefill_tokens)
        step_decode_rows = list(self.step_decode_rows)
        return {
            "requests": self.finished,
            "steps": self.steps,
            "mean_rows_per_step": self.mean_rows_per_step,
            "peak_rows": self.peak_rows,
            "mean_queue_seconds": (
                float(np.mean(queue_seconds)) if queue_seconds else 0.0
            ),
            "mean_prefill_seconds": (
                float(np.mean(prefill_seconds)) if prefill_seconds else 0.0
            ),
            "mean_ttft_seconds": (
                float(np.mean(ttft_seconds)) if ttft_seconds else 0.0
            ),
            "mean_decode_steps": (
                float(np.mean(decode_steps)) if decode_steps else 0.0
            ),
            "cancelled": self.cancelled,
            "timeouts": self.timeouts,
            "preemptions": self.preemptions,
            "resumes": self.resumes,
            "parks": self.parks,
            "wakeups": self.wakeups,
            "peak_queue_depth": self.peak_queue_depth,
            "prefill_tokens": self.prefill_tokens,
            "prefill_chunks": self.prefill_chunks,
            "mean_prefill_chunks": (
                float(np.mean(chunks_per_request)) if chunks_per_request else 0.0
            ),
            "mean_step_prefill_tokens": (
                float(np.mean(step_prefill_tokens)) if step_prefill_tokens else 0.0
            ),
            "mean_step_decode_rows": (
                float(np.mean(step_decode_rows)) if step_decode_rows else 0.0
            ),
            "prefill_stall_histogram": self.stall_histogram(),
        }


class ContinuousBatchingEngine:
    """Admit-between-steps decode engine over one :class:`DecoderLM`.

    ``submit`` queues a request; ``step`` runs one scheduling iteration
    (admission + one decode step + retirement) and returns the requests it
    finished; ``drain`` runs until no work remains and returns all
    finished requests in submit order.  The engine is synchronous and
    reusable: after a drain it sits empty, ready for new traffic.
    """

    def __init__(
        self,
        model: DecoderLM,
        *,
        config: EngineConfig | None = None,
        cache_pool: PrefixCachePool | None = None,
        clock=time.perf_counter,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        # All tunables travel in one validated, immutable EngineConfig.
        if config is None:
            config = EngineConfig()
        self.config = config
        self.model = model
        self.max_batch_rows = config.max_batch_rows
        self.cache_pool = cache_pool
        #: KV storage of the live batch: ``"dense"`` (rectangular buffers)
        #: or ``"paged"`` (ref-counted block tables; ``kv_dtype="int8"``
        #: quantizes the block store).  Greedy outputs are identical across
        #: layouts; paged admission/retirement are table edits and
        #: compaction is free.
        self.kv_layout = config.kv_layout
        self.kv_dtype = config.kv_dtype
        #: Per-step prefill token budget (Sarathi-style chunked prefill).
        #: Admissions enter the batch in a ``prefilling`` state and each
        #: scheduling step consumes at most this many prompt tokens across
        #: them — piggybacked beside the running decode rows — so a long
        #: arriving prompt never stalls the in-flight decodes for its whole
        #: length.  ``None`` is no cap: a prompt completes in the step that
        #: admits it.
        self.prefill_chunk_tokens = config.prefill_chunk_tokens
        self.clock = clock
        self.rng = new_rng(rng)
        self.stats = EngineStats()
        self.batch = DecodeBatch(
            model,
            capacity=model.config.max_position,
            kv_layout=self.kv_layout,
            kv_dtype=self.kv_dtype,
        )
        self._queue: deque[EngineRequest] = deque()
        self._live: dict[int, EngineRequest] = {}  # id(state) -> request
        self._next_id = 0

    # ------------------------------------------------------------------ #
    @property
    def num_queued(self) -> int:
        return len(self._queue)

    @property
    def num_active(self) -> int:
        """Requests holding a live slot (decoding or chunk-prefilling)."""
        return self.batch.num_rows

    @property
    def has_work(self) -> bool:
        return bool(self._queue) or self.batch.num_rows > 0

    def submit(
        self,
        prompt_ids: np.ndarray,
        max_new_tokens: int = 16,
        *,
        temperature: float = 0.0,
        stop_ids: set[int] | None = None,
        submitted_at: float | None = None,
        priority: int = 0,
        deadline: float | None = None,
    ) -> EngineRequest:
        """Queue a generation request; it joins the live batch between steps.

        ``submitted_at`` (engine-clock time) backdates the queue-time stamp
        for front ends that held the request before handing it over — the
        async engine's inbox dwell would otherwise be invisible to the
        queue/TTFT SLA timings.  ``priority`` (larger = more urgent) and
        ``deadline`` (absolute engine-clock time) steer admission order;
        a strictly higher-priority arrival may also preempt a decoding row
        when the batch is full (see :meth:`preempt`).
        """
        prompt = validate_prompt(self.model, prompt_ids)
        state = DecodeState(
            prompt_ids=prompt,
            max_new_tokens=int(max_new_tokens),
            temperature=float(temperature),
            stop_ids=frozenset(stop_ids or ()),
        )
        request = EngineRequest(
            request_id=self._next_id,
            state=state,
            submitted_at=self.clock() if submitted_at is None else float(submitted_at),
            priority=int(priority),
            deadline=None if deadline is None else float(deadline),
            prompt_len=len(prompt),
        )
        self._next_id += 1
        self._queue.append(request)
        self.stats.submitted += 1
        self.stats.peak_queue_depth = max(self.stats.peak_queue_depth, len(self._queue))
        return request

    # ------------------------------------------------------------------ #
    def _admit_group(self, group: list[EngineRequest]) -> list[EngineRequest]:
        """Register an admission group for prefilling.

        No prompt forward runs here: each startable request takes a
        scheduling slot in the ``prefilling`` state and :meth:`step`'s
        chunk phase consumes its prompt.  With a pool, every startable
        request checks out a prefix cache (a miss seeds the pool — the
        advanced cache is checked back in once the prompt is consumed), so
        pool hits skip straight past the covered span.  Returns the
        requests that finished during admission (unstartable: empty token
        budget / prompt already at the context limit — they take no slot
        and no pool checkout).
        """
        finished: list[EngineRequest] = []
        for request in group:
            request.admitted_at = self.clock()
            state = request.state
            if self.batch._finish_unstartable(state):
                request.prefill_seconds += self.clock() - request.admitted_at
                self._finish(request)
                finished.append(request)
                continue
            prefill_cache = None
            if self.cache_pool is not None:
                prefill_cache, request.reused_tokens = self.cache_pool.checkout(
                    state.prompt_ids
                )
            self.batch.admit_chunked(state, prefill_cache=prefill_cache)
            request.prefill_seconds += self.clock() - request.admitted_at
            self._live[id(state)] = request
        return finished

    def _prefill_chunk_phase(self) -> int:
        """Consume at most ``prefill_chunk_tokens`` prompt tokens across the
        prefilling requests (FIFO admission order; ``None`` is no cap, so
        every prompt completes this step); requests whose prompt is
        exhausted flip to decoding and their staging cache is checked back
        into the pool.  Returns the tokens consumed this step."""
        budget = self.prefill_chunk_tokens
        if budget is None:
            budget = sys.maxsize
        consumed_total = 0
        for state in list(self.batch.prefilling):
            if budget <= 0:
                break
            request = self._live[id(state)]
            chunk_start = self.clock()
            consumed = self.batch.prefill_step(state, budget)
            request.prefill_seconds += self.clock() - chunk_start
            if consumed:
                request.prefill_chunks += 1
                budget -= consumed
                consumed_total += consumed
                self.stats.prefill_tokens += consumed
                self.stats.prefill_chunks += 1
            if state.admitted:
                staging = self.batch.release_prefill(state)
                if staging is not None:
                    self.cache_pool.checkin(state.prompt_ids, staging)
        return consumed_total

    def _finish(self, request: EngineRequest) -> None:
        request.finished_at = self.clock()
        request.result = request.state.output()
        request.done = True
        self.stats.finished += 1
        if request.queue_seconds is not None:
            self.stats.queue_seconds.append(request.queue_seconds)
        self.stats.prefill_seconds.append(request.prefill_seconds)
        if request.ttft_seconds is not None:
            self.stats.ttft_seconds.append(request.ttft_seconds)
        self.stats.decode_steps.append(request.decode_steps)
        self.stats.chunks_per_request.append(request.prefill_chunks)

    @staticmethod
    def _admit_key(request: EngineRequest) -> tuple:
        """Queue order: priority desc, then arrival, then deadline asc.

        Arrival keeps same-priority traffic strictly FIFO (a request with a
        tight deadline must not leapfrog earlier arrivals — that would turn
        every timeout into a priority boost); the deadline orders requests
        that arrived *together* (one submit_batch, one co-arriving inbox
        drain), where FIFO has no opinion.
        """
        deadline = request.deadline if request.deadline is not None else float("inf")
        return (-request.priority, request.submitted_at, deadline, request.request_id)

    def _preemptible(self, request: EngineRequest) -> bool:
        """Whether ``request`` is a decoding row worth preempting.

        Prefilling slots are never preempted (their staging checkin is the
        cancel path's job), and a row that would finish on its next step
        anyway (budget or context exhausted) is cheaper to let retire.
        """
        state = request.state
        if request.done or not state.admitted or state.finished:
            return False
        if state.gen_len >= state.max_new_tokens:
            return False
        return len(state.prompt_ids) + state.gen_len < self.model.config.max_position

    def _preempt_for_queue(self) -> None:
        """Preempt lowest-priority decoding rows for higher-priority waiters.

        Frees exactly as many rows as there are queued requests with
        priority *strictly* above the victim's — equal priorities never
        preempt, so priority-less traffic can never thrash.
        """
        while True:
            victim = None
            victim_key = None
            for request in self._live.values():
                if not self._preemptible(request):
                    continue
                key = (request.priority, request.state.gen_len, request.request_id)
                if victim is None or key < victim_key:
                    victim, victim_key = request, key
            if victim is None:
                return
            waiting = sum(1 for r in self._queue if r.priority > victim.priority)
            free = self.max_batch_rows - self.batch.num_rows
            if waiting == 0 or free >= waiting:
                return
            self.preempt(victim)

    def _admit_pending(self) -> list[EngineRequest]:
        """Admit queued requests into free rows; returns any that finished
        during admission (unstartable requests take no row)."""
        if not self._queue:
            return []
        if self.batch.num_rows >= self.max_batch_rows:
            self._preempt_for_queue()
        free = self.max_batch_rows - self.batch.num_rows
        if free <= 0:
            return []
        # Admission order is priority-aware: the queue stays a plain deque
        # (submit order — cheap, and what the FIFO tiebreak wants) and the
        # group is picked by sort key at admission time.
        group = sorted(self._queue, key=self._admit_key)[:free]
        for request in group:
            self._queue.remove(request)
            if request._pinned_ids is not None:
                # A preempted request re-entering the batch: its pinned
                # resume entry is about to be checked out by the normal
                # admission path, so release the eviction pin first.
                self._release_pin(request)
                self.stats.resumes += 1
        finished = self._admit_group(group)
        self.stats.admissions += 1
        self.stats.admitted_rows += len(group)
        self.stats.batch_sizes.append(len(group))
        self.stats.peak_rows = max(self.stats.peak_rows, self.batch.num_rows)
        return finished

    def step(self) -> list[EngineRequest]:
        """One scheduling iteration: admit, chunk-prefill, decode, retire.

        Returns the requests that finished during this iteration.  Queued
        requests take every free row first.  The step then consumes up to
        one ``prefill_chunk_tokens`` budget's worth of prompt tokens (all
        of them without a budget; requests whose prompt completes join
        this very step's decode), then decodes the live rows — so under a
        budget, decode latency per step is bounded regardless of arriving
        prompt lengths.
        """
        finished = self._admit_pending()
        if self.batch.num_rows == 0:
            return finished
        self.stats.step_prefill_tokens.append(self._prefill_chunk_phase())
        self.stats.step_decode_rows.append(self.batch.num_decoding)
        if self.batch.num_decoding == 0:
            # A pure-prefill step: prompts advanced but nothing decodes yet.
            return finished
        rows = self.batch.num_decoding
        # Tokens are sampled at the top of the decode step, before the
        # survivors' forward — stamp first-token times accordingly so TTFT
        # does not absorb the next step's compute.
        sampled_at = self.clock()
        retired = self.batch.step(self.rng)
        self.stats.steps += 1
        self.stats.row_steps += rows
        for state in retired:
            request = self._live.pop(id(state))
            if request.first_token_at is None and state.gen_len > 0:
                request.first_token_at = sampled_at
            self._finish(request)
            finished.append(request)
        for request in self._live.values():
            if request.first_token_at is None and request.state.gen_len > 0:
                request.first_token_at = sampled_at
        return finished

    def preempt(self, request: EngineRequest) -> bool:
        """Retire a live decoding row at the step boundary and requeue it.

        The row's decoded-so-far KV span is extracted into the prefix pool
        as a batch-1 entry (under a paged layout this is a copy-on-write
        table edit — the blocks are shared by reference, no bytes move) and
        *pinned* against LRU eviction; the request re-enters the queue with
        its tokens-so-far as the resume prompt and its remaining token
        budget.  Re-admission checks the pinned entry out, unpins it, and
        re-forwards only the final token — decoding continues bit-identical
        to an unpreempted run.  Without a pool the resume re-prefills from
        scratch: slower, still exact.

        Returns ``False`` when the request is not currently a live decoding
        row (queued, prefilling, or already finished).  Like :meth:`step`
        and :meth:`cancel`, this mutates the live batch and must only be
        called between steps by whoever owns the stepping loop.
        """
        state = request.state
        if request.done or id(state) not in self._live or not state.admitted:
            return False
        tokens = state.output()
        if self.cache_pool is not None and len(tokens) >= self.cache_pool.min_reuse_tokens:
            # Extract the row's KV span [col_start, length) — exactly the
            # keys/values of every token in `tokens` — into a standalone
            # batch-1 cache (paged: a block-sharing table copy).
            clone = self.batch._make_cache(0, self.batch.capacity)
            clone.admit_row(self.batch.cache, state.row, state.col_start)
            # Repositioned, not recomputed: don't let checkin count the
            # whole sequence as fresh prefill work.
            clone.pool_reused_tokens = clone.length
            self.cache_pool.checkin(tokens, clone)
            self.cache_pool.pin(tokens)
            request._pinned_ids = tokens
        state.finished, state.finish_reason = True, "preempted"
        self.batch.retire_finished()
        self._live.pop(id(state))
        request.preemptions += 1
        self.stats.preemptions += 1
        request.state = DecodeState(
            prompt_ids=tokens,
            max_new_tokens=state.max_new_tokens - state.gen_len,
            temperature=state.temperature,
            stop_ids=state.stop_ids,
        )
        self._queue.append(request)
        self.stats.peak_queue_depth = max(
            self.stats.peak_queue_depth, len(self._queue)
        )
        return True

    def _release_pin(self, request: EngineRequest) -> None:
        """Drop a preempted request's eviction pin (request leaving early)."""
        if request._pinned_ids is not None:
            if self.cache_pool is not None:
                self.cache_pool.unpin(request._pinned_ids)
            request._pinned_ids = None

    def cancel(self, request: EngineRequest, reason: str = "cancelled") -> bool:
        """Retire ``request`` at the current step boundary.

        A queued request is removed from the queue; a live one is retired
        from the batch immediately, reclaiming its KV-cache row.  Either way
        the request completes with ``finish_reason`` set to ``reason``
        (``"cancelled"`` or ``"timeout"``) and ``result`` holding the tokens
        decoded so far (at least the prompt).  Returns ``False`` when the
        request already finished — cancellation racing natural retirement is
        a no-op, never an error.

        Like :meth:`step`, this mutates the live batch and must only be
        called between steps by whoever owns the stepping loop (the calling
        thread in sync use, the stepping thread under
        :class:`~repro.serving.aio.AsyncEngine`).
        """
        if request.done:
            return False
        state = request.state
        if id(state) in self._live:
            state.finished, state.finish_reason = True, reason
            if not state.admitted:
                # Cancelled mid-prefill: the request holds no cache row yet,
                # only a prefilling slot and a staging cache.  Free the slot;
                # a borrowed (pool) staging cache goes back in holding the
                # prefix prefilled so far — future overlapping traffic still
                # benefits from the chunks this request paid for.
                staging = self.batch.release_prefill(state)
                if staging is not None:
                    if staging.length > 0:
                        self.cache_pool.checkin(state.prompt_ids, staging)
                    elif hasattr(staging, "release"):
                        staging.release()
            else:
                self.batch.retire_finished()
            self._live.pop(id(state))
        else:
            try:
                self._queue.remove(request)
            except ValueError:  # not queued here (already handed elsewhere)
                return False
            state.finished, state.finish_reason = True, reason
        self._release_pin(request)
        self._finish(request)
        if reason == "timeout":
            self.stats.timeouts += 1
        else:
            self.stats.cancelled += 1
        return True

    def reset(self) -> None:
        """Drop all queued and live work (recovery after a fatal step error)."""
        for request in self._queue:
            self._release_pin(request)
        self._queue.clear()
        self._live.clear()
        for state in list(self.batch.prefilling):
            staging = self.batch.release_prefill(state)
            if staging is not None and hasattr(staging, "release"):
                staging.release()
        self.batch = DecodeBatch(
            self.model,
            capacity=self.model.config.max_position,
            kv_layout=self.kv_layout,
            kv_dtype=self.kv_dtype,
        )

    def drain(self) -> list[EngineRequest]:
        """Run scheduling iterations until queue and live batch are empty.

        Returns the finished requests in submit order.
        """
        finished: list[EngineRequest] = []
        while self.has_work:
            finished.extend(self.step())
        return sorted(finished, key=lambda r: r.request_id)
