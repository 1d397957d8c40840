"""Tests for the async serving front-end (:mod:`repro.serving.aio`).

Pins the async-layer invariants:

* greedy tokens from :class:`~repro.serving.AsyncEngine` under randomized
  concurrent submission (asyncio clients and plain threads) are identical
  to the sequential cached path;
* per-request token streams deliver exactly the generated tail, including
  backlog replay for subscribers that attach mid-decode or after a
  preemption; a step hands each consumer loop its rows' tokens in one
  ``call_soon_threadsafe``; the stream end follows the last token and the
  settled future; a closed consumer loop drops only its own subscribers;
* score requests with out-of-vocabulary or empty inputs fail at submit;
* cancellation and timeouts retire rows at the next step boundary, surface
  as :class:`RequestCancelled`/:class:`RequestTimeout` with the partial
  output, and leak no KV rows — and a cancel racing natural retirement is
  a no-op;
* a prefill that raises during admission fails every request the engine
  owns, returns its pool checkout and frees every KV block, and the
  engine then serves fresh traffic;
* shutdown drains (finishing all queued and live work) or aborts
  (cancelling it), and either way leaves every future resolved;
* ``submit_batch`` queues a whole batch atomically, so collecting its
  handles behaves exactly like a synchronous drain of the engine.
"""

from __future__ import annotations

import asyncio
import gc
import sys
import threading
import time

import numpy as np
import pytest

from parity import assert_generations_equal
from repro.models import DecoderLM, get_config
from repro.serving import (
    AsyncEngine,
    EngineConfig,
    PrefixCachePool,
    RequestCancelled,
    RequestTimeout,
)

VOCAB = 64


@pytest.fixture(scope="module")
def model():
    m = DecoderLM(get_config("gpt2"), VOCAB, rng=0)
    m.eval()
    return m


@pytest.fixture()
def ragged_prompts():
    rng = np.random.default_rng(29)
    return [rng.integers(1, VOCAB, size=n) for n in (3, 9, 5, 12, 7, 4, 10, 6)]


def wait_until(predicate, timeout: float = 10.0, interval: float = 0.002) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached before timeout")


def assert_no_leaked_rows(engine: AsyncEngine) -> None:
    """Every KV row, live-request entry and queue slot has been reclaimed."""
    wait_until(lambda: engine.num_pending == 0)
    inner = engine.engine
    assert inner.batch.num_rows == 0
    assert inner.batch.cache.batch_size == 0
    assert not inner._live and inner.num_queued == 0


# ---------------------------------------------------------------------- #
# parity under concurrency
# ---------------------------------------------------------------------- #
class TestAsyncParity:
    def test_randomized_concurrent_clients_match_sequential(self, model, ragged_prompts):
        """N asyncio clients with random arrival jitter == sequential greedy."""
        rng = np.random.default_rng(5)
        budgets = [int(b) for b in rng.integers(3, 10, size=len(ragged_prompts))]
        delays = [float(d) for d in rng.uniform(0.0, 0.03, size=len(ragged_prompts))]
        with AsyncEngine(
            model,
            config=EngineConfig(max_batch_rows=3),
            cache_pool=PrefixCachePool(model, max_entries=4),
        ) as engine:

            async def client(i):
                await asyncio.sleep(delays[i])
                return await engine.generate(ragged_prompts[i], max_new_tokens=budgets[i])

            async def main():
                return await asyncio.gather(
                    *(client(i) for i in range(len(ragged_prompts)))
                )

            results = asyncio.run(main())
            expected = [
                model.generate(p, max_new_tokens=b)
                for p, b in zip(ragged_prompts, budgets)
            ]
            assert_generations_equal(results, expected, context="async concurrent")
            assert engine.stats.finished == len(ragged_prompts)
            assert engine.stats.peak_queue_depth >= 1
            assert_no_leaked_rows(engine)

    def test_submissions_from_plain_threads(self, model, ragged_prompts):
        """submit()/result() need no event loop; submitters race from threads."""
        with AsyncEngine(model, config=EngineConfig(max_batch_rows=4)) as engine:
            results: dict[int, np.ndarray] = {}

            def worker(indices):
                handles = [
                    (i, engine.submit(ragged_prompts[i], max_new_tokens=5))
                    for i in indices
                ]
                for i, handle in handles:
                    results[i] = handle.result(timeout=60)

            threads = [
                threading.Thread(target=worker, args=(range(k, 8, 4),))
                for k in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            expected = [model.generate(p, max_new_tokens=5) for p in ragged_prompts]
            assert_generations_equal(
                [results[i] for i in range(8)], expected, context="threaded submit"
            )
            assert_no_leaked_rows(engine)

    def test_streaming_delivers_generated_tail(self, model, ragged_prompts):
        with AsyncEngine(model, config=EngineConfig(max_batch_rows=2)) as engine:

            async def main():
                tokens = []
                async for token in engine.stream(ragged_prompts[1], max_new_tokens=7):
                    tokens.append(token)
                return tokens

            tokens = asyncio.run(main())
            reference = model.generate(ragged_prompts[1], max_new_tokens=7)
            assert tokens == [int(t) for t in reference[len(ragged_prompts[1]) :]]

    def test_mid_decode_subscription_replays_backlog(self, model, ragged_prompts):
        with AsyncEngine(model, config=EngineConfig(max_batch_rows=2)) as engine:
            request = engine.submit(ragged_prompts[2], max_new_tokens=8)
            wait_until(
                lambda: request.engine_request is not None
                and request.engine_request.state.gen_len >= 2
            )

            async def main():
                return [token async for token in request.tokens()]

            tokens = asyncio.run(main())
            reference = model.generate(ragged_prompts[2], max_new_tokens=8)
            assert tokens == [int(t) for t in reference[len(ragged_prompts[2]) :]]

    def test_zero_token_budget_resolves_immediately(self, model, ragged_prompts):
        with AsyncEngine(model, config=EngineConfig(max_batch_rows=2)) as engine:
            request = engine.submit(ragged_prompts[0], max_new_tokens=0)
            np.testing.assert_array_equal(request.result(timeout=30), ragged_prompts[0])
            assert request.finish_reason == "length"
            assert_no_leaked_rows(engine)

    def test_async_score_matches_direct_call(self, model, ragged_prompts):
        candidates = [np.array([3]), np.array([4, 5]), np.array([6, 7, 8])]
        with AsyncEngine(model, config=EngineConfig(max_batch_rows=2)) as engine:
            scores = asyncio.run(engine.score(ragged_prompts[0], candidates))
        np.testing.assert_allclose(
            scores,
            model.score_continuations(ragged_prompts[0], candidates),
            rtol=1e-6,
        )

    def test_fresh_empty_pool_is_the_one_used(self, model, ragged_prompts):
        # An empty pool is falsy; it must still not be swapped for the default.
        pool = PrefixCachePool(model, max_entries=4)
        candidates = [np.array([3]), np.array([4, 5])]
        with AsyncEngine(
            model, config=EngineConfig(max_batch_rows=2), cache_pool=pool
        ) as engine:
            assert engine.cache_pool is pool and engine.engine.cache_pool is pool
            asyncio.run(engine.score(ragged_prompts[3], candidates))
        assert len(pool) == 1

    def test_submit_validation_raises_at_call_site(self, model):
        with AsyncEngine(model, config=EngineConfig(max_batch_rows=2)) as engine:
            with pytest.raises(ValueError):
                engine.submit(np.empty(0, dtype=np.int64))
            with pytest.raises(ValueError):
                engine.submit(np.ones(model.config.max_position + 1, dtype=np.int64))
            with pytest.raises(ValueError):
                engine.submit_score(np.empty(0, dtype=np.int64), [np.array([1])])

    def test_out_of_vocabulary_id_fails_only_its_submission(self, model, ragged_prompts):
        """A bad token id raises at submit time, so it never reaches the
        stepping thread's forward and cannot fail a live batchmate."""
        stepped = threading.Event()
        release = threading.Event()

        def hook(_engine):
            stepped.set()
            release.wait(10)

        engine = AsyncEngine(model, config=EngineConfig(max_batch_rows=4), on_step=hook)
        try:
            live = engine.submit(ragged_prompts[0], max_new_tokens=40)
            assert stepped.wait(10) and not live.done  # in flight, held
            for bad in ([1, 2, VOCAB], [1, -1, 2]):
                with pytest.raises(ValueError, match="token ids must lie in"):
                    engine.submit(np.array(bad))
            release.set()
            assert_generations_equal(
                [live.result(timeout=30)],
                [model.generate(ragged_prompts[0], max_new_tokens=40)],
                context="batchmate of a rejected bad-id prompt",
            )
        finally:
            release.set()
            engine.shutdown(drain=False)
        assert engine.stats.finished == 1
        assert_no_leaked_rows(engine)


    def test_bad_score_requests_fail_at_submit(self, model, ragged_prompts):
        """Out-of-vocabulary or empty score inputs raise at submit time, so
        a live generation is untouched; a score that fails inside the
        scorer returns its pool checkout (paged, so ``REPRO_SANITIZE=1``
        audits the blocks)."""
        stepped = threading.Event()
        release = threading.Event()

        def hook(_engine):
            stepped.set()
            release.wait(10)

        pool = PrefixCachePool(model, max_entries=4, kv_layout="paged")
        engine = AsyncEngine(
            model,
            config=EngineConfig(max_batch_rows=4, kv_layout="paged"),
            cache_pool=pool,
            on_step=hook,
        )
        prompt = ragged_prompts[3]
        try:
            live = engine.submit(ragged_prompts[0], max_new_tokens=30)
            assert stepped.wait(10) and not live.done  # in flight, held
            with pytest.raises(ValueError, match="prompt token ids must lie in"):
                engine.submit_score(np.array([1, VOCAB, 2]), [np.array([3])])
            with pytest.raises(ValueError, match="candidate token ids must lie in"):
                engine.submit_batch(
                    [
                        {
                            "kind": "score",
                            "prompt_ids": prompt,
                            "candidates": [np.array([3]), np.array([4, -1])],
                        }
                    ]
                )
            with pytest.raises(ValueError, match="candidates need at least one token"):
                engine.submit_score(prompt, [np.array([3]), np.array([], dtype=np.int64)])
            with pytest.raises(ValueError, match="score requests need a non-empty"):
                engine.submit_score(np.array([], dtype=np.int64), [np.array([3])])
            assert engine.num_pending == 1
            release.set()
            assert_generations_equal(
                [live.result(timeout=30)],
                [model.generate(ragged_prompts[0], max_new_tokens=30)],
                context="batchmate of rejected bad score requests",
            )
            engine.on_step = None
            # Pool the prompt, then fail a score of it inside the scorer
            # (prompt + candidate overflow the context): the consumed entry
            # goes back, so the next score of the prompt reuses all of it.
            engine.submit_score(prompt, [np.array([3])]).result(timeout=30)
            entries = len(pool)
            overflow = [np.ones(model.config.max_position, dtype=np.int64)]
            with pytest.raises(ValueError, match="exceeds the maximum context"):
                engine.submit_score(prompt, overflow).result(timeout=30)
            assert len(pool) == entries
            hits = pool.stats.hits
            scores = engine.submit_score(prompt, [np.array([3])]).result(timeout=30)
            assert pool.stats.hits == hits + 1
            assert engine._scorer.last_reused_tokens == len(prompt)
            np.testing.assert_allclose(
                scores, model.score_continuations(prompt, [np.array([3])]), rtol=1e-5
            )
        finally:
            release.set()
            engine.shutdown(drain=False)
        assert_no_leaked_rows(engine)


# ---------------------------------------------------------------------- #
# the stream contract
# ---------------------------------------------------------------------- #
def generated_tail(model, prompt, max_new_tokens) -> list[int]:
    return [int(t) for t in model.generate(prompt, max_new_tokens)[len(prompt) :]]


class TestStreamContract:
    def test_one_hand_off_per_loop_per_step(self, model, ragged_prompts):
        """Three rows streaming to one loop cost one call_soon_threadsafe
        per step for their tokens, not one per row per token; the step that
        ends the streams adds one hand-off for the ends."""
        go = threading.Event()
        calls: list[tuple[int, bool]] = []  # (engine steps, carries tokens)
        steps_seen: list[int] = []

        def hook(engine):
            steps_seen.append(engine.stats.steps)
            go.wait(10)

        engine = AsyncEngine(model, config=EngineConfig(max_batch_rows=3), on_step=hook)
        prompts = ragged_prompts[:3]

        async def main():
            loop = asyncio.get_running_loop()
            original = loop.call_soon_threadsafe

            def counting(callback, *args, **kwargs):
                if threading.current_thread().name == "AsyncEngine-stepper":
                    delivered = [
                        item
                        for arg in args
                        for item in (
                            [i for _, items in arg for i in items]
                            if isinstance(arg, list)
                            else [arg]
                        )
                    ]
                    carries_tokens = any(isinstance(i, int) for i in delivered)
                    calls.append((engine.stats.steps, carries_tokens))
                return original(callback, *args, **kwargs)

            loop.call_soon_threadsafe = counting
            requests = engine.submit_batch(
                [{"prompt_ids": p, "max_new_tokens": 8} for p in prompts]
            )

            async def collect(request):
                return [token async for token in request.tokens()]

            tasks = [asyncio.ensure_future(collect(r)) for r in requests]
            await asyncio.sleep(0)  # every task has subscribed
            go.set()
            return await asyncio.gather(*tasks)

        try:
            streams = asyncio.run(main())
        finally:
            go.set()
            engine.shutdown()
        assert streams == [generated_tail(model, p, 8) for p in prompts]
        # The three rows were admitted together and decoded in lockstep, so
        # every step after the first carried three streams' tokens (and the
        # last one their stream ends) — each in a single hand-off.
        assert engine.stats.batch_sizes == [3]
        token_steps = [step for step, carries_tokens in calls if carries_tokens]
        assert len(token_steps) == len(set(token_steps)) >= 7, calls
        assert set(token_steps) <= set(steps_seen)
        # The streams end after their last tokens, in one more hand-off.
        assert calls[-2:] == [(steps_seen[-1], True), (steps_seen[-1], False)]
        assert [carries_tokens for _, carries_tokens in calls].count(False) == 1

    def test_order_kept_and_end_after_resolution(self, model, ragged_prompts):
        """Tokens arrive in order; the end comes after the last token and
        after the future resolves; a cancelled stream yields its partial
        tokens, then raises."""
        with AsyncEngine(model, config=EngineConfig(max_batch_rows=2)) as engine:

            async def finishing(request):
                tokens = [token async for token in request.tokens()]
                assert request.done  # resolved before the stream ended
                return tokens

            async def cancelled(request):
                tokens = []
                with pytest.raises(RequestCancelled) as info:
                    async for token in request.tokens():
                        tokens.append(token)
                        if len(tokens) == 3:
                            request.cancel()
                assert request.done and request.finish_reason == "cancelled"
                return tokens, info.value.partial

            async def main():
                whole = engine.submit(ragged_prompts[0], max_new_tokens=12)
                victim = engine.submit(ragged_prompts[1], max_new_tokens=10_000)
                return await asyncio.gather(finishing(whole), cancelled(victim))

            whole_tokens, (partial_tokens, partial) = asyncio.run(main())
        assert whole_tokens == generated_tail(model, ragged_prompts[0], 12)
        prompt = ragged_prompts[1]
        # Every token decoded before the cancel landed was streamed, once,
        # in order, before the exception.
        assert len(partial_tokens) >= 3
        assert partial_tokens == [int(t) for t in partial[len(prompt) :]]
        assert partial_tokens == generated_tail(model, prompt, len(partial_tokens))

    def test_closed_loop_drops_only_its_own_subscribers(self, model, ragged_prompts):
        """Loop A closes mid-stream without finalizing its generator; loop B,
        on another thread, still receives both streams token-identical."""
        started, a_closed = threading.Event(), threading.Event()
        prompts = ragged_prompts[2:4]
        holder: dict = {}

        def hook(_engine):
            started.wait(10)
            first = holder["requests"][0].engine_request
            if first is not None and first.state.gen_len >= 4:
                a_closed.wait(10)

        engine = AsyncEngine(model, config=EngineConfig(max_batch_rows=2), on_step=hook)
        try:
            requests = holder["requests"] = engine.submit_batch(
                [{"prompt_ids": p, "max_new_tokens": 16} for p in prompts]
            )
            results: dict = {}

            def consumer_a():
                loop = asyncio.new_event_loop()
                stream = requests[0].tokens()

                async def take_two():
                    return [await stream.__anext__() for _ in range(2)]

                try:
                    results["a"] = loop.run_until_complete(take_two())
                finally:
                    loop.close()  # the generator stays open and subscribed
                    results["a_stream"] = stream
                    a_closed.set()

            def consumer_b():
                async def collect(request):
                    return [token async for token in request.tokens()]

                async def main():
                    return await asyncio.gather(*(collect(r) for r in requests))

                results["b"] = asyncio.run(main())

            threads = [threading.Thread(target=consumer_a), threading.Thread(target=consumer_b)]
            for thread in threads:
                thread.start()
            wait_until(
                lambda: len(requests[0]._subscribers) == 2
                and len(requests[1]._subscribers) == 1
            )
            started.set()
            for thread in threads:
                thread.join(30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            started.set()
            a_closed.set()
            engine.shutdown()
        expected = [generated_tail(model, p, 16) for p in prompts]
        assert results["b"] == expected
        assert results["a"] == expected[0][:2]
        assert requests[0]._subscribers == []
        asyncio.run(results["a_stream"].aclose())

    def test_many_loops_under_a_short_switch_interval(self, model, ragged_prompts):
        """Stress: four consumer loops on four threads (more than the cores),
        each streaming two requests while the interpreter switches threads
        every 10 µs; every stream equals the sequential greedy tail."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        results: dict[int, list] = {}
        try:
            with AsyncEngine(model, config=EngineConfig(max_batch_rows=4)) as engine:

                def consumer(k):
                    async def main():
                        streams = [
                            engine.stream(ragged_prompts[i], max_new_tokens=10)
                            for i in (2 * k, 2 * k + 1)
                        ]

                        async def collect(stream):
                            return [token async for token in stream]

                        return await asyncio.gather(*(collect(s) for s in streams))

                    results[k] = asyncio.run(main())

                threads = [threading.Thread(target=consumer, args=(k,)) for k in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
                assert not any(thread.is_alive() for thread in threads)
                assert_no_leaked_rows(engine)
        finally:
            sys.setswitchinterval(interval)
        for k in range(4):
            assert results[k] == [
                generated_tail(model, ragged_prompts[i], 10) for i in (2 * k, 2 * k + 1)
            ]

    def test_late_subscriber_replays_backlog_across_preemption(self, model):
        """A subscriber joining after its request was preempted and resumed,
        while a decoded token is not yet published, replays exactly the
        published backlog and then the rest: no token twice, none missing."""
        victim_prompt, urgent_prompt = np.arange(3, 9), np.arange(20, 26)
        urgent_sent, mid_step, late_attached = (threading.Event() for _ in range(3))
        holder: dict = {}

        def hook(_engine):
            victim = holder.get("victim")
            if victim is not None and victim.engine_request is not None:
                if not victim.engine_request.preemptions:
                    if victim.engine_request.state.gen_len >= 4:
                        urgent_sent.wait(10)  # keep the victim mid-decode

        engine = AsyncEngine(
            model,
            config=EngineConfig(max_batch_rows=1),
            cache_pool=PrefixCachePool(model, max_entries=8),
            on_step=hook,
        )
        step = engine.engine.step

        def step_then_hold():
            # Hold the stepping thread between a resumed decode and its
            # publish, so the late subscriber joins with a token in flight.
            finished = step()
            victim = holder["victim"]
            decoded = len(victim.engine_request.generated_ids())
            if victim.engine_request.preemptions and decoded > victim._published:
                if not late_attached.is_set():
                    mid_step.set()
                    late_attached.wait(10)
            return finished

        engine.engine.step = step_then_hold

        async def collect(request):
            return [token async for token in request.tokens()]

        async def main():
            victim = holder["victim"] = engine.submit(victim_prompt, max_new_tokens=12)
            early = asyncio.ensure_future(collect(victim))
            while victim.engine_request is None or victim.engine_request.state.gen_len < 4:
                await asyncio.sleep(0.001)
            urgent = engine.submit(urgent_prompt, max_new_tokens=4, priority=5)
            urgent_sent.set()
            while not mid_step.is_set():
                await asyncio.sleep(0.001)
            backlog = victim._published
            decoded = len(victim.engine_request.generated_ids())
            late = asyncio.ensure_future(collect(victim))
            await asyncio.sleep(0)  # subscribed, backlog replayed
            late_attached.set()
            return await early, await late, backlog, decoded, await urgent

        try:
            early, late, backlog, decoded, urgent = asyncio.run(main())
        finally:
            urgent_sent.set()
            late_attached.set()
            engine.shutdown()
        expected = generated_tail(model, victim_prompt, 12)
        assert holder["victim"].engine_request.preemptions == 1
        assert 4 <= backlog < decoded < 12
        assert early == expected and late == expected
        np.testing.assert_array_equal(urgent, model.generate(urgent_prompt, 4))


# ---------------------------------------------------------------------- #
# cancellation and timeouts
# ---------------------------------------------------------------------- #
class TestCancellation:
    def test_cancel_mid_decode_reclaims_row_deterministically(self, model, ragged_prompts):
        """The row retires at the next step boundary with the partial output.

        ``on_step`` gates the stepping thread so the cancel lands at a known
        iteration: exactly one token has been decoded when it is processed.
        """
        step_done = threading.Event()
        resume = threading.Event()

        def hook(_engine):
            step_done.set()
            resume.wait(10)
            resume.clear()

        engine = AsyncEngine(model, config=EngineConfig(max_batch_rows=2), on_step=hook)
        try:
            request = engine.submit(ragged_prompts[0], max_new_tokens=50)
            sibling = engine.submit(ragged_prompts[1], max_new_tokens=6)
            assert step_done.wait(10)
            step_done.clear()
            assert request.cancel()
            resume.set()
            with pytest.raises(RequestCancelled) as info:
                request.result(timeout=30)
            # Exactly one decode step ran before the cancel was applied.
            assert len(info.value.partial) == len(ragged_prompts[0]) + 1
            reference = model.generate(ragged_prompts[0], max_new_tokens=50)
            np.testing.assert_array_equal(
                info.value.partial, reference[: len(info.value.partial)]
            )
            assert request.finish_reason == "cancelled"
            # The sibling decodes to parity, unaffected by the retirement.
            while not sibling.done:
                resume.set()
                time.sleep(0.001)
            resume.set()
            assert_generations_equal(
                [sibling.result(timeout=30)],
                [model.generate(ragged_prompts[1], max_new_tokens=6)],
                context="sibling of cancelled row",
            )
            assert engine.stats.cancelled == 1
        finally:
            engine.on_step = None
            resume.set()
            engine.shutdown(drain=False)
        assert_no_leaked_rows(engine)

    def test_cancel_queued_request_never_admitted(self, model, ragged_prompts):
        """``on_step`` holds the stepping thread after the blocker's first
        step until the cancel is registered, so the cancel always lands
        while the second request is queued — ungated, a stalled test thread
        could let both requests finish first."""
        gate = threading.Event()
        with AsyncEngine(
            model,
            config=EngineConfig(max_batch_rows=1),
            on_step=lambda _engine: gate.wait(10),
        ) as engine:
            try:
                blocker = engine.submit(ragged_prompts[0], max_new_tokens=40)
                queued = engine.submit(ragged_prompts[1], max_new_tokens=5)
                wait_until(lambda: blocker.engine_request is not None)
                assert queued.cancel()
                gate.set()
                with pytest.raises(RequestCancelled) as info:
                    queued.result(timeout=30)
                np.testing.assert_array_equal(info.value.partial, ragged_prompts[1])
                blocker.cancel()
                assert_no_leaked_rows(engine)
            finally:
                gate.set()

    def test_cancel_racing_retirement_is_a_noop(self, model, ragged_prompts):
        with AsyncEngine(model, config=EngineConfig(max_batch_rows=2)) as engine:
            request = engine.submit(ragged_prompts[0], max_new_tokens=1)
            result = request.result(timeout=30)
            assert request.cancel() is False  # already finished: result stands
            np.testing.assert_array_equal(
                result, model.generate(ragged_prompts[0], max_new_tokens=1)
            )
            assert request.finish_reason == "length"
            assert engine.stats.cancelled == 0

    def test_timeout_on_live_request(self, model, ragged_prompts):
        with AsyncEngine(model, config=EngineConfig(max_batch_rows=2)) as engine:
            request = engine.submit(
                ragged_prompts[2], max_new_tokens=10_000, timeout=0.05
            )
            with pytest.raises(RequestTimeout) as info:
                request.result(timeout=30)
            assert request.finish_reason == "timeout"
            reference = model.generate(ragged_prompts[2], max_new_tokens=50)
            upto = min(len(info.value.partial), len(reference))
            np.testing.assert_array_equal(
                info.value.partial[:upto], reference[:upto]
            )
            assert engine.stats.timeouts == 1
            assert_no_leaked_rows(engine)

    def test_timeout_while_queued_takes_no_row(self, model, ragged_prompts):
        with AsyncEngine(model, config=EngineConfig(max_batch_rows=1)) as engine:
            blocker = engine.submit(ragged_prompts[0], max_new_tokens=200)
            victim = engine.submit(ragged_prompts[1], max_new_tokens=5, timeout=0.03)
            with pytest.raises(RequestTimeout) as info:
                victim.result(timeout=30)
            np.testing.assert_array_equal(info.value.partial, ragged_prompts[1])
            assert victim.engine_request is None or not victim.engine_request.state.admitted
            blocker.cancel()
            assert_no_leaked_rows(engine)

    def test_cancelling_the_awaiting_task_cancels_the_request(self, model, ragged_prompts):
        with AsyncEngine(model, config=EngineConfig(max_batch_rows=2)) as engine:

            async def main():
                task = asyncio.ensure_future(
                    engine.generate(ragged_prompts[0], max_new_tokens=10_000)
                )
                await asyncio.sleep(0.05)
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task

            asyncio.run(main())
            assert_no_leaked_rows(engine)


# ---------------------------------------------------------------------- #
# admission failure
# ---------------------------------------------------------------------- #
class TestAdmissionFailure:
    def test_failed_prefill_leaks_nothing(self, model, ragged_prompts, monkeypatch):
        """A prefill forward that raises mid-admission fails every request
        the engine owns, returns its pool checkout (holding the prefix
        forwarded before the failure), frees every KV block, and leaves the
        engine serving fresh traffic."""
        allocator = model.paged_allocator("fp32")
        baseline = allocator.blocks_in_use
        pool = PrefixCachePool(model, kv_layout="paged")
        head = np.arange(1, 25, dtype=np.int64)
        doomed = [np.concatenate([head, p]) for p in ragged_prompts[1:3]]
        original = DecoderLM.forward_incremental

        def failing(self, input_ids, cache, *args, **kwargs):
            if input_ids.shape[1] >= len(head):
                # A long prefill: forward half of it, then fail.
                original(self, input_ids[:, : input_ids.shape[1] // 2], cache)
                raise RuntimeError("injected prefill failure")
            return original(self, input_ids, cache, *args, **kwargs)

        engine = AsyncEngine(
            model,
            config=EngineConfig(max_batch_rows=4, kv_layout="paged"),
            cache_pool=pool,
        )
        try:
            monkeypatch.setattr(DecoderLM, "forward_incremental", failing)
            # One admission group: the short prompt takes a live row, then
            # the first long prompt's prefill raises.
            handles = engine.submit_batch(
                [
                    {"prompt_ids": ragged_prompts[0], "max_new_tokens": 30},
                    *({"prompt_ids": p, "max_new_tokens": 4} for p in doomed),
                ]
            )
            for handle in handles:
                with pytest.raises(RuntimeError, match="injected prefill failure"):
                    handle.result(timeout=60)
            monkeypatch.undo()
            assert_no_leaked_rows(engine)
            # The failed checkout went back in with the half it forwarded.
            assert pool.peek(doomed[0]) == len(doomed[0]) // 2
            fresh = engine.submit(ragged_prompts[3], max_new_tokens=6)
            assert_generations_equal(
                [fresh.result(timeout=60)],
                [model.generate(ragged_prompts[3], max_new_tokens=6)],
                context="fresh request after a failed admission",
            )
        finally:
            monkeypatch.undo()
            engine.shutdown(drain=False)
        pool.clear()
        gc.collect()
        assert allocator.blocks_in_use == baseline


# ---------------------------------------------------------------------- #
# shutdown
# ---------------------------------------------------------------------- #
class TestShutdown:
    def test_drain_finishes_all_work_then_rejects(self, model, ragged_prompts):
        engine = AsyncEngine(model, config=EngineConfig(max_batch_rows=2))
        handles = [
            engine.submit(p, max_new_tokens=5) for p in ragged_prompts[:5]
        ]
        engine.shutdown(drain=True)
        expected = [model.generate(p, max_new_tokens=5) for p in ragged_prompts[:5]]
        assert_generations_equal(
            [h.result(timeout=1) for h in handles], expected, context="drain shutdown"
        )
        with pytest.raises(RuntimeError):
            engine.submit(ragged_prompts[0])
        with pytest.raises(RuntimeError):
            engine.submit_score(ragged_prompts[0], [np.array([1])])
        engine.shutdown()  # idempotent

    def test_abort_cancels_queued_and_live(self, model, ragged_prompts):
        engine = AsyncEngine(model, config=EngineConfig(max_batch_rows=1))
        handles = [
            engine.submit(p, max_new_tokens=10_000) for p in ragged_prompts[:3]
        ]
        wait_until(lambda: handles[0].engine_request is not None)
        engine.shutdown(drain=False)
        for handle in handles:
            assert handle.done
            with pytest.raises(RequestCancelled):
                handle.result(timeout=1)
        inner = engine.engine
        assert inner.batch.num_rows == 0 and not inner._live

    def test_shutdown_without_ever_starting(self, model):
        engine = AsyncEngine(model, config=EngineConfig(max_batch_rows=2))
        engine.shutdown()  # no thread was started; must not hang
        with pytest.raises(RuntimeError):
            engine.submit(np.array([1, 2, 3]))


# ---------------------------------------------------------------------- #
# atomic batch submission
# ---------------------------------------------------------------------- #
class TestSubmitBatch:
    def test_mixed_results_in_submit_order_match_direct_calls(
        self, model, ragged_prompts
    ):
        candidates = [np.array([3]), np.array([4, 5])]
        specs = [{"prompt_ids": p, "max_new_tokens": 6} for p in ragged_prompts[:5]]
        specs.append(
            {"kind": "score", "prompt_ids": ragged_prompts[0], "candidates": candidates}
        )
        with AsyncEngine(
            model,
            config=EngineConfig(max_batch_rows=4),
            cache_pool=PrefixCachePool(model, max_entries=4),
        ) as engine:
            handles = engine.submit_batch(specs)
            results = [h.result(timeout=60) for h in handles]
        assert [h.request_id for h in handles] == list(range(6))
        expected = [model.generate(p, max_new_tokens=6) for p in ragged_prompts[:5]]
        assert_generations_equal(results[:5], expected, context="batch generate")
        np.testing.assert_allclose(
            results[5],
            model.score_continuations(ragged_prompts[0], candidates),
            rtol=1e-5,
            atol=1e-5,
        )

    def test_freed_slots_refill_with_mixed_budgets(self, model, ragged_prompts):
        """Six requests against three rows: the engine admits 3, decodes
        them to completion (mnt=4), then refills all three freed slots in
        one second admission group — the mnt=9 request needs no private
        batch."""
        specs = [{"prompt_ids": p, "max_new_tokens": 4} for p in ragged_prompts[:5]]
        specs.append({"prompt_ids": ragged_prompts[5], "max_new_tokens": 9})
        with AsyncEngine(
            model,
            config=EngineConfig(max_batch_rows=3),
            cache_pool=PrefixCachePool(model, max_entries=4),
        ) as engine:
            results = [h.result(timeout=60) for h in engine.submit_batch(specs)]
            assert engine.stats.batch_sizes == [3, 3]
            # 4 steps for the first wave, then the refilled wave runs 9 more
            # (its two mnt=4 rows retire mid-wave) — not 4 + 4 + 9 serial.
            assert engine.stats.steps == 13
        expected = [
            model.generate(p, max_new_tokens=4) for p in ragged_prompts[:5]
        ] + [model.generate(ragged_prompts[5], max_new_tokens=9)]
        assert_generations_equal(results, expected, context="mixed-budget batch")

    def test_batch_admits_like_a_sync_drain(self, model, ragged_prompts):
        """Atomic submission keeps admission groups identical to a drain."""
        specs = [{"prompt_ids": p, "max_new_tokens": 4} for p in ragged_prompts[:5]]
        with AsyncEngine(
            model,
            config=EngineConfig(max_batch_rows=3),
            cache_pool=PrefixCachePool(model, max_entries=4),
        ) as engine:
            results = [h.result(timeout=60) for h in engine.submit_batch(specs)]
            assert engine.stats.batch_sizes == [3, 2]
            assert engine.stats.finished == 5
            assert engine.stats.peak_queue_depth >= 1
        expected = [model.generate(p, max_new_tokens=4) for p in ragged_prompts[:5]]
        assert_generations_equal(results, expected, context="atomic batch")

    def test_engine_ids_follow_submit_order_and_priority_orders_admission(
        self, model, ragged_prompts
    ):
        """The stepping thread hands a drained batch to the engine in submit
        order, so engine ids rise with submission; the engine's own queue
        sort still admits the high-priority request first."""
        with AsyncEngine(model, config=EngineConfig(max_batch_rows=1)) as engine:
            handles = engine.submit_batch(
                [
                    {"prompt_ids": ragged_prompts[i], "max_new_tokens": 3, "priority": p}
                    for i, p in enumerate((0, 5, 0))
                ]
            )
            results = [h.result(timeout=30) for h in handles]
            inner = [h.engine_request for h in handles]
            assert [r.request_id for r in inner] == sorted(r.request_id for r in inner)
            assert inner[1].admitted_at < inner[0].admitted_at < inner[2].admitted_at
            assert_generations_equal(
                results,
                [model.generate(p, max_new_tokens=3) for p in ragged_prompts[:3]],
                context="priority-ordered admission",
            )

    def test_submit_batch_from_a_worker_thread(self, model, ragged_prompts):
        specs = [{"prompt_ids": p, "max_new_tokens": 4} for p in ragged_prompts[:3]]
        with AsyncEngine(model, config=EngineConfig(max_batch_rows=2)) as engine:
            results: list = []

            def worker():
                handles = engine.submit_batch(specs)
                results.extend(h.result(timeout=60) for h in handles)

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(60)
            assert not thread.is_alive()
        expected = [model.generate(p, max_new_tokens=4) for p in ragged_prompts[:3]]
        assert_generations_equal(results, expected, context="batch off-thread")

    def test_failing_score_does_not_strand_its_batchmate(self, model):
        good_prompt, good_candidates = np.array([1, 2, 3]), [np.array([4])]
        with AsyncEngine(
            model, cache_pool=PrefixCachePool(model, max_entries=2)
        ) as engine:
            # Prompt + candidate exceed the context window: scoring raises.
            bad, good = engine.submit_batch(
                [
                    {
                        "kind": "score",
                        "prompt_ids": np.ones(model.config.max_position, dtype=np.int64),
                        "candidates": [np.array([1, 2])],
                    },
                    {
                        "kind": "score",
                        "prompt_ids": good_prompt,
                        "candidates": good_candidates,
                    },
                ]
            )
            with pytest.raises(ValueError):
                bad.result(timeout=60)
            np.testing.assert_allclose(
                good.result(timeout=60),
                model.score_continuations(good_prompt, good_candidates),
                rtol=1e-5,
                atol=1e-5,
            )

    def test_invalid_spec_rejects_the_whole_batch(self, model, ragged_prompts):
        with AsyncEngine(model, config=EngineConfig(max_batch_rows=2)) as engine:
            assert engine.submit_batch([]) == []
            empty = np.empty(0, dtype=np.int64)
            for bad in (
                {"prompt_ids": empty},
                {"kind": "score", "prompt_ids": empty, "candidates": [np.array([1])]},
            ):
                with pytest.raises(ValueError):
                    engine.submit_batch([{"prompt_ids": ragged_prompts[0]}, bad])
            assert engine.num_pending == 0  # the valid batchmate was not queued

    def test_submit_batch_after_shutdown_raises(self, model, ragged_prompts):
        engine = AsyncEngine(model, config=EngineConfig(max_batch_rows=2))
        (handle,) = engine.submit_batch([{"prompt_ids": ragged_prompts[0]}])
        handle.result(timeout=60)
        engine.shutdown()
        engine.shutdown()  # idempotent
        with pytest.raises(RuntimeError):
            engine.submit_batch([{"prompt_ids": ragged_prompts[1]}])
