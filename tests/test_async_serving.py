"""Tests for the async serving front-end (:mod:`repro.serving.aio`).

Pins the async-layer invariants:

* greedy tokens from :class:`~repro.serving.AsyncEngine` under randomized
  concurrent submission (asyncio clients and plain threads) are identical
  to the sequential cached path;
* per-request token streams deliver exactly the generated tail, including
  backlog replay for subscribers that attach mid-decode;
* cancellation and timeouts retire rows at the next step boundary, surface
  as :class:`RequestCancelled`/:class:`RequestTimeout` with the partial
  output, and leak no KV rows — and a cancel racing natural retirement is
  a no-op;
* shutdown drains (finishing all queued and live work) or aborts
  (cancelling it), and either way leaves every future resolved;
* ``submit_batch`` queues a whole batch atomically, so collecting its
  handles behaves exactly like a synchronous drain of the engine.
"""

from __future__ import annotations

import asyncio
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
        with AsyncEngine(model, config=EngineConfig(max_batch_rows=1)) as engine:
            blocker = engine.submit(ragged_prompts[0], max_new_tokens=40)
            queued = engine.submit(ragged_prompts[1], max_new_tokens=5)
            wait_until(lambda: blocker.engine_request is not None)
            assert queued.cancel()
            with pytest.raises(RequestCancelled) as info:
                queued.result(timeout=30)
            np.testing.assert_array_equal(info.value.partial, ragged_prompts[1])
            blocker.cancel()
            assert_no_leaked_rows(engine)

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
