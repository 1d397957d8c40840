"""Tests for the continuous-batching decode engine and its stepping core.

Pins the iteration-level-scheduling invariants:

* KV-cache row management — admission right-aligns a row against the live
  end, retirement drops rows in place, and ``realign`` grows/compacts the
  ragged column layout without touching the stored keys/values;
* the :class:`~repro.models.decoder.DecodeBatch` stepping core decodes
  rows admitted mid-flight to the same greedy tokens as the sequential
  cached path, including across retirements and compaction;
* the :class:`~repro.serving.ContinuousBatchingEngine` admits requests
  submitted after decoding has started into the live batch *without
  restarting it*, retires finished rows immediately (freeing their slots
  for queued work), honours the deadline-based batch-closing policy, and
  produces greedy outputs identical to sequential/uncached decoding under
  arrival-order permutation;
* per-request SLA stats are internally consistent: queue + prefill +
  decode equals wall time exactly, TTFT falls between prefill end and
  completion, and decode steps equal emitted tokens.
"""

from __future__ import annotations

import numpy as np
import pytest

from parity import assert_generations_equal
from repro.models import DecoderLM, get_config
from repro.models.decoder import DecodeState
from repro.serving import ContinuousBatchingEngine, EngineConfig, PrefixCachePool
from repro.tensor import no_grad

VOCAB = 64


@pytest.fixture(scope="module")
def model():
    m = DecoderLM(get_config("gpt2"), VOCAB, rng=0)
    m.eval()
    return m


@pytest.fixture()
def ragged_prompts():
    rng = np.random.default_rng(17)
    return [rng.integers(1, VOCAB, size=n) for n in (4, 11, 6, 9, 5, 13, 7, 8)]


class TickingClock:
    """Strictly increasing clock so every stamped interval is positive."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 0.001
        return self.now


# ---------------------------------------------------------------------- #
# KV-cache row management
# ---------------------------------------------------------------------- #
class TestCacheRowOps:
    def _prefill(self, model, prompt):
        cache = model.make_cache(1, len(prompt))
        with no_grad():
            model.forward_incremental(prompt[None, :], cache)
        return cache

    def test_admit_row_right_aligns_against_live_end(self, model, ragged_prompts):
        live = model.make_cache(0, 32)
        a, b = ragged_prompts[1][:10], ragged_prompts[2][:6]
        src_a, src_b = self._prefill(model, a), self._prefill(model, b)
        assert live.admit_row(src_a) == 0
        assert live.length == 10 and live.batch_size == 1
        start_b = live.admit_row(src_b)
        assert start_b == 4  # right-aligned: 6 tokens ending at column 10
        assert live.length == 10 and live.batch_size == 2
        np.testing.assert_array_equal(
            live.layers[0].keys[1, :, 4:10], src_b.layers[0].keys[0, :, :6]
        )
        # Admitting a row wider than the live end requires a prior realign.
        wide_src = self._prefill(model, ragged_prompts[5][:13])
        with pytest.raises(ValueError):
            live.admit_row(wide_src)
        starts = live.realign(np.array([0, 4]), 13)
        np.testing.assert_array_equal(starts, [3, 7])
        assert live.length == 13
        np.testing.assert_array_equal(
            live.layers[0].keys[1, :, 7:13], src_b.layers[0].keys[0, :, :6]
        )
        assert live.admit_row(wide_src) == 0

    def test_retire_rows_keeps_survivors_and_resets_when_empty(self, model, ragged_prompts):
        live = model.make_cache(0, 16)
        sources = [self._prefill(model, p[:5]) for p in ragged_prompts[1:4]]
        for src in sources:
            live.admit_row(src)
        live.retire_rows(np.array([2, 0]))  # drop row 1, reorder survivors
        assert live.batch_size == 2 and live.length == 5
        np.testing.assert_array_equal(
            live.layers[0].keys[0, :, :5], sources[2].layers[0].keys[0, :, :5]
        )
        np.testing.assert_array_equal(
            live.layers[0].keys[1, :, :5], sources[0].layers[0].keys[0, :, :5]
        )
        live.retire_rows(np.array([], dtype=np.int64))
        assert live.batch_size == 0 and live.length == 0

    def test_realign_validates_geometry(self, model):
        live = model.make_cache(0, 16)
        live.admit_row(self._prefill(model, np.arange(1, 9)))
        with pytest.raises(ValueError):
            live.realign(np.array([0]), 4)  # cannot hold an 8-wide row
        with pytest.raises(ValueError):
            live.realign(np.array([0]), 17)  # beyond capacity
        with pytest.raises(ValueError):
            live.realign(np.array([0, 0]), 10)  # one start per row


# ---------------------------------------------------------------------- #
# DecodeBatch stepping core
# ---------------------------------------------------------------------- #
class TestDecodeBatch:
    def test_separately_admitted_rows_match_sequential(self, model, ragged_prompts):
        batch = model.make_decode_batch()
        states = [
            DecodeState(prompt_ids=p, max_new_tokens=8) for p in ragged_prompts[:3]
        ]
        for state in states:
            batch.admit(state)
        while batch.num_rows:
            model.decode_step(batch)
        expected = [model.generate(p, max_new_tokens=8) for p in ragged_prompts[:3]]
        assert_generations_equal(
            [s.output() for s in states], expected, context="separate admission"
        )

    def test_mid_decode_admission_preserves_all_rows(self, model, ragged_prompts):
        batch = model.make_decode_batch()
        first = DecodeState(prompt_ids=ragged_prompts[0], max_new_tokens=10)
        batch.admit(first)
        for _ in range(3):
            batch.step()
        assert first.gen_len == 3
        late = DecodeState(prompt_ids=ragged_prompts[1], max_new_tokens=6)
        batch.admit(late)
        assert batch.num_rows == 2 and first.gen_len == 3  # no restart
        while batch.num_rows:
            batch.step()
        assert_generations_equal(
            [first.output(), late.output()],
            [
                model.generate(ragged_prompts[0], max_new_tokens=10),
                model.generate(ragged_prompts[1], max_new_tokens=6),
            ],
            context="mid-decode admission",
        )

    def test_compaction_after_long_row_retires(self, model, ragged_prompts):
        """A near-limit row's departure must not cap its batchmates.

        The long row drives the live end to the context window and retires;
        compaction shifts the short rows left so they decode their full
        budget — the old monolithic loop needed a sequential fallback here.
        """
        rng = np.random.default_rng(23)
        max_pos = model.config.max_position
        long_prompt = rng.integers(1, VOCAB, size=max_pos - 3)
        batch = model.make_decode_batch()
        long_state = DecodeState(prompt_ids=long_prompt, max_new_tokens=10)
        batch.admit(long_state)
        batch.step()
        short_state = DecodeState(prompt_ids=ragged_prompts[2], max_new_tokens=12)
        batch.admit(short_state)
        while batch.num_rows:
            batch.step()
        assert long_state.finish_reason == "context"
        assert short_state.finish_reason == "length"
        assert_generations_equal(
            [long_state.output(), short_state.output()],
            [
                model.generate(long_prompt, max_new_tokens=10),
                model.generate(ragged_prompts[2], max_new_tokens=12),
            ],
            context="compaction",
        )

    def test_admission_grows_live_end_for_longer_newcomer(self, model, ragged_prompts):
        batch = model.make_decode_batch()
        short = DecodeState(prompt_ids=ragged_prompts[0], max_new_tokens=8)
        batch.admit(short)
        batch.step()
        longer = DecodeState(prompt_ids=ragged_prompts[5], max_new_tokens=8)
        batch.admit(longer)  # wider than the live end: existing rows realign
        while batch.num_rows:
            batch.step()
        assert_generations_equal(
            [short.output(), longer.output()],
            [
                model.generate(ragged_prompts[0], max_new_tokens=8),
                model.generate(ragged_prompts[5], max_new_tokens=8),
            ],
            context="growing admission",
        )


# ---------------------------------------------------------------------- #
# ContinuousBatchingEngine
# ---------------------------------------------------------------------- #
class TestContinuousBatchingEngine:
    # 55 is a greedy token of four of the six rows, first emitted at steps
    # 1, 1, 5 and 9: with it as a stop id, rows retire at different steps
    # while the others keep decoding to the cap.
    @pytest.mark.parametrize("stop_ids", [None, {55}], ids=["no_stop", "early_stop"])
    def test_staggered_arrivals_three_way_parity(self, model, ragged_prompts, stop_ids):
        engine = ContinuousBatchingEngine(model, config=EngineConfig(max_batch_rows=3))
        handles = [
            engine.submit(p, max_new_tokens=9, stop_ids=stop_ids) for p in ragged_prompts[:2]
        ]
        engine.step()
        engine.step()
        assert engine.stats.steps == 2
        for p in ragged_prompts[2:6]:
            handles.append(engine.submit(p, max_new_tokens=9, stop_ids=stop_ids))
            engine.step()
        engine.drain()
        assert all(h.done for h in handles)
        assert engine.stats.admissions >= 2  # later arrivals joined mid-decode
        if stop_ids:
            lengths = [len(h.result) - len(p) for h, p in zip(handles, ragged_prompts)]
            assert min(lengths) < 9 and max(lengths) == 9
        cached = [
            model.generate(p, max_new_tokens=9, stop_ids=stop_ids, use_cache=True)
            for p in ragged_prompts[:6]
        ]
        uncached = [
            model.generate(p, max_new_tokens=9, stop_ids=stop_ids, use_cache=False)
            for p in ragged_prompts[:6]
        ]
        assert_generations_equal(
            [h.result for h in handles], cached, context="engine vs sequential cached"
        )
        assert_generations_equal(
            [h.result for h in handles], uncached, context="engine vs uncached"
        )

    def test_arrival_order_permutation_invariance(self, model, ragged_prompts):
        prompts = ragged_prompts[:5]

        def run(order):
            engine = ContinuousBatchingEngine(
                model,
                config=EngineConfig(max_batch_rows=2),
            )
            handles = {}
            for idx in order[:2]:
                handles[idx] = engine.submit(prompts[idx], max_new_tokens=7)
            engine.step()
            for idx in order[2:]:
                handles[idx] = engine.submit(prompts[idx], max_new_tokens=7)
                engine.step()
            engine.drain()
            return [handles[i].result for i in range(len(prompts))]

        base = run(list(range(5)))
        assert_generations_equal(
            base,
            [model.generate(p, max_new_tokens=7) for p in prompts],
            context="engine base order",
        )
        for order in ([4, 3, 2, 1, 0], [2, 0, 4, 1, 3]):
            assert_generations_equal(
                run(order), base, context=f"arrival order {order}"
            )

    def test_mid_decode_admission_does_not_restart(self, model, ragged_prompts):
        engine = ContinuousBatchingEngine(model, config=EngineConfig(max_batch_rows=4))
        first = engine.submit(ragged_prompts[0], max_new_tokens=10)
        for _ in range(4):
            engine.step()
        assert first.state.gen_len == 4
        late = engine.submit(ragged_prompts[1], max_new_tokens=5)
        engine.step()
        # The late request was admitted into the running batch: decoding
        # continued (no re-prefill of the first row) and both rows advanced.
        assert engine.stats.admissions == 2
        assert first.state.gen_len == 5
        assert late.state.gen_len == 1
        engine.drain()
        assert_generations_equal(
            [first.result, late.result],
            [
                model.generate(ragged_prompts[0], max_new_tokens=10),
                model.generate(ragged_prompts[1], max_new_tokens=5),
            ],
            context="no restart",
        )

    def test_early_retirement_frees_slot_for_queued_request(self, model, ragged_prompts):
        stopper = ragged_prompts[0]
        stop_token = int(np.argmax(model.next_token_log_probs(stopper)))
        engine = ContinuousBatchingEngine(model, config=EngineConfig(max_batch_rows=2))
        h_stop = engine.submit(stopper, max_new_tokens=8, stop_ids={stop_token})
        h_long = engine.submit(ragged_prompts[1], max_new_tokens=8)
        h_queued = engine.submit(ragged_prompts[2], max_new_tokens=8)
        finished_first = engine.step()  # stopper retires on its first token
        assert finished_first == [h_stop]
        assert h_stop.finish_reason == "stop"
        assert len(h_stop.result) == len(stopper) + 1
        engine.step()  # freed slot refills with the queued request
        assert engine.stats.peak_rows == 2
        assert h_queued.state.admitted
        engine.drain()
        expected = [
            model.generate(stopper, max_new_tokens=8, stop_ids={stop_token}),
            model.generate(ragged_prompts[1], max_new_tokens=8),
            model.generate(ragged_prompts[2], max_new_tokens=8),
        ]
        assert_generations_equal(
            [h_stop.result, h_long.result, h_queued.result],
            expected,
            context="early retirement",
        )

    def test_per_request_budgets_and_temperatures_coexist(self, model, ragged_prompts):
        engine = ContinuousBatchingEngine(
            model,
            config=EngineConfig(max_batch_rows=4),
            rng=7,
        )
        greedy_a = engine.submit(ragged_prompts[0], max_new_tokens=4)
        sampled = engine.submit(ragged_prompts[1], max_new_tokens=9, temperature=0.8)
        greedy_b = engine.submit(ragged_prompts[2], max_new_tokens=6)
        engine.drain()
        # Greedy rows are unaffected by a sampling batchmate.
        assert_generations_equal(
            [greedy_a.result, greedy_b.result],
            [
                model.generate(ragged_prompts[0], max_new_tokens=4),
                model.generate(ragged_prompts[2], max_new_tokens=6),
            ],
            context="greedy rows beside sampling row",
        )
        extra = sampled.result[len(ragged_prompts[1]) :]
        assert 1 <= len(extra) <= 9
        assert extra.min() >= 0 and extra.max() < VOCAB

    def test_arrivals_join_at_the_next_step(self, model, ragged_prompts):
        """Admission holds nothing back: co-arrivals share one admission
        group, and a later arrival joins the running batch at the very next
        step boundary."""
        engine = ContinuousBatchingEngine(model, config=EngineConfig(max_batch_rows=3))
        for p in ragged_prompts[:2]:
            engine.submit(p, max_new_tokens=20)
        engine.step()
        assert engine.num_active == 2 and engine.stats.batch_sizes == [2]
        straggler = engine.submit(ragged_prompts[2], max_new_tokens=3)
        engine.step()
        assert straggler.state.admitted and engine.num_active == 3
        assert engine.stats.batch_sizes == [2, 1]
        engine.drain()
        assert engine.stats.admissions == 2
        assert_generations_equal(
            [straggler.result],
            [model.generate(ragged_prompts[2], max_new_tokens=3)],
            context="next-step straggler",
        )

    def test_pool_peek_probes_without_side_effects(self, model):
        pool = PrefixCachePool(model, max_entries=4, min_reuse_tokens=8)
        prompt = np.arange(1, 21, dtype=np.int64)
        cache, _ = pool.checkout(prompt)
        with no_grad():
            model.forward_incremental(prompt[None, :], cache)
        pool.checkin(prompt, cache)
        stats_before = (pool.stats.hits, pool.stats.misses)
        assert pool.peek(prompt) == 20
        assert pool.peek(np.concatenate([prompt[:12], [40, 41]])) == 12
        assert pool.peek(prompt[:4]) == 0  # below the min-reuse floor
        assert len(pool) == 1
        assert (pool.stats.hits, pool.stats.misses) == stats_before

    @pytest.mark.parametrize("chunk", [None, 8])
    def test_unstartable_requests_finish_without_rows(
        self, model, ragged_prompts, chunk
    ):
        """Unstartable requests take no row and, since startability is
        checked before the pool is touched, no pool checkout either."""
        pool = PrefixCachePool(model, max_entries=4)
        engine = ContinuousBatchingEngine(
            model,
            config=EngineConfig(max_batch_rows=2, prefill_chunk_tokens=chunk),
            cache_pool=pool,
        )
        zero_budget = engine.submit(ragged_prompts[0], max_new_tokens=0)
        at_limit = engine.submit(
            np.ones(model.config.max_position, dtype=np.int64), max_new_tokens=4
        )
        finished = engine.step()
        assert [r.request_id for r in finished] == [0, 1]
        assert pool.stats.requests == 0 and len(pool) == 0
        normal = engine.submit(ragged_prompts[1], max_new_tokens=3)
        assert [r.request_id for r in engine.drain()] == [2]
        assert pool.stats.requests == 1  # the startable request only
        assert zero_budget.finish_reason == "length"
        np.testing.assert_array_equal(zero_budget.result, ragged_prompts[0])
        assert at_limit.finish_reason == "context"
        assert len(at_limit.result) == model.config.max_position
        assert_generations_equal(
            [normal.result],
            [model.generate(ragged_prompts[1], max_new_tokens=3)],
            context="normal beside unstartable",
        )
        with pytest.raises(ValueError):
            engine.submit(np.empty(0, dtype=np.int64))
        with pytest.raises(ValueError):
            engine.submit(np.ones(model.config.max_position + 1, dtype=np.int64))

    def test_pool_prefill_reuse_keeps_outputs_identical(self, model, ragged_prompts):
        pool = PrefixCachePool(model, max_entries=4)
        engine = ContinuousBatchingEngine(
            model,
            config=EngineConfig(max_batch_rows=2),
            cache_pool=pool,
        )
        head = np.arange(1, 13, dtype=np.int64)
        first = np.concatenate([head, ragged_prompts[0]])
        second = np.concatenate([head, ragged_prompts[1]])
        h1 = engine.submit(first, max_new_tokens=5)
        engine.drain()
        h2 = engine.submit(second, max_new_tokens=5)
        engine.drain()
        assert h1.reused_tokens == 0 and h2.reused_tokens >= len(head)
        assert pool.stats.hits >= 1
        assert_generations_equal(
            [h1.result, h2.result],
            [
                model.generate(first, max_new_tokens=5),
                model.generate(second, max_new_tokens=5),
            ],
            context="pool-assisted admission",
        )

    @pytest.mark.parametrize(
        "kv_layout,kv_dtype", [("dense", "fp32"), ("paged", "fp32"), ("paged", "int8")]
    )
    def test_mixed_admission_group_seeds_the_pool(self, model, kv_layout, kv_dtype):
        """One admission step holding a pool hit, two cold prompts and an
        unstartable request: tokens equal ``model.generate``, both cold
        prompts are pooled afterwards, and every block comes back."""
        rng = np.random.default_rng(43)
        head = rng.integers(1, VOCAB, size=20)
        banked = np.concatenate([head, rng.integers(1, VOCAB, size=5)])
        hit = np.concatenate([head, rng.integers(1, VOCAB, size=7)])
        cold = [rng.integers(1, VOCAB, size=n) for n in (14, 23)]
        allocator = model.paged_allocator(kv_dtype) if kv_layout == "paged" else None
        baseline = allocator.blocks_in_use if allocator is not None else 0
        pool = PrefixCachePool(
            model, max_entries=8, kv_layout=kv_layout, kv_dtype=kv_dtype
        )
        engine = ContinuousBatchingEngine(
            model,
            config=EngineConfig(
                max_batch_rows=4, kv_layout=kv_layout, kv_dtype=kv_dtype
            ),
            cache_pool=pool,
        )
        engine.submit(banked, max_new_tokens=2)
        engine.drain()
        hits, misses = pool.stats.hits, pool.stats.misses
        prompts = [hit, *cold]
        requests = [engine.submit(p, max_new_tokens=6) for p in prompts]
        unstartable = engine.submit(cold[0], max_new_tokens=0)
        engine.drain()
        assert engine.stats.batch_sizes[-1] == 4  # one admission group
        assert (pool.stats.hits - hits, pool.stats.misses - misses) == (1, 2)
        assert requests[0].reused_tokens == len(head)
        assert unstartable.finish_reason == "length"
        assert_generations_equal(
            [r.result for r in requests],
            [model.generate(p, max_new_tokens=6) for p in prompts],
            context=f"mixed group {kv_layout}/{kv_dtype}",
        )
        for prompt in cold:
            assert pool.peek(prompt) == len(prompt)
        if allocator is not None:
            pool.clear()
            assert engine.batch.cache.kv_bytes() == 0
            assert allocator.blocks_in_use == baseline

    def test_sla_stats_internally_consistent(self, model, ragged_prompts):
        engine = ContinuousBatchingEngine(
            model,
            config=EngineConfig(max_batch_rows=3),
            clock=TickingClock(),
        )
        handles = [engine.submit(p, max_new_tokens=n) for p, n in
                   zip(ragged_prompts[:6], (3, 8, 5, 2, 7, 4))]
        engine.step()
        handles.append(engine.submit(ragged_prompts[6], max_new_tokens=6))
        finished = engine.drain()
        assert len(finished) == 7 and all(r.done for r in finished)
        for request in finished:
            assert request.error is None
            assert request.queue_seconds >= 0
            assert request.prefill_seconds > 0
            assert request.decode_seconds >= 0
            # queue + prefill + decode accounts for the full wall time.
            assert (
                abs(
                    request.queue_seconds
                    + request.prefill_seconds
                    + request.decode_seconds
                    - request.wall_seconds
                )
                < 1e-9
            )
            assert request.decode_steps == len(request.result) - len(request.prompt_ids)
            prefill_done = request.admitted_at + request.prefill_seconds
            assert prefill_done <= request.first_token_at <= request.finished_at
            assert request.finish_reason in ("stop", "length", "context")
        stats = engine.stats
        assert stats.finished == 7
        assert len(stats.queue_seconds) == len(stats.prefill_seconds) == 7
        assert len(stats.ttft_seconds) == len(stats.decode_steps) == 7
        assert stats.row_steps >= stats.steps  # occupancy never below one row
        assert 0 < stats.mean_rows_per_step <= 3
        assert stats.peak_rows <= 3
        summary = stats.sla_summary()
        assert summary["requests"] == 7 and summary["peak_rows"] <= 3

    def test_engine_is_reusable_after_drain(self, model, ragged_prompts):
        engine = ContinuousBatchingEngine(model, config=EngineConfig(max_batch_rows=2))
        first = engine.submit(ragged_prompts[0], max_new_tokens=4)
        engine.drain()
        assert not engine.has_work
        second = engine.submit(ragged_prompts[1], max_new_tokens=4)
        engine.drain()
        assert_generations_equal(
            [first.result, second.result],
            [
                model.generate(ragged_prompts[0], max_new_tokens=4),
                model.generate(ragged_prompts[1], max_new_tokens=4),
            ],
            context="reuse after drain",
        )


# ---------------------------------------------------------------------- #
# engine edge cases the async layer leans on
# ---------------------------------------------------------------------- #
class TestEngineEdgeCases:
    def test_step_on_an_empty_engine_is_a_noop(self, model):
        engine = ContinuousBatchingEngine(model, config=EngineConfig(max_batch_rows=2))
        assert engine.step() == []
        assert engine.drain() == []
        assert engine.stats.steps == 0 and not engine.has_work
        assert engine.batch.num_rows == 0

    def test_cancel_queued_and_live_requests_reclaims_rows(self, model, ragged_prompts):
        engine = ContinuousBatchingEngine(model, config=EngineConfig(max_batch_rows=2))
        live_a = engine.submit(ragged_prompts[0], max_new_tokens=8)
        live_b = engine.submit(ragged_prompts[1], max_new_tokens=8)
        queued = engine.submit(ragged_prompts[2], max_new_tokens=8)
        engine.step()  # a and b admitted; the third waits in the queue
        assert engine.batch.num_rows == 2 and engine.num_queued == 1

        # Queued cancel: removed without ever taking a row.
        assert engine.cancel(queued)
        assert queued.done and queued.finish_reason == "cancelled"
        np.testing.assert_array_equal(queued.result, ragged_prompts[2])
        assert engine.num_queued == 0

        # Live cancel: the row retires at the step boundary, KV reclaimed.
        assert engine.cancel(live_a)
        assert live_a.finish_reason == "cancelled"
        assert engine.batch.num_rows == 1
        assert engine.batch.cache.batch_size == 1
        reference_a = model.generate(ragged_prompts[0], max_new_tokens=8)
        np.testing.assert_array_equal(
            live_a.result, reference_a[: len(live_a.result)]
        )
        assert engine.stats.cancelled == 2

        # The survivor decodes to parity beside the retirements.
        engine.drain()
        assert_generations_equal(
            [live_b.result],
            [model.generate(ragged_prompts[1], max_new_tokens=8)],
            context="survivor of cancellations",
        )
        # Cancellation racing natural retirement is a no-op, not an error.
        assert engine.cancel(live_b) is False
        assert live_b.finish_reason == "length"

    def test_resubmission_after_drain_with_cancellations(self, model, ragged_prompts):
        engine = ContinuousBatchingEngine(model, config=EngineConfig(max_batch_rows=2))
        doomed = engine.submit(ragged_prompts[0], max_new_tokens=6)
        engine.step()
        engine.cancel(doomed)
        engine.drain()
        assert not engine.has_work
        fresh = engine.submit(ragged_prompts[1], max_new_tokens=6)
        engine.drain()
        assert_generations_equal(
            [fresh.result],
            [model.generate(ragged_prompts[1], max_new_tokens=6)],
            context="resubmit after cancel + drain",
        )

    def test_zero_token_budget_requests_never_take_a_row(self, model, ragged_prompts):
        engine = ContinuousBatchingEngine(model, config=EngineConfig(max_batch_rows=2))
        zero = engine.submit(ragged_prompts[0], max_new_tokens=0)
        sibling = engine.submit(ragged_prompts[1], max_new_tokens=3)
        finished = engine.step()
        assert zero in finished and zero.finish_reason == "length"
        assert zero.decode_steps == 0
        np.testing.assert_array_equal(zero.result, ragged_prompts[0])
        assert engine.batch.num_rows == 1  # only the sibling occupies a row
        engine.drain()
        assert_generations_equal(
            [sibling.result],
            [model.generate(ragged_prompts[1], max_new_tokens=3)],
            context="sibling of zero-budget request",
        )

    def test_cancelled_slot_refills_from_the_queue(self, model, ragged_prompts):
        engine = ContinuousBatchingEngine(model, config=EngineConfig(max_batch_rows=2))
        hog = engine.submit(ragged_prompts[0], max_new_tokens=50)
        other = engine.submit(ragged_prompts[1], max_new_tokens=6)
        waiting = engine.submit(ragged_prompts[2], max_new_tokens=6)
        engine.step()
        assert not waiting.state.admitted
        engine.cancel(hog)
        engine.step()  # the freed slot admits the queued request
        assert waiting.state.admitted
        engine.drain()
        assert_generations_equal(
            [other.result, waiting.result],
            [
                model.generate(ragged_prompts[1], max_new_tokens=6),
                model.generate(ragged_prompts[2], max_new_tokens=6),
            ],
            context="refill after cancel",
        )
