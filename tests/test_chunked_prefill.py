"""Tests for chunked-prefill piggybacking in the continuous-batching engine.

Pins the invariants of the per-step prefill token budget
(``prefill_chunk_tokens``):

* greedy outputs are token-identical to the unchunked path at every chunk
  size, across dense/paged layouts and fp32/int8 KV dtypes (Hypothesis
  lockstep property);
* the SLA identity ``queue + prefill + decode == wall`` holds *exactly*
  even when prefill spans several engine steps, with ``prefill_seconds``
  accumulating across chunks;
* chunk boundaries that land exactly on KV block boundaries stay exact;
* prefix-pool hits cover part of the prompt, so chunked prefill only
  forwards the uncovered suffix;
* cancelling (or timing out) a request mid-prefill reclaims its
  scheduling slot and every KV block it held;
* a prefilling row holds its scheduling slot, and arrivals take the free
  slots at the next step;
* the new :class:`EngineStats` occupancy fields (per-step prefill tokens,
  decode rows, chunk counts, stall histogram) are populated coherently.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import DecoderLM, get_config
from repro.serving import ContinuousBatchingEngine, EngineConfig, PrefixCachePool

VOCAB = 61
STOP_IDS = {3, 5, 7}


@pytest.fixture(scope="module")
def model():
    m = DecoderLM(get_config("gpt2"), VOCAB, rng=0)
    m.eval()
    return m


class ManualClock:
    """Injectable clock: time only moves when the test advances it."""

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


class TickingClock(ManualClock):
    """Deterministic clock that advances a fixed tick on every read, so
    timed sections (chunk forwards, admissions) have nonzero duration."""

    def __call__(self) -> float:
        self.now += 0.0009765625  # 2**-10: exact in binary floats
        return self.now


def _prompts(seed: int, lengths) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.integers(1, VOCAB, size=int(n)) for n in lengths]


def _run(model, prompts, *, chunk=None, pool=None, clock=None, **config_fields):
    config = EngineConfig(max_batch_rows=4, prefill_chunk_tokens=chunk, **config_fields)
    if clock is None:
        engine = ContinuousBatchingEngine(model, config=config, cache_pool=pool)
    else:
        engine = ContinuousBatchingEngine(
            model, config=config, cache_pool=pool, clock=clock
        )
    requests = [
        engine.submit(p, max_new_tokens=10, stop_ids=STOP_IDS) for p in prompts
    ]
    if clock is None:
        engine.drain()
    else:
        while engine.has_work:
            engine.step()
            clock.advance(0.125)
    return engine, requests


# ---------------------------------------------------------------------- #
# token parity
# ---------------------------------------------------------------------- #
class TestChunkedParity:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        chunk=st.integers(1, 80),
        layout=st.sampled_from([("dense", "fp32"), ("paged", "fp32"), ("paged", "int8")]),
    )
    def test_chunked_matches_unchunked_lockstep(self, model, seed, chunk, layout):
        """Any chunk size yields the unchunked path's exact greedy tokens."""
        kv_layout, kv_dtype = layout
        rng = np.random.default_rng(seed)
        lengths = rng.integers(2, 70, size=6)
        prompts = _prompts(seed, lengths)
        kwargs = dict(kv_layout=kv_layout, kv_dtype=kv_dtype)
        base_engine, base = _run(model, prompts, chunk=None, **kwargs)
        _, got = _run(model, prompts, chunk=chunk, **kwargs)
        # The atomic reference admits a cold group through one padded prefill.
        assert max(base_engine.stats.batch_sizes) >= 2
        for a, b in zip(base, got):
            assert a.finish_reason == b.finish_reason
            np.testing.assert_array_equal(a.result, b.result)

    def test_chunk_edge_at_block_boundary(self, model):
        """Prompt and chunk sizes landing exactly on 16-token KV block
        boundaries (flush edges) keep paged output identical to dense."""
        prompts = _prompts(3, [16, 32, 48, 16])
        _, base = _run(model, prompts, chunk=None, kv_layout="dense")
        _, got = _run(model, prompts, chunk=16, kv_layout="paged")
        for a, b in zip(base, got):
            np.testing.assert_array_equal(a.result, b.result)
        # Off-by-one around the boundary as well.
        for chunk in (15, 17):
            _, got = _run(model, prompts, chunk=chunk, kv_layout="paged")
            for a, b in zip(base, got):
                np.testing.assert_array_equal(a.result, b.result)


# ---------------------------------------------------------------------- #
# SLA accounting
# ---------------------------------------------------------------------- #
class TestChunkedSLA:
    def test_prefill_seconds_accumulates_and_identity_holds(self, model):
        """queue + prefill + decode == wall exactly, with >= 2 chunks."""
        clock = TickingClock()
        prompts = _prompts(11, [40, 52, 9])
        engine, requests = _run(model, prompts, chunk=8, clock=clock)
        for request in requests:
            assert request.done
            assert request.prefill_chunks >= 2 or len(request.prompt_ids) <= 8
            total = (
                request.queue_seconds
                + request.prefill_seconds
                + request.decode_seconds
            )
            assert total == request.wall_seconds  # exact, not approx
            assert request.prefill_seconds > 0.0
            assert request.ttft_seconds is not None
            assert request.ttft_seconds <= request.wall_seconds

    def test_stats_track_chunk_occupancy(self, model):
        prompts = _prompts(13, [33, 21, 6, 45])
        engine, requests = _run(model, prompts, chunk=8)
        stats = engine.stats
        assert stats.prefill_tokens == sum(len(p) for p in prompts)
        assert stats.prefill_chunks == sum(r.prefill_chunks for r in requests)
        assert stats.prefill_chunks > len(prompts)  # something actually chunked
        assert len(stats.chunks_per_request) == len(prompts)
        assert len(stats.step_prefill_tokens) == len(stats.step_decode_rows)
        assert sum(stats.step_prefill_tokens) == stats.prefill_tokens
        # every step respected the budget
        assert max(stats.step_prefill_tokens) <= 8
        histogram = stats.stall_histogram()
        assert sum(histogram.values()) == len(stats.step_prefill_tokens)
        assert histogram["0"] < len(stats.step_prefill_tokens)  # prefill happened
        summary = stats.sla_summary()
        for key in (
            "prefill_tokens",
            "prefill_chunks",
            "mean_prefill_chunks",
            "mean_step_prefill_tokens",
            "mean_step_decode_rows",
            "prefill_stall_histogram",
        ):
            assert key in summary

    def test_unchunked_engine_reports_zero_chunks(self, model):
        prompts = _prompts(5, [12, 20])
        engine, requests = _run(model, prompts, chunk=None)
        assert engine.stats.prefill_chunks == 0
        assert all(r.prefill_chunks == 0 for r in requests)

    def test_invalid_budget_rejected(self, model):
        with pytest.raises(ValueError):
            ContinuousBatchingEngine(model, config=EngineConfig(prefill_chunk_tokens=0))
        with pytest.raises(ValueError):
            ContinuousBatchingEngine(
                model,
                config=EngineConfig(prefill_chunk_tokens=-4),
            )


# ---------------------------------------------------------------------- #
# pool interaction
# ---------------------------------------------------------------------- #
class TestChunkedPool:
    def test_pool_hit_covers_partial_chunk(self, model):
        """A pooled prefix skips covered tokens: chunked prefill forwards
        only the uncovered suffix, and outputs stay identical."""
        rng = np.random.default_rng(23)
        head = rng.integers(1, VOCAB, size=37)
        prompts = [
            np.concatenate([head, rng.integers(1, VOCAB, size=n)]) for n in (9, 14)
        ]
        _, base = _run(model, prompts, chunk=None, kv_layout="paged")

        pool = PrefixCachePool.default(model, "paged", "fp32")
        engine = ContinuousBatchingEngine(
            model,
            config=EngineConfig(
                max_batch_rows=4,
                prefill_chunk_tokens=8,
                kv_layout="paged",
            ),
            cache_pool=pool,
        )
        requests = []
        for prompt in prompts:  # sequential, so the head gets banked first
            requests.append(engine.submit(prompt, max_new_tokens=10, stop_ids=STOP_IDS))
            engine.drain()
        for a, b in zip(base, requests):
            np.testing.assert_array_equal(a.result, b.result)
        # The second request reuses the first's banked shared head.
        assert requests[1].reused_tokens > 0
        assert engine.stats.prefill_tokens < sum(len(p) for p in prompts)

    def test_partial_prefix_checked_in_on_cancel(self, model):
        """Cancelling mid-prefill banks the partial prefix in the pool."""
        rng = np.random.default_rng(29)
        prompt = rng.integers(1, VOCAB, size=50)
        pool = PrefixCachePool.default(model, "paged", "fp32")
        engine = ContinuousBatchingEngine(
            model,
            config=EngineConfig(
                max_batch_rows=2,
                prefill_chunk_tokens=8,
                kv_layout="paged",
            ),
            cache_pool=pool,
        )
        request = engine.submit(prompt, max_new_tokens=4)
        engine.step()  # one 8-token chunk only
        assert not request.done
        assert engine.cancel(request)
        assert request.finish_reason == "cancelled"
        assert engine.num_active == 0
        # The banked prefix serves a resubmission of the same prompt.
        request2 = engine.submit(prompt, max_new_tokens=4)
        engine.drain()
        assert request2.reused_tokens > 0


# ---------------------------------------------------------------------- #
# cancellation / reclamation
# ---------------------------------------------------------------------- #
class TestMidPrefillReclaim:
    @pytest.mark.parametrize("reason", ["cancelled", "timeout"])
    def test_cancel_mid_prefill_reclaims_slot_and_blocks(self, model, reason):
        rng = np.random.default_rng(31)
        prompt = rng.integers(1, VOCAB, size=60)
        engine = ContinuousBatchingEngine(
            model,
            config=EngineConfig(
                max_batch_rows=2,
                prefill_chunk_tokens=8,
                kv_layout="paged",
            ),
        )
        allocator = engine.batch.cache.allocator
        baseline = allocator.blocks_in_use
        request = engine.submit(prompt, max_new_tokens=4)
        engine.step()
        assert engine.num_active == 1  # mid-prefill slot held
        assert not request.done
        assert engine.cancel(request, reason=reason)
        assert request.done
        assert request.finish_reason == reason
        assert engine.num_active == 0
        assert allocator.blocks_in_use == baseline  # staging blocks freed
        if reason == "timeout":
            assert engine.stats.timeouts == 1
        # The engine keeps serving fresh work afterwards.
        after = engine.submit(rng.integers(1, VOCAB, size=6), max_new_tokens=3)
        engine.drain()
        assert after.done and after.finish_reason in ("stop", "length")
        assert allocator.blocks_in_use == baseline

    def test_reset_mid_prefill_releases_everything(self, model):
        rng = np.random.default_rng(37)
        engine = ContinuousBatchingEngine(
            model,
            config=EngineConfig(
                max_batch_rows=4,
                prefill_chunk_tokens=4,
                kv_layout="paged",
            ),
        )
        allocator = engine.batch.cache.allocator
        baseline = allocator.blocks_in_use
        for n in (30, 44):
            engine.submit(rng.integers(1, VOCAB, size=n), max_new_tokens=4)
        engine.step()
        assert engine.num_active == 2
        engine.reset()
        assert engine.num_active == 0
        assert allocator.blocks_in_use == baseline


# ---------------------------------------------------------------------- #
# admission policy
# ---------------------------------------------------------------------- #
class TestChunkedAdmissionPolicy:
    def test_prefilling_rows_hold_their_slots(self, model):
        """A prefilling row counts as a live slot; an arrival takes a free
        slot at the next step and waits while every slot is prefilling."""
        engine = ContinuousBatchingEngine(
            model,
            config=EngineConfig(max_batch_rows=2, prefill_chunk_tokens=4),
        )
        rng = np.random.default_rng(41)
        engine.submit(rng.integers(1, VOCAB, size=30), max_new_tokens=8)
        engine.step()
        assert engine.num_active == 1  # chunk-prefilling, slot already held
        engine.submit(rng.integers(1, VOCAB, size=25), max_new_tokens=4)
        engine.step()
        assert engine.num_active == 2  # joined at the next step
        assert engine.batch.num_prefilling == 2
        engine.submit(rng.integers(1, VOCAB, size=7), max_new_tokens=4)
        engine.step()
        assert engine.num_active == 2 and engine.num_queued == 1
        engine.drain()
        assert engine.stats.finished == 3
