"""Tests for chunked-prefill piggybacking in the continuous-batching engine.

Pins the invariants of the per-step prefill token budget
(``prefill_chunk_tokens``):

* greedy outputs are token-identical to per-prompt ``model.generate`` at
  every chunk size and without a budget, across dense/paged layouts (int8
  KV against per-prompt int8 decode; Hypothesis lockstep property);
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


def _reference(model, prompts, kv_dtype="fp32") -> list[tuple[np.ndarray, str]]:
    """``(tokens, finish_reason)`` per prompt from per-prompt cached
    ``model.generate``, the independent reference.  An int8 KV store may
    legitimately diverge from fp32, so int8 is held to per-prompt paged-int8
    ``generate_batch`` (one-row padded prefill, not the engine's path)."""
    expected = []
    for prompt in prompts:
        if kv_dtype == "int8":
            (tokens,) = model.generate_batch(
                [prompt], 10, stop_ids=STOP_IDS, kv_layout="paged", kv_dtype="int8"
            )
        else:
            tokens = model.generate(prompt, max_new_tokens=10, stop_ids=STOP_IDS)
        generated = tokens[len(prompt) :]
        if len(generated) and int(generated[-1]) in STOP_IDS:
            reason = "stop"
        elif len(generated) == 10:
            reason = "length"
        else:
            reason = "context"
        expected.append((tokens, reason))
    return expected


def _assert_matches(requests, expected) -> None:
    for request, (tokens, reason) in zip(requests, expected):
        assert request.finish_reason == reason
        np.testing.assert_array_equal(request.result, tokens)


# ---------------------------------------------------------------------- #
# token parity
# ---------------------------------------------------------------------- #
class TestChunkedParity:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        chunk=st.one_of(st.none(), st.integers(1, 80)),
        layout=st.sampled_from([("dense", "fp32"), ("paged", "fp32"), ("paged", "int8")]),
    )
    def test_chunked_matches_generate_lockstep(self, model, seed, chunk, layout):
        """Any chunk size, and no budget, yields the per-prompt reference's
        exact greedy tokens and finish reasons."""
        kv_layout, kv_dtype = layout
        rng = np.random.default_rng(seed)
        lengths = rng.integers(2, 70, size=6)
        prompts = _prompts(seed, lengths)
        engine, got = _run(
            model, prompts, chunk=chunk, kv_layout=kv_layout, kv_dtype=kv_dtype
        )
        # Co-arriving prompts are still admitted as one group.
        assert max(engine.stats.batch_sizes) >= 2
        _assert_matches(got, _reference(model, prompts, kv_dtype))

    def test_chunk_edge_at_block_boundary(self, model):
        """Prompt and chunk sizes landing exactly on 16-token KV block
        boundaries (flush edges) keep paged output identical to
        ``model.generate``."""
        prompts = _prompts(3, [16, 32, 48, 16])
        expected = _reference(model, prompts)
        # Off-by-one around the boundary as well, and no budget at all.
        for chunk in (16, 15, 17, None):
            _, got = _run(model, prompts, chunk=chunk, kv_layout="paged")
            _assert_matches(got, expected)


# ---------------------------------------------------------------------- #
# SLA accounting
# ---------------------------------------------------------------------- #
class TestChunkedSLA:
    @pytest.mark.parametrize("chunk", [8, None])
    def test_prefill_seconds_accumulates_and_identity_holds(self, model, chunk):
        """queue + prefill + decode == wall exactly, with >= 2 chunks under
        a budget and with one chunk per prompt without one."""
        clock = TickingClock()
        prompts = _prompts(11, [40, 52, 9])
        engine, requests = _run(model, prompts, chunk=chunk, clock=clock)
        for request in requests:
            assert request.done
            if chunk is None:
                assert request.prefill_chunks == 1
            else:
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

    def test_unchunked_engine_reports_one_chunk_per_started_request(self, model):
        """Without a budget each started prompt goes in one chunk, in the
        step that admits it; an unstartable request takes none."""
        prompts = _prompts(5, [12, 20, 7])
        config = EngineConfig(max_batch_rows=4)
        engine = ContinuousBatchingEngine(model, config=config)
        requests = [engine.submit(p, max_new_tokens=10) for p in prompts[:2]]
        requests.append(engine.submit(prompts[2], max_new_tokens=0))
        engine.step()
        assert engine.batch.num_prefilling == 0
        engine.drain()
        assert [r.prefill_chunks for r in requests] == [1, 1, 0]
        assert engine.stats.prefill_chunks == 2
        assert engine.stats.prefill_tokens == 12 + 20
        assert engine.stats.step_prefill_tokens[0] == 12 + 20

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
        expected = _reference(model, prompts)

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
        _assert_matches(requests, expected)
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
