"""Tests for the unified EngineConfig, priority preemption and the HTTP front end.

Pins the API-redesign invariants:

* :class:`~repro.serving.EngineConfig` is the single validated config: bad
  fields raise before any engine resource exists, a failing engine build
  leaks no shared pool (the AsyncEngine leak-regression), JSON
  round-trips exactly, and ``config=`` is the only way to set a tunable;
* the prefix pool's eviction pins protect a preempted request's resume
  state from LRU pressure and die with the entry that holds them;
* preemption retires a low-priority decoding row to the pool and resumes
  it later with greedy output *token-identical* to an uninterrupted run,
  leaking no rows, queue slots or pins — and strictly-higher priority is
  the only thing that ever preempts;
* the HTTP server speaks real HTTP/1.1 over asyncio streams: unary JSON,
  SSE parsed frame by frame by an actual client loop, per-tenant
  token-bucket 429s and queue-depth shedding with well-formed
  ``Retry-After``, Prometheus ``/metrics`` and ``/healthz``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import threading
import time

import numpy as np
import pytest

from repro.models import DecoderLM, get_config
from repro.tensor import no_grad
from repro.serving import (
    AsyncEngine,
    ContinuousBatchingEngine,
    EngineConfig,
    HttpServer,
    PrefixCachePool,
    TokenBucket,
)

VOCAB = 64


@pytest.fixture(scope="module")
def model():
    m = DecoderLM(get_config("gpt2"), VOCAB, rng=0)
    m.eval()
    return m


def prompt_of(n: int, seed: int = 17) -> np.ndarray:
    return np.random.default_rng(seed).integers(1, VOCAB, size=n)


# ---------------------------------------------------------------------- #
# EngineConfig: the unified, validated configuration object
# ---------------------------------------------------------------------- #
class TestEngineConfig:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("max_batch_rows", 0, "max_batch_rows must be positive"),
            ("max_batch_rows", True, "max_batch_rows must be an integer"),
            ("max_batch_rows", 2.5, "max_batch_rows must be an integer"),
            ("max_batch_rows", "4", "max_batch_rows must be an integer"),
            ("kv_layout", "sparse", "kv_layout"),
            ("kv_dtype", "fp64", "kv_dtype"),
        ],
    )
    def test_validation_raises_at_construction(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            EngineConfig(**{field: value})

    def test_frozen_and_replace(self):
        config = EngineConfig(max_batch_rows=4)
        with pytest.raises(Exception):  # FrozenInstanceError
            config.max_batch_rows = 8
        bigger = config.replace(max_batch_rows=16)
        assert bigger.max_batch_rows == 16 and config.max_batch_rows == 4
        with pytest.raises(ValueError):
            config.replace(max_batch_rows=-1)  # replace re-validates

    def test_json_round_trip(self):
        config = EngineConfig(max_batch_rows=6, kv_layout="paged", kv_dtype="int8")
        assert EngineConfig.from_json(config.to_json()) == config
        assert [f.name for f in dataclasses.fields(EngineConfig)] == [
            "max_batch_rows",
            "kv_layout",
            "kv_dtype",
        ]

    def test_json_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown engine config keys: max_rowz"):
            EngineConfig.from_json('{"max_rowz": 3}')
        # Admission has no tunable left: the removed hold/preemption knobs
        # and the removed prefill chunk budget are typos like any other.
        for key, value in (
            ("admit_deadline", "0.5"),
            ("min_admit_rows", "2"),
            ("allow_preemption", "false"),
            ("prefill_chunk_tokens", "16"),
        ):
            with pytest.raises(ValueError, match=f"unknown engine config keys: {key}"):
                EngineConfig.from_json(f'{{"{key}": {value}}}')
        with pytest.raises(ValueError, match="must be an object"):
            EngineConfig.from_json("[1, 2]")


class TestConfigPlumbing:
    def test_engine_accepts_config_object(self, model):
        config = EngineConfig(max_batch_rows=2, kv_layout="paged")
        engine = ContinuousBatchingEngine(model, config=config)
        assert engine.config is config
        assert engine.max_batch_rows == 2
        assert engine.kv_layout == "paged"
        assert ContinuousBatchingEngine(model).config == EngineConfig()

    def test_engine_rejects_bare_config_fields(self, model):
        """Tunables travel only in config=; a bare field is a TypeError."""
        with pytest.raises(TypeError):
            ContinuousBatchingEngine(model, max_batch_rows=3)
        with pytest.raises(TypeError):
            AsyncEngine(model, max_batch_rows=3)

    def test_async_engine_bad_config_leaks_nothing(self, model, monkeypatch):
        """A failing engine build leaves no stepping thread and registers
        no process-wide shared pool: here the engine constructor's live
        batch refuses to build."""
        from repro.models.decoder import DecodeBatch
        from repro.serving.pool import _SHARED_POOLS

        def refuse(self, *args, **kwargs):
            raise ValueError("live batch refused to build")

        victim = DecoderLM(get_config("gpt2"), VOCAB, rng=1)
        victim.eval()
        monkeypatch.setattr(DecodeBatch, "__init__", refuse)
        threads_before = threading.active_count()
        with pytest.raises(ValueError, match="live batch refused to build"):
            AsyncEngine(victim, config=EngineConfig())
        assert victim not in _SHARED_POOLS
        assert threading.active_count() == threads_before


# ---------------------------------------------------------------------- #
# pool pinning
# ---------------------------------------------------------------------- #
class TestPoolPinning:
    def _seed(self, pool, model, n, seed):
        ids = prompt_of(n, seed)
        cache, _ = pool.checkout(ids)
        with no_grad():
            model.forward_incremental(ids[None, :], cache)
        pool.checkin(ids, cache)
        return ids

    def test_pin_protects_from_lru_eviction(self, model):
        pool = PrefixCachePool(model, max_entries=2, min_reuse_tokens=4)
        pinned_ids = self._seed(pool, model, 8, seed=1)
        assert pool.pin(pinned_ids)
        assert pool.pinned_entries == 1
        # Two more distinct families would evict the LRU entry — but it is
        # pinned, so the *next* oldest unpinned entry goes instead.
        self._seed(pool, model, 8, seed=2)
        self._seed(pool, model, 8, seed=3)
        assert pool.peek(pinned_ids) == 8  # still resident
        assert pool.stats.evictions >= 1
        assert pool.unpin(pinned_ids)
        assert not pool.unpin(pinned_ids)  # idempotent
        assert pool.pinned_entries == 0

    def test_pin_unknown_prefix_is_false(self, model):
        pool = PrefixCachePool(model, max_entries=2, min_reuse_tokens=4)
        assert not pool.pin(prompt_of(8, seed=9))

    def test_consuming_checkout_discards_pin(self, model):
        pool = PrefixCachePool(model, max_entries=2, min_reuse_tokens=4)
        ids = self._seed(pool, model, 8, seed=1)
        assert pool.pin(ids)
        cache, reused = pool.checkout(ids)  # full coverage: consumes entry
        assert reused == 8
        assert pool.pinned_entries == 0

    def test_clear_drops_pins(self, model):
        pool = PrefixCachePool(model, max_entries=2, min_reuse_tokens=4)
        ids = self._seed(pool, model, 8, seed=1)
        assert pool.pin(ids)
        pool.clear()
        assert pool.pinned_entries == 0 and len(pool) == 0


# ---------------------------------------------------------------------- #
# priority scheduling and preemption (sync engine)
# ---------------------------------------------------------------------- #
def drain_done(engine):
    """Drain and assert no rows, queue slots or pins leak."""
    finished = engine.drain()
    assert engine.batch.num_rows == 0
    assert engine.batch.cache.batch_size == 0
    assert not engine._live and engine.num_queued == 0
    if engine.cache_pool is not None:
        assert engine.cache_pool.pinned_entries == 0
    return finished


class TestPriorityScheduling:
    def test_priority_orders_admission(self, model):
        engine = ContinuousBatchingEngine(model, config=EngineConfig(max_batch_rows=1))
        low = engine.submit(prompt_of(6, 1), max_new_tokens=2, priority=0)
        high = engine.submit(prompt_of(6, 2), max_new_tokens=2, priority=5)
        engine.step()
        # The later-submitted high-priority request got the lone row.
        assert high.state.admitted and not low.state.admitted
        drain_done(engine)

    def test_fifo_within_priority_class(self, model):
        """A tight deadline must not leapfrog earlier same-priority arrivals."""
        engine = ContinuousBatchingEngine(model, config=EngineConfig(max_batch_rows=1))
        first = engine.submit(prompt_of(6, 1), max_new_tokens=2)
        engine.submit(prompt_of(6, 2), max_new_tokens=2, deadline=engine.clock() + 0.01)
        engine.step()
        assert first.state.admitted
        drain_done(engine)

    def test_preempt_resume_is_token_identical(self, model):
        pool = PrefixCachePool(model, max_entries=8, min_reuse_tokens=4)
        engine = ContinuousBatchingEngine(
            model, config=EngineConfig(max_batch_rows=1), cache_pool=pool
        )
        victim_prompt = prompt_of(6, 3)
        victim = engine.submit(victim_prompt, max_new_tokens=12, priority=0)
        for _ in range(5):
            engine.step()
        assert victim.state.gen_len >= 4  # mid-decode
        urgent = engine.submit(prompt_of(6, 4), max_new_tokens=4, priority=5)
        engine.step()
        assert victim.preemptions == 1
        assert engine.stats.preemptions == 1
        assert pool.pinned_entries == 1  # resume state pinned while queued
        assert urgent.state.admitted
        finished = drain_done(engine)
        assert {r.request_id for r in finished} >= {victim.request_id, urgent.request_id}
        assert engine.stats.resumes == 1
        expected = model.generate(victim_prompt, max_new_tokens=12)
        np.testing.assert_array_equal(victim.result, expected)
        # The full-token view is stable across the mid-flight state swap.
        np.testing.assert_array_equal(
            victim.generated_ids(), expected[len(victim_prompt):]
        )

    def test_preempt_resume_token_identical_paged_int8(self, model):
        """The CoW block-table extraction path: paged layout, quantized KV."""
        pool = PrefixCachePool(
            model, max_entries=8, min_reuse_tokens=4, kv_layout="paged", kv_dtype="int8"
        )
        engine = ContinuousBatchingEngine(
            model,
            config=EngineConfig(max_batch_rows=1, kv_layout="paged", kv_dtype="int8"),
            cache_pool=pool,
        )
        victim_prompt = prompt_of(6, 3)
        victim = engine.submit(victim_prompt, max_new_tokens=12, priority=0)
        for _ in range(5):
            engine.step()
        engine.submit(prompt_of(6, 4), max_new_tokens=4, priority=5)
        engine.step()
        assert victim.preemptions == 1
        drain_done(engine)
        # Parity target is the same engine config *without* the preemption.
        replay = ContinuousBatchingEngine(
            model,
            config=EngineConfig(max_batch_rows=1, kv_layout="paged", kv_dtype="int8"),
        )
        baseline = replay.submit(victim_prompt, max_new_tokens=12)
        replay.drain()
        np.testing.assert_array_equal(victim.result, baseline.result)

    def test_preempt_without_pool_still_exact(self, model):
        engine = ContinuousBatchingEngine(model, config=EngineConfig(max_batch_rows=1))
        victim_prompt = prompt_of(6, 3)
        victim = engine.submit(victim_prompt, max_new_tokens=12, priority=0)
        for _ in range(5):
            engine.step()
        engine.submit(prompt_of(6, 4), max_new_tokens=4, priority=5)
        engine.step()
        assert victim.preemptions == 1
        drain_done(engine)
        np.testing.assert_array_equal(
            victim.result, model.generate(victim_prompt, max_new_tokens=12)
        )

    def test_equal_priorities_never_preempt(self, model):
        engine = ContinuousBatchingEngine(model, config=EngineConfig(max_batch_rows=1))
        engine.submit(prompt_of(6, 1), max_new_tokens=8, priority=3)
        for _ in range(3):
            engine.step()
        engine.submit(prompt_of(6, 2), max_new_tokens=2, priority=3)
        engine.step()
        assert engine.stats.preemptions == 0
        drain_done(engine)

    def test_cancel_while_preempted_releases_pin(self, model):
        pool = PrefixCachePool(model, max_entries=8, min_reuse_tokens=4)
        engine = ContinuousBatchingEngine(
            model, config=EngineConfig(max_batch_rows=1), cache_pool=pool
        )
        victim = engine.submit(prompt_of(6, 3), max_new_tokens=12, priority=0)
        for _ in range(5):
            engine.step()
        engine.submit(prompt_of(6, 4), max_new_tokens=4, priority=5)
        engine.step()
        assert pool.pinned_entries == 1
        assert engine.cancel(victim)
        assert pool.pinned_entries == 0
        assert victim.finish_reason == "cancelled"
        drain_done(engine)

    def test_streaming_survives_preemption(self, model):
        """An async subscriber sees one seamless token stream across the
        victim's retire-to-pool / resume-from-pool round trip."""
        victim_prompt = prompt_of(6, 3)
        expected = model.generate(victim_prompt, max_new_tokens=12)
        with AsyncEngine(model, config=EngineConfig(max_batch_rows=1)) as engine:

            async def victim_client():
                tokens = []
                async for token in engine.stream(victim_prompt, max_new_tokens=12):
                    tokens.append(token)
                return tokens

            async def urgent_client():
                await asyncio.sleep(0.02)  # let the victim get mid-decode
                return await engine.generate(
                    prompt_of(6, 4), max_new_tokens=4, priority=5
                )

            async def main():
                return await asyncio.gather(victim_client(), urgent_client())

            streamed, _ = asyncio.run(main())
            np.testing.assert_array_equal(streamed, expected[len(victim_prompt):])


# ---------------------------------------------------------------------- #
# token bucket
# ---------------------------------------------------------------------- #
class TestTokenBucket:
    def test_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=lambda: now[0])
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        retry = bucket.try_acquire()
        assert retry == pytest.approx(0.5)  # 1 token at 2/s
        now[0] += 0.5
        assert bucket.try_acquire() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="rate must be positive"):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError, match="burst must be >= 1"):
            TokenBucket(rate=1.0, burst=0.5)


# ---------------------------------------------------------------------- #
# HTTP front end
# ---------------------------------------------------------------------- #
async def http_call(server, method, path, body=None, read_timeout=30.0):
    """One raw HTTP/1.1 exchange; returns (status, headers, body_bytes)."""
    reader, writer = await asyncio.open_connection(server.host, server.port)
    payload = json.dumps(body).encode() if body is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {server.host}\r\n"
        f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
    )
    writer.write(head.encode() + payload)
    await writer.drain()
    raw = await asyncio.wait_for(reader.read(), timeout=read_timeout)
    writer.close()
    await writer.wait_closed()
    header_blob, _, body_bytes = raw.partition(b"\r\n\r\n")
    lines = header_blob.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body_bytes


def run_with_server(engine, coro_fn, **server_kwargs):
    """Start an HttpServer on an ephemeral port and run ``coro_fn(server)``."""

    async def main():
        async with HttpServer(engine, **server_kwargs) as server:
            return await coro_fn(server)

    return asyncio.run(main())


class TestHttpServer:
    def test_healthz_and_unknown_routes(self, model):
        with AsyncEngine(model, config=EngineConfig(max_batch_rows=2)) as engine:

            async def scenario(server):
                status, _, body = await http_call(server, "GET", "/healthz")
                assert status == 200
                assert json.loads(body) == {"status": "ok", "pending": 0}
                status, _, _ = await http_call(server, "POST", "/healthz", {})
                assert status == 405
                status, _, body = await http_call(server, "GET", "/nope")
                assert status == 404
                assert json.loads(body)["error"]["code"] == 404
                status, _, _ = await http_call(server, "GET", "/v1/generate")
                assert status == 405

            run_with_server(engine, scenario)

    def test_unary_generate_matches_model(self, model):
        prompt = prompt_of(7, 21)
        expected = model.generate(prompt, max_new_tokens=8)
        with AsyncEngine(model, config=EngineConfig(max_batch_rows=2)) as engine:

            async def scenario(server):
                status, headers, body = await http_call(
                    server,
                    "POST",
                    "/v1/generate",
                    {"prompt_ids": [int(t) for t in prompt], "max_new_tokens": 8},
                )
                assert status == 200
                assert headers["content-type"] == "application/json"
                payload = json.loads(body)
                assert payload["finish_reason"] == "length"
                assert payload["tokens"] == [int(t) for t in expected]
                assert payload["generated"] == [int(t) for t in expected[len(prompt):]]

            run_with_server(engine, scenario)

    @pytest.mark.parametrize(
        "body, message",
        [
            (None, "not valid JSON"),
            ({"prompt_ids": []}, "non-empty"),
            ({"prompt_ids": "abc"}, "non-empty list"),
            ({"prompt_ids": [1, "x"]}, "integers only"),
            ({"prompt_ids": [1, 2, 3], "timeout": 0}, "timeout must be positive"),
            ({"prompt_ids": [1, 2, 3], "stop_ids": 5}, "stop_ids must be a list"),
            ({"prompt_ids": [1, 2, 3], "max_new_tokens": "lots"}, "invalid literal"),
            ({"prompt_ids": [1] * 600}, "exceeds the model's maximum"),
            ({"prompt_ids": [1, 2, 500]}, "token ids must lie in [0, 64)"),
        ],
    )
    def test_bad_generate_bodies_get_400(self, model, body, message):
        with AsyncEngine(model, config=EngineConfig(max_batch_rows=2)) as engine:

            async def scenario(server):
                if body is None:
                    reader, writer = await asyncio.open_connection(
                        server.host, server.port
                    )
                    raw = b"{nope"
                    writer.write(
                        (
                            f"POST /v1/generate HTTP/1.1\r\nHost: x\r\n"
                            f"Content-Length: {len(raw)}\r\nConnection: close\r\n\r\n"
                        ).encode()
                        + raw
                    )
                    await writer.drain()
                    response = await reader.read()
                    writer.close()
                    await writer.wait_closed()
                    status = int(response.split(b" ", 2)[1])
                    payload = json.loads(response.partition(b"\r\n\r\n")[2])
                else:
                    status, _, raw = await http_call(
                        server, "POST", "/v1/generate", body
                    )
                    payload = json.loads(raw)
                assert status == 400
                assert message in payload["error"]["message"]

            run_with_server(engine, scenario)

    def test_sse_stream_parsed_by_client_loop(self, model):
        prompt = prompt_of(7, 22)
        expected = [int(t) for t in model.generate(prompt, max_new_tokens=8)[len(prompt):]]
        with AsyncEngine(model, config=EngineConfig(max_batch_rows=2)) as engine:

            async def scenario(server):
                reader, writer = await asyncio.open_connection(server.host, server.port)
                payload = json.dumps(
                    {
                        "prompt_ids": [int(t) for t in prompt],
                        "max_new_tokens": 8,
                        "stream": True,
                    }
                ).encode()
                writer.write(
                    (
                        f"POST /v1/generate HTTP/1.1\r\nHost: x\r\n"
                        f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
                    ).encode()
                    + payload
                )
                await writer.drain()
                status_line = await reader.readline()
                assert b"200" in status_line
                # headers end at the blank line
                while (await reader.readline()).strip():
                    pass
                tokens, frames, done = [], [], False
                while True:
                    line = await asyncio.wait_for(reader.readline(), timeout=30.0)
                    if not line:
                        break
                    text = line.decode().strip()
                    if not text.startswith("data: "):
                        assert text == ""  # SSE frame separator
                        continue
                    if text == "data: [DONE]":
                        done = True
                        continue
                    frame = json.loads(text[len("data: "):])
                    frames.append(frame)
                    if "token" in frame:
                        tokens.append(frame["token"])
                writer.close()
                await writer.wait_closed()
                assert done, "stream must end with the [DONE] sentinel"
                assert tokens == expected
                assert frames[0].keys() == {"request_id"}
                assert frames[-1]["done"] and frames[-1]["finish_reason"] == "length"

            run_with_server(engine, scenario)
            assert engine.num_pending == 0

    def test_rate_limit_429_with_retry_after(self, model):
        with AsyncEngine(model, config=EngineConfig(max_batch_rows=2)) as engine:

            async def scenario(server):
                body = {"prompt_ids": [1, 2, 3], "max_new_tokens": 2, "tenant": "t1"}
                status, _, _ = await http_call(server, "POST", "/v1/generate", body)
                assert status == 200
                status, headers, raw = await http_call(
                    server, "POST", "/v1/generate", body
                )
                assert status == 429
                assert int(headers["retry-after"]) >= 1
                error = json.loads(raw)["error"]
                assert error["retry_after"] >= 1 and "rate" in error["message"]
                # A different tenant is unaffected by t1's empty bucket.
                status, _, _ = await http_call(
                    server, "POST", "/v1/generate", {**body, "tenant": "t2"}
                )
                assert status == 200
                assert server.stats.rate_limited == 1

            run_with_server(engine, scenario, rate_limit=1.0, rate_burst=1.0)

    def test_overload_sheds_with_429(self, model):
        with AsyncEngine(model, config=EngineConfig(max_batch_rows=1)) as engine:

            async def scenario(server):
                slow = asyncio.create_task(
                    http_call(
                        server,
                        "POST",
                        "/v1/generate",
                        {"prompt_ids": [1, 2, 3], "max_new_tokens": 256},
                    )
                )
                # Wait until the slow request occupies the engine.
                while engine.num_pending == 0:
                    await asyncio.sleep(0.001)
                status, headers, raw = await http_call(
                    server,
                    "POST",
                    "/v1/generate",
                    {"prompt_ids": [4, 5, 6], "max_new_tokens": 2},
                )
                assert status == 429
                assert "retry-after" in headers
                assert "capacity" in json.loads(raw)["error"]["message"]
                assert server.stats.shed == 1
                status, _, _ = await slow
                assert status == 200

            run_with_server(engine, scenario, max_inflight=1)

    def test_metrics_prometheus_text(self, model):
        with AsyncEngine(model, config=EngineConfig(max_batch_rows=2)) as engine:

            async def scenario(server):
                await http_call(
                    server,
                    "POST",
                    "/v1/generate",
                    {"prompt_ids": [1, 2, 3, 4], "max_new_tokens": 3},
                )
                status, headers, body = await http_call(server, "GET", "/metrics")
                assert status == 200
                assert headers["content-type"].startswith("text/plain")
                text = body.decode()
                for metric in (
                    "repro_engine_requests 1",
                    "repro_engine_preemptions 0",
                    "repro_engine_resumes 0",
                    "repro_http_requests_total 2",
                    'repro_http_responses_total{code="200"} 1',
                    "repro_pool_pinned_entries 0",
                    "repro_http_inflight 0",
                ):
                    assert metric in text, f"missing {metric!r} in:\n{text}"
                # Every sample line is NAME{labels} VALUE with a float value.
                for line in text.splitlines():
                    if line.startswith("#") or not line:
                        continue
                    name, value = line.rsplit(" ", 1)
                    assert name and float(value) is not None

            run_with_server(engine, scenario)

    def test_timeout_surfaces_as_504(self, model):
        timeout = 0.01
        held = []

        def hold_blocker_row(engine):
            # Runs on the stepping thread after the blocker's first step.
            # Keep its row (the only one) busy until the timed request is
            # pending and its deadline has passed, so that request expires
            # while queued however fast the blocker would decode.
            if held:
                return
            held.append(True)
            give_up = time.monotonic() + 10.0
            while engine.num_pending < 2 and time.monotonic() < give_up:
                time.sleep(0.001)
            # The deadline is stamped before the request becomes pending.
            time.sleep(2 * timeout)

        with AsyncEngine(
            model, config=EngineConfig(max_batch_rows=1), on_step=hold_blocker_row
        ) as engine:

            async def scenario(server):
                blocker = asyncio.create_task(
                    http_call(
                        server,
                        "POST",
                        "/v1/generate",
                        {"prompt_ids": [1, 2, 3], "max_new_tokens": 128},
                    )
                )
                while engine.num_pending == 0:
                    await asyncio.sleep(0.001)
                status, _, raw = await http_call(
                    server,
                    "POST",
                    "/v1/generate",
                    {"prompt_ids": [4, 5, 6], "max_new_tokens": 64, "timeout": timeout},
                )
                assert held
                assert status == 504
                payload = json.loads(raw)
                assert "timed out" in payload["error"]["message"]
                assert payload["partial"] == []  # expired while queued
                await blocker

            run_with_server(engine, scenario, max_inflight=8)

    def test_server_validation(self, model):
        with AsyncEngine(model, config=EngineConfig(max_batch_rows=1)) as engine:
            with pytest.raises(ValueError, match="max_inflight must be positive"):
                HttpServer(engine, max_inflight=0)
            with pytest.raises(ValueError, match="rate_limit must be positive"):
                HttpServer(engine, rate_limit=-1.0)

    def test_priority_over_http_under_contention(self, model):
        """Under a saturated batch, high-priority requests finish with
        better latency than co-arriving low-priority ones."""
        config = EngineConfig(max_batch_rows=2)
        with AsyncEngine(model, config=config) as engine:

            async def client(server, i, priority):
                t0 = time.perf_counter()
                status, _, _ = await http_call(
                    server,
                    "POST",
                    "/v1/generate",
                    {
                        "prompt_ids": [int(t) for t in prompt_of(6, 30 + i)],
                        "max_new_tokens": 16,
                        "priority": priority,
                        "tenant": f"c{i}",
                    },
                )
                assert status == 200
                return time.perf_counter() - t0

            async def scenario(server):
                # Saturate with low-priority, then a high-priority burst.
                low = [asyncio.create_task(client(server, i, 0)) for i in range(4)]
                await asyncio.sleep(0.02)
                high = [
                    asyncio.create_task(client(server, 4 + i, 5)) for i in range(2)
                ]
                low_walls = await asyncio.gather(*low)
                high_walls = await asyncio.gather(*high)
                return low_walls, high_walls

            run_with_server(engine, scenario, max_inflight=16)
            assert engine.stats.finished == 6
