"""Unit tests for the benchmark's own helpers (stdlib only, no program code)."""

from __future__ import annotations

import asyncio
import json
import os
import time

import pytest

from harness import (
    InsufficientSamples,
    closed_loop,
    open_loop,
    percentile,
    poisson_offsets,
)
from tracing import Span, Tracer, self_times

HERE = os.path.dirname(os.path.abspath(__file__))


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(100)), 90) == 89
    assert percentile(list(range(20)), 50) == 9
    assert percentile(list(range(1000)), 99) == 989
    with pytest.raises(InsufficientSamples):
        percentile(list(range(99)), 90)
    with pytest.raises(InsufficientSamples):
        percentile(list(range(19)), 50)
    with pytest.raises(InsufficientSamples):
        percentile(list(range(999)), 99)


def test_poisson_offsets_are_seeded_and_bounded():
    a = poisson_offsets(50.0, 4.0, seed=3)
    assert a == poisson_offsets(50.0, 4.0, seed=3)
    assert a != poisson_offsets(50.0, 4.0, seed=4)
    assert all(0 <= x < 4.0 for x in a) and a == sorted(a)
    assert len(a) == 200


def test_open_loop_times_from_due_and_reports_generator_lag():
    clock = time.perf_counter

    async def send(i, due):
        if i == 0:
            time.sleep(0.06)  # a stall that holds up every later send
        return clock() - due

    start, lags, latencies = asyncio.run(open_loop([0.0, 0.01, 0.02], send, clock))
    # The stall delayed requests 1 and 2 past their due times; the harness
    # reports that lag and charges it to their latency, which a timer
    # started at dispatch would miss.
    assert lags[0] < 0.01
    assert lags[1] >= 0.04 and lags[2] >= 0.03
    assert latencies[1] >= lags[1] and latencies[2] >= lags[2]


def test_open_loop_returns_exceptions_as_outcomes():
    async def send(i, due):
        if i == 1:
            raise RuntimeError("refused")
        return i

    _, _, outcomes = asyncio.run(open_loop([0.0, 0.0, 0.0], send))
    assert outcomes[0] == 0 and outcomes[2] == 2
    assert isinstance(outcomes[1], RuntimeError)


def test_closed_loop_callers_wait_for_their_last_request():
    in_flight, most = 0, 0

    async def send(i, sent):
        nonlocal in_flight, most
        in_flight += 1
        most = max(most, in_flight)
        await asyncio.sleep(0.01)
        in_flight -= 1
        if i == 2:
            raise RuntimeError("refused")
        return i

    _, outcomes = asyncio.run(closed_loop(2, 0.1, send))
    assert most == 2
    assert 12 <= len(outcomes) <= 24
    assert sum(isinstance(o, RuntimeError) for o in outcomes) == 1
    assert sorted(o for o in outcomes if isinstance(o, int)) == [
        i for i in range(len(outcomes)) if i != 2
    ]


def test_self_time_subtracts_nested_and_overlapping_children():
    spans = [
        Span(1, "a", 0, 100, None, None, 0),
        Span(2, "b", 10, 40, 1, None, 0),
        Span(3, "c", 30, 60, 1, None, 0),  # overlaps b
        Span(4, "d", 15, 20, 2, None, 0),
        Span(5, "e", 90, 130, 1, None, 0),  # runs past its parent's end
    ]
    got = self_times(spans)
    assert got == {1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 5, 5: 40}


class _Layers:
    def outer(self):
        self.inner()
        self.inner()
        return "done"

    def inner(self):
        time.sleep(0.002)


def test_tracer_records_parents_and_restores_originals():
    original = _Layers.__dict__["inner"]
    tracer = Tracer()
    seen = []
    tracer.wrap(_Layers, "outer", "outer")
    tracer.wrap(_Layers, "inner", "inner", after=lambda span, *_: seen.append(span.name))
    assert _Layers().outer() == "done"
    tracer.close()
    assert _Layers.__dict__["inner"] is original
    (outer,) = tracer.named("outer")
    inner = tracer.named("inner")
    assert seen == ["inner", "inner"]
    assert [span.parent for span in inner] == [outer.sid, outer.sid]
    own = self_times(tracer.spans)
    assert own[outer.sid] == outer.duration - sum(span.duration for span in inner)
    assert all(own[span.sid] == span.duration for span in inner)


def test_benchmark_json_matches_the_metrics_run_prints():
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
