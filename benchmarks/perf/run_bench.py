"""Micro-benchmark harness for the incremental-inference + serving subsystems.

Measures, for the decoder-LM stack that powers every ICL experiment
(Tables III/IV, Figs 12-14):

* ``generate`` throughput, KV-cached vs. full-recompute;
* ``generate_batch`` — one left-padded cache-backed decode loop over 8
  ragged prompts vs. 8 sequential cached generates (and vs. the uncached
  per-row reference logits);
* the HTTP front end under matched 1x/2x open-loop load, with shedding,
  priority preemption and preempt/resume token parity;
* paged KV storage — the continuous-batching engine over block-paged (and
  int8-quantized) KV caches vs. the dense layout on a long-context
  multi-family trace with byte-budgeted prefix pools;
* chunked prefill vs. the uncapped prefill budget on an adversarial
  prompt-length mix;
* replica fleet — a data-parallel :class:`~repro.serving.ReplicaFleet` at
  1/2/4 workers vs a single engine at equal total traffic, with
  prefix-affinity vs round-robin hit rates;
* ``ICLEngine.evaluate`` queries/sec with a shared few-shot example block,
  prefix-cached batched scoring vs. the per-query loop;
* pooled ICL serving — several engines sharing one LRU
  :class:`~repro.serving.PrefixCachePool` vs. private caches;
* numerical equivalence of the optimised paths (batched / cached / uncached
  logits must agree to float32 tolerance, rtol 1e-5).

Every section is one entry of :data:`SECTIONS`.  It builds its inputs,
runs its arms through :func:`measure` (arms interleaved, every repeat
kept), checks that the arms agree token for token, and reports each arm's
median and IQR.  ``speedup`` is a ratio of medians, ``speedup_iqr`` the
quartiles of the per-repeat ratios.  ``--check`` evaluates the sections'
declared gate rows.  Results are written to ``BENCH_inference.json`` at the
repository root so the performance trajectory is tracked from PR to PR.

Usage::

    PYTHONPATH=src python benchmarks/perf/run_bench.py            # full run
    PYTHONPATH=src python benchmarks/perf/run_bench.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/perf/run_bench.py --smoke --check
        # exit non-zero if a floor or an identity gate fails (the CI perf gate)
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import json
import operator
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "perfbench"))

from harness import open_loop  # noqa: E402
from repro.flowbench import generate_dataset  # noqa: E402
from repro.icl import FewShotSelector, ICLEngine  # noqa: E402
from repro.models.config import get_config  # noqa: E402
from repro.models.decoder import DecoderLM, left_pad_batch  # noqa: E402
from repro.serving import (  # noqa: E402
    AsyncEngine,
    ContinuousBatchingEngine,
    EngineConfig,
    HttpServer,
    PrefixCachePool,
    ReplicaFleet,
)
from repro.tensor import no_grad  # noqa: E402
from repro.tokenization import LogTokenizer  # noqa: E402

# --------------------------------------------------------------------------- #
# The harness: interleaved repeats, medians, ratios, gates
# --------------------------------------------------------------------------- #

#: ``{arm: {measurement: [one value per repeat]}}``
Samples = dict[str, dict[str, list[float]]]


def timed(fn: Callable[[], object]) -> Callable[[], float]:
    """An arm that measures the wall-clock seconds of one ``fn()`` call."""

    def arm() -> float:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    return arm


def measure(arms: dict[str, Callable[[], float | dict]], repeats: int) -> Samples:
    """Run every arm ``repeats`` times and keep every measurement.

    An arm returns its seconds, or a dict of named measurements.  The arms
    run interleaved (a, b, a, b, ...) so a slow drift of the host is spread
    over all of them instead of being charged to whichever ran last.
    """
    samples: Samples = {name: {} for name in arms}
    for _ in range(repeats):
        for name, arm in arms.items():
            out = arm()
            for key, value in (out if isinstance(out, dict) else {"seconds": out}).items():
                samples[name].setdefault(key, []).append(float(value))
    return samples


def median(samples: Samples, arm: str, key: str = "seconds") -> float:
    return float(np.median(samples[arm][key]))


def ratio(
    samples: Samples, num: str, den: str | None = None, key: str = "seconds"
) -> tuple[float, list[float]]:
    """``num``'s median over ``den``'s (``num``'s own median when ``den`` is
    None), with the quartiles of the per-repeat values as its spread."""
    per_repeat = np.asarray(samples[num][key])
    value = float(np.median(per_repeat))
    if den is not None:
        per_repeat = per_repeat / np.asarray(samples[den][key])
        value /= median(samples, den, key)
    q1, q3 = np.percentile(per_repeat, [25, 75])
    return value, [float(q1), float(q3)]


def report(
    samples: Samples, num: str, den: str | None = None, key: str = "seconds", **fields
) -> dict:
    """A section's JSON: each arm's median and IQR, the headline ``speedup``
    (see :func:`ratio`) with its ``speedup_iqr``, then ``fields``."""
    speedup, spread = ratio(samples, num, den, key)
    arms = {}
    for arm, measurements in samples.items():
        arms[arm] = {}
        for name, values in measurements.items():
            q1, mid, q3 = np.percentile(values, [25, 50, 75])
            arms[arm][name] = {"median": float(mid), "iqr": float(q3 - q1)}
    return {
        "repeats": len(next(iter(samples[num].values()))),
        "arms": arms,
        "speedup": speedup,
        "speedup_iqr": spread,
        **fields,
    }


#: A gate row: ``(key, comparison, threshold, message)``.  ``key`` is a dotted
#: path into the section's report; a string ``threshold`` is another such path.
Gate = tuple[str, str, object, str]

COMPARISONS = {
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
}


@dataclass(frozen=True)
class Section:
    name: str
    run: Callable[["Context"], dict]
    #: Report keys printed after the speedup and the arms' medians.
    headline: tuple[str, ...] = ()
    gates: tuple[Gate, ...] = ()


def lookup(section_report: dict, key: str):
    value = section_report
    for part in key.split("."):
        value = value[part]
    return value


def _format(value) -> str:
    return f"{value:.3g}" if isinstance(value, float) else str(value)


def check(results: dict, sections: Sequence[Section]) -> int:
    """Evaluate every gate row of every section present in ``results``.

    Prints one ``CHECK FAILED`` line per failing row and returns 1 if any
    failed.  Sections that were not run are skipped, so a ``--sections``
    subset gates the subset.
    """
    failures = []
    for section in sections:
        section_report = results.get(section.name)
        if section_report is None:
            continue
        for key, comparison, threshold, message in section.gates:
            value = lookup(section_report, key)
            needs = f"{comparison} {_format(threshold)}"
            bound = threshold
            if isinstance(threshold, str):
                bound = lookup(section_report, threshold)
                needs += f" = {_format(bound)}"
            if not COMPARISONS[comparison](value, bound):
                failures.append(
                    f"{section.name}: {message} ({key} = {_format(value)}, needs {needs})"
                )
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


def headline(section_report: dict, keys: Sequence[str]) -> str:
    """One line: speedup with its spread, each arm's median seconds, ``keys``."""
    parts = []
    if "speedup" in section_report:
        q1, q3 = section_report["speedup_iqr"]
        parts.append(
            f"speedup {section_report['speedup']:.2f}x (IQR {q1:.2f}-{q3:.2f}, "
            f"{section_report['repeats']} repeats)"
        )
    for arm, measurements in section_report.get("arms", {}).items():
        if "seconds" in measurements:
            seconds = measurements["seconds"]
            parts.append(
                f"{arm} {seconds['median'] * 1e3:.1f}ms (IQR {seconds['iqr'] * 1e3:.1f})"
            )
    parts.extend(f"{key}={_format(lookup(section_report, key))}" for key in keys)
    return "; ".join(parts)


def outputs_match(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


@dataclass
class Context:
    """What every section draws its inputs from."""

    smoke: bool
    seed: int
    repeats: int
    dataset: object
    sentences: list[str]
    tokenizer: LogTokenizer
    model: DecoderLM
    #: Shared decode stop set: greedy generation lengths then vary with the
    #: data, so slots free up at different steps.
    stop_ids: set[int]

    def ids(self, index: int, length: int) -> np.ndarray:
        """The first ``length`` token ids of training sentence ``index`` (wrapping)."""
        return self.tokenizer.encode_causal(self.sentences[index % len(self.sentences)])[
            :length
        ]

    def rng(self) -> np.random.Generator:
        """A fresh seeded stream, so a section's inputs do not depend on
        which other sections ran before it."""
        return np.random.default_rng(self.seed)


# --------------------------------------------------------------------------- #
# Sections
# --------------------------------------------------------------------------- #


def bench_generate(ctx: Context) -> dict:
    """Cached vs uncached autoregressive decoding of one prompt."""
    prompt = ctx.ids(0, 8)
    new_tokens = 56 if ctx.smoke else 240

    def generate(use_cache: bool) -> np.ndarray:
        return ctx.model.generate(prompt, max_new_tokens=new_tokens, use_cache=use_cache)

    cached, uncached = generate(True), generate(False)
    samples = measure(
        {"cached": timed(lambda: generate(True)), "uncached": timed(lambda: generate(False))},
        ctx.repeats,
    )
    return report(
        samples,
        "uncached",
        "cached",
        prompt_tokens=int(len(prompt)),
        new_tokens=int(len(cached) - len(prompt)),
        tokens_match=bool(np.array_equal(cached, uncached)),
    )


def bench_logits_equivalence(ctx: Context, rtol: float = 1e-5) -> dict:
    """Full forward vs. chunked incremental forward over the same tokens."""
    ids = ctx.tokenizer.encode_causal(" ".join(ctx.sentences[:4]))[: 64 if ctx.smoke else 200]
    model = ctx.model
    with no_grad():
        full = model.forward(ids[None, :]).data[0]
        cache = model.make_cache(1, len(ids))
        parts = []
        pos = 0
        rng = np.random.default_rng(0)
        while pos < len(ids):
            step = int(min(rng.integers(1, 8), len(ids) - pos))
            parts.append(model.forward_incremental(ids[None, pos : pos + step], cache).data[0])
            pos += step
        incremental = np.concatenate(parts, axis=0)
    return {
        "sequence_length": int(len(ids)),
        "max_abs_diff": float(np.abs(full - incremental).max()),
        "allclose": bool(np.allclose(full, incremental, rtol=rtol, atol=1e-5)),
        "rtol": rtol,
    }


def bench_batched_generate(ctx: Context) -> dict:
    """One batched decode loop vs. the same prompts generated sequentially.

    Also pins the three-way logits equivalence the serving layer promises:
    the per-row last-prompt-token logits of the left-padded batched prefill
    must match both the cached sequential path and the uncached full forward
    to float32 tolerance.
    """
    model, rng = ctx.model, ctx.rng()
    prompts = [ctx.ids(i, int(rng.integers(6, 20))) for i in range(8)]
    new_tokens = 24 if ctx.smoke else 64

    def batched():
        return model.generate_batch(prompts, max_new_tokens=new_tokens)

    def sequential():
        return [model.generate(p, max_new_tokens=new_tokens, use_cache=True) for p in prompts]

    batched_out = batched()
    tokens_match = outputs_match(batched_out, sequential())

    # Three-way prefill logits: batched (left-padded) vs uncached full forward.
    ids, mask, positions, lengths = left_pad_batch(prompts)
    with no_grad():
        cache = model.make_cache(len(prompts), int(lengths.max()))
        padded = model.forward_incremental(
            ids, cache, attention_mask=mask, positions=positions
        ).data
        references = [model.forward(p[None, :]).data[0, -1] for p in prompts]
    max_abs_diff = max(float(np.abs(padded[i, -1] - r).max()) for i, r in enumerate(references))
    allclose = all(
        np.allclose(padded[i, -1], r, rtol=1e-5, atol=1e-5) for i, r in enumerate(references)
    )

    samples = measure({"batched": timed(batched), "sequential": timed(sequential)}, ctx.repeats)
    return report(
        samples,
        "sequential",
        "batched",
        batch_size=len(prompts),
        prompt_tokens=[int(len(p)) for p in prompts],
        generated_tokens=int(sum(len(b) - len(p) for b, p in zip(batched_out, prompts))),
        tokens_match=tokens_match,
        prefill_logits_max_abs_diff=max_abs_diff,
        prefill_logits_allclose=bool(allclose),
    )


async def _http_stream_request(
    server,
    prompt: np.ndarray,
    max_new_tokens: int,
    priority: int,
    tenant: str,
    sent_at: float | None = None,
) -> dict:
    """One SSE generation over a raw socket; returns client-observed timings.

    ``ttft_seconds`` is the honest serving measurement — wall clock from
    ``sent_at`` (the time the request was due; default: now) to parsing the
    first token frame, including queueing, admission, prefill and the HTTP
    layer itself.
    """
    t0 = time.perf_counter() if sent_at is None else sent_at
    reader, writer = await asyncio.open_connection(server.host, server.port)
    try:
        payload = json.dumps(
            {
                "prompt_ids": [int(t) for t in prompt],
                "max_new_tokens": int(max_new_tokens),
                "priority": int(priority),
                "tenant": tenant,
                "stream": True,
            }
        ).encode()
        writer.write(
            (
                f"POST /v1/generate HTTP/1.1\r\nHost: {server.host}\r\n"
                f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
            ).encode()
            + payload
        )
        await writer.drain()
        status = int((await reader.readline()).split(b" ", 2)[1])
        while (await reader.readline()).strip():
            pass  # headers
        tokens: list[int] = []
        ttft = None
        if status == 200:
            while True:
                line = await reader.readline()
                if not line:
                    break
                text = line.decode().strip()
                if not text.startswith("data: ") or text == "data: [DONE]":
                    continue
                frame = json.loads(text[len("data: ") :])
                if "token" in frame:
                    if ttft is None:
                        ttft = time.perf_counter() - t0
                    tokens.append(frame["token"])
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass  # a reset peer must not mask the request's own outcome
    return {
        "status": status,
        "ttft_seconds": ttft,
        "wall_seconds": time.perf_counter() - t0,
        "tokens": tokens,
    }


def bench_http_serving(ctx: Context) -> dict:
    """The HTTP front end under open-loop load, measured from the client side.

    Four phases over real sockets (every number includes the HTTP layer):

    1. *Unloaded baseline* — sequential SSE requests against an idle server
       give the reference TTFT distribution (and warm the prefix pool, so
       every later phase serves steady-state warm-cache traffic).
    2. *Capacity* — a closed-loop run at concurrency ``2 * max_rows``
       (every decode row busy plus a standing queue, with live connection
       churn) measures the server's saturated completion rate.
    3. *Matched-pair overload* — two open-loop arrival schedules with
       identical machinery, one offered at 1.0x the measured capacity
       (normal full-load operation) and one at 2.0x (overload).  Excess
       arrivals shed with 429 + Retry-After.  Goodput retention is the
       steady-state completion rate at 2x over the rate at 1x — the
       offered-load-vs-goodput curve staying flat past saturation instead
       of collapsing — and the TTFT ratio is the admitted p99 at 2x over
       the p99 at 1x.  Comparing 2x against the *matched* 1x run (not the
       closed-loop capacity figure) keeps the comparison honest on a
       loaded box: both sides pay identical load-generation, connection
       and GIL costs, so the ratio isolates what overload itself does.
    4. *Priority contention* — low-priority streams saturate the batch,
       then a high-priority burst arrives: preemption + priority admission
       must give the burst a strictly better p99 TTFT than the co-running
       low-priority class, and a preempted-then-resumed request's greedy
       tokens must be identical to an uninterrupted run.

    Phases 2+3 run as one round per repeat: the arrival rates are
    calibrated by the capacity just measured, so a machine-speed wobble
    *between* the phases would show up directly as a bogus ratio.  Each
    ratio is reported as its median over the rounds.

    The engine is configured through ``EngineConfig.from_json`` — the same
    declarative path a deployment config file would use.
    """
    model, sentences = ctx.model, ctx.sentences
    # Each request gets a distinct ~64-token prompt (a window of consecutive
    # trace sentences): long enough that prefill is a real unit of
    # first-token work, unique so the prefix pool serves steady-state
    # traffic rather than replaying one hot entry.
    prompts = [
        np.asarray(
            ctx.tokenizer.encode_causal(
                " ".join(sentences[(i * 3 + k) % len(sentences)] for k in range(6))
            )[:64]
        )
        for i in range(32)
    ]
    max_new_tokens = 16 if ctx.smoke else 24
    max_rows = 4
    overload_requests = 64
    config = EngineConfig.from_json(
        json.dumps({"max_batch_rows": max_rows, "kv_layout": "paged"})
    )

    def client_prompt(i: int) -> np.ndarray:
        return prompts[i % len(prompts)]

    def client_tokens(i: int) -> int:
        # Short, non-harmonic decode lengths (mean max_new_tokens / 2).
        # Harmonically related lengths (e.g. 8/16/24) put completions on a
        # shared step lattice: whole cohorts finish together and the p99
        # queue wait measures the lattice gap, not the scheduler.
        return max(max_new_tokens // 4, 1) + (i * 5) % (max_new_tokens // 2 + 1)

    def serve(max_inflight: int, scenario):
        """Run ``scenario(server)`` against a fresh engine behind a fresh
        server; returns the scenario's result and the (shut down) engine."""
        engine = AsyncEngine(model, config=config)

        async def main():
            async with HttpServer(engine, max_inflight=max_inflight) as server:
                return await scenario(server)

        try:
            return asyncio.run(main()), engine
        finally:
            engine.shutdown()

    async def unloaded_phase(server):
        return [
            await _http_stream_request(
                server, client_prompt(i), max_new_tokens, 0, f"base-{i}"
            )
            for i in range(len(prompts))
        ]

    unloaded, _ = serve(2 * max_rows, unloaded_phase)

    async def capacity_phase(server) -> float:
        # Closed loop at concurrency 2 * max_rows: max_rows requests
        # decoding plus a standing queue, so the batch never idles between
        # retirements and the connection churn resembles the open-loop
        # phases this figure calibrates.
        workers = 2 * max_rows
        per_worker = max(overload_requests // workers, 1)

        async def worker(w: int) -> None:
            for i in range(w * per_worker, (w + 1) * per_worker):
                await _http_stream_request(
                    server, client_prompt(i), client_tokens(i), 0, f"cap-{w}"
                )

        t0 = time.perf_counter()
        await asyncio.gather(*(worker(w) for w in range(workers)))
        return workers * per_worker / (time.perf_counter() - t0)

    def offered_load(rate: float) -> dict:
        offsets = [i / rate for i in range(overload_requests)]

        async def load_phase(server):
            async def send(i: int, due: float) -> dict:
                return await _http_stream_request(
                    server, client_prompt(i), client_tokens(i), 0, f"load-{i}", sent_at=due
                )

            _, _, outcomes = await open_loop(offsets, send)
            return outcomes

        # max_rows + 2: a two-request queue buffer.  Zero buffer turns
        # every retirement into admission-latency idle time; a deep queue
        # stretches every admitted TTFT.  Two keeps a successor staged for
        # the next free row while bounding the queue wait to a couple of
        # completion events.
        outcomes, _ = serve(max_rows + 2, load_phase)
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
        admitted = [(i, r) for i, r in enumerate(outcomes) if r["status"] == 200]
        # Steady-state completion rate: completions per second between the
        # first and last completion inside the arrival window.  The full
        # wall would fold the ramp-up before the first completion and the
        # underoccupied drain after the last arrival into the rate —
        # O(batch/total) edge effects that measure trace length, not the
        # server.
        window = overload_requests / rate
        done = sorted(
            offsets[i] + r["wall_seconds"]
            for i, r in admitted
            if offsets[i] + r["wall_seconds"] <= window
        )
        if len(done) >= 2 and done[-1] > done[0]:
            steady = (len(done) - 1) / (done[-1] - done[0])
        else:
            steady = 0.0
        return {
            "admitted": len(admitted),
            "shed": sum(r["status"] == 429 for r in outcomes),
            "p99": float(np.percentile([r["ttft_seconds"] for _, r in admitted], 99)),
            "steady_rps": steady,
        }

    def overload_round() -> dict:
        capacity, _ = serve(4 * max_rows, capacity_phase)
        onex, twox = offered_load(capacity), offered_load(2.0 * capacity)
        goodput = twox["steady_rps"] / onex["steady_rps"] if onex["steady_rps"] else 0.0
        return {
            "capacity_rps": capacity,
            "goodput_ratio": goodput,
            "ttft_ratio": twox["p99"] / onex["p99"] if onex["p99"] else float("inf"),
            **{f"onex_{k}": v for k, v in onex.items()},
            **{f"twox_{k}": v for k, v in twox.items()},
        }

    samples = measure({"overload": overload_round}, ctx.repeats)

    async def priority_phase(server):
        async def one(i: int, priority: int, delay: float):
            await asyncio.sleep(delay)
            return await _http_stream_request(
                server, client_prompt(i), max_new_tokens, priority, f"prio-{i}"
            )

        low = [asyncio.create_task(one(i, 0, 0.0)) for i in range(2 * max_rows)]
        high = [
            asyncio.create_task(one(2 * max_rows + i, 5, 0.05)) for i in range(max_rows)
        ]
        return [await t for t in low], [await t for t in high]

    (low, high), engine = serve(4 * max_rows, priority_phase)
    low_p99 = float(np.percentile([r["ttft_seconds"] for r in low], 99))
    high_p99 = float(np.percentile([r["ttft_seconds"] for r in high], 99))
    # Every request in phase 4 decoded greedily; a preempted-then-resumed
    # low-priority stream must still match the uninterrupted reference.
    parity = all(
        r["tokens"]
        == [
            int(t)
            for t in model.generate(client_prompt(i), max_new_tokens=max_new_tokens)[
                len(client_prompt(i)) :
            ]
        ]
        for i, r in enumerate(low)
    )
    # The bench-trend gate compares sections by their ``speedup`` key; for
    # an overload bench the figure of merit is goodput retention (steady
    # completion rate at 2x offered load over the matched 1x run — the
    # goodput curve staying flat past saturation).
    return report(
        samples,
        "overload",
        key="goodput_ratio",
        max_batch_rows=max_rows,
        max_new_tokens=max_new_tokens,
        overload_requests=overload_requests,
        unloaded_p99_ttft_seconds=float(
            np.percentile([r["ttft_seconds"] for r in unloaded], 99)
        ),
        capacity_requests_per_sec=median(samples, "overload", "capacity_rps"),
        goodput_ratio=median(samples, "overload", "goodput_ratio"),
        # p99 at 2x offered load over p99 at the matched 1x run — what
        # overload itself does to admitted TTFT, on identical machinery.
        admitted_ttft_ratio=median(samples, "overload", "ttft_ratio"),
        shed=median(samples, "overload", "twox_shed"),
        low_priority_p99_ttft_seconds=low_p99,
        high_priority_p99_ttft_seconds=high_p99,
        priority_p99_ratio=high_p99 / low_p99,
        preemptions=int(engine.stats.preemptions),
        resumes=int(engine.stats.resumes),
        tokens_match=bool(parity),
    )


def bench_paged_kv(ctx: Context) -> dict:
    """Block-paged (and int8) KV storage vs the dense layout, long context.

    The workload is the one paged KV exists for: staggered long-context
    requests drawn from several prompt *families* (a shared ~64-token
    template head plus a per-request tail — the shape of ICL serving
    traffic), with the prefix-cache pool in the loop.  Two comparisons:

    * **equal memory budget** — both layouts get a byte-capped pool.  A
      dense entry costs a full-context rectangle, so the budget holds only
      a couple of families and the LRU thrashes (hit rate ~0); paged
      entries cost their exact-width (ref-counted, copy-on-write shared)
      blocks, so the same bytes keep every family resident.  This is the
      throughput headline: tokens/s paged vs dense.
    * **equal capability** — both pools uncapped, so hit rates equalise.
      The peak resident KV bytes (live batch + pool, sampled every step)
      then show what holding the *same* reusable state costs each layout;
      int8 block storage shrinks it further.

    Greedy outputs must be token-identical across dense, paged and
    int8-paged serving (the int8 store quantizes pooled prefixes only; the
    live decode window stays float32).
    """
    model, rng = ctx.model, ctx.rng()
    num_families = 4 if ctx.smoke else 6
    heads = [
        ctx.tokenizer.encode_causal(" ".join(ctx.sentences[f * 4 : f * 4 + 4]))[:64]
        for f in range(num_families)
    ]
    prompts = [
        np.concatenate([heads[i % num_families], ctx.ids(i * 7 + 3, int(rng.integers(12, 32)))])
        for i in range(12 if ctx.smoke else 24)
    ]
    max_new_tokens = 16 if ctx.smoke else 24
    budget = 1 << 20

    def run(kv_layout: str, kv_dtype: str = "fp32", budget: int | None = None):
        pool = PrefixCachePool(
            model,
            max_entries=32,
            min_reuse_tokens=16,
            max_bytes=budget,
            kv_layout=kv_layout,
            kv_dtype=kv_dtype,
        )
        engine = ContinuousBatchingEngine(
            model,
            config=EngineConfig(max_batch_rows=6, kv_layout=kv_layout, kv_dtype=kv_dtype),
            cache_pool=pool,
        )
        results = [None] * len(prompts)
        submitted = 0
        peak = 0
        while submitted < len(prompts) or engine.has_work:
            if submitted < len(prompts):
                engine.submit(
                    prompts[submitted], max_new_tokens=max_new_tokens, stop_ids=ctx.stop_ids
                )
                submitted += 1
            for request in engine.step():
                results[request.request_id] = request.result
            peak = max(peak, engine.batch.cache.kv_bytes() + pool.kv_bytes())
        return results, peak, pool

    stacks = {"dense": ("dense", "fp32"), "paged": ("paged", "fp32"), "int8": ("paged", "int8")}
    budgeted = {name: run(*stack, budget=budget) for name, stack in stacks.items()}
    # Equal capability: uncapped pools -> equal hit rates; compare bytes.
    free = {name: run(*stack) for name, stack in stacks.items()}
    peaks = {name: int(peak) for name, (_, peak, _) in free.items()}
    samples = measure(
        {
            name: timed(functools.partial(run, *stack, budget=budget))
            for name, stack in stacks.items()
        },
        ctx.repeats,
    )
    dense_res = budgeted["dense"][0]
    return report(
        samples,
        "dense",
        "paged",
        num_requests=len(prompts),
        num_families=num_families,
        max_new_tokens=max_new_tokens,
        generated_tokens=int(sum(len(r) - len(p) for r, p in zip(dense_res, prompts))),
        pool_budget_bytes=budget,
        int8_speedup=ratio(samples, "dense", "int8")[0],
        **{
            f"budget_hit_rate_{name}": pool.stats.hit_rate
            for name, (_, _, pool) in budgeted.items()
        },
        iso_hit_rate={name: pool.stats.hit_rate for name, (_, _, pool) in free.items()},
        peak_kv_bytes=peaks,
        kv_bytes_ratio_dense_over_paged=peaks["dense"] / peaks["paged"],
        kv_bytes_ratio_dense_over_int8=peaks["dense"] / peaks["int8"],
        tokens_match_paged_vs_dense=outputs_match(budgeted["paged"][0], dense_res),
        tokens_match_int8_vs_dense=outputs_match(budgeted["int8"][0], dense_res),
    )


def bench_chunked_prefill(ctx: Context) -> dict:
    """Chunked-prefill piggybacking vs the uncapped budget, adversarial trace.

    The workload is the one the per-step prefill budget exists for: a burst
    of mostly-short requests with a long prompt in every 4th position.  The
    ``atomic`` arm runs with ``prefill_chunk_tokens=None`` (no cap): every
    admitted prompt is prefilled whole in the step that admits it, so the
    running decodes — and every short request admitted beside a long one —
    wait for the long prompt's whole forward before the step decodes.
    Under a ``prefill_chunk_tokens`` budget each step consumes at most one
    budget of prompt tokens beside the running decodes: no monolithic
    stall.  Both arms take the engine's one admission path (batch-1
    prefills, no padding); only the per-step cap differs.

    Reported: p50/p99 TTFT (overall and short-request-only — the headline:
    the tail latency longs inflict on their neighbours), end-to-end decode
    throughput, and per-step occupancy from the engine's chunk stats.
    Greedy outputs must be token-identical between the two paths.
    """
    rng, sentences = ctx.rng(), ctx.sentences
    long_every, chunk_tokens = 4, 32
    long_tokens = 144 if ctx.smoke else 256
    prompts = [
        ctx.tokenizer.encode_causal(" ".join(sentences[(i * 5) % len(sentences) :]))[
            :long_tokens
        ]
        if i % long_every == 0
        else ctx.ids(i * 11 + 2, int(rng.integers(6, 18)))
        for i in range(12 if ctx.smoke else 16)
    ]
    short = [i for i in range(len(prompts)) if i % long_every != 0]
    max_new_tokens = 16 if ctx.smoke else 24

    def run(chunk: int | None):
        engine = ContinuousBatchingEngine(
            ctx.model,
            config=EngineConfig(
                max_batch_rows=6,
                prefill_chunk_tokens=chunk,
                kv_layout="paged",
            ),
        )
        requests = [
            engine.submit(p, max_new_tokens=max_new_tokens, stop_ids=ctx.stop_ids)
            for p in prompts
        ]
        start = time.perf_counter()
        while engine.has_work:
            engine.step()
        wall = time.perf_counter() - start
        ttfts = np.array([r.ttft_seconds for r in requests])
        return [r.result for r in requests], ttfts, wall, engine.stats

    def arm(chunk: int | None):
        def measured() -> dict:
            _, ttfts, wall, _ = run(chunk)
            return {
                "seconds": wall,
                "p50_ttft_seconds": np.percentile(ttfts, 50),
                "p99_ttft_seconds": np.percentile(ttfts, 99),
                "p50_short_ttft_seconds": np.percentile(ttfts[short], 50),
                "p99_short_ttft_seconds": np.percentile(ttfts[short], 99),
            }

        return measured

    atomic_res = run(None)[0]
    chunked_res, _, _, chunked_stats = run(chunk_tokens)
    samples = measure({"atomic": arm(None), "chunked": arm(chunk_tokens)}, ctx.repeats)
    # Headline: tail first-token latency of the short requests a long
    # neighbour would otherwise stall.
    return report(
        samples,
        "atomic",
        "chunked",
        key="p99_short_ttft_seconds",
        num_requests=len(prompts),
        num_long=len(prompts) - len(short),
        prompt_tokens=[int(len(p)) for p in prompts],
        max_new_tokens=max_new_tokens,
        chunk_tokens=chunk_tokens,
        generated_tokens=int(sum(len(r) - len(p) for r, p in zip(atomic_res, prompts))),
        p50_ttft_speedup=ratio(samples, "atomic", "chunked", "p50_ttft_seconds")[0],
        p99_ttft_speedup=ratio(samples, "atomic", "chunked", "p99_ttft_seconds")[0],
        decode_throughput_ratio=ratio(samples, "atomic", "chunked")[0],
        prefill_chunks=int(chunked_stats.prefill_chunks),
        max_step_prefill_tokens=int(max(chunked_stats.step_prefill_tokens)),
        prefill_stall_histogram=chunked_stats.stall_histogram(),
        tokens_match=outputs_match(atomic_res, chunked_res),
    )


def _fleet_model(config_name: str, vocab_size: int, seed: int) -> DecoderLM:
    """Picklable replica factory: deterministic weights from the seed, so
    every fleet worker (and the single-engine reference) is bit-identical."""
    model = DecoderLM(get_config(config_name), vocab_size, rng=seed)
    model.eval()
    return model


def bench_fleet(ctx: Context) -> dict:
    """Data-parallel replica fleet vs. one engine at equal total traffic.

    The trace is closed-loop: each pass visits every prompt family (long
    shared head, short tail) once, and the next pass is submitted only after
    the previous one drained — sustained repeat traffic, not one burst.
    That is adversarial for a single per-replica-sized prefix pool, which
    evicts every family before its next request returns.  The fleet's win on
    a single core is *aggregate KV-pool capacity*: prefix-affinity routing
    pins each family to one replica, whose pool then holds it resident, so
    repeat passes prefill tails instead of heads.  Round-robin routing over
    the same fleet is the control: same workers, same pools, no affinity —
    its pool hit rate collapses back toward the single engine's.

    Every repeat builds fresh engines, pools and worker processes, so
    repeats measure the architecture, not pool warming; the timed span is
    submission to the last drain, without process start-up.
    """
    rng, families = ctx.rng(), 6
    # Long heads on the larger decoder config: the affinity win is the
    # *skipped head prefill*, so the head must be real compute relative to
    # the per-step fixed cost the extra worker processes add.
    head_tokens = 320 if ctx.smoke else 448
    heads = [
        ctx.tokenizer.encode_causal(
            " ".join(ctx.sentences[f * 6 : f * 6 + 12] or ctx.sentences)
        )[:head_tokens]
        for f in range(families)
    ]
    passes = [
        [
            np.concatenate([heads[f], ctx.ids(p * families + f * 5 + 1, int(rng.integers(4, 10)))])
            for f in range(families)
        ]
        for p in range(4 if ctx.smoke else 12)
    ]
    prompts = [p for wave in passes for p in wave]
    max_new_tokens = 4 if ctx.smoke else 6
    builder = functools.partial(_fleet_model, "mistral-7b", ctx.tokenizer.vocab_size, ctx.seed)
    # Four entries hold ~2 resident families (head + a couple of tail
    # variants) per replica: the 4-worker fleet keeps all 6 families warm in
    # aggregate while any single replica thrashes.
    pool_kwargs = {"max_entries": 4}
    config = EngineConfig(max_batch_rows=4)

    def run_single():
        model = builder()
        pool = PrefixCachePool(model, **pool_kwargs)
        engine = ContinuousBatchingEngine(model, config=config, cache_pool=pool)
        requests = []
        start = time.perf_counter()
        for wave in passes:
            requests.extend(engine.submit(p, max_new_tokens) for p in wave)
            engine.drain()
        seconds = time.perf_counter() - start
        return {"seconds": seconds, "pool_hit_rate": pool.stats.hit_rate}, [
            r.result for r in requests
        ]

    reference = run_single()[1]  # the token-identity oracle
    matches: list[bool] = []

    def fleet_arm(num_workers: int, routing: str):
        def arm() -> dict:
            with ReplicaFleet(
                builder,
                num_workers,
                routing=routing,
                affinity_tokens=32,
                config=config,
                pool_kwargs=pool_kwargs,
            ) as fleet:
                handles = []
                start = time.perf_counter()
                for wave in passes:
                    handles.extend(fleet.submit(p, max_new_tokens) for p in wave)
                    fleet.drain()
                seconds = time.perf_counter() - start
                matches.append(outputs_match(reference, [h.result for h in handles]))
                stats = fleet.worker_stats()
            hits = sum(w["pool"]["hits"] for w in stats)
            lookups = hits + sum(w["pool"]["misses"] for w in stats)
            return {"seconds": seconds, "pool_hit_rate": hits / lookups if lookups else 0.0}

        return arm

    samples = measure(
        {
            "single": lambda: run_single()[0],
            **{f"affinity_{n}": fleet_arm(n, "affinity") for n in (1, 2, 4)},
            "round_robin_4": fleet_arm(4, "round_robin"),
        },
        ctx.repeats,
    )
    return report(
        samples,
        "single",
        "affinity_4",
        num_requests=len(prompts),
        num_passes=len(passes),
        generated_tokens=int(sum(len(o) - len(p) for o, p in zip(reference, prompts))),
        max_new_tokens=max_new_tokens,
        pool_entries_per_replica=pool_kwargs["max_entries"],
        affinity_hit_rate=median(samples, "affinity_4", "pool_hit_rate"),
        round_robin_hit_rate=median(samples, "round_robin_4", "pool_hit_rate"),
        tokens_match=all(matches),
    )


def _icl_workload(ctx: Context):
    """Query records, labels, a fresh-selector factory and the shot count."""
    test = ctx.dataset.test.subsample(12 if ctx.smoke else 32, rng=ctx.seed)
    examples = ctx.dataset.train.records[:200]
    return (
        test.records,
        test.labels(),
        lambda: FewShotSelector(examples, mode="mixed", seed=ctx.seed),
        4 if ctx.smoke else 8,
    )


def bench_icl_evaluate(ctx: Context) -> dict:
    """Queries/sec of shared-few-shot evaluate, cached vs per-query loop."""
    queries, labels, selector, shots = _icl_workload(ctx)
    engines = {
        "cached": ICLEngine(ctx.model, ctx.tokenizer),
        "uncached": ICLEngine(ctx.model, ctx.tokenizer, use_cache=False),
    }
    preds = {
        name: engine.classify_batch(queries, selector=selector(), num_examples=shots)
        for name, engine in engines.items()
    }
    score_diff = max(
        max(
            abs(a.log_prob_normal - b.log_prob_normal),
            abs(a.log_prob_abnormal - b.log_prob_abnormal),
        )
        for a, b in zip(preds["cached"], preds["uncached"])
    )

    def evaluate(engine: ICLEngine):
        return lambda: engine.evaluate(queries, labels, selector=selector(), num_examples=shots)

    samples = measure(
        {name: timed(evaluate(engine)) for name, engine in engines.items()}, ctx.repeats
    )
    return report(
        samples,
        "uncached",
        "cached",
        num_queries=len(queries),
        num_examples=shots,
        labels_match=[p.label for p in preds["cached"]] == [p.label for p in preds["uncached"]],
        max_score_diff=float(score_diff),
    )


def bench_pooled_icl(ctx: Context) -> dict:
    """Several engines over the same traffic: shared prefix pool vs private caches.

    Models the serving scenario the pool exists for — many concurrently
    constructed engines (sessions) classifying queries prompted with the
    same few-shot block.  With the shared pool, engines after the first find
    the example-block prefill already cached.
    """
    queries, labels, selector, shots = _icl_workload(ctx)
    num_engines = 3 if ctx.smoke else 4

    def run(pool: PrefixCachePool | None):
        return [
            ICLEngine(ctx.model, ctx.tokenizer, cache_pool=pool).evaluate(
                queries, labels, selector=selector(), num_examples=shots
            )
            for _ in range(num_engines)
        ]

    stats_pool = PrefixCachePool(ctx.model, max_entries=8)
    pooled = [r.accuracy for r in run(stats_pool)]
    private = [r.accuracy for r in run(None)]
    # A fresh pool per repeat: each timed pass is the cold engines-sharing-
    # one-pass scenario (a warm pool carried across repeats would flatter
    # the pooled number).
    samples = measure(
        {
            "pooled": timed(lambda: run(PrefixCachePool(ctx.model, max_entries=8))),
            "private": timed(lambda: run(None)),
        },
        ctx.repeats,
    )
    return report(
        samples,
        "private",
        "pooled",
        num_engines=num_engines,
        num_queries=len(queries),
        num_examples=shots,
        accuracies_match=pooled == private,
        pool_stats=stats_pool.stats.as_dict(),
    )


# The speed thresholds sit below the full-scale targets (``TARGETS``) to
# absorb shared-runner noise on the sub-second smoke workloads, and apply at
# both scales; the identity gates are exact.
SECTIONS = (
    Section(
        "generate",
        bench_generate,
        ("tokens_match",),
        (
            ("speedup", ">=", 1.0, "cached generate is slower than uncached"),
            ("tokens_match", "==", True, "cached generate changed the tokens"),
        ),
    ),
    Section(
        "logits_equivalence",
        bench_logits_equivalence,
        ("max_abs_diff", "allclose"),
        (("allclose", "==", True, "cached and uncached logits diverge"),),
    ),
    Section(
        "batched_generate",
        bench_batched_generate,
        ("tokens_match", "prefill_logits_allclose"),
        (
            ("speedup", ">=", 1.5, "batched generate lost its win over sequential"),
            ("tokens_match", "==", True, "batched generate changed the tokens"),
            ("prefill_logits_allclose", "==", True, "batched prefill logits diverge"),
        ),
    ),
    Section(
        "http_serving",
        bench_http_serving,
        (
            "capacity_requests_per_sec",
            "admitted_ttft_ratio",
            "shed",
            "high_priority_p99_ttft_seconds",
            "low_priority_p99_ttft_seconds",
            "preemptions",
            "tokens_match",
        ),
        (
            # Targets are 3.0x ttft / 0.9 goodput (both vs the matched 1x
            # offered-load run); the gates trip at 4.0x / 0.75 because each
            # phase has only tens of sub-100ms TTFT samples.
            ("admitted_ttft_ratio", "<=", 4.0, "shedding does not bound the 2x queue"),
            ("goodput_ratio", ">=", 0.75, "goodput collapses past saturation"),
            ("shed", ">", 0, "2x overload shed nothing"),
            (
                "high_priority_p99_ttft_seconds",
                "<",
                "low_priority_p99_ttft_seconds",
                "high priority is not served first",
            ),
            ("preemptions", ">=", 1, "the high-priority burst preempted nothing"),
            ("tokens_match", "==", True, "preempted-then-resumed streams changed tokens"),
        ),
    ),
    Section(
        "paged_kv",
        bench_paged_kv,
        (
            "int8_speedup",
            "budget_hit_rate_paged",
            "budget_hit_rate_dense",
            "peak_kv_bytes.paged",
            "peak_kv_bytes.dense",
            "tokens_match_paged_vs_dense",
            "tokens_match_int8_vs_dense",
        ),
        (
            ("speedup", ">=", 0.9, "paged KV is slower than dense at an equal budget"),
            ("tokens_match_paged_vs_dense", "==", True, "paged KV changed the tokens"),
            ("tokens_match_int8_vs_dense", "==", True, "int8 paged KV changed the tokens"),
            ("peak_kv_bytes.paged", "<", "peak_kv_bytes.dense", "paged KV holds more bytes"),
            (
                "budget_hit_rate_paged",
                ">",
                "budget_hit_rate_dense",
                "the byte-budgeted paged pool does not out-hit dense",
            ),
        ),
    ),
    Section(
        "chunked_prefill",
        bench_chunked_prefill,
        ("p99_ttft_speedup", "decode_throughput_ratio", "max_step_prefill_tokens", "tokens_match"),
        (
            ("speedup", ">=", 0.9, "chunking raised short-request p99 TTFT"),
            # Piggybacked chunks trade a little end-to-end throughput for
            # bounded steps; cap the toll at ~30%.
            ("decode_throughput_ratio", ">=", 0.7, "chunking costs too much throughput"),
            ("tokens_match", "==", True, "chunked prefill changed the tokens"),
            ("max_step_prefill_tokens", "<=", "chunk_tokens", "a step exceeded the budget"),
        ),
    ),
    Section(
        "fleet",
        bench_fleet,
        ("affinity_hit_rate", "round_robin_hit_rate", "tokens_match"),
        (
            # The fleet's win is aggregate pool capacity rather than cores,
            # but the short smoke trace pays proportionally more process
            # round-trip overhead, hence 1.5x against the 2.5x target.
            ("speedup", ">=", 1.5, "the 4-worker fleet lost its win"),
            (
                "affinity_hit_rate",
                ">",
                "round_robin_hit_rate",
                "affinity routing does not out-hit round-robin",
            ),
            ("tokens_match", "==", True, "the fleet changed the tokens"),
        ),
    ),
    Section(
        "icl_evaluate",
        bench_icl_evaluate,
        ("labels_match", "max_score_diff"),
        (
            ("speedup", ">=", 1.0, "cached ICL evaluate is slower than uncached"),
            ("labels_match", "==", True, "cached ICL scoring changed the labels"),
        ),
    ),
    Section(
        "pooled_icl",
        bench_pooled_icl,
        ("pool_stats.hit_rate", "accuracies_match"),
        (
            # Wide margin: the pooled advantage on this sub-second workload
            # is small (~1.1x), so only a gross regression should fail CI;
            # accuracies_match is the strict semantic signal.
            ("speedup", ">=", 0.75, "pooled ICL is much slower than private caches"),
            ("accuracies_match", "==", True, "pooling changed the evaluation results"),
        ),
    ),
)

#: Full-scale acceptance targets, recorded in the report.
TARGETS = {
    "generate_speedup": 3.0,
    "batched_generate_speedup": 2.0,
    "icl_evaluate_speedup": 1.5,
    "pooled_icl_speedup": 1.0,
    "http_serving_admitted_ttft_ratio": 3.0,
    "http_serving_goodput_ratio": 0.9,
    "paged_kv_speedup": 1.0,
    "chunked_prefill_speedup": 1.0,
    "fleet_speedup": 2.5,
    "logits_rtol": 1e-5,
}


def run(smoke: bool, seed: int, sections: set[str] | None = None) -> dict:
    dataset = generate_dataset("1000genome", num_traces=2 if smoke else 4, seed=seed)
    sentences = dataset.train.sentences()
    tokenizer = LogTokenizer.build_from_corpus(sentences)
    # Random (un-pretrained) weights: throughput and numerical equivalence do
    # not depend on training, and skipping pre-training keeps the harness fast.
    model = DecoderLM(get_config("gpt2"), tokenizer.vocab_size, rng=seed)
    model.eval()
    stop_rng = np.random.default_rng(103)
    ctx = Context(
        smoke=smoke,
        seed=seed,
        repeats=3 if smoke else 5,
        dataset=dataset,
        sentences=sentences,
        tokenizer=tokenizer,
        model=model,
        stop_ids={
            int(t)
            for t in stop_rng.choice(
                tokenizer.vocab_size, size=max(tokenizer.vocab_size // 12, 1), replace=False
            )
        },
    )
    results: dict = {
        "scale": "smoke" if smoke else "full",
        "model": model.config.name,
        "vocab_size": tokenizer.vocab_size,
    }
    for section in SECTIONS:
        if sections is None or section.name in sections:
            results[section.name] = section.run(ctx)
    return results


def main() -> int:
    names = [section.name for section in SECTIONS]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="CI-sized quick run")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if any gate of a section that ran fails",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--sections",
        type=str,
        default=None,
        help=f"comma-separated subset of sections to run (default: all of {', '.join(names)})",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_inference.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args()

    sections = None
    if args.sections is not None:
        sections = {s.strip() for s in args.sections.split(",") if s.strip()}
        unknown = sections - set(names)
        if unknown:
            parser.error(
                f"unknown sections: {', '.join(sorted(unknown))} (choose from {', '.join(names)})"
            )

    results = run(smoke=args.smoke, seed=args.seed, sections=sections)
    results["targets"] = TARGETS
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    for section in SECTIONS:
        if section.name in results:
            print(
                f"[{results['scale']}] {section.name}: "
                f"{headline(results[section.name], section.headline)}"
            )
    print(f"report written to {args.output}")
    return check(results, SECTIONS) if args.check else 0


if __name__ == "__main__":
    raise SystemExit(main())
