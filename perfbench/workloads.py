"""The benchmark's three workloads, run inside one fresh worker process.

Each workload function builds its inputs from the seed, computes reference
outputs, warms up, calls ``ready()`` (which stamps the set-up time and, in
a traced run, installs the probes), measures for ``seconds`` and checks
every output it measured.  It returns raw samples; ``run.py`` pools them
across worker processes into the reported metrics.  NOTES.md says why each
workload exists and which layers it skips.
"""

from __future__ import annotations

import asyncio
import bisect
import itertools
import json
import time
from dataclasses import dataclass, field

import numpy as np

from harness import closed_loop, open_loop, percentile, poisson_offsets
from tracing import CURRENT_REQUEST, Tracer, self_times

from repro.flowbench import generate_dataset
from repro.icl import FewShotSelector, ICLEngine, PromptTemplate
from repro.models.config import get_config
from repro.models.decoder import DecodeBatch, DecoderLM, PrefixCachedScorer
from repro.nn.attention import MultiHeadAttention
from repro.nn.paged import BlockAllocator, PagedAttentionView
from repro.serving import (
    AsyncEngine,
    ContinuousBatchingEngine,
    EngineConfig,
    HttpServer,
    PrefixCachePool,
)
from repro.tokenization import LogTokenizer

# --------------------------------------------------------------------------- #
# Fixed workload constants.  Rates and limits were set once, when the
# benchmark was introduced, from capacity probes (see NOTES.md); never
# recalibrate them per run, or a faster program would just be offered more
# load.
# --------------------------------------------------------------------------- #
#: FlowBench traces simulated per run: ~330 test records, ~2.6k train.
DATA_TRACES = 24
#: In-context examples per prompt (~295-token prompts, ~268 shared).
ICL_SHOTS = 8
#: The fixed query set each ``evaluate`` call scores.
ICL_QUERIES = 256
#: Engines (sessions) sharing one prefix pool.
ICL_ENGINES = 4
#: Queries checked against the ``use_cache=False`` reference.
ICL_CHECK_QUERIES = 16
ICL_SCORE_TOLERANCE = 1e-5

SERVE_RATE = 18.0  # requests/s, open-loop Poisson
SERVE_PROMPTS = 16  # distinct prompts, cycled (the pool holds 8 entries)
SERVE_PROMPT_LEN = (12, 32)
SERVE_NEW_TOKENS = 64

HTTP_CALLERS = 1  # closed loop: callers each waiting for their verdict
HTTP_PROMPTS = 32  # distinct job tails, cycled (the pool holds 8 entries)
HTTP_NEW_TOKENS = 2
HTTP_HOST = "127.0.0.1"

#: Per-request latency limits (ms): time to first token, largest gap
#: between tokens.  A request meets its SLO only if it succeeds within both.
LIMITS_MS = {
    "icl_fewshot": {"ttft": 3000.0, "itl": 12.0},
    "serve_decode": {"ttft": 60.0, "itl": 50.0},
    "http_icl": {"ttft": 25.0, "itl": 10.0},
}
#: Warm-up traffic before timing starts (seconds of serving traffic).
WARMUP_SECONDS = 1.0


def _ms(seconds: float) -> float:
    return seconds * 1000.0


# --------------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------------- #
def build_world(seed: int) -> tuple:
    """FlowBench ``1000genome`` data, its tokenizer and a random-weight gpt2."""
    dataset = generate_dataset("1000genome", num_traces=DATA_TRACES, seed=seed)
    tokenizer = LogTokenizer.build_from_corpus(dataset.train.sentences())
    model = DecoderLM(get_config("gpt2"), tokenizer.vocab_size, rng=seed)
    model.eval()
    return dataset, tokenizer, model


class FixedExamples:
    """Selector that always returns the same in-context example block."""

    def __init__(self, examples) -> None:
        self.examples = list(examples)

    def select(self, k: int):
        return self.examples[:k]


def icl_inputs(seed: int, dataset):
    """One 8-shot example block and the fixed 256-query test set."""
    examples = FewShotSelector(
        dataset.train.records[:200], mode="mixed", seed=seed
    ).select(ICL_SHOTS)
    test = dataset.test.subsample(ICL_QUERIES, rng=seed)
    if len(test) != ICL_QUERIES:
        raise RuntimeError(f"test split holds {len(test)} < {ICL_QUERIES} queries")
    return FixedExamples(examples), test.records, test.labels()


# --------------------------------------------------------------------------- #
# traced-run probes
# --------------------------------------------------------------------------- #
@dataclass
class Probe:
    """Spans plus the few counts the traced run reads off wrapped calls."""

    tracer: Tracer = field(default_factory=Tracer)
    tokens_forwarded: int = 0
    kv_peak_bytes: int = 0
    #: prompt bytes -> harness request id, so engine-side records of an
    #: HTTP request (whose handler runs in the server's context) find it.
    request_of_prompt: dict = field(default_factory=dict)
    #: (request id, submit span, AsyncRequest, [future-done time])
    submits: list = field(default_factory=list)

    def install(self) -> None:
        wrap = self.tracer.wrap
        wrap(LogTokenizer, "encode_causal", "tokenization.encode")
        wrap(PromptTemplate, "build", "icl.build")
        wrap(DecoderLM, "sequence_log_prob", "decoder.sequence_log_prob")
        wrap(DecoderLM, "forward_incremental", "decoder.forward_incremental", self._forwarded)
        wrap(PrefixCachedScorer, "score_continuations", "decoder.prefix_scorer")
        wrap(DecodeBatch, "step", "decoder.step")
        wrap(MultiHeadAttention, "forward", "nn.attention")
        wrap(PagedAttentionView, "gather_kv", "nn.paged_gather")
        wrap(BlockAllocator, "gather_batch", "nn.gather_batch")
        wrap(PrefixCachePool, "checkout", "pool.checkout")
        wrap(PrefixCachePool, "checkin", "pool.checkin")
        wrap(ContinuousBatchingEngine, "step", "engine.step")
        wrap(AsyncEngine, "submit", "aio.submit", self._submitted)

    def close(self) -> None:
        self.tracer.close()

    def register(self, prompt_ids: np.ndarray, request_id: int) -> None:
        key = np.asarray(prompt_ids, dtype=np.int64).tobytes()
        self.request_of_prompt[key] = request_id

    def _forwarded(self, span, args, kwargs, result) -> None:
        self.tokens_forwarded += int(np.asarray(args[1]).size)
        cache = args[2] if len(args) > 2 else kwargs["cache"]
        self.kv_peak_bytes = max(self.kv_peak_bytes, int(cache.kv_bytes()))

    def _submitted(self, span, args, kwargs, result) -> None:
        key = np.asarray(args[1], dtype=np.int64).tobytes()
        done: list[float] = []
        result.future.add_done_callback(lambda _f: done.append(time.perf_counter()))
        self.submits.append((self.request_of_prompt.get(key), span, result, done))


def _total_ms(spans) -> float:
    return sum(span.duration for span in spans) / 1e6


def _p(samples, q: float) -> float:
    """Percentile of a layer's samples; 0 when the layer never ran."""
    return percentile(samples, q) if samples else 0.0


def layer_metrics(
    probe: Probe,
    *,
    queries: int,
    pool_before: dict,
    pool_after: dict,
    engine_before: tuple[int, int] = (0, 0),
    engine_after: tuple[int, int] = (0, 0),
    token_receipts: list[float] = (),
    http_requests: list[dict] = (),
    http_shed: int = 0,
) -> dict:
    """Per-layer figures of one traced window (see NOTES.md for units).

    Busy times and counts are per completed query, so windows of different
    length compare; step and wait figures are distributions over steps or
    requests.
    """
    tracer = probe.tracer
    per_query = 1.0 / max(queries, 1)
    engine_steps = tracer.named("engine.step")
    self_ns = self_times(tracer.spans)
    step_ends = sorted(span.end / 1e9 for span in engine_steps)
    publish_lags = []
    for received in token_receipts:
        i = bisect.bisect_right(step_ends, received)
        if i:
            publish_lags.append(_ms(received - step_ends[i - 1]))
    queue_waits = [
        _ms(request.engine_request.queue_seconds)
        for _, _, request, _ in probe.submits
        if request.engine_request is not None
        and request.engine_request.queue_seconds is not None
    ]
    submit_at = {rid: span.start / 1e9 for rid, span, _, _ in probe.submits}
    done_at = {rid: done[0] for rid, _, _, done in probe.submits if done}
    parse_admit = [
        _ms(submit_at[r["id"]] - r["sent"]) for r in http_requests if r["id"] in submit_at
    ]
    response = [
        _ms(r["done"] - done_at[r["id"]])
        for r in http_requests
        if r["id"] in done_at and r.get("done") is not None
    ]
    pool_requests = (pool_after["hits"] + pool_after["misses"]) - (
        pool_before["hits"] + pool_before["misses"]
    )
    steps = engine_after[0] - engine_before[0]
    return {
        "tokenization.encode_ms": _total_ms(tracer.named("tokenization.encode")) * per_query,
        "icl.build_ms": _total_ms(tracer.named("icl.build")) * per_query,
        "icl.fallback_queries": len(tracer.named("decoder.sequence_log_prob")) // 2,
        "decoder.forward_incremental_ms": _total_ms(
            tracer.named("decoder.forward_incremental")
        )
        * per_query,
        "decoder.forward_incremental_calls": len(
            tracer.named("decoder.forward_incremental")
        )
        * per_query,
        "decoder.tokens_forwarded": probe.tokens_forwarded * per_query,
        "nn.attention_ms": _total_ms(tracer.named("nn.attention")) * per_query,
        "decoder.step_ms_p50": _p(
            [span.duration / 1e6 for span in tracer.named("decoder.step")], 50
        ),
        "nn.paged_gather_ms": _total_ms(tracer.named("nn.paged_gather")) * per_query,
        "nn.kv_peak_bytes": probe.kv_peak_bytes,
        "engine.step_ms_p50": _p([span.duration / 1e6 for span in engine_steps], 50),
        "engine.step_ms_p99": _p([span.duration / 1e6 for span in engine_steps], 99),
        "engine.step_self_ms": (
            sum(self_ns[span.sid] for span in engine_steps) / 1e6 / len(engine_steps)
            if engine_steps
            else 0.0
        ),
        "engine.rows_per_step": (
            (engine_after[1] - engine_before[1]) / steps if steps else 0.0
        ),
        "engine.queue_wait_ms_p50": _p(queue_waits, 50),
        "engine.queue_wait_ms_p90": _p(queue_waits, 90),
        "pool.hit_rate": (
            (pool_after["hits"] - pool_before["hits"]) / pool_requests
            if pool_requests
            else 0.0
        ),
        "pool.tokens_reused": (pool_after["tokens_reused"] - pool_before["tokens_reused"])
        * per_query,
        "pool.tokens_prefilled": (
            pool_after["tokens_prefilled"] - pool_before["tokens_prefilled"]
        )
        * per_query,
        "pool.evictions": (pool_after["evictions"] - pool_before["evictions"]) * per_query,
        "pool.checkout_ms": _total_ms(tracer.named("pool.checkout")) * per_query,
        "pool.checkin_ms": _total_ms(tracer.named("pool.checkin")) * per_query,
        "aio.publish_lag_ms_p50": _p(publish_lags, 50),
        "http.parse_admit_ms": _p(parse_admit, 50),
        "http.response_ms": _p(response, 50),
        "http.shed": http_shed,
    }


def _engine_counts(engine: AsyncEngine) -> tuple[int, int]:
    return engine.stats.steps, engine.stats.row_steps


# --------------------------------------------------------------------------- #
# icl_fewshot: closed-loop pooled ICL scoring on one thread
# --------------------------------------------------------------------------- #
def icl_fewshot(seed: int, seconds: float, ready, part: int) -> dict:
    dataset, tokenizer, model = build_world(seed)
    selector, queries, labels = icl_inputs(seed, dataset)
    pool = PrefixCachePool(model)
    engines = [ICLEngine(model, tokenizer, cache_pool=pool) for _ in range(ICL_ENGINES)]
    checked = queries[:ICL_CHECK_QUERIES]
    reference = ICLEngine(model, tokenizer, use_cache=False).classify_batch(
        checked, selector=selector, num_examples=ICL_SHOTS
    )
    # Warm-up fills the pool with the shared example block; every timed
    # evaluation of the same queries must reproduce its report.
    expected = engines[0].evaluate(
        queries, labels, selector=selector, num_examples=ICL_SHOTS
    ).as_dict()

    probe = ready()
    pool_before = pool.stats.as_dict()
    errors: list[str] = []
    ttft, itl, slo_met, completed = [], [], 0, 0
    limits = LIMITS_MS["icl_fewshot"]
    start = time.perf_counter()
    deadline = start + seconds
    j = 0
    while time.perf_counter() < deadline:
        engine = engines[j % ICL_ENGINES]
        token = CURRENT_REQUEST.set(j)
        t0 = time.perf_counter()
        report = engine.evaluate(queries, labels, selector=selector, num_examples=ICL_SHOTS)
        t1 = time.perf_counter()
        CURRENT_REQUEST.reset(token)
        if probe is not None:
            probe.tracer.add("harness.request", t0, t1, j)
        if report.as_dict() != expected:
            errors.append(f"call {j}: report {report.as_dict()} != {expected}")
        # Every query of a call waits for the whole call: its time to verdict
        # is the call's latency, and the verdicts arrive latency/n apart.
        latency = _ms(t1 - t0)
        n = len(queries)
        ttft.extend([latency] * n)
        itl.extend([latency / n] * n)
        if latency <= limits["ttft"] and latency / n <= limits["itl"]:
            slo_met += n
        completed += n
        j += 1
    window = time.perf_counter() - start
    pool_after = pool.stats.as_dict()
    layers = None
    if probe is not None:
        probe.close()
        layers = layer_metrics(
            probe, queries=completed, pool_before=pool_before, pool_after=pool_after
        )

    # Outputs of the warm pooled path against the uncached reference.
    pooled = engines[j % ICL_ENGINES].classify_batch(
        checked, selector=selector, num_examples=ICL_SHOTS
    )
    for i, (got, ref) in enumerate(zip(pooled, reference)):
        diff = max(
            abs(got.log_prob_normal - ref.log_prob_normal),
            abs(got.log_prob_abnormal - ref.log_prob_abnormal),
        )
        if got.label != ref.label or diff > ICL_SCORE_TOLERANCE:
            errors.append(
                f"query {i}: label {got.label} vs reference {ref.label}, "
                f"score diff {diff:.3g}"
            )
    return {
        "attempted": completed,
        "failed": 0,
        "completed": completed,
        "window_s": window,
        "ttft_ms": ttft,
        "itl_ms": itl,
        "slo_met": slo_met,
        "gen_lag_ms": [],
        "errors": errors,
        "layers": layers,
    }


# --------------------------------------------------------------------------- #
# serving workloads
# --------------------------------------------------------------------------- #
def _schedule(rate: float, seconds: float, seed: int, part: int) -> tuple[list, list]:
    """Warm-up and measured arrival offsets of one worker process.

    Each worker of a run measures its own stretch of the seed's traffic,
    so a run pools several independent Poisson realisations, not one
    repeated.
    """
    base = 1000 * seed + 2 * part
    return (
        poisson_offsets(rate, WARMUP_SECONDS, base + 1),
        poisson_offsets(rate, seconds, base),
    )


def _serving_summary(name: str, outcomes, references) -> dict:
    """Latency samples, SLO count and correctness of one serving window.

    Each outcome is ``(due, prompt_index, tokens, receipt_times)`` or an
    exception.  ``due`` is when the request was due (open loop) or sent
    (closed loop).  Failed requests count as SLO misses.
    """
    limits = LIMITS_MS[name]
    ttft, itl, receipts, errors = [], [], [], []
    failed = slo_met = 0
    for i, outcome in enumerate(outcomes):
        if isinstance(outcome, BaseException) or not outcome[3]:
            failed += 1
            continue
        due, k, tokens, times = outcome
        want = references[k]
        if tokens != want:
            errors.append(f"request {i}: tokens {tokens} != reference {want}")
        first = _ms(times[0] - due)
        gaps = [_ms(b - a) for a, b in zip(times, times[1:])]
        ttft.append(first)
        itl.extend(gaps)
        receipts.extend(times)
        if first <= limits["ttft"] and max(gaps, default=0.0) <= limits["itl"]:
            slo_met += 1
    return {
        "attempted": len(outcomes),
        "failed": failed,
        "completed": len(outcomes) - failed,
        "ttft_ms": ttft,
        "itl_ms": itl,
        "slo_met": slo_met,
        "errors": errors,
        "receipts": receipts,
    }


class _Window:
    """The probe of the timed window (``None`` during warm-up or untraced)."""

    probe: Probe | None = None


async def _serving_window(
    name: str,
    engine: AsyncEngine,
    warm_up,
    timed,
    ready,
    references,
    window: _Window,
    http_layer=dict,
) -> dict:
    """Run ``warm_up()``, then time ``timed()``; both return
    ``(start, generator_lags, outcomes)``.

    ``http_layer()`` returns the HTTP figures of the traced window.
    """
    warm_errors = _serving_summary(name, (await warm_up())[2], references)["errors"]
    window.probe = ready()
    pool_before = engine.cache_pool.stats.as_dict()
    counts_before = _engine_counts(engine)
    start, lags, outcomes = await timed()
    elapsed = time.perf_counter() - start
    pool_after = engine.cache_pool.stats.as_dict()
    counts_after = _engine_counts(engine)
    summary = _serving_summary(name, outcomes, references)
    summary["errors"] = warm_errors + summary["errors"]
    layers = None
    if window.probe is not None:
        window.probe.close()
        layers = layer_metrics(
            window.probe,
            queries=summary["completed"],
            pool_before=pool_before,
            pool_after=pool_after,
            engine_before=counts_before,
            engine_after=counts_after,
            token_receipts=summary["receipts"],
            **http_layer(),
        )
    del summary["receipts"]
    summary.update(window_s=elapsed, gen_lag_ms=[_ms(x) for x in lags], layers=layers)
    return summary


def serve_decode(seed: int, seconds: float, ready, part: int) -> dict:
    _, tokenizer, model = build_world(seed)
    rng = np.random.default_rng(seed)
    # Uniform random tokens after the special ids (which come first): no
    # two prompts share a prefix the pool could reuse, so its traffic is
    # check-ins and evictions only.
    low = len(tokenizer.vocab.special.all())
    prompts = [
        rng.integers(low, tokenizer.vocab_size, size=int(rng.integers(*SERVE_PROMPT_LEN) + 1))
        for _ in range(SERVE_PROMPTS)
    ]
    references = [
        [int(t) for t in model.generate(p, SERVE_NEW_TOKENS)[len(p) :]] for p in prompts
    ]
    return asyncio.run(_serve_decode(seed, seconds, ready, part, model, prompts, references))


async def _serve_decode(seed, seconds, ready, part, model, prompts, references) -> dict:
    engine = AsyncEngine(model, config=EngineConfig(kv_layout="paged"))
    window = _Window()
    # One cycle through the prompts across warm-up and window, so no prompt
    # recurs while its last pool entry could still be resident.
    order = itertools.count()

    async def send(i: int, due: float):
        k = next(order) % len(prompts)
        prompt = prompts[k]
        if window.probe is not None:
            CURRENT_REQUEST.set(i)
            window.probe.register(prompt, i)
        tokens, times = [], []
        async for token in engine.stream(prompt, SERVE_NEW_TOKENS):
            times.append(time.perf_counter())
            tokens.append(int(token))
        if window.probe is not None:
            window.probe.tracer.add("harness.request", due, time.perf_counter(), i)
        return due, k, tokens, times

    warm_offsets, offsets = _schedule(SERVE_RATE, seconds, seed, part)
    try:
        return await _serving_window(
            "serve_decode",
            engine,
            lambda: open_loop(warm_offsets, send),
            lambda: open_loop(offsets, send),
            ready,
            references,
            window,
        )
    finally:
        await asyncio.get_running_loop().run_in_executor(None, engine.shutdown)


def http_icl(seed: int, seconds: float, ready, part: int) -> dict:
    dataset, tokenizer, model = build_world(seed)
    selector, _, _ = icl_inputs(seed, dataset)
    template = ICLEngine(model, tokenizer).template
    examples = selector.select(ICL_SHOTS)
    # Job tails from records outside the example pool, so each prompt is the
    # shared 8-shot block plus a tail no other pooled prompt has.
    jobs = dataset.train.records[200 : 200 + HTTP_PROMPTS]
    prompts = [tokenizer.encode_causal(template.build(job, examples)) for job in jobs]
    references = [
        [int(t) for t in model.generate(p, HTTP_NEW_TOKENS)[len(p) :]] for p in prompts
    ]
    bodies = [
        json.dumps(
            {"prompt_ids": [int(t) for t in p], "max_new_tokens": HTTP_NEW_TOKENS, "stream": True}
        ).encode()
        for p in prompts
    ]
    return asyncio.run(
        _http_icl(seconds, ready, model, prompts, bodies, references)
    )


async def _sse_generate(port: int, body: bytes) -> dict:
    """One streamed ``POST /v1/generate``; token frames timed on receipt."""
    clock = time.perf_counter
    reader, writer = await asyncio.open_connection(HTTP_HOST, port)
    try:
        head = (
            f"POST /v1/generate HTTP/1.1\r\nHost: {HTTP_HOST}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        sent = clock()
        writer.write(head + body)
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        while (await reader.readline()) not in (b"\r\n", b"\n", b""):
            pass
        result = {"status": status, "sent": sent, "tokens": [], "times": [], "done": None}
        if status != 200:
            return result
        while True:
            line = await reader.readline()
            if not line:
                raise ConnectionError("stream closed before [DONE]")
            if not line.startswith(b"data: "):
                continue
            payload = line[6:].strip()
            if payload == b"[DONE]":
                result["done"] = clock()
                return result
            frame = json.loads(payload)
            if "token" in frame:
                result["times"].append(clock())
                result["tokens"].append(int(frame["token"]))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


async def _http_icl(seconds, ready, model, prompts, bodies, references) -> dict:
    engine = AsyncEngine(model)
    server = HttpServer(engine, host=HTTP_HOST, port=0)
    window = _Window()
    records: list[dict] = []  # responses of the traced window
    order = itertools.count()  # as in serve_decode

    async def send(i: int, sent: float):
        k = next(order) % len(prompts)
        if window.probe is not None:
            window.probe.register(prompts[k], i)
        result = await _sse_generate(server.port, bodies[k])
        if window.probe is not None:
            records.append(dict(result, id=i))
        if result["status"] != 200:
            raise RuntimeError(f"HTTP {result['status']}")
        if window.probe is not None:
            window.probe.tracer.add("harness.request", sent, result["done"], i)
        return sent, k, result["tokens"], result["times"]

    def http_layer() -> dict:
        return {
            "http_requests": records,
            "http_shed": sum(1 for r in records if r["status"] in (429, 503)),
        }

    async def calls(duration: float):
        start, outcomes = await closed_loop(HTTP_CALLERS, duration, send)
        return start, [], outcomes

    await server.start()
    try:
        return await _serving_window(
            "http_icl",
            engine,
            lambda: calls(WARMUP_SECONDS),
            lambda: calls(seconds),
            ready,
            references,
            window,
            http_layer,
        )
    finally:
        await server.stop()
        await asyncio.get_running_loop().run_in_executor(None, engine.shutdown)


WORKLOADS = {
    "icl_fewshot": icl_fewshot,
    "serve_decode": serve_decode,
    "http_icl": http_icl,
}
