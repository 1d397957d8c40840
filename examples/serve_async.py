#!/usr/bin/env python3
"""Async serving demo: concurrent clients over the continuous-batching engine.

Spins up an :class:`~repro.serving.AsyncEngine` (a background stepping
thread over the iteration-level decode engine) and drives it the way a
serving deployment would:

1. sixteen asyncio clients submit generation requests with staggered,
   Poisson-ish arrivals — each is admitted into the *running* batch at the
   next step boundary;
2. one client consumes its generation token by token through the async
   stream API while the others run;
3. one request is cancelled mid-decode and one carries a tight timeout —
   both retire at a step boundary and their KV rows are reclaimed;
4. one client brings a *long* prompt (~10x the others); the step that
   admits it prefills the whole prompt in one forward before decoding;
5. the engine drains, and the per-request SLA stats (queue, prefill,
   time-to-first-token), the prompt tokens prefilled and the async
   counters (parks, wakeups, peak queue depth) are printed.

Run:  PYTHONPATH=src python examples/serve_async.py
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro.flowbench import generate_dataset
from repro.models import DecoderLM, get_config
from repro.serving import AsyncEngine, EngineConfig, RequestCancelled, RequestTimeout
from repro.tokenization import LogTokenizer

NUM_CLIENTS = 16
MAX_NEW_TOKENS = 32
LONG_CLIENT = 4  # this client's prompt is ~10x the others


def build_model() -> tuple[DecoderLM, LogTokenizer, list[np.ndarray]]:
    """A small decoder LM over workflow-log sentences (no training needed)."""
    dataset = generate_dataset("1000genome", num_traces=2, seed=0)
    tokenizer = LogTokenizer.build_from_corpus(dataset.train.sentences())
    model = DecoderLM(get_config("gpt2"), tokenizer.vocab_size, rng=0)
    model.eval()
    sentences = dataset.train.sentences()
    rng = np.random.default_rng(7)
    prompts = [
        tokenizer.encode_causal(sentences[i % len(sentences)])[
            : int(rng.integers(6, 20))
        ]
        for i in range(NUM_CLIENTS)
    ]
    # One client arrives with a long prompt: its admission step spends one
    # long prefill forward before the running decodes step.
    prompts[LONG_CLIENT] = tokenizer.encode_causal(" ".join(sentences))[:160]
    return model, tokenizer, prompts


async def client(engine: AsyncEngine, i: int, prompt: np.ndarray, delay: float):
    """One serving client: arrive after ``delay``, generate, report timing."""
    await asyncio.sleep(delay)
    t0 = time.perf_counter()
    try:
        if i == 1:
            # This client streams: tokens arrive as the engine decodes them.
            tokens = []
            async for token in engine.stream(prompt, max_new_tokens=MAX_NEW_TOKENS):
                tokens.append(token)
            outcome = f"streamed {len(tokens)} tokens"
        elif i == 2:
            # This client gives up almost immediately.
            request = engine.submit(prompt, max_new_tokens=MAX_NEW_TOKENS)
            await asyncio.sleep(0.01)
            request.cancel()
            try:
                await request
                outcome = "finished before the cancel landed"
            except RequestCancelled as exc:
                outcome = f"cancelled after {len(exc.partial) - len(prompt)} tokens"
        elif i == 3:
            # This client carries a tight per-request timeout.
            try:
                await engine.generate(
                    prompt, max_new_tokens=MAX_NEW_TOKENS, timeout=0.05
                )
                outcome = "finished inside the timeout"
            except RequestTimeout as exc:
                outcome = f"timed out after {len(exc.partial) - len(prompt)} tokens"
        elif i == LONG_CLIENT:
            result = await engine.generate(prompt, max_new_tokens=MAX_NEW_TOKENS)
            outcome = (
                f"long prompt ({len(prompt)} tokens) prefilled, "
                f"generated {len(result) - len(prompt)}"
            )
        else:
            result = await engine.generate(prompt, max_new_tokens=MAX_NEW_TOKENS)
            outcome = f"generated {len(result) - len(prompt)} tokens"
    except Exception as exc:  # pragma: no cover - demo robustness
        outcome = f"failed: {exc}"
    wall = time.perf_counter() - t0
    print(f"  client {i:>2d}: {outcome:<38s} ({wall * 1000:7.1f} ms)")


async def serve(engine: AsyncEngine, prompts: list[np.ndarray]) -> None:
    arrival_rng = np.random.default_rng(11)
    delays = np.cumsum(arrival_rng.exponential(0.01, size=len(prompts)))
    await asyncio.gather(
        *(client(engine, i, p, float(delays[i])) for i, p in enumerate(prompts))
    )


def main() -> None:
    print("Building model and prompts...")
    model, _tokenizer, prompts = build_model()

    print(f"\nServing {NUM_CLIENTS} concurrent clients "
          f"(max_batch_rows=6, staggered arrivals):")
    engine = AsyncEngine(model, config=EngineConfig(max_batch_rows=6))
    t0 = time.perf_counter()
    asyncio.run(serve(engine, prompts))
    wall = time.perf_counter() - t0
    engine.shutdown(drain=True)

    stats = engine.stats
    sla = stats.sla_summary()
    print(f"\nServed {sla['requests']} requests in {wall:.2f}s "
          f"({stats.steps} decode steps, "
          f"{sla['mean_rows_per_step']:.2f} mean rows/step, "
          f"peak {sla['peak_rows']} rows)")
    print(f"  mean queue   : {sla['mean_queue_seconds'] * 1000:6.1f} ms")
    print(f"  mean prefill : {sla['mean_prefill_seconds'] * 1000:6.1f} ms")
    print(f"  mean TTFT    : {sla['mean_ttft_seconds'] * 1000:6.1f} ms")
    print(f"  prefilled    : {sla['prefill_tokens']} prompt tokens")
    print(f"  cancelled={sla['cancelled']} timeouts={sla['timeouts']} "
          f"parks={sla['parks']} wakeups={sla['wakeups']} "
          f"peak_queue_depth={sla['peak_queue_depth']}")


if __name__ == "__main__":
    main()
