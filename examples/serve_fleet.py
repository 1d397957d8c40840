#!/usr/bin/env python3
"""Replica-fleet demo: data-parallel serving with prefix-affinity routing.

Spins up a :class:`~repro.serving.ReplicaFleet` — N worker processes,
each owning a full replica (model, block allocator, prefix pool,
continuous-batching engine) — and drives it the way a multi-tenant
deployment would:

1. repeat traffic from several prompt *families* (shared template heads
   + fresh per-request tails) is submitted in passes; affinity routing
   digests each prompt's head and pins the family to the replica that
   already holds its pooled KV blocks, so later passes skip the head
   prefill entirely;
2. the same trace is replayed under round-robin routing, which scatters
   every family across all replicas — each pass re-prefills the head on
   a cold pool somewhere;
3. one family's pooled prefix is *migrated* between workers over the
   ``RKV1`` serialization format (bit-identical bytes, int8-safe) and
   the family re-pins to the receiving replica;
4. per-worker engine/pool stats and the router's placement counters are
   printed.

Run:  PYTHONPATH=src python examples/serve_fleet.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.flowbench import generate_dataset
from repro.models import DecoderLM, get_config
from repro.serving import EngineConfig, ReplicaFleet
from repro.tokenization import LogTokenizer

NUM_WORKERS = 2
# Odd family count: round-robin then rotates each family across both
# workers pass to pass (an even count would accidentally pin).
NUM_FAMILIES = 3
PASSES = 3
HEAD_TOKENS = 48
MAX_NEW_TOKENS = 12
AFFINITY_TOKENS = 32


def build_model() -> DecoderLM:
    """Deterministic replica builder — every worker rebuilds this exact
    model (module-level so it pickles into the worker processes)."""
    dataset = generate_dataset("1000genome", num_traces=2, seed=0)
    tokenizer = LogTokenizer.build_from_corpus(dataset.train.sentences())
    model = DecoderLM(get_config("gpt2"), tokenizer.vocab_size, rng=0)
    model.eval()
    return model


def build_trace() -> list[list[np.ndarray]]:
    """Repeat traffic: each pass re-visits every family with a fresh tail."""
    dataset = generate_dataset("1000genome", num_traces=2, seed=0)
    tokenizer = LogTokenizer.build_from_corpus(dataset.train.sentences())
    sentences = dataset.train.sentences()
    rng = np.random.default_rng(3)
    heads = [
        tokenizer.encode_causal(" ".join(sentences[f::NUM_FAMILIES]))[:HEAD_TOKENS]
        for f in range(NUM_FAMILIES)
    ]
    return [
        [
            np.concatenate(
                [heads[f], tokenizer.encode_causal(sentences[int(rng.integers(len(sentences)))])[: int(rng.integers(3, 8))]]
            )
            for f in range(NUM_FAMILIES)
        ]
        for _ in range(PASSES)
    ]


def serve(routing: str, passes: list[list[np.ndarray]]) -> None:
    with ReplicaFleet(
        build_model,
        NUM_WORKERS,
        routing=routing,
        affinity_tokens=AFFINITY_TOKENS,
        config=EngineConfig(max_batch_rows=4),
        pool_kwargs={"max_entries": 4},
    ) as fleet:
        t0 = time.perf_counter()
        tokens = 0
        for wave in passes:
            handles = [fleet.submit(p, MAX_NEW_TOKENS) for p in wave]
            fleet.drain()
            tokens += sum(len(h.result) - len(p) for h, p in zip(handles, wave))
        wall = time.perf_counter() - t0

        stats = fleet.worker_stats()
        hits = sum(w["pool"]["hits"] for w in stats)
        lookups = hits + sum(w["pool"]["misses"] for w in stats)
        print(f"\n{routing} routing: {tokens} tokens in {wall:.2f}s "
              f"({tokens / wall:.1f} tok/s), fleet-wide pool hit rate "
              f"{hits / max(1, lookups):.2f}")
        for i, w in enumerate(stats):
            print(f"  worker {i}: {w['finished']} requests, "
                  f"pool hits={w['pool']['hits']} misses={w['pool']['misses']} "
                  f"entries={w['pool_entries']}")
        rs = fleet.stats
        print(f"  router: pinned={rs.affinity_pinned} new={rs.affinity_new} "
              f"spills={rs.affinity_spills} round_robin={rs.round_robin}")

        if routing == "affinity":
            # Migrate one family's warm prefix to the other worker: the
            # pooled entry serializes to RKV1 bytes, installs on the
            # receiver, and the family re-pins there.
            prompt = passes[0][0]
            src = fleet.pinned_worker(prompt)
            dst = (src + 1) % NUM_WORKERS
            moved = fleet.migrate_prefix(prompt, src, dst)
            follow_up = fleet.submit(passes[-1][0], MAX_NEW_TOKENS)
            fleet.drain()
            print(f"  migrated family 0's {moved}-token prefix "
                  f"worker {src} -> {dst}; follow-up served by worker "
                  f"{follow_up.worker} reusing {follow_up.reused_tokens} tokens")


def main() -> None:
    print(f"Building trace: {NUM_FAMILIES} prompt families x {PASSES} passes, "
          f"{HEAD_TOKENS}-token shared heads, {NUM_WORKERS} workers...")
    passes = build_trace()
    serve("affinity", passes)
    serve("round_robin", passes)
    print("\nAffinity keeps each family's KV resident on one replica — the "
          "hit-rate gap above is the routed win.")


if __name__ == "__main__":
    main()
