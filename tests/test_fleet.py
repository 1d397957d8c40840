"""Tests for the data-parallel replica fleet (:mod:`repro.serving.fleet`).

Pins the multi-process serving contracts:

* fleet greedy outputs are token-identical to a single in-process engine
  built from the same deterministic builder, whichever replica serves each
  request;
* prefix-affinity routing pins a prompt family to one replica (and its
  pool hit rate beats round-robin on repeat traffic), with load-aware
  spill when the pinned replica is saturated;
* warm-prefix migration moves a serialized pool entry between workers and
  re-pins the family to the receiving replica;
* shutdown hygiene — ``close`` is idempotent, leaves no orphaned worker
  processes (the CI assertion), and a builder that dies in the worker
  surfaces as a startup error rather than a hang.
"""

from __future__ import annotations

import multiprocessing as mp

import numpy as np
import pytest

from repro.models import DecoderLM, get_config
from repro.serving import (
    ContinuousBatchingEngine,
    EngineConfig,
    PrefixCachePool,
    ReplicaFleet,
)

VOCAB = 64


def _build_model() -> DecoderLM:
    """Module-level (picklable) deterministic replica builder."""
    model = DecoderLM(get_config("gpt2"), VOCAB, rng=0)
    model.eval()
    return model


def _fleet_children() -> list:
    return [p for p in mp.active_children() if p.name.startswith("fleet-worker")]


@pytest.fixture(autouse=True)
def no_orphaned_workers():
    """Every test must leave zero fleet worker processes behind."""
    assert _fleet_children() == []
    yield
    assert _fleet_children() == []


def family_trace(rng, num_families: int, passes: int, head: int = 24, tail: int = 4):
    """Repeat-traffic waves: shared per-family heads, fresh tails per pass."""
    heads = [rng.integers(1, VOCAB, size=head) for _ in range(num_families)]
    return [
        [
            np.concatenate([heads[f], rng.integers(1, VOCAB, size=tail)])
            for f in range(num_families)
        ]
        for _ in range(passes)
    ]


class TestFleetServing:
    def test_greedy_outputs_token_identical_to_single_engine(self):
        rng = np.random.default_rng(0)
        prompts = [rng.integers(1, VOCAB, size=n) for n in (5, 17, 9, 26, 12, 21)]

        model = _build_model()
        engine = ContinuousBatchingEngine(
            model,
            cache_pool=PrefixCachePool(model),
            config=EngineConfig(max_batch_rows=4),
        )
        requests = [engine.submit(p, max_new_tokens=8) for p in prompts]
        engine.drain()
        reference = [r.result for r in requests]

        with ReplicaFleet(
            _build_model, 2, config=EngineConfig(max_batch_rows=4)
        ) as fleet:
            outputs = fleet.generate(prompts, max_new_tokens=8)
        for got, want in zip(outputs, reference):
            np.testing.assert_array_equal(got, want)

    def test_affinity_pins_families_and_outhits_round_robin(self):
        # Three families over two workers: round-robin rotates each family
        # across replicas pass to pass, affinity pins it where its KV lives.
        passes = family_trace(np.random.default_rng(1), num_families=3, passes=3)

        def serve(routing: str) -> tuple[int, list[int]]:
            with ReplicaFleet(
                _build_model,
                2,
                routing=routing,
                affinity_tokens=16,  # inside the 24-token shared head
                config=EngineConfig(max_batch_rows=4),
                pool_kwargs={"max_entries": 4},
            ) as fleet:
                handles = []
                for wave in passes:
                    handles.extend(fleet.submit(p, 4) for p in wave)
                    fleet.drain()
                hits = sum(w["pool"]["hits"] for w in fleet.worker_stats())
                return hits, [h.worker for h in handles]

        affinity_hits, affinity_workers = serve("affinity")
        round_robin_hits, _ = serve("round_robin")
        # Each family is pinned: all its requests landed on one worker.
        for f in (0, 1, 2):
            family = affinity_workers[f::3]
            assert len(set(family)) == 1
        assert affinity_hits > round_robin_hits

    def test_saturated_pin_spills_to_least_loaded(self):
        rng = np.random.default_rng(2)
        head = rng.integers(1, VOCAB, size=24)
        prompts = [
            np.concatenate([head, rng.integers(1, VOCAB, size=3)]) for _ in range(3)
        ]
        with ReplicaFleet(
            _build_model, 2, affinity_tokens=16, spill_threshold=1
        ) as fleet:
            first = fleet.submit(prompts[0], 4)
            second = fleet.submit(prompts[1], 4)  # pin saturated -> other worker
            fleet.drain()
            third = fleet.submit(prompts[2], 4)  # pin idle again -> back home
            fleet.drain()
        assert second.worker != first.worker
        assert third.worker == first.worker
        assert fleet.stats.affinity_new == 1
        assert fleet.stats.affinity_spills == 1
        assert fleet.stats.affinity_pinned == 1

    def test_migrate_prefix_moves_entry_and_repins(self):
        rng = np.random.default_rng(3)
        head = rng.integers(1, VOCAB, size=24)
        prompt = np.concatenate([head, rng.integers(1, VOCAB, size=4)])
        with ReplicaFleet(_build_model, 2, affinity_tokens=16) as fleet:
            fleet.generate([prompt], 4)
            src = fleet.pinned_worker(prompt)
            dst = 1 - src
            moved = fleet.migrate_prefix(prompt, src, dst)
            assert moved == len(prompt)  # the pooled prompt prefill moved whole
            assert fleet.pinned_worker(prompt) == dst
            assert fleet.worker_stats()[dst]["pool_entries"] == 1
            # Repeat traffic now lands on (and hits) the receiving replica.
            follow_up = fleet.submit(
                np.concatenate([head, rng.integers(1, VOCAB, size=4)]), 4
            )
            fleet.drain()
            assert follow_up.worker == dst
            assert follow_up.reused_tokens >= len(head)

    def test_export_prefix_returns_none_when_nothing_pooled(self):
        with ReplicaFleet(_build_model, 1) as fleet:
            prompt = np.arange(1, 20)
            assert fleet.export_prefix(prompt, 0) is None
            assert fleet.migrate_prefix(prompt, 0, 0) == 0


class TestFleetLifecycle:
    def test_close_is_idempotent_and_rejects_further_work(self):
        fleet = ReplicaFleet(_build_model, 2)
        fleet.generate([np.arange(1, 9)], 4)
        fleet.close()
        fleet.close()
        assert _fleet_children() == []
        with pytest.raises(RuntimeError, match="closed"):
            fleet.submit(np.arange(1, 9), 4)
        with pytest.raises(RuntimeError, match="closed"):
            fleet.worker_stats()

    def test_failing_builder_surfaces_at_startup_without_orphans(self):
        with pytest.raises(RuntimeError, match="failed to start"):
            ReplicaFleet(_broken_builder, 2, startup_timeout=60.0)
        assert _fleet_children() == []

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="num_workers"):
            ReplicaFleet(_build_model, 0)
        with pytest.raises(ValueError, match="routing"):
            ReplicaFleet(_build_model, 1, routing="random")
        with pytest.raises(ValueError, match="spill_threshold"):
            ReplicaFleet(_build_model, 1, spill_threshold=0)


def _broken_builder():
    raise RuntimeError("boom")
