"""Property tests for the KV-checkpoint wire format (``RKV1``).

The serialization layer (:mod:`repro.nn.serialization`,
:meth:`~repro.nn.KVCache.serialize`, :meth:`~repro.nn.PagedKVCache.serialize`,
pool-entry export/import in :mod:`repro.serving.pool`) is what lets a warm
prefix migrate between fleet workers and pools warm-start from disk.  Pinned
here:

* round-trip parity — dense fp32, paged fp32 and paged int8 caches restore
  with identical persisted content, and a re-export reproduces the *exact
  input bytes* (int8 codes + scales travel verbatim; quantization is never
  re-run);
* capacity independence — the donor's allocation slack is not part of the
  checkpoint, so restoring at a different capacity re-exports identically;
* restored-entry behaviour — an engine whose pool was warm-started from an
  imported entry emits greedy tokens identical to plain cached generation,
  while actually hitting the restored prefix;
* block hygiene — restoring and releasing paged checkpoints returns the
  allocator to its baseline ``blocks_in_use`` (no leaked or double-freed
  blocks), and a corrupt checkpoint leaks nothing;
* rejection — *any* strict prefix of a valid checkpoint, bad magic,
  undeclared trailing bytes, wrong ``kind`` and layout/dtype mismatches all
  raise ``ValueError`` mentioning ``corrupt KV checkpoint`` (or the
  specific mismatch) instead of dying inside numpy.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models import DecoderLM, get_config
from repro.nn import BlockAllocator, KVCache, PagedKVCache
from repro.nn.serialization import MAGIC, peek_kind
from repro.serving import ContinuousBatchingEngine, EngineConfig, PrefixCachePool

VOCAB = 64
NUM_LAYERS = 2
NUM_HEADS = 2
HEAD_DIM = 4
BLOCK_SIZE = 4


@pytest.fixture(scope="module")
def model():
    m = DecoderLM(get_config("gpt2"), VOCAB, rng=0)
    m.eval()
    return m


def fill_dense(rng, batch: int, width: int, capacity: int | None = None) -> KVCache:
    cache = KVCache(NUM_LAYERS, batch, NUM_HEADS, HEAD_DIM, capacity or width)
    for layer in cache.layers:
        k = rng.normal(size=(batch, NUM_HEADS, width, HEAD_DIM)).astype(np.float32)
        v = rng.normal(size=(batch, NUM_HEADS, width, HEAD_DIM)).astype(np.float32)
        layer.append(k, v)
    return cache


def fill_paged(rng, allocator, batch: int, width: int) -> PagedKVCache:
    cache = PagedKVCache(NUM_LAYERS, batch, allocator, width)
    for layer in cache.layers:
        k = rng.normal(size=(batch, NUM_HEADS, width, HEAD_DIM)).astype(np.float32)
        v = rng.normal(size=(batch, NUM_HEADS, width, HEAD_DIM)).astype(np.float32)
        layer.append(k, v)
    return cache


def assert_same_content(a, b) -> None:
    assert a.length == b.length
    assert a.batch_size == b.batch_size
    for layer_a, layer_b in zip(a.layers, b.layers):
        for row in range(a.batch_size):
            ka, va = layer_a.read_span(row, 0, a.length)
            kb, vb = layer_b.read_span(row, 0, b.length)
            np.testing.assert_array_equal(ka, kb)
            np.testing.assert_array_equal(va, vb)


# ---------------------------------------------------------------------- #
# dense round trip
# ---------------------------------------------------------------------- #
class TestDenseRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        batch=st.integers(1, 3),
        width=st.integers(1, 24),
    )
    def test_round_trip_is_byte_identical(self, seed, batch, width):
        rng = np.random.default_rng(seed)
        cache = fill_dense(rng, batch, width)
        blob = cache.serialize()
        assert peek_kind(blob) == "kv-dense"
        restored = KVCache.deserialize(blob)
        assert_same_content(cache, restored)
        assert restored.serialize() == blob

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**16), extra=st.integers(0, 32))
    def test_capacity_slack_is_not_part_of_the_checkpoint(self, seed, extra):
        rng = np.random.default_rng(seed)
        blob = fill_dense(rng, 2, 9, capacity=9 + extra).serialize()
        restored = KVCache.deserialize(blob, capacity=9 + (extra * 3) % 17)
        assert restored.serialize() == blob

    def test_restore_capacity_must_hold_the_snapshot(self):
        blob = fill_dense(np.random.default_rng(0), 1, 8).serialize()
        with pytest.raises(ValueError, match="capacity"):
            KVCache.deserialize(blob, capacity=4)


# ---------------------------------------------------------------------- #
# paged round trip (fp32 and int8)
# ---------------------------------------------------------------------- #
class TestPagedRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        batch=st.integers(1, 3),
        width=st.integers(1, 3 * BLOCK_SIZE + 2),
        kv_dtype=st.sampled_from(["fp32", "int8"]),
    )
    def test_round_trip_is_byte_identical_and_leaks_nothing(
        self, seed, batch, width, kv_dtype
    ):
        rng = np.random.default_rng(seed)
        allocator = BlockAllocator(
            NUM_HEADS, HEAD_DIM, block_size=BLOCK_SIZE, kv_dtype=kv_dtype
        )
        cache = fill_paged(rng, allocator, batch, width)
        blob = cache.serialize()
        assert peek_kind(blob) == "kv-paged"
        baseline = allocator.blocks_in_use

        restored = PagedKVCache.deserialize(blob, allocator)
        # int8 codes + scales travel verbatim: the persisted bytes are
        # bit-identical to the donor's, so re-export reproduces the input.
        assert restored.serialize() == blob
        assert_same_content(cache, restored)

        restored.release()
        assert allocator.blocks_in_use == baseline
        cache.release()
        assert allocator.blocks_in_use == 0

    def test_mismatched_allocator_geometry_is_rejected_without_leaking(self):
        allocator = BlockAllocator(NUM_HEADS, HEAD_DIM, block_size=BLOCK_SIZE)
        blob = fill_paged(np.random.default_rng(3), allocator, 1, 10).serialize()
        other = BlockAllocator(NUM_HEADS, HEAD_DIM, block_size=BLOCK_SIZE * 2)
        with pytest.raises(ValueError, match="does not match"):
            PagedKVCache.deserialize(blob, other)
        assert other.blocks_in_use == 0
        mismatched = BlockAllocator(
            NUM_HEADS, HEAD_DIM, block_size=BLOCK_SIZE, kv_dtype="int8"
        )
        with pytest.raises(ValueError, match="does not match"):
            PagedKVCache.deserialize(blob, mismatched)
        assert mismatched.blocks_in_use == 0

    def test_wrong_kind_is_rejected(self):
        allocator = BlockAllocator(NUM_HEADS, HEAD_DIM, block_size=BLOCK_SIZE)
        dense_blob = fill_dense(np.random.default_rng(5), 1, 6).serialize()
        with pytest.raises(ValueError, match="corrupt KV checkpoint"):
            PagedKVCache.deserialize(dense_blob, allocator)
        assert allocator.blocks_in_use == 0
        paged_blob = fill_paged(np.random.default_rng(5), allocator, 1, 6).serialize()
        with pytest.raises(ValueError, match="corrupt KV checkpoint"):
            KVCache.deserialize(paged_blob)


# ---------------------------------------------------------------------- #
# corrupt-bytes rejection
# ---------------------------------------------------------------------- #
class TestCorruptRejection:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), frac=st.floats(0.0, 1.0, exclude_max=True))
    def test_every_strict_prefix_is_rejected(self, seed, frac):
        """Truncation at *any* byte offset raises the clear ValueError."""
        blob = fill_dense(np.random.default_rng(seed), 1, 7).serialize()
        cut = int(frac * len(blob))
        with pytest.raises(ValueError, match="corrupt KV checkpoint"):
            KVCache.deserialize(blob[:cut])

    def test_bad_magic_and_trailing_bytes_are_rejected(self):
        blob = fill_dense(np.random.default_rng(1), 1, 5).serialize()
        with pytest.raises(ValueError, match="bad magic"):
            KVCache.deserialize(b"XXXX" + blob[4:])
        assert blob[:4] == MAGIC
        with pytest.raises(ValueError, match="trailing bytes"):
            KVCache.deserialize(blob + b"\x00\x01")
        with pytest.raises(ValueError, match="corrupt KV checkpoint"):
            KVCache.deserialize(b"")


# ---------------------------------------------------------------------- #
# pool-entry export / import
# ---------------------------------------------------------------------- #
POOL_CONFIGS = [("dense", "fp32"), ("paged", "fp32"), ("paged", "int8")]


def prefill_pool(model, pool, prompt):
    cache, reused = pool.checkout(prompt)
    assert reused == 0
    from repro.tensor import no_grad

    with no_grad():
        model.forward_incremental(prompt[None, :], cache, logit_columns=[-1])
    pool.checkin(prompt, cache)


class TestPoolEntryRoundTrip:
    @pytest.mark.parametrize("kv_layout,kv_dtype", POOL_CONFIGS)
    def test_export_import_reexport_is_byte_identical(self, model, kv_layout, kv_dtype):
        rng = np.random.default_rng(11)
        prompt = rng.integers(1, VOCAB, size=24)
        donor = PrefixCachePool(model, kv_layout=kv_layout, kv_dtype=kv_dtype)
        prefill_pool(model, donor, prompt)

        blob = donor.export_entry(prompt)
        assert blob is not None
        assert peek_kind(blob) == "pool-entry"

        receiver = PrefixCachePool(model, kv_layout=kv_layout, kv_dtype=kv_dtype)
        assert receiver.import_entry(blob) == len(prompt)
        assert len(receiver) == 1
        # The restored entry's persisted KV is bit-identical to the donor's:
        # a re-export reproduces the exact bytes (the int8 case would fail
        # here if import re-quantized instead of shipping codes verbatim).
        assert receiver.export_entry(prompt) == blob

    @pytest.mark.parametrize("kv_layout,kv_dtype", POOL_CONFIGS)
    def test_restored_entry_serves_greedy_identical_tokens(
        self, model, kv_layout, kv_dtype
    ):
        rng = np.random.default_rng(23)
        head = rng.integers(1, VOCAB, size=24)
        prompt = np.concatenate([head, rng.integers(1, VOCAB, size=5)])

        donor = PrefixCachePool(model, kv_layout=kv_layout, kv_dtype=kv_dtype)
        prefill_pool(model, donor, head)
        blob = donor.export_entry(head)

        receiver = PrefixCachePool(model, kv_layout=kv_layout, kv_dtype=kv_dtype)
        receiver.import_entry(blob)
        engine = ContinuousBatchingEngine(
            model,
            cache_pool=receiver,
            config=EngineConfig(kv_layout=kv_layout, kv_dtype=kv_dtype),
        )
        request = engine.submit(prompt, max_new_tokens=8)
        engine.drain()
        assert receiver.stats.hits == 1  # the restored prefix actually served
        assert request.reused_tokens == len(head)
        expected = model.generate(prompt, max_new_tokens=8, use_cache=True)
        np.testing.assert_array_equal(request.result, expected)

    def test_layout_mismatch_and_corrupt_entries_are_rejected(self, model):
        rng = np.random.default_rng(7)
        prompt = rng.integers(1, VOCAB, size=16)
        donor = PrefixCachePool(model, kv_layout="dense")
        prefill_pool(model, donor, prompt)
        blob = donor.export_entry(prompt)

        paged_pool = PrefixCachePool(model, kv_layout="paged")
        with pytest.raises(ValueError, match="serialized as dense"):
            paged_pool.import_entry(blob)
        with pytest.raises(ValueError, match="corrupt KV checkpoint"):
            donor.import_entry(blob[: len(blob) // 2])
        with pytest.raises(ValueError, match="corrupt KV checkpoint"):
            donor.import_entry(fill_dense(rng, 1, 4).serialize())  # not a pool entry

    def test_paged_import_releases_blocks_on_pool_clear(self, model):
        rng = np.random.default_rng(31)
        prompt = rng.integers(1, VOCAB, size=20)
        allocator = model.paged_allocator("fp32")
        baseline = allocator.blocks_in_use
        donor = PrefixCachePool(model, kv_layout="paged")
        prefill_pool(model, donor, prompt)
        blob = donor.export_entry(prompt)

        receiver = PrefixCachePool(model, kv_layout="paged")
        receiver.import_entry(blob)
        assert allocator.blocks_in_use > baseline
        donor.clear()
        receiver.clear()
        assert allocator.blocks_in_use == baseline
