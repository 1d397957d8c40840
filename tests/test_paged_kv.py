"""Tests for the block-paged (and int8-quantized) KV storage subsystem.

Pins the paged-KV invariants the serving stack depends on:

* :class:`~repro.nn.BlockAllocator` — ref-counted block lifecycle,
  copy-on-write splitting, free-list recycling, int8 round-trip accuracy;
* :class:`~repro.nn.PagedKVCache` — the dense cache protocol (append /
  truncate / admit_row / retire_rows / realign / clone_prefix)
  implemented as table edits, verified in *lockstep* against a dense
  :class:`~repro.nn.KVCache` driven through random operation sequences
  (Hypothesis), with gathered keys/values equal on every live span and no
  leaked blocks once the caches are released;
* copy-on-write prefix sharing — clones reference the donor
  blocks until someone appends over a shared tail, and the donor's bytes
  never change;
* engine-level parity — the continuous-batching engine configured with
  ``kv_layout="paged"`` (fp32 and int8) emits token-identical greedy
  outputs to the dense engine under staggered arrivals, with every block
  returned to the allocator after the drain;
* the dense-cache regressions the paged layout subsumes: in-place (slack
  row) admission, ``clone_prefix`` capacity validation, and duplicate-index
  rejection in ``retire_rows``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parity import assert_generations_equal
from repro.models import DecoderLM, get_config
from repro.nn import BlockAllocator, KVCache, PagedKVCache, SharedPrefixKVCache
from repro.serving import ContinuousBatchingEngine, EngineConfig, PrefixCachePool
from repro.tensor import no_grad

VOCAB = 64

NUM_LAYERS = 2
NUM_HEADS = 2
HEAD_DIM = 4
BLOCK_SIZE = 4
#: The default block size model-level caches use (repro.nn.paged).
BLOCK_SIZE_MODEL = 16
CAPACITY = 64


@pytest.fixture(scope="module")
def model():
    m = DecoderLM(get_config("gpt2"), VOCAB, rng=0)
    m.eval()
    return m


@pytest.fixture()
def ragged_prompts():
    rng = np.random.default_rng(17)
    return [rng.integers(1, VOCAB, size=n) for n in (4, 11, 6, 9, 5, 13, 7, 8)]


def make_pair(kv_dtype: str = "fp32"):
    """A dense cache and a paged cache with identical geometry, both empty."""
    allocator = BlockAllocator(
        NUM_HEADS, HEAD_DIM, block_size=BLOCK_SIZE, kv_dtype=kv_dtype, initial_blocks=4
    )
    dense = KVCache(NUM_LAYERS, 0, NUM_HEADS, HEAD_DIM, CAPACITY)
    paged = PagedKVCache(NUM_LAYERS, 0, allocator, CAPACITY)
    return dense, paged, allocator


def random_kv(rng, batch: int, width: int) -> np.ndarray:
    return rng.normal(size=(batch, NUM_HEADS, width, HEAD_DIM)).astype(np.float32)


def fill_source(data_k, data_v, kv_dtype="fp32", allocator=None):
    """Batch-1 dense + paged caches holding the same keys/values."""
    width = data_k.shape[2]
    dense = KVCache(NUM_LAYERS, 1, NUM_HEADS, HEAD_DIM, width)
    allocator = allocator or BlockAllocator(
        NUM_HEADS, HEAD_DIM, block_size=BLOCK_SIZE, kv_dtype=kv_dtype
    )
    paged = PagedKVCache(NUM_LAYERS, 1, allocator, width)
    for layer_d, layer_p in zip(dense.layers, paged.layers):
        layer_d.append(data_k, data_v)
        layer_p.append(data_k, data_v)
    return dense, paged


def assert_live_spans_equal(dense: KVCache, paged: PagedKVCache, starts, atol=0.0):
    """Per-row gathered K/V parity over the live (masked-valid) spans."""
    assert dense.length == paged.length
    assert dense.batch_size == paged.batch_size
    for layer_d, layer_p in zip(dense.layers, paged.layers):
        for row, start in enumerate(starts):
            dk, dv = layer_d.read_span(row, start, dense.length)
            pk, pv = layer_p.read_span(row, start, paged.length)
            if atol == 0.0:
                np.testing.assert_array_equal(pk, dk)
                np.testing.assert_array_equal(pv, dv)
            else:
                np.testing.assert_allclose(pk, dk, atol=atol)
                np.testing.assert_allclose(pv, dv, atol=atol)


# ---------------------------------------------------------------------- #
# BlockAllocator
# ---------------------------------------------------------------------- #
class TestBlockAllocator:
    def test_refcount_lifecycle_and_free_list_reuse(self):
        allocator = BlockAllocator(NUM_HEADS, HEAD_DIM, block_size=BLOCK_SIZE)
        a = allocator.alloc()
        b = allocator.alloc()
        assert allocator.blocks_in_use == 2
        allocator.incref([a])
        allocator.decref([a])
        assert allocator.blocks_in_use == 2  # still one reference left
        allocator.decref([a, b])
        assert allocator.blocks_in_use == 0
        c = allocator.alloc()
        assert c in (a, b)  # recycled, not freshly grown
        assert allocator.peak_blocks_in_use == 2

    def test_ensure_exclusive_copies_shared_blocks_only(self):
        allocator = BlockAllocator(NUM_HEADS, HEAD_DIM, block_size=BLOCK_SIZE)
        rng = np.random.default_rng(0)
        k = rng.normal(size=(NUM_HEADS, BLOCK_SIZE, HEAD_DIM)).astype(np.float32)
        block = allocator.alloc()
        allocator.write(block, 0, k, 2 * k)
        assert allocator.ensure_exclusive(block) == block  # sole owner: no copy
        allocator.incref([block])
        fresh = allocator.ensure_exclusive(block)
        assert fresh != block
        assert allocator.refcount(block) == 1
        out_k = np.zeros((NUM_HEADS, BLOCK_SIZE, HEAD_DIM), np.float32)
        out_v = np.zeros_like(out_k)
        allocator.gather_row([fresh], BLOCK_SIZE, out_k, out_v, 0)
        np.testing.assert_array_equal(out_k, k)
        np.testing.assert_array_equal(out_v, 2 * k)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), width=st.integers(1, 3 * BLOCK_SIZE))
    def test_int8_round_trip_within_tolerance(self, seed, width):
        """Dequantized int8 blocks recover the source to ~1/254 relative error
        per (head, position) vector."""
        allocator = BlockAllocator(
            NUM_HEADS, HEAD_DIM, block_size=BLOCK_SIZE, kv_dtype="int8"
        )
        rng = np.random.default_rng(seed)
        k = (rng.normal(size=(NUM_HEADS, width, HEAD_DIM)) * 3).astype(np.float32)
        v = rng.normal(size=(NUM_HEADS, width, HEAD_DIM)).astype(np.float32)
        table = []
        pos = 0
        while pos < width:
            table.append(allocator.alloc())
            n = min(BLOCK_SIZE, width - pos)
            allocator.write(table[-1], 0, k[:, pos : pos + n], v[:, pos : pos + n])
            pos += n
        out_k = np.zeros((NUM_HEADS, width, HEAD_DIM), np.float32)
        out_v = np.zeros_like(out_k)
        allocator.gather_row(table, width, out_k, out_v, 0)
        bound_k = np.abs(k).max(axis=-1, keepdims=True) / 250.0 + 1e-7
        bound_v = np.abs(v).max(axis=-1, keepdims=True) / 250.0 + 1e-7
        assert (np.abs(out_k - k) <= bound_k).all()
        assert (np.abs(out_v - v) <= bound_v).all()


# ---------------------------------------------------------------------- #
# dense-cache regressions (the bugs the page allocator subsumes)
# ---------------------------------------------------------------------- #
class TestDenseCacheRegressions:
    def test_admission_appends_in_place_with_slack_rows(self):
        """A stream of admissions must not rebuild the whole batch per row:
        once slack exists, the buffers are written in place."""
        live = KVCache(NUM_LAYERS, 0, NUM_HEADS, HEAD_DIM, CAPACITY)
        rng = np.random.default_rng(0)
        reallocations = 0
        buffer_id = id(live.layers[0].keys)
        for _ in range(9):
            data = random_kv(rng, 1, 5)
            src, _ = fill_source(data, 2 * data)
            live.admit_row(src)
            if id(live.layers[0].keys) != buffer_id:
                reallocations += 1
                buffer_id = id(live.layers[0].keys)
        assert live.batch_size == 9
        # 1.5x slack growth: 9 sequential admissions reallocate only a few
        # times (the old concatenate-per-admission reallocated every time).
        assert reallocations <= 5
        assert live.layers[0].keys.shape[0] >= live.layers[0].rows

    def test_slack_rows_never_leak_into_reads(self):
        live = KVCache(NUM_LAYERS, 0, NUM_HEADS, HEAD_DIM, CAPACITY)
        rng = np.random.default_rng(1)
        sources = []
        for _ in range(3):
            data = random_kv(rng, 1, 4)
            src, _ = fill_source(data, -data)
            sources.append((data, src))
            live.admit_row(src)
        assert live.batch_size == 3
        k_all, v_all = live.layers[0].append(
            random_kv(rng, 3, 1), random_kv(rng, 3, 1)
        )
        assert k_all.shape[0] == 3  # views cover live rows only, not slack
        for row, (data, _) in enumerate(sources):
            np.testing.assert_array_equal(k_all[row, :, :4], data[0])

    def test_clone_prefix_small_capacity_raises_clear_error(self):
        data = np.ones((1, NUM_HEADS, 6, HEAD_DIM), np.float32)
        dense, paged = fill_source(data, data)
        for cache in (dense, paged):
            with pytest.raises(ValueError, match="cannot hold"):
                cache.clone_prefix(6, capacity=3)
            clone = cache.clone_prefix(4, capacity=4)  # exact fit is fine
            assert clone.length == 4

    def test_retire_rows_rejects_duplicates(self):
        rng = np.random.default_rng(2)
        dense, paged, _ = make_pair()
        for _ in range(3):
            data = random_kv(rng, 1, 4)
            d_src, p_src = fill_source(data, data)
            dense.admit_row(d_src)
            paged.admit_row(p_src)
        for cache in (dense, paged):
            with pytest.raises(ValueError, match="duplicate"):
                cache.retire_rows(np.array([0, 1, 1]))
            cache.retire_rows(np.array([2, 0]))  # reordering stays legal
            assert cache.batch_size == 2


# ---------------------------------------------------------------------- #
# dense/paged lockstep property suite
# ---------------------------------------------------------------------- #
class TestLockstepParity:
    @pytest.mark.parametrize("kv_dtype", ["fp32", "int8"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_row_ops_keep_dense_and_paged_identical(self, kv_dtype, data):
        """Random admit/retire/append/compact sequences leave the
        paged cache holding the dense cache's live spans — exactly for fp32,
        within quantization tolerance for int8 — and releasing the paged
        cache frees every block."""
        atol = 0.0 if kv_dtype == "fp32" else 0.05
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        dense, paged, allocator = make_pair(kv_dtype)
        starts: list[int] = []  # per-row live-span starts (the decode mask)

        num_ops = data.draw(st.integers(3, 14), label="num_ops")
        for _ in range(num_ops):
            has_rows = dense.batch_size > 0
            op = data.draw(
                st.sampled_from(
                    ["admit", "append", "retire", "compact"]
                    if has_rows
                    else ["admit"]
                ),
                label="op",
            )
            if op == "admit":
                width = data.draw(st.integers(1, 10), label="width")
                kv = random_kv(rng, 1, width)
                d_src, p_src = fill_source(kv, 2 * kv, allocator=allocator)
                if width > dense.length and dense.batch_size:
                    # Grow the live end so the wider newcomer fits (the
                    # decode batch's pre-admission realign).
                    old_starts = np.array(starts, dtype=np.int64)
                    starts = [int(s) for s in dense.realign(old_starts, width)]
                    np.testing.assert_array_equal(
                        paged.realign(old_starts, width), starts
                    )
                d_start = dense.admit_row(d_src)
                p_start = paged.admit_row(p_src)
                assert d_start == p_start
                starts.append(d_start)
                p_src.release()
            elif op == "append":
                kv = random_kv(rng, dense.batch_size, 1)
                vv = random_kv(rng, dense.batch_size, 1)
                for layer_d, layer_p in zip(dense.layers, paged.layers):
                    dk, dv = layer_d.append(kv, vv)
                    pk, pv = layer_p.append(kv, vv).gather_kv()
                    for row, start in enumerate(starts):
                        np.testing.assert_allclose(
                            pk[row, :, start:], dk[row, :, start:], rtol=0, atol=atol
                        )
                        np.testing.assert_allclose(
                            pv[row, :, start:], dv[row, :, start:], rtol=0, atol=atol
                        )
            elif op == "retire":
                perm = data.draw(
                    st.permutations(range(dense.batch_size)), label="keep_order"
                )
                kept = data.draw(st.integers(0, dense.batch_size), label="kept")
                keep = np.array(perm[:kept], dtype=np.int64)
                dense.retire_rows(keep)
                paged.retire_rows(keep)
                starts = [starts[int(i)] for i in keep]
            elif op == "compact":
                widths = [dense.length - s for s in starts]
                new_length = max(max(widths), 1)
                new_starts_d = dense.realign(np.array(starts), new_length)
                new_starts_p = paged.realign(np.array(starts), new_length)
                np.testing.assert_array_equal(new_starts_d, new_starts_p)
                starts = [int(s) for s in new_starts_d]
            assert_live_spans_equal(dense, paged, starts, atol=atol)

        paged.release()
        assert allocator.blocks_in_use == 0

    @pytest.mark.parametrize("cut", [10, 8, 7, 4, 2, 0], ids=lambda c: f"to_{c}")
    @pytest.mark.parametrize("kv_dtype", ["fp32", "int8"])
    def test_truncate_ragged_rows_then_append(self, kv_dtype, cut):
        """Whole-cache ``truncate`` over ragged rows (live end 10; rows of
        width 10, 7 and 3; block size 4): each row keeps its span up to the
        cut, and rows the cut drops entirely come back empty.  The next
        append lands in the same column for every row on both layouts,
        the cache's own whole tail blocks are freed, and releasing frees
        the rest."""
        atol = 0.0 if kv_dtype == "fp32" else 0.05
        rng = np.random.default_rng(cut)
        dense, paged, allocator = make_pair(kv_dtype)
        starts: list[int] = []
        for width in (10, 7, 3):
            kv = random_kv(rng, 1, width)
            d_src, p_src = fill_source(kv, -kv, allocator=allocator)
            starts.append(dense.admit_row(d_src))
            assert paged.admit_row(p_src) == starts[-1]
            p_src.release()
        assert starts == [0, 3, 7]
        blocks_before = allocator.blocks_in_use

        dense.truncate(cut)
        paged.truncate(cut)
        starts = [min(s, cut) for s in starts]
        assert_live_spans_equal(dense, paged, starts, atol=atol)
        if cut < 10:
            assert allocator.blocks_in_use < blocks_before
        else:
            assert allocator.blocks_in_use == blocks_before

        kv = random_kv(rng, 3, 1)
        for layer_d, layer_p in zip(dense.layers, paged.layers):
            layer_d.append(kv, 2 * kv)
            layer_p.append(kv, 2 * kv)
        assert_live_spans_equal(dense, paged, starts, atol=atol)
        for layer in paged.layers:
            for row in range(3):
                k_new, _ = layer.read_span(row, cut, cut + 1)
                np.testing.assert_allclose(
                    k_new[:, 0], kv[row, :, 0], rtol=0, atol=atol
                )

        with pytest.raises(ValueError, match="cannot truncate"):
            paged.truncate(cut + 2)
        paged.release()
        assert allocator.blocks_in_use == 0

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        width=st.integers(2, 20),
        prefix=st.integers(1, 20),
    )
    def test_clone_truncate_append_round_trip(self, seed, width, prefix):
        """Batch-1 prefix workflow (the pool's): clone a prefix copy-on-write,
        extend both donor and clone differently, and verify isolation."""
        prefix = min(prefix, width)
        rng = np.random.default_rng(seed)
        kv = random_kv(rng, 1, width)
        _, paged = fill_source(kv, 3 * kv)
        allocator = paged.allocator
        clone = paged.clone_prefix(prefix)
        clone.grow(CAPACITY)
        assert clone.length == prefix

        donor_before = [
            layer.read_span(0, 0, width) for layer in paged.layers
        ]
        extra = random_kv(rng, 1, 2)
        for layer in clone.layers:
            layer.append(extra, -extra)
        # The donor's bytes are untouched by the clone's append (CoW split).
        for layer, (k_before, v_before) in zip(paged.layers, donor_before):
            k_now, v_now = layer.read_span(0, 0, width)
            np.testing.assert_array_equal(k_now, k_before)
            np.testing.assert_array_equal(v_now, v_before)
        for layer in clone.layers:
            k_clone, _ = layer.read_span(0, 0, prefix + 2)
            np.testing.assert_array_equal(k_clone[:, :prefix], kv[0, :, :prefix])
            np.testing.assert_array_equal(k_clone[:, prefix:], extra[0])

        # Persisting the clone (flush + drop the tail buffer) must hand back
        # the identical bytes from the block store.
        clone.release_workspace()
        assert clone.layers[0].workspace_bytes() == 0
        for layer in clone.layers:
            k_blocks, v_blocks = layer.read_span(0, 0, prefix + 2)
            np.testing.assert_array_equal(k_blocks[:, :prefix], kv[0, :, :prefix])
            np.testing.assert_array_equal(k_blocks[:, prefix:], extra[0])
            np.testing.assert_array_equal(v_blocks[:, prefix:], -extra[0])

        clone.release()
        paged.release()
        assert allocator.blocks_in_use == 0


# ---------------------------------------------------------------------- #
# copy-on-write sharing economics
# ---------------------------------------------------------------------- #
class TestBlockSharing:
    def test_clone_prefix_shares_blocks(self):
        kv = np.ones((1, NUM_HEADS, 4 * BLOCK_SIZE, HEAD_DIM), np.float32)
        _, paged = fill_source(kv, kv)
        allocator = paged.allocator
        paged.release_workspace()  # persist: blocks become the only storage
        in_use = allocator.blocks_in_use
        assert in_use == 4 * NUM_LAYERS
        clone = paged.clone_prefix(2 * BLOCK_SIZE)
        assert allocator.blocks_in_use == in_use  # zero new blocks
        assert clone.kv_bytes() < paged.kv_bytes()
        clone.release()
        assert allocator.blocks_in_use == in_use

    @pytest.mark.parametrize("kv_dtype", ["fp32", "int8"])
    def test_shared_prefix_read_gathers_once_and_takes_no_blocks(
        self, kv_dtype, monkeypatch
    ):
        rng = np.random.default_rng(5)
        kv = random_kv(rng, 1, 2 * BLOCK_SIZE + 1)
        _, paged = fill_source(kv, 2 * kv, kv_dtype)
        allocator = paged.allocator
        gathers = []
        gather_row = allocator.gather_row

        def counting_gather_row(*args):
            gathers.append(args)
            gather_row(*args)

        monkeypatch.setattr(allocator, "gather_row", counting_gather_row)
        prefix = SharedPrefixKVCache.read_prefix(paged)
        monkeypatch.undo()
        # Reading is a sharing boundary: the prefix is persisted (int8:
        # quantized) first, then read with one gather per layer.
        assert paged.layers[0].flushed == [kv.shape[2]]
        assert len(gathers) == NUM_LAYERS
        in_use = allocator.blocks_in_use
        shared = SharedPrefixKVCache(prefix, 6, 3)
        extra = np.ones((6, NUM_HEADS, 1, HEAD_DIM), np.float32)
        for layer in shared.layers:
            layer.append(extra, extra)
        assert allocator.blocks_in_use == in_use  # six rows, no new blocks
        atol = 0 if kv_dtype == "fp32" else 0.05
        for layer, (k, v) in zip(paged.layers, prefix):
            np.testing.assert_allclose(k, kv[0], atol=atol)
            np.testing.assert_allclose(v, 2 * kv[0], atol=2 * atol)
            np.testing.assert_array_equal(
                k, layer.read_span(0, 0, paged.length)[0]
            )  # the stored bytes every later reader sees
        paged.release()
        assert allocator.blocks_in_use == 0

    def test_int8_reads_after_flush_are_the_stored_values(self):
        """Reads after a flush are the stored (dequantized) values: once a
        position is persisted every read returns the block store's bytes,
        whether or not the tail buffer is still resident."""
        rng = np.random.default_rng(3)
        kv = random_kv(rng, 1, 2 * BLOCK_SIZE + 1)
        allocator = BlockAllocator(
            NUM_HEADS, HEAD_DIM, block_size=BLOCK_SIZE, kv_dtype="int8"
        )
        paged = PagedKVCache(NUM_LAYERS, 1, allocator, CAPACITY)
        for layer in paged.layers:
            layer.append(kv, 2 * kv)
        layer = paged.layers[0]
        exact_k, _ = layer.read_span(0, 0, layer.length)
        np.testing.assert_array_equal(exact_k, kv[0])  # unflushed: exact
        layer.flush_row(0)
        flushed_k, flushed_v = layer.read_span(0, 0, layer.length)
        assert not np.array_equal(flushed_k, kv[0])  # now the dequantized codes
        paged.release_workspace()
        blocks_k, blocks_v = layer.read_span(0, 0, layer.length)
        np.testing.assert_array_equal(blocks_k, flushed_k)
        np.testing.assert_array_equal(blocks_v, flushed_v)
        paged.release()
        assert allocator.blocks_in_use == 0

    @pytest.mark.parametrize("kv_dtype", ["fp32", "int8"])
    def test_midblock_rollback_then_append_claims_shared_tail_block(self, kv_dtype):
        """Regression: truncating a cache back *into* a partially filled,
        CoW-shared tail block and then appending must not write that block
        in place — ``truncate`` defers the re-claim to the flush path, whose
        ``make_writable`` splits the block.  The pool truncates a consumed
        checkout whose blocks clones may share exactly so.  The donor keeps
        every byte (including the truncated position) and ends up sole
        owner of the original block."""
        rng = np.random.default_rng(11)
        width = 2 * BLOCK_SIZE + 2  # the third block is only partially filled
        kv = random_kv(rng, 1, width)
        allocator = BlockAllocator(
            NUM_HEADS, HEAD_DIM, block_size=BLOCK_SIZE, kv_dtype=kv_dtype
        )
        donor = PagedKVCache(1, 1, allocator, CAPACITY)
        for layer in donor.layers:
            layer.append(kv, -kv)
        donor.release_workspace()  # persist: three blocks, sole owner
        donor_layer = donor.layers[0]
        donor_k, donor_v = donor_layer.read_span(0, 0, width)
        tail_block = donor_layer.tables[0][2]

        clone = donor.clone_prefix(width, capacity=CAPACITY)
        clone_layer = clone.layers[0]
        assert clone_layer.tables[0][2] == tail_block
        assert allocator.refcount(tail_block) == 2

        # The cut lands mid-block: the kept partial block stays shared
        # (nothing is freed, nothing is written)...
        clone.truncate(width - 1)
        assert allocator.refcount(tail_block) == 2
        extra = random_kv(rng, 1, 1)
        for layer in clone.layers:
            layer.append(extra, extra)
        # ...so persisting the re-decoded position must claim it via the
        # copy-on-write split instead of writing the shared bytes.
        clone_layer.flush_row(0)
        assert clone_layer.tables[0][2] != tail_block
        assert allocator.refcount(tail_block) == 1
        assert allocator.refcount(clone_layer.tables[0][2]) == 1
        k_now, v_now = donor_layer.read_span(0, 0, width)
        np.testing.assert_array_equal(k_now, donor_k)
        np.testing.assert_array_equal(v_now, donor_v)
        # The clone sees the kept prefix plus its own new position.
        ck, _ = clone_layer.read_span(0, 0, width)
        np.testing.assert_array_equal(ck[:, : width - 1], donor_k[:, : width - 1])
        atol = 0.0 if kv_dtype == "fp32" else 0.05
        np.testing.assert_allclose(ck[:, width - 1], extra[0, :, 0], rtol=0, atol=atol)
        clone.release()
        donor.release()
        assert allocator.blocks_in_use == 0

    def test_pool_byte_budget_counts_shared_blocks_once(self, model):
        """CoW-shared prefix blocks must not be double-counted against the
        pool's byte budget."""
        rng = np.random.default_rng(4)
        head = rng.integers(1, VOCAB, size=3 * BLOCK_SIZE_MODEL)
        pool = PrefixCachePool(model, kv_layout="paged", min_reuse_tokens=8)
        base = model.make_paged_cache(1, model.config.max_position)
        with no_grad():
            model.forward_incremental(head[None, :], base)
        pool.checkin(head, base)
        solo_bytes = pool.kv_bytes()
        # A second entry extending the head shares its blocks copy-on-write.
        longer = np.concatenate([head, rng.integers(1, VOCAB, size=4)])
        clone = pool.checkout(longer)[0]
        with no_grad():
            model.forward_incremental(longer[None, clone.length :], clone)
        pool.checkin(longer, clone)
        assert len(pool) >= 1
        naive = sum(e.cache.kv_bytes() for e in pool._entries.values())
        assert pool.kv_bytes() < naive or len(pool) == 1
        assert pool.kv_bytes() < 2 * solo_bytes  # the head is counted once
        pool.clear()

    def test_paged_admission_from_prefill_is_zero_copy(self, model, ragged_prompts):
        """Admitting a paged batch-1 prefill persists it once and shares the
        blocks with the live row instead of copying them."""
        batch = model.make_decode_batch(kv_layout="paged")
        allocator = model.paged_allocator()
        prompt = ragged_prompts[1]
        prefill = model.make_paged_cache(1, len(prompt) + 1)
        with no_grad():
            model.forward_incremental(prompt[None, :-1], prefill)
        from repro.models.decoder import DecodeState

        batch.admit(DecodeState(prompt_ids=prompt, max_new_tokens=4), prefill_cache=prefill)
        # Admission flushed the prompt into blocks exactly once; the live
        # row references those same blocks (ref-count 2), no copies.
        per_layer = (len(prompt) + BLOCK_SIZE_MODEL - 1) // BLOCK_SIZE_MODEL
        assert allocator.blocks_in_use == per_layer * len(batch.cache.layers)
        shared_block = batch.cache.layers[0].tables[0][0]
        assert allocator.refcount(shared_block) == 2
        prefill.release()
        assert allocator.refcount(shared_block) == 1
        while batch.num_rows:
            batch.step()
        del batch
        import gc

        gc.collect()
        assert allocator.blocks_in_use == 0


# ---------------------------------------------------------------------- #
# engine-level parity
# ---------------------------------------------------------------------- #
class TestEngineParity:
    def _run_engine(self, model, prompts, stop_ids, **config_fields):
        config = EngineConfig(max_batch_rows=4, **config_fields)
        engine = ContinuousBatchingEngine(model, config=config)
        results = [None] * len(prompts)
        submitted = 0
        while submitted < len(prompts) or engine.has_work:
            for _ in range(2):
                if submitted < len(prompts):
                    engine.submit(
                        prompts[submitted], max_new_tokens=12, stop_ids=stop_ids
                    )
                    submitted += 1
            for request in engine.step():
                results[request.request_id] = request.result
        # Arrivals come in pairs, so they are admitted in groups.
        assert max(engine.stats.batch_sizes) >= 2
        return results

    @pytest.mark.parametrize("kv_dtype", ["fp32", "int8"])
    def test_paged_engine_matches_dense_under_staggered_arrivals(
        self, model, ragged_prompts, kv_dtype
    ):
        stop_ids = {3, 5, 7}
        dense = self._run_engine(model, ragged_prompts, stop_ids)
        paged = self._run_engine(
            model, ragged_prompts, stop_ids, kv_layout="paged", kv_dtype=kv_dtype
        )
        assert_generations_equal(paged, dense, context=f"paged/{kv_dtype} vs dense")
        sequential = [
            model.generate(p, max_new_tokens=12, stop_ids=stop_ids)
            for p in ragged_prompts
        ]
        assert_generations_equal(paged, sequential, context="paged vs sequential")

    def test_paged_engine_releases_every_block_after_drain(self, model, ragged_prompts):
        engine = ContinuousBatchingEngine(
            model,
            config=EngineConfig(max_batch_rows=4, kv_layout="paged"),
        )
        allocator = model.paged_allocator()
        for prompt in ragged_prompts:
            engine.submit(prompt, max_new_tokens=8, stop_ids={3})
        engine.drain()
        assert engine.batch.cache.kv_bytes() == 0
        assert allocator.blocks_in_use == 0
        assert allocator.peak_blocks_in_use > 0

    def test_paged_pool_assisted_prefill_keeps_outputs_identical(
        self, model, ragged_prompts
    ):
        """Pool hits served copy-on-write from the shared allocator do not
        change outputs, and checked-in entries survive engine traffic."""
        head = np.asarray(ragged_prompts[5], dtype=np.int64)
        prompts = [
            np.concatenate([head, np.asarray(p[:4], dtype=np.int64)])
            for p in ragged_prompts[:6]
        ]
        pool = PrefixCachePool(model, kv_layout="paged", min_reuse_tokens=4)
        baseline = self._run_engine(model, prompts, {3}, kv_layout="paged")

        engine = ContinuousBatchingEngine(
            model,
            config=EngineConfig(max_batch_rows=2, kv_layout="paged"),
            cache_pool=pool,
        )
        results = [None] * len(prompts)
        submitted = 0
        while submitted < len(prompts) or engine.has_work:
            if submitted < len(prompts):  # one at a time: lone pool prefills
                engine.submit(prompts[submitted], max_new_tokens=12, stop_ids={3})
                submitted += 1
            for request in engine.step():
                results[request.request_id] = request.result
        assert_generations_equal(results, baseline, context="pooled vs private paged")
        assert pool.stats.hits > 0
        assert pool.kv_bytes() > 0
        pool.clear()
        assert pool.kv_bytes() == 0  # cleared entries returned their blocks
        assert engine.batch.cache.kv_bytes() == 0

    def test_generate_batch_paged_matches_dense(self, model, ragged_prompts):
        dense = model.generate_batch(ragged_prompts, max_new_tokens=10, stop_ids={3})
        paged = model.generate_batch(
            ragged_prompts, max_new_tokens=10, stop_ids={3}, kv_layout="paged"
        )
        assert_generations_equal(paged, dense, context="generate_batch paged")

    def test_dense_engine_rejects_int8(self, model):
        with pytest.raises(ValueError, match="paged"):
            ContinuousBatchingEngine(
                model,
                config=EngineConfig(kv_layout="dense", kv_dtype="int8"),
            )
        with pytest.raises(ValueError, match="kv_layout"):
            model.make_decode_batch(kv_layout="ragged")
