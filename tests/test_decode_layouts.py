"""Plain decode across KV layouts and decoder architectures.

Pins the properties every caller of the :class:`~repro.models.decoder.
DecodeBatch` stepping core relies on, for each KV configuration (dense
fp32, paged fp32, paged int8) and for two decoder architectures (``gpt2``:
learned positions, full MHA; ``mistral-7b``: rotary positions, grouped-query
attention):

* greedy token identity — batched cached decode equals per-prompt cached
  and uncached decode (int8 is held to its own layout's batched trace,
  since quantisation may legitimately diverge from fp32);
* admission mid-flight, rows that start at or near the context window, a
  stop token, and one-token prompts never disturb a batchmate;
* engine integration — staggered arrivals decode to ``generate_batch``'s
  tokens, and the SLA identity queue + prefill + decode == wall holds;
* sampling — rows at temperature > 0 need an rng, and their first token
  follows the softmax of the row's pending distribution.
"""

from __future__ import annotations

import numpy as np
import pytest

from parity import assert_generations_equal
from repro.models import DecoderLM, get_config
from repro.models.decoder import DecodeBatch, DecodeState
from repro.serving import ContinuousBatchingEngine, EngineConfig

VOCAB = 64
#: Tokens both untrained models emit mid-stream for some of the ragged
#: prompts (and never for others), so stop handling is exercised both ways.
STOP_IDS = {55, 61}

KV_CONFIGS = [("dense", "fp32"), ("paged", "fp32"), ("paged", "int8")]
ARCHITECTURES = ["gpt2", "mistral-7b"]


@pytest.fixture(scope="module")
def models():
    built = {}
    for rng, name in enumerate(ARCHITECTURES):
        m = DecoderLM(get_config(name), VOCAB, rng=rng)
        m.eval()
        built[name] = m
    return built


@pytest.fixture(scope="module")
def target(models):
    return models["mistral-7b"]


@pytest.fixture()
def ragged_prompts():
    rng = np.random.default_rng(17)
    return [rng.integers(1, VOCAB, size=n) for n in (4, 11, 6, 9, 5, 13)]


def batch_reference(model, prompts, max_new_tokens, kv_layout, kv_dtype, **kwargs):
    """``generate_batch`` under the same KV config: the reference a live
    batch is held to (exact for fp32 and int8 alike)."""
    return model.generate_batch(
        prompts, max_new_tokens, kv_layout=kv_layout, kv_dtype=kv_dtype, **kwargs
    )


def drain(batch: DecodeBatch, rng=None) -> None:
    while batch.num_rows:
        batch.step(rng)


# ---------------------------------------------------------------------- #
# greedy token identity
# ---------------------------------------------------------------------- #
class TestGreedyIdentity:
    @pytest.mark.parametrize("stop_ids", [None, STOP_IDS], ids=["no_stop", "stop"])
    @pytest.mark.parametrize("kv_layout,kv_dtype", KV_CONFIGS)
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_generate_batch_matches_cached_and_uncached(
        self, models, ragged_prompts, arch, kv_layout, kv_dtype, stop_ids
    ):
        model = models[arch]
        outputs = batch_reference(
            model, ragged_prompts, 12, kv_layout, kv_dtype, stop_ids=stop_ids
        )
        context = f"{arch} {kv_layout}/{kv_dtype}"
        for out, prompt in zip(outputs, ragged_prompts):
            np.testing.assert_array_equal(out[: len(prompt)], prompt)
            assert len(out) - len(prompt) <= 12
        if kv_dtype != "fp32":
            # Quantised rows decode the same way run to run.
            again = batch_reference(
                model, ragged_prompts, 12, kv_layout, kv_dtype, stop_ids=stop_ids
            )
            assert_generations_equal(outputs, again, context=context)
            return
        cached = [model.generate(p, 12, stop_ids=stop_ids) for p in ragged_prompts]
        assert_generations_equal(outputs, cached, context=f"{context} vs cached")
        uncached = [
            model.generate(p, 12, stop_ids=stop_ids, use_cache=False)
            for p in ragged_prompts
        ]
        assert_generations_equal(outputs, uncached, context=f"{context} vs uncached")

    @pytest.mark.parametrize("kv_layout,kv_dtype", KV_CONFIGS)
    def test_one_row_batch_matches_generate_batch(
        self, target, ragged_prompts, kv_layout, kv_dtype
    ):
        """A prompt decoded alone in a live batch gets the tokens it gets
        among batchmates: row membership carries no semantics."""
        reference = batch_reference(
            target, ragged_prompts, 10, kv_layout, kv_dtype, stop_ids=STOP_IDS
        )
        for prompt, expected in zip(ragged_prompts, reference):
            batch = target.make_decode_batch(kv_layout=kv_layout, kv_dtype=kv_dtype)
            state = DecodeState(
                prompt_ids=prompt, max_new_tokens=10, stop_ids=frozenset(STOP_IDS)
            )
            batch.admit(state)
            drain(batch)
            assert_generations_equal(
                [state.output()], [expected], context=f"alone {kv_layout}/{kv_dtype}"
            )


# ---------------------------------------------------------------------- #
# stepping-core edge cases
# ---------------------------------------------------------------------- #
class TestStepping:
    @pytest.mark.parametrize("kv_layout,kv_dtype", KV_CONFIGS)
    def test_mid_flight_admissions_leave_rows_intact(
        self, target, ragged_prompts, kv_layout, kv_dtype
    ):
        """Rows join a running batch between steps, singly and in groups,
        while their batchmates are mid-stream; every output still matches
        the batched reference."""
        batch = DecodeBatch(target, capacity=32, kv_layout=kv_layout, kv_dtype=kv_dtype)
        states = [
            DecodeState(prompt_ids=p, max_new_tokens=10, stop_ids=frozenset(STOP_IDS))
            for p in ragged_prompts
        ]
        batch.admit_many(states[:2])
        batch.step()
        for st in states[2:4]:
            batch.admit(st)
        batch.step()
        batch.step()
        batch.admit_many(states[4:])
        drain(batch)
        reference = batch_reference(
            target, ragged_prompts, 10, kv_layout, kv_dtype, stop_ids=STOP_IDS
        )
        assert_generations_equal(
            [st.output() for st in states],
            reference,
            context=f"mid-flight admissions {kv_layout}/{kv_dtype}",
        )

    @pytest.mark.parametrize("kv_layout,kv_dtype", KV_CONFIGS)
    def test_rows_at_the_context_window(self, kv_layout, kv_dtype):
        """With a 16-position model, rows whose history reaches the window
        retire with reason "context" and a prompt already at the window
        finishes without a row; the others decode their full budget."""
        short = DecoderLM(get_config("gpt2").scaled(max_position=16), VOCAB, rng=1)
        short.eval()
        rng = np.random.default_rng(23)
        prompts = [rng.integers(1, VOCAB, size=n) for n in (3, 7, 12, 16)]
        batch = short.make_decode_batch(kv_layout=kv_layout, kv_dtype=kv_dtype)
        states = [DecodeState(prompt_ids=p, max_new_tokens=8) for p in prompts]
        for st in states:
            batch.admit(st)
        assert batch.num_rows == 3  # the 16-token prompt took no row
        drain(batch)
        assert [st.finish_reason for st in states] == [
            "length",
            "length",
            "context",
            "context",
        ]
        assert [st.gen_len for st in states] == [8, 8, 4, 0]
        reference = batch_reference(short, prompts, 8, kv_layout, kv_dtype)
        assert_generations_equal(
            [st.output() for st in states],
            reference,
            context=f"context window {kv_layout}/{kv_dtype}",
        )
        if kv_dtype == "fp32":
            uncached = [short.generate(p, 8, use_cache=False) for p in prompts]
            assert_generations_equal(
                [st.output() for st in states], uncached, context="vs uncached"
            )

    @pytest.mark.parametrize("kv_layout,kv_dtype", KV_CONFIGS)
    def test_stop_token_ends_the_row_exactly(
        self, target, ragged_prompts, kv_layout, kv_dtype
    ):
        """A row that emits a stop token retires on that token, which is its
        last; rows without one run to their budget."""
        outputs = batch_reference(
            target, ragged_prompts, 12, kv_layout, kv_dtype, stop_ids=STOP_IDS
        )
        free = batch_reference(target, ragged_prompts, 12, kv_layout, kv_dtype)
        stopped = 0
        for out, unstopped, prompt in zip(outputs, free, ragged_prompts):
            generated = [int(t) for t in out[len(prompt) :]]
            hits = [i for i, t in enumerate(generated) if t in STOP_IDS]
            if hits:
                stopped += 1
                assert hits == [len(generated) - 1]
            else:
                assert len(generated) == 12
            # Up to the stop, the row is the unstopped row's prefix.
            np.testing.assert_array_equal(out, unstopped[: len(out)])
        assert stopped > 0, "no row hit a stop token: the test checks nothing"

    @pytest.mark.parametrize("kv_layout,kv_dtype", KV_CONFIGS)
    def test_one_token_prompts(self, target, kv_layout, kv_dtype):
        prompts = [np.array([7]), np.array([12]), np.array([40, 2, 9])]
        outputs = batch_reference(target, prompts, 6, kv_layout, kv_dtype)
        assert [len(o) for o in outputs] == [7, 7, 9]
        if kv_dtype == "fp32":
            reference = [target.generate(p, 6, use_cache=False) for p in prompts]
            assert_generations_equal(outputs, reference, context="1-token prompts")


# ---------------------------------------------------------------------- #
# engine integration
# ---------------------------------------------------------------------- #
class TestEngine:
    @pytest.mark.parametrize("kv_layout,kv_dtype", KV_CONFIGS)
    def test_staggered_arrivals_match_generate_batch(
        self, target, ragged_prompts, kv_layout, kv_dtype
    ):
        config = EngineConfig(max_batch_rows=4, kv_layout=kv_layout, kv_dtype=kv_dtype)
        engine = ContinuousBatchingEngine(target, config=config)
        results = [None] * len(ragged_prompts)
        requests = []
        submitted = 0
        while submitted < len(ragged_prompts) or engine.has_work:
            for _ in range(2):
                if submitted < len(ragged_prompts):
                    requests.append(
                        engine.submit(
                            ragged_prompts[submitted],
                            max_new_tokens=12,
                            stop_ids=STOP_IDS,
                        )
                    )
                    submitted += 1
            for request in engine.step():
                results[request.request_id] = request.result
        reference = batch_reference(
            target, ragged_prompts, 12, kv_layout, kv_dtype, stop_ids=STOP_IDS
        )
        assert_generations_equal(
            results, reference, context=f"engine {kv_layout}/{kv_dtype}"
        )
        # Arrivals come in pairs, so cold groups go through admit_many.
        assert max(engine.stats.batch_sizes) >= 2
        for request in requests:
            assert request.done
            total = (
                request.queue_seconds + request.prefill_seconds + request.decode_seconds
            )
            assert abs(total - request.wall_seconds) < 1e-9
            assert request.decode_steps == request.state.gen_len


# ---------------------------------------------------------------------- #
# sampling (temperature > 0)
# ---------------------------------------------------------------------- #
class TestSampling:
    def test_sampling_rows_require_an_rng(self, target):
        batch = target.make_decode_batch()
        batch.admit(DecodeState(prompt_ids=np.array([4, 9, 2]), temperature=1.0))
        with pytest.raises(ValueError, match="requires an rng"):
            batch.step()

    def test_first_token_follows_the_row_distribution(self, target):
        """Many copies of one prompt sampled in one step: the token counts
        match the softmax of the pending log-probs (chi-square, fixed seed)."""
        prompt = np.array([4, 9, 2, 30])
        rows = 512
        batch = target.make_decode_batch()
        states = [
            DecodeState(prompt_ids=prompt, max_new_tokens=1, temperature=1.0)
            for _ in range(rows)
        ]
        batch.admit_many(states)
        probs = np.exp(states[0].next_log_probs.astype(np.float64))
        probs /= probs.sum()
        drain(batch, np.random.default_rng(5))
        tokens = np.array([st.generated[0] for st in states])
        counts = np.bincount(tokens, minlength=VOCAB)
        expected = rows * probs
        # Pool the rare tokens so every chi-square cell expects >= 5 draws.
        common = expected >= 5
        observed = np.append(counts[common], counts[~common].sum())
        expected = np.append(expected[common], expected[~common].sum())
        keep = expected > 0
        chi2 = float((((observed - expected) ** 2)[keep] / expected[keep]).sum())
        dof = int(keep.sum()) - 1
        # Far beyond the 99.9th percentile for these degrees of freedom.
        assert chi2 < dof + 6 * np.sqrt(2 * dof) + 10, (chi2, dof)
