"""Tests for templates, numeric binning, vocabulary and the log tokenizer."""

from __future__ import annotations

import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tokenization import (
    FEATURE_ORDER,
    JobRecord,
    LogTokenizer,
    NumericBinner,
    Vocabulary,
    record_to_sentence,
    sentence_to_record,
    streaming_prefixes,
)
from repro.flowbench import WORKFLOW_NAMES, generate_dataset
from repro.icl import PromptTemplate
from repro.tokenization.tokenizer import _PIECE_RE, PROMPT_TOKENS


def make_record(label=0):
    features = {name: float(i + 1) * 10.0 for i, name in enumerate(FEATURE_ORDER)}
    return JobRecord(features=features, label=label)


class TestTemplates:
    def test_sentence_matches_paper_format(self):
        record = JobRecord(features={"wms_delay": 6.0, "queue_delay": 22.0}, label=0)
        assert record_to_sentence(record) == "wms_delay is 6.0 queue_delay is 22.0"
        assert record_to_sentence(record, include_label=True).endswith(", Normal")

    def test_anomalous_label_verbalisation(self):
        record = make_record(label=1)
        assert record_to_sentence(record, include_label=True).endswith(", Abnormal")

    def test_include_label_requires_label(self):
        with pytest.raises(ValueError):
            record_to_sentence(JobRecord(features={"runtime": 1.0}), include_label=True)

    def test_roundtrip_sentence_to_record(self):
        record = make_record(label=1)
        sentence = record_to_sentence(record, include_label=True)
        parsed = sentence_to_record(sentence)
        assert parsed.label == 1
        assert parsed.features == pytest.approx(record.features)

    def test_sentence_to_record_rejects_malformed(self):
        with pytest.raises(ValueError):
            sentence_to_record("runtime equals 5.0")

    def test_streaming_prefixes_grow_one_feature_at_a_time(self):
        record = make_record()
        prefixes = list(streaming_prefixes(record))
        assert len(prefixes) == len(FEATURE_ORDER)
        assert prefixes[0][1].startswith("wms_delay is")
        for (k, sentence), name in zip(prefixes, FEATURE_ORDER):
            assert sentence.count(" is ") == k

    def test_num_features_truncation(self):
        record = make_record()
        sentence = record_to_sentence(record, num_features=3)
        assert sentence.count(" is ") == 3

    def test_feature_vector_orders_and_nans(self):
        record = JobRecord(features={"runtime": 5.0})
        vec = record.feature_vector()
        assert vec[FEATURE_ORDER.index("runtime")] == 5.0
        assert np.isnan(vec[0])

    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False), min_size=9, max_size=9
        ),
        label=st.sampled_from([0, 1]),
    )
    def test_roundtrip_property(self, values, label):
        features = {name: round(float(v), 1) for name, v in zip(FEATURE_ORDER, values)}
        record = JobRecord(features=features, label=label)
        parsed = sentence_to_record(record_to_sentence(record, include_label=True))
        assert parsed.label == label
        for name in FEATURE_ORDER:
            assert parsed.features[name] == pytest.approx(features[name], rel=1e-6)


#: The two binners the binning tests run on: the default and a finer one.
BINNERS = pytest.mark.parametrize(
    "binner",
    [NumericBinner(), NumericBinner(bins_per_decade=10, min_exponent=-6, max_exponent=20)],
    ids=["default", "fine"],
)


class TestNumericBinner:
    def test_special_values(self):
        binner = NumericBinner()
        assert binner.bin(0.0) == "<num|zero>"
        assert binner.bin(float("nan")) == "<num|nan>"

    def test_sign_and_magnitude_encoded(self):
        binner = NumericBinner()
        assert binner.bin(250.0).startswith("<num|+e2")
        assert binner.bin(-250.0).startswith("<num|-e2")

    def test_monotone_in_magnitude(self):
        """Larger magnitudes never map to a strictly smaller (exponent, bin)."""
        binner = NumericBinner()

        def key(value):
            token = binner.bin(value)
            exponent = int(token.split("|")[1][1:].replace("e", ""))
            sub = int(token.split("b")[-1].rstrip(">"))
            return exponent, sub

        values = [1.0, 2.0, 5.0, 10.0, 99.0, 1e3, 5e6]
        keys = [key(v) for v in values]
        assert keys == sorted(keys)

    def test_all_tokens_cover_emitted_tokens(self):
        binner = NumericBinner()
        universe = set(binner.all_tokens())
        rng = np.random.default_rng(0)
        for value in rng.lognormal(3, 4, size=200):
            assert binner.bin(float(value)) in universe

    @settings(max_examples=50, deadline=None)
    @given(value=st.floats(min_value=1e-3, max_value=1e12, allow_nan=False))
    def test_binning_is_deterministic(self, value):
        binner = NumericBinner()
        assert binner.bin(value) == binner.bin(value)

    @staticmethod
    def np_clip_reference(binner, value):
        """The original ``bin`` formula, clipping with scalar ``np.clip``."""
        if value is None or (isinstance(value, float) and np.isnan(value)):
            return "<num|nan>"
        value = float(value)
        if value == 0.0:
            return "<num|zero>"
        sign = "-" if value < 0 else "+"
        mag = abs(value)
        exponent = int(np.floor(np.log10(mag)))
        exponent = int(np.clip(exponent, binner.min_exponent, binner.max_exponent))
        mantissa = mag / (10.0**exponent)
        frac = np.log10(np.clip(mantissa, 1.0, 10.0 - 1e-12))
        sub_bin = min(int(frac * binner.bins_per_decade), binner.bins_per_decade - 1)
        return f"<num|{sign}e{exponent}|b{sub_bin}>"

    @staticmethod
    def formula_token(binner, value):
        """The token ``NumericBinner.formula`` (the specification) gives a
        nonzero value, ±inf taking the top bin."""
        sign = "-" if value < 0 else "+"
        if np.isinf(value):
            return f"<num|{sign}e{binner.max_exponent}|b{binner.bins_per_decade - 1}>"
        exponent, sub_bin = binner.formula(abs(value))
        return f"<num|{sign}e{exponent}|b{sub_bin}>"

    def assert_bins_match_formula(self, binner, values):
        """``bin`` equals the formula on every nonzero value and its negation."""
        values = [float(v) for v in values if v != 0.0 and not np.isnan(v)]
        mismatches = [
            v for v in values + [-v for v in values]
            if binner.bin(v) != self.formula_token(binner, v)
        ]
        assert not mismatches, mismatches[:10]

    @BINNERS
    def test_bin_equals_np_clip_formula(self, binner, small_dataset):
        """Bit-identical to the np.clip formula, and ``formula`` to both, on the
        binner's own sub-bin boundaries (and their float neighbours) one
        decade past each clip end, the double range's extremes and real
        feature values."""
        values = [1e-300, 5e-324, 1.7e308, sys.float_info.max]
        per_decade = binner.bins_per_decade
        for k in range(binner.min_exponent - 1, binner.max_exponent + 2):
            for j in range(per_decade + 1):
                boundary = 10.0 ** (k + j / per_decade)
                values += [
                    boundary,
                    float(np.nextafter(boundary, 0.0)),
                    float(np.nextafter(boundary, np.inf)),
                ]
        values += [-v for v in values]
        for sentence in small_dataset.train.sentences() + small_dataset.test.sentences():
            values += [float(number) for number, _ in _PIECE_RE.findall(sentence) if number]
        for value in values:
            expected = self.np_clip_reference(binner, value)
            assert binner.bin(value) == expected, value
            assert self.formula_token(binner, value) == expected, value

    @BINNERS
    def test_bin_equals_formula_around_every_table_entry(self, binner):
        table = binner.boundaries
        bins = (binner.max_exponent - binner.min_exponent + 1) * binner.bins_per_decade
        assert len(table) == bins - 1
        assert list(table) == sorted(table)
        values = []
        for entry in table:
            below = above = entry
            for _ in range(2):
                below = float(np.nextafter(below, 0.0))
                above = float(np.nextafter(above, np.inf))
                values += [below, above]
            values.append(entry)
        self.assert_bins_match_formula(binner, values)

    @BINNERS
    def test_bin_equals_formula_on_flowbench_features(self, binner):
        """Every feature value of every FlowBench workflow, raw and as the
        sentences print it (``.1f``)."""
        values = []
        for workflow in WORKFLOW_NAMES:
            dataset = generate_dataset(workflow, num_traces=2, seed=0)
            for split in dataset.splits().values():
                for record in split.records:
                    for value in record.features.values():
                        if value is not None and not np.isnan(value):
                            values += [value, float(f"{value:.1f}")]
        assert len(values) > 10_000
        self.assert_bins_match_formula(binner, values)

    @BINNERS
    def test_bin_equals_formula_on_log_uniform_magnitudes(self, binner):
        """200,000 values: 100,000 log-uniform magnitudes, each with both signs."""
        rng = np.random.default_rng(0)
        exponents = rng.uniform(binner.min_exponent - 3, binner.max_exponent + 3, size=100_000)
        self.assert_bins_match_formula(binner, (10.0**exponents).tolist())

    def test_infinities_take_the_extreme_bins(self, tokenizer):
        binner = NumericBinner()
        assert binner.bin(float("inf")) == "<num|+e12|b3>" == binner.bin(1e300)
        assert binner.bin(float("-inf")) == "<num|-e12|b3>" == binner.bin(-1e300)
        fine = NumericBinner(bins_per_decade=10, min_exponent=-6, max_exponent=20)
        assert fine.bin(float("inf")) == "<num|+e20|b9>"
        assert tokenizer.tokenize("runtime is 1e400") == ["runtime", "is", "<num|+e12|b3>"]
        assert tokenizer.tokenize("runtime is -1e400") == ["runtime", "is", "<num|-e12|b3>"]
        assert tokenizer.vocab.unk_id not in tokenizer.encode_causal("runtime is 1e400")

    def test_special_values_of_any_float_type(self):
        binner = NumericBinner()
        assert binner.bin(None) == "<num|nan>"
        assert binner.bin(np.float32("nan")) == "<num|nan>"
        assert binner.bin(-0.0) == "<num|zero>"
        assert binner.bin(250) == binner.bin(250.0)

    def test_rejects_configurations_without_a_normal_table(self):
        for fields in ((0, -2, 12), (4, 3, 2), (4, -2, 400), (4, -320, 0)):
            with pytest.raises(ValueError):
                NumericBinner(*fields)

    @BINNERS
    @settings(max_examples=100, deadline=None)
    @given(
        sign=st.sampled_from(["", "+", "-"]),
        whole=st.from_regex(r"[0-9]{1,20}", fullmatch=True),
        fraction=st.from_regex(r"(\.[0-9]{0,20})?", fullmatch=True),
        exponent=st.none() | st.integers(min_value=-400, max_value=400),
    )
    def test_tokenize_any_numeral_matches_formula(self, binner, sign, whole, fraction, exponent):
        """Numerals of any size, beyond the double range too, never raise."""
        numeral = f"{sign}{whole}{fraction}" + ("" if exponent is None else f"e{exponent}")
        tok = LogTokenizer(Vocabulary(), binner)
        value = float(numeral)
        expected = "<num|zero>" if value == 0.0 else self.formula_token(binner, value)
        assert tok.tokenize(f"runtime is {numeral}") == ["runtime", "is", expected]


class TestVocabulary:
    def test_special_tokens_present_and_stable(self):
        vocab = Vocabulary()
        assert vocab.pad_id == 0
        assert vocab.unk_id == 1
        assert len(vocab) == 7

    def test_unknown_maps_to_unk(self):
        vocab = Vocabulary(["alpha"])
        assert vocab.token_to_id("beta") == vocab.unk_id

    def test_encode_decode_roundtrip(self):
        vocab = Vocabulary(["a", "b", "c"])
        ids = vocab.encode(["a", "c", "b"])
        assert vocab.decode(ids) == ["a", "c", "b"]

    def test_build_respects_frequency_and_size(self):
        streams = [["x", "x", "y"], ["x", "z"]]
        vocab = Vocabulary.build(streams, min_frequency=2)
        assert "x" in vocab and "y" not in vocab
        capped = Vocabulary.build(streams, max_size=1)
        assert "x" in capped and "z" not in capped

    def test_id_to_token_bounds(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(IndexError):
            vocab.id_to_token(999)


#: The two-regex splitter ``LogTokenizer.tokenize`` used before its single
#: ``_PIECE_RE`` pass: match a piece, then re-match it as a number.
_OLD_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_OLD_WORD_RE = re.compile(
    r"[A-Za-z_]+|[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|[^\sA-Za-z0-9_]"
)


def two_regex_tokenize(tok, text):
    pieces = []
    for match in _OLD_WORD_RE.finditer(text):
        piece = match.group(0)
        if _OLD_NUMBER_RE.match(piece):
            pieces.append(tok.binner.bin(float(piece)))
        else:
            pieces.append(piece.lower() if tok.lowercase else piece)
    return pieces


class TestLogTokenizer:
    @pytest.fixture()
    def tok(self):
        sentences = [record_to_sentence(make_record()) for _ in range(3)]
        return LogTokenizer.build_from_corpus(sentences)

    def test_pieces_equal_two_regex_reference(self, tok, small_dataset):
        records = small_dataset.train.records
        template = PromptTemplate()
        texts = small_dataset.train.sentences() + small_dataset.test.sentences()
        texts += [template.build(q, [(r, r.label) for r in records[:8]]) for q in records[8:40]]
        texts += ["É:", "+5", "-.5e3", "5.", "a1b2", "x-5", "ÀB, c-d_e 1e5x 07.5E-2."]
        cased = LogTokenizer(tok.vocab, lowercase=False)
        for text in texts:
            for t in (tok, cased):
                assert t.tokenize(text) == two_regex_tokenize(t, text), text
        assert tok.tokenize("É:") == ["é", ":"]
        assert tok.tokenize("x-5") == ["x", tok.binner.bin(-5.0)]

    def test_numbers_become_bin_tokens(self, tok):
        pieces = tok.tokenize("runtime is 2090.0")
        assert pieces[0] == "runtime"
        assert pieces[2].startswith("<num|")

    def test_prompt_tokens_always_in_vocab(self, tok):
        for word in ("normal", "abnormal", "category", "instruct"):
            assert word in tok.vocab
        assert set(PROMPT_TOKENS).issubset(set(tok.vocab.tokens()))

    def test_classification_encoding_shape_and_mask(self, tok):
        ids, mask = tok.encode_classification("runtime is 10.0", max_length=16)
        assert ids.shape == (16,) and mask.shape == (16,)
        assert ids[0] == tok.vocab.cls_id
        assert mask.sum() == 5  # CLS + 3 pieces + SEP
        assert ids[mask.sum() - 1] == tok.vocab.sep_id

    def test_classification_truncates_to_max_length(self, tok):
        long_sentence = record_to_sentence(make_record())
        ids, mask = tok.encode_classification(long_sentence, max_length=8)
        assert mask.sum() == 8

    def test_classification_min_length_validation(self, tok):
        with pytest.raises(ValueError):
            tok.encode_classification("runtime is 1.0", max_length=1)

    def test_batch_classification_stacks(self, tok):
        ids, mask = tok.encode_batch_classification(["runtime is 1.0", "runtime is 2.0"], max_length=12)
        assert ids.shape == (2, 12) and mask.dtype == bool

    def test_causal_encoding_has_bos(self, tok):
        ids = tok.encode_causal("runtime is 10.0")
        assert ids[0] == tok.vocab.bos_id

    def test_batch_causal_right_pads(self, tok):
        ids, mask = tok.encode_batch_causal(["runtime is 1.0", "runtime is 1.0 cpu_time is 2.0"])
        assert ids.shape == mask.shape
        assert mask[0].sum() < mask[1].sum()
        assert ids[0, mask[0].sum():].tolist() == [tok.vocab.pad_id] * (ids.shape[1] - mask[0].sum())

    def test_decode_skips_special_tokens(self, tok):
        ids, _ = tok.encode_classification("runtime is 10.0", max_length=12)
        text = tok.decode(ids)
        assert "[CLS]" not in text and "runtime" in text

    def test_unseen_magnitudes_never_unk(self, tok):
        ids = tok.encode_causal("runtime is 123456789.0", add_bos=False)
        assert tok.vocab.unk_id not in ids
