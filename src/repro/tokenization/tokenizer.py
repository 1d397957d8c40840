"""Log-aware tokenizer with numeric binning.

Workflow-log sentences are dominated by numeric values whose exact magnitudes
carry the anomaly signal (a CPU anomaly inflates ``runtime``/``cpu_time``, an
HDD anomaly inflates the staging delays).  A plain word-level tokenizer would
map every distinct value to a distinct token and never generalise; instead we
bin each number into a compact, order-preserving token such as
``<num|e2|b3>`` (order of magnitude ``10^2``, third sub-bin within that
decade).  This keeps the vocabulary small, deterministic, and shared across
workflows — the property the paper relies on for transfer learning.
"""

from __future__ import annotations

import functools
import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.tokenization.vocab import SpecialTokens, Vocabulary

__all__ = ["NumericBinner", "LogTokenizer", "PROMPT_TOKENS"]

#: One piece per match: group 1 holds a number, group 2 a word or a single
#: punctuation mark (any non-space character outside ``[A-Za-z0-9_]``).
_PIECE_RE = re.compile(
    r"([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|([A-Za-z_]+|[^\sA-Za-z0-9_])"
)

#: Words that appear in the ICL prompt templates and label verbalisation but
#: not necessarily in raw log sentences.  They are always primed into the
#: vocabulary so that prompts and category continuations ("Normal" /
#: "Abnormal") never degrade to ``[UNK]`` — which would make the two
#: categories indistinguishable to the scoring engine.
PROMPT_TOKENS: tuple[str, ...] = (
    "normal", "abnormal", "category", "instruct", "job", "jobs", "you", "are", "a",
    "system", "administration", "bot", "your", "task", "is", "to", "assess",
    "description", "with", "couple", "of", "features", "into", "one", "the",
    "following", "categories", "will", "only", "respond", "do", "not", "include",
    "word", "provide", "explanations", "or", "notes", "single", "has", "including",
    "example", "please", "think", "about", "it", "step", "by", "unknown",
    ":", ",", ".", '"', "#", "and",
)


@functools.lru_cache(maxsize=None)
def _derive_table(binner: "NumericBinner") -> tuple[tuple[float, ...], ...]:
    """``(boundaries, positive tokens, negative tokens)`` of one binner
    configuration, derived from :meth:`NumericBinner.formula`.

    Bins are numbered by ordinal ``(exponent - min_exponent) *
    bins_per_decade + sub_bin``, which the formula never decreases as the
    magnitude grows.  ``boundaries[o - 1]`` is the least double whose ordinal
    is at least ``o``, so ``bisect_right(boundaries, magnitude)`` is the
    ordinal of ``magnitude``.  Each entry is found by stepping one ulp at a
    time from the closed-form boundary ``10 ** (sub_bin / bins_per_decade) *
    10 ** exponent``, which the formula's rounding moves by a few ulps
    (up to a few hundred near the ends of the double range).
    """
    per_decade, lowest = binner.bins_per_decade, binner.min_exponent

    def ordinal(magnitude: float) -> int:
        exponent, sub_bin = binner.formula(magnitude)
        return (exponent - lowest) * per_decade + sub_bin

    count = (binner.max_exponent - lowest + 1) * per_decade
    boundaries = []
    for o in range(1, count):
        decade, sub_bin = divmod(o, per_decade)
        x = 10.0 ** (sub_bin / per_decade) * 10.0 ** (lowest + decade)
        while ordinal(x) >= o:
            x = math.nextafter(x, 0.0)
        while ordinal(x) < o:
            x = math.nextafter(x, math.inf)
        boundaries.append(x)
    names = [f"e{lowest + o // per_decade}|b{o % per_decade}>" for o in range(count)]
    positive, negative = (tuple(f"<num|{sign}{name}" for name in names) for sign in "+-")
    return tuple(boundaries), positive, negative


@dataclass(frozen=True)
class NumericBinner:
    """Map a float to a discrete, order-preserving token.

    The token encodes the sign, the order of magnitude (clipped to
    ``[min_exponent, max_exponent]``) and the position within that decade
    divided into ``bins_per_decade`` equal sub-bins.

    :meth:`formula` is the specification of a magnitude's bin.  :meth:`bin`
    does not evaluate it: it looks the magnitude up in :attr:`boundaries`, a
    sorted table derived from the formula once per configuration, and returns
    the formula's bin for every finite double without the formula's two
    scalar ``np.log10`` calls.  ``±inf`` land in the top bin
    (``<num|±e{max_exponent}|b{bins_per_decade - 1}>``), where any magnitude
    beyond ``10 ** (max_exponent + 1)`` already lands.
    """

    bins_per_decade: int = 4
    min_exponent: int = -2
    max_exponent: int = 12
    #: Derived in ``__post_init__`` (see :func:`_derive_table`).
    boundaries: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _positive: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _negative: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Every boundary of the table must be a normal finite double.
        if self.bins_per_decade < 1 or not -307 <= self.min_exponent <= self.max_exponent <= 307:
            raise ValueError(
                "need bins_per_decade >= 1 and -307 <= min_exponent <= max_exponent <= 307; "
                f"got {self.bins_per_decade}, {self.min_exponent}, {self.max_exponent}"
            )
        boundaries, positive, negative = _derive_table(self)
        object.__setattr__(self, "boundaries", boundaries)
        object.__setattr__(self, "_positive", positive)
        object.__setattr__(self, "_negative", negative)

    def formula(self, magnitude: float) -> tuple[int, int]:
        """``(exponent, sub_bin)`` of a finite ``magnitude > 0``: the
        specification :attr:`boundaries` is derived from."""
        # np.log10, not math.log10: the two disagree at exact sub-bin
        # boundaries such as 10**1.25.
        exponent = math.floor(np.log10(magnitude))
        exponent = max(self.min_exponent, min(exponent, self.max_exponent))
        mantissa = magnitude / (10.0**exponent)
        # mantissa in [1, 10): map to bins_per_decade equal log-spaced sub-bins
        frac = np.log10(max(1.0, min(mantissa, 10.0 - 1e-12)))
        sub_bin = min(int(frac * self.bins_per_decade), self.bins_per_decade - 1)
        return exponent, sub_bin

    def bin(self, value: float) -> str:
        if value is None:
            return "<num|nan>"
        value = float(value)
        if value > 0.0:
            return self._positive[bisect_right(self.boundaries, value)]
        if value < 0.0:
            return self._negative[bisect_right(self.boundaries, -value)]
        return "<num|zero>" if value == 0.0 else "<num|nan>"

    def all_tokens(self) -> list[str]:
        """Enumerate every token the binner can emit (for vocabulary priming)."""
        tokens = ["<num|nan>", "<num|zero>"]
        for sign in "+-":
            for exponent in range(self.min_exponent, self.max_exponent + 1):
                for sub_bin in range(self.bins_per_decade):
                    tokens.append(f"<num|{sign}e{exponent}|b{sub_bin}>")
        return tokens


class LogTokenizer:
    """Tokenizer for parsed log sentences (SFT and ICL models share it).

    Encoding conventions
    --------------------
    * ``encode_classification`` → ``[CLS] tokens... [SEP]`` padded/truncated
      to ``max_length`` plus a boolean attention mask (encoder models).
    * ``encode_causal`` → ``<bos> tokens...`` without padding (decoder
      models; batching pads on the right with ``[PAD]``).
    """

    def __init__(
        self,
        vocab: Vocabulary,
        binner: NumericBinner | None = None,
        lowercase: bool = True,
    ) -> None:
        self.vocab = vocab
        self.binner = binner or NumericBinner()
        self.lowercase = lowercase

    # ------------------------------------------------------------------ #
    # string → token pieces
    # ------------------------------------------------------------------ #
    def tokenize(self, text: str) -> list[str]:
        """Split text into word / punctuation / binned-number tokens."""
        bin_value, lowercase = self.binner.bin, self.lowercase
        return [
            bin_value(float(number)) if number else (other.lower() if lowercase else other)
            for number, other in _PIECE_RE.findall(text)
        ]

    # ------------------------------------------------------------------ #
    # token pieces → ids
    # ------------------------------------------------------------------ #
    def encode_classification(
        self, text: str, max_length: int = 64
    ) -> tuple[np.ndarray, np.ndarray]:
        """Encode for an encoder classifier.

        Returns ``(input_ids, attention_mask)`` both of length ``max_length``.
        """
        if max_length < 2:
            raise ValueError("max_length must be at least 2 to hold [CLS] and [SEP]")
        pieces = self.tokenize(text)[: max_length - 2]
        ids = [self.vocab.cls_id] + self.vocab.encode(pieces) + [self.vocab.sep_id]
        mask = [True] * len(ids)
        pad_needed = max_length - len(ids)
        ids = ids + [self.vocab.pad_id] * pad_needed
        mask = mask + [False] * pad_needed
        return np.asarray(ids, dtype=np.int64), np.asarray(mask, dtype=bool)

    def encode_batch_classification(
        self, texts: Sequence[str], max_length: int = 64
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised batch encoding for encoder classifiers."""
        encoded = [self.encode_classification(t, max_length) for t in texts]
        ids = np.stack([e[0] for e in encoded])
        mask = np.stack([e[1] for e in encoded])
        return ids, mask

    def encode_causal(self, text: str, add_bos: bool = True, add_eos: bool = False) -> np.ndarray:
        """Encode for a causal LM (no padding)."""
        pieces = self.tokenize(text)
        ids = self.vocab.encode(pieces)
        if add_bos:
            ids = [self.vocab.bos_id] + ids
        if add_eos:
            ids = ids + [self.vocab.eos_id]
        return np.asarray(ids, dtype=np.int64)

    def encode_batch_causal(
        self, texts: Sequence[str], max_length: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Right-pad a batch of causal sequences; returns (ids, attention_mask)."""
        sequences = [self.encode_causal(t) for t in texts]
        if max_length is not None:
            sequences = [s[:max_length] for s in sequences]
        longest = max(len(s) for s in sequences)
        ids = np.full((len(sequences), longest), self.vocab.pad_id, dtype=np.int64)
        mask = np.zeros((len(sequences), longest), dtype=bool)
        for i, seq in enumerate(sequences):
            ids[i, : len(seq)] = seq
            mask[i, : len(seq)] = True
        return ids, mask

    def decode(self, ids: Sequence[int], skip_special: bool = True) -> str:
        """Convert ids back to a space-joined string (lossy for numbers)."""
        special = set(self.vocab.special.all()) if skip_special else set()
        tokens = [t for t in self.vocab.decode(ids) if t not in special]
        return " ".join(tokens)

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build_from_corpus(
        cls,
        sentences: Iterable[str],
        *,
        binner: NumericBinner | None = None,
        lowercase: bool = True,
        min_frequency: int = 1,
        max_size: int | None = None,
        special_tokens: SpecialTokens | None = None,
    ) -> "LogTokenizer":
        """Build a tokenizer whose vocabulary covers ``sentences``.

        The numeric-bin tokens are always added up front so that unseen value
        magnitudes at inference time never map to ``[UNK]``.
        """
        binner = binner or NumericBinner()
        bootstrap = cls(Vocabulary(special_tokens=special_tokens), binner, lowercase)
        streams = [bootstrap.tokenize(s) for s in sentences]
        vocab = Vocabulary(binner.all_tokens(), special_tokens=special_tokens)
        for token in PROMPT_TOKENS:
            vocab.add_token(token if lowercase else token)
        corpus_vocab = Vocabulary.build(
            streams, min_frequency=min_frequency, max_size=max_size, special_tokens=special_tokens
        )
        for token in corpus_vocab.tokens():
            vocab.add_token(token)
        return cls(vocab, binner, lowercase)
