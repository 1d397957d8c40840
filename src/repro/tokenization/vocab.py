"""Vocabulary with special tokens shared by encoder and decoder models."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["SpecialTokens", "Vocabulary"]


@dataclass(frozen=True)
class SpecialTokens:
    """Names of the special tokens.

    Encoders use ``[CLS]``/``[SEP]``/``[MASK]`` (BERT conventions), decoders
    use ``<bos>``/``<eos>``; both share ``[PAD]`` and ``[UNK]``.  Keeping them
    in one vocabulary lets SFT and ICL models share the tokenizer, which is
    exactly the generalisation argument the paper makes against
    log-system-specific tokenizations.
    """

    pad: str = "[PAD]"
    unk: str = "[UNK]"
    cls: str = "[CLS]"
    sep: str = "[SEP]"
    mask: str = "[MASK]"
    bos: str = "<bos>"
    eos: str = "<eos>"

    def all(self) -> tuple[str, ...]:
        return (self.pad, self.unk, self.cls, self.sep, self.mask, self.bos, self.eos)


class Vocabulary:
    """Bidirectional token ↔ id mapping with frequency-based construction."""

    def __init__(
        self,
        tokens: Iterable[str] = (),
        special_tokens: SpecialTokens | None = None,
    ) -> None:
        self.special = special_tokens or SpecialTokens()
        self._token_to_id: dict[str, int] = {}
        self._id_to_token: list[str] = []
        for token in self.special.all():
            self._add(token)
        for token in tokens:
            self._add(token)

    # ------------------------------------------------------------------ #
    def _add(self, token: str) -> int:
        if token not in self._token_to_id:
            self._token_to_id[token] = len(self._id_to_token)
            self._id_to_token.append(token)
        return self._token_to_id[token]

    def add_token(self, token: str) -> int:
        """Add a token (idempotent) and return its id."""
        return self._add(token)

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def token_to_id(self, token: str) -> int:
        return self._token_to_id.get(token, self._token_to_id[self.special.unk])

    def id_to_token(self, idx: int) -> str:
        if not 0 <= idx < len(self._id_to_token):
            raise IndexError(f"token id {idx} out of range for vocabulary of size {len(self)}")
        return self._id_to_token[idx]

    def encode(self, tokens: Sequence[str]) -> list[int]:
        get, unk = self._token_to_id.get, self._token_to_id[self.special.unk]
        return [get(t, unk) for t in tokens]

    def decode(self, ids: Sequence[int]) -> list[str]:
        return [self.id_to_token(int(i)) for i in ids]

    # Convenience ids ---------------------------------------------------- #
    @property
    def pad_id(self) -> int:
        return self._token_to_id[self.special.pad]

    @property
    def unk_id(self) -> int:
        return self._token_to_id[self.special.unk]

    @property
    def cls_id(self) -> int:
        return self._token_to_id[self.special.cls]

    @property
    def sep_id(self) -> int:
        return self._token_to_id[self.special.sep]

    @property
    def mask_id(self) -> int:
        return self._token_to_id[self.special.mask]

    @property
    def bos_id(self) -> int:
        return self._token_to_id[self.special.bos]

    @property
    def eos_id(self) -> int:
        return self._token_to_id[self.special.eos]

    def tokens(self) -> list[str]:
        """Return all tokens in id order."""
        return list(self._id_to_token)

    # Construction -------------------------------------------------------- #
    @classmethod
    def build(
        cls,
        token_streams: Iterable[Sequence[str]],
        *,
        min_frequency: int = 1,
        max_size: int | None = None,
        special_tokens: SpecialTokens | None = None,
    ) -> "Vocabulary":
        """Build a vocabulary from an iterable of token sequences.

        Tokens are ranked by frequency (ties broken alphabetically for
        determinism) and truncated to ``max_size`` non-special tokens.
        """
        counter: Counter[str] = Counter()
        for stream in token_streams:
            counter.update(stream)
        ranked = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
        selected = [tok for tok, freq in ranked if freq >= min_frequency]
        if max_size is not None:
            selected = selected[:max_size]
        return cls(selected, special_tokens=special_tokens)
