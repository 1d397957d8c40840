"""Transformer building blocks: feed-forward, encoder/decoder layers, stacks.

Encoder layers use the post-LayerNorm arrangement of the original BERT, the
decoder layers use the pre-LayerNorm arrangement of GPT-2 — matching the
families of pre-trained checkpoints the paper fine-tunes and prompts.

The decoder stack has two forwards: ``forward`` builds the autograd graph
for training and uncached scoring, and ``infer`` runs eval-mode cached
inference on plain arrays against a KV cache.
"""

from __future__ import annotations

import numpy as np

from repro.nn.attention import KVCache, MultiHeadAttention
from repro.nn.layers import Dropout, Embedding, LayerNorm, Linear
from repro.nn.module import Module, ModuleList
from repro.tensor import Tensor, kernels
from repro.utils.rng import new_rng, spawn_rngs

__all__ = [
    "FeedForward",
    "TransformerEncoderLayer",
    "TransformerDecoderLayer",
    "TransformerEncoder",
    "TransformerDecoder",
    "PositionalEmbedding",
    "SinusoidalPositionalEncoding",
]


class FeedForward(Module):
    """Position-wise feed-forward network with GELU activation."""

    def __init__(
        self,
        hidden_size: int,
        intermediate_size: int,
        dropout: float = 0.1,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        rngs = spawn_rngs(new_rng(rng), 3)
        self.fc_in = Linear(hidden_size, intermediate_size, rng=rngs[0])
        self.fc_out = Linear(intermediate_size, hidden_size, rng=rngs[1])
        self.dropout = Dropout(dropout, rng=rngs[2])

    def forward(self, x: Tensor) -> Tensor:
        return self.dropout(self.fc_out(self.fc_in(x).gelu()))

    def infer(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` in eval mode on a plain array."""
        return self.fc_out.infer(kernels.gelu(self.fc_in.infer(x))[0])


class TransformerEncoderLayer(Module):
    """Post-LN bidirectional transformer layer (BERT style)."""

    def __init__(
        self,
        hidden_size: int,
        num_heads: int,
        intermediate_size: int,
        dropout: float = 0.1,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        rngs = spawn_rngs(new_rng(rng), 3)
        self.attention = MultiHeadAttention(hidden_size, num_heads, dropout, causal=False, rng=rngs[0])
        self.attn_norm = LayerNorm(hidden_size)
        self.feed_forward = FeedForward(hidden_size, intermediate_size, dropout, rng=rngs[1])
        self.ffn_norm = LayerNorm(hidden_size)
        self.dropout = Dropout(dropout, rng=rngs[2])

    def forward(self, x: Tensor, attention_mask: np.ndarray | None = None) -> Tensor:
        attn_out = self.attention(x, attention_mask)
        x = self.attn_norm(x + self.dropout(attn_out))
        ffn_out = self.feed_forward(x)
        return self.ffn_norm(x + ffn_out)


class TransformerDecoderLayer(Module):
    """Pre-LN causal transformer layer (GPT style)."""

    def __init__(
        self,
        hidden_size: int,
        num_heads: int,
        intermediate_size: int,
        dropout: float = 0.1,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        rngs = spawn_rngs(new_rng(rng), 3)
        self.attn_norm = LayerNorm(hidden_size)
        self.attention = MultiHeadAttention(hidden_size, num_heads, dropout, causal=True, rng=rngs[0])
        self.ffn_norm = LayerNorm(hidden_size)
        self.feed_forward = FeedForward(hidden_size, intermediate_size, dropout, rng=rngs[1])
        self.dropout = Dropout(dropout, rng=rngs[2])

    def forward(self, x: Tensor, attention_mask: np.ndarray | None = None) -> Tensor:
        x = x + self.dropout(self.attention(self.attn_norm(x), attention_mask))
        return x + self.feed_forward(self.ffn_norm(x))

    def infer(
        self,
        x: np.ndarray,
        attention_mask: np.ndarray | None,
        cache,
        columns: np.ndarray | None = None,
    ) -> np.ndarray:
        """:meth:`forward` in eval mode on plain arrays, against a KV ``cache``
        layer.  ``columns`` (batch, k), when given, keeps only those
        positions: every position still feeds the cache, but the attention
        queries, residual and MLP run at the selected columns alone."""
        h = self.attention.forward(
            self.attn_norm.infer(x), attention_mask, cache=cache, query_columns=columns
        )
        if columns is not None:
            x = x[np.arange(x.shape[0])[:, None], columns]
        h += x
        out = self.feed_forward.infer(self.ffn_norm.infer(h))
        out += h
        return out


class PositionalEmbedding(Module):
    """Learned absolute positional embeddings."""

    def __init__(
        self,
        max_positions: int,
        hidden_size: int,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        self.max_positions = max_positions
        self.embedding = Embedding(max_positions, hidden_size, rng=rng)

    def forward(self, seq_len: int, batch_size: int) -> Tensor:
        if seq_len > self.max_positions:
            raise ValueError(
                f"sequence length {seq_len} exceeds maximum positions {self.max_positions}"
            )
        positions = np.broadcast_to(np.arange(seq_len, dtype=np.int64), (batch_size, seq_len))
        return self.embedding(positions)


class SinusoidalPositionalEncoding(Module):
    """Fixed sine/cosine positional encoding (Vaswani et al. 2017).

    Used by the decoder models: because the encoding is not learned, contexts
    longer than anything seen during (scaled-down synthetic) pre-training are
    still embedded sensibly, which matters for few-shot prompts that are much
    longer than individual training sentences.
    """

    def __init__(self, max_positions: int, hidden_size: int, scale: float = 0.02) -> None:
        super().__init__()
        self.max_positions = max_positions
        position = np.arange(max_positions, dtype=np.float32)[:, None]
        dim = np.arange(hidden_size, dtype=np.float32)[None, :]
        angle_rates = 1.0 / np.power(10000.0, (2 * (dim // 2)) / np.float32(hidden_size))
        angles = position * angle_rates
        encoding = np.zeros((max_positions, hidden_size), dtype=np.float32)
        encoding[:, 0::2] = np.sin(angles[:, 0::2])
        encoding[:, 1::2] = np.cos(angles[:, 1::2])
        # Match the standard deviation of the token embeddings (0.02); the raw
        # unit-amplitude encoding would otherwise drown the token content.
        self.register_buffer("encoding", encoding * np.float32(scale))

    def forward(self, seq_len: int, batch_size: int) -> Tensor:
        if seq_len > self.max_positions:
            raise ValueError(
                f"sequence length {seq_len} exceeds maximum positions {self.max_positions}"
            )
        block = self.encoding[:seq_len]
        return Tensor(np.broadcast_to(block, (batch_size, seq_len, block.shape[-1])).copy())

    def gather(self, positions: np.ndarray) -> np.ndarray:
        """Encoding for an explicit per-token position array of shape (batch, seq).

        Left-padded batched decoding needs this: each row's real tokens sit at
        their own absolute positions (0-based from the row's first real token),
        which differ across rows of the same padded batch.
        """
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size and (positions.min() < 0 or positions.max() >= self.max_positions):
            raise ValueError(
                f"positions must lie in [0, {self.max_positions}), got "
                f"[{positions.min()}, {positions.max()}]"
            )
        return self.encoding[positions]


class TransformerEncoder(Module):
    """Stack of encoder layers with optional cross-layer parameter sharing.

    ``share_layers=True`` reproduces ALBERT's parameter sharing: a single
    layer is applied ``num_layers`` times, which greatly reduces the
    parameter count (visible in the Fig. 5 time-vs-parameters reproduction).
    """

    def __init__(
        self,
        num_layers: int,
        hidden_size: int,
        num_heads: int,
        intermediate_size: int,
        dropout: float = 0.1,
        share_layers: bool = False,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        rng = new_rng(rng)
        self.num_layers = num_layers
        self.share_layers = share_layers
        if share_layers:
            self.layers = ModuleList(
                [TransformerEncoderLayer(hidden_size, num_heads, intermediate_size, dropout, rng=rng)]
            )
        else:
            self.layers = ModuleList(
                [
                    TransformerEncoderLayer(hidden_size, num_heads, intermediate_size, dropout, rng=r)
                    for r in spawn_rngs(rng, num_layers)
                ]
            )

    def forward(self, x: Tensor, attention_mask: np.ndarray | None = None) -> Tensor:
        if self.share_layers:
            layer = self.layers[0]
            for _ in range(self.num_layers):
                x = layer(x, attention_mask)
            return x
        for layer in self.layers:
            x = layer(x, attention_mask)
        return x


class TransformerDecoder(Module):
    """Stack of causal decoder layers followed by a final layer norm."""

    def __init__(
        self,
        num_layers: int,
        hidden_size: int,
        num_heads: int,
        intermediate_size: int,
        dropout: float = 0.1,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        rng = new_rng(rng)
        self.num_layers = num_layers
        self.layers = ModuleList(
            [
                TransformerDecoderLayer(hidden_size, num_heads, intermediate_size, dropout, rng=r)
                for r in spawn_rngs(rng, num_layers)
            ]
        )
        self.final_norm = LayerNorm(hidden_size)

    def forward(self, x: Tensor, attention_mask: np.ndarray | None = None) -> Tensor:
        for layer in self.layers:
            x = layer(x, attention_mask)
        return self.final_norm(x)

    def infer(
        self,
        x: np.ndarray,
        attention_mask: np.ndarray | None,
        cache,
        columns: np.ndarray | None = None,
    ) -> np.ndarray:
        """:meth:`forward` in eval mode on plain arrays, against a KV ``cache``.

        ``columns`` (batch, k) selects the positions returned: only those
        run through the last layer and the final norm (see
        :meth:`TransformerDecoderLayer.infer`)."""
        if len(cache.layers) != self.num_layers:
            raise ValueError(
                f"cache has {len(cache.layers)} layers, decoder has {self.num_layers}"
            )
        last = self.num_layers - 1
        for i, layer in enumerate(self.layers):
            x = layer.infer(x, attention_mask, cache.layers[i], columns if i == last else None)
        return self.final_norm.infer(x)

    def make_cache(self, batch_size: int, capacity: int) -> KVCache:
        """Allocate an empty :class:`KVCache` matching this stack's geometry."""
        attention = self.layers[0].attention
        return KVCache(
            self.num_layers, batch_size, attention.num_heads, attention.head_dim, capacity
        )
