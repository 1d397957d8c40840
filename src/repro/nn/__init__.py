"""Neural-network module system built on :mod:`repro.tensor`.

The API intentionally mirrors a small subset of ``torch.nn`` so that the
transformer implementations in :mod:`repro.models` read like their PyTorch /
HuggingFace counterparts: :class:`Module` containers with named parameters,
``state_dict`` round-tripping, train/eval modes, and the usual layers
(Linear, Embedding, LayerNorm, Dropout, multi-head attention, transformer
blocks).
"""

from repro.nn.module import Module, Parameter, ModuleList, Sequential
from repro.nn.layers import Linear, Embedding, LayerNorm, Dropout, GELU, ReLU, Tanh
from repro.nn.attention import (
    KVCache,
    LayerKVCache,
    MultiHeadAttention,
    SharedPrefixKVCache,
)
from repro.nn.paged import BlockAllocator, PagedKVCache, PagedLayerKVCache
from repro.nn.serialization import pack as pack_kv_checkpoint
from repro.nn.serialization import peek_kind as peek_kv_checkpoint_kind
from repro.nn.serialization import unpack as unpack_kv_checkpoint
from repro.nn.transformer import (
    FeedForward,
    TransformerEncoderLayer,
    TransformerDecoderLayer,
    TransformerEncoder,
    TransformerDecoder,
    PositionalEmbedding,
)

__all__ = [
    "Module",
    "Parameter",
    "ModuleList",
    "Sequential",
    "Linear",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "GELU",
    "ReLU",
    "Tanh",
    "KVCache",
    "LayerKVCache",
    "SharedPrefixKVCache",
    "MultiHeadAttention",
    "BlockAllocator",
    "PagedKVCache",
    "PagedLayerKVCache",
    "pack_kv_checkpoint",
    "peek_kv_checkpoint_kind",
    "unpack_kv_checkpoint",
    "FeedForward",
    "TransformerEncoderLayer",
    "TransformerDecoderLayer",
    "TransformerEncoder",
    "TransformerDecoder",
    "PositionalEmbedding",
]
