"""Elementary layers: Linear, Embedding, LayerNorm, Dropout and activations.

The affine layers also have an ``infer`` method, the same forward on plain
arrays for eval-mode cached inference; both paths share the forward math
of :mod:`repro.tensor.kernels`.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, functional as F, kernels
from repro.utils.rng import new_rng, spawn_rngs

__all__ = ["Linear", "Embedding", "LayerNorm", "Dropout", "reseed_dropout", "GELU", "ReLU", "Tanh"]


class Linear(Module):
    """Affine transform ``y = x W^T + b`` with Kaiming-uniform initialisation."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | int | None = None,
        init: bool = True,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        self.in_features = in_features
        self.out_features = out_features
        if init:
            rng = new_rng(rng)
            bound = float(1.0 / np.sqrt(in_features))
            weight = rng.uniform(-bound, bound, size=(out_features, in_features))
            bias_values = rng.uniform(-bound, bound, size=(out_features,)) if bias else None
        else:
            # Caller will overwrite the parameters (e.g. weight fusion);
            # skip the random draws.
            weight = np.zeros((out_features, in_features), dtype=np.float32)
            bias_values = np.zeros(out_features, dtype=np.float32) if bias else None
        self.weight = Parameter(weight)
        self.bias = Parameter(bias_values) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` on a plain array (inference: no graph, no Tensor)."""
        return kernels.linear(x, self.weight.data, None if self.bias is None else self.bias.data)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Linear(in={self.in_features}, out={self.out_features}, bias={self.bias is not None})"


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: np.random.Generator | int | None = None,
        padding_idx: int | None = None,
    ) -> None:
        super().__init__()
        if num_embeddings <= 0 or embedding_dim <= 0:
            raise ValueError("num_embeddings and embedding_dim must be positive")
        rng = new_rng(rng)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.padding_idx = padding_idx
        weight = rng.normal(0.0, 0.02, size=(num_embeddings, embedding_dim))
        if padding_idx is not None:
            weight[padding_idx] = 0.0
        self.weight = Parameter(weight)

    def forward(self, ids: np.ndarray | Tensor) -> Tensor:
        if isinstance(ids, Tensor):
            ids = ids.data
        return self.weight.take_rows(self._checked(ids))

    def infer(self, ids: np.ndarray) -> np.ndarray:
        """:meth:`forward` as a plain array (inference: no graph, no Tensor)."""
        return self.weight.data[self._checked(ids)]

    def _checked(self, ids) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_embeddings):
            raise IndexError(
                f"token id out of range [0, {self.num_embeddings}): "
                f"min={ids.min()}, max={ids.max()}"
            )
        return ids

    def __repr__(self) -> str:  # pragma: no cover
        return f"Embedding(num={self.num_embeddings}, dim={self.embedding_dim})"


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.normalized_shape = normalized_shape
        self.eps = eps
        self.weight = Parameter(np.ones(normalized_shape))
        self.bias = Parameter(np.zeros(normalized_shape))

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, eps=self.eps)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` on a plain array (inference: no graph, no Tensor)."""
        return kernels.layer_norm(x, self.weight.data, self.bias.data, self.eps)[0]

    def __repr__(self) -> str:  # pragma: no cover
        return f"LayerNorm({self.normalized_shape})"


class Dropout(Module):
    """Inverted dropout, deterministic given the generator's state."""

    def __init__(self, p: float = 0.1, rng: np.random.Generator | int | None = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = new_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.rng, training=self.training)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Dropout(p={self.p})"


def reseed_dropout(model: Module, seed: int) -> None:
    """Give every :class:`Dropout` in ``model`` a fresh generator from ``seed``.

    Training runs call this when they start, so the masks a run draws do not
    depend on how many forwards in train mode ran on the model before it.
    """
    layers = [m for m in model.modules() if isinstance(m, Dropout)]
    for layer, rng in zip(layers, spawn_rngs(seed, len(layers))):
        layer.rng = rng


class GELU(Module):
    """GELU activation module."""

    def forward(self, x: Tensor) -> Tensor:
        return x.gelu()


class ReLU(Module):
    """ReLU activation module."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Tanh(Module):
    """Tanh activation module."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()
