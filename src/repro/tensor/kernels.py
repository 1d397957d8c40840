"""Forward math of the differentiable ops, on plain ``np.ndarray``s.

Each kernel is the one place its formula is written: the autograd ops
(:meth:`Tensor.gelu` and the fused ops of :mod:`repro.tensor.functional`)
call it and keep what their backward needs, while cached inference
(:meth:`repro.models.decoder.DecoderLM.forward_incremental`) calls it
directly and builds no graph nodes at all.  Kernels that return a tuple
put the output first and the saved intermediates after it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["linear", "layer_norm", "gelu", "attention_probs"]

#: √(2/π) of the tanh-approximated GELU (its backward uses it too).
GELU_C = np.float32(np.sqrt(2.0 / np.pi))


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """``x @ weightᵀ + bias`` with ``weight`` of shape (out, in)."""
    out = x @ weight.T
    if bias is not None:
        out += bias
    return out


def layer_norm(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm over the last axis: ``(out, normalized, inv_std)``."""
    n = x.shape[-1]
    # np.add.reduce / n equals ndarray.mean bit for bit on float32 and
    # skips numpy's Python-level _mean wrapper.
    mu = np.add.reduce(x, -1, keepdims=True) / n
    centered = x - mu
    var = np.add.reduce(centered**2, -1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var + eps)
    normalized = centered * inv_std
    return normalized * weight + bias, normalized, inv_std


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU, tanh approximation (as used by BERT/GPT): ``(out, tanh(inner))``."""
    # x * x * x, not x**3: numpy sends float32 cubes through a slow
    # per-element pow loop.
    t = np.tanh(GELU_C * (x + 0.044715 * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def attention_probs(
    q: np.ndarray, k: np.ndarray, mask: np.ndarray | None, scale: float, fill: float
) -> np.ndarray:
    """``softmax(masked_fill(q @ kᵀ * scale, ~mask, fill))`` in one buffer.

    ``q`` is (..., S, d) and ``k`` (..., K, d) with matching leading dims;
    ``mask`` (True = attend) broadcasts to (..., S, K).
    """
    p = np.matmul(q, np.swapaxes(k, -1, -2))
    p *= np.float32(scale)
    if mask is not None:
        np.copyto(p, np.float32(fill), where=~mask)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p
