"""Composite differentiable functions built on top of :class:`Tensor`.

These are the numerically stable building blocks used by the layers and
losses: softmax / log-softmax, the fused linear map, the fused attention
probabilities (``attention_probs``: scaled, masked softmax of ``q @ kᵀ``),
layer normalisation, dropout, cross entropy and one-hot encoding.  Each
function returns a :class:`Tensor` that is part of the autograd graph; the
fused ops take their forward math from :mod:`repro.tensor.kernels`.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import kernels
from repro.tensor.tensor import Tensor, _unbroadcast

__all__ = [
    "softmax",
    "log_softmax",
    "linear",
    "attention_probs",
    "layer_norm",
    "dropout",
    "cross_entropy",
    "binary_cross_entropy_with_logits",
    "one_hot",
    "mse_loss",
]


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted_data = x.data - x.data.max(axis=axis, keepdims=True)
    exp_data = np.exp(shifted_data)
    out_data = exp_data / exp_data.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        g = np.asarray(grad)
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        x._accumulate(out_data * (g - dot))

    return Tensor._from_op(out_data, (x,), backward, "softmax")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - logsumexp

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        g = np.asarray(grad)
        x._accumulate(g - np.exp(out_data) * g.sum(axis=axis, keepdims=True))

    return Tensor._from_op(out_data, (x,), backward, "log_softmax")


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weightᵀ + bias`` as one op (``weight`` is (out, in))."""
    out_data = kernels.linear(x.data, weight.data, None if bias is None else bias.data)

    def backward(grad: np.ndarray) -> None:
        g = np.asarray(grad)
        if x.requires_grad:
            x._accumulate(g @ weight.data)
        if weight.requires_grad:
            w_t = np.swapaxes(x.data, -1, -2) @ g
            weight._accumulate(_unbroadcast(w_t, weight.data.T.shape).T)
        if bias is not None and bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.data.shape))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._from_op(out_data, parents, backward, "linear")


def attention_probs(
    q: Tensor, k: Tensor, mask: np.ndarray | None, scale: float, fill: float
) -> Tensor:
    """``softmax(masked_fill(q @ kᵀ * scale, ~mask, fill))`` as one op.

    The forward is :func:`repro.tensor.kernels.attention_probs`, one score
    buffer scaled, masked and normalised in place; the backward is the
    closed-form softmax gradient, zeroed where masked.
    """
    p = kernels.attention_probs(q.data, k.data, mask, scale, fill)

    def backward(grad: np.ndarray) -> None:
        g = np.asarray(grad)
        ds = p * (g - (g * p).sum(axis=-1, keepdims=True))
        if mask is not None:
            np.copyto(ds, 0.0, where=~mask)
        ds *= np.float32(scale)
        if q.requires_grad:
            q._accumulate(ds @ k.data)
        if k.requires_grad:
            k._accumulate(np.swapaxes(ds, -1, -2) @ q.data)

    return Tensor._from_op(p, (q, k), backward, "attention_probs")


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last dimension with affine transform."""
    out_data, normalized, inv_std = kernels.layer_norm(x.data, weight.data, bias.data, eps)
    n = x.data.shape[-1]

    def backward(grad: np.ndarray) -> None:
        g = np.asarray(grad)
        if weight.requires_grad:
            weight._accumulate((g * normalized).reshape(-1, n).sum(axis=0))
        if bias.requires_grad:
            bias._accumulate(g.reshape(-1, n).sum(axis=0))
        if x.requires_grad:
            g_norm = g * weight.data
            # Standard layer-norm backward: project out the mean and the
            # component along the normalised activations.
            mean_g = g_norm.mean(axis=-1, keepdims=True)
            mean_gx = (g_norm * normalized).mean(axis=-1, keepdims=True)
            x._accumulate(inv_std * (g_norm - mean_g - normalized * mean_gx))

    return Tensor._from_op(out_data, (x, weight, bias), backward, "layer_norm")


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: zero activations with probability ``p`` during training."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(np.float32) / keep
    out_data = x.data * mask

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.asarray(grad) * mask)

    return Tensor._from_op(out_data, (x,), backward, "dropout")


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Return a float32 one-hot matrix for integer ``labels``."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min(initial=0) < 0 or (labels.size and labels.max() >= num_classes):
        raise ValueError("labels out of range for one_hot")
    out = np.zeros((labels.size, num_classes), dtype=np.float32)
    out[np.arange(labels.size), labels.reshape(-1)] = 1.0
    return out.reshape(*labels.shape, num_classes)


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    *,
    ignore_index: int | None = None,
    label_smoothing: float = 0.0,
    class_weights: np.ndarray | None = None,
) -> Tensor:
    """Mean cross-entropy between ``logits`` (..., C) and integer ``targets``.

    Supports an ``ignore_index`` (positions excluded from the mean, used for
    padding in language-model training), label smoothing and per-class
    weights (used by the debiasing experiments).
    """
    targets = np.asarray(targets, dtype=np.int64)
    num_classes = logits.shape[-1]
    flat_logits = logits.reshape(-1, num_classes)
    flat_targets = targets.reshape(-1)

    valid = np.ones_like(flat_targets, dtype=bool)
    if ignore_index is not None:
        valid = flat_targets != ignore_index
    safe_targets = np.where(valid, flat_targets, 0)

    log_probs = log_softmax(flat_logits, axis=-1)

    target_dist = one_hot(safe_targets, num_classes)
    if label_smoothing > 0.0:
        target_dist = target_dist * (1.0 - label_smoothing) + label_smoothing / num_classes

    weights = np.ones(flat_targets.shape[0], dtype=np.float32)
    if class_weights is not None:
        class_weights = np.asarray(class_weights, dtype=np.float32)
        weights = class_weights[safe_targets]
    weights = weights * valid.astype(np.float32)

    denom = float(weights.sum())
    if denom <= 0.0:
        denom = 1.0

    weighted = Tensor(-(target_dist * weights[:, None] / denom))
    # sum over classes then over batch == elementwise product summed
    loss = (log_probs * weighted).sum()
    return loss


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Numerically stable BCE-with-logits averaged over all elements."""
    targets_arr = np.asarray(targets, dtype=np.float32)
    x = logits
    # log(1 + exp(-|x|)) + max(x, 0) - x*t
    max_part = x.relu()
    abs_x = x.abs()
    softplus = ((-abs_x).exp() + 1.0).log()
    loss = max_part - x * Tensor(targets_arr) + softplus
    return loss.mean()


def mse_loss(pred: Tensor, target: np.ndarray | Tensor) -> Tensor:
    """Mean squared error (used by the autoencoder baselines)."""
    target_t = target if isinstance(target, Tensor) else Tensor(np.asarray(target, dtype=np.float32))
    diff = pred - target_t
    return (diff * diff).mean()
