"""Weight quantization (BitsAndBytes-style) for the decoder models.

The paper loads the 7-billion-parameter decoders in 4-bit precision before
attaching LoRA adapters.  ``QuantizedLinear`` reproduces the mechanism:
weights are stored as signed integers with a per-output-channel scale, and
the forward pass multiplies by the float32 weight dequantised from them
(derived once, not per call).  The quantized base layer is frozen — gradient
updates flow only through LoRA adapters stacked on top.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Linear
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, functional as F, kernels

__all__ = ["QuantizedLinear", "quantize_model", "quantization_error"]


class QuantizedLinear(Module):
    """A Linear layer whose weight is stored in ``bits``-bit integers."""

    def __init__(self, base: Linear, bits: int = 4) -> None:
        super().__init__()
        if bits not in (2, 4, 8):
            raise ValueError(f"bits must be one of 2, 4, 8; got {bits}")
        self.bits = bits
        self.in_features = base.in_features
        self.out_features = base.out_features
        q_max = 2 ** (bits - 1) - 1
        weight = base.weight.data
        scale = np.abs(weight).max(axis=1, keepdims=True) / max(q_max, 1)
        scale = np.where(scale < 1e-12, 1.0, scale).astype(np.float32)
        quantized = np.clip(np.round(weight / scale), -q_max - 1, q_max).astype(np.int8)
        self.register_buffer("q_weight", quantized)
        self.register_buffer("scale", scale)
        self._dequantized: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        if base.bias is not None:
            self.bias = Parameter(base.bias.data.copy(), requires_grad=False)
        else:
            self.bias = None

    def dequantized_weight(self) -> np.ndarray:
        """The float32 weight matrix ``q_weight * scale``.

        Derived once and reused until ``q_weight`` or ``scale`` is rebound
        (``load_state_dict`` rebinds buffers).  The array is read-only, so
        the cached weight cannot be edited in place by mistake.
        """
        q_weight, scale = self.q_weight, self.scale
        cached = self._dequantized
        if cached is None or cached[0] is not q_weight or cached[1] is not scale:
            weight = q_weight.astype(np.float32) * scale
            weight.flags.writeable = False
            self._dequantized = cached = (q_weight, scale, weight)
        return cached[2]

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, Tensor(self.dequantized_weight()), self.bias)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` on a plain array (inference: no graph, no Tensor)."""
        bias = None if self.bias is None else self.bias.data
        return kernels.linear(x, self.dequantized_weight(), bias)

    def __repr__(self) -> str:  # pragma: no cover
        return f"QuantizedLinear(in={self.in_features}, out={self.out_features}, bits={self.bits})"


def quantize_model(
    model: Module,
    bits: int = 4,
    target_names: tuple[str, ...] = ("qkv_proj", "out_proj", "fc_in", "fc_out"),
) -> int:
    """Replace matching Linear layers with :class:`QuantizedLinear`.

    Returns the number of layers quantized.  Apply quantization *before*
    :func:`repro.models.lora.apply_lora` so the adapters wrap full-precision
    projections only where requested (quantized layers are frozen and are not
    rewrapped by LoRA because they are no longer ``Linear`` instances).
    """
    replaced = 0
    for parent in model.modules():
        for attr, child in list(parent._modules.items()):
            if isinstance(child, Linear) and attr in target_names:
                quantized = QuantizedLinear(child, bits=bits)
                parent._modules[attr] = quantized
                object.__setattr__(parent, attr, quantized)
                replaced += 1
    return replaced


def quantization_error(linear: Linear, bits: int = 4) -> float:
    """Relative Frobenius error introduced by quantizing ``linear``.

    Useful for ablations: the error shrinks roughly by 2× per extra bit.
    """
    quantized = QuantizedLinear(linear, bits=bits)
    original = linear.weight.data
    reconstructed = quantized.dequantized_weight()
    denom = float(np.linalg.norm(original))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(original - reconstructed) / denom)
