"""Low-Rank Adaptation (LoRA) for parameter-efficient fine-tuning.

The paper fine-tunes the decoder models for ICL with LoRA (rank 64, scaling
128, dropout 0.05) on top of 4-bit quantized base weights, which reduces the
trainable parameters to well under 2% of the total.  ``LoRALinear`` wraps an
existing :class:`~repro.nn.layers.Linear`: the base weight is frozen and a
low-rank update ``B @ A`` (scaled by ``alpha / rank``) is learned instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.layers import Dropout, Linear
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, functional as F, kernels
from repro.utils.rng import new_rng

__all__ = ["LoRALinear", "apply_lora", "merge_lora", "lora_parameter_summary", "LoRASummary"]

#: Default projection names receiving adapters (attention + feed-forward).
#: ``qkv_proj`` is the fused query/key/value projection of
#: :class:`~repro.nn.attention.MultiHeadAttention`.
DEFAULT_TARGETS: tuple[str, ...] = ("qkv_proj", "out_proj", "fc_in", "fc_out")


class LoRALinear(Module):
    """A frozen linear-like layer plus a trainable low-rank residual update.

    ``base`` may be a plain :class:`~repro.nn.layers.Linear` or a
    :class:`~repro.models.quantization.QuantizedLinear` (the QLoRA recipe the
    paper follows: 4-bit base weights, full-precision adapters).
    """

    def __init__(
        self,
        base: Module,
        rank: int = 8,
        alpha: float = 16.0,
        dropout: float = 0.0,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        if rank <= 0:
            raise ValueError(f"LoRA rank must be positive, got {rank}")
        if not hasattr(base, "in_features") or not hasattr(base, "out_features"):
            raise TypeError("LoRA base layer must expose in_features/out_features")
        rng = new_rng(rng)
        self.base = base
        self.rank = rank
        self.alpha = alpha
        self.scaling = alpha / rank
        # Freeze the wrapped layer.
        for p in self.base.parameters():
            p.requires_grad = False
        in_features, out_features = base.in_features, base.out_features
        # A is initialised with small noise, B with zeros, so at initialisation
        # the adapted layer is exactly the pre-trained layer.
        self.lora_a = Parameter(rng.normal(0.0, 0.01, size=(rank, in_features)))
        self.lora_b = Parameter(np.zeros((out_features, rank)))
        self.lora_dropout = Dropout(dropout, rng=rng) if dropout > 0 else None

    @property
    def in_features(self) -> int:
        return self.base.in_features

    @property
    def out_features(self) -> int:
        return self.base.out_features

    def forward(self, x: Tensor) -> Tensor:
        h = x if self.lora_dropout is None else self.lora_dropout(x)
        return self._adapt(self.base(x), h, F.linear, self.lora_a, self.lora_b)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` on a plain array (inference: no graph, no Tensor)."""
        return self._adapt(
            self.base.infer(x), x, kernels.linear, self.lora_a.data, self.lora_b.data
        )

    def _adapt(self, out, h, linear, lora_a, lora_b):
        """``out + scaling · (h Aᵀ) Bᵀ`` with ``linear`` the Tensor op or the
        array kernel: the adapter formula, written once for both paths."""
        return out + linear(linear(h, lora_a), lora_b) * self.scaling

    def merged_weight(self) -> np.ndarray:
        """Return the effective dense weight ``W + scaling * B @ A``."""
        if hasattr(self.base, "dequantized_weight"):
            base_weight = self.base.dequantized_weight()
        else:
            base_weight = self.base.weight.data
        return base_weight + self.scaling * (self.lora_b.data @ self.lora_a.data)


def _iter_linear_children(module: Module):
    """Yield ``(parent, attribute_name, layer)`` for every linear-like child.

    A child counts as linear-like when it exposes ``in_features`` /
    ``out_features`` (plain ``Linear`` or ``QuantizedLinear``) and is not
    already wrapped in a :class:`LoRALinear`.
    """
    for parent in module.modules():
        if isinstance(parent, LoRALinear):
            continue
        for attr, child in list(parent._modules.items()):
            if isinstance(child, LoRALinear):
                continue
            if hasattr(child, "in_features") and hasattr(child, "out_features"):
                yield parent, attr, child


def apply_lora(
    model: Module,
    rank: int = 8,
    alpha: float = 16.0,
    dropout: float = 0.05,
    target_names: tuple[str, ...] = DEFAULT_TARGETS,
    rng: np.random.Generator | int | None = None,
    freeze_rest: bool = True,
) -> int:
    """Wrap matching Linear sub-modules of ``model`` with LoRA adapters.

    Returns the number of layers adapted.  When ``freeze_rest`` is true every
    non-LoRA parameter of the model (embeddings, layer norms, untargeted
    projections) is frozen — matching the PEFT recipe the paper uses.
    """
    rng = new_rng(rng)
    if freeze_rest:
        model.freeze()
    adapted = 0
    for parent, attr, linear in _iter_linear_children(model):
        if attr not in target_names:
            continue
        wrapper = LoRALinear(linear, rank=rank, alpha=alpha, dropout=dropout, rng=rng)
        parent._modules[attr] = wrapper
        object.__setattr__(parent, attr, wrapper)
        adapted += 1
    if adapted == 0:
        raise ValueError(
            f"no Linear layers matched the target names {target_names}; "
            "check the model architecture"
        )
    return adapted


def merge_lora(model: Module) -> int:
    """Fold every LoRA update into its base weight and restore plain Linears.

    Returns the number of layers merged.  After merging the model has the
    same forward behaviour but no adapter parameters, which is how adapted
    models are exported for inference.
    """
    merged = 0
    for parent in model.modules():
        for attr, child in list(parent._modules.items()):
            if not isinstance(child, LoRALinear):
                continue
            if hasattr(child.base, "weight"):
                target = child.base
                target.weight.data = child.merged_weight()
            else:
                # Quantized base: materialise a fresh full-precision Linear.
                target = Linear(child.in_features, child.out_features, bias=child.base.bias is not None)
                target.weight.data = child.merged_weight().astype(np.float32)
                if child.base.bias is not None:
                    target.bias.data = np.asarray(child.base.bias.data, dtype=np.float32).copy()
            for p in target.parameters():
                p.requires_grad = True
            parent._modules[attr] = target
            object.__setattr__(parent, attr, target)
            merged += 1
    return merged


@dataclass(frozen=True)
class LoRASummary:
    """Trainable-parameter accounting (the "LoRA param (%)" column of Table III)."""

    total_parameters: int
    trainable_parameters: int

    @property
    def trainable_fraction(self) -> float:
        return self.trainable_parameters / max(self.total_parameters, 1)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.trainable_parameters:,} / {self.total_parameters:,} trainable "
            f"({100 * self.trainable_fraction:.2f}%)"
        )


def lora_parameter_summary(model: Module) -> LoRASummary:
    """Count total vs. trainable parameters after LoRA has been applied."""
    total = 0
    trainable = 0
    for p in model.parameters():
        total += p.size
        if p.requires_grad:
            trainable += p.size
    return LoRASummary(total_parameters=total, trainable_parameters=trainable)
