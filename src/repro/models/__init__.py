"""Model zoo: scaled-down counterparts of the paper's pre-trained checkpoints.

The paper fine-tunes twelve encoder-only checkpoints (BERT, DistilBERT,
RoBERTa, ALBERT, XLNet families) for sentence classification and prompts
three decoder-only checkpoints (GPT-2, Mistral-7B, LLama2-7B) for in-context
learning.  We reproduce each as a configuration of the same transformer
architecture at laptop scale, pre-trained synthetically (masked-LM for
encoders, causal-LM for decoders) on unlabeled workflow-log text.  Each
``benchmarks/`` module reports what its table or figure measures on these
stand-ins.
"""

from repro.models.config import (
    ModelConfig,
    ENCODER_CONFIGS,
    DECODER_CONFIGS,
    ALL_CONFIGS,
    get_config,
    encoder_model_names,
    decoder_model_names,
)
from repro.models.encoder import EncoderModel, EncoderForSequenceClassification
from repro.models.decoder import DecoderLM, PrefixCachedScorer
from repro.models.lora import LoRALinear, apply_lora, lora_parameter_summary, merge_lora
from repro.models.quantization import QuantizedLinear, quantize_model
from repro.models.pretrain import pretrain_encoder_mlm, pretrain_decoder_clm
from repro.models.registry import ModelRegistry, default_registry

__all__ = [
    "ModelConfig",
    "ENCODER_CONFIGS",
    "DECODER_CONFIGS",
    "ALL_CONFIGS",
    "get_config",
    "encoder_model_names",
    "decoder_model_names",
    "EncoderModel",
    "EncoderForSequenceClassification",
    "DecoderLM",
    "PrefixCachedScorer",
    "LoRALinear",
    "apply_lora",
    "merge_lora",
    "lora_parameter_summary",
    "QuantizedLinear",
    "quantize_model",
    "pretrain_encoder_mlm",
    "pretrain_decoder_clm",
    "ModelRegistry",
    "default_registry",
]
