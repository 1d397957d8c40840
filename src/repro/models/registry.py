"""Pre-trained model registry.

Plays the role of the HuggingFace hub in the original setup: asking the
registry for ``"bert-base-uncased"`` returns a model whose backbone has been
(synthetically) pre-trained on unlabeled workflow-log text, with pre-trained
weights cached so that repeated loads are cheap and every consumer starts
from the *same* pre-trained state — exactly how checkpoint reuse works with
the real hub.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.models.config import get_config
from repro.models.decoder import DecoderLM
from repro.models.encoder import EncoderForSequenceClassification
from repro.models.pretrain import pretrain_decoder_clm, pretrain_encoder_mlm
from repro.tokenization.tokenizer import LogTokenizer
from repro.utils.rng import new_rng

__all__ = [
    "DecoderBuilder",
    "ModelRegistry",
    "RegistrySpec",
    "default_registry",
    "build_default_corpus",
    "build_instruction_corpus",
]


@dataclass(frozen=True, eq=False)
class RegistrySpec:
    """Picklable recipe that rebuilds an identical registry in another process.

    The fleet's engine workers each own a private model, rebuilt inside the
    worker process rather than shipped over the pipe: the spec carries only
    the registry's *inputs* (tokenizer, corpora, pre-training knobs), and
    every derived quantity is deterministic — per-model seeds come from a
    crc32 digest, model init and pre-training draw from seeded generators —
    so N workers building ``"gpt2"`` from the same spec hold bit-identical
    weights, and fleet outputs can be compared token-for-token against a
    single in-process engine built from the same spec.
    """

    tokenizer: LogTokenizer
    corpus: tuple[str, ...]
    instruction_corpus: tuple[str, ...]
    pretrain_steps: int
    seed: int

    def build(self) -> "ModelRegistry":
        """Materialise the registry (models pre-train lazily on first load)."""
        return ModelRegistry(
            self.tokenizer,
            list(self.corpus),
            instruction_corpus=list(self.instruction_corpus),
            pretrain_steps=self.pretrain_steps,
            seed=self.seed,
        )

    def decoder_builder(self, name: str, pretrained: bool = True) -> "DecoderBuilder":
        """A picklable zero-arg callable producing the named decoder in eval
        mode — the shape fleet workers expect their model factory in."""
        if get_config(name).kind != "decoder":
            raise ValueError(f"{name!r} is not a decoder checkpoint")
        return DecoderBuilder(spec=self, name=name, pretrained=pretrained)


@dataclass(frozen=True, eq=False)
class DecoderBuilder:
    """Deterministic decoder factory (see :meth:`RegistrySpec.decoder_builder`)."""

    spec: RegistrySpec
    name: str
    pretrained: bool = True

    def __call__(self) -> DecoderLM:
        return self.spec.build().load_decoder(self.name, self.pretrained)


def build_default_corpus(
    num_traces_per_workflow: int = 3, seed: int = 7, workflows: Sequence[str] | None = None
) -> list[str]:
    """Build an unlabeled sentence corpus by simulating a few executions.

    Used both to fit the shared tokenizer vocabulary and as the pre-training
    corpus.  Labels are ignored on purpose — pre-training must not see them.
    """
    from repro.flowbench.dataset import generate_dataset

    workflows = workflows or ("1000genome", "montage", "predict_future_sales")
    sentences: list[str] = []
    for offset, name in enumerate(workflows):
        dataset = generate_dataset(
            name, num_traces=num_traces_per_workflow, seed=seed + offset * 101
        )
        sentences.extend(dataset.train.sentences(include_label=False))
    return sentences


def build_instruction_corpus(
    sentences: Sequence[str],
    *,
    num_documents: int = 200,
    examples_per_document: int = 4,
    seed: int = 13,
) -> list[str]:
    """Build instruction-formatted pre-training documents for the decoders.

    Real GPT-2 / Mistral / LLama checkpoints owe their in-context-learning
    ability to web-scale pre-training on text full of "pattern, pattern,
    continuation" structure.  To give the scaled-down decoders the same
    *skill* without leaking any anomaly labels, each document here pairs job
    sentences with a category assigned by a document-local synthetic rule
    (a random feature compared to a random threshold).  The model thereby
    learns the ``Instruct: ... Category: <label>`` format and the skill of
    relating a query to in-context examples — but nothing about which jobs
    Flow-Bench considers anomalous.
    """
    from repro.tokenization.templates import sentence_to_record

    if not sentences:
        raise ValueError("instruction corpus requires base sentences")
    rng = new_rng(seed)
    records = [sentence_to_record(s) for s in sentences]
    documents: list[str] = []
    for _ in range(num_documents):
        picked = [records[i] for i in rng.integers(0, len(records), size=examples_per_document + 1)]
        # Document-local rule: one feature, thresholded at the median of the
        # picked jobs' values — labels are synthetic, not Flow-Bench labels.
        features = [f for f in picked[0].features if all(f in r.features for r in picked)]
        if not features:
            continue
        feature = features[int(rng.integers(len(features)))]
        values = [r.features[feature] for r in picked]
        threshold = float(np.median(values))
        lines = []
        for record in picked:
            label = "Abnormal" if record.features[feature] > threshold else "Normal"
            from repro.tokenization.templates import record_to_sentence

            lines.append(f"Instruct: {record_to_sentence(record)}")
            lines.append(f"Category: {label}")
        documents.append("\n".join(lines))
    return documents


class ModelRegistry:
    """Builds, pre-trains and caches models by checkpoint name."""

    def __init__(
        self,
        tokenizer: LogTokenizer,
        corpus: Sequence[str],
        *,
        instruction_corpus: Sequence[str] | None = None,
        pretrain_steps: int = 40,
        seed: int = 0,
    ) -> None:
        if len(corpus) == 0:
            raise ValueError("registry requires a non-empty pre-training corpus")
        self.tokenizer = tokenizer
        self.corpus = list(corpus)
        # Decoders are additionally pre-trained on instruction-formatted
        # documents (synthetic-rule labels only) so that few-shot prompting
        # has a format the model recognises.
        if instruction_corpus is None:
            instruction_corpus = build_instruction_corpus(self.corpus)
        self.instruction_corpus = list(instruction_corpus)
        self.pretrain_steps = pretrain_steps
        self.seed = seed
        self._cache: dict[str, dict[str, np.ndarray]] = {}

    # ------------------------------------------------------------------ #
    def _model_seed(self, name: str) -> int:
        # Deterministic per-model seed so every load of a given checkpoint
        # starts from identical weights.  Uses a stable digest rather than
        # ``hash()``: string hashing is salted per process (PYTHONHASHSEED),
        # which made pretrained weights — and every accuracy threshold
        # downstream of them — vary from one test run to the next.
        digest = zlib.crc32(f"{name}:{self.seed}".encode("utf-8"))
        return (digest & 0x7FFFFFFF) or 1

    def _build(self, name: str):
        config = get_config(name)
        rng = new_rng(self._model_seed(config.name))
        cls = EncoderForSequenceClassification if config.kind == "encoder" else DecoderLM
        return cls(config, self.tokenizer.vocab_size, rng=rng).eval()

    # ------------------------------------------------------------------ #
    def load(self, name: str, pretrained: bool = True):
        """Return an eval-mode model; when ``pretrained`` run (or reuse cached)
        pre-training.  Trainers switch to train mode themselves."""
        config = get_config(name)
        model = self._build(config.name)
        if not pretrained:
            return model
        if config.name not in self._cache:
            if config.kind == "encoder":
                pretrain_encoder_mlm(
                    model,
                    self.tokenizer,
                    self.corpus,
                    steps=self.pretrain_steps,
                    seed=self._model_seed(config.name),
                )
            else:
                decoder_corpus = self.corpus + self.instruction_corpus
                pretrain_decoder_clm(
                    model,
                    self.tokenizer,
                    decoder_corpus,
                    steps=self.pretrain_steps * 2,
                    max_length=min(model.config.max_position, 160),
                    seed=self._model_seed(config.name),
                )
            self._cache[config.name] = model.state_dict()
            # Rebuild rather than return the model pretraining ran on: its
            # dropout generators were advanced by the pretraining passes, so
            # returning it would make the *first* load behave differently
            # from every cache-hit load (downstream fine-tuning results then
            # depend on which test or experiment loaded the model first).
            model = self._build(config.name)
        model.load_state_dict(self._cache[config.name])
        return model

    def load_encoder(self, name: str, pretrained: bool = True) -> EncoderForSequenceClassification:
        """Load an encoder classifier, raising if ``name`` is a decoder checkpoint."""
        if get_config(name).kind != "encoder":
            raise ValueError(f"{name!r} is not an encoder checkpoint")
        return self.load(name, pretrained)

    def load_decoder(self, name: str, pretrained: bool = True) -> DecoderLM:
        """Load a causal LM, raising if ``name`` is an encoder checkpoint."""
        if get_config(name).kind != "decoder":
            raise ValueError(f"{name!r} is not a decoder checkpoint")
        return self.load(name, pretrained)

    def spec(self) -> RegistrySpec:
        """The picklable rebuild recipe for this registry (fleet workers)."""
        return RegistrySpec(
            tokenizer=self.tokenizer,
            corpus=tuple(self.corpus),
            instruction_corpus=tuple(self.instruction_corpus),
            pretrain_steps=self.pretrain_steps,
            seed=self.seed,
        )

    def is_cached(self, name: str) -> bool:
        return get_config(name).name in self._cache

    def clear_cache(self) -> None:
        self._cache.clear()


_DEFAULT_REGISTRY: ModelRegistry | None = None


def default_registry(
    *,
    pretrain_steps: int = 40,
    seed: int = 0,
    corpus: Sequence[str] | None = None,
    rebuild: bool = False,
) -> ModelRegistry:
    """Return a module-level registry, building corpus and tokenizer on first use.

    Experiments and benchmarks share this instance so that the (fairly
    expensive) synthetic pre-training of each checkpoint happens once per
    process.
    """
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None or rebuild:
        corpus = list(corpus) if corpus is not None else build_default_corpus()
        tokenizer = LogTokenizer.build_from_corpus(corpus)
        _DEFAULT_REGISTRY = ModelRegistry(
            tokenizer, corpus, pretrain_steps=pretrain_steps, seed=seed
        )
    return _DEFAULT_REGISTRY
