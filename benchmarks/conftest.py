"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at laptop scale:
the datasets are smaller (a few traces per workflow) and the models are the
scaled-down configurations, but the workload structure, training recipes and
reported quantities match the paper.  Results are printed so that
``pytest benchmarks/ --benchmark-only -s`` doubles as the experiment log.
Each module's docstring names the paper claim it reproduces, and its
assertions are what the reproduction checks of it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.flowbench import generate_dataset
from repro.models.registry import ModelRegistry, build_instruction_corpus
from repro.tokenization import LogTokenizer
from repro.training import SFTTrainer, TrainingConfig

#: Laptop-scale trace counts (the full-scale defaults are in
#: repro.flowbench.dataset.DEFAULT_TRACE_COUNTS and total 1211 traces).
BENCH_TRACES = {"1000genome": 6, "montage": 3, "predict_future_sales": 5}


@pytest.fixture(scope="session")
def datasets():
    """One dataset per workflow, shared across all benchmarks."""
    return {
        name: generate_dataset(name, num_traces=n, seed=i)
        for i, (name, n) in enumerate(BENCH_TRACES.items())
    }


@pytest.fixture(scope="session")
def genome(datasets):
    return datasets["1000genome"]


@pytest.fixture(scope="session")
def registry(datasets):
    """Registry whose tokenizer / pre-training corpus covers all three workflows."""
    corpus = []
    for dataset in datasets.values():
        corpus.extend(dataset.train.sentences()[:150])
    tokenizer = LogTokenizer.build_from_corpus(corpus)
    return ModelRegistry(
        tokenizer,
        corpus,
        instruction_corpus=build_instruction_corpus(corpus, num_documents=120),
        pretrain_steps=10,
        seed=0,
    )


def train_sft(registry, dataset, model_name="distilbert-base-uncased", *, epochs=4,
              train_size=600, seed=0, debias=False, max_length=40):
    """Standard SFT recipe used by several benchmarks."""
    from repro.training.debias import augment_with_empty_sentences

    model = registry.load_encoder(model_name)
    trainer = SFTTrainer(
        model, registry.tokenizer,
        TrainingConfig(epochs=epochs, batch_size=32, max_length=max_length, seed=seed),
    )
    train = dataset.train.subsample(train_size, rng=seed)
    sentences, labels = train.sentences(), train.labels()
    if debias:
        sentences, labels = augment_with_empty_sentences(sentences, labels, rng=seed)
    val = dataset.validation.subsample(150, rng=seed + 1)
    trainer.fit(sentences, labels, val.sentences(), val.labels())
    return trainer


def print_table(title: str, rows: list[dict], float_fmt: str = "{:.4f}") -> None:
    """Print a small aligned table to the benchmark log."""
    if not rows:
        print(f"\n== {title} == (no rows)")
        return
    columns = list(rows[0])
    widths = {c: max(len(str(c)), *(len(_fmt(r[c], float_fmt)) for r in rows)) for c in columns}
    print(f"\n== {title} ==")
    print("  ".join(str(c).ljust(widths[c]) for c in columns))
    for row in rows:
        print("  ".join(_fmt(row[c], float_fmt).ljust(widths[c]) for c in columns))


def _fmt(value, float_fmt):
    if isinstance(value, (float, np.floating)):
        return float_fmt.format(float(value))
    return str(value)
