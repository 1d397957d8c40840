"""Ablation — numeric-binning granularity of the log tokenizer.

The bins-per-decade choice is a design decision: too
coarse and the anomaly signal (1.3–2× runtime inflation for CPU anomalies)
disappears inside one bin; too fine and the vocabulary fragments.  This
ablation sweeps the granularity with a fixed SFT recipe.
"""

from __future__ import annotations

from conftest import print_table
from repro.models.registry import ModelRegistry
from repro.tokenization import LogTokenizer, NumericBinner
from repro.training import SFTTrainer, TrainingConfig

GRANULARITIES = (2, 4, 8)


def test_ablation_numeric_binning(benchmark, genome):
    corpus = genome.train.sentences()[:200]

    def run_experiment():
        rows = []
        for bins in GRANULARITIES:
            tokenizer = LogTokenizer.build_from_corpus(
                corpus, binner=NumericBinner(bins_per_decade=bins)
            )
            registry = ModelRegistry(tokenizer, corpus, pretrain_steps=5, seed=0)
            trainer = SFTTrainer(
                registry.load_encoder("distilbert-base-uncased"),
                tokenizer,
                TrainingConfig(epochs=3, max_length=40, seed=0),
            )
            train = genome.train.subsample(600, rng=0)
            trainer.fit(train.sentences(), train.labels())
            report = trainer.evaluate_split(genome.test.subsample(400, rng=1))
            rows.append({
                "bins_per_decade": bins,
                "vocab_size": tokenizer.vocab_size,
                "accuracy": report.accuracy,
                "f1": report.f1,
            })
        return rows

    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table("Ablation — tokenizer numeric binning granularity (1000 Genome)", rows)

    by_bins = {r["bins_per_decade"]: r for r in rows}
    # Vocabulary grows with granularity.
    assert by_bins[8]["vocab_size"] > by_bins[2]["vocab_size"]
    # Finer-than-coarsest binning does not hurt accuracy materially.
    assert max(by_bins[4]["accuracy"], by_bins[8]["accuracy"]) >= by_bins[2]["accuracy"] - 0.05
