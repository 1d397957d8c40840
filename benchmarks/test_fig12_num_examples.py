"""Fig. 12 — accuracy vs. number of in-context examples (0–8) for each decoder
and each example-composition strategy (pos-only, neg-only, mixed)."""

from __future__ import annotations

import numpy as np

from conftest import print_table
from repro.icl import FewShotSelector, ICLEngine
from repro.training.metrics import classification_report

MODELS = ["gpt2", "mistral-7b", "llama2-7b"]
EXAMPLE_COUNTS = (0, 2, 4, 8)


def test_fig12_accuracy_vs_number_of_examples(benchmark, genome, registry):
    test = genome.test.subsample(80, rng=7)
    pool = genome.train.records[:400]

    def run_experiment():
        rows = []
        for name in MODELS:
            engine = ICLEngine(registry.load_decoder(name), registry.tokenizer)
            for mode in ("pos", "neg", "mixed"):
                selector = FewShotSelector(pool, mode=mode, seed=0)
                row = {"model": name, "examples": mode}
                positive_rates = []
                for k in EXAMPLE_COUNTS:
                    predictions = engine.classify_batch(
                        test.records, selector=selector if k else None, num_examples=k
                    )
                    y_pred = np.array([p.label for p in predictions], dtype=np.int64)
                    row[f"k={k}"] = classification_report(test.labels(), y_pred).accuracy
                    positive_rates.append(f"{y_pred.mean():.2f}")
                # Share of queries predicted Abnormal: 0.00 or 1.00 marks a
                # constant predictor, whose accuracy is just the class balance.
                row["positive rate k=" + "/".join(map(str, EXAMPLE_COUNTS))] = "/".join(
                    positive_rates
                )
                rows.append(row)
        return rows

    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table("Fig. 12 — accuracy vs number of in-context examples (pre-trained decoders)", rows)

    # Sanity of the sweep: every accuracy is a valid probability and the
    # zero-shot column is identical across example-composition modes (k=0
    # ignores the selector by construction).
    for name in MODELS:
        model_rows = [r for r in rows if r["model"] == name]
        zero_shot = {r["k=0"] for r in model_rows}
        assert len(zero_shot) == 1
        for row in model_rows:
            for k in EXAMPLE_COUNTS:
                assert 0.0 <= row[f"k={k}"] <= 1.0
