"""Fig. 14 — ICL transfer learning matrix: a decoder fine-tuned on one
workflow, evaluated on every workflow.

Scale substitution: the paper prompts the fine-tuned 7B decoders with 10
in-context examples from the target workflow.  The laptop-scale stand-ins
are fine-tuned on single instruction/answer prompts (the
``examples_per_prompt=0`` default of ``ICLFineTuneConfig``; no benchmark
measures whether another setting generalises better), and prompting
them with long example blocks afterwards is out-of-distribution: they
collapse onto the category of the nearest example (recency bias), which
buries the transfer signal.  The matrix is therefore evaluated zero-shot —
the same prompt format used for fine-tuning — preserving the figure's
claim structure (fine-tune on row workflow, evaluate on column workflow).

Deterministic by construction: dataset seeds, the registry's stable
per-model digest seeds, and the tuner seed are all fixed, and fine-tuning
uses ``balance_classes`` so the ~70/30 Normal skew of the synthetic traces
cannot collapse the model onto the majority category.
"""

from __future__ import annotations

import numpy as np

from conftest import print_table
from repro.icl import ICLEngine, ICLFineTuneConfig, ICLFineTuner


def test_fig14_icl_transfer_matrix(benchmark, datasets, registry):
    names = list(datasets)

    def run_experiment():
        accuracy = {}
        reports = {}
        for train_name in names:
            model = registry.load_decoder("mistral-7b")
            engine = ICLEngine(model, registry.tokenizer)
            tuner = ICLFineTuner(
                model,
                registry.tokenizer,
                ICLFineTuneConfig(
                    epochs=12, batch_size=16, seed=1, balance_classes=True
                ),
            )
            tuner.finetune_split(datasets[train_name].train, max_records=500)
            for eval_name in names:
                target = datasets[eval_name]
                test = target.test.subsample(80, rng=13)
                report = engine.evaluate(test.records, test.labels(), num_examples=0)
                accuracy[(train_name, eval_name)] = report.accuracy
                reports[(train_name, eval_name)] = report
        return accuracy, reports

    accuracy, reports = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    rows = []
    for train_name in names:
        row = {"finetuned on \\ eval on": train_name}
        for eval_name in names:
            row[eval_name] = accuracy[(train_name, eval_name)]
        rows.append(row)
    print_table("Fig. 14 — ICL transfer matrix (mistral stand-in, zero-shot prompts)", rows)

    values = np.array(list(accuracy.values()))
    diagonal = np.array([accuracy[(n, n)] for n in names])
    assert np.all((values >= 0) & (values <= 1))
    # In-domain fine-tuning is clearly better than chance on average, with a
    # margin below the measured ~0.75 so only real regressions trip it.
    assert diagonal.mean() > 0.6
    # And non-degenerate: every in-domain model predicts both categories.
    for name in names:
        report = reports[(name, name)]
        assert report.precision > 0.0, f"{name}: collapsed to all-Normal"
        assert report.recall > 0.0, f"{name}: never flags anomalies"
