"""repro — LLMs for anomaly detection in computational workflows.

Reproduction of "Large Language Models for Anomaly Detection in Computational
Workflows: from Supervised Fine-Tuning to In-Context Learning" (SC 2024).

The top level re-exports the pieces most users need:

* :class:`~repro.detection.pipeline.WorkflowAnomalyDetector` — fit/predict
  anomaly detection over parsed workflow-log sentences (SFT approach);
* :class:`~repro.icl.engine.ICLEngine` — prompt-based few-shot detection with
  a causal LM (ICL approach);
* :func:`~repro.flowbench.dataset.generate_flowbench` — the Flow-Bench-style
  synthetic dataset of the three workflows;
* :func:`~repro.models.registry.default_registry` — the pre-trained model
  registry standing in for the HuggingFace hub.

The per-table/figure reproduction harness is ``benchmarks/``: one
``test_*`` module per table or figure, each printing its table.
"""

from repro.detection import WorkflowAnomalyDetector
from repro.flowbench import generate_dataset, generate_flowbench
from repro.icl import ICLEngine, FewShotSelector, ICLFineTuner
from repro.models import default_registry
from repro.training import SFTTrainer, TrainingConfig

__version__ = "1.0.0"

__all__ = [
    "WorkflowAnomalyDetector",
    "generate_dataset",
    "generate_flowbench",
    "ICLEngine",
    "FewShotSelector",
    "ICLFineTuner",
    "default_registry",
    "SFTTrainer",
    "TrainingConfig",
    "__version__",
]
