"""Workflow DAG definitions with per-job-type execution profiles.

Each of the three Flow-Bench workflows is reconstructed as a directed acyclic
graph whose node counts match the instances described in the paper
(1000 Genome: 137 jobs, Montage: 539 jobs, Predict Future Sales: 165 jobs)
and whose structure follows the published descriptions of the real
applications.  ``tests/test_flowbench.py`` checks the node counts; edge
counts are not checked against the paper's numbers.  The detectors only
consume node-level features plus the DAG for the GNN baselines, so the node
structure is what matters.

Every job type carries a :class:`JobTypeProfile` describing the baseline
distributions of its timing / I/O / CPU features, which the simulator samples
from and the anomaly injectors perturb.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import networkx as nx

__all__ = [
    "JobTypeProfile",
    "WorkflowSpec",
    "build_workflow",
    "build_1000genome_workflow",
    "build_montage_workflow",
    "build_sales_prediction_workflow",
    "WORKFLOW_BUILDERS",
    "WORKFLOW_NAMES",
]


@dataclass(frozen=True)
class JobTypeProfile:
    """Baseline execution profile of one job type.

    The units are seconds for delays/runtimes and bytes for I/O volumes.
    ``runtime_mean`` / ``runtime_sigma`` parameterise a lognormal runtime,
    the delays are gamma distributed, and ``cpu_fraction`` is the fraction of
    the wall-clock runtime spent on the CPU (the remainder is I/O wait).
    """

    name: str
    runtime_mean: float
    runtime_sigma: float = 0.25
    wms_delay_mean: float = 6.0
    queue_delay_mean: float = 25.0
    post_script_delay_mean: float = 5.0
    stage_in_delay_mean: float = 20.0
    stage_out_delay_mean: float = 6.0
    stage_in_bytes_mean: float = 5.0e7
    stage_out_bytes_mean: float = 1.0e7
    cpu_fraction: float = 0.85
    io_intensity: float = 0.3


@dataclass
class WorkflowSpec:
    """A workflow: its DAG, job-type profiles and display name."""

    name: str
    dag: nx.DiGraph
    profiles: dict[str, JobTypeProfile] = field(default_factory=dict)

    @property
    def num_jobs(self) -> int:
        return self.dag.number_of_nodes()

    @property
    def num_edges(self) -> int:
        return self.dag.number_of_edges()

    def job_type(self, node: str) -> str:
        return self.dag.nodes[node]["job_type"]

    def profile(self, node: str) -> JobTypeProfile:
        return self.profiles[self.job_type(node)]

    def topological_jobs(self) -> list[str]:
        """Jobs in a deterministic topological order."""
        return list(nx.lexicographical_topological_sort(self.dag))

    def validate(self) -> None:
        """Raise if the DAG is not acyclic or references unknown job types."""
        if not nx.is_directed_acyclic_graph(self.dag):
            raise ValueError(f"workflow {self.name!r} is not a DAG")
        for node, data in self.dag.nodes(data=True):
            job_type = data.get("job_type")
            if job_type is None:
                raise ValueError(f"node {node!r} has no job_type attribute")
            if job_type not in self.profiles:
                raise ValueError(f"node {node!r} references unknown job type {job_type!r}")


def _add_jobs(dag: nx.DiGraph, job_type: str, count: int, prefix: str | None = None) -> list[str]:
    prefix = prefix or job_type
    names = [f"{prefix}_{i:04d}" for i in range(count)]
    for name in names:
        dag.add_node(name, job_type=job_type)
    return names


# --------------------------------------------------------------------------- #
# 1000 Genome
# --------------------------------------------------------------------------- #
def build_1000genome_workflow() -> WorkflowSpec:
    """1000 Genome mutational-overlap workflow (137 jobs).

    Structure per chromosome: many ``individuals`` jobs merge into an
    ``individuals_merge`` job; a ``sifting`` job extracts SIFT scores; the
    merged data plus sifting feed per-population ``mutation_overlap`` and
    ``frequency`` analysis jobs.
    """
    dag = nx.DiGraph()
    chromosomes = 5
    individuals_per_chrom = 19
    populations = 3

    for c in range(chromosomes):
        individuals = _add_jobs(dag, "individuals", individuals_per_chrom, f"individuals_c{c}")
        merge = _add_jobs(dag, "individuals_merge", 1, f"individuals_merge_c{c}")[0]
        sifting = _add_jobs(dag, "sifting", 1, f"sifting_c{c}")[0]
        for ind in individuals:
            dag.add_edge(ind, merge)
        for p in range(populations):
            mutation = _add_jobs(dag, "mutation_overlap", 1, f"mutation_overlap_c{c}_p{p}")[0]
            frequency = _add_jobs(dag, "frequency", 1, f"frequency_c{c}_p{p}")[0]
            dag.add_edge(merge, mutation)
            dag.add_edge(sifting, mutation)
            dag.add_edge(merge, frequency)
            dag.add_edge(sifting, frequency)

    # Final aggregation over chromosomes.
    final_nodes = _add_jobs(dag, "aggregate", 2, "aggregate")
    for node, data in list(dag.nodes(data=True)):
        if data["job_type"] in ("mutation_overlap", "frequency"):
            dag.add_edge(node, final_nodes[0] if data["job_type"] == "mutation_overlap" else final_nodes[1])

    profiles = {
        "individuals": JobTypeProfile(
            "individuals", runtime_mean=1800.0, stage_in_bytes_mean=2.0e8,
            stage_in_delay_mean=60.0, cpu_fraction=0.9,
        ),
        "individuals_merge": JobTypeProfile(
            "individuals_merge", runtime_mean=900.0, stage_in_bytes_mean=4.0e8,
            stage_out_bytes_mean=3.0e8, stage_in_delay_mean=90.0, io_intensity=0.6,
        ),
        "sifting": JobTypeProfile(
            "sifting", runtime_mean=300.0, stage_in_bytes_mean=1.0e8, cpu_fraction=0.7,
        ),
        "mutation_overlap": JobTypeProfile(
            "mutation_overlap", runtime_mean=1200.0, stage_in_bytes_mean=3.5e8,
            stage_in_delay_mean=120.0, cpu_fraction=0.92,
        ),
        "frequency": JobTypeProfile(
            "frequency", runtime_mean=1400.0, stage_in_bytes_mean=3.5e8,
            stage_in_delay_mean=120.0, cpu_fraction=0.93,
        ),
        "aggregate": JobTypeProfile(
            "aggregate", runtime_mean=200.0, stage_in_bytes_mean=5.0e7, io_intensity=0.5,
        ),
    }
    spec = WorkflowSpec("1000genome", dag, profiles)
    spec.validate()
    return spec


# --------------------------------------------------------------------------- #
# Montage
# --------------------------------------------------------------------------- #
def build_montage_workflow() -> WorkflowSpec:
    """Montage astronomical mosaicking workflow (539 jobs).

    mProject re-projects each input image; mDiffFit computes overlap
    differences between neighbouring projections; mConcatFit and mBgModel fit
    a global background model; mBackground corrects every projection;
    mImgtbl/mAdd/mShrink/mJPEG assemble the final mosaic.
    """
    dag = nx.DiGraph()
    num_images = 160
    num_diffs = 213

    projects = _add_jobs(dag, "mProject", num_images)
    diffs = _add_jobs(dag, "mDiffFit", num_diffs)
    concat = _add_jobs(dag, "mConcatFit", 1)[0]
    bgmodel = _add_jobs(dag, "mBgModel", 1)[0]
    backgrounds = _add_jobs(dag, "mBackground", num_images)
    imgtbl = _add_jobs(dag, "mImgtbl", 1)[0]
    add = _add_jobs(dag, "mAdd", 1)[0]
    shrink = _add_jobs(dag, "mShrink", 1)[0]
    jpeg = _add_jobs(dag, "mJPEG", 1)[0]

    # Each mDiffFit consumes a sliding window of overlapping projections,
    # which is what gives Montage its dense edge structure.
    window = 6
    for i, diff in enumerate(diffs):
        start = (i * (num_images - window)) // max(num_diffs - 1, 1)
        for offset in range(window):
            dag.add_edge(projects[(start + offset) % num_images], diff)
        dag.add_edge(diff, concat)
    dag.add_edge(concat, bgmodel)
    for project, background in zip(projects, backgrounds):
        dag.add_edge(bgmodel, background)
        dag.add_edge(project, background)
        dag.add_edge(background, imgtbl)
        dag.add_edge(background, add)
    dag.add_edge(imgtbl, add)
    dag.add_edge(add, shrink)
    dag.add_edge(shrink, jpeg)

    profiles = {
        "mProject": JobTypeProfile(
            "mProject", runtime_mean=120.0, stage_in_bytes_mean=6.0e7,
            stage_out_bytes_mean=8.0e7, cpu_fraction=0.9,
        ),
        "mDiffFit": JobTypeProfile(
            "mDiffFit", runtime_mean=15.0, stage_in_bytes_mean=1.6e8,
            stage_out_bytes_mean=1.0e6, cpu_fraction=0.6, io_intensity=0.5,
        ),
        "mConcatFit": JobTypeProfile(
            "mConcatFit", runtime_mean=40.0, stage_in_bytes_mean=2.0e6, cpu_fraction=0.7,
        ),
        "mBgModel": JobTypeProfile(
            "mBgModel", runtime_mean=300.0, stage_in_bytes_mean=2.0e6, cpu_fraction=0.95,
        ),
        "mBackground": JobTypeProfile(
            "mBackground", runtime_mean=20.0, stage_in_bytes_mean=8.0e7,
            stage_out_bytes_mean=8.0e7, cpu_fraction=0.5, io_intensity=0.6,
        ),
        "mImgtbl": JobTypeProfile(
            "mImgtbl", runtime_mean=25.0, stage_in_bytes_mean=1.0e7, io_intensity=0.7,
        ),
        "mAdd": JobTypeProfile(
            "mAdd", runtime_mean=400.0, stage_in_bytes_mean=1.3e10,
            stage_out_bytes_mean=5.0e9, stage_in_delay_mean=300.0, io_intensity=0.8,
            cpu_fraction=0.4,
        ),
        "mShrink": JobTypeProfile(
            "mShrink", runtime_mean=60.0, stage_in_bytes_mean=5.0e9,
            stage_out_bytes_mean=2.0e8, io_intensity=0.7, cpu_fraction=0.5,
        ),
        "mJPEG": JobTypeProfile(
            "mJPEG", runtime_mean=30.0, stage_in_bytes_mean=2.0e8,
            stage_out_bytes_mean=2.0e7, cpu_fraction=0.8,
        ),
    }
    spec = WorkflowSpec("montage", dag, profiles)
    spec.validate()
    return spec


# --------------------------------------------------------------------------- #
# Predict Future Sales
# --------------------------------------------------------------------------- #
def build_sales_prediction_workflow() -> WorkflowSpec:
    """Predict Future Sales ML workflow (165 jobs).

    Preprocessing jobs clean the historical sales data, feature-engineering
    jobs compute lag/aggregate features, a grid of model-training jobs fits
    gradient-boosting / neural models with different hyper-parameters,
    per-fold validation jobs score them, and an ensembling chain produces the
    final forecast.
    """
    dag = nx.DiGraph()
    preprocess = _add_jobs(dag, "preprocess", 6)
    features = _add_jobs(dag, "feature_engineering", 36)
    trainings = _add_jobs(dag, "train_model", 96)
    validations = _add_jobs(dag, "validate", 24)
    ensembles = _add_jobs(dag, "ensemble", 2)
    predict = _add_jobs(dag, "predict_sales", 1)[0]

    for i, feat in enumerate(features):
        dag.add_edge(preprocess[i % len(preprocess)], feat)
        dag.add_edge(preprocess[(i + 1) % len(preprocess)], feat)
    for i, train in enumerate(trainings):
        dag.add_edge(features[i % len(features)], train)
        dag.add_edge(features[(i + 7) % len(features)], train)
        dag.add_edge(train, validations[i % len(validations)])
    for i, validation in enumerate(validations):
        dag.add_edge(validation, ensembles[i % len(ensembles)])
    for ensemble in ensembles:
        dag.add_edge(ensemble, predict)

    profiles = {
        "preprocess": JobTypeProfile(
            "preprocess", runtime_mean=150.0, stage_in_bytes_mean=1.5e9,
            stage_out_bytes_mean=8.0e8, stage_in_delay_mean=120.0, io_intensity=0.7,
            cpu_fraction=0.55,
        ),
        "feature_engineering": JobTypeProfile(
            "feature_engineering", runtime_mean=420.0, stage_in_bytes_mean=8.0e8,
            stage_out_bytes_mean=4.0e8, io_intensity=0.5, cpu_fraction=0.75,
        ),
        "train_model": JobTypeProfile(
            "train_model", runtime_mean=900.0, stage_in_bytes_mean=4.0e8,
            stage_out_bytes_mean=5.0e7, cpu_fraction=0.95,
        ),
        "validate": JobTypeProfile(
            "validate", runtime_mean=120.0, stage_in_bytes_mean=1.0e8, cpu_fraction=0.8,
        ),
        "ensemble": JobTypeProfile(
            "ensemble", runtime_mean=180.0, stage_in_bytes_mean=2.0e8, cpu_fraction=0.85,
        ),
        "predict_sales": JobTypeProfile(
            "predict_sales", runtime_mean=60.0, stage_in_bytes_mean=1.0e8,
            stage_out_bytes_mean=2.0e7, cpu_fraction=0.8,
        ),
    }
    spec = WorkflowSpec("predict_future_sales", dag, profiles)
    spec.validate()
    return spec


#: Canonical short names used throughout the experiments and benchmarks.
WORKFLOW_BUILDERS: dict[str, Callable[[], WorkflowSpec]] = {
    "1000genome": build_1000genome_workflow,
    "montage": build_montage_workflow,
    "predict_future_sales": build_sales_prediction_workflow,
}

WORKFLOW_NAMES: tuple[str, ...] = tuple(WORKFLOW_BUILDERS)

_ALIASES = {
    "1000genome": "1000genome",
    "1000 genome": "1000genome",
    "genome": "1000genome",
    "montage": "montage",
    "predict_future_sales": "predict_future_sales",
    "sales": "predict_future_sales",
    "sales_prediction": "predict_future_sales",
    "predict future sales": "predict_future_sales",
}


def build_workflow(name: str) -> WorkflowSpec:
    """Build a workflow by (alias-tolerant) name."""
    key = _ALIASES.get(name.strip().lower())
    if key is None:
        raise KeyError(f"unknown workflow {name!r}; choose from {sorted(set(_ALIASES))}")
    return WORKFLOW_BUILDERS[key]()
