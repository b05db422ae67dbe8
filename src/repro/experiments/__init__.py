"""Experiment definitions reproducing every figure of the paper's evaluation.

Each ``figureX`` function builds the figure's dataset, trains the models
the figure compares with the paper's training fractions, and returns an
:class:`~repro.experiments.runner.ExperimentResult` whose rows are the
series the paper plots (MAPE versus training-set size).  The companion
benchmarks in ``benchmarks/`` simply invoke these functions and print the
resulting tables.

Use :func:`~repro.experiments.runner.run_experiment` /
:func:`~repro.experiments.runner.run_all` (or
``python -m repro.experiments``) to execute them directly.  Execution is
plan-based: experiments expand into picklable ``(series, fraction,
repeat)`` cells (:mod:`repro.experiments.plan`) dispatched through
pluggable serial/process/remote executors
(:mod:`repro.experiments.scheduler`) with bit-identical results, backed
by an optional persistent dataset/cache store
(:mod:`repro.datasets.store`).
"""

from repro.experiments.ablations import (
    ablation_aggregation,
    ablation_analytical_quality,
    ablation_ml_backend,
    ablation_sampling_strategy,
    ablation_tree_method,
)
from repro.experiments.figures import (
    analytical_accuracy,
    figure3_fmm,
    figure3_stencil,
    figure5,
    figure6,
    figure7,
    figure8,
)
from repro.experiments.plan import (
    PLANNED_EXPERIMENTS,
    ExperimentPlan,
    FactorySpec,
    SeriesSpec,
    expand_cells,
    experiment_plan,
)
from repro.experiments.pool import CostModel, WorkerPool
from repro.experiments.reporting import format_curves, format_result, results_to_markdown
from repro.experiments.runner import (
    EXPERIMENTS,
    ExperimentResult,
    ExperimentSettings,
    run_all,
    run_experiment,
)
from repro.experiments.scheduler import EXECUTORS, run_plan

__all__ = [
    "ExperimentResult",
    "ExperimentSettings",
    "run_experiment",
    "run_all",
    "EXPERIMENTS",
    "ExperimentPlan",
    "FactorySpec",
    "SeriesSpec",
    "experiment_plan",
    "expand_cells",
    "PLANNED_EXPERIMENTS",
    "EXECUTORS",
    "run_plan",
    "WorkerPool",
    "CostModel",
    "figure3_stencil",
    "figure3_fmm",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "analytical_accuracy",
    "ablation_aggregation",
    "ablation_analytical_quality",
    "ablation_sampling_strategy",
    "ablation_ml_backend",
    "ablation_tree_method",
    "format_curves",
    "format_result",
    "results_to_markdown",
]
