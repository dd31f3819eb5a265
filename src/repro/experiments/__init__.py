"""One module per evaluation table/figure, plus the registry and runner.

Importing this package registers every experiment in
:data:`~repro.experiments.registry.REGISTRY`; the parallel execution
engine (:mod:`repro.exec`), the all-in-one runner, and the CLI all drive
the evaluation through that registry.
"""

from .bench import BenchJobResult, run_bench_job
from .efficiency import EfficiencyResult, run_efficiency
from .fig1 import Fig1Result, run_fig1
from .fig2 import Fig2Result, run_fig2
from .fig3 import Fig3Result, run_fig3
from .fig67 import Fig6Result, Fig7Result, run_fig6, run_fig7
from .fig8 import Fig8Result, run_fig8
from .fig9 import Fig9Result, PanelResult, run_fig9
from .fig10 import Fig10Result, run_fig10
from .fig11 import Fig11Result, run_fig11
from .fuzz import FuzzBatchResult, run_fuzz_batch
from .registry import (
    REGISTRY,
    ExperimentOutcome,
    ExperimentResultMixin,
    ExperimentSpec,
    RestoredResult,
    UnknownExperimentError,
    available_names,
    get_spec,
    ordered_specs,
    register,
    resolve_selection,
)
from .runner import run_all, run_evaluation, save_outcomes

__all__ = [
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_fig10",
    "run_fig11",
    "run_efficiency",
    "run_fuzz_batch",
    "run_bench_job",
    "run_all",
    "run_evaluation",
    "save_outcomes",
    "Fig1Result",
    "Fig2Result",
    "Fig3Result",
    "Fig6Result",
    "Fig7Result",
    "Fig8Result",
    "Fig9Result",
    "PanelResult",
    "Fig10Result",
    "Fig11Result",
    "EfficiencyResult",
    "FuzzBatchResult",
    "BenchJobResult",
    "ExperimentOutcome",
    "ExperimentResultMixin",
    "ExperimentSpec",
    "RestoredResult",
    "UnknownExperimentError",
    "REGISTRY",
    "register",
    "get_spec",
    "ordered_specs",
    "available_names",
    "resolve_selection",
]
