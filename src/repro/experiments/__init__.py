"""Experiment harnesses — one per paper table/figure (see DESIGN.md §4)."""

from .accuracy import Table2Result, run_table2, run_table2_cell, table2_tasks
from .cache import (
    DEFAULT_CACHE_DIR,
    DEFAULT_FINGERPRINT_MODULES,
    ResultCache,
    code_fingerprint,
)
from .characterization import (
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig7,
)
from .config import ExperimentProfile, PROFILES, get_profile
from .convergence import run_fig9, run_fig10
from .curves import Fig8Result, run_fig8
from .fleet import (
    FleetResult,
    FleetScaleResult,
    ShardScaleResult,
    ShardScalingResult,
    make_fleet_streams,
    run_fleet,
    run_shard_scaling,
)
from .generalization import (
    GeneralizationResult,
    generalization_tasks,
    run_generalization,
    run_generalization_target,
)
from .horizon import HorizonResult, run_horizon_sweep
from .parallel import (
    TaskResult,
    TaskSpec,
    derive_seed,
    run_tasks,
    shutdown_pools,
    warm_pool,
)
from .persistence import to_jsonable
from .resilience import ResilienceLevelResult, ResilienceResult, run_resilience
from .robustness import (
    RobustnessResult,
    robustness_tasks,
    run_robustness,
    run_robustness_cell,
)

__all__ = [
    "ExperimentProfile",
    "PROFILES",
    "get_profile",
    "run_table2",
    "run_table2_cell",
    "table2_tasks",
    "Table2Result",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_fig7",
    "run_fig8",
    "Fig8Result",
    "run_fig9",
    "run_fig10",
    "run_horizon_sweep",
    "HorizonResult",
    "run_robustness",
    "run_robustness_cell",
    "robustness_tasks",
    "RobustnessResult",
    "run_resilience",
    "ResilienceResult",
    "ResilienceLevelResult",
    "run_fleet",
    "make_fleet_streams",
    "FleetResult",
    "FleetScaleResult",
    "run_shard_scaling",
    "ShardScaleResult",
    "ShardScalingResult",
    "run_generalization",
    "run_generalization_target",
    "generalization_tasks",
    "GeneralizationResult",
    "to_jsonable",
    "TaskSpec",
    "TaskResult",
    "derive_seed",
    "run_tasks",
    "warm_pool",
    "shutdown_pools",
    "ResultCache",
    "code_fingerprint",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_FINGERPRINT_MODULES",
]
