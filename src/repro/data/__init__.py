"""Algorithm-1 data pipeline: clean → normalize → screen → expand → window.

Each stage of the paper's Algorithm 1 is a standalone, testable module;
:mod:`repro.data.pipeline` composes them into the end-to-end
``PredictionPipeline`` that feeds any :mod:`repro.models` forecaster.
"""

from .cleaning import CleaningReport, clean_matrix
from .correlation import (
    correlation_matrix,
    pearson,
    rank_by_correlation,
    select_top_half,
)
from .expansion import (
    difference_expand,
    horizontal_expand,
    weighted_horizontal_expand,
)
from .pipeline import PipelineConfig, PredictionPipeline, PipelineResult
from .scaling import MinMaxScaler
from .windowing import (
    SplitIndices,
    WindowDataset,
    chronological_split,
    make_windows,
)

__all__ = [
    "CleaningReport",
    "clean_matrix",
    "pearson",
    "correlation_matrix",
    "rank_by_correlation",
    "select_top_half",
    "horizontal_expand",
    "difference_expand",
    "weighted_horizontal_expand",
    "MinMaxScaler",
    "make_windows",
    "chronological_split",
    "SplitIndices",
    "WindowDataset",
    "PipelineConfig",
    "PredictionPipeline",
    "PipelineResult",
]
