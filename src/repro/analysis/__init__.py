"""Trace characterization and result reporting (Figs. 1-3, 7-10 data)."""

from .characterization import (
    BoxplotStats,
    boxplot_stats_per_window,
    fraction_below,
    resource_series,
    utilization_summary,
)
from .convergence import ConvergenceRecord, compare_convergence, epochs_to_threshold
from .dynamics import time_to_track
from .reporting import format_table, format_table2, render_ascii_series

__all__ = [
    "BoxplotStats",
    "boxplot_stats_per_window",
    "fraction_below",
    "resource_series",
    "utilization_summary",
    "ConvergenceRecord",
    "compare_convergence",
    "epochs_to_threshold",
    "format_table",
    "format_table2",
    "render_ascii_series",
    "time_to_track",
]
