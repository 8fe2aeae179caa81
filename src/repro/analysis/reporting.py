"""Plain-text rendering of tables and figure data.

The benchmark harness prints regenerated paper artifacts to stdout; these
helpers format them as aligned tables (Table II) and ASCII sparkline
charts (Figs. 8-10 shape checks).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["format_table", "format_table2", "render_ascii_series"]

_SPARK = "▁▂▃▄▅▆▇█"


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence], title: str = ""
) -> str:
    """Render an aligned monospace table."""
    str_rows = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(f"row width {len(row)} != header width {len(headers)}")
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def format_table2(
    results: dict[tuple[str, str, str], dict[str, float]],
    scenarios: Sequence[str] = ("uni", "mul", "mul_exp"),
    models: Sequence[str] = ("arima", "lstm", "cnn_lstm", "xgboost", "rptcn"),
) -> str:
    """Render Table II: (scenario, model, level) → {mse, mae}.

    Values are printed x 10^-2 like the paper. Missing combinations (e.g.
    ARIMA outside Uni) render as '-'.
    """
    headers = ["Scenario", "Model", "Cont MSE(e-2)", "Cont MAE(e-2)", "Mach MSE(e-2)", "Mach MAE(e-2)"]
    rows = []
    for scen in scenarios:
        for model in models:
            cont = results.get((scen, model, "containers"))
            mach = results.get((scen, model, "machines"))
            if cont is None and mach is None:
                continue
            rows.append(
                [
                    scen,
                    model,
                    f"{cont['mse'] * 100:.4f}" if cont else "-",
                    f"{cont['mae'] * 100:.4f}" if cont else "-",
                    f"{mach['mse'] * 100:.4f}" if mach else "-",
                    f"{mach['mae'] * 100:.4f}" if mach else "-",
                ]
            )
    return format_table(headers, rows, title="Table II — prediction accuracy (normalized units, x 1e-2)")


def render_ascii_series(
    series: np.ndarray, width: int = 72, label: str = ""
) -> str:
    """One-line unicode sparkline of a series (shape inspection in logs)."""
    series = np.asarray(series, float)
    if series.size == 0:
        raise ValueError("empty series")
    if series.size > width:
        # average pooling down to the display width
        edges = np.linspace(0, series.size, width + 1).astype(int)
        pooled = np.array([series[a:b].mean() for a, b in zip(edges[:-1], edges[1:]) if b > a])
    else:
        pooled = series
    lo, hi = pooled.min(), pooled.max()
    span = hi - lo if hi > lo else 1.0
    levels = ((pooled - lo) / span * (len(_SPARK) - 1)).round().astype(int)
    chart = "".join(_SPARK[i] for i in levels)
    prefix = f"{label:12s} " if label else ""
    return f"{prefix}[{lo:.3f}..{hi:.3f}] {chart}"

