"""Cluster characterization: the paper's §II analysis on a synthetic cluster.

Reproduces the motivation figures' statistics (Figs. 1-3), writes the
trace out in the Alibaba v2018 CSV layout, and reads it back — the full
data lifecycle a downstream user needs.

Run:  python examples/trace_analysis.py
"""

from __future__ import annotations

import tempfile

from repro.analysis.characterization import (
    boxplot_stats_per_window,
    fraction_below,
    utilization_summary,
)
from repro.analysis.reporting import format_table, render_ascii_series
from repro.data.correlation import rank_by_correlation
from repro.traces import (
    ClusterTraceGenerator,
    CorruptionConfig,
    TraceConfig,
    corrupt_trace,
    read_trace_csv,
    write_trace_csv,
)
from repro.traces.schema import indicator_names


def main() -> None:
    trace = ClusterTraceGenerator(
        TraceConfig(n_machines=8, containers_per_machine=3, n_steps=2000, seed=3)
    ).generate()
    print(f"cluster: {trace.n_machines} machines, {trace.n_containers} containers")

    # Fig. 1: high-dynamic container series
    dyn = [c for c in trace.containers if c.workload == "regime_switching"][0]
    print(f"\nFig. 1 style — container {dyn.entity_id} ({dyn.workload}):")
    for name in ("cpu_util_percent", "mem_util_percent", "disk_io_percent"):
        print(render_ascii_series(dyn.indicator(name), label=name[:12]))

    # Fig. 2: cluster-average CPU boxplots
    cluster_avg = trace.machine_cpu_matrix().mean(axis=0)
    stats = boxplot_stats_per_window(cluster_avg, window=250)
    rows = [[i, s.q1, s.median, s.q3, s.mean] for i, s in enumerate(stats)]
    print("\n" + format_table(["win", "q1", "median", "q3", "mean"], rows,
                              title="Fig. 2 style — cluster-average CPU per window (%)"))

    # Fig. 3: machines below 50%
    fracs = fraction_below(trace.machine_cpu_matrix(), threshold=50.0, window=125)
    print("\nFig. 3 style — fraction of machines below 50% CPU:")
    print(render_ascii_series(fracs, label="frac<50%"))
    print("summary:", {k: round(v, 3) for k, v in utilization_summary(trace).items()})

    # Fig. 7: correlation ranking for one container
    ranking = rank_by_correlation(dyn.values, indicator_names(), "cpu_util_percent")
    print("\nFig. 7 style — CPU correlation ranking:",
          [(n, round(r, 2)) for n, r in ranking])

    # full data lifecycle: corrupt -> persist -> reload
    dirty = corrupt_trace(trace, CorruptionConfig(seed=1))
    with tempfile.TemporaryDirectory() as d:
        machine_csv, container_csv = write_trace_csv(dirty, d)
        sizes = {p.name: f"{p.stat().st_size / 1e6:.1f} MB"
                 for p in (machine_csv, container_csv)}
        reloaded = read_trace_csv(d)
        print(f"\nwrote + reloaded v2018-layout CSVs: {sizes}; "
              f"{reloaded.n_machines} machines, {reloaded.n_containers} containers back")


if __name__ == "__main__":
    main()
