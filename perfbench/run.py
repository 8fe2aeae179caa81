"""Serving benchmark entry point.

One workload per invocation::

    python3 perfbench/run.py --workload fleet_holt_4k --seed 1 --seconds 8 --trace 0

prints each metric with its unit, the machine stamp and the output
checks, then one JSON line ``{"correct", "attempted", "failed",
"metrics"}`` as the last line. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates that run with the product's
observability off and with the benchmark's probes in place, and reports
the per-layer table. Other modes:

* ``--workload all`` runs every workload in its own process and writes
  ``perfbench/results/seed-<seed>-trace-<0|1>.json``;
* ``--smoke`` runs every workload once at tiny sizes, traced and not, and
  asserts every metric named in ``BENCHMARK.json`` is present with its unit;
* ``--compare A.json B.json`` compares two ``--out`` files, refusing when
  their machine stamps differ;
* ``--record`` stores this seed's quality outputs in ``expected.json``.

Run from the repository root; the benchmark reads the program from ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: development seed, and the held-out seed a gain claim must also hold on
DEV_SEED = 1
HELDOUT_SEED = 2


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, help="input seed (required)")
    ap.add_argument("--seconds", type=float, default=8.0, help="timed seconds per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fast", action="store_true", help="tiny sizes, one pass")
    ap.add_argument("--out", help="also write the full result as JSON here")
    ap.add_argument("--record", action="store_true", help="store quality in expected.json")
    ap.add_argument("--smoke", action="store_true", help="fast run of every workload")
    ap.add_argument("--compare", nargs=2, metavar="RESULT", help="compare two --out files")
    args = ap.parse_args(argv)
    if not (args.smoke or args.compare) and (args.workload is None or args.seed is None):
        ap.error("--workload and --seed are required")
    return args


def _child(args: list[str]) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(Path(__file__).resolve()), *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)


def _run_one(args) -> int:
    import harness

    result = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace), args.fast)
    print(f"workload {result.workload}  seed {result.seed}  trace {int(result.trace)}  "
          f"passes {result.passes}  tick samples {result.tick_samples}")
    print("stamp " + json.dumps(result.stamp, sort_keys=True))
    print(f"host speed factor {result.speed:.4f} (times below are scaled by it)")
    for name, value in result.end_to_end.items():
        print(f"  {name:<34} {value:>16.6g} {harness.END_TO_END_UNITS[name]}")
    for name, value in result.quality.items():
        print(f"  {name:<34} {value:>16.6g} (quality)")
    if result.trace:
        for name, value in result.metrics.items():
            print(f"  {name:<34} {value:>16.6g} {result.units[name]}")
    for line in result.unmeasured:
        print(f"  unmeasured: {line}")
    for line in result.failures:
        print(f"  CHECK FAILED: {line}")
    print(f"  checks {'passed' if result.correct else 'FAILED'}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(harness.result_dict(result), indent=1) + "\n")
    if args.record:
        _record(result, harness.QUALITY_KEYS.get(result.workload, ("mae",)))
    print(result.summary_line())
    return 0


def _record(result, keys) -> None:
    path = HERE / "expected.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data.setdefault("dev_seed", DEV_SEED)
    data.setdefault("heldout_seed", HELDOUT_SEED)
    values = data.setdefault("values", {}).setdefault(str(result.seed), {})
    values[result.workload] = {k: result.quality[k] for k in keys}
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def _run_all(args) -> int:
    import workloads

    results, status = {}, 0
    out_dir = HERE / "results"
    for name in workloads.WORKLOADS:
        out = out_dir / f"{name}-seed-{args.seed}-trace-{args.trace}.json"
        child_args = ["--workload", name, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out)]
        if args.fast:
            child_args.append("--fast")
        if args.record:
            child_args.append("--record")
        proc = _child(child_args)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            status = 1
            continue
        results[name] = json.loads(out.read_text())
        status |= 0 if results[name]["correct"] else 1
    summary = out_dir / f"seed-{args.seed}-trace-{args.trace}.json"
    summary.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {summary.relative_to(ROOT)}")
    return status


def _smoke() -> int:
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            before = len(problems)
            proc = _child(["--workload", name, "--seed", str(DEV_SEED), "--seconds", "1",
                           "--trace", str(trace), "--fast"])
            label = f"{name} trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(line)}")
            if not line["correct"]:
                problems.append(f"{label}: output checks failed\n{proc.stdout[-2000:]}")
            got = line["metrics"]
            for metric in want[trace]:
                entry = got.get(metric["name"])
                if entry is None or entry.get("unit") != metric["unit"]:
                    problems.append(f"{label}: {metric['name']} missing or wrong unit: {entry}")
            extra = set(got) - {m["name"] for m in want[trace]}
            if extra:
                problems.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
            print(f"smoke {label}: {'ok' if len(problems) == before else 'FAILED'}")
    for p in problems:
        print("SMOKE FAILED: " + p)
    return 1 if problems else 0


def _compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    if a["stamp"] != b["stamp"]:
        diff = {k: (a["stamp"].get(k), b["stamp"].get(k))
                for k in set(a["stamp"]) | set(b["stamp"]) if a["stamp"].get(k) != b["stamp"].get(k)}
        print(f"refusing to compare: machine stamps differ: {diff}")
        return 2
    if a["workload"] != b["workload"] or a["trace"] != b["trace"]:
        print("refusing to compare: different workload or trace mode")
        return 2
    for name, entry in a["metrics"].items():
        other = b["metrics"].get(name)
        if other is None:
            continue
        va, vb = entry["value"], other["value"]
        ratio = f"{vb / va:.4f}x" if va else "n/a"
        print(f"  {name:<34} {va:>14.6g} -> {vb:>14.6g} {entry['unit']:<10} {ratio}")
    return 0


def _stop_children() -> None:
    """Stop and reap every process this one started.

    Shard workers are joined by ``ShardedFleetPredictor.close``; the
    ``multiprocessing`` resource tracker that shared memory starts would
    otherwise outlive this process by a moment and be left unreaped.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        _stop_children()


def _main(argv=None) -> int:
    args = _args(argv)
    if args.compare:
        return _compare(*args.compare)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "benchmarks").is_dir():
        print(f"error: no program to benchmark under {ROOT} (need src/repro)", file=sys.stderr)
        return 2
    # one BLAS thread per process, inherited by every spawned shard worker,
    # so two workers cannot oversubscribe two cores
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.smoke:
        return _smoke()
    if args.workload == "all":
        return _run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
