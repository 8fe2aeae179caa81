"""Chaos soak smoke (marker ``perf_smoke``) -> ``BENCH_serving.json``.

Runs the chaos experiment once: SIGKILL one shard of a two-shard fleet
mid-run and check that the supervisor keeps the acceptance promises —
degraded-mode rows are *held* (never NaN) while the breaker is closed,
the killed shard is respawned and restored from its background
checkpoint inside the run, the survivors stay bit-identical to a clean
run, and the no-recovery baseline both loses availability and trips the
crash-loop breaker into quarantine.

Wall-clock recovery time depends on process-spawn latency, so the
gated claims are all in *ticks* and row counts; the recorded seconds
are informational (``check_regression.py`` only gates ``seconds`` /
``per_sec`` keys, and the recovery time key deliberately avoids both).

    python -m pytest benchmarks/test_chaos_recovery.py -q
"""

import json
import os
from pathlib import Path

import pytest

from repro.experiments.chaos import run_chaos

from ._machine import machine_info

#: the fleet must be whole again within this many ticks of the kill
MAX_RECOVERY_TICKS = 400
#: finite rows served post-kill, as a fraction of the clean run
MIN_SUPERVISED_AVAILABILITY = 0.99
#: an unsupervised kill must visibly cost availability (half the fleet dies)
MAX_UNSUPERVISED_AVAILABILITY = 0.9


@pytest.mark.perf_smoke
def test_perf_smoke_chaos_recovery(profile):
    """Supervised kill: full availability + bounded recovery; terminal otherwise."""
    res = run_chaos(
        profile,
        n_streams=64,
        shards=2,
        ticks=160,
        kill_tick=40,
        checkpoint_interval=8,
        tick_interval=0.08,
    )
    sup, unsup = res.supervised, res.unsupervised

    block = {
        # stamped on the block: the entry's top-level stamp belongs to the
        # other serving blocks, which may come from another host
        **machine_info(),
        "n_streams": res.n_streams,
        "shards": res.shards,
        "ticks": res.ticks,
        "kill_tick": res.kill_tick,
        "checkpoint_interval": res.checkpoint_interval,
        "survivors_bit_identical": res.survivors_bit_identical,
        "clean_outage_mae": round(res.clean_outage_mae, 6),
        "supervised": {
            "availability": round(sup.availability, 4),
            "nan_victim_rows": sup.nan_victim_rows,
            "recovery_ticks": sup.recovery_ticks,
            "time_to_recovery_s": (
                None if sup.time_to_recovery_s is None
                else round(sup.time_to_recovery_s, 3)
            ),
            "outage_mae": round(sup.outage_mae, 6),
            "respawns": sup.respawns,
        },
        "unsupervised": {
            "availability": round(unsup.availability, 4),
            "nan_victim_rows": unsup.nan_victim_rows,
            "quarantined": unsup.quarantined,
        },
    }

    path = Path(__file__).resolve().parent.parent / "BENCH_serving.json"
    data = {"schema": "bench-serving/v1", "entries": {}}
    if path.exists():
        data = json.loads(path.read_text())
    label = os.environ.get("RPTCN_BENCH_LABEL", "working-tree")
    data["entries"].setdefault(label, {})["chaos_recovery"] = block
    path.write_text(json.dumps(data, indent=2) + "\n")

    assert res.survivors_bit_identical, (
        "surviving shard diverged from the clean run under chaos"
    )
    assert sup.nan_victim_rows == 0, (
        f"{sup.nan_victim_rows} victim rows went NaN under supervision — "
        "degraded mode must hold the last prediction, not drop rows"
    )
    assert sup.respawns >= 1 and not sup.quarantined, (
        f"supervisor should respawn (respawns={sup.respawns}) without "
        f"quarantining (quarantined={sup.quarantined})"
    )
    assert sup.recovery_ticks is not None and sup.recovery_ticks <= MAX_RECOVERY_TICKS, (
        f"shard not recovered within {MAX_RECOVERY_TICKS} ticks "
        f"(recovery_ticks={sup.recovery_ticks})"
    )
    assert sup.availability >= MIN_SUPERVISED_AVAILABILITY, (
        f"supervised availability {sup.availability:.3f} < "
        f"{MIN_SUPERVISED_AVAILABILITY}"
    )
    assert unsup.availability <= MAX_UNSUPERVISED_AVAILABILITY, (
        f"unsupervised availability {unsup.availability:.3f} suspiciously high — "
        "the kill should take out half the fleet for good"
    )
    assert unsup.quarantined == [0], (
        f"respawn=None failure must durably quarantine shard 0, got "
        f"{unsup.quarantined}"
    )
