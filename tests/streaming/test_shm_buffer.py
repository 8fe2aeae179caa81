"""Shared-memory tick storage: typed arrays, banks that never alias, safe close.

The sharded fleet's coordinator creates one
:class:`~repro.streaming.shm.ShmBlock` holding the per-tick arrays, each
with a leading bank axis (bank ``t`` is ``block[name][t % banks]``), and
every shard worker attaches to it. These tests pin down the block
itself: typed zeroed arrays, banks that never alias, attachers that see
the creator's writes, and a ``close()`` that refuses while a NumPy view
of the segment is alive (unmapping under it would crash the interpreter
on its next access) and always unlinks the segment in the end — for a
bare block and for a sharded fleet, after a clean run and after a
killed and respawned worker.
"""

import subprocess
import sys
import textwrap
import time
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import MetricRegistry
from repro.streaming import (
    ChaosSchedule,
    RespawnPolicy,
    ShardedFleetPredictor,
    ShmArraySpec,
    ShmBlock,
)

#: three arrays whose views stand in for anything a process keeps of a block
TRIO = (
    ShmArraySpec("a", (2, 5, 1), "<f8"),
    ShmArraySpec("b", (2,), "<i8"),
    ShmArraySpec("c", (2,), "<i8"),
)


def close_unlinked(block):
    """Close an owning block and check that its segment is gone."""
    name = block.name
    block.close()
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)


def banked(specs, banks):
    """``specs`` with a leading ``banks`` axis, as the sharded fleet lays out its ticks."""
    return tuple(ShmArraySpec(s.name, (banks, *s.shape), s.dtype) for s in specs)


class TestCrossMappingCoherence:
    def test_attach_sees_creator_writes(self):
        specs = banked(TRIO, 2)
        block = ShmBlock.create(specs)
        attached = ShmBlock.attach(specs, block.name)
        try:
            block["a"][0, 1, 3, 0] = 7.0
            assert attached["a"][0, 1, 3, 0] == 7.0
            attached["c"][0, 0] = 9
            assert block["c"].tolist() == [[9, 0], [0, 0]]
        finally:
            attached.close()
            close_unlinked(block)


class TestSlottedShmBlock:
    """The slotted layout: one bank per step slot, bank ``t`` at ``[t % banks]``."""

    def test_attach_sees_creator_banks(self):
        specs = banked(TRIO, 2)
        creator = ShmBlock.create(specs)
        try:
            attached = ShmBlock.attach(specs, creator.name)
            try:
                creator["b"][3 % 2] = [4, 5]
                assert attached["b"][3 % 2].tolist() == [4, 5]
                assert not attached["b"][2 % 2].any()
            finally:
                attached.close()
        finally:
            close_unlinked(creator)


class TestShmBlock:
    def test_arrays_are_zeroed_and_typed(self):
        block = ShmBlock.create(
            (ShmArraySpec("a", (3, 2), "<f8"), ShmArraySpec("b", (4,), "|u1"))
        )
        try:
            assert block["a"].dtype == np.float64 and block["a"].shape == (3, 2)
            assert block["b"].dtype == np.uint8
            assert not block["a"].any() and not block["b"].any()
            assert block["a"] is not None
            with pytest.raises(KeyError):
                block["missing"]
        finally:
            block.close()

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ShmBlock.create((ShmArraySpec("x", (1,), "<f8"), ShmArraySpec("x", (2,), "<f8")))

    def test_owner_close_unlinks_segment(self):
        specs = (ShmArraySpec("x", (2,), "<f8"),)
        block = ShmBlock.create(specs)
        name = block.name
        block.close()
        block.close()  # idempotent
        with pytest.raises(FileNotFoundError):
            ShmBlock.attach(specs, name)

    @given(
        st.integers(1, 4),     # banks
        st.integers(0, 4),     # arrays per bank
        st.integers(0, 200),   # starting step
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_consecutive_step_banks_never_alias(self, slots, n_arrays, start, data):
        """Writes at step t must never bleed into the banks of the other steps.

        This is the safety property the tick pipeline leans on: the
        coordinator stages tick t+1 while workers still compute tick t,
        so with two or more banks the two must occupy disjoint memory —
        for every field, across arbitrary shapes and dtypes.
        """
        specs = banked(
            tuple(
                ShmArraySpec(
                    f"f{i}",
                    data.draw(st.sampled_from([(3,), (2, 2), (5, 1)])),
                    data.draw(st.sampled_from(["<f8", "<i8", "|u1"])),
                )
                for i in range(n_arrays)
            ),
            slots,
        )
        block = ShmBlock.create(specs)
        try:
            bank = start % slots
            for spec in specs:
                block[spec.name][bank] = np.ones((), dtype=spec.dtype)
            for offset in range(1, slots):
                other = (start + offset) % slots
                assert other != bank
                for spec in specs:
                    assert not block[spec.name][other].any(), (
                        f"bank {bank} write aliased into bank {other} for {spec.name!r}"
                    )
            # and the write itself landed
            for spec in specs:
                assert block[spec.name][bank].all()
        finally:
            block.close()


class TestCloseWithLiveViews:
    """A kept slice of a block's arrays stands in for any long-lived view."""

    def test_close_refuses_while_a_ring_views_the_block(self):
        block = ShmBlock.create(TRIO)
        views = [block[spec.name][1:] for spec in TRIO]
        with pytest.raises(BufferError, match="a, b, c"):
            block.close()
        # refused twice over: the block still tracks the arrays the views hold
        with pytest.raises(BufferError, match="live views"):
            block.close()
        views[1] += 1
        assert block["b"].tolist() == [0, 1]
        views = None
        close_unlinked(block)

    def test_a_kept_array_reference_pins_the_block(self):
        block = ShmBlock.create((ShmArraySpec("x", (4,), "<f8"),))
        tail = block["x"][2:]
        with pytest.raises(BufferError, match="x"):
            block.close()
        tail[...] = 1.0
        del tail
        close_unlinked(block)

    def test_touching_a_ring_after_close_does_not_crash(self):
        """Keep a view, close its block, touch the view: no SIGSEGV."""
        src = Path(__file__).resolve().parents[2] / "src"
        script = textwrap.dedent(
            f"""
            import sys
            sys.path.insert(0, {str(src)!r})
            from repro.streaming import ShmArraySpec, ShmBlock

            block = ShmBlock.create((ShmArraySpec("size", (2,), "<i8"),))
            size = block["size"][:]
            try:
                block.close()
            except BufferError:
                print("refused")
            for _ in range(7):
                size += 1
            print(size.tolist())
            size = None
            block.close()
            print("closed")
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, (proc.returncode, proc.stderr)
        assert proc.stdout.split() == ["refused", "[7,", "7]", "closed"]

    def test_a_block_dropped_under_a_live_ring_stays_mapped_until_the_ring_dies(self):
        """Drop the block without ``close()``, keep using a view: no SIGSEGV.

        The collected block cannot close under the view, so the last of
        the views keeps the mapping; once it dies the segment is unmapped
        and, by its owner, unlinked.
        """
        src = Path(__file__).resolve().parents[2] / "src"
        script = textwrap.dedent(
            f"""
            import gc
            import sys
            sys.path.insert(0, {str(src)!r})
            from multiprocessing import shared_memory
            from repro.streaming import ShmArraySpec, ShmBlock

            blk = ShmBlock.create(
                (ShmArraySpec("head", (2,), "<i8"), ShmArraySpec("size", (2,), "<i8"))
            )
            name = blk.name
            head, size = blk["head"][:], blk["size"][:]
            del blk
            gc.collect()
            for _ in range(6):
                head += 1
                size += 1
            print(head.tolist(), size.tolist())
            del head
            gc.collect()
            size += 1
            print(size.tolist())
            del size
            gc.collect()
            try:
                shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                print("unlinked")
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, (proc.returncode, proc.stderr)
        assert proc.stdout.split() == ["[6,", "6]", "[6,", "6]", "[7,", "7]", "unlinked"]


class TestShardedSegmentLifecycle:
    """The sharded fleet's segment: seven banked tick arrays, gone after close()."""

    FLEET_KW = dict(
        forecaster_name="holt", window=4, buffer_capacity=16, refit_interval=8, min_fit_size=8
    )

    def test_segment_holds_the_banked_ticks_and_close_unlinks_it(self):
        n = 3
        ticks = 50.0 + np.random.default_rng(0).standard_normal((6, n))
        pred = ShardedFleetPredictor(n, shards=2, registry=MetricRegistry(), **self.FLEET_KW)
        try:
            name = pred._block.name
            assert {(s.name, s.shape) for s in pred._block.specs} == {
                ("ticks_in", (2, n, 1)),
                *((f, (2, n)) for f in ("predictions", "actuals", "errors", "drift",
                                        "health", "gated")),
            }
            pred.run(ticks)
        finally:
            pred.close(collect_metrics=False)
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_close_unlinks_the_segment_after_a_kill_and_respawn(self):
        n, kill_tick = 4, 3
        ticks = 50.0 + np.random.default_rng(1).standard_normal((120, n))
        pred = ShardedFleetPredictor(
            n,
            shards=2,
            registry=MetricRegistry(),
            chaos=ChaosSchedule.kill_at(kill_tick, shard=0),
            respawn=RespawnPolicy(backoff_ticks=1),
            tick_timeout=30.0,
            **self.FLEET_KW,
        )
        try:
            name = pred._block.name
            recovered = None
            for t, row in enumerate(ticks):
                out = pred.process_tick(row)
                if t == kill_tick:
                    # a down shard's histories are unreachable; a live one's are not
                    with pytest.raises(RuntimeError, match="needs a live worker"):
                        pred.stream_history(0)
                    assert len(pred.stream_history(n - 1)) == t + 1
                if t > kill_tick and not pred.failed_shards and (out.health[:2] != 3).all():
                    recovered = t
                    break
                if pred.recovering_shards:
                    time.sleep(0.15)
            assert pred.respawns == 1 and recovered is not None
            # the replacement re-attached to the same block and serves from it
            assert pred._block.name == name
            for row in ticks[recovered + 1 : recovered + 21]:
                out = pred.process_tick(row)
            assert np.isfinite(out.predictions).all()
        finally:
            pred.close(collect_metrics=False)
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
