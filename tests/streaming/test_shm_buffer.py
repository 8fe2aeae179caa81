"""Shared-memory ring storage: element-for-element parity with the private ring.

A :class:`~repro.streaming.buffer.MatrixRingBuffer` built by
``from_arrays`` over a :class:`~repro.streaming.shm.ShmBlock` laid out by
:func:`~repro.streaming.shm.ring_specs` — the way the sharded fleet
builds its coordinator ring and every worker's row-slice — only differs
from a private ring in where its storage lives, so the contract is total
behavioural equality: any append/wrap/read sequence must observe
identical state through both. Hypothesis drives random masked tick
sequences across random geometries to pin that down.

A ring's arrays are views into the shared mapping, so ``close()``
refuses while one is alive (unmapping under it would crash the
interpreter on its next access): every test drops its rings before
closing the owning block, and checks that the close unlinked the
segment.
"""

import subprocess
import sys
import textwrap
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming import (
    MatrixRingBuffer,
    ShmArraySpec,
    ShmBlock,
    SlottedShmBlock,
)
from repro.streaming.shm import ring_specs, slotted_specs

from .ring_reference import apply_op, assert_ring_matches, fresh_references, ring_ops


def ring_over(block, *, capacity, window, rows=slice(None)):
    """The ring over ``rows`` of a :func:`ring_specs` block (as a shard builds it)."""
    return MatrixRingBuffer.from_arrays(
        block["ring_data"][rows],
        block["ring_head"][rows],
        block["ring_size"][rows],
        capacity=capacity,
        window=window,
    )


def close_unlinked(block):
    """Close an owning block and check that its segment is gone."""
    name = block.name
    block.close()
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)


@pytest.fixture
def shm_ring():
    """``make(streams, capacity, features, window)`` -> ``(block, ring)``.

    Blocks are closed at teardown, after the test has dropped its rings.
    """
    blocks = []

    def make(streams, capacity, features=1, window=1):
        block = ShmBlock.create(ring_specs(streams, capacity, features, window=window))
        blocks.append(block)
        return block, ring_over(block, capacity=capacity, window=window)

    yield make
    for block in blocks:
        close_unlinked(block)


class TestSharedRingParity:
    @given(
        st.integers(1, 5),
        st.integers(2, 10),
        st.lists(
            st.lists(st.booleans(), min_size=1, max_size=5),
            min_size=0,
            max_size=30,
        ),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_private_ring_under_random_ticks(self, streams, capacity, masks, data):
        """Random append/wrap/read: shm ring == private ring, element for element."""
        block = ShmBlock.create(ring_specs(streams, capacity, 1, window=capacity))
        try:
            shared = ring_over(block, capacity=capacity, window=capacity)
            private = MatrixRingBuffer(streams, capacity, 1, window=capacity)
            rng = np.random.default_rng(0)
            for tick_mask in masks:
                mask = np.resize(np.asarray(tick_mask, bool), streams)
                records = rng.normal(size=(streams, 1))
                shared.append_tick(records, mask=mask)
                private.append_tick(records, mask=mask)
            np.testing.assert_array_equal(shared.sizes, private.sizes)
            for i in range(streams):
                np.testing.assert_array_equal(shared.view(i), private.view(i))
            if int(private.sizes.min()) >= 1:
                w = data.draw(st.integers(1, int(private.sizes.min())))
                idx = np.arange(streams)
                np.testing.assert_array_equal(
                    shared.last_windows(idx, w), private.last_windows(idx, w)
                )
            # internal cursor state must agree too, not just the views
            s_state, p_state = shared.state_dict(), private.state_dict()
            np.testing.assert_array_equal(s_state["head"], p_state["head"])
            np.testing.assert_array_equal(s_state["size"], p_state["size"])
        finally:
            shared = None
            close_unlinked(block)

    def test_state_dict_round_trip_through_shared_storage(self, shm_ring):
        private = MatrixRingBuffer(3, 4, 2)
        rng = np.random.default_rng(1)
        for _ in range(7):
            private.append_tick(rng.normal(size=(3, 2)))
        _, shared = shm_ring(3, 4, 2)
        shared.load_state_dict(private.state_dict())
        for i in range(3):
            np.testing.assert_array_equal(shared.view(i), private.view(i))


class TestPaddedSharedRing:
    """The padded ring over shared storage == per-stream rolling buffers."""

    @given(st.integers(1, 5), st.integers(1, 10), st.data())
    @settings(max_examples=50, deadline=None)
    def test_ticks_clears_and_roundtrips_match_rolling_buffers(self, streams, capacity, data):
        window = data.draw(st.integers(1, capacity), label="window")
        block = ShmBlock.create(ring_specs(streams, capacity, 2, window=window))
        try:
            ring = ring_over(block, capacity=capacity, window=window)
            refs = fresh_references(streams, capacity, 2)
            rng = np.random.default_rng(0)
            for op in data.draw(ring_ops(streams), label="ops"):
                refs = apply_op(ring, refs, op, rng)
                assert_ring_matches(ring, refs)
        finally:
            ring = None
            close_unlinked(block)

    @given(st.integers(2, 6), st.integers(1, 10), st.data())
    @settings(max_examples=40, deadline=None)
    def test_row_slices_of_a_padded_block(self, streams, capacity, data):
        """Shard-style slices of a padded block; the whole-block ring reads them."""
        window = data.draw(st.integers(1, capacity), label="window")
        split = data.draw(st.integers(1, streams - 1), label="split")
        block = ShmBlock.create(ring_specs(streams, capacity, 1, window=window))
        geometry = dict(capacity=capacity, window=window)
        try:
            fleet = ring_over(block, **geometry)
            lower = ring_over(block, rows=slice(None, split), **geometry)
            upper = ring_over(block, rows=slice(split, None), **geometry)
            refs = fresh_references(streams, capacity, 1)
            rng = np.random.default_rng(2)
            for code, mask in data.draw(ring_ops(streams), label="ops"):
                lower_refs = apply_op(lower, refs[:split], (code, mask[:split]), rng)
                upper_refs = apply_op(upper, refs[split:], (code, mask[split:]), rng)
                refs = lower_refs + upper_refs
                assert_ring_matches(lower, lower_refs)
                assert_ring_matches(upper, upper_refs)
            assert_ring_matches(fleet, refs)
        finally:
            fleet = lower = upper = None
            close_unlinked(block)

    def test_specs_and_factories_take_window_explicitly(self, shm_ring):
        data_spec, head_spec, size_spec = ring_specs(4, 10, 2, window=6)
        assert data_spec.shape == (4, 15, 2)
        assert head_spec.shape == size_spec.shape == (4,)
        assert ring_specs(4, 10, 2)[0].shape == (4, 10, 2)
        block, ring = shm_ring(4, 10, 2, window=6)
        assert (ring.capacity, ring.window) == (10, 6)
        ring = None
        arrays = [block["ring_data"], block["ring_head"], block["ring_size"]]
        # capacity cannot be read off a padded array: it must be named
        with pytest.raises(TypeError, match="capacity"):
            MatrixRingBuffer.from_arrays(*arrays, window=6)
        with pytest.raises(ValueError, match="does not match"):
            MatrixRingBuffer.from_arrays(*arrays, capacity=15, window=6)
        arrays.clear()


class TestCrossMappingCoherence:
    def test_attach_sees_creator_writes(self, shm_ring):
        block, creator = shm_ring(2, 5)
        attached_block = ShmBlock.attach(ring_specs(2, 5, 1), block.name)
        try:
            attached = ring_over(attached_block, capacity=5, window=1)
            creator.append_tick(np.array([[1.0], [2.0]]))
            creator.append_tick(np.array([[3.0], [4.0]]), mask=np.array([True, False]))
            np.testing.assert_array_equal(attached.view(0)[:, 0], [1.0, 3.0])
            np.testing.assert_array_equal(attached.view(1)[:, 0], [2.0])
            np.testing.assert_array_equal(attached.sizes, creator.sizes)
        finally:
            attached = None
            attached_block.close()

    def test_row_slice_rings_share_the_fleet_storage(self):
        """Shard-style slices: each slice ring writes its rows of one block."""
        block = ShmBlock.create(ring_specs(4, 3, 1))
        geometry = dict(capacity=3, window=1)
        try:
            fleet = ring_over(block, **geometry)
            lower = ring_over(block, rows=slice(None, 2), **geometry)
            upper = ring_over(block, rows=slice(2, None), **geometry)
            for t in range(5):
                lower.append_tick(np.full((2, 1), float(t)))
                upper.append_tick(np.full((2, 1), float(10 + t)))
            for i in range(4):
                expected = [2.0, 3.0, 4.0] if i < 2 else [12.0, 13.0, 14.0]
                np.testing.assert_array_equal(fleet.view(i)[:, 0], expected)
        finally:
            fleet = lower = upper = None
            close_unlinked(block)


class TestShmBlock:
    def test_arrays_are_zeroed_and_typed(self):
        block = ShmBlock.create(
            (ShmArraySpec("a", (3, 2), "<f8"), ShmArraySpec("b", (4,), "|u1"))
        )
        try:
            assert block["a"].dtype == np.float64 and block["a"].shape == (3, 2)
            assert block["b"].dtype == np.uint8
            assert not block["a"].any() and not block["b"].any()
            assert "a" in block and "missing" not in block
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


class TestCloseWithLiveViews:
    def test_close_refuses_while_a_ring_views_the_block(self):
        block = ShmBlock.create(ring_specs(2, 5, 1))
        ring = ring_over(block, capacity=5, window=1)
        with pytest.raises(BufferError, match="ring_data, ring_head, ring_size"):
            block.close()
        # refused twice over: the block still tracks the arrays the ring holds
        with pytest.raises(BufferError, match="live views"):
            block.close()
        ring.append_tick(np.ones((2, 1)))
        assert ring.sizes.tolist() == [1, 1]
        ring = None
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
        """Build a ring, close its block, touch the ring: no SIGSEGV."""
        src = Path(__file__).resolve().parents[2] / "src"
        script = textwrap.dedent(
            f"""
            import sys
            sys.path.insert(0, {str(src)!r})
            import numpy as np
            from repro.streaming import MatrixRingBuffer, ShmBlock
            from repro.streaming.shm import ring_specs

            block = ShmBlock.create(ring_specs(2, 5, 1))
            ring = MatrixRingBuffer.from_arrays(
                block["ring_data"], block["ring_head"], block["ring_size"],
                capacity=5, window=1,
            )
            try:
                block.close()
            except BufferError:
                print("refused")
            for _ in range(7):
                ring.append_tick(np.ones((2, 1)))
            print(ring.sizes.tolist())
            ring = None
            block.close()
            print("closed")
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, (proc.returncode, proc.stderr)
        assert proc.stdout.split() == ["refused", "[5,", "5]", "closed"]

    def test_a_block_dropped_under_a_live_ring_stays_mapped_until_the_ring_dies(self):
        """Drop the block without ``close()``, keep using its ring: no SIGSEGV.

        The collected block cannot close under the ring's views, so the
        last of them keeps the mapping; once the ring dies the segment is
        unmapped and, by its owner, unlinked.
        """
        src = Path(__file__).resolve().parents[2] / "src"
        script = textwrap.dedent(
            f"""
            import gc
            import sys
            sys.path.insert(0, {str(src)!r})
            from multiprocessing import shared_memory
            import numpy as np
            from repro.streaming import MatrixRingBuffer, ShmBlock
            from repro.streaming.shm import ring_specs

            blk = ShmBlock.create(ring_specs(2, 5, 1))
            name = blk.name
            ring = MatrixRingBuffer.from_arrays(
                blk["ring_data"], blk["ring_head"], blk["ring_size"],
                capacity=4, window=2,
            )
            del blk
            gc.collect()
            for _ in range(6):
                ring.append_tick(np.ones((2, 1)))
            print(ring.sizes.tolist())
            del ring
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
        assert proc.stdout.split() == ["[4,", "4]", "unlinked"]


class TestSlottedShmBlock:
    SPECS = (
        ShmArraySpec("ticks_in", (6, 2), "<f8"),
        ShmArraySpec("health", (6,), "|u1"),
    )

    def test_slotted_specs_expand_and_validate(self):
        expanded = slotted_specs(self.SPECS, 2)
        assert [s.name for s in expanded] == [
            "ticks_in@0", "health@0", "ticks_in@1", "health@1",
        ]
        assert all(s.shape == orig.shape and s.dtype == orig.dtype
                   for s, orig in zip(expanded, self.SPECS * 2))
        with pytest.raises(ValueError, match="slots"):
            slotted_specs(self.SPECS, 0)

    def test_bank_views_and_shared_arrays(self):
        block = SlottedShmBlock.create(
            self.SPECS, slots=2, shared=(ShmArraySpec("ring_head", (6,), "<i8"),)
        )
        try:
            bank0, bank1 = block.bank(0), block.bank(1)
            assert bank0.slot == 0 and bank1.slot == 1
            assert block.bank(2).slot == 0  # step % slots
            bank0["ticks_in"][...] = 1.0
            bank1["ticks_in"][...] = 2.0
            assert block.array("ticks_in", 0)[0, 0] == 1.0
            assert block["ticks_in", 1][0, 0] == 2.0
            assert ("ticks_in", 1) in block and ("ticks_in", 2) not in block
            # shared arrays are single-copy and addressed by bare name
            block["ring_head"][...] = 7
            assert block["ring_head"][0] == 7
            with pytest.raises(IndexError, match="slot"):
                block.array("ticks_in", 2)
        finally:
            block.close()

    def test_attach_sees_creator_banks(self):
        creator = SlottedShmBlock.create(self.SPECS, slots=2)
        try:
            attached = SlottedShmBlock.attach(self.SPECS, 2, creator.name)
            try:
                creator.bank(3)["health"][...] = 9
                assert attached.bank(3)["health"][0] == 9
                assert not attached.bank(2)["health"].any()
            finally:
                attached.close()
        finally:
            creator.close()

    @given(
        st.integers(1, 4),     # slots
        st.integers(0, 4),     # arrays per bank
        st.integers(0, 200),   # starting step
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_consecutive_step_banks_never_alias(self, slots, n_arrays, start, data):
        """Writes at step t must never bleed into the banks of the other steps.

        This is the safety property the tick pipeline leans on: the
        coordinator stages tick t+1 while workers still compute tick t,
        so with slots >= 2 the two banks must occupy disjoint memory —
        for every field, across arbitrary shapes and dtypes.
        """
        specs = tuple(
            ShmArraySpec(
                f"f{i}",
                data.draw(st.sampled_from([(3,), (2, 2), (5, 1)])),
                data.draw(st.sampled_from(["<f8", "<i8", "|u1"])),
            )
            for i in range(n_arrays)
        )
        block = SlottedShmBlock.create(specs, slots=slots)
        try:
            written = block.bank(start)
            for spec in specs:
                written[spec.name][...] = np.ones((), dtype=spec.dtype)
            for offset in range(1, slots):
                other = block.bank(start + offset)
                assert other.slot != written.slot
                for spec in specs:
                    assert not other[spec.name].any(), (
                        f"bank {written.slot} write aliased into bank "
                        f"{other.slot} for {spec.name!r}"
                    )
            # and the write itself landed
            for spec in specs:
                assert written[spec.name].all()
        finally:
            block.close()
